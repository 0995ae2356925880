//! The paper's procedure-placement algorithm (GBSC, §4) and its §6
//! set-associative extension.
//!
//! Structure (mirroring the paper):
//!
//! 1. **Selection** — greedily merge nodes of the procedure-grain
//!    `TRG_select` working graph, heaviest edge first (like PH).
//! 2. **Alignment** — when two nodes merge, scan every cache-relative
//!    offset of the second node against the first and keep the offset with
//!    the lowest conflict cost (Figure 4's `merge_nodes`). The cost sums
//!    chunk-grain `TRG_place` edge weights over every cache line where
//!    chunks of the two nodes would co-reside; ties pick the first
//!    (smallest) offset, which makes the algorithm degenerate to PH-style
//!    chaining when procedures fit the cache together.
//! 3. **Linearization** — realize the final offsets with the
//!    smallest-positive-gap walk of §4.3 (see [`linearize`]).
//!
//! The set-associative variant replaces the pairwise cost with the §6 pair
//! database: a block is only displaced in a 2-way LRU set when **two**
//! distinct blocks intervene, so alignments are costed by
//! `D(p, {r, s})` over triples that would share a set.

use rand::Rng;
use tempo_cache::CacheConfig;
use tempo_program::{Layout, ProcId, Program};
use tempo_trg::WeightedGraph;

use crate::budget::BudgetExhausted;
use crate::context::unbudgeted;
use crate::merge::{greedy_merge, Combine, Nodes};
use crate::{linearize, PlacementAlgorithm, PlacementContext};

/// The cache-relative alignment decisions for the popular procedures — the
/// intermediate result of GBSC's merging phase, before linearization.
///
/// Exposed so experiments can manipulate alignments directly: the paper's
/// Figure 6 correlation study randomizes the offsets of 0–50 procedures of
/// a finished GBSC placement and re-linearizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementTuples {
    /// Per-procedure cache-line offset; `None` for procedures that were not
    /// aligned (unpopular ones).
    offsets: Vec<Option<u32>>,
    /// Number of cache lines in the target cache (offsets are mod this).
    lines: u32,
}

impl PlacementTuples {
    /// Creates an empty tuple set for `n` procedures and a cache with
    /// `lines` lines.
    pub fn new(n: usize, lines: u32) -> Self {
        PlacementTuples {
            offsets: vec![None; n],
            lines,
        }
    }

    /// The cache-line count offsets are taken modulo.
    pub fn lines(&self) -> u32 {
        self.lines
    }

    /// The alignment of a procedure, if it has one.
    pub fn offset(&self, id: ProcId) -> Option<u32> {
        self.offsets.get(id.as_usize()).copied().flatten()
    }

    /// Sets the alignment of a procedure (reduced mod the line count).
    pub fn set_offset(&mut self, id: ProcId, offset: u32) {
        self.offsets[id.as_usize()] = Some(offset % self.lines);
    }

    /// `(procedure, offset)` pairs for every aligned procedure, id order.
    #[allow(clippy::cast_possible_truncation)] // bounded by construction (see expression)
    pub fn aligned(&self) -> Vec<(ProcId, u32)> {
        self.offsets
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.map(|off| (ProcId::new(i as u32), off)))
            .collect()
    }

    /// Procedures without an alignment, id order.
    #[allow(clippy::cast_possible_truncation)] // bounded by construction (see expression)
    pub fn rest(&self) -> Vec<ProcId> {
        self.offsets
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_none())
            .map(|(i, _)| ProcId::new(i as u32))
            .collect()
    }

    /// Number of aligned procedures.
    pub fn aligned_count(&self) -> usize {
        self.offsets.iter().filter(|o| o.is_some()).count()
    }

    /// Re-aligns `count` randomly chosen aligned procedures to uniformly
    /// random cache lines — the perturbation used to generate the Figure 6
    /// scatter plots. Fewer than `count` procedures are touched when fewer
    /// are aligned.
    pub fn randomize_offsets<R: Rng + ?Sized>(&mut self, count: usize, rng: &mut R) {
        let mut aligned_idx: Vec<usize> = self
            .offsets
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_some())
            .map(|(i, _)| i)
            .collect();
        // Partial Fisher-Yates: the first `count` entries become the sample.
        let n = aligned_idx.len();
        for k in 0..count.min(n) {
            let j = rng.gen_range(k..n);
            aligned_idx.swap(k, j);
            let off = rng.gen_range(0..self.lines);
            self.offsets[aligned_idx[k]] = Some(off);
        }
    }

    /// Realizes the alignments as a linear layout (see [`linearize`]).
    pub fn into_layout(&self, ctx: &PlacementContext<'_>) -> Layout {
        linearize(ctx.program, ctx.cache(), &self.aligned(), &self.rest())
    }
}

/// The offset combine step of GBSC, GBSC-SA, HKC and WCG+offsets: each
/// merge scans every cache-relative offset of node `v` against node `u`
/// and shifts `v` by the one `pick` returns.
struct Offsets<F> {
    lines: u32,
    /// Current cache-line offset of each procedure within its node's frame.
    offsets: Vec<u32>,
    /// `pick(offsets, nodes, u, v)`: the shift of node `v` to commit.
    pick: F,
}

impl<F: FnMut(&[u32], &Nodes, u32, u32) -> u32> Combine for Offsets<F> {
    /// One work unit per candidate offset scanned.
    fn charge(&self, _: &Nodes, _: u32, _: u32) -> u64 {
        u64::from(self.lines)
    }

    fn combine(&mut self, nodes: &mut Nodes, u: u32, v: u32) {
        let shift = (self.pick)(&self.offsets, nodes, u, v);
        for p in nodes.members(v) {
            let offset = &mut self.offsets[p.as_usize()];
            *offset = (*offset + shift) % self.lines;
        }
    }
}

/// Greedy offset merging of the popular procedures over `selection`,
/// returning their final alignments.
///
/// # Errors
///
/// Returns [`BudgetExhausted`] when the context's budget trips mid-merge.
pub(crate) fn offset_tuples(
    ctx: &PlacementContext<'_>,
    selection: &WeightedGraph,
    pick: impl FnMut(&[u32], &Nodes, u32, u32) -> u32,
) -> Result<PlacementTuples, BudgetExhausted> {
    let lines = ctx.cache().lines();
    let mut step = Offsets {
        lines,
        offsets: vec![0; ctx.program.len()],
        pick,
    };
    let nodes = greedy_merge(ctx, selection, ctx.profile.popular.iter(), &mut step)?;
    let mut tuples = PlacementTuples::new(ctx.program.len(), lines);
    for (_, members) in nodes.live() {
        for &p in members {
            tuples.set_offset(p, step.offsets[p.as_usize()]);
        }
    }
    Ok(tuples)
}

/// The first offset of minimal cost (the paper: "selects the first of
/// these offsets" on ties).
#[allow(clippy::cast_possible_truncation)] // an offset is below the line count
pub(crate) fn first_min<T: PartialOrd>(costs: impl IntoIterator<Item = T>) -> u32 {
    let mut best: Option<(usize, T)> = None;
    for (i, c) in costs.into_iter().enumerate() {
        if best.as_ref().is_none_or(|(_, b)| c < *b) {
            best = Some((i, c));
        }
    }
    best.map_or(0, |(i, _)| i as u32)
}

/// Chunk geometry for the chunk-grain costs: owning procedure, line
/// offset within it and length in lines, indexed by global chunk id.
struct ChunkLines {
    lines: u32,
    owner: Vec<ProcId>,
    rel_line: Vec<u32>,
    nlines: Vec<u32>,
}

impl ChunkLines {
    fn new(program: &Program, cache: CacheConfig) -> Self {
        let line_size = cache.line_size();
        let lines_per_chunk = program.chunk_size() / line_size;
        assert!(
            lines_per_chunk >= 1,
            "chunk size must be at least one cache line"
        );
        let nchunks = program.chunk_count() as usize;
        let mut geometry = ChunkLines {
            lines: cache.lines(),
            owner: Vec::with_capacity(nchunks),
            rel_line: vec![0; nchunks],
            nlines: vec![0; nchunks],
        };
        for info in tempo_program::Chunks::new(program) {
            geometry.owner.push(info.owner);
            geometry.rel_line[info.id.as_usize()] = info.ordinal * lines_per_chunk;
            geometry.nlines[info.id.as_usize()] = info.len.div_ceil(line_size);
        }
        geometry
    }

    /// The node a chunk's owning procedure currently belongs to.
    #[inline]
    fn node(&self, nodes: &Nodes, chunk: u32) -> u32 {
        nodes.node_of(self.owner[chunk as usize].index())
    }

    /// Absolute cache lines (mod line count) occupied by a chunk, given
    /// the current offset of its owner.
    fn lines<'s>(&'s self, offsets: &'s [u32], chunk: u32) -> impl Iterator<Item = u32> + 's {
        let c = chunk as usize;
        let start = offsets[self.owner[c].as_usize()] + self.rel_line[c];
        let lines = self.lines;
        (0..self.nlines[c].min(lines)).map(move |k| (start + k) % lines)
    }
}

/// GBSC for direct-mapped caches: the paper's main algorithm.
///
/// # Panics
///
/// [`place`](PlacementAlgorithm::place) panics if the profile's chunk size
/// is smaller than the cache line size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gbsc;

impl Gbsc {
    /// Creates the algorithm with the paper's defaults.
    pub fn new() -> Self {
        Gbsc
    }

    /// Runs only the merging phase, returning the cache-relative alignments
    /// (useful for experiments that manipulate offsets before
    /// linearization, like the paper's Figure 6). Ignores any budget
    /// attached to the context.
    pub fn place_tuples(&self, ctx: &PlacementContext<'_>) -> PlacementTuples {
        unbudgeted(ctx, |ctx| self.tuples(ctx, &ctx.profile.trg_select))
    }

    /// Budget-aware merging over `selection` (`TRG_select` for GBSC, the
    /// popular WCG for WCG+offsets), costed by `TRG_place`.
    pub(crate) fn tuples(
        &self,
        ctx: &PlacementContext<'_>,
        selection: &WeightedGraph,
    ) -> Result<PlacementTuples, BudgetExhausted> {
        let program = ctx.program;
        let geometry = ChunkLines::new(program, ctx.cache());
        let trg_place = &ctx.profile.trg_place;
        let lines = ctx.cache().lines();
        offset_tuples(ctx, selection, move |offsets, nodes, u, v| {
            // Figure 4's cost scan, computed sparsely: for every TRG_place
            // edge crossing the two nodes, each pair of co-residable lines
            // votes for the relative offset that would make them collide.
            let mut acc = vec![0.0f64; lines as usize];
            // Iterate the smaller node's chunks for small-to-large cost.
            let chunks = |n: u32| -> usize {
                nodes
                    .members(n)
                    .iter()
                    .map(|p| program.chunks_of(*p).len())
                    .sum()
            };
            let (iter_node, other, iter_is_v) = if chunks(v) <= chunks(u) {
                (v, u, true)
            } else {
                (u, v, false)
            };
            for &p in nodes.members(iter_node) {
                for chunk in program.chunks_of(p) {
                    for nbr in trg_place.neighbors(chunk) {
                        if geometry.node(nodes, nbr) != other {
                            continue;
                        }
                        let w = trg_place.weight(chunk, nbr);
                        let (cu, cv) = if iter_is_v {
                            (nbr, chunk)
                        } else {
                            (chunk, nbr)
                        };
                        // `acc[i]` = cost of shifting node v by i:
                        // collision when line_u == line_v + i (mod L).
                        for la in geometry.lines(offsets, cu) {
                            for lb in geometry.lines(offsets, cv) {
                                acc[((la + lines - lb) % lines) as usize] += w;
                            }
                        }
                    }
                }
            }
            first_min(&acc)
        })
    }
}

impl PlacementAlgorithm for Gbsc {
    fn name(&self) -> &str {
        "GBSC"
    }

    fn try_place(&self, ctx: &PlacementContext<'_>) -> Result<Layout, BudgetExhausted> {
        Ok(self.tuples(ctx, &ctx.profile.trg_select)?.into_layout(ctx))
    }
}

/// GBSC extended for set-associative caches (§6): alignment costs come from
/// the pair database `D(p, {r, s})`, because an LRU set of associativity 2
/// only loses a block when two distinct blocks intervene.
///
/// Selection still runs over `TRG_select`; only the `merge_nodes` cost
/// changes, exactly as the paper describes. The pair database models the
/// 2-way displacement rule precisely; for higher associativities it is a
/// conservative approximation (the paper's k-victim generalization is
/// combinatorially explosive to profile).
///
/// # Panics
///
/// Placement panics if the profile lacks a pair database (enable
/// [`with_pair_db`](tempo_trg::Profiler::with_pair_db) when profiling) or
/// if the cache is direct-mapped (use [`Gbsc`] instead). Resolving the
/// algorithm through [`algorithm_for`](crate::algorithm_for) rejects both
/// cases before any placement runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GbscSetAssoc;

impl GbscSetAssoc {
    /// Creates the algorithm.
    pub fn new() -> Self {
        GbscSetAssoc
    }
}

impl PlacementAlgorithm for GbscSetAssoc {
    fn name(&self) -> &str {
        "GBSC-SA"
    }

    fn try_place(&self, ctx: &PlacementContext<'_>) -> Result<Layout, BudgetExhausted> {
        let db = ctx.profile.pair_db.as_ref().expect(
            "set-associative placement needs a pair database; enable Profiler::with_pair_db",
        );
        assert!(
            !ctx.cache().is_direct_mapped(),
            "GbscSetAssoc targets set-associative caches; use Gbsc for direct-mapped"
        );
        let geometry = ChunkLines::new(ctx.program, ctx.cache());
        let sets = ctx.cache().sets();
        let lines = ctx.cache().lines() as usize;
        // Pre-collect the associations once; each merge filters by node,
        // through the chunk -> owner table.
        let assocs: Vec<(u32, u32, u32, f64)> =
            db.iter().map(|(k, w)| (k.p, k.r, k.s, w)).collect();
        // Scratch set lists, reused across associations and merges.
        let (mut fixed, mut shifted, mut mine) = (Vec::new(), Vec::new(), Vec::new());
        let tuples = offset_tuples(ctx, &ctx.profile.trg_select, move |offsets, nodes, u, v| {
            let mut acc = vec![0.0f64; lines];
            for &(p, r, s, w) in &assocs {
                let np = geometry.node(nodes, p);
                let nr = geometry.node(nodes, r);
                let ns = geometry.node(nodes, s);
                let in_uv = |n: u32| n == u || n == v;
                if !(in_uv(np) && in_uv(nr) && in_uv(ns)) {
                    continue; // a participant is elsewhere: alignment here is moot
                }
                if np == nr && nr == ns {
                    continue; // intra-node cost is invariant under the scan
                }
                // Split participants into the fixed node (u) and the
                // shifted node (v), and intersect the sets each chunk
                // occupies in its node frame within each side. Both sides
                // have a participant, since not all three share a node.
                let parts = [(p, np), (r, nr), (s, ns)];
                for (k, &(chunk, node)) in parts.iter().enumerate() {
                    mine.clear();
                    mine.extend(geometry.lines(offsets, chunk).map(|l| l % sets));
                    let side = if node == u { &mut fixed } else { &mut shifted };
                    if parts[..k].iter().any(|&(_, n)| (n == u) == (node == u)) {
                        side.retain(|x| mine.contains(x));
                    } else {
                        side.clear();
                        side.extend_from_slice(&mine);
                    }
                }
                // A displacement needs all three in one set: every
                // (fixed-set, shifted-set) pair votes for the shifts
                // that align them. Shifting node v by `i` lines moves
                // its sets by `i mod sets`.
                for &sa in &fixed {
                    for &sb in &shifted {
                        let base = (sa + sets - sb) % sets;
                        // All line offsets congruent to `base` mod sets.
                        let mut i = base;
                        while (i as usize) < lines {
                            acc[i as usize] += w;
                            i += sets;
                        }
                    }
                }
            }
            first_min(&acc)
        })?;
        Ok(tuples.into_layout(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_cache::simulate;
    use tempo_trace::Trace;
    use tempo_trg::{PopularitySelector, ProfileData, Profiler};

    fn profile_for(
        program: &Program,
        trace: &Trace,
        cache: CacheConfig,
        pair_db: bool,
    ) -> ProfileData {
        Profiler::new(program, cache)
            .popularity(PopularitySelector::all())
            .with_pair_db(pair_db)
            .profile(trace)
    }

    /// The paper's Figure 1 scenario: three single-chunk leaf procedures
    /// under a three-line cache. (We scale it: 2 KB cache, procedures of
    /// ~680 bytes so only three fit.)
    fn figure1_program() -> Program {
        Program::builder()
            .procedure("m", 680)
            .procedure("x", 680)
            .procedure("y", 680)
            .procedure("z", 680)
            .chunk_size(1024)
            .build()
            .unwrap()
    }

    #[test]
    fn trace2_places_x_and_y_together() {
        // Phase behavior: (M X)*40 then (M Y)*40. X and Y never interleave,
        // so GBSC may overlap them; M must not overlap either.
        let p = figure1_program();
        let ids: Vec<ProcId> = p.ids().collect();
        let (m, x, y) = (ids[0], ids[1], ids[2]);
        let mut refs = Vec::new();
        for _ in 0..40 {
            refs.extend([m, x]);
        }
        for _ in 0..40 {
            refs.extend([m, y]);
        }
        let t = Trace::from_full_records(&p, refs);
        let cache = CacheConfig::direct_mapped(2048).unwrap();
        let profile = profile_for(&p, &t, cache, false);
        let ctx = PlacementContext::new(&p, &profile);
        let tuples = Gbsc::new().place_tuples(&ctx);

        let lines = |id: ProcId| -> Vec<u32> {
            let off = tuples.offset(id).unwrap();
            (0..680u32.div_ceil(32)).map(|k| (off + k) % 64).collect()
        };
        let overlap = |a: &[u32], b: &[u32]| a.iter().any(|l| b.contains(l));
        let (lm, lx, ly) = (lines(m), lines(x), lines(y));
        assert!(!overlap(&lm, &lx), "m and x interleave heavily");
        assert!(!overlap(&lm, &ly), "m and y interleave heavily");
        // x and y have no temporal edge: the first-minimum rule puts them
        // at the same offset (both merge against m's frame at the first
        // zero-cost slot).
        assert!(
            overlap(&lx, &ly),
            "x and y never interleave; sharing lines is free and expected"
        );
    }

    #[test]
    fn trace1_separates_all_three() {
        // Alternating M X M Y: all three pairs interleave; with room in the
        // cache, GBSC must give x and y distinct lines too.
        let p = figure1_program();
        let ids: Vec<ProcId> = p.ids().collect();
        let (m, x, y) = (ids[0], ids[1], ids[2]);
        let mut refs = Vec::new();
        for _ in 0..40 {
            refs.extend([m, x, m, y]);
        }
        let t = Trace::from_full_records(&p, refs);
        let cache = CacheConfig::direct_mapped(4096).unwrap(); // room for all three
        let profile = profile_for(&p, &t, cache, false);
        let ctx = PlacementContext::new(&p, &profile);
        let layout = Gbsc::new().place(&ctx);
        layout.validate(&p).unwrap();
        let stats = simulate(&p, &layout, &t, cache);
        // Only cold misses: 680 bytes = 22 lines per proc, 3 procs = 66.
        assert_eq!(stats.misses, 66, "trace1 must be conflict-free");
    }

    #[test]
    fn beats_source_order_on_conflicting_pair() {
        let p = Program::builder()
            .procedure("a", 4096)
            .procedure("pad", 4096)
            .procedure("b", 4096)
            .build()
            .unwrap();
        let ids: Vec<ProcId> = p.ids().collect();
        let mut refs = Vec::new();
        for _ in 0..50 {
            refs.extend([ids[0], ids[2]]);
        }
        let t = Trace::from_full_records(&p, refs);
        let cache = CacheConfig::direct_mapped_8k();
        let profile = profile_for(&p, &t, cache, false);
        let ctx = PlacementContext::new(&p, &profile);
        let gbsc = Gbsc::new().place(&ctx);
        gbsc.validate(&p).unwrap();
        let default = Layout::source_order(&p);
        let sg = simulate(&p, &gbsc, &t, cache);
        let sd = simulate(&p, &default, &t, cache);
        assert!(
            sg.misses < sd.misses / 10,
            "gbsc {} default {}",
            sg.misses,
            sd.misses
        );
    }

    #[test]
    fn tuples_cover_exactly_popular_procedures() {
        let p = figure1_program();
        let ids: Vec<ProcId> = p.ids().collect();
        let mut refs = Vec::new();
        for _ in 0..30 {
            refs.extend([ids[0], ids[1]]);
        }
        refs.push(ids[3]); // z referenced once -> unpopular
        let t = Trace::from_full_records(&p, refs);
        let cache = CacheConfig::direct_mapped(2048).unwrap();
        let profile = Profiler::new(&p, cache)
            .popularity(PopularitySelector::coverage(0.99).with_min_count(2))
            .profile(&t);
        let ctx = PlacementContext::new(&p, &profile);
        let tuples = Gbsc::new().place_tuples(&ctx);
        assert_eq!(tuples.aligned_count(), 2);
        assert!(tuples.offset(ids[3]).is_none());
        assert_eq!(tuples.rest(), vec![ids[2], ids[3]]);
        // Full layout still covers everything.
        let layout = tuples.into_layout(&ctx);
        layout.validate(&p).unwrap();
    }

    #[test]
    fn large_procedure_alignment_uses_chunk_info() {
        // One procedure larger than the cache, one hot small procedure that
        // interleaves with only the *first* chunk of the big one. GBSC must
        // place the small procedure away from the big one's first chunk.
        let p = Program::builder()
            .procedure("big", 12 * 1024)
            .procedure("hot", 512)
            .build()
            .unwrap();
        let ids: Vec<ProcId> = p.ids().collect();
        let (big, hot) = (ids[0], ids[1]);
        let mut t = Trace::new();
        for _ in 0..60 {
            // big executes only its first 512 bytes, then hot runs fully.
            t.push(tempo_trace::TraceRecord::new(big, 512));
            t.push(tempo_trace::TraceRecord::new(hot, 512));
        }
        let cache = CacheConfig::direct_mapped_8k();
        let profile = profile_for(&p, &t, cache, false);
        let ctx = PlacementContext::new(&p, &profile);
        let layout = Gbsc::new().place(&ctx);
        layout.validate(&p).unwrap();
        let stats = simulate(&p, &layout, &t, cache);
        // Conflict-free steady state: only cold misses (16 + 16 lines).
        assert_eq!(stats.misses, 32, "hot must avoid big's first chunk");
    }

    #[test]
    fn randomize_offsets_touches_requested_count() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut tuples = PlacementTuples::new(10, 256);
        for i in 0..5 {
            tuples.set_offset(ProcId::new(i), 0);
        }
        let mut rng = StdRng::seed_from_u64(99);
        tuples.randomize_offsets(50, &mut rng); // more than aligned: clamps
        assert_eq!(tuples.aligned_count(), 5);
        for i in 5..10 {
            assert!(tuples.offset(ProcId::new(i)).is_none());
        }
    }

    #[test]
    fn aligned_lists_in_id_order_and_lines_accessor() {
        let mut tuples = PlacementTuples::new(4, 128);
        tuples.set_offset(ProcId::new(3), 7);
        tuples.set_offset(ProcId::new(1), 9);
        assert_eq!(tuples.lines(), 128);
        assert_eq!(
            tuples.aligned(),
            vec![(ProcId::new(1), 9), (ProcId::new(3), 7)]
        );
        assert_eq!(tuples.rest(), vec![ProcId::new(0), ProcId::new(2)]);
    }

    #[test]
    fn set_offset_reduces_modulo_lines() {
        let mut tuples = PlacementTuples::new(2, 256);
        tuples.set_offset(ProcId::new(0), 300);
        assert_eq!(tuples.offset(ProcId::new(0)), Some(44));
    }

    #[test]
    fn sa_variant_requires_pair_db() {
        let p = figure1_program();
        let ids: Vec<ProcId> = p.ids().collect();
        let t = Trace::from_full_records(&p, [ids[0], ids[1], ids[0]]);
        let cache = CacheConfig::two_way_8k();
        let profile = profile_for(&p, &t, cache, false);
        let ctx = PlacementContext::new(&p, &profile);
        // AssertUnwindSafe: the context (and any budget meter it carries)
        // is discarded after the unwind, so broken invariants cannot leak.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            GbscSetAssoc::new().place(&ctx)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn sa_variant_places_three_way_conflicts_apart() {
        // a, b, c each 1 KB (32 lines = half the sets of a 4 KB 2-way
        // cache); trace cycles a b c, so both b and c intervene between
        // consecutive a references: any set holding all three thrashes, but
        // a 2-way set holding only two of them retains both. A conflict-
        // free placement exists (e.g. a alone in half the sets, b and c
        // sharing the other half) and the pair-database cost must find one.
        let p = Program::builder()
            .procedure("a", 1024)
            .procedure("b", 1024)
            .procedure("c", 1024)
            .chunk_size(1024)
            .build()
            .unwrap();
        let ids: Vec<ProcId> = p.ids().collect();
        let mut refs = Vec::new();
        for _ in 0..40 {
            refs.extend([ids[0], ids[1], ids[2]]);
        }
        let t = Trace::from_full_records(&p, refs);
        let cache = CacheConfig::new(4096, 32, 2).unwrap();
        let profile = profile_for(&p, &t, cache, true);
        assert!(!profile.pair_db.as_ref().unwrap().is_empty());
        let ctx = PlacementContext::new(&p, &profile);
        let layout = GbscSetAssoc::new().place(&ctx);
        layout.validate(&p).unwrap();
        let sa = simulate(&p, &layout, &t, cache);
        // Conflict-free steady state: only the 3 * 32 cold misses.
        assert_eq!(sa.misses, 96, "SA placement must avoid three-way sets");
        // And the full-overlap worst case is far worse.
        let worst = Layout::from_addresses(vec![0, 4096, 8192]);
        let sw = simulate(&p, &worst, &t, cache);
        assert!(
            sa.misses < sw.misses / 5,
            "sa {} worst {}",
            sa.misses,
            sw.misses
        );
    }

    #[test]
    fn deterministic_output() {
        let p = figure1_program();
        let ids: Vec<ProcId> = p.ids().collect();
        let mut refs = Vec::new();
        for i in 0..50 {
            refs.extend([ids[0], ids[1 + (i % 3)]]);
        }
        let t = Trace::from_full_records(&p, refs);
        let cache = CacheConfig::direct_mapped(2048).unwrap();
        let profile = profile_for(&p, &t, cache, false);
        let ctx = PlacementContext::new(&p, &profile);
        let a = Gbsc::new().place(&ctx);
        let b = Gbsc::new().place(&ctx);
        assert_eq!(a, b);
    }
}
