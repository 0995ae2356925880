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
use tempo_trg::{PairDb, WeightedGraph};

use crate::budget::BudgetExhausted;
use crate::context::unbudgeted;
use crate::merge::{greedy_merge, merge_order, Combine, Nodes};
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

/// Greedy offset merging of the popular procedures along `order` (from
/// [`merge_order`]), returning their final alignments.
///
/// # Errors
///
/// Returns [`BudgetExhausted`] when the context's budget trips mid-merge.
pub(crate) fn offset_tuples(
    ctx: &PlacementContext<'_>,
    order: &[(u32, u32)],
    pick: impl FnMut(&[u32], &Nodes, u32, u32) -> u32,
) -> Result<PlacementTuples, BudgetExhausted> {
    let lines = ctx.cache().lines();
    let mut step = Offsets {
        lines,
        offsets: vec![0; ctx.program.len()],
        pick,
    };
    let nodes = greedy_merge(ctx, order, ctx.profile.popular.iter(), &mut step)?;
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

    /// The cache sets a chunk covers, given the current offset of its
    /// owner, as a circular run `(first set, length)`; with `sets` equal
    /// to the line count, the lines it covers. The length is capped at the
    /// line count, so a run longer than `sets` wraps and lists sets twice.
    fn set_run(&self, offsets: &[u32], sets: u32, chunk: u32) -> (u32, u32) {
        let c = chunk as usize;
        let start = offsets[self.owner[c].as_usize()] + self.rel_line[c];
        (start % sets, self.nlines[c].min(self.lines))
    }
}

/// Casts one crossing edge's votes into `acc`, the tally of what shifting
/// node `v` by each line offset would cost. The edge joins a block of `nu`
/// lines of node `u` starting at line `su` to a block of `nv` lines of
/// node `v` starting at line `sv`; `base = (su − sv) mod L` for the `L`
/// lines of `acc`. Shifting `v` by `i` makes line `k` of the first block
/// meet line `j` of the second when `i = (base + k + L − j) mod L`, and
/// each such line pair adds `w` to `acc[i]`.
///
/// For one `k` the `nv ≤ L` shifts are a circular run ending at
/// `base + k`, each hit once, so the run is added to as one or two
/// contiguous slices, with no division. With `k` outer, every entry takes
/// the same additions in the same order as the line-pair loop
/// `for k { for j { acc[(base + k + L − j) % L] += w } }`: scaled or
/// perturbed weights sum to the same bits.
#[inline]
pub(crate) fn vote(acc: &mut [f64], base: u32, nu: u32, nv: u32, w: f64) {
    let lines = acc.len();
    let (base, nu, nv) = (base as usize, nu as usize, nv as usize);
    debug_assert!(base < lines && nu <= lines && nv <= lines);
    let mut top = base;
    for _ in 0..nu {
        if nv <= top + 1 {
            add(&mut acc[top + 1 - nv..=top], w);
        } else {
            add(&mut acc[..=top], w);
            add(&mut acc[lines + top + 1 - nv..], w);
        }
        top += 1;
        if top == lines {
            top = 0;
        }
    }
}

/// `(a − b) mod n` for `a, b < n`.
#[inline]
pub(crate) fn line_diff(a: u32, b: u32, n: u32) -> u32 {
    if a >= b {
        a - b
    } else {
        a + n - b
    }
}

#[inline]
fn add(slots: &mut [f64], w: f64) {
    for s in slots {
        *s += w;
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
    /// popular WCG for WCG+offsets), costed by `TRG_place`. The
    /// `TRG_place` row entries the scans cost are added once to the
    /// `place.offset_edges_costed` counter, a host-independent measure of
    /// the merge's cost.
    pub(crate) fn tuples(
        &self,
        ctx: &PlacementContext<'_>,
        selection: &WeightedGraph,
    ) -> Result<PlacementTuples, BudgetExhausted> {
        let program = ctx.program;
        let geometry = ChunkLines::new(program, ctx.cache());
        let trg_place = &ctx.profile.trg_place;
        let lines = ctx.cache().lines();
        let mut costed = 0u64;
        let tuples = offset_tuples(ctx, &merge_order(selection), |offsets, nodes, u, v| {
            // Figure 4's cost scan, computed sparsely: for every TRG_place
            // edge crossing the two nodes, each pair of co-residable lines
            // votes for the relative offset that would make them collide.
            // `acc[i]` = cost of shifting node v by i.
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
                    let run = geometry.set_run(offsets, lines, chunk);
                    for &(nbr, w) in trg_place.row(chunk) {
                        if geometry.node(nodes, nbr) != other {
                            continue;
                        }
                        costed += 1;
                        let nbr_run = geometry.set_run(offsets, lines, nbr);
                        let ((su, nu), (sv, nv)) = if iter_is_v {
                            (nbr_run, run)
                        } else {
                            (run, nbr_run)
                        };
                        vote(&mut acc, line_diff(su, sv, lines), nu, nv, w);
                    }
                }
            }
            first_min(&acc)
        });
        tempo_obs::counter("place.offset_edges_costed").add(costed);
        tuples
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

    /// Costs each pair-database association once, at the merge that first
    /// puts its chunks' owners in one node: before it a participant is
    /// outside the two merging nodes, after it all three share a node and
    /// the scan cannot move them apart. The associations costed are added
    /// to the `place.sa_assocs_costed` counter, a host-independent measure
    /// of the merge's cost.
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
        let order = merge_order(&ctx.profile.trg_select);
        let (start, flat) = by_merge(&geometry, ctx, &order, db);
        // Scratch set lists, reused across associations and merges.
        let (mut fixed, mut shifted) = (Vec::new(), Vec::new());
        let (mut step, mut costed) = (0, 0u64);
        let tuples = offset_tuples(ctx, &order, |offsets, nodes, u, v| {
            // Shifting node v by `i` lines moves its sets by `i mod sets`,
            // so shifts `i` and `i + sets` always cost the same: the
            // first cheapest of all `lines` shifts is the first cheapest
            // of the first `sets`, and only those are tallied.
            let mut acc = vec![0.0f64; sets as usize];
            let due = &flat[start[step]..start[step + 1]];
            step += 1;
            costed += due.len() as u64;
            for &(p, r, s, w) in due {
                // Split participants into the fixed node (u) and the
                // shifted node (v); each side keeps its first chunk's sets
                // that its other chunk, if any, also covers. Both sides
                // have a participant, since not all three share a node.
                let parts = [p, r, s].map(|c| (geometry.node(nodes, c) == u, c));
                debug_assert!(parts.iter().all(|&(_, c)| {
                    let n = geometry.node(nodes, c);
                    n == u || n == v
                }));
                for (side, in_u) in [(&mut fixed, true), (&mut shifted, false)] {
                    let mut runs = parts
                        .iter()
                        .filter(|&&(at_u, _)| at_u == in_u)
                        .map(|&(_, c)| geometry.set_run(offsets, sets, c));
                    let first = runs.next().expect("each side has a participant");
                    let other = runs.next();
                    side.clear();
                    let mut set = first.0;
                    for _ in 0..first.1 {
                        if other.is_none_or(|o| covers(o, set, sets)) {
                            side.push(set);
                        }
                        set += 1;
                        if set == sets {
                            set = 0;
                        }
                    }
                }
                // A displacement needs all three in one set: every
                // (fixed-set, shifted-set) pair votes for the shifts
                // that align them, `sa - sb` mod sets.
                for &sa in &fixed {
                    for &sb in &shifted {
                        acc[line_diff(sa, sb, sets) as usize] += w;
                    }
                }
            }
            first_min(&acc)
        });
        tempo_obs::counter("place.sa_assocs_costed").add(costed);
        Ok(tuples?.into_layout(ctx))
    }
}

/// Whether the circular set run `(first, len)` covers `set`: `set` lies
/// `d < sets` steps past `first`, so a run of `sets` or more covers all.
#[inline]
fn covers((first, len): (u32, u32), set: u32, sets: u32) -> bool {
    let mut d = set + sets - first;
    if d >= sets {
        d -= sets;
    }
    d < len
}

/// The merge step at which each pair of procedures first shares a node:
/// the merge order replayed on a union-by-size forest without path
/// compression, each link labelled with the step that made it. Labels
/// grow towards the roots, so the step two procedures join at is the
/// largest label on the forest path between them.
struct JoinSteps {
    parent: Vec<u32>,
    /// The step that linked each procedure under its parent; [`ROOT`] at
    /// a root.
    step: Vec<u32>,
}

/// [`JoinSteps`] label of a procedure no merge has linked.
const ROOT: u32 = u32::MAX;

impl JoinSteps {
    #[allow(clippy::cast_possible_truncation)] // procedure indices and merge steps fit u32
    fn new(n: usize, order: &[(u32, u32)]) -> Self {
        let mut forest = JoinSteps {
            parent: (0..n as u32).collect(),
            step: vec![ROOT; n],
        };
        let mut size = vec![1u32; n];
        for (k, &(u, v)) in order.iter().enumerate() {
            let (mut a, mut b) = (forest.root(u), forest.root(v));
            if size[a as usize] < size[b as usize] {
                std::mem::swap(&mut a, &mut b);
            }
            forest.parent[b as usize] = a;
            forest.step[b as usize] = k as u32;
            size[a as usize] += size[b as usize];
        }
        forest
    }

    fn root(&self, mut x: u32) -> u32 {
        while self.step[x as usize] != ROOT {
            x = self.parent[x as usize];
        }
        x
    }

    /// The step at which procedures `a` and `b` first share a node (0 when
    /// they are the same procedure), or `None` if they never do. Walking
    /// up from the endpoint with the smaller label crosses the path's
    /// labels in increasing order, so the last one crossed is the largest.
    fn join(&self, mut a: u32, mut b: u32) -> Option<u32> {
        let mut at = 0;
        while a != b {
            let (sa, sb) = (self.step[a as usize], self.step[b as usize]);
            if sa < sb {
                (at, a) = (sa, self.parent[a as usize]);
            } else if sb != ROOT {
                (at, b) = (sb, self.parent[b as usize]);
            } else {
                return None; // two roots: never joined
            }
        }
        Some(at)
    }
}

/// One pair-database association `D(p, {r, s})`: the focal chunk, the
/// intervening pair and its count.
type Assoc = (u32, u32, u32, f64);

/// The pair database's associations bucketed by the merge that costs
/// them: merge `k` costs `flat[start[k]..start[k + 1]]`, in `db.iter()`
/// order. An association is due at the merge that first puts its chunks'
/// owners in one node. It is never due if an owner is unpopular (not
/// aligned) or all three owners are one procedure (the scan cannot change
/// its cost).
fn by_merge(
    geometry: &ChunkLines,
    ctx: &PlacementContext<'_>,
    order: &[(u32, u32)],
    db: &PairDb,
) -> (Vec<usize>, Vec<Assoc>) {
    let forest = JoinSteps::new(ctx.program.len(), order);
    let popular = &ctx.profile.popular;
    let due = |chunks: [u32; 3]| -> Option<usize> {
        let [a, b, c] = chunks.map(|chunk| geometry.owner[chunk as usize]);
        if !(popular.is_popular(a) && popular.is_popular(b) && popular.is_popular(c))
            || (a == b && b == c)
        {
            return None;
        }
        let (a, b, c) = (a.index(), b.index(), c.index());
        Some(forest.join(a, b)?.max(forest.join(a, c)?) as usize)
    };
    // Counting sort: count per merge, prefix-sum into offsets, then fill.
    // The fill pass recomputes each stamp rather than keeping 4 bytes per
    // association between the passes.
    let mut start = vec![0usize; order.len() + 1];
    for (k, _) in db.iter() {
        if let Some(t) = due([k.p, k.r, k.s]) {
            start[t + 1] += 1;
        }
    }
    for k in 1..start.len() {
        start[k] += start[k - 1];
    }
    let mut flat = vec![(0, 0, 0, 0.0); start[order.len()]];
    let mut next = start.clone();
    for (k, w) in db.iter() {
        if let Some(t) = due([k.p, k.r, k.s]) {
            flat[next[t]] = (k.p, k.r, k.s, w);
            next[t] += 1;
        }
    }
    (start, flat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tempo_cache::simulate;
    use tempo_trace::Trace;
    use tempo_trg::{PopularSet, PopularitySelector, ProfileData, Profiler};

    use crate::merge::reference_order;
    use crate::reference_graph::ReferenceGraph;

    /// Absolute cache lines (mod line count) occupied by a chunk, given
    /// the current offset of its owner: the per-line walk the reference
    /// scans take a `%` for.
    fn chunk_lines<'s>(
        geometry: &'s ChunkLines,
        offsets: &'s [u32],
        chunk: u32,
    ) -> impl Iterator<Item = u32> + 's {
        let c = chunk as usize;
        let start = offsets[geometry.owner[c].as_usize()] + geometry.rel_line[c];
        let lines = geometry.lines;
        (0..geometry.nlines[c].min(lines)).map(move |k| (start + k) % lines)
    }

    /// GBSC as written over the `BTreeMap` graph: the merge order from the
    /// reference graph, and a scan that looks each `TRG_place` weight up
    /// and votes line pair by line pair with a `%`.
    struct ReferenceGbsc {
        trg_select: ReferenceGraph,
        trg_place: ReferenceGraph,
    }

    impl PlacementAlgorithm for ReferenceGbsc {
        fn name(&self) -> &str {
            "GBSC"
        }

        fn try_place(&self, ctx: &PlacementContext<'_>) -> Result<Layout, BudgetExhausted> {
            let program = ctx.program;
            let geometry = ChunkLines::new(program, ctx.cache());
            let trg_place = &self.trg_place;
            let lines = ctx.cache().lines();
            let order = reference_order(&self.trg_select);
            let tuples = offset_tuples(ctx, &order, |offsets, nodes, u, v| {
                let mut acc = vec![0.0f64; lines as usize];
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
                            for la in chunk_lines(&geometry, offsets, cu) {
                                for lb in chunk_lines(&geometry, offsets, cv) {
                                    acc[((la + lines - lb) % lines) as usize] += w;
                                }
                            }
                        }
                    }
                }
                first_min(&acc)
            })?;
            Ok(tuples.into_layout(ctx))
        }
    }

    /// Builds the shipped and the reference graph from one edge list.
    fn graphs(edges: &[(u32, u32, f64)]) -> (WeightedGraph, ReferenceGraph) {
        let mut r = ReferenceGraph::default();
        for &(a, b, w) in edges {
            r.add_weight(a, b, w);
        }
        (edges.iter().copied().collect(), r)
    }

    #[test]
    fn vote_matches_the_line_pair_loop() {
        // Non-integer weights: any change in the order of additions to an
        // entry shows in its bits.
        for lines in [1u32, 2, 5, 8] {
            for base in 0..lines {
                for nu in 0..=lines {
                    for nv in 0..=lines {
                        let mut acc = vec![0.1f64; lines as usize];
                        let mut want = acc.clone();
                        for w in [0.3, 1.7e-3] {
                            vote(&mut acc, base, nu, nv, w);
                            for k in 0..nu {
                                for j in 0..nv {
                                    want[((base + k + lines - j) % lines) as usize] += w;
                                }
                            }
                        }
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&acc), bits(&want), "L {lines} base {base} {nu}x{nv}");
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn gbsc_layouts_match_the_reference_graph(
            sizes in prop::collection::vec(32u32..2400, 2..20),
            popular in prop::collection::vec((0u8..5).prop_map(|x| x != 0), 20..21),
            select in prop::collection::vec((0usize..20, 0usize..20, 1u32..4), 0..40),
            place in prop::collection::vec((0u32..200, 0u32..200, 1u32..6), 0..160),
            weights in (0usize..3, any::<u64>()),
            budget in 0u64..2000,
        ) {
            // 2 KB with 256 B chunks: a chunk covers 8 of 64 lines, and
            // procedures past 2 KB wrap the cache.
            let cache = CacheConfig::direct_mapped(2048).unwrap();
            let (p, mut prof) = bare_sa_profile(&sizes, 256, cache);
            let n = p.len();
            let popular = popular[..n].to_vec();
            let chunks = p.chunk_count();
            let select: Vec<(u32, u32, f64)> = select
                .into_iter()
                .map(|(a, b, w)| (a % n, b % n, w))
                .filter(|&(a, b, _)| a != b && popular[a] && popular[b])
                .map(|(a, b, w)| (a as u32, b as u32, f64::from(w)))
                .collect();
            // Same-owner chunk pairs and chunks of unpopular procedures
            // included: neither is ever costed.
            let place: Vec<(u32, u32, f64)> = place
                .into_iter()
                .map(|(a, b, w)| (a % chunks, b % chunks, f64::from(w)))
                .filter(|&(a, b, _)| a != b)
                .collect();
            let (mut trg_select, mut ref_select) = graphs(&select);
            let (mut trg_place, mut ref_place) = graphs(&place);
            // Integer, decayed and perturbed weights.
            let (kind, seed) = weights;
            if kind == 1 {
                trg_place.scale_weights(0.5);
                ref_place.scale_weights(0.5);
            } else if kind == 2 {
                use rand::SeedableRng;
                let rng = || rand::rngs::StdRng::seed_from_u64(seed);
                trg_select = trg_select.perturbed(0.4, &mut rng());
                ref_select = ref_select.perturbed(0.4, &mut rng());
                trg_place = trg_place.perturbed(0.4, &mut rng());
                ref_place = ref_place.perturbed(0.4, &mut rng());
            }
            prof.popular = PopularSet::from_parts(popular, vec![1; n]);
            prof.trg_select = trg_select;
            prof.trg_place = trg_place;
            let reference = ReferenceGbsc { trg_select: ref_select, trg_place: ref_place };
            let ctx = PlacementContext::new(&p, &prof);
            prop_assert_eq!(Gbsc::new().place(&ctx), reference.place(&ctx));
            let budget = crate::Budget::work_units(budget);
            prop_assert_eq!(
                crate::place_with_fallback(&p, &prof, &Gbsc::new(), budget),
                crate::place_with_fallback(&p, &prof, &reference, budget)
            );
        }
    }

    #[test]
    fn offset_scan_costs_each_crossing_edge_once() {
        // A path whose weights fall away from procedure 0: every merge
        // joins a singleton to the one growing node. Each procedure has
        // three 256 B chunks, and `TRG_place` joins every chunk to its
        // four successors, so some edges join two chunks of one
        // procedure; those never cross two nodes and are never costed.
        let n: u32 = 120;
        let (p, mut prof) =
            bare_sa_profile(&vec![768; n as usize], 256, CacheConfig::direct_mapped_8k());
        prof.popular = PopularSet::from_parts(vec![true; n as usize], vec![1; n as usize]);
        let select: Vec<(u32, u32, f64)> =
            (0..n - 1).map(|i| (i, i + 1, f64::from(n - i))).collect();
        let chunks = p.chunk_count();
        let place: Vec<(u32, u32, f64)> = (0..chunks)
            .flat_map(|a| {
                (a + 1..(a + 5).min(chunks)).map(move |b| (a, b, f64::from(1 + (a * b) % 7)))
            })
            .collect();
        let crossing = place.iter().filter(|&&(a, b, _)| a / 3 != b / 3).count() as u64;
        let (trg_select, ref_select) = graphs(&select);
        let (trg_place, ref_place) = graphs(&place);
        prof.trg_select = trg_select;
        prof.trg_place = trg_place;
        let ctx = PlacementContext::new(&p, &prof);
        let registry = std::sync::Arc::new(tempo_obs::Registry::new());
        let metered = {
            let _scope = tempo_obs::scoped(registry.clone());
            Gbsc::new().place(&ctx)
        };
        let costed = registry
            .snapshot()
            .counter("place.offset_edges_costed")
            .unwrap();
        assert_eq!(costed, crossing);
        assert!(costed < prof.trg_place.edge_count() as u64);
        // The count is a side record: the layout is the reference's.
        let reference = ReferenceGbsc {
            trg_select: ref_select,
            trg_place: ref_place,
        };
        assert_eq!(metered, reference.place(&ctx));
        // A budget that trips mid-merge still reports what it costed.
        let registry = std::sync::Arc::new(tempo_obs::Registry::new());
        {
            let _scope = tempo_obs::scoped(registry.clone());
            // Each merge charges one unit per line: 10 merges fit.
            let meter = crate::budget::BudgetMeter::new(crate::Budget::work_units(
                u64::from(ctx.cache().lines()) * 10,
            ));
            let budgeted = PlacementContext::new(&p, &prof).with_budget(&meter);
            assert!(Gbsc::new().try_place(&budgeted).is_err());
        }
        let partial = registry
            .snapshot()
            .counter("place.offset_edges_costed")
            .unwrap();
        assert!(partial > 0 && partial < costed, "{partial} of {costed}");
    }

    /// GBSC-SA as first written, kept as the reference the shipped one
    /// must match: every merge scans the whole pair database for the
    /// associations whose owners all sit in the two merging nodes.
    struct ReferenceSetAssoc;

    impl PlacementAlgorithm for ReferenceSetAssoc {
        fn name(&self) -> &str {
            "GBSC-SA"
        }

        fn try_place(&self, ctx: &PlacementContext<'_>) -> Result<Layout, BudgetExhausted> {
            let db = ctx.profile.pair_db.as_ref().unwrap();
            let geometry = ChunkLines::new(ctx.program, ctx.cache());
            let sets = ctx.cache().sets();
            let lines = ctx.cache().lines() as usize;
            let assocs: Vec<(u32, u32, u32, f64)> =
                db.iter().map(|(k, w)| (k.p, k.r, k.s, w)).collect();
            let (mut fixed, mut shifted, mut mine) = (Vec::new(), Vec::new(), Vec::new());
            let order = merge_order(&ctx.profile.trg_select);
            let tuples = offset_tuples(ctx, &order, move |offsets, nodes, u, v| {
                let mut acc = vec![0.0f64; lines];
                for &(p, r, s, w) in &assocs {
                    let np = geometry.node(nodes, p);
                    let nr = geometry.node(nodes, r);
                    let ns = geometry.node(nodes, s);
                    let in_uv = |n: u32| n == u || n == v;
                    if !(in_uv(np) && in_uv(nr) && in_uv(ns)) || (np == nr && nr == ns) {
                        continue;
                    }
                    let parts = [(p, np), (r, nr), (s, ns)];
                    for (k, &(chunk, node)) in parts.iter().enumerate() {
                        mine.clear();
                        let (first, len) = geometry.set_run(offsets, lines as u32, chunk);
                        mine.extend((0..len).map(|k| (first + k) % lines as u32 % sets));
                        let side = if node == u { &mut fixed } else { &mut shifted };
                        if parts[..k].iter().any(|&(_, n)| (n == u) == (node == u)) {
                            side.retain(|x| mine.contains(x));
                        } else {
                            side.clear();
                            side.extend_from_slice(&mine);
                        }
                    }
                    for &sa in &fixed {
                        for &sb in &shifted {
                            let mut i = (sa + sets - sb) % sets;
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

    /// A program of `sizes` under `chunk_size`, profiled for `cache` with
    /// a pair database over a two-record trace, so the graphs, the pair
    /// database and the popular set can be replaced by hand.
    fn bare_sa_profile(
        sizes: &[u32],
        chunk_size: u32,
        cache: CacheConfig,
    ) -> (Program, ProfileData) {
        let mut b = Program::builder();
        for (i, &s) in sizes.iter().enumerate() {
            b.procedure(format!("p{i}"), s);
        }
        let p = b.chunk_size(chunk_size).build().unwrap();
        let ids: Vec<ProcId> = p.ids().collect();
        let prof = profile_for(
            &p,
            &Trace::from_full_records(&p, [ids[0], ids[1]]),
            cache,
            true,
        );
        (p, prof)
    }

    /// `GbscSetAssoc` and its `place.sa_assocs_costed` count, under a
    /// private registry.
    fn metered_sa(ctx: &PlacementContext<'_>) -> (Layout, u64) {
        let registry = std::sync::Arc::new(tempo_obs::Registry::new());
        let layout = {
            let _scope = tempo_obs::scoped(registry.clone());
            GbscSetAssoc::new().place(ctx)
        };
        let costed = registry.snapshot().counter("place.sa_assocs_costed");
        (layout, costed.unwrap())
    }

    proptest! {
        #[test]
        fn sa_layouts_match_the_reference(
            sizes in prop::collection::vec(32u32..1100, 2..24),
            popular in prop::collection::vec((0u8..5).prop_map(|x| x != 0), 24..25),
            edges in prop::collection::vec((0usize..24, 0usize..24, 1u32..4), 0..30),
            assocs in prop::collection::vec((0u32..120, 0u32..120, 0u32..120, 1u32..5), 0..150),
            scale in (0usize..3).prop_map(|i| [1.0, 0.3, 0.77][i]),
            runs_wrap in any::<bool>(),
            budget in 0u64..600,
        ) {
            // 512 B 4-way with 256 B chunks: a chunk's 8 lines wrap the 4
            // sets twice. 1 KB 2-way with 64 B chunks: 2 lines of 16 sets.
            let (cache, chunk_size) = if runs_wrap {
                (CacheConfig::new(512, 32, 4).unwrap(), 256)
            } else {
                (CacheConfig::new(1024, 32, 2).unwrap(), 64)
            };
            let (p, mut prof) = bare_sa_profile(&sizes, chunk_size, cache);
            let n = p.len();
            let popular = popular[..n].to_vec();
            // Sparse edges among popular procedures: several components,
            // so some associations are never due.
            let mut trg = WeightedGraph::new();
            for (a, b, w) in edges {
                let (a, b) = (a % n, b % n);
                if a != b && popular[a] && popular[b] {
                    trg.add_weight(a as u32, b as u32, f64::from(w));
                }
            }
            // Chunks of unpopular procedures, chunks of one procedure, and
            // non-integer counts after scaling.
            let chunks = p.chunk_count();
            let mut db = PairDb::new();
            for (a, b, c, w) in assocs {
                let (a, b, c) = (a % chunks, b % chunks, c % chunks);
                if a != b && a != c && b != c {
                    db.add(a, b, c, f64::from(w));
                }
            }
            db.scale(scale);
            prof.popular = PopularSet::from_parts(popular, vec![1; n]);
            prof.trg_select = trg;
            prof.pair_db = Some(db);
            let ctx = PlacementContext::new(&p, &prof);
            prop_assert_eq!(
                GbscSetAssoc::new().place(&ctx),
                ReferenceSetAssoc.place(&ctx)
            );
            // A work budget that trips mid-merge degrades identically.
            let budget = crate::Budget::work_units(budget);
            prop_assert_eq!(
                crate::place_with_fallback(&p, &prof, &GbscSetAssoc::new(), budget),
                crate::place_with_fallback(&p, &prof, &ReferenceSetAssoc, budget)
            );
        }
    }

    #[test]
    fn sa_costs_each_association_once() {
        // A path whose weights fall away from procedure 0: every merge
        // joins a singleton to the one growing node, so a scan of the
        // whole pair database per merge would make Θ(merges × |DB|)
        // visits. Each procedure has three 256 B chunks, and the dense
        // database over neighbouring chunks holds associations whose
        // three chunks share one owner; those are never costed.
        let n: u32 = 200;
        let cache = CacheConfig::two_way_8k();
        let (p, mut prof) = bare_sa_profile(&vec![768; n as usize], 256, cache);
        prof.popular = PopularSet::from_parts(vec![true; n as usize], vec![1; n as usize]);
        prof.trg_select = (0..n - 1).map(|i| (i, i + 1, f64::from(n - i))).collect();
        let chunks = p.chunk_count();
        let owner = |c: u32| c / 3;
        let (mut db, mut stamped) = (PairDb::new(), 0u64);
        for a in 0..chunks {
            for b in a.saturating_sub(4)..(a + 5).min(chunks) {
                for c in b + 1..(a + 5).min(chunks) {
                    if a != b && a != c {
                        db.add(a, b, c, 1.0);
                        if !(owner(a) == owner(b) && owner(b) == owner(c)) {
                            stamped += 1;
                        }
                    }
                }
            }
        }
        let total = db.len() as u64;
        prof.pair_db = Some(db);
        let ctx = PlacementContext::new(&p, &prof);
        let (metered, costed) = metered_sa(&ctx);
        assert_eq!(costed, stamped);
        assert!(costed < total, "{costed} costed of {total} associations");
        // The count is a side record: the layout is the same with metrics
        // off, and it is the reference's.
        assert_eq!(metered, GbscSetAssoc::new().place(&ctx));
        assert_eq!(metered, ReferenceSetAssoc.place(&ctx));
    }

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
