//! One-pass profile construction: WCG, `TRG_select`, `TRG_place`, and the
//! optional §6 pair database, all from a single walk over the trace.

use std::fmt;

use tempo_cache::CacheConfig;
use tempo_program::{ProcId, Program};
use tempo_trace::io::TraceIoError;
use tempo_trace::{MemorySource, Trace, TraceRecord, TraceSink, TraceSource};

use crate::fasthash::IdMap;
use crate::graph::RowMerge;
use crate::pairdb::pack_pair;
use crate::{PairDb, PopularSet, PopularitySelector, QSet, WeightedGraph};

/// Exact integer edge tallies standing between the per-record hot path and
/// a [`WeightedGraph`], kept as one small row per focal block.
///
/// Each event bumps `rows[a][b]` — a directed count in the focal block
/// `a`'s own hashed table — instead of touching a graph.
/// [`into_rows`](EdgeAcc::into_rows) symmetrizes once per profile,
/// `w{a, b} = rows[a][b] + rows[b][a]`, into one sorted row per node,
/// which [`into_graph`](EdgeAcc::into_graph) stores and
/// [`fold_into`](EdgeAcc::fold_into) merges into a window's rows: graph
/// rows are built in bulk, never edge by edge. The result is bit-identical
/// to per-event `add_weight(a, b, 1.0)` calls: integer counts below 2^53
/// are exact in `f64`, and a node's sorted row holds the same
/// entries whatever order the events came in.
#[derive(Debug, Default, Clone)]
struct EdgeAcc {
    /// `rows[a][b]`: events on `{a, b}` seen from focal block `a`, modulo
    /// 2^32.
    rows: Vec<IdMap<u32, u32>>,
    /// The multiples of 2^32 a directed count `(a << 32) | b` wrapped
    /// through, so no count is ever lost. Empty unless one pair passes four
    /// billion events.
    carry: IdMap<u64, u64>,
}

/// One focal block's row of an [`EdgeAcc`], borrowed for a batch of bumps.
struct FocalRow<'a> {
    a: u32,
    counts: &'a mut IdMap<u32, u32>,
    carry: &'a mut IdMap<u64, u64>,
}

impl FocalRow<'_> {
    /// Tallies one event on the edge `{a, b}`.
    #[inline]
    fn bump(&mut self, b: u32) {
        let n = self.counts.entry(b).or_insert(0);
        match n.checked_add(1) {
            Some(next) => *n = next,
            None => {
                *n = 0;
                *self.carry.entry(directed(self.a, b)).or_insert(0) += 1 << 32;
            }
        }
    }
}

/// The carry key of the directed count `rows[a][b]`.
#[inline]
fn directed(a: u32, b: u32) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

impl EdgeAcc {
    /// The row of focal block `a`, grown on first use.
    #[inline]
    fn row(&mut self, a: u32) -> FocalRow<'_> {
        let i = a as usize;
        if i >= self.rows.len() {
            self.rows.resize_with(i + 1, IdMap::default);
        }
        FocalRow {
            a,
            counts: &mut self.rows[i],
            carry: &mut self.carry,
        }
    }

    /// Symmetrizes the tallies, `w{a, b} = rows[a][b] + rows[b][a]`, and
    /// hands `visit` each node's row, sorted by neighbour, in ascending
    /// node order. Returns the number of edges.
    ///
    /// Two transposes and a merge, with no hash lookup and no comparison
    /// sort, over two flat buffers of 8 bytes per directed count: walking
    /// the focal rows in id order lays out each node's incoming counts
    /// `(a, rows[a][b])` sorted by `a`, dropping each focal row once it is
    /// read; walking those in id order lays out each node's own counts
    /// sorted by neighbour; each node then merges the two.
    #[allow(clippy::cast_possible_truncation)] // row indices are u32 ids
    #[allow(clippy::cast_precision_loss)] // counts are far below 2^53
    fn into_rows(self, mut visit: impl FnMut(u32, &[(u32, f64)])) -> usize {
        let EdgeAcc { rows, carry } = self;
        // CSR bounds: `own` over each node's own counts, `incoming` over
        // the counts other rows hold of it.
        let mut incoming = vec![0usize; rows.len() + 1];
        let mut own = Vec::with_capacity(rows.len() + 1);
        own.push(0);
        for row in &rows {
            own.push(own.last().copied().unwrap_or(0) + row.len());
            if row.is_empty() {
                continue;
            }
            for &b in row.keys() {
                let b = b as usize;
                if b + 1 >= incoming.len() {
                    incoming.resize(b + 2, 0);
                }
                incoming[b + 1] += 1;
            }
        }
        let nodes = incoming.len() - 1;
        own.resize(nodes + 1, own.last().copied().unwrap_or(0));
        for i in 1..incoming.len() {
            incoming[i] += incoming[i - 1];
        }
        let total = own[nodes];
        let mut into = vec![(0u32, 0u32); total];
        let mut next = incoming.clone();
        for (a, row) in rows.into_iter().enumerate() {
            if row.is_empty() {
                continue;
            }
            for (b, n) in row {
                into[next[b as usize]] = (a as u32, n);
                next[b as usize] += 1;
            }
        }
        let mut from = vec![(0u32, 0u32); total];
        next.clone_from(&own);
        for b in 0..nodes {
            for &(a, n) in &into[incoming[b]..incoming[b + 1]] {
                from[next[a as usize]] = (b as u32, n);
                next[a as usize] += 1;
            }
        }
        // The exact count `rows[a][b]`, wrapped multiples of 2^32 included.
        let count = |a: u32, b: u32, n: u32| {
            u64::from(n)
                + if carry.is_empty() {
                    0
                } else {
                    carry.get(&directed(a, b)).copied().unwrap_or(0)
                }
        };
        let (mut row, mut entries) = (Vec::new(), 0);
        for x in 0..nodes {
            if own[x] == own[x + 1] && incoming[x] == incoming[x + 1] {
                continue;
            }
            let a = x as u32;
            let (mut out, mut inc) = (
                from[own[x]..own[x + 1]].iter().peekable(),
                into[incoming[x]..incoming[x + 1]].iter().peekable(),
            );
            row.clear();
            loop {
                let (b, w) = match (out.peek(), inc.peek()) {
                    (None, None) => break,
                    (Some(&&(b, n)), Some(&&(c, m))) if b == c => {
                        out.next();
                        inc.next();
                        (b, count(a, b, n) + count(b, a, m))
                    }
                    (Some(&&(b, n)), Some(&&(c, _))) if b < c => {
                        out.next();
                        (b, count(a, b, n))
                    }
                    (Some(&&(b, n)), None) => {
                        out.next();
                        (b, count(a, b, n))
                    }
                    (_, Some(&&(c, m))) => {
                        inc.next();
                        (c, count(c, a, m))
                    }
                };
                row.push((b, w as f64));
            }
            if !row.is_empty() {
                entries += row.len();
                visit(a, &row);
            }
        }
        entries / 2
    }

    /// The symmetrized graph of the tallies (see
    /// [`into_rows`](Self::into_rows)), each row stored at its exact
    /// length.
    fn into_graph(self) -> WeightedGraph {
        let mut graph = WeightedGraph::new();
        self.into_rows(|n, row| graph.push_row(n, row));
        graph.rows_pushed()
    }

    /// Folds the tallies into `graph` row by row, each row as one sorted
    /// merge: the same graph, bit for bit, as merging
    /// [`into_graph`](Self::into_graph)'s result. Returns the number of
    /// edges folded.
    fn fold_into(self, graph: &mut WeightedGraph) -> usize {
        let mut merge = RowMerge::new(graph);
        let edges = self.into_rows(|n, row| merge.row(n, row));
        merge.finish();
        edges
    }
}

/// The chunks a record executing `bytes` bytes (`1..=size`) of `proc`
/// references, in order, each with its length: `bytes` covers chunks
/// `0 ..= (bytes-1)/chunk_size`, and chunk `k` holds
/// `min(chunk_size, size - k·chunk_size)` bytes.
fn chunk_refs(program: &Program, proc: ProcId, bytes: u32) -> impl Iterator<Item = (u32, u32)> {
    let first = program.chunks_of(proc).start;
    let chunk_size = program.chunk_size();
    let size = program.size_of(proc);
    let executed = (bytes - 1) / chunk_size + 1;
    (0..executed).map(move |k| (first + k, (size - k * chunk_size).min(chunk_size)))
}

/// Occupancy statistics of the procedure-grain Q-set, reported in Table 1
/// as "average Q size".
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QStats {
    /// Average number of procedures resident in `Q` per processing step.
    pub average: f64,
    /// Maximum number of procedures resident in `Q`.
    pub max: usize,
    /// Sum of live-entry counts over all occupancy samples — the exact
    /// integer numerator behind `average`, carried so merged statistics
    /// lose no precision.
    pub occupancy_sum: u64,
    /// Number of occupancy samples — the exact denominator behind
    /// `average`.
    pub samples: u64,
}

impl QStats {
    /// Combines two profiles' statistics: the integer accumulators add,
    /// `max` takes the maximum, and `average` is recomputed from the exact
    /// sums — so any merge order reproduces the same average bit-for-bit.
    pub fn merge_from(&mut self, other: &QStats) {
        self.occupancy_sum += other.occupancy_sum;
        self.samples += other.samples;
        self.max = self.max.max(other.max);
        self.recompute_average();
    }

    /// Scales the integer accumulators by `factor` (rounding to the
    /// nearest integer) and recomputes `average` from the scaled sums —
    /// the aging step of a decaying profile window. `max` is a high-water
    /// mark over the window's whole history and is left untouched.
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    #[allow(clippy::cast_sign_loss)] // product of non-negatives
    pub fn scale(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be finite and positive"
        );
        self.occupancy_sum = ((self.occupancy_sum as f64) * factor).round() as u64;
        self.samples = ((self.samples as f64) * factor).round() as u64;
        self.recompute_average();
    }

    /// Subtracts `other`'s accumulators (saturating at zero) and
    /// recomputes `average` — the inverse of
    /// [`merge_from`](QStats::merge_from) for retiring an epoch from a
    /// sliding window. `max` stays a high-water mark: occupancy peaks
    /// cannot be un-observed, so retiring never lowers it.
    pub fn retire(&mut self, other: &QStats) {
        self.occupancy_sum = self.occupancy_sum.saturating_sub(other.occupancy_sum);
        self.samples = self.samples.saturating_sub(other.samples);
        self.recompute_average();
    }

    fn recompute_average(&mut self) {
        self.average = if self.samples == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.samples as f64
        };
    }
}

/// Why two profiles refused to [`merge`](ProfileData::merge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MergeError {
    /// The profiles were gathered for different cache geometries.
    CacheMismatch,
    /// The popular sets disagree on length or membership (merged
    /// profiles must share one pinned popular set).
    PopularMismatch,
    /// One profile carries a pair database and the other does not.
    PairDbMismatch,
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::CacheMismatch => write!(f, "profiles target different cache geometries"),
            MergeError::PopularMismatch => write!(f, "profiles disagree on popular membership"),
            MergeError::PairDbMismatch => write!(f, "pair database present in only one profile"),
        }
    }
}

impl std::error::Error for MergeError {}

/// Tallies of defective trace records the profiler repaired or dropped.
///
/// The profiler never indexes the program with untrusted record fields:
/// records naming unknown procedures or carrying zero extents are dropped,
/// oversized extents are clamped to the procedure size, and each repair is
/// counted here. Unmatched returns need no tally — the trace model is
/// transition-grain (calls and returns are both just transitions), so a
/// stack imbalance in the traced program cannot desynchronize the profiler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ProfileWarnings {
    /// Records dropped because they name a procedure the program lacks.
    pub unknown_proc: u64,
    /// Records dropped because they carry a zero byte extent.
    pub zero_extent: u64,
    /// Records whose extent exceeded the procedure size and was clamped.
    pub clamped_extent: u64,
}

impl ProfileWarnings {
    /// Returns `true` when every record was consumed as-is.
    pub fn is_clean(&self) -> bool {
        *self == ProfileWarnings::default()
    }

    /// Total number of repaired or dropped records.
    pub fn total(&self) -> u64 {
        self.unknown_proc + self.zero_extent + self.clamped_extent
    }
}

impl fmt::Display for ProfileWarnings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "clean");
        }
        let mut sep = "";
        for (count, label) in [
            (self.unknown_proc, "unknown-proc"),
            (self.zero_extent, "zero-extent"),
            (self.clamped_extent, "clamped-extent"),
        ] {
            if count > 0 {
                write!(f, "{sep}{count} {label}")?;
                sep = ", ";
            }
        }
        Ok(())
    }
}

/// Everything a placement algorithm needs to know about a training run.
///
/// * `wcg` — weighted call graph over **procedure** ids: edge weight =
///   dynamic control-flow transitions (calls + returns) between the two
///   procedures. This is what PH and HKC consume (with weights exactly
///   twice a classic call-count WCG, which the paper notes does not change
///   the produced placements).
/// * `trg_select` — procedure-grain temporal relationship graph over
///   *popular* procedures; drives the selection order of GBSC.
/// * `trg_place` — chunk-grain TRG over the chunks of popular procedures
///   (node ids are **global chunk ids**); drives GBSC's cache-relative
///   alignment cost.
/// * `pair_db` — the §6 association database, present only when requested.
#[derive(Clone, PartialEq)]
pub struct ProfileData {
    /// The cache geometry the profile was gathered for.
    pub cache: CacheConfig,
    /// Popular-procedure set and reference counts.
    pub popular: PopularSet,
    /// Weighted call graph (procedure grain, all procedures).
    pub wcg: WeightedGraph,
    /// Procedure-grain TRG over popular procedures.
    pub trg_select: WeightedGraph,
    /// Chunk-grain TRG over chunks of popular procedures.
    pub trg_place: WeightedGraph,
    /// Optional §6 pair database (chunk grain).
    pub pair_db: Option<PairDb>,
    /// Q-set occupancy statistics (procedure grain).
    pub q_stats: QStats,
}

impl ProfileData {
    /// Merges `other` into `self`, summing graph weights, pair-database
    /// counts, popular reference counts, and the exact Q-occupancy
    /// accumulators.
    ///
    /// All summed quantities are integer event counts, so the operation
    /// is commutative and associative: merging any set of profiles, in
    /// any order, produces one result. The epoch engine folds every epoch
    /// into its window through this operation (DESIGN.md §15).
    ///
    /// # Errors
    ///
    /// Fails without modifying `self` when the profiles disagree on cache
    /// geometry, popular membership, or pair-database presence.
    pub fn merge(&mut self, other: &ProfileData) -> Result<(), MergeError> {
        self.check_compatible(other.cache, &other.popular, other.pair_db.is_some())?;
        self.wcg.merge_from(&other.wcg);
        self.trg_select.merge_from(&other.trg_select);
        self.trg_place.merge_from(&other.trg_place);
        self.merge_tallies(&other.popular, other.pair_db.as_ref(), &other.q_stats);
        note_merge(
            other.wcg.edge_count() + other.trg_select.edge_count() + other.trg_place.edge_count(),
        );
        Ok(())
    }

    /// Whether a profile gathered for `cache`, over `popular`'s
    /// membership, with or without a pair database, can be merged into
    /// (or retired from) this one.
    fn check_compatible(
        &self,
        cache: CacheConfig,
        popular: &PopularSet,
        pair_db: bool,
    ) -> Result<(), MergeError> {
        if self.cache != cache {
            return Err(MergeError::CacheMismatch);
        }
        if !self.popular.same_membership(popular) {
            return Err(MergeError::PopularMismatch);
        }
        if self.pair_db.is_some() != pair_db {
            return Err(MergeError::PairDbMismatch);
        }
        Ok(())
    }

    /// The non-graph half of a merge: reference counts, pair-database
    /// associations and Q-occupancy accumulators.
    fn merge_tallies(&mut self, popular: &PopularSet, pair_db: Option<&PairDb>, q_stats: &QStats) {
        self.popular.merge_counts(popular);
        if let (Some(db), Some(o)) = (self.pair_db.as_mut(), pair_db) {
            db.merge_from(o);
        }
        self.q_stats.merge_from(q_stats);
    }

    /// Ages the profile by multiplying every accumulated quantity by
    /// `factor` — the exponential-decay step of an incremental profile
    /// window: `window.decay(λ); window.merge(&epoch)` keeps recent epochs
    /// at full weight while old evidence fades geometrically.
    ///
    /// Covered quantities: all three graphs' edge weights, the pair
    /// database's association counts, the popular-set reference counts
    /// (rounded to integers), and the exact Q-occupancy accumulators
    /// (`average` recomputed from the scaled sums). Popular *membership*
    /// and `q_stats.max` (a high-water mark) are untouched.
    ///
    /// Determinism: `factor == 1.0` returns without touching anything, so
    /// a non-decaying window is bit-identical to plain merging. For
    /// `factor < 1.0` each weight is scaled by one IEEE multiplication —
    /// deterministic for a given profile, but **decay does not distribute
    /// over [`merge`](ProfileData::merge)**: `decay` then `merge` is only
    /// guaranteed equal to merging pre-decayed profiles when `factor` is
    /// 1.0, so apply decay at one fixed point in the epoch loop (see
    /// DESIGN.md §15).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite or outside `(0, 1]`.
    pub fn decay(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0 && factor <= 1.0,
            "decay factor must be within (0, 1]"
        );
        if factor == 1.0 {
            return; // exact identity: x * 1.0 never rewrites bits
        }
        self.popular.scale_counts(factor);
        self.wcg.scale_weights(factor);
        self.trg_select.scale_weights(factor);
        self.trg_place.scale_weights(factor);
        if let Some(db) = self.pair_db.as_mut() {
            db.scale(factor);
        }
        self.q_stats.scale(factor);
        tempo_obs::counter("profile.decays").incr();
    }

    /// Removes a previously merged epoch profile from this window — the
    /// subtractive inverse of [`merge`](ProfileData::merge), used by
    /// ring-of-K sliding windows (retire the oldest epoch, merge the
    /// newest).
    ///
    /// Because every merged quantity is an integer event count (exact in
    /// `f64` below 2^53), retiring an epoch that was merged into an
    /// **undecayed** window restores the pre-merge profile bit-for-bit,
    /// including graph edge sets and pair-database keys — except
    /// `q_stats.max`, which is a high-water mark and never decreases.
    /// Retiring from a decayed window is a lossy approximation; prefer
    /// pure decay *or* a pure ring, not both.
    ///
    /// # Errors
    ///
    /// Fails without modifying `self` under the same compatibility rules
    /// as [`merge`](ProfileData::merge).
    pub fn retire_epoch(&mut self, epoch: &ProfileData) -> Result<(), MergeError> {
        self.check_compatible(epoch.cache, &epoch.popular, epoch.pair_db.is_some())?;
        self.popular.retire_counts(&epoch.popular);
        self.wcg.subtract_from(&epoch.wcg);
        self.trg_select.subtract_from(&epoch.trg_select);
        self.trg_place.subtract_from(&epoch.trg_place);
        if let (Some(db), Some(o)) = (self.pair_db.as_mut(), epoch.pair_db.as_ref()) {
            db.subtract_from(o);
        }
        self.q_stats.retire(&epoch.q_stats);
        tempo_obs::counter("profile.retires").incr();
        Ok(())
    }

    /// Whether the profile can drive placement for `program`, as
    /// [`TraceRecord::fits`] is for a record: one popularity entry per
    /// procedure, WCG and `TRG_select` ids below the procedure count, and
    /// `TRG_place` and pair-database ids below the chunk count. A profile
    /// read from a file meets the rest by construction (no self-loops,
    /// finite positive weights), so this is the whole check a loaded
    /// profile needs before placement indexes the program with its ids.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first mismatch.
    pub fn fits(&self, program: &Program) -> Result<(), String> {
        if self.popular.len() != program.len() {
            return Err(format!(
                "profile covers {} procedures, program has {}",
                self.popular.len(),
                program.len()
            ));
        }
        let procs = program.len();
        let chunks = program.chunk_count() as usize;
        for (name, graph, bound, what) in [
            ("wcg", &self.wcg, procs, "procedures"),
            ("trg_select", &self.trg_select, procs, "procedures"),
            ("trg_place", &self.trg_place, chunks, "chunks"),
        ] {
            if let Some(n) = graph.nodes().find(|&n| n as usize >= bound) {
                return Err(format!("{name} names node {n}, program has {bound} {what}"));
            }
        }
        if let Some(db) = &self.pair_db {
            if let Some((k, _)) = db
                .iter()
                .find(|(k, _)| [k.p, k.r, k.s].iter().any(|&c| c as usize >= chunks))
            {
                return Err(format!(
                    "pair database names chunks ({}, {{{}, {}}}), program has {chunks} chunks",
                    k.p, k.r, k.s
                ));
            }
        }
        Ok(())
    }

    /// Returns a copy with `wcg`, `trg_select`, and `trg_place` perturbed by
    /// the paper's multiplicative noise ŵ = w·exp(sX) (§5.1). The pair
    /// database, popularity, and statistics are shared unchanged.
    pub fn perturbed<R: rand::Rng + ?Sized>(&self, s: f64, rng: &mut R) -> ProfileData {
        ProfileData {
            cache: self.cache,
            popular: self.popular.clone(),
            wcg: self.wcg.perturbed(s, rng),
            trg_select: self.trg_select.perturbed(s, rng),
            trg_place: self.trg_place.perturbed(s, rng),
            pair_db: self.pair_db.clone(),
            q_stats: self.q_stats,
        }
    }
}

impl fmt::Debug for ProfileData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProfileData")
            .field("cache", &self.cache)
            .field("popular", &self.popular)
            .field("wcg", &self.wcg)
            .field("trg_select", &self.trg_select)
            .field("trg_place", &self.trg_place)
            .field("pair_db", &self.pair_db)
            .field("q_stats", &self.q_stats)
            .finish()
    }
}

/// Reports one merge of a profile carrying `edges` graph edges.
fn note_merge(edges: usize) {
    tempo_obs::counter("profile.merges").incr();
    tempo_obs::counter("profile.merged_edges").add(edges as u64);
}

/// Builder/driver for profile construction.
///
/// Configure, then call [`profile`](Profiler::profile) on a trace. The
/// profiler makes two passes: one to count references (for the popularity
/// filter), one through the Q-sets. To reuse precomputed popularity, call
/// [`with_popular`](Profiler::with_popular) and the first pass is skipped.
///
/// # Example
///
/// ```
/// use tempo_program::Program;
/// use tempo_trace::Trace;
/// use tempo_cache::CacheConfig;
/// use tempo_trg::Profiler;
///
/// let program = Program::builder().procedure("a", 64).procedure("b", 64).build()?;
/// let ids: Vec<_> = program.ids().collect();
/// let trace = Trace::from_full_records(&program, [ids[0], ids[1], ids[0], ids[1], ids[0]]);
/// let profile = Profiler::new(&program, CacheConfig::direct_mapped_8k()).profile(&trace);
/// assert_eq!(profile.wcg.weight(0, 1), 4.0); // four transitions
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Profiler<'p> {
    program: &'p Program,
    cache: CacheConfig,
    selector: PopularitySelector,
    popular: Option<PopularSet>,
    build_pair_db: bool,
    q_bound_factor: u64,
}

impl<'p> Profiler<'p> {
    /// Creates a profiler with the default popularity policy, no pair
    /// database, and the paper's Q bound of twice the cache size.
    pub fn new(program: &'p Program, cache: CacheConfig) -> Self {
        Profiler {
            program,
            cache,
            selector: PopularitySelector::default_policy(),
            popular: None,
            build_pair_db: false,
            q_bound_factor: 2,
        }
    }

    /// Sets the popularity policy (ignored if a set is supplied directly).
    pub fn popularity(mut self, selector: PopularitySelector) -> Self {
        self.selector = selector;
        self
    }

    /// Supplies a precomputed popular set, skipping the counting pass.
    pub fn with_popular(mut self, popular: PopularSet) -> Self {
        self.popular = Some(popular);
        self
    }

    /// Enables construction of the §6 pair database (chunk grain).
    ///
    /// This is quadratic in the Q-set occupancy per trace record; enable it
    /// only when targeting set-associative caches.
    pub fn with_pair_db(mut self, enabled: bool) -> Self {
        self.build_pair_db = enabled;
        self
    }

    /// Overrides the Q capacity bound as a multiple of the cache size
    /// (default 2, the paper's empirical choice).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn q_bound_factor(mut self, factor: u64) -> Self {
        assert!(factor >= 1, "q bound factor must be at least 1");
        self.q_bound_factor = factor;
        self
    }

    /// Runs both passes over the trace and returns the profile.
    ///
    /// Defective records are repaired or dropped silently; use
    /// [`profile_lossy`](Profiler::profile_lossy) to learn how many were.
    pub fn profile(self, trace: &Trace) -> ProfileData {
        self.profile_lossy(trace).0
    }

    /// Like [`profile`](Profiler::profile), but also reports how many
    /// records were repaired or dropped as a [`ProfileWarnings`].
    ///
    /// A thin wrapper over [`profile_source`](Profiler::profile_source):
    /// popularity is selected from the materialized trace, then the trace
    /// is replayed through an in-memory [`MemorySource`], so the streaming
    /// and materialized paths are the same code and produce identical
    /// profiles by construction.
    pub fn profile_lossy(self, trace: &Trace) -> (ProfileData, ProfileWarnings) {
        let popular = match self.popular.clone() {
            Some(p) => p,
            None => self.selector.select(self.program, trace),
        };
        self.with_popular(popular)
            .profile_source(MemorySource::new(trace))
            .unwrap_or_else(|_| unreachable!("in-memory sources never fail"))
    }

    /// Profiles a [`TraceSource`] in one pass and constant memory.
    ///
    /// Popularity selection needs a counting pass of its own, so the
    /// popular set must be supplied up front via
    /// [`with_popular`](Profiler::with_popular) — compute it from a first
    /// opening of the source with
    /// [`PopularitySelector::select_source`](crate::PopularitySelector::select_source)
    /// (`Session::profile_with` in `tempo-core` packages the two-pass
    /// recipe).
    ///
    /// Pass `&mut source` to keep the source and inspect its
    /// [`warnings`](TraceSource::warnings) afterwards.
    ///
    /// # Errors
    ///
    /// Propagates the first error the source reports.
    ///
    /// # Panics
    ///
    /// Panics if no popular set was supplied.
    pub fn profile_source<S: TraceSource>(
        self,
        source: S,
    ) -> Result<(ProfileData, ProfileWarnings), TraceIoError> {
        let popular = self
            .popular
            .clone()
            .expect("profile_source requires with_popular (see PopularitySelector::select_source)");
        let mut stream = self.into_stream(popular);
        stream.consume(source)?;
        Ok(stream.finish_with_warnings())
    }

    /// Converts the profiler into a streaming builder over the given
    /// popular set — the shape of the paper's §4.4 online instrumentation,
    /// where the TRGs are generated *during* program execution rather than
    /// from a stored trace.
    pub fn into_stream(self, popular: PopularSet) -> ProfileStream<'p> {
        let bound = self.q_bound_factor * u64::from(self.cache.size());
        ProfileStream {
            program: self.program,
            cache: self.cache,
            popular,
            q_proc: QSet::new(bound),
            q_chunk: QSet::new(bound),
            wcg_acc: EdgeAcc::default(),
            select_acc: EdgeAcc::default(),
            place_acc: EdgeAcc::default(),
            scratch: Vec::new(),
            pair_db: self.build_pair_db.then(PairDb::new),
            prev: None,
            records: 0,
            warnings: ProfileWarnings::default(),
        }
    }
}

/// Incremental profile construction: feed trace records one at a time.
///
/// Produced by [`Profiler::into_stream`]; consume with
/// [`observe`](ProfileStream::observe) and [`finish`](ProfileStream::finish).
#[derive(Debug)]
pub struct ProfileStream<'p> {
    program: &'p Program,
    cache: CacheConfig,
    popular: PopularSet,
    q_proc: QSet,
    q_chunk: QSet,
    /// Edge tallies of the WCG, `TRG_select` and `TRG_place`, turned into
    /// graphs by [`finish`](ProfileStream::finish) (see [`EdgeAcc`]).
    wcg_acc: EdgeAcc,
    select_acc: EdgeAcc,
    place_acc: EdgeAcc,
    /// Reused interleaved-set buffer for the pair database's pair loop.
    scratch: Vec<u32>,
    pair_db: Option<PairDb>,
    prev: Option<tempo_program::ProcId>,
    records: u64,
    warnings: ProfileWarnings,
}

impl ProfileStream<'_> {
    /// Processes one trace record.
    ///
    /// Records that disagree with the program are dropped (unknown
    /// procedure, zero extent) or repaired (oversized extent, clamped) and
    /// tallied in [`warnings`](ProfileStream::warnings) rather than indexed
    /// blindly. A dropped record leaves `prev` untouched, splicing its
    /// neighbours together as if the noise record never happened.
    pub fn observe(&mut self, record: &TraceRecord) {
        if record.proc.as_usize() >= self.program.len() {
            self.warnings.unknown_proc += 1;
            return;
        }
        if record.bytes == 0 {
            self.warnings.zero_extent += 1;
            return;
        }
        self.records += 1;
        // WCG: every adjacent transition between distinct procedures.
        if let Some(p) = self.prev {
            if p != record.proc {
                self.wcg_acc.row(record.proc.index()).bump(p.index());
            }
        }
        self.prev = Some(record.proc);

        if !self.popular.is_popular(record.proc) {
            return;
        }

        // Procedure-grain Q drives TRG_select.
        let id = record.proc.index();
        let size = self.program.size_of(record.proc);
        let mut row = self.select_acc.row(id);
        self.q_proc.process_with(id, size, |other| row.bump(other));

        // Chunk-grain Q drives TRG_place (and the pair database).
        if record.bytes > size {
            self.warnings.clamped_extent += 1;
        }
        for (chunk, len) in chunk_refs(self.program, record.proc, record.bytes.min(size)) {
            let mut row = self.place_acc.row(chunk);
            let Some(db) = self.pair_db.as_mut() else {
                self.q_chunk
                    .process_with(chunk, len, |other| row.bump(other));
                continue;
            };
            let between = &mut self.scratch;
            between.clear();
            self.q_chunk.process_with(chunk, len, |other| {
                row.bump(other);
                between.push(other);
            });
            if between.len() >= 2 {
                let pairs = db.focal_row(chunk);
                for (i, &r) in between.iter().enumerate() {
                    for &s in &between[i + 1..] {
                        *pairs.entry(pack_pair(r, s)).or_insert(0.0) += 1.0;
                    }
                }
            }
        }
    }

    /// Consumes an entire source, observing every record, and reports the
    /// read pass (`trace.records_read` and the source's defect tallies).
    ///
    /// # Errors
    ///
    /// Propagates the first error the source reports.
    pub fn consume<S: TraceSource>(&mut self, mut source: S) -> Result<(), TraceIoError> {
        let mut pulled = 0u64;
        while let Some(record) = source.try_next()? {
            self.observe(&record);
            pulled += 1;
        }
        tempo_trace::obs::note_read(pulled, &source.warnings());
        Ok(())
    }

    /// Records accepted so far (dropped records are not counted).
    pub fn records_seen(&self) -> u64 {
        self.records
    }

    /// Tallies of repaired or dropped records so far.
    pub fn warnings(&self) -> ProfileWarnings {
        self.warnings
    }

    /// Completes the profile, also reporting repair tallies.
    pub fn finish_with_warnings(self) -> (ProfileData, ProfileWarnings) {
        let warnings = self.warnings;
        (self.finish(), warnings)
    }

    /// Completes the profile.
    ///
    /// Also reports the pass to the global [`tempo_obs`] registry:
    /// `profile.records` (accepted records), `profile.qset_proc_evictions`
    /// / `profile.qset_chunk_evictions` (the §3 residency bound at work),
    /// the edge counts of the three graphs, and dropped/clamped tallies.
    pub fn finish(mut self) -> ProfileData {
        let (wcg, trg_select, trg_place) = (
            std::mem::take(&mut self.wcg_acc).into_graph(),
            std::mem::take(&mut self.select_acc).into_graph(),
            std::mem::take(&mut self.place_acc).into_graph(),
        );
        self.note_pass([
            wcg.edge_count(),
            trg_select.edge_count(),
            trg_place.edge_count(),
        ]);
        let q_stats = self.q_stats();
        ProfileData {
            cache: self.cache,
            popular: self.popular,
            wcg,
            trg_select,
            trg_place,
            pair_db: self.pair_db,
            q_stats,
        }
    }

    /// Folds the stream's tallies into `window`: the result, and every
    /// counter reported, equal [`finish`](ProfileStream::finish) followed
    /// by [`window.merge`](ProfileData::merge). Each of the epoch's sorted
    /// rows is merged into the window's row as one sorted merge. This is
    /// the epoch step of a profile window (DESIGN.md §15).
    ///
    /// # Errors
    ///
    /// Fails without modifying `window` under the same compatibility rules
    /// as [`merge`](ProfileData::merge).
    pub fn fold_into(mut self, window: &mut ProfileData) -> Result<(), MergeError> {
        window.check_compatible(self.cache, &self.popular, self.pair_db.is_some())?;
        let edges = [
            std::mem::take(&mut self.wcg_acc).fold_into(&mut window.wcg),
            std::mem::take(&mut self.select_acc).fold_into(&mut window.trg_select),
            std::mem::take(&mut self.place_acc).fold_into(&mut window.trg_place),
        ];
        self.note_pass(edges);
        window.merge_tallies(&self.popular, self.pair_db.as_ref(), &self.q_stats());
        note_merge(edges.iter().sum());
        Ok(())
    }

    /// Occupancy statistics of the procedure-grain Q-set so far.
    fn q_stats(&self) -> QStats {
        QStats {
            average: self.q_proc.average_occupancy(),
            max: self.q_proc.max_occupancy(),
            occupancy_sum: self.q_proc.occupancy_sum(),
            samples: self.q_proc.occupancy_samples(),
        }
    }

    /// Reports the pass to the global [`tempo_obs`] registry, given the
    /// edge counts of its WCG, `TRG_select` and `TRG_place`.
    fn note_pass(&self, [wcg, trg_select, trg_place]: [usize; 3]) {
        tempo_obs::counter("profile.records").add(self.records);
        tempo_obs::counter("profile.qset_proc_evictions").add(self.q_proc.evictions());
        tempo_obs::counter("profile.qset_chunk_evictions").add(self.q_chunk.evictions());
        tempo_obs::counter("profile.wcg_edges").add(wcg as u64);
        tempo_obs::counter("profile.trg_select_edges").add(trg_select as u64);
        tempo_obs::counter("profile.trg_place_edges").add(trg_place as u64);
        let dropped = self.warnings.unknown_proc + self.warnings.zero_extent;
        if dropped > 0 {
            tempo_obs::counter("profile.records_dropped").add(dropped);
        }
        if self.warnings.clamped_extent > 0 {
            tempo_obs::counter("profile.records_clamped").add(self.warnings.clamped_extent);
        }
    }
}

/// A profile stream is a [`TraceSink`], so it can sit behind a
/// `Tee` and share one pass over a source with other consumers.
impl TraceSink for ProfileStream<'_> {
    fn accept(&mut self, record: &TraceRecord) {
        self.observe(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_program::ProcId;

    fn program() -> Program {
        Program::builder()
            .procedure("m", 128)
            .procedure("x", 64)
            .procedure("y", 64)
            .procedure("z", 64)
            .build()
            .unwrap()
    }

    /// Trace #1 of the paper's Figure 1: cond alternates, M X M Y repeated.
    fn trace1(p: &Program, reps: usize) -> Trace {
        let (m, x, y) = (ProcId::new(0), ProcId::new(1), ProcId::new(2));
        let mut refs = Vec::new();
        for _ in 0..reps {
            refs.extend([m, x, m, y]);
        }
        Trace::from_full_records(p, refs)
    }

    /// Trace #2: cond true 40 times then false 40 times: (M X)*40 (M Y)*40.
    fn trace2(p: &Program) -> Trace {
        let (m, x, y) = (ProcId::new(0), ProcId::new(1), ProcId::new(2));
        let mut refs = Vec::new();
        for _ in 0..40 {
            refs.extend([m, x]);
        }
        for _ in 0..40 {
            refs.extend([m, y]);
        }
        Trace::from_full_records(p, refs)
    }

    fn profile(p: &Program, t: &Trace) -> ProfileData {
        Profiler::new(p, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .profile(t)
    }

    #[test]
    fn fits_checks_every_id_against_the_program() {
        let p = program();
        let mut prof = Profiler::new(&p, CacheConfig::two_way_8k())
            .popularity(PopularitySelector::all())
            .with_pair_db(true)
            .profile(&trace1(&p, 10));
        assert_eq!(prof.fits(&p), Ok(()));
        let smaller = Program::builder().procedure("m", 128).build().unwrap();
        assert!(prof
            .fits(&smaller)
            .unwrap_err()
            .contains("covers 4 procedures"));

        let chunks = p.chunk_count();
        let mut far = prof.clone();
        far.wcg.add_weight(0, 4, 1.0);
        assert!(far.fits(&p).unwrap_err().contains("wcg names node 4"));
        let mut far = prof.clone();
        far.trg_select.add_weight(1, 9, 1.0);
        assert!(far.fits(&p).unwrap_err().contains("trg_select"));
        let mut far = prof.clone();
        far.trg_place.add_weight(0, chunks, 1.0);
        assert!(far.fits(&p).unwrap_err().contains("trg_place"));
        prof.pair_db.as_mut().unwrap().add(0, 1, chunks + 7, 1.0);
        assert!(prof.fits(&p).unwrap_err().contains("pair database"));
    }

    #[test]
    fn edge_rows_symmetrize_each_edge_once() {
        let mut acc = EdgeAcc::default();
        acc.row(1).bump(4); // {1, 4} seen from both ends
        acc.row(1).bump(4);
        acc.row(4).bump(1);
        acc.row(7).bump(2); // {2, 7} seen only from the larger end
        acc.row(0).bump(9); // {0, 9} seen only from the smaller end
        let g = acc.into_graph();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.weight(1, 4), 3.0);
        assert_eq!(g.weight(2, 7), 1.0);
        assert_eq!(g.weight(0, 9), 1.0);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![4]);
        assert_eq!(g.neighbors(9).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn edge_counts_carry_past_u32() {
        let mut acc = EdgeAcc::default();
        acc.row(3).bump(5);
        *acc.rows[3].get_mut(&5).unwrap() = u32::MAX;
        acc.row(3).bump(5); // wraps to 0, carrying 2^32
        acc.row(3).bump(5);
        acc.row(5).bump(3);
        let g = acc.into_graph();
        assert_eq!(g.weight(3, 5), (1u64 << 32) as f64 + 2.0);
    }

    #[test]
    fn wcg_identical_for_both_figure1_traces() {
        let p = program();
        let prof1 = profile(&p, &trace1(&p, 40));
        let prof2 = profile(&p, &trace2(&p));
        // Both traces produce the same WCG (the paper's motivating point):
        // 80 transitions M<->X and 80 M<->Y in trace1; 79/80 pattern differs
        // by one boundary transition in trace2 (the X->M->Y switch), so
        // compare within one transition.
        assert!((prof1.wcg.weight(0, 1) - prof2.wcg.weight(0, 1)).abs() <= 1.0);
        assert!((prof1.wcg.weight(0, 2) - prof2.wcg.weight(0, 2)).abs() <= 1.0);
        assert_eq!(prof1.wcg.weight(1, 2), 0.0, "WCG has no sibling edges");
        assert_eq!(prof2.wcg.weight(1, 2), 0.0);
    }

    #[test]
    fn trg_distinguishes_figure1_traces() {
        let p = program();
        let prof1 = profile(&p, &trace1(&p, 40));
        let prof2 = profile(&p, &trace2(&p));
        // Trace1 alternates X and Y: strong X<->Y temporal edge.
        // Trace2 runs X then Y in phases: X<->Y edge weight of ~1.
        let xy1 = prof1.trg_select.weight(1, 2);
        let xy2 = prof2.trg_select.weight(1, 2);
        assert!(
            xy1 > 30.0,
            "alternation gives heavy sibling edge, got {xy1}"
        );
        assert!(xy2 <= 2.0, "phases give trivial sibling edge, got {xy2}");
    }

    #[test]
    fn figure2_trg_weights_for_trace2() {
        // The paper's Figure 2: edges M-X, M-Y nearly doubled vs WCG;
        // extra edges (X,Z)/(Y,Z) absent here since Z never runs; check
        // the M edges concretely: M-X interleave happens 39 times on M's
        // re-references plus 39 on X's = 78; we just require "nearly 2x WCG".
        let p = program();
        let prof2 = profile(&p, &trace2(&p));
        let wcg_mx = prof2.wcg.weight(0, 1);
        let trg_mx = prof2.trg_select.weight(0, 1);
        assert!(
            trg_mx > 0.9 * wcg_mx && trg_mx <= wcg_mx,
            "trg {trg_mx} wcg {wcg_mx}"
        );
    }

    #[test]
    fn unpopular_procedures_stay_out_of_trgs_but_in_wcg() {
        let p = program();
        let (m, z) = (ProcId::new(0), ProcId::new(3));
        let mut refs = vec![m; 1];
        for _ in 0..50 {
            refs.extend([ProcId::new(1), m]);
        }
        refs.extend([z, m]); // z referenced once: unpopular
        let t = Trace::from_full_records(&p, refs);
        let prof = Profiler::new(&p, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::coverage(0.95).with_min_count(2))
            .profile(&t);
        assert!(!prof.popular.is_popular(z));
        assert!(prof.wcg.weight(0, 3) > 0.0, "WCG keeps unpopular edges");
        assert_eq!(prof.trg_select.weight(0, 3), 0.0);
    }

    #[test]
    fn trg_place_connects_chunks_of_interleaved_procs() {
        // Procedures larger than one chunk produce multiple chunk nodes.
        let p = Program::builder()
            .procedure("big", 600) // chunks 0,1,2
            .procedure("small", 100) // chunk 3
            .build()
            .unwrap();
        let (big, small) = (ProcId::new(0), ProcId::new(1));
        let t = Trace::from_full_records(&p, [big, small, big, small, big]);
        let prof = Profiler::new(&p, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .profile(&t);
        // Chunk 3 (small) interleaves with all three chunks of big.
        assert!(prof.trg_place.weight(0, 3) > 0.0);
        assert!(prof.trg_place.weight(1, 3) > 0.0);
        assert!(prof.trg_place.weight(2, 3) > 0.0);
        // Chunks of big also interleave with each other through small? No:
        // they are referenced consecutively; chunk 0 and 1 of big do
        // interleave via the trace ordering 0,1,2,3,0,1,2...: between two
        // references of chunk 0 we see 1, 2, 3.
        assert!(prof.trg_place.weight(0, 1) > 0.0);
    }

    #[test]
    fn partial_extents_touch_prefix_chunks_only() {
        let p = Program::builder()
            .procedure("big", 600)
            .procedure("small", 100)
            .build()
            .unwrap();
        let (big, small) = (ProcId::new(0), ProcId::new(1));
        // big executes only its first 100 bytes each time.
        let t = Trace::from_records(vec![
            tempo_trace::TraceRecord::new(big, 100),
            tempo_trace::TraceRecord::new(small, 100),
            tempo_trace::TraceRecord::new(big, 100),
        ]);
        let prof = Profiler::new(&p, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .profile(&t);
        assert!(prof.trg_place.weight(0, 3) > 0.0);
        assert_eq!(prof.trg_place.weight(1, 3), 0.0, "chunk 1 never executed");
        assert_eq!(prof.trg_place.weight(2, 3), 0.0);
    }

    #[test]
    fn pair_db_records_two_intervenors() {
        let p = program();
        let (m, x, y) = (ProcId::new(0), ProcId::new(1), ProcId::new(2));
        let t = Trace::from_full_records(&p, [m, x, y, m]);
        let prof = Profiler::new(&p, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .with_pair_db(true)
            .profile(&t);
        let db = prof.pair_db.as_ref().unwrap();
        // Chunks: m=0, x=1, y=2. Between the two m references: {x, y}.
        assert_eq!(db.get(0, 1, 2), 1.0);
        assert_eq!(db.get(1, 0, 2), 0.0);
    }

    #[test]
    fn pair_db_absent_by_default() {
        let p = program();
        let t = trace1(&p, 2);
        let prof = profile(&p, &t);
        assert!(prof.pair_db.is_none());
    }

    #[test]
    fn q_stats_are_populated() {
        let p = program();
        let prof = profile(&p, &trace1(&p, 10));
        assert!(prof.q_stats.average > 1.0);
        assert!(prof.q_stats.max >= 3);
    }

    #[test]
    fn capacity_bound_limits_temporal_reach() {
        // With a tiny Q bound, far-apart references never connect.
        let p = Program::builder()
            .procedure("a", 4096)
            .procedure("b", 4096)
            .procedure("c", 4096)
            .build()
            .unwrap();
        let (a, b, c) = (ProcId::new(0), ProcId::new(1), ProcId::new(2));
        let t = Trace::from_full_records(&p, [a, b, c, a]);
        // Cache 2 KB -> bound 4 KB: b evicts a from Q immediately.
        let prof = Profiler::new(&p, CacheConfig::direct_mapped(2048).unwrap())
            .popularity(PopularitySelector::all())
            .profile(&t);
        assert_eq!(prof.trg_select.weight(0, 1), 0.0);
        assert_eq!(prof.trg_select.weight(0, 2), 0.0);
        // With the paper's 8 KB cache (16 KB bound) the same trace connects.
        let prof = Profiler::new(&p, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .profile(&t);
        assert!(prof.trg_select.weight(0, 1) > 0.0);
        assert!(prof.trg_select.weight(0, 2) > 0.0);
    }

    #[test]
    fn streaming_equals_batch_profiling() {
        let p = program();
        let t = trace1(&p, 25);
        let batch = profile(&p, &t);
        let popular = PopularitySelector::all().select(&p, &t);
        let mut stream = Profiler::new(&p, CacheConfig::direct_mapped_8k()).into_stream(popular);
        for r in t.iter() {
            stream.observe(r);
        }
        assert_eq!(stream.records_seen(), t.len() as u64);
        let streamed = stream.finish();
        assert_eq!(streamed.wcg.total_weight(), batch.wcg.total_weight());
        assert_eq!(
            streamed.trg_select.total_weight(),
            batch.trg_select.total_weight()
        );
        assert_eq!(
            streamed.trg_place.total_weight(),
            batch.trg_place.total_weight()
        );
        assert_eq!(streamed.q_stats, batch.q_stats);
    }

    #[test]
    fn merge_rejects_incompatible_profiles() {
        let p = program();
        let prof = profile(&p, &trace1(&p, 5));

        let mut other = prof.clone();
        other.cache = CacheConfig::direct_mapped(4096).unwrap();
        assert_eq!(prof.clone().merge(&other), Err(MergeError::CacheMismatch));

        let mut other = prof.clone();
        other.popular = PopularSet::from_parts(vec![true], vec![1]);
        assert_eq!(prof.clone().merge(&other), Err(MergeError::PopularMismatch));

        let mut other = prof.clone();
        other.pair_db = Some(PairDb::new());
        assert_eq!(prof.clone().merge(&other), Err(MergeError::PairDbMismatch));

        // A failed merge leaves the target untouched.
        let mut a = prof.clone();
        let _ = a.merge(&other);
        assert_eq!(a, prof);
    }

    #[test]
    fn q_stats_carry_exact_accumulators() {
        let p = program();
        let prof = profile(&p, &trace1(&p, 10));
        assert!(prof.q_stats.samples > 0);
        assert_eq!(
            prof.q_stats.average,
            prof.q_stats.occupancy_sum as f64 / prof.q_stats.samples as f64
        );
    }

    #[test]
    fn hostile_records_are_dropped_with_counters() {
        let p = program();
        let (m, x) = (ProcId::new(0), ProcId::new(1));
        let t = Trace::from_records(vec![
            TraceRecord::new(m, 128),
            TraceRecord::new(ProcId::new(999), 64), // unknown: dropped
            TraceRecord::new(x, 0),                 // zero extent: dropped
            TraceRecord::new(x, u32::MAX),          // oversized: clamped
            TraceRecord::new(m, 128),
        ]);
        let (prof, w) = Profiler::new(&p, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .profile_lossy(&t);
        assert_eq!(w.unknown_proc, 1);
        assert_eq!(w.zero_extent, 1);
        assert_eq!(w.clamped_extent, 1);
        assert_eq!(w.total(), 3);
        // The dropped records splice out: m-x-m still interleaves.
        assert!(prof.wcg.weight(0, 1) > 0.0);
        assert!(prof.trg_select.weight(0, 1) > 0.0);
        // No graph node exists for the unknown procedure.
        assert_eq!(prof.wcg.weight(0, 999), 0.0);
    }

    #[test]
    fn empty_trace_profiles_cleanly() {
        let p = program();
        let (prof, w) =
            Profiler::new(&p, CacheConfig::direct_mapped_8k()).profile_lossy(&Trace::new());
        assert!(w.is_clean());
        assert_eq!(prof.wcg.total_weight(), 0.0);
        assert_eq!(prof.trg_select.total_weight(), 0.0);
        assert_eq!(prof.q_stats.average, 0.0);
    }

    #[test]
    fn clean_traces_report_clean_warnings() {
        let p = program();
        let (prof, w) = Profiler::new(&p, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .profile_lossy(&trace1(&p, 10));
        assert!(w.is_clean(), "unexpected: {w}");
        assert!(prof.wcg.total_weight() > 0.0);
    }

    #[test]
    fn decay_scales_every_component() {
        let p = program();
        let t = trace1(&p, 10);
        let mut prof = Profiler::new(&p, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .with_pair_db(true)
            .profile(&t);
        let wcg_before = prof.wcg.weight(0, 1);
        let trg_before = prof.trg_select.weight(1, 2);
        let pair_before = prof.pair_db.as_ref().unwrap().total_weight();
        let count_before = prof.popular.count_of(ProcId::new(0));
        let sum_before = prof.q_stats.occupancy_sum;
        prof.decay(0.5);
        assert_eq!(prof.wcg.weight(0, 1), wcg_before * 0.5);
        assert_eq!(prof.trg_select.weight(1, 2), trg_before * 0.5);
        assert_eq!(
            prof.pair_db.as_ref().unwrap().total_weight(),
            pair_before * 0.5
        );
        assert_eq!(
            prof.popular.count_of(ProcId::new(0)),
            ((count_before as f64) * 0.5).round() as u64
        );
        assert_eq!(
            prof.q_stats.occupancy_sum,
            ((sum_before as f64) * 0.5).round() as u64
        );
        // Membership never decays.
        assert!(prof.popular.is_popular(ProcId::new(0)));
    }

    #[test]
    #[should_panic(expected = "within (0, 1]")]
    fn decay_rejects_out_of_range_factor() {
        let p = program();
        let mut prof = profile(&p, &trace1(&p, 2));
        prof.decay(1.5);
    }

    #[test]
    fn retire_epoch_rejects_incompatible_profiles() {
        let p = program();
        let prof = profile(&p, &trace1(&p, 5));
        let mut other = prof.clone();
        other.cache = CacheConfig::direct_mapped(4096).unwrap();
        assert_eq!(
            prof.clone().retire_epoch(&other),
            Err(MergeError::CacheMismatch)
        );
        let mut other = prof.clone();
        other.pair_db = Some(PairDb::new());
        assert_eq!(
            prof.clone().retire_epoch(&other),
            Err(MergeError::PairDbMismatch)
        );
    }

    #[test]
    fn perturbed_profile_changes_weights_only() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let p = program();
        let prof = profile(&p, &trace1(&p, 10));
        let mut rng = StdRng::seed_from_u64(1);
        let pert = prof.perturbed(0.1, &mut rng);
        assert_eq!(pert.wcg.edge_count(), prof.wcg.edge_count());
        assert_eq!(pert.trg_select.edge_count(), prof.trg_select.edge_count());
        assert_ne!(pert.trg_select.weight(0, 1), prof.trg_select.weight(0, 1));
        assert_eq!(pert.q_stats, prof.q_stats);
    }

    // -----------------------------------------------------------------
    // Engine laws over random epoch plans (DESIGN.md §15). Every case
    // starts from the Figure 1 epochs the unit tests used, then appends
    // random epochs.
    // -----------------------------------------------------------------

    use proptest::prelude::*;

    /// The Figure 1 epochs followed by `extra` random ones, each a list
    /// of procedure indices below 4.
    fn epoch_traces(p: &Program, extra: &[Vec<u32>]) -> Vec<Trace> {
        let mut epochs = vec![trace1(p, 25), trace2(p)];
        epochs.extend(
            extra
                .iter()
                .map(|refs| Trace::from_full_records(p, refs.iter().map(|&i| ProcId::new(i)))),
        );
        epochs
    }

    /// One profile per epoch over the membership pinned from the whole
    /// run, as the engine profiles its epochs.
    fn epoch_profiles(p: &Program, epochs: &[Trace], pair_db: bool) -> Vec<ProfileData> {
        let whole = Trace::from_records(epochs.iter().flat_map(|t| t.iter().copied()).collect());
        let global = PopularitySelector::all().select(p, &whole);
        let flags: Vec<bool> = (0..p.len())
            .map(|i| global.is_popular(ProcId::new(i as u32)))
            .collect();
        epochs
            .iter()
            .map(|t| {
                let mut counts = vec![0u64; p.len()];
                for r in t.iter() {
                    counts[r.proc.as_usize()] += 1;
                }
                Profiler::new(p, CacheConfig::direct_mapped_8k())
                    .with_popular(PopularSet::from_parts(flags.clone(), counts))
                    .with_pair_db(pair_db)
                    .profile(t)
            })
            .collect()
    }

    /// Sequential windows: `windows[j]` is epochs `0..=j` merged in order.
    fn windows(profiles: &[ProfileData]) -> Vec<ProfileData> {
        let mut out: Vec<ProfileData> = vec![profiles[0].clone()];
        for e in &profiles[1..] {
            let mut w = out[out.len() - 1].clone();
            w.merge(e).unwrap();
            out.push(w);
        }
        out
    }

    fn random_epochs() -> impl Strategy<Value = Vec<Vec<u32>>> {
        prop::collection::vec(prop::collection::vec(0u32..4, 0..120), 0..5)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Retiring the epochs of a merged window, newest first, walks
        /// back through every earlier window bit for bit; only the
        /// `q_stats.max` high-water mark keeps the run's maximum.
        #[test]
        fn retire_epoch_inverts_merge_exactly(extra in random_epochs(), pair_db in any::<bool>()) {
            let p = program();
            let profiles = epoch_profiles(&p, &epoch_traces(&p, &extra), pair_db);
            let windows = windows(&profiles);
            let full = windows[windows.len() - 1].clone();
            let mut window = full.clone();
            for j in (1..profiles.len()).rev() {
                window.retire_epoch(&profiles[j]).unwrap();
                let mut expect = windows[j - 1].clone();
                expect.q_stats.max = full.q_stats.max;
                prop_assert_eq!(&window, &expect);
            }
        }

        /// `decay(1.0)` leaves every window bit-identical, merged or not.
        #[test]
        fn decay_of_one_is_bit_exact_identity(extra in random_epochs(), pair_db in any::<bool>()) {
            let p = program();
            for window in windows(&epoch_profiles(&p, &epoch_traces(&p, &extra), pair_db)) {
                let mut decayed = window.clone();
                decayed.decay(1.0);
                prop_assert_eq!(&decayed, &window);
            }
        }

        /// Integer counts make `merge` order-free: any permutation of the
        /// epochs merges to the same window, bit for bit.
        #[test]
        fn merge_is_order_free_on_integer_counts(
            extra in random_epochs(),
            pair_db in any::<bool>(),
            order in any::<u64>(),
        ) {
            let p = program();
            let mut profiles = epoch_profiles(&p, &epoch_traces(&p, &extra), pair_db);
            let in_order = windows(&profiles).pop().unwrap();
            // A seeded Fisher-Yates shuffle of the epochs.
            let mut state = order;
            for i in (1..profiles.len()).rev() {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                profiles.swap(i, (state >> 33) as usize % (i + 1));
            }
            prop_assert_eq!(windows(&profiles).pop().unwrap(), in_order);
        }
    }
}
