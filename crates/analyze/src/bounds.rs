//! Two-sided static miss bounds and layout screening (ROADMAP item 5).
//!
//! Everything in this module is computed from `Program` + `Layout` +
//! profile summaries alone — no trace replay. The product is a sound
//! interval [`MissBounds`] around the *conflict* misses the simulator
//! would report for the same trace the profile was gathered from, plus a
//! screening pass ([`screen_layouts`]) that uses those intervals (and the
//! Figure-6 conflict metric) to mark candidate layouts the simulator need
//! not run on.
//!
//! # Upper bound: set-occupancy intervals
//!
//! For every memory line `L` we know an upper bound `A(L)` on how many
//! times the trace can touch it: each record of procedure `p` touches only
//! lines inside `p`'s placed extent, so `A(L) = Σ count(p)` over the
//! procedures whose extent covers `L` (reference counts come from the
//! [`PopularSet`], which stores counts for *all* procedures). A warm miss
//! on `L` requires `L` to have been evicted since its previous access,
//! and evicting a line from an `A`-way LRU set consumes at least `A`
//! accesses to *other* memory lines of the same set inside a time window
//! disjoint from every other eviction window of `L`. Hence per line
//!
//! ```text
//! warm(L) ≤ min( A(L) − 1,  Σ_{L' in set, L' ≠ L} A(L') / assoc )
//! ```
//!
//! and conflict misses ≤ warm misses ≤ Σ_L warm(L) = `hi`. The bound is
//! sound for any associativity and any trace consistent with the counts.
//!
//! No per-line table is built: each extent becomes a `+count` event at
//! its first line and a `−count` event past its last, one sort and sweep
//! turn the events into maximal runs of lines with equal `A`, and the
//! per-set sums come from the runs. Memory is O(procedures + sets)
//! however far apart the extents lie.
//!
//! # Lower bound: alternation-weighted forced misses
//!
//! `TRG_select` counts alternation events: weight `w(p, q)` is the number
//! of times a reference to one of the pair was interleaved between two
//! successive references to the other. Every record of `p` touches `p`'s
//! *first* placed line `w(p)` (its witness line), so on a direct-mapped
//! cache an event forces a miss at the closing reference whenever the two
//! witness lines are distinct memory lines sharing a cache line — unless
//! some other procedure whose extent covers the witness line re-fetched it
//! mid-event. Each such spoiler record can rescue at most one event
//! (event windows are disjoint), so an edge forces at least
//! `w(p,q) − spoil(p) − spoil(q)` misses, with `spoil(p) = A(w(p)) −
//! count(p)`. A greedy maximum-weight matching keeps every procedure in at
//! most one edge so no miss is claimed twice. The result counts toward
//! *conflict* misses only when the whole touchable footprint fits the
//! cache (`capacity_free`): then a same-size fully-associative cache never
//! evicts, the 3C split charges zero capacity misses, and every forced
//! warm miss is a conflict miss. Otherwise `lo = 0`.

use tempo_cache::CacheConfig;
use tempo_program::{Layout, ProcId, Program};
use tempo_trg::{PopularSet, WeightedGraph};

use crate::predictor;

/// A sound interval around the conflict misses of one layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissBounds {
    /// Conflict misses the layout provably causes (0 unless the cache is
    /// direct-mapped and the footprint is capacity-free).
    pub lo: u64,
    /// Conflict misses the layout provably cannot exceed.
    pub hi: u64,
    /// Matched alternation-forced misses before the capacity gate; equals
    /// `lo` when the gate passes, retained for diagnostics when it fails.
    pub forced: u64,
    /// Whether every touchable memory line fits the cache simultaneously
    /// (a same-size fully-associative cache never evicts).
    pub capacity_free: bool,
    /// Distinct memory lines the trace can touch under this layout.
    pub touched_lines: u64,
    /// Cache sets with more than one resident memory line.
    pub contested_sets: u32,
}

impl MissBounds {
    /// Interval width `hi − lo`.
    pub fn width(&self) -> u64 {
        self.hi.saturating_sub(self.lo)
    }

    /// Whether a simulated conflict-miss count falls inside the interval.
    pub fn contains(&self, conflict: u64) -> bool {
        self.lo <= conflict && conflict <= self.hi
    }
}

impl std::fmt::Display for MissBounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// A maximal run of memory lines `first..end` that all share the access
/// upper bound `a`.
#[derive(Debug, Clone, Copy)]
struct LineRun {
    first: u64,
    end: u64,
    a: u64,
}

/// Per-memory-line access upper bounds `A(L) = Σ count(p)` over the
/// procedures whose placed extent covers `L`, as maximal runs in
/// ascending line order, swept from sorted extent events (see the module
/// docs). Lines no counted procedure covers are absent.
fn line_runs(
    program: &Program,
    layout: &Layout,
    cache: CacheConfig,
    popular: &PopularSet,
) -> Vec<LineRun> {
    // (line, opens, count): `opens` is false for the event one past an
    // extent's last line.
    let mut events: Vec<(u64, bool, u64)> = Vec::new();
    for id in program.ids() {
        if id.as_usize() >= layout.len() {
            continue;
        }
        let count = popular.count_of(id);
        if count == 0 {
            continue;
        }
        let addr = layout.addr(id);
        let size = u64::from(program.size_of(id));
        if size == 0 {
            continue;
        }
        // An extent running past the address space covers no line
        // (corrupt layouts reach the analyzer unvalidated).
        let Some(end_addr) = addr.checked_add(size - 1) else {
            continue;
        };
        let first = cache.line_of_addr(addr);
        let last = cache.line_of_addr(end_addr);
        events.push((first, true, count));
        events.push((last + 1, false, count));
    }
    events.sort_unstable_by_key(|&(line, _, _)| line);

    let mut runs: Vec<LineRun> = Vec::new();
    // `covering` counts the extents over the current line, so a line is
    // touched exactly when it is positive; `a` sums their counts.
    let (mut covering, mut a) = (0usize, 0u64);
    let mut i = 0;
    while i < events.len() {
        let line = events[i].0;
        while let Some(&(at, opens, count)) = events.get(i) {
            if at != line {
                break;
            }
            if opens {
                covering += 1;
                a = a.wrapping_add(count);
            } else {
                covering -= 1;
                a = a.wrapping_sub(count);
            }
            i += 1;
        }
        if covering == 0 {
            continue;
        }
        // An open extent has its closing event still ahead.
        let end = events[i].0;
        match runs.last_mut() {
            Some(run) if run.end == line && run.a == a => run.end = end,
            _ => runs.push(LineRun {
                first: line,
                end,
                a,
            }),
        }
    }
    runs
}

/// Calls `f(set, lines)` once or twice per cache set the run's lines map
/// to, `lines` being how many of them map there: O(min(run length,
/// sets)) calls.
#[allow(clippy::cast_possible_truncation)] // set indices are below `sets`
fn for_each_set(run: &LineRun, sets: u64, mut f: impl FnMut(usize, u64)) {
    let len = run.end - run.first;
    let (laps, rest) = (len / sets, len % sets);
    if laps > 0 {
        for set in 0..sets as usize {
            f(set, laps);
        }
    }
    let start = run.first % sets;
    for k in 0..rest {
        f(((start + k) % sets) as usize, 1);
    }
}

/// `A(line)`: the access bound of the run holding `line`, or 0.
fn access_bound(runs: &[LineRun], line: u64) -> u64 {
    let i = runs.partition_point(|r| r.end <= line);
    match runs.get(i) {
        Some(r) if r.first <= line => r.a,
        _ => 0,
    }
}

/// Computes the sound conflict-miss interval for one layout.
///
/// `popular` supplies per-procedure reference counts (it stores counts
/// for every procedure, popular or not); `trg_select` supplies the
/// procedure-grain alternation weights the lower bound is built from
/// (pass `None` to get `lo = 0`). Procedures the layout does not cover
/// are ignored, so the bound degrades gracefully on partial layouts.
///
/// Time is O(P log P + runs · min(run length, sets)) and memory
/// O(P + sets) for P covered procedures — never O(line span).
pub fn miss_bounds(
    program: &Program,
    layout: &Layout,
    cache: CacheConfig,
    popular: &PopularSet,
    trg_select: Option<&WeightedGraph>,
) -> MissBounds {
    let runs = line_runs(program, layout, cache, popular);
    let touched_lines: u64 = runs.iter().map(|r| r.end - r.first).sum();
    let capacity_free = touched_lines <= u64::from(cache.lines());
    let assoc = u64::from(cache.associativity());
    let sets = u64::from(cache.sets());

    // Per-set totals of the resident lines' bounds, and how many memory
    // lines are resident in each set.
    let mut total = vec![0u64; cache.sets() as usize];
    let mut resident = vec![0u64; cache.sets() as usize];
    for run in &runs {
        for_each_set(run, sets, |set, lines| {
            total[set] += lines * run.a;
            resident[set] += lines;
        });
    }
    // Apply the per-line occupancy interval bound in contested sets.
    let mut hi = 0u64;
    for run in &runs {
        for_each_set(run, sets, |set, lines| {
            if resident[set] >= 2 {
                hi += lines * run.a.saturating_sub(1).min((total[set] - run.a) / assoc);
            }
        });
    }
    #[allow(clippy::cast_possible_truncation)] // at most `cache.sets()`
    let contested_sets = resident.iter().filter(|&&n| n >= 2).count() as u32;

    let forced = match trg_select {
        Some(trg) if cache.is_direct_mapped() => {
            forced_misses(program, layout, cache, popular, trg, &runs)
        }
        _ => 0,
    };
    // For honest inputs each side is independently sound, so lo ≤ hi
    // holds without clamping; a computed lo above hi means the input
    // counts were inconsistent with the graphs, and the soundness
    // harness will flag the interval rather than have it papered over.
    let lo = if capacity_free { forced } else { 0 };
    MissBounds {
        lo,
        hi,
        forced,
        capacity_free,
        touched_lines,
        contested_sets,
    }
}

/// Alternation-forced misses: greedy maximum-weight matching over
/// qualified `TRG_select` edges with per-endpoint spoilage subtracted.
/// Only meaningful on direct-mapped caches (the caller gates on that).
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // event counts are small integers
fn forced_misses(
    program: &Program,
    layout: &Layout,
    cache: CacheConfig,
    popular: &PopularSet,
    trg: &WeightedGraph,
    runs: &[LineRun],
) -> u64 {
    // Witness line of a covered procedure: the memory line of its first
    // byte, which every record of the procedure touches.
    let witness = |id: ProcId| -> Option<u64> {
        if id.as_usize() >= layout.len() || program.size_of(id) == 0 {
            return None;
        }
        Some(cache.line_of_addr(layout.addr(id)))
    };
    // Spoilage: references by other procedures whose extent covers the
    // witness line, each able to rescue at most one alternation event.
    let spoil =
        |id: ProcId, w: u64| -> u64 { access_bound(runs, w).saturating_sub(popular.count_of(id)) };

    let nprocs = program.len() as u32;
    let mut candidates: Vec<(u64, u32, u32)> = Vec::new();
    for e in trg.edges() {
        if e.a >= nprocs || e.b >= nprocs || e.w < 1.0 {
            continue;
        }
        let (pa, pb) = (ProcId::new(e.a), ProcId::new(e.b));
        let (Some(wa), Some(wb)) = (witness(pa), witness(pb)) else {
            continue;
        };
        // Distinct memory lines on the same cache set: a reference to one
        // witness evicts the other.
        if wa == wb || cache.set_of_line(wa) != cache.set_of_line(wb) {
            continue;
        }
        let events = e.w.floor() as u64;
        let value = events.saturating_sub(spoil(pa, wa) + spoil(pb, wb));
        if value > 0 {
            candidates.push((value, e.a, e.b));
        }
    }
    // Heaviest edges first; ties by endpoint ids for determinism.
    candidates.sort_by_key(|&(value, a, b)| (std::cmp::Reverse(value), a, b));
    let mut used = vec![false; nprocs as usize];
    let mut forced = 0u64;
    for (value, a, b) in candidates {
        if used[a as usize] || used[b as usize] {
            continue;
        }
        used[a as usize] = true;
        used[b as usize] = true;
        forced += value;
    }
    forced
}

// ---------------------------------------------------------------------
// Screening
// ---------------------------------------------------------------------

/// Model-dominance margin for screening: a candidate is skipped when its
/// Figure-6 predicted conflict cost exceeds the best candidate's by this
/// factor. Figure 6 shows the metric tracks simulated misses linearly
/// (within a small constant factor), so a 16× excess is empirically far
/// outside any observed prediction error; the margin is validated by the
/// CI prefilter smoke, which asserts screening never changes a winner.
pub const MODEL_DOMINANCE_MARGIN: f64 = 16.0;

/// One candidate layout's screening verdict.
#[derive(Debug, Clone)]
pub struct ScreenedLayout {
    /// Index into the candidate slice passed to [`screen_layouts`].
    pub index: usize,
    /// Sound conflict-miss interval for the candidate.
    pub bounds: MissBounds,
    /// Figure-6 TRG conflict metric (the model used for ranking).
    pub predicted_cost: f64,
    /// Whether the simulator should skip this candidate.
    pub skip: bool,
    /// `true` when the skip is interval-provable (`lo` above the best
    /// candidate's `hi`), `false` when it rests on the model margin.
    pub provable: bool,
}

/// The screening verdict for a candidate slate, in input order.
#[derive(Debug, Clone)]
pub struct ScreenReport {
    /// Per-candidate verdicts, indexed like the input slice.
    pub layouts: Vec<ScreenedLayout>,
}

impl ScreenReport {
    /// Number of candidates marked skip.
    pub fn screened(&self) -> usize {
        self.layouts.iter().filter(|s| s.skip).count()
    }

    /// Number of candidates the simulator still has to run.
    pub fn survivors(&self) -> usize {
        self.layouts.len() - self.screened()
    }

    /// Fraction of candidates screened out, in `[0, 1]`.
    #[allow(clippy::cast_precision_loss)] // candidate slates are tiny
    pub fn skip_fraction(&self) -> f64 {
        if self.layouts.is_empty() {
            return 0.0;
        }
        self.screened() as f64 / self.layouts.len() as f64
    }

    /// Candidate indices ranked by interval upper bound, then predicted
    /// cost, then input order — the order a budgeted sweep should
    /// simulate survivors in.
    pub fn ranked(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.layouts.len()).collect();
        order.sort_by(|&i, &j| {
            let (a, b) = (&self.layouts[i], &self.layouts[j]);
            a.bounds
                .hi
                .cmp(&b.bounds.hi)
                .then(a.predicted_cost.total_cmp(&b.predicted_cost))
                .then(i.cmp(&j))
        });
        order
    }
}

/// Ranks candidate layouts by their static miss bounds and marks which
/// ones the simulator can skip.
///
/// Two tiers of screening, weakest sufficient reason recorded per
/// candidate:
///
/// 1. **Interval-provable**: the candidate's lower bound exceeds some
///    other candidate's upper bound, so it cannot win regardless of what
///    the simulator would say.
/// 2. **Model dominance**: the candidate's Figure-6 conflict metric
///    exceeds the slate's minimum by [`MODEL_DOMINANCE_MARGIN`]. This is
///    not interval-proof — it rests on the empirically-validated
///    linearity of the metric (DESIGN.md §12) — and is only applied when
///    the slate's best prediction is non-zero.
///
/// The candidate with the smallest upper bound and the candidate with the
/// smallest predicted cost are never skipped, so at least one survivor
/// always remains. Increments the `analyze.screened` counter per skipped
/// candidate and `analyze.bound_width` by each interval's width.
pub fn screen_layouts(
    program: &Program,
    cache: CacheConfig,
    popular: &PopularSet,
    trg_select: Option<&WeightedGraph>,
    trg_place: Option<&WeightedGraph>,
    layouts: &[&Layout],
) -> ScreenReport {
    let width_counter = tempo_obs::counter("analyze.bound_width");
    let screened_counter = tempo_obs::counter("analyze.screened");

    let mut verdicts: Vec<ScreenedLayout> = layouts
        .iter()
        .enumerate()
        .map(|(index, layout)| {
            let bounds = miss_bounds(program, layout, cache, popular, trg_select);
            width_counter.add(bounds.width());
            let predicted_cost =
                predictor::predict(program, layout, cache, trg_place, 0).predicted_cost;
            ScreenedLayout {
                index,
                bounds,
                predicted_cost,
                skip: false,
                provable: false,
            }
        })
        .collect();

    let min_hi = verdicts.iter().map(|s| s.bounds.hi).min().unwrap_or(0);
    let min_pred = verdicts
        .iter()
        .map(|s| s.predicted_cost)
        .fold(f64::INFINITY, f64::min);
    for s in &mut verdicts {
        if s.bounds.lo > min_hi {
            s.skip = true;
            s.provable = true;
        } else if min_pred > 0.0
            && min_pred.is_finite()
            && s.predicted_cost > MODEL_DOMINANCE_MARGIN * min_pred
            && s.bounds.hi > min_hi
        {
            // The `hi > min_hi` guard keeps the interval estimator's top
            // pick alive even when the Figure-6 model disagrees with it:
            // when the two estimators contradict each other, simulate.
            s.skip = true;
        }
        if s.skip {
            screened_counter.incr();
        }
    }
    ScreenReport { layouts: verdicts }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use tempo_cache::classify;
    use tempo_trace::{Trace, TraceRecord};
    use tempo_trg::{PopularitySelector, Profiler};

    /// Two hot procedures plus one cold one, each smaller than a line.
    fn program() -> Program {
        Program::builder()
            .procedure("a", 64)
            .procedure("b", 64)
            .procedure("c", 64)
            .build()
            .unwrap()
    }

    /// Alternating a/b trace: every b reference evicts a's line and vice
    /// versa when the two share a cache set.
    fn ping_pong(program: &Program, n: usize) -> Trace {
        let mut refs = Vec::new();
        for _ in 0..n {
            refs.extend([ProcId::new(0), ProcId::new(1)]);
        }
        Trace::from_full_records(program, refs)
    }

    fn small_cache() -> CacheConfig {
        // 1 KB direct-mapped, 32-byte lines: 32 lines.
        CacheConfig::new(1024, 32, 1).unwrap()
    }

    fn profile(program: &Program, trace: &Trace, cache: CacheConfig) -> tempo_trg::ProfileData {
        Profiler::new(program, cache)
            .popularity(PopularitySelector::all())
            .profile(trace)
    }

    #[test]
    fn conflicting_layout_bounds_contain_simulated_conflicts() {
        let program = program();
        let cache = small_cache();
        let trace = ping_pong(&program, 50);
        let profile = profile(&program, &trace, cache);
        // a and b on the same cache set, distinct memory lines.
        let layout = Layout::from_addresses(vec![0, 1024, 2048]);
        let b = miss_bounds(
            &program,
            &layout,
            cache,
            &profile.popular,
            Some(&profile.trg_select),
        );
        let sim = classify(&program, &layout, &trace, cache);
        assert!(
            b.contains(sim.conflict),
            "conflict {} outside {}",
            sim.conflict,
            b
        );
        assert!(b.lo > 0, "alternation must force misses: {b}");
        assert!(b.capacity_free);
    }

    #[test]
    fn separated_layout_has_zero_interval() {
        let program = program();
        let cache = small_cache();
        let trace = ping_pong(&program, 50);
        let profile = profile(&program, &trace, cache);
        // Everyone on a distinct set: no set is contested.
        let layout = Layout::from_addresses(vec![0, 64, 128]);
        let b = miss_bounds(
            &program,
            &layout,
            cache,
            &profile.popular,
            Some(&profile.trg_select),
        );
        assert_eq!((b.lo, b.hi), (0, 0), "{b}");
        assert_eq!(b.contested_sets, 0);
        let sim = classify(&program, &layout, &trace, cache);
        assert_eq!(sim.conflict, 0);
    }

    #[test]
    fn spoilage_discounts_the_lower_bound() {
        let program = Program::builder()
            .procedure("a", 64)
            .procedure("b", 64)
            .procedure("spoiler", 64)
            .build()
            .unwrap();
        let cache = small_cache();
        let mut refs = Vec::new();
        for _ in 0..50 {
            // The spoiler re-fetches a's line inside every a..a window.
            refs.extend([ProcId::new(0), ProcId::new(1), ProcId::new(2)]);
        }
        let trace = Trace::from_full_records(&program, refs);
        let profile = profile(&program, &trace, cache);
        // The spoiler shares a's memory line (same 32-byte window is
        // impossible for 64-byte procs, so co-locate its extent): place
        // spoiler overlapping a's first line via an adjacent address in
        // the same line is not expressible with 64-byte procedures, so
        // instead verify the conservative fallback: a spoiler on the same
        // *set* but a different line still leaves the bound sound.
        let layout = Layout::from_addresses(vec![0, 1024, 2048]);
        let b = miss_bounds(
            &program,
            &layout,
            cache,
            &profile.popular,
            Some(&profile.trg_select),
        );
        let sim = classify(&program, &layout, &trace, cache);
        assert!(
            b.contains(sim.conflict),
            "conflict {} outside {}",
            sim.conflict,
            b
        );
    }

    #[test]
    fn capacity_pressure_zeroes_the_lower_bound() {
        // Footprint far beyond the cache: the FA twin evicts, so forced
        // misses may be capacity misses and lo must collapse to 0.
        let mut builder = Program::builder();
        for i in 0..128 {
            builder.procedure(format!("p{i}"), 64);
        }
        let program = builder.build().unwrap();
        let cache = small_cache(); // 32 lines << 128 procedures * 2 lines
        let refs: Vec<ProcId> = (0..2000).map(|i| ProcId::new(i % 128)).collect();
        let trace = Trace::from_full_records(&program, refs);
        let profile = profile(&program, &trace, cache);
        let layout = Layout::source_order(&program);
        let b = miss_bounds(
            &program,
            &layout,
            cache,
            &profile.popular,
            Some(&profile.trg_select),
        );
        assert!(!b.capacity_free);
        assert_eq!(b.lo, 0);
        let sim = classify(&program, &layout, &trace, cache);
        assert!(b.contains(sim.conflict), "{} vs {b}", sim.conflict);
    }

    #[test]
    fn partial_layouts_degrade_gracefully() {
        let program = program();
        let cache = small_cache();
        let trace = ping_pong(&program, 10);
        let profile = profile(&program, &trace, cache);
        let layout = Layout::from_addresses(vec![0, 1024]); // c uncovered
        let b = miss_bounds(
            &program,
            &layout,
            cache,
            &profile.popular,
            Some(&profile.trg_select),
        );
        assert!(b.hi > 0, "covered pair still bounds conflicts: {b}");
    }

    #[test]
    fn set_associative_upper_bound_still_holds() {
        let program = program();
        let cache = CacheConfig::new(1024, 32, 2).unwrap();
        let trace = ping_pong(&program, 50);
        let profile = profile(&program, &trace, cache);
        let layout = Layout::from_addresses(vec![0, 512, 4096]);
        let b = miss_bounds(
            &program,
            &layout,
            cache,
            &profile.popular,
            Some(&profile.trg_select),
        );
        assert_eq!(b.lo, 0, "lower bound is direct-mapped only");
        let sim = classify(&program, &layout, &trace, cache);
        assert!(b.contains(sim.conflict), "{} vs {b}", sim.conflict);
    }

    #[test]
    fn screening_skips_a_hopeless_candidate_and_keeps_the_best() {
        let program = program();
        let cache = small_cache();
        let trace = ping_pong(&program, 200);
        let profile = profile(&program, &trace, cache);
        let good = Layout::from_addresses(vec![0, 64, 128]);
        let bad = Layout::from_addresses(vec![0, 1024, 2048]);
        let report = screen_layouts(
            &program,
            cache,
            &profile.popular,
            Some(&profile.trg_select),
            Some(&profile.trg_place),
            &[&bad, &good],
        );
        assert_eq!(report.layouts.len(), 2);
        assert!(report.layouts[0].skip, "hopeless candidate screened");
        assert!(
            report.layouts[0].provable,
            "lo(bad) > hi(good) = 0 is interval-provable"
        );
        assert!(!report.layouts[1].skip, "best candidate survives");
        assert_eq!(report.screened(), 1);
        assert_eq!(report.survivors(), 1);
        assert_eq!(report.ranked()[0], 1);
    }

    #[test]
    fn screening_never_skips_everything() {
        let program = program();
        let cache = small_cache();
        let trace = ping_pong(&program, 50);
        let profile = profile(&program, &trace, cache);
        let layout = Layout::from_addresses(vec![0, 1024, 2048]);
        let report = screen_layouts(
            &program,
            cache,
            &profile.popular,
            Some(&profile.trg_select),
            Some(&profile.trg_place),
            &[&layout, &layout, &layout],
        );
        assert!(report.survivors() >= 1);
    }

    #[test]
    fn an_extent_past_the_address_space_covers_no_line() {
        let program = program();
        let cache = small_cache();
        let trace = ping_pong(&program, 20);
        let profile = profile(&program, &trace, cache);
        let bounds = |addrs: Vec<u64>| {
            miss_bounds(
                &program,
                &Layout::from_addresses(addrs),
                cache,
                &profile.popular,
                Some(&profile.trg_select),
            )
        };
        // `b` wraps past u64::MAX: it counts like an uncovered procedure.
        assert_eq!(bounds(vec![0, u64::MAX - 8, 2048]), bounds(vec![0]));
    }

    #[test]
    fn zero_extent_records_do_not_break_soundness() {
        let program = program();
        let cache = small_cache();
        let mut trace = ping_pong(&program, 20);
        trace.push(TraceRecord::new(ProcId::new(2), 0));
        let profile = profile(&program, &trace, cache);
        let layout = Layout::from_addresses(vec![0, 1024, 2048]);
        let b = miss_bounds(
            &program,
            &layout,
            cache,
            &profile.popular,
            Some(&profile.trg_select),
        );
        let sim = classify(&program, &layout, &trace, cache);
        assert!(b.contains(sim.conflict), "{} vs {b}", sim.conflict);
    }
}
