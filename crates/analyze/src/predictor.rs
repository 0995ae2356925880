//! The static conflict predictor: per-set pressure and the top conflicting
//! procedure pairs, estimated without running the cache simulator.
//!
//! This generalizes the placement-wide metric of
//! [`tempo_place::metric::trg_conflict_cost`]: the same chunk→line
//! occupancy underlies both, but the predictor keeps the intermediate
//! structure (which sets are over-subscribed, which procedure pairs are
//! responsible) instead of collapsing everything to one number.

use std::collections::HashMap;

use tempo_cache::{classify, simulate, CacheConfig};
use tempo_obs::json::{Num, Str};
use tempo_place::metric::chunk_occupancy_covered;
use tempo_program::{Layout, ProcId, Program};
use tempo_trace::Trace;
use tempo_trg::{ProfileData, WeightedGraph};

use crate::bounds::{miss_bounds, MissBounds};
use crate::diagnostics::proc_names;

/// Occupancy pressure of one cache set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetPressure {
    /// The set index.
    pub set: u32,
    /// Number of chunk-line residencies mapping to the set.
    pub resident: u32,
    /// Residencies beyond the set's capacity
    /// (`resident - associativity`, floored at zero). A non-zero excess
    /// means the set cannot hold its static working set at once.
    pub excess: u32,
}

/// A procedure pair predicted to conflict.
#[derive(Debug, Clone, PartialEq)]
pub struct ConflictPair {
    /// First procedure (smaller id).
    pub a: ProcId,
    /// Second procedure.
    pub b: ProcId,
    /// Number of cache lines on which chunks of the two co-reside.
    pub shared_lines: u32,
    /// Summed `TRG_place` weight of the co-resident chunk pairs (zero when
    /// no graph was supplied).
    pub weight: f64,
    /// Estimated upper bound on the conflict misses this pair can cause:
    /// each unit of TRG weight is one temporal alternation, and one
    /// alternation on a shared line costs at most two misses (each block
    /// evicts and re-fetches the other once).
    pub miss_bound: f64,
}

/// The full predictor output.
#[derive(Debug, Clone, PartialEq)]
pub struct ConflictPrediction {
    /// Total predicted conflict cost. With a `TRG_place` graph this equals
    /// [`tempo_place::metric::trg_conflict_cost`] on direct-mapped caches;
    /// without one it falls back to counting co-resident chunk pairs.
    pub predicted_cost: f64,
    /// Number of sets in the analyzed cache.
    pub sets: u32,
    /// Number of sets whose static occupancy exceeds their capacity.
    pub pressured_sets: u32,
    /// The most over-subscribed sets, highest excess first (top-K).
    pub hot_sets: Vec<SetPressure>,
    /// The heaviest conflicting procedure pairs, heaviest first (top-K).
    pub top_pairs: Vec<ConflictPair>,
}

impl ConflictPrediction {
    pub(crate) fn render_text(&self, program: &Program) -> String {
        let mut out = format!(
            "conflict prediction: cost {:.1}, {}/{} sets over capacity\n",
            self.predicted_cost, self.pressured_sets, self.sets
        );
        for p in &self.top_pairs {
            let names = proc_names(program, &[p.a, p.b]);
            out.push_str(&format!(
                "  {} <-> {}: {} shared line(s), weight {:.1}, <= {:.0} misses\n",
                names[0], names[1], p.shared_lines, p.weight, p.miss_bound
            ));
        }
        out
    }

    pub(crate) fn render_json(&self, program: &Program) -> String {
        let pairs = self
            .top_pairs
            .iter()
            .map(|p| {
                let names = proc_names(program, &[p.a, p.b]);
                format!(
                    "{{\"a\":{},\"b\":{},\"shared_lines\":{},\"weight\":{},\"miss_bound\":{}}}",
                    Str(&names[0]),
                    Str(&names[1]),
                    p.shared_lines,
                    Num(p.weight),
                    Num(p.miss_bound)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let sets = self
            .hot_sets
            .iter()
            .map(|s| {
                format!(
                    "{{\"set\":{},\"resident\":{},\"excess\":{}}}",
                    s.set, s.resident, s.excess
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "\"prediction\":{{\"cost\":{},\"sets\":{},\"pressured_sets\":{},\"hot_sets\":[{}],\"pairs\":[{}]}}",
            Num(self.predicted_cost),
            self.sets,
            self.pressured_sets,
            sets,
            pairs
        )
    }
}

/// Runs the static predictor over a layout.
///
/// `trg_place` is the chunk-grain temporal graph from profiling; without
/// it, pair weights and the cost degrade to pure occupancy counting.
/// `top_k` bounds the reported hot sets and pairs (the totals are always
/// exact). Layouts covering only a prefix of the procedure ids are
/// analyzed over the covered subset (uncovered procedures contribute no
/// occupancy).
#[allow(clippy::cast_possible_truncation)] // bounded by construction (see expression)
pub fn predict(
    program: &Program,
    layout: &Layout,
    cache: CacheConfig,
    trg_place: Option<&WeightedGraph>,
    top_k: usize,
) -> ConflictPrediction {
    let occupancy = chunk_occupancy_covered(program, layout, cache);
    let sets = cache.sets();
    let assoc = cache.associativity();

    // Set pressure: fold cache lines onto sets (line l belongs to set
    // l mod sets, since sets divides the line count).
    let mut resident = vec![0u32; sets as usize];
    for (l, line) in occupancy.iter().enumerate() {
        resident[l % sets as usize] += line.len() as u32;
    }
    let mut pressure: Vec<SetPressure> = resident
        .iter()
        .enumerate()
        .map(|(s, &r)| SetPressure {
            set: s as u32,
            resident: r,
            excess: r.saturating_sub(assoc),
        })
        .filter(|p| p.excess > 0)
        .collect();
    let pressured_sets = pressure.len() as u32;
    pressure.sort_by_key(|p| (std::cmp::Reverse(p.excess), p.set));
    pressure.truncate(top_k);

    // Pairwise accumulation per line, aggregated to procedure pairs.
    let mut predicted_cost = 0.0;
    let mut pairs: HashMap<(u32, u32), (u32, f64)> = HashMap::new();
    for line in &occupancy {
        for i in 0..line.len() {
            for j in (i + 1)..line.len() {
                let (ci, cj) = (line[i], line[j]);
                let w = match trg_place {
                    Some(g) => g.weight(ci.chunk.index(), cj.chunk.index()),
                    None => 1.0,
                };
                predicted_cost += w;
                if ci.owner == cj.owner {
                    continue; // intra-procedure wrap, not a placement pair
                }
                let key = if ci.owner.index() <= cj.owner.index() {
                    (ci.owner.index(), cj.owner.index())
                } else {
                    (cj.owner.index(), ci.owner.index())
                };
                let e = pairs.entry(key).or_insert((0, 0.0));
                e.0 += 1;
                e.1 += w;
            }
        }
    }
    let mut top_pairs: Vec<ConflictPair> = pairs
        .into_iter()
        .map(|((a, b), (shared_lines, weight))| ConflictPair {
            a: ProcId::new(a),
            b: ProcId::new(b),
            shared_lines,
            weight,
            miss_bound: 2.0 * weight,
        })
        .filter(|p| p.weight > 0.0)
        .collect();
    top_pairs.sort_by(|x, y| {
        y.weight
            .total_cmp(&x.weight)
            .then(y.shared_lines.cmp(&x.shared_lines))
            .then(x.a.index().cmp(&y.a.index()))
            .then(x.b.index().cmp(&y.b.index()))
    });
    top_pairs.truncate(top_k);

    ConflictPrediction {
        predicted_cost,
        sets,
        pressured_sets,
        hot_sets: pressure,
        top_pairs,
    }
}

/// The result of checking the predictor against the cache simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossValidation {
    /// Layout indices ordered best-first by predicted conflict cost.
    pub predicted_rank: Vec<usize>,
    /// Layout indices ordered best-first by simulated misses.
    pub simulated_rank: Vec<usize>,
}

impl CrossValidation {
    /// Returns `true` when the predictor orders the layouts exactly as the
    /// simulator does.
    pub fn agrees(&self) -> bool {
        self.predicted_rank == self.simulated_rank
    }
}

/// Ranks `layouts` by predicted cost and by simulated misses on `trace`,
/// for checking that the static predictor orders layouts the way a full
/// simulation would (the analyzer's self-test mode).
pub fn cross_validate(
    program: &Program,
    cache: CacheConfig,
    trg_place: &WeightedGraph,
    layouts: &[&Layout],
    trace: &Trace,
) -> CrossValidation {
    let costs: Vec<f64> = layouts
        .iter()
        .map(|l| predict(program, l, cache, Some(trg_place), 0).predicted_cost)
        .collect();
    let misses: Vec<u64> = layouts
        .iter()
        .map(|l| simulate(program, l, trace, cache).misses)
        .collect();
    let mut predicted_rank: Vec<usize> = (0..layouts.len()).collect();
    predicted_rank.sort_by(|&i, &j| costs[i].total_cmp(&costs[j]).then(i.cmp(&j)));
    let mut simulated_rank: Vec<usize> = (0..layouts.len()).collect();
    simulated_rank.sort_by(|&i, &j| misses[i].cmp(&misses[j]).then(i.cmp(&j)));
    CrossValidation {
        predicted_rank,
        simulated_rank,
    }
}

/// One layout's row in a bounds-vs-simulator soundness check.
#[derive(Debug, Clone)]
pub struct BoundsCheckRow {
    /// Index into the layout slice.
    pub index: usize,
    /// The static interval computed without the trace.
    pub bounds: MissBounds,
    /// Simulated conflict misses (3C classification).
    pub conflict: u64,
    /// Total simulated misses (cold + capacity + conflict).
    pub misses: u64,
    /// Figure-6 predicted conflict cost.
    pub predicted_cost: f64,
}

impl BoundsCheckRow {
    /// Whether the simulated conflict count falls inside the interval.
    pub fn sound(&self) -> bool {
        self.bounds.contains(self.conflict)
    }
}

/// The soundness harness output: per-layout interval checks plus the
/// predicted-vs-simulated ranking of [`cross_validate`].
#[derive(Debug, Clone)]
pub struct BoundsValidation {
    /// One row per input layout, in input order.
    pub rows: Vec<BoundsCheckRow>,
    /// Human-readable description of every interval violation (empty when
    /// the bounds are sound on this input).
    pub violations: Vec<String>,
    /// The layout ranking comparison.
    pub ranking: CrossValidation,
}

impl BoundsValidation {
    /// `true` when every simulated conflict count fell inside its interval.
    pub fn is_sound(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Extends [`cross_validate`] into a soundness harness: replays the
/// simulator against the static [`MissBounds`] of every layout and
/// records each interval violation.
///
/// With `strict` set the harness **fails loudly** — it panics on the
/// first unsound input so CI cannot quietly ship a bound drift. Without
/// it, violations are returned for the caller to report.
///
/// # Panics
///
/// Panics when `strict` is set and any simulated conflict-miss count
/// falls outside its layout's interval.
pub fn cross_validate_bounds(
    program: &Program,
    profile: &ProfileData,
    layouts: &[&Layout],
    trace: &Trace,
    strict: bool,
) -> BoundsValidation {
    let cache = profile.cache;
    let mut rows = Vec::with_capacity(layouts.len());
    let mut violations = Vec::new();
    for (index, layout) in layouts.iter().enumerate() {
        let bounds = miss_bounds(
            program,
            layout,
            cache,
            &profile.popular,
            Some(&profile.trg_select),
        );
        let breakdown = classify(program, layout, trace, cache);
        let misses = breakdown.cold + breakdown.capacity + breakdown.conflict;
        let predicted_cost =
            predict(program, layout, cache, Some(&profile.trg_place), 0).predicted_cost;
        let row = BoundsCheckRow {
            index,
            bounds,
            conflict: breakdown.conflict,
            misses,
            predicted_cost,
        };
        if !row.sound() {
            violations.push(format!(
                "layout {index}: simulated {} conflict misses outside bound {}",
                row.conflict, row.bounds
            ));
        }
        rows.push(row);
    }
    assert!(
        !strict || violations.is_empty(),
        "miss-bound soundness violated:\n{}",
        violations.join("\n")
    );
    let mut predicted_rank: Vec<usize> = (0..rows.len()).collect();
    predicted_rank.sort_by(|&i, &j| {
        rows[i]
            .predicted_cost
            .total_cmp(&rows[j].predicted_cost)
            .then(i.cmp(&j))
    });
    let mut simulated_rank: Vec<usize> = (0..rows.len()).collect();
    simulated_rank.sort_by(|&i, &j| rows[i].misses.cmp(&rows[j].misses).then(i.cmp(&j)));
    BoundsValidation {
        rows,
        violations,
        ranking: CrossValidation {
            predicted_rank,
            simulated_rank,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_trg::{PopularitySelector, Profiler};

    /// Two hot 4 KB procedures that collide mod 8 KB under source order.
    fn setup() -> (Program, Trace) {
        let program = Program::builder()
            .procedure("a", 4096)
            .procedure("pad", 4096)
            .procedure("b", 4096)
            .build()
            .unwrap();
        let ids: Vec<ProcId> = program.ids().collect();
        let mut refs = Vec::new();
        for _ in 0..50 {
            refs.extend([ids[0], ids[2]]);
        }
        let trace = Trace::from_full_records(&program, refs);
        (program, trace)
    }

    #[test]
    fn hot_overlap_is_the_top_pair() {
        let (program, trace) = setup();
        let cache = CacheConfig::direct_mapped_8k();
        let profile = Profiler::new(&program, cache)
            .popularity(PopularitySelector::all())
            .profile(&trace);
        let layout = Layout::source_order(&program);
        let p = predict(&program, &layout, cache, Some(&profile.trg_place), 5);
        assert!(p.predicted_cost > 0.0);
        assert!(!p.top_pairs.is_empty());
        let top = &p.top_pairs[0];
        assert_eq!(
            (top.a, top.b),
            (ProcId::new(0), ProcId::new(2)),
            "a and b wrap onto the same lines"
        );
        assert!(top.shared_lines > 0);
        assert_eq!(top.miss_bound, 2.0 * top.weight);
    }

    #[test]
    fn predicted_cost_matches_metric_on_direct_mapped() {
        let (program, trace) = setup();
        let cache = CacheConfig::direct_mapped_8k();
        let profile = Profiler::new(&program, cache)
            .popularity(PopularitySelector::all())
            .profile(&trace);
        for layout in [
            Layout::source_order(&program),
            Layout::from_order(&program, &[ProcId::new(0), ProcId::new(2), ProcId::new(1)])
                .unwrap(),
        ] {
            let p = predict(&program, &layout, cache, Some(&profile.trg_place), 3);
            let metric = tempo_place::metric::trg_conflict_cost(
                &program,
                &layout,
                &profile.trg_place,
                cache,
            );
            assert_eq!(p.predicted_cost, metric);
        }
    }

    #[test]
    fn pressure_counts_oversubscribed_sets() {
        // 12 KB of code on an 8 KB direct-mapped cache: the last 4 KB wrap
        // onto the first 128 sets, putting exactly those over capacity.
        let (program, _) = setup();
        let cache = CacheConfig::direct_mapped_8k();
        let layout = Layout::source_order(&program);
        let p = predict(&program, &layout, cache, None, 4);
        assert_eq!(p.sets, 256);
        assert_eq!(p.pressured_sets, 128);
        assert_eq!(p.hot_sets.len(), 4, "top-k bound respected");
        assert_eq!(p.hot_sets[0].resident, 2);
        assert_eq!(p.hot_sets[0].excess, 1);
    }

    #[test]
    fn no_pressure_when_program_fits() {
        let program = Program::builder().procedure("tiny", 1024).build().unwrap();
        let cache = CacheConfig::direct_mapped_8k();
        let p = predict(&program, &Layout::source_order(&program), cache, None, 4);
        assert_eq!(p.pressured_sets, 0);
        assert!(p.hot_sets.is_empty());
        assert!(p.top_pairs.is_empty());
    }

    #[test]
    fn cross_validation_orders_good_before_bad() {
        let (program, trace) = setup();
        let cache = CacheConfig::direct_mapped_8k();
        let profile = Profiler::new(&program, cache)
            .popularity(PopularitySelector::all())
            .profile(&trace);
        let bad = Layout::source_order(&program);
        let good = Layout::from_order(&program, &[ProcId::new(0), ProcId::new(2), ProcId::new(1)])
            .unwrap();
        let cv = cross_validate(&program, cache, &profile.trg_place, &[&bad, &good], &trace);
        assert_eq!(cv.predicted_rank, vec![1, 0]);
        assert!(cv.agrees());
    }

    #[test]
    fn soundness_harness_accepts_real_bounds() {
        let (program, trace) = setup();
        let cache = CacheConfig::direct_mapped_8k();
        let profile = Profiler::new(&program, cache)
            .popularity(PopularitySelector::all())
            .profile(&trace);
        let bad = Layout::source_order(&program);
        let good = Layout::from_order(&program, &[ProcId::new(0), ProcId::new(2), ProcId::new(1)])
            .unwrap();
        let v = cross_validate_bounds(&program, &profile, &[&bad, &good], &trace, true);
        assert!(v.is_sound());
        assert_eq!(v.rows.len(), 2);
        assert!(v.rows.iter().all(BoundsCheckRow::sound));
        assert!(v.ranking.agrees());
        assert!(
            v.rows[0].bounds.hi >= v.rows[0].conflict,
            "interval covers the simulator"
        );
    }

    #[test]
    #[should_panic(expected = "miss-bound soundness violated")]
    fn soundness_harness_fails_loudly_on_a_violated_interval() {
        let (program, trace) = setup();
        let cache = CacheConfig::direct_mapped_8k();
        let mut profile = Profiler::new(&program, cache)
            .popularity(PopularitySelector::all())
            .profile(&trace);
        // Forge a profile that undercounts every reference: the upper
        // bound collapses below the simulator's conflict count.
        let zeros = vec![0u64; program.len()];
        profile.popular =
            tempo_trg::PopularSet::from_parts(program.ids().map(|_| true).collect(), zeros);
        let bad = Layout::source_order(&program);
        cross_validate_bounds(&program, &profile, &[&bad], &trace, true);
    }
}
