//! Placement-wide conflict metrics (§3 and Figure 6 of the paper).
//!
//! A *conflict metric* estimates, for a complete layout, how many cache
//! conflict misses it will cause. The paper's Figure 6 shows that the
//! TRG-based metric correlates linearly with simulated misses while a
//! WCG-based metric does not; [`trg_conflict_cost`] and
//! [`wcg_conflict_cost`] reproduce both sides of that figure.

use tempo_cache::CacheConfig;
use tempo_program::{ChunkId, Chunks, Layout, ProcId, Program};
use tempo_trg::WeightedGraph;

/// One chunk resident on a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineOccupant {
    /// The resident chunk.
    pub chunk: ChunkId,
    /// The procedure owning the chunk.
    pub owner: ProcId,
}

/// Per-cache-line chunk occupancy of a layout: `occupancy[l]` lists every
/// chunk at least one byte of which maps to cache line `l`.
///
/// Each chunk appears **at most once per line**: a chunk spanning more
/// lines than the cache has wraps around and re-touches lines it already
/// occupies, which must not double-count it (a block cannot conflict with
/// itself). The iteration is capped at `cache.lines()` positions per
/// chunk, which visits every distinct line exactly once.
///
/// Layouts that cover only a prefix of the program's procedure ids are
/// tolerated: chunks owned by uncovered procedures are simply absent, so
/// downstream consumers (the conflict predictor) still see pressure data
/// for the covered subset instead of bailing out entirely.
#[allow(clippy::cast_possible_truncation)] // bounded by construction (see expression)
pub fn chunk_occupancy_covered(
    program: &Program,
    layout: &Layout,
    cache: CacheConfig,
) -> Vec<Vec<LineOccupant>> {
    let lines = cache.lines();
    let mut occupancy: Vec<Vec<LineOccupant>> = vec![Vec::new(); lines as usize];
    for info in Chunks::new(program) {
        if info.owner.as_usize() >= layout.len() {
            continue;
        }
        let addr = layout.addr(info.owner) + u64::from(info.offset);
        let nlines = cache.lines_touched(addr, info.len).min(u64::from(lines)) as u32;
        let first = cache.cache_line_of_addr(addr);
        for k in 0..nlines {
            occupancy[((first + k) % lines) as usize].push(LineOccupant {
                chunk: info.id,
                owner: info.owner,
            });
        }
    }
    occupancy
}

/// Sum over every cache line of the pairwise `TRG_place` weights of the
/// chunks co-resident on that line — the paper's conflict metric evaluated
/// on a whole placement.
///
/// A chunk pair overlapping on `m` lines contributes `m × W(a, b)`,
/// matching the per-line accumulation of `merge_nodes` (Figure 4).
pub fn trg_conflict_cost(
    program: &Program,
    layout: &Layout,
    trg_place: &WeightedGraph,
    cache: CacheConfig,
) -> f64 {
    let occupancy: Vec<Vec<u32>> = chunk_occupancy_covered(program, layout, cache)
        .iter()
        .map(|line| line.iter().map(|o| o.chunk.index()).collect())
        .collect();
    pairwise_cost(&occupancy, trg_place)
}

/// Sum over every cache line of the pairwise **WCG** weights of the
/// procedures co-resident on that line — the "call-graph only" metric the
/// bottom half of Figure 6 shows to be a poor predictor.
#[allow(clippy::cast_possible_truncation)] // bounded by construction (see expression)
pub fn wcg_conflict_cost(
    program: &Program,
    layout: &Layout,
    wcg: &WeightedGraph,
    cache: CacheConfig,
) -> f64 {
    let lines = cache.lines() as usize;
    let mut occupancy: Vec<Vec<u32>> = vec![Vec::new(); lines];
    for id in program.ids() {
        let addr = layout.addr(id);
        let nlines = cache
            .lines_touched(addr, program.size_of(id))
            .min(lines as u64);
        let first = cache.cache_line_of_addr(addr);
        for k in 0..nlines as u32 {
            occupancy[((first + k) % lines as u32) as usize].push(id.index());
        }
    }
    pairwise_cost(&occupancy, wcg)
}

/// Sums the pairwise weights of each line's co-residents with a *pinned*
/// accumulation order: occupants are sorted per line before the `i < j`
/// sweep, so the `f64` sum is bit-identical however the occupancy vectors
/// were assembled. Figure-6 CSVs must stay byte-identical across `--jobs`
/// values and machines (the PR 3 determinism contract, DESIGN.md §9), and
/// float addition does not commute in the last ULP.
fn pairwise_cost(occupancy: &[Vec<u32>], graph: &WeightedGraph) -> f64 {
    let mut cost = 0.0;
    let mut sorted: Vec<u32> = Vec::new();
    for line in occupancy {
        sorted.clear();
        sorted.extend_from_slice(line);
        sorted.sort_unstable();
        for i in 0..sorted.len() {
            for j in (i + 1)..sorted.len() {
                cost += graph.weight(sorted[i], sorted[j]);
            }
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_cache::simulate;
    use tempo_program::ProcId;
    use tempo_trace::Trace;
    use tempo_trg::{PopularitySelector, Profiler};

    fn setup() -> (Program, Trace, tempo_trg::ProfileData) {
        let program = Program::builder()
            .procedure("a", 4096)
            .procedure("b", 4096)
            .procedure("c", 4096)
            .build()
            .unwrap();
        let ids: Vec<ProcId> = program.ids().collect();
        let mut refs = Vec::new();
        for _ in 0..50 {
            refs.extend([ids[0], ids[2]]);
        }
        let trace = Trace::from_full_records(&program, refs);
        let profile = Profiler::new(&program, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .profile(&trace);
        (program, trace, profile)
    }

    #[test]
    fn overlapping_hot_pair_costs_more() {
        let (program, _, profile) = setup();
        let cache = CacheConfig::direct_mapped_8k();
        // Source order: a and c overlap (both in the same 4 KB half mod 8 KB).
        let bad = Layout::source_order(&program);
        // a, c adjacent: no overlap.
        let good = Layout::from_order(&program, &[ProcId::new(0), ProcId::new(2), ProcId::new(1)])
            .unwrap();
        let cost_bad = trg_conflict_cost(&program, &bad, &profile.trg_place, cache);
        let cost_good = trg_conflict_cost(&program, &good, &profile.trg_place, cache);
        assert!(cost_bad > 0.0);
        assert_eq!(cost_good, 0.0);
    }

    #[test]
    fn metric_tracks_misses_monotonically_here() {
        let (program, trace, profile) = setup();
        let cache = CacheConfig::direct_mapped_8k();
        let bad = Layout::source_order(&program);
        let good = Layout::from_order(&program, &[ProcId::new(0), ProcId::new(2), ProcId::new(1)])
            .unwrap();
        let (cb, cg) = (
            trg_conflict_cost(&program, &bad, &profile.trg_place, cache),
            trg_conflict_cost(&program, &good, &profile.trg_place, cache),
        );
        let (mb, mg) = (
            simulate(&program, &bad, &trace, cache).misses,
            simulate(&program, &good, &trace, cache).misses,
        );
        assert!(cb > cg);
        assert!(mb > mg);
    }

    #[test]
    fn wcg_cost_counts_caller_callee_overlap_only() {
        let (program, _, profile) = setup();
        let cache = CacheConfig::direct_mapped_8k();
        let bad = Layout::source_order(&program);
        let cost = wcg_conflict_cost(&program, &bad, &profile.wcg, cache);
        assert!(cost > 0.0, "a and c are WCG neighbors and overlap");
        // Overlap b with a instead: b has no WCG edge to anyone except via
        // trace adjacency (none here: b never runs), so cost 0.
        let overlap_b = Layout::from_addresses(vec![0, 8192, 4096]);
        overlap_b.validate(&program).unwrap();
        let cost_b = wcg_conflict_cost(&program, &overlap_b, &profile.wcg, cache);
        assert_eq!(cost_b, 0.0);
    }

    #[test]
    fn procedures_larger_than_cache_wrap() {
        let program = Program::builder()
            .procedure("huge", 20_000)
            .build()
            .unwrap();
        let layout = Layout::source_order(&program);
        let cache = CacheConfig::direct_mapped_8k();
        // A single procedure conflicts with itself across wraps, but the
        // TRG has no self-edges, so cost is 0 — and it must not panic.
        let g = WeightedGraph::new();
        assert_eq!(trg_conflict_cost(&program, &layout, &g, cache), 0.0);
        assert_eq!(wcg_conflict_cost(&program, &layout, &g, cache), 0.0);
    }

    #[test]
    fn chunk_larger_than_cache_occupies_each_line_once() {
        // One chunk per procedure, each chunk twice the cache size: the
        // chunk wraps the cache twice, but must occupy each line exactly
        // once, so a hot pair contributes weight × lines — not 2× that.
        let cache = CacheConfig::direct_mapped_8k();
        let program = Program::builder()
            .procedure("a", 16 * 1024)
            .procedure("b", 16 * 1024)
            .chunk_size(16 * 1024)
            .build()
            .unwrap();
        let layout = Layout::source_order(&program);
        let occ = chunk_occupancy_covered(&program, &layout, cache);
        assert_eq!(occ.len(), cache.lines() as usize);
        for line in &occ {
            assert_eq!(line.len(), 2, "both chunks resident exactly once");
            assert_ne!(line[0].chunk, line[1].chunk);
        }
        let mut g = WeightedGraph::new();
        g.add_weight(0, 1, 3.0);
        let cost = trg_conflict_cost(&program, &layout, &g, cache);
        assert_eq!(cost, 3.0 * f64::from(cache.lines()));
    }

    #[test]
    fn covered_occupancy_skips_uncovered_procedures() {
        let (program, _, _) = setup();
        let cache = CacheConfig::direct_mapped_8k();
        // Drop the last procedure's address: its chunks must vanish from
        // the occupancy instead of panicking.
        let truncated = Layout::from_addresses(vec![0, 4096]);
        let occ = chunk_occupancy_covered(&program, &truncated, cache);
        assert!(occ.iter().flatten().all(|o| o.owner != ProcId::new(2)));
        assert!(occ.iter().flatten().any(|o| o.owner == ProcId::new(0)));
    }

    #[test]
    fn pairwise_cost_is_order_independent_bitwise() {
        // Weights of wildly different magnitudes so that any change in
        // f64 accumulation order shows up in the last ULP.
        let mut g = WeightedGraph::new();
        g.add_weight(0, 1, 1e-9);
        g.add_weight(0, 2, 1e9);
        g.add_weight(1, 2, 0.3);
        g.add_weight(2, 3, 7.77e-5);
        g.add_weight(1, 3, 123456.789);
        let canonical = vec![vec![0, 1, 2, 3], vec![1, 2, 3]];
        let reference = pairwise_cost(&canonical, &g);
        // Every permutation of each line must produce bit-identical cost.
        let shuffles = [
            vec![vec![3, 2, 1, 0], vec![3, 1, 2]],
            vec![vec![2, 0, 3, 1], vec![2, 3, 1]],
            vec![vec![1, 3, 0, 2], vec![1, 2, 3]],
        ];
        for occ in &shuffles {
            assert_eq!(
                pairwise_cost(occ, &g).to_bits(),
                reference.to_bits(),
                "accumulation order leaked into the metric"
            );
        }
    }

    #[test]
    fn conflict_cost_is_bit_stable_across_threads() {
        // The Figure-6 guarantee: evaluating the metric from parallel
        // workers (any --jobs value) yields byte-identical values.
        let (program, _, profile) = setup();
        let cache = CacheConfig::direct_mapped_8k();
        let layout = Layout::source_order(&program);
        let reference = trg_conflict_cost(&program, &layout, &profile.trg_place, cache).to_bits();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        trg_conflict_cost(&program, &layout, &profile.trg_place, cache).to_bits()
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), reference);
            }
        });
    }

    #[test]
    fn empty_graph_zero_cost() {
        let (program, _, _) = setup();
        let cache = CacheConfig::direct_mapped_8k();
        let layout = Layout::source_order(&program);
        let g = WeightedGraph::new();
        assert_eq!(trg_conflict_cost(&program, &layout, &g, cache), 0.0);
    }
}
