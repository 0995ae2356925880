//! The Pettis–Hansen procedure-placement algorithm (§2 of the paper).
//!
//! PH greedily merges the two call-graph nodes joined by the heaviest edge.
//! Each node carries a *chain* (ordered list) of procedures; merging
//! combines the two chains in one of four ways (`AB`, `AB'`, `A'B`,
//! `A'B'`, where `'` is reversal), choosing the combination that minimizes
//! the byte distance between the endpoints of the heaviest original edge
//! crossing the chains. The final layout concatenates the surviving chains
//! and packs procedures with no gaps.

use std::cmp::Reverse;

use tempo_program::{Layout, ProcId, Program};
use tempo_trg::WeightedGraph;

use crate::budget::BudgetExhausted;
use crate::merge::{greedy_merge, merge_order, Combine, Nodes};
use crate::{PlacementAlgorithm, PlacementContext};

/// The Pettis–Hansen placement algorithm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PettisHansen;

impl PettisHansen {
    /// Creates the algorithm.
    pub fn new() -> Self {
        PettisHansen
    }
}

/// PH's combine step over a selection graph: the two chains join end to
/// end, oriented by the heaviest selection edge crossing them.
struct Chains<'a> {
    program: &'a Program,
    selection: &'a WeightedGraph,
    /// Selection-graph adjacency entries the combine steps visited.
    scanned: u64,
}

impl Combine for Chains<'_> {
    /// One work unit per chain endpoint considered.
    fn charge(&self, nodes: &Nodes, u: u32, v: u32) -> u64 {
        (nodes.members(u).len() + nodes.members(v).len()) as u64
    }

    fn combine(&mut self, nodes: &mut Nodes, u: u32, v: u32) {
        // Heaviest original edge `(p ∈ u, q ∈ v)` crossing the two chains;
        // ties go to the smallest `(p, q)`. The maximum is the same from
        // either side, so scan the node with fewer members: a procedure
        // is on the smaller side at most log2(n) times.
        let u_scans = nodes.members(u).len() <= nodes.members(v).len();
        let (scan, other) = if u_scans { (u, v) } else { (v, u) };
        let mut heavy: Option<(f64, Reverse<(u32, u32)>)> = None;
        for &x in nodes.members(scan) {
            for &(y, w) in self.selection.row(x.index()) {
                self.scanned += 1;
                if nodes.node_of(y) != other {
                    continue;
                }
                let (p, q) = if u_scans {
                    (x.index(), y)
                } else {
                    (y, x.index())
                };
                let key = (w, Reverse((p, q)));
                if heavy.is_none_or(|best| key > best) {
                    heavy = Some(key);
                }
            }
        }
        let (_, Reverse((hp, hq))) = heavy.expect("working edge implies an original cross edge");
        // Join as `AB`, `AB'`, `A'B` or `A'B'` (`'` is reversal), whichever
        // leaves the fewest bytes between the end of `p` and the start of
        // `q`; ties go to the earlier variant.
        let (ps, pe, sa) = span_in(self.program, nodes.members(u), ProcId::new(hp));
        let (qs, qe, sb) = span_in(self.program, nodes.members(v), ProcId::new(hq));
        let gaps = [sa - pe + qs, sa - pe + (sb - qe), ps + qs, ps + (sb - qe)];
        let (best, _) = gaps
            .iter()
            .enumerate()
            .min_by_key(|&(_, gap)| gap)
            .expect("four variants");
        if best >= 2 {
            nodes.members_mut(u).reverse();
        }
        if best % 2 == 1 {
            nodes.members_mut(v).reverse();
        }
    }
}

/// The byte span `(start, end)` of `id` within `chain` packed from 0, and
/// the chain's total size.
fn span_in(program: &Program, chain: &[ProcId], id: ProcId) -> (u64, u64, u64) {
    let mut at = 0u64;
    let mut span = None;
    for &m in chain {
        let end = at + u64::from(program.size_of(m));
        if m == id {
            span = Some((at, end));
        }
        at = end;
    }
    let (start, end) = span.expect("procedure is in its chain");
    (start, end, at)
}

/// Greedy chain merging over `selection` (the WCG for PH, `TRG_select`
/// for TRG+chains), packed with no gaps: surviving chains heaviest (by
/// dynamic count) first, ties by smallest label, so never-referenced
/// procedures land at the end in id order.
///
/// The adjacency entries the combine steps visit are added once to the
/// `place.chain_edges_scanned` counter, a host-independent measure of the
/// merge's cost.
///
/// # Errors
///
/// Returns [`BudgetExhausted`] when the context's budget trips mid-merge.
pub(crate) fn chain_layout(
    ctx: &PlacementContext<'_>,
    selection: &WeightedGraph,
) -> Result<Layout, BudgetExhausted> {
    let mut step = Chains {
        program: ctx.program,
        selection,
        scanned: 0,
    };
    let order = merge_order(selection);
    let merged = greedy_merge(ctx, &order, ctx.program.ids(), &mut step);
    tempo_obs::counter("place.chain_edges_scanned").add(step.scanned);
    Ok(packed(ctx, &merged?))
}

/// Concatenates the surviving chains, heaviest first.
fn packed(ctx: &PlacementContext<'_>, nodes: &Nodes) -> Layout {
    let mut chains: Vec<(u32, &[ProcId])> = nodes.live().collect();
    chains.sort_by_key(|&(label, chain)| {
        let count: u64 = chain
            .iter()
            .map(|id| ctx.profile.popular.count_of(*id))
            .sum();
        (Reverse(count), label)
    });
    let order: Vec<ProcId> = chains.iter().flat_map(|&(_, c)| c).copied().collect();
    Layout::from_order(ctx.program, &order).expect("chain concatenation is a permutation")
}

impl PlacementAlgorithm for PettisHansen {
    fn name(&self) -> &str {
        "PH"
    }

    fn try_place(&self, ctx: &PlacementContext<'_>) -> Result<Layout, BudgetExhausted> {
        chain_layout(ctx, &ctx.profile.wcg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tempo_cache::{simulate, CacheConfig};
    use tempo_trace::Trace;
    use tempo_trg::{PopularitySelector, Profiler};

    use crate::merge::reference_order;
    use crate::reference_graph::ReferenceGraph;

    fn profile(program: &Program, trace: &Trace) -> tempo_trg::ProfileData {
        Profiler::new(program, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .profile(trace)
    }

    /// The combine step as first written, kept as the reference the
    /// shipped one must match: it scans every member of `u` for the
    /// heaviest crossing edge and builds all four joined chains.
    struct ReferenceChains<'a> {
        program: &'a Program,
        selection: &'a ReferenceGraph,
    }

    impl Combine for ReferenceChains<'_> {
        fn charge(&self, nodes: &Nodes, u: u32, v: u32) -> u64 {
            (nodes.members(u).len() + nodes.members(v).len()) as u64
        }

        fn combine(&mut self, nodes: &mut Nodes, u: u32, v: u32) {
            let mut heavy: Option<(f64, Reverse<(u32, u32)>)> = None;
            for &p in nodes.members(u) {
                for q in self.selection.neighbors(p.index()) {
                    if nodes.node_of(q) != v {
                        continue;
                    }
                    let key = (self.selection.weight(p.index(), q), Reverse((p.index(), q)));
                    if heavy.is_none_or(|best| key > best) {
                        heavy = Some(key);
                    }
                }
            }
            let (_, Reverse((hp, hq))) = heavy.unwrap();
            let (hp, hq) = (ProcId::new(hp), ProcId::new(hq));
            let combined =
                best_combination(self.program, nodes.members(u), nodes.members(v), hp, hq);
            let (a, b) = combined.split_at(nodes.members(u).len());
            nodes.members_mut(u).copy_from_slice(a);
            nodes.members_mut(v).copy_from_slice(b);
        }
    }

    /// [`chain_layout`] with the reference combine step, over the
    /// reference graph.
    fn reference_layout(ctx: &PlacementContext<'_>, selection: &ReferenceGraph) -> Layout {
        let mut step = ReferenceChains {
            program: ctx.program,
            selection,
        };
        packed(
            ctx,
            &greedy_merge(
                ctx,
                &reference_order(selection),
                ctx.program.ids(),
                &mut step,
            )
            .unwrap(),
        )
    }

    /// Builds the shipped and the reference graph from one edge list.
    fn graphs(edges: &[(u32, u32, f64)]) -> (WeightedGraph, ReferenceGraph) {
        let mut r = ReferenceGraph::default();
        for &(a, b, w) in edges {
            r.add_weight(a, b, w);
        }
        (edges.iter().copied().collect(), r)
    }

    /// Combines chains `a` and `b` as `AB`, `AB'`, `A'B`, or `A'B'`,
    /// choosing the variant that minimizes the byte distance between
    /// procedures `p ∈ a` and `q ∈ b` (ties resolved in the order listed).
    fn best_combination(
        program: &Program,
        a: &[ProcId],
        b: &[ProcId],
        p: ProcId,
        q: ProcId,
    ) -> Vec<ProcId> {
        let forward_a: Vec<ProcId> = a.to_vec();
        let reverse_a: Vec<ProcId> = a.iter().rev().copied().collect();
        let forward_b: Vec<ProcId> = b.to_vec();
        let reverse_b: Vec<ProcId> = b.iter().rev().copied().collect();
        let candidates = [
            [&forward_a, &forward_b],
            [&forward_a, &reverse_b],
            [&reverse_a, &forward_b],
            [&reverse_a, &reverse_b],
        ];

        let mut best: Option<(u64, Vec<ProcId>)> = None;
        for [ca, cb] in candidates {
            let combined: Vec<ProcId> = ca.iter().chain(cb.iter()).copied().collect();
            let d = distance(program, &combined, p, q);
            if best.as_ref().is_none_or(|(bd, _)| d < *bd) {
                best = Some((d, combined));
            }
        }
        best.unwrap().1
    }

    /// Byte distance between the end of the earlier and the start of the
    /// later of two procedures in a packed chain.
    fn distance(program: &Program, chain: &[ProcId], p: ProcId, q: ProcId) -> u64 {
        let mut pos = 0u64;
        let mut pos_p = None;
        let mut pos_q = None;
        for &id in chain {
            if id == p {
                pos_p = Some((pos, pos + u64::from(program.size_of(id))));
            }
            if id == q {
                pos_q = Some((pos, pos + u64::from(program.size_of(id))));
            }
            pos += u64::from(program.size_of(id));
        }
        let (ps, pe) = pos_p.unwrap();
        let (qs, qe) = pos_q.unwrap();
        if pe <= qs {
            qs - pe
        } else {
            ps - qe
        }
    }

    /// A program of `sizes`, profiled over a two-record trace so the
    /// graphs can be replaced by hand.
    fn bare_profile(sizes: &[u32]) -> (Program, tempo_trg::ProfileData) {
        let mut b = Program::builder();
        for (i, &s) in sizes.iter().enumerate() {
            b.procedure(format!("p{i}"), s);
        }
        let p = b.build().unwrap();
        let ids: Vec<ProcId> = p.ids().collect();
        let prof = profile(&p, &Trace::from_full_records(&p, [ids[0], ids[1]]));
        (p, prof)
    }

    proptest! {
        #[test]
        fn chain_layouts_match_the_reference(
            sizes in prop::collection::vec((1u32..4).prop_map(|k| 64 * k), 2..40),
            edges in prop::collection::vec((0usize..40, 0usize..40, 1u32..4), 0..120),
            weights in (0usize..3, any::<u64>()),
        ) {
            // Repeated sizes and small integer weights make both the
            // cross-edge key and the four distances tie often.
            let (p, mut prof) = bare_profile(&sizes);
            let n = p.len();
            let edges: Vec<(u32, u32, u32)> = edges
                .into_iter()
                .map(|(a, b, w)| ((a % n) as u32, (b % n) as u32, w))
                .filter(|&(a, b, _)| a != b)
                .collect();
            let wcg: Vec<_> = edges.iter().map(|&(a, b, w)| (a, b, f64::from(w))).collect();
            let trg: Vec<_> = edges.iter().map(|&(a, b, w)| (a, b, f64::from(4 - w))).collect();
            let (mut wcg, mut ref_wcg) = graphs(&wcg);
            let (mut trg, mut ref_trg) = graphs(&trg);
            // Integer, decayed and perturbed weights.
            let (kind, seed) = weights;
            if kind == 1 {
                wcg.scale_weights(0.5);
                ref_wcg.scale_weights(0.5);
            } else if kind == 2 {
                use rand::SeedableRng;
                let rng = || rand::rngs::StdRng::seed_from_u64(seed);
                wcg = wcg.perturbed(0.4, &mut rng());
                ref_wcg = ref_wcg.perturbed(0.4, &mut rng());
                trg = trg.perturbed(0.4, &mut rng());
                ref_trg = ref_trg.perturbed(0.4, &mut rng());
            }
            prof.wcg = wcg;
            prof.trg_select = trg;
            let ctx = PlacementContext::new(&p, &prof);
            prop_assert_eq!(
                PettisHansen::new().place(&ctx),
                reference_layout(&ctx, &ref_wcg)
            );
            prop_assert_eq!(
                crate::TrgChains::new().place(&ctx),
                reference_layout(&ctx, &ref_trg)
            );
        }
    }

    #[test]
    fn merge_scans_the_smaller_chain() {
        // A path whose weights fall away from node 0: every merge joins a
        // singleton to the one growing chain, so scanning the chain's
        // side would visit Θ(n²) adjacency entries. Scanning the smaller
        // side bounds the visits by 2·E·⌈log₂ n⌉.
        let n: u32 = 2_000;
        let (p, mut prof) = bare_profile(&vec![64; n as usize]);
        let path: Vec<_> = (0..n - 1).map(|i| (i, i + 1, f64::from(n - i))).collect();
        let (wcg, reference) = graphs(&path);
        prof.wcg = wcg;
        let ctx = PlacementContext::new(&p, &prof);
        let registry = std::sync::Arc::new(tempo_obs::Registry::new());
        let metered = {
            let _scope = tempo_obs::scoped(registry.clone());
            PettisHansen::new().place(&ctx)
        };
        let scanned = registry
            .snapshot()
            .counter("place.chain_edges_scanned")
            .unwrap();
        let edges = u64::from(n - 1);
        let log2n = u64::from(n.next_power_of_two().trailing_zeros());
        assert!(
            scanned <= 2 * edges * log2n,
            "{scanned} adjacency entries scanned for {edges} edges"
        );
        // The count is a side record: the layout is the reference's.
        assert_eq!(metered, reference_layout(&ctx, &reference));
    }

    #[test]
    fn heavy_pair_becomes_adjacent() {
        let p = Program::builder()
            .procedure("a", 4096)
            .procedure("pad1", 2048)
            .procedure("pad2", 2048)
            .procedure("b", 4096)
            .build()
            .unwrap();
        let ids: Vec<ProcId> = p.ids().collect();
        let mut refs = Vec::new();
        for _ in 0..50 {
            refs.extend([ids[0], ids[3]]);
        }
        refs.extend([ids[1], ids[2]]);
        let t = Trace::from_full_records(&p, refs);
        let prof = profile(&p, &t);
        let ctx = PlacementContext::new(&p, &prof);
        let layout = PettisHansen::new().place(&ctx);
        let (a, b) = (layout.addr(ids[0]), layout.addr(ids[3]));
        // Both are 4096 bytes and the pads sum to 4096: only adjacency
        // puts them exactly 4096 apart.
        assert_eq!(a.abs_diff(b), 4096, "a and b must be adjacent");
        // The hot chain leads the layout.
        assert_eq!(a.min(b), 0);
    }

    #[test]
    fn reduces_conflicts_vs_source_order() {
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
        let prof = profile(&p, &t);
        let ctx = PlacementContext::new(&p, &prof);
        let cache = CacheConfig::direct_mapped_8k();
        let ph = PettisHansen::new().place(&ctx);
        ph.validate(&p).unwrap();
        let sp = simulate(&p, &ph, &t, cache);
        let sd = simulate(&p, &Layout::source_order(&p), &t, cache);
        assert!(
            sp.misses < sd.misses / 10,
            "ph {} default {}",
            sp.misses,
            sd.misses
        );
    }

    #[test]
    fn covers_all_procedures_including_unreferenced() {
        let p = Program::builder()
            .procedure("a", 100)
            .procedure("never", 100)
            .procedure("b", 100)
            .build()
            .unwrap();
        let ids: Vec<ProcId> = p.ids().collect();
        let t = Trace::from_full_records(&p, [ids[0], ids[2], ids[0]]);
        let prof = profile(&p, &t);
        let ctx = PlacementContext::new(&p, &prof);
        let layout = PettisHansen::new().place(&ctx);
        layout.validate(&p).unwrap();
        assert_eq!(layout.padding(&p), 0, "PH packs with no gaps");
        // The unreferenced procedure is pushed behind the hot chain.
        assert!(layout.addr(ids[1]) > layout.addr(ids[0]));
    }

    #[test]
    fn chain_combination_minimizes_hot_distance() {
        // Chains [a, b] and [c, d] with the heavy edge between b and d:
        // best combination is AB' = a b d c (distance 0 between b and d).
        let p = Program::builder()
            .procedure("a", 100)
            .procedure("b", 100)
            .procedure("c", 100)
            .procedure("d", 100)
            .build()
            .unwrap();
        let ids: Vec<ProcId> = p.ids().collect();
        let combined = best_combination(&p, &[ids[0], ids[1]], &[ids[2], ids[3]], ids[1], ids[3]);
        assert_eq!(combined, vec![ids[0], ids[1], ids[3], ids[2]]);
    }

    #[test]
    fn distance_is_end_to_start() {
        let p = Program::builder()
            .procedure("a", 100)
            .procedure("b", 50)
            .procedure("c", 100)
            .build()
            .unwrap();
        let ids: Vec<ProcId> = p.ids().collect();
        let chain = vec![ids[0], ids[1], ids[2]];
        assert_eq!(distance(&p, &chain, ids[0], ids[2]), 50);
        assert_eq!(distance(&p, &chain, ids[2], ids[0]), 50);
        assert_eq!(distance(&p, &chain, ids[0], ids[1]), 0);
    }

    #[test]
    fn deterministic() {
        let p = Program::builder()
            .procedure("a", 300)
            .procedure("b", 400)
            .procedure("c", 500)
            .procedure("d", 600)
            .build()
            .unwrap();
        let ids: Vec<ProcId> = p.ids().collect();
        let mut refs = Vec::new();
        for i in 0..80 {
            refs.extend([ids[i % 4], ids[(i + 1) % 4]]);
        }
        let t = Trace::from_full_records(&p, refs);
        let prof = profile(&p, &t);
        let ctx = PlacementContext::new(&p, &prof);
        assert_eq!(
            PettisHansen::new().place(&ctx),
            PettisHansen::new().place(&ctx)
        );
    }
}
