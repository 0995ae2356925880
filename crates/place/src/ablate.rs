//! Ablation variants of GBSC, isolating the paper's two ingredients.
//!
//! §4 of the paper: "We have found however that extra temporal ordering
//! information alone is not sufficient to guarantee lower instruction
//! cache miss rates." The ingredients are separable:
//!
//! 1. **What drives selection** — WCG (PH) vs. `TRG_select` (GBSC).
//! 2. **How nodes combine** — byte-adjacent chains (PH) vs. the
//!    cache-relative offset scan over `TRG_place` (GBSC).
//!
//! [`TrgChains`] takes ingredient 1 without ingredient 2 (temporal
//! selection, chain placement): the configuration the paper warns about.
//! [`WcgOffsets`] takes ingredient 2 without ingredient 1 (call-graph
//! selection, offset-scan placement). Comparing `PH`, `TrgChains`,
//! `WcgOffsets`, and `Gbsc` quantifies each ingredient's contribution —
//! the `ablation_chains` experiment in `tempo-bench` runs exactly that.
//!
//! Both run the shared greedy merge with a swapped selection graph, so
//! each is exactly its parent algorithm on a substituted graph:
//! `TrgChains` is PH, tie rule included, with `TRG_select` as the WCG,
//! and `WcgOffsets` is GBSC with the popular WCG as `TRG_select`.

use tempo_program::Layout;

use crate::budget::BudgetExhausted;
use crate::merge::popular_wcg;
use crate::ph::chain_layout;
use crate::{Gbsc, PlacementAlgorithm, PlacementContext};

/// GBSC's selection (greedy `TRG_select` merging) with PH's placement
/// (chains combined to minimize the distance between the heaviest edge's
/// endpoints). The "temporal information alone" ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrgChains;

impl TrgChains {
    /// Creates the ablation algorithm.
    pub fn new() -> Self {
        TrgChains
    }
}

impl PlacementAlgorithm for TrgChains {
    fn name(&self) -> &str {
        "TRG+chains"
    }

    fn try_place(&self, ctx: &PlacementContext<'_>) -> Result<Layout, BudgetExhausted> {
        // TRG_select covers popular procedures only; every other
        // procedure stays a singleton chain and trails in id order.
        chain_layout(ctx, &ctx.profile.trg_select)
    }
}

/// PH's selection (greedy WCG merging, popular procedures only) with
/// GBSC's placement machinery (offset scan costed by `TRG_place`).
/// The "cache awareness alone" ablation — equivalent to running
/// [`Gbsc`] with the WCG substituted for `TRG_select`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WcgOffsets;

impl WcgOffsets {
    /// Creates the ablation algorithm.
    pub fn new() -> Self {
        WcgOffsets
    }
}

impl PlacementAlgorithm for WcgOffsets {
    fn name(&self) -> &str {
        "WCG+offsets"
    }

    fn try_place(&self, ctx: &PlacementContext<'_>) -> Result<Layout, BudgetExhausted> {
        Ok(Gbsc::new()
            .tuples(ctx, &popular_wcg(ctx.profile))?
            .into_layout(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_cache::{simulate, CacheConfig};
    use tempo_program::{ProcId, Program};
    use tempo_trace::Trace;
    use tempo_trg::{PopularitySelector, Profiler};

    fn phased_setup() -> (Program, Trace, CacheConfig) {
        // M + four siblings in two phases; cache fits M + two siblings.
        let program = Program::builder()
            .procedure("M", 1024)
            .procedure("s1", 2048)
            .procedure("s2", 2048)
            .procedure("s3", 2048)
            .procedure("s4", 2048)
            .build()
            .unwrap();
        let ids: Vec<ProcId> = program.ids().collect();
        let mut refs = Vec::new();
        for _ in 0..50 {
            refs.extend([ids[0], ids[1], ids[0], ids[2]]);
        }
        for _ in 0..50 {
            refs.extend([ids[0], ids[3], ids[0], ids[4]]);
        }
        let trace = Trace::from_full_records(&program, refs);
        (program, trace, CacheConfig::direct_mapped(4096).unwrap())
    }

    fn profile(program: &Program, trace: &Trace, cache: CacheConfig) -> tempo_trg::ProfileData {
        Profiler::new(program, cache)
            .popularity(PopularitySelector::all())
            .profile(trace)
    }

    #[test]
    fn ablations_produce_valid_layouts() {
        let (program, trace, cache) = phased_setup();
        let prof = profile(&program, &trace, cache);
        let ctx = PlacementContext::new(&program, &prof);
        for alg in [
            &TrgChains::new() as &dyn PlacementAlgorithm,
            &WcgOffsets::new(),
        ] {
            let layout = alg.place(&ctx);
            layout
                .validate(&program)
                .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        }
    }

    #[test]
    fn full_gbsc_at_least_matches_both_ablations() {
        let (program, trace, cache) = phased_setup();
        let prof = profile(&program, &trace, cache);
        let ctx = PlacementContext::new(&program, &prof);
        let gbsc = simulate(&program, &crate::Gbsc::new().place(&ctx), &trace, cache);
        let chains = simulate(&program, &TrgChains::new().place(&ctx), &trace, cache);
        let wcg = simulate(&program, &WcgOffsets::new().place(&ctx), &trace, cache);
        assert!(
            gbsc.misses <= chains.misses,
            "gbsc {} vs trg+chains {}",
            gbsc.misses,
            chains.misses
        );
        assert!(
            gbsc.misses <= wcg.misses,
            "gbsc {} vs wcg+offsets {}",
            gbsc.misses,
            wcg.misses
        );
    }

    #[test]
    fn names_are_distinct() {
        assert_ne!(TrgChains::new().name(), WcgOffsets::new().name());
    }
}
