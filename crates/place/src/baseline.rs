//! Baseline layouts: compiler default and random permutation.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tempo_program::{Layout, ProcId};

use crate::budget::BudgetExhausted;
use crate::{PlacementAlgorithm, PlacementContext};

/// The compiler-default layout: procedures packed in source (id) order.
///
/// This is the paper's baseline ("the default code layout produced by most
/// compilers places procedures in the order in which they were listed in
/// the source files", §1); Table 1 reports its miss rate per benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceOrder;

impl SourceOrder {
    /// Creates the baseline algorithm.
    pub fn new() -> Self {
        SourceOrder
    }
}

impl PlacementAlgorithm for SourceOrder {
    fn name(&self) -> &str {
        "default"
    }

    fn try_place(&self, ctx: &PlacementContext<'_>) -> Result<Layout, BudgetExhausted> {
        Ok(Layout::source_order(ctx.program))
    }
}

/// A seeded uniformly-random permutation of the procedures, packed with no
/// gaps. Useful as a "how bad can it get" reference point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomOrder {
    seed: u64,
}

impl RandomOrder {
    /// Creates a random-order layout generator with the given seed. The
    /// same seed always yields the same permutation for a given program.
    pub fn new(seed: u64) -> Self {
        RandomOrder { seed }
    }
}

impl PlacementAlgorithm for RandomOrder {
    fn name(&self) -> &str {
        "random"
    }

    fn try_place(&self, ctx: &PlacementContext<'_>) -> Result<Layout, BudgetExhausted> {
        let mut order: Vec<ProcId> = ctx.program.ids().collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        order.shuffle(&mut rng);
        Ok(Layout::from_order(ctx.program, &order).expect("a shuffle is a permutation"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_cache::CacheConfig;
    use tempo_program::Program;
    use tempo_trace::Trace;
    use tempo_trg::Profiler;

    fn setup() -> (Program, tempo_trg::ProfileData) {
        let mut b = Program::builder();
        for i in 0..20 {
            b.procedure(format!("p{i}"), 64 + i * 8);
        }
        let program = b.build().unwrap();
        let profile =
            Profiler::new(&program, CacheConfig::direct_mapped_8k()).profile(&Trace::new());
        (program, profile)
    }

    #[test]
    fn source_order_matches_layout_helper() {
        let (program, profile) = setup();
        let ctx = PlacementContext::new(&program, &profile);
        let l = SourceOrder::new().place(&ctx);
        assert_eq!(l, Layout::source_order(&program));
        assert_eq!(SourceOrder::new().name(), "default");
    }

    #[test]
    fn random_order_is_seed_deterministic() {
        let (program, profile) = setup();
        let ctx = PlacementContext::new(&program, &profile);
        let a = RandomOrder::new(7).place(&ctx);
        let b = RandomOrder::new(7).place(&ctx);
        let c = RandomOrder::new(8).place(&ctx);
        assert_eq!(a, b);
        assert_ne!(a, c);
        a.validate(&program).unwrap();
        c.validate(&program).unwrap();
        assert_eq!(a.padding(&program), 0, "random order packs with no gaps");
    }
}
