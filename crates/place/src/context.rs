//! The placement-algorithm interface.

use tempo_cache::CacheConfig;
use tempo_program::{Layout, Program};
use tempo_trg::ProfileData;

use crate::budget::{BudgetExhausted, BudgetMeter};

/// Everything a placement algorithm may consult: the program's static shape
/// and the training profile (which carries the target cache geometry),
/// plus an optional execution-budget meter.
#[derive(Debug, Clone, Copy)]
pub struct PlacementContext<'a> {
    /// The program being laid out.
    pub program: &'a Program,
    /// The training profile (WCG, TRGs, popularity, cache geometry).
    pub profile: &'a ProfileData,
    /// Budget meter, if this run is budgeted.
    budget: Option<&'a BudgetMeter>,
}

impl<'a> PlacementContext<'a> {
    /// Bundles a program with its profile (no budget).
    pub fn new(program: &'a Program, profile: &'a ProfileData) -> Self {
        PlacementContext {
            program,
            profile,
            budget: None,
        }
    }

    /// Attaches a budget meter; budget-aware algorithms charge work to it
    /// through [`try_place`](PlacementAlgorithm::try_place).
    pub fn with_budget(mut self, meter: &'a BudgetMeter) -> Self {
        self.budget = Some(meter);
        self
    }

    /// Charges `units` of work against the budget, if one is attached.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExhausted`] once the budget trips; unbudgeted
    /// contexts always succeed.
    pub fn charge(&self, units: u64) -> Result<(), BudgetExhausted> {
        match self.budget {
            Some(meter) => meter.charge(units),
            None => Ok(()),
        }
    }

    /// The cache geometry the profile was gathered for.
    pub fn cache(&self) -> CacheConfig {
        self.profile.cache
    }
}

/// Runs a budget-aware placement step with the context's budget stripped:
/// [`place`](PlacementAlgorithm::place), and GBSC's
/// [`place_tuples`](crate::Gbsc::place_tuples).
pub(crate) fn unbudgeted<T>(
    ctx: &PlacementContext<'_>,
    run: impl FnOnce(&PlacementContext<'_>) -> Result<T, BudgetExhausted>,
) -> T {
    match run(&PlacementContext::new(ctx.program, ctx.profile)) {
        Ok(t) => t,
        Err(_) => unreachable!("an unbudgeted merge cannot exhaust"),
    }
}

/// A procedure-placement algorithm: consumes a program + profile, produces
/// a [`Layout`].
///
/// Implementations must be deterministic given the context (any randomness
/// must be seeded at construction), so that experiments are reproducible.
/// Each implements [`try_place`](PlacementAlgorithm::try_place) alone;
/// [`place`](PlacementAlgorithm::place) is that run with the budget
/// stripped.
pub trait PlacementAlgorithm {
    /// Short identifier used in reports ("PH", "HKC", "GBSC", ...).
    fn name(&self) -> &str;

    /// Produces a layout covering every procedure of `ctx.program`,
    /// honouring a meter attached via [`PlacementContext::with_budget`]:
    /// budget-aware algorithms charge their work to it and stop early
    /// with [`BudgetExhausted`] instead of overrunning. Algorithms whose
    /// cost is trivially bounded (the baselines) never fail.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExhausted`] when the attached budget trips before
    /// placement finishes.
    fn try_place(&self, ctx: &PlacementContext<'_>) -> Result<Layout, BudgetExhausted>;

    /// Produces a layout covering every procedure of `ctx.program`,
    /// ignoring any attached budget.
    fn place(&self, ctx: &PlacementContext<'_>) -> Layout {
        unbudgeted(ctx, |ctx| self.try_place(ctx))
    }
}

impl<T: PlacementAlgorithm + ?Sized> PlacementAlgorithm for &T {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn try_place(&self, ctx: &PlacementContext<'_>) -> Result<Layout, BudgetExhausted> {
        (**self).try_place(ctx)
    }
}

impl<T: PlacementAlgorithm + ?Sized> PlacementAlgorithm for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn try_place(&self, ctx: &PlacementContext<'_>) -> Result<Layout, BudgetExhausted> {
        (**self).try_place(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_cache::CacheConfig;
    use tempo_trace::Trace;
    use tempo_trg::Profiler;

    #[test]
    fn context_exposes_cache() {
        let program = Program::builder().procedure("a", 10).build().unwrap();
        let trace = Trace::new();
        let profile = Profiler::new(&program, CacheConfig::direct_mapped_8k()).profile(&trace);
        let ctx = PlacementContext::new(&program, &profile);
        assert_eq!(ctx.cache(), CacheConfig::direct_mapped_8k());
    }

    #[test]
    fn trait_objects_and_refs_work() {
        struct Dummy;
        impl PlacementAlgorithm for Dummy {
            fn name(&self) -> &str {
                "dummy"
            }
            fn try_place(&self, ctx: &PlacementContext<'_>) -> Result<Layout, BudgetExhausted> {
                Ok(Layout::source_order(ctx.program))
            }
        }
        let program = Program::builder().procedure("a", 10).build().unwrap();
        let profile =
            Profiler::new(&program, CacheConfig::direct_mapped_8k()).profile(&Trace::new());
        let ctx = PlacementContext::new(&program, &profile);

        let boxed: Box<dyn PlacementAlgorithm> = Box::new(Dummy);
        assert_eq!(boxed.name(), "dummy");
        assert_eq!(boxed.place(&ctx).len(), 1);
        let by_ref = &Dummy;
        assert_eq!(by_ref.name(), "dummy");
    }
}
