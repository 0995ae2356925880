//! Execution budgets and graceful degradation for placement runs.
//!
//! The paper's algorithms were run offline, but a production layout service
//! must bound placement cost: GBSC's alignment scan is quadratic-ish in the
//! popular set and a pathological profile can make it crawl. This module
//! provides:
//!
//! * [`Budget`] — a declarative limit (work units and/or wall-clock
//!   deadline) attached to a [`PlacementContext`] via a [`BudgetMeter`].
//! * [`BudgetExhausted`] — the structured error an algorithm returns from
//!   [`PlacementAlgorithm::try_place`] when the meter trips.
//! * [`place_with_fallback`] — the degradation chain: run the requested
//!   algorithm under the budget; on exhaustion fall back to Pettis–Hansen;
//!   if even that cannot finish, emit the identity (source-order) layout,
//!   which costs nothing and is always valid. The returned [`Degradation`]
//!   record names the tier that actually ran and why each earlier tier
//!   failed.
//!
//! A *work unit* is one candidate placement decision examined — one
//! cache-relative offset scanned (GBSC, GBSC-SA, HKC, WCG+offsets), or one
//! chain endpoint considered (PH, TRG+chains) — so budgets are
//! machine-independent and deterministic, while the deadline guards
//! against wall-clock overruns on any machine.

use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use tempo_program::{Layout, Program};
use tempo_trg::ProfileData;

use crate::{PettisHansen, PlacementAlgorithm, PlacementContext};

/// A declarative execution limit for a placement run.
///
/// The default is unlimited. Limits compose: whichever trips first wins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum work units (candidate placement decisions) to spend.
    pub max_work_units: Option<u64>,
    /// Maximum wall-clock time to spend.
    pub deadline: Option<Duration>,
}

impl Budget {
    /// No limits: every algorithm runs to completion.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Limits work to `units` candidate placement decisions.
    pub fn work_units(units: u64) -> Self {
        Budget {
            max_work_units: Some(units),
            deadline: None,
        }
    }

    /// Limits wall-clock time to `deadline`.
    pub fn duration(deadline: Duration) -> Self {
        Budget {
            max_work_units: None,
            deadline: Some(deadline),
        }
    }

    /// Limits wall-clock time to `ms` milliseconds.
    pub fn millis(ms: u64) -> Self {
        Budget::duration(Duration::from_millis(ms))
    }

    /// Returns `true` when no limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_work_units.is_none() && self.deadline.is_none()
    }
}

/// Why a budgeted placement run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BudgetExhausted {
    /// The work-unit limit was reached.
    WorkUnits {
        /// The configured limit.
        limit: u64,
        /// Units that would have been spent had the rejected charge
        /// committed (exceeds `limit` by construction).
        spent: u64,
    },
    /// The wall-clock deadline passed.
    Deadline {
        /// The configured deadline.
        limit: Duration,
    },
}

impl fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetExhausted::WorkUnits { limit, spent } => {
                write!(
                    f,
                    "work budget exhausted: {spent} units spent, limit {limit}"
                )
            }
            BudgetExhausted::Deadline { limit } => {
                write!(f, "deadline exceeded: limit {limit:?}")
            }
        }
    }
}

impl Error for BudgetExhausted {}

/// Runtime enforcement of a [`Budget`].
///
/// Uses interior mutability so a shared reference can be threaded through
/// the `Copy` [`PlacementContext`]; a meter is cheap enough to check inside
/// an algorithm's innermost merge loop. One meter is shared across a whole
/// fallback chain, so work spent by a failed tier counts against later
/// tiers.
#[derive(Debug)]
pub struct BudgetMeter {
    max_work_units: Option<u64>,
    deadline: Option<Instant>,
    deadline_limit: Duration,
    spent: Cell<u64>,
}

impl BudgetMeter {
    /// Starts metering `budget` (the deadline clock starts now).
    pub fn new(budget: Budget) -> Self {
        BudgetMeter {
            max_work_units: budget.max_work_units,
            deadline: budget.deadline.map(|d| Instant::now() + d),
            deadline_limit: budget.deadline.unwrap_or_default(),
            spent: Cell::new(0),
        }
    }

    /// A meter that never trips.
    pub fn unlimited() -> Self {
        BudgetMeter::new(Budget::unlimited())
    }

    /// Work units charged so far.
    pub fn spent(&self) -> u64 {
        self.spent.get()
    }

    /// Charges `units` of work and checks both limits.
    ///
    /// A charge that would exceed the work limit is rejected *without*
    /// being committed, so when one tier of a fallback chain trips, the
    /// headroom it could not use remains available to cheaper tiers
    /// sharing the meter.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExhausted`] when the charge would push cumulative
    /// work past the limit or the deadline has passed; the caller must
    /// stop and unwind.
    pub fn charge(&self, units: u64) -> Result<(), BudgetExhausted> {
        let spent = self.spent.get().saturating_add(units);
        if let Some(limit) = self.max_work_units {
            if spent > limit {
                return Err(BudgetExhausted::WorkUnits { limit, spent });
            }
        }
        self.spent.set(spent);
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(BudgetExhausted::Deadline {
                    limit: self.deadline_limit,
                });
            }
        }
        Ok(())
    }
}

/// Which tier of the fallback chain produced the layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationTier {
    /// The requested algorithm finished within budget.
    Full,
    /// The requested algorithm ran out; Pettis–Hansen finished instead.
    PettisHansen,
    /// Every budgeted tier ran out; the identity (source-order) layout was
    /// emitted. It costs no work and is always valid.
    Identity,
}

impl fmt::Display for DegradationTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationTier::Full => write!(f, "full"),
            DegradationTier::PettisHansen => write!(f, "pettis-hansen"),
            DegradationTier::Identity => write!(f, "identity"),
        }
    }
}

/// Record of how a budgeted placement run degraded (or did not).
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// Name of the algorithm the caller asked for.
    pub requested: String,
    /// Name of the algorithm whose layout was returned.
    pub ran: String,
    /// The tier that produced the layout.
    pub tier: DegradationTier,
    /// Total work units spent across all tiers.
    pub work_spent: u64,
    /// Each tier that ran out of budget, with the reason, in order.
    pub exhausted: Vec<(String, BudgetExhausted)>,
}

impl Degradation {
    /// Returns `true` when the requested algorithm did not produce the
    /// layout.
    pub fn is_degraded(&self) -> bool {
        self.tier != DegradationTier::Full
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_degraded() {
            write!(
                f,
                "{} degraded to {} ({} tier)",
                self.requested, self.ran, self.tier
            )?;
            for (name, why) in &self.exhausted {
                write!(f, "; {name}: {why}")?;
            }
            Ok(())
        } else {
            write!(
                f,
                "{} completed within budget ({} work units)",
                self.ran, self.work_spent
            )
        }
    }
}

/// Runs `algorithm` under `budget`, degrading GBSC → Pettis–Hansen →
/// identity layout as tiers exhaust the (shared) meter.
///
/// The returned layout is always valid for `program`; the [`Degradation`]
/// record says which tier produced it and why earlier tiers failed. Note
/// the meter is shared: work a failed tier spent also counts against later
/// tiers, so the chain's total cost stays within the budget (the identity
/// tier is free).
pub fn place_with_fallback<A: PlacementAlgorithm + ?Sized>(
    program: &Program,
    profile: &ProfileData,
    algorithm: &A,
    budget: Budget,
) -> (Layout, Degradation) {
    let (layout, degradation) = run_fallback_chain(program, profile, algorithm, budget);
    note_placement(&degradation);
    (layout, degradation)
}

/// Reports a completed placement run to the global [`tempo_obs`] registry:
/// `place.runs`, `place.work_spent` (shared-meter units across all tiers),
/// `place.degraded`, and a per-algorithm `place.algo.<name>.runs` counter
/// naming the tier that actually produced the layout.
fn note_placement(d: &Degradation) {
    tempo_obs::counter("place.runs").incr();
    tempo_obs::counter("place.work_spent").add(d.work_spent);
    if d.is_degraded() {
        tempo_obs::counter("place.degraded").incr();
    }
    tempo_obs::counter(&format!("place.algo.{}.runs", d.ran.to_lowercase())).incr();
}

fn run_fallback_chain<A: PlacementAlgorithm + ?Sized>(
    program: &Program,
    profile: &ProfileData,
    algorithm: &A,
    budget: Budget,
) -> (Layout, Degradation) {
    let requested = algorithm.name().to_string();
    let meter = BudgetMeter::new(budget);
    let ctx = PlacementContext::new(program, profile).with_budget(&meter);
    let mut exhausted = Vec::new();

    match algorithm.try_place(&ctx) {
        Ok(layout) => {
            let degradation = Degradation {
                ran: requested.clone(),
                requested,
                tier: DegradationTier::Full,
                work_spent: meter.spent(),
                exhausted,
            };
            return (layout, degradation);
        }
        Err(why) => exhausted.push((requested.clone(), why)),
    }

    let ph = PettisHansen::new();
    if requested != ph.name() {
        match ph.try_place(&ctx) {
            Ok(layout) => {
                let degradation = Degradation {
                    requested,
                    ran: ph.name().to_string(),
                    tier: DegradationTier::PettisHansen,
                    work_spent: meter.spent(),
                    exhausted,
                };
                return (layout, degradation);
            }
            Err(why) => exhausted.push((ph.name().to_string(), why)),
        }
    }

    let layout = Layout::source_order(program);
    let degradation = Degradation {
        requested,
        ran: "default".to_string(),
        tier: DegradationTier::Identity,
        work_spent: meter.spent(),
        exhausted,
    };
    (layout, degradation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gbsc;
    use tempo_cache::CacheConfig;
    use tempo_program::{ProcId, Program};
    use tempo_trace::Trace;
    use tempo_trg::{PopularitySelector, Profiler};

    fn setup() -> (Program, ProfileData) {
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
        let profile = Profiler::new(&p, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .profile(&t);
        (p, profile)
    }

    #[test]
    fn unlimited_budget_runs_full_tier() {
        let (p, profile) = setup();
        let (layout, d) = place_with_fallback(&p, &profile, &Gbsc::new(), Budget::unlimited());
        layout.validate(&p).unwrap();
        assert_eq!(d.tier, DegradationTier::Full);
        assert!(!d.is_degraded());
        assert_eq!(d.ran, "GBSC");
        assert!(d.exhausted.is_empty());
        // Matches an unbudgeted run exactly.
        let ctx = PlacementContext::new(&p, &profile);
        assert_eq!(layout, Gbsc::new().place(&ctx));
    }

    #[test]
    fn one_work_unit_degrades_to_identity() {
        let (p, profile) = setup();
        let (layout, d) = place_with_fallback(&p, &profile, &Gbsc::new(), Budget::work_units(1));
        layout.validate(&p).unwrap();
        assert_eq!(d.tier, DegradationTier::Identity);
        assert_eq!(layout, Layout::source_order(&p));
        assert_eq!(d.exhausted.len(), 2, "GBSC and PH both exhausted");
        assert!(d.to_string().contains("identity"));
    }

    #[test]
    fn intermediate_budget_can_fall_back_to_ph() {
        let (p, profile) = setup();
        // Find a budget where GBSC exhausts but PH (sharing the meter)
        // still finishes: PH work here is tiny (two merges of short
        // chains), so a budget just under GBSC's appetite suffices.
        let (_, full) = place_with_fallback(&p, &profile, &Gbsc::new(), Budget::unlimited());
        let gbsc_cost = full.work_spent;
        assert!(gbsc_cost > 1);
        let (layout, d) = place_with_fallback(
            &p,
            &profile,
            &Gbsc::new(),
            Budget::work_units(gbsc_cost - 1),
        );
        layout.validate(&p).unwrap();
        assert_eq!(d.tier, DegradationTier::PettisHansen);
        assert_eq!(d.ran, "PH");
        assert_eq!(d.exhausted.len(), 1);
        assert!(d.is_degraded());
    }

    #[test]
    fn expired_deadline_degrades_to_identity() {
        let (p, profile) = setup();
        let (layout, d) =
            place_with_fallback(&p, &profile, &Gbsc::new(), Budget::duration(Duration::ZERO));
        layout.validate(&p).unwrap();
        assert_eq!(d.tier, DegradationTier::Identity);
        assert!(matches!(d.exhausted[0].1, BudgetExhausted::Deadline { .. }));
    }

    #[test]
    fn ph_request_skips_ph_tier() {
        let (p, profile) = setup();
        let (layout, d) =
            place_with_fallback(&p, &profile, &PettisHansen::new(), Budget::work_units(1));
        layout.validate(&p).unwrap();
        assert_eq!(d.tier, DegradationTier::Identity);
        assert_eq!(d.exhausted.len(), 1, "PH must not be retried");
    }

    #[test]
    fn every_merging_algorithm_honours_a_one_unit_budget() {
        // A 2-way profile with a pair database, so GBSC-SA runs too.
        let (p, _) = setup();
        let ids: Vec<ProcId> = p.ids().collect();
        let refs = (0..50).flat_map(|_| [ids[0], ids[2]]);
        let t = Trace::from_full_records(&p, refs);
        let profile = Profiler::new(&p, CacheConfig::two_way_8k())
            .popularity(PopularitySelector::all())
            .with_pair_db(true)
            .profile(&t);
        for name in ["ph", "hkc", "gbsc", "gbsc-sa", "trg-chains", "wcg-offsets"] {
            let algorithm = crate::algorithm_by_name(name).unwrap();
            let (layout, d) =
                place_with_fallback(&p, &profile, algorithm.as_ref(), Budget::work_units(1));
            layout.validate(&p).unwrap();
            assert_ne!(d.tier, DegradationTier::Full, "{name} overran the budget");
        }
    }

    #[test]
    fn meter_counts_and_trips() {
        let m = BudgetMeter::new(Budget::work_units(10));
        assert!(m.charge(6).is_ok());
        assert_eq!(m.spent(), 6);
        assert!(m.charge(4).is_ok());
        let err = m.charge(1).unwrap_err();
        assert!(matches!(
            err,
            BudgetExhausted::WorkUnits {
                limit: 10,
                spent: 11
            }
        ));
        assert!(BudgetMeter::unlimited().charge(u64::MAX).is_ok());
    }

    #[test]
    fn budget_constructors() {
        assert!(Budget::unlimited().is_unlimited());
        assert!(!Budget::work_units(5).is_unlimited());
        assert_eq!(
            Budget::millis(250).deadline,
            Some(Duration::from_millis(250))
        );
        let both = Budget {
            max_work_units: Some(1),
            deadline: Some(Duration::from_secs(1)),
        };
        assert!(!both.is_unlimited());
    }

    #[test]
    fn exhaustion_display_names_cause() {
        let w = BudgetExhausted::WorkUnits { limit: 5, spent: 9 };
        assert!(w.to_string().contains("5"));
        assert!(w.to_string().contains("9"));
        let d = BudgetExhausted::Deadline {
            limit: Duration::from_millis(100),
        };
        assert!(d.to_string().contains("deadline"));
    }
}
