//! The profile → place → evaluate pipeline.

use tempo_cache::{simulate, simulate_layouts_streamed, CacheConfig, SimStats};
use tempo_place::{place_with_fallback, Budget, Degradation, PlacementAlgorithm, PlacementContext};
use tempo_program::{Layout, Program};
use tempo_trace::io::TraceIoError;
use tempo_trace::{MemorySource, Trace, TraceSource};
use tempo_trg::{PopularitySelector, ProfileData, ProfileWarnings, Profiler};

/// Stage 1: a program plus profiling configuration.
///
/// Call [`profile`](Session::profile) with a training trace to obtain a
/// [`ProfiledSession`], which can place and evaluate layouts.
#[derive(Debug)]
pub struct Session<'p> {
    program: &'p Program,
    cache: CacheConfig,
    selector: PopularitySelector,
    pair_db: bool,
}

impl<'p> Session<'p> {
    /// Starts a session for `program` targeting `cache`.
    pub fn new(program: &'p Program, cache: CacheConfig) -> Self {
        Session {
            program,
            cache,
            selector: PopularitySelector::default_policy(),
            pair_db: false,
        }
    }

    /// Sets the popularity policy used during profiling.
    pub fn popularity(mut self, selector: PopularitySelector) -> Self {
        self.selector = selector;
        self
    }

    /// Enables the §6 pair database (needed by
    /// [`GbscSetAssoc`](tempo_place::GbscSetAssoc)).
    pub fn with_pair_db(mut self, enabled: bool) -> Self {
        self.pair_db = enabled;
        self
    }

    /// Profiles a training trace. Defective records (unknown procedures,
    /// zero or oversized extents) are tolerated, not fatal; to see how
    /// many were repaired or dropped, profile through
    /// [`profile_with`](Session::profile_with) over a
    /// [`MemorySource`].
    pub fn profile(self, trace: &Trace) -> ProfiledSession<'p> {
        let _span = tempo_obs::span("stage.profile");
        let profile = Profiler::new(self.program, self.cache)
            .popularity(self.selector)
            .with_pair_db(self.pair_db)
            .profile(trace);
        ProfiledSession {
            program: self.program,
            profile,
        }
    }

    /// Profiles a training stream in constant memory.
    ///
    /// Streaming profiling is inherently two-pass — the popular set must be
    /// known before temporal edges can be accumulated — so the caller
    /// supplies a factory that opens a *fresh* source over the same records
    /// for each pass (reopen a file, rewind a buffer, or rebuild a
    /// generator from its seed). Produces byte-identical [`ProfileData`] to
    /// [`profile`](Session::profile) on the materialized trace.
    ///
    /// # Errors
    ///
    /// Propagates the first error either source pass reports.
    pub fn profile_with<S, F>(
        self,
        mut open: F,
    ) -> Result<(ProfiledSession<'p>, ProfileWarnings), TraceIoError>
    where
        S: TraceSource,
        F: FnMut() -> Result<S, TraceIoError>,
    {
        let popular = {
            let _span = tempo_obs::span("stage.profile.popularity");
            self.selector.select_source(self.program, open()?)?
        };
        let _span = tempo_obs::span("stage.profile.qpass");
        let (profile, warnings) = Profiler::new(self.program, self.cache)
            .popularity(self.selector)
            .with_pair_db(self.pair_db)
            .with_popular(popular)
            .profile_source(open()?)?;
        Ok((
            ProfiledSession {
                program: self.program,
                profile,
            },
            warnings,
        ))
    }
}

/// Stage 2: a program plus its training profile.
///
/// From here, [`place`](ProfiledSession::place) runs any placement
/// algorithm and [`evaluate`](ProfiledSession::evaluate) simulates a layout
/// against any (typically *testing*) trace.
#[derive(Debug, Clone)]
pub struct ProfiledSession<'p> {
    program: &'p Program,
    profile: ProfileData,
}

impl<'p> ProfiledSession<'p> {
    /// Wraps an existing profile (e.g. a perturbed copy) for placement.
    pub fn from_profile(program: &'p Program, profile: ProfileData) -> Self {
        ProfiledSession { program, profile }
    }

    /// The program under layout.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The training profile.
    pub fn profile(&self) -> &ProfileData {
        &self.profile
    }

    /// The cache geometry this session targets.
    pub fn cache(&self) -> CacheConfig {
        self.profile.cache
    }

    /// The placement context handed to algorithms.
    pub fn context(&self) -> PlacementContext<'_> {
        PlacementContext::new(self.program, &self.profile)
    }

    /// Runs a placement algorithm.
    pub fn place<A: PlacementAlgorithm + ?Sized>(&self, algorithm: &A) -> Layout {
        let _span = tempo_obs::span("stage.place");
        algorithm.place(&self.context())
    }

    /// Runs a placement algorithm under an execution budget, degrading
    /// through the fallback chain (requested → Pettis–Hansen → identity)
    /// when the budget trips.
    ///
    /// The returned layout is always valid; the [`Degradation`] record
    /// says which tier produced it and why earlier tiers failed.
    pub fn place_budgeted<A: PlacementAlgorithm + ?Sized>(
        &self,
        algorithm: &A,
        budget: Budget,
    ) -> (Layout, Degradation) {
        let _span = tempo_obs::span("stage.place");
        place_with_fallback(self.program, &self.profile, algorithm, budget)
    }

    /// Lints `layout` with [`tempo_analyze`] against this session's
    /// profile: every structural finding plus the static conflict
    /// prediction. Callers decide how strict to be (the benches fail on
    /// error-severity diagnostics).
    pub fn check(&self, layout: &Layout) -> tempo_analyze::AnalysisReport {
        let input = tempo_analyze::AnalysisInput::from_profile(self.program, layout, &self.profile);
        tempo_analyze::Analyzer::new().analyze(&input)
    }

    /// Simulates a layout against a trace on this session's cache.
    pub fn evaluate(&self, layout: &Layout, trace: &Trace) -> SimStats {
        let _span = tempo_obs::span("stage.simulate");
        simulate(self.program, layout, trace, self.profile.cache)
    }

    /// Simulates several layouts against one *shared* pass over a
    /// [`TraceSource`]: N layouts cost one trace read instead of N. Stats
    /// come back in `layouts` order and match per-layout
    /// [`evaluate`](ProfiledSession::evaluate) exactly.
    ///
    /// # Errors
    ///
    /// Propagates the first error the source reports.
    pub fn evaluate_layouts_streamed<S: TraceSource>(
        &self,
        layouts: &[Layout],
        source: S,
    ) -> Result<Vec<SimStats>, TraceIoError> {
        let _span = tempo_obs::span("stage.simulate");
        simulate_layouts_streamed(self.program, layouts, source, self.profile.cache)
    }

    /// Screens candidate layouts with the static miss-bound analyzer and
    /// simulates only the survivors: candidates whose bounds (or Figure-6
    /// predicted cost, see `tempo_analyze::screen_layouts`) prove they
    /// cannot win are skipped, coming back as `None`. The screening
    /// verdict and the per-survivor stats share indices with `layouts`.
    /// Survivors share one pass over `trace`.
    ///
    /// Counters: `analyze.screened` and `analyze.bound_width` from the
    /// screening pass, `analyze.simulated` per survivor.
    pub fn evaluate_screened(
        &self,
        layouts: &[Layout],
        trace: &Trace,
    ) -> (tempo_analyze::ScreenReport, Vec<Option<SimStats>>) {
        let refs: Vec<&Layout> = layouts.iter().collect();
        let screen = tempo_analyze::screen_layouts(
            self.program,
            self.profile.cache,
            &self.profile.popular,
            Some(&self.profile.trg_select),
            Some(&self.profile.trg_place),
            &refs,
        );
        let survivors: Vec<Layout> = layouts
            .iter()
            .zip(&screen.layouts)
            .filter(|(_, verdict)| !verdict.skip)
            .map(|(layout, _)| layout.clone())
            .collect();
        tempo_obs::counter("analyze.simulated").add(survivors.len() as u64);
        let simulated = if survivors.is_empty() {
            Vec::new()
        } else {
            let _span = tempo_obs::span("stage.simulate");
            simulate_layouts_streamed(
                self.program,
                &survivors,
                MemorySource::new(trace),
                self.profile.cache,
            )
            .unwrap_or_else(|e| unreachable!("in-memory sources cannot fail: {e}"))
        };
        let mut simulated = simulated.into_iter();
        let stats = screen
            .layouts
            .iter()
            .map(|verdict| if verdict.skip { None } else { simulated.next() })
            .collect();
        (screen, stats)
    }

    /// Returns a copy of this session with the profile's graphs perturbed
    /// by the paper's §5.1 multiplicative noise.
    pub fn perturbed<R: rand::Rng + ?Sized>(&self, s: f64, rng: &mut R) -> ProfiledSession<'p> {
        ProfiledSession {
            program: self.program,
            profile: self.profile.perturbed(s, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_place::{Gbsc, SourceOrder};
    use tempo_program::ProcId;

    fn setup() -> (Program, Trace) {
        let program = Program::builder()
            .procedure("a", 4096)
            .procedure("pad", 4096)
            .procedure("b", 4096)
            .build()
            .unwrap();
        let ids: Vec<ProcId> = program.ids().collect();
        let mut refs = Vec::new();
        for _ in 0..60 {
            refs.extend([ids[0], ids[2]]);
        }
        let trace = Trace::from_full_records(&program, refs);
        (program, trace)
    }

    #[test]
    fn pipeline_end_to_end() {
        let (program, trace) = setup();
        let session = Session::new(&program, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .profile(&trace);
        let def = session.place(&SourceOrder::new());
        let gbsc = session.place(&Gbsc::new());
        let sd = session.evaluate(&def, &trace);
        let sg = session.evaluate(&gbsc, &trace);
        assert!(sg.misses < sd.misses);
        assert_eq!(session.cache(), CacheConfig::direct_mapped_8k());
        assert_eq!(session.program().len(), 3);
    }

    #[test]
    fn evaluate_screened_skips_hopeless_candidates_and_keeps_the_winner() {
        // Everything fits in the cache (3 x 2048 <= 8192), so the analyzer
        // is capacity-free and the forced lower bound is live.
        let program = Program::builder()
            .procedure("a", 2048)
            .procedure("pad", 2048)
            .procedure("b", 2048)
            .build()
            .unwrap();
        let ids: Vec<ProcId> = program.ids().collect();
        let mut refs = Vec::new();
        for _ in 0..60 {
            refs.extend([ids[0], ids[2]]);
        }
        let trace = Trace::from_full_records(&program, refs);
        let session = Session::new(&program, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .profile(&trace);
        let good = session.place(&Gbsc::new());
        // a and b stacked one cache apart: maximal conflict by design.
        let stacked = Layout::from_addresses(vec![0, 2048, 8192]);
        let candidates = vec![good.clone(), stacked];
        let (screen, stats) = session.evaluate_screened(&candidates, &trace);
        assert_eq!(screen.layouts.len(), 2);
        assert!(!screen.layouts[0].skip, "the good layout survives");
        assert!(screen.layouts[1].skip, "the stacked layout is screened");
        assert!(stats[1].is_none());
        // The surviving stats match an unscreened evaluation exactly.
        assert_eq!(stats[0].as_ref().unwrap(), &session.evaluate(&good, &trace));
    }

    #[test]
    fn place_checked_is_clean_for_real_algorithms() {
        let (program, trace) = setup();
        let session = Session::new(&program, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .profile(&trace);
        let layout = session.place(&Gbsc::new());
        let report = session.check(&layout);
        layout.validate(&program).unwrap();
        assert_eq!(report.error_count(), 0, "{}", report.render_text(&program));
        assert!(report.prediction().is_some());
    }

    #[test]
    fn perturbed_session_still_places() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (program, trace) = setup();
        let session = Session::new(&program, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .profile(&trace);
        let mut rng = StdRng::seed_from_u64(5);
        let perturbed = session.perturbed(0.1, &mut rng);
        let layout = perturbed.place(&Gbsc::new());
        layout.validate(&program).unwrap();
        assert_ne!(
            perturbed.profile().trg_select.weight(0, 2),
            session.profile().trg_select.weight(0, 2)
        );
    }

    #[test]
    fn pair_db_flag_propagates() {
        let (program, trace) = setup();
        let session = Session::new(&program, CacheConfig::two_way_8k())
            .popularity(PopularitySelector::all())
            .with_pair_db(true)
            .profile(&trace);
        assert!(session.profile().pair_db.is_some());
    }

    #[test]
    fn lossy_profile_reports_warnings_and_still_places() {
        use tempo_trace::TraceRecord;
        let (program, trace) = setup();
        let mut hostile = trace.clone();
        hostile.push(TraceRecord::new(ProcId::new(500), 64)); // unknown
        hostile.push(TraceRecord::new(ProcId::new(0), 0)); // zero extent
        let (session, warnings) = Session::new(&program, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .profile_with(|| Ok(MemorySource::new(&hostile)))
            .unwrap();
        assert_eq!(warnings.unknown_proc, 1);
        assert_eq!(warnings.zero_extent, 1);
        let layout = session.place(&Gbsc::new());
        layout.validate(&program).unwrap();
    }

    #[test]
    fn budgeted_place_degrades_to_identity() {
        use tempo_place::{Budget, DegradationTier};
        let (program, trace) = setup();
        let session = Session::new(&program, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .profile(&trace);
        let (layout, d) = session.place_budgeted(&Gbsc::new(), Budget::work_units(1));
        let report = session.check(&layout);
        layout.validate(&program).unwrap();
        assert_eq!(d.tier, DegradationTier::Identity);
        assert_eq!(layout, Layout::source_order(&program));
        assert_eq!(report.error_count(), 0, "{}", report.render_text(&program));
        // Unlimited budget matches the unbudgeted run.
        let (full, d2) = session.place_budgeted(&Gbsc::new(), Budget::unlimited());
        assert!(!d2.is_degraded());
        assert_eq!(full, session.place(&Gbsc::new()));
        // Every algorithm implements `try_place` alone: the provided
        // `place`, a metered `try_place` and the unlimited fallback chain
        // all give the same layout.
        let two_way = Session::new(&program, CacheConfig::two_way_8k())
            .popularity(PopularitySelector::all())
            .with_pair_db(true)
            .profile(&trace);
        for name in [
            "default",
            "random",
            "random:7",
            "ph",
            "hkc",
            "gbsc",
            "gbsc-sa",
            "trg-chains",
            "wcg-offsets",
        ] {
            let session = if name == "gbsc-sa" {
                &two_way
            } else {
                &session
            };
            let algorithm = tempo_place::algorithm_for(name, session.cache(), name == "gbsc-sa")
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let placed = session.place(&algorithm);
            let meter = tempo_place::BudgetMeter::unlimited();
            let metered = algorithm
                .try_place(&session.context().with_budget(&meter))
                .unwrap();
            let (fallback, d) = session.place_budgeted(&algorithm, Budget::unlimited());
            assert!(!d.is_degraded(), "{name}");
            assert_eq!(metered, placed, "{name}");
            assert_eq!(fallback, placed, "{name}");
        }
    }

    #[test]
    fn streaming_profile_and_evaluate_match_materialized() {
        use tempo_trace::MemorySource;
        let (program, trace) = setup();
        let materialized = Session::new(&program, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .profile(&trace);
        let (streamed, warnings) = Session::new(&program, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .profile_with(|| Ok(MemorySource::new(&trace)))
            .unwrap();
        assert!(warnings.is_clean());
        assert_eq!(streamed.profile(), materialized.profile());
        let layout = materialized.place(&Gbsc::new());
        let sm = materialized.evaluate(&layout, &trace);
        let both = streamed
            .evaluate_layouts_streamed(
                &[layout.clone(), Layout::source_order(&program)],
                MemorySource::new(&trace),
            )
            .unwrap();
        assert_eq!(both[0], sm);
    }

    #[test]
    fn from_profile_roundtrip() {
        let (program, trace) = setup();
        let session = Session::new(&program, CacheConfig::direct_mapped_8k()).profile(&trace);
        let again = ProfiledSession::from_profile(&program, session.profile().clone());
        assert_eq!(
            again.profile().wcg.edge_count(),
            session.profile().wcg.edge_count()
        );
    }
}
