//! The incremental epoch engine: a decaying profile window with
//! drift-triggered re-placement.
//!
//! The one-shot pipeline ([`Session`](crate::Session)) profiles a whole
//! training trace, places once, and freezes the layout. "Modeling the Input
//! History of Programs" (PAPERS.md) argues layouts should instead *track*
//! input drift. The [`Engine`] is the incremental core that makes that
//! possible — and the load-bearing refactor the `tempod` daemon (ROADMAP
//! item 1) sits on:
//!
//! 1. The trace is consumed in **epochs** (fixed record counts, or
//!    frame-aligned ranges planned by [`plan_epochs`]).
//! 2. Each epoch is profiled and folded into a **decaying window**:
//!    `window.decay(λ)`, then the epoch's profile stream folds its edge
//!    tallies straight into the window
//!    ([`ProfileStream::fold_into`](tempo_trg::ProfileStream::fold_into)),
//!    bit-identical to `window.merge(&epoch)` without building the epoch's
//!    graphs. With `λ = 1.0` the window is a plain running sum —
//!    bit-identical to the one-shot profile over the records seen so far.
//! 3. After each epoch a **cheap drift check** runs *before* any
//!    placement is paid for — the placement analogue of the PR 6
//!    simulation prefilter. The engine remembers the normalized
//!    [`miss_bounds`] ceiling of the best candidate it last computed (the
//!    *anchor*: ceiling divided by the window's selection-TRG weight, so
//!    decayed and grown windows compare). Each epoch it re-bounds only the
//!    *incumbent* under the new window and estimates the improvement a
//!    fresh placement could offer as the incumbent's degradation against
//!    the anchor. While that estimate stays below `replace_threshold` the
//!    epoch is a `drift_skip`: no placement runs, no layout swaps, no
//!    relink. Only when the estimate crosses the threshold does the engine
//!    place a fresh candidate, re-anchor on its ceiling, and adopt it iff
//!    the *measured* improvement also clears `replace_threshold` — so
//!    skipping placements does not change which layouts are adopted
//!    relative to re-placing every epoch.
//!
//! Popular membership is pinned at the **first epoch** so epoch profiles
//! always merge; later epochs contribute their own reference counts over
//! the pinned flags via [`PopularSet::from_parts`].
//!
//! Observability: `engine.epochs`, `engine.decays`, `engine.placements`,
//! `engine.replacements`, `engine.drift_skips` counters, an
//! `engine.epoch` span per epoch, and inside it the `engine.profile`
//! (epoch Q-pass), `engine.fold` (decay and fold), `engine.bound` (each
//! [`miss_bounds`] ceiling) and `engine.place` spans.

use tempo_analyze::miss_bounds;
use tempo_cache::{simulate, CacheConfig, SimStats};
use tempo_place::{PlacementAlgorithm, PlacementContext};
use tempo_program::{Layout, Program};
use tempo_trace::io::TraceIoError;
use tempo_trace::v2::FrameEntry;
use tempo_trace::{MemorySource, Trace, TraceRecord, TraceSource};
use tempo_trg::{PopularSet, PopularitySelector, ProfileData, Profiler};

/// Configuration of an incremental [`Engine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Cache geometry profiled and placed for.
    pub cache: CacheConfig,
    /// Popularity policy used on the first epoch (membership is pinned
    /// from it for the window's lifetime).
    pub selector: PopularitySelector,
    /// Target records per epoch: [`plan_epochs`] groups whole TMP2
    /// frames into epochs of at least this many records.
    pub epoch_records: u64,
    /// Exponential decay applied to the window before each merge, in
    /// `(0, 1]`. `1.0` disables aging: the window is then the exact
    /// running profile of every record seen.
    pub decay: f64,
    /// Minimum fractional improvement of the candidate layout's miss-bound
    /// ceiling over the incumbent's required to adopt it — and the drift
    /// level below which the engine skips placing a candidate at all.
    /// `0.0` adopts on any improvement; negative values place and adopt
    /// every epoch (the re-place-always baseline).
    pub replace_threshold: f64,
    /// When `false`, the cheap drift check is disabled: a fresh candidate
    /// is placed every epoch and the threshold gates adoption only. The
    /// reference mode for validating that drift skips leave the adopted
    /// layouts unchanged.
    pub drift_check: bool,
    /// When set, each epoch's records are also simulated against the
    /// layout in force *during* that epoch (the incumbent before the
    /// epoch's placement decision), reported in
    /// [`EpochReport::stats`].
    pub evaluate: bool,
    /// Ceiling on the records buffered for any single epoch by the
    /// chunked runners, itself capped at [`MAX_EPOCH_RECORDS`]. Epoch or
    /// plan lengths beyond it are split at the ceiling — untrusted plans
    /// cannot force the whole stream into memory. Daemons serving many
    /// tenants may lower it; raising it past the hard cap has no effect.
    pub max_epoch_records: u64,
}

impl EngineConfig {
    /// A config with the default popularity policy, 100k-record epochs,
    /// no decay, a 2% replacement threshold, the drift check enabled, and
    /// no per-epoch evaluation.
    pub fn new(cache: CacheConfig) -> Self {
        EngineConfig {
            cache,
            selector: PopularitySelector::default_policy(),
            epoch_records: 100_000,
            decay: 1.0,
            replace_threshold: 0.02,
            drift_check: true,
            evaluate: false,
            max_epoch_records: MAX_EPOCH_RECORDS,
        }
    }
}

/// Checks the engine's numeric settings, spelled as the `engine` and
/// `daemon` commands take them: popularity `coverage` within `[0, 1]`, a
/// positive `epoch_records`, `decay` within `(0, 1]`, and a
/// `replace_threshold` that is a number. `±∞` thresholds are legal (`-∞`
/// places and adopts every epoch, `+∞` never replaces); NaN is not, as it
/// would make both the drift check and the adoption test false.
///
/// # Errors
///
/// Names the first setting out of range, by its command-line flag.
pub fn check_engine_settings(
    coverage: f64,
    epoch_records: u64,
    decay: f64,
    replace_threshold: f64,
) -> Result<(), String> {
    if !(0.0..=1.0).contains(&coverage) {
        return Err(format!("--coverage must be within [0, 1], got {coverage}"));
    }
    if epoch_records == 0 {
        return Err("--epoch-records must be positive".to_string());
    }
    if !(decay > 0.0 && decay <= 1.0) {
        return Err(format!("--decay must be within (0, 1], got {decay}"));
    }
    if replace_threshold.is_nan() {
        return Err("--replace-threshold must be a number, got NaN".to_string());
    }
    Ok(())
}

/// What one epoch did to the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochReport {
    /// Epoch index, starting at 0.
    pub epoch: usize,
    /// Records consumed by this epoch (defective records included, as
    /// counted by the source).
    pub records: u64,
    /// [`miss_bounds`] upper bound of the incumbent layout under the
    /// updated window. On the first epoch with no seeded layout this
    /// equals `fresh_hi` (there is no incumbent to defend).
    pub current_hi: u64,
    /// Upper bound of the freshly placed candidate under the same window
    /// when one was placed; when the drift check skipped placement
    /// (`placed == false`), the anchor-based *estimate* of what a fresh
    /// candidate would bound to.
    pub fresh_hi: u64,
    /// Fractional improvement `(current_hi - fresh_hi) / current_hi`
    /// (0 when `current_hi` is 0) — measured when `placed`, the drift
    /// estimate otherwise. Negative when the candidate's ceiling is worse.
    pub improvement: f64,
    /// Whether a fresh candidate was actually placed this epoch (`false`
    /// when the drift check skipped the placement).
    pub placed: bool,
    /// Whether the candidate was adopted.
    pub replaced: bool,
    /// Simulation of this epoch's records against the layout in force
    /// during the epoch, when [`EngineConfig::evaluate`] is set.
    pub stats: Option<SimStats>,
}

/// An incremental profile→place engine over a decaying epoch window.
///
/// Create with [`Engine::new`], optionally seed an incumbent layout with
/// [`with_layout`](Engine::with_layout), then feed epochs via
/// [`observe_epoch`](Engine::observe_epoch) or drive a whole source with
/// [`run_planned`](Engine::run_planned).
///
/// With `decay = 1.0` and a single epoch covering the whole trace, the
/// engine reproduces the one-shot pipeline exactly: the first epoch
/// selects popularity with the configured policy and profiles through the
/// same code path as [`Profiler::profile`], and the adopted layout is the
/// algorithm's placement over that profile.
pub struct Engine<'p> {
    program: &'p Program,
    algorithm: &'p dyn PlacementAlgorithm,
    config: EngineConfig,
    /// Membership flags pinned at the first epoch.
    pinned: Option<Vec<bool>>,
    window: Option<ProfileData>,
    layout: Option<Layout>,
    /// Ceiling of the last *computed* candidate divided by the window's
    /// selection-TRG weight at that time — the drift check's reference
    /// for what a fresh placement could achieve.
    anchor: Option<f64>,
    epochs: usize,
}

impl<'p> Engine<'p> {
    /// Creates an engine with no window and no incumbent layout.
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`check_engine_settings`].
    pub fn new(
        program: &'p Program,
        algorithm: &'p dyn PlacementAlgorithm,
        config: EngineConfig,
    ) -> Self {
        if let Err(e) = check_engine_settings(
            config.selector.coverage_target(),
            config.epoch_records,
            config.decay,
            config.replace_threshold,
        ) {
            panic!("{e}");
        }
        Engine {
            program,
            algorithm,
            config,
            pinned: None,
            window: None,
            layout: None,
            anchor: None,
            epochs: 0,
        }
    }

    /// Seeds the incumbent layout — e.g. a frozen training-run placement
    /// the engine should only displace when drift justifies it.
    ///
    /// # Panics
    ///
    /// Panics if the layout does not cover the engine's program.
    pub fn with_layout(mut self, layout: Layout) -> Self {
        layout
            .validate(self.program)
            .expect("seed layout must cover the engine's program");
        self.layout = Some(layout);
        self
    }

    /// The incumbent layout, if any epoch has been observed (or one was
    /// seeded).
    pub fn layout(&self) -> Option<&Layout> {
        self.layout.as_ref()
    }

    /// The current windowed profile.
    pub fn window(&self) -> Option<&ProfileData> {
        self.window.as_ref()
    }

    /// Epochs observed so far.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// Folds one epoch of trace records into the window and runs the
    /// drift-triggered placement decision. See the module docs for the
    /// exact sequence.
    pub fn observe_epoch(&mut self, epoch_trace: &Trace) -> EpochReport {
        let _span = tempo_obs::span("engine.epoch");
        let epoch_index = self.epochs;
        self.epochs += 1;
        tempo_obs::counter("engine.epochs").incr();

        // The layout in force while this epoch's records executed.
        let in_force = self.layout.clone();

        // 1. Profile the epoch and fold it into the window.
        match (&mut self.window, &self.pinned) {
            (Some(window), Some(pinned)) => {
                let profile_span = tempo_obs::span("engine.profile");
                let mut counts = vec![0u64; self.program.len()];
                for r in epoch_trace.iter() {
                    if let Some(c) = counts.get_mut(r.proc.as_usize()) {
                        *c += 1;
                    }
                }
                let epoch_popular = PopularSet::from_parts(pinned.clone(), counts);
                let mut stream =
                    Profiler::new(self.program, self.config.cache).into_stream(epoch_popular);
                stream
                    .consume(MemorySource::new(epoch_trace))
                    .unwrap_or_else(|_| unreachable!("in-memory sources never fail"));
                profile_span.finish();
                let _fold_span = tempo_obs::span("engine.fold");
                if self.config.decay < 1.0 {
                    window.decay(self.config.decay);
                    tempo_obs::counter("engine.decays").incr();
                }
                stream
                    .fold_into(window)
                    .expect("epoch profiles share the pinned membership by construction");
            }
            _ => {
                // First epoch: identical code path to the one-shot
                // pipeline — select popularity here and pin membership.
                let profile = {
                    let _span = tempo_obs::span("engine.profile");
                    Profiler::new(self.program, self.config.cache)
                        .popularity(self.config.selector)
                        .profile(epoch_trace)
                };
                self.pinned = Some(
                    self.program
                        .ids()
                        .map(|id| profile.popular.is_popular(id))
                        .collect(),
                );
                self.window = Some(profile);
            }
        }
        let window = self
            .window
            .as_ref()
            .expect("window exists after the first epoch");

        // 2. Re-bound the incumbent under the updated window — the cheap
        // half of the drift check. Only `hi` is read, so no lower bound
        // is computed.
        let weight = window.trg_select.total_weight();
        let incumbent_hi = self
            .layout
            .as_ref()
            .map(|current| self.ceiling(current, window));

        // 3. Drift check: estimate what a fresh candidate could bound to
        // from the anchor; place only when the estimated improvement
        // clears the threshold (or there is nothing to estimate from).
        let gate_estimate = match (incumbent_hi, self.anchor) {
            (Some(current_hi), Some(anchor)) if self.config.drift_check => {
                let estimated_fresh = anchor * weight;
                let drift = if current_hi == 0 {
                    0.0
                } else {
                    (current_hi as f64 - estimated_fresh) / current_hi as f64
                };
                if drift < self.config.replace_threshold {
                    // The estimate is anchored to a real u64 ceiling and
                    // scaled by a bounded weight ratio; clamp at zero so
                    // the rounded report stays in range.
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let estimated = estimated_fresh.max(0.0).round() as u64;
                    Some((current_hi, estimated, drift))
                } else {
                    None
                }
            }
            _ => None,
        };
        let (current_hi, fresh_hi, improvement, placed, replaced) = match gate_estimate {
            Some((current_hi, estimated_hi, drift)) => {
                tempo_obs::counter("engine.drift_skips").incr();
                (current_hi, estimated_hi, drift, false, false)
            }
            None => {
                let fresh = {
                    let _span = tempo_obs::span("engine.place");
                    tempo_obs::counter("engine.placements").incr();
                    self.algorithm
                        .place(&PlacementContext::new(self.program, window))
                };
                let fresh_hi = self.ceiling(&fresh, window);
                // Re-anchor on every computed candidate, adopted or not:
                // the estimate must track what placement can currently do.
                self.anchor = Some(if weight > 0.0 {
                    fresh_hi as f64 / weight
                } else {
                    0.0
                });
                let (current_hi, improvement, replaced) = match incumbent_hi {
                    Some(current_hi) => {
                        let improvement = if current_hi == 0 {
                            0.0
                        } else {
                            (current_hi as f64 - fresh_hi as f64) / current_hi as f64
                        };
                        (
                            current_hi,
                            improvement,
                            improvement >= self.config.replace_threshold,
                        )
                    }
                    // No incumbent to defend: adopt unconditionally.
                    None => (fresh_hi, 0.0, true),
                };
                if replaced {
                    tempo_obs::counter("engine.replacements").incr();
                    self.layout = Some(fresh);
                }
                (current_hi, fresh_hi, improvement, true, replaced)
            }
        };

        // 4. Optional per-epoch evaluation against the layout in force
        // during the epoch (falling back to the just-adopted layout when
        // the engine started cold).
        let stats = if self.config.evaluate {
            let layout = in_force.as_ref().or(self.layout.as_ref());
            layout.map(|l| {
                let _span = tempo_obs::span("engine.evaluate");
                simulate(self.program, l, epoch_trace, self.config.cache)
            })
        } else {
            None
        };

        EpochReport {
            epoch: epoch_index,
            records: epoch_trace.len() as u64,
            current_hi,
            fresh_hi,
            improvement,
            placed,
            replaced,
            stats,
        }
    }

    /// The [`miss_bounds`] ceiling of `layout` under `window`.
    fn ceiling(&self, layout: &Layout, window: &ProfileData) -> u64 {
        let _span = tempo_obs::span("engine.bound");
        miss_bounds(
            self.program,
            layout,
            self.config.cache,
            &window.popular,
            None,
        )
        .hi
    }

    /// Consumes a source in the epochs of `plan` — record counts produced
    /// by [`plan_epochs`] so epoch boundaries align with TMP2 frame
    /// boundaries. Records beyond the plan's total are folded into one
    /// trailing epoch (subject to the [`MAX_EPOCH_RECORDS`] buffering
    /// ceiling, which splits a pathological tail rather than holding the
    /// rest of the stream in memory).
    ///
    /// # Errors
    ///
    /// Propagates the first error the source reports.
    pub fn run_planned<S: TraceSource>(
        &mut self,
        mut source: S,
        plan: &[u64],
    ) -> Result<Vec<EpochReport>, TraceIoError> {
        // Past the plan's end everything folds into one trailing epoch:
        // ask for an unbounded chunk and let the ceiling cap it.
        let epoch_len = |i: usize| plan.get(i).copied().unwrap_or(u64::MAX);
        // The requested length is untrusted: a hostile plan entry (or a
        // forged TMP2 frame header feeding `plan_epochs`) must neither
        // drive a huge preallocation nor buffer the entire stream, so the
        // reservation is clamped to what a modest epoch needs and the
        // buffer itself is capped at the configured ceiling — the same
        // don't-trust-the-declared-count discipline as the TMP2 readers.
        let ceiling = self.config.max_epoch_records.clamp(1, MAX_EPOCH_RECORDS);
        let clamped = move |want: u64| want.max(1).min(ceiling);
        #[allow(clippy::cast_possible_truncation)] // bounded by the clamp below
        let prealloc = |want: u64| want.min(EPOCH_PREALLOC_RECORDS) as usize;
        let mut reports = Vec::new();
        let mut chunk = 0usize;
        let mut want = clamped(epoch_len(chunk));
        let mut buffer: Vec<TraceRecord> = Vec::with_capacity(prealloc(want));
        while let Some(record) = source.try_next()? {
            buffer.push(record);
            if buffer.len() as u64 >= want {
                let epoch = Trace::from_records(std::mem::take(&mut buffer));
                reports.push(self.observe_epoch(&epoch));
                chunk += 1;
                want = clamped(epoch_len(chunk));
                buffer.reserve(prealloc(want));
            }
        }
        if !buffer.is_empty() {
            let epoch = Trace::from_records(buffer);
            reports.push(self.observe_epoch(&epoch));
        }
        Ok(reports)
    }
}

/// Hard ceiling on the records buffered for a single epoch by
/// [`Engine::run_planned`]: 8M records (64 MiB of [`TraceRecord`]s). A
/// plan entry beyond this is split at the ceiling instead of buffered — an
/// untrusted plan must never be able to materialize the whole stream.
pub const MAX_EPOCH_RECORDS: u64 = 1 << 23;

/// Largest up-front reservation `run_planned` makes for an epoch buffer
/// (64k records = 512 KiB); bigger epochs grow by pushing, so a forged
/// length costs nothing until real records actually arrive.
const EPOCH_PREALLOC_RECORDS: u64 = 1 << 16;

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("epochs", &self.epochs)
            .field("window", &self.window.is_some())
            .field("layout", &self.layout.is_some())
            .finish()
    }
}

/// Splits a scanned TMP2 frame list into epoch record counts of at least
/// `epoch_records` each, aligned to frame boundaries. The final epoch
/// absorbs any short tail. An empty trace yields no epochs.
pub fn plan_epochs(frames: &[FrameEntry], epoch_records: u64) -> Vec<u64> {
    let target = epoch_records.max(1);
    let mut plan = Vec::new();
    let mut run = 0u64;
    for f in frames {
        run += u64::from(f.records);
        if run >= target {
            plan.push(run);
            run = 0;
        }
    }
    if run > 0 {
        // A short tail stands as its own epoch so the plan's total always
        // covers the trace.
        plan.push(run);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_place::Gbsc;
    use tempo_program::ProcId;
    use tempo_trace::MemorySource;

    fn program() -> Program {
        Program::builder()
            .procedure("a", 4096)
            .procedure("pad", 4096)
            .procedure("b", 4096)
            .build()
            .unwrap()
    }

    fn alternating_trace(program: &Program, reps: usize) -> Trace {
        let ids: Vec<ProcId> = program.ids().collect();
        let mut refs = Vec::new();
        for _ in 0..reps {
            refs.extend([ids[0], ids[2]]);
        }
        Trace::from_full_records(program, refs)
    }

    fn config() -> EngineConfig {
        let mut c = EngineConfig::new(CacheConfig::direct_mapped_8k());
        c.selector = PopularitySelector::all();
        c
    }

    #[test]
    fn single_epoch_matches_one_shot_pipeline() {
        let p = program();
        let t = alternating_trace(&p, 60);
        let algorithm = Gbsc::new();

        let session = crate::Session::new(&p, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .profile(&t);
        let one_shot = session.place(&algorithm);

        let mut engine = Engine::new(&p, &algorithm, config());
        let report = engine.observe_epoch(&t);
        assert!(report.replaced, "a cold engine adopts its first placement");
        assert_eq!(engine.window().unwrap(), session.profile());
        assert_eq!(engine.layout().unwrap(), &one_shot);
    }

    #[test]
    fn undecayed_epochs_accumulate_like_one_profile() {
        // decay = 1.0 and pinned membership: two epochs merge to exactly
        // the one-shot profile of the concatenated trace.
        let p = program();
        let t = alternating_trace(&p, 60);
        let records: Vec<TraceRecord> = t.iter().copied().collect();
        let mid = records.len() / 2;

        let algorithm = Gbsc::new();
        let mut engine = Engine::new(&p, &algorithm, config());
        engine.observe_epoch(&Trace::from_records(records[..mid].to_vec()));
        engine.observe_epoch(&Trace::from_records(records[mid..].to_vec()));

        // The merged window differs from the sequential profile only by
        // seam effects (Q-sets reset at the epoch boundary), which this
        // short alternating trace does not exhibit in the WCG totals.
        let window = engine.window().unwrap();
        let whole = Profiler::new(&p, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .profile(&t);
        assert_eq!(
            window.popular.count_of(ProcId::new(0)),
            whole.popular.count_of(ProcId::new(0))
        );
        assert_eq!(
            window.wcg.total_weight() + 1.0, // one seam transition lost
            whole.wcg.total_weight()
        );
    }

    #[test]
    fn decay_ages_old_epochs_out() {
        let p = program();
        let t = alternating_trace(&p, 50);
        let mut cfg = config();
        cfg.decay = 0.5;
        let algorithm = Gbsc::new();
        let mut engine = Engine::new(&p, &algorithm, cfg);
        engine.observe_epoch(&t);
        let w1 = engine.window().unwrap().wcg.total_weight();
        engine.observe_epoch(&t);
        let w2 = engine.window().unwrap().wcg.total_weight();
        // Window is 0.5*old + new, strictly below 2x one epoch.
        assert!(w2 > w1 && w2 < 2.0 * w1, "w1={w1} w2={w2}");
    }

    #[test]
    fn stable_epochs_skip_replacement() {
        let p = program();
        let t = alternating_trace(&p, 60);
        let mut cfg = config();
        cfg.replace_threshold = 0.01;
        let algorithm = Gbsc::new();
        let mut engine = Engine::new(&p, &algorithm, cfg);
        let first = engine.observe_epoch(&t);
        assert!(first.replaced);
        let adopted = engine.layout().unwrap().clone();
        // The same behaviour again: the incumbent's ceiling tracks the
        // anchor, so the drift check skips before placing anything.
        let second = engine.observe_epoch(&t);
        assert!(!second.placed, "stable window must not pay for placement");
        assert!(!second.replaced, "stable window must not re-place");
        assert_eq!(engine.layout().unwrap(), &adopted);
    }

    #[test]
    fn drift_check_off_places_every_epoch_same_adoptions() {
        // Reference mode: with the gate off the engine places a fresh
        // candidate every epoch, but the adoption decisions — and hence
        // the final layout — match the gated run on a stable stream.
        let p = program();
        let t = alternating_trace(&p, 60);
        let mut gated_cfg = config();
        gated_cfg.replace_threshold = 0.01;
        let mut open_cfg = gated_cfg;
        open_cfg.drift_check = false;
        let algorithm = Gbsc::new();
        let mut gated = Engine::new(&p, &algorithm, gated_cfg);
        let mut open = Engine::new(&p, &algorithm, open_cfg);
        for _ in 0..3 {
            let g = gated.observe_epoch(&t);
            let o = open.observe_epoch(&t);
            assert!(o.placed, "ungated engine always places");
            assert_eq!(g.replaced, o.replaced);
        }
        assert_eq!(gated.layout().unwrap(), open.layout().unwrap());
        assert!(gated.epochs() == 3 && open.epochs() == 3);
    }

    #[test]
    fn negative_threshold_always_replaces() {
        let p = program();
        let t = alternating_trace(&p, 30);
        let mut cfg = config();
        cfg.replace_threshold = f64::NEG_INFINITY;
        let algorithm = Gbsc::new();
        let mut engine = Engine::new(&p, &algorithm, cfg);
        for _ in 0..3 {
            let r = engine.observe_epoch(&t);
            assert!(r.replaced);
        }
    }

    #[test]
    fn settings_are_range_checked_and_nan_threshold_is_refused() {
        assert!(check_engine_settings(0.995, 1, 1.0, f64::NEG_INFINITY).is_ok());
        assert!(check_engine_settings(0.0, 1, 0.5, f64::INFINITY).is_ok());
        for (coverage, epoch_records, decay, threshold, flag) in [
            (1.5, 1, 1.0, 0.02, "--coverage"),
            (-0.1, 1, 1.0, 0.02, "--coverage"),
            (f64::NAN, 1, 1.0, 0.02, "--coverage"),
            (0.995, 0, 1.0, 0.02, "--epoch-records"),
            (0.995, 1, 0.0, 0.02, "--decay"),
            (0.995, 1, f64::NAN, 0.02, "--decay"),
            (0.995, 1, 1.0, f64::NAN, "--replace-threshold"),
        ] {
            let err = check_engine_settings(coverage, epoch_records, decay, threshold).unwrap_err();
            assert!(err.starts_with(flag), "{err}");
        }
        let p = program();
        let algorithm = Gbsc::new();
        let mut cfg = config();
        cfg.replace_threshold = f64::NAN;
        let built = std::panic::catch_unwind(|| Engine::new(&p, &algorithm, cfg).epochs());
        assert!(built.is_err(), "Engine::new accepted a NaN threshold");
    }

    #[test]
    fn seeded_layout_is_defended_not_overwritten() {
        let p = program();
        let t = alternating_trace(&p, 60);
        let seed = Layout::source_order(&p);
        let mut cfg = config();
        cfg.replace_threshold = 0.01;
        let algorithm = Gbsc::new();
        let mut engine = Engine::new(&p, &algorithm, cfg).with_layout(seed.clone());
        let report = engine.observe_epoch(&t);
        // Source order interleaves a and b across the 8k cache (a at 0,
        // b at 8192): GBSC's candidate wins the bound comparison.
        assert!(report.replaced, "drift away from the seed must be caught");
        assert_ne!(engine.layout().unwrap(), &seed);
    }

    #[test]
    fn run_planned_chunks_by_the_plan() {
        let p = program();
        let t = alternating_trace(&p, 50); // 100 records
        let algorithm = Gbsc::new();
        let mut engine = Engine::new(&p, &algorithm, config());
        let reports = engine
            .run_planned(MemorySource::new(&t), &[40, 40, 20])
            .unwrap();
        assert_eq!(
            reports.iter().map(|r| r.records).collect::<Vec<_>>(),
            vec![40, 40, 20]
        );
        assert_eq!(engine.epochs(), 3);
    }

    #[test]
    fn run_planned_folds_overflow_into_one_trailing_epoch() {
        // Regression: records beyond the plan's total used to fall back to
        // epoch_records-sized chunks, contradicting the documented
        // one-trailing-epoch contract.
        let p = program();
        let t = alternating_trace(&p, 50); // 100 records
        let mut cfg = config();
        cfg.epoch_records = 20;
        let algorithm = Gbsc::new();
        let mut engine = Engine::new(&p, &algorithm, cfg);
        let reports = engine.run_planned(MemorySource::new(&t), &[10]).unwrap();
        assert_eq!(
            reports.iter().map(|r| r.records).collect::<Vec<_>>(),
            vec![10, 90],
            "everything past the plan folds into one trailing epoch"
        );
    }

    #[test]
    fn hostile_plan_entry_is_split_at_the_buffer_ceiling() {
        // Regression: a forged plan entry used to size the epoch buffer
        // unclamped; now it is split at the configured ceiling instead of
        // buffering the stream.
        let p = program();
        let t = alternating_trace(&p, 50); // 100 records
        let mut cfg = config();
        cfg.max_epoch_records = 25;
        let algorithm = Gbsc::new();
        let mut engine = Engine::new(&p, &algorithm, cfg);
        let reports = engine
            .run_planned(MemorySource::new(&t), &[u64::MAX])
            .unwrap();
        assert_eq!(
            reports.iter().map(|r| r.records).collect::<Vec<_>>(),
            vec![25, 25, 25, 25],
            "an absurd plan entry must chunk at max_epoch_records"
        );
    }

    #[test]
    fn huge_epoch_records_does_not_preallocate() {
        // An empty plan asks for one unbounded trailing epoch. If
        // run_planned honored that length in its reservation this would
        // abort on an impossible allocation; the clamp makes it a single
        // whole-trace epoch instead.
        let p = program();
        let t = alternating_trace(&p, 50);
        let algorithm = Gbsc::new();
        let mut engine = Engine::new(&p, &algorithm, config());
        let reports = engine.run_planned(MemorySource::new(&t), &[]).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].records, 100);
    }

    #[test]
    fn evaluate_reports_epoch_stats() {
        let p = program();
        let t = alternating_trace(&p, 30);
        let mut cfg = config();
        cfg.evaluate = true;
        let algorithm = Gbsc::new();
        let mut engine = Engine::new(&p, &algorithm, cfg);
        let report = engine.observe_epoch(&t);
        let stats = report.stats.unwrap();
        assert_eq!(stats.records, t.len() as u64);
    }

    #[test]
    fn plan_epochs_aligns_to_frames() {
        let frames: Vec<FrameEntry> = [3u32, 4, 5, 2, 6]
            .iter()
            .map(|&records| FrameEntry {
                offset: 0,
                payload_len: 0,
                records,
            })
            .collect();
        // Target 6: [3+4], [5+2], [6].
        assert_eq!(plan_epochs(&frames, 6), vec![7, 7, 6]);
        // Target larger than the trace: one epoch with everything.
        assert_eq!(plan_epochs(&frames, 100), vec![20]);
        assert_eq!(plan_epochs(&[], 10), Vec::<u64>::new());
    }
}
