//! Drift adaptation: incremental engine vs a frozen training-run layout.
//!
//! The one-shot pipeline places once, on the training input, and the
//! layout then rides out whatever the deployed workload does. This
//! experiment measures what that costs under input drift, and what the
//! incremental [`Engine`] buys back:
//!
//! 1. **frozen** — GBSC placed over the training trace, never touched
//!    again; every epoch of the drifted (testing-input) stream is
//!    simulated against it.
//! 2. **adaptive** — an engine seeded with the frozen layout consumes the
//!    same drifted stream in epochs with a decaying window; the drift
//!    check skips re-placement while the incumbent's miss-bound ceiling
//!    tracks the anchor, and adopts a fresh candidate only on a
//!    threshold-clearing improvement.
//! 3. **every-epoch** — the same engine with the drift check disabled: a
//!    fresh candidate is placed every epoch under the identical adoption
//!    rule. The drift check is sound exactly when this run's final layout
//!    matches the adaptive run's (`match` column).
//! 4. **replace-always** — a negative threshold adopts the fresh
//!    placement every epoch: the upper bound on adaptation.
//!
//! Both engine runs evaluate each epoch against the layout in force
//! *during* that epoch, so the adaptive miss counts include the epochs
//! spent discovering the drift. The frozen baseline is simulated with the
//! same per-epoch restarts, keeping cold-start effects identical across
//! the three columns.

use tempo::prelude::*;
use tempo::workloads::suite;
use tempo::workloads::{BenchmarkModel, InputSpec};
use tempo::{EngineConfig, EpochReport};

use crate::harness::{outln, Ctx, ExperimentError};

/// Records in the training trace and again in the drifted stream. The
/// scenario is curated: drift amplitude, epoch count, decay, and
/// threshold are calibrated together at this scale so the frozen layout
/// genuinely goes stale and the drift check has stable stretches to
/// absorb — a global `--records` override would silently break that
/// calibration, so this experiment pins its own scale (and says so in
/// the report header).
const RECORDS: usize = 60_000;
/// Epochs the drifted stream is cut into. Enough post-adoption epochs for
/// the decayed window to converge on the drifted distribution, so the
/// thresholded run's final layout matches replace-always.
const EPOCHS: usize = 10;
/// Window decay per epoch: old evidence halves every epoch, so the
/// training-era profile stops dominating the window quickly after a shift
/// and the window converges fast on the post-shift distribution.
const DECAY: f64 = 0.5;
/// Fractional miss-bound improvement required to adopt a fresh layout.
const THRESHOLD: f64 = 0.02;

struct Outcome {
    reports: Vec<EpochReport>,
    layout: Layout,
}

/// Runs one engine over `epochs`, seeded with `frozen`, returning the
/// per-epoch reports and the final layout.
fn run_engine(
    model: &BenchmarkModel,
    frozen: &Layout,
    epochs: &[Trace],
    threshold: f64,
    drift_check: bool,
) -> Outcome {
    let mut config = EngineConfig::new(CacheConfig::direct_mapped_8k());
    config.selector = PopularitySelector::all();
    config.decay = DECAY;
    config.replace_threshold = threshold;
    config.drift_check = drift_check;
    config.evaluate = true;
    let algorithm = Gbsc::new();
    let mut engine = Engine::new(model.program(), &algorithm, config).with_layout(frozen.clone());
    let reports: Vec<EpochReport> = epochs.iter().map(|e| engine.observe_epoch(e)).collect();
    let layout = engine
        .layout()
        .expect("engine observed at least one epoch")
        .clone();
    Outcome { reports, layout }
}

/// The post-shift input: the model's own testing input pushed further
/// along every drift axis the generator exposes — the hot working sets
/// rotate far from training, callee skew flattens, and cold calls double.
fn drifted_input(model: &BenchmarkModel) -> InputSpec {
    let mut input = model.testing_input();
    input.phase_shift += 17;
    input.skew_delta += 0.6;
    input.dwell_factor *= 0.5;
    input.cold_factor *= 2.0;
    input
}

fn miss_rate(misses: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let rate = misses as f64 / instructions as f64;
    rate
}

pub(crate) fn run(ctx: &mut Ctx) -> Result<(), ExperimentError> {
    let cache = CacheConfig::direct_mapped_8k();
    let records = RECORDS;
    // The three suite models whose drifted inputs actually invalidate the
    // frozen layout: the engine adopts a replacement early and the drift
    // check then absorbs the stable post-shift stretches. (perl and gcc
    // barely drift under the same shift — their frozen layouts stay
    // within the threshold — so they exercise nothing here.)
    let models = [suite::m88ksim(), suite::go(), suite::vortex()];

    outln!(
        ctx,
        "drift adaptation ({records} train + {records} drifted records \
         [curated scale; --records ignored], \
         {EPOCHS} epochs, decay {DECAY}, threshold {THRESHOLD}):"
    );
    outln!(
        ctx,
        "{:<12} {:>9} {:>9} {:>9} {:>11} {:>7}",
        "bench",
        "frozen%",
        "adapt%",
        "always%",
        "repl/skip",
        "match"
    );

    let mut all_match = true;
    let mut total_skip_fraction = 0.0;
    for model in &models {
        let program = model.program();
        // Frozen baseline: the ordinary one-shot pipeline on the
        // training input.
        let train = model.trace(&model.training_input(), records);
        let session = Session::new(program, cache)
            .popularity(PopularitySelector::all())
            .profile(&train);
        let frozen = session.place(&Gbsc::new());

        // The deployed stream drifts: the testing input's phase structure
        // and procedure mix diverge from training. Cut it into the epoch
        // sizes both engines and the frozen baseline share.
        let drifted = model.trace(&drifted_input(model), records);
        let per_epoch = (drifted.len() / EPOCHS).max(1);
        let epochs: Vec<Trace> = drifted
            .records()
            .chunks(per_epoch)
            .map(|c| Trace::from_records(c.to_vec()))
            .collect();

        let adaptive = run_engine(model, &frozen, &epochs, THRESHOLD, true);
        let every_epoch = run_engine(model, &frozen, &epochs, THRESHOLD, false);
        let always = run_engine(model, &frozen, &epochs, f64::NEG_INFINITY, false);

        // Frozen layout, simulated with the same per-epoch restarts the
        // engines pay.
        let mut frozen_misses = 0u64;
        let mut frozen_instructions = 0u64;
        for epoch in &epochs {
            let stats = ctx.tally(simulate(program, &frozen, epoch, cache));
            frozen_misses += stats.misses;
            frozen_instructions += stats.instructions;
        }

        let sum = |reports: &[EpochReport]| -> (u64, u64) {
            reports
                .iter()
                .filter_map(|r| r.stats)
                .fold((0, 0), |(m, i), s| (m + s.misses, i + s.instructions))
        };
        let (adapt_misses, adapt_instructions) = sum(&adaptive.reports);
        let (always_misses, always_instructions) = sum(&always.reports);
        for r in adaptive.reports.iter().chain(&always.reports) {
            if let Some(s) = r.stats {
                ctx.tally(s);
            }
        }

        let replacements = adaptive.reports.iter().filter(|r| r.replaced).count();
        let skips = adaptive.reports.iter().filter(|r| !r.placed).count();
        let layouts_match = adaptive.layout == every_epoch.layout;
        all_match &= layouts_match;
        #[allow(clippy::cast_precision_loss)]
        let skip_fraction = skips as f64 / adaptive.reports.len() as f64;
        total_skip_fraction += skip_fraction;

        let frozen_rate = miss_rate(frozen_misses, frozen_instructions);
        let adapt_rate = miss_rate(adapt_misses, adapt_instructions);
        let always_rate = miss_rate(always_misses, always_instructions);
        outln!(
            ctx,
            "{:<12} {:>8.3}% {:>8.3}% {:>8.3}% {:>6}/{:<4} {:>7}",
            model.name(),
            frozen_rate * 100.0,
            adapt_rate * 100.0,
            always_rate * 100.0,
            replacements,
            skips,
            if layouts_match { "yes" } else { "NO" }
        );

        let tag = model.name().to_string();
        ctx.metric(&format!("{tag}_frozen_miss_rate"), frozen_rate);
        ctx.metric(&format!("{tag}_adapted_miss_rate"), adapt_rate);
        ctx.metric(&format!("{tag}_always_miss_rate"), always_rate);
        ctx.metric(&format!("{tag}_skip_fraction"), skip_fraction);
        ctx.metric(
            &format!("{tag}_layouts_match"),
            if layouts_match { 1.0 } else { 0.0 },
        );
    }

    #[allow(clippy::cast_precision_loss)]
    let mean_skip = total_skip_fraction / models.len() as f64;
    ctx.metric("mean_skip_fraction", mean_skip);
    outln!(
        ctx,
        "\nadapt% counts the epochs spent detecting the drift; always% adopts a\n\
         fresh placement every epoch and is the adaptation ceiling. `match` =\n\
         the drift-checked engine ends on the layout the same engine reaches\n\
         when it pays for a fresh placement every epoch."
    );
    if !all_match {
        outln!(
            ctx,
            "warning: a drift-checked run diverged from its every-epoch layout"
        );
    }
    Ok(())
}
