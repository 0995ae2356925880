//! Acceptance harness for the drift-adaptation experiment: at the
//! experiment's curated scale the incremental engine must (a) beat the
//! frozen training-run layout on post-shift miss rate, and (b) skip at
//! least half of the re-placements through the cheap drift check without
//! ending on a different layout than the engine that pays for a fresh
//! placement every epoch.

#![allow(clippy::unwrap_used)] // test code asserts by panicking

use std::collections::HashMap;

use tempo_bench::harness::{find, Ctx};
use tempo_bench::CommonArgs;

#[test]
fn adaptive_beats_frozen_and_drift_check_is_sound() {
    let spec = find("drift_adapt").expect("drift_adapt is registered");
    let args = CommonArgs {
        records: spec.default_records,
        seed: 0xBA5E,
        runs: spec.default_runs,
        jobs: 2,
        prefilter: false,
    };
    let mut ctx = Ctx::new(args, None);
    (spec.run)(&mut ctx).expect("experiment runs");
    let output = ctx.finish();
    let metrics: HashMap<&str, f64> = output
        .metrics
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();

    for bench in ["m88ksim", "go", "vortex"] {
        let frozen = metrics[format!("{bench}_frozen_miss_rate").as_str()];
        let adapted = metrics[format!("{bench}_adapted_miss_rate").as_str()];
        assert!(
            adapted < frozen,
            "{bench}: adaptive {adapted} must beat frozen {frozen}"
        );
        let skip = metrics[format!("{bench}_skip_fraction").as_str()];
        assert!(
            skip >= 0.5,
            "{bench}: drift check skipped only {skip:.0?} of re-placements"
        );
        let matched = metrics[format!("{bench}_layouts_match").as_str()];
        assert!(
            (matched - 1.0).abs() < f64::EPSILON,
            "{bench}: drift-checked final layout diverged from the every-epoch run"
        );
    }
    assert!(metrics["mean_skip_fraction"] >= 0.5);
}
