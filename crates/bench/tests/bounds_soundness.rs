//! The miss-bound soundness contract (DESIGN.md §12) through the
//! `run-all` driver: `bounds_soundness` runs `cross_validate_bounds` in
//! strict mode on all six Table 1 workloads, so a simulated conflict
//! count outside its static `[lo, hi]` interval fails the experiment.
//! The run record must say the experiment passed with zero violations.

#![allow(clippy::unwrap_used)] // test code asserts by panicking

use std::fs;

use tempo_bench::harness::{run_all, RunAllOpts};
use tempo_obs::json::Json;

#[test]
fn bounds_soundness_reports_zero_violations() {
    let dir = std::env::temp_dir().join(format!("tempo-bounds-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let record = dir.join("BENCH_bounds.json");
    let opts = RunAllOpts {
        records: Some(20_000),
        jobs: 2,
        out_dir: dir.clone(),
        bench_json: Some(record.clone()),
        only: Some(vec!["bounds_soundness".to_string()]),
        ..RunAllOpts::default()
    };
    let report = run_all(&opts).unwrap();
    assert_eq!(report.experiments.len(), 1);
    assert!(
        report.experiments[0].ok,
        "{:?}",
        report.experiments[0].error
    );

    let text = fs::read_to_string(dir.join("bounds_soundness.txt")).unwrap();
    assert!(
        text.lines().any(|l| l.starts_with("0 violations across")),
        "{text}"
    );

    // Read the run record back the way any consumer of BENCH_run.json would.
    let doc = Json::parse(&fs::read_to_string(&record).unwrap()).unwrap();
    let exp = &doc.get("experiments").and_then(Json::as_array).unwrap()[0];
    assert_eq!(
        exp.get("name").and_then(Json::as_str),
        Some("bounds_soundness")
    );
    assert_eq!(exp.get("ok").and_then(Json::as_bool), Some(true));
    let metrics = exp.get("metrics").unwrap();
    assert_eq!(
        metrics.get("bounds.violations").and_then(Json::as_f64),
        Some(0.0)
    );
    assert!(metrics.get("bounds.intervals").and_then(Json::as_u64) >= Some(24));

    let _ = fs::remove_dir_all(&dir);
}
