//! The epoch engine's contracts, checked through the `tempo-cli` binary
//! exactly as a shell user drives it (DESIGN.md §15):
//!
//! - a single epoch with `--decay 1.0` is the one-shot pipeline: its
//!   layout is byte-identical to `profile` + `place`;
//! - a multi-epoch run accounts for every epoch (placed or drift-skipped),
//!   decays before every epoch but the first, actually skips placements on
//!   a stable training stream, and reports its stage and epoch spans.

#![allow(clippy::unwrap_used)] // test code asserts by panicking

use std::path::{Path, PathBuf};
use std::process::Command;

use tempo_obs::{MetricValue, Snapshot};

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tempo-engine-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs the CLI binary in `dir`, failing the test on a non-zero exit.
fn tempo(dir: &Path, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_tempo-cli"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("tempo-cli starts");
    assert!(
        out.status.success(),
        "tempo-cli {args:?} exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

fn snapshot(path: &Path) -> Snapshot {
    Snapshot::parse_json(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

/// Samples of a span, failing the test when it is missing or not a
/// histogram.
fn span_count(snap: &Snapshot, name: &str) -> u64 {
    match snap.get(name) {
        Some(MetricValue::Histogram(h)) => h.count,
        other => panic!("{name} is not a span histogram: {other:?}"),
    }
}

#[test]
fn engine_is_the_one_shot_pipeline_and_accounts_for_every_epoch() {
    let dir = workdir("smoke");
    let d = dir.as_path();
    tempo(
        d,
        &[
            "generate",
            "--bench",
            "m88ksim",
            "--records",
            "100000",
            "--input",
            "train",
            "--program",
            "m.procs",
            "--trace",
            "m.v2",
        ],
    );

    // One epoch spanning the whole trace, no decay: the one-shot pipeline.
    tempo(
        d,
        &[
            "profile",
            "--program",
            "m.procs",
            "--trace",
            "m.v2",
            "--out",
            "m.profile",
        ],
    );
    tempo(
        d,
        &[
            "place",
            "--program",
            "m.procs",
            "--profile",
            "m.profile",
            "--algorithm",
            "gbsc",
            "--out",
            "oneshot.layout",
        ],
    );
    tempo(
        d,
        &[
            "engine",
            "--program",
            "m.procs",
            "--trace",
            "m.v2",
            "--decay",
            "1.0",
            "--epoch-records",
            "100000",
            "--out",
            "engine.layout",
            "--metrics-out",
            "engine-single.json",
        ],
    );
    assert!(
        std::fs::read(d.join("engine.layout")).unwrap()
            == std::fs::read(d.join("oneshot.layout")).unwrap(),
        "single-epoch engine layout differs from profile + place"
    );
    let single = snapshot(&d.join("engine-single.json"));
    for name in ["engine.epochs", "engine.placements", "engine.replacements"] {
        assert_eq!(counter(&single, name), 1, "{name}");
    }

    // A real epoch loop with an aging window.
    tempo(
        d,
        &[
            "engine",
            "--program",
            "m.procs",
            "--trace",
            "m.v2",
            "--decay",
            "0.5",
            "--epoch-records",
            "10000",
            "--replace-threshold",
            "0.02",
            "--out",
            "adaptive.layout",
            "--epochs-out",
            "epochs.csv",
            "--metrics-out",
            "engine-multi.json",
        ],
    );
    let multi = snapshot(&d.join("engine-multi.json"));
    // Epoch boundaries are frame-aligned, so the count follows the TMP2
    // frame plan rather than --epoch-records exactly.
    let epochs = counter(&multi, "engine.epochs");
    assert!(epochs >= 5, "{epochs} epochs");
    assert_eq!(counter(&multi, "engine.decays"), epochs - 1);
    let placed = counter(&multi, "engine.placements");
    let skipped = counter(&multi, "engine.drift_skips");
    assert_eq!(placed + skipped, epochs, "every epoch places or skips");
    assert!(skipped > 0, "the drift check never skipped");
    let csv = std::fs::read_to_string(d.join("epochs.csv")).unwrap();
    assert_eq!(
        csv.lines().count() as u64,
        epochs + 1,
        "one CSV row per epoch"
    );

    // The spans that split an epoch: the whole run, each epoch, its
    // Q-pass, the decay-and-fold of every epoch after the first, one
    // ceiling per incumbent re-bound and per fresh candidate, and each
    // placement.
    assert_eq!(span_count(&multi, "stage.engine"), 1);
    assert_eq!(span_count(&multi, "engine.epoch"), epochs);
    assert_eq!(span_count(&multi, "engine.profile"), epochs);
    assert_eq!(span_count(&multi, "engine.fold"), epochs - 1);
    assert_eq!(span_count(&multi, "engine.bound"), (epochs - 1) + placed);
    assert_eq!(span_count(&multi, "engine.place"), placed);
    let _ = std::fs::remove_dir_all(&dir);
}
