//! The static-analysis gate, driven through the `tempo-cli` binary
//! exactly as a shell user drives it (DESIGN.md §7, §12): a GBSC layout
//! of a Table-1 workload passes the analyzer clean under
//! `--deny warnings`, `--bounds` reports the conflict-miss interval, and
//! `--metrics-out` times the analysis by layer without changing the
//! report.

#![allow(clippy::unwrap_used)] // test code asserts by panicking

use std::path::{Path, PathBuf};
use std::process::Command;

use tempo_obs::{MetricValue, Snapshot};

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tempo-analyze-gate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs `tempo-cli line` in `dir`, failing the test on a non-zero exit;
/// returns its stdout.
fn tempo(dir: &Path, line: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tempo-cli"))
        .args(line.split_whitespace())
        .current_dir(dir)
        .output()
        .expect("tempo-cli starts");
    assert!(
        out.status.success(),
        "tempo-cli {line} exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn gbsc_layout_passes_the_analyzer_clean_and_reports_miss_bounds() {
    let dir = workdir("gbsc");
    let d = dir.as_path();
    tempo(
        d,
        "generate --bench perl --records 50000 --input train --program perl.procs --trace train.trace",
    );
    tempo(
        d,
        "profile --program perl.procs --trace train.trace --out perl.profile",
    );
    tempo(
        d,
        "place --program perl.procs --profile perl.profile --algorithm gbsc --out perl.layout",
    );
    let analyzed = "analyze --program perl.procs --layout perl.layout --profile perl.profile";
    tempo(d, &format!("{analyzed} --format json --deny warnings"));
    let bounds = tempo(d, &format!("{analyzed} --bounds"));
    assert!(bounds.contains("miss bounds:"), "{bounds}");

    // The stage span and one sample per layer; the report is unchanged.
    let timed = tempo(
        d,
        &format!("{analyzed} --bounds --metrics-out analyze.json"),
    );
    assert_eq!(timed, bounds, "instrumentation changed the report");
    let snap =
        Snapshot::parse_json(&std::fs::read_to_string(d.join("analyze.json")).unwrap()).unwrap();
    for name in [
        "stage.analyze",
        "analyze.rules",
        "analyze.predict",
        "analyze.miss_bounds",
    ] {
        match snap.get(name) {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count, 1, "{name}"),
            other => panic!("{name} is not a span histogram: {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
