//! Fault recovery at the CLI surface, driven through the `tempo-cli`
//! binary exactly as a shell user drives it (DESIGN.md §8): a truncated
//! trace is refused by strict `profile` with a structured error, and
//! `--lossy` recovers a profile that `place` (under a time budget) and
//! `analyze` accept.

#![allow(clippy::unwrap_used)] // test code asserts by panicking

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tempo-fault-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs the CLI binary in `dir`, with `line`'s whitespace-separated
/// words as its arguments.
fn output(dir: &Path, line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tempo-cli"))
        .args(line.split_whitespace())
        .current_dir(dir)
        .output()
        .expect("tempo-cli starts")
}

/// Runs `tempo-cli line` in `dir`, failing the test on a non-zero exit;
/// returns its stdout.
fn tempo(dir: &Path, line: &str) -> String {
    let out = output(dir, line);
    assert!(
        out.status.success(),
        "tempo-cli {line} exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn lossy_profile_recovers_a_truncated_trace() {
    let dir = workdir("lossy");
    let d = dir.as_path();
    tempo(
        d,
        "generate --bench m88ksim --records 50000 --input train --program m.procs --trace full.trace",
    );
    let full = std::fs::read(d.join("full.trace")).unwrap();
    std::fs::write(d.join("cut.trace"), &full[..20_000]).unwrap();

    let strict = output(
        d,
        "profile --program m.procs --trace cut.trace --out strict.profile",
    );
    assert!(
        !strict.status.success(),
        "strict mode accepted a truncated trace"
    );
    let why = String::from_utf8_lossy(&strict.stderr);
    assert!(why.contains("trace truncated"), "unstructured error: {why}");
    assert!(!d.join("strict.profile").exists());

    tempo(
        d,
        "profile --program m.procs --trace cut.trace --lossy --out m.profile",
    );
    tempo(
        d,
        "place --program m.procs --profile m.profile --algorithm gbsc --budget-ms 5000 --out m.layout",
    );
    tempo(
        d,
        "analyze --program m.procs --layout m.layout --profile m.profile",
    );
    let _ = std::fs::remove_dir_all(&dir);
}
