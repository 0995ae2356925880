//! Fault recovery at the CLI surface, driven through the `tempo-cli`
//! binary exactly as a shell user drives it (DESIGN.md §8): a trace cut
//! mid-frame is refused by strict `profile` with a structured error, and
//! `--lossy` recovers a profile that `place` (under a time budget) and
//! `analyze` accept; a hostile profile file is refused with exit 1, never
//! a panic.

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
    // The cut lands inside a frame, which strict reading names.
    let why = String::from_utf8_lossy(&strict.stderr);
    assert!(why.contains("is corrupt"), "unstructured error: {why}");
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

/// `text` with the first entry line of section `header` (the line after
/// the one starting `header `) replaced by `line`.
fn with_entry(text: &str, header: &str, line: &str) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.starts_with(&format!("{header} ")))
        .unwrap();
    lines[at + 1] = line;
    lines.join("\n") + "\n"
}

/// Runs `line` in `dir` and returns its stderr, asserting exit status 1:
/// a refused input, never a panic (101).
fn refused(dir: &Path, line: &str) -> String {
    let out = output(dir, line);
    assert_eq!(
        out.status.code(),
        Some(1),
        "tempo-cli {line}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stderr).unwrap()
}

#[test]
fn hostile_profiles_are_refused_without_panicking() {
    let dir = workdir("hostile");
    let d = dir.as_path();
    tempo(
        d,
        "generate --bench perl --records 20000 --input train --program p.procs --trace t.trace",
    );
    tempo(
        d,
        "profile --program p.procs --trace t.trace --out p.profile",
    );
    tempo(
        d,
        "profile --program p.procs --trace t.trace --cache 8192x32x2 --pair-db --out sa.profile",
    );
    tempo(
        d,
        "place --program p.procs --profile p.profile --algorithm gbsc --out p.layout",
    );
    let text = std::fs::read_to_string(d.join("p.profile")).unwrap();
    let sa = std::fs::read_to_string(d.join("sa.profile")).unwrap();
    for (header, line, why) in [
        // A self-loop, a procedure id past the program, a NaN weight.
        ("wcg", "0 0 332", "malformed profile line"),
        ("wcg", "4000000000 29 332", "malformed profile line"),
        ("wcg", "1 29 NaN", "malformed profile line"),
        ("trg_select", "0 1 -4", "malformed profile line"),
        // Chunk ids parse, but do not fit the program.
        (
            "trg_place",
            "0 4000000000 5",
            "trg_place names node 4000000000",
        ),
    ] {
        std::fs::write(d.join("bad.profile"), with_entry(&text, header, line)).unwrap();
        for algorithm in ["gbsc", "ph", "hkc"] {
            let err = refused(
                d,
                &format!(
                    "place --program p.procs --profile bad.profile --algorithm {algorithm} --out x.layout"
                ),
            );
            assert!(err.contains(why), "{header} `{line}`: {err}");
        }
        let err = refused(
            d,
            "analyze --program p.procs --layout p.layout --profile bad.profile",
        );
        assert!(err.contains(why), "analyze, {header} `{line}`: {err}");
    }
    std::fs::write(
        d.join("bad.profile"),
        with_entry(&sa, "pairdb", "0 1 4000000000 1"),
    )
    .unwrap();
    let err = refused(
        d,
        "place --program p.procs --profile bad.profile --algorithm gbsc-sa --out x.layout",
    );
    assert!(err.contains("pair database names chunks"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
