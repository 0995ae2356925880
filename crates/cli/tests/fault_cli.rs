//! Fault recovery at the CLI surface, driven through the `tempo-cli`
//! binary exactly as a shell user drives it (DESIGN.md §8, §13):
//!
//! - a truncated trace is refused by strict `profile` with a structured
//!   error, and `--lossy` recovers a profile that `place` (under a time
//!   budget) and `analyze` accept;
//! - a sharded `profile --checkpoint-dir` run killed with SIGKILL once its
//!   first checkpoint lands resumes with `--resume` to a profile
//!   byte-identical to an uninterrupted run.

#![allow(clippy::unwrap_used)] // test code asserts by panicking

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tempo-fault-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The CLI binary in `dir`, with `line`'s whitespace-separated words as
/// its arguments.
fn command(dir: &Path, line: &str) -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_tempo-cli"));
    c.args(line.split_whitespace()).current_dir(dir);
    c
}

fn output(dir: &Path, line: &str) -> Output {
    command(dir, line).output().expect("tempo-cli starts")
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

/// The resumed count of the `sharded profile: 8 shards (N resumed, N
/// retries, 0 quarantined)` summary line, failing on any other shape.
fn resumed_shards(stdout: &str) -> u32 {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("sharded profile: "))
        .unwrap_or_else(|| panic!("no shard summary in: {stdout}"));
    let rest = line
        .strip_prefix("sharded profile: 8 shards (")
        .unwrap_or_else(|| panic!("not 8 shards: {line}"));
    let (counts, _) = rest.split_once(')').unwrap();
    let words: Vec<&str> = counts.split_whitespace().collect();
    assert_eq!(words.len(), 6, "{line}");
    assert_eq!(
        [words[1], words[3], words[4], words[5]],
        ["resumed,", "retries,", "0", "quarantined"],
        "{line}"
    );
    words[2].parse::<u32>().unwrap();
    words[0].parse().unwrap()
}

#[test]
fn killed_sharded_profile_resumes_byte_identically() {
    let dir = workdir("resume");
    let d = dir.as_path();
    tempo(
        d,
        "generate --bench perl --records 300000 --input train --program p.procs --trace p.trace",
    );
    tempo(d, "convert --in p.trace --out p.v2 --to v2");
    let sharded = "profile --program p.procs --trace p.v2 --shards 8 --jobs 2";
    tempo(d, &format!("{sharded} --out ref.profile"));

    // Kill the run as soon as its first checkpoint is renamed into place,
    // so at least one shard is complete and most are still to do.
    std::fs::create_dir(d.join("ckpt")).unwrap();
    let mut victim = command(
        d,
        &format!("{sharded} --checkpoint-dir ckpt --out killed.profile"),
    )
    .stdout(Stdio::null())
    .stderr(Stdio::null())
    .spawn()
    .expect("tempo-cli starts");
    let checkpointed = || {
        std::fs::read_dir(d.join("ckpt")).unwrap().any(|e| {
            let name = e.unwrap().file_name();
            let name = name.to_string_lossy();
            name.starts_with("shard-") && name.ends_with(".profile")
        })
    };
    let started = Instant::now();
    while !checkpointed() {
        if victim.try_wait().unwrap().is_some() {
            break; // finished first; the resume then covers every shard
        }
        assert!(
            started.elapsed() < Duration::from_secs(300),
            "no checkpoint appeared"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = victim.kill(); // SIGKILL
    victim.wait().unwrap();
    assert!(checkpointed());

    let stdout = tempo(
        d,
        &format!("{sharded} --checkpoint-dir ckpt --resume --out resumed.profile"),
    );
    assert!((1..=8).contains(&resumed_shards(&stdout)), "{stdout}");
    assert_eq!(
        std::fs::read(d.join("resumed.profile")).unwrap(),
        std::fs::read(d.join("ref.profile")).unwrap(),
        "resume must reproduce the uninterrupted profile byte for byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
