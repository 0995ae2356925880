//! The unified evaluation driver.
//!
//! Subcommands:
//!
//! * `run-all` — run every registered experiment (or a `--only` subset)
//!   through the shared harness, writing `results/`-style outputs plus a
//!   machine-readable `BENCH_run.json`. Exit 0 when every experiment
//!   completed, 1 when any failed, 2 on usage/filesystem errors.
//! * `list` — print the experiment registry.
//! * `check-regression` — compare a `BENCH_run.json` against a checked-in
//!   baseline: simulated miss counts and the Q-pass profile counters
//!   (evictions, graph edge counts) must match exactly, total wall time
//!   must stay within the slack, and per-experiment streaming throughput
//!   must stay above the ratchet floor. Exit 0 pass, 1 fail, 2 on errors.

use std::path::PathBuf;
use std::process::ExitCode;

use tempo_bench::harness::{self, RunAllOpts, RunAllReport};

const USAGE: &str = "usage: tempo-bench <command> [options]

commands:
  run-all            run every experiment through the shared harness
    --records N        override every experiment's trace length
    --runs N           override every experiment's randomized-run count
    --jobs N           worker threads (default: available parallelism)
    --seed N           RNG seed (default 0xBA5E)
    --out-dir DIR      output directory (default: results)
    --bench-json PATH  machine-readable run record (default: BENCH_run.json)
    --no-bench-json    skip the run record
    --only NAMES       comma-separated subset of experiments
    --quiet            suppress per-experiment progress on stderr
    --prefilter        screen candidate layouts with the static
                       miss-bound analyzer before simulating
                       (experiments that support it: cache_sweep)
  list               print the experiment registry
  check-regression   compare a run record against a baseline
    --current PATH     run record to check (default: BENCH_run.json)
    --baseline PATH    baseline record (default: results/bench_baseline.json)
    --wall-slack PCT   allowed total wall-time regression (default 20)
    --throughput-floor PCT
                       minimum records/sec retained per experiment, as a
                       percentage of the baseline's records_per_sec
                       metric (default 70; experiments without the
                       metric are exempt)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run-all") => run_all(&args[1..]),
        Some("list") => {
            list();
            ExitCode::SUCCESS
        }
        Some("check-regression") => check_regression(&args[1..]),
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("tempo-bench: unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn list() {
    println!(
        "{:<22} {:>8} {:>5} {:>4}  title",
        "experiment", "records", "runs", "csv"
    );
    for spec in harness::REGISTRY {
        println!(
            "{:<22} {:>8} {:>5} {:>4}  {}",
            spec.name,
            spec.default_records,
            spec.default_runs,
            if spec.has_csv { "yes" } else { "no" },
            spec.title
        );
    }
}

fn run_all(args: &[String]) -> ExitCode {
    let mut opts = RunAllOpts {
        verbose: true,
        ..RunAllOpts::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--records" => match it.next().and_then(|s| s.parse().ok()) {
                Some(v) => opts.records = Some(v),
                None => return usage_error("--records needs a number"),
            },
            "--runs" => match it.next().and_then(|s| s.parse().ok()) {
                Some(v) => opts.runs = Some(v),
                None => return usage_error("--runs needs a number"),
            },
            "--jobs" => match it.next().and_then(|s| s.parse().ok()) {
                Some(v) => opts.jobs = v,
                None => return usage_error("--jobs needs a number"),
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(v) => opts.seed = v,
                None => return usage_error("--seed needs a number"),
            },
            "--out-dir" => match it.next() {
                Some(v) => opts.out_dir = PathBuf::from(v),
                None => return usage_error("--out-dir needs a path"),
            },
            "--bench-json" => match it.next() {
                Some(v) => opts.bench_json = Some(PathBuf::from(v)),
                None => return usage_error("--bench-json needs a path"),
            },
            "--no-bench-json" => opts.bench_json = None,
            "--only" => match it.next() {
                Some(v) => {
                    opts.only = Some(v.split(',').map(|s| s.trim().to_string()).collect());
                }
                None => return usage_error("--only needs a comma-separated list"),
            },
            "--quiet" => opts.verbose = false,
            "--prefilter" => opts.prefilter = true,
            other => return usage_error(&format!("unknown run-all flag `{other}`")),
        }
    }

    match harness::run_all(&opts) {
        Ok(report) => {
            let failed: Vec<&str> = report
                .experiments
                .iter()
                .filter(|e| !e.ok)
                .map(|e| e.name.as_str())
                .collect();
            eprintln!(
                "tempo-bench: {} experiments, {:.1} s wall, {} jobs{}",
                report.experiments.len(),
                report.total_wall_ms / 1e3,
                report.jobs,
                if failed.is_empty() {
                    String::new()
                } else {
                    format!(", FAILED: {}", failed.join(", "))
                }
            );
            if failed.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("tempo-bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn check_regression(args: &[String]) -> ExitCode {
    let mut current = PathBuf::from("BENCH_run.json");
    let mut baseline = PathBuf::from("results/bench_baseline.json");
    let mut wall_slack = 20.0f64;
    let mut throughput_floor = 70.0f64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--current" => match it.next() {
                Some(v) => current = PathBuf::from(v),
                None => return usage_error("--current needs a path"),
            },
            "--baseline" => match it.next() {
                Some(v) => baseline = PathBuf::from(v),
                None => return usage_error("--baseline needs a path"),
            },
            "--wall-slack" => match it.next().and_then(|s| s.parse().ok()) {
                Some(v) => wall_slack = v,
                None => return usage_error("--wall-slack needs a number"),
            },
            "--throughput-floor" => match it.next().and_then(|s| s.parse().ok()) {
                Some(v) => throughput_floor = v,
                None => return usage_error("--throughput-floor needs a number"),
            },
            other => return usage_error(&format!("unknown check-regression flag `{other}`")),
        }
    }

    let load = |path: &PathBuf| -> Result<RunAllReport, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        RunAllReport::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (cur, base) = match (load(&current), load(&baseline)) {
        (Ok(c), Ok(b)) => (c, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("tempo-bench: {e}");
            return ExitCode::from(2);
        }
    };

    let verdict = harness::check_regression(&cur, &base, wall_slack, throughput_floor);
    for note in &verdict.notes {
        eprintln!("tempo-bench: note: {note}");
    }
    if verdict.ok() {
        eprintln!(
            "tempo-bench: regression gate PASSED ({} baseline experiments)",
            base.experiments.len()
        );
        ExitCode::SUCCESS
    } else {
        for failure in &verdict.failures {
            eprintln!("tempo-bench: FAIL: {failure}");
        }
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("tempo-bench: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}
