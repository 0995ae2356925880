//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//! ```
//!
//! Runs one workload through the public `tempo` / `tempo-daemon` API,
//! checks its outputs, and prints a report whose last line is one JSON
//! object: `correct`, `attempted`, `failed` and the metrics of the mode —
//! end-to-end metrics untraced, the per-layer ledger traced. See
//! `README.md` next to this crate for the workloads and metrics.

mod drift;
mod fixture;
mod offline;
mod report;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    workload: String,
    /// Workload seed, mixed into the generated inputs.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run: report the per-layer ledger.
    pub traced: bool,
    /// Directory for fixture files and the daemon socket.
    pub workdir: PathBuf,
    /// Print the `pins.txt` lines for this seed instead of measuring.
    pub emit_pins: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: fixture::DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        workdir: PathBuf::from("."),
        emit_pins: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--emit-pins" {
            args.emit_pins = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
            }
            "--trace" => args.traced = value.parse::<u8>().map_err(bad)? != 0,
            "--workdir" => args.workdir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "offline_gcc_dm" => offline::run(&offline::gcc_dm(), &args),
        "setassoc_m88ksim" => offline::run(&offline::m88ksim_sa(), &args),
        drift::NAME => drift::run(&args),
        other => Err(format!(
            "unknown workload {other:?} (offline_gcc_dm, setassoc_m88ksim, {})",
            drift::NAME
        )),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.emit_pins {
        return ExitCode::SUCCESS;
    }
    match report::peak_rss_mb() {
        Some(mb) => {
            outcome.end_to_end.insert("peak_rss_mb", mb);
        }
        None => eprintln!("perfbench: peak RSS unavailable"),
    }
    let line = outcome.json(args.traced);
    for e in &outcome.errors {
        println!("FAILED: {e}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}
