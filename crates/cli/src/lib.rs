//! Command-line driver for the **tempo** toolkit.
//!
//! The binary (`tempo-cli`) exposes the full pipeline as composable
//! subcommands operating on files, so a layout study can be scripted
//! without writing Rust:
//!
//! ```text
//! tempo-cli generate --bench perl --records 200000 --input train \
//!                    --program perl.procs --trace train.trace
//! tempo-cli generate --bench perl --records 200000 --input test --trace test.trace
//! tempo-cli profile  --program perl.procs --trace train.trace --out perl.profile
//! tempo-cli place    --program perl.procs --profile perl.profile \
//!                    --algorithm gbsc --out perl.layout
//! tempo-cli simulate --program perl.procs --layout perl.layout \
//!                    --trace test.trace --classify
//! tempo-cli analyze  --program perl.procs --layout perl.layout \
//!                    --profile perl.profile --format json
//! tempo-cli compare  --program perl.procs --train train.trace --test test.trace
//! ```
//!
//! Every command is a function in [`commands`]; [`run`] dispatches on the
//! first argument. All state flows through the documented file formats
//! (`tempo-program`, `tempo-trace` binary, `tempo-profile`,
//! `tempo-layout`), so external tools can produce or consume any stage.

// In the test build, `unwrap` IS the assertion.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::cast_possible_truncation))]
// Outside tests, the CLI must return `CliError`, never panic: a panic is
// an exit-code-101 crash that breaks the 0/1/2 contract.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod args;
pub mod commands;
mod error;

pub use error::CliError;

/// Dispatches a full argument vector (excluding the executable name).
///
/// # Errors
///
/// Returns a [`CliError`] describing bad usage or any pipeline failure;
/// the binary prints it and exits nonzero.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(CliError::Usage(USAGE.to_string()));
    };
    let parsed = args::ArgMap::parse(rest)?;
    // Global observability flags, consumed here so every subcommand
    // accepts them (consumption tracking keeps `finish()` happy).
    if let Some(fmt) = parsed.get("log-format") {
        tempo_obs::set_log_format(tempo_obs::LogFormat::parse(fmt).map_err(CliError::Usage)?);
    }
    let metrics_out = parsed.get("metrics-out").map(str::to_string);
    let result = match cmd.as_str() {
        "generate" => commands::generate(&parsed),
        "profile" => commands::profile(&parsed),
        "place" => commands::place(&parsed),
        "engine" => commands::engine(&parsed),
        "simulate" => commands::simulate(&parsed),
        "analyze" => commands::analyze(&parsed),
        "trace-stats" => commands::trace_stats(&parsed),
        "compare" => commands::compare(&parsed),
        "stats" => commands::stats(&parsed),
        "daemon" => commands::daemon(&parsed),
        "client" => commands::client(&parsed),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n{USAGE}"
        ))),
    };
    // Metrics are written even when the command failed: a failing run's
    // counters are exactly what a post-mortem wants. A write failure never
    // masks the command's own error.
    if let Some(path) = metrics_out {
        let written = commands::write_metrics(&path);
        if result.is_ok() {
            written?;
        }
    }
    result
}

/// Top-level usage text.
pub const USAGE: &str = "\
tempo-cli — temporal-ordering procedure placement (Gloy et al., MICRO-30 1997)

commands:
  generate  --bench NAME --records N [--input train|test] [--seed N]
            [--program FILE] [--trace FILE]
      synthesize a Table-1 benchmark program and/or trace; the trace
      streams straight into a TMP2 file
  profile   --program FILE --trace FILE [--cache SIZExLINExASSOC]
            [--coverage F] [--pair-db] [--lossy|--strict]
            [--stream] [--max-memory MB] --out FILE
      build WCG + TRGs from a trace; --stream profiles in two
      constant-memory passes without materializing the trace
  place     --program FILE --profile FILE --algorithm NAME --out FILE
            [--map FILE] [--budget-ms N] [--budget-work N]
      run a placement algorithm (default|random[:SEED]|ph|hkc|gbsc|gbsc-sa|
      trg-chains|wcg-offsets); --map emits a name/address symbol map;
      budgets degrade requested -> ph -> identity on exhaustion
  engine    --program FILE --trace FILE --out FILE [--algorithm NAME]
            [--cache SIZExLINExASSOC] [--coverage F] [--epoch-records N]
            [--decay F] [--replace-threshold F] [--epochs-out CSV]
            [--evaluate] [--lossy|--strict]
      consume the trace in epochs through the incremental engine: each
      epoch is profiled, aged into a decaying window (--decay 1.0 keeps
      everything), and a cheap drift check skips re-placement until the
      incumbent's static miss-bound ceiling drifts past
      --replace-threshold, which also gates adopting the fresh candidate
      (fractional; negative re-places every epoch); epochs align to
      TMP2 frame boundaries; --epochs-out writes one CSV row per
      epoch (with per-epoch simulation of the layout in force); with
      --decay 1.0 and one epoch the layout written is byte-identical
      to profile + place
  simulate  --program FILE --layout FILE --trace FILE
            [--cache SIZExLINExASSOC] [--classify] [--lossy|--strict]
            [--stream] [--max-memory MB]
      trace-driven miss simulation (optionally cold/capacity/conflict);
      --stream simulates in one constant-memory pass
  analyze   --program FILE --layout FILE [--profile FILE]
            [--cache SIZExLINExASSOC] [--format text|json]
            [--deny warnings] [--top N] [--bounds]
      lint a layout and statically predict conflict misses; --bounds
      (needs --profile) adds a sound [lo, hi] interval on the layout's
      conflict misses; exits 0 when clean, 1 on failing diagnostics,
      2 on usage errors
  trace-stats --program FILE --trace FILE [--window N] [--lossy|--strict]
      reuse-distance and working-set statistics
  compare   --program FILE --train FILE --test FILE
            [--cache SIZExLINExASSOC] [--lossy|--strict]
      profile on train, place with every algorithm, evaluate on test
  stats     --metrics FILE
      render a --metrics-out JSON snapshot as the aligned text summary
  daemon    (--socket PATH | --tcp ADDR) [--algorithm NAME]
            [--cache SIZExLINExASSOC] [--coverage F] [--epoch-records N]
            [--decay F] [--replace-threshold F] [--queue N]
            [--budget-work N] [--budget-ms N]
      run tempod, the multi-tenant placement server: each tenant gets
      its own incremental engine fed by TMP2 frames over the socket,
      with bounded per-tenant queues (--queue, at most 65536) for
      backpressure and an optional per-tenant admission budget metered
      in trace records; serves until a client sends --shutdown
  client    (--socket PATH | --tcp ADDR) [--tenant NAME [--program FILE]]
            [--trace FILE] [--layout-out FILE|-] [--stats]
            [--server-stats] [--shutdown] [--inject drop|slow] [--seed N]
      talk to a running tempod: --trace streams a TMP2 trace into the
      tenant frame-by-frame and prints the ingestion tally;
      --layout-out fetches the tenant's current layout (byte-identical
      to `engine` offline on the same stream); --stats/--server-stats
      print live metrics snapshots; --inject exercises the fault paths
      (drop: die mid-message, slow: trickle bytes)

global flags (every command):
  --metrics-out PATH   write a snapshot of all pipeline counters, gauges,
                       and stage timings after the command (JSON when PATH
                       ends in .json, aligned text otherwise)
  --log-format FMT     structured stage events on stderr: off (default),
                       text, or json (one JSON object per line)

every trace file is a TMP2 container (CRC-framed varint records), as
generate writes it. Trace reading defaults to --strict (reject corrupt
traces); --lossy skips defective frames, repairs records against the
program, and prints a recovery summary to stderr. --max-memory MB
refuses to materialize a trace (pass --stream to process arbitrarily
large traces in constant memory)";
