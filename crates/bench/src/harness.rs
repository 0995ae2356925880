//! The shared experiment harness: one registry, one execution context,
//! one driver.
//!
//! Every experiment (one per paper table/figure/ablation — see DESIGN.md
//! §4) is a plain function `fn(&mut Ctx) -> Result<(), ExperimentError>`
//! registered in [`REGISTRY`]. The
//! context collects the experiment's console report, optional CSV rows,
//! and evaluation counters instead of letting the experiment touch stdout
//! or the filesystem; that indirection is what makes the same experiment
//! runnable two ways with byte-identical output:
//!
//! * through `tempo-bench run-all` ([`run_all`]),
//!   alone with `--only <name>`,
//! * from tests against temp dirs (determinism suite).
//!
//! Parallelism flows through [`Ctx::run_jobs`]: an experiment expands its
//! benchmark × algorithm × config matrix into jobs and the context runs
//! them on a [`tempo_par::Pool`] sized by `--jobs`. Because the pool
//! returns results in submission order and every job owns its RNG stream,
//! reports are byte-identical for every worker count (the determinism
//! contract, DESIGN.md §9).

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tempo::prelude::SimStats;
use tempo_obs::json::Json;
use tempo_par::{JobPanic, Pool};

use crate::CommonArgs;

/// A failure inside an experiment body, surfaced as a value so the
/// driver records it (and `run-all` carries on) without unwinding.
///
/// Every parallel helper an experiment leans on reports its worker
/// panics typed — [`JobPanic`] from [`Ctx::run_jobs`] and the
/// tempo-workloads generators — and the `From` impls fold them and the
/// other failure types into this one type so experiment bodies just use
/// `?`.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExperimentError {
    /// A parallel job panicked on a pool worker.
    Job(JobPanic),
    /// Streaming trace I/O failed.
    Trace(tempo::trace::io::TraceIoError),
    /// Filesystem failure.
    Io(std::io::Error),
    /// Anything else, stringified.
    Other(String),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Job(p) => write!(f, "parallel {p}"),
            ExperimentError::Trace(e) => write!(f, "trace i/o failed: {e}"),
            ExperimentError::Io(e) => write!(f, "i/o error: {e}"),
            ExperimentError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Job(p) => Some(p),
            ExperimentError::Trace(e) => Some(e),
            ExperimentError::Io(e) => Some(e),
            ExperimentError::Other(_) => None,
        }
    }
}

impl From<JobPanic> for ExperimentError {
    fn from(p: JobPanic) -> Self {
        ExperimentError::Job(p)
    }
}

impl From<tempo::trace::io::TraceIoError> for ExperimentError {
    fn from(e: tempo::trace::io::TraceIoError) -> Self {
        ExperimentError::Trace(e)
    }
}

impl From<std::io::Error> for ExperimentError {
    fn from(e: std::io::Error) -> Self {
        ExperimentError::Io(e)
    }
}

/// Appends a line to an experiment's report: `outln!(ctx, "fmt", ...)`.
macro_rules! outln {
    ($ctx:expr $(,)?) => { $crate::harness::Ctx::line($ctx, format_args!("")) };
    ($ctx:expr, $($arg:tt)*) => { $crate::harness::Ctx::line($ctx, format_args!($($arg)*)) };
}
pub(crate) use outln;

/// Execution context handed to every experiment.
///
/// Collects the textual report ([`Ctx::line`] / the `outln!` macro),
/// optional CSV output ([`Ctx::set_csv`]), and the evaluation counters
/// that feed `BENCH_run.json` ([`Ctx::tally`]).
#[derive(Debug)]
pub struct Ctx {
    /// Parsed common arguments (records, runs, seed, jobs, ...).
    pub args: CommonArgs,
    pool: Pool,
    csv_path: Option<String>,
    text: String,
    csv: Option<Csv>,
    misses: u64,
    cells: usize,
    metrics: Vec<(String, f64)>,
}

/// CSV payload produced by an experiment (header + data rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csv {
    /// Header line (no trailing newline).
    pub header: &'static str,
    /// Data rows (no trailing newlines).
    pub rows: Vec<String>,
}

/// Everything an experiment produced, ready to print or persist.
#[derive(Debug)]
pub struct ExperimentOutput {
    /// The console report (`results/<name>.txt`).
    pub text: String,
    /// CSV payload, when the experiment emits one.
    pub csv: Option<Csv>,
    /// Total simulated cache misses tallied across all evaluations.
    pub misses: u64,
    /// Jobs executed through the pool.
    pub cells: usize,
    /// Machine-readable side metrics (peak RSS, throughput, ...) for
    /// `BENCH_run.json`. Never part of the text report: metrics may be
    /// non-deterministic, and the report must stay byte-identical across
    /// runs and `--jobs` values.
    pub metrics: Vec<(String, f64)>,
}

impl Ctx {
    /// A context for `args`, reporting CSV output (if any) at `csv_path`.
    pub fn new(args: CommonArgs, csv_path: Option<String>) -> Ctx {
        let pool = Pool::new(args.jobs);
        Ctx {
            args,
            pool,
            csv_path,
            text: String::new(),
            csv: None,
            misses: 0,
            cells: 0,
            metrics: Vec::new(),
        }
    }

    /// Appends one line to the report (use via `outln!`).
    pub fn line(&mut self, args: fmt::Arguments<'_>) {
        use fmt::Write as _;
        writeln!(self.text, "{args}").expect("writing to a String cannot fail");
    }

    /// The worker pool sized by `--jobs`.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Runs `jobs` on the pool, in submission order, counting them toward
    /// the context's cell total.
    ///
    /// # Errors
    ///
    /// Returns the first job panic as a typed [`ExperimentError::Job`]
    /// carrying the failing job's index; the experiment body propagates
    /// it with `?` and the driver records the failure without unwinding.
    pub fn run_jobs<T, F>(&mut self, jobs: Vec<F>) -> Result<Vec<T>, ExperimentError>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        self.cells += jobs.len();
        self.pool
            .run(jobs)
            .into_iter()
            .map(|r| r.map_err(ExperimentError::from))
            .collect()
    }

    /// Records an evaluation's miss count and passes the stats through.
    pub fn tally(&mut self, stats: SimStats) -> SimStats {
        self.misses += stats.misses;
        stats
    }

    /// Records misses counted inside a parallel job (jobs cannot borrow
    /// the context, so they sum locally and report on aggregation).
    pub fn tally_misses(&mut self, misses: u64) {
        self.misses += misses;
    }

    /// Counts jobs executed outside [`Ctx::run_jobs`] (e.g. through the
    /// tempo-cache sweep helpers or the `SweepRunner`) toward the cell
    /// total.
    pub fn note_cells(&mut self, cells: usize) {
        self.cells += cells;
    }

    /// Records a machine-readable side metric for `BENCH_run.json`.
    ///
    /// Metrics carry measurements that must stay out of the deterministic
    /// text report (wall-clock throughput, peak RSS). Recording the same
    /// name twice keeps both entries, in order.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Sets the experiment's CSV output.
    pub fn set_csv(&mut self, header: &'static str, rows: Vec<String>) {
        self.csv = Some(Csv { header, rows });
    }

    /// Where the CSV will be written, when CSV output was requested —
    /// experiments echo this in their report (`wrote <path>`).
    pub fn csv_path(&self) -> Option<String> {
        self.csv_path.clone()
    }

    /// Consumes the context into its collected output.
    pub fn finish(self) -> ExperimentOutput {
        ExperimentOutput {
            text: self.text,
            csv: self.csv,
            misses: self.misses,
            cells: self.cells,
            metrics: self.metrics,
        }
    }
}

/// One registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSpec {
    /// Binary/file name (`results/<name>.txt`).
    pub name: &'static str,
    /// One-line description for `tempo-bench list`.
    pub title: &'static str,
    /// Default `--records`.
    pub default_records: usize,
    /// Default `--runs`.
    pub default_runs: usize,
    /// Whether the experiment emits CSV (written to `<out>/<name>.csv`
    /// by the driver).
    pub has_csv: bool,
    /// The experiment body.
    pub run: fn(&mut Ctx) -> Result<(), ExperimentError>,
}

/// Every experiment, in the order `run-all` executes them.
pub const REGISTRY: &[ExperimentSpec] = &[
    ExperimentSpec {
        name: "table1",
        title: "Table 1 benchmark statics, default miss rates, average Q sizes",
        default_records: crate::DEFAULT_TRAIN_LEN,
        default_runs: 1,
        has_csv: false,
        run: crate::experiments::table1::run,
    },
    ExperimentSpec {
        name: "fig1_motivation",
        title: "Figure 1 motivating example (same WCG, opposite best layouts)",
        default_records: 0,
        default_runs: 1,
        has_csv: false,
        run: crate::experiments::fig1_motivation::run,
    },
    ExperimentSpec {
        name: "fig2_trg_walkthrough",
        title: "Figures 2-3 Q-set / TRG construction walkthrough",
        default_records: 0,
        default_runs: 1,
        has_csv: false,
        run: crate::experiments::fig2_trg_walkthrough::run,
    },
    ExperimentSpec {
        name: "fig5",
        title: "Figure 5 perturbed miss-rate distributions (CDF points)",
        default_records: 200_000,
        default_runs: 40,
        has_csv: true,
        run: crate::experiments::fig5::run,
    },
    ExperimentSpec {
        name: "fig6",
        title: "Figure 6 conflict-metric vs miss-rate correlation",
        default_records: 200_000,
        default_runs: 80,
        has_csv: true,
        run: crate::experiments::fig6::run,
    },
    ExperimentSpec {
        name: "padding_sensitivity",
        title: "S5.1 padding anecdote (layout fragility)",
        default_records: 200_000,
        default_runs: 1,
        has_csv: false,
        run: crate::experiments::padding_sensitivity::run,
    },
    ExperimentSpec {
        name: "cache_sweep",
        title: "S5.2 cache-size sweep (SweepRunner matrix)",
        default_records: 150_000,
        default_runs: 1,
        has_csv: true,
        run: crate::experiments::cache_sweep::run,
    },
    ExperimentSpec {
        name: "bounds_soundness",
        title: "Miss-bound soundness harness (strict intervals, Table 1 suite)",
        default_records: 80_000,
        default_runs: 1,
        has_csv: true,
        run: crate::experiments::bounds_soundness::run,
    },
    ExperimentSpec {
        name: "m88ksim_same_input",
        title: "S5.3 m88ksim train=test note",
        default_records: 200_000,
        default_runs: 1,
        has_csv: false,
        run: crate::experiments::m88ksim_same_input::run,
    },
    ExperimentSpec {
        name: "set_associative",
        title: "S6 set-associative placement (pair database)",
        default_records: 120_000,
        default_runs: 1,
        has_csv: false,
        run: crate::experiments::set_associative::run,
    },
    ExperimentSpec {
        name: "s_sweep",
        title: "Blackwell perturbation-scale sweep",
        default_records: 150_000,
        default_runs: 15,
        has_csv: false,
        run: crate::experiments::s_sweep::run,
    },
    ExperimentSpec {
        name: "ablation_chains",
        title: "S4 ingredient ablation (TRG+chains / WCG+offsets)",
        default_records: 150_000,
        default_runs: 1,
        has_csv: false,
        run: crate::experiments::ablation_chains::run,
    },
    ExperimentSpec {
        name: "chunk_sweep",
        title: "S4.1 chunk-size sweep",
        default_records: 150_000,
        default_runs: 1,
        has_csv: false,
        run: crate::experiments::chunk_sweep::run,
    },
    ExperimentSpec {
        name: "q_bound_sweep",
        title: "S3 Q-bound sweep",
        default_records: 150_000,
        default_runs: 1,
        has_csv: false,
        run: crate::experiments::q_bound_sweep::run,
    },
    ExperimentSpec {
        name: "miss_breakdown",
        title: "3C miss decomposition per layout",
        default_records: 150_000,
        default_runs: 1,
        has_csv: false,
        run: crate::experiments::miss_breakdown::run,
    },
    ExperimentSpec {
        name: "reuse_profile",
        title: "Reuse distances vs the Q bound",
        default_records: 100_000,
        default_runs: 1,
        has_csv: false,
        run: crate::experiments::reuse_profile::run,
    },
    ExperimentSpec {
        name: "splitting",
        title: "S8 procedure splitting + GBSC",
        default_records: 150_000,
        default_runs: 1,
        has_csv: false,
        run: crate::experiments::splitting::run,
    },
    ExperimentSpec {
        name: "paging",
        title: "S8 page-level locality of cache-driven layouts",
        default_records: 150_000,
        default_runs: 1,
        has_csv: false,
        run: crate::experiments::paging::run,
    },
    ExperimentSpec {
        name: "stream_scale",
        title: "Paper-scale streaming pipeline (constant-memory profile + evaluate)",
        default_records: 20_000_000,
        default_runs: 1,
        has_csv: false,
        run: crate::experiments::stream_scale::run,
    },
    ExperimentSpec {
        name: "drift_adapt",
        title: "Drift adaptation (incremental engine vs frozen layout)",
        default_records: 60_000,
        default_runs: 1,
        has_csv: false,
        run: crate::experiments::drift_adapt::run,
    },
];

/// Looks up an experiment by name.
pub fn find(name: &str) -> Option<&'static ExperimentSpec> {
    REGISTRY.iter().find(|s| s.name == name)
}

/// Options for [`run_all`].
#[derive(Debug, Clone)]
pub struct RunAllOpts {
    /// Override every experiment's `--records` (like the historical
    /// script's first positional); `None` keeps per-experiment defaults.
    pub records: Option<usize>,
    /// Override every experiment's `--runs`; `None` keeps defaults
    /// (fig5 40, fig6 80, s_sweep 15).
    pub runs: Option<usize>,
    /// Worker count for every experiment's pool.
    pub jobs: usize,
    /// RNG seed (default `0xBA5E`, the historical seed).
    pub seed: u64,
    /// Directory for `results/`-style text and CSV outputs.
    pub out_dir: PathBuf,
    /// Where to write the machine-readable run record; `None` skips it.
    pub bench_json: Option<PathBuf>,
    /// Restrict to these experiment names (run-all order preserved).
    pub only: Option<Vec<String>>,
    /// Echo per-experiment progress lines to stderr.
    pub verbose: bool,
    /// Enable the static miss-bound prefilter in experiments that
    /// support it (`cache_sweep`). Off by default: the unscreened
    /// reports are the regression baseline.
    pub prefilter: bool,
}

impl Default for RunAllOpts {
    fn default() -> Self {
        RunAllOpts {
            records: None,
            runs: None,
            jobs: tempo_par::available_parallelism(),
            seed: 0xBA5E,
            out_dir: PathBuf::from("results"),
            bench_json: Some(PathBuf::from("BENCH_run.json")),
            only: None,
            verbose: false,
            prefilter: false,
        }
    }
}

/// One experiment's entry in the run record.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Experiment name.
    pub name: String,
    /// Whether the experiment completed (false = it panicked).
    pub ok: bool,
    /// Wall-clock time of the experiment body.
    pub wall_ms: f64,
    /// Jobs executed through the pool.
    pub cells: usize,
    /// Report lines plus CSV rows produced.
    pub rows: usize,
    /// Total simulated cache misses tallied.
    pub misses: u64,
    /// Side metrics recorded via [`Ctx::metric`] (may be empty).
    pub metrics: Vec<(String, f64)>,
    /// Panic message when `ok` is false.
    pub error: Option<String>,
}

/// The aggregate result of a `run-all` sweep (serialized as
/// `BENCH_run.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct RunAllReport {
    /// `records` override (None = per-experiment defaults).
    pub records: Option<usize>,
    /// `runs` override.
    pub runs: Option<usize>,
    /// Worker count used.
    pub jobs: usize,
    /// RNG seed used.
    pub seed: u64,
    /// Wall-clock time of the whole sweep.
    pub total_wall_ms: f64,
    /// Per-experiment records, in execution order.
    pub experiments: Vec<ExperimentRecord>,
}

impl RunAllReport {
    /// True when every experiment completed.
    pub fn all_ok(&self) -> bool {
        self.experiments.iter().all(|e| e.ok)
    }
}

/// Errors from the `run-all` driver (filesystem/serialization only;
/// experiment panics are recorded per experiment instead).
#[derive(Debug)]
pub enum HarnessError {
    /// An unknown experiment name in `--only`.
    UnknownExperiment(String),
    /// Filesystem failure writing an output.
    Io(std::io::Error),
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::UnknownExperiment(name) => {
                write!(f, "unknown experiment `{name}` (see `tempo-bench list`)")
            }
            HarnessError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Io(e) => Some(e),
            HarnessError::UnknownExperiment(_) => None,
        }
    }
}

impl From<std::io::Error> for HarnessError {
    fn from(e: std::io::Error) -> Self {
        HarnessError::Io(e)
    }
}

/// Runs every (selected) experiment through the shared harness, writing
/// `<out_dir>/<name>.txt` (+ `.csv`) for each and the machine-readable
/// run record to `opts.bench_json`.
///
/// Experiments run one at a time; each parallelizes internally across
/// `opts.jobs` workers. A panicking experiment is isolated: its outputs
/// are skipped, the failure lands in the report, and the sweep continues.
///
/// # Errors
///
/// Fails on unknown `--only` names and on filesystem errors; experiment
/// panics do *not* error (check [`RunAllReport::all_ok`]).
pub fn run_all(opts: &RunAllOpts) -> Result<RunAllReport, HarnessError> {
    let selected: Vec<&'static ExperimentSpec> = match &opts.only {
        None => REGISTRY.iter().collect(),
        Some(names) => {
            for n in names {
                if find(n).is_none() {
                    return Err(HarnessError::UnknownExperiment(n.clone()));
                }
            }
            REGISTRY
                .iter()
                .filter(|s| names.iter().any(|n| n == s.name))
                .collect()
        }
    };

    std::fs::create_dir_all(&opts.out_dir)?;
    let sweep_start = Instant::now();
    let mut experiments = Vec::with_capacity(selected.len());

    for spec in selected {
        let args = CommonArgs {
            records: opts.records.unwrap_or(spec.default_records),
            seed: opts.seed,
            runs: opts.runs.unwrap_or(spec.default_runs),
            jobs: opts.jobs,
            prefilter: opts.prefilter,
        };
        let csv_path = spec
            .has_csv
            .then(|| display_path(&opts.out_dir.join(format!("{}.csv", spec.name))));
        let mut ctx = Ctx::new(args, csv_path.clone());
        // Experiments run strictly one at a time, so a before/after snapshot
        // of the global tempo-obs registry attributes every pipeline counter
        // (trace.*, profile.*, place.*, sim.*) to this experiment.
        let obs_before = tempo::obs::snapshot();
        let start = Instant::now();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (spec.run)(&mut ctx)));
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let obs_deltas = tempo::obs::snapshot().counter_deltas(&obs_before);

        let record = match outcome {
            Ok(Ok(())) => {
                let mut out = ctx.finish();
                out.metrics.extend(
                    obs_deltas
                        .iter()
                        .map(|(name, delta)| (name.clone(), *delta as f64)),
                );
                std::fs::write(
                    opts.out_dir.join(format!("{}.txt", spec.name)),
                    out.text.as_bytes(),
                )?;
                if let (Some(path), Some(csv)) = (&csv_path, &out.csv) {
                    crate::write_csv(path, csv.header, &csv.rows)?;
                }
                ExperimentRecord {
                    name: spec.name.to_string(),
                    ok: true,
                    wall_ms,
                    cells: out.cells,
                    rows: out.text.lines().count() + out.csv.as_ref().map_or(0, |c| c.rows.len()),
                    misses: out.misses,
                    metrics: out.metrics,
                    error: None,
                }
            }
            Ok(Err(e)) => ExperimentRecord {
                name: spec.name.to_string(),
                ok: false,
                wall_ms,
                cells: 0,
                rows: 0,
                misses: 0,
                metrics: Vec::new(),
                error: Some(e.to_string()),
            },
            Err(payload) => {
                let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                ExperimentRecord {
                    name: spec.name.to_string(),
                    ok: false,
                    wall_ms,
                    cells: 0,
                    rows: 0,
                    misses: 0,
                    metrics: Vec::new(),
                    error: Some(message),
                }
            }
        };
        if opts.verbose {
            eprintln!(
                "tempo-bench: {:<22} {:>9.1} ms  {:>4} jobs  {:>6} rows  {:>12} misses{}",
                record.name,
                record.wall_ms,
                record.cells,
                record.rows,
                record.misses,
                if record.ok { "" } else { "  FAILED" }
            );
        }
        experiments.push(record);
    }

    let report = RunAllReport {
        records: opts.records,
        runs: opts.runs,
        jobs: opts.jobs,
        seed: opts.seed,
        total_wall_ms: sweep_start.elapsed().as_secs_f64() * 1e3,
        experiments,
    };
    if let Some(path) = &opts.bench_json {
        std::fs::write(path, report.to_json().render_pretty())?;
    }
    Ok(report)
}

fn display_path(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

impl RunAllReport {
    /// The machine-readable form written to `BENCH_run.json`.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("schema".into(), Json::Number(1.0)),
            ("records".into(), opt_num(self.records)),
            ("runs".into(), opt_num(self.runs)),
            ("jobs".into(), Json::Number(self.jobs as f64)),
            ("seed".into(), Json::Number(self.seed as f64)),
            (
                "total_wall_ms".into(),
                Json::Number(round1(self.total_wall_ms)),
            ),
            (
                "experiments".into(),
                Json::Array(
                    self.experiments
                        .iter()
                        .map(|e| {
                            let mut fields = vec![
                                ("name".into(), Json::String(e.name.clone())),
                                ("ok".into(), Json::Bool(e.ok)),
                                ("wall_ms".into(), Json::Number(round1(e.wall_ms))),
                                ("cells".into(), Json::Number(e.cells as f64)),
                                ("rows".into(), Json::Number(e.rows as f64)),
                                ("misses".into(), Json::Number(e.misses as f64)),
                            ];
                            if !e.metrics.is_empty() {
                                fields.push((
                                    "metrics".into(),
                                    Json::Object(
                                        e.metrics
                                            .iter()
                                            .map(|(k, v)| (k.clone(), Json::Number(*v)))
                                            .collect(),
                                    ),
                                ));
                            }
                            if let Some(err) = &e.error {
                                fields.push(("error".into(), Json::String(err.clone())));
                            }
                            Json::Object(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a report back from `BENCH_run.json` content.
    ///
    /// # Errors
    ///
    /// Returns a message when the JSON is malformed or fields are missing.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    // The numbers round-trip small integral counters (bounded far below 2^53).
    pub fn from_json(text: &str) -> Result<RunAllReport, String> {
        let v = Json::parse(text)?;
        let experiments = v
            .get("experiments")
            .and_then(Json::as_array)
            .ok_or("missing `experiments` array")?
            .iter()
            .map(|e| {
                Ok(ExperimentRecord {
                    name: e
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("experiment missing `name`")?
                        .to_string(),
                    ok: e.get("ok").and_then(Json::as_bool).unwrap_or(false),
                    wall_ms: e.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
                    cells: e.get("cells").and_then(Json::as_f64).unwrap_or(0.0) as usize,
                    rows: e.get("rows").and_then(Json::as_f64).unwrap_or(0.0) as usize,
                    misses: opt_u64(e, "misses")?.unwrap_or(0),
                    metrics: match e.get("metrics") {
                        Some(Json::Object(fields)) => fields
                            .iter()
                            .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                            .collect(),
                        _ => Vec::new(),
                    },
                    error: e.get("error").and_then(Json::as_str).map(str::to_string),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunAllReport {
            records: v.get("records").and_then(Json::as_f64).map(|n| n as usize),
            runs: v.get("runs").and_then(Json::as_f64).map(|n| n as usize),
            jobs: v.get("jobs").and_then(Json::as_f64).unwrap_or(1.0) as usize,
            seed: opt_u64(&v, "seed")?.unwrap_or(0),
            total_wall_ms: v.get("total_wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
            experiments,
        })
    }
}

/// The optional exact integer field `key` of `v`: absent is `None`, and a
/// present value that is not a non-negative integer below 2^53 is an
/// error rather than a truncation.
fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    v.get(key)
        .map(|n| {
            n.as_u64()
                .ok_or_else(|| format!("`{key}` must be a non-negative integer"))
        })
        .transpose()
}

fn opt_num(v: Option<usize>) -> Json {
    match v {
        Some(n) => Json::Number(n as f64),
        None => Json::Null,
    }
}

fn round1(v: f64) -> f64 {
    (v * 10.0).round() / 10.0
}

/// Peak resident set size of this process in KiB, read from
/// `/proc/self/status` (`VmHWM`).
///
/// Returns `None` off Linux or when the file is unreadable, so callers
/// can record the metric opportunistically.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Outcome of comparing a run record against a checked-in baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegressionReport {
    /// Human-readable failures (empty = gate passes).
    pub failures: Vec<String>,
    /// Informational notes (new experiments, wall-time deltas).
    pub notes: Vec<String>,
}

impl RegressionReport {
    /// True when the gate passes.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compares `current` against `baseline`: simulated miss counts and the
/// Q-pass profile counters (Q-set evictions, graph edge counts) must not
/// drift at all, total wall time must not regress more than
/// `wall_slack_pct` percent, and every experiment that records a
/// `records_per_sec` metric in the baseline must retain at least
/// `throughput_floor_pct` percent of the baseline throughput.
///
/// The throughput floor is a *ratchet*: refreshing the baseline after an
/// optimization raises the floor automatically, so a later change cannot
/// silently give the win back. The floor leaves slack for machine noise
/// (CI runners are shared); the miss comparison stays exact.
///
/// Parameters (`records`/`runs`/`seed`) must match, otherwise the miss
/// comparison would be meaningless. Experiments present only in the
/// baseline fail the gate (coverage loss); experiments present only in
/// the current run are noted.
pub fn check_regression(
    current: &RunAllReport,
    baseline: &RunAllReport,
    wall_slack_pct: f64,
    throughput_floor_pct: f64,
) -> RegressionReport {
    let mut failures = Vec::new();
    let mut notes = Vec::new();

    if current.records != baseline.records
        || current.runs != baseline.runs
        || current.seed != baseline.seed
    {
        failures.push(format!(
            "parameter mismatch: current records={:?} runs={:?} seed={} vs baseline records={:?} runs={:?} seed={}",
            current.records, current.runs, current.seed,
            baseline.records, baseline.runs, baseline.seed,
        ));
        return RegressionReport { failures, notes };
    }

    for base in &baseline.experiments {
        match current.experiments.iter().find(|e| e.name == base.name) {
            None => failures.push(format!("experiment `{}` disappeared", base.name)),
            Some(cur) => {
                if !cur.ok {
                    failures.push(format!(
                        "experiment `{}` failed: {}",
                        cur.name,
                        cur.error.as_deref().unwrap_or("unknown error")
                    ));
                } else if base.ok && cur.misses != base.misses {
                    failures.push(format!(
                        "`{}` simulated misses drifted: {} -> {}",
                        cur.name, base.misses, cur.misses
                    ));
                } else if base.ok {
                    check_profile_counters(cur, base, &mut failures);
                    check_throughput_floor(
                        cur,
                        base,
                        throughput_floor_pct,
                        &mut failures,
                        &mut notes,
                    );
                }
            }
        }
    }
    for cur in &current.experiments {
        if !baseline.experiments.iter().any(|e| e.name == cur.name) {
            notes.push(format!(
                "experiment `{}` is new (no baseline entry)",
                cur.name
            ));
        }
    }

    if baseline.total_wall_ms > 0.0 {
        let limit = baseline.total_wall_ms * (1.0 + wall_slack_pct / 100.0);
        if current.total_wall_ms > limit {
            failures.push(format!(
                "total wall time regressed: {:.1} ms vs baseline {:.1} ms (+{:.0}% > {:.0}% slack)",
                current.total_wall_ms,
                baseline.total_wall_ms,
                (current.total_wall_ms / baseline.total_wall_ms - 1.0) * 100.0,
                wall_slack_pct,
            ));
        } else {
            notes.push(format!(
                "total wall time {:.1} ms vs baseline {:.1} ms (limit {limit:.1} ms)",
                current.total_wall_ms, baseline.total_wall_ms
            ));
        }
    }

    RegressionReport { failures, notes }
}

/// Profile counters gated exactly, per experiment: the Q-pass's §3
/// evictions and the edge counts of the three graphs it builds. They are
/// integer functions of the seeded traces, so a Q-pass change that drifts
/// one fails the gate by name even when no miss count moves. Every
/// experiment's counters are identical across repeated runs and across
/// `--jobs 1`/`--jobs 2`, so none is exempt. Baselines that predate a
/// counter are not gated on it.
const EXACT_PROFILE_COUNTERS: [&str; 5] = [
    "profile.qset_proc_evictions",
    "profile.qset_chunk_evictions",
    "profile.wcg_edges",
    "profile.trg_select_edges",
    "profile.trg_place_edges",
];

fn metric(e: &ExperimentRecord, name: &str) -> Option<f64> {
    e.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

fn check_profile_counters(
    cur: &ExperimentRecord,
    base: &ExperimentRecord,
    failures: &mut Vec<String>,
) {
    for counter in EXACT_PROFILE_COUNTERS {
        let Some(want) = metric(base, counter) else {
            continue;
        };
        match metric(cur, counter) {
            Some(got) if got == want => {}
            Some(got) => failures.push(format!(
                "`{}` profile counter `{counter}` drifted: {want} -> {got}",
                cur.name
            )),
            None => failures.push(format!(
                "`{}` stopped recording profile counter `{counter}` (baseline has {want})",
                cur.name
            )),
        }
    }
}

/// Metric name gated by the throughput floor.
const THROUGHPUT_METRIC: &str = "records_per_sec";

fn check_throughput_floor(
    cur: &ExperimentRecord,
    base: &ExperimentRecord,
    floor_pct: f64,
    failures: &mut Vec<String>,
    notes: &mut Vec<String>,
) {
    let Some(base_rps) = metric(base, THROUGHPUT_METRIC).filter(|v| *v > 0.0) else {
        return;
    };
    let floor = base_rps * floor_pct / 100.0;
    match metric(cur, THROUGHPUT_METRIC) {
        None => failures.push(format!(
            "`{}` stopped recording {THROUGHPUT_METRIC} (baseline has {base_rps:.0}/s)",
            cur.name
        )),
        Some(cur_rps) if cur_rps < floor => failures.push(format!(
            "`{}` throughput regressed: {cur_rps:.0} records/s vs baseline \
             {base_rps:.0}/s (floor {floor:.0}/s at {floor_pct:.0}%)",
            cur.name
        )),
        Some(cur_rps) => notes.push(format!(
            "`{}` throughput {cur_rps:.0} records/s vs baseline {base_rps:.0}/s \
             (floor {floor:.0}/s)",
            cur.name
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, misses: u64, rps: Option<f64>) -> ExperimentRecord {
        ExperimentRecord {
            name: name.to_string(),
            ok: true,
            wall_ms: 10.0,
            cells: 1,
            rows: 1,
            misses,
            metrics: rps
                .map(|v| (THROUGHPUT_METRIC.to_string(), v))
                .into_iter()
                .collect(),
            error: None,
        }
    }

    fn report(experiments: Vec<ExperimentRecord>) -> RunAllReport {
        RunAllReport {
            records: Some(20_000),
            runs: Some(8),
            jobs: 1,
            seed: 0xBA5E,
            total_wall_ms: 100.0,
            experiments,
        }
    }

    #[test]
    fn throughput_at_or_above_the_floor_passes() {
        let base = report(vec![record("stream", 53_211, Some(1_000_000.0))]);
        let cur = report(vec![record("stream", 53_211, Some(700_000.0))]);
        let verdict = check_regression(&cur, &base, 25.0, 70.0);
        assert!(verdict.ok(), "failures: {:?}", verdict.failures);
        assert!(verdict.notes.iter().any(|n| n.contains("throughput")));
    }

    #[test]
    fn throughput_below_the_floor_fails() {
        let base = report(vec![record("stream", 53_211, Some(1_000_000.0))]);
        let cur = report(vec![record("stream", 53_211, Some(699_999.0))]);
        let verdict = check_regression(&cur, &base, 25.0, 70.0);
        assert_eq!(verdict.failures.len(), 1, "notes: {:?}", verdict.notes);
        assert!(verdict.failures[0].contains("throughput regressed"));
    }

    #[test]
    fn dropping_the_throughput_metric_fails() {
        let base = report(vec![record("stream", 53_211, Some(1_000_000.0))]);
        let cur = report(vec![record("stream", 53_211, None)]);
        let verdict = check_regression(&cur, &base, 25.0, 70.0);
        assert_eq!(verdict.failures.len(), 1);
        assert!(verdict.failures[0].contains("stopped recording"));
    }

    #[test]
    fn experiments_without_a_baseline_throughput_are_exempt() {
        let base = report(vec![record("fig1", 42, None)]);
        let cur = report(vec![record("fig1", 42, Some(5.0))]);
        assert!(check_regression(&cur, &base, 25.0, 70.0).ok());
    }

    fn with_counter(mut e: ExperimentRecord, name: &str, value: f64) -> ExperimentRecord {
        e.metrics.push((name.to_string(), value));
        e
    }

    #[test]
    fn profile_counter_drift_fails_and_names_the_counter() {
        let base = report(vec![with_counter(
            record("table1", 42, None),
            "profile.trg_place_edges",
            117_909.0,
        )]);
        let same = report(vec![with_counter(
            record("table1", 42, None),
            "profile.trg_place_edges",
            117_909.0,
        )]);
        assert!(check_regression(&same, &base, 25.0, 70.0).ok());

        let drifted = report(vec![with_counter(
            record("table1", 42, None),
            "profile.trg_place_edges",
            117_910.0,
        )]);
        let verdict = check_regression(&drifted, &base, 25.0, 70.0);
        assert_eq!(verdict.failures.len(), 1, "notes: {:?}", verdict.notes);
        assert!(verdict.failures[0].contains("`profile.trg_place_edges` drifted"));
        assert!(verdict.failures[0].contains("`table1`"));

        let dropped = report(vec![record("table1", 42, None)]);
        let verdict = check_regression(&dropped, &base, 25.0, 70.0);
        assert_eq!(verdict.failures.len(), 1);
        assert!(verdict.failures[0].contains("stopped recording profile counter"));
    }

    #[test]
    fn profile_counters_absent_from_the_baseline_are_not_gated() {
        let base = report(vec![record("table1", 42, None)]);
        let cur = report(vec![with_counter(
            record("table1", 42, None),
            "profile.qset_proc_evictions",
            7_781.0,
        )]);
        assert!(check_regression(&cur, &base, 25.0, 70.0).ok());
    }

    #[test]
    fn miss_drift_still_fails_before_throughput_is_considered() {
        let base = report(vec![record("stream", 53_211, Some(1_000_000.0))]);
        let cur = report(vec![record("stream", 53_212, Some(1_000_000.0))]);
        let verdict = check_regression(&cur, &base, 25.0, 70.0);
        assert_eq!(verdict.failures.len(), 1);
        assert!(verdict.failures[0].contains("misses drifted"));
    }

    #[test]
    fn run_record_counts_must_be_exact_integers() {
        let doc = |seed: &str, misses: &str| {
            format!(
                "{{\"seed\": {seed}, \"experiments\": [{{\"name\": \"x\", \"misses\": {misses}}}]}}"
            )
        };
        let ok = RunAllReport::from_json(&doc("7", "12")).unwrap();
        assert_eq!((ok.seed, ok.experiments[0].misses), (7, 12));
        for (seed, misses) in [("1.5", "12"), ("-1", "12"), ("7", "-5"), ("7", "2.5")] {
            assert!(
                RunAllReport::from_json(&doc(seed, misses)).is_err(),
                "seed {seed}, misses {misses}"
            );
        }
        // Absent fields keep their defaults.
        let bare = RunAllReport::from_json(r#"{"experiments": [{"name": "x"}]}"#).unwrap();
        assert_eq!((bare.seed, bare.experiments[0].misses), (0, 0));
    }

    /// The run record reads and re-renders byte for byte: the checked-in
    /// baseline was written by `to_json().render_pretty()`.
    #[test]
    fn baseline_run_record_round_trips_byte_for_byte() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/bench_baseline.json"
        );
        let text = std::fs::read_to_string(path).unwrap();
        let report = RunAllReport::from_json(&text).unwrap();
        assert_eq!(report.to_json().render_pretty(), text);
    }
}
