//! The typed evaluation matrix: benchmark × algorithm × cache config.
//!
//! A [`SweepSpec`] names the axes; a [`SweepRunner`] expands them into
//! jobs (one per benchmark × cache cell — the profile is shared by every
//! algorithm evaluated on it), runs the jobs across N workers, and
//! aggregates typed [`SweepRow`]s in a deterministic order: benchmark
//! major, cache config next, algorithm minor — independent of the worker
//! count (see DESIGN.md §9 for the determinism contract).

use tempo::prelude::*;
use tempo::workloads::{par as wpar, BenchmarkModel};
use tempo_par::Pool;

/// A named placement algorithm on the sweep's algorithm axis.
///
/// `Identity` is the unplaced source-order baseline; it is evaluated
/// without the static-analyzer gate (it is the measurement reference, not
/// a produced layout). Real algorithms go through
/// [`checked_place`](crate::checked_place) so an invalid layout aborts the
/// cell instead of contributing numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmSpec {
    /// Source-order (unoptimized) baseline.
    Identity,
    /// Pettis–Hansen chaining.
    PettisHansen,
    /// Hashemi–Kaeli–Calder cache coloring.
    CacheColoring,
    /// The paper's TRG-based placement.
    Gbsc,
}

impl AlgorithmSpec {
    /// Display / CSV name.
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmSpec::Identity => "default",
            AlgorithmSpec::PettisHansen => "PH",
            AlgorithmSpec::CacheColoring => "HKC",
            AlgorithmSpec::Gbsc => "GBSC",
        }
    }

    /// The paper's evaluated trio plus the identity baseline.
    pub fn standard() -> Vec<AlgorithmSpec> {
        vec![
            AlgorithmSpec::Identity,
            AlgorithmSpec::PettisHansen,
            AlgorithmSpec::CacheColoring,
            AlgorithmSpec::Gbsc,
        ]
    }

    fn place(&self, session: &tempo::ProfiledSession<'_>) -> Layout {
        match self {
            AlgorithmSpec::Identity => Layout::source_order(session.program()),
            AlgorithmSpec::PettisHansen => crate::checked_place(session, &PettisHansen::new()),
            AlgorithmSpec::CacheColoring => crate::checked_place(session, &CacheColoring::new()),
            AlgorithmSpec::Gbsc => crate::checked_place(session, &Gbsc::new()),
        }
    }
}

/// A deterministic adversarial candidate for prefilter runs: every
/// popular procedure is placed at the next multiple of the cache size, so
/// all of them land on the same cache sets and evict each other on every
/// alternation; unpopular procedures are packed behind them. `variant`
/// rotates the popular order, so successive variants are distinct layouts
/// that are identically hopeless — exactly what a screening stage should
/// reject without paying for a simulation.
pub fn stacked_decoy(session: &tempo::ProfiledSession<'_>, variant: usize) -> Layout {
    let program = session.program();
    let cache = u64::from(session.cache().size());
    let popular: Vec<ProcId> = session.profile().popular.iter().collect();
    let mut addrs = vec![0u64; program.len()];
    let mut cursor = 0u64;
    for i in 0..popular.len() {
        let id = popular[(i + variant) % popular.len()];
        addrs[id.as_usize()] = cursor;
        // Next multiple of the cache size past this procedure's end: the
        // following popular procedure starts on cache offset 0 again.
        let end = cursor + u64::from(program.size_of(id));
        cursor = end.div_ceil(cache) * cache;
    }
    for id in session.profile().popular.iter_unpopular() {
        addrs[id.as_usize()] = cursor;
        cursor += u64::from(program.size_of(id));
    }
    Layout::from_addresses(addrs)
}

/// One screened cell of a prefiltered matrix: the candidate slate is the
/// algorithm axis plus `decoys` stacked layouts, screened by the static
/// miss-bound analyzer; only survivors were simulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScreenedCell {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Cache geometry of the cell.
    pub cache: CacheConfig,
    /// Candidate count (algorithms + decoys).
    pub candidates: usize,
    /// Candidates the analyzer skipped without simulating.
    pub screened: usize,
    /// Skips that were interval-provable (vs model-margin based).
    pub provable: usize,
    /// Candidates actually simulated (`candidates - screened`).
    pub simulated: usize,
    /// Name of the winning candidate (fewest simulated misses, first in
    /// slate order on ties) — byte-identical to the winner an unscreened
    /// run picks whenever the screen is sound.
    pub winner: String,
    /// The winner's simulated miss count on the testing trace.
    pub winner_misses: u64,
    /// Total misses across all simulated survivors (for tallying).
    pub misses: u64,
}

/// The axes of an evaluation matrix.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Benchmark axis.
    pub benchmarks: Vec<BenchmarkModel>,
    /// Algorithm axis.
    pub algorithms: Vec<AlgorithmSpec>,
    /// Cache-geometry axis (each config re-profiles: the Q bound and the
    /// offset space depend on the geometry).
    pub caches: Vec<CacheConfig>,
    /// Training/testing trace length.
    pub records: usize,
}

/// One evaluated cell of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Cache geometry the cell was profiled and evaluated on.
    pub cache: CacheConfig,
    /// Testing-trace simulation results.
    pub stats: SimStats,
}

impl SweepRow {
    /// Miss rate in percent (the figure the paper reports).
    pub fn miss_rate_pct(&self) -> f64 {
        self.stats.miss_rate() * 100.0
    }
}

/// A cell of the matrix failed (its job panicked).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Benchmark of the failed cell.
    pub benchmark: String,
    /// Cache config of the failed cell.
    pub cache: String,
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sweep cell ({} on {}) failed: {}",
            self.benchmark, self.cache, self.message
        )
    }
}

impl std::error::Error for SweepError {}

/// Expands and runs a [`SweepSpec`] across a worker pool.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    pool: Pool,
}

impl SweepRunner {
    /// A runner with `jobs` workers.
    pub fn new(jobs: usize) -> SweepRunner {
        SweepRunner {
            pool: Pool::new(jobs),
        }
    }

    /// A runner on an existing pool.
    pub fn on(pool: Pool) -> SweepRunner {
        SweepRunner { pool }
    }

    /// Runs the full matrix and returns rows in deterministic order
    /// (benchmark major, cache next, algorithm minor), independent of the
    /// worker count.
    ///
    /// Jobs are one per benchmark × cache pair: the pair's training
    /// trace, profile, and testing trace are computed once and shared by
    /// every algorithm on the axis. A panicking cell does not abort its
    /// siblings; all failures are collected into the error.
    ///
    /// # Errors
    ///
    /// Returns the first-listed [`SweepError`] per failed cell (rows from
    /// successful cells are discarded — a partially evaluated matrix is
    /// not a result).
    pub fn run(&self, spec: &SweepSpec) -> Result<Vec<SweepRow>, Vec<SweepError>> {
        struct Cell {
            model_idx: usize,
            cache: CacheConfig,
        }
        let cells: Vec<Cell> = (0..spec.benchmarks.len())
            .flat_map(|model_idx| {
                spec.caches
                    .iter()
                    .map(move |&cache| Cell { model_idx, cache })
            })
            .collect();

        let benchmarks = &spec.benchmarks;
        let algorithms = &spec.algorithms;
        let records = spec.records;
        let jobs: Vec<_> = cells
            .iter()
            .map(|cell| {
                let model = &benchmarks[cell.model_idx];
                let cache = cell.cache;
                move || -> Vec<SweepRow> {
                    let (train, test) = wpar::train_test_traces(model, records, &Pool::new(1))
                        .unwrap_or_else(|p| panic!("{p}"));
                    let session = Session::new(model.program(), cache).profile(&train);
                    algorithms
                        .iter()
                        .map(|alg| {
                            let layout = alg.place(&session);
                            SweepRow {
                                benchmark: model.name(),
                                algorithm: alg.name(),
                                cache,
                                stats: session.evaluate(&layout, &test),
                            }
                        })
                        .collect()
                }
            })
            .collect();

        let outcomes = self.pool.run(jobs);
        let mut rows = Vec::with_capacity(cells.len() * algorithms.len());
        let mut errors = Vec::new();
        for (cell, outcome) in cells.iter().zip(outcomes) {
            match outcome {
                Ok(mut cell_rows) => rows.append(&mut cell_rows),
                Err(p) => errors.push(SweepError {
                    benchmark: benchmarks[cell.model_idx].name().to_string(),
                    cache: cell.cache.to_string(),
                    message: p.message,
                }),
            }
        }
        if errors.is_empty() {
            Ok(rows)
        } else {
            Err(errors)
        }
    }

    /// Runs the matrix through the static miss-bound prefilter: each cell
    /// screens a candidate slate (the algorithm axis plus `decoys`
    /// [`stacked_decoy`] layouts) and simulates only the survivors, via
    /// [`ProfiledSession::evaluate_screened`](tempo::ProfiledSession::evaluate_screened).
    ///
    /// Cells come back in the same deterministic order as [`run`](Self::run).
    /// The screening counters (`analyze.screened`, `analyze.simulated`,
    /// `analyze.bound_width`) tick as a side effect.
    ///
    /// # Errors
    ///
    /// Same contract as [`run`](Self::run): one [`SweepError`] per
    /// panicked cell, no partial results.
    ///
    /// # Panics
    ///
    /// A cell panics if screening leaves no survivor — `screen_layouts`
    /// guarantees at least one by construction, so this indicates a bug.
    pub fn run_screened(
        &self,
        spec: &SweepSpec,
        decoys: usize,
    ) -> Result<Vec<ScreenedCell>, Vec<SweepError>> {
        struct Cell {
            model_idx: usize,
            cache: CacheConfig,
        }
        let cells: Vec<Cell> = (0..spec.benchmarks.len())
            .flat_map(|model_idx| {
                spec.caches
                    .iter()
                    .map(move |&cache| Cell { model_idx, cache })
            })
            .collect();

        let benchmarks = &spec.benchmarks;
        let algorithms = &spec.algorithms;
        let records = spec.records;
        let jobs: Vec<_> = cells
            .iter()
            .map(|cell| {
                let model = &benchmarks[cell.model_idx];
                let cache = cell.cache;
                move || -> ScreenedCell {
                    let (train, test) = wpar::train_test_traces(model, records, &Pool::new(1))
                        .unwrap_or_else(|p| panic!("{p}"));
                    let session = Session::new(model.program(), cache).profile(&train);
                    let mut names: Vec<String> = Vec::new();
                    let mut layouts: Vec<Layout> = Vec::new();
                    for alg in algorithms {
                        names.push(alg.name().to_string());
                        layouts.push(alg.place(&session));
                    }
                    for k in 0..decoys {
                        names.push(format!("stacked{k}"));
                        layouts.push(stacked_decoy(&session, k));
                    }
                    let (screen, stats) = session.evaluate_screened(&layouts, &test);
                    let screened = screen.screened();
                    let provable = screen
                        .layouts
                        .iter()
                        .filter(|s| s.skip && s.provable)
                        .count();
                    let (winner_idx, winner_misses) = stats
                        .iter()
                        .enumerate()
                        .filter_map(|(i, s)| s.as_ref().map(|s| (i, s.misses)))
                        .min_by_key(|&(i, misses)| (misses, i))
                        .expect("screening always leaves at least one survivor");
                    ScreenedCell {
                        benchmark: model.name(),
                        cache,
                        candidates: layouts.len(),
                        screened,
                        provable,
                        simulated: layouts.len() - screened,
                        winner: names[winner_idx].clone(),
                        winner_misses,
                        misses: stats.iter().flatten().map(|s| s.misses).sum(),
                    }
                }
            })
            .collect();

        let outcomes = self.pool.run(jobs);
        let mut rows = Vec::with_capacity(cells.len());
        let mut errors = Vec::new();
        for (cell, outcome) in cells.iter().zip(outcomes) {
            match outcome {
                Ok(row) => rows.push(row),
                Err(p) => errors.push(SweepError {
                    benchmark: benchmarks[cell.model_idx].name().to_string(),
                    cache: cell.cache.to_string(),
                    message: p.message,
                }),
            }
        }
        if errors.is_empty() {
            Ok(rows)
        } else {
            Err(errors)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo::workloads::suite;

    #[test]
    fn matrix_expands_in_deterministic_order() {
        let spec = SweepSpec {
            benchmarks: vec![suite::m88ksim()],
            algorithms: vec![AlgorithmSpec::Identity, AlgorithmSpec::Gbsc],
            caches: vec![
                CacheConfig::direct_mapped(4096).unwrap(),
                CacheConfig::direct_mapped_8k(),
            ],
            records: 4_000,
        };
        let rows = SweepRunner::new(2).run(&spec).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(
            rows.iter().map(|r| r.algorithm).collect::<Vec<_>>(),
            vec!["default", "GBSC", "default", "GBSC"]
        );
        assert_eq!(rows[0].cache.size(), 4096);
        assert_eq!(rows[2].cache.size(), 8192);
    }
}
