//! Shared plumbing for the experiments that regenerate the paper's tables
//! and figures.
//!
//! Each experiment in [`harness::REGISTRY`] reproduces one artifact (see
//! DESIGN.md §4 for the experiment index) and runs through the
//! `tempo-bench` driver; this library holds the pieces they share: the
//! common arguments, the standard trace lengths, CSV emission, and simple
//! statistics.

// In the test build, `unwrap` IS the assertion.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::cast_possible_truncation))]

use std::fmt::Write as _;

pub use tempo;
pub use tempo_par;

pub mod experiments;
pub mod harness;
pub mod sweep;

/// Default number of trace records for training runs.
///
/// The paper's traces are 17M–146M basic blocks; we default to 400k
/// control-flow transitions, which preserves the phase structure while
/// keeping every experiment runnable in seconds. Override with
/// `tempo-bench run-all --records N`.
pub const DEFAULT_TRAIN_LEN: usize = 400_000;

/// Default number of trace records for testing runs.
pub const DEFAULT_TEST_LEN: usize = 400_000;

/// The arguments every experiment runs with, set by `tempo-bench run-all`
/// from its flags and each experiment's defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonArgs {
    /// Trace length override.
    pub records: usize,
    /// RNG seed for perturbations.
    pub seed: u64,
    /// Number of randomized runs (Figure 5: 40; Figure 6: 80).
    pub runs: usize,
    /// Worker threads for parallel sweeps (default: available
    /// parallelism). Results are byte-identical for any value.
    pub jobs: usize,
    /// Screen candidate layouts with the static miss-bound analyzer and
    /// simulate only the survivors (experiments that support it; off by
    /// default because the default reports are the regression baseline).
    pub prefilter: bool,
}

/// Places with `algorithm` and asserts the layout passes the static
/// analyzer ([`tempo::analyze`]).
///
/// Experiments go through this instead of
/// [`ProfiledSession::place`](tempo::ProfiledSession::place) so a broken
/// placement aborts the run instead of silently contributing numbers from
/// an invalid layout.
///
/// # Panics
///
/// Panics with the rendered report when the analyzer finds
/// error-severity diagnostics.
pub fn checked_place(
    session: &tempo::ProfiledSession<'_>,
    algorithm: &dyn tempo::place::PlacementAlgorithm,
) -> tempo::program::Layout {
    let layout = session.place(algorithm);
    let report = session.check(&layout);
    assert!(
        report.error_count() == 0,
        "{} produced a layout failing static analysis:\n{}",
        algorithm.name(),
        report.render_text(session.program())
    );
    layout
}

/// Writes `rows` as CSV to `path` with the given header.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_csv(path: &str, header: &str, rows: &[String]) -> std::io::Result<()> {
    let mut body = String::new();
    writeln!(body, "{header}").expect("writing to a String cannot fail");
    for r in rows {
        writeln!(body, "{r}").expect("writing to a String cannot fail");
    }
    std::fs::write(path, body)
}

/// Pearson correlation coefficient of a point set (0 for degenerate sets).
pub fn pearson(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let vx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let vy: f64 = points.iter().map(|p| (p.1 - my).powi(2)).sum();
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx * vy).sqrt()
    }
}

/// Sorted copy of `values` (ascending), for CDF-style reporting.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("values are finite"));
    v
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        0.0
    } else {
        v[v.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 2.0 * i as f64 + 1.0)).collect();
        assert!((pearson(&pts) - 1.0).abs() < 1e-12);
        let anti: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, -(i as f64))).collect();
        assert!((pearson(&anti) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate() {
        assert_eq!(pearson(&[]), 0.0);
        assert_eq!(pearson(&[(1.0, 2.0)]), 0.0);
        assert_eq!(pearson(&[(1.0, 1.0), (1.0, 2.0)]), 0.0);
    }

    #[test]
    fn write_csv_roundtrips_rows() {
        let path = std::env::temp_dir().join(format!("tempo-csv-{}.csv", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        write_csv(&path_str, "a,b", &["1,2".to_string(), "3,4".to_string()]).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "a,b\n1,2\n3,4\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn median_and_sorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(sorted(&[2.0, 1.0]), vec![1.0, 2.0]);
    }
}
