//! Integration test for the miss-bound prefilter (ISSUE 6 acceptance):
//! on the cache-sweep matrix, screening must skip at least 30% of the
//! candidate simulations while leaving every cell's winner byte-identical
//! to the winner a full (unscreened) evaluation of the same slate picks.

#![allow(clippy::unwrap_used, clippy::cast_precision_loss)] // test code asserts by panicking

use tempo_bench::sweep::{stacked_decoy, AlgorithmSpec, SweepRunner, SweepSpec};
use tempo_bench::tempo::prelude::*;
use tempo_bench::tempo::workloads::{par as wpar, suite, BenchmarkModel};
use tempo_bench::tempo_par::Pool;

const RECORDS: usize = 20_000;

fn spec() -> SweepSpec {
    SweepSpec {
        // The 16 KB cells are the regression anchor: there the Figure-6
        // model and the interval upper bound disagree on PH, and a screen
        // that trusts the model alone skips the true winner.
        benchmarks: vec![suite::m88ksim(), suite::perl()],
        algorithms: AlgorithmSpec::standard(),
        caches: vec![
            CacheConfig::direct_mapped_8k(),
            CacheConfig::direct_mapped(16 * 1024).unwrap(),
        ],
        records: RECORDS,
    }
}

/// Rebuilds one cell's candidate slate exactly as `run_screened` does and
/// returns the full-evaluation winner: first minimum by simulated misses
/// in slate order.
fn full_winner(model: &BenchmarkModel, cache: CacheConfig) -> String {
    let (train, test) = wpar::train_test_traces(model, RECORDS, &Pool::new(1)).unwrap();
    let session = Session::new(model.program(), cache).profile(&train);
    let mut names: Vec<String> = Vec::new();
    let mut layouts: Vec<Layout> = Vec::new();
    for (name, layout) in [
        ("default", Layout::source_order(model.program())),
        ("PH", session.place(&PettisHansen::new())),
        ("HKC", session.place(&CacheColoring::new())),
        ("GBSC", session.place(&Gbsc::new())),
    ] {
        names.push(name.to_string());
        layouts.push(layout);
    }
    for k in 0..4 {
        names.push(format!("stacked{k}"));
        layouts.push(stacked_decoy(&session, k));
    }
    let (idx, _) = layouts
        .iter()
        .enumerate()
        .map(|(i, l)| (i, session.evaluate(l, &test).misses))
        .min_by_key(|&(i, misses)| (misses, i))
        .unwrap();
    names[idx].clone()
}

#[test]
fn prefilter_skips_a_third_and_keeps_every_winner() {
    let spec = spec();
    let cells = SweepRunner::new(2).run_screened(&spec, 4).unwrap();
    assert_eq!(cells.len(), spec.benchmarks.len() * spec.caches.len());

    let (mut candidates, mut screened) = (0usize, 0usize);
    for cell in &cells {
        assert_eq!(cell.candidates, 8);
        assert_eq!(cell.simulated, cell.candidates - cell.screened);
        assert!(cell.simulated >= 1, "screening must leave a survivor");
        candidates += cell.candidates;
        screened += cell.screened;

        let model = spec
            .benchmarks
            .iter()
            .find(|m| m.name() == cell.benchmark)
            .unwrap();
        assert_eq!(
            cell.winner,
            full_winner(model, cell.cache),
            "screened winner diverged on {} @ {}",
            cell.benchmark,
            cell.cache
        );
    }
    let fraction = screened as f64 / candidates as f64;
    assert!(
        fraction >= 0.30,
        "prefilter skipped only {screened}/{candidates} simulations"
    );

    // The screening counters cover every candidate exactly once. One
    // worker runs every cell on this thread, so a scoped registry sees
    // all of them (and nothing from concurrently running tests); the
    // cells must not depend on the worker count.
    let registry = std::sync::Arc::new(tempo_obs::Registry::new());
    let serial = {
        let _scope = tempo_obs::scoped(registry.clone());
        SweepRunner::new(1).run_screened(&spec, 4).unwrap()
    };
    assert_eq!(serial, cells, "screened cells depend on the worker count");
    let snap = registry.snapshot();
    let counted = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(counted("analyze.screened"), screened as u64);
    assert_eq!(
        counted("analyze.screened") + counted("analyze.simulated"),
        candidates as u64,
        "screened + simulated must cover every candidate"
    );
}

#[test]
fn stacked_decoys_are_valid_distinct_and_bad() {
    let model = suite::m88ksim();
    let cache = CacheConfig::direct_mapped_8k();
    let (train, test) = wpar::train_test_traces(&model, RECORDS, &Pool::new(1)).unwrap();
    let session = Session::new(model.program(), cache).profile(&train);
    let gbsc = session.place(&Gbsc::new());
    let gbsc_misses = session.evaluate(&gbsc, &test).misses;
    let mut seen = Vec::new();
    for k in 0..4 {
        let decoy = stacked_decoy(&session, k);
        decoy.validate(model.program()).unwrap();
        assert!(!seen.contains(&decoy), "variant {k} duplicates another");
        assert!(
            session.evaluate(&decoy, &test).misses > gbsc_misses,
            "variant {k} is not worse than GBSC"
        );
        seen.push(decoy);
    }
}
