//! End-to-end pipeline tests spanning every crate: program construction,
//! trace generation, profiling, placement, linearization, and simulation.

#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test/demo code asserts by panicking

use tempo::prelude::*;
use tempo::workloads::{BenchmarkModel, InputSpec, WorkloadSpec};

fn small_model() -> BenchmarkModel {
    BenchmarkModel::build(
        WorkloadSpec {
            name: "it-small",
            proc_count: 100,
            total_size: 400_000,
            hot_count: 22,
            hot_size: 80_000,
            phases: 4,
            phase_window: 6,
            phase_dwell: 50,
            fanout: 4.0,
            skew: 0.7,
            cold_call_rate: 0.015,
            nested_call_rate: 0.25,
            build_seed: 3,
        },
        InputSpec::new(31),
        InputSpec::new(32),
    )
}

#[test]
fn every_algorithm_produces_a_valid_layout() {
    let model = small_model();
    let program = model.program();
    let train = model.training_trace(60_000);
    let session = Session::new(program, CacheConfig::direct_mapped_8k()).profile(&train);

    let algorithms: Vec<Box<dyn PlacementAlgorithm>> = vec![
        Box::new(SourceOrder::new()),
        Box::new(RandomOrder::new(1)),
        Box::new(PettisHansen::new()),
        Box::new(CacheColoring::new()),
        Box::new(Gbsc::new()),
    ];
    for alg in &algorithms {
        let layout = session.place(alg);
        layout
            .validate(program)
            .unwrap_or_else(|e| panic!("{} produced invalid layout: {e}", alg.name()));
        assert_eq!(layout.len(), program.len(), "{}", alg.name());
    }
}

#[test]
fn optimized_layouts_beat_default_on_training_input() {
    let model = small_model();
    let program = model.program();
    let train = model.training_trace(80_000);
    let session = Session::new(program, CacheConfig::direct_mapped_8k()).profile(&train);

    let default = session.evaluate(&session.place(&SourceOrder::new()), &train);
    let ph = session.evaluate(&session.place(&PettisHansen::new()), &train);
    let hkc = session.evaluate(&session.place(&CacheColoring::new()), &train);
    let gbsc = session.evaluate(&session.place(&Gbsc::new()), &train);

    assert!(
        ph.miss_rate() < default.miss_rate(),
        "PH {:.3}% vs default {:.3}%",
        ph.miss_rate() * 100.0,
        default.miss_rate() * 100.0
    );
    assert!(
        hkc.miss_rate() < default.miss_rate(),
        "HKC {:.3}% vs default {:.3}%",
        hkc.miss_rate() * 100.0,
        default.miss_rate() * 100.0
    );
    assert!(
        gbsc.miss_rate() < default.miss_rate(),
        "GBSC {:.3}% vs default {:.3}%",
        gbsc.miss_rate() * 100.0,
        default.miss_rate() * 100.0
    );
    // The headline result: temporal information helps beyond the WCG.
    assert!(
        gbsc.miss_rate() <= ph.miss_rate() * 1.1,
        "GBSC {:.3}% should be competitive with PH {:.3}%",
        gbsc.miss_rate() * 100.0,
        ph.miss_rate() * 100.0
    );
}

#[test]
fn train_test_generalization_holds() {
    let model = small_model();
    let program = model.program();
    let train = model.training_trace(80_000);
    let test = model.testing_trace(80_000);
    let session = Session::new(program, CacheConfig::direct_mapped_8k()).profile(&train);

    let default = session.evaluate(&session.place(&SourceOrder::new()), &test);
    let gbsc = session.evaluate(&session.place(&Gbsc::new()), &test);
    assert!(
        gbsc.miss_rate() < default.miss_rate(),
        "GBSC {:.3}% vs default {:.3}% on unseen input",
        gbsc.miss_rate() * 100.0,
        default.miss_rate() * 100.0
    );
}

#[test]
fn trace_io_roundtrip_through_the_pipeline() {
    let model = small_model();
    let program = model.program();
    let trace = model.training_trace(5_000);

    let mut buf = Vec::new();
    tempo::trace::v2::write_binary_v2(&mut buf, &trace).unwrap();
    let back = tempo::trace::v2::read_binary_v2(buf.as_slice()).unwrap();
    assert_eq!(back, trace);

    // Profiles built from the round-tripped trace are identical.
    let a = Session::new(program, CacheConfig::direct_mapped_8k()).profile(&trace);
    let b = Session::new(program, CacheConfig::direct_mapped_8k()).profile(&back);
    assert_eq!(
        a.profile().trg_select.total_weight(),
        b.profile().trg_select.total_weight()
    );
}

#[test]
fn determinism_across_full_pipeline() {
    let run = || {
        let model = small_model();
        let program = model.program();
        let train = model.training_trace(40_000);
        let session = Session::new(program, CacheConfig::direct_mapped_8k()).profile(&train);
        let layout = session.place(&Gbsc::new());
        let test = model.testing_trace(40_000);
        session.evaluate(&layout, &test)
    };
    assert_eq!(run(), run());
}

#[test]
fn padding_perturbs_miss_rate() {
    // The §5.1 anecdote: adding one cache line of padding after every
    // procedure changes the miss rate noticeably even though the order is
    // unchanged.
    let model = small_model();
    let program = model.program();
    let train = model.training_trace(80_000);
    let session = Session::new(program, CacheConfig::direct_mapped_8k()).profile(&train);
    let layout = session.place(&Gbsc::new());
    let padded = layout.with_uniform_padding(program, 32);
    padded.validate(program).unwrap();
    let base = session.evaluate(&layout, &train).miss_rate();
    let pad = session.evaluate(&padded, &train).miss_rate();
    assert_ne!(base, pad, "padding must move the miss rate");
}
