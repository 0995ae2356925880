//! The robustness matrix: every fault class × {strict, lossy} × seeds.
//!
//! Contract under test (DESIGN.md §8):
//!
//! * strict readers return `Ok` or a *structured* `TraceIoError` — never
//!   a panic;
//! * lossy readers are total: they always return a trace that fits the
//!   program, with `TraceWarnings` tallying what was repaired or dropped;
//! * the downstream pipeline (lossy profile → placement) stays
//!   panic-free on every recovered trace;
//! * a starved budget still yields an analyzer-clean identity layout and
//!   a `Degradation` record naming the tier.

#![allow(clippy::unwrap_used)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use tempo::prelude::*;
use tempo_faults::FaultClass;

const SEEDS: u64 = 8;

/// A program with mixed procedure sizes and a phase-structured trace,
/// serialized to the binary format the injectors corrupt.
fn fixture() -> (Program, Vec<u8>) {
    let mut builder = Program::builder();
    for (i, size) in [1024u32, 4096, 2048, 8192, 512, 4096, 1024, 2048]
        .into_iter()
        .enumerate()
    {
        builder.procedure(format!("p{i}"), size);
    }
    let program = builder.build().unwrap();
    let ids: Vec<ProcId> = program.ids().collect();
    let mut refs = Vec::new();
    for phase in 0..4 {
        for i in 0..200 {
            refs.push(ids[(phase + i) % ids.len()]);
            refs.push(ids[phase % ids.len()]);
        }
    }
    let trace = Trace::from_full_records(&program, refs);
    let mut bytes = Vec::new();
    tempo::trace::io::write_binary(&mut bytes, &trace).unwrap();
    (program, bytes)
}

#[test]
fn readers_never_panic_and_lossy_always_recovers() {
    let (program, bytes) = fixture();
    for class in FaultClass::ALL {
        for seed in 0..SEEDS {
            let corrupt = class.inject(&bytes, seed);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let strict = tempo::trace::io::read_binary(corrupt.as_slice());
                let lossy = tempo::trace::io::read_binary_lossy(corrupt.as_slice(), Some(&program));
                (strict, lossy)
            }));
            let (strict, lossy) =
                outcome.unwrap_or_else(|_| panic!("reader panicked: {class} seed {seed}"));

            // Lossy mode is total and its output always fits the program.
            let (trace, warnings) =
                lossy.unwrap_or_else(|e| panic!("lossy read failed: {class} seed {seed}: {e}"));
            assert!(
                trace.validate(&program).is_ok(),
                "lossy output does not fit the program: {class} seed {seed}"
            );

            // Class-specific expectations.
            match class {
                // Any cut below the full length loses header or record
                // bytes, which strict mode must report.
                FaultClass::Truncate => {
                    assert!(strict.is_err(), "truncate seed {seed} read strictly");
                }
                // A deleted record contradicts the declared count.
                FaultClass::StackUnbalance => {
                    assert!(
                        matches!(
                            strict,
                            Err(tempo::trace::io::TraceIoError::Truncated { .. })
                        ),
                        "unbalance seed {seed} not reported as truncation"
                    );
                    assert!(warnings.count_mismatch >= 1, "seed {seed}: {warnings}");
                }
                // Any header byte change is either a magic/version defect
                // or a count that disagrees with the records on disk.
                FaultClass::HeaderMangle => {
                    assert!(
                        warnings.header_mangled + warnings.count_mismatch >= 1,
                        "mangle seed {seed} left no warning: {warnings}"
                    );
                }
                // Remapped ids parse fine but name no known procedure:
                // strict output fails validation, lossy drops and counts.
                FaultClass::ProcIdRemap => {
                    let strict_trace = strict
                        .unwrap_or_else(|e| panic!("remap seed {seed} should parse strictly: {e}"));
                    assert!(strict_trace.validate(&program).is_err());
                    assert!(warnings.unknown_proc >= 1, "seed {seed}: {warnings}");
                }
                // Bit flips, splices, and mid-stream mangles can produce
                // any byte pattern, so the only universal guarantees are
                // the ones asserted above for every class.
                FaultClass::BitFlip | FaultClass::RecordSplice | FaultClass::FrameMangle => {}
            }
        }
    }
}

/// Re-frames the fixture trace into the v2 container with small frames so
/// every fault class has many frame headers and payloads to land in.
fn v2_fixture_bytes(v1: &[u8]) -> Vec<u8> {
    let trace = tempo::trace::io::read_binary(v1).unwrap();
    tempo::trace::testkit::v2_bytes(&trace, 100).unwrap()
}

#[test]
fn v2_streaming_readers_never_panic_and_lossy_always_recovers() {
    let (program, v1) = fixture();
    let bytes = v2_fixture_bytes(&v1);
    for class in FaultClass::ALL {
        for seed in 0..SEEDS {
            let corrupt = class.inject(&bytes, seed);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let strict = tempo::trace::v2::read_binary_v2(corrupt.as_slice());
                let lossy =
                    tempo::trace::v2::read_binary_v2_lossy(corrupt.as_slice(), Some(&program));
                (strict, lossy)
            }));
            let (strict, lossy) =
                outcome.unwrap_or_else(|_| panic!("v2 reader panicked: {class} seed {seed}"));

            // Lossy mode is total and its output always fits the program.
            let (trace, warnings) =
                lossy.unwrap_or_else(|e| panic!("v2 lossy read failed: {class} seed {seed}: {e}"));
            assert!(
                trace.validate(&program).is_ok(),
                "v2 lossy output does not fit the program: {class} seed {seed}"
            );

            match class {
                // One mangled byte past the preamble always breaks exactly
                // one frame: its CRC (or length/count prefix) no longer
                // matches, so strict mode rejects and lossy mode skips it.
                FaultClass::FrameMangle => {
                    assert!(strict.is_err(), "frame-mangle seed {seed} read strictly");
                    assert!(
                        warnings.bad_frames >= 1,
                        "frame-mangle seed {seed} left no bad-frame warning: {warnings}"
                    );
                }
                // The mangle targets the first 16 bytes, but the v2
                // preamble is only 8: the hit corrupts either the
                // magic/version or the first frame's header.
                FaultClass::HeaderMangle => {
                    assert!(strict.is_err(), "header-mangle seed {seed} read strictly");
                    assert!(
                        warnings.header_mangled + warnings.bad_frames >= 1,
                        "header-mangle seed {seed}: {warnings}"
                    );
                }
                // The remaining classes assume v1 offsets, so on the v2
                // container they degenerate to arbitrary edits (and a cut
                // at a frame boundary is a *valid* shorter v2 stream —
                // the format declares no total count); only the universal
                // guarantees above apply.
                FaultClass::Truncate
                | FaultClass::BitFlip
                | FaultClass::RecordSplice
                | FaultClass::StackUnbalance
                | FaultClass::ProcIdRemap => {}
            }
        }
    }
}

#[test]
fn v1_streaming_source_matches_materialized_reader_on_corrupt_input() {
    let (program, bytes) = fixture();
    for class in FaultClass::ALL {
        for seed in 0..SEEDS {
            let corrupt = class.inject(&bytes, seed);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut source =
                    tempo::trace::io::V1Source::new_lossy(corrupt.as_slice(), Some(&program))
                        .expect("lossy open is total");
                let mut sink = Trace::default();
                pump(&mut source, &mut sink).expect("lossy stream is total");
                (sink, source.warnings())
            }));
            let (streamed, stream_warnings) =
                outcome.unwrap_or_else(|_| panic!("v1 source panicked: {class} seed {seed}"));
            let (materialized, mat_warnings) =
                tempo::trace::io::read_binary_lossy(corrupt.as_slice(), Some(&program))
                    .expect("lossy reads are total");
            assert_eq!(
                streamed.records().len(),
                materialized.records().len(),
                "streamed and materialized lossy reads disagree: {class} seed {seed}"
            );
            assert_eq!(
                stream_warnings, mat_warnings,
                "warning tallies disagree: {class} seed {seed}"
            );
        }
    }
}

#[test]
fn lossy_pipeline_places_cleanly_on_every_corrupted_trace() {
    let (program, bytes) = fixture();
    for class in FaultClass::ALL {
        for seed in 0..SEEDS {
            let corrupt = class.inject(&bytes, seed);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let (trace, _) =
                    tempo::trace::io::read_binary_lossy(corrupt.as_slice(), Some(&program))
                        .expect("lossy reads are total");
                let session = Session::new(&program, CacheConfig::direct_mapped_8k())
                    .popularity(PopularitySelector::all())
                    .profile(&trace);
                session.place(&Gbsc::new())
            }));
            let layout =
                outcome.unwrap_or_else(|_| panic!("pipeline panicked: {class} seed {seed}"));
            layout
                .validate(&program)
                .unwrap_or_else(|e| panic!("invalid layout: {class} seed {seed}: {e}"));
        }
    }
}

#[test]
fn starved_budget_yields_analyzer_clean_identity_layout() {
    let (program, bytes) = fixture();
    let trace = tempo::trace::io::read_binary(bytes.as_slice()).unwrap();
    let session = Session::new(&program, CacheConfig::direct_mapped_8k())
        .popularity(PopularitySelector::all())
        .profile(&trace);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        session.place_budgeted(&Gbsc::new(), Budget::work_units(1))
    }));
    let (layout, degradation) = outcome.unwrap_or_else(|_| panic!("starved place panicked"));
    let report = session.check(&layout);
    assert_eq!(degradation.tier, DegradationTier::Identity);
    assert_eq!(degradation.ran, "default");
    assert!(degradation.is_degraded());
    assert!(!degradation.exhausted.is_empty());
    assert_eq!(layout, Layout::source_order(&program));
    assert_eq!(report.error_count(), 0, "{}", report.render_text(&program));
    layout.validate(&program).unwrap();
}

#[test]
fn budgeted_placement_never_panics_even_on_recovered_traces() {
    let (program, bytes) = fixture();
    // Corrupt, recover, then place under a sweep of budgets: the fallback
    // chain must stay panic-free and always produce a valid layout.
    for class in [FaultClass::BitFlip, FaultClass::RecordSplice] {
        let corrupt = class.inject(&bytes, 1);
        let (trace, _) = tempo::trace::io::read_binary_lossy(corrupt.as_slice(), Some(&program))
            .expect("lossy reads are total");
        let session = Session::new(&program, CacheConfig::direct_mapped_8k())
            .popularity(PopularitySelector::all())
            .profile(&trace);
        for budget in [
            Budget::work_units(1),
            Budget::work_units(50),
            Budget::unlimited(),
        ] {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                session.place_budgeted(&Gbsc::new(), budget)
            }));
            let (layout, _) =
                outcome.unwrap_or_else(|_| panic!("budgeted place panicked: {class} {budget:?}"));
            layout.validate(&program).unwrap();
        }
    }
}
