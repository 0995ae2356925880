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

/// Records per frame of the fixture: small, so every fault class has
/// many frame headers and payloads to land in.
const FRAME_RECORDS: usize = 100;

/// A program with mixed procedure sizes and a phase-structured trace,
/// and that trace serialized to the TMP2 stream the injectors corrupt.
fn fixture() -> (Program, Trace, Vec<u8>) {
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
    let bytes = tempo::trace::testkit::v2_bytes(&trace, FRAME_RECORDS).unwrap();
    (program, trace, bytes)
}

fn lossy(bytes: &[u8], program: &Program) -> (Trace, TraceWarnings) {
    tempo::trace::v2::read_binary_v2_lossy(bytes, Some(program)).expect("lossy reads are total")
}

#[test]
fn readers_never_panic_and_lossy_always_recovers() {
    let (program, original, bytes) = fixture();
    let frame_starts: Vec<usize> = tempo::trace::v2::scan_frames(bytes.as_slice())
        .unwrap()
        .iter()
        .map(|f| usize::try_from(f.offset).unwrap())
        .collect();
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
                // A cut at a frame boundary is a valid shorter stream (the
                // format declares no total count); anywhere else strict
                // mode fails. Either way lossy mode keeps exactly the
                // whole frames before the cut.
                FaultClass::Truncate => {
                    let cut = corrupt.len();
                    let whole = frame_starts.iter().filter(|&&s| s < cut).count();
                    let kept = if frame_starts.contains(&cut) || cut == bytes.len() {
                        assert!(strict.is_ok(), "cut at a frame boundary, seed {seed}");
                        whole
                    } else {
                        assert!(strict.is_err(), "truncate seed {seed} read strictly");
                        whole.saturating_sub(1)
                    };
                    let kept = (kept * FRAME_RECORDS).min(original.len());
                    assert_eq!(trace.records(), &original.records()[..kept], "seed {seed}");
                }
                // Flipped bits land in the preamble, a frame header or a
                // payload; each is caught by the magic/version check, the
                // length and count checks, or the CRC.
                FaultClass::BitFlip => {
                    if corrupt != bytes {
                        assert!(strict.is_err(), "bit-flip seed {seed} read strictly");
                        assert!(warnings.total() >= 1, "bit-flip seed {seed}: {warnings}");
                    }
                }
                // Spliced bytes knock the framing out at the splice: the
                // frames before it survive, nothing after it does.
                FaultClass::RecordSplice => {
                    assert!(strict.is_err(), "splice seed {seed} read strictly");
                    assert!(warnings.bad_frames >= 1, "splice seed {seed}: {warnings}");
                    assert!(original.records().starts_with(trace.records()));
                }
                // A mangled preamble is tallied, and every frame behind it
                // is still read.
                FaultClass::HeaderMangle => {
                    assert!(strict.is_err(), "header-mangle seed {seed} read strictly");
                    assert_eq!(warnings.header_mangled, 1, "seed {seed}: {warnings}");
                    assert_eq!(warnings.total(), 1, "seed {seed}: {warnings}");
                    assert_eq!(trace, original, "seed {seed}");
                }
                // One frame lost a record but kept its count and CRC:
                // strict mode rejects it, lossy mode skips exactly it.
                FaultClass::StackUnbalance => {
                    assert!(
                        matches!(
                            strict,
                            Err(tempo::trace::io::TraceIoError::CorruptFrame { .. })
                        ),
                        "unbalance seed {seed} not reported as a corrupt frame"
                    );
                    assert_eq!(warnings.bad_frames, 1, "seed {seed}: {warnings}");
                    assert_eq!(warnings.total(), 1, "seed {seed}: {warnings}");
                    assert_eq!(trace.len(), original.len() - FRAME_RECORDS, "seed {seed}");
                }
                // Remapped ids sit in a CRC-valid frame: the stream parses
                // strictly but fails validation, lossy drops and counts.
                FaultClass::ProcIdRemap => {
                    let strict_trace = strict
                        .unwrap_or_else(|e| panic!("remap seed {seed} should parse strictly: {e}"));
                    assert!(strict_trace.validate(&program).is_err());
                    assert!(warnings.unknown_proc >= 1, "seed {seed}: {warnings}");
                    assert_eq!(warnings.total(), warnings.unknown_proc, "seed {seed}");
                    assert_eq!(
                        trace.len() as u64 + warnings.unknown_proc,
                        original.len() as u64
                    );
                }
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
            }
        }
    }
}

/// The streaming path (a `V2Source` drained by `pump`, block by block)
/// recovers exactly what the record-by-record reader recovers, with the
/// same tallies, on every corrupted stream.
#[test]
fn v2_streaming_readers_never_panic_and_lossy_always_recovers() {
    let (program, _, bytes) = fixture();
    for class in FaultClass::ALL {
        for seed in 0..SEEDS {
            let corrupt = class.inject(&bytes, seed);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut source =
                    tempo::trace::v2::V2Source::new_lossy(corrupt.as_slice(), Some(&program))
                        .expect("lossy open is total");
                let mut sink = Trace::default();
                pump(&mut source, &mut sink).expect("lossy stream is total");
                (sink, source.warnings())
            }));
            let (streamed, stream_warnings) =
                outcome.unwrap_or_else(|_| panic!("v2 source panicked: {class} seed {seed}"));
            let (materialized, mat_warnings) = lossy(&corrupt, &program);
            assert_eq!(
                streamed, materialized,
                "streamed and record-by-record lossy reads disagree: {class} seed {seed}"
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
    let (program, _, bytes) = fixture();
    for class in FaultClass::ALL {
        for seed in 0..SEEDS {
            let corrupt = class.inject(&bytes, seed);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let (trace, _) = lossy(&corrupt, &program);
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
    let (program, trace, _) = fixture();
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
    let (program, _, bytes) = fixture();
    // Corrupt, recover, then place under a sweep of budgets: the fallback
    // chain must stay panic-free and always produce a valid layout.
    for class in [FaultClass::BitFlip, FaultClass::RecordSplice] {
        let corrupt = class.inject(&bytes, 1);
        let (trace, _) = lossy(&corrupt, &program);
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
