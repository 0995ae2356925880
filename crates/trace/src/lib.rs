//! Procedure-grain execution traces for the **tempo** toolkit.
//!
//! The paper drives every placement algorithm from a program trace: an
//! ordered record of control-flow transitions between procedures (calls
//! *and* returns). This crate defines:
//!
//! * [`TraceRecord`] / [`Trace`] — the trace representation. Each record is
//!   one control-flow transition *into* a procedure together with the number
//!   of bytes executed before the next transition, which is what a
//!   line-accurate instruction-cache simulation needs.
//! * [`source`] — the streaming dataflow vocabulary: [`TraceSource`]
//!   producers, [`TraceSink`] consumers, the [`pump`] driver loop, and
//!   [`Tee`] fan-out, so pipelines process traces of any length in
//!   constant memory (DESIGN.md §10).
//! * [`v2`] — the trace container (TMP2): CRC-framed blocks of varint
//!   records, streamable and lossy-recoverable frame by frame, read by one
//!   reader ([`v2::V2Source`], opened from a file by [`open_v2_auto`]).
//! * [`io`] — the readers' shared vocabulary: structured errors, the
//!   strict/lossy read mode and the lossy defect tallies.
//! * [`testkit`] — TMP2 fixture builders shared by integration tests and
//!   the bench harness (in-memory containers at a chosen frame
//!   granularity, constant-memory file fixtures from any source).
//! * [`stats`] — the small statistical samplers (normal, lognormal, Zipf)
//!   used by the workload substrate and the profile-perturbation machinery,
//!   implemented in-repo so the only randomness dependency is `rand`.
//! * [`analysis`] — reuse-distance and working-set analysis of traces,
//!   the quantities the paper's Q-set bound reasons about.
//!
//! # Example
//!
//! ```
//! use tempo_program::{Program, ProcId};
//! use tempo_trace::{Trace, TraceRecord};
//!
//! let program = Program::builder()
//!     .procedure("m", 128)
//!     .procedure("x", 64)
//!     .build()?;
//! let m = program.proc_id("m").unwrap();
//! let x = program.proc_id("x").unwrap();
//!
//! // m calls x, x returns to m: three transitions.
//! let trace = Trace::from_full_records(&program, [m, x, m]);
//! assert_eq!(trace.len(), 3);
//! assert_eq!(trace.records()[1].proc, x);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// In the test build, `unwrap` IS the assertion.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::cast_possible_truncation))]

pub mod analysis;
pub mod io;
pub mod obs;
pub mod source;
pub mod stats;
pub mod testkit;
mod trace;
pub mod v2;

pub use source::{pump, MemorySource, PumpSummary, RecordBlock, Tee, TraceSink, TraceSource};
pub use trace::{Trace, TraceBuilder, TraceRecord, TraceStats};
pub use v2::{open_v2_auto, open_v2_auto_lossy};

/// Whole-buffer input: a TMP2 container already held in memory (a file read
/// in full, or mapped) is decoded by [`v2::V2Source`] over a byte slice, and
/// must behave exactly like the same file streamed from disk through
/// [`open_v2_auto`] / [`open_v2_auto_lossy`] — records, warnings and errors.
#[cfg(test)]
mod mmap {
    #[cfg(test)]
    mod tests {
        use std::path::PathBuf;

        use tempo_program::ProcId;

        use crate::io::{TraceIoError, TraceWarnings};
        use crate::testkit::v2_bytes;
        use crate::v2::{V2Source, MAGIC_V2};
        use crate::{open_v2_auto, open_v2_auto_lossy, Trace, TraceRecord, TraceSource};

        fn sample_trace() -> Trace {
            Trace::from_records(
                (0..5_000u32)
                    .map(|i| TraceRecord::new(ProcId::new(i % 97), (i % 1000) + 1))
                    .collect(),
            )
        }

        /// Writes `bytes` to a file of its own and returns its path.
        fn on_disk(name: &str, bytes: &[u8]) -> PathBuf {
            let dir = std::env::temp_dir().join("tempo_whole_buffer_tests");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            path
        }

        /// Records up to the end of the stream, the error that ended it
        /// early (if any), and the warnings tallied.
        fn drain<S: TraceSource>(
            mut src: S,
        ) -> (Vec<TraceRecord>, Option<TraceIoError>, TraceWarnings) {
            let mut out = Vec::new();
            let error = loop {
                match src.try_next() {
                    Ok(Some(r)) => out.push(r),
                    Ok(None) => break None,
                    Err(e) => break Some(e),
                }
            };
            (out, error, src.warnings())
        }

        #[test]
        fn mmap_matches_streaming_reader_record_for_record() {
            let t = sample_trace();
            let path = on_disk("record_for_record.v2", &v2_bytes(&t, 512).unwrap());
            let buf = std::fs::read(&path).unwrap();
            let (in_memory, me, mw) = drain(V2Source::new(buf.as_slice()).unwrap());
            let (streamed, se, sw) = drain(open_v2_auto(&path, None).unwrap());
            assert!(me.is_none() && se.is_none());
            assert_eq!(in_memory, streamed);
            assert_eq!(in_memory, t.records());
            assert_eq!(mw, sw);
            assert!(mw.is_clean());
        }

        /// The header errors of `bytes` read in memory and from a file.
        fn header_errors(name: &str, bytes: &[u8]) -> [TraceIoError; 2] {
            let path = on_disk(name, bytes);
            [
                V2Source::new(bytes).err().unwrap(),
                open_v2_auto(&path, None).err().unwrap(),
            ]
        }

        #[test]
        fn mmap_rejects_bad_magic_and_version() {
            for err in header_errors("bad_magic.v2", b"NOPE\x02\x00\x00\x00") {
                assert!(matches!(err, TraceIoError::BadMagic), "{err}");
            }
            let mut bad_version = MAGIC_V2.to_vec();
            bad_version.extend_from_slice(&9u32.to_le_bytes());
            for err in header_errors("bad_version.v2", &bad_version) {
                assert!(matches!(err, TraceIoError::UnsupportedVersion(9)), "{err}");
            }
        }

        #[test]
        fn mmap_strict_rejects_corrupt_frame() {
            let mut buf = v2_bytes(&sample_trace(), 512).unwrap();
            let last = buf.len() - 1;
            buf[last] ^= 0xFF;
            let path = on_disk("strict_corrupt.v2", &buf);
            let (in_memory, me, _) = drain(V2Source::new(buf.as_slice()).unwrap());
            let (streamed, se, _) = drain(open_v2_auto(&path, None).unwrap());
            assert!(
                matches!(me, Some(TraceIoError::CorruptFrame { .. })),
                "{me:?}"
            );
            assert_eq!(me.unwrap().to_string(), se.unwrap().to_string());
            assert_eq!(in_memory, streamed, "records before the bad frame agree");
        }

        #[test]
        fn mmap_lossy_skips_corrupt_frame_like_v2source() {
            let mut buf = v2_bytes(&sample_trace(), 100).unwrap();
            // Corrupt one payload byte somewhere past the first frame.
            buf[600] ^= 0x55;
            let path = on_disk("lossy_corrupt.v2", &buf);
            let (in_memory, me, mw) = drain(V2Source::new_lossy(buf.as_slice(), None).unwrap());
            let (streamed, se, sw) = drain(open_v2_auto_lossy(&path, None).unwrap());
            assert!(
                me.is_none() && se.is_none(),
                "lossy reads never fail on defects"
            );
            assert_eq!(in_memory, streamed);
            assert_eq!(mw, sw);
            assert_eq!(mw.bad_frames, 1);
            assert_eq!(
                in_memory.len(),
                4_900,
                "exactly one 100-record frame is lost"
            );
        }
    }
}
