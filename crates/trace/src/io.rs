//! Trace I/O vocabulary shared by the readers of the TMP2 container
//! ([`crate::v2`]): the structured [`TraceIoError`], the strict/lossy
//! [`ReadMode`], the lossy readers' [`TraceWarnings`] tallies, and the
//! per-record repairs lossy reading applies.
//!
//! ```
//! use tempo_program::ProcId;
//! use tempo_trace::io::TraceIoError;
//! use tempo_trace::v2::{read_binary_v2, read_binary_v2_lossy, write_binary_v2};
//! use tempo_trace::{Trace, TraceRecord};
//!
//! let trace = Trace::from_records(vec![TraceRecord::new(ProcId::new(3), 40)]);
//! let mut buf = Vec::new();
//! write_binary_v2(&mut buf, &trace)?;
//! buf.truncate(buf.len() - 1); // cut inside the only frame
//! // Strict reading names the defect...
//! assert!(matches!(
//!     read_binary_v2(buf.as_slice()),
//!     Err(TraceIoError::CorruptFrame { frame: 0 })
//! ));
//! // ...lossy reading tallies it and keeps what survives.
//! let (back, warnings) = read_binary_v2_lossy(buf.as_slice(), None)?;
//! assert!(back.is_empty());
//! assert_eq!(warnings.bad_frames, 1);
//! # Ok::<(), TraceIoError>(())
//! ```

use std::error::Error;
use std::fmt;
use std::io::Read;

use tempo_program::{ProcId, Program};

use crate::TraceRecord;

/// Preallocation ceiling (records) applied to untrusted, declared
/// lengths: [`crate::TraceBuilder::with_capacity`] reserves at most this
/// much up front and lets the vector grow normally past it, so a bogus
/// length costs nothing until real records arrive.
pub(crate) const PREALLOC_CAP: u64 = 1 << 20;

/// Errors produced while reading or writing traces.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input does not start with the `TMP2` magic.
    BadMagic,
    /// The input declares an unsupported format version.
    UnsupportedVersion(u32),
    /// A record carries a zero byte extent, which no valid trace contains.
    ZeroExtent {
        /// 0-based record index.
        index: u64,
    },
    /// A frame failed validation: truncated header or payload, CRC
    /// mismatch, or a record that does not decode.
    CorruptFrame {
        /// 0-based frame index.
        frame: u64,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o error: {e}"),
            TraceIoError::BadMagic => write!(f, "input is not a tempo binary trace"),
            TraceIoError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace format version {v}")
            }
            TraceIoError::ZeroExtent { index } => {
                write!(f, "record {index} has a zero byte extent")
            }
            TraceIoError::CorruptFrame { frame } => {
                write!(
                    f,
                    "frame {frame} is corrupt (truncated, bad CRC, or undecodable)"
                )
            }
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// How trace readers respond to defective input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReadMode {
    /// Any defect aborts the read with a structured [`TraceIoError`].
    #[default]
    Strict,
    /// Defects are repaired or skipped and tallied in [`TraceWarnings`].
    Lossy,
}

/// Per-defect-class tallies produced by the lossy readers.
///
/// Every count is the number of *occurrences* of that defect, so a clean
/// read reports the default (all-zero) value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct TraceWarnings {
    /// Header defects: missing/corrupt magic or an unknown version field.
    pub header_mangled: u64,
    /// Records dropped because they carry a zero byte extent.
    pub zero_extent: u64,
    /// Records dropped because they name a procedure the program lacks.
    pub unknown_proc: u64,
    /// Records whose extent exceeded the procedure size and was clamped.
    pub clamped_extent: u64,
    /// Whole frames skipped because they were truncated, failed their
    /// CRC, or did not decode.
    pub bad_frames: u64,
    /// Sub-tally of [`bad_frames`](Self::bad_frames): frames whose payload
    /// passed its CRC but contained a malformed LEB128 varint (over-long
    /// encoding, shift overflow, or truncation mid-record). Excluded from
    /// [`total`](Self::total) because each occurrence is already counted as
    /// a bad frame.
    pub varint_defects: u64,
}

impl TraceWarnings {
    /// Returns `true` when no defects were observed.
    pub fn is_clean(&self) -> bool {
        *self == TraceWarnings::default()
    }

    /// Total number of defects across all classes.
    pub fn total(&self) -> u64 {
        self.header_mangled
            + self.zero_extent
            + self.unknown_proc
            + self.clamped_extent
            + self.bad_frames
    }
}

impl fmt::Display for TraceWarnings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "clean");
        }
        let mut sep = "";
        for (count, label) in [
            (self.header_mangled, "mangled-header"),
            (self.zero_extent, "zero-extent"),
            (self.unknown_proc, "unknown-proc"),
            (self.clamped_extent, "clamped-extent"),
            (self.bad_frames, "bad-frame"),
        ] {
            if count > 0 {
                write!(f, "{sep}{count} {label}")?;
                sep = ", ";
            }
        }
        if self.varint_defects > 0 {
            write!(f, " ({} varint-defect)", self.varint_defects)?;
        }
        Ok(())
    }
}

/// Reads as many bytes as the reader can supply into `buf`, retrying on
/// interrupts. Returns how many bytes were filled (short only at EOF).
pub(crate) fn read_fully<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Applies the lossy per-record repairs: zero extents and (when a
/// program is given) unknown procedures are dropped with a tally,
/// oversized extents are clamped. Returns `None` when the record is
/// dropped.
pub(crate) fn repair_record(
    proc: u32,
    mut bytes: u32,
    program: Option<&Program>,
    warnings: &mut TraceWarnings,
) -> Option<TraceRecord> {
    if bytes == 0 {
        warnings.zero_extent += 1;
        return None;
    }
    let proc = ProcId::new(proc);
    if let Some(p) = program {
        if proc.as_usize() >= p.len() {
            warnings.unknown_proc += 1;
            return None;
        }
        let size = p.size_of(proc);
        if bytes > size {
            warnings.clamped_extent += 1;
            bytes = size;
        }
    }
    Some(TraceRecord::new(proc, bytes))
}

#[cfg(test)]
mod tests {
    //! The container-level contracts of [`TraceIoError`] and
    //! [`TraceWarnings`], checked on TMP2 streams framed by
    //! [`crate::testkit::v2_bytes`] so frame boundaries fall where each
    //! test needs them.

    use super::*;
    use crate::testkit::v2_bytes;
    use crate::v2::{read_binary_v2, read_binary_v2_lossy, scan_frames, V2Source};
    use crate::Trace;

    fn sample_trace() -> Trace {
        Trace::from_records(vec![
            TraceRecord::new(ProcId::new(0), 100),
            TraceRecord::new(ProcId::new(5), 32),
            TraceRecord::new(ProcId::new(0), 1),
            TraceRecord::new(ProcId::new(1_000_000), u32::MAX),
        ])
    }

    /// Byte offset of frame `i` of a well-formed stream.
    fn frame_offset(bytes: &[u8], i: usize) -> usize {
        usize::try_from(scan_frames(bytes).unwrap()[i].offset).unwrap()
    }

    #[test]
    fn binary_roundtrip() {
        let t = sample_trace();
        for frame_records in 1..=5 {
            let buf = v2_bytes(&t, frame_records).unwrap();
            assert_eq!(&buf[0..4], b"TMP2");
            assert_eq!(read_binary_v2(buf.as_slice()).unwrap(), t);
            let (back, w) = read_binary_v2_lossy(buf.as_slice(), None).unwrap();
            assert_eq!(back, t, "{frame_records} records per frame");
            assert!(w.is_clean(), "{w}");
        }
    }

    #[test]
    fn binary_roundtrip_empty() {
        let buf = v2_bytes(&Trace::new(), 1).unwrap();
        assert_eq!(buf.len(), 8, "an empty trace is the preamble alone");
        assert!(read_binary_v2(buf.as_slice()).unwrap().is_empty());
        let (back, w) = read_binary_v2_lossy(buf.as_slice(), None).unwrap();
        assert!(back.is_empty() && w.is_clean());
    }

    #[test]
    fn binary_large_trace_crosses_buffer_boundary() {
        // Five-byte extents fill default frames to their worst-case size.
        let records: Vec<_> = (0..20_000)
            .map(|i| TraceRecord::new(ProcId::new(i % 97), u32::MAX - i))
            .collect();
        let t = Trace::from_records(records);
        let buf = v2_bytes(&t, crate::v2::DEFAULT_FRAME_RECORDS).unwrap();
        assert_eq!(scan_frames(buf.as_slice()).unwrap().len(), 4);
        assert_eq!(read_binary_v2(buf.as_slice()).unwrap(), t);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        // A fixed-record `TMPO` file (the retired v1 container) is not a
        // trace: strict reading refuses it by magic, lossy reading tallies
        // the header and recovers no records from the misread frames.
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"TMPO");
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&2u64.to_le_bytes());
        for (proc, bytes) in [(0u32, 100u32), (5, 32)] {
            v1.extend_from_slice(&proc.to_le_bytes());
            v1.extend_from_slice(&bytes.to_le_bytes());
        }
        let err = V2Source::new(v1.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::BadMagic));
        assert!(err.to_string().contains("binary trace"));
        let (back, w) = read_binary_v2_lossy(v1.as_slice(), None).unwrap();
        assert!(back.is_empty());
        assert_eq!(w.header_mangled, 1);
        assert!(w.bad_frames >= 1, "{w}");
    }

    #[test]
    fn binary_rejects_bad_version() {
        let t = sample_trace();
        let mut buf = v2_bytes(&t, 2).unwrap();
        buf[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            read_binary_v2(buf.as_slice()).unwrap_err(),
            TraceIoError::UnsupportedVersion(1)
        ));
        // Lossy reading tallies the version and still reads every frame.
        let (back, w) = read_binary_v2_lossy(buf.as_slice(), None).unwrap();
        assert_eq!(back, t);
        assert_eq!(w.header_mangled, 1);
    }

    #[test]
    fn binary_detects_truncation() {
        // Cut inside the second of two frames: the strict error names it.
        let t = sample_trace();
        let mut buf = v2_bytes(&t, 2).unwrap();
        buf.truncate(frame_offset(&buf, 1) + 5);
        let err = read_binary_v2(buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, TraceIoError::CorruptFrame { frame: 1 }),
            "{err:?}"
        );
        assert!(err.to_string().contains("is corrupt"), "{err}");
    }

    #[test]
    fn binary_rejects_zero_extent() {
        // The index is global: the zero extent is record 2, in frame 1.
        let t = Trace::from_records(vec![
            TraceRecord::new(ProcId::new(1), 5),
            TraceRecord::new(ProcId::new(2), 6),
            TraceRecord::new(ProcId::new(3), 0),
        ]);
        let buf = v2_bytes(&t, 2).unwrap();
        assert!(matches!(
            read_binary_v2(buf.as_slice()).unwrap_err(),
            TraceIoError::ZeroExtent { index: 2 }
        ));
    }

    fn tiny_program() -> Program {
        Program::builder()
            .procedure("a", 64)
            .procedure("b", 32)
            .build()
            .unwrap()
    }

    #[test]
    fn lossy_reads_clean_input_without_warnings() {
        let p = tiny_program();
        let t = Trace::from_records(vec![
            TraceRecord::new(ProcId::new(0), 64),
            TraceRecord::new(ProcId::new(1), 32),
            TraceRecord::new(ProcId::new(0), 1),
        ]);
        let buf = v2_bytes(&t, 2).unwrap();
        let (back, w) = read_binary_v2_lossy(buf.as_slice(), Some(&p)).unwrap();
        assert_eq!(back, t);
        assert!(w.is_clean(), "unexpected warnings: {w}");
    }

    #[test]
    fn lossy_recovers_truncated_prefix() {
        // A cut mid-stream cannot be resynchronized past: the frames
        // before it survive, the cut frame is tallied, the rest is gone.
        let t = sample_trace();
        let mut buf = v2_bytes(&t, 1).unwrap();
        buf.truncate(frame_offset(&buf, 2) + 3);
        let (back, w) = read_binary_v2_lossy(buf.as_slice(), None).unwrap();
        assert_eq!(back.records(), &t.records()[..2]);
        assert_eq!(w.bad_frames, 1);
        assert_eq!(w.total(), 1);
    }

    #[test]
    fn lossy_tolerates_mangled_header() {
        let t = sample_trace();
        let clean = v2_bytes(&t, 2).unwrap();
        for i in 0..8 {
            let mut buf = clean.clone();
            buf[i] ^= 0x5A;
            let (back, w) = read_binary_v2_lossy(buf.as_slice(), None).unwrap();
            assert_eq!(back, t, "preamble byte {i}");
            assert_eq!(w.header_mangled, 1, "preamble byte {i}");
        }
    }

    #[test]
    fn lossy_ignores_absurd_declared_count() {
        // The middle frame declares u32::MAX records: it is skipped as
        // corrupt, never allocated for, and its neighbours survive.
        let t = sample_trace();
        let mut buf = v2_bytes(&t, 1).unwrap();
        let count = frame_offset(&buf, 1) + 4;
        buf[count..count + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_binary_v2(buf.as_slice()).unwrap_err(),
            TraceIoError::CorruptFrame { frame: 1 }
        ));
        let (back, w) = read_binary_v2_lossy(buf.as_slice(), None).unwrap();
        let mut kept = t.records().to_vec();
        kept.remove(1);
        assert_eq!(back.records(), kept.as_slice());
        assert_eq!(w.bad_frames, 1);
    }

    #[test]
    fn lossy_skips_zero_extent_and_unknown_procs() {
        let p = tiny_program();
        let mut w = TraceWarnings::default();
        let repaired: Vec<_> = [(0u32, 10u32), (0, 0), (99, 10), (1, 5000)]
            .into_iter()
            .filter_map(|(proc, bytes)| repair_record(proc, bytes, Some(&p), &mut w))
            .collect();
        assert_eq!(w.zero_extent, 1);
        assert_eq!(w.unknown_proc, 1);
        assert_eq!(w.clamped_extent, 1);
        assert_eq!(
            repaired,
            vec![
                TraceRecord::new(ProcId::new(0), 10),
                TraceRecord::new(ProcId::new(1), 32),
            ]
        );
        // Without a program only the zero extent is a defect.
        let mut w = TraceWarnings::default();
        assert_eq!(repair_record(99, 0, None, &mut w), None);
        assert_eq!(
            repair_record(99, 10, None, &mut w),
            Some(TraceRecord::new(ProcId::new(99), 10))
        );
        assert_eq!(w.total(), 1);
    }

    #[test]
    fn lossy_handles_sub_header_input() {
        // Every proper prefix of the preamble is a mangled header with no
        // records; the empty input and the bare preamble are clean.
        let preamble = v2_bytes(&Trace::new(), 1).unwrap();
        for len in 0..=preamble.len() {
            let (t, w) = read_binary_v2_lossy(&preamble[..len], None).unwrap();
            assert!(t.is_empty());
            let mangled = u64::from(len > 0 && len < preamble.len());
            assert_eq!(w.header_mangled, mangled, "{len}-byte input");
            assert_eq!(w.total(), mangled, "{len}-byte input");
        }
    }

    #[test]
    fn warnings_display_summarizes() {
        let w = TraceWarnings {
            zero_extent: 2,
            bad_frames: 1,
            ..TraceWarnings::default()
        };
        let s = w.to_string();
        assert!(s.contains("2 zero-extent"));
        assert!(s.contains("1 bad-frame"));
        assert_eq!(w.total(), 3);
        assert_eq!(TraceWarnings::default().to_string(), "clean");
    }

    #[test]
    fn error_display_is_useful() {
        assert!(TraceIoError::BadMagic.to_string().contains("binary trace"));
        assert!(TraceIoError::UnsupportedVersion(3)
            .to_string()
            .contains('3'));
        assert!(TraceIoError::ZeroExtent { index: 9 }
            .to_string()
            .contains('9'));
        assert!(TraceIoError::CorruptFrame { frame: 4 }
            .to_string()
            .contains("frame 4"));
    }
}
