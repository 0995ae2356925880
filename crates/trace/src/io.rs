//! Trace serialization: the compact, versioned v1 **binary** format
//! (`TMPO` magic, little-endian fixed-width records), which round-trips
//! exactly. The framed v2 container lives in [`crate::v2`].
//!
//! ```
//! use tempo_program::ProcId;
//! use tempo_trace::{Trace, TraceRecord};
//! use tempo_trace::io::{read_binary, write_binary};
//!
//! let trace = Trace::from_records(vec![TraceRecord::new(ProcId::new(3), 40)]);
//! let mut buf = Vec::new();
//! write_binary(&mut buf, &trace)?;
//! let back = read_binary(&mut buf.as_slice())?;
//! assert_eq!(back, trace);
//! # Ok::<(), tempo_trace::io::TraceIoError>(())
//! ```

use std::error::Error;
use std::fmt;
use std::io::{Read, Seek, SeekFrom, Write};

use tempo_program::{ProcId, Program};

use crate::source::TraceSource;
use crate::{Trace, TraceRecord};

/// Magic bytes opening the binary trace format.
pub const MAGIC: [u8; 4] = *b"TMPO";
/// Current binary format version.
pub const VERSION: u32 = 1;

/// Preallocation ceiling (records) applied to the header's declared
/// count. The count is untrusted input — a mangled header could declare
/// `u64::MAX` records and turn a 24-byte file into an allocation abort —
/// so readers reserve at most this much up front and let the vector grow
/// normally past it. [`crate::TraceBuilder::with_capacity`] applies the
/// same ceiling to caller-declared lengths.
pub(crate) const PREALLOC_CAP: u64 = 1 << 20;

/// Errors produced while reading or writing traces.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input does not start with the `TMPO` magic.
    BadMagic,
    /// The input declares an unsupported format version.
    UnsupportedVersion(u32),
    /// The input ended before the declared record count was read.
    Truncated {
        /// Records expected per the header.
        expected: u64,
        /// Records actually read.
        found: u64,
    },
    /// A record carries a zero byte extent, which no valid trace contains.
    ZeroExtent {
        /// 0-based record index.
        index: u64,
    },
    /// A v2 frame failed validation: truncated header or payload, CRC
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
            TraceIoError::Truncated { expected, found } => {
                write!(
                    f,
                    "trace truncated: expected {expected} records, found {found}"
                )
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

/// Writes a trace in the binary format.
///
/// A `&mut` reference to any writer can be passed.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_binary<W: Write>(mut w: W, trace: &Trace) -> Result<(), TraceIoError> {
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    // Buffer records in 64 KiB blocks to keep syscall counts low for large
    // traces without requiring the caller to wrap the writer.
    let mut buf = Vec::with_capacity(64 * 1024);
    for r in trace.iter() {
        buf.extend_from_slice(&r.proc.index().to_le_bytes());
        buf.extend_from_slice(&r.bytes.to_le_bytes());
        if buf.len() >= 64 * 1024 - 8 {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    Ok(())
}

/// An incremental v1 writer: streams records to a seekable writer without
/// materializing the trace, patching the header's record count on
/// [`finish`](V1Writer::finish).
///
/// The v1 header carries the record count up front, so a purely sequential
/// writer cannot stream it; this writer emits a zero count, appends records
/// as they arrive, and seeks back once the stream ends. Output is
/// byte-identical to [`write_binary`] of the materialized trace. Use
/// [`crate::v2::V2Writer`] when the destination cannot seek.
///
/// As a [`crate::TraceSink`] it latches the first I/O error and reports it
/// from `finish` (sinks are infallible by contract).
#[derive(Debug)]
pub struct V1Writer<W: Write + Seek> {
    w: W,
    buf: Vec<u8>,
    records: u64,
    error: Option<std::io::Error>,
}

impl<W: Write + Seek> V1Writer<W> {
    /// Starts a v1 stream on `w` (writes the header immediately).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn new(mut w: W) -> Result<Self, TraceIoError> {
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&0u64.to_le_bytes())?;
        Ok(V1Writer {
            w,
            buf: Vec::with_capacity(64 * 1024),
            records: 0,
            error: None,
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn push(&mut self, record: &TraceRecord) -> Result<(), TraceIoError> {
        self.buf
            .extend_from_slice(&record.proc.index().to_le_bytes());
        self.buf.extend_from_slice(&record.bytes.to_le_bytes());
        self.records += 1;
        if self.buf.len() >= 64 * 1024 - 8 {
            self.w.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Flushes buffered records, patches the header count, and returns the
    /// underlying writer.
    ///
    /// # Errors
    ///
    /// Returns any I/O error latched by the [`crate::TraceSink`] path, then
    /// propagates flush/seek errors.
    pub fn finish(mut self) -> Result<W, TraceIoError> {
        if let Some(e) = self.error.take() {
            return Err(e.into());
        }
        self.w.write_all(&self.buf)?;
        // The count sits after the 4-byte magic and 4-byte version.
        self.w.seek(SeekFrom::Start(8))?;
        self.w.write_all(&self.records.to_le_bytes())?;
        self.w.seek(SeekFrom::End(0))?;
        Ok(self.w)
    }
}

impl<W: Write + Seek> crate::TraceSink for V1Writer<W> {
    fn accept(&mut self, record: &TraceRecord) {
        if self.error.is_some() {
            return;
        }
        if let Err(TraceIoError::Io(e)) = self.push(record) {
            self.error = Some(e);
        }
    }
}

/// Reads a trace in the binary format.
///
/// A `&mut` reference to any reader can be passed.
///
/// # Errors
///
/// Fails on I/O errors, bad magic, unsupported versions, truncation, or
/// zero-extent records.
pub fn read_binary<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    let mut source = V1Source::new(r)?;
    // The declared count is untrusted input: cap the preallocation so a
    // corrupt header cannot trigger an allocation abort. The vector still
    // grows to the real record count.
    let cap = source.expected_records().unwrap_or(0).min(PREALLOC_CAP);
    let mut records = Vec::with_capacity(usize::try_from(cap).unwrap_or(0));
    while let Some(rec) = source.try_next()? {
        records.push(rec);
    }
    Ok(Trace::from_records(records))
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
    /// Absolute difference between the declared record count and the number
    /// of whole records actually present in the input.
    pub count_mismatch: u64,
    /// Records dropped because they carry a zero byte extent.
    pub zero_extent: u64,
    /// Records dropped because they name a procedure the program lacks.
    pub unknown_proc: u64,
    /// Records whose extent exceeded the procedure size and was clamped.
    pub clamped_extent: u64,
    /// Trailing byte fragments that do not form a whole record.
    pub truncated_tail: u64,
    /// Whole v2 frames skipped because they were truncated, failed their
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
            + self.count_mismatch
            + self.zero_extent
            + self.unknown_proc
            + self.clamped_extent
            + self.truncated_tail
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
            (self.count_mismatch, "count-mismatch"),
            (self.zero_extent, "zero-extent"),
            (self.unknown_proc, "unknown-proc"),
            (self.clamped_extent, "clamped-extent"),
            (self.truncated_tail, "truncated-tail"),
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

/// Reads a binary trace, recovering from corruption instead of failing.
///
/// Unlike [`read_binary`], this reader treats the header as advisory: a bad
/// magic or version is tallied (assuming the version-1 record layout), the
/// declared count is checked against what is actually present rather than
/// trusted, and reading continues to end of input. Records are fixed-width,
/// so a truncated tail costs at most one record. When `program` is given,
/// records naming unknown procedures are dropped and oversized extents are
/// clamped, guaranteeing the returned trace passes [`Trace::validate`].
///
/// # Errors
///
/// Fails only on genuine I/O errors from the reader; all format defects are
/// reported through [`TraceWarnings`].
pub fn read_binary_lossy<R: Read>(
    r: R,
    program: Option<&Program>,
) -> Result<(Trace, TraceWarnings), TraceIoError> {
    let mut source = V1Source::new_lossy(r, program)?;
    let mut records = Vec::new();
    while let Some(rec) = source.try_next()? {
        records.push(rec);
    }
    Ok((Trace::from_records(records), source.warnings()))
}

/// Applies the shared lossy per-record repairs: zero extents and (when a
/// program is given) unknown procedures are dropped with a tally, oversized
/// extents are clamped. Returns `None` when the record is dropped.
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

/// Streaming reader for the fixed-width v1 binary format.
///
/// Yields records one at a time without materializing the trace, in either
/// [`ReadMode`]: strict construction validates the header and `try_next`
/// fails on the first defect with exactly the errors [`read_binary`]
/// produces; lossy construction treats the header as advisory and repairs
/// or skips defective records, tallying them in
/// [`warnings`](TraceSource::warnings) with exactly the semantics of
/// [`read_binary_lossy`] (both materializing readers are thin wrappers over
/// this source).
#[derive(Debug)]
pub struct V1Source<'p, R> {
    reader: R,
    mode: ReadMode,
    program: Option<&'p Program>,
    /// Records declared by the header (advisory in lossy mode).
    declared: u64,
    /// Whole 8-byte records consumed from the input so far.
    raw_records: u64,
    warnings: TraceWarnings,
    done: bool,
}

impl<R: Read> V1Source<'static, R> {
    /// Opens a strict streaming reader, validating the header.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, bad magic, or an unsupported version.
    pub fn new(mut r: R) -> Result<Self, TraceIoError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(TraceIoError::BadMagic);
        }
        let mut word = [0u8; 4];
        r.read_exact(&mut word)?;
        let version = u32::from_le_bytes(word);
        if version != VERSION {
            return Err(TraceIoError::UnsupportedVersion(version));
        }
        let mut dword = [0u8; 8];
        r.read_exact(&mut dword)?;
        let declared = u64::from_le_bytes(dword);
        Ok(V1Source {
            reader: r,
            mode: ReadMode::Strict,
            program: None,
            declared,
            raw_records: 0,
            warnings: TraceWarnings::default(),
            done: false,
        })
    }
}

impl<'p, R: Read> V1Source<'p, R> {
    /// Opens a lossy streaming reader: the header is advisory, defects are
    /// repaired or skipped and tallied. When `program` is given, unknown
    /// procedures are dropped and oversized extents clamped, so every
    /// yielded record is valid for that program.
    ///
    /// # Errors
    ///
    /// Fails only on genuine I/O errors from the reader.
    pub fn new_lossy(mut r: R, program: Option<&'p Program>) -> Result<Self, TraceIoError> {
        let mut warnings = TraceWarnings::default();
        let mut header = [0u8; 16];
        let filled = read_fully(&mut r, &mut header)?;
        if filled < header.len() {
            // Not even a whole header: nothing recoverable.
            if filled > 0 {
                warnings.header_mangled += 1;
            }
            return Ok(V1Source {
                reader: r,
                mode: ReadMode::Lossy,
                program,
                declared: 0,
                raw_records: 0,
                warnings,
                done: true,
            });
        }
        if header[0..4] != MAGIC {
            warnings.header_mangled += 1;
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("slice is 4 bytes"));
        if version != VERSION && header[0..4] == MAGIC {
            warnings.header_mangled += 1;
        }
        let declared = u64::from_le_bytes(header[8..16].try_into().expect("slice is 8 bytes"));
        Ok(V1Source {
            reader: r,
            mode: ReadMode::Lossy,
            program,
            declared,
            raw_records: 0,
            warnings,
            done: false,
        })
    }

    /// Marks the stream exhausted, reconciling the declared count.
    fn finish_stream(&mut self) {
        if !self.done {
            self.done = true;
            if self.mode == ReadMode::Lossy {
                self.warnings.count_mismatch += self.declared.abs_diff(self.raw_records);
            }
        }
    }
}

impl<R: Read> TraceSource for V1Source<'_, R> {
    fn try_next(&mut self) -> Result<Option<TraceRecord>, TraceIoError> {
        let mut rec = [0u8; 8];
        loop {
            if self.done {
                return Ok(None);
            }
            if self.mode == ReadMode::Strict && self.raw_records == self.declared {
                // Strict readers stop at the declared count, ignoring any
                // trailing bytes.
                self.finish_stream();
                return Ok(None);
            }
            let n = read_fully(&mut self.reader, &mut rec)?;
            if n == 0 {
                if self.mode == ReadMode::Strict {
                    self.done = true;
                    return Err(TraceIoError::Truncated {
                        expected: self.declared,
                        found: self.raw_records,
                    });
                }
                self.finish_stream();
                return Ok(None);
            }
            if n < rec.len() {
                if self.mode == ReadMode::Strict {
                    self.done = true;
                    return Err(TraceIoError::Truncated {
                        expected: self.declared,
                        found: self.raw_records,
                    });
                }
                self.warnings.truncated_tail += 1;
                self.finish_stream();
                return Ok(None);
            }
            self.raw_records += 1;
            let proc = u32::from_le_bytes(rec[0..4].try_into().expect("slice is 4 bytes"));
            let bytes = u32::from_le_bytes(rec[4..8].try_into().expect("slice is 4 bytes"));
            if self.mode == ReadMode::Strict {
                if bytes == 0 {
                    self.done = true;
                    return Err(TraceIoError::ZeroExtent {
                        index: self.raw_records - 1,
                    });
                }
                return Ok(Some(TraceRecord::new(ProcId::new(proc), bytes)));
            }
            if let Some(r) = repair_record(proc, bytes, self.program, &mut self.warnings) {
                return Ok(Some(r));
            }
        }
    }

    fn warnings(&self) -> TraceWarnings {
        self.warnings
    }

    fn expected_records(&self) -> Option<u64> {
        match self.mode {
            ReadMode::Strict => Some(self.declared),
            ReadMode::Lossy => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace::from_records(vec![
            TraceRecord::new(ProcId::new(0), 100),
            TraceRecord::new(ProcId::new(5), 32),
            TraceRecord::new(ProcId::new(0), 1),
            TraceRecord::new(ProcId::new(1_000_000), u32::MAX),
        ])
    }

    #[test]
    fn binary_roundtrip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&mut buf, &t).unwrap();
        assert_eq!(&buf[0..4], b"TMPO");
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn v1_writer_streams_byte_identical_output() {
        let t = sample_trace();
        let mut materialized = Vec::new();
        write_binary(&mut materialized, &t).unwrap();
        let mut w = V1Writer::new(std::io::Cursor::new(Vec::new())).unwrap();
        for r in t.iter() {
            w.push(r).unwrap();
        }
        assert_eq!(w.records(), t.len() as u64);
        let streamed = w.finish().unwrap().into_inner();
        assert_eq!(streamed, materialized);
        // The sink path produces the same bytes.
        let mut w = V1Writer::new(std::io::Cursor::new(Vec::new())).unwrap();
        crate::pump(&mut crate::MemorySource::new(&t), &mut w).unwrap();
        assert_eq!(w.finish().unwrap().into_inner(), materialized);
    }

    #[test]
    fn binary_roundtrip_empty() {
        let t = Trace::new();
        let mut buf = Vec::new();
        write_binary(&mut buf, &t).unwrap();
        let back = read_binary(buf.as_slice()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn binary_large_trace_crosses_buffer_boundary() {
        let records: Vec<_> = (0..20_000)
            .map(|i| TraceRecord::new(ProcId::new(i % 97), (i % 1000) + 1))
            .collect();
        let t = Trace::from_records(records);
        let mut buf = Vec::new();
        write_binary(&mut buf, &t).unwrap();
        assert_eq!(read_binary(buf.as_slice()).unwrap(), t);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::BadMagic));
    }

    #[test]
    fn binary_rejects_bad_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::UnsupportedVersion(99)));
    }

    #[test]
    fn binary_detects_truncation() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&mut buf, &t).unwrap();
        buf.truncate(buf.len() - 4);
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(matches!(
            err,
            TraceIoError::Truncated {
                expected: 4,
                found: 3
            }
        ));
    }

    #[test]
    fn binary_rejects_zero_extent() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&7u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::ZeroExtent { index: 0 }));
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
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&mut buf, &t).unwrap();
        let (back, w) = read_binary_lossy(buf.as_slice(), None).unwrap();
        assert_eq!(back, t);
        assert!(w.is_clean(), "unexpected warnings: {w}");
    }

    #[test]
    fn lossy_recovers_truncated_prefix() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&mut buf, &t).unwrap();
        buf.truncate(buf.len() - 4); // half a record gone
        let (back, w) = read_binary_lossy(buf.as_slice(), None).unwrap();
        assert_eq!(back.records(), &t.records()[..3]);
        assert_eq!(w.truncated_tail, 1);
        assert_eq!(w.count_mismatch, 1);
    }

    #[test]
    fn lossy_tolerates_mangled_header() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&mut buf, &t).unwrap();
        buf[0] = b'X'; // corrupt magic
        let (back, w) = read_binary_lossy(buf.as_slice(), None).unwrap();
        assert_eq!(back, t);
        assert_eq!(w.header_mangled, 1);
    }

    #[test]
    fn lossy_ignores_absurd_declared_count() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&mut buf, &t).unwrap();
        buf[8..16].copy_from_slice(&u64::MAX.to_le_bytes()); // bit-flipped count
        let (back, w) = read_binary_lossy(buf.as_slice(), None).unwrap();
        assert_eq!(back, t);
        assert_eq!(w.count_mismatch, u64::MAX - 4);
    }

    #[test]
    fn lossy_skips_zero_extent_and_unknown_procs() {
        let p = tiny_program();
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&4u64.to_le_bytes());
        for (proc, bytes) in [(0u32, 10u32), (0, 0), (99, 10), (1, 5000)] {
            buf.extend_from_slice(&proc.to_le_bytes());
            buf.extend_from_slice(&bytes.to_le_bytes());
        }
        let (back, w) = read_binary_lossy(buf.as_slice(), Some(&p)).unwrap();
        assert_eq!(w.zero_extent, 1);
        assert_eq!(w.unknown_proc, 1);
        assert_eq!(w.clamped_extent, 1);
        assert_eq!(back.len(), 2);
        back.validate(&p).unwrap();
    }

    #[test]
    fn lossy_handles_sub_header_input() {
        let (t, w) = read_binary_lossy(&b"TMP"[..], None).unwrap();
        assert!(t.is_empty());
        assert_eq!(w.header_mangled, 1);
        let (t, w) = read_binary_lossy(&b""[..], None).unwrap();
        assert!(t.is_empty());
        assert!(w.is_clean());
    }

    #[test]
    fn warnings_display_summarizes() {
        let w = TraceWarnings {
            zero_extent: 2,
            truncated_tail: 1,
            ..TraceWarnings::default()
        };
        let s = w.to_string();
        assert!(s.contains("2 zero-extent"));
        assert!(s.contains("1 truncated-tail"));
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
    }
}
