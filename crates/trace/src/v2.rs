//! The trace container, **TMP2** (format version 2): length-delimited
//! frames of varint-encoded records with per-frame CRCs, built for
//! streaming:
//!
//! ```text
//! +---------------------------------------------------------------+
//! | magic "TMP2" (4) | version u32 LE (= 2)                       |
//! +---------------------------------------------------------------+
//! | frame 0: payload_len u32 | record_count u32 | crc32 u32       |
//! |          payload: record_count × (varint proc, varint bytes)  |
//! +---------------------------------------------------------------+
//! | frame 1: ...                                                  |
//! +---------------------------------------------------------------+
//! | ... until end of input (no trailing count)                    |
//! +---------------------------------------------------------------+
//! ```
//!
//! * **Streamable**: a reader holds one frame (≤ [`MAX_FRAME_PAYLOAD`]
//!   bytes) at a time; end of input at a frame boundary ends the trace, so
//!   no up-front record count is needed and writers can append forever.
//! * **Compact**: records are LEB128 varints, so the common small
//!   procedure-id/extent pairs take 2–4 bytes instead of a fixed 8.
//! * **Verifiable and recoverable**: each frame carries a CRC-32 (IEEE) of
//!   its payload. Strict readers fail on the first bad frame
//!   ([`TraceIoError::CorruptFrame`]); lossy readers skip exactly that
//!   frame — the length prefix bounds the damage — and tally it in
//!   [`TraceWarnings::bad_frames`].
//!
//! ```
//! use tempo_program::ProcId;
//! use tempo_trace::{Trace, TraceRecord, TraceSource};
//! use tempo_trace::v2::{read_binary_v2, write_binary_v2, V2Source};
//!
//! let trace = Trace::from_records(vec![TraceRecord::new(ProcId::new(3), 40)]);
//! let mut buf = Vec::new();
//! write_binary_v2(&mut buf, &trace)?;
//! assert_eq!(read_binary_v2(buf.as_slice())?, trace);
//!
//! // Or stream it, one record at a time:
//! let mut src = V2Source::new(buf.as_slice())?;
//! assert_eq!(src.try_next()?, Some(TraceRecord::new(ProcId::new(3), 40)));
//! assert_eq!(src.try_next()?, None);
//! # Ok::<(), tempo_trace::io::TraceIoError>(())
//! ```

use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::Path;

use tempo_program::{ProcId, Program};

use crate::io::{repair_record, ReadMode, TraceIoError, TraceWarnings};
use crate::source::{RecordBlock, TraceSink, TraceSource};
use crate::{Trace, TraceRecord};

/// Magic bytes opening the v2 binary trace format.
pub const MAGIC_V2: [u8; 4] = *b"TMP2";
/// Format version recorded in the v2 header.
pub const VERSION_V2: u32 = 2;
/// Frame header size: `payload_len` + `record_count` + `crc32`.
pub const FRAME_HEADER_LEN: usize = 12;
/// Records per frame the writer targets. Worst-case varint payload is
/// 10 bytes per record, so frames stay under 64 KiB.
pub const DEFAULT_FRAME_RECORDS: usize = 6000;
/// Upper bound on a frame's declared payload length. The length prefix is
/// untrusted input; anything larger is treated as corruption rather than
/// allocated.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 24;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320)
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        #[allow(clippy::cast_possible_truncation)] // i < 256
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `data` — the checksum protecting each v2 frame.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// LEB128 varints
// ---------------------------------------------------------------------

fn push_varint(buf: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decodes one LEB128 u32 from `buf` starting at `*pos`, advancing `*pos`.
/// Returns `None` on truncation or overflow (more than 5 bytes / high bits
/// set past 32).
///
/// The 1- and 2-byte cases — procedure ids and executed extents are almost
/// always small — are unrolled so the common path costs two bounds checks
/// and no loop-carried shift state.
#[inline]
fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let p = *pos;
    let b0 = *buf.get(p)?;
    if b0 & 0x80 == 0 {
        *pos = p + 1;
        return Some(u32::from(b0));
    }
    let b1 = *buf.get(p + 1)?;
    if b1 & 0x80 == 0 {
        *pos = p + 2;
        return Some(u32::from(b0 & 0x7F) | (u32::from(b1) << 7));
    }
    read_varint_long(buf, pos)
}

/// Cold continuation of [`read_varint`] for 3–5-byte encodings. Encodings
/// longer than 5 bytes or carrying bits past 32 are rejected (`None`), never
/// wrapped — a hostile payload must fail the frame, not alias a record.
#[cold]
fn read_varint_long(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let mut value = 0u32;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        let low = u32::from(byte & 0x7F);
        if shift == 28 && low > 0x0F {
            return None; // would overflow 32 bits
        }
        if shift > 28 {
            return None; // more than 5 bytes
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

// ---------------------------------------------------------------------
// Frame validation (shared by `V2Source` and `decode_frame`)
// ---------------------------------------------------------------------

/// Why a frame failed validation. [`V2Source`] maps these onto its
/// strict/lossy defect handling and [`decode_frame`] onto [`FrameDefect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameFault {
    /// The declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized,
    /// The payload does not match the header's CRC-32.
    Checksum,
    /// A record count the payload cannot hold (two bytes per record
    /// minimum), or payload bytes left over after the declared count.
    Malformed,
    /// A record varint was truncated, over-long, or overflowed 32 bits.
    Varint,
    /// A zero-extent record at this index within the frame.
    ZeroExtent(usize),
}

/// The 12-byte frame header, parsed and bounded.
#[derive(Debug, Clone, Copy)]
struct FrameHeader {
    payload_len: u32,
    record_count: u32,
    crc: u32,
}

impl FrameHeader {
    /// Parses a frame header. The length prefix is untrusted: a payload
    /// over [`MAX_FRAME_PAYLOAD`] is rejected before anything is read or
    /// allocated for it.
    fn parse(header: &[u8; FRAME_HEADER_LEN]) -> Result<Self, FrameFault> {
        let word =
            |i: usize| u32::from_le_bytes([header[i], header[i + 1], header[i + 2], header[i + 3]]);
        let parsed = FrameHeader {
            payload_len: word(0),
            record_count: word(4),
            crc: word(8),
        };
        if parsed.payload_len > MAX_FRAME_PAYLOAD {
            return Err(FrameFault::Oversized);
        }
        Ok(parsed)
    }

    /// Validates `payload` (exactly `payload_len` bytes) against this
    /// header and decodes it into the parallel `procs`/`bytes` columns,
    /// cleared first: CRC, record-count plausibility, varint integrity, no
    /// trailing bytes, and — when `reject_zero` is set — the strict
    /// zero-extent rule. The whole frame decodes before any record is
    /// used, so a defect invalidates the frame atomically.
    fn decode(
        &self,
        payload: &[u8],
        procs: &mut Vec<u32>,
        bytes: &mut Vec<u32>,
        reject_zero: bool,
    ) -> Result<(), FrameFault> {
        procs.clear();
        bytes.clear();
        if crc32(payload) != self.crc {
            return Err(FrameFault::Checksum);
        }
        // The declared count is untrusted too: every record takes at least
        // two payload bytes, so a count the payload cannot hold is
        // corruption, not an allocation request.
        if u64::from(self.record_count) * 2 > payload.len() as u64 {
            return Err(FrameFault::Malformed);
        }
        let count = self.record_count as usize;
        procs.reserve(count);
        bytes.reserve(count);
        let mut pos = 0usize;
        for _ in 0..count {
            let (Some(proc), Some(extent)) = (
                read_varint(payload, &mut pos),
                read_varint(payload, &mut pos),
            ) else {
                return Err(FrameFault::Varint);
            };
            procs.push(proc);
            bytes.push(extent);
        }
        if pos != payload.len() {
            return Err(FrameFault::Malformed);
        }
        if reject_zero {
            if let Some(i) = bytes.iter().position(|&b| b == 0) {
                return Err(FrameFault::ZeroExtent(i));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Streaming v2 writer.
///
/// Writes the header on construction, buffers records into frames of
/// [`DEFAULT_FRAME_RECORDS`], and emits each frame with its CRC as it
/// fills. As a [`TraceSink`] it is infallible per the sink contract: I/O
/// errors are latched and surfaced by [`finish`](V2Writer::finish), which
/// must be called to flush the final partial frame.
pub struct V2Writer<W: Write> {
    writer: W,
    payload: Vec<u8>,
    frame_records: u32,
    records_per_frame: usize,
    records: u64,
    error: Option<std::io::Error>,
}

impl<W: Write> V2Writer<W> {
    /// Starts a v2 stream, writing the header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn new(w: W) -> Result<Self, TraceIoError> {
        V2Writer::with_frame_records(w, DEFAULT_FRAME_RECORDS)
    }

    /// Starts a v2 stream with a custom frame granularity (min 1 record).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn with_frame_records(mut w: W, records_per_frame: usize) -> Result<Self, TraceIoError> {
        w.write_all(&MAGIC_V2)?;
        w.write_all(&VERSION_V2.to_le_bytes())?;
        Ok(V2Writer {
            writer: w,
            payload: Vec::new(),
            frame_records: 0,
            records_per_frame: records_per_frame.max(1),
            records: 0,
            error: None,
        })
    }

    /// Appends one record, flushing a frame when it fills.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn push(&mut self, record: &TraceRecord) -> Result<(), TraceIoError> {
        push_varint(&mut self.payload, record.proc.index());
        push_varint(&mut self.payload, record.bytes);
        self.frame_records += 1;
        self.records += 1;
        if self.frame_records as usize >= self.records_per_frame {
            self.flush_frame()?;
        }
        Ok(())
    }

    fn flush_frame(&mut self) -> Result<(), TraceIoError> {
        if self.frame_records == 0 {
            return Ok(());
        }
        let header = frame_header(&self.payload, self.frame_records)?;
        self.writer.write_all(&header)?;
        self.writer.write_all(&self.payload)?;
        self.payload.clear();
        self.frame_records = 0;
        Ok(())
    }

    /// Flushes the final partial frame and returns the writer, or the
    /// first error latched through the [`TraceSink`] path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn finish(mut self) -> Result<W, TraceIoError> {
        if let Some(e) = self.error.take() {
            return Err(e.into());
        }
        self.flush_frame()?;
        Ok(self.writer)
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }
}

impl<W: Write> TraceSink for V2Writer<W> {
    fn accept(&mut self, record: &TraceRecord) {
        if self.error.is_some() {
            return;
        }
        if let Err(TraceIoError::Io(e)) = self.push(record) {
            self.error = Some(e);
        }
    }
}

/// The 12-byte header of a frame carrying `payload` and `records`.
fn frame_header(payload: &[u8], records: u32) -> std::io::Result<[u8; FRAME_HEADER_LEN]> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "frame payload overflow")
    })?;
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0..4].copy_from_slice(&len.to_le_bytes());
    header[4..8].copy_from_slice(&records.to_le_bytes());
    header[8..12].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(header)
}

/// Encodes `records` as one self-contained frame, header plus payload,
/// byte for byte as [`V2Writer`] emits it: the inverse of
/// [`decode_frame`].
///
/// # Errors
///
/// Fails when the frame would not fit the header's 32-bit fields.
pub fn encode_frame(records: &[TraceRecord]) -> Result<Vec<u8>, TraceIoError> {
    let count = u32::try_from(records.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "frame record overflow")
    })?;
    let mut payload = Vec::new();
    for r in records {
        push_varint(&mut payload, r.proc.index());
        push_varint(&mut payload, r.bytes);
    }
    let mut frame = frame_header(&payload, count)?.to_vec();
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// Writes a whole trace in the v2 format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_binary_v2<W: Write>(w: W, trace: &Trace) -> Result<(), TraceIoError> {
    let mut writer = V2Writer::new(w)?;
    for r in trace.iter() {
        writer.push(r)?;
    }
    writer.finish()?;
    Ok(())
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// The TMP2 reader, strict or lossy.
///
/// Holds one frame in memory at a time, so memory use is bounded by
/// [`MAX_FRAME_PAYLOAD`] regardless of trace length. Each payload is read
/// into one reused buffer that grows only by bytes actually read, so a
/// header that lies about its length costs the bytes present, not an
/// allocation of the declared size. Frames decode into reused
/// structure-of-arrays columns, which [`try_next_block`](TraceSource::try_next_block)
/// hands out with two slice copies per frame.
///
/// Strict readers fail on the first defective frame; lossy readers skip
/// defective frames (tallying [`TraceWarnings::bad_frames`]) and apply the
/// shared per-record repairs in place (zero extents dropped, unknown
/// procedures dropped and oversized extents clamped when a [`Program`] is
/// supplied).
#[derive(Debug)]
pub struct V2Source<'p, R> {
    reader: R,
    mode: ReadMode,
    program: Option<&'p Program>,
    /// The current frame's payload bytes, reused across frames.
    payload: Vec<u8>,
    /// Decoded (and, in lossy mode, repaired) records of the current frame.
    procs: Vec<u32>,
    bytes: Vec<u32>,
    /// Next index to yield from the columns.
    cursor: usize,
    /// 0-based index of the next frame to read.
    frame_index: u64,
    /// Global index of the next record (strict error reporting).
    record_index: u64,
    warnings: TraceWarnings,
    done: bool,
}

impl<R: Read> V2Source<'static, R> {
    /// Opens a strict reader, validating the header.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors (an input shorter than the 4-byte magic is an
    /// `UnexpectedEof` I/O error), bad magic, or an unsupported version.
    pub fn new(mut r: R) -> Result<Self, TraceIoError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if magic != MAGIC_V2 {
            return Err(TraceIoError::BadMagic);
        }
        let mut word = [0u8; 4];
        r.read_exact(&mut word)?;
        let version = u32::from_le_bytes(word);
        if version != VERSION_V2 {
            return Err(TraceIoError::UnsupportedVersion(version));
        }
        Ok(V2Source::with_header(
            r,
            ReadMode::Strict,
            None,
            TraceWarnings::default(),
            false,
        ))
    }
}

impl<'p, R: Read> V2Source<'p, R> {
    /// Opens a lossy reader: a mangled header is tallied, corrupt frames
    /// are skipped, and per-record defects are repaired against `program`
    /// when given.
    ///
    /// # Errors
    ///
    /// Fails only on genuine I/O errors from the reader.
    pub fn new_lossy(mut r: R, program: Option<&'p Program>) -> Result<Self, TraceIoError> {
        let mut warnings = TraceWarnings::default();
        let mut header = [0u8; 8];
        let filled = crate::io::read_fully(&mut r, &mut header)?;
        let mut done = false;
        if filled < header.len() {
            if filled > 0 {
                warnings.header_mangled += 1;
            }
            done = true;
        } else {
            let magic_ok = header[0..4] == MAGIC_V2;
            let version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
            if !magic_ok || version != VERSION_V2 {
                warnings.header_mangled += 1;
            }
        }
        Ok(V2Source::with_header(
            r,
            ReadMode::Lossy,
            program,
            warnings,
            done,
        ))
    }

    fn with_header(
        reader: R,
        mode: ReadMode,
        program: Option<&'p Program>,
        warnings: TraceWarnings,
        done: bool,
    ) -> Self {
        V2Source {
            reader,
            mode,
            program,
            payload: Vec::new(),
            procs: Vec::new(),
            bytes: Vec::new(),
            cursor: 0,
            frame_index: 0,
            record_index: 0,
            warnings,
            done,
        }
    }

    /// Reads and decodes the next frame into the columns. Returns `false`
    /// at clean end of input. Lossy mode skips corrupt frames (leaving the
    /// columns empty) and reports them via warnings; the caller loops.
    fn load_frame(&mut self) -> Result<bool, TraceIoError> {
        self.procs.clear();
        self.bytes.clear();
        self.cursor = 0;
        let index = self.frame_index;

        let mut raw = [0u8; FRAME_HEADER_LEN];
        let filled = crate::io::read_fully(&mut self.reader, &mut raw)?;
        if filled == 0 {
            self.done = true;
            return Ok(false);
        }
        if filled < raw.len() {
            return self.frame_defect(index, /* skippable */ false);
        }
        let Ok(header) = FrameHeader::parse(&raw) else {
            // The length prefix itself is untrustworthy: resync is
            // impossible, so even lossy readers stop here.
            return self.frame_defect(index, false);
        };
        self.payload.clear();
        let want = u64::from(header.payload_len);
        let got = (&mut self.reader)
            .take(want)
            .read_to_end(&mut self.payload)?;
        if (got as u64) < want {
            return self.frame_defect(index, false);
        }
        self.frame_index += 1;
        let strict = self.mode == ReadMode::Strict;
        if let Err(fault) = header.decode(&self.payload, &mut self.procs, &mut self.bytes, strict) {
            self.procs.clear();
            self.bytes.clear();
            if let FrameFault::ZeroExtent(i) = fault {
                self.done = true;
                return Err(TraceIoError::ZeroExtent {
                    index: self.record_index + i as u64,
                });
            }
            if !strict && fault == FrameFault::Varint {
                self.warnings.varint_defects += 1;
            }
            return self.frame_defect(index, true);
        }
        if !strict {
            // Repair in place, compacting dropped records out of the
            // columns. Dropped records do not advance the strict record
            // index space; they are counted per defect instead.
            let mut keep = 0usize;
            for i in 0..self.procs.len() {
                if let Some(r) = repair_record(
                    self.procs[i],
                    self.bytes[i],
                    self.program,
                    &mut self.warnings,
                ) {
                    self.procs[keep] = r.proc.index();
                    self.bytes[keep] = r.bytes;
                    keep += 1;
                }
            }
            self.procs.truncate(keep);
            self.bytes.truncate(keep);
        }
        Ok(true)
    }

    /// Handles a defective frame: strict fails, lossy tallies. `skippable`
    /// frames were fully consumed (bad CRC / bad decode) so the stream can
    /// continue; unskippable ones (truncation, absurd length) end it.
    fn frame_defect(&mut self, index: u64, skippable: bool) -> Result<bool, TraceIoError> {
        if self.mode == ReadMode::Strict {
            self.done = true;
            return Err(TraceIoError::CorruptFrame { frame: index });
        }
        self.warnings.bad_frames += 1;
        if !skippable {
            self.done = true;
        }
        Ok(!self.done)
    }
}

impl<R: Read> TraceSource for V2Source<'_, R> {
    fn try_next(&mut self) -> Result<Option<TraceRecord>, TraceIoError> {
        loop {
            if self.cursor < self.procs.len() {
                let r = TraceRecord::new(
                    ProcId::new(self.procs[self.cursor]),
                    self.bytes[self.cursor],
                );
                self.cursor += 1;
                self.record_index += 1;
                return Ok(Some(r));
            }
            if self.done {
                return Ok(None);
            }
            // Loop: a lossy skip leaves the columns empty.
            self.load_frame()?;
        }
    }

    fn warnings(&self) -> TraceWarnings {
        self.warnings
    }

    fn try_next_block(
        &mut self,
        block: &mut RecordBlock,
        max: usize,
    ) -> Result<usize, TraceIoError> {
        block.clear();
        if max == 0 {
            return Ok(0);
        }
        loop {
            let take = (self.procs.len() - self.cursor).min(max);
            if take > 0 {
                let range = self.cursor..self.cursor + take;
                block.procs.extend_from_slice(&self.procs[range.clone()]);
                block.bytes.extend_from_slice(&self.bytes[range]);
                self.cursor += take;
                self.record_index += take as u64;
                // Frame-granular: a drained frame ends the block even
                // short of `max`, so blocks line up with decode units.
                return Ok(take);
            }
            if self.done {
                return Ok(0);
            }
            self.load_frame()?;
        }
    }
}

/// Reads a whole v2 trace strictly.
///
/// # Errors
///
/// Fails on I/O errors, bad magic, unsupported versions, corrupt frames,
/// or zero-extent records.
pub fn read_binary_v2<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    let mut source = V2Source::new(r)?;
    let mut trace = Trace::new();
    while let Some(rec) = source.try_next()? {
        trace.push(rec);
    }
    Ok(trace)
}

// ---------------------------------------------------------------------
// Standalone frame decode (daemon ingestion)
// ---------------------------------------------------------------------

/// Why [`decode_frame`] rejected a standalone frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDefect {
    /// Shorter than a frame header, or the payload falls short of the
    /// declared length.
    Truncated,
    /// Bytes remain past the declared payload length.
    TrailingBytes,
    /// The declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized,
    /// The payload does not match the frame's CRC-32.
    Checksum,
    /// A CRC-valid payload that does not decode: a record count the
    /// payload cannot hold, defective varints, leftover payload bytes, or
    /// a zero-extent record (which the strict readers also reject).
    Malformed,
}

impl std::fmt::Display for FrameDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self {
            FrameDefect::Truncated => "frame truncated",
            FrameDefect::TrailingBytes => "bytes past the declared payload",
            FrameDefect::Oversized => "declared payload over the frame bound",
            FrameDefect::Checksum => "frame CRC mismatch",
            FrameDefect::Malformed => "frame payload does not decode",
        };
        f.write_str(what)
    }
}

impl std::error::Error for FrameDefect {}

/// Decodes one self-contained v2 frame — the 12-byte header plus payload,
/// exactly as [`V2Writer`] emits it — applying every validation the
/// streaming readers apply: length bounds, CRC, record-count
/// plausibility, varint integrity, and the strict zero-extent rule.
///
/// This is the ingestion primitive for socket peers (the `tempod`
/// daemon): a client ships whole frames, each frame is accepted or
/// rejected as a unit, and a defective frame cannot poison the session —
/// the caller tallies it and moves on, exactly like a lossy reader
/// skipping a bad frame. Records decoded from accepted frames are
/// byte-equivalent to what [`V2Source`] yields for the same stream.
///
/// # Errors
///
/// Returns the [`FrameDefect`] describing the first validation failure.
pub fn decode_frame(frame: &[u8]) -> Result<Vec<TraceRecord>, FrameDefect> {
    let Some((raw, body)) = frame.split_first_chunk::<FRAME_HEADER_LEN>() else {
        return Err(FrameDefect::Truncated);
    };
    let header = FrameHeader::parse(raw).map_err(|_| FrameDefect::Oversized)?;
    let declared = header.payload_len as usize;
    if body.len() < declared {
        return Err(FrameDefect::Truncated);
    }
    if body.len() > declared {
        return Err(FrameDefect::TrailingBytes);
    }
    let mut procs = Vec::new();
    let mut bytes = Vec::new();
    header
        .decode(body, &mut procs, &mut bytes, true)
        .map_err(|fault| match fault {
            FrameFault::Checksum => FrameDefect::Checksum,
            _ => FrameDefect::Malformed,
        })?;
    Ok(procs
        .iter()
        .zip(&bytes)
        .map(|(&proc, &extent)| TraceRecord::new(ProcId::new(proc), extent))
        .collect())
}

// ---------------------------------------------------------------------
// Frame scan (epoch planning)
// ---------------------------------------------------------------------

/// One frame's position and size as reported by [`scan_frames`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameEntry {
    /// Byte offset of the frame header from the start of the stream
    /// (the first frame sits right after the 8-byte file header).
    pub offset: u64,
    /// Declared payload length in bytes.
    pub payload_len: u32,
    /// Declared record count.
    pub records: u32,
}

/// Scans a v2 stream's frame structure without decoding any records.
///
/// Reads each 12-byte frame header and discards the payload, yielding one
/// [`FrameEntry`] per frame. The epoch engine uses this to split a trace
/// into record ranges aligned to frame boundaries. The scan is strict about
/// structure (magic, version, payload bounds, truncation) but does **not**
/// verify CRCs or decode varints — a later reading pass still validates
/// frame contents.
///
/// # Errors
///
/// Fails on I/O errors, bad magic, an unsupported version, a declared
/// payload over [`MAX_FRAME_PAYLOAD`], or a truncated frame.
pub fn scan_frames<R: Read>(mut r: R) -> Result<Vec<FrameEntry>, TraceIoError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC_V2 {
        return Err(TraceIoError::BadMagic);
    }
    let mut word = [0u8; 4];
    r.read_exact(&mut word)?;
    let version = u32::from_le_bytes(word);
    if version != VERSION_V2 {
        return Err(TraceIoError::UnsupportedVersion(version));
    }

    let mut frames = Vec::new();
    let mut offset = 8u64;
    let mut scratch = vec![0u8; 64 * 1024];
    loop {
        let frame_index = frames.len() as u64;
        let mut header = [0u8; FRAME_HEADER_LEN];
        let filled = crate::io::read_fully(&mut r, &mut header)?;
        if filled == 0 {
            return Ok(frames); // clean end of input at a frame boundary
        }
        if filled < header.len() {
            return Err(TraceIoError::CorruptFrame { frame: frame_index });
        }
        let payload_len = u32::from_le_bytes(header[0..4].try_into().expect("slice is 4 bytes"));
        let records = u32::from_le_bytes(header[4..8].try_into().expect("slice is 4 bytes"));
        if payload_len > MAX_FRAME_PAYLOAD || u64::from(records) * 2 > u64::from(payload_len) {
            return Err(TraceIoError::CorruptFrame { frame: frame_index });
        }
        // Skip the payload without holding it: plain `Read` has no seek,
        // so drain through a bounded scratch buffer.
        let mut remaining = payload_len as usize;
        while remaining > 0 {
            let want = remaining.min(scratch.len());
            let got = crate::io::read_fully(&mut r, &mut scratch[..want])?;
            if got == 0 {
                return Err(TraceIoError::CorruptFrame { frame: frame_index });
            }
            remaining -= got;
        }
        frames.push(FrameEntry {
            offset,
            payload_len,
            records,
        });
        offset += FRAME_HEADER_LEN as u64 + u64::from(payload_len);
    }
}

/// Reads a whole v2 trace, recovering from corruption instead of failing.
///
/// # Errors
///
/// Fails only on genuine I/O errors from the reader.
pub fn read_binary_v2_lossy<R: Read>(
    r: R,
    program: Option<&Program>,
) -> Result<(Trace, TraceWarnings), TraceIoError> {
    let mut source = V2Source::new_lossy(r, program)?;
    let mut trace = Trace::new();
    while let Some(rec) = source.try_next()? {
        trace.push(rec);
    }
    Ok((trace, source.warnings()))
}

/// Opens a TMP2 file strictly as a buffered [`V2Source`].
///
/// `budget` selects nothing: there is one reader, and it holds one frame
/// at a time whatever the file size. The parameter stays so existing
/// callers keep compiling.
///
/// # Errors
///
/// Fails on I/O errors, bad magic, or an unsupported version.
pub fn open_v2_auto(
    path: &Path,
    _budget: Option<u64>,
) -> Result<V2Source<'static, BufReader<File>>, TraceIoError> {
    V2Source::new(BufReader::new(File::open(path)?))
}

/// Lossy counterpart of [`open_v2_auto`]: defects are repaired against
/// `program` and tallied instead of raised.
///
/// # Errors
///
/// Fails only on genuine I/O errors.
pub fn open_v2_auto_lossy<'p>(
    path: &Path,
    program: Option<&'p Program>,
) -> Result<V2Source<'p, BufReader<File>>, TraceIoError> {
    V2Source::new_lossy(BufReader::new(File::open(path)?), program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_program::ProcId;

    fn sample_trace() -> Trace {
        Trace::from_records(vec![
            TraceRecord::new(ProcId::new(0), 100),
            TraceRecord::new(ProcId::new(5), 32),
            TraceRecord::new(ProcId::new(0), 1),
            TraceRecord::new(ProcId::new(1_000_000), u32::MAX),
        ])
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn varint_roundtrips() {
        for v in [0u32, 1, 127, 128, 300, 16_383, 16_384, u32::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v), "value {v}");
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        // 6-byte varint: too long for u32.
        let mut pos = 0;
        assert_eq!(
            read_varint(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01], &mut pos),
            None
        );
        // 5th byte with bits above 32.
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80, 0x80, 0x80, 0x80, 0x7F], &mut pos), None);
        // Truncated continuation.
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80], &mut pos), None);
    }

    #[test]
    fn v2_roundtrip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &t).unwrap();
        assert_eq!(&buf[0..4], b"TMP2");
        assert_eq!(read_binary_v2(buf.as_slice()).unwrap(), t);
    }

    #[test]
    fn v2_roundtrip_empty() {
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &Trace::new()).unwrap();
        assert_eq!(buf.len(), 8); // header only, no frames
        assert!(read_binary_v2(buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn v2_roundtrip_across_many_frames() {
        let records: Vec<_> = (0..20_000)
            .map(|i| TraceRecord::new(ProcId::new(i % 97), (i % 1000) + 1))
            .collect();
        let t = Trace::from_records(records);
        let mut buf = Vec::new();
        let mut w = V2Writer::with_frame_records(&mut buf, 512).unwrap();
        for r in t.iter() {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(read_binary_v2(buf.as_slice()).unwrap(), t);
    }

    #[test]
    fn v2_is_denser_than_v1_for_small_ids() {
        // Against the 8 bytes a fixed-width (proc u32, extent u32) record
        // takes, as the retired v1 container stored it.
        let records: Vec<_> = (0..10_000)
            .map(|i| TraceRecord::new(ProcId::new(i % 50), (i % 200) + 1))
            .collect();
        let t = Trace::from_records(records);
        let fixed = 8 * t.len();
        let mut v2 = Vec::new();
        write_binary_v2(&mut v2, &t).unwrap();
        assert!(
            v2.len() * 2 < fixed,
            "v2 ({}) should be well under half of fixed records ({fixed})",
            v2.len()
        );
    }

    #[test]
    fn v2_rejects_bad_magic_and_version() {
        assert!(matches!(
            V2Source::new(&b"NOPE\x02\x00\x00\x00"[..]).unwrap_err(),
            TraceIoError::BadMagic
        ));
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_V2);
        buf.extend_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            V2Source::new(buf.as_slice()).unwrap_err(),
            TraceIoError::UnsupportedVersion(9)
        ));
    }

    #[test]
    fn v2_strict_rejects_corrupt_frame() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &t).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xFF; // flip payload bits -> CRC mismatch
        assert!(matches!(
            read_binary_v2(buf.as_slice()).unwrap_err(),
            TraceIoError::CorruptFrame { frame: 0 }
        ));
    }

    #[test]
    fn v2_strict_rejects_truncated_payload() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &t).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(matches!(
            read_binary_v2(buf.as_slice()).unwrap_err(),
            TraceIoError::CorruptFrame { frame: 0 }
        ));
    }

    #[test]
    fn v2_lossy_skips_corrupt_frame_and_keeps_the_rest() {
        // Three single-record frames; corrupt the middle one.
        let t = Trace::from_records(vec![
            TraceRecord::new(ProcId::new(1), 10),
            TraceRecord::new(ProcId::new(2), 20),
            TraceRecord::new(ProcId::new(3), 30),
        ]);
        let mut buf = Vec::new();
        let mut w = V2Writer::with_frame_records(&mut buf, 1).unwrap();
        for r in t.iter() {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        // Frame layout: header(8) + 3 × (12-byte frame header + 2-byte payload).
        let mid_payload = 8 + 14 + 12; // first byte of frame 1's payload
        buf[mid_payload] ^= 0x55;
        let (back, w) = read_binary_v2_lossy(buf.as_slice(), None).unwrap();
        assert_eq!(w.bad_frames, 1);
        assert_eq!(
            back.records(),
            &[
                TraceRecord::new(ProcId::new(1), 10),
                TraceRecord::new(ProcId::new(3), 30),
            ]
        );
    }

    #[test]
    fn v2_lossy_stops_at_truncated_tail() {
        let t = sample_trace();
        let mut buf = Vec::new();
        let mut w = V2Writer::with_frame_records(&mut buf, 2).unwrap();
        for r in t.iter() {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        buf.truncate(buf.len() - 1); // clip the final frame's payload
        let (back, w) = read_binary_v2_lossy(buf.as_slice(), None).unwrap();
        assert_eq!(w.bad_frames, 1);
        assert_eq!(back.records(), &t.records()[..2]);
    }

    #[test]
    fn v2_lossy_tolerates_mangled_header() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &t).unwrap();
        buf[0] = b'X';
        let (back, w) = read_binary_v2_lossy(buf.as_slice(), None).unwrap();
        assert_eq!(w.header_mangled, 1);
        assert_eq!(back, t);
    }

    #[test]
    fn v2_lossy_repairs_records_against_program() {
        let p = Program::builder()
            .procedure("a", 64)
            .procedure("b", 32)
            .build()
            .unwrap();
        let t = Trace::from_records(vec![
            TraceRecord::new(ProcId::new(0), 10),
            TraceRecord::new(ProcId::new(99), 10),  // unknown
            TraceRecord::new(ProcId::new(1), 5000), // oversized
        ]);
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &t).unwrap();
        let (back, w) = read_binary_v2_lossy(buf.as_slice(), Some(&p)).unwrap();
        assert_eq!(w.unknown_proc, 1);
        assert_eq!(w.clamped_extent, 1);
        assert_eq!(back.len(), 2);
        back.validate(&p).unwrap();
    }

    #[test]
    fn v2_strict_rejects_zero_extent() {
        // Hand-build a frame with a zero-extent record (writer can't).
        let mut payload = Vec::new();
        push_varint(&mut payload, 7);
        push_varint(&mut payload, 0);
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_V2);
        buf.extend_from_slice(&VERSION_V2.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        assert!(matches!(
            read_binary_v2(buf.as_slice()).unwrap_err(),
            TraceIoError::ZeroExtent { index: 0 }
        ));
        // Lossy drops it instead.
        let (back, w) = read_binary_v2_lossy(buf.as_slice(), None).unwrap();
        assert!(back.is_empty());
        assert_eq!(w.zero_extent, 1);
    }

    #[test]
    fn v2_hostile_record_count_cannot_force_allocation() {
        // A frame whose header declares ~4 billion records over a tiny
        // (CRC-valid) payload. The count check rejects it, and the decode
        // preallocation is clamped by payload size — a hostile header must
        // never become a multi-gigabyte `Vec::with_capacity`. Regression
        // test for the unclamped `with_capacity(record_count)` bug.
        let mut payload = Vec::new();
        push_varint(&mut payload, 7);
        push_varint(&mut payload, 1);
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_V2);
        buf.extend_from_slice(&VERSION_V2.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // hostile count
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        // Strict: the frame is corrupt.
        assert!(matches!(
            read_binary_v2(buf.as_slice()).unwrap_err(),
            TraceIoError::CorruptFrame { frame: 0 }
        ));
        // Lossy: the frame is skipped (it was fully consumed), and a
        // valid frame after it still decodes.
        let mut good = Vec::new();
        push_varint(&mut good, 3);
        push_varint(&mut good, 42);
        buf.extend_from_slice(&(good.len() as u32).to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&crc32(&good).to_le_bytes());
        buf.extend_from_slice(&good);
        let (back, w) = read_binary_v2_lossy(buf.as_slice(), None).unwrap();
        assert_eq!(w.bad_frames, 1);
        assert_eq!(
            back,
            Trace::from_records(vec![TraceRecord::new(ProcId::new(3), 42)])
        );
    }

    #[test]
    fn v2_overdeclared_count_within_bound_is_a_frame_defect() {
        // record_count passes the `count * 2 <= payload_len` sanity check
        // but exceeds what the payload actually holds: decode must fail
        // the frame, not read out of bounds or trust the reservation.
        let mut payload = Vec::new();
        push_varint(&mut payload, 1);
        push_varint(&mut payload, 10);
        push_varint(&mut payload, 2);
        push_varint(&mut payload, 20); // 2 real records, 8 bytes
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_V2);
        buf.extend_from_slice(&VERSION_V2.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&4u32.to_le_bytes()); // declares 4 records
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        assert!(matches!(
            read_binary_v2(buf.as_slice()).unwrap_err(),
            TraceIoError::CorruptFrame { frame: 0 }
        ));
        let (back, w) = read_binary_v2_lossy(buf.as_slice(), None).unwrap();
        assert!(back.is_empty());
        assert_eq!(w.bad_frames, 1);
    }

    #[test]
    fn v2_lossy_rejects_absurd_payload_length() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_V2);
        buf.extend_from_slice(&VERSION_V2.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // payload_len
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let (back, w) = read_binary_v2_lossy(buf.as_slice(), None).unwrap();
        assert!(back.is_empty());
        assert_eq!(w.bad_frames, 1);
        assert!(matches!(
            read_binary_v2(&buf[..]).unwrap_err(),
            TraceIoError::CorruptFrame { frame: 0 }
        ));
    }

    #[test]
    fn v2_block_path_matches_scalar_path() {
        let records: Vec<_> = (0..5_000u32)
            .map(|i| TraceRecord::new(ProcId::new(i % 97), (i % 1000) + 1))
            .collect();
        let mut buf = Vec::new();
        let mut w = V2Writer::with_frame_records(&mut buf, 300).unwrap();
        for r in &records {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        let mut src = V2Source::new(buf.as_slice()).unwrap();
        let mut block = RecordBlock::default();
        let mut rebuilt = Vec::new();
        while src.try_next_block(&mut block, 128).unwrap() > 0 {
            assert!(block.len() <= 128);
            for i in 0..block.len() {
                rebuilt.push(TraceRecord::new(
                    ProcId::new(block.procs[i]),
                    block.bytes[i],
                ));
            }
        }
        assert_eq!(rebuilt, records);
    }

    #[test]
    fn v2_lossy_tallies_varint_defects() {
        // CRC-valid frame whose payload is a single over-long varint.
        let payload = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x01];
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_V2);
        buf.extend_from_slice(&VERSION_V2.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        let (back, w) = read_binary_v2_lossy(buf.as_slice(), None).unwrap();
        assert!(back.is_empty());
        assert_eq!(w.bad_frames, 1);
        assert_eq!(w.varint_defects, 1);
        // varint_defects is a sub-tally: total() counts the frame once.
        assert_eq!(w.total(), 1);
    }

    #[test]
    fn v2_input_shorter_than_the_magic_is_an_eof() {
        // Strict: fewer than four bytes cannot be sniffed, so the reader
        // reports the I/O EOF rather than a bad magic.
        for short in [&b""[..], b"T", b"TMP"] {
            let err = V2Source::new(short).unwrap_err();
            assert!(
                matches!(&err, TraceIoError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
                "{short:?}: {err:?}"
            );
        }
        // Lossy: a non-empty stub is a mangled header with no records.
        let (back, w) = read_binary_v2_lossy(&b"TMP"[..], None).unwrap();
        assert!(back.is_empty());
        assert_eq!(w.header_mangled, 1);
        let (_, w) = read_binary_v2_lossy(&b""[..], None).unwrap();
        assert!(w.is_clean());
    }

    #[test]
    fn v2_lying_length_prefix_costs_only_the_bytes_present() {
        // A header declaring the largest legal payload over two real bytes:
        // the reader must not allocate the declared size up front.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_V2);
        buf.extend_from_slice(&VERSION_V2.to_le_bytes());
        buf.extend_from_slice(&MAX_FRAME_PAYLOAD.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[7, 9]);
        let mut src = V2Source::new_lossy(buf.as_slice(), None).unwrap();
        assert_eq!(src.try_next().unwrap(), None);
        assert_eq!(src.warnings().bad_frames, 1);
        assert!(
            src.payload.capacity() < 4096,
            "payload buffer grew to {} bytes",
            src.payload.capacity()
        );
    }

    #[test]
    fn open_v2_auto_reads_the_file_whatever_the_budget() {
        let t = sample_trace();
        let dir = std::env::temp_dir().join("tempo_v2_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("open_auto.v2");
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &t).unwrap();
        std::fs::write(&path, &buf).unwrap();
        for budget in [None, Some(0), Some(u64::MAX)] {
            let mut src = open_v2_auto(&path, budget).unwrap();
            let mut back = Trace::new();
            crate::pump(&mut src, &mut back).unwrap();
            assert_eq!(back, t, "budget {budget:?}");
        }
        let mut lossy = open_v2_auto_lossy(&path, None).unwrap();
        let mut back = Trace::new();
        crate::pump(&mut lossy, &mut back).unwrap();
        assert_eq!(back, t);
        assert!(lossy.warnings().is_clean());
    }

    #[test]
    fn decode_frame_roundtrips_writer_frames() {
        let t = sample_trace();
        let mut buf = Vec::new();
        let mut w = V2Writer::with_frame_records(&mut buf, 2).unwrap();
        for r in t.iter() {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        // Slice each frame out via the scan and decode it standalone.
        let frames = scan_frames(buf.as_slice()).unwrap();
        let mut back = Vec::new();
        for f in &frames {
            let start = usize::try_from(f.offset).unwrap();
            let end = start + FRAME_HEADER_LEN + f.payload_len as usize;
            back.extend(decode_frame(&buf[start..end]).unwrap());
        }
        assert_eq!(back, t.records());
    }

    #[test]
    fn encode_frame_matches_writer_frames_and_decodes_back() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &t).unwrap();
        let frame = encode_frame(t.records()).unwrap();
        assert_eq!(&buf[8..], frame.as_slice());
        assert_eq!(decode_frame(&frame).unwrap(), t.records());
        // The empty frame is all zeros: crc32 of nothing is 0.
        assert_eq!(encode_frame(&[]).unwrap(), vec![0u8; FRAME_HEADER_LEN]);
        assert!(decode_frame(&[0u8; FRAME_HEADER_LEN]).unwrap().is_empty());
    }

    #[test]
    fn decode_frame_rejects_every_defect_class() {
        let mut payload = Vec::new();
        push_varint(&mut payload, 7);
        push_varint(&mut payload, 9);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        assert!(decode_frame(&frame).is_ok());

        assert_eq!(decode_frame(&frame[..8]), Err(FrameDefect::Truncated));
        assert_eq!(
            decode_frame(&frame[..frame.len() - 1]),
            Err(FrameDefect::Truncated)
        );
        let mut long = frame.clone();
        long.push(0);
        assert_eq!(decode_frame(&long), Err(FrameDefect::TrailingBytes));

        let mut oversized = frame.clone();
        oversized[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&oversized), Err(FrameDefect::Oversized));

        let mut flipped = frame.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert_eq!(decode_frame(&flipped), Err(FrameDefect::Checksum));

        // Hostile record count over a valid payload.
        let mut hostile = frame.clone();
        hostile[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&hostile), Err(FrameDefect::Malformed));

        // Zero-extent record (CRC-valid): rejected like the strict reader.
        let mut zpayload = Vec::new();
        push_varint(&mut zpayload, 7);
        push_varint(&mut zpayload, 0);
        let mut zframe = Vec::new();
        zframe.extend_from_slice(&(zpayload.len() as u32).to_le_bytes());
        zframe.extend_from_slice(&1u32.to_le_bytes());
        zframe.extend_from_slice(&crc32(&zpayload).to_le_bytes());
        zframe.extend_from_slice(&zpayload);
        assert_eq!(decode_frame(&zframe), Err(FrameDefect::Malformed));
    }

    #[test]
    fn scan_frames_reports_offsets_and_record_counts() {
        let records: Vec<_> = (0..25)
            .map(|i| TraceRecord::new(ProcId::new(i % 5), i + 1))
            .collect();
        let t = Trace::from_records(records);
        let mut buf = Vec::new();
        let mut w = V2Writer::with_frame_records(&mut buf, 10).unwrap();
        for r in t.iter() {
            w.push(r).unwrap();
        }
        w.finish().unwrap();

        let frames = scan_frames(buf.as_slice()).unwrap();
        assert_eq!(frames.len(), 3); // 10 + 10 + 5
        assert_eq!(frames[0].offset, 8);
        assert_eq!(frames.iter().map(|f| u64::from(f.records)).sum::<u64>(), 25);
        assert_eq!(frames[2].records, 5);
        // Offsets chain: each frame starts where the previous one ended.
        for pair in frames.windows(2) {
            assert_eq!(
                pair[1].offset,
                pair[0].offset + FRAME_HEADER_LEN as u64 + u64::from(pair[0].payload_len)
            );
        }
        // Total structure accounts for every byte of the stream.
        let last = frames.last().unwrap();
        assert_eq!(
            last.offset + FRAME_HEADER_LEN as u64 + u64::from(last.payload_len),
            buf.len() as u64
        );
    }

    #[test]
    fn scan_frames_empty_trace_yields_no_frames() {
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &Trace::new()).unwrap();
        assert!(scan_frames(buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn scan_frames_rejects_structural_damage() {
        assert!(matches!(
            scan_frames(&b"NOPE\x02\x00\x00\x00"[..]).unwrap_err(),
            TraceIoError::BadMagic
        ));

        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &t).unwrap();
        // Truncated payload.
        let mut clipped = buf.clone();
        clipped.truncate(clipped.len() - 2);
        assert!(matches!(
            scan_frames(clipped.as_slice()).unwrap_err(),
            TraceIoError::CorruptFrame { frame: 0 }
        ));
        // Absurd declared payload length.
        let mut hostile = buf.clone();
        hostile[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            scan_frames(hostile.as_slice()).unwrap_err(),
            TraceIoError::CorruptFrame { frame: 0 }
        ));
    }

    #[test]
    fn v2_writer_as_sink_latches_errors() {
        /// Writer that fails after a fixed byte budget.
        struct Failing(usize);
        impl Write for Failing {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.0 < buf.len() {
                    return Err(std::io::Error::other("disk full"));
                }
                self.0 -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = V2Writer::with_frame_records(Failing(16), 1).unwrap();
        for _ in 0..4 {
            TraceSink::accept(&mut w, &TraceRecord::new(ProcId::new(1), 1));
        }
        assert!(w.finish().is_err());
    }
}
