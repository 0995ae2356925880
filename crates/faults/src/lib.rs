//! Deterministic fault injectors for the tempo binary trace format.
//!
//! Real profiling pipelines hand the layout tool traces that were cut off
//! by a crashing profiler, spliced together from shards, bit-rotted on
//! disk, or produced by an instrumentation pass whose call stack lost
//! track of itself. This crate synthesizes those defects *reproducibly*
//! so the robustness contract of `tempo-trace`'s readers — strict mode
//! returns a structured error, lossy mode recovers with `TraceWarnings`
//! counters, and nothing ever panics — can be asserted over a full fault
//! matrix (see `tests/fault_matrix.rs`).
//!
//! Each injector is a pure function of `(input bytes, seed)`: the same
//! seed always produces the same corruption, so a failing matrix cell can
//! be replayed in isolation.
//!
//! The injectors operate on serialized TMP2 bytes, as documented in
//! `tempo-trace::v2`: an 8-byte preamble (`TMP2` magic, version `u32`
//! LE) followed by CRC-framed chunks of varint records. The byte-level
//! classes cut, flip or splice anywhere; the record-level classes
//! ([`FaultClass::StackUnbalance`], [`FaultClass::ProcIdRemap`]) decode
//! one frame and rewrite it.

// In the test build, `unwrap` IS the assertion.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::cast_possible_truncation))]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tempo_program::ProcId;
use tempo_trace::v2::{decode_frame, encode_frame, scan_frames, FRAME_HEADER_LEN};
use tempo_trace::TraceRecord;

/// TMP2 preamble length: magic (4) + version (4).
pub const HEADER_LEN: usize = 8;

/// Exclusive upper bound on the byte counts of splices and trickled
/// chunks (1–7 bytes).
const MAX_CHUNK: usize = 8;

/// One class of trace corruption the injectors can synthesize.
///
/// Deliberately *not* `#[non_exhaustive]`: the fault matrix matches on
/// every class so that adding a new injector forces every matrix cell to
/// state its expectations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Cuts the byte stream short at a random point — a profiler that
    /// died mid-write. May land inside the header or mid-record.
    Truncate,
    /// Flips up to eight random bits anywhere in the stream — bit rot or
    /// a flaky transport.
    BitFlip,
    /// Splices 1–7 extra bytes past the preamble, knocking every later
    /// frame out of alignment — shards concatenated at a non-frame
    /// boundary.
    RecordSplice,
    /// XORs one byte within the 8-byte preamble — a corrupted magic or
    /// version.
    HeaderMangle,
    /// Deletes one record from a frame but keeps the frame's record count
    /// and CRC — an instrumentation pass whose call stack lost a return
    /// and emitted fewer transitions than it counted. The frame stays
    /// delimited (its length is updated), so exactly that frame fails.
    StackUnbalance,
    /// Rewrites the proc ids of up to four records of one frame to values
    /// no program defines and re-encodes the frame with a valid CRC — a
    /// stale symbol table or id-space mismatch. The stream still parses.
    ProcIdRemap,
    /// XORs one byte past the 8-byte preamble — lands in a frame header
    /// or varint payload, breaking exactly one frame.
    FrameMangle,
}

impl FaultClass {
    /// Every fault class, for matrix-style iteration.
    pub const ALL: [FaultClass; 7] = [
        FaultClass::Truncate,
        FaultClass::BitFlip,
        FaultClass::RecordSplice,
        FaultClass::HeaderMangle,
        FaultClass::StackUnbalance,
        FaultClass::ProcIdRemap,
        FaultClass::FrameMangle,
    ];

    /// Stable lowercase name, used in test output and CI logs.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Truncate => "truncate",
            FaultClass::BitFlip => "bit-flip",
            FaultClass::RecordSplice => "record-splice",
            FaultClass::HeaderMangle => "header-mangle",
            FaultClass::StackUnbalance => "stack-unbalance",
            FaultClass::ProcIdRemap => "proc-id-remap",
            FaultClass::FrameMangle => "frame-mangle",
        }
    }

    /// Applies this corruption to a serialized trace.
    ///
    /// Deterministic in `(self, bytes, seed)`. Inputs too small to host
    /// the corruption (e.g. a record-level fault on a header-only stream)
    /// are returned unchanged rather than panicking — the injectors are
    /// total, like the readers they exercise.
    pub fn inject(self, bytes: &[u8], seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = bytes.to_vec();
        match self {
            FaultClass::Truncate => {
                if !out.is_empty() {
                    let cut = rng.gen_range(0..out.len());
                    out.truncate(cut);
                }
            }
            FaultClass::BitFlip => {
                if !out.is_empty() {
                    let flips: usize = rng.gen_range(1..=8);
                    for _ in 0..flips {
                        let i = rng.gen_range(0..out.len());
                        let bit: u32 = rng.gen_range(0..8);
                        out[i] ^= 1 << bit;
                    }
                }
            }
            FaultClass::RecordSplice => {
                let n: usize = rng.gen_range(1..MAX_CHUNK);
                let at = if out.len() > HEADER_LEN {
                    rng.gen_range(HEADER_LEN..=out.len())
                } else {
                    out.len()
                };
                let chunk: Vec<u8> = (0..n).map(|_| rng.gen::<u8>()).collect();
                out.splice(at..at, chunk);
            }
            FaultClass::HeaderMangle => {
                if !out.is_empty() {
                    let span = out.len().min(HEADER_LEN);
                    let i = rng.gen_range(0..span);
                    let mask: u8 = rng.gen_range(1..=255);
                    out[i] ^= mask;
                }
            }
            FaultClass::StackUnbalance => {
                rewrite_frame(&mut out, &mut rng, |records, header, rng| {
                    records.remove(rng.gen_range(0..records.len()));
                    let mut frame = encode_frame(records).ok()?;
                    // The original count and CRC now disagree with the
                    // payload.
                    frame[4..FRAME_HEADER_LEN].copy_from_slice(&header[4..]);
                    Some(frame)
                });
            }
            FaultClass::ProcIdRemap => {
                rewrite_frame(&mut out, &mut rng, |records, _, rng| {
                    let hits = rng.gen_range(1..=records.len().min(4));
                    for _ in 0..hits {
                        let r = rng.gen_range(0..records.len());
                        // High-half ids: out of range for any realistic
                        // program, so the defect is detectable by readers
                        // that know the program.
                        let bogus: u32 = 0xFFFF_0000 | rng.gen_range(0..0xFFFF_u32);
                        records[r] = TraceRecord::new(ProcId::new(bogus), records[r].bytes);
                    }
                    encode_frame(records).ok()
                });
            }
            FaultClass::FrameMangle => {
                if out.len() > HEADER_LEN {
                    let i = rng.gen_range(HEADER_LEN..out.len());
                    let mask: u8 = rng.gen_range(1..=255);
                    out[i] ^= mask;
                }
            }
        }
        out
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Replaces one randomly chosen non-empty frame of a well-formed TMP2
/// stream with what `edit` makes of its decoded records and 12-byte
/// header. Streams that do not scan or decode, or hold no records, and
/// edits that return `None`, leave `out` unchanged.
fn rewrite_frame(
    out: &mut Vec<u8>,
    rng: &mut StdRng,
    edit: impl FnOnce(&mut Vec<TraceRecord>, &[u8], &mut StdRng) -> Option<Vec<u8>>,
) {
    let Ok(frames) = scan_frames(out.as_slice()) else {
        return;
    };
    let full: Vec<_> = frames.iter().filter(|f| f.records > 0).collect();
    if full.is_empty() {
        return;
    }
    let f = full[rng.gen_range(0..full.len())];
    let Ok(start) = usize::try_from(f.offset) else {
        return;
    };
    let end = start + FRAME_HEADER_LEN + f.payload_len as usize;
    let Ok(mut records) = decode_frame(&out[start..end]) else {
        return;
    };
    if let Some(frame) = edit(&mut records, &out[start..start + FRAME_HEADER_LEN], rng) {
        out.splice(start..end, frame);
    }
}

/// One class of misbehaving *network client* — the connection-level
/// counterpart of [`FaultClass`] (bad bytes), aimed at a server accepting
/// framed trace streams (the `tempod` daemon).
///
/// A client fault does not corrupt the bytes themselves; it corrupts the
/// *delivery*: the stream stops mid-message, or arrives in a pathological
/// trickle. The server contract under both is the same as the lossy
/// readers' — tally, stay up, keep serving everyone else. Deliberately
/// not `#[non_exhaustive]`: the fault matrix matches on every class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientFault {
    /// The connection drops partway through a message: only a prefix of
    /// the stream is ever delivered — a client killed mid-frame.
    DropMidMessage,
    /// The stream arrives in tiny bursts (1–7 bytes each) — a client on a
    /// congested link or deliberately starving the server's reader.
    SlowTrickle,
}

impl ClientFault {
    /// Every client fault class, for matrix-style iteration.
    pub const ALL: [ClientFault; 2] = [ClientFault::DropMidMessage, ClientFault::SlowTrickle];

    /// Stable lowercase name, used in test output and CI logs.
    pub fn name(self) -> &'static str {
        match self {
            ClientFault::DropMidMessage => "drop-mid-message",
            ClientFault::SlowTrickle => "slow-trickle",
        }
    }

    /// Plans the delivery of `stream` under this fault: the chunks a
    /// writer should send, in order, before closing the connection.
    ///
    /// Deterministic in `(self, stream, seed)`, like
    /// [`FaultClass::inject`]. For [`DropMidMessage`](Self::DropMidMessage)
    /// the plan is a single proper prefix (at least one byte short, cut at
    /// a random interior point) — the remainder is never sent. For
    /// [`SlowTrickle`](Self::SlowTrickle) the plan covers the whole stream
    /// in 1–7-byte slices.
    pub fn schedule(self, stream: &[u8], seed: u64) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            ClientFault::DropMidMessage => {
                if stream.is_empty() {
                    return Vec::new();
                }
                let cut = rng.gen_range(0..stream.len());
                if cut == 0 {
                    return Vec::new();
                }
                vec![stream[..cut].to_vec()]
            }
            ClientFault::SlowTrickle => {
                let mut chunks = Vec::new();
                let mut at = 0usize;
                while at < stream.len() {
                    let n = rng.gen_range(1..MAX_CHUNK).min(stream.len() - at);
                    chunks.push(stream[at..at + n].to_vec());
                    at += n;
                }
                chunks
            }
        }
    }
}

impl std::fmt::Display for ClientFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_trace::v2::read_binary_v2;
    use tempo_trace::Trace;

    /// A well-formed TMP2 stream: `n` records in frames of five.
    fn fixture(n: usize) -> Vec<u8> {
        tempo_trace::testkit::v2_bytes(&trace(n), 5).unwrap()
    }

    fn trace(n: usize) -> Trace {
        Trace::from_records(
            (0..n as u32)
                .map(|i| TraceRecord::new(ProcId::new(i % 7), 64 + i))
                .collect(),
        )
    }

    /// Each frame of a stream, as (header, payload), walked by the length
    /// prefixes alone.
    fn frames(bytes: &[u8]) -> Vec<(&[u8], &[u8])> {
        let mut out = Vec::new();
        let mut at = HEADER_LEN;
        while at < bytes.len() {
            let body = at + FRAME_HEADER_LEN;
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            out.push((&bytes[at..body], &bytes[body..body + len]));
            at = body + len;
        }
        out
    }

    #[test]
    fn injectors_are_deterministic() {
        let input = fixture(20);
        for class in FaultClass::ALL {
            for seed in 0..5 {
                assert_eq!(
                    class.inject(&input, seed),
                    class.inject(&input, seed),
                    "{class} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn every_class_changes_a_nontrivial_stream() {
        let input = fixture(20);
        for class in FaultClass::ALL {
            assert_ne!(class.inject(&input, 3), input, "{class}");
        }
    }

    #[test]
    fn truncate_shortens() {
        let input = fixture(20);
        for seed in 0..10 {
            assert!(FaultClass::Truncate.inject(&input, seed).len() < input.len());
        }
    }

    #[test]
    fn splice_lengthens_by_a_misaligning_amount() {
        let input = fixture(20);
        for seed in 0..10 {
            let out = FaultClass::RecordSplice.inject(&input, seed);
            let grown = out.len() - input.len();
            assert!((1..MAX_CHUNK).contains(&grown), "grew by {grown}");
            assert_eq!(&out[..HEADER_LEN], &input[..HEADER_LEN]);
        }
    }

    #[test]
    fn unbalance_removes_exactly_one_record() {
        let input = fixture(20);
        for seed in 0..10 {
            let out = FaultClass::StackUnbalance.inject(&input, seed);
            let (before, after) = (frames(&input), frames(&out));
            assert_eq!(before.len(), after.len(), "framing holds");
            let changed: Vec<_> = before.iter().zip(&after).filter(|(b, a)| b != a).collect();
            assert_eq!(changed.len(), 1, "seed {seed}: one frame changed");
            let ((bh, bp), (ah, ap)) = changed[0];
            // Count and CRC kept; the payload lost one (2-byte) record.
            assert_eq!(&bh[4..], &ah[4..]);
            assert_eq!(ap.len() + 2, bp.len());
            assert!(read_binary_v2(out.as_slice()).is_err());
        }
    }

    #[test]
    fn header_mangle_touches_only_the_header() {
        let input = fixture(20);
        for seed in 0..10 {
            let out = FaultClass::HeaderMangle.inject(&input, seed);
            assert_eq!(out.len(), input.len());
            assert_ne!(&out[..HEADER_LEN], &input[..HEADER_LEN]);
            assert_eq!(&out[HEADER_LEN..], &input[HEADER_LEN..]);
        }
    }

    #[test]
    fn remap_rewrites_only_proc_fields_to_out_of_range_ids() {
        let original = trace(20);
        let input = fixture(20);
        for seed in 0..10 {
            // Re-encoded with a valid CRC: the stream reads strictly.
            let out =
                read_binary_v2(FaultClass::ProcIdRemap.inject(&input, seed).as_slice()).unwrap();
            assert_eq!(out.len(), original.len());
            let mut changed = Vec::new();
            for (i, (o, r)) in out.iter().zip(original.iter()).enumerate() {
                assert_eq!(o.bytes, r.bytes, "extent untouched");
                if o.proc != r.proc {
                    assert!(
                        o.proc.index() >= 0xFFFF_0000,
                        "remapped id is far out of range"
                    );
                    changed.push(i / 5);
                }
            }
            assert!((1..=4).contains(&changed.len()), "seed {seed}: {changed:?}");
            assert!(changed.iter().all(|&f| f == changed[0]), "one frame");
        }
    }

    #[test]
    fn injectors_are_total_on_degenerate_inputs() {
        let garbage: Vec<u8> = (0..64u8).collect();
        for class in FaultClass::ALL {
            for input in [&[][..], &[0x54][..], &fixture(0)[..], &garbage[..]] {
                for seed in 0..3 {
                    let _ = class.inject(input, seed); // must not panic
                }
            }
        }
    }

    #[test]
    fn client_fault_schedules_are_deterministic() {
        let stream = fixture(20);
        for fault in ClientFault::ALL {
            for seed in 0..5 {
                assert_eq!(
                    fault.schedule(&stream, seed),
                    fault.schedule(&stream, seed),
                    "{fault} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn drop_mid_message_delivers_a_proper_prefix() {
        let stream = fixture(20);
        for seed in 0..10 {
            let plan = ClientFault::DropMidMessage.schedule(&stream, seed);
            let sent: Vec<u8> = plan.concat();
            assert!(sent.len() < stream.len(), "must cut the stream short");
            assert_eq!(&stream[..sent.len()], &sent[..], "prefix is verbatim");
        }
    }

    #[test]
    fn slow_trickle_delivers_everything_in_small_chunks() {
        let stream = fixture(20);
        for seed in 0..10 {
            let plan = ClientFault::SlowTrickle.schedule(&stream, seed);
            assert_eq!(plan.concat(), stream, "trickle must cover the stream");
            assert!(plan.iter().all(|c| (1..MAX_CHUNK).contains(&c.len())));
        }
    }

    #[test]
    fn client_fault_schedules_are_total_on_degenerate_streams() {
        for fault in ClientFault::ALL {
            for stream in [&[][..], &[0x54][..]] {
                for seed in 0..3 {
                    let _ = fault.schedule(stream, seed); // must not panic
                }
            }
        }
    }
}
