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
//! The injectors operate on serialized bytes, so they apply to both
//! trace containers. The v1 form documented in `tempo-trace::io` is a
//! 16-byte header (`TMPO` magic, version `u32` LE, record count `u64` LE)
//! followed by fixed 8-byte records (proc `u32` LE, bytes `u32` LE). The
//! v2 form documented in `tempo-trace::v2` is an 8-byte preamble (`TMP2`
//! magic, version `u32` LE) followed by CRC-framed chunks of varint
//! records; [`FaultClass::FrameMangle`] targets the region past that
//! preamble so v2 frame headers and payloads get corrupted too.

// In the test build, `unwrap` IS the assertion.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::cast_possible_truncation))]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Serialized header length: magic (4) + version (4) + record count (8).
pub const HEADER_LEN: usize = 16;

/// Serialized record length: proc id (4) + byte extent (4).
pub const RECORD_LEN: usize = 8;

/// v2 container preamble length: magic (4) + version (4).
pub const HEADER_LEN_V2: usize = 8;

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
    /// Splices 1–7 extra bytes between records, knocking every later
    /// record out of frame — shards concatenated at a non-record boundary.
    RecordSplice,
    /// XORs one byte within the 16-byte header — a corrupted magic,
    /// version, or declared record count.
    HeaderMangle,
    /// Deletes one interior record without updating the header count — an
    /// instrumentation pass whose call stack lost a return and emitted
    /// fewer transitions than it counted.
    StackUnbalance,
    /// Rewrites the proc-id field of up to four records to values no
    /// program defines — a stale symbol table or id-space mismatch.
    ProcIdRemap,
    /// XORs one byte past the 8-byte v2 preamble — lands in a frame
    /// header or varint payload, breaking exactly one frame's CRC (on
    /// the v1 container the same offsets cover the declared count and
    /// the record array).
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
                let n: usize = rng.gen_range(1..RECORD_LEN);
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
                let records = complete_records(&out);
                if records > 0 {
                    let victim = rng.gen_range(0..records);
                    let start = HEADER_LEN + victim * RECORD_LEN;
                    out.drain(start..start + RECORD_LEN);
                }
            }
            FaultClass::ProcIdRemap => {
                let records = complete_records(&out);
                if records > 0 {
                    let hits = rng.gen_range(1..=records.min(4));
                    for _ in 0..hits {
                        let r = rng.gen_range(0..records);
                        let start = HEADER_LEN + r * RECORD_LEN;
                        // High-half ids: out of range for any realistic
                        // program, so the defect is detectable by readers
                        // that know the program.
                        let bogus: u32 = 0xFFFF_0000 | rng.gen_range(0..0xFFFF_u32);
                        out[start..start + 4].copy_from_slice(&bogus.to_le_bytes());
                    }
                }
            }
            FaultClass::FrameMangle => {
                if out.len() > HEADER_LEN_V2 {
                    let i = rng.gen_range(HEADER_LEN_V2..out.len());
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

/// Number of complete records in a serialized stream (ignoring any
/// trailing partial record).
fn complete_records(bytes: &[u8]) -> usize {
    bytes.len().saturating_sub(HEADER_LEN) / RECORD_LEN
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
                    let n = rng.gen_range(1..RECORD_LEN).min(stream.len() - at);
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

    /// A well-formed serialized trace: header + `n` records.
    fn fixture(n: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"TMPO");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&(n as u64).to_le_bytes());
        for i in 0..n {
            bytes.extend_from_slice(&(i as u32 % 7).to_le_bytes());
            bytes.extend_from_slice(&(64 + i as u32).to_le_bytes());
        }
        bytes
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
            let grown = FaultClass::RecordSplice.inject(&input, seed).len() - input.len();
            assert!((1..RECORD_LEN).contains(&grown), "grew by {grown}");
        }
    }

    #[test]
    fn unbalance_removes_exactly_one_record() {
        let input = fixture(20);
        let out = FaultClass::StackUnbalance.inject(&input, 1);
        assert_eq!(out.len(), input.len() - RECORD_LEN);
        // Header (and so the declared count) is untouched.
        assert_eq!(&out[..HEADER_LEN], &input[..HEADER_LEN]);
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
        let input = fixture(20);
        let out = FaultClass::ProcIdRemap.inject(&input, 2);
        assert_eq!(out.len(), input.len());
        let mut changed = 0;
        for r in 0..20 {
            let start = HEADER_LEN + r * RECORD_LEN;
            let proc = u32::from_le_bytes(out[start..start + 4].try_into().unwrap());
            let bytes = &out[start + 4..start + 8];
            assert_eq!(bytes, &input[start + 4..start + 8], "extent untouched");
            if proc != u32::from_le_bytes(input[start..start + 4].try_into().unwrap()) {
                assert!(proc >= 0xFFFF_0000, "remapped id is far out of range");
                changed += 1;
            }
        }
        assert!(changed >= 1);
    }

    #[test]
    fn injectors_are_total_on_degenerate_inputs() {
        for class in FaultClass::ALL {
            for input in [&[][..], &[0x54][..], &fixture(0)[..]] {
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
            assert!(plan.iter().all(|c| (1..RECORD_LEN).contains(&c.len())));
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
