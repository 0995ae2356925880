//! The streaming-equivalence contract (DESIGN.md §10): profiling and
//! simulating through `TraceSource` streams must be *indistinguishable*
//! from the materialized pipeline — identical `ProfileData`, identical
//! miss counts — for every kind of source (in-memory, TMP2 file, lazy
//! generator), plus property tests over the v2 chunked container
//! including truncated and corrupt frames in lossy mode.

#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code asserts by panicking

use proptest::prelude::*;
use tempo::prelude::*;
use tempo::trace::v2::{read_binary_v2_lossy, write_binary_v2, V2Source};
use tempo::trace::RecordBlock;
use tempo::workloads::suite;

/// Pins the tentpole guarantee end to end: one materialized reference
/// profile, then the same profile re-derived through every streaming
/// source, all byte-equal; then layout evaluation through streams, all
/// miss counts equal.
#[test]
fn streaming_matches_materialized_across_all_sources() {
    let model = suite::perl();
    let program = model.program();
    let cache = CacheConfig::direct_mapped_8k();
    let records = 30_000;
    let train = model.training_trace(records);
    let test = model.testing_trace(records);

    let reference = Session::new(program, cache).profile(&train);

    // Lazy generator source (never materializes the training trace).
    let (from_generator, warnings) = Session::new(program, cache)
        .profile_with(|| Ok(model.training_source(records)))
        .unwrap();
    assert!(warnings.is_clean(), "generator stream warned: {warnings}");
    assert!(
        reference.profile() == from_generator.profile(),
        "generator-streamed profile differs from the materialized one"
    );

    // In-memory source over the materialized records.
    let (from_memory, _) = Session::new(program, cache)
        .profile_with(|| Ok(MemorySource::new(&train)))
        .unwrap();
    assert!(
        reference.profile() == from_memory.profile(),
        "memory-streamed profile differs from the materialized one"
    );

    // v2 chunked container, streamed from its serialized bytes.
    let mut v2 = Vec::new();
    write_binary_v2(&mut v2, &train).unwrap();
    let (from_v2, _) = Session::new(program, cache)
        .profile_with(|| V2Source::new(v2.as_slice()))
        .unwrap();
    assert!(
        reference.profile() == from_v2.profile(),
        "v2-streamed profile differs from the materialized one"
    );

    // Evaluation: per-layout streaming and the shared-stream sweep must
    // reproduce the materialized miss counts exactly.
    let layouts = vec![
        Layout::source_order(program),
        reference.place(&PettisHansen::new()),
        reference.place(&Gbsc::new()),
    ];
    let materialized: Vec<SimStats> = layouts
        .iter()
        .map(|l| reference.evaluate(l, &test))
        .collect();
    for (layout, expected) in layouts.iter().zip(&materialized) {
        let streamed = reference
            .evaluate_layouts_streamed(std::slice::from_ref(layout), model.testing_source(records))
            .unwrap();
        assert_eq!(streamed, [*expected], "per-layout streaming drifted");
    }
    let swept = reference
        .evaluate_layouts_streamed(&layouts, model.testing_source(records))
        .unwrap();
    assert_eq!(swept, materialized, "shared-stream sweep drifted");
}

/// Pins TMP2 file ingestion on a Table-1 workload: the file read back
/// through `open_v2_auto` must yield the materialized trace's records,
/// profile, and miss counts exactly.
#[test]
fn file_ingestion_matches_materialized_on_table1_workload() {
    use tempo::trace::open_v2_auto;

    let model = suite::m88ksim();
    let program = model.program();
    let cache = CacheConfig::direct_mapped_8k();
    let records = 30_000;

    // Round-trip the training trace through a TMP2 file on disk, at a
    // frame size that leaves a partial last frame.
    let dir = std::env::temp_dir().join("tempo_streaming_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("table1.v2");
    let train = model.training_trace(records);
    std::fs::write(&path, v2_bytes(&train, 4096)).unwrap();

    // Record-for-record equality with the materialized trace.
    let mut source = open_v2_auto(&path, None).unwrap();
    let mut back = Trace::default();
    pump(&mut source, &mut back).unwrap();
    assert!(source.warnings().is_clean());
    assert_eq!(back.records(), train.records(), "file records drifted");

    // Identical profiles...
    let reference = Session::new(program, cache).profile(&train);
    let (from_file, warnings) = Session::new(program, cache)
        .profile_with(|| open_v2_auto(&path, None))
        .unwrap();
    assert!(warnings.is_clean());
    assert!(
        reference.profile() == from_file.profile(),
        "file-ingested profile differs from the materialized one"
    );

    // ...and identical miss counts through the shared-stream sweep.
    let layouts = vec![
        Layout::source_order(program),
        reference.place(&PettisHansen::new()),
        reference.place(&Gbsc::new()),
    ];
    let materialized: Vec<SimStats> = layouts
        .iter()
        .map(|l| reference.evaluate(l, &train))
        .collect();
    let streamed = reference
        .evaluate_layouts_streamed(&layouts, open_v2_auto(&path, None).unwrap())
        .unwrap();
    assert_eq!(streamed, materialized, "miss counts drifted");
}

/// A fixed 9-procedure program for the v2 container properties.
fn test_program() -> Program {
    let mut b = Program::builder();
    for (i, size) in [700u32, 1200, 300, 5000, 64, 2048, 900, 1500, 400]
        .into_iter()
        .enumerate()
    {
        b.procedure(format!("p{i}"), size);
    }
    b.build().unwrap()
}

/// Arbitrary record sequences over `test_program`: (proc index, extent).
fn arb_refs() -> impl Strategy<Value = Vec<(usize, u32)>> {
    prop::collection::vec((0usize..9, 1u32..64), 1..400)
}

fn to_trace(program: &Program, refs: &[(usize, u32)]) -> Trace {
    let ids: Vec<ProcId> = program.ids().collect();
    let mut t = Trace::default();
    for &(i, extent) in refs {
        let extent = extent.min(program.size_of(ids[i]));
        t.push(TraceRecord::new(ids[i], extent));
    }
    t
}

/// Serializes `trace` into the v2 container with `frame_records` records
/// per frame.
fn v2_bytes(trace: &Trace, frame_records: usize) -> Vec<u8> {
    tempo::trace::testkit::v2_bytes(trace, frame_records).unwrap()
}

/// Offsets of each frame (start, payload_len) in a serialized v2 stream.
fn v2_frames(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut frames = Vec::new();
    let mut pos = 8;
    while pos + 12 <= bytes.len() {
        let payload_len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        frames.push((pos, payload_len));
        pos += 12 + payload_len;
    }
    frames
}

proptest! {
    /// Round trip: any record sequence survives the v2 container exactly,
    /// at any frame size, with clean warnings.
    #[test]
    fn v2_roundtrips_any_record_sequence(
        refs in arb_refs(),
        frame_records in 1usize..50,
    ) {
        let program = test_program();
        let trace = to_trace(&program, &refs);
        let bytes = v2_bytes(&trace, frame_records);

        let mut source = V2Source::new(bytes.as_slice()).unwrap();
        let mut back = Trace::default();
        pump(&mut source, &mut back).unwrap();
        prop_assert_eq!(back.records(), trace.records());
        prop_assert!(source.warnings().is_clean());
    }

    /// Streaming profile equals materialized profile on arbitrary traces.
    #[test]
    fn streaming_profile_equals_materialized(refs in arb_refs()) {
        let program = test_program();
        let trace = to_trace(&program, &refs);
        let cache = CacheConfig::direct_mapped_8k();
        let reference = Session::new(&program, cache).profile(&trace);
        let (streamed, warnings) = Session::new(&program, cache)
            .profile_with(|| Ok(MemorySource::new(&trace)))
            .unwrap();
        prop_assert!(warnings.is_clean());
        prop_assert!(reference.profile() == streamed.profile());
    }

    /// Lossy mode on a truncated v2 stream recovers a prefix of the
    /// original records (whole frames before the cut), never panics, and
    /// never fabricates records.
    #[test]
    fn v2_lossy_truncation_recovers_a_prefix(
        refs in arb_refs(),
        frame_records in 1usize..50,
        cut_fraction in 0.0f64..1.0,
    ) {
        let program = test_program();
        let trace = to_trace(&program, &refs);
        let mut bytes = v2_bytes(&trace, frame_records);
        let cut = 8 + ((bytes.len() - 8) as f64 * cut_fraction) as usize;
        bytes.truncate(cut);

        let (back, _warnings) =
            read_binary_v2_lossy(bytes.as_slice(), Some(&program)).unwrap();
        let n = back.records().len();
        prop_assert!(n <= trace.records().len());
        prop_assert_eq!(back.records(), &trace.records()[..n]);
        // Whole frames survive: the recovered count is a multiple of the
        // frame size (except when everything survived).
        if n < trace.records().len() {
            prop_assert_eq!(n % frame_records, 0);
        }
    }

    /// Corrupting one payload byte loses exactly that frame in lossy mode
    /// (and only that frame); strict mode reports a corrupt frame.
    #[test]
    fn v2_lossy_skips_exactly_the_corrupt_frame(
        refs in arb_refs(),
        frame_records in 1usize..50,
        frame_pick in 0usize..10_000,
        byte_pick in 0usize..1_000_000,
    ) {
        let program = test_program();
        let trace = to_trace(&program, &refs);
        let mut bytes = v2_bytes(&trace, frame_records);
        let frames = v2_frames(&bytes);
        prop_assume!(!frames.is_empty());
        let k = frame_pick % frames.len();
        let (start, payload_len) = frames[k];
        prop_assume!(payload_len > 0);
        bytes[start + 12 + byte_pick % payload_len] ^= 0xA5;

        let mut strict = V2Source::new(bytes.as_slice()).unwrap();
        let mut sink = Trace::default();
        let err = pump(&mut strict, &mut sink).unwrap_err();
        prop_assert!(
            matches!(err, tempo::trace::io::TraceIoError::CorruptFrame { frame } if frame == k as u64),
            "unexpected strict error: {err}"
        );

        let (back, warnings) =
            read_binary_v2_lossy(bytes.as_slice(), Some(&program)).unwrap();
        prop_assert_eq!(warnings.bad_frames, 1);
        let lo = k * frame_records;
        let hi = (lo + frame_records).min(trace.records().len());
        let mut expected = trace.records()[..lo].to_vec();
        expected.extend_from_slice(&trace.records()[hi..]);
        prop_assert_eq!(back.records(), expected.as_slice());
    }

    /// The reader is indifferent to how its input arrives: the same
    /// container read from a slice and through a `Read` that returns
    /// arbitrary short reads (and interrupts) gives the same records, the
    /// same `try_next_block` boundaries, the same warnings and the same
    /// strict error — including containers with a mangled frame header or
    /// payload, or a truncated tail.
    #[test]
    fn v2_reader_is_indifferent_to_short_reads(
        refs in arb_refs(),
        frame_records in 1usize..50,
        mangle in 0u8..3,
        frame_pick in 0usize..10_000,
        byte_pick in 0usize..1_000_000,
        truncate_tail in any::<bool>(),
        read_sizes in prop::collection::vec(0usize..40, 1..16),
        max_block in 1usize..80,
    ) {
        let program = test_program();
        let trace = to_trace(&program, &refs);
        let mut bytes = v2_bytes(&trace, frame_records);
        let frames = v2_frames(&bytes);
        if !frames.is_empty() {
            let (start, payload_len) = frames[frame_pick % frames.len()];
            match mangle {
                1 => bytes[start + byte_pick % 12] ^= 0xA5,
                2 if payload_len > 0 => bytes[start + 12 + byte_pick % payload_len] ^= 0xA5,
                _ => {}
            }
        }
        if truncate_tail && bytes.len() > 9 {
            bytes.truncate(bytes.len() - 1);
        }
        let short = || ShortReads { data: &bytes, sizes: read_sizes.clone(), turn: 0 };

        let strict_slice = drain_blocks(V2Source::new(bytes.as_slice()).unwrap(), max_block);
        let strict_short = drain_blocks(V2Source::new(short()).unwrap(), max_block);
        prop_assert_eq!(&strict_slice, &strict_short);

        let lossy_slice = drain_blocks(
            V2Source::new_lossy(bytes.as_slice(), Some(&program)).unwrap(),
            max_block,
        );
        let lossy_short =
            drain_blocks(V2Source::new_lossy(short(), Some(&program)).unwrap(), max_block);
        prop_assert_eq!(&lossy_slice, &lossy_short);
        prop_assert!(lossy_slice.1.is_none(), "lossy reads never fail on format defects");
        if mangle == 0 && !truncate_tail {
            prop_assert!(strict_slice.1.is_none());
            let flat: Vec<u32> = strict_slice.0.iter().flat_map(|(p, _)| p.clone()).collect();
            let expected: Vec<u32> = trace.records().iter().map(|r| r.proc.index()).collect();
            prop_assert_eq!(flat, expected);
        }
    }

    /// A container held wholly in memory (a file read in full, or mapped)
    /// agrees with the same file streamed from disk through `open_v2_auto`
    /// and `open_v2_auto_lossy`: same blocks, warnings and strict error —
    /// including files with a corrupted or truncated frame.
    #[test]
    fn mmap_agrees_with_streaming_under_corruption(
        refs in arb_refs(),
        frame_records in 1usize..50,
        mangle in any::<bool>(),
        frame_pick in 0usize..10_000,
        byte_pick in 0usize..1_000_000,
        truncate_tail in any::<bool>(),
    ) {
        use tempo::trace::{open_v2_auto, open_v2_auto_lossy};

        let program = test_program();
        let trace = to_trace(&program, &refs);
        let mut bytes = v2_bytes(&trace, frame_records);
        if mangle {
            let frames = v2_frames(&bytes);
            if !frames.is_empty() {
                let (start, payload_len) = frames[frame_pick % frames.len()];
                if payload_len > 0 {
                    bytes[start + 12 + byte_pick % payload_len] ^= 0xA5;
                }
            }
        }
        if truncate_tail && bytes.len() > 9 {
            bytes.truncate(bytes.len() - 1);
        }
        let dir = std::env::temp_dir().join("tempo_streaming_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("whole_buffer_vs_file.v2");
        std::fs::write(&path, &bytes).unwrap();
        let in_memory = std::fs::read(&path).unwrap();

        let strict_memory = drain_blocks(V2Source::new(in_memory.as_slice()).unwrap(), 64);
        let strict_file = drain_blocks(open_v2_auto(&path, None).unwrap(), 64);
        prop_assert_eq!(&strict_memory, &strict_file);

        let lossy_memory = drain_blocks(
            V2Source::new_lossy(in_memory.as_slice(), Some(&program)).unwrap(),
            64,
        );
        let lossy_file = drain_blocks(open_v2_auto_lossy(&path, Some(&program)).unwrap(), 64);
        prop_assert_eq!(&lossy_memory, &lossy_file);
        prop_assert!(lossy_file.1.is_none(), "lossy reads never fail on format defects");
    }
}

/// A `Read` that hands out its bytes in the chunk sizes of `sizes`
/// (cycled), turning a size of zero into an `Interrupted` error.
struct ShortReads<'a> {
    data: &'a [u8],
    sizes: Vec<usize>,
    turn: usize,
}

impl std::io::Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.turn % self.sizes.len()];
        self.turn += 1;
        if size == 0 && !buf.is_empty() {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        let n = size.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Block columns as `try_next_block` cut them, the strict error (if any)
/// that ended the stream, and the warnings tallied.
type Drained = (Vec<(Vec<u32>, Vec<u32>)>, Option<String>, TraceWarnings);

fn drain_blocks<R: std::io::Read>(mut source: V2Source<'_, R>, max: usize) -> Drained {
    let mut blocks = Vec::new();
    let mut block = RecordBlock::default();
    let error = loop {
        match source.try_next_block(&mut block, max) {
            Ok(0) => break None,
            Ok(_) => blocks.push((block.procs.clone(), block.bytes.clone())),
            Err(e) => break Some(e.to_string()),
        }
    };
    (blocks, error, source.warnings())
}
