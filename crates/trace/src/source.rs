//! Streaming trace dataflow: [`TraceSource`] producers and [`TraceSink`]
//! consumers.
//!
//! The materialized [`Trace`] representation caps reproducible workload
//! sizes at available RAM — the paper's ATOM traces run to 146M records,
//! which no `Vec<TraceRecord>` should have to hold. This module defines the
//! single-pass alternative: a source yields records one at a time (with
//! error and warning channels), sinks consume them incrementally, and
//! [`pump`] drives one pass over a source into a sink. [`Tee`] fans a single
//! pass out to several sinks, so the profiler, the cache simulator, and
//! trace statistics can all observe the same stream without a second read.
//!
//! ```
//! use tempo_program::ProcId;
//! use tempo_trace::{Trace, TraceRecord};
//! use tempo_trace::source::{pump, MemorySource, StatsSink, Tee, TraceSink};
//!
//! let trace = Trace::from_records(vec![
//!     TraceRecord::new(ProcId::new(0), 16),
//!     TraceRecord::new(ProcId::new(1), 8),
//! ]);
//! let mut stats = StatsSink::new();
//! let mut copy = Trace::new();
//! {
//!     let mut sinks: [&mut dyn TraceSink; 2] = [&mut stats, &mut copy];
//!     let mut tee = Tee::new(&mut sinks);
//!     pump(&mut MemorySource::new(&trace), &mut tee)?;
//! }
//! assert_eq!(copy, trace);
//! assert_eq!(stats.stats().executed_bytes, 24);
//! # Ok::<(), tempo_trace::io::TraceIoError>(())
//! ```

use std::collections::HashSet;

use tempo_program::ProcId;

use crate::io::{TraceIoError, TraceWarnings};
use crate::{Trace, TraceRecord, TraceStats};

/// A pull-based stream of trace records.
///
/// Sources are single-pass: once [`try_next`](TraceSource::try_next) returns
/// `Ok(None)` the stream is exhausted. Multi-pass algorithms (popularity
/// selection before profiling, for example) re-open the source — see
/// `Session::profile_with` in `tempo-core`.
///
/// Lossy sources repair or skip defective input and tally every repair in
/// [`warnings`](TraceSource::warnings); strict sources surface the first
/// defect as a [`TraceIoError`].
pub trait TraceSource {
    /// Yields the next record, `Ok(None)` at end of stream.
    ///
    /// # Errors
    ///
    /// Strict sources fail on the first defect; lossy sources fail only on
    /// genuine I/O errors.
    fn try_next(&mut self) -> Result<Option<TraceRecord>, TraceIoError>;

    /// Warnings accumulated so far (only meaningful for lossy sources, and
    /// only complete once the stream is exhausted).
    fn warnings(&self) -> TraceWarnings {
        TraceWarnings::default()
    }

    /// The number of records this source expects to yield, when known
    /// up front (in-memory adapters, bounded generators). Streaming file
    /// readers return `None`.
    fn expected_records(&self) -> Option<u64> {
        None
    }

    /// Fills `block` with up to `max` records in structure-of-arrays form,
    /// returning how many were produced (`0` at end of stream).
    ///
    /// The default implementation loops [`try_next`](TraceSource::try_next);
    /// frame-oriented readers override it to hand out whole decoded frames
    /// without per-record dispatch, which is what lets N simulated layouts
    /// share one decode in `simulate_layouts_streamed`. Both paths must
    /// yield identical record sequences.
    ///
    /// # Errors
    ///
    /// Same contract as [`try_next`](TraceSource::try_next).
    fn try_next_block(
        &mut self,
        block: &mut RecordBlock,
        max: usize,
    ) -> Result<usize, TraceIoError> {
        block.clear();
        while block.len() < max {
            match self.try_next()? {
                Some(r) => block.push(r.proc.index(), r.bytes),
                None => break,
            }
        }
        Ok(block.len())
    }
}

impl<S: TraceSource + ?Sized> TraceSource for &mut S {
    fn try_next(&mut self) -> Result<Option<TraceRecord>, TraceIoError> {
        (**self).try_next()
    }
    fn warnings(&self) -> TraceWarnings {
        (**self).warnings()
    }
    fn expected_records(&self) -> Option<u64> {
        (**self).expected_records()
    }
    fn try_next_block(
        &mut self,
        block: &mut RecordBlock,
        max: usize,
    ) -> Result<usize, TraceIoError> {
        (**self).try_next_block(block, max)
    }
}

/// A batch of trace records in structure-of-arrays layout.
///
/// `procs[i]`/`bytes[i]` are the two halves of record `i`. The parallel-array
/// shape is what the batched simulator kernel consumes: the inner loop reads
/// two dense `u32` streams instead of chasing `TraceRecord` structs, and one
/// decoded block feeds every layout in a sweep.
#[derive(Debug, Default, Clone)]
pub struct RecordBlock {
    /// Procedure index of each record.
    pub procs: Vec<u32>,
    /// Byte extent of each record.
    pub bytes: Vec<u32>,
}

impl RecordBlock {
    /// Creates an empty block with room for `cap` records.
    pub fn with_capacity(cap: usize) -> Self {
        RecordBlock {
            procs: Vec::with_capacity(cap),
            bytes: Vec::with_capacity(cap),
        }
    }

    /// Number of records currently in the block.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// Whether the block holds no records.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Removes all records, keeping the allocations.
    pub fn clear(&mut self) {
        self.procs.clear();
        self.bytes.clear();
    }

    /// Appends one record.
    #[inline]
    pub fn push(&mut self, proc: u32, bytes: u32) {
        self.procs.push(proc);
        self.bytes.push(bytes);
    }
}

/// A push-based consumer of trace records.
///
/// Sinks are infallible: a sink that can fail (a file writer, say) records
/// its error internally and surfaces it from its own `finish` method, so a
/// fan-out over many sinks never aborts half-delivered.
pub trait TraceSink {
    /// Consumes one record.
    fn accept(&mut self, record: &TraceRecord);
}

impl<K: TraceSink + ?Sized> TraceSink for &mut K {
    fn accept(&mut self, record: &TraceRecord) {
        (**self).accept(record);
    }
}

/// Collecting sink: materializes the stream into the wrapped [`Trace`].
impl TraceSink for Trace {
    fn accept(&mut self, record: &TraceRecord) {
        self.push(*record);
    }
}

/// Outcome of one [`pump`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpSummary {
    /// Records delivered to the sink.
    pub records: u64,
    /// Warnings the source accumulated over the pass.
    pub warnings: TraceWarnings,
}

/// Drives `source` to exhaustion, delivering every record to `sink`.
///
/// To feed several consumers from the same pass, wrap them in a [`Tee`].
///
/// # Errors
///
/// Propagates the first error the source reports.
pub fn pump<S, K>(source: &mut S, sink: &mut K) -> Result<PumpSummary, TraceIoError>
where
    S: TraceSource + ?Sized,
    K: TraceSink + ?Sized,
{
    let mut records = 0u64;
    while let Some(r) = source.try_next()? {
        sink.accept(&r);
        records += 1;
    }
    let warnings = source.warnings();
    crate::obs::note_read(records, &warnings);
    Ok(PumpSummary { records, warnings })
}

/// Fan-out combinator: one sink that forwards every record to each of a set
/// of sinks, so a single pass over a source feeds them all.
pub struct Tee<'a, 'b> {
    sinks: &'a mut [&'b mut dyn TraceSink],
}

impl<'a, 'b> Tee<'a, 'b> {
    /// Wraps a slice of sinks.
    pub fn new(sinks: &'a mut [&'b mut dyn TraceSink]) -> Self {
        Tee { sinks }
    }
}

impl TraceSink for Tee<'_, '_> {
    fn accept(&mut self, record: &TraceRecord) {
        for sink in self.sinks.iter_mut() {
            sink.accept(record);
        }
    }
}

/// In-memory source over a slice of records (or a whole [`Trace`]).
///
/// Clean by construction: never errors, never warns, and knows its length.
#[derive(Debug)]
pub struct MemorySource<'a> {
    records: std::slice::Iter<'a, TraceRecord>,
    len: u64,
}

impl<'a> MemorySource<'a> {
    /// Streams the records of `trace`.
    pub fn new(trace: &'a Trace) -> Self {
        MemorySource::from_slice(trace.records())
    }

    /// Streams a raw record slice.
    pub fn from_slice(records: &'a [TraceRecord]) -> Self {
        MemorySource {
            records: records.iter(),
            len: records.len() as u64,
        }
    }
}

impl TraceSource for MemorySource<'_> {
    fn try_next(&mut self) -> Result<Option<TraceRecord>, TraceIoError> {
        Ok(self.records.next().copied())
    }
    fn expected_records(&self) -> Option<u64> {
        Some(self.len)
    }
    fn try_next_block(
        &mut self,
        block: &mut RecordBlock,
        max: usize,
    ) -> Result<usize, TraceIoError> {
        block.clear();
        let rest = self.records.as_slice();
        let (head, tail) = rest.split_at(max.min(rest.len()));
        for r in head {
            block.push(r.proc.index(), r.bytes);
        }
        self.records = tail.iter();
        Ok(head.len())
    }
}

/// Streaming [`TraceStats`] accumulator.
///
/// Memory is bounded by the number of *distinct* procedures, not trace
/// length, so it composes with arbitrarily long sources.
#[derive(Debug, Default)]
pub struct StatsSink {
    records: u64,
    executed_bytes: u64,
    seen: HashSet<ProcId>,
}

impl StatsSink {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        StatsSink::default()
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> TraceStats {
        TraceStats {
            records: self.records,
            distinct_procs: self.seen.len() as u64,
            executed_bytes: self.executed_bytes,
        }
    }
}

impl TraceSink for StatsSink {
    fn accept(&mut self, record: &TraceRecord) {
        self.records += 1;
        self.executed_bytes += u64::from(record.bytes);
        self.seen.insert(record.proc);
    }
}

/// Streaming per-procedure reference counter — the §4 popularity signal
/// (`Trace::reference_counts`) in O(#procedures) memory.
///
/// Records naming procedures outside `0..nprocs` are ignored, matching the
/// materialized counterpart.
#[derive(Debug)]
pub struct RefCountSink {
    counts: Vec<u64>,
}

impl RefCountSink {
    /// Creates a counter for a program with `nprocs` procedures.
    pub fn new(nprocs: usize) -> Self {
        RefCountSink {
            counts: vec![0; nprocs],
        }
    }

    /// Per-procedure dynamic reference counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Consumes the accumulator, returning the counts.
    pub fn into_counts(self) -> Vec<u64> {
        self.counts
    }
}

impl TraceSink for RefCountSink {
    fn accept(&mut self, record: &TraceRecord) {
        if let Some(c) = self.counts.get_mut(record.proc.as_usize()) {
            *c += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::from_records(vec![
            TraceRecord::new(ProcId::new(0), 100),
            TraceRecord::new(ProcId::new(2), 32),
            TraceRecord::new(ProcId::new(0), 1),
        ])
    }

    #[test]
    fn memory_source_yields_all_records() {
        let t = sample();
        let mut src = MemorySource::new(&t);
        assert_eq!(src.expected_records(), Some(3));
        let mut out = Trace::new();
        let summary = pump(&mut src, &mut out).unwrap();
        assert_eq!(summary.records, 3);
        assert!(summary.warnings.is_clean());
        assert_eq!(out, t);
    }

    #[test]
    fn memory_source_blocks_split_the_slice() {
        let t = sample();
        let mut src = MemorySource::new(&t);
        let mut block = RecordBlock::default();
        assert_eq!(src.try_next_block(&mut block, 2).unwrap(), 2);
        assert_eq!(
            (block.procs.as_slice(), block.bytes.as_slice()),
            (&[0, 2][..], &[100, 32][..])
        );
        assert_eq!(src.try_next_block(&mut block, 2).unwrap(), 1);
        assert_eq!(
            (block.procs.as_slice(), block.bytes.as_slice()),
            (&[0][..], &[1][..])
        );
        assert_eq!(src.try_next_block(&mut block, 2).unwrap(), 0);
        assert!(block.is_empty());
    }

    #[test]
    fn tee_fans_out_to_every_sink() {
        let t = sample();
        let mut stats = StatsSink::new();
        let mut counts = RefCountSink::new(3);
        let mut copy = Trace::new();
        {
            let mut sinks: [&mut dyn TraceSink; 3] = [&mut stats, &mut counts, &mut copy];
            let mut tee = Tee::new(&mut sinks);
            pump(&mut MemorySource::new(&t), &mut tee).unwrap();
        }
        assert_eq!(copy, t);
        assert_eq!(stats.stats().records, 3);
        assert_eq!(stats.stats().distinct_procs, 2);
        assert_eq!(stats.stats().executed_bytes, 133);
        assert_eq!(counts.counts(), &[2, 0, 1]);
    }

    #[test]
    fn stats_sink_matches_materialized_stats() {
        let t = sample();
        let mut sink = StatsSink::new();
        pump(&mut MemorySource::new(&t), &mut sink).unwrap();
        assert_eq!(sink.stats(), t.stats());
    }

    #[test]
    fn ref_count_sink_ignores_out_of_range_procs() {
        let t = Trace::from_records(vec![
            TraceRecord::new(ProcId::new(0), 4),
            TraceRecord::new(ProcId::new(99), 4),
        ]);
        let mut counts = RefCountSink::new(2);
        pump(&mut MemorySource::new(&t), &mut counts).unwrap();
        assert_eq!(counts.into_counts(), vec![1, 0]);
    }

    #[test]
    fn mut_ref_blanket_impls_compose() {
        let t = sample();
        let mut src = MemorySource::new(&t);
        let mut sink = StatsSink::new();
        // &mut Source / &mut Sink are themselves sources and sinks.
        let summary = pump(&mut &mut src, &mut &mut sink).unwrap();
        assert_eq!(summary.records, 3);
    }
}
