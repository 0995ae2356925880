//! Trace-driven miss simulation of a layout.

use std::fmt;

use tempo_program::{Layout, ProcId, Program};
use tempo_trace::io::TraceIoError;
use tempo_trace::{MemorySource, RecordBlock, Trace, TraceRecord, TraceSink, TraceSource};

use crate::{CacheConfig, InstructionCache};

/// Aggregate results of a simulation run.
///
/// * `accesses` counts distinct cache-line touches (one per line per trace
///   record).
/// * `instructions` counts instruction fetches, assuming 4-byte
///   instructions (`executed bytes / 4`) — sequential fetches within a
///   resident line always hit, so misses are counted per line while the
///   denominator of [`miss_rate`](SimStats::miss_rate) is instructions.
///   This matches how the paper reports miss rates (its 2.6–6.3% Table 1
///   values are per instruction fetch, not per line).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Trace records processed.
    pub records: u64,
    /// Cache-line accesses issued.
    pub accesses: u64,
    /// Cache-line misses.
    pub misses: u64,
    /// Instruction fetches (executed bytes / 4).
    pub instructions: u64,
}

impl SimStats {
    /// Miss rate per instruction fetch in `[0, 1]`; 0 for an empty run.
    /// This is the figure comparable to the paper's reported miss rates.
    pub fn miss_rate(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.misses as f64 / self.instructions as f64
        }
    }

    /// Miss rate per cache-line access in `[0, 1]`; 0 for an empty run.
    pub fn line_miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Merges another run's counters into this one.
    pub fn merge(&mut self, other: SimStats) {
        self.records += other.records;
        self.accesses += other.accesses;
        self.misses += other.misses;
        self.instructions += other.instructions;
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} records, {} accesses, {} misses ({:.2}%)",
            self.records,
            self.accesses,
            self.misses,
            self.miss_rate() * 100.0
        )
    }
}

/// An incremental trace-driven simulator.
///
/// Feed it records one at a time ([`Simulator::step`], the scalar
/// reference) or in structure-of-arrays blocks ([`Simulator::step_block`]);
/// read the running totals from [`Simulator::stats`]. [`simulate`] and
/// [`simulate_layouts_streamed`](crate::simulate_layouts_streamed) drive
/// whole traces through the block path.
#[derive(Debug, Clone)]
pub struct Simulator<'p> {
    program: &'p Program,
    layout: &'p Layout,
    cache: InstructionCache,
    stats: SimStats,
    /// Per-procedure layout address and size, gathered once so the batched
    /// kernel reads two dense arrays instead of chasing `Layout`/`Program`
    /// per record. Covers `min(program, layout)` procedures; records past
    /// that fall back to the scalar lookups (and their panics).
    addrs: Vec<u64>,
    sizes: Vec<u32>,
    /// Associativity-1 fast path: dispatches [`step_block`](Simulator::step_block)
    /// to the branchless kernel.
    direct: bool,
}

/// Records per [`RecordBlock`] the batched drivers pull at a time. Two
/// 16 KiB columns: big enough to amortize per-block dispatch, small enough
/// to stay L1/L2-resident alongside the cache model.
pub const BLOCK_RECORDS: usize = 4096;

impl<'p> Simulator<'p> {
    /// Creates a simulator with a cold cache.
    #[allow(clippy::cast_possible_truncation)] // proc indices are u32 by construction
    pub fn new(program: &'p Program, layout: &'p Layout, config: CacheConfig) -> Self {
        let covered = program.len().min(layout.len());
        let addrs = (0..covered)
            .map(|i| layout.addr(ProcId::new(i as u32)))
            .collect();
        let sizes = (0..covered)
            .map(|i| program.size_of(ProcId::new(i as u32)))
            .collect();
        Simulator {
            program,
            layout,
            cache: InstructionCache::new(config),
            stats: SimStats::default(),
            addrs,
            sizes,
            direct: config.is_direct_mapped(),
        }
    }

    /// Processes one trace record: touches every line of the executed extent
    /// of the record's procedure, starting at its layout address.
    // Inlined so `step_block`'s set-associative loop never depends on
    // codegen-unit partitioning for its per-record call (measured: an
    // outlined call slowed that loop by 20% or more).
    #[inline]
    pub fn step(&mut self, record: &TraceRecord) {
        let addr = self.layout.addr(record.proc);
        let bytes = record.bytes.min(self.program.size_of(record.proc));
        let (accesses, misses) = self.cache.access_range(addr, bytes);
        self.stats.records += 1;
        self.stats.accesses += accesses;
        self.stats.misses += misses;
        self.stats.instructions += u64::from(bytes.div_ceil(4));
    }

    /// Processes a batch of records in structure-of-arrays form —
    /// `procs[i]`/`bytes[i]` is one record. Exactly equivalent to calling
    /// [`step`](Simulator::step) per record (proptest-pinned), but
    /// direct-mapped caches take the branchless
    /// [`access_range_direct`](InstructionCache::access_range_direct)
    /// kernel over the precomputed address/size columns.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, or on the same out-of-program
    /// records the scalar path panics on.
    pub fn step_block(&mut self, procs: &[u32], bytes: &[u32]) {
        assert_eq!(procs.len(), bytes.len(), "SoA columns must be parallel");
        if !self.direct {
            for (&p, &b) in procs.iter().zip(bytes) {
                self.step(&TraceRecord::new(ProcId::new(p), b));
            }
            return;
        }
        let mut accesses = 0u64;
        let mut misses = 0u64;
        let mut instructions = 0u64;
        for (&p, &b) in procs.iter().zip(bytes) {
            let (addr, size) = if let (Some(&a), Some(&s)) =
                (self.addrs.get(p as usize), self.sizes.get(p as usize))
            {
                (a, s)
            } else {
                // Same lookups (and panics) as the scalar path.
                let id = ProcId::new(p);
                (self.layout.addr(id), self.program.size_of(id))
            };
            let b = b.min(size);
            let (a, m) = self.cache.access_range_direct(addr, b);
            accesses += a;
            misses += m;
            instructions += u64::from(b.div_ceil(4));
        }
        self.stats.records += procs.len() as u64;
        self.stats.accesses += accesses;
        self.stats.misses += misses;
        self.stats.instructions += instructions;
    }

    /// Running totals.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// The cache model (e.g. to inspect residency mid-run).
    pub fn cache(&self) -> &InstructionCache {
        &self.cache
    }

    /// Flushes the cache and zeroes the statistics.
    pub fn reset(&mut self) {
        self.cache.flush();
        self.stats = SimStats::default();
    }
}

/// Simulates a full trace against a layout with a cold cache and returns the
/// statistics — the same block loop as
/// [`simulate_layouts_streamed`](crate::simulate_layouts_streamed), fed from
/// memory.
///
/// # Panics
///
/// Panics if the trace references procedures outside the program or the
/// layout does not cover the program (validate inputs first via
/// [`Trace::validate`] and [`Layout::validate`]).
pub fn simulate(
    program: &Program,
    layout: &Layout,
    trace: &Trace,
    config: CacheConfig,
) -> SimStats {
    let start = std::time::Instant::now();
    let mut sims = [Simulator::new(program, layout, config)];
    run_blocks(&mut sims, &mut MemorySource::new(trace))
        .unwrap_or_else(|e| unreachable!("in-memory sources cannot fail: {e}"));
    let stats = sims[0].stats();
    note_sim(&stats, start.elapsed().as_secs_f64() * 1e3);
    stats
}

/// The one simulation block loop: pulls [`RecordBlock`]s of up to
/// [`BLOCK_RECORDS`] from `source` and steps every simulator through each
/// block before pulling the next, so N layouts share one decode. Returns
/// the number of records pulled.
pub(crate) fn run_blocks<S: TraceSource>(
    sims: &mut [Simulator<'_>],
    source: &mut S,
) -> Result<u64, TraceIoError> {
    let mut pulled = 0u64;
    let mut block = RecordBlock::with_capacity(BLOCK_RECORDS);
    while source.try_next_block(&mut block, BLOCK_RECORDS)? > 0 {
        for sim in sims.iter_mut() {
            sim.step_block(&block.procs, &block.bytes);
        }
        pulled += block.len() as u64;
    }
    Ok(pulled)
}

/// Reports one completed per-layout simulation pass to the global
/// [`tempo_obs`] registry: `sim.records` / `sim.accesses` / `sim.misses` /
/// `sim.instructions` counters, the per-layout wall time histogram
/// `sim.layout_ms`, and a `sim.records_per_sec` throughput gauge (kept at
/// its maximum across passes so parallel sweeps stay deterministic).
///
/// Purely additive: the returned [`SimStats`] are computed before this runs
/// and are identical to an uninstrumented simulation.
pub(crate) fn note_sim(stats: &SimStats, elapsed_ms: f64) {
    tempo_obs::counter("sim.records").add(stats.records);
    tempo_obs::counter("sim.accesses").add(stats.accesses);
    tempo_obs::counter("sim.misses").add(stats.misses);
    tempo_obs::counter("sim.instructions").add(stats.instructions);
    tempo_obs::histogram("sim.layout_ms").record(elapsed_ms);
    if elapsed_ms > 0.0 {
        let per_sec = stats.records as f64 / (elapsed_ms / 1e3);
        tempo_obs::gauge("sim.records_per_sec").set_max(per_sec);
    }
}

/// A simulator is a [`TraceSink`], so it can sit behind a `Tee` and share
/// one pass over a source with the profiler and other consumers.
impl TraceSink for Simulator<'_> {
    fn accept(&mut self, record: &TraceRecord) {
        self.step(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_program::ProcId;

    /// Program with three 4 KB procedures; in source order, a and c overlap
    /// in an 8 KB direct-mapped cache while a and b do not.
    fn prog() -> Program {
        Program::builder()
            .procedure("a", 4096)
            .procedure("b", 4096)
            .procedure("c", 4096)
            .build()
            .unwrap()
    }

    #[test]
    fn alternation_with_overlap_thrashes() {
        let p = prog();
        let l = Layout::source_order(&p);
        let a = ProcId::new(0);
        let c = ProcId::new(2);
        let t = Trace::from_full_records(&p, [a, c, a, c, a, c]);
        let stats = simulate(&p, &l, &t, CacheConfig::direct_mapped_8k());
        assert_eq!(stats.records, 6);
        assert_eq!(stats.accesses, 6 * 128);
        assert_eq!(stats.misses, 6 * 128); // total conflict
        assert_eq!(stats.line_miss_rate(), 1.0);
    }

    #[test]
    fn alternation_without_overlap_only_cold_misses() {
        let p = prog();
        let l = Layout::source_order(&p);
        let a = ProcId::new(0);
        let b = ProcId::new(1);
        let t = Trace::from_full_records(&p, [a, b, a, b, a, b]);
        let stats = simulate(&p, &l, &t, CacheConfig::direct_mapped_8k());
        assert_eq!(stats.misses, 2 * 128); // cold only
        assert!(stats.line_miss_rate() < 0.34);
    }

    #[test]
    fn layout_changes_conflicts() {
        let p = prog();
        let a = ProcId::new(0);
        let c = ProcId::new(2);
        let t = Trace::from_full_records(&p, [a, c, a, c, a, c]);
        // Move c to directly follow a: no overlap.
        let good =
            Layout::from_order(&p, &[ProcId::new(0), ProcId::new(2), ProcId::new(1)]).unwrap();
        let stats = simulate(&p, &good, &t, CacheConfig::direct_mapped_8k());
        assert_eq!(stats.misses, 2 * 128);
    }

    #[test]
    fn two_way_cache_absorbs_pairwise_conflict() {
        let p = prog();
        let l = Layout::source_order(&p);
        let a = ProcId::new(0);
        let c = ProcId::new(2);
        let t = Trace::from_full_records(&p, [a, c, a, c, a, c]);
        let stats = simulate(&p, &l, &t, CacheConfig::two_way_8k());
        // A 2-way 8 KB cache holds both 4 KB procedures.
        assert_eq!(stats.misses, 2 * 128);
    }

    #[test]
    fn partial_extents_touch_fewer_lines() {
        let p = prog();
        let l = Layout::source_order(&p);
        let t = Trace::from_records(vec![TraceRecord::new(ProcId::new(0), 64)]);
        let stats = simulate(&p, &l, &t, CacheConfig::direct_mapped_8k());
        assert_eq!(stats.accesses, 2);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn simulator_is_incremental() {
        let p = prog();
        let l = Layout::source_order(&p);
        let mut sim = Simulator::new(&p, &l, CacheConfig::direct_mapped_8k());
        let r = TraceRecord::new(ProcId::new(0), 4096);
        sim.step(&r);
        assert_eq!(sim.stats().misses, 128);
        sim.step(&r);
        assert_eq!(sim.stats().misses, 128); // warm
        assert_eq!(sim.cache().resident_lines(), 128);
        sim.reset();
        assert_eq!(sim.stats(), SimStats::default());
        assert_eq!(sim.cache().resident_lines(), 0);
    }

    #[test]
    fn stats_merge_and_display() {
        let mut a = SimStats {
            records: 1,
            accesses: 10,
            misses: 5,
            instructions: 80,
        };
        a.merge(SimStats {
            records: 1,
            accesses: 10,
            misses: 0,
            instructions: 80,
        });
        assert_eq!(a.accesses, 20);
        assert_eq!(a.instructions, 160);
        assert_eq!(a.line_miss_rate(), 0.25);
        assert_eq!(a.miss_rate(), 5.0 / 160.0);
        assert!(a.to_string().contains("3.12%"));
        assert_eq!(SimStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn empty_trace_is_fine() {
        let p = prog();
        let l = Layout::source_order(&p);
        let stats = simulate(&p, &l, &Trace::new(), CacheConfig::direct_mapped_8k());
        assert_eq!(stats, SimStats::default());
    }
}
