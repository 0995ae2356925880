//! Multi-layout evaluation: several layouts against one pass over a trace.
//!
//! Comparing placement algorithms means simulating N layouts of one
//! program against the same testing trace on the same cache. Every layout
//! owns its own [`InstructionCache`](crate::InstructionCache), so the
//! layouts can share the read: [`simulate_layouts_streamed`] pulls each
//! decoded block once and steps it through all N simulators.

use tempo_program::{Layout, Program};
use tempo_trace::io::TraceIoError;
use tempo_trace::TraceSource;

use crate::sim::{note_sim, run_blocks};
use crate::{CacheConfig, SimStats, Simulator};

/// Simulates every layout against one *shared* pass over a [`TraceSource`]:
/// records are pulled in [`RecordBlock`](tempo_trace::RecordBlock) batches
/// and each block is stepped through all `layouts.len()` simulators before
/// the next is decoded, so N layouts cost one trace read — and one varint
/// decode per block — instead of N materialized passes.
///
/// Results match per-layout [`simulate`](crate::simulate) on the
/// materialized trace exactly — every simulator owns its cache, so
/// interleaving per block cannot change any layout's miss sequence, and the
/// batched kernel is step-for-step equivalent to the scalar one. Pass a
/// [`MemorySource`](tempo_trace::MemorySource) to evaluate an in-memory
/// trace.
///
/// # Errors
///
/// Propagates the first error the source reports.
pub fn simulate_layouts_streamed<S: TraceSource>(
    program: &Program,
    layouts: &[Layout],
    mut source: S,
    config: CacheConfig,
) -> Result<Vec<SimStats>, TraceIoError> {
    let start = std::time::Instant::now();
    let mut sims: Vec<Simulator<'_>> = layouts
        .iter()
        .map(|layout| Simulator::new(program, layout, config))
        .collect();
    let pulled = run_blocks(&mut sims, &mut source)?;
    tempo_trace::obs::note_read(pulled, &source.warnings());
    let all: Vec<SimStats> = sims.iter().map(Simulator::stats).collect();
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    for stats in &all {
        // One shared pass: attribute the wall time to each layout's pass so
        // `sim.layout_ms` stays comparable with per-layout simulation.
        note_sim(stats, elapsed_ms);
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use tempo_trace::Trace;

    fn fixture() -> (Program, Trace) {
        let program = Program::builder()
            .procedure("a", 4096)
            .procedure("b", 4096)
            .procedure("c", 4096)
            .build()
            .unwrap();
        let ids: Vec<_> = program.ids().collect();
        let refs: Vec<_> = (0..200)
            .map(|i| ids[if i % 2 == 0 { 0 } else { 2 }])
            .collect();
        let trace = Trace::from_full_records(&program, refs);
        (program, trace)
    }

    /// Screened evaluation masks hopeless layouts out before the sweep:
    /// the streamed sweep over the survivors answers in survivor order,
    /// each slot matching a direct simulation of the layout it came from.
    #[test]
    fn masked_sweep_skips_and_preserves_order() {
        let (program, trace) = fixture();
        let config = CacheConfig::direct_mapped_8k();
        let layouts = [
            Layout::source_order(&program),
            Layout::from_addresses(vec![0, 8192, 4096]),
            Layout::from_addresses(vec![0, 12288, 4096]),
        ];
        let mask = [true, false, true];
        let survivors: Vec<Layout> = layouts
            .iter()
            .zip(mask)
            .filter(|(_, keep)| *keep)
            .map(|(layout, _)| layout.clone())
            .collect();
        let out = simulate_layouts_streamed(
            &program,
            &survivors,
            tempo_trace::MemorySource::new(&trace),
            config,
        )
        .unwrap();
        assert_eq!(out.len(), 2, "masked-out slot is skipped");
        assert_ne!(
            out[0], out[1],
            "the survivors are told apart by their misses"
        );
        for (slot, i) in [0usize, 2].into_iter().enumerate() {
            assert_eq!(
                out[slot],
                simulate(&program, &layouts[i], &trace, config),
                "slot {i} matches a direct simulation"
            );
        }
    }

    #[test]
    fn streamed_sweep_matches_materialized_passes() {
        let (program, trace) = fixture();
        let config = CacheConfig::direct_mapped_8k();
        let layouts = vec![
            Layout::source_order(&program),
            Layout::from_addresses(vec![0, 8192, 4096]),
        ];
        // Scalar reference: one `step` per record, no blocks.
        let serial: Vec<SimStats> = layouts
            .iter()
            .map(|l| {
                let mut sim = Simulator::new(&program, l, config);
                for r in trace.iter() {
                    sim.step(r);
                }
                sim.stats()
            })
            .collect();
        for (l, expected) in layouts.iter().zip(&serial) {
            assert_eq!(simulate(&program, l, &trace, config), *expected);
        }
        let streamed = simulate_layouts_streamed(
            &program,
            &layouts,
            tempo_trace::MemorySource::new(&trace),
            config,
        )
        .unwrap();
        assert_eq!(streamed, serial);
    }
}
