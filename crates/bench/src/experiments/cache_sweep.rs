//! **§5.2 remark**: "We also experimented with smaller cache sizes and
//! obtained similar results."
//!
//! Sweeps the direct-mapped cache size from 2 KB to 16 KB and reports the
//! testing miss rate of default, PH, HKC, and GBSC for each size (each
//! algorithm re-profiled and re-placed per size, since the Q bound and the
//! offset space depend on the geometry).
//!
//! This is the [`SweepRunner`] showcase: the
//! 3 benchmarks × 4 cache sizes expand into 12 concurrent cells, each
//! evaluating the full algorithm axis on one shared profile.
//!
//! With `--prefilter` the cell's candidate slate grows to eight layouts
//! (the four algorithms plus four
//! [`stacked_decoy`](crate::sweep::stacked_decoy) variants) and the
//! static miss-bound analyzer screens the slate before simulation: only
//! survivors are simulated, and the report shows the screened/simulated
//! split per cell. The winner column must stay byte-identical to the
//! unscreened run's — that is the screening soundness contract CI checks.

use tempo::prelude::*;
use tempo::workloads::suite;

use crate::harness::{outln, Ctx, ExperimentError};
use crate::sweep::{AlgorithmSpec, SweepRunner, SweepSpec};

/// Decoy candidates added to each cell's slate under `--prefilter`.
const DECOYS: usize = 4;

fn spec(records: usize) -> SweepSpec {
    SweepSpec {
        benchmarks: vec![suite::m88ksim(), suite::perl(), suite::go()],
        algorithms: AlgorithmSpec::standard(),
        caches: [2u32, 4, 8, 16]
            .iter()
            .map(|kb| CacheConfig::direct_mapped(kb * 1024).expect("valid size"))
            .collect(),
        records,
    }
}

pub(crate) fn run(ctx: &mut Ctx) -> Result<(), ExperimentError> {
    if ctx.args.prefilter {
        run_prefiltered(ctx)
    } else {
        run_full(ctx)
    }
}

fn run_full(ctx: &mut Ctx) -> Result<(), ExperimentError> {
    let spec = spec(ctx.args.records);
    let rows = SweepRunner::on(*ctx.pool())
        .run(&spec)
        .map_err(|errors| ExperimentError::Other(errors[0].to_string()))?;
    ctx.note_cells(spec.benchmarks.len() * spec.caches.len());

    let mut csv = Vec::new();
    let per_model = spec.caches.len() * spec.algorithms.len();
    for (mi, model_rows) in rows.chunks(per_model).enumerate() {
        outln!(ctx, "=== {} ===", spec.benchmarks[mi].name());
        outln!(
            ctx,
            "{:>8} {:>9} {:>9} {:>9} {:>9} {:>8}",
            "cache",
            "default",
            "PH",
            "HKC",
            "GBSC",
            "winner"
        );
        for group in model_rows.chunks(spec.algorithms.len()) {
            let kb = group[0].cache.size() / 1024;
            let (d, ph, hkc, gbsc) = (
                group[0].miss_rate_pct(),
                group[1].miss_rate_pct(),
                group[2].miss_rate_pct(),
                group[3].miss_rate_pct(),
            );
            for row in group {
                ctx.tally(row.stats);
            }
            // First-minimum by raw miss count in algorithm-axis order —
            // the reference a prefiltered run's winner must match.
            let winner = group
                .iter()
                .enumerate()
                .min_by_key(|(i, r)| (r.stats.misses, *i))
                .expect("a cell always has algorithms")
                .1
                .algorithm;
            outln!(
                ctx,
                "{kb:>6}KB {d:>8.2}% {ph:>8.2}% {hkc:>8.2}% {gbsc:>8.2}% {winner:>8}"
            );
            csv.push(format!(
                "{},{kb},{d:.4},{ph:.4},{hkc:.4},{gbsc:.4},{winner}",
                group[0].benchmark
            ));
        }
        outln!(ctx);
    }

    if let Some(path) = ctx.csv_path() {
        ctx.set_csv("benchmark,cache_kb,default,ph,hkc,gbsc,winner", csv);
        outln!(ctx, "wrote {path}");
    }
    outln!(
        ctx,
        "paper: the GBSC advantage persists across smaller cache sizes."
    );
    Ok(())
}

fn run_prefiltered(ctx: &mut Ctx) -> Result<(), ExperimentError> {
    let spec = spec(ctx.args.records);
    let cells = SweepRunner::on(*ctx.pool())
        .run_screened(&spec, DECOYS)
        .map_err(|errors| ExperimentError::Other(errors[0].to_string()))?;
    ctx.note_cells(spec.benchmarks.len() * spec.caches.len());

    let mut csv = Vec::new();
    let (mut candidates, mut screened) = (0usize, 0usize);
    let per_model = spec.caches.len();
    for (mi, model_cells) in cells.chunks(per_model).enumerate() {
        outln!(ctx, "=== {} (prefiltered) ===", spec.benchmarks[mi].name());
        outln!(
            ctx,
            "{:>8} {:>10} {:>9} {:>10} {:>9} {:>8}",
            "cache",
            "candidates",
            "screened",
            "simulated",
            "provable",
            "winner"
        );
        for cell in model_cells {
            ctx.tally_misses(cell.misses);
            candidates += cell.candidates;
            screened += cell.screened;
            let kb = cell.cache.size() / 1024;
            outln!(
                ctx,
                "{kb:>6}KB {:>10} {:>9} {:>10} {:>9} {:>8}",
                cell.candidates,
                cell.screened,
                cell.simulated,
                cell.provable,
                cell.winner
            );
            csv.push(format!(
                "{},{kb},{},{},{},{}",
                cell.benchmark, cell.candidates, cell.screened, cell.simulated, cell.winner
            ));
        }
        outln!(ctx);
    }

    #[allow(clippy::cast_precision_loss)] // slate sizes are tiny
    let skip_fraction = if candidates == 0 {
        0.0
    } else {
        screened as f64 / candidates as f64
    };
    ctx.metric("prefilter.skip_fraction", skip_fraction);
    if let Some(path) = ctx.csv_path() {
        ctx.set_csv(
            "benchmark,cache_kb,candidates,screened,simulated,winner",
            csv,
        );
        outln!(ctx, "wrote {path}");
    }
    outln!(
        ctx,
        "screened {screened} of {candidates} candidate simulations ({:.0}%) without touching the winner column.",
        skip_fraction * 100.0
    );
    Ok(())
}
