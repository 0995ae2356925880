//! **§5.1 anecdote**: layout fragility under trivial padding.
//!
//! The paper pads every procedure of a perl layout by one 32-byte cache
//! line and watches the miss rate jump from 3.8% to 5.4%. This experiment
//! reproduces it: take the GBSC layout of perl, add k lines of padding
//! after every procedure for k = 0..8, and report the miss rate of each
//! variant. The nine padded variants share one pass over the testing
//! trace.

use tempo::prelude::*;
use tempo::workloads::suite;

use crate::harness::{outln, Ctx, ExperimentError};

pub(crate) fn run(ctx: &mut Ctx) -> Result<(), ExperimentError> {
    let cache = CacheConfig::direct_mapped_8k();
    let model = suite::perl();
    let program = model.program();
    let (train, test) =
        tempo::workloads::par::train_test_traces(&model, ctx.args.records, ctx.pool())?;
    let session = Session::new(program, cache).profile(&train);
    let layout = session.place(&Gbsc::new());

    let base = ctx.tally(session.evaluate(&layout, &test));
    outln!(
        ctx,
        "perl, GBSC layout: {:.2}% miss rate",
        base.miss_rate() * 100.0
    );
    outln!(
        ctx,
        "\nsame procedure order, repacked with k bytes of padding after every"
    );
    outln!(
        ctx,
        "procedure (k = 0 drops GBSC's alignment gaps entirely):"
    );
    outln!(ctx, "{:>8} {:>10} {:>8}", "pad", "misses", "MR");
    let padded: Vec<Layout> = (0u64..=8)
        .map(|pad_lines| layout.with_uniform_padding(program, pad_lines * 32))
        .collect();
    let stats = session.evaluate_layouts_streamed(&padded, MemorySource::new(&test))?;
    ctx.note_cells(padded.len());
    for (pad_lines, stats) in (0u64..=8).zip(stats) {
        ctx.tally(stats);
        outln!(
            ctx,
            "{:>5} B {:>10} {:>7.2}%",
            pad_lines * 32,
            stats.misses,
            stats.miss_rate() * 100.0,
        );
    }
    outln!(
        ctx,
        "\npaper saw 3.8% -> 5.4% for perl from a single line of padding; the\nreproduction target is the *swing* from trivial layout changes, plus the\ngap between the aligned GBSC layout and any repacked variant."
    );
    Ok(())
}
