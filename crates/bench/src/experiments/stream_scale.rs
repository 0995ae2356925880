//! Paper-scale streaming experiment: profile and evaluate m88ksim from
//! lazy trace sources without ever materializing a trace.
//!
//! The paper's traces run 17M–146M basic blocks — far beyond what the
//! other experiments materialize. This experiment drives the full
//! pipeline (popularity pass, Q pass, shared-stream layout evaluation)
//! through `TraceSource` streaming at a default of 20M records, so its
//! peak memory stays flat no matter the trace length. CI runs it under a
//! hard `ulimit -v` ceiling that the materialized path cannot meet.
//!
//! The evaluation pass reads a TMP2 container from disk through
//! `open_v2_auto`, the one TMP2 reader, which holds one frame at a time.
//! Records reach the simulators in SoA blocks, one decode shared by all
//! layouts.
//!
//! The text report carries only deterministic results (miss counts per
//! layout). Peak RSS and throughput are machine-dependent, so they go
//! into `BENCH_run.json` via [`Ctx::metric`] instead. The report's prose
//! predates the single reader and is kept word for word, because
//! `results/stream_scale.txt` is pinned byte for byte.

use std::time::Instant;

use tempo::prelude::*;
use tempo::trace::open_v2_auto;
use tempo::workloads::suite;

use crate::checked_place;
use crate::harness::{outln, peak_rss_kb, Ctx, ExperimentError};

pub(crate) fn run(ctx: &mut Ctx) -> Result<(), ExperimentError> {
    let records = ctx.args.records;
    let cache = CacheConfig::direct_mapped_8k();
    let model = suite::m88ksim();
    let program = model.program();

    // Serialize the testing stream into a TMP2 container on disk, outside
    // the timed window: ingestion is part of the pipeline under test,
    // producing the fixture is not. The writer consumes the generator
    // record by record, so nothing is materialized here either.
    let path = std::env::temp_dir().join(format!("tempo_stream_scale_{records}.v2"));
    tempo::trace::testkit::write_v2_file(&path, &mut model.testing_source(records))?;

    let start = Instant::now();
    // Two streaming passes (popularity, then Q) over the training input.
    let (session, _warnings) = Session::new(program, cache)
        .profile_with(|| Ok(model.training_source(records)))
        .expect("generator sources cannot fail");

    let layouts = [
        ("default", Layout::source_order(program)),
        ("ph", checked_place(&session, &PettisHansen::new())),
        ("gbsc", checked_place(&session, &Gbsc::new())),
    ];
    // One shared pass over the TMP2 file evaluates every layout: blocks
    // are decoded once and stepped through all simulators.
    let layout_list: Vec<Layout> = layouts.iter().map(|(_, l)| l.clone()).collect();
    let stats = session
        .evaluate_layouts_streamed(&layout_list, open_v2_auto(&path, None)?)
        .map_err(ExperimentError::Trace)?;
    ctx.note_cells(layout_list.len());
    let wall = start.elapsed().as_secs_f64();

    let streamed = 3 * records as u64;
    ctx.metric("streamed_records", streamed as f64);
    if wall > 0.0 {
        ctx.metric("records_per_sec", streamed as f64 / wall);
    }
    if let Some(kb) = peak_rss_kb() {
        ctx.metric("peak_rss_kb", kb as f64);
    }

    outln!(
        ctx,
        "stream-scale: m88ksim, {records} training + {records} testing records"
    );
    outln!(
        ctx,
        "profiled through TraceSource streaming; evaluated from a TMP2 container\n(zero-copy when it fits the map budget, streamed otherwise)"
    );
    outln!(ctx);
    outln!(ctx, "{:<8} {:>14} {:>10}", "layout", "misses", "miss rate");
    for ((name, _), s) in layouts.iter().zip(stats) {
        let s = ctx.tally(s);
        outln!(
            ctx,
            "{name:<8} {:>14} {:>9.3}%",
            s.misses,
            s.miss_rate() * 100.0
        );
    }
    outln!(ctx);
    outln!(
        ctx,
        "peak RSS, records/sec, and the ingestion path are recorded in\nBENCH_run.json, not here: the report must stay byte-identical across\nmachines, --jobs values, and TEMPO_STREAM_INGEST settings."
    );
    let _ = std::fs::remove_file(&path);
    Ok(())
}
