//! The `daemon_drift` workload: an in-process `tempod` with one tenant
//! and one closed-loop client streaming a drifting input frame by frame.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use tempo::cache::{simulate, CacheConfig};
use tempo::place::Gbsc;
use tempo::program::io::{write_layout, write_program};
use tempo::program::{Layout, Program};
use tempo::trace::v2::{read_binary_v2, scan_frames};
use tempo::trace::{MemorySource, Trace};
use tempo::trg::PopularitySelector;
use tempo::workloads::suite;
use tempo::{plan_epochs, Engine, EngineConfig};
use tempo_daemon::{split_frames, Client, DaemonConfig, Server, Tally};

use crate::fixture::{encode, err, segment_input, SetupClock, SEGMENTS};
use crate::report::{check_pin, ms, Outcome};
use crate::stats::{median, percentile, split_syncs, Latency, SyncSample, MIN_TAIL};
use crate::Args;

/// Workload name, as `--workload` takes it.
pub const NAME: &str = "daemon_drift";
/// Records of the opening epoch: training input under the model's own
/// executor seed, not the benchmark seed. The engine pins popular
/// membership from its first epoch and every later epoch's cost scales
/// with that set; opened on a seeded segment, membership ranged over
/// 56-147 procedures with the seed and a session's time over 2x.
const OPENING_RECORDS: usize = 5_000;
/// Records of each seeded training and testing segment. After the opening
/// epoch the stream alternates them, training first, [`SEGMENTS`] times.
const SEGMENT_RECORDS: usize = 50_000;
/// Records past the last whole epoch: the final LAYOUT request folds
/// them in as the tail epoch.
const TAIL_RECORDS: usize = FRAME_RECORDS;
/// Records per TMP2 frame on the wire: the client sends one frame, then
/// one SYNC.
const FRAME_RECORDS: usize = 125;
/// Records per engine epoch. One SYNC in 40 waits on an epoch flush, and
/// about 6-11% of epochs place (the rest are drift skips), so about 0.3%
/// of SYNCs wait on a placement: p50 lies among SYNCs without a flush and
/// p99 among those that flush a skipped epoch, each well inside its mode.
const EPOCH_RECORDS: u64 = OPENING_RECORDS as u64;
/// Window decay per epoch, below 1 so the drift check has work to do.
const DECAY: f64 = 0.5;
/// Epoch samples the traced run collects, so that a p99 has its tail.
const EPOCH_SAMPLES: usize = 100 * MIN_TAIL;

fn daemon_config() -> DaemonConfig {
    let mut config = DaemonConfig::new(CacheConfig::direct_mapped_8k());
    config.epoch_records = EPOCH_RECORDS;
    config.decay = DECAY;
    config
}

/// The engine configuration a `tempod` tenant runs with under `config`,
/// for the offline reference.
fn engine_config(config: &DaemonConfig) -> EngineConfig {
    let mut ec = EngineConfig::new(config.cache);
    ec.selector = PopularitySelector::coverage(config.coverage).with_min_count(config.min_count);
    ec.epoch_records = config.epoch_records;
    ec.decay = config.decay;
    ec.replace_threshold = config.replace_threshold;
    ec
}

/// Everything the client streams, and the offline view of it.
struct Fixture {
    program: Program,
    program_text: String,
    bytes: Vec<u8>,
    trace: Trace,
    /// The testing segments, concatenated: what `miss_rate` is over.
    testing: Trace,
    plan: Vec<u64>,
}

fn build_fixture(seed: u64) -> Result<(Fixture, f64), String> {
    let model = suite::vortex();
    let generating = Instant::now();
    // The opening epoch, then (training, testing) segment pairs.
    let mut inputs = vec![(model.training_input(), OPENING_RECORDS)];
    for k in 0..SEGMENTS {
        inputs.push((
            segment_input(model.training_input(), seed, k),
            SEGMENT_RECORDS,
        ));
        inputs.push((
            segment_input(model.testing_input(), seed, k),
            SEGMENT_RECORDS,
        ));
    }
    if let Some(last) = inputs.last_mut() {
        last.1 += TAIL_RECORDS;
    }
    let bytes = encode(&model, &inputs, FRAME_RECORDS)?;
    let generate_s = generating.elapsed().as_secs_f64();
    let mut text = Vec::new();
    write_program(&mut text, model.program()).map_err(err)?;
    let trace = read_binary_v2(bytes.as_slice()).map_err(err)?;
    let mut testing = Vec::new();
    let mut at = 0;
    for (i, &(_, records)) in inputs.iter().enumerate() {
        let is_testing = i > 0 && i % 2 == 0;
        if is_testing {
            testing.extend_from_slice(&trace.records()[at..at + records]);
        }
        at += records;
    }
    let plan = plan_epochs(&scan_frames(bytes.as_slice()).map_err(err)?, EPOCH_RECORDS);
    let fixture = Fixture {
        program: model.program().clone(),
        program_text: String::from_utf8(text).map_err(err)?,
        bytes,
        trace,
        testing: Trace::from_records(testing),
        plan,
    };
    Ok((fixture, generate_s))
}

/// A bound server, its thread, and a client opened on its one tenant.
struct Live {
    client: Client,
    server: JoinHandle<std::io::Result<()>>,
}

fn start(socket: &Path, program_text: &str) -> Result<Live, String> {
    let server = Server::bind_unix(socket, daemon_config()).map_err(err)?;
    let server = std::thread::spawn(move || server.run());
    let mut client = Client::connect_unix(socket).map_err(err)?;
    client.open("drift", Some(program_text)).map_err(err)?;
    Ok(Live { client, server })
}

/// Shuts the server down and joins its thread. A client whose connection
/// broke cannot ask, so a fresh connection does.
fn stop(mut live: Live, socket: &Path) -> Result<(), String> {
    if live.client.shutdown().is_err() {
        Client::connect_unix(socket)
            .map_err(err)?
            .shutdown()
            .map_err(err)?;
    }
    match live.server.join() {
        Ok(result) => result.map_err(err),
        Err(_) => Err("server thread panicked".to_string()),
    }
}

/// One streamed session, as the client saw it.
struct Session {
    wall_ms: f64,
    layout_ms: f64,
    send_ms: f64,
    syncs: Vec<SyncSample>,
    layout: String,
    tally: Tally,
    frames: usize,
}

fn session(f: &Fixture, socket: &Path, traced: bool) -> Result<Session, String> {
    let frames = split_frames(&f.bytes).map_err(err)?;
    let mut live = start(socket, &f.program_text)?;
    let streamed = stream(&mut live.client, &frames, traced);
    let stopped = stop(live, socket);
    let session = streamed?;
    stopped?;
    Ok(session)
}

/// Streams every frame with a SYNC after each, then asks for the layout.
fn stream(c: &mut Client, frames: &[&[u8]], traced: bool) -> Result<Session, String> {
    let mut syncs = Vec::with_capacity(frames.len());
    let mut send_ms = 0.0;
    let begin = Instant::now();
    for frame in frames {
        if traced {
            let t = Instant::now();
            c.send_frame(frame).map_err(err)?;
            send_ms += ms(t.elapsed());
        } else {
            c.send_frame(frame).map_err(err)?;
        }
        let t = Instant::now();
        let tally = c.sync().map_err(err)?;
        syncs.push(SyncSample {
            rtt_ms: ms(t.elapsed()),
            epochs: tally.epochs,
        });
    }
    let t = Instant::now();
    let layout = c.layout().map_err(err)?;
    let layout_ms = ms(t.elapsed());
    let wall_ms = ms(begin.elapsed());
    let tally = c.sync().map_err(err)?;
    Ok(Session {
        wall_ms,
        layout_ms,
        send_ms,
        syncs,
        layout,
        tally,
        frames: frames.len(),
    })
}

/// Checks a session: every frame ingested, nothing rejected, and the
/// layout byte-identical to the offline engine's.
fn check(s: &Session, reference: &str, out: &mut Outcome) {
    // One operation per frame, per SYNC and for the LAYOUT request; a
    // frame the tally did not ingest (defective, over budget or lost)
    // fails.
    let t = s.tally;
    let ingested = t.frames.min(s.frames as u64);
    out.attempted += s.frames as u64 + s.syncs.len() as u64;
    out.failed += s.frames as u64 - ingested;
    if ingested < s.frames as u64 {
        out.errors.push(format!(
            "{} of {} frames ingested: {}",
            t.frames,
            s.frames,
            t.to_json()
        ));
    }
    out.check(
        (s.layout != reference)
            .then(|| "daemon layout differs from Engine::run_planned".to_string()),
    );
}

/// Replays the stream offline through `Engine::observe_epoch` with the
/// daemon's configuration and the `plan_epochs` boundaries, timing each
/// epoch into `epoch_ms`; returns the final layout.
fn replay(f: &Fixture, epoch_ms: &mut Vec<f64>) -> Option<Layout> {
    let algorithm = Gbsc::new();
    let mut engine = Engine::new(&f.program, &algorithm, engine_config(&daemon_config()));
    let mut at = 0usize;
    for &len in &f.plan {
        #[allow(clippy::cast_possible_truncation)]
        let end = at + len as usize;
        let epoch = Trace::from_records(f.trace.records()[at..end].to_vec());
        at = end;
        let t = Instant::now();
        engine.observe_epoch(&epoch);
        epoch_ms.push(ms(t.elapsed()));
    }
    engine.layout().cloned()
}

/// Round trips of the sessions' SYNCs, split by [`split_syncs`] into
/// `(without an epoch flush, with one)`.
fn split_sessions(sessions: &[Session]) -> (Vec<f64>, Vec<f64>) {
    let (mut frame, mut epoch) = (Vec::new(), Vec::new());
    for s in sessions {
        let (f, e) = split_syncs(&s.syncs);
        frame.extend(f);
        epoch.extend(e);
    }
    (frame, epoch)
}

fn layout_text(layout: &Layout) -> Result<String, String> {
    let mut buf = Vec::new();
    write_layout(&mut buf, layout).map_err(err)?;
    String::from_utf8(buf).map_err(err)
}

/// Runs `daemon_drift`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let socket: PathBuf = args.workdir.join("tempod.sock");

    // Set-up: generate and encode the stream, bind the server and open
    // the tenant. It runs again, timed and discarded, before every session
    // in the window.
    let setup = || {
        let (f, generate_s) = build_fixture(args.seed)?;
        let live = start(&socket, &f.program_text)?;
        stop(live, &socket)?;
        Ok((f, generate_s))
    };
    let mut clock = SetupClock::default();
    let f = clock.time(setup)?;

    // The offline reference every session's layout must equal, checked
    // through Engine::run_planned as `tempo engine` runs it.
    let config = daemon_config();
    let algorithm = Gbsc::new();
    let mut engine = Engine::new(&f.program, &algorithm, engine_config(&config));
    let reports = engine
        .run_planned(MemorySource::new(&f.trace), &f.plan)
        .map_err(err)?;
    let placed = reports.iter().filter(|r| r.placed).count();
    let popular = engine.window().map_or(0, |w| w.popular.count());
    let reference = engine
        .layout()
        .cloned()
        .ok_or("the offline engine observed no epoch")?;
    let reference_text = layout_text(&reference)?;
    let stats = simulate(&f.program, &reference, &f.testing, config.cache);
    out.check(check_pin(
        NAME,
        args.seed,
        "final",
        stats.misses,
        stats.instructions,
    ));
    if args.emit_pins {
        println!(
            "{NAME} {} final {} {}",
            args.seed, stats.misses, stats.instructions
        );
        return Ok(out);
    }

    // Warm-up session, checked like the rest.
    let first = session(&f, &socket, false)?;
    check(&first, &reference_text, &mut out);

    let mut plain: Vec<Session> = Vec::new();
    let mut traced: Vec<Session> = Vec::new();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < args.seconds || plain.len() < 3 {
        clock.time(setup)?;
        let s = session(&f, &socket, false)?;
        check(&s, &reference_text, &mut out);
        plain.push(s);
        if args.traced {
            let s = session(&f, &socket, true)?;
            check(&s, &reference_text, &mut out);
            traced.push(s);
        }
    }

    let records = f.trace.len() as f64;
    let setup_s = clock.setup_s().ok_or("no set-up")?;
    let wall = |ss: &[Session]| median(&ss.iter().map(|s| s.wall_ms).collect::<Vec<_>>());
    let plain_wall = wall(&plain).ok_or("no timed session")?;
    let all: Vec<f64> = plain
        .iter()
        .flat_map(|s| s.syncs.iter().map(|y| y.rtt_ms))
        .collect();
    let (frame_syncs, epoch_syncs) = split_sessions(&plain);
    println!(
        "{NAME}: seed {}, {} records ({}-record opening epoch, {} alternating training and testing segments of {}, {}-record tail) in {}-record frames, a SYNC after every frame, {} epochs ({} placed, {} popular procedures), {} set-ups of {:.1} ms (median), {} sessions of {:.1} ms (median), final layout {} misses / {} instructions on the testing segments",
        args.seed, f.trace.len(), EPOCH_RECORDS, 2 * SEGMENTS, SEGMENT_RECORDS, TAIL_RECORDS, FRAME_RECORDS,
        reports.len(), placed, popular, clock.count(), setup_s * 1e3, plain.len(), plain_wall, stats.misses, stats.instructions
    );
    println!("  {}", Latency::of(&all).describe("SYNC round trip"));
    println!(
        "  {}",
        Latency::of(&frame_syncs).describe("SYNC without epoch flush")
    );
    println!(
        "  {}",
        Latency::of(&epoch_syncs).describe("SYNC with epoch flush")
    );

    if args.traced {
        let traced_wall = wall(&traced).ok_or("no traced session")?;
        let mut epoch_ms = Vec::new();
        while epoch_ms.len() < EPOCH_SAMPLES {
            let layout = replay(&f, &mut epoch_ms);
            out.check(
                (layout.as_ref() != Some(&reference))
                    .then(|| "observe_epoch replay differs from run_planned".to_string()),
            );
        }
        let epoch = Latency::of(&epoch_ms);
        println!("  {}", epoch.describe("Engine::observe_epoch"));
        let (frame, flush) = split_sessions(&traced);
        let med = |v: Vec<f64>| median(&v).ok_or("no traced session");
        let t = traced[0].tally;
        let m = &mut out.per_layer;
        m.insert(
            "engine.epoch_p50_ms",
            epoch.p50.ok_or("too few epoch samples")?,
        );
        m.insert(
            "engine.epoch_p99_ms",
            epoch.p99.ok_or("too few epoch samples")?,
        );
        #[allow(clippy::cast_precision_loss)]
        {
            m.insert("engine.epochs", reports.len() as f64);
            m.insert("engine.placements", placed as f64);
            m.insert("engine.drift_skips", (reports.len() - placed) as f64);
            m.insert("daemon.frames", t.frames as f64);
            m.insert("daemon.bad_frames", t.bad_frames as f64);
            m.insert("daemon.budget_rejected", t.budget_rejected as f64);
        }
        m.insert(
            "daemon.send_ms",
            med(traced.iter().map(|s| s.send_ms).collect())?,
        );
        m.insert(
            "daemon.frame_sync_p50_ms",
            percentile(&frame, 0.5).ok_or("too few frame SYNCs")?,
        );
        m.insert(
            "daemon.epoch_sync_p50_ms",
            percentile(&flush, 0.5).ok_or("too few epoch SYNCs")?,
        );
        m.insert(
            "workloads.generate_records_per_s",
            records / clock.generate_s().ok_or("no set-up")?,
        );
        m.insert(
            "obs.trace_overhead_frac",
            (traced_wall - plain_wall) / plain_wall,
        );
        // The client's time is its sends, its SYNC waits and the layout
        // request; what is left is the loop itself.
        let accounted =
            |s: &Session| s.send_ms + s.syncs.iter().map(|y| y.rtt_ms).sum::<f64>() + s.layout_ms;
        m.insert(
            "pipeline.unaccounted_ms",
            med(traced.iter().map(|s| s.wall_ms - accounted(s)).collect())?,
        );
        for (k, v) in m.iter() {
            println!("  {k} = {v}");
        }
    } else {
        let sync = Latency::of(&all);
        let m = &mut out.end_to_end;
        m.insert("setup_s", setup_s);
        m.insert("records_per_s", records / (plain_wall / 1e3));
        m.insert("miss_rate", stats.miss_rate());
        if let Some(p50) = sync.p50 {
            m.insert("sync_p50_ms", p50);
        }
        if let Some(p99) = sync.p99 {
            m.insert("sync_p99_ms", p99);
        }
        m.insert(
            "layout_rtt_ms",
            median(&plain.iter().map(|s| s.layout_ms).collect::<Vec<_>>()).ok_or("no session")?,
        );
    }
    Ok(out)
}
