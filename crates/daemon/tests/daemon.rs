//! End-to-end tests of tempod: offline-equivalence, multi-tenant
//! isolation, fault tolerance, and admission control.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use tempo::place::{Budget, Gbsc};
use tempo::program::io::{write_layout, write_program};
use tempo::program::Program;
use tempo::trace::v2::{scan_frames, V2Writer};
use tempo::trace::{MemorySource, Trace};
use tempo::workloads::callgraph::CallGraphBuilder;
use tempo::{plan_epochs, Engine};
use tempo_daemon::{split_frames, Client, DaemonConfig, Server};
use tempo_faults::ClientFault;

/// Records per TMP2 frame in these tests — small so every trace spans
/// many frames.
const FRAME_RECORDS: usize = 500;
/// Records per epoch — deliberately not a multiple of the frame size.
const EPOCH_RECORDS: u64 = 1_700;

static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique socket path per test, safe under parallel test threads.
fn socket_path(tag: &str) -> PathBuf {
    let seq = SOCKET_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "tempod-test-{}-{tag}-{seq}.sock",
        std::process::id()
    ))
}

/// A workload with phase drift (so re-placement actually triggers), its
/// program text, and its trace as v2 frame bytes.
struct Fixture {
    program: Program,
    program_text: String,
    trace: Trace,
    v2_bytes: Vec<u8>,
}

fn fixture(seed: u64, len: usize) -> Fixture {
    // Procedure sizes vary with the seed so different fixtures have
    // genuinely different programs (and therefore different layouts).
    #[allow(clippy::cast_possible_truncation)]
    let bump = (seed % 7) as u32 * 32;
    let mut b = CallGraphBuilder::new();
    let main = b.procedure("main", 256 + bump);
    let parse = b.procedure("parse", 512 + bump);
    let eval = b.procedure("eval", 768 + bump);
    let gc = b.procedure("gc", 1024 + bump);
    let emit = b.procedure("emit", 384 + bump);
    b.root(main)
        .call_site(main, parse, 6.0)
        .call_site(main, eval, 3.0)
        .call_site(parse, emit, 2.0)
        .call_site(eval, gc, 1.5)
        .call_site(eval, emit, 0.5)
        .phase(2_000, &[(main, parse, 0.2), (main, eval, 5.0)])
        .phase(2_000, &[(eval, gc, 4.0)]);
    let w = b.build().expect("fixture graph is valid");
    let program = w.program().clone();
    let mut program_text = Vec::new();
    write_program(&mut program_text, &program).expect("program serializes");
    let trace = w.trace(seed, len);
    let mut v2_bytes = Vec::new();
    let mut writer =
        V2Writer::with_frame_records(&mut v2_bytes, FRAME_RECORDS).expect("writer opens");
    for r in trace.iter() {
        writer.push(r).expect("record encodes");
    }
    writer.finish().expect("stream finishes");
    Fixture {
        program,
        program_text: String::from_utf8(program_text).expect("program text is UTF-8"),
        trace,
        v2_bytes,
    }
}

fn test_config() -> DaemonConfig {
    let mut config = DaemonConfig::new(tempo::cache::CacheConfig::direct_mapped_8k());
    config.epoch_records = EPOCH_RECORDS;
    config
}

/// The offline reference: `tempo engine` semantics in-process — plan the
/// epochs from the frame structure, run the planned engine, serialize
/// the layout.
fn offline_layout(f: &Fixture, config: &DaemonConfig) -> String {
    let frames = scan_frames(f.v2_bytes.as_slice()).expect("fixture stream scans");
    let plan = plan_epochs(&frames, config.epoch_records);
    let algorithm = Gbsc::new();
    let mut engine = Engine::new(&f.program, &algorithm, test_engine_config(config));
    engine
        .run_planned(MemorySource::new(&f.trace), &plan)
        .expect("memory source cannot fail");
    let layout = engine.layout().expect("epochs were observed");
    let mut buf = Vec::new();
    write_layout(&mut buf, layout).expect("layout serializes");
    String::from_utf8(buf).expect("layout text is UTF-8")
}

/// Mirrors `DaemonConfig::engine_config` (private to the crate) for the
/// offline reference run.
fn test_engine_config(config: &DaemonConfig) -> tempo::EngineConfig {
    let mut ec = tempo::EngineConfig::new(config.cache);
    ec.selector =
        tempo::trg::PopularitySelector::coverage(config.coverage).with_min_count(config.min_count);
    ec.epoch_records = config.epoch_records;
    ec.decay = config.decay;
    ec.replace_threshold = config.replace_threshold;
    ec
}

/// Starts a daemon on a fresh unix socket; returns the socket path and
/// the server thread handle (joined after `shutdown`).
fn start_daemon(tag: &str, config: DaemonConfig) -> (PathBuf, std::thread::JoinHandle<()>) {
    let path = socket_path(tag);
    let server = Server::bind_unix(&path, config).expect("socket binds");
    let handle = std::thread::spawn(move || server.run().expect("serve loop exits cleanly"));
    (path, handle)
}

#[test]
fn single_tenant_layout_is_byte_identical_to_offline() {
    let f = fixture(7, 6_400);
    let config = test_config();
    let want = offline_layout(&f, &config);

    let (path, server) = start_daemon("equiv", config);
    let mut c = Client::connect_unix(&path).expect("client connects");
    c.open("t0", Some(&f.program_text)).expect("open succeeds");
    let frames = split_frames(&f.v2_bytes).expect("fixture splits");
    assert!(frames.len() > 3, "fixture must span several frames");
    for frame in &frames {
        c.send_frame(frame).expect("frame sends");
    }
    let tally = c.sync().expect("sync succeeds");
    assert_eq!(tally.frames, frames.len() as u64);
    assert_eq!(tally.records, f.trace.records().len() as u64);
    assert_eq!(tally.bad_frames, 0);
    let got = c.layout().expect("layout succeeds");
    assert_eq!(got, want, "daemon layout must match offline byte for byte");

    // Epoch boundaries matched too, not just the end state.
    let plan = plan_epochs(
        &scan_frames(f.v2_bytes.as_slice()).expect("stream scans"),
        EPOCH_RECORDS,
    );
    let after = c.sync().expect("second sync succeeds");
    assert_eq!(after.epochs, plan.len() as u64, "one epoch per plan entry");

    c.shutdown().expect("shutdown succeeds");
    server.join().expect("server thread exits");
}

#[test]
fn two_concurrent_tenants_stay_isolated() {
    let fa = fixture(11, 5_100);
    let fb = fixture(23, 7_300);
    let config = test_config();
    let want_a = offline_layout(&fa, &config);
    let want_b = offline_layout(&fb, &config);

    let (path, server) = start_daemon("tenants", config);
    let feed = |tenant: &'static str, f: &Fixture| {
        let path = path.clone();
        let program = f.program_text.clone();
        let bytes = f.v2_bytes.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect_unix(&path).expect("client connects");
            c.open(tenant, Some(&program)).expect("open succeeds");
            for frame in split_frames(&bytes).expect("fixture splits") {
                c.send_frame(frame).expect("frame sends");
            }
            c.layout().expect("layout succeeds")
        })
    };
    let a = feed("alpha", &fa);
    let b = feed("beta", &fb);
    let got_a = a.join().expect("alpha thread exits");
    let got_b = b.join().expect("beta thread exits");
    assert_eq!(got_a, want_a, "tenant alpha matches its offline run");
    assert_eq!(got_b, want_b, "tenant beta matches its offline run");
    assert_ne!(got_a, got_b, "distinct workloads place differently");

    let mut c = Client::connect_unix(&path).expect("client connects");
    c.shutdown().expect("shutdown succeeds");
    server.join().expect("server thread exits");
}

#[test]
fn client_death_mid_message_leaves_the_tenant_clean() {
    let f = fixture(31, 4_000);
    let (path, server) = start_daemon("faults", test_config());
    let frames = split_frames(&f.v2_bytes).expect("fixture splits");

    // A healthy client seeds the tenant with the first two frames.
    let mut c = Client::connect_unix(&path).expect("client connects");
    c.open("victim", Some(&f.program_text))
        .expect("open succeeds");
    c.send_frame(frames[0]).expect("frame sends");
    c.send_frame(frames[1]).expect("frame sends");
    let before = c.sync().expect("sync succeeds");
    assert_eq!(before.frames, 2);

    // A faulty client joins the tenant and dies mid-frame-message: the
    // injector yields a proper prefix of the encoded message, then the
    // connection drops.
    for seed in 0..8 {
        let mut message = Vec::new();
        tempo_daemon::proto::write_message(&mut message, tempo_daemon::proto::OP_FRAME, frames[2])
            .expect("message encodes");
        let mut faulty = Client::connect_unix(&path).expect("faulty client connects");
        faulty
            .open("victim", None)
            .expect("joining an existing tenant needs no program");
        for chunk in ClientFault::DropMidMessage.schedule(&message, seed) {
            faulty.send_raw(&chunk).expect("raw bytes send");
        }
        drop(faulty); // the connection dies here, mid-message
    }

    // The daemon is still up, the tenant still consistent: nothing from
    // the truncated messages was ingested, and a complete frame still is.
    let after = c.sync().expect("daemon still serves the healthy client");
    assert_eq!(after.frames, 2, "no partial message became a frame");
    assert_eq!(
        after.bad_frames, 0,
        "truncation kills connections, not tallies"
    );
    c.send_frame(frames[2]).expect("tenant still ingests");
    let final_tally = c.sync().expect("sync succeeds");
    assert_eq!(final_tally.frames, 3);

    c.shutdown().expect("shutdown succeeds");
    server.join().expect("server thread exits");
}

#[test]
fn slow_trickle_client_is_just_a_slow_client() {
    let f = fixture(43, 2_000);
    let (path, server) = start_daemon("trickle", test_config());
    let frames = split_frames(&f.v2_bytes).expect("fixture splits");

    let mut c = Client::connect_unix(&path).expect("client connects");
    c.open("slow", Some(&f.program_text))
        .expect("open succeeds");
    let mut message = Vec::new();
    tempo_daemon::proto::write_message(&mut message, tempo_daemon::proto::OP_FRAME, frames[0])
        .expect("message encodes");
    let chunks = ClientFault::SlowTrickle.schedule(&message, 17);
    assert!(chunks.len() > 10, "the injector must actually fragment");
    for chunk in chunks {
        c.send_raw(&chunk).expect("raw bytes send");
    }
    let tally = c.sync().expect("sync succeeds");
    assert_eq!(tally.frames, 1, "a trickled frame still ingests whole");

    c.shutdown().expect("shutdown succeeds");
    server.join().expect("server thread exits");
}

#[test]
fn defective_frames_are_tallied_not_fatal() {
    let f = fixture(53, 2_000);
    let (path, server) = start_daemon("defect", test_config());
    let frames = split_frames(&f.v2_bytes).expect("fixture splits");

    let mut c = Client::connect_unix(&path).expect("client connects");
    c.open("t", Some(&f.program_text)).expect("open succeeds");
    let mut corrupt = frames[0].to_vec();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xFF; // breaks the CRC
    c.send_frame(&corrupt)
        .expect("sending a bad frame is not an error");
    c.send_frame(frames[1]).expect("good frame sends");
    let tally = c.sync().expect("sync succeeds");
    assert_eq!(tally.bad_frames, 1);
    assert_eq!(tally.frames, 1, "the good frame survived its bad neighbor");

    c.shutdown().expect("shutdown succeeds");
    server.join().expect("server thread exits");
}

#[test]
fn admission_budget_rejects_and_tallies_overflow_frames() {
    let f = fixture(61, 3_000);
    let mut config = test_config();
    // Enough budget for exactly two frames of records.
    config.budget = Budget::work_units(2 * FRAME_RECORDS as u64);
    let (path, server) = start_daemon("budget", config);
    let frames = split_frames(&f.v2_bytes).expect("fixture splits");
    assert!(frames.len() >= 4);

    let mut c = Client::connect_unix(&path).expect("client connects");
    c.open("capped", Some(&f.program_text))
        .expect("open succeeds");
    for frame in &frames {
        c.send_frame(frame).expect("frame sends");
    }
    let tally = c.sync().expect("sync succeeds");
    assert_eq!(tally.frames, 2, "the budget admits two full frames");
    assert_eq!(
        tally.budget_rejected,
        frames.len() as u64 - 2,
        "everything past the budget is tallied as rejected"
    );

    c.shutdown().expect("shutdown succeeds");
    server.join().expect("server thread exits");
}

#[test]
fn tenant_stats_are_scoped_and_live() {
    let f = fixture(71, 4_000);
    let (path, server) = start_daemon("stats", test_config());
    let frames = split_frames(&f.v2_bytes).expect("fixture splits");

    let mut c = Client::connect_unix(&path).expect("client connects");
    c.open("metered", Some(&f.program_text))
        .expect("open succeeds");
    for frame in &frames {
        c.send_frame(frame).expect("frame sends");
    }
    c.sync().expect("sync succeeds");
    let stats = c.stats().expect("stats succeeds");
    let snap = tempo::obs::Snapshot::parse_json(&stats).expect("stats reply parses");
    assert_eq!(
        snap.counter("daemon.tenant.frames"),
        Some(frames.len() as u64),
        "tenant-scoped ingestion counters are served live"
    );
    assert!(
        snap.counter("engine.epochs").unwrap_or(0) > 0,
        "the engine's own counters land in the tenant scope"
    );

    let server_stats = c.server_stats().expect("server stats succeeds");
    let global = tempo::obs::Snapshot::parse_json(&server_stats).expect("global reply parses");
    assert!(
        global.counter("daemon.connections").unwrap_or(0) >= 1,
        "connection counters land in the global scope"
    );
    assert_eq!(
        global.counter("daemon.tenant.frames"),
        None,
        "tenant ingestion counters do not leak into the global registry"
    );

    c.shutdown().expect("shutdown succeeds");
    server.join().expect("server thread exits");
}

#[test]
fn requests_before_open_are_rejected_with_messages() {
    let (path, server) = start_daemon("order", test_config());
    let mut c = Client::connect_unix(&path).expect("client connects");
    assert!(c.sync().is_err(), "sync before open is an error");
    assert!(c.layout().is_err(), "layout before open is an error");
    assert!(
        c.server_stats().is_ok(),
        "server stats are valid before open"
    );
    let mut named = Client::connect_unix(&path).expect("client connects");
    assert!(
        named.open("ghost", None).is_err(),
        "opening an unknown tenant without a program is an error"
    );
    c.shutdown().expect("shutdown succeeds");
    server.join().expect("server thread exits");
}

#[test]
fn gbsc_sa_is_refused_at_open_not_in_the_worker() {
    // Tenant engines build no pair database, so GBSC-SA could only panic
    // its worker; the OPEN that would create the tenant fails instead.
    let mut config = test_config();
    config.cache = tempo::cache::CacheConfig::new(8192, 32, 2).expect("valid geometry");
    config.algorithm = "gbsc-sa".to_string();
    let f = fixture(3, 200);
    let (path, server) = start_daemon("gbsc-sa", config);
    let mut c = Client::connect_unix(&path).expect("client connects");
    let err = c
        .open("sa", Some(&f.program_text))
        .expect_err("gbsc-sa tenant is refused");
    assert!(err.to_string().contains("pair database"), "{err}");
    assert!(c.server_stats().is_ok(), "the connection stays usable");
    c.shutdown().expect("shutdown succeeds");
    server.join().expect("server thread exits");
}
