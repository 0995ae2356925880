//! tempod's contracts, checked through the `tempo-cli` binary exactly as a
//! shell user drives `daemon` and `client` (DESIGN.md §16):
//!
//! - two tenants fed concurrently over one socket each end with a layout
//!   byte-identical to `engine` offline on the same trace and settings,
//!   with a clean tally;
//! - clients killed mid-message (`--inject drop`) leave the daemon
//!   serving, the drops counted in the global registry, and tenant
//!   counters scoped to their tenant;
//! - `--shutdown` stops the daemon, which removes its socket.

#![allow(clippy::unwrap_used)] // test code asserts by panicking

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use tempo_obs::Snapshot;

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tempo-daemon-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The CLI binary in `dir`, with `line`'s whitespace-separated words as
/// its arguments.
fn command(dir: &Path, line: &str) -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_tempo-cli"));
    c.args(line.split_whitespace()).current_dir(dir);
    c
}

fn succeeded(line: &str, out: Output) -> String {
    assert!(
        out.status.success(),
        "tempo-cli {line} exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Runs `tempo-cli line` in `dir`, failing the test on a non-zero exit;
/// returns its stdout.
fn tempo(dir: &Path, line: &str) -> String {
    succeeded(line, command(dir, line).output().expect("tempo-cli starts"))
}

/// The daemon process; killed if the test fails before `--shutdown`.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

fn parse(json: &str) -> Snapshot {
    Snapshot::parse_json(json.trim()).unwrap_or_else(|e| panic!("{e}: {json}"))
}

#[test]
fn daemon_tenants_match_offline_engine_and_survive_dropped_clients() {
    let dir = workdir("smoke");
    let d = dir.as_path();
    for (bench, records, tag) in [("perl", 120_000, "a"), ("m88ksim", 90_000, "b")] {
        tempo(
            d,
            &format!(
                "generate --bench {bench} --records {records} --input train \
                 --program {tag}.procs --trace {tag}.trace"
            ),
        );
        // 1000-record frames: many frames per epoch, and many per client.
        let path = d.join(format!("{tag}.trace"));
        let trace =
            tempo::trace::v2::read_binary_v2(std::fs::read(&path).unwrap().as_slice()).unwrap();
        std::fs::write(
            &path,
            tempo::trace::testkit::v2_bytes(&trace, 1000).unwrap(),
        )
        .unwrap();
        tempo(
            d,
            &format!(
                "engine --program {tag}.procs --trace {tag}.trace --epoch-records 5000 \
                 --out {tag}-offline.layout"
            ),
        );
    }

    let mut daemon = Daemon(
        command(d, "daemon --socket tempod.sock --epoch-records 5000")
            .stdout(Stdio::null())
            .spawn()
            .expect("daemon starts"),
    );
    let socket = d.join("tempod.sock");
    let started = Instant::now();
    while !socket.exists() {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "daemon never bound its socket"
        );
        assert!(
            daemon.0.try_wait().unwrap().is_none(),
            "daemon exited at startup"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Two concurrent tenants, each byte-identical to its offline run.
    let feeds = [("alpha", "a"), ("beta", "b")].map(|(tenant, tag)| {
        let line = format!(
            "client --socket tempod.sock --tenant {tenant} --program {tag}.procs \
             --trace {tag}.trace"
        );
        let child = command(d, &line)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("client starts");
        (line, child)
    });
    for (line, child) in feeds {
        let tally = succeeded(&line, child.wait_with_output().unwrap());
        assert!(tally.contains("\"bad_frames\":0"), "{tally}");
    }
    for (tenant, tag) in [("alpha", "a"), ("beta", "b")] {
        tempo(
            d,
            &format!(
                "client --socket tempod.sock --tenant {tenant} --layout-out {tag}-daemon.layout"
            ),
        );
        assert!(
            std::fs::read(d.join(format!("{tag}-daemon.layout"))).unwrap()
                == std::fs::read(d.join(format!("{tag}-offline.layout"))).unwrap(),
            "tenant {tenant}'s layout differs from its offline engine run"
        );
    }

    // Clients die mid-message; only whole frame messages ever count, so
    // the tenant's layout is still served.
    for seed in 1..=3 {
        tempo(
            d,
            &format!(
                "client --socket tempod.sock --tenant alpha --trace a.trace \
                 --inject drop --seed {seed}"
            ),
        );
    }
    tempo(
        d,
        "client --socket tempod.sock --tenant alpha --layout-out after.layout",
    );
    assert!(!std::fs::read(d.join("after.layout")).unwrap().is_empty());

    // Drops are counted globally; tenant counters stay in their scope.
    let tenant = parse(&tempo(
        d,
        "client --socket tempod.sock --tenant alpha --stats",
    ));
    assert!(tenant.get("daemon.tenant.frames").is_some(), "{tenant:?}");
    let global = parse(&tempo(d, "client --socket tempod.sock --server-stats"));
    let dropped = global.counter("daemon.conn_dropped").unwrap_or(0);
    assert!(dropped >= 3, "{dropped} dropped connections counted");
    assert!(
        global.get("daemon.tenant.frames").is_none(),
        "tenant counters leaked into the global registry"
    );

    // Clean shutdown: the daemon exits and removes its socket.
    tempo(d, "client --socket tempod.sock --shutdown");
    let status = daemon.0.wait().unwrap();
    assert!(status.success(), "daemon exited {status}");
    assert!(!socket.exists(), "daemon left its socket behind");
    let _ = std::fs::remove_dir_all(&dir);
}
