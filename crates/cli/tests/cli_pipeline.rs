//! Integration tests driving the whole CLI pipeline through
//! `tempo_cli::run`, exactly as a shell user would.

#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test/demo code asserts by panicking

use std::path::PathBuf;

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tempo-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run(args: &[String]) -> Result<(), tempo_cli::CliError> {
    tempo_cli::run(args)
}

fn cmd(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

#[test]
fn full_pipeline_generate_profile_place_simulate() {
    let dir = workdir("full");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();

    run(&cmd(&[
        "generate",
        "--bench",
        "m88ksim",
        "--records",
        "20000",
        "--input",
        "train",
        "--program",
        &p("prog"),
        "--trace",
        &p("train"),
    ]))
    .expect("generate train");
    run(&cmd(&[
        "generate",
        "--bench",
        "m88ksim",
        "--records",
        "20000",
        "--input",
        "test",
        "--trace",
        &p("test"),
    ]))
    .expect("generate test");
    run(&cmd(&[
        "profile",
        "--program",
        &p("prog"),
        "--trace",
        &p("train"),
        "--out",
        &p("profile"),
    ]))
    .expect("profile");
    for alg in ["gbsc", "ph", "hkc", "default", "trg-chains", "wcg-offsets"] {
        run(&cmd(&[
            "place",
            "--program",
            &p("prog"),
            "--profile",
            &p("profile"),
            "--algorithm",
            alg,
            "--out",
            &p(&format!("{alg}.layout")),
        ]))
        .unwrap_or_else(|e| panic!("place {alg}: {e}"));
    }
    run(&cmd(&[
        "simulate",
        "--program",
        &p("prog"),
        "--layout",
        &p("gbsc.layout"),
        "--trace",
        &p("test"),
        "--classify",
    ]))
    .expect("simulate");
    run(&cmd(&[
        "trace-stats",
        "--program",
        &p("prog"),
        "--trace",
        &p("train"),
    ]))
    .expect("trace-stats");
    // The linter passes every algorithm's layout, with and without profile.
    for alg in ["gbsc", "ph", "hkc", "default"] {
        run(&cmd(&[
            "analyze",
            "--program",
            &p("prog"),
            "--layout",
            &p(&format!("{alg}.layout")),
            "--profile",
            &p("profile"),
            "--format",
            "json",
            "--deny",
            "warnings",
        ]))
        .unwrap_or_else(|e| panic!("analyze {alg}: {e}"));
    }
    run(&cmd(&[
        "analyze",
        "--program",
        &p("prog"),
        "--layout",
        &p("gbsc.layout"),
    ]))
    .expect("analyze without profile");
    run(&cmd(&[
        "compare",
        "--program",
        &p("prog"),
        "--train",
        &p("train"),
        "--test",
        &p("test"),
    ]))
    .expect("compare");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pair_db_profile_supports_sa_placement() {
    let dir = workdir("sa");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    run(&cmd(&[
        "generate",
        "--bench",
        "perl",
        "--records",
        "8000",
        "--program",
        &p("prog"),
        "--trace",
        &p("train"),
    ]))
    .expect("generate");
    run(&cmd(&[
        "profile",
        "--program",
        &p("prog"),
        "--trace",
        &p("train"),
        "--cache",
        "8192x32x2",
        "--pair-db",
        "--out",
        &p("profile"),
    ]))
    .expect("profile with pair db");
    run(&cmd(&[
        "place",
        "--program",
        &p("prog"),
        "--profile",
        &p("profile"),
        "--algorithm",
        "gbsc-sa",
        "--out",
        &p("sa.layout"),
    ]))
    .expect("gbsc-sa place");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn convert_roundtrip_and_streaming_match_materialized() {
    let dir = workdir("stream");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    run(&cmd(&[
        "generate",
        "--bench",
        "m88ksim",
        "--records",
        "12000",
        "--program",
        &p("prog"),
        "--trace",
        &p("train.v1"),
    ]))
    .expect("generate");

    // v1 -> v2 -> v1 round-trips byte-identically.
    run(&cmd(&[
        "convert",
        "--in",
        &p("train.v1"),
        "--out",
        &p("train.v2"),
        "--to",
        "v2",
    ]))
    .expect("convert to v2");
    run(&cmd(&[
        "convert",
        "--in",
        &p("train.v2"),
        "--out",
        &p("back.v1"),
        "--to",
        "v1",
    ]))
    .expect("convert back to v1");
    let original = std::fs::read(p("train.v1")).unwrap();
    let back = std::fs::read(p("back.v1")).unwrap();
    assert_eq!(original, back, "v1 -> v2 -> v1 must round-trip");
    let v2 = std::fs::read(p("train.v2")).unwrap();
    assert!(v2.len() < original.len(), "v2 varint frames are denser");

    // Streaming profile (from the v2 container) produces the identical
    // profile file to the materialized run on the v1 container.
    run(&cmd(&[
        "profile",
        "--program",
        &p("prog"),
        "--trace",
        &p("train.v1"),
        "--out",
        &p("materialized.profile"),
    ]))
    .expect("materialized profile");
    run(&cmd(&[
        "profile",
        "--program",
        &p("prog"),
        "--trace",
        &p("train.v2"),
        "--stream",
        "--out",
        &p("streamed.profile"),
    ]))
    .expect("streamed profile");
    assert_eq!(
        std::fs::read(p("materialized.profile")).unwrap(),
        std::fs::read(p("streamed.profile")).unwrap(),
        "streaming and materialized profiles must be byte-identical"
    );

    // Streaming simulate works against either container.
    run(&cmd(&[
        "place",
        "--program",
        &p("prog"),
        "--profile",
        &p("streamed.profile"),
        "--algorithm",
        "gbsc",
        "--out",
        &p("layout"),
    ]))
    .expect("place");
    run(&cmd(&[
        "simulate",
        "--program",
        &p("prog"),
        "--layout",
        &p("layout"),
        "--trace",
        &p("train.v2"),
        "--stream",
    ]))
    .expect("streamed simulate");

    // --max-memory refuses to materialize a trace over budget and points
    // at --stream; with --stream the same budget is satisfiable.
    let err = run(&cmd(&[
        "simulate",
        "--program",
        &p("prog"),
        "--layout",
        &p("layout"),
        "--trace",
        &p("train.v1"),
        "--max-memory",
        "0",
    ]))
    .unwrap_err();
    assert!(err.to_string().contains("--stream"), "{err}");
    run(&cmd(&[
        "simulate",
        "--program",
        &p("prog"),
        "--layout",
        &p("layout"),
        "--trace",
        &p("train.v1"),
        "--max-memory",
        "0",
        "--stream",
    ]))
    .expect("streaming satisfies any budget");

    // --classify with --stream must come back as a structured usage
    // error, never a panic (regression: the classify branch used to
    // `expect` a materialized trace).
    let err = run(&cmd(&[
        "simulate",
        "--program",
        &p("prog"),
        "--layout",
        &p("layout"),
        "--trace",
        &p("train.v2"),
        "--stream",
        "--classify",
    ]))
    .unwrap_err();
    assert!(matches!(err, tempo_cli::CliError::Usage(_)), "{err}");
    assert!(err.to_string().contains("--classify"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lossy_streaming_recovers_corrupt_v2_frames() {
    let dir = workdir("lossyv2");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    run(&cmd(&[
        "generate",
        "--bench",
        "m88ksim",
        "--records",
        "9000",
        "--program",
        &p("prog"),
        "--trace",
        &p("train.v1"),
    ]))
    .expect("generate");
    run(&cmd(&[
        "convert",
        "--in",
        &p("train.v1"),
        "--out",
        &p("train.v2"),
        "--to",
        "v2",
        "--frame-records",
        "500",
    ]))
    .expect("convert");

    // Flip a payload byte mid-file: one frame's CRC breaks.
    let mut bytes = std::fs::read(p("train.v2")).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(p("corrupt.v2"), &bytes).unwrap();

    // Strict reading rejects it; lossy profiles what survives.
    assert!(run(&cmd(&[
        "profile",
        "--program",
        &p("prog"),
        "--trace",
        &p("corrupt.v2"),
        "--stream",
        "--out",
        &p("strict.profile"),
    ]))
    .is_err());
    run(&cmd(&[
        "profile",
        "--program",
        &p("prog"),
        "--trace",
        &p("corrupt.v2"),
        "--stream",
        "--lossy",
        "--out",
        &p("lossy.profile"),
    ]))
    .expect("lossy streaming profile survives a corrupt frame");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gbsc_sa_without_its_inputs_is_a_usage_error() {
    let dir = workdir("sa-usage");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    run(&cmd(&[
        "generate",
        "--bench",
        "perl",
        "--records",
        "4000",
        "--program",
        &p("prog"),
        "--trace",
        &p("train"),
    ]))
    .expect("generate");
    let usage = |args: &[&str]| match run(&cmd(args)) {
        Err(tempo_cli::CliError::Usage(message)) => message,
        other => panic!("expected a usage error from {args:?}, got {other:?}"),
    };
    // `place` on a direct-mapped profile, and on a 2-way profile made
    // without `--pair-db`.
    for (cache, want) in [
        ("8192x32x1", "set-associative"),
        ("8192x32x2", "pair database"),
    ] {
        run(&cmd(&[
            "profile",
            "--program",
            &p("prog"),
            "--trace",
            &p("train"),
            "--cache",
            cache,
            "--out",
            &p("profile"),
        ]))
        .expect("profile");
        let message = usage(&[
            "place",
            "--program",
            &p("prog"),
            "--profile",
            &p("profile"),
            "--algorithm",
            "gbsc-sa",
            "--out",
            &p("sa.layout"),
        ]);
        assert!(message.contains(want), "{message}");
    }
    // `engine` never builds a pair database.
    let message = usage(&[
        "engine",
        "--program",
        &p("prog"),
        "--trace",
        &p("train"),
        "--cache",
        "8192x32x2",
        "--algorithm",
        "gbsc-sa",
        "--out",
        &p("engine.layout"),
    ]);
    assert!(message.contains("pair database"), "{message}");
    // Nor do tempod's tenant engines: the daemon refuses to start.
    let message = usage(&[
        "daemon",
        "--socket",
        &p("tempod.sock"),
        "--cache",
        "8192x32x2",
        "--algorithm",
        "gbsc-sa",
    ]);
    assert!(message.contains("pair database"), "{message}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_range_numeric_flags_are_usage_errors() {
    let dir = workdir("ranges");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (prog, train, out, sock) = (p("prog"), p("train"), p("out"), p("tempod.sock"));
    run(&cmd(&[
        "generate",
        "--bench",
        "perl",
        "--records",
        "4000",
        "--program",
        &prog,
        "--trace",
        &train,
    ]))
    .expect("generate");
    for (command, flag, value) in [
        ("profile", "--coverage", "2"),
        ("profile", "--coverage", "-1"),
        ("profile", "--coverage", "nan"),
        ("profile", "--shards", "2"),
        ("engine", "--coverage", "2"),
        ("engine", "--coverage", "-1"),
        ("engine", "--coverage", "nan"),
        ("engine", "--replace-threshold", "nan"),
        ("daemon", "--coverage", "2"),
        ("daemon", "--coverage", "-1"),
        ("daemon", "--coverage", "nan"),
        ("daemon", "--replace-threshold", "nan"),
        ("daemon", "--queue", "1000000000"),
        ("trace-stats", "--window", "0"),
    ] {
        let mut args = match command {
            "profile" | "engine" => {
                vec![
                    command,
                    "--program",
                    &prog,
                    "--trace",
                    &train,
                    "--out",
                    &out,
                ]
            }
            "daemon" => vec![command, "--socket", &sock],
            _ => vec![command, "--program", &prog, "--trace", &train],
        };
        args.extend([flag, value]);
        match run(&cmd(&args)) {
            Err(tempo_cli::CliError::Usage(message)) => {
                assert!(message.contains(flag), "{args:?}: {message}");
            }
            other => panic!("expected a usage error from {args:?}, got {other:?}"),
        }
    }
    // The daemon refused at startup, before binding its socket.
    assert!(!std::path::Path::new(&sock).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_are_reported() {
    assert!(run(&[]).is_err());
    assert!(run(&cmd(&["frobnicate"])).is_err());
    assert!(run(&cmd(&["generate"])).is_err(), "missing --bench");
    assert!(run(&cmd(&["generate", "--bench", "nope", "--trace", "/tmp/x"])).is_err());
    // Unknown flags are rejected, not ignored.
    let dir = workdir("flags");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let err = run(&cmd(&[
        "generate",
        "--bench",
        "perl",
        "--trace",
        &p("t"),
        "--recrods",
        "5",
    ]))
    .unwrap_err();
    assert!(err.to_string().contains("recrods"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_succeeds() {
    run(&cmd(&["help"])).expect("help");
}

#[test]
fn inconsistent_inputs_are_detected() {
    let dir = workdir("inconsistent");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    // Program from perl, trace from go: go's trace references ids beyond
    // perl's 271 procedures.
    run(&cmd(&[
        "generate",
        "--bench",
        "perl",
        "--records",
        "2000",
        "--program",
        &p("perl.procs"),
        "--trace",
        &p("perl.trace"),
    ]))
    .expect("generate perl");
    run(&cmd(&[
        "generate",
        "--bench",
        "go",
        "--records",
        "2000",
        "--trace",
        &p("go.trace"),
    ]))
    .expect("generate go");
    let err = run(&cmd(&[
        "trace-stats",
        "--program",
        &p("perl.procs"),
        "--trace",
        &p("go.trace"),
    ]))
    .unwrap_err();
    assert!(err.to_string().contains("inconsistent"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_fails_on_corrupt_layout() {
    let dir = workdir("lint");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    run(&cmd(&[
        "generate",
        "--bench",
        "m88ksim",
        "--records",
        "2000",
        "--program",
        &p("prog"),
        "--trace",
        &p("train"),
    ]))
    .expect("generate");

    // An overlapping layout, written through the real layout format.
    let program = {
        let f = std::fs::File::open(p("prog")).expect("open program");
        tempo::program::io::read_program(std::io::BufReader::new(f)).expect("read program")
    };
    let mut addrs: Vec<u64> = Vec::new();
    let mut at = 0u64;
    for id in program.ids() {
        addrs.push(at);
        at += u64::from(program.size_of(id));
    }
    addrs[1] = addrs[0] + 1; // overlap the first two procedures
    let corrupt = tempo::program::Layout::from_addresses(addrs);
    let f = std::fs::File::create(p("bad.layout")).expect("create layout");
    tempo::program::io::write_layout(std::io::BufWriter::new(f), &corrupt).expect("write layout");

    let err = run(&cmd(&[
        "analyze",
        "--program",
        &p("prog"),
        "--layout",
        &p("bad.layout"),
    ]))
    .unwrap_err();
    match err {
        tempo_cli::CliError::Diagnostics { errors, .. } => assert!(errors >= 1),
        other => panic!("expected failing diagnostics, got: {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_out_writes_parseable_snapshot_and_stats_renders_it() {
    let dir = workdir("obs");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();

    run(&cmd(&[
        "generate",
        "--bench",
        "m88ksim",
        "--records",
        "10000",
        "--input",
        "train",
        "--program",
        &p("prog"),
        "--trace",
        &p("train"),
    ]))
    .expect("generate");
    run(&cmd(&[
        "profile",
        "--program",
        &p("prog"),
        "--trace",
        &p("train"),
        "--out",
        &p("profile"),
        "--metrics-out",
        &p("metrics.json"),
    ]))
    .expect("profile with --metrics-out");

    // The snapshot parses back losslessly and carries the pipeline
    // vocabulary. The registry is process-global (other tests in this
    // binary contribute too), so assert lower bounds, not equality.
    let body = std::fs::read_to_string(p("metrics.json")).expect("metrics file");
    let snap = tempo_obs::Snapshot::parse_json(&body).expect("snapshot JSON parses");
    assert!(snap.counter("trace.records_read").unwrap_or(0) >= 10_000);
    assert!(snap.counter("profile.records").unwrap_or(0) >= 10_000);
    assert!(
        snap.get("stage.profile").is_some(),
        "stage timing histogram missing"
    );

    // `stats` renders the same file without error.
    run(&cmd(&["stats", "--metrics", &p("metrics.json")])).expect("stats");

    // A non-.json path gets the aligned text rendering.
    run(&cmd(&[
        "simulate",
        "--program",
        &p("prog"),
        "--layout",
        &p("id.layout"),
        "--trace",
        &p("train"),
        "--metrics-out",
        &p("metrics.txt"),
    ]))
    .err(); // layout file absent: command fails, flag parsing must not
    run(&cmd(&[
        "place",
        "--program",
        &p("prog"),
        "--profile",
        &p("profile"),
        "--algorithm",
        "default",
        "--out",
        &p("id.layout"),
        "--metrics-out",
        &p("metrics.txt"),
    ]))
    .expect("place with text metrics");
    let text = std::fs::read_to_string(p("metrics.txt")).expect("text metrics");
    assert!(text.contains("place.runs"), "text rendering: {text}");

    // An unknown --log-format value is a usage error before dispatch.
    let err = run(&cmd(&["help", "--log-format", "yaml"])).unwrap_err();
    assert!(matches!(err, tempo_cli::CliError::Usage(_)));

    let _ = std::fs::remove_dir_all(&dir);
}

/// The observability contract (DESIGN.md §11), through the binary so
/// stderr is the command's own: under `--log-format json` every event
/// line is one JSON object naming its `stage` and `event`, and each
/// stage's `--metrics-out` snapshot declares schema 1 and carries that
/// stage's counters and span timings, which `stats` renders.
#[test]
fn json_events_and_stage_snapshots_are_schema_stable() {
    use tempo_obs::json::Json;

    let dir = workdir("obs-json");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    // Runs `tempo-cli line --log-format json`; returns (stdout, stderr).
    let tempo = |line: String| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tempo-cli"))
            .args(line.split_whitespace())
            .args(["--log-format", "json"])
            .output()
            .expect("tempo-cli starts");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(out.status.success(), "tempo-cli {line}: {stderr}");
        (String::from_utf8(out.stdout).unwrap(), stderr)
    };
    let pipeline = [
        format!(
            "generate --bench m88ksim --records 20000 --input train --program {} --trace {}",
            p("m.procs"),
            p("m.trace")
        ),
        format!(
            "profile --program {} --trace {} --out {} --metrics-out {}",
            p("m.procs"),
            p("m.trace"),
            p("m.profile"),
            p("metrics-profile.json")
        ),
        format!(
            "place --program {} --profile {} --algorithm gbsc --out {} --metrics-out {}",
            p("m.procs"),
            p("m.profile"),
            p("m.layout"),
            p("metrics-place.json")
        ),
        format!(
            "simulate --program {} --trace {} --layout {} --metrics-out {}",
            p("m.procs"),
            p("m.trace"),
            p("m.layout"),
            p("metrics.json")
        ),
    ];
    let events: String = pipeline.into_iter().map(|line| tempo(line).1).collect();

    let mut seen = 0;
    for line in events.lines().map(str::trim).filter(|l| l.starts_with('{')) {
        let obj = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert!(
            obj.get("stage").is_some() && obj.get("event").is_some(),
            "{line}"
        );
        seen += 1;
    }
    assert!(seen >= 4, "expected >= 4 JSON event lines, saw {seen}");

    let load = |name: &str, keys: &[&str]| {
        let body = std::fs::read_to_string(p(name)).unwrap();
        let doc = Json::parse(&body).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_f64),
            Some(1.0),
            "{name}"
        );
        let snap = tempo_obs::Snapshot::parse_json(&body).unwrap();
        for key in keys {
            assert!(snap.get(key).is_some(), "{name} missing {key}");
        }
        snap
    };
    load(
        "metrics-profile.json",
        &[
            "trace.records_read",
            "profile.records",
            "profile.wcg_edges",
            "stage.profile",
        ],
    );
    load(
        "metrics-place.json",
        &["place.runs", "place.work_spent", "stage.place"],
    );
    let sim = load(
        "metrics.json",
        &["sim.accesses", "sim.misses", "stage.simulate"],
    );
    assert!(matches!(
        sim.get("stage.simulate"),
        Some(tempo_obs::MetricValue::Histogram(_))
    ));
    assert!(matches!(
        sim.get("sim.misses"),
        Some(tempo_obs::MetricValue::Counter(_))
    ));

    let (rendered, _) = tempo(format!("stats --metrics {}", p("metrics.json")));
    assert!(rendered.contains("sim.misses"), "stats output: {rendered}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `tempo-bench run-all` attributes each experiment's counter deltas into
/// its run record: a record with no trace/profile/place/sim metrics means
/// the pipeline's instrumentation went dark.
#[test]
fn bench_run_record_carries_pipeline_metrics() {
    use tempo_bench::harness::{run_all, RunAllOpts, RunAllReport};

    let dir = workdir("obs-bench");
    let record = dir.join("BENCH_obs.json");
    let report = run_all(&RunAllOpts {
        records: Some(20_000),
        runs: Some(8),
        jobs: 1,
        out_dir: dir.join("results-obs"),
        bench_json: Some(record.clone()),
        only: Some(vec!["fig1_motivation".to_string()]),
        ..RunAllOpts::default()
    })
    .unwrap();
    assert!(report.all_ok(), "{report:?}");

    let parsed = RunAllReport::from_json(&std::fs::read_to_string(&record).unwrap()).unwrap();
    assert!(
        !parsed.experiments.is_empty(),
        "no experiments in the record"
    );
    for exp in &parsed.experiments {
        let pipeline = exp
            .metrics
            .iter()
            .filter(|(k, _)| {
                matches!(
                    k.split('.').next(),
                    Some("trace" | "profile" | "place" | "sim")
                )
            })
            .count();
        assert!(
            pipeline > 0,
            "{}: no pipeline metrics in {:?}",
            exp.name,
            exp.metrics
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
