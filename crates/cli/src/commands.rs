//! The CLI subcommand implementations.

use std::fs::File;
use std::io::{BufRead as _, BufReader, BufWriter, Write as _};
use std::path::Path;

use tempo::cache::classify;
use tempo::place::algorithm_for;
use tempo::prelude::*;
use tempo::trace::analysis::{reuse_distances, working_set_sizes};
use tempo::trace::io::{ReadMode, TraceIoError, V1Source, V1Writer};
use tempo::trace::v2::{V2Source, V2Writer, DEFAULT_FRAME_RECORDS, MAGIC_V2};
use tempo::trg::io::{read_profile, write_profile};
use tempo::workloads::suite;

use crate::args::ArgMap;
use crate::CliError;

fn open(path: &str) -> Result<BufReader<File>, CliError> {
    Ok(BufReader::new(File::open(Path::new(path))?))
}

fn create(path: &str) -> Result<BufWriter<File>, CliError> {
    Ok(BufWriter::new(File::create(Path::new(path))?))
}

fn load_program(args: &ArgMap) -> Result<Program, CliError> {
    let path = args.require("program")?;
    tempo::program::io::read_program(open(path)?).map_err(|e| CliError::parse("program", e))
}

/// Resolves the `--lossy` / `--strict` switches into a [`ReadMode`]
/// (strict is the default; giving both is a usage error).
fn trace_read_mode(args: &ArgMap) -> Result<ReadMode, CliError> {
    let lossy = args.switch("lossy");
    let strict = args.switch("strict");
    if lossy && strict {
        return Err(CliError::Usage(
            "--lossy and --strict are mutually exclusive".to_string(),
        ));
    }
    Ok(if lossy {
        ReadMode::Lossy
    } else {
        ReadMode::Strict
    })
}

/// A trace source over an open file, either container format.
///
/// Strict mode optionally carries the program so records are validated as
/// they stream past (the streaming analogue of [`Trace::validate`]); lossy
/// sources repair against the program at the format layer instead.
enum FileSource<'p> {
    V1 {
        source: V1Source<'p, BufReader<File>>,
        validate: Option<&'p Program>,
        index: u64,
    },
    V2 {
        source: V2Source<'p, BufReader<File>>,
        validate: Option<&'p Program>,
        index: u64,
    },
}

impl TraceSource for FileSource<'_> {
    fn try_next(&mut self) -> Result<Option<TraceRecord>, TraceIoError> {
        let (next, validate, index) = match self {
            FileSource::V1 {
                source,
                validate,
                index,
            } => (source.try_next()?, *validate, index),
            FileSource::V2 {
                source,
                validate,
                index,
            } => (source.try_next()?, *validate, index),
        };
        if let (Some(r), Some(program)) = (&next, validate) {
            if !r.fits(program) {
                return Err(TraceIoError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("trace record {index} does not fit the program"),
                )));
            }
        }
        *index += 1;
        Ok(next)
    }

    fn warnings(&self) -> TraceWarnings {
        match self {
            FileSource::V1 { source, .. } => source.warnings(),
            FileSource::V2 { source, .. } => source.warnings(),
        }
    }

    fn expected_records(&self) -> Option<u64> {
        match self {
            FileSource::V1 { source, .. } => source.expected_records(),
            FileSource::V2 { source, .. } => source.expected_records(),
        }
    }
}

/// Opens a trace file as a streaming source, sniffing the container format
/// from the magic bytes (`TMPO` = v1, `TMP2` = v2). Lossy sources repair
/// against `program` when one is given, structurally otherwise; no
/// program-fit validation is attached (see [`open_file_source`]).
fn open_raw_source<'p>(
    path: &str,
    program: Option<&'p Program>,
    mode: ReadMode,
) -> Result<FileSource<'p>, TraceIoError> {
    let mut r = BufReader::new(File::open(Path::new(path))?);
    // Peek without consuming; the constructors re-read the magic.
    let head = r.fill_buf()?;
    let is_v2 = head.len() >= 4 && head[0..4] == MAGIC_V2;
    Ok(match (is_v2, mode) {
        (false, ReadMode::Strict) => FileSource::V1 {
            source: V1Source::new(r)?,
            validate: None,
            index: 0,
        },
        (false, ReadMode::Lossy) => FileSource::V1 {
            source: V1Source::new_lossy(r, program)?,
            validate: None,
            index: 0,
        },
        (true, ReadMode::Strict) => FileSource::V2 {
            source: V2Source::new(r)?,
            validate: None,
            index: 0,
        },
        (true, ReadMode::Lossy) => FileSource::V2 {
            source: V2Source::new_lossy(r, program)?,
            validate: None,
            index: 0,
        },
    })
}

/// Opens a trace file for a command that interprets it against `program`:
/// strict mode attaches streaming program-fit validation (the analogue of
/// [`Trace::validate`]); lossy mode repairs at the source instead.
fn open_file_source<'p>(
    path: &str,
    program: &'p Program,
    mode: ReadMode,
) -> Result<FileSource<'p>, TraceIoError> {
    let mut source = open_raw_source(path, Some(program), mode)?;
    if matches!(mode, ReadMode::Strict) {
        let v = match &mut source {
            FileSource::V1 { validate, .. } | FileSource::V2 { validate, .. } => validate,
        };
        *v = Some(program);
    }
    Ok(source)
}

/// Enforces the `--max-memory` budget (in MB) before a trace is
/// materialized: the declared record count must fit, and a v2 stream
/// (which declares no count) always requires `--stream`.
fn check_memory_budget(args: &ArgMap, source: &FileSource<'_>, flag: &str) -> Result<(), CliError> {
    let Some(mb) = args.get_parsed::<u64>("max-memory")? else {
        return Ok(());
    };
    let budget = mb.saturating_mul(1024 * 1024);
    let record_size = std::mem::size_of::<TraceRecord>() as u64;
    match source.expected_records() {
        Some(n) if n.saturating_mul(record_size) <= budget => Ok(()),
        Some(n) => Err(CliError::Usage(format!(
            "materializing {n} records needs ~{} MB, over the --max-memory {mb} MB budget; \
             rerun with --stream",
            (n.saturating_mul(record_size)).div_ceil(1024 * 1024),
        ))),
        None => Err(CliError::Usage(format!(
            "--{flag} is a v2 stream with no declared record count; \
             --max-memory requires --stream to bound memory"
        ))),
    }
}

/// Maps a streaming-read failure to the CLI error taxonomy: program-fit
/// violations (raised by [`FileSource`]'s validator as `InvalidData`) are
/// *inconsistent inputs*, everything else is a trace parse failure.
fn trace_cli_error(e: TraceIoError) -> CliError {
    if let TraceIoError::Io(io) = &e {
        if io.kind() == std::io::ErrorKind::InvalidData {
            return CliError::Inconsistent(io.to_string());
        }
    }
    CliError::parse("trace", e)
}

fn load_trace(
    args: &ArgMap,
    flag: &str,
    program: &Program,
    mode: ReadMode,
) -> Result<Trace, CliError> {
    let path = args.require(flag)?;
    let mut source = open_file_source(path, program, mode).map_err(trace_cli_error)?;
    check_memory_budget(args, &source, flag)?;
    let mut trace = Trace::new();
    let summary = pump(&mut source, &mut trace).map_err(trace_cli_error)?;
    match mode {
        ReadMode::Strict => {
            // Streaming validation already rejected non-fitting records.
            Ok(trace)
        }
        ReadMode::Lossy => {
            // The recovering reader drops or repairs whatever disagrees
            // with the program, so the result needs no re-validation.
            if !summary.warnings.is_clean() {
                eprintln!(
                    "tempo-cli: warning: --{flag} {path}: recovered ({})",
                    summary.warnings
                );
            }
            Ok(trace)
        }
    }
}

/// Writes a snapshot of the global metric registry to `path`: JSON when the
/// path ends in `.json`, the aligned text rendering otherwise. Backs the
/// global `--metrics-out` flag.
pub fn write_metrics(path: &str) -> Result<(), CliError> {
    let snap = tempo_obs::snapshot();
    let body = if path.ends_with(".json") {
        snap.render_json()
    } else {
        snap.render_text()
    };
    std::fs::write(Path::new(path), body)?;
    Ok(())
}

/// `stats`: render a `--metrics-out` JSON snapshot as the text summary.
pub fn stats(args: &ArgMap) -> Result<(), CliError> {
    let path = args.require("metrics")?.to_string();
    args.finish()?;
    let body = std::fs::read_to_string(Path::new(&path))?;
    let snap = tempo_obs::Snapshot::parse_json(&body).map_err(|e| {
        CliError::parse(
            "metrics",
            std::io::Error::new(std::io::ErrorKind::InvalidData, e),
        )
    })?;
    print!("{}", snap.render_text());
    Ok(())
}

fn load_layout(args: &ArgMap, program: &Program) -> Result<Layout, CliError> {
    let path = args.require("layout")?;
    let layout =
        tempo::program::io::read_layout(open(path)?).map_err(|e| CliError::parse("layout", e))?;
    layout
        .validate(program)
        .map_err(|e| CliError::Inconsistent(format!("layout does not fit the program: {e}")))?;
    Ok(layout)
}

/// `generate`: synthesize a benchmark program and/or trace.
pub fn generate(args: &ArgMap) -> Result<(), CliError> {
    let bench = args.require("bench")?.to_string();
    let records: usize = args.get_or("records", 200_000)?;
    let input = args.get("input").unwrap_or("train").to_string();
    let seed: Option<u64> = args.get_parsed("seed")?;
    let program_out = args.get("program").map(str::to_string);
    let trace_out = args.get("trace").map(str::to_string);
    args.finish()?;

    let model = suite::standard_suite()
        .into_iter()
        .find(|m| m.name() == bench)
        .ok_or_else(|| {
            CliError::Usage(format!(
                "unknown benchmark `{bench}` (expected one of gcc, go, ghostscript, m88ksim, perl, vortex)"
            ))
        })?;

    if let Some(path) = &program_out {
        tempo::program::io::write_program(create(path)?, model.program())
            .map_err(|e| CliError::parse("program", e))?;
        println!(
            "wrote {path}: {} procedures, {} bytes",
            model.program().len(),
            model.program().total_size()
        );
    }
    if let Some(path) = &trace_out {
        let mut spec = match input.as_str() {
            "train" => model.training_input(),
            "test" => model.testing_input(),
            other => {
                return Err(CliError::Usage(format!(
                    "--input must be train or test, got `{other}`"
                )))
            }
        };
        if let Some(seed) = seed {
            spec.seed = seed;
        }
        let trace = model.trace(&spec, records);
        tempo::trace::io::write_binary(create(path)?, &trace)
            .map_err(|e| CliError::parse("trace", e))?;
        println!("wrote {path}: {} records ({input} input)", trace.len());
        tempo_obs::event(
            "generate",
            "trace written",
            &[
                ("bench", bench.as_str().into()),
                ("records", trace.len().into()),
                ("path", path.as_str().into()),
            ],
        );
    }
    if program_out.is_none() && trace_out.is_none() {
        return Err(CliError::Usage(
            "generate needs --program and/or --trace output paths".to_string(),
        ));
    }
    Ok(())
}

/// `profile`: build WCG + TRGs (+ optional pair database) from a trace.
///
/// With `--stream` the trace is never materialized: the profiler makes two
/// streaming passes over the file (popularity, then the Q-pass) in
/// O(#procedures) memory, producing the identical profile.
pub fn profile(args: &ArgMap) -> Result<(), CliError> {
    let program = load_program(args)?;
    let mode = trace_read_mode(args)?;
    let stream = args.switch("stream");
    let cache = args.cache()?;
    let coverage: f64 = args.get_or("coverage", 0.995)?;
    let pair_db = args.switch("pair-db");
    let out = args.require("out")?.to_string();
    if !(0.0..=1.0).contains(&coverage) {
        return Err(CliError::Usage(format!(
            "--coverage must be within [0, 1], got {coverage}"
        )));
    }
    let selector = PopularitySelector::coverage(coverage).with_min_count(2);

    let span = tempo_obs::span("stage.profile");
    let profile = if stream {
        let path = args.require("trace")?.to_string();
        // Consume --max-memory if given: streaming satisfies any budget.
        let _ = args.get_parsed::<u64>("max-memory")?;
        args.finish()?;
        let open_pass = || open_file_source(&path, &program, mode);
        let popular = selector
            .select_source(&program, open_pass().map_err(trace_cli_error)?)
            .map_err(trace_cli_error)?;
        let mut q_pass = open_pass().map_err(trace_cli_error)?;
        let (profile, _) = Profiler::new(&program, cache)
            .popularity(selector)
            .with_pair_db(pair_db)
            .with_popular(popular)
            .profile_source(&mut q_pass)
            .map_err(trace_cli_error)?;
        let warnings = q_pass.warnings();
        if !warnings.is_clean() {
            eprintln!("tempo-cli: warning: --trace {path}: recovered ({warnings})");
        }
        profile
    } else {
        let trace = load_trace(args, "trace", &program, mode)?;
        args.finish()?;
        Profiler::new(&program, cache)
            .popularity(selector)
            .with_pair_db(pair_db)
            .profile(&trace)
    };
    span.finish();
    write_profile(create(&out)?, &profile).map_err(|e| CliError::parse("profile", e))?;
    tempo_obs::event(
        "profile",
        "profile written",
        &[
            ("popular", profile.popular.count().into()),
            ("wcg_edges", profile.wcg.edge_count().into()),
            ("trg_select_edges", profile.trg_select.edge_count().into()),
            ("trg_place_edges", profile.trg_place.edge_count().into()),
            ("avg_q", profile.q_stats.average.into()),
        ],
    );
    println!(
        "wrote {out}: {} popular procedures, WCG {} edges, TRG_select {} edges, TRG_place {} edges, avg Q {:.1}",
        profile.popular.count(),
        profile.wcg.edge_count(),
        profile.trg_select.edge_count(),
        profile.trg_place.edge_count(),
        profile.q_stats.average
    );
    Ok(())
}

/// `place`: run a placement algorithm against a saved profile.
pub fn place(args: &ArgMap) -> Result<(), CliError> {
    let program = load_program(args)?;
    let profile_path = args.require("profile")?.to_string();
    let name = args.require("algorithm")?.to_string();
    let out = args.require("out")?.to_string();
    let map_out = args.get("map").map(str::to_string);
    let budget_ms: Option<u64> = args.get_parsed("budget-ms")?;
    let budget_work: Option<u64> = args.get_parsed("budget-work")?;
    args.finish()?;

    let profile = read_profile(open(&profile_path)?).map_err(|e| CliError::parse("profile", e))?;
    if profile.popular.len() != program.len() {
        return Err(CliError::Inconsistent(format!(
            "profile covers {} procedures, program has {}",
            profile.popular.len(),
            program.len()
        )));
    }
    let algorithm =
        algorithm_for(&name, profile.cache, profile.pair_db.is_some()).map_err(CliError::Usage)?;
    let session = tempo::ProfiledSession::from_profile(&program, profile);
    let budget = Budget {
        max_work_units: budget_work,
        deadline: budget_ms.map(std::time::Duration::from_millis),
    };
    let (layout, degradation) = session.place_budgeted(&*algorithm, budget);
    if degradation.is_degraded() {
        eprintln!("tempo-cli: warning: {degradation}");
    }
    layout
        .validate(&program)
        .map_err(|e| CliError::Inconsistent(format!("algorithm produced invalid layout: {e}")))?;
    tempo::program::io::write_layout(create(&out)?, &layout)
        .map_err(|e| CliError::parse("layout", e))?;
    tempo_obs::event(
        "place",
        "layout written",
        &[
            ("algorithm", degradation.ran.as_str().into()),
            ("work_spent", degradation.work_spent.into()),
            ("degraded", u64::from(degradation.is_degraded()).into()),
        ],
    );
    println!(
        "wrote {out}: {} layout, span {} bytes ({} padding)",
        degradation.ran,
        layout.span(&program),
        layout.padding(&program)
    );
    if let Some(path) = map_out {
        // A linker-script-style symbol map: one `name address` per line in
        // address order, consumable by external tooling (e.g. to derive a
        // GNU ld --symbol-ordering-file or a lld call).
        use std::io::Write as _;
        let mut w = create(&path)?;
        writeln!(
            w,
            "# tempo layout map: {} on {} procedures",
            degradation.ran,
            program.len()
        )?;
        for (name, addr) in tempo::program::io::layout_map(&program, &layout) {
            writeln!(w, "{name} 0x{addr:x}")?;
        }
        println!("wrote {path}: symbol map in address order");
    }
    Ok(())
}

/// `engine`: drive the incremental epoch engine over a trace — decaying
/// profile window, drift-triggered re-placement — writing the final
/// adopted layout (and optionally a per-epoch CSV).
///
/// With `--decay 1.0` and `--epoch-records` at least the trace length the
/// run degenerates to the one-shot pipeline: the layout written is
/// byte-identical to `profile` + `place` with the same algorithm.
pub fn engine(args: &ArgMap) -> Result<(), CliError> {
    let program = load_program(args)?;
    let mode = trace_read_mode(args)?;
    let cache = args.cache()?;
    // The engine builds no pair database.
    let algorithm = algorithm_for(args.get("algorithm").unwrap_or("gbsc"), cache, false)
        .map_err(CliError::Usage)?;
    let coverage: f64 = args.get_or("coverage", 0.995)?;
    let epoch_records: u64 = args.get_or("epoch-records", 100_000)?;
    let decay: f64 = args.get_or("decay", 1.0)?;
    let replace_threshold: f64 = args.get_or("replace-threshold", 0.02)?;
    let evaluate = args.switch("evaluate");
    let trace_path = args.require("trace")?.to_string();
    let out = args.require("out")?.to_string();
    let epochs_out = args.get("epochs-out").map(str::to_string);
    args.finish()?;
    tempo::check_engine_settings(coverage, epoch_records, decay, replace_threshold)
        .map_err(CliError::Usage)?;

    let mut config = tempo::EngineConfig::new(cache);
    config.selector = PopularitySelector::coverage(coverage).with_min_count(2);
    config.epoch_records = epoch_records;
    config.decay = decay;
    config.replace_threshold = replace_threshold;
    config.evaluate = evaluate || epochs_out.is_some();

    // Frame-aligned epoch plan for v2 containers; v1 traces chunk by plain
    // record count.
    let plan = {
        let mut r = open(&trace_path)?;
        let head = r.fill_buf()?;
        if head.len() >= 4 && head[0..4] == MAGIC_V2 {
            let frames = tempo::trace::v2::scan_frames(r).map_err(trace_cli_error)?;
            Some(tempo::plan_epochs(&frames, epoch_records))
        } else {
            None
        }
    };

    let span = tempo_obs::span("stage.engine");
    let mut engine = tempo::Engine::new(&program, &*algorithm, config);
    let source = open_file_source(&trace_path, &program, mode).map_err(trace_cli_error)?;
    let reports = match &plan {
        Some(plan) => engine.run_planned(source, plan),
        None => engine.run_source(source),
    }
    .map_err(trace_cli_error)?;
    span.finish();

    let Some(layout) = engine.layout() else {
        return Err(CliError::Inconsistent(
            "trace produced no epochs; no layout to write".to_string(),
        ));
    };
    layout
        .validate(&program)
        .map_err(|e| CliError::Inconsistent(format!("engine produced invalid layout: {e}")))?;
    tempo::program::io::write_layout(create(&out)?, layout)
        .map_err(|e| CliError::parse("layout", e))?;

    if let Some(path) = &epochs_out {
        let mut w = create(path)?;
        writeln!(
            w,
            "epoch,records,current_hi,fresh_hi,improvement,placed,replaced,misses,instructions,miss_rate"
        )?;
        for r in &reports {
            let (misses, instructions, rate) = match &r.stats {
                Some(s) => (
                    s.misses.to_string(),
                    s.instructions.to_string(),
                    format!("{:.6}", s.miss_rate()),
                ),
                None => (String::new(), String::new(), String::new()),
            };
            writeln!(
                w,
                "{},{},{},{},{:.6},{},{},{},{},{}",
                r.epoch,
                r.records,
                r.current_hi,
                r.fresh_hi,
                r.improvement,
                u8::from(r.placed),
                u8::from(r.replaced),
                misses,
                instructions,
                rate
            )?;
        }
    }

    let replacements = reports.iter().filter(|r| r.replaced).count();
    let skips = reports.iter().filter(|r| !r.placed).count();
    tempo_obs::event(
        "engine",
        "engine run complete",
        &[
            ("epochs", reports.len().into()),
            ("replacements", replacements.into()),
            ("drift_skips", skips.into()),
            ("decay", decay.into()),
        ],
    );
    println!(
        "wrote {out}: {} epochs, {} replacements, {} drift skips, span {} bytes",
        reports.len(),
        replacements,
        skips,
        layout.span(&program)
    );
    if let Some(path) = &epochs_out {
        println!("wrote {path}: per-epoch report");
    }
    Ok(())
}

/// `simulate`: miss-simulate a layout against a trace.
///
/// With `--stream` the trace drives the simulator in one constant-memory
/// pass (statistics are identical to the materialized run); `--classify`
/// needs the materialized trace and is rejected in that mode.
pub fn simulate(args: &ArgMap) -> Result<(), CliError> {
    let program = load_program(args)?;
    let layout = load_layout(args, &program)?;
    let mode = trace_read_mode(args)?;
    let stream = args.switch("stream");
    let cache = args.cache()?;
    let want_classify = args.switch("classify");

    if stream && want_classify {
        return Err(CliError::Usage(
            "--classify requires a materialized trace; drop --stream".to_string(),
        ));
    }
    let span = tempo_obs::span("stage.simulate");
    let path = args.require("trace")?.to_string();
    let trace = if stream {
        let _ = args.get_parsed::<u64>("max-memory")?;
        None
    } else {
        Some(load_trace(args, "trace", &program, mode)?)
    };
    args.finish()?;
    // One simulation call: a materialized trace streams from memory, a
    // `--stream` trace straight from the file.
    let mut memory;
    let mut file;
    let source: &mut dyn TraceSource = match &trace {
        Some(trace) => {
            memory = MemorySource::new(trace);
            &mut memory
        }
        None => {
            file = open_file_source(&path, &program, mode).map_err(trace_cli_error)?;
            &mut file
        }
    };
    let stats = tempo::cache::simulate_layouts_streamed(
        &program,
        std::slice::from_ref(&layout),
        &mut *source,
        cache,
    )
    .map_err(trace_cli_error)?[0];
    let warnings = source.warnings();
    if !warnings.is_clean() {
        eprintln!("tempo-cli: warning: --trace {path}: recovered ({warnings})");
    }
    span.finish();
    println!(
        "{} records, {} line accesses, {} instructions",
        stats.records, stats.accesses, stats.instructions
    );
    println!(
        "{} misses: {:.3}% per instruction, {:.2}% per line access",
        stats.misses,
        stats.miss_rate() * 100.0,
        stats.line_miss_rate() * 100.0
    );
    tempo_obs::event(
        "simulate",
        "simulation complete",
        &[
            ("records", stats.records.into()),
            ("accesses", stats.accesses.into()),
            ("misses", stats.misses.into()),
            ("miss_rate", stats.miss_rate().into()),
        ],
    );
    if want_classify {
        // Reaching classification without a materialized trace is an
        // internal-flow bug (the --stream guard above should have fired),
        // but it must surface as an error, not a panic.
        let Some(trace) = trace else {
            return Err(CliError::Inconsistent(
                "--classify needs a materialized trace, but simulation ran without one \
                 (is --stream set?)"
                    .to_string(),
            ));
        };
        let b = classify(&program, &layout, &trace, cache);
        println!(
            "breakdown: {} cold, {} capacity, {} conflict ({:.1}% conflict)",
            b.cold,
            b.capacity,
            b.conflict,
            b.conflict_fraction() * 100.0
        );
    }
    Ok(())
}

/// `convert`: transcode a trace between the v1 (fixed-record) and v2
/// (chunked, CRC-framed) binary containers, streaming record-by-record in
/// constant memory. The input format is sniffed from the magic bytes;
/// `--lossy` resyncs past defective frames/records instead of failing.
pub fn convert(args: &ArgMap) -> Result<(), CliError> {
    let input = args.require("in")?.to_string();
    let out = args.require("out")?.to_string();
    let to = args.require("to")?.to_string();
    let mode = trace_read_mode(args)?;
    let frame_records: usize = args.get_or("frame-records", DEFAULT_FRAME_RECORDS)?;
    if frame_records == 0 {
        return Err(CliError::Usage(
            "--frame-records must be at least 1".to_string(),
        ));
    }
    // Lossy repair consults the program when one is supplied; without it,
    // recovery is purely structural (frame/record resync).
    let program = match args.get("program") {
        Some(_) => Some(load_program(args)?),
        None => None,
    };
    args.finish()?;

    // Conversion is format-level (records are copied verbatim), so no
    // program-fit validation is attached either way.
    let mut source =
        open_raw_source(&input, program.as_ref(), mode).map_err(|e| CliError::parse("trace", e))?;

    let (records, warnings) = match to.as_str() {
        "v1" => {
            let mut w = V1Writer::new(create(&out)?).map_err(|e| CliError::parse("trace", e))?;
            let summary = pump(&mut source, &mut w).map_err(|e| CliError::parse("trace", e))?;
            let mut f = w.finish().map_err(|e| CliError::parse("trace", e))?;
            f.flush()?;
            (summary.records, summary.warnings)
        }
        "v2" => {
            let mut w = V2Writer::with_frame_records(create(&out)?, frame_records)
                .map_err(|e| CliError::parse("trace", e))?;
            let summary = pump(&mut source, &mut w).map_err(|e| CliError::parse("trace", e))?;
            let mut f = w.finish().map_err(|e| CliError::parse("trace", e))?;
            f.flush()?;
            (summary.records, summary.warnings)
        }
        other => {
            return Err(CliError::Usage(format!(
                "--to must be v1 or v2, got `{other}`"
            )))
        }
    };
    if !warnings.is_clean() {
        eprintln!("tempo-cli: warning: --in {input}: recovered ({warnings})");
    }
    tempo_obs::event(
        "convert",
        "trace transcoded",
        &[
            ("records", records.into()),
            ("to", to.as_str().into()),
            ("defects", warnings.total().into()),
        ],
    );
    println!("wrote {out}: {records} records ({to})");
    Ok(())
}

/// `analyze`: lint a layout and statically predict its conflict misses.
///
/// Exit status: `0` when the report is clean, `1` when it contains
/// error-severity diagnostics (or any warnings under `--deny warnings`),
/// `2` on usage errors — the contract CI pipelines rely on.
pub fn analyze(args: &ArgMap) -> Result<(), CliError> {
    let program = load_program(args)?;
    // Deliberately *not* `load_layout`: that helper rejects invalid
    // layouts up front, but reporting what is wrong with them is this
    // command's whole job.
    let layout_path = args.require("layout")?;
    let layout = tempo::program::io::read_layout(open(layout_path)?)
        .map_err(|e| CliError::parse("layout", e))?;
    let profile = match args.get("profile") {
        Some(path) => Some(read_profile(open(path)?).map_err(|e| CliError::parse("profile", e))?),
        None => None,
    };
    // Explicit --cache wins; otherwise inherit the profile's geometry.
    let cache = match (args.get("cache").is_some(), &profile) {
        (false, Some(p)) => p.cache,
        _ => args.cache()?,
    };
    let format = args.get("format").unwrap_or("text").to_string();
    let deny_warnings = match args.get("deny") {
        None => false,
        Some("warnings") => true,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "--deny only supports `warnings`, got `{other}`"
            )))
        }
    };
    let top_k: usize = args.get_or("top", 8)?;
    let bounds = args.switch("bounds");
    args.finish()?;
    if bounds && profile.is_none() {
        return Err(CliError::Usage(
            "--bounds needs the popularity counts from --profile".to_string(),
        ));
    }

    let mut input = AnalysisInput::new(&program, &layout, cache);
    if let Some(p) = &profile {
        input = input
            .with_trg_place(&p.trg_place)
            .with_trg_select(&p.trg_select)
            .with_wcg(&p.wcg)
            .with_popular(&p.popular);
    }
    let report = Analyzer::new()
        .with_top_k(top_k)
        .with_bounds(bounds)
        .analyze(&input);
    match format.as_str() {
        "text" => print!("{}", report.render_text(&program)),
        "json" => println!("{}", report.render_json(&program)),
        other => {
            return Err(CliError::Usage(format!(
                "--format must be text or json, got `{other}`"
            )))
        }
    }
    if report.is_clean(deny_warnings) {
        Ok(())
    } else {
        Err(CliError::Diagnostics {
            errors: report.error_count(),
            warnings: report.warning_count(),
        })
    }
}

/// `trace-stats`: reuse-distance and working-set statistics for a trace.
pub fn trace_stats(args: &ArgMap) -> Result<(), CliError> {
    let program = load_program(args)?;
    let mode = trace_read_mode(args)?;
    let cache = args.cache()?;
    let window: usize = args.get_or("window", 2_000)?;
    if window == 0 {
        return Err(CliError::Usage("--window must be positive".to_string()));
    }
    let trace = load_trace(args, "trace", &program, mode)?;
    args.finish()?;

    let c = u64::from(cache.size());
    let s = reuse_distances(&program, &trace, &[c, 2 * c, 4 * c]);
    println!(
        "{} re-references; reuse distance (bytes of distinct code between):",
        s.count
    );
    println!("  min {} / median {} / max {}", s.min, s.median, s.max);
    for (i, label) in ["1x cache", "2x cache", "4x cache"].iter().enumerate() {
        println!(
            "  within {label}: {:.1}%",
            100.0 * s.at_or_below[i] as f64 / s.count.max(1) as f64
        );
    }
    let mut ws = working_set_sizes(&program, &trace, window);
    if !ws.is_empty() {
        ws.sort_unstable();
        println!(
            "working sets over {}-record windows: min {}K / median {}K / max {}K",
            window,
            ws[0] / 1024,
            ws[ws.len() / 2] / 1024,
            ws[ws.len() - 1] / 1024
        );
    }
    Ok(())
}

/// `compare`: run every algorithm and print the comparison table.
pub fn compare(args: &ArgMap) -> Result<(), CliError> {
    let program = load_program(args)?;
    let mode = trace_read_mode(args)?;
    let train = load_trace(args, "train", &program, mode)?;
    let test = load_trace(args, "test", &program, mode)?;
    let cache = args.cache()?;
    args.finish()?;

    let session = Session::new(&program, cache).profile(&train);
    let algorithms: Vec<Box<dyn PlacementAlgorithm>> = vec![
        Box::new(SourceOrder::new()),
        Box::new(RandomOrder::new(42)),
        Box::new(PettisHansen::new()),
        Box::new(CacheColoring::new()),
        Box::new(Gbsc::new()),
    ];
    let refs: Vec<&dyn PlacementAlgorithm> = algorithms.iter().map(|b| b.as_ref()).collect();
    let cmp = tempo::compare(&session, &refs, &test);
    print!("{cmp}");
    if let Some(best) = cmp.best() {
        println!(
            "best: {} at {:.3}% per instruction",
            best.name,
            best.stats.miss_rate() * 100.0
        );
    }
    Ok(())
}

/// `daemon`: run tempod, the multi-tenant placement server, until a
/// client sends `shutdown`.
pub fn daemon(args: &ArgMap) -> Result<(), CliError> {
    use tempo_daemon::{DaemonConfig, Server};

    let socket = args.get("socket").map(str::to_string);
    let tcp = args.get("tcp").map(str::to_string);
    let mut config = DaemonConfig::new(args.cache()?);
    if let Some(name) = args.get("algorithm") {
        // Resolve eagerly so a typo, or an algorithm the engine cannot
        // run, fails at startup, not at first open.
        algorithm_for(name, config.cache, false).map_err(CliError::Usage)?;
        config.algorithm = name.to_string();
    }
    config.coverage = args.get_or("coverage", config.coverage)?;
    config.epoch_records = args.get_or("epoch-records", config.epoch_records)?;
    config.decay = args.get_or("decay", config.decay)?;
    config.replace_threshold = args.get_or("replace-threshold", config.replace_threshold)?;
    config.queue_capacity = args.get_or("queue", config.queue_capacity)?;
    if let Some(units) = args.get_parsed::<u64>("budget-work")? {
        config.budget.max_work_units = Some(units);
    }
    if let Some(ms) = args.get_parsed::<u64>("budget-ms")? {
        config.budget.deadline = Some(std::time::Duration::from_millis(ms));
    }
    args.finish()?;
    tempo::check_engine_settings(
        config.coverage,
        config.epoch_records,
        config.decay,
        config.replace_threshold,
    )
    .map_err(CliError::Usage)?;
    if config.queue_capacity > tempo_daemon::MAX_QUEUE_CAPACITY {
        return Err(CliError::Usage(format!(
            "--queue must be at most {}, got {}",
            tempo_daemon::MAX_QUEUE_CAPACITY,
            config.queue_capacity
        )));
    }
    match (socket, tcp) {
        (Some(path), None) => {
            let server = Server::bind_unix(&path, config)?;
            println!("tempod listening on {path}");
            Ok(server.run()?)
        }
        (None, Some(addr)) => {
            let server = Server::bind_tcp(&addr, config)?;
            let bound = server
                .tcp_addr()
                .ok_or_else(|| CliError::Inconsistent("tcp bind lost its address".into()))?;
            println!("tempod listening on tcp {bound}");
            Ok(server.run()?)
        }
        _ => Err(CliError::Usage(
            "pass exactly one of --socket PATH or --tcp ADDR".into(),
        )),
    }
}

/// `client`: talk to a running tempod — stream a trace into a tenant,
/// fetch its layout or stats, or shut the server down. Actions combine
/// in one invocation and run in this order: open, send trace, sync,
/// layout, stats, server-stats, shutdown.
pub fn client(args: &ArgMap) -> Result<(), CliError> {
    use tempo_daemon::{split_frames, Client, ClientError};
    use tempo_faults::ClientFault;

    let socket = args.get("socket").map(str::to_string);
    let tcp = args.get("tcp").map(str::to_string);
    let tenant = args.get("tenant").map(str::to_string);
    let program_path = args.get("program").map(str::to_string);
    let trace_path = args.get("trace").map(str::to_string);
    let layout_out = args.get("layout-out").map(str::to_string);
    let want_stats = args.switch("stats");
    let want_server_stats = args.switch("server-stats");
    let want_shutdown = args.switch("shutdown");
    let inject = args.get("inject").map(str::to_string);
    let seed: u64 = args.get_or("seed", 0)?;
    args.finish()?;

    let daemon_err = |e: ClientError| match e {
        ClientError::Io(e) => CliError::Io(e),
        other => CliError::Inconsistent(other.to_string()),
    };
    let mut c = match (socket, tcp) {
        (Some(path), None) => Client::connect_unix(path)?,
        (None, Some(addr)) => Client::connect_tcp(&addr)?,
        _ => {
            return Err(CliError::Usage(
                "pass exactly one of --socket PATH or --tcp ADDR".into(),
            ))
        }
    };

    if let Some(tenant) = &tenant {
        let program_text = match &program_path {
            Some(path) => Some(std::fs::read_to_string(path)?),
            None => None,
        };
        c.open(tenant, program_text.as_deref())
            .map_err(daemon_err)?;
    }

    if let Some(path) = &trace_path {
        if tenant.is_none() {
            return Err(CliError::Usage("--trace needs --tenant".into()));
        }
        let bytes = std::fs::read(path)?;
        let frames = split_frames(&bytes)
            .map_err(|e| CliError::parse("trace (v2 container required)", e))?;
        match inject.as_deref() {
            None => {
                for frame in &frames {
                    c.send_frame(frame).map_err(daemon_err)?;
                }
                let tally = c.sync().map_err(daemon_err)?;
                println!("{}", tally.to_json());
            }
            Some("slow") => {
                // Encode every frame message, then trickle the whole
                // stream in tiny chunks; the server must reassemble.
                let mut stream = Vec::new();
                for frame in &frames {
                    tempo_daemon::proto::write_message(
                        &mut stream,
                        tempo_daemon::proto::OP_FRAME,
                        frame,
                    )?;
                }
                for chunk in ClientFault::SlowTrickle.schedule(&stream, seed) {
                    c.send_raw(&chunk).map_err(daemon_err)?;
                }
                let tally = c.sync().map_err(daemon_err)?;
                println!("{}", tally.to_json());
            }
            Some("drop") => {
                // Send a prefix of the stream and hang up mid-message:
                // the connection dies here by design, so no sync.
                let mut stream = Vec::new();
                for frame in &frames {
                    tempo_daemon::proto::write_message(
                        &mut stream,
                        tempo_daemon::proto::OP_FRAME,
                        frame,
                    )?;
                }
                for chunk in ClientFault::DropMidMessage.schedule(&stream, seed) {
                    c.send_raw(&chunk).map_err(daemon_err)?;
                }
                println!("dropped connection mid-message (fault injection)");
                return Ok(());
            }
            Some(other) => {
                return Err(CliError::Usage(format!(
                    "unknown --inject `{other}` (drop|slow)"
                )))
            }
        }
    }

    if let Some(out) = &layout_out {
        if tenant.is_none() {
            return Err(CliError::Usage("--layout-out needs --tenant".into()));
        }
        let layout = c.layout().map_err(daemon_err)?;
        if out == "-" {
            print!("{layout}");
        } else {
            std::fs::write(out, &layout)?;
            println!("wrote {out}");
        }
    }

    if want_stats {
        if tenant.is_none() {
            return Err(CliError::Usage("--stats needs --tenant".into()));
        }
        println!("{}", c.stats().map_err(daemon_err)?);
    }
    if want_server_stats {
        println!("{}", c.server_stats().map_err(daemon_err)?);
    }
    if want_shutdown {
        c.shutdown().map_err(daemon_err)?;
        println!("daemon shutting down");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use tempo::place::algorithm_by_name;

    #[test]
    fn algorithm_names_resolve() {
        for name in [
            "default",
            "random",
            "random:7",
            "ph",
            "hkc",
            "gbsc",
            "gbsc-sa",
            "trg-chains",
            "wcg-offsets",
        ] {
            assert!(algorithm_by_name(name).is_ok(), "{name}");
        }
        assert!(algorithm_by_name("bolt").is_err());
        assert!(algorithm_by_name("random:banana").is_err());
    }
}
