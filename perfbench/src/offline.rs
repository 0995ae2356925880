//! The offline workloads: TMP2 files on disk → popularity → Q-pass →
//! placement → one streamed simulation of every layout over the testing
//! file.

use std::path::PathBuf;
use std::time::Instant;

use tempo::cache::BLOCK_RECORDS;
use tempo::cache::{simulate_layouts_streamed, CacheConfig, SimStats};
use tempo::place::{
    place_with_fallback, Budget, CacheColoring, DegradationTier, Gbsc, GbscSetAssoc, PettisHansen,
    PlacementAlgorithm,
};
use tempo::program::{Layout, Program};
use tempo::trace::io::{TraceIoError, TraceWarnings};
use tempo::trace::{open_v2_auto, RecordBlock, TraceRecord, TraceSource};
use tempo::trg::{PopularitySelector, Profiler};
use tempo::workloads::{suite, BenchmarkModel};

use crate::fixture::{drain, encode, err, persist, segments, SetupClock};
use crate::report::{check_pin, ms, Metrics, Outcome};
use crate::stats::{median, Latency};
use crate::Args;

/// A placement algorithm the offline pipeline runs.
#[derive(Debug, Clone, Copy)]
pub enum Algo {
    /// GBSC, direct-mapped (§5).
    Gbsc,
    /// Pettis–Hansen.
    Ph,
    /// Hashemi–Kaeli–Calder cache colouring.
    Hkc,
    /// GBSC with the §6 pair database, set-associative.
    GbscSa,
}

impl Algo {
    fn build(self) -> Box<dyn PlacementAlgorithm> {
        match self {
            Algo::Gbsc => Box::new(Gbsc::new()),
            Algo::Ph => Box::new(PettisHansen::new()),
            Algo::Hkc => Box::new(CacheColoring::new()),
            Algo::GbscSa => Box::new(GbscSetAssoc::new()),
        }
    }

    /// The layout's name in `pins.txt` and the report.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Gbsc => "gbsc",
            Algo::Ph => "ph",
            Algo::Hkc => "hkc",
            Algo::GbscSa => "gbsc-sa",
        }
    }

    fn ledger_key(self) -> &'static str {
        match self {
            Algo::Gbsc => "place.gbsc_ms",
            Algo::Ph => "place.ph_ms",
            Algo::Hkc => "place.hkc_ms",
            Algo::GbscSa => "place.gbsc_sa_ms",
        }
    }
}

/// One offline workload.
pub struct Spec {
    /// Workload name, as `--workload` takes it.
    pub name: &'static str,
    /// The Table-1 model.
    pub model: fn() -> BenchmarkModel,
    /// Cache geometry profiled, placed and simulated for.
    pub cache: CacheConfig,
    /// Records in the training file.
    pub train_records: usize,
    /// Records in the testing file.
    pub test_records: usize,
    /// Whether the Q-pass builds the §6 pair database.
    pub pair_db: bool,
    /// Layouts built; the first is the headline layout.
    pub algorithms: &'static [Algo],
}

/// gcc, the largest Table-1 program, on the paper's 8 KB direct-mapped
/// cache with GBSC, PH and HKC layouts.
pub fn gcc_dm() -> Spec {
    Spec {
        name: "offline_gcc_dm",
        model: suite::gcc,
        cache: CacheConfig::direct_mapped_8k(),
        train_records: 1_000_000,
        test_records: 1_000_000,
        pair_db: false,
        algorithms: &[Algo::Gbsc, Algo::Ph, Algo::Hkc],
    }
}

/// m88ksim on an 8 KB 2-way cache, profiled with the pair database and
/// placed by GBSC-SA.
pub fn m88ksim_sa() -> Spec {
    Spec {
        name: "setassoc_m88ksim",
        model: suite::m88ksim,
        cache: CacheConfig::new(8 * 1024, 32, 2).expect("8 KB 2-way is a valid geometry"),
        train_records: 200_000,
        test_records: 1_000_000,
        pair_db: true,
        algorithms: &[Algo::GbscSa],
    }
}

impl Spec {
    /// The ledger key of the simulation layer this cache uses.
    fn sim_key(&self) -> &'static str {
        if self.cache.associativity() == 1 {
            "cache.sim_dm_ms"
        } else {
            "cache.sim_sa_ms"
        }
    }
}

/// Stamps the time between successive block pulls of the simulation: the
/// time to decode one block of the testing stream and step every layout
/// through it. The offline counterpart of the daemon's SYNC round trip,
/// the time to fold submitted records into the result.
struct Paced<S> {
    inner: S,
    last: Option<Instant>,
    samples: Vec<f64>,
}

impl<S: TraceSource> TraceSource for Paced<S> {
    fn try_next(&mut self) -> Result<Option<TraceRecord>, TraceIoError> {
        self.inner.try_next()
    }

    fn warnings(&self) -> TraceWarnings {
        self.inner.warnings()
    }

    fn try_next_block(
        &mut self,
        block: &mut RecordBlock,
        max: usize,
    ) -> Result<usize, TraceIoError> {
        let n = self.inner.try_next_block(block, max)?;
        let now = Instant::now();
        if let Some(last) = self.last {
            self.samples.push(ms(now - last));
        }
        self.last = Some(now);
        Ok(n)
    }
}

/// What one pass of the pipeline produced.
struct Pass {
    wall_ms: f64,
    layout_ms: f64,
    sync_ms: Vec<f64>,
    layouts: Vec<Layout>,
    stats: Vec<SimStats>,
    pairdb_entries: u64,
    /// Traced passes only: milliseconds per layer call, and work spent.
    layers: Vec<(&'static str, f64)>,
}

/// Runs `f`, adding its time to `layers` when the pass is traced.
fn timed<T>(
    layers: &mut Option<Vec<(&'static str, f64)>>,
    key: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match layers {
        Some(l) => {
            let start = Instant::now();
            let out = f();
            l.push((key, ms(start.elapsed())));
            out
        }
        None => f(),
    }
}

struct Files {
    train: PathBuf,
    test: PathBuf,
}

fn pass(spec: &Spec, program: &Program, files: &Files, traced: bool) -> Result<Pass, String> {
    let mut layers = traced.then(Vec::new);
    let algorithms: Vec<Box<dyn PlacementAlgorithm>> =
        spec.algorithms.iter().map(|a| a.build()).collect();
    let work_before = traced.then(work_spent);
    let start = Instant::now();

    let popular = timed(&mut layers, "trg.popularity_ms", || {
        PopularitySelector::default_policy()
            .select_source(program, open_v2_auto(&files.train, None)?)
    })
    .map_err(err)?;
    let (profile, _) = timed(&mut layers, "trg.qpass_ms", || {
        Profiler::new(program, spec.cache)
            .with_pair_db(spec.pair_db)
            .with_popular(popular)
            .profile_source(open_v2_auto(&files.train, None)?)
    })
    .map_err(err)?;

    let mut layouts = Vec::new();
    let mut layout_ms = 0.0;
    for (i, (algo, algorithm)) in spec.algorithms.iter().zip(&algorithms).enumerate() {
        let placed_at = Instant::now();
        let (layout, degradation) = timed(&mut layers, algo.ledger_key(), || {
            place_with_fallback(program, &profile, algorithm.as_ref(), Budget::unlimited())
        });
        if i == 0 {
            layout_ms = ms(placed_at.elapsed());
        }
        if degradation.tier != DegradationTier::Full {
            return Err(format!("{} degraded: {degradation}", algo.name()));
        }
        layouts.push(layout);
    }

    let mut paced = Paced {
        inner: open_v2_auto(&files.test, None).map_err(err)?,
        last: None,
        samples: Vec::new(),
    };
    let stats = timed(&mut layers, spec.sim_key(), || {
        simulate_layouts_streamed(program, &layouts, &mut paced, spec.cache)
    })
    .map_err(err)?;
    let wall_ms = ms(start.elapsed());

    let mut layers = layers.unwrap_or_default();
    if let Some(before) = work_before {
        #[allow(clippy::cast_precision_loss)]
        layers.push(("place.work_spent", (work_spent() - before) as f64));
    }
    Ok(Pass {
        wall_ms,
        layout_ms,
        sync_ms: paced.samples,
        layouts,
        stats,
        pairdb_entries: profile.pair_db.as_ref().map_or(0, |db| db.len() as u64),
        layers,
    })
}

/// `place.work_spent` as the process-global `tempo_obs` registry has it.
fn work_spent() -> u64 {
    tempo_obs::snapshot()
        .counter("place.work_spent")
        .unwrap_or(0)
}

/// Checks one pass's layouts and miss counts against the first pass's and
/// the pins; one checked operation per layout.
fn check(
    spec: &Spec,
    args: &Args,
    program: &Program,
    pass: &Pass,
    reference: &[SimStats],
    out: &mut Outcome,
) {
    for (i, algo) in spec.algorithms.iter().enumerate() {
        let (layout, stats) = (&pass.layouts[i], pass.stats[i]);
        let error = if let Err(e) = layout.validate(program) {
            Some(format!("{} layout is invalid: {e}", algo.name()))
        } else if stats.records != spec.test_records as u64 {
            Some(format!(
                "{} simulated {} of {} testing records",
                algo.name(),
                stats.records,
                spec.test_records
            ))
        } else if stats != reference[i] {
            Some(format!(
                "{} miss count changed between passes: {stats:?} vs {:?}",
                algo.name(),
                reference[i]
            ))
        } else {
            check_pin(
                spec.name,
                args.seed,
                algo.name(),
                stats.misses,
                stats.instructions,
            )
        };
        out.check(error);
    }
}

/// Runs an offline workload.
pub fn run(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let total_records = (spec.train_records + spec.test_records) as f64;

    // Set-up: build the model and encode both seeded fixtures. It runs
    // again, timed and discarded, before every pass in the window.
    let setup = || {
        let model = (spec.model)();
        let generating = Instant::now();
        let train = segments(model.training_input(), args.seed, spec.train_records);
        let train = encode(&model, &train, BLOCK_RECORDS)?;
        let test = segments(model.testing_input(), args.seed, spec.test_records);
        let test = encode(&model, &test, BLOCK_RECORDS)?;
        Ok(((model, train, test), generating.elapsed().as_secs_f64()))
    };
    let mut clock = SetupClock::default();
    let (model, train, test) = clock.time(setup)?;
    let files = Files {
        train: args.workdir.join("train.tmp2"),
        test: args.workdir.join("test.tmp2"),
    };
    persist(&files.train, &train)?;
    persist(&files.test, &test)?;
    drop((train, test));
    let program = model.program();

    // Warm-up pass: fills caches, fixes the reference miss counts, and is
    // checked against the pins.
    let first = pass(spec, program, &files, false)?;
    let reference = first.stats.clone();
    check(spec, args, program, &first, &reference, &mut out);
    if args.emit_pins {
        for (algo, stats) in spec.algorithms.iter().zip(&reference) {
            println!(
                "{} {} {} {} {}",
                spec.name,
                args.seed,
                algo.name(),
                stats.misses,
                stats.instructions
            );
        }
        return Ok(out);
    }

    // The timed window. A traced run alternates untraced and traced
    // passes so the overhead compares like with like.
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut decode_ms = Vec::new();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < args.seconds || plain.len() < 3 {
        clock.time(setup)?;
        let p = pass(spec, program, &files, false)?;
        check(spec, args, program, &p, &reference, &mut out);
        plain.push(p);
        if args.traced {
            let p = pass(spec, program, &files, true)?;
            check(spec, args, program, &p, &reference, &mut out);
            traced.push(p);
            let start = Instant::now();
            let decoded = drain(open_v2_auto(&files.train, None).map_err(err)?)?
                + drain(open_v2_auto(&files.test, None).map_err(err)?)?;
            decode_ms.push(ms(start.elapsed()));
            out.check(
                (decoded != total_records as u64).then(|| format!("decoded {decoded} records")),
            );
        }
    }

    let setup_s = clock.setup_s().ok_or("no set-up")?;
    let walls = |passes: &[Pass]| passes.iter().map(|p| p.wall_ms).collect::<Vec<_>>();
    let plain_wall = median(&walls(&plain)).ok_or("no timed pass")?;
    let headline = reference[0];
    println!(
        "{}: seed {}, {} training + {} testing records, {} set-ups of {:.1} ms (median), {} passes of {:.1} ms (median), headline {} misses {} / {} instructions",
        spec.name, args.seed, spec.train_records, spec.test_records, clock.count(), setup_s * 1e3, plain.len(), plain_wall,
        spec.algorithms[0].name(), headline.misses, headline.instructions
    );

    if args.traced {
        let traced_wall = median(&walls(&traced)).ok_or("no traced pass")?;
        let layer = |key: &str| {
            median(
                &traced
                    .iter()
                    .filter_map(|p| p.layers.iter().find(|(k, _)| *k == key).map(|&(_, v)| v))
                    .collect::<Vec<_>>(),
            )
        };
        let m: &mut Metrics = &mut out.per_layer;
        let decode = median(&decode_ms).ok_or("no decode probe")?;
        m.insert("trace.decode_ms", decode);
        m.insert("trace.decode_records_per_s", total_records / (decode / 1e3));
        let popularity = layer("trg.popularity_ms").ok_or("no popularity time")?;
        let qpass = layer("trg.qpass_ms").ok_or("no Q-pass time")?;
        m.insert("trg.popularity_ms", popularity);
        m.insert("trg.qpass_ms", qpass);
        m.insert(
            "trg.qpass_records_per_s",
            spec.train_records as f64 / (qpass / 1e3),
        );
        #[allow(clippy::cast_precision_loss)]
        m.insert("trg.pairdb_entries", first.pairdb_entries as f64);
        for algo in spec.algorithms {
            let t = layer(algo.ledger_key()).ok_or("no placement time")?;
            m.insert(algo.ledger_key(), t);
        }
        m.insert(
            "place.work_spent",
            layer("place.work_spent").ok_or("no work count")?,
        );
        let sim = layer(spec.sim_key()).ok_or("no simulation time")?;
        m.insert(spec.sim_key(), sim);
        m.insert(
            "cache.sim_records_per_s",
            (spec.algorithms.len() * spec.test_records) as f64 / (sim / 1e3),
        );
        m.insert(
            "workloads.generate_records_per_s",
            total_records / clock.generate_s().ok_or("no set-up")?,
        );
        m.insert(
            "obs.trace_overhead_frac",
            (traced_wall - plain_wall) / plain_wall,
        );
        // Each pass's wall time minus its timed layer calls.
        let unaccounted: Vec<f64> = traced
            .iter()
            .map(|p| {
                let layers: f64 = p
                    .layers
                    .iter()
                    .filter(|(k, _)| k.ends_with("_ms"))
                    .map(|&(_, v)| v)
                    .sum();
                p.wall_ms - layers
            })
            .collect();
        m.insert(
            "pipeline.unaccounted_ms",
            median(&unaccounted).ok_or("no traced pass")?,
        );
        for (k, v) in m.iter() {
            println!("  {k} = {v}");
        }
    } else {
        let syncs: Vec<f64> = plain
            .iter()
            .flat_map(|p| p.sync_ms.iter().copied())
            .collect();
        let sync = Latency::of(&syncs);
        println!(
            "  {}",
            sync.describe(&format!("simulation per {BLOCK_RECORDS}-record block"))
        );
        let m: &mut Metrics = &mut out.end_to_end;
        m.insert("setup_s", setup_s);
        m.insert("records_per_s", total_records / (plain_wall / 1e3));
        m.insert("miss_rate", headline.miss_rate());
        if let Some(p50) = sync.p50 {
            m.insert("sync_p50_ms", p50);
        }
        if let Some(p99) = sync.p99 {
            m.insert("sync_p99_ms", p99);
        }
        m.insert(
            "layout_rtt_ms",
            median(&plain.iter().map(|p| p.layout_ms).collect::<Vec<_>>()).ok_or("no pass")?,
        );
    }
    Ok(out)
}
