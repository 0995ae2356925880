//! Fault-tolerant sharded profiling: split a v2 trace into frame-aligned
//! record ranges, profile the ranges in parallel under a supervisor, and
//! merge the shard profiles back into one [`ProfileData`].
//!
//! # Exactness
//!
//! Q-set contents are a pure function of the reference history, so a shard
//! that replays its **entire** trace prefix through
//! [`ProfileStream::observe_warmup`](tempo_trg::ProfileStream::observe_warmup)
//! reconstructs the sequential profiler's state at its start position
//! exactly. With full-prefix warm-up (the default,
//! `ShardConfig::warmup_records = None`) the merged shard profiles are
//! **bit-identical** to the sequential profile for any shard count and any
//! worker count. Capping the warm-up window trades exactness for speed:
//! blocks whose reuse distance exceeds the window are missing from `Q` at
//! measurement start, which can only *drop* seam-local TRG increments,
//! never invent them (see DESIGN.md §13).
//!
//! # Supervision
//!
//! Each shard runs as a job on a [`tempo_par::Pool`], which already
//! isolates panics per job. The supervisor layered on top retries every
//! failure class — job panics, trace I/O errors, and per-shard deadline
//! overruns — up to [`ShardConfig::max_retries`] times with capped
//! exponential backoff, then **quarantines** the shard: the run continues
//! without its records, the quarantine is recorded in the
//! [`ShardReport`], and the run fails with
//! [`ShardError::CoverageFloor`] only if the profiled-record fraction
//! drops below [`ShardConfig::coverage_floor`].
//!
//! # Checkpoint / resume
//!
//! With a checkpoint directory configured, every completed shard profile
//! is persisted (write-to-temp, then rename, so a kill mid-write never
//! leaves a truncated checkpoint) together with a manifest that pins the
//! shard plan, cache geometry, popular set, and trace fingerprint. A rerun
//! with [`ShardConfig::resume`] validates the manifest and skips every
//! shard whose checkpoint already exists.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

use tempo_cache::CacheConfig;
use tempo_par::Pool;
use tempo_place::{Budget, BudgetExhausted, BudgetMeter};
use tempo_program::Program;
use tempo_trace::io::TraceIoError;
use tempo_trace::v2::{scan_frames, FrameEntry, V2Source};
use tempo_trace::{TraceRecord, TraceSource};
use tempo_trg::io::{read_profile, write_profile, ProfileIoError};
use tempo_trg::{
    MergeError, PopularSet, PopularitySelector, ProfileData, ProfileWarnings, Profiler,
};

/// Deadline charges are batched so a configured wall-clock deadline does
/// not cost one `Instant::now()` per trace record.
const CHARGE_BATCH: u64 = 4096;

/// Backoff doubles per retry, capped at `base << BACKOFF_CAP_DOUBLINGS`.
const BACKOFF_CAP_DOUBLINGS: u32 = 3;

/// One shard's slice of the trace, in record-index terms.
///
/// Ranges are aligned to v2 frame boundaries (see [`plan_shards`]) and
/// partition the trace: shard `i` measures records
/// `[start, start + records)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// Global index of the first measured record.
    pub start: u64,
    /// Number of records in the measured range.
    pub records: u64,
}

/// Splits a scanned frame list into up to `shards` contiguous record
/// ranges, balanced by record count and aligned to frame boundaries.
///
/// Frame alignment keeps a future seek-based reader possible and means a
/// corrupt frame damages exactly one shard. Degenerate inputs collapse
/// naturally: an empty trace yields no ranges, and fewer frames than
/// shards yields one range per frame.
pub fn plan_shards(frames: &[FrameEntry], shards: usize) -> Vec<ShardRange> {
    let k = shards.max(1) as u64;
    let total: u64 = frames.iter().map(|f| u64::from(f.records)).sum();
    if total == 0 {
        return Vec::new();
    }
    let mut cuts: Vec<u64> = vec![0];
    let mut cum = 0u64;
    let mut next_frame = 0usize;
    for i in 1..k {
        let target =
            u64::try_from(u128::from(total) * u128::from(i) / u128::from(k)).unwrap_or(total);
        while cum < target && next_frame < frames.len() {
            cum += u64::from(frames[next_frame].records);
            next_frame += 1;
        }
        if cuts.last() != Some(&cum) {
            cuts.push(cum);
        }
    }
    if cuts.last() != Some(&total) {
        cuts.push(total);
    }
    cuts.windows(2)
        .map(|w| ShardRange {
            start: w[0],
            records: w[1] - w[0],
        })
        .collect()
}

/// Configuration for a sharded profiling run.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards to split the trace into (at least 1).
    pub shards: usize,
    /// Worker threads for the shard pool; `0` means one per hardware
    /// thread.
    pub jobs: usize,
    /// Warm-up window in records before each shard's measured range.
    /// `None` replays the **full** prefix, which makes the merged profile
    /// bit-identical to the sequential one; `Some(n)` caps the replay to
    /// the `n` records immediately preceding the range, trading exactness
    /// for speed (seam-local TRG increments can be dropped, never added).
    pub warmup_records: Option<u64>,
    /// Failed shard attempts are retried this many times before the shard
    /// is quarantined.
    pub max_retries: u32,
    /// Base delay between retry rounds; doubles per round, capped at
    /// eight times the base. Zero disables backoff (used by tests).
    pub retry_backoff: Duration,
    /// Minimum fraction of trace records that must be covered by
    /// completed shards; below this the run fails with
    /// [`ShardError::CoverageFloor`]. The default of `1.0` treats any
    /// quarantined shard as a run failure.
    pub coverage_floor: f64,
    /// Per-shard, per-attempt execution budget. Records processed charge
    /// work units (one per record), and a configured deadline is checked
    /// every few thousand records, so a stalled shard trips here.
    pub shard_deadline: Budget,
    /// Directory for shard checkpoints and the run manifest; `None`
    /// disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Skip shards whose checkpoints already exist. Requires
    /// `checkpoint_dir` and a manifest written by a previous run over the
    /// same trace and plan.
    pub resume: bool,
    /// Opaque identity of the input trace (e.g. `path:bytes`) pinned in
    /// the manifest so a resume against a different trace is rejected.
    pub trace_fingerprint: Option<String>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            jobs: 0,
            warmup_records: None,
            max_retries: 2,
            retry_backoff: Duration::from_millis(50),
            coverage_floor: 1.0,
            shard_deadline: Budget::unlimited(),
            checkpoint_dir: None,
            resume: false,
            trace_fingerprint: None,
        }
    }
}

/// How one shard ended up in the final [`ShardReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardStatus {
    /// Profiled in this run; `attempts` counts tries including the
    /// successful one.
    Completed {
        /// Attempts spent, including the one that succeeded.
        attempts: u32,
    },
    /// Loaded from a checkpoint written by a previous run.
    Resumed,
    /// Every attempt failed; the shard's records are missing from the
    /// merged profile.
    Quarantined {
        /// Attempts spent (always `max_retries + 1`).
        attempts: u32,
        /// The last failure, rendered.
        error: String,
    },
}

/// Per-shard outcome record — the sharded pipeline's analogue of the
/// placement layer's `Degradation` record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOutcome {
    /// The shard's measured record range.
    pub range: ShardRange,
    /// What happened to it.
    pub status: ShardStatus,
}

/// Summary of a sharded profiling run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// One outcome per planned shard, in shard order.
    pub outcomes: Vec<ShardOutcome>,
    /// Records covered by the shard plan (the whole trace).
    pub total_records: u64,
    /// Records covered by completed or resumed shards.
    pub covered_records: u64,
    /// Total retry attempts across all shards and both phases.
    pub retried: u64,
    /// Summed repair tallies of the shards profiled in this run
    /// (checkpointed shards resumed from disk do not contribute).
    pub warnings: ProfileWarnings,
}

impl ShardReport {
    /// Fraction of trace records covered by the merged profile (1.0 for
    /// an empty trace).
    #[allow(clippy::cast_precision_loss)] // record counts are far below 2^52
    pub fn coverage(&self) -> f64 {
        if self.total_records == 0 {
            1.0
        } else {
            self.covered_records as f64 / self.total_records as f64
        }
    }

    /// Number of shards profiled in this run.
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, ShardStatus::Completed { .. }))
            .count()
    }

    /// Number of shards loaded from checkpoints.
    pub fn resumed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == ShardStatus::Resumed)
            .count()
    }

    /// Number of quarantined shards.
    pub fn quarantined(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, ShardStatus::Quarantined { .. }))
            .count()
    }
}

/// Why a sharded profiling run failed as a whole (individual shard
/// failures are retried and quarantined, not surfaced here).
#[derive(Debug)]
#[non_exhaustive]
pub enum ShardError {
    /// The trace could not be opened or scanned.
    Trace(TraceIoError),
    /// A checkpoint or manifest could not be read or written.
    Profile(ProfileIoError),
    /// Checkpoint-directory I/O failed.
    Io(std::io::Error),
    /// Shard profiles refused to merge — by construction this indicates a
    /// checkpoint from an incompatible run.
    Merge(MergeError),
    /// Too many shards were quarantined to honor the coverage floor.
    CoverageFloor {
        /// Fraction of records actually covered.
        covered: f64,
        /// The configured floor.
        floor: f64,
        /// Number of quarantined shards.
        quarantined: usize,
    },
    /// Resume was requested but the manifest disagrees with this run
    /// (different trace, plan, cache, or a missing manifest).
    ResumeMismatch(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Trace(e) => write!(f, "trace error: {e}"),
            ShardError::Profile(e) => write!(f, "checkpoint error: {e}"),
            ShardError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            ShardError::Merge(e) => write!(f, "shard merge error: {e}"),
            ShardError::CoverageFloor {
                covered,
                floor,
                quarantined,
            } => write!(
                f,
                "coverage {covered:.4} below floor {floor:.4} ({quarantined} shard(s) quarantined)"
            ),
            ShardError::ResumeMismatch(why) => write!(f, "resume mismatch: {why}"),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Trace(e) => Some(e),
            ShardError::Profile(e) => Some(e),
            ShardError::Io(e) => Some(e),
            ShardError::Merge(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceIoError> for ShardError {
    fn from(e: TraceIoError) -> Self {
        ShardError::Trace(e)
    }
}

impl From<ProfileIoError> for ShardError {
    fn from(e: ProfileIoError) -> Self {
        ShardError::Profile(e)
    }
}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

impl From<MergeError> for ShardError {
    fn from(e: MergeError) -> Self {
        ShardError::Merge(e)
    }
}

/// A per-attempt fault-injection hook: called with `(shard, attempt)` at
/// the start of every profiling attempt. Used by `tempo-faults` to kill
/// or stall specific attempts; production runs pass `None`.
pub type ShardFaultHook<'h> = &'h (dyn Fn(usize, u32) + Sync);

/// One attempt's failure, classified for the retry loop. Every class is
/// retryable; after `max_retries` the shard is quarantined with the last
/// failure's rendering.
#[derive(Debug)]
enum ShardJobError {
    /// The trace reader failed (I/O error or corruption in this shard's
    /// frames).
    Trace(TraceIoError),
    /// The per-shard budget tripped (deadline or work units).
    Deadline(BudgetExhausted),
    /// The shard completed but its checkpoint could not be written.
    Checkpoint(ProfileIoError),
}

impl fmt::Display for ShardJobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardJobError::Trace(e) => write!(f, "trace: {e}"),
            ShardJobError::Deadline(e) => write!(f, "budget: {e}"),
            ShardJobError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl From<TraceIoError> for ShardJobError {
    fn from(e: TraceIoError) -> Self {
        ShardJobError::Trace(e)
    }
}

impl From<BudgetExhausted> for ShardJobError {
    fn from(e: BudgetExhausted) -> Self {
        ShardJobError::Deadline(e)
    }
}

impl From<ProfileIoError> for ShardJobError {
    fn from(e: ProfileIoError) -> Self {
        ShardJobError::Checkpoint(e)
    }
}

/// Outcome of supervising one batch of shard jobs.
struct Supervised<T> {
    /// `(shard, attempts, value)` for every shard that succeeded.
    completed: Vec<(usize, u32, T)>,
    /// `(shard, attempts, last error)` for every shard that exhausted its
    /// retries.
    quarantined: Vec<(usize, u32, String)>,
    /// Total retry attempts spent (attempts beyond each shard's first).
    retried: u64,
}

/// Runs `run(shard, attempt)` for every shard in `ids` on the pool,
/// retrying failures (including panics) with capped exponential backoff
/// until success or `max_retries` is exhausted.
fn supervise<T: Send>(
    pool: &Pool,
    ids: &[usize],
    config: &ShardConfig,
    run: &(dyn Fn(usize, u32) -> Result<T, ShardJobError> + Sync),
) -> Supervised<T> {
    let mut pending: Vec<usize> = ids.to_vec();
    let mut last_error: BTreeMap<usize, String> = BTreeMap::new();
    let mut completed = Vec::new();
    let mut retried = 0u64;
    for attempt in 0..=config.max_retries {
        if pending.is_empty() {
            break;
        }
        if attempt > 0 {
            retried += pending.len() as u64;
            tempo_obs::counter("profile.shards_retried").add(pending.len() as u64);
            let backoff = config
                .retry_backoff
                .saturating_mul(1 << (attempt - 1).min(BACKOFF_CAP_DOUBLINGS));
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
        }
        let batch = pending.clone();
        let outcomes = pool.map(batch.clone(), |i| run(i, attempt));
        pending.clear();
        for (shard, outcome) in batch.into_iter().zip(outcomes) {
            match outcome {
                Ok(Ok(value)) => completed.push((shard, attempt + 1, value)),
                Ok(Err(e)) => {
                    last_error.insert(shard, e.to_string());
                    pending.push(shard);
                }
                Err(panic) => {
                    last_error.insert(shard, format!("panic: {}", panic.message));
                    pending.push(shard);
                }
            }
        }
    }
    let attempts = config.max_retries + 1;
    let quarantined = pending
        .into_iter()
        .map(|shard| {
            let error = last_error
                .remove(&shard)
                .unwrap_or_else(|| "unknown failure".to_string());
            (shard, attempts, error)
        })
        .collect();
    Supervised {
        completed,
        quarantined,
        retried,
    }
}

/// Opens the trace and positions a strict reader at record `skip`,
/// feeding the skipped prefix through `warm` (which may discard it).
fn open_at(
    path: &Path,
    skip: u64,
    meter: &BudgetMeter,
    mut warm: impl FnMut(&TraceRecord),
) -> Result<V2Source<'static, BufReader<File>>, ShardJobError> {
    let file = File::open(path).map_err(TraceIoError::from)?;
    let mut source = V2Source::new(BufReader::new(file))?;
    let mut charged = 0u64;
    for _ in 0..skip {
        let Some(record) = source.try_next()? else {
            break;
        };
        warm(&record);
        charged += 1;
        if charged.is_multiple_of(CHARGE_BATCH) {
            meter.charge(CHARGE_BATCH)?;
        }
    }
    meter.charge(charged % CHARGE_BATCH)?;
    Ok(source)
}

/// Phase-1 job: reference counts of one shard's measured range, matching
/// `RefCountSink` semantics (records naming unknown procedures are
/// ignored; zero extents still count).
fn count_shard(
    program: &Program,
    path: &Path,
    range: ShardRange,
    deadline: Budget,
) -> Result<Vec<u64>, ShardJobError> {
    let meter = BudgetMeter::new(deadline);
    let mut source = open_at(path, range.start, &meter, |_| {})?;
    let mut counts = vec![0u64; program.len()];
    let mut seen = 0u64;
    while seen < range.records {
        let Some(record) = source.try_next()? else {
            break;
        };
        if let Some(c) = counts.get_mut(record.proc.as_usize()) {
            *c += 1;
        }
        seen += 1;
        if seen.is_multiple_of(CHARGE_BATCH) {
            meter.charge(CHARGE_BATCH)?;
        }
    }
    meter.charge(seen % CHARGE_BATCH)?;
    Ok(counts)
}

/// Phase-2 job: warm up over the shard's prefix, profile its measured
/// range, and (when configured) persist the checkpoint atomically.
#[allow(clippy::too_many_arguments)] // internal job plumbing, not API
fn profile_shard(
    program: &Program,
    cache: CacheConfig,
    pair_db: bool,
    path: &Path,
    range: ShardRange,
    flags: &[bool],
    config: &ShardConfig,
    shard: usize,
    attempt: u32,
    hook: Option<ShardFaultHook<'_>>,
) -> Result<(ProfileData, ProfileWarnings), ShardJobError> {
    // The deadline clock must start before the fault hook runs, or an
    // injected (or real) stall ahead of the first read escapes metering.
    let meter = BudgetMeter::new(config.shard_deadline);
    if let Some(h) = hook {
        h(shard, attempt);
    }
    meter.charge(0)?; // catch a stalled hook before any reading

    let mut stream = Profiler::new(program, cache)
        .with_pair_db(pair_db)
        .into_stream(PopularSet::from_parts(
            flags.to_vec(),
            vec![0; program.len()],
        ));
    let warmup_start = match config.warmup_records {
        None => 0,
        Some(window) => range.start.saturating_sub(window),
    };
    let mut index = 0u64;
    let mut source = open_at(path, range.start, &meter, |record| {
        if index >= warmup_start {
            stream.observe_warmup(record);
        }
        index += 1;
    })?;
    stream.begin_measurement();

    let mut counts = vec![0u64; program.len()];
    let mut seen = 0u64;
    while seen < range.records {
        let Some(record) = source.try_next()? else {
            break;
        };
        if let Some(c) = counts.get_mut(record.proc.as_usize()) {
            *c += 1;
        }
        stream.observe(&record);
        seen += 1;
        if seen.is_multiple_of(CHARGE_BATCH) {
            meter.charge(CHARGE_BATCH)?;
        }
    }
    meter.charge(seen % CHARGE_BATCH)?;

    let (mut profile, warnings) = stream.finish_with_warnings();
    // The stream carried membership flags with zero counts; attach the
    // counts of this shard's measured range so merged counts equal the
    // whole-trace counts.
    profile.popular = PopularSet::from_parts(flags.to_vec(), counts);

    if let Some(dir) = config.checkpoint_dir.as_deref() {
        write_checkpoint(dir, shard, &profile)?;
    }
    Ok((profile, warnings))
}

/// Path of shard `i`'s checkpoint inside `dir`.
fn shard_profile_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.profile"))
}

/// Writes a shard checkpoint atomically: full write to a temp file, then
/// rename. A kill at any point leaves either no checkpoint or a complete
/// one — never a truncated file a resume could trust.
fn write_checkpoint(dir: &Path, shard: usize, profile: &ProfileData) -> Result<(), ProfileIoError> {
    let tmp = dir.join(format!("shard-{shard}.profile.tmp"));
    let mut w = BufWriter::new(File::create(&tmp)?);
    write_profile(&mut w, profile)?;
    w.flush()?;
    drop(w);
    fs::rename(&tmp, shard_profile_path(dir, shard))?;
    Ok(())
}

/// The manifest pins everything a resume must agree on.
struct Manifest {
    fingerprint: Option<String>,
    cache: (u32, u32, u32),
    flags: Vec<bool>,
    ranges: Vec<ShardRange>,
}

const MANIFEST_NAME: &str = "manifest.tempo-shards";

fn write_manifest(
    dir: &Path,
    fingerprint: Option<&str>,
    cache: CacheConfig,
    flags: &[bool],
    ranges: &[ShardRange],
) -> Result<(), std::io::Error> {
    let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
    let mut w = BufWriter::new(File::create(&tmp)?);
    writeln!(w, "tempo-shard-manifest 1")?;
    writeln!(w, "fingerprint {}", fingerprint.unwrap_or("-"))?;
    writeln!(
        w,
        "cache {} {} {}",
        cache.size(),
        cache.line_size(),
        cache.associativity()
    )?;
    let bits: String = flags.iter().map(|&b| if b { '1' } else { '0' }).collect();
    writeln!(w, "popular {} {}", flags.len(), bits)?;
    writeln!(w, "shards {}", ranges.len())?;
    for (i, r) in ranges.iter().enumerate() {
        writeln!(w, "range {i} {} {}", r.start, r.records)?;
    }
    w.flush()?;
    drop(w);
    fs::rename(&tmp, dir.join(MANIFEST_NAME))
}

fn read_manifest(dir: &Path) -> Result<Manifest, ShardError> {
    use std::io::BufRead as _;
    let path = dir.join(MANIFEST_NAME);
    let file = File::open(&path)
        .map_err(|_| ShardError::ResumeMismatch(format!("no manifest at {}", path.display())))?;
    let bad = |what: &str| ShardError::ResumeMismatch(format!("malformed manifest: {what}"));
    let mut lines = BufReader::new(file).lines();
    let mut next = |what: &'static str| -> Result<String, ShardError> {
        match lines.next() {
            Some(Ok(l)) => Ok(l),
            Some(Err(e)) => Err(ShardError::Io(e)),
            None => Err(ShardError::ResumeMismatch(format!(
                "truncated manifest: missing {what}"
            ))),
        }
    };
    if next("header")? != "tempo-shard-manifest 1" {
        return Err(bad("header"));
    }
    let fp_line = next("fingerprint")?;
    let fingerprint = fp_line
        .strip_prefix("fingerprint ")
        .ok_or_else(|| bad("fingerprint"))?;
    let fingerprint = (fingerprint != "-").then(|| fingerprint.to_string());
    let cache_line = next("cache")?;
    let mut it = cache_line
        .strip_prefix("cache ")
        .ok_or_else(|| bad("cache"))?
        .split(' ');
    let mut cache_field = || -> Result<u32, ShardError> {
        it.next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("cache"))
    };
    let cache = (cache_field()?, cache_field()?, cache_field()?);
    let pop_line = next("popular")?;
    let rest = pop_line
        .strip_prefix("popular ")
        .ok_or_else(|| bad("popular"))?;
    let (len_s, bits) = rest.split_once(' ').ok_or_else(|| bad("popular"))?;
    let len: usize = len_s.parse().map_err(|_| bad("popular"))?;
    if bits.len() != len || bits.bytes().any(|b| b != b'0' && b != b'1') {
        return Err(bad("popular"));
    }
    let flags: Vec<bool> = bits.bytes().map(|b| b == b'1').collect();
    let shards_line = next("shards")?;
    let count: usize = shards_line
        .strip_prefix("shards ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("shards"))?;
    let mut ranges = Vec::with_capacity(count.min(1 << 20));
    for i in 0..count {
        let line = next("range")?;
        let mut it = line
            .strip_prefix("range ")
            .ok_or_else(|| bad("range"))?
            .split(' ');
        let mut field = || -> Result<u64, ShardError> {
            it.next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("range"))
        };
        if field()? != i as u64 {
            return Err(bad("range index"));
        }
        ranges.push(ShardRange {
            start: field()?,
            records: field()?,
        });
    }
    Ok(Manifest {
        fingerprint,
        cache,
        flags,
        ranges,
    })
}

/// Profiles a v2 trace file in supervised shards and merges the results.
///
/// With the default full-prefix warm-up the result is bit-identical to
/// [`Session::profile_with`](crate::Session::profile_with) over the same
/// trace. The `hook` parameter exists for fault-injection tests and
/// should be `None` in production.
///
/// # Errors
///
/// Fails on trace scan errors, checkpoint I/O errors, resume/manifest
/// mismatches, or when quarantined shards push coverage below
/// [`ShardConfig::coverage_floor`]. Individual shard failures are retried
/// and quarantined rather than surfaced.
pub fn profile_sharded(
    program: &Program,
    cache: CacheConfig,
    selector: PopularitySelector,
    pair_db: bool,
    trace_path: &Path,
    config: &ShardConfig,
    hook: Option<ShardFaultHook<'_>>,
) -> Result<(ProfileData, ShardReport), ShardError> {
    let _span = tempo_obs::span("stage.profile.sharded");
    let frames = scan_frames(BufReader::new(File::open(trace_path)?))?;
    let plan = plan_shards(&frames, config.shards);
    let total_records: u64 = plan.iter().map(|r| r.records).sum();
    let pool = Pool::new(if config.jobs == 0 {
        tempo_par::available_parallelism()
    } else {
        config.jobs
    });

    // --- Resume: validate the manifest and load existing checkpoints. ---
    let mut resumed: Vec<Option<ProfileData>> = (0..plan.len()).map(|_| None).collect();
    let mut flags: Option<Vec<bool>> = None;
    if config.resume {
        let dir = config.checkpoint_dir.as_deref().ok_or_else(|| {
            ShardError::ResumeMismatch("resume requires a checkpoint directory".to_string())
        })?;
        let manifest = read_manifest(dir)?;
        if manifest.cache != (cache.size(), cache.line_size(), cache.associativity()) {
            return Err(ShardError::ResumeMismatch(
                "cache geometry differs from the checkpointed run".to_string(),
            ));
        }
        if manifest.ranges != plan {
            return Err(ShardError::ResumeMismatch(
                "shard plan differs from the checkpointed run (trace or shard count changed)"
                    .to_string(),
            ));
        }
        if let (Some(now), Some(then)) = (
            config.trace_fingerprint.as_deref(),
            manifest.fingerprint.as_deref(),
        ) {
            if now != then {
                return Err(ShardError::ResumeMismatch(format!(
                    "trace fingerprint {now:?} differs from checkpointed {then:?}"
                )));
            }
        }
        if manifest.flags.len() != program.len() {
            return Err(ShardError::ResumeMismatch(
                "popular-set length differs from the program".to_string(),
            ));
        }
        for (i, slot) in resumed.iter_mut().enumerate() {
            let path = shard_profile_path(dir, i);
            if path.exists() {
                let profile = read_profile(BufReader::new(File::open(&path)?))?;
                if profile.cache != cache {
                    return Err(ShardError::ResumeMismatch(format!(
                        "checkpoint {} targets a different cache",
                        path.display()
                    )));
                }
                *slot = Some(profile);
            }
        }
        flags = Some(manifest.flags);
    }

    let mut quarantined: BTreeMap<usize, (u32, String)> = BTreeMap::new();
    let mut retried = 0u64;

    // --- Phase 1: supervised counting pass → global popular set. -------
    let flags = match flags {
        Some(f) => f,
        None => {
            let _span = tempo_obs::span("stage.profile.shard_count");
            let ids: Vec<usize> = (0..plan.len()).collect();
            let sup = supervise(&pool, &ids, config, &|i, _attempt| {
                count_shard(program, trace_path, plan[i], config.shard_deadline)
            });
            retried += sup.retried;
            let mut totals = vec![0u64; program.len()];
            for (_, _, counts) in &sup.completed {
                for (t, c) in totals.iter_mut().zip(counts) {
                    *t += *c;
                }
            }
            for (shard, attempts, error) in sup.quarantined {
                quarantined.insert(shard, (attempts, format!("counting: {error}")));
            }
            let popular = selector.from_counts(program, &totals);
            let mut f = vec![false; program.len()];
            for id in popular.iter() {
                f[id.as_usize()] = true;
            }
            f
        }
    };

    // --- Checkpointing: pin the plan before any shard work persists. ---
    if let Some(dir) = config.checkpoint_dir.as_deref() {
        fs::create_dir_all(dir)?;
        if !config.resume {
            for i in 0..plan.len() {
                match fs::remove_file(shard_profile_path(dir, i)) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(ShardError::Io(e)),
                }
            }
            write_manifest(
                dir,
                config.trace_fingerprint.as_deref(),
                cache,
                &flags,
                &plan,
            )?;
        }
    }

    // --- Phase 2: supervised Q pass over the remaining shards. ---------
    let pending: Vec<usize> = (0..plan.len())
        .filter(|i| resumed[*i].is_none() && !quarantined.contains_key(i))
        .collect();
    let sup = {
        let _span = tempo_obs::span("stage.profile.shard_qpass");
        supervise(&pool, &pending, config, &|i, attempt| {
            profile_shard(
                program, cache, pair_db, trace_path, plan[i], &flags, config, i, attempt, hook,
            )
        })
    };
    retried += sup.retried;
    for (shard, attempts, error) in sup.quarantined {
        quarantined.insert(shard, (attempts, error));
    }

    // --- Merge (deterministic shard order) and report. -----------------
    let mut merged = Profiler::new(program, cache)
        .with_pair_db(pair_db)
        .into_stream(PopularSet::from_parts(
            flags.clone(),
            vec![0; program.len()],
        ))
        .finish();
    let mut fresh: BTreeMap<usize, (u32, ProfileData, ProfileWarnings)> = sup
        .completed
        .into_iter()
        .map(|(shard, attempts, (profile, warnings))| (shard, (attempts, profile, warnings)))
        .collect();
    let mut outcomes = Vec::with_capacity(plan.len());
    let mut covered_records = 0u64;
    let mut warnings = ProfileWarnings::default();
    for (i, range) in plan.iter().enumerate() {
        let status = if let Some((attempts, error)) = quarantined.remove(&i) {
            ShardStatus::Quarantined { attempts, error }
        } else if let Some(profile) = resumed[i].take() {
            merged.merge(&profile)?;
            covered_records += range.records;
            ShardStatus::Resumed
        } else if let Some((attempts, profile, w)) = fresh.remove(&i) {
            merged.merge(&profile)?;
            covered_records += range.records;
            warnings.unknown_proc += w.unknown_proc;
            warnings.zero_extent += w.zero_extent;
            warnings.clamped_extent += w.clamped_extent;
            ShardStatus::Completed { attempts }
        } else {
            // Unreachable by construction: every shard is resumed,
            // completed, or quarantined. Record it defensively.
            ShardStatus::Quarantined {
                attempts: 0,
                error: "shard produced no outcome".to_string(),
            }
        };
        outcomes.push(ShardOutcome {
            range: *range,
            status,
        });
    }

    let report = ShardReport {
        outcomes,
        total_records,
        covered_records,
        retried,
        warnings,
    };
    tempo_obs::counter("profile.shards_completed").add(report.completed() as u64);
    tempo_obs::counter("profile.shards_resumed").add(report.resumed() as u64);
    tempo_obs::counter("profile.shards_quarantined").add(report.quarantined() as u64);
    if report.coverage() < config.coverage_floor {
        return Err(ShardError::CoverageFloor {
            covered: report.coverage(),
            floor: config.coverage_floor,
            quarantined: report.quarantined(),
        });
    }
    Ok((merged, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(records: &[u32]) -> Vec<FrameEntry> {
        let mut offset = 8u64;
        records
            .iter()
            .map(|&r| {
                let e = FrameEntry {
                    offset,
                    payload_len: r * 2,
                    records: r,
                };
                offset += 12 + u64::from(r * 2);
                e
            })
            .collect()
    }

    #[test]
    fn plan_partitions_and_aligns_to_frames() {
        let f = frames(&[10, 10, 10, 10, 10]);
        let plan = plan_shards(&f, 2);
        assert_eq!(plan.len(), 2);
        assert_eq!(
            plan[0],
            ShardRange {
                start: 0,
                records: 30
            }
        );
        assert_eq!(
            plan[1],
            ShardRange {
                start: 30,
                records: 20
            }
        );
        // Every plan partitions exactly.
        for k in 1..=8 {
            let plan = plan_shards(&f, k);
            let mut pos = 0;
            for r in &plan {
                assert_eq!(r.start, pos);
                assert!(r.records > 0);
                pos += r.records;
            }
            assert_eq!(pos, 50);
        }
    }

    #[test]
    fn plan_collapses_degenerate_inputs() {
        assert!(plan_shards(&[], 4).is_empty());
        assert!(plan_shards(&frames(&[0, 0]), 4).is_empty());
        // More shards than frames: one shard per frame.
        let plan = plan_shards(&frames(&[5, 5]), 10);
        assert_eq!(plan.len(), 2);
        // One giant frame cannot be split.
        let plan = plan_shards(&frames(&[100]), 4);
        assert_eq!(
            plan,
            vec![ShardRange {
                start: 0,
                records: 100
            }]
        );
    }

    #[test]
    fn manifest_roundtrips() {
        let dir = std::env::temp_dir().join(format!("tempo-shard-manifest-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let ranges = vec![
            ShardRange {
                start: 0,
                records: 7,
            },
            ShardRange {
                start: 7,
                records: 3,
            },
        ];
        let flags = vec![true, false, true];
        write_manifest(
            &dir,
            Some("trace.tmp2:1234"),
            CacheConfig::direct_mapped_8k(),
            &flags,
            &ranges,
        )
        .unwrap();
        let m = read_manifest(&dir).unwrap();
        assert_eq!(m.fingerprint.as_deref(), Some("trace.tmp2:1234"));
        assert_eq!(m.cache, (8192, 32, 1));
        assert_eq!(m.flags, flags);
        assert_eq!(m.ranges, ranges);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_a_resume_mismatch() {
        let dir =
            std::env::temp_dir().join(format!("tempo-shard-nomanifest-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            read_manifest(&dir),
            Err(ShardError::ResumeMismatch(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
