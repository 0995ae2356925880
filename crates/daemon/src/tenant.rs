//! Per-tenant engine sessions: one worker thread, one incremental
//! [`Engine`], one scoped metrics registry, one bounded job queue.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use tempo::place::{BudgetMeter, PlacementAlgorithm};
use tempo::program::io::write_layout;
use tempo::program::Program;
use tempo::trace::v2::decode_frame;
use tempo::trace::{Trace, TraceRecord};
use tempo::{Engine, MAX_EPOCH_RECORDS};
use tempo_obs::json::Json;
use tempo_obs::Registry;

use crate::{DaemonConfig, MAX_QUEUE_CAPACITY};

/// One job on a tenant's queue. Frames are fire-and-forget; queries
/// carry a bounded reply channel, and because they ride the same queue
/// they are ordered after every frame sent before them.
pub(crate) enum Job {
    /// One raw TMP2 frame, exactly as received off the wire.
    Frame(Vec<u8>),
    /// Reply with the ingestion tally (a flush barrier).
    Sync(SyncSender<Response>),
    /// Fold the pending tail into a final epoch, reply with the layout.
    Layout(SyncSender<Response>),
    /// Reply with the tenant's scoped metrics snapshot as JSON.
    Stats(SyncSender<Response>),
}

/// What a query job resolves to.
pub(crate) enum Response {
    /// Payload for a [`STATUS_OK`](crate::proto::STATUS_OK) reply.
    Ok(Vec<u8>),
    /// Message for a [`STATUS_ERR`](crate::proto::STATUS_ERR) reply.
    Err(String),
}

/// A tenant's ingestion tally, as reported by a `sync` barrier.
///
/// "Clean" after a faulted client means: every complete frame that
/// arrived was either ingested (`frames`/`records`) or accounted for
/// (`bad_frames`, `budget_rejected`) — a connection dying mid-message
/// never corrupts the tenant, it only ends that connection.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Frames decoded and ingested.
    pub frames: u64,
    /// Records those frames carried.
    pub records: u64,
    /// Frames rejected as defective (decode or program validation).
    pub bad_frames: u64,
    /// Frames rejected by the admission budget.
    pub budget_rejected: u64,
    /// Epochs observed by the engine so far.
    pub epochs: u64,
    /// Epochs whose candidate layout was adopted.
    pub replacements: u64,
}

impl Tally {
    /// Renders the tally as a single JSON object (stable key order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"frames\":{},\"records\":{},\"bad_frames\":{},\"budget_rejected\":{},\"epochs\":{},\"replacements\":{}}}",
            self.frames,
            self.records,
            self.bad_frames,
            self.budget_rejected,
            self.epochs,
            self.replacements
        )
    }

    /// Parses [`to_json`](Tally::to_json) output back: one
    /// [`Json::parse`] and six lookups. Returns `None` unless the text is
    /// one JSON document whose six fields are all present and each an
    /// exact integer (see [`Json::as_u64`]): a field that is missing,
    /// negative, fractional, or not below 2^53 (`9007199254740992`, where
    /// `f64` stops holding every integer) refuses the whole tally.
    pub fn from_json(text: &str) -> Option<Tally> {
        let doc = Json::parse(text).ok()?;
        let field = |name: &str| doc.get(name).and_then(Json::as_u64);
        Some(Tally {
            frames: field("frames")?,
            records: field("records")?,
            bad_frames: field("bad_frames")?,
            budget_rejected: field("budget_rejected")?,
            epochs: field("epochs")?,
            replacements: field("replacements")?,
        })
    }
}

/// A running tenant: the handle connections talk through plus the
/// worker thread for shutdown joining.
pub(crate) struct Tenant {
    /// Bounded job queue — `send` blocking on a full queue IS the
    /// backpressure path.
    pub sender: SyncSender<Job>,
    /// Worker thread, joined at server shutdown.
    pub thread: JoinHandle<()>,
}

/// Spawns a tenant worker. The program and algorithm are resolved by the
/// caller (so an `open` with a bad program fails the request, not the
/// worker).
pub(crate) fn spawn(
    name: &str,
    program: Program,
    algorithm: Box<dyn PlacementAlgorithm + Send>,
    config: DaemonConfig,
) -> std::io::Result<Tenant> {
    let (sender, receiver) = sync_channel(config.queue_capacity.clamp(1, MAX_QUEUE_CAPACITY));
    let registry = Arc::new(Registry::new());
    let thread = std::thread::Builder::new()
        .name(format!("tenant-{name}"))
        .spawn(move || run_worker(&program, &*algorithm, &config, &receiver, registry))?;
    Ok(Tenant { sender, thread })
}

/// The worker loop. Exits when every sender is dropped (server
/// shutdown). Holds the tenant's registry scope for its whole life, so
/// everything the engine records — `engine.epochs`, `engine.placements`,
/// profiling counters — lands per tenant.
fn run_worker(
    program: &Program,
    algorithm: &(dyn PlacementAlgorithm + Send),
    config: &DaemonConfig,
    jobs: &Receiver<Job>,
    registry: Arc<Registry>,
) {
    let _scope = tempo_obs::scoped(registry);
    let mut engine = Engine::new(program, algorithm, config.engine_config());
    let meter = BudgetMeter::new(config.budget);
    let mut pending: Vec<TraceRecord> = Vec::new();
    let mut tally = Tally::default();
    // The same epoch target the offline plan uses, under the same
    // buffering ceiling — this is what pins daemon epochs to
    // `plan_epochs` boundaries.
    let target = config.epoch_records.clamp(1, MAX_EPOCH_RECORDS);

    while let Ok(job) = jobs.recv() {
        match job {
            Job::Frame(bytes) => {
                ingest_frame(
                    &bytes,
                    program,
                    &meter,
                    &mut engine,
                    &mut pending,
                    &mut tally,
                    target,
                );
            }
            Job::Sync(reply) => {
                let _ = reply.send(Response::Ok(tally.to_json().into_bytes()));
            }
            Job::Layout(reply) => {
                // End-of-stream semantics: the pending tail becomes one
                // final epoch, exactly like the offline trailing epoch.
                if !pending.is_empty() {
                    observe(&mut engine, &mut pending, &mut tally);
                }
                let _ = reply.send(render_layout(&engine, program));
            }
            Job::Stats(reply) => {
                let _ = reply.send(Response::Ok(
                    tempo_obs::snapshot().render_json().into_bytes(),
                ));
            }
        }
    }
}

/// Decodes, validates, admits, and buffers one frame; flushes an epoch
/// when the pending records reach the target after this whole frame —
/// the incremental reproduction of [`tempo::plan_epochs`] boundaries.
fn ingest_frame(
    bytes: &[u8],
    program: &Program,
    meter: &BudgetMeter,
    engine: &mut Engine<'_>,
    pending: &mut Vec<TraceRecord>,
    tally: &mut Tally,
    target: u64,
) {
    let records = match decode_frame(bytes) {
        Ok(records) => records,
        Err(defect) => {
            tally.bad_frames += 1;
            tempo_obs::counter("daemon.tenant.bad_frames").incr();
            tempo_obs::event(
                "daemon.tenant",
                "defective frame rejected",
                &[("defect", defect.to_string().as_str().into())],
            );
            return;
        }
    };
    // The per-record rule the strict offline reader enforces, applied at
    // frame granularity: one bad record rejects its frame, not the
    // session.
    if !records.iter().all(|r| r.fits(program)) {
        tally.bad_frames += 1;
        tempo_obs::counter("daemon.tenant.bad_frames").incr();
        tempo_obs::event(
            "daemon.tenant",
            "frame rejected: records do not fit the program",
            &[],
        );
        return;
    }
    if meter.charge(records.len() as u64).is_err() {
        tally.budget_rejected += 1;
        tempo_obs::counter("daemon.tenant.budget_rejected").incr();
        tempo_obs::event(
            "daemon.tenant",
            "frame rejected: admission budget exhausted",
            &[("spent", meter.spent().into())],
        );
        return;
    }
    tally.frames += 1;
    tally.records += records.len() as u64;
    tempo_obs::counter("daemon.tenant.frames").incr();
    tempo_obs::counter("daemon.tenant.records").add(records.len() as u64);
    pending.extend(records);
    if pending.len() as u64 >= target {
        observe(engine, pending, tally);
    }
}

/// Flushes the pending records as one epoch.
fn observe(engine: &mut Engine<'_>, pending: &mut Vec<TraceRecord>, tally: &mut Tally) {
    let epoch = Trace::from_records(std::mem::take(pending));
    let report = engine.observe_epoch(&epoch);
    tally.epochs += 1;
    if report.replaced {
        tally.replacements += 1;
    }
}

/// Serializes the engine's current layout, validating it first.
fn render_layout(engine: &Engine<'_>, program: &Program) -> Response {
    let Some(layout) = engine.layout() else {
        return Response::Err("no epochs observed yet; no layout to serve".to_string());
    };
    if let Err(e) = layout.validate(program) {
        return Response::Err(format!("engine produced an invalid layout: {e}"));
    }
    let mut buf = Vec::new();
    match write_layout(&mut buf, layout) {
        Ok(()) => Response::Ok(buf),
        Err(e) => Response::Err(format!("layout serialization failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_json_roundtrips() {
        let t = Tally {
            frames: 12,
            records: 34_567,
            bad_frames: 2,
            budget_rejected: 1,
            epochs: 3,
            replacements: 2,
        };
        assert_eq!(Tally::from_json(&t.to_json()), Some(t));
        assert_eq!(Tally::from_json("{}"), None);
        assert_eq!(Tally::from_json("not json"), None);
    }

    /// `to_json` bytes, pinned: the compact `SYNC` reply layout.
    #[test]
    fn tally_json_bytes_are_pinned() {
        let t = Tally {
            frames: 3,
            records: 375,
            bad_frames: 1,
            budget_rejected: 2,
            epochs: 9_007_199_254_740_991,
            replacements: 0,
        };
        let text = r#"{"frames":3,"records":375,"bad_frames":1,"budget_rejected":2,"epochs":9007199254740991,"replacements":0}"#;
        assert_eq!(t.to_json(), text);
        assert_eq!(Tally::from_json(text), Some(t));
    }

    /// Any one bad field refuses the whole tally.
    #[test]
    fn tally_from_json_is_strict() {
        let ok = r#"{"frames":3,"records":375,"bad_frames":1,"budget_rejected":2,"epochs":4,"replacements":0}"#;
        assert!(Tally::from_json(ok).is_some());
        for bad in [
            r#"{"records":375,"bad_frames":1,"budget_rejected":2,"epochs":4,"replacements":0}"#,
            r#"{"frames":-3,"records":375,"bad_frames":1,"budget_rejected":2,"epochs":4,"replacements":0}"#,
            r#"{"frames":3,"records":375.5,"bad_frames":1,"budget_rejected":2,"epochs":4,"replacements":0}"#,
            r#"{"frames":3,"records":375,"bad_frames":1,"budget_rejected":2,"epochs":9007199254740994,"replacements":0}"#,
            r#"{"frames":3,"records":375,"bad_frames":1,"budget_rejected":2,"epochs":4,"replacements":"0"}"#,
            r#"{"frames":3,"records":375,"bad_frames":1,"budget_rejected":2,"epochs":4,"replacements":0"#,
        ] {
            assert_eq!(Tally::from_json(bad), None, "{bad}");
        }
    }
}
