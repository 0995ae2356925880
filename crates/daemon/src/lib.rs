//! `tempod`: the multi-tenant placement daemon over the incremental
//! epoch [`Engine`](tempo::Engine).
//!
//! The one-shot CLI pipeline freezes a layout from one training trace;
//! ROADMAP item 1 (motivated by "Modeling the Input History of Programs",
//! PAPERS.md) calls for layouts that *track* live, drifting input
//! streams from many concurrent users. This crate is that server:
//!
//! * **Transport** — a unix-domain socket (TCP optional) carrying
//!   length-delimited messages ([`proto`]). Trace data travels as whole
//!   TMP2 v2 frames, verbatim — the same bytes `tempo-trace` writes to
//!   disk — decoded server-side by
//!   [`decode_frame`](tempo::trace::v2::decode_frame).
//! * **Tenancy** — each tenant name owns one worker thread running one
//!   long-lived incremental [`Engine`](tempo::Engine) (decaying profile
//!   window, drift-triggered re-placement) over the tenant's program.
//!   Any number of connections may feed the same tenant; their frames
//!   interleave in arrival order.
//! * **Backpressure** — every tenant has a *bounded* job queue. When a
//!   tenant's engine falls behind, senders block in `send`, which stops
//!   reading their sockets, which fills the kernel buffers, which stalls
//!   the clients: flow control end to end, no unbounded buffering.
//! * **Admission** — a per-tenant [`Budget`](tempo::place::Budget) is
//!   metered in trace records; frames past the budget are rejected and
//!   tallied, never silently dropped.
//! * **Observability** — each tenant worker holds a
//!   [`tempo_obs::scoped`] registry, so the engine's `engine.*` counters
//!   land per tenant and are served live over the wire
//!   ([`Client::stats`]); connection-level counters (`daemon.*`) land in
//!   the process-global registry ([`Client::server_stats`]).
//!
//! **Equivalence contract** (CI-gated): a single-tenant session fed a
//! whole v2 trace frame-by-frame, then asked for its layout, produces
//! bytes identical to `tempo engine` offline on the same trace with the
//! same settings. This holds because epoch boundaries are reproduced
//! exactly: the offline path plans epochs from frame record counts
//! ([`plan_epochs`](tempo::plan_epochs) folds frames until the target is
//! met), and the worker flushes an epoch whenever the pending records
//! reach the same target after a whole frame — the identical boundaries,
//! computed incrementally. The layout request folds the pending tail
//! into one final epoch, exactly like end-of-source offline.

// In the test build, `unwrap` IS the assertion.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::cast_possible_truncation))]
// The daemon must stay up under every input: errors are replies or
// tallies, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod client;
pub mod proto;
mod server;
mod tenant;

pub use client::{split_frames, Client, ClientError};
pub use server::Server;
pub use tenant::Tally;

use tempo::cache::CacheConfig;
use tempo::place::Budget;
use tempo::trg::PopularitySelector;
use tempo::EngineConfig;

/// Server-wide configuration; every tenant engine inherits it.
///
/// The defaults match the `tempo engine` CLI defaults exactly — that is
/// what makes the offline-equivalence contract checkable without
/// repeating flags on both sides.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Cache geometry profiled and placed for.
    pub cache: CacheConfig,
    /// Placement algorithm name, resolved per tenant worker
    /// (`default|random[:SEED]|ph|hkc|gbsc|gbsc-sa|trg-chains|wcg-offsets`).
    pub algorithm: String,
    /// Popularity coverage for the first-epoch membership pin.
    pub coverage: f64,
    /// Minimum reference count for popularity membership.
    pub min_count: u64,
    /// Records per epoch (frame-aligned, like the offline plan).
    pub epoch_records: u64,
    /// Window decay in `(0, 1]`; `1.0` keeps everything.
    pub decay: f64,
    /// Drift/adoption threshold of the engine.
    pub replace_threshold: f64,
    /// Per-tenant admission budget, metered in trace records. The
    /// default is unlimited.
    pub budget: Budget,
    /// Bound of each tenant's job queue — the backpressure depth. A full
    /// queue blocks the sending connections instead of buffering. Clamped
    /// to `1..=`[`MAX_QUEUE_CAPACITY`].
    pub queue_capacity: usize,
}

/// Largest tenant queue bound. A bounded channel allocates every slot up
/// front when the tenant opens, so this caps that allocation (2 MiB per
/// tenant) rather than letting one setting abort the whole server at its
/// first `open`.
pub const MAX_QUEUE_CAPACITY: usize = 1 << 16;

impl DaemonConfig {
    /// A config with the `tempo engine` CLI defaults: GBSC, coverage
    /// 0.995 with min count 2, 100k-record epochs, no decay, a 2%
    /// replacement threshold, an unlimited budget, and a 64-job queue.
    pub fn new(cache: CacheConfig) -> Self {
        DaemonConfig {
            cache,
            algorithm: "gbsc".to_string(),
            coverage: 0.995,
            min_count: 2,
            epoch_records: 100_000,
            decay: 1.0,
            replace_threshold: 0.02,
            budget: Budget::unlimited(),
            queue_capacity: 64,
        }
    }

    /// The engine configuration a tenant worker runs with.
    pub(crate) fn engine_config(&self) -> EngineConfig {
        let mut config = EngineConfig::new(self.cache);
        config.selector =
            PopularitySelector::coverage(self.coverage).with_min_count(self.min_count);
        config.epoch_records = self.epoch_records;
        config.decay = self.decay;
        config.replace_threshold = self.replace_threshold;
        config
    }
}
