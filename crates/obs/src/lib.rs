//! Dependency-free observability for the tempo pipeline.
//!
//! Every long-running stage of the toolkit — trace ingestion, Q-set
//! profiling, placement, cache simulation — is instrumented against this
//! crate so that a multi-hour paper-scale run (17M–146M records, §5 of
//! Gloy et al.) is not a black box while it executes. The crate provides
//! four primitives and deliberately nothing else:
//!
//! * [`Counter`] — monotonically increasing `u64` (records read, Q-set
//!   evictions, cache misses, ...).
//! * [`Gauge`] — last-write-wins `f64` (peak RSS, live Q-set bytes).
//! * [`Histogram`] — count/sum/min/max plus log2 buckets of recorded
//!   samples (stage latencies).
//! * [`Span`] — a scoped timer guard; dropping it records the elapsed
//!   milliseconds into a histogram of the same name.
//!
//! Metrics live in a process-wide [`Registry`] (see [`global`]) keyed by
//! a dotted vocabulary (`trace.records_read`, `profile.qset_evictions`,
//! `sim.misses`; the full map to paper quantities is DESIGN.md §11). A
//! [`Snapshot`] of the registry renders to deterministic text or JSON and
//! parses back, which is what backs `--metrics-out` and `tempo stats`.
//! Long-running servers scope recording per tenant with [`scoped`]: a
//! thread that holds a scope guard routes every free-function metric into
//! its own [`Registry`] instead of the global one (DESIGN.md §16).
//!
//! Every JSON reader and writer in the workspace goes through [`json`],
//! the one codec: a value type, a parser, and the shared string escaper
//! and number rule (DESIGN.md §11).
//!
//! Structured events ([`event`]) are separate from metrics: they are
//! emitted to stderr as they happen, in text or JSON-lines form, and are
//! silenced by default (see [`set_log_format`]).
//!
//! Instrumentation is counters-only at the simulation level: recording a
//! metric never changes a simulated result, so instrumented and
//! uninstrumented runs produce byte-identical miss counts.

// In the test build, `unwrap` IS the assertion.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::cast_possible_truncation))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod event;
pub mod json;
mod metrics;
mod registry;
mod snapshot;
mod span;

pub use event::{event, format_event, set_log_format, EventField, LogFormat};
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary};
pub use registry::{global, scoped, with_current, Registry, ScopeGuard};
pub use snapshot::{MetricValue, Snapshot};
pub use span::Span;

use std::sync::Arc;

/// The current counter named `name` (registering it on first use).
///
/// "Current" is the innermost [`scoped`] registry on this thread, or the
/// [`global`] registry outside any scope — so library code instrumented
/// with these free functions records per-tenant when a daemon worker
/// holds a scope, and process-wide everywhere else.
pub fn counter(name: &str) -> Arc<Counter> {
    with_current(|r| r.counter(name))
}

/// The current gauge named `name` (registering it on first use; scope
/// resolution as in [`counter`]).
pub fn gauge(name: &str) -> Arc<Gauge> {
    with_current(|r| r.gauge(name))
}

/// The current histogram named `name` (registering it on first use;
/// scope resolution as in [`counter`]).
pub fn histogram(name: &str) -> Arc<Histogram> {
    with_current(|r| r.histogram(name))
}

/// Starts a scoped timer on the current registry; dropping the returned
/// [`Span`] records the elapsed milliseconds into histogram `name`
/// (scope resolution as in [`counter`]).
pub fn span(name: &str) -> Span {
    with_current(|r| r.span(name))
}

/// A point-in-time snapshot of the current registry, in sorted name
/// order (scope resolution as in [`counter`]).
pub fn snapshot() -> Snapshot {
    with_current(Registry::snapshot)
}
