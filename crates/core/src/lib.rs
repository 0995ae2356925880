//! # tempo — temporal-ordering procedure placement
//!
//! A from-scratch reproduction of *“Procedure Placement Using Temporal
//! Ordering Information”* (Gloy, Blackwell, Smith & Calder, MICRO-30,
//! 1997): profile a program trace into temporal relationship graphs, place
//! procedures to minimize instruction-cache conflict misses, and evaluate
//! the result with a line-accurate cache simulator.
//!
//! This crate is the facade: it re-exports the whole toolkit and adds the
//! [`Session`] pipeline, which strings the pieces together:
//!
//! ```text
//! trace ──► Session::profile ──► ProfiledSession ──► place(GBSC) ──► Layout
//!                                      │                               │
//!                                      └──────── evaluate ◄────────────┘
//! ```
//!
//! # Quickstart
//!
//! ```
//! use tempo::prelude::*;
//!
//! // A toy program: a dispatcher and two leaves that alternate.
//! let program = Program::builder()
//!     .procedure("main", 4096)
//!     .procedure("pad", 4096)
//!     .procedure("leaf", 4096)
//!     .build()?;
//! let ids: Vec<_> = program.ids().collect();
//! let mut refs = Vec::new();
//! for _ in 0..100 { refs.extend([ids[0], ids[2]]); }
//! let trace = Trace::from_full_records(&program, refs);
//!
//! let cache = CacheConfig::direct_mapped_8k();
//! let session = Session::new(&program, cache)
//!     .popularity(PopularitySelector::all())
//!     .profile(&trace);
//!
//! let default = session.place(&SourceOrder::new());
//! let gbsc = session.place(&Gbsc::new());
//! let miss_default = session.evaluate(&default, &trace).miss_rate();
//! let miss_gbsc = session.evaluate(&gbsc, &trace).miss_rate();
//! assert!(miss_gbsc < miss_default);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The sub-crates are re-exported under their domain names: [`program`],
//! [`trace`], [`cache`], [`trg`], [`place`], [`analyze`] and
//! [`workloads`].

// In the test build, `unwrap` IS the assertion.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::cast_possible_truncation))]

pub use tempo_analyze as analyze;
pub use tempo_cache as cache;
pub use tempo_obs as obs;
pub use tempo_place as place;
pub use tempo_program as program;
pub use tempo_trace as trace;
pub use tempo_trg as trg;
pub use tempo_workloads as workloads;

mod compare;
mod engine;
mod session;

pub use compare::{compare, Comparison, ComparisonRow};
pub use engine::{
    check_engine_settings, plan_epochs, Engine, EngineConfig, EpochReport, MAX_EPOCH_RECORDS,
};
pub use session::{ProfiledSession, Session};

/// Convenient glob-import surface: the types used in almost every program.
pub mod prelude {
    pub use tempo_analyze::{AnalysisInput, AnalysisReport, Analyzer};
    pub use tempo_cache::{simulate, CacheConfig, InstructionCache, SimStats};
    pub use tempo_place::{
        Budget, CacheColoring, Degradation, DegradationTier, Gbsc, GbscSetAssoc, PettisHansen,
        PlacementAlgorithm, PlacementContext, RandomOrder, SourceOrder,
    };
    pub use tempo_program::{ChunkId, Layout, ProcId, Program};
    pub use tempo_trace::io::TraceWarnings;
    pub use tempo_trace::{pump, MemorySource, Tee, Trace, TraceRecord, TraceSink, TraceSource};
    pub use tempo_trg::{PopularitySelector, ProfileData, ProfileWarnings, Profiler};

    pub use crate::{compare, Comparison, Engine, EngineConfig, ProfiledSession, Session};
}
