//! Temporal-ordering profile construction for the **tempo** toolkit.
//!
//! This crate implements §3 of Gloy, Blackwell, Smith & Calder (MICRO-30,
//! 1997): the machinery that turns a program trace into the summaries the
//! placement algorithms consume.
//!
//! * [`WeightedGraph`] — undirected weighted graph used for the WCG and both
//!   TRGs, with the paper's §5.1 multiplicative profile perturbation.
//! * [`QSet`] — the bounded ordered set of recently referenced code blocks;
//!   a block stays in `Q` until enough *unique* code (twice the cache size)
//!   has been executed since its last reference.
//! * [`Profiler`] / [`ProfileData`] — a single pass over a trace that
//!   simultaneously builds the weighted call graph (WCG), the
//!   procedure-grain `TRG_select`, the chunk-grain `TRG_place`, and
//!   (optionally) the §6 pair database for set-associative caches.
//! * [`PopularSet`] — the popular-procedure filter (after Hashemi et al.)
//!   that keeps graph sizes tractable.
//!
//! # Example
//!
//! ```
//! use tempo_program::Program;
//! use tempo_trace::Trace;
//! use tempo_cache::CacheConfig;
//! use tempo_trg::{Profiler, PopularitySelector};
//!
//! let program = Program::builder()
//!     .procedure("m", 512)
//!     .procedure("x", 256)
//!     .procedure("y", 256)
//!     .build()?;
//! let ids: Vec<_> = program.ids().collect();
//! // m X m X ... m Y m Y ... (the paper's trace #2 shape)
//! let mut refs = Vec::new();
//! for i in 0..40 { refs.extend([ids[0], ids[if i < 20 { 1 } else { 2 }]]); }
//! let trace = Trace::from_full_records(&program, refs);
//!
//! let profile = Profiler::new(&program, CacheConfig::direct_mapped_8k())
//!     .popularity(PopularitySelector::all())
//!     .profile(&trace);
//!
//! // Interleaving m<->x and m<->y shows up; x<->y interleaving does not.
//! let (m, x, y) = (ids[0].index(), ids[1].index(), ids[2].index());
//! assert!(profile.trg_select.weight(m, x) > 0.0);
//! assert!(profile.trg_select.weight(m, y) > 0.0);
//! assert_eq!(profile.trg_select.weight(x, y), 0.0); // phases never interleave x and y
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// In the test build, `unwrap` IS the assertion.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::cast_possible_truncation))]
// Outside tests this crate must never panic on a Result: the workspace
// warns on `unwrap_used`; here it is a hard error.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod fasthash;
mod graph;
pub mod io;
mod pairdb;
mod popular;
mod profiler;
mod qset;
#[cfg(test)]
mod reference_graph;

pub use graph::{Edge, WeightedGraph};
pub use pairdb::PairDb;
pub use popular::{PopularSet, PopularitySelector};
pub use profiler::{MergeError, ProfileData, ProfileStream, ProfileWarnings, Profiler, QStats};
pub use qset::{QSet, QSetEvent};
