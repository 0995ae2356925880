//! Instruction-cache modeling for the **tempo** toolkit.
//!
//! The paper evaluates procedure placements by simulating an instruction
//! cache over a program trace (an 8 KB direct-mapped cache with 32-byte
//! lines in §5.2, and 2-way set-associative caches in §6). This crate
//! provides:
//!
//! * [`CacheConfig`] — validated geometry (size, line size, associativity),
//! * [`InstructionCache`] — a line-accurate cache model with LRU replacement
//!   covering direct-mapped and N-way set-associative organizations,
//! * [`Simulator`] / [`simulate`] / [`simulate_layouts_streamed`] —
//!   trace-driven miss simulation of one or several
//!   [`Layout`](tempo_program::Layout)s, producing [`SimStats`].
//!
//! # Example
//!
//! ```
//! use tempo_program::{Program, Layout};
//! use tempo_trace::Trace;
//! use tempo_cache::{CacheConfig, simulate};
//!
//! let program = Program::builder()
//!     .procedure("a", 4096)
//!     .procedure("b", 4096)
//!     .procedure("c", 4096)
//!     .build()?;
//! let layout = Layout::source_order(&program);
//! let cache = CacheConfig::direct_mapped_8k();
//!
//! let ids: Vec<_> = program.ids().collect();
//! // Alternate a -> c -> a -> c ...; a and c conflict in an 8 KB cache
//! // under the source-order layout (both map to the same 4 KB half).
//! let trace = Trace::from_full_records(&program, (0..10).map(|i| ids[if i % 2 == 0 { 0 } else { 2 }]));
//! let stats = simulate(&program, &layout, &trace, cache);
//! assert_eq!(stats.line_miss_rate(), 1.0); // every line access conflicts
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// In the test build, `unwrap` IS the assertion.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::cast_possible_truncation))]

mod cache;
mod classify;
mod config;
mod sim;
pub mod sweep;

pub use cache::InstructionCache;
pub use classify::{classify, MissBreakdown};
pub use config::{CacheConfig, CacheConfigError};
pub use sim::{simulate, SimStats, Simulator, BLOCK_RECORDS};
pub use sweep::simulate_layouts_streamed;
