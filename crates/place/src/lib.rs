//! Procedure-placement algorithms for the **tempo** toolkit.
//!
//! This crate implements the three algorithms compared in the paper's
//! evaluation (§5), plus baselines and the conflict metrics used in its
//! Figure 6 correlation study:
//!
//! * [`SourceOrder`] — the compiler-default layout (procedures in id
//!   order), the baseline every miss-rate table is measured against.
//! * [`RandomOrder`] — a seeded random permutation, useful as a sanity
//!   bound.
//! * [`PettisHansen`] (PH) — the classic greedy chain-merging algorithm
//!   driven by call-graph edge weights (§2).
//! * [`CacheColoring`] (HKC) — a Hashemi–Kaeli–Calder-style placement that
//!   extends PH with procedure sizes and cache geometry: it tracks the
//!   cache lines each placed procedure occupies and picks alignments that
//!   avoid overlap with call-graph neighbours, but uses no temporal
//!   information.
//! * [`Gbsc`] — the paper's contribution: greedy merging over the
//!   procedure-grain `TRG_select`, with cache-relative alignments chosen by
//!   scanning every offset against the chunk-grain `TRG_place`
//!   (the `merge_nodes` routine of Figure 4), followed by the smallest-
//!   positive-gap linearization of §4.3.
//! * [`GbscSetAssoc`] — the §6 extension for set-associative caches,
//!   costing alignments with the pair database `D(p, {r, s})`.
//! * [`metric`] — placement-wide conflict metrics (TRG- and WCG-based) for
//!   the Figure 6 correlation experiment.
//!
//! # Example
//!
//! ```
//! use tempo_program::Program;
//! use tempo_trace::Trace;
//! use tempo_cache::{CacheConfig, simulate};
//! use tempo_trg::{Profiler, PopularitySelector};
//! use tempo_place::{Gbsc, PlacementAlgorithm, PlacementContext};
//!
//! let program = Program::builder()
//!     .procedure("m", 4096)
//!     .procedure("x", 4096)
//!     .procedure("pad", 4096)
//!     .procedure("y", 4096)
//!     .build()?;
//! let ids: Vec<_> = program.ids().collect();
//! // m and y alternate heavily; under source order they conflict in 8 KB.
//! let mut refs = Vec::new();
//! for _ in 0..50 { refs.extend([ids[0], ids[3]]); }
//! let trace = Trace::from_full_records(&program, refs);
//!
//! let profile = Profiler::new(&program, CacheConfig::direct_mapped_8k())
//!     .popularity(PopularitySelector::all())
//!     .profile(&trace);
//! let ctx = PlacementContext::new(&program, &profile);
//! let layout = Gbsc::new().place(&ctx);
//!
//! let stats = simulate(&program, &layout, &trace, CacheConfig::direct_mapped_8k());
//! assert!(stats.miss_rate() < 0.05, "GBSC must separate m and y");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// In the test build, `unwrap` IS the assertion.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::cast_possible_truncation))]
// Outside tests this crate must never panic on a Result: the workspace
// warns on `unwrap_used`; here it is a hard error.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod ablate;
mod baseline;
pub mod budget;
mod context;
pub mod exhaustive;
mod gbsc;
mod hkc;
mod linearize;
mod merge;
pub mod metric;
mod ph;
pub mod splitting;

/// The `BTreeMap` graph the shipped sorted-row graph replaced, as the
/// reference the placement tests compare against.
#[cfg(test)]
#[path = "../../trg/src/reference_graph.rs"]
mod reference_graph;

use tempo_cache::CacheConfig;

pub use ablate::{TrgChains, WcgOffsets};
pub use baseline::{RandomOrder, SourceOrder};
pub use budget::{
    place_with_fallback, Budget, BudgetExhausted, BudgetMeter, Degradation, DegradationTier,
};
pub use context::{PlacementAlgorithm, PlacementContext};
pub use gbsc::{Gbsc, GbscSetAssoc, PlacementTuples};
pub use hkc::CacheColoring;
pub use linearize::linearize;
pub use ph::PettisHansen;
pub use splitting::{SplitPlan, SplitProgram};

/// Resolves a placement algorithm by name, like [`algorithm_by_name`], for
/// profiles gathered for `cache` with (`pair_db`) or without a §6 pair
/// database — the combination a caller will hand it.
///
/// # Errors
///
/// Everything [`algorithm_by_name`] rejects, plus `gbsc-sa` on a
/// direct-mapped cache or without a pair database: it would panic when
/// placing.
pub fn algorithm_for(
    name: &str,
    cache: CacheConfig,
    pair_db: bool,
) -> Result<Box<dyn PlacementAlgorithm + Send>, String> {
    let algorithm = algorithm_by_name(name)?;
    if name == "gbsc-sa" {
        if cache.is_direct_mapped() {
            return Err(
                "`gbsc-sa` targets set-associative caches; use `gbsc` for a direct-mapped cache"
                    .to_string(),
            );
        }
        if !pair_db {
            return Err(
                "`gbsc-sa` needs a profile with a pair database (`profile --pair-db`); \
                 the epoch engine and tempod build none"
                    .to_string(),
            );
        }
    }
    Ok(algorithm)
}

/// Resolves a placement algorithm by its command-line name: `default`,
/// `random[:SEED]`, `ph`, `hkc`, `gbsc`, `gbsc-sa`, `trg-chains` or
/// `wcg-offsets`.
///
/// # Errors
///
/// Returns a usage message naming the accepted names for an unknown name
/// or a malformed seed.
pub fn algorithm_by_name(name: &str) -> Result<Box<dyn PlacementAlgorithm + Send>, String> {
    if let Some(seed) = name.strip_prefix("random:") {
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("bad random seed in `{name}`"))?;
        return Ok(Box::new(RandomOrder::new(seed)));
    }
    Ok(match name {
        "default" => Box::new(SourceOrder::new()),
        "random" => Box::new(RandomOrder::new(0)),
        "ph" => Box::new(PettisHansen::new()),
        "hkc" => Box::new(CacheColoring::new()),
        "gbsc" => Box::new(Gbsc::new()),
        "gbsc-sa" => Box::new(GbscSetAssoc::new()),
        "trg-chains" => Box::new(TrgChains::new()),
        "wcg-offsets" => Box::new(WcgOffsets::new()),
        other => {
            return Err(format!(
                "unknown algorithm `{other}` (default|random[:SEED]|ph|hkc|gbsc|gbsc-sa|trg-chains|wcg-offsets)"
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbsc_sa_needs_an_associative_cache_and_a_pair_db() {
        let dm = CacheConfig::direct_mapped_8k();
        let two_way = CacheConfig::new(8192, 32, 2).unwrap();
        assert!(algorithm_for("gbsc-sa", two_way, true).is_ok());
        let err = algorithm_for("gbsc-sa", dm, true).err().unwrap();
        assert!(err.contains("set-associative"), "{err}");
        let err = algorithm_for("gbsc-sa", two_way, false).err().unwrap();
        assert!(err.contains("pair database"), "{err}");
        // Everything else places any profile; typos still fail.
        assert!(algorithm_for("gbsc", dm, false).is_ok());
        assert!(algorithm_for("bolt", two_way, true).is_err());
    }
}
