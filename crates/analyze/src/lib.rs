//! # tempo-analyze — static layout linter and conflict-miss predictor
//!
//! This crate checks a finished [`Layout`] against the [`Program`] and
//! cache it targets **without running the simulator**, producing CI-grade
//! diagnostics in three layers:
//!
//! 1. **Diagnostics framework** — [`Diagnostic`] findings with stable
//!    codes, an [`AnalysisReport`] with severity counts, human-readable
//!    and JSON renderers, and an exit-code contract (`0` clean, `1`
//!    diagnostics failed; usage errors are the CLI's `2`).
//! 2. **Structural lints** ([`rules`]) — overlap, procedure-coverage,
//!    chunk-table integrity, alignment-vs-address agreement, split
//!    hot/cold invariants, padding blowup, and unaligned popular
//!    procedures.
//! 3. **Conflict predictor** ([`predictor`]) — a per-set pressure map and
//!    the top conflicting procedure pairs with estimated miss bounds,
//!    generalizing the `TRG_place` conflict metric of
//!    [`tempo_place::metric`]; [`predictor::cross_validate`] checks its
//!    layout ranking against the real simulator.
//!
//! # Example
//!
//! ```
//! use tempo_analyze::{AnalysisInput, Analyzer};
//! use tempo_cache::CacheConfig;
//! use tempo_program::{Layout, Program};
//!
//! let program = Program::builder()
//!     .procedure("a", 100)
//!     .procedure("b", 200)
//!     .build()?;
//! // b starts inside a: a structural error.
//! let layout = Layout::from_addresses(vec![0, 50]);
//! let input = AnalysisInput::new(&program, &layout, CacheConfig::direct_mapped_8k());
//! let report = Analyzer::new().analyze(&input);
//! assert_eq!(report.error_count(), 1);
//! assert_eq!(report.exit_code(false), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// In the test build, `unwrap` IS the assertion.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::cast_possible_truncation))]

pub mod bounds;
mod diagnostics;
pub mod predictor;
pub mod rules;

pub use bounds::{miss_bounds, screen_layouts, MissBounds, ScreenReport, ScreenedLayout};
pub use diagnostics::{AnalysisReport, Diagnostic, Severity};
pub use predictor::{
    BoundsCheckRow, BoundsValidation, ConflictPair, ConflictPrediction, CrossValidation,
    SetPressure,
};
pub use rules::Rule;

use tempo_cache::CacheConfig;
use tempo_place::{PlacementTuples, SplitProgram};
use tempo_program::{Layout, Program};
use tempo_trg::{PopularSet, ProfileData, WeightedGraph};

/// Everything one analysis run looks at: the mandatory program + layout +
/// cache triple, plus whatever optional profiling and placement artifacts
/// are available (each unlocks additional rules).
#[derive(Debug, Clone, Copy)]
pub struct AnalysisInput<'a> {
    /// The program the layout places.
    pub program: &'a Program,
    /// The layout under analysis.
    pub layout: &'a Layout,
    /// The cache geometry to check against.
    pub cache: CacheConfig,
    /// Chunk-grain temporal graph; enables weighted conflict prediction.
    pub trg_place: Option<&'a WeightedGraph>,
    /// Procedure-grain temporal graph; enables the miss-bound lower bound.
    pub trg_select: Option<&'a WeightedGraph>,
    /// Weighted call graph (currently informational only).
    pub wcg: Option<&'a WeightedGraph>,
    /// Popular-procedure set; enables the unaligned-popular rule.
    pub popular: Option<&'a PopularSet>,
    /// The placement's alignment decisions; enables the alignment rules.
    pub tuples: Option<&'a PlacementTuples>,
    /// Hot/cold split mapping; enables the split-invariant rule.
    pub split: Option<&'a SplitProgram>,
}

impl<'a> AnalysisInput<'a> {
    /// Creates an input with only the mandatory triple.
    pub fn new(program: &'a Program, layout: &'a Layout, cache: CacheConfig) -> Self {
        AnalysisInput {
            program,
            layout,
            cache,
            trg_place: None,
            trg_select: None,
            wcg: None,
            popular: None,
            tuples: None,
            split: None,
        }
    }

    /// Creates an input wired to a training profile (cache geometry,
    /// both TRGs, WCG, and popularity all come from `profile`).
    pub fn from_profile(
        program: &'a Program,
        layout: &'a Layout,
        profile: &'a ProfileData,
    ) -> Self {
        AnalysisInput::new(program, layout, profile.cache)
            .with_trg_place(&profile.trg_place)
            .with_trg_select(&profile.trg_select)
            .with_wcg(&profile.wcg)
            .with_popular(&profile.popular)
    }

    /// Supplies the chunk-grain temporal graph.
    #[must_use]
    pub fn with_trg_place(mut self, g: &'a WeightedGraph) -> Self {
        self.trg_place = Some(g);
        self
    }

    /// Supplies the procedure-grain temporal graph (`TRG_select`).
    #[must_use]
    pub fn with_trg_select(mut self, g: &'a WeightedGraph) -> Self {
        self.trg_select = Some(g);
        self
    }

    /// Supplies the weighted call graph.
    #[must_use]
    pub fn with_wcg(mut self, g: &'a WeightedGraph) -> Self {
        self.wcg = Some(g);
        self
    }

    /// Supplies the popular-procedure set.
    #[must_use]
    pub fn with_popular(mut self, p: &'a PopularSet) -> Self {
        self.popular = Some(p);
        self
    }

    /// Supplies the placement's alignment tuples.
    #[must_use]
    pub fn with_tuples(mut self, t: &'a PlacementTuples) -> Self {
        self.tuples = Some(t);
        self
    }

    /// Supplies the hot/cold split mapping.
    #[must_use]
    pub fn with_split(mut self, s: &'a SplitProgram) -> Self {
        self.split = Some(s);
        self
    }
}

/// The analysis driver: runs every registered rule, then the conflict
/// predictor, and aggregates an [`AnalysisReport`].
#[derive(Debug, Clone)]
pub struct Analyzer {
    top_k: usize,
    with_bounds: bool,
}

impl Analyzer {
    /// An analyzer reporting the top 8 hot sets and conflict pairs.
    pub fn new() -> Self {
        Analyzer {
            top_k: 8,
            with_bounds: false,
        }
    }

    /// Bounds the number of hot sets / conflict pairs in the prediction.
    #[must_use]
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k;
        self
    }

    /// Also attaches the sound conflict-miss interval ([`MissBounds`]) to
    /// the report (requires a popular set on the input; `tempo analyze
    /// --bounds`).
    #[must_use]
    pub fn with_bounds(mut self, on: bool) -> Self {
        self.with_bounds = on;
        self
    }

    /// Analyzes one layout.
    ///
    /// Times its three layers as the `analyze.rules`, `analyze.predict`
    /// and `analyze.miss_bounds` spans.
    pub fn analyze(&self, input: &AnalysisInput<'_>) -> AnalysisReport {
        let mut report = AnalysisReport::new();
        let span = tempo_obs::span("analyze.rules");
        for rule in rules::registry() {
            rule.check(input, &mut report);
        }
        span.finish();
        // The predictor analyzes whatever prefix of the procedure ids the
        // layout covers; a partial layout still yields pressure data for
        // the covered subset, flagged with a partial-coverage note.
        let covered = input.program.len().min(input.layout.len());
        if covered > 0 {
            let span = tempo_obs::span("analyze.predict");
            report.set_prediction(predictor::predict(
                input.program,
                input.layout,
                input.cache,
                input.trg_place,
                self.top_k,
            ));
            span.finish();
            if covered < input.program.len() {
                report.push(
                    Diagnostic::new(
                        "P001",
                        Severity::Note,
                        format!(
                            "prediction covers only {covered} of {} procedures \
                             (the layout has no address for the rest)",
                            input.program.len()
                        ),
                    )
                    .with_suggestion("pressure data below describes the covered subset only"),
                );
            }
        }
        if self.with_bounds && covered > 0 {
            if let Some(popular) = input.popular {
                let _span = tempo_obs::span("analyze.miss_bounds");
                report.set_bounds(bounds::miss_bounds(
                    input.program,
                    input.layout,
                    input.cache,
                    popular,
                    input.trg_select,
                ));
            }
        }
        report
    }
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer::new()
    }
}
