//! Integration tests for the `tempo-analyze` linter and predictor against
//! the full pipeline: every real placement algorithm must produce a clean
//! report on the bundled synthetic workloads, every injected corruption
//! class must trip its rule (and the CI exit contract), and the static
//! conflict predictor must rank layouts the way the simulator does.

#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test/demo code asserts by panicking

use std::sync::OnceLock;

use tempo::analyze::{predictor, AnalysisInput, Analyzer, Severity};
use tempo::place::{PlacementTuples, SplitPlan, SplitProgram};
use tempo::prelude::*;
use tempo::workloads::suite;

const TRACE_LEN: usize = 40_000;

/// One workload profiled once, with each algorithm's layout, shared by
/// every test in this file (profiling and placement dominate the runtime).
struct Fixture {
    model: tempo::workloads::BenchmarkModel,
    profile: ProfileData,
    layouts: Vec<(&'static str, Layout)>,
}

impl Fixture {
    fn program(&self) -> &Program {
        self.model.program()
    }

    fn layout(&self, name: &str) -> &Layout {
        &self
            .layouts
            .iter()
            .find(|(n, _)| *n == name)
            .expect("known layout name")
            .1
    }
}

fn fixtures() -> &'static [Fixture] {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        // The four smaller Table-1 models; gcc and go (2000+ procedures)
        // triple the debug-mode runtime without exercising anything new.
        [
            suite::m88ksim(),
            suite::perl(),
            suite::ghostscript(),
            suite::vortex(),
        ]
        .into_iter()
        .map(|model| {
            let train = model.training_trace(TRACE_LEN);
            let session =
                Session::new(model.program(), CacheConfig::direct_mapped_8k()).profile(&train);
            let layouts = vec![
                ("default", session.place(&SourceOrder::new())),
                ("ph", session.place(&PettisHansen::new())),
                ("hkc", session.place(&CacheColoring::new())),
                ("gbsc", session.place(&Gbsc::new())),
            ];
            let profile = session.profile().clone();
            Fixture {
                model,
                profile,
                layouts,
            }
        })
        .collect()
    })
}

// ---------------------------------------------------------------------
// Clean layouts from real algorithms pass
// ---------------------------------------------------------------------

#[test]
fn real_algorithms_are_clean_across_the_suite() {
    for fx in fixtures() {
        for (name, layout) in &fx.layouts {
            layout.validate(fx.program()).expect("layout is legal");
            let input = AnalysisInput::from_profile(fx.program(), layout, &fx.profile);
            let report = Analyzer::new().analyze(&input);
            assert_eq!(
                report.error_count(),
                0,
                "{} on {}:\n{}",
                name,
                fx.model.name(),
                report.render_text(fx.program())
            );
            assert_eq!(report.exit_code(false), 0);
            assert!(
                report.prediction().is_some(),
                "clean analysis still carries a prediction"
            );
        }
    }
}

#[test]
fn place_checked_hook_matches_direct_analysis() {
    let fx = &fixtures()[0];
    let session = tempo::ProfiledSession::from_profile(fx.program(), fx.profile.clone());
    let layout = session.place(&Gbsc::new());
    let report = session.check(&layout);
    layout.validate(fx.program()).expect("layout is legal");
    assert_eq!(report.error_count(), 0);
    assert!(report.prediction().is_some());
}

// ---------------------------------------------------------------------
// Corruption classes: each must trip its rule and fail the exit contract
// ---------------------------------------------------------------------

/// The per-procedure address vector of `layout`, indexed by procedure.
fn addresses(program: &Program, layout: &Layout) -> Vec<u64> {
    program.ids().map(|id| layout.addr(id)).collect()
}

#[test]
fn injected_overlap_fails_with_l002() {
    let fx = &fixtures()[0];
    let program = fx.program();
    let layout = fx.layout("gbsc");
    let order = layout.order();
    // Pull the second procedure back on top of the first.
    let mut addrs = addresses(program, layout);
    addrs[order[1].as_usize()] = layout.addr(order[0]) + 1;
    let corrupt = Layout::from_addresses(addrs);

    let input = AnalysisInput::from_profile(program, &corrupt, &fx.profile);
    let report = Analyzer::new().analyze(&input);
    assert!(
        report
            .diagnostics()
            .iter()
            .any(|d| d.code == "L002" && d.severity == Severity::Error),
        "{}",
        report.render_text(program)
    );
    assert_eq!(report.exit_code(false), 1);
}

#[test]
fn truncated_layout_fails_with_l001_and_partial_prediction() {
    let fx = &fixtures()[0];
    let program = fx.program();
    let mut addrs = addresses(program, fx.layout("gbsc"));
    addrs.pop();
    let corrupt = Layout::from_addresses(addrs);

    let input = AnalysisInput::from_profile(program, &corrupt, &fx.profile);
    let report = Analyzer::new().analyze(&input);
    let codes: Vec<&str> = report.diagnostics().iter().map(|d| d.code).collect();
    assert_eq!(
        codes,
        vec!["L001", "P001"],
        "address rules must not cascade or panic; coverage gap is noted"
    );
    assert_eq!(report.exit_code(false), 1);
    assert!(
        report.prediction().is_some(),
        "the covered subset still gets pressure data"
    );
    let p001 = &report.diagnostics()[1];
    assert_eq!(p001.severity, Severity::Note);
    assert!(p001.message.contains(&format!("{}", program.len() - 1)));
}

#[test]
fn broken_alignment_fails_with_l004_under_deny_warnings() {
    let fx = &fixtures()[0];
    let program = fx.program();
    let layout = fx.layout("gbsc");
    let cache = fx.profile.cache;

    // Claim every popular procedure was aligned one line off from where
    // the layout actually put it.
    let mut tuples = PlacementTuples::new(program.len(), cache.lines());
    for id in fx.profile.popular.iter() {
        let real = cache.cache_line_of_addr(layout.addr(id));
        tuples.set_offset(id, (real + 1) % cache.lines());
    }
    let input = AnalysisInput::from_profile(program, layout, &fx.profile).with_tuples(&tuples);
    let report = Analyzer::new().analyze(&input);
    assert!(
        report
            .diagnostics()
            .iter()
            .any(|d| d.code == "L004" && d.severity == Severity::Warning),
        "{}",
        report.render_text(program)
    );
    assert_eq!(
        report.exit_code(false),
        0,
        "misalignment alone is a warning"
    );
    assert_eq!(
        report.exit_code(true),
        1,
        "but CI runs with --deny warnings"
    );
}

#[test]
fn inverted_split_fails_with_l005() {
    let program = Program::builder()
        .procedure("f", 4096)
        .procedure("g", 2048)
        .procedure("h", 1024)
        .build()
        .unwrap();
    let mut plan = SplitPlan::new();
    plan.split_at(ProcId::new(0), 1024);
    plan.split_at(ProcId::new(1), 512);
    let sp = SplitProgram::split(&program, &plan).unwrap();

    // Correct order: all hot parts, then all cold parts.
    let hot: Vec<ProcId> = (0..3).map(|i| sp.hot_part(ProcId::new(i))).collect();
    let cold: Vec<ProcId> = (0..3)
        .filter_map(|i| sp.cold_part(ProcId::new(i)))
        .collect();
    let mut good_order = hot.clone();
    good_order.extend(&cold);
    let good = Layout::from_order(sp.program(), &good_order).unwrap();
    let input =
        AnalysisInput::new(sp.program(), &good, CacheConfig::direct_mapped_8k()).with_split(&sp);
    assert_eq!(Analyzer::new().analyze(&input).error_count(), 0);

    // Losing the invariant — f's cold part swept to the front — fails.
    let mut bad_order = vec![cold[0]];
    bad_order.extend(&hot);
    bad_order.push(cold[1]);
    let bad = Layout::from_order(sp.program(), &bad_order).unwrap();
    let input =
        AnalysisInput::new(sp.program(), &bad, CacheConfig::direct_mapped_8k()).with_split(&sp);
    let report = Analyzer::new().analyze(&input);
    let codes: Vec<&str> = report.diagnostics().iter().map(|d| d.code).collect();
    assert_eq!(codes, vec!["L005"], "{}", report.render_text(sp.program()));
    assert_eq!(report.exit_code(false), 1);
}

// ---------------------------------------------------------------------
// Predictor vs. simulator
// ---------------------------------------------------------------------

#[test]
fn predictor_ranking_matches_simulation_on_most_workloads() {
    // Acceptance: the static ranking of {source order, PH, GBSC} agrees
    // with the simulated conflict-miss ranking on at least 3 workloads.
    // The predictor models the *training* profile, so the apples-to-apples
    // simulation is the training input (cold/capacity misses are
    // layout-invariant, so ranking by total misses ranks by conflicts).
    let mut agreements = Vec::new();
    for fx in fixtures() {
        let train = fx.model.training_trace(TRACE_LEN);
        let cv = predictor::cross_validate(
            fx.program(),
            fx.profile.cache,
            &fx.profile.trg_place,
            &[fx.layout("default"), fx.layout("ph"), fx.layout("gbsc")],
            &train,
        );
        if cv.agrees() {
            agreements.push(fx.model.name().to_string());
        }
    }
    assert!(
        agreements.len() >= 3,
        "predictor agreed with the simulator only on {agreements:?}"
    );
}

#[test]
fn miss_bounds_are_sound_across_the_suite() {
    // The tentpole invariant at fixture scale: on every workload the
    // simulated conflict misses of every algorithm's layout fall inside
    // the statically-derived interval (strict mode panics otherwise).
    for fx in fixtures() {
        let train = fx.model.training_trace(TRACE_LEN);
        let layouts: Vec<&Layout> = fx.layouts.iter().map(|(_, l)| l).collect();
        let v = predictor::cross_validate_bounds(fx.program(), &fx.profile, &layouts, &train, true);
        assert!(v.is_sound());
        for row in &v.rows {
            assert!(
                row.bounds.hi > 0,
                "{}: a 200 KB+ program on 8 KB must have contested sets",
                fx.model.name()
            );
        }
    }
}

#[test]
fn analyzer_attaches_bounds_on_request() {
    let fx = &fixtures()[0];
    let input = AnalysisInput::from_profile(fx.program(), fx.layout("gbsc"), &fx.profile);
    let report = Analyzer::new().with_bounds(true).analyze(&input);
    let b = report.bounds().expect("bounds requested and computable");
    assert!(b.hi > 0);
    assert!(b.lo <= b.hi);
    let json = report.render_json(fx.program());
    assert!(json.contains("\"bounds\":{\"lo\":"));
    // Without the flag the report stays as before.
    assert!(Analyzer::new().analyze(&input).bounds().is_none());
}

#[test]
fn prediction_orders_gbsc_below_source_order() {
    // Weaker but universal property: GBSC's predicted conflict cost never
    // exceeds source order's on any workload (it optimizes that metric).
    for fx in fixtures() {
        let trg = &fx.profile.trg_place;
        let cache = fx.profile.cache;
        let d = predictor::predict(fx.program(), fx.layout("default"), cache, Some(trg), 0);
        let g = predictor::predict(fx.program(), fx.layout("gbsc"), cache, Some(trg), 0);
        assert!(
            g.predicted_cost <= d.predicted_cost,
            "{}: GBSC predicted {} vs default {}",
            fx.model.name(),
            g.predicted_cost,
            d.predicted_cost
        );
    }
}

// ---------------------------------------------------------------------
// Report rendering survives real-sized inputs
// ---------------------------------------------------------------------

#[test]
fn json_report_is_well_formed_on_a_real_workload() {
    let fx = &fixtures()[1];
    let input = AnalysisInput::from_profile(fx.program(), fx.layout("gbsc"), &fx.profile);
    let report = Analyzer::new().with_top_k(4).analyze(&input);
    let json = report.render_json(fx.program());
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"errors\":0"));
    assert!(json.contains("\"prediction\":"));
    // Balanced braces — cheap structural sanity without a JSON parser.
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes);
}
