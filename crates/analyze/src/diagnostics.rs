//! The diagnostic data model, report aggregation, and renderers.

use std::fmt;

use tempo_obs::json::Str;
use tempo_program::{ProcId, Program};

use crate::bounds::MissBounds;
use crate::predictor::ConflictPrediction;

/// How serious a diagnostic is.
///
/// Severities order naturally: `Note < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never affects the exit code.
    Note,
    /// Suspicious but not structurally invalid; fails the run only under
    /// `deny_warnings`.
    Warning,
    /// A structural invariant violation; always fails the run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding produced by a lint rule or the conflict predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable rule code (`L001`..`L007`, `P001`..), documented in DESIGN.md.
    pub code: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// Human-readable description of the violation.
    pub message: String,
    /// The procedures involved, if any.
    pub procs: Vec<ProcId>,
    /// An actionable remediation hint, if one exists.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic with no procedures or suggestion attached.
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            procs: Vec::new(),
            suggestion: None,
        }
    }

    /// Attaches the procedures the finding is about.
    #[must_use]
    pub fn with_procs(mut self, procs: Vec<ProcId>) -> Self {
        self.procs = procs;
        self
    }

    /// Attaches a remediation hint.
    #[must_use]
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }
}

/// The aggregated result of one analysis run: every diagnostic plus the
/// optional conflict prediction and miss-bound interval.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    diagnostics: Vec<Diagnostic>,
    prediction: Option<ConflictPrediction>,
    bounds: Option<MissBounds>,
}

impl AnalysisReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        AnalysisReport::default()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Attaches the predictor output.
    pub fn set_prediction(&mut self, p: ConflictPrediction) {
        self.prediction = Some(p);
    }

    /// Attaches the sound conflict-miss interval.
    pub fn set_bounds(&mut self, b: MissBounds) {
        self.bounds = Some(b);
    }

    /// The miss-bound interval, when the analysis computed one.
    pub fn bounds(&self) -> Option<&MissBounds> {
        self.bounds.as_ref()
    }

    /// All diagnostics, in rule-registry order, errors not sorted first.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The conflict prediction, when the analysis computed one.
    pub fn prediction(&self) -> Option<&ConflictPrediction> {
        self.prediction.as_ref()
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of note-severity diagnostics.
    pub fn note_count(&self) -> usize {
        self.count(Severity::Note)
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// Returns `true` if the report passes: no errors, and no warnings
    /// when `deny_warnings` is set.
    pub fn is_clean(&self, deny_warnings: bool) -> bool {
        self.error_count() == 0 && !(deny_warnings && self.warning_count() > 0)
    }

    /// The process exit code under the CI contract: `0` clean, `1` failed.
    ///
    /// (Exit code `2` — usage error — is owned by the CLI layer; the
    /// analysis itself can only pass or fail.)
    pub fn exit_code(&self, deny_warnings: bool) -> u8 {
        u8::from(!self.is_clean(deny_warnings))
    }

    /// Renders the report as human-readable text, resolving procedure
    /// names through `program`.
    pub fn render_text(&self, program: &Program) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{}[{}]: {}\n", d.severity, d.code, d.message));
            if !d.procs.is_empty() {
                out.push_str(&format!(
                    "  procedures: {}\n",
                    proc_names(program, &d.procs).join(", ")
                ));
            }
            if let Some(s) = &d.suggestion {
                out.push_str(&format!("  suggestion: {s}\n"));
            }
        }
        if let Some(p) = &self.prediction {
            out.push_str(&p.render_text(program));
        }
        if let Some(b) = &self.bounds {
            out.push_str(&format!(
                "miss bounds: conflict misses in {} (width {}{}{})\n",
                b,
                b.width(),
                if b.capacity_free {
                    ", capacity-free"
                } else {
                    ""
                },
                if b.lo == 0 && b.forced > 0 {
                    ", lower bound suppressed by capacity pressure"
                } else {
                    ""
                },
            ));
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} note(s)\n",
            self.error_count(),
            self.warning_count(),
            self.note_count()
        ));
        out
    }

    /// Renders the report as a single JSON object (machine-readable CI
    /// output; schema documented in DESIGN.md).
    pub fn render_json(&self, program: &Program) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"errors\":{},\"warnings\":{},\"notes\":{},",
            self.error_count(),
            self.warning_count(),
            self.note_count()
        ));
        out.push_str("\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let procs = proc_names(program, &d.procs)
                .iter()
                .map(|n| Str(n).to_string())
                .collect::<Vec<_>>()
                .join(",");
            let suggestion = d
                .suggestion
                .as_deref()
                .map_or("null".to_string(), |s| Str(s).to_string());
            out.push_str(&format!(
                "{{\"code\":{},\"severity\":{},\"message\":{},\"procedures\":[{procs}],\"suggestion\":{suggestion}}}",
                Str(d.code),
                Str(&d.severity.to_string()),
                Str(&d.message),
            ));
        }
        out.push(']');
        if let Some(p) = &self.prediction {
            out.push(',');
            out.push_str(&p.render_json(program));
        }
        if let Some(b) = &self.bounds {
            out.push_str(&format!(
                ",\"bounds\":{{\"lo\":{},\"hi\":{},\"forced\":{},\"capacity_free\":{},\
                 \"touched_lines\":{},\"contested_sets\":{}}}",
                b.lo, b.hi, b.forced, b.capacity_free, b.touched_lines, b.contested_sets
            ));
        }
        out.push('}');
        out
    }
}

/// Resolves procedure ids to names, falling back to `#<id>` for ids the
/// program does not cover (possible when linting a corrupt layout).
pub(crate) fn proc_names(program: &Program, procs: &[ProcId]) -> Vec<String> {
    procs
        .iter()
        .map(|&id| {
            if id.as_usize() < program.len() {
                program.proc(id).name().to_string()
            } else {
                format!("#{}", id.index())
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_obs::json::Json;

    fn program() -> Program {
        Program::builder()
            .procedure("alpha", 64)
            .procedure("beta", 64)
            .build()
            .unwrap()
    }

    #[test]
    fn severity_ordering_and_display() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn counts_and_exit_codes() {
        let mut r = AnalysisReport::new();
        assert!(r.is_clean(true));
        assert_eq!(r.exit_code(false), 0);
        r.push(Diagnostic::new("L006", Severity::Warning, "padding"));
        assert_eq!(r.warning_count(), 1);
        assert!(r.is_clean(false));
        assert!(!r.is_clean(true));
        assert_eq!(r.exit_code(true), 1);
        r.push(Diagnostic::new("L002", Severity::Error, "overlap"));
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.exit_code(false), 1);
    }

    #[test]
    fn text_render_names_procedures() {
        let p = program();
        let mut r = AnalysisReport::new();
        r.push(
            Diagnostic::new("L002", Severity::Error, "alpha overlaps beta")
                .with_procs(vec![ProcId::new(0), ProcId::new(1)])
                .with_suggestion("re-run linearization"),
        );
        let text = r.render_text(&p);
        assert!(text.contains("error[L002]"));
        assert!(text.contains("alpha, beta"));
        assert!(text.contains("re-run linearization"));
        assert!(text.contains("1 error(s)"));
    }

    #[test]
    fn json_render_is_well_formed() {
        let p = program();
        let mut r = AnalysisReport::new();
        r.push(
            Diagnostic::new("L004", Severity::Warning, "say \"hi\"\n")
                .with_procs(vec![ProcId::new(0)]),
        );
        let json = r.render_json(&p);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"warnings\":1"));
        assert!(json.contains("\\\"hi\\\"\\n"));
        assert!(json.contains("\"procedures\":[\"alpha\"]"));
        assert!(json.contains("\"suggestion\":null"));
    }

    #[test]
    fn bounds_render_in_text_and_json() {
        let p = program();
        let mut r = AnalysisReport::new();
        r.set_bounds(MissBounds {
            lo: 2,
            hi: 10,
            forced: 2,
            capacity_free: true,
            touched_lines: 4,
            contested_sets: 1,
        });
        let text = r.render_text(&p);
        assert!(text.contains("miss bounds: conflict misses in [2, 10]"));
        assert!(text.contains("capacity-free"));
        let json = r.render_json(&p);
        assert!(json.contains("\"bounds\":{\"lo\":2,\"hi\":10"));
        assert!(json.contains("\"capacity_free\":true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    /// The report goes through the shared escaper: control characters
    /// as `\u00XX`, and the whole report parses as one JSON object.
    #[test]
    fn json_escapes_control_chars() {
        let p = program();
        let mut r = AnalysisReport::new();
        r.push(Diagnostic::new("L004", Severity::Note, "a\u{1}b\tc").with_suggestion("t\tn\n"));
        let json = r.render_json(&p);
        assert!(json.contains(r#""message":"a\u0001b\tc""#), "{json}");
        assert!(json.contains(r#""suggestion":"t\tn\n""#), "{json}");
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(parsed.get("notes").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn out_of_range_proc_ids_render_as_hash_ids() {
        let p = program();
        let names = proc_names(&p, &[ProcId::new(0), ProcId::new(9)]);
        assert_eq!(names, vec!["alpha".to_string(), "#9".to_string()]);
    }
}
