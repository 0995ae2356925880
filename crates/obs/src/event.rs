//! Structured events: stage-boundary log lines in text or JSON form.
//!
//! Events complement metrics: a counter says *how many*, an event says
//! *when and with what context*. The emitter writes to stderr (never
//! stdout — command output stays machine-parseable) and is **off by
//! default**; the CLI turns it on when `--log-format` is passed, so
//! existing pipelines see no new output.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::{Num, Str};

/// How (and whether) events are emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// No event output (the default).
    Off,
    /// One human-readable line per event.
    Text,
    /// One JSON object per line (JSON-lines).
    Json,
}

impl LogFormat {
    /// Parses a `--log-format` value.
    ///
    /// # Errors
    ///
    /// Returns the offending value when it is neither `text` nor `json`
    /// (nor `off`).
    pub fn parse(s: &str) -> Result<LogFormat, String> {
        match s {
            "off" => Ok(LogFormat::Off),
            "text" => Ok(LogFormat::Text),
            "json" => Ok(LogFormat::Json),
            other => Err(format!(
                "unknown log format `{other}` (expected text or json)"
            )),
        }
    }
}

static FORMAT: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide event format ([`LogFormat::Off`] silences).
pub fn set_log_format(format: LogFormat) {
    let v = match format {
        LogFormat::Off => 0,
        LogFormat::Text => 1,
        LogFormat::Json => 2,
    };
    FORMAT.store(v, Ordering::Relaxed);
}

/// The current process-wide event format.
pub fn log_format() -> LogFormat {
    match FORMAT.load(Ordering::Relaxed) {
        1 => LogFormat::Text,
        2 => LogFormat::Json,
        _ => LogFormat::Off,
    }
}

/// One event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum EventField {
    /// An unsigned count.
    U64(u64),
    /// A measurement.
    F64(f64),
    /// Free text.
    Str(String),
}

impl From<u64> for EventField {
    fn from(v: u64) -> Self {
        EventField::U64(v)
    }
}

impl From<usize> for EventField {
    fn from(v: usize) -> Self {
        EventField::U64(v as u64)
    }
}

impl From<f64> for EventField {
    fn from(v: f64) -> Self {
        EventField::F64(v)
    }
}

impl From<&str> for EventField {
    fn from(v: &str) -> Self {
        EventField::Str(v.to_string())
    }
}

impl From<String> for EventField {
    fn from(v: String) -> Self {
        EventField::Str(v)
    }
}

impl fmt::Display for EventField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventField::U64(v) => write!(f, "{v}"),
            EventField::F64(v) => write!(f, "{v}"),
            EventField::Str(v) => write!(f, "{v}"),
        }
    }
}

/// Emits one event to stderr in the process-wide format (a no-op while
/// the format is [`LogFormat::Off`]).
///
/// `stage` is the dotted pipeline stage (`profile`, `simulate`, ...),
/// `message` a short verb phrase, `fields` extra key/value context.
pub fn event(stage: &str, message: &str, fields: &[(&str, EventField)]) {
    let format = log_format();
    if format == LogFormat::Off {
        return;
    }
    eprintln!("{}", format_event(format, stage, message, fields));
}

/// Renders an event line without emitting it (the testable core of
/// [`event`]; `format` must not be [`LogFormat::Off`]).
pub fn format_event(
    format: LogFormat,
    stage: &str,
    message: &str,
    fields: &[(&str, EventField)],
) -> String {
    match format {
        LogFormat::Off | LogFormat::Text => {
            let mut line = format!("tempo[{stage}] {message}");
            for (k, v) in fields {
                use fmt::Write as _;
                let _ = write!(line, " {k}={v}");
            }
            line
        }
        LogFormat::Json => {
            use fmt::Write as _;
            let mut line = format!(
                "{{\"ts_ms\": {}, \"stage\": {}, \"event\": {}",
                now_ms(),
                Str(stage),
                Str(message)
            );
            for (k, v) in fields {
                let _ = match v {
                    EventField::U64(n) => write!(line, ", {}: {n}", Str(k)),
                    EventField::F64(n) => write!(line, ", {}: {}", Str(k), Num(*n)),
                    EventField::Str(s) => write!(line, ", {}: {}", Str(k), Str(s)),
                };
            }
            line.push('}');
            line
        }
    }
}

/// Milliseconds since the Unix epoch (0 when the clock is unreadable).
fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| {
            #[allow(clippy::cast_possible_truncation)]
            // Milliseconds since 1970 fit u64 for ~585 million years.
            {
                d.as_millis() as u64
            }
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn text_event_format() {
        let line = format_event(
            LogFormat::Text,
            "profile",
            "pass complete",
            &[("records", 100u64.into()), ("pass", "qpass".into())],
        );
        assert_eq!(line, "tempo[profile] pass complete records=100 pass=qpass");
    }

    #[test]
    fn json_event_parses_as_json() {
        let line = format_event(
            LogFormat::Json,
            "simulate",
            "done",
            &[
                ("misses", 7u64.into()),
                ("rate", 0.25f64.into()),
                ("layout", "gbsc \"x\"".into()),
            ],
        );
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("stage").and_then(Json::as_str), Some("simulate"));
        assert_eq!(parsed.get("misses").and_then(Json::as_f64), Some(7.0));
        assert_eq!(
            parsed.get("layout").and_then(Json::as_str),
            Some("gbsc \"x\"")
        );
    }

    /// JSON event bytes, pinned (the clock masked): `", "` and `": "`
    /// separators, escaped keys and values, the shared number rule.
    #[test]
    fn json_event_bytes_are_pinned() {
        let line = format_event(
            LogFormat::Json,
            "simulate \"x\"",
            "done\n",
            &[
                ("misses", 7u64.into()),
                ("rate", 0.25f64.into()),
                ("whole", 3.0f64.into()),
                ("inf", f64::INFINITY.into()),
                ("layout", "gbsc \"x\"\t\u{2}ü".into()),
                ("k\"ey", "v".into()),
            ],
        );
        let (head, rest) = line.split_at(line.find(", ").unwrap());
        assert!(head.starts_with("{\"ts_ms\": "), "{head}");
        assert_eq!(
            rest,
            r#", "stage": "simulate \"x\"", "event": "done\n", "misses": 7, "rate": 0.25, "whole": 3, "inf": 0, "layout": "gbsc \"x\"\t\u0002ü", "k\"ey": "v"}"#
        );
    }

    #[test]
    fn format_flag_roundtrip() {
        assert_eq!(LogFormat::parse("text"), Ok(LogFormat::Text));
        assert_eq!(LogFormat::parse("json"), Ok(LogFormat::Json));
        assert!(LogFormat::parse("yaml").is_err());
        set_log_format(LogFormat::Json);
        assert_eq!(log_format(), LogFormat::Json);
        set_log_format(LogFormat::Off);
        assert_eq!(log_format(), LogFormat::Off);
    }
}
