//! Point-in-time registry snapshots: deterministic rendering (text and
//! JSON) plus the matching parser.
//!
//! The JSON form is what `--metrics-out` writes and `tempo stats` reads;
//! it goes through the shared codec in [`crate::json`].

use std::fmt::Write as _;

use crate::json::{Json, Num, Str};
use crate::metrics::HistogramSummary;

/// The snapshot file format version.
pub const SCHEMA: u32 = 1;

/// One metric's value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(f64),
    /// A histogram summary.
    Histogram(HistogramSummary),
}

/// A point-in-time copy of a registry, in sorted name order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` pairs, sorted by name.
    pub entries: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// A counter's reading, or `None` if absent or not a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Counter increases since `before`: for every counter in `self`,
    /// its reading minus `before`'s (0 when absent), keeping only
    /// counters that moved. Sorted by name, like the snapshot itself.
    pub fn counter_deltas(&self, before: &Snapshot) -> Vec<(String, u64)> {
        self.entries
            .iter()
            .filter_map(|(name, value)| match value {
                MetricValue::Counter(now) => {
                    let was = before.counter(name).unwrap_or(0);
                    let delta = now.saturating_sub(was);
                    (delta > 0).then(|| (name.clone(), delta))
                }
                _ => None,
            })
            .collect()
    }

    /// The human-readable rendering (`tempo stats`, text `--metrics-out`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let width = self.entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{name:<width$}  {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{name:<width$}  {v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{name:<width$}  count={} sum={:.3} min={:.3} max={:.3} mean={:.3}",
                        h.count,
                        h.sum,
                        h.min,
                        h.max,
                        h.mean()
                    );
                }
            }
        }
        out
    }

    /// The machine-readable rendering (JSON, schema-versioned).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": {SCHEMA},");
        out.push_str("  \"metrics\": {\n");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            let comma = if i + 1 == self.entries.len() { "" } else { "," };
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(
                        out,
                        "    {}: {{\"type\": \"counter\", \"value\": {v}}}{comma}",
                        Str(name)
                    );
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(
                        out,
                        "    {}: {{\"type\": \"gauge\", \"value\": {}}}{comma}",
                        Str(name),
                        Num(*v)
                    );
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "    {}: {{\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}}}{comma}",
                        Str(name),
                        h.count,
                        Num(h.sum),
                        Num(h.min),
                        Num(h.max)
                    );
                }
            }
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses a snapshot back from its [`Snapshot::render_json`] form.
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not valid JSON or does not
    /// follow the snapshot schema.
    pub fn parse_json(text: &str) -> Result<Snapshot, String> {
        let value = Json::parse(text)?;
        let metrics = value
            .get("metrics")
            .ok_or("snapshot missing `metrics` object")?
            .as_object()
            .ok_or("`metrics` must be an object")?;
        let mut entries = Vec::with_capacity(metrics.len());
        for (name, m) in metrics {
            let num = |key: &str| {
                m.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("metric `{name}` missing number `{key}`"))
            };
            let kind = m
                .get("type")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metric `{name}` missing `type`"))?;
            let value = match kind {
                "counter" => {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    // Counters are emitted as integral u64 well below 2^53.
                    MetricValue::Counter(num("value")?.max(0.0) as u64)
                }
                "gauge" => MetricValue::Gauge(num("value")?),
                "histogram" => MetricValue::Histogram(HistogramSummary {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    // Sample counts are emitted as integral u64 below 2^53.
                    count: num("count")?.max(0.0) as u64,
                    sum: num("sum")?,
                    min: num("min")?,
                    max: num("max")?,
                }),
                other => return Err(format!("metric `{name}` has unknown type `{other}`")),
            };
            entries.push((name.clone(), value));
        }
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        Ok(Snapshot { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("trace.records_read").add(1_000_000);
        r.counter("sim.misses").add(42);
        r.gauge("proc.peak_rss_kb").set(12_345.0);
        r.histogram("stage.profile").record(12.5);
        r.histogram("stage.profile").record(7.5);
        r.snapshot()
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let snap = sample();
        let parsed = Snapshot::parse_json(&snap.render_json()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn text_rendering_lists_each_metric() {
        let text = sample().render_text();
        assert!(text.contains("trace.records_read"));
        assert!(text.contains("1000000"));
        assert!(text.contains("count=2 sum=20.000"));
    }

    #[test]
    fn counter_deltas_ignore_unmoved() {
        let r = Registry::new();
        r.counter("a").add(5);
        r.counter("b").add(1);
        let before = r.snapshot();
        r.counter("a").add(7);
        r.counter("c").add(3);
        let after = r.snapshot();
        assert_eq!(
            after.counter_deltas(&before),
            vec![("a".to_string(), 7), ("c".to_string(), 3)]
        );
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Snapshot::parse_json("{").is_err());
        assert!(Snapshot::parse_json("{}").is_err());
        assert!(Snapshot::parse_json("{\"metrics\": 3}").is_err());
        assert!(Snapshot::parse_json("{\"metrics\": {\"x\": {\"type\": \"mystery\"}}}").is_err());
    }

    #[test]
    fn parse_accepts_hand_written_json() {
        let text = r#"{
            "schema": 1,
            "metrics": {
                "b": {"type": "gauge", "value": -2.5},
                "a": {"type": "counter", "value": 9}
            }
        }"#;
        let snap = Snapshot::parse_json(text).unwrap();
        assert_eq!(snap.counter("a"), Some(9));
        assert_eq!(snap.get("b"), Some(&MetricValue::Gauge(-2.5)));
        // Entries re-sort on parse.
        assert_eq!(snap.entries[0].0, "a");
    }

    /// One snapshot with every metric kind, the number-rule cases and a
    /// name that needs escaping.
    fn every_kind() -> Snapshot {
        let hist = |count, sum, min, max| {
            MetricValue::Histogram(HistogramSummary {
                count,
                sum,
                min,
                max,
            })
        };
        Snapshot {
            entries: vec![
                ("a.counter".into(), MetricValue::Counter(1_000_000)),
                ("b.gauge".into(), MetricValue::Gauge(12_345.0)),
                ("c.gauge".into(), MetricValue::Gauge(-2.5)),
                ("d.gauge".into(), MetricValue::Gauge(0.1)),
                ("e.gauge".into(), MetricValue::Gauge(1e15)),
                ("f.gauge".into(), MetricValue::Gauge(123_456.789)),
                ("g.hist".into(), hist(3, 20.25, 0.5, 12.5)),
                ("h.empty".into(), hist(0, 0.0, 0.0, 0.0)),
                ("i.nan".into(), MetricValue::Gauge(f64::NAN)),
                ("weird \"name\"\\\t\u{1}é".into(), MetricValue::Counter(7)),
            ],
        }
    }

    /// `render_json` bytes, pinned to the layout `--metrics-out`, `tempo
    /// stats` and tempod `STATS` have always used.
    #[test]
    fn render_json_bytes_are_pinned() {
        let expected = r#"{
  "schema": 1,
  "metrics": {
    "a.counter": {"type": "counter", "value": 1000000},
    "b.gauge": {"type": "gauge", "value": 12345},
    "c.gauge": {"type": "gauge", "value": -2.5},
    "d.gauge": {"type": "gauge", "value": 0.1},
    "e.gauge": {"type": "gauge", "value": 1000000000000000},
    "f.gauge": {"type": "gauge", "value": 123456.789},
    "g.hist": {"type": "histogram", "count": 3, "sum": 20.25, "min": 0.5, "max": 12.5},
    "h.empty": {"type": "histogram", "count": 0, "sum": 0, "min": 0, "max": 0},
    "i.nan": {"type": "gauge", "value": 0},
    "weird \"name\"\\\t\u0001é": {"type": "counter", "value": 7}
  }
}
"#;
        assert_eq!(every_kind().render_json(), expected);
    }

    #[test]
    fn names_needing_escapes_round_trip() {
        let snap = every_kind();
        let parsed = Snapshot::parse_json(&snap.render_json()).unwrap();
        assert_eq!(parsed.counter("weird \"name\"\\\t\u{1}é"), Some(7));
    }

    #[test]
    fn gauges_follow_the_number_rule() {
        let line = |v: f64| {
            let snap = Snapshot {
                entries: vec![("g".into(), MetricValue::Gauge(v))],
            };
            snap.render_json().lines().nth(3).unwrap().to_string()
        };
        assert_eq!(line(5.0), r#"    "g": {"type": "gauge", "value": 5}"#);
        assert_eq!(line(5.25), r#"    "g": {"type": "gauge", "value": 5.25}"#);
        assert_eq!(line(f64::NAN), r#"    "g": {"type": "gauge", "value": 0}"#);
    }
}
