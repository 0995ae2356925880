//! The metric catalogue, the pinned miss counts, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("miss_rate", "ratio"),
    ("sync_p50_ms", "ms"),
    ("sync_p99_ms", "ms"),
    ("layout_rtt_ms", "ms"),
];

/// Per-layer metrics, reported by every traced run (name, unit). A layer
/// the workload's pipeline does not call reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.decode_ms", "ms"),
    ("trace.decode_records_per_s", "1/s"),
    ("trg.popularity_ms", "ms"),
    ("trg.qpass_ms", "ms"),
    ("trg.qpass_records_per_s", "1/s"),
    ("trg.pairdb_entries", "count"),
    ("place.gbsc_ms", "ms"),
    ("place.ph_ms", "ms"),
    ("place.hkc_ms", "ms"),
    ("place.gbsc_sa_ms", "ms"),
    ("place.work_spent", "count"),
    ("cache.sim_dm_ms", "ms"),
    ("cache.sim_sa_ms", "ms"),
    ("cache.sim_records_per_s", "1/s"),
    ("engine.epoch_p50_ms", "ms"),
    ("engine.epoch_p99_ms", "ms"),
    ("engine.epochs", "count"),
    ("engine.placements", "count"),
    ("engine.drift_skips", "count"),
    ("daemon.send_ms", "ms"),
    ("daemon.frame_sync_p50_ms", "ms"),
    ("daemon.epoch_sync_p50_ms", "ms"),
    ("daemon.frames", "count"),
    ("daemon.bad_frames", "count"),
    ("daemon.budget_rejected", "count"),
    ("workloads.generate_records_per_s", "1/s"),
    ("obs.trace_overhead_frac", "ratio"),
    ("pipeline.unaccounted_ms", "ms"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run measured and how many of its checked operations failed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations (layouts placed and evaluated, frames, SYNCs).
    pub attempted: u64,
    /// Operations whose check failed; each also adds a line to `errors`.
    pub failed: u64,
    /// What failed, for the report.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced run).
    pub per_layer: Metrics,
}

impl Outcome {
    /// Counts one checked operation, failing it with `error` if given.
    pub fn check(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    /// The result line: one JSON object with the metrics of the run's
    /// mode. A metric that should be present but is missing, or is not a
    /// finite number, fails the run instead of printing a stand-in.
    pub fn json(&mut self, traced: bool) -> String {
        let (catalogue, values) = if traced {
            (PER_LAYER, &self.per_layer)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        let mut fields = Vec::new();
        let mut missing = Vec::new();
        for &(name, unit) in catalogue {
            let value = match values.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => {
                    missing.push(name);
                    continue;
                }
            };
            if !value.is_finite() {
                missing.push(name);
                continue;
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        for name in missing {
            self.failed += 1;
            self.errors.push(format!("metric {name} was not measured"));
        }
        let correct = self.failed == 0 && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

/// Miss counts pinned per (workload, seed, layout): the lines of
/// `pins.txt` as `workload seed layout misses instructions`.
fn pinned(workload: &str, seed: u64, layout: &str) -> Option<(u64, u64)> {
    include_str!("../pins.txt").lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            [w, s, l, misses, instructions]
                if *w == workload && s.parse() == Ok(seed) && *l == layout =>
            {
                Some((misses.parse().ok()?, instructions.parse().ok()?))
            }
            _ => None,
        }
    })
}

/// Checks simulated counts against the pin for (workload, seed, layout).
/// A seed without a pin passes; its runs are still checked for
/// determinism against their own warm-up.
pub fn check_pin(
    workload: &str,
    seed: u64,
    layout: &str,
    misses: u64,
    instructions: u64,
) -> Option<String> {
    match pinned(workload, seed, layout) {
        Some(pin) if pin != (misses, instructions) => Some(format!(
            "{workload} seed {seed} {layout}: {misses} misses / {instructions} instructions, pinned {} / {}",
            pin.0, pin.1
        )),
        _ => None,
    }
}

/// The process's peak resident set in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_of_the_mode() {
        let mut o = Outcome::default();
        o.check(None);
        for &(name, _) in END_TO_END {
            o.end_to_end.insert(name, 1.5);
        }
        let line = o.json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"sync_p99_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        // Traced runs fill unexercised layers with 0.
        let line = o.json(true);
        assert!(line.contains("\"daemon.frames\": {\"value\": 0.0, \"unit\": \"count\"}"));
    }

    #[test]
    fn missing_or_non_finite_metrics_fail_the_run() {
        let mut o = Outcome::default();
        o.check(None);
        o.end_to_end.insert("setup_s", f64::NAN);
        let line = o.json(false);
        assert!(line.starts_with("{\"correct\": false"));
        assert_eq!(o.failed, END_TO_END.len() as u64);
    }

    #[test]
    fn pins_parse_and_compare() {
        assert_eq!(check_pin("no_such_workload", 1, "gbsc", 1, 2), None);
        let (misses, instructions) =
            pinned("offline_gcc_dm", crate::fixture::DEFAULT_SEED, "gbsc").unwrap();
        assert_eq!(
            check_pin("offline_gcc_dm", 1, "gbsc", misses, instructions),
            None
        );
        assert!(check_pin("offline_gcc_dm", 1, "gbsc", misses + 1, instructions).is_some());
    }
}
