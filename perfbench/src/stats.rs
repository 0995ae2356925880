//! Order statistics for the benchmark's reports.
//!
//! Two kinds of summary are used. Repeated whole measurements (one
//! pipeline pass, one set-up) are summarized by their [`median`]. Latency
//! distributions (SYNC round trips, epoch times) are summarized by
//! [`percentile`], which refuses to report a percentile unless at least
//! [`MIN_TAIL`] samples lie beyond it, so a p99 always rests on a real
//! tail and never on the single largest sample.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// The median of `values` (the mean of the middle two for an even count),
/// as Python's `statistics.median` computes it. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let sorted = sorted(values);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The nearest-rank `q`-quantile of `samples` (`q` in `(0, 1)`): the
/// smallest sample with at least a share `q` of the samples at or below
/// it. `None` when fewer than [`MIN_TAIL`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile must lie in (0, 1)");
    let n = samples.len();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_TAIL {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// A latency distribution reduced to the figures the benchmark prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Number of samples behind the figures.
    pub count: usize,
    /// Median, when [`percentile`] allows it.
    pub p50: Option<f64>,
    /// 99th percentile, when [`percentile`] allows it.
    pub p99: Option<f64>,
}

impl Latency {
    /// Summarizes `samples`.
    pub fn of(samples: &[f64]) -> Latency {
        Latency {
            count: samples.len(),
            p50: percentile(samples, 0.50),
            p99: percentile(samples, 0.99),
        }
    }

    /// One report line: `name: n=…, p50=… ms, p99=… ms`, with `refused`
    /// where a percentile lacks its tail.
    pub fn describe(&self, name: &str) -> String {
        let show = |v: Option<f64>| v.map_or("refused".to_string(), |v| format!("{v:.3} ms"));
        format!(
            "{name}: n={}, p50={}, p99={}",
            self.count,
            show(self.p50),
            show(self.p99)
        )
    }
}

/// One SYNC as the client saw it: its round trip and the `epochs` field of
/// the tally it returned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncSample {
    /// Round trip in milliseconds.
    pub rtt_ms: f64,
    /// `Tally.epochs` in the reply.
    pub epochs: u64,
}

/// Splits one session's SYNCs, in send order, into those during which no
/// epoch was flushed (`Tally.epochs` did not advance over the previous
/// reply, or over 0 for the first) and those that waited on at least one
/// epoch flush. Returns `(frame_syncs, epoch_syncs)` round trips.
pub fn split_syncs(session: &[SyncSample]) -> (Vec<f64>, Vec<f64>) {
    let mut frame = Vec::new();
    let mut epoch = Vec::new();
    let mut last = 0u64;
    for s in session {
        if s.epochs > last {
            epoch.push(s.rtt_ms);
        } else {
            frame.push(s.rtt_ms);
        }
        last = s.epochs;
    }
    (frame, epoch)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // 1..=n, shuffled deterministically so sorting is exercised.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.swap(0, n / 2);
        v
    }

    #[test]
    fn median_matches_python_statistics() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(1000);
        assert_eq!(percentile(&v, 0.50), Some(500.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        let v = ramp(2000);
        assert_eq!(percentile(&v, 0.99), Some(1980.0));
    }

    #[test]
    fn refuses_percentile_without_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly 10 lie beyond it.
        assert!(percentile(&ramp(1000), 0.99).is_some());
        // One sample fewer leaves rank 990 with only 9 beyond.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // A median needs 20 samples: rank 10 with 10 beyond.
        assert_eq!(percentile(&ramp(20), 0.50), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.50), None);
        assert_eq!(percentile(&[], 0.50), None);
    }

    #[test]
    fn latency_reports_sample_count() {
        let l = Latency::of(&ramp(500));
        assert_eq!(l.count, 500);
        assert_eq!(l.p50, Some(250.0));
        assert_eq!(l.p99, None);
        assert_eq!(
            l.describe("sync"),
            "sync: n=500, p50=250.000 ms, p99=refused"
        );
    }

    #[test]
    fn syncs_split_by_epoch_advance() {
        let s = |rtt_ms: f64, epochs: u64| SyncSample { rtt_ms, epochs };
        let session = [
            s(1.0, 0), // nothing flushed yet
            s(9.0, 1), // first epoch flushed
            s(2.0, 1),
            s(3.0, 1),
            s(8.0, 3), // two epochs in one wait still count once
            s(4.0, 3),
        ];
        let (frame, epoch) = split_syncs(&session);
        assert_eq!(frame, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(epoch, vec![9.0, 8.0]);
        // A session that opens on a flush counts it against zero.
        let (frame, epoch) = split_syncs(&[s(5.0, 1)]);
        assert!(frame.is_empty());
        assert_eq!(epoch, vec![5.0]);
    }
}
