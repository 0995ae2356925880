//! Observability vocabulary for trace ingestion.
//!
//! Every read pass over a [`TraceSource`](crate::TraceSource) — a pump,
//! a streaming profile pass, a streaming simulation — reports what it
//! pulled to the global [`tempo_obs`] registry under the `trace.*`
//! namespace via [`note_read`]. Counters are cumulative across passes:
//! a two-pass streaming profile of a 1M-record file reads 2M records,
//! and `trace.records_read` says so.

use crate::io::TraceWarnings;

/// Records pulled from trace sources, one count per read pass.
pub const RECORDS_READ: &str = "trace.records_read";
/// Whole v2 frames skipped (truncated, CRC failure, undecodable).
pub const FRAMES_SKIPPED: &str = "trace.frames_skipped";
/// Records dropped during ingestion (zero extents, unknown procedures,
/// truncated tails).
pub const RECORDS_DROPPED: &str = "trace.records_dropped";
/// Records repaired by clamping an oversized extent.
pub const RECORDS_CLAMPED: &str = "trace.records_clamped";
/// Container-header defects (mangled magic/version, count mismatches).
pub const HEADERS_MANGLED: &str = "trace.headers_mangled";

/// Reports one completed read pass to the global metric registry:
/// `records` pulled plus every defect tallied in `warnings`.
///
/// Zero-valued defect counters are skipped so clean runs keep a small
/// snapshot; `trace.records_read` is always touched so the metric exists
/// whenever any trace was read.
pub fn note_read(records: u64, warnings: &TraceWarnings) {
    tempo_obs::counter(RECORDS_READ).add(records);
    for (name, count) in [
        (FRAMES_SKIPPED, warnings.bad_frames),
        (
            RECORDS_DROPPED,
            warnings.zero_extent + warnings.unknown_proc + warnings.truncated_tail,
        ),
        (RECORDS_CLAMPED, warnings.clamped_extent),
        (
            HEADERS_MANGLED,
            warnings.header_mangled + warnings.count_mismatch,
        ),
    ] {
        if count > 0 {
            tempo_obs::counter(name).add(count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_read_accumulates_into_the_global_registry() {
        let before = tempo_obs::snapshot().counter(RECORDS_READ).unwrap_or(0);
        let w = TraceWarnings {
            bad_frames: 2,
            clamped_extent: 1,
            ..TraceWarnings::default()
        };
        note_read(7, &w);
        let after = tempo_obs::snapshot();
        assert_eq!(after.counter(RECORDS_READ).unwrap() - before, 7);
        assert!(after.counter(FRAMES_SKIPPED).unwrap() >= 2);
        assert!(after.counter(RECORDS_CLAMPED).unwrap() >= 1);
    }
}
