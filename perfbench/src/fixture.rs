//! Seeded inputs and on-disk fixtures.
//!
//! The benchmark seed reaches the program only through the generated
//! inputs. A fixture is several segments of a Table-1 model's training or
//! testing input, each run with its own executor seed derived from the
//! benchmark seed, so that one run averages over several executions of an
//! input rather than resting on one. The model's program, phase structure
//! and drift stay those of the suite.

use std::fs::{self, File};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use tempo::trace::v2::V2Writer;
use tempo::trace::{pump, TraceSource};
use tempo::workloads::{BenchmarkModel, InputSpec};

use crate::stats::median;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Segments each input of a fixture is cut into.
pub const SEGMENTS: u64 = 4;

/// `base` with the executor seed of segment `segment` under benchmark
/// seed `seed`.
pub fn segment_input(base: InputSpec, seed: u64, segment: u64) -> InputSpec {
    InputSpec {
        seed: splitmix64(base.seed ^ splitmix64(splitmix64(seed) ^ segment)),
        ..base
    }
}

/// [`SEGMENTS`] segments of `base` under `seed`, `records` records in all.
pub fn segments(base: InputSpec, seed: u64, records: usize) -> Vec<(InputSpec, usize)> {
    #[allow(clippy::cast_possible_truncation)]
    let each = records / SEGMENTS as usize;
    (0..SEGMENTS)
        .map(|k| (segment_input(base, seed, k), each))
        .collect()
}

/// Times repeated set-ups. A run sets up once before its timed window
/// and once more before every pass in it, so the median spans the same
/// stretch of machine time as the pipeline metrics instead of one burst.
#[derive(Debug, Default)]
pub struct SetupClock {
    setup_s: Vec<f64>,
    generate_s: Vec<f64>,
}

impl SetupClock {
    /// Runs `setup`, timing the whole call as one set-up. `setup` returns
    /// its product and the seconds it spent generating records.
    pub fn time<T>(
        &mut self,
        setup: impl FnOnce() -> Result<(T, f64), String>,
    ) -> Result<T, String> {
        let start = Instant::now();
        let (product, generate_s) = setup()?;
        self.setup_s.push(start.elapsed().as_secs_f64());
        self.generate_s.push(generate_s);
        Ok(product)
    }

    /// Median seconds of one set-up.
    pub fn setup_s(&self) -> Option<f64> {
        median(&self.setup_s)
    }

    /// Median seconds spent generating records within one set-up.
    pub fn generate_s(&self) -> Option<f64> {
        median(&self.generate_s)
    }

    /// Set-ups timed so far.
    pub fn count(&self) -> usize {
        self.setup_s.len()
    }
}

/// Encodes `records` records of each input in turn into one in-memory
/// TMP2 stream with `frame_records` records per frame.
pub fn encode(
    model: &BenchmarkModel,
    inputs: &[(InputSpec, usize)],
    frame_records: usize,
) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    let mut writer = V2Writer::with_frame_records(&mut bytes, frame_records).map_err(err)?;
    for &(input, records) in inputs {
        let mut source = model.trace_source(&input, records);
        pump(&mut source, &mut writer).map_err(err)?;
    }
    writer.finish().map_err(err)?;
    Ok(bytes)
}

/// Writes `bytes` to `path`, syncs the file to disk, and reads it back, so
/// that neither writeback nor a cold page cache lands in a timed window.
pub fn persist(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let mut file = File::create(path).map_err(err)?;
    file.write_all(bytes).map_err(err)?;
    file.sync_all().map_err(err)?;
    if fs::read(path).map_err(err)? != bytes {
        return Err(format!("{} did not read back as written", path.display()));
    }
    Ok(())
}

/// A sink that only counts, for timing decode on its own.
#[derive(Debug, Default)]
pub struct CountSink(u64);

impl tempo::trace::TraceSink for CountSink {
    fn accept(&mut self, _record: &tempo::trace::TraceRecord) {
        self.0 += 1;
    }
}

/// Drains `source` into a [`CountSink`], returning the record count.
pub fn drain<S: TraceSource>(mut source: S) -> Result<u64, String> {
    let mut sink = CountSink::default();
    pump(&mut source, &mut sink).map_err(err)?;
    Ok(sink.0)
}

/// Renders any error as the benchmark's error string.
pub fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo::workloads::suite;

    #[test]
    fn seed_changes_only_the_executor_seeds() {
        let base = suite::vortex().training_input();
        let a = segment_input(base, 1, 0);
        assert_ne!(a.seed, segment_input(base, 2, 0).seed);
        assert_ne!(a.seed, segment_input(base, 1, 1).seed);
        assert_eq!(a, segment_input(base, 1, 0));
        assert_eq!(a.phase_shift, base.phase_shift);
        let parts = segments(base, 1, 1000);
        assert_eq!(parts.len() as u64, SEGMENTS);
        assert_eq!(parts.iter().map(|p| p.1).sum::<usize>(), 1000);
    }

    #[test]
    fn encoding_is_deterministic_per_seed() {
        let m = suite::vortex();
        let one = encode(&m, &segments(m.training_input(), 3, 1000), 100).unwrap();
        assert_eq!(
            one,
            encode(&m, &segments(m.training_input(), 3, 1000), 100).unwrap()
        );
        assert_ne!(
            one,
            encode(&m, &segments(m.training_input(), 4, 1000), 100).unwrap()
        );
    }
}
