//! The integer-key hash map behind the profiler's hot-path tallies.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by dense integers (block ids, packed id pairs) with
/// [`IdHasher`] instead of SipHash. The hasher is fixed, so iteration
/// order depends only on the sequence of operations, never on the process.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Splitmix64-style finalizer for integer keys. The keys are already
/// unique integers, so a multiplicative mix beats the default SipHash by a
/// wide margin on the per-record hot path without sacrificing distribution
/// quality.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-integer keys (unused on the hot path): FNV-1a.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        let mut z = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^= z >> 30;
        z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        self.0 = z;
    }
}
