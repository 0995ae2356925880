//! The line-accurate cache model.

use std::fmt;

use crate::CacheConfig;

/// A line-accurate instruction-cache model with true-LRU replacement.
///
/// One type covers the whole associativity range: associativity 1 is a
/// direct-mapped cache (the paper's primary target), higher associativities
/// implement the LRU policy assumed by the paper's §6 extension.
///
/// Accesses are made at *memory line* granularity via
/// [`access_line`](InstructionCache::access_line); address-to-line
/// conversion lives in [`CacheConfig`].
///
/// # Example
///
/// ```
/// use tempo_cache::{CacheConfig, InstructionCache};
/// let mut cache = InstructionCache::new(CacheConfig::direct_mapped_8k());
/// assert!(!cache.access_line(0));       // cold miss
/// assert!(cache.access_line(0));        // hit
/// assert!(!cache.access_line(256));     // maps to the same line: conflict
/// assert!(!cache.access_line(0));       // and back: conflict again
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct InstructionCache {
    config: CacheConfig,
    /// `ways[set * assoc .. (set+1) * assoc]` holds the resident memory
    /// lines of a set in MRU-first order; `EMPTY` marks an invalid way.
    ways: Vec<u64>,
}

const EMPTY: u64 = u64::MAX;

impl InstructionCache {
    /// Creates an empty (all-invalid) cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let ways = vec![EMPTY; config.lines() as usize];
        InstructionCache { config, ways }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accesses a memory line; returns `true` on a hit.
    ///
    /// On a miss the line is filled, evicting the LRU way of its set.
    #[inline]
    pub fn access_line(&mut self, line: u64) -> bool {
        debug_assert_ne!(line, EMPTY, "line index reserved as invalid marker");
        let assoc = self.config.associativity() as usize;
        let set = self.config.set_of_line(line) as usize;
        let ways = &mut self.ways[set * assoc..(set + 1) * assoc];
        // MRU-first search; on hit rotate the line to the front.
        for i in 0..assoc {
            if ways[i] == line {
                ways[..=i].rotate_right(1);
                return true;
            }
        }
        // Miss: insert at MRU, dropping the LRU way.
        ways.rotate_right(1);
        ways[0] = line;
        false
    }

    /// Accesses every line touched by `bytes` bytes starting at `addr`,
    /// in address order; returns `(accesses, misses)`.
    #[inline]
    pub fn access_range(&mut self, addr: u64, bytes: u32) -> (u64, u64) {
        if bytes == 0 {
            return (0, 0);
        }
        let first = self.config.line_of_addr(addr);
        let last = self.config.line_of_addr(addr + u64::from(bytes) - 1);
        let mut misses = 0;
        for line in first..=last {
            if !self.access_line(line) {
                misses += 1;
            }
        }
        (last - first + 1, misses)
    }

    /// Branchless bulk access for direct-mapped caches: every touched line
    /// costs one masked index, one compare-as-integer, and one
    /// unconditional store — no per-line branch, no MRU bookkeeping (an
    /// associativity-1 set has nothing to rotate). Produces exactly the
    /// counts [`access_range`](InstructionCache::access_range) would.
    ///
    /// # Panics
    ///
    /// Debug-asserts the cache is direct-mapped; callers dispatch on
    /// [`CacheConfig::is_direct_mapped`].
    #[inline]
    #[allow(clippy::cast_possible_truncation)] // masked index < sets
    pub fn access_range_direct(&mut self, addr: u64, bytes: u32) -> (u64, u64) {
        debug_assert!(self.config.is_direct_mapped());
        if bytes == 0 {
            return (0, 0);
        }
        let first = self.config.line_of_addr(addr);
        let last = self.config.line_of_addr(addr + u64::from(bytes) - 1);
        // Geometry is power-of-two by construction, so the set index is a
        // mask — the `%` in `set_of_line` is a hardware divide because the
        // divisor is only known at runtime.
        let mask = u64::from(self.config.sets()) - 1;
        let mut misses = 0u64;
        for line in first..=last {
            let slot = &mut self.ways[(line & mask) as usize];
            misses += u64::from(*slot != line);
            *slot = line;
        }
        (last - first + 1, misses)
    }

    /// Invalidates every line.
    pub fn flush(&mut self) {
        self.ways.fill(EMPTY);
    }

    /// Returns `true` if the memory line is currently resident.
    pub fn contains_line(&self, line: u64) -> bool {
        let assoc = self.config.associativity() as usize;
        let set = self.config.set_of_line(line) as usize;
        self.ways[set * assoc..(set + 1) * assoc].contains(&line)
    }

    /// Number of resident (valid) lines.
    pub fn resident_lines(&self) -> usize {
        self.ways.iter().filter(|&&w| w != EMPTY).count()
    }
}

impl fmt::Debug for InstructionCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "InstructionCache({}, {} resident)",
            self.config,
            self.resident_lines()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = InstructionCache::new(CacheConfig::direct_mapped_8k());
        assert!(!c.access_line(5));
        assert!(c.access_line(5));
        assert!(!c.access_line(5 + 256)); // same cache line
        assert!(!c.access_line(5)); // evicted
        assert!(!c.access_line(6)); // different line: cold miss only
        assert!(c.access_line(6));
    }

    #[test]
    fn two_way_keeps_two_conflicting_lines() {
        let mut c = InstructionCache::new(CacheConfig::two_way_8k());
        // Lines 0 and 128 share set 0 in a 128-set cache.
        assert!(!c.access_line(0));
        assert!(!c.access_line(128));
        assert!(c.access_line(0));
        assert!(c.access_line(128));
    }

    #[test]
    fn two_way_lru_evicts_least_recent() {
        let mut c = InstructionCache::new(CacheConfig::two_way_8k());
        c.access_line(0); // set 0: [0]
        c.access_line(128); // set 0: [128, 0]
        c.access_line(0); // set 0: [0, 128]
        assert!(!c.access_line(256)); // evicts 128 (LRU)
        assert!(c.access_line(0));
        assert!(!c.access_line(128)); // was evicted
    }

    #[test]
    fn fully_associative_lru() {
        let cfg = CacheConfig::new(128, 32, 4).unwrap(); // 4 lines, 1 set
        let mut c = InstructionCache::new(cfg);
        for l in 0..4 {
            assert!(!c.access_line(l));
        }
        assert_eq!(c.resident_lines(), 4);
        // Touch 0 to make 1 the LRU, then insert a 5th line.
        assert!(c.access_line(0));
        assert!(!c.access_line(100));
        assert!(!c.contains_line(1));
        assert!(c.contains_line(0));
        assert!(c.contains_line(2));
        assert!(c.contains_line(3));
    }

    #[test]
    fn access_range_counts_lines() {
        let mut c = InstructionCache::new(CacheConfig::direct_mapped_8k());
        let (acc, miss) = c.access_range(0, 100); // lines 0..=3
        assert_eq!(acc, 4);
        assert_eq!(miss, 4);
        let (acc, miss) = c.access_range(0, 100);
        assert_eq!(acc, 4);
        assert_eq!(miss, 0);
        let (acc, miss) = c.access_range(0, 0);
        assert_eq!((acc, miss), (0, 0));
        // Range straddling a line boundary.
        let (acc, _) = c.access_range(31, 2);
        assert_eq!(acc, 2);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = InstructionCache::new(CacheConfig::direct_mapped_8k());
        c.access_range(0, 8192);
        assert_eq!(c.resident_lines(), 256);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.access_line(0));
    }

    #[test]
    fn wraparound_mapping() {
        let mut c = InstructionCache::new(CacheConfig::direct_mapped_8k());
        // Two addresses exactly one cache size apart conflict.
        c.access_line(7);
        assert!(!c.access_line(7 + 256));
        assert!(!c.access_line(7 + 512));
    }

    #[test]
    fn direct_mapped_whole_cache_fits() {
        let mut c = InstructionCache::new(CacheConfig::direct_mapped_8k());
        let (_, m1) = c.access_range(0, 8192);
        assert_eq!(m1, 256); // cold
        let (_, m2) = c.access_range(0, 8192);
        assert_eq!(m2, 0); // fully resident
    }
}
