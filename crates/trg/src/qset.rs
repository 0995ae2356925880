//! The bounded ordered set `Q` of recently referenced code blocks (§3).
//!
//! `Q` holds the most recent reference to each code block, ordered by trace
//! position. A block falls out of `Q` when so much *unique* code has been
//! referenced since its last occurrence that it would have been evicted from
//! the cache for capacity reasons anyway — the paper bounds this at **twice
//! the cache size** and reports that the bound "works quite well".

use std::fmt;

/// The outcome of processing one code-block reference through the Q-set.
///
/// `interleaved` lists the (distinct, live) code blocks that occurred
/// between this reference and the previous reference to the same block —
/// exactly the blocks whose TRG edge weights the paper increments. It is
/// empty when the block had no previous occurrence in `Q` (either never
/// referenced, or already aged out), in which case the TRG is not modified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QSetEvent {
    /// `true` if a previous reference to the block was still in `Q`.
    pub had_previous: bool,
    /// Blocks found between the two references, most recent first.
    pub interleaved: Vec<u32>,
}

/// Sentinel link: no neighbour in that direction.
const NIL: u32 = u32::MAX;

/// One id's entry in the recency list, stored densely by id.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The next more recently referenced live id, or [`NIL`].
    newer: u32,
    /// The next less recently referenced live id, or [`NIL`].
    older: u32,
    /// Size in bytes of the id's latest reference.
    size: u32,
    live: bool,
}

const ABSENT: Node = Node {
    newer: NIL,
    older: NIL,
    size: 0,
    live: false,
};

/// The ordered set of recently referenced code blocks.
///
/// Ids are dense `u32` code-block identifiers (procedure indices or global
/// chunk indices); sizes are bytes. The structure keeps only the most
/// recent reference to each id and evicts the oldest ids while the
/// remaining total size stays at or above the capacity bound, mirroring the
/// maintenance rule of §3 exactly.
///
/// `Q` is an intrusive doubly linked recency list threaded through one
/// dense per-id array: a re-reference to `c` walks from the newest entry
/// to `c` (those are exactly the interleaved blocks, most recent first),
/// unlinks `c` and relinks it as the newest; eviction pops the oldest.
/// Every step touches only live entries, and memory is one 16-byte node
/// per id ever referenced, independent of trace length.
///
/// # Example
///
/// ```
/// use tempo_trg::QSet;
/// let mut q = QSet::new(16_384); // bound = 2 * 8 KB cache
/// q.process(0, 512);
/// q.process(1, 256);
/// let ev = q.process(0, 512);
/// assert!(ev.had_previous);
/// assert_eq!(ev.interleaved, vec![1]);
/// ```
#[derive(Clone)]
pub struct QSet {
    bound: u64,
    /// Recency-list node of every id seen so far, indexed by id.
    nodes: Vec<Node>,
    /// The most recently referenced live id, or [`NIL`].
    newest: u32,
    /// The least recently referenced live id, or [`NIL`].
    oldest: u32,
    /// Number of live entries.
    live: usize,
    /// Total size of live entries (each at its latest size).
    live_size: u64,
    /// Capacity evictions performed by the §3 maintenance rule.
    evictions: u64,
    /// Occupancy accounting for average-Q-size reporting (Table 1).
    occupancy_sum: u64,
    occupancy_samples: u64,
    occupancy_max: usize,
}

impl QSet {
    /// Creates a Q-set whose total live size is bounded (from below, per the
    /// eviction rule) by `bound` bytes. Use twice the target cache size, as
    /// the paper recommends.
    pub fn new(bound: u64) -> Self {
        QSet {
            bound,
            nodes: Vec::new(),
            newest: NIL,
            oldest: NIL,
            live: 0,
            live_size: 0,
            evictions: 0,
            occupancy_sum: 0,
            occupancy_samples: 0,
            occupancy_max: 0,
        }
    }

    /// The capacity bound in bytes.
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// Number of live entries currently in `Q`.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if `Q` is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total size in bytes of the live entries.
    pub fn live_size(&self) -> u64 {
        self.live_size
    }

    /// Returns `true` if the block currently has a live entry.
    pub fn contains(&self, id: u32) -> bool {
        self.nodes.get(id as usize).is_some_and(|n| n.live)
    }

    /// Live entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors((self.oldest != NIL).then_some(self.oldest), |&id| {
            let newer = self.nodes[id as usize].newer;
            (newer != NIL).then_some(newer)
        })
    }

    /// Processes the next code-block reference from the trace: appends the
    /// block at the most-recent end, reports the blocks interleaved since
    /// its previous reference (if any), and performs the maintenance rule.
    ///
    /// The returned event drives TRG construction: for each id in
    /// `interleaved`, increment the TRG edge `{id, current}` by one.
    pub fn process(&mut self, id: u32, size: u32) -> QSetEvent {
        let mut interleaved = Vec::new();
        let had_previous = self.process_into(id, size, &mut interleaved);
        QSetEvent {
            had_previous,
            interleaved,
        }
    }

    /// [`process`](QSet::process) into a caller-supplied buffer (cleared
    /// first), returning `had_previous`.
    pub fn process_into(&mut self, id: u32, size: u32, interleaved: &mut Vec<u32>) -> bool {
        interleaved.clear();
        self.process_with(id, size, |other| interleaved.push(other))
    }

    /// The hot entry point behind [`process`](QSet::process): calls
    /// `on_interleaved` once per interleaved block, most recent first,
    /// before any maintenance, and returns `had_previous`. The profiler
    /// tallies TRG edges straight from the callback, so no per-reference
    /// buffer exists at all.
    ///
    /// A re-reference may carry a new size; the live total follows each
    /// id's latest size.
    pub fn process_with(
        &mut self,
        id: u32,
        size: u32,
        mut on_interleaved: impl FnMut(u32),
    ) -> bool {
        let idx = id as usize;
        if idx >= self.nodes.len() {
            self.nodes.resize(idx + 1, ABSENT);
        }
        let had_previous = self.nodes[idx].live;
        if had_previous {
            // Analysis: every live block newer than the previous reference.
            let mut cur = self.newest;
            while cur != id {
                on_interleaved(cur);
                cur = self.nodes[cur as usize].older;
            }
            self.live_size = self.live_size - u64::from(self.nodes[idx].size) + u64::from(size);
            self.unlink(id);
        } else {
            self.live += 1;
            self.live_size += u64::from(size);
        }
        self.nodes[idx].size = size;
        self.nodes[idx].live = true;
        self.push_newest(id);

        // Maintenance: evict the oldest live id while the rest still meets
        // the bound, never the reference just processed.
        while self.oldest != id {
            let victim = self.oldest;
            let vsize = u64::from(self.nodes[victim as usize].size);
            if self.live_size - vsize < self.bound {
                break;
            }
            self.unlink(victim);
            self.nodes[victim as usize].live = false;
            self.live -= 1;
            self.live_size -= vsize;
            self.evictions += 1;
        }

        // Occupancy sample (after maintenance), for Table 1 reporting.
        self.occupancy_sum += self.live as u64;
        self.occupancy_samples += 1;
        self.occupancy_max = self.occupancy_max.max(self.live);

        had_previous
    }

    /// Detaches a live id from the recency list (its `live` flag and the
    /// counters are the caller's business).
    fn unlink(&mut self, id: u32) {
        let Node { newer, older, .. } = self.nodes[id as usize];
        match newer {
            NIL => self.newest = older,
            n => self.nodes[n as usize].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.nodes[o as usize].newer = newer,
        }
    }

    /// Links a detached id in as the newest entry.
    fn push_newest(&mut self, id: u32) {
        let old_newest = self.newest;
        let node = &mut self.nodes[id as usize];
        node.newer = NIL;
        node.older = old_newest;
        match old_newest {
            NIL => self.oldest = id,
            n => self.nodes[n as usize].newer = id,
        }
        self.newest = id;
    }

    /// Average number of live entries observed after each processing step.
    pub fn average_occupancy(&self) -> f64 {
        if self.occupancy_samples == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.occupancy_samples as f64
        }
    }

    /// Maximum number of live entries observed.
    pub fn max_occupancy(&self) -> usize {
        self.occupancy_max
    }

    /// Sum of live-entry counts over all occupancy samples — the exact
    /// integer numerator behind [`average_occupancy`](QSet::average_occupancy),
    /// exposed so merged statistics lose no precision.
    pub fn occupancy_sum(&self) -> u64 {
        self.occupancy_sum
    }

    /// Number of occupancy samples taken (one per processed reference).
    pub fn occupancy_samples(&self) -> u64 {
        self.occupancy_samples
    }

    /// Capacity evictions performed so far (the §3 maintenance rule
    /// dropping the oldest block while the remainder still meets the
    /// bound) — the observability layer reports this as
    /// `profile.qset_*_evictions`.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

impl fmt::Debug for QSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QSet({} live entries, {} bytes, bound {})",
            self.len(),
            self.live_size,
            self.bound
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_reference_has_no_previous() {
        let mut q = QSet::new(1000);
        let ev = q.process(7, 100);
        assert!(!ev.had_previous);
        assert!(ev.interleaved.is_empty());
        assert!(q.contains(7));
        assert_eq!(q.len(), 1);
        assert_eq!(q.live_size(), 100);
    }

    #[test]
    fn interleaved_blocks_are_reported_most_recent_first() {
        let mut q = QSet::new(10_000);
        q.process(0, 10);
        q.process(1, 10);
        q.process(2, 10);
        let ev = q.process(0, 10);
        assert!(ev.had_previous);
        assert_eq!(ev.interleaved, vec![2, 1]);
    }

    #[test]
    fn only_latest_reference_is_kept() {
        let mut q = QSet::new(10_000);
        q.process(0, 10);
        q.process(1, 10);
        q.process(0, 10); // supersedes the first 0
        q.process(2, 10);
        let ev = q.process(0, 10);
        // Between the *latest* two references to 0: only 2 (1 is older).
        assert_eq!(ev.interleaved, vec![2]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn paper_figure_3_walkthrough() {
        // Trace #2 prefix: M X M X ... with M=0, X=1, then Z=2.
        let mut q = QSet::new(10_000);
        q.process(0, 100); // M
        q.process(1, 100); // X
        let ev = q.process(0, 100); // M again: X interleaves (Fig. 3a)
        assert_eq!(ev.interleaved, vec![1]);
        let ev = q.process(2, 100); // Z: no previous (Fig. 3b)
        assert!(!ev.had_previous);
        let ev = q.process(0, 100); // M: Z interleaves (Fig. 3c)
        assert_eq!(ev.interleaved, vec![2]);
        // Fig. 3d: processing X now sees M and Z since X's last reference.
        let ev = q.process(1, 100);
        assert!(ev.had_previous);
        assert_eq!(ev.interleaved, vec![0, 2]);
    }

    #[test]
    fn capacity_eviction_keeps_at_least_bound() {
        let mut q = QSet::new(250);
        q.process(0, 100);
        q.process(1, 100);
        q.process(2, 100); // 300 live; 300-100 < 250 -> keep all
        assert_eq!(q.len(), 3);
        q.process(3, 100); // 400 live; evict 0 (300 >= 250), then stop (200 < 250)
        assert_eq!(q.len(), 3);
        assert!(!q.contains(0));
        assert_eq!(q.live_size(), 300);
    }

    #[test]
    fn evicted_block_loses_its_history() {
        let mut q = QSet::new(100);
        q.process(0, 100);
        q.process(1, 100); // evicts 0: 200-100 >= 100
        assert!(!q.contains(0));
        let ev = q.process(0, 100);
        assert!(!ev.had_previous, "aged-out block must look new");
    }

    #[test]
    fn refreshing_prevents_eviction() {
        let mut q = QSet::new(250);
        q.process(0, 100);
        q.process(1, 100);
        q.process(0, 100); // 0 is now most recent
        q.process(2, 100);
        q.process(3, 100); // evictions hit 1 first, not 0
        assert!(q.contains(0));
        assert!(!q.contains(1));
    }

    #[test]
    fn entries_iterate_oldest_first_without_stale() {
        let mut q = QSet::new(10_000);
        q.process(0, 10);
        q.process(1, 10);
        q.process(0, 10);
        let order: Vec<u32> = q.entries().collect();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn occupancy_stats_track_live_entries() {
        let mut q = QSet::new(10_000);
        assert_eq!(q.average_occupancy(), 0.0);
        q.process(0, 10); // 1 live
        q.process(1, 10); // 2 live
        q.process(0, 10); // 2 live
        assert_eq!(q.max_occupancy(), 2);
        let avg = q.average_occupancy();
        assert!((avg - (1.0 + 2.0 + 2.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn interleaved_excludes_stale_duplicates() {
        let mut q = QSet::new(10_000);
        q.process(0, 10);
        q.process(1, 10);
        q.process(1, 10); // re-reference: 1 moves, it is not duplicated
        let ev = q.process(0, 10);
        assert_eq!(ev.interleaved, vec![1], "1 must be reported once");
    }

    #[test]
    fn zero_bound_keeps_only_current() {
        // Degenerate bound: everything else is evicted immediately.
        let mut q = QSet::new(0);
        q.process(0, 10);
        assert_eq!(q.len(), 1); // can't evict below one entry... bound 0 evicts all but current
        q.process(1, 10);
        assert!(!q.contains(0));
        let ev = q.process(0, 10);
        assert!(!ev.had_previous);
    }

    #[test]
    fn size_change_on_rereference_keeps_live_size_exact() {
        // The live total follows each id's latest size; a stale first size
        // here once made the eviction check underflow.
        let mut q = QSet::new(100);
        q.process(0, 10);
        q.process(0, 1000);
        assert_eq!(q.live_size(), 1000);
        let ev = q.process(1, 10); // 1010 live; 1010 - 1000 < 100: keep 0
        assert!(!ev.had_previous);
        assert_eq!(q.live_size(), 1010);
        assert_eq!(q.len(), 2);
        assert_eq!(q.evictions(), 0);
        q.process(0, 10); // shrink: 20 live
        assert_eq!(q.live_size(), 20);
    }

    #[test]
    fn single_block_repeated() {
        let mut q = QSet::new(100);
        q.process(5, 50);
        for _ in 0..10 {
            let ev = q.process(5, 50);
            assert!(ev.had_previous);
            assert!(ev.interleaved.is_empty());
        }
        assert_eq!(q.len(), 1);
        assert_eq!(q.live_size(), 50);
    }
}
