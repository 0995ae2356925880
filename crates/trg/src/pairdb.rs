//! The §6 pair database `D(p, {r, s})` for set-associative caches.
//!
//! In a 2-way set-associative LRU cache a block `p` is only displaced when
//! **two** distinct blocks mapping to its set intervene between consecutive
//! references to `p`. The paper therefore replaces the pairwise `TRG_place`
//! with a database recording, for each block `p`, how often each *pair*
//! `{r, s}` of blocks appeared between consecutive references to `p`.

use std::collections::hash_map::Entry;
use std::fmt;

use crate::fasthash::IdMap;

/// Key of one association: the focal block and an unordered pair of
/// intervening blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairKey {
    /// The block whose reuse is destroyed.
    pub p: u32,
    /// Smaller intervening block.
    pub r: u32,
    /// Larger intervening block.
    pub s: u32,
}

impl PairKey {
    /// Canonicalizes `(p, {r, s})`.
    ///
    /// # Panics
    ///
    /// Panics if `r == s` (a pair must be two *distinct* blocks) or if `p`
    /// equals `r` or `s`.
    pub fn new(p: u32, r: u32, s: u32) -> Self {
        assert_ne!(r, s, "intervening pair must be distinct blocks");
        assert!(p != r && p != s, "focal block cannot intervene on itself");
        let (r, s) = if r < s { (r, s) } else { (s, r) };
        PairKey { p, r, s }
    }
}

/// One focal block's associations: the packed pair `(r << 32) | s`, with
/// `r < s`, mapped to its count.
pub(crate) type PairRow = IdMap<u64, f64>;

/// Packs an unordered pair of distinct blocks into a row key.
#[inline]
pub(crate) fn pack_pair(r: u32, s: u32) -> u64 {
    let (r, s) = if r < s { (r, s) } else { (s, r) };
    (u64::from(r) << 32) | u64::from(s)
}

#[allow(clippy::cast_possible_truncation)] // the halves of a packed pair
fn unpack(p: u32, pair: u64) -> PairKey {
    PairKey {
        p,
        r: (pair >> 32) as u32,
        s: pair as u32,
    }
}

/// The association database `D(p, {r, s})`.
///
/// Built by the [`Profiler`](crate::Profiler) when
/// [`with_pair_db`](crate::Profiler::with_pair_db) is enabled; consumed by
/// the set-associative GBSC cost metric.
///
/// Stored as one row per focal block, so the profiler's per-event update
/// touches only the focal block's own small table. No row is ever empty.
#[derive(Clone, Default)]
pub struct PairDb {
    rows: IdMap<u32, PairRow>,
}

/// Equality compares the association counts.
impl PartialEq for PairDb {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .all(|(k, w)| other.lookup(k.p, pack_pair(k.r, k.s)) == Some(w))
    }
}

impl PairDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        PairDb::default()
    }

    /// Adds `w` to the association `(p, {r, s})`.
    ///
    /// # Panics
    ///
    /// Panics if `r == s` or `p ∈ {r, s}`.
    pub fn add(&mut self, p: u32, r: u32, s: u32, w: f64) {
        let key = PairKey::new(p, r, s);
        *self
            .focal_row(p)
            .entry(pack_pair(key.r, key.s))
            .or_insert(0.0) += w;
    }

    /// The row of focal block `p`, created empty if absent. The caller
    /// must leave it non-empty.
    pub(crate) fn focal_row(&mut self, p: u32) -> &mut PairRow {
        self.rows.entry(p).or_default()
    }

    fn lookup(&self, p: u32, pair: u64) -> Option<f64> {
        self.rows.get(&p)?.get(&pair).copied()
    }

    /// The recorded frequency of `(p, {r, s})`, or 0.
    pub fn get(&self, p: u32, r: u32, s: u32) -> f64 {
        if r == s || p == r || p == s {
            return 0.0;
        }
        self.lookup(p, pack_pair(r, s)).unwrap_or(0.0)
    }

    /// Number of distinct associations recorded.
    pub fn len(&self) -> usize {
        self.rows.values().map(IdMap::len).sum()
    }

    /// Returns `true` if no associations are recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates over all `(key, weight)` associations, row by row.
    ///
    /// The order is deterministic — the hasher is fixed, so it depends only
    /// on the sequence of updates that built the database — but it is not
    /// sorted; sort the keys where order matters.
    pub fn iter(&self) -> impl Iterator<Item = (PairKey, f64)> + '_ {
        self.rows
            .iter()
            .flat_map(|(&p, row)| row.iter().map(move |(&pair, &w)| (unpack(p, pair), w)))
    }

    /// All associations whose focal block is `p`, in sorted key order.
    pub fn by_focal(&self, p: u32) -> Vec<PairKey> {
        let mut keys: Vec<PairKey> = self
            .rows
            .get(&p)
            .into_iter()
            .flat_map(|row| row.keys().map(|&pair| unpack(p, pair)))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Adds every association of `other` into this database, summing
    /// weights — the profile-merge operation. Counts are integer event
    /// tallies, so merging is exact, commutative, and associative.
    pub fn merge_from(&mut self, other: &PairDb) {
        for (&p, theirs) in &other.rows {
            let row = self.focal_row(p);
            for (&pair, &w) in theirs {
                *row.entry(pair).or_insert(0.0) += w;
            }
        }
    }

    /// Multiplies every association count by `factor` in place — the aging
    /// step of a decaying profile window. Associations that underflow to
    /// exactly zero are removed.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite or not strictly positive.
    pub fn scale(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be finite and positive"
        );
        self.rows.retain(|_, row| {
            row.retain(|_, w| {
                *w *= factor;
                *w != 0.0
            });
            !row.is_empty()
        });
    }

    /// Subtracts every association of `other`, removing entries that reach
    /// zero (or would go negative) — the inverse of
    /// [`merge_from`](PairDb::merge_from) for retiring an epoch from a
    /// sliding window. Counts are integer event tallies, so retiring a
    /// previously merged database restores the pre-merge contents exactly.
    pub fn subtract_from(&mut self, other: &PairDb) {
        for (&p, theirs) in &other.rows {
            let Entry::Occupied(mut mine) = self.rows.entry(p) else {
                continue;
            };
            let row = mine.get_mut();
            for (pair, &w) in theirs {
                if let Entry::Occupied(mut e) = row.entry(*pair) {
                    *e.get_mut() -= w;
                    if *e.get() <= 0.0 {
                        e.remove();
                    }
                }
            }
            if row.is_empty() {
                mine.remove();
            }
        }
    }

    /// Total weight across all associations.
    pub fn total_weight(&self) -> f64 {
        self.rows.values().flat_map(|row| row.values()).sum()
    }
}

impl fmt::Debug for PairDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PairDb({} associations, total weight {})",
            self.len(),
            self.total_weight()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_canonicalizes_pair_order() {
        assert_eq!(PairKey::new(0, 5, 2), PairKey::new(0, 2, 5));
    }

    #[test]
    #[should_panic(expected = "distinct blocks")]
    fn key_rejects_equal_pair() {
        PairKey::new(0, 3, 3);
    }

    #[test]
    #[should_panic(expected = "intervene on itself")]
    fn key_rejects_focal_in_pair() {
        PairKey::new(3, 3, 4);
    }

    #[test]
    fn add_and_get_accumulate() {
        let mut db = PairDb::new();
        db.add(0, 1, 2, 1.0);
        db.add(0, 2, 1, 2.5); // same association, swapped
        assert_eq!(db.get(0, 1, 2), 3.5);
        assert_eq!(db.get(0, 2, 1), 3.5);
        assert_eq!(db.get(1, 0, 2), 0.0);
        assert_eq!(db.len(), 1);
        assert_eq!(db.total_weight(), 3.5);
    }

    #[test]
    fn get_is_zero_for_degenerate_queries() {
        let db = PairDb::new();
        assert_eq!(db.get(0, 1, 1), 0.0);
        assert_eq!(db.get(0, 0, 1), 0.0);
    }

    #[test]
    fn by_focal_lists_sorted_keys() {
        let mut db = PairDb::new();
        db.add(7, 3, 9, 1.0);
        db.add(7, 1, 2, 1.0);
        db.add(8, 1, 2, 1.0);
        let keys = db.by_focal(7);
        assert_eq!(keys.len(), 2);
        assert_eq!(keys[0], PairKey::new(7, 1, 2));
        assert_eq!(keys[1], PairKey::new(7, 3, 9));
        assert!(db.by_focal(99).is_empty());
        db.add(7, 5, 6, 1.0);
        assert_eq!(db.by_focal(7).len(), 3);
    }

    #[test]
    fn merge_from_sums_associations() {
        let mut a = PairDb::new();
        a.add(0, 1, 2, 1.0);
        let mut b = PairDb::new();
        b.add(0, 2, 1, 2.0); // same association, swapped pair
        b.add(3, 4, 5, 4.0);
        a.merge_from(&b);
        assert_eq!(a.get(0, 1, 2), 3.0);
        assert_eq!(a.get(3, 4, 5), 4.0);
        assert_eq!(a.len(), 2);
        assert_eq!(a.by_focal(3).len(), 1);
    }

    #[test]
    fn scale_and_subtract_age_and_retire() {
        let mut db = PairDb::new();
        db.add(0, 1, 2, 4.0);
        db.add(3, 4, 5, 2.0);
        db.scale(0.5);
        assert_eq!(db.get(0, 1, 2), 2.0);
        assert_eq!(db.get(3, 4, 5), 1.0);

        let mut epoch = PairDb::new();
        epoch.add(3, 4, 5, 1.0);
        epoch.add(6, 7, 8, 9.0); // absent here: ignored
        db.subtract_from(&epoch);
        assert_eq!(db.get(3, 4, 5), 0.0);
        assert_eq!(db.len(), 1, "zeroed association is removed");
        // An emptied row disappears with its last association.
        assert!(db.by_focal(3).is_empty());
        assert_eq!(db.by_focal(0).len(), 1);
    }

    #[test]
    fn equality_compares_contents_not_history() {
        let mut a = PairDb::new();
        a.add(0, 1, 2, 1.0);
        a.add(3, 4, 5, 2.0);
        let mut b = PairDb::new();
        b.add(3, 5, 4, 2.0);
        b.add(9, 1, 2, 1.0);
        b.add(0, 2, 1, 1.0);
        assert_ne!(a, b);
        let mut nine = PairDb::new();
        nine.add(9, 1, 2, 1.0);
        b.subtract_from(&nine); // leaves no empty row behind
        assert_eq!(a, b);
        assert!(!b.is_empty());
        b.subtract_from(&a);
        assert!(b.is_empty());
        assert_eq!(b, PairDb::new());
    }

    #[test]
    fn iter_order_is_deterministic() {
        let build = || {
            let mut db = PairDb::new();
            for p in 0..50 {
                db.add(p, p + 1, p + 2, 1.0);
                db.add(p, p + 3, p + 1, 2.0);
            }
            db
        };
        let a: Vec<_> = build().iter().collect();
        let b: Vec<_> = build().iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn iter_covers_everything() {
        let mut db = PairDb::new();
        db.add(0, 1, 2, 1.0);
        db.add(3, 4, 5, 2.0);
        let total: f64 = db.iter().map(|(_, w)| w).sum();
        assert_eq!(total, 3.0);
        assert_eq!(db.iter().count(), 2);
    }
}
