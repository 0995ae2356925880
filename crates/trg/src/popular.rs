//! Popular-procedure selection (after Hashemi et al., adopted in §4).
//!
//! For efficiency the paper builds its relationship graphs over *popular*
//! (frequently executed) procedures only. We define the popular set as the
//! smallest group of most-referenced procedures covering a configurable
//! fraction of all dynamic references, with an optional absolute floor.

use std::fmt;

use tempo_program::{ProcId, Program};
use tempo_trace::io::TraceIoError;
use tempo_trace::source::RefCountSink;
use tempo_trace::{pump, Trace, TraceSource};

/// Policy for choosing the popular set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopularitySelector {
    /// Fraction of dynamic references the popular set must cover, in `[0,1]`.
    coverage: f64,
    /// Procedures referenced fewer than this many times are never popular.
    min_count: u64,
}

impl PopularitySelector {
    /// A selector covering `coverage` of dynamic references.
    ///
    /// # Panics
    ///
    /// Panics if `coverage` is not in `[0, 1]`.
    pub fn coverage(coverage: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&coverage),
            "coverage must be within [0, 1]"
        );
        PopularitySelector {
            coverage,
            min_count: 1,
        }
    }

    /// The fraction of dynamic references the popular set must cover.
    pub fn coverage_target(&self) -> f64 {
        self.coverage
    }

    /// The default policy: 99.5% dynamic coverage, minimum 2 references.
    pub fn default_policy() -> Self {
        PopularitySelector {
            coverage: 0.995,
            min_count: 2,
        }
    }

    /// Marks every referenced procedure popular (useful for small tests).
    pub fn all() -> Self {
        PopularitySelector {
            coverage: 1.0,
            min_count: 1,
        }
    }

    /// Sets the absolute reference-count floor.
    ///
    /// # Panics
    ///
    /// Panics if `min_count` is zero (a zero floor would admit procedures
    /// that never execute).
    pub fn with_min_count(mut self, min_count: u64) -> Self {
        assert!(min_count >= 1, "min_count must be at least 1");
        self.min_count = min_count;
        self
    }

    /// Computes the popular set for a trace.
    pub fn select(&self, program: &Program, trace: &Trace) -> PopularSet {
        self.from_counts(program, &trace.reference_counts(program))
    }

    /// Computes the popular set from one pass over a [`TraceSource`] in
    /// O(#procedures) memory — the counting pass of streaming profiling.
    ///
    /// Equivalent to [`select`](PopularitySelector::select) on the
    /// materialized trace: both count references per procedure (ignoring
    /// records naming procedures the program lacks) and feed
    /// [`from_counts`](PopularitySelector::from_counts).
    ///
    /// # Errors
    ///
    /// Propagates the first error the source reports.
    pub fn select_source<S: TraceSource>(
        &self,
        program: &Program,
        mut source: S,
    ) -> Result<PopularSet, TraceIoError> {
        let mut counts = RefCountSink::new(program.len());
        pump(&mut source, &mut counts)?;
        Ok(self.from_counts(program, counts.counts()))
    }

    /// Computes the popular set from precomputed reference counts
    /// (indexed by procedure id).
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != program.len()`.
    #[allow(clippy::cast_possible_truncation)] // bounded by construction (see expression)
    pub fn from_counts(&self, program: &Program, counts: &[u64]) -> PopularSet {
        assert_eq!(counts.len(), program.len(), "one count per procedure");
        let total: u64 = counts.iter().sum();
        let mut by_count: Vec<ProcId> = program.ids().collect();
        // Sort by descending count; ties by id for determinism.
        by_count.sort_by_key(|id| (std::cmp::Reverse(counts[id.as_usize()]), id.index()));

        let mut popular = vec![false; program.len()];
        let target = (total as f64 * self.coverage).ceil() as u64;
        let mut covered = 0u64;
        for id in by_count {
            let c = counts[id.as_usize()];
            if covered >= target || c < self.min_count {
                break;
            }
            popular[id.as_usize()] = true;
            covered += c;
        }
        PopularSet {
            popular,
            counts: counts.to_vec(),
        }
    }
}

impl Default for PopularitySelector {
    fn default() -> Self {
        PopularitySelector::default_policy()
    }
}

/// The popular-procedure set plus the reference counts it was derived from.
#[derive(Clone, PartialEq, Eq)]
pub struct PopularSet {
    popular: Vec<bool>,
    counts: Vec<u64>,
}

impl PopularSet {
    /// Builds a set directly from a membership vector and counts (mostly for
    /// tests; prefer [`PopularitySelector`]).
    ///
    /// # Panics
    ///
    /// Panics if the two vectors differ in length.
    pub fn from_parts(popular: Vec<bool>, counts: Vec<u64>) -> Self {
        assert_eq!(popular.len(), counts.len(), "vector lengths must match");
        PopularSet { popular, counts }
    }

    /// Returns `true` if the procedure is popular.
    #[inline]
    pub fn is_popular(&self, id: ProcId) -> bool {
        self.popular.get(id.as_usize()).copied().unwrap_or(false)
    }

    /// Number of popular procedures.
    pub fn count(&self) -> usize {
        self.popular.iter().filter(|&&p| p).count()
    }

    /// Total number of procedures covered (popular or not).
    pub fn len(&self) -> usize {
        self.popular.len()
    }

    /// Returns `true` if the set covers zero procedures.
    pub fn is_empty(&self) -> bool {
        self.popular.is_empty()
    }

    /// Popular procedure ids, ascending.
    #[allow(clippy::cast_possible_truncation)] // bounded by construction (see expression)
    pub fn iter(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.popular
            .iter()
            .enumerate()
            .filter(|(_, &p)| p)
            .map(|(i, _)| ProcId::new(i as u32))
    }

    /// Unpopular procedure ids, ascending.
    #[allow(clippy::cast_possible_truncation)] // bounded by construction (see expression)
    pub fn iter_unpopular(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.popular
            .iter()
            .enumerate()
            .filter(|(_, &p)| !p)
            .map(|(i, _)| ProcId::new(i as u32))
    }

    /// Dynamic reference count of a procedure.
    pub fn count_of(&self, id: ProcId) -> u64 {
        self.counts.get(id.as_usize()).copied().unwrap_or(0)
    }

    /// Total bytes of popular procedures under `program`.
    pub fn popular_size(&self, program: &Program) -> u64 {
        self.iter().map(|id| u64::from(program.size_of(id))).sum()
    }

    /// Returns `true` when both sets mark exactly the same procedures
    /// popular (including covering the same number of procedures) — the
    /// compatibility requirement for merging profiles.
    pub fn same_membership(&self, other: &PopularSet) -> bool {
        self.popular == other.popular
    }

    /// Adds `other`'s reference counts into this set, entry by entry.
    ///
    /// Epoch profiles carry pinned membership flags paired with the counts
    /// observed in their own trace range; merging sums the ranges' counts
    /// back into the window's totals.
    ///
    /// # Panics
    ///
    /// Panics if the sets differ in length or membership — check
    /// [`same_membership`](PopularSet::same_membership) first.
    pub fn merge_counts(&mut self, other: &PopularSet) {
        assert!(
            self.same_membership(other),
            "popular membership must match to merge counts"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += *o;
        }
    }

    /// Scales every reference count by `factor`, rounding to the nearest
    /// integer — the aging step of a decaying profile window. Membership
    /// flags are left untouched: a decaying window pins membership at
    /// window start and only the counts age.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite or not strictly positive.
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    #[allow(clippy::cast_sign_loss)] // product of non-negatives
    pub fn scale_counts(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be finite and positive"
        );
        for c in &mut self.counts {
            *c = ((*c as f64) * factor).round() as u64;
        }
    }

    /// Subtracts `other`'s reference counts entry by entry, saturating at
    /// zero — the inverse of [`merge_counts`](PopularSet::merge_counts)
    /// for retiring an epoch from a sliding window.
    ///
    /// # Panics
    ///
    /// Panics if the sets differ in length or membership.
    pub fn retire_counts(&mut self, other: &PopularSet) {
        assert!(
            self.same_membership(other),
            "popular membership must match to retire counts"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c = c.saturating_sub(*o);
        }
    }
}

impl fmt::Debug for PopularSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PopularSet({} of {})", self.count(), self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(n: usize) -> Program {
        let mut b = Program::builder();
        for i in 0..n {
            b.procedure(format!("p{i}"), 100);
        }
        b.build().unwrap()
    }

    #[test]
    fn coverage_selects_hot_prefix() {
        let p = program(4);
        // Counts: p0=70, p1=20, p2=9, p3=1.
        let sel = PopularitySelector::coverage(0.90).with_min_count(1);
        let set = sel.from_counts(&p, &[70, 20, 9, 1]);
        assert!(set.is_popular(ProcId::new(0)));
        assert!(set.is_popular(ProcId::new(1)));
        assert!(!set.is_popular(ProcId::new(2)));
        assert!(!set.is_popular(ProcId::new(3)));
        assert_eq!(set.count(), 2);
    }

    #[test]
    fn min_count_floors_the_set() {
        let p = program(3);
        let sel = PopularitySelector::coverage(1.0).with_min_count(10);
        let set = sel.from_counts(&p, &[100, 9, 50]);
        assert!(set.is_popular(ProcId::new(0)));
        assert!(set.is_popular(ProcId::new(2)));
        assert!(!set.is_popular(ProcId::new(1)));
    }

    #[test]
    fn all_marks_every_referenced_procedure() {
        let p = program(3);
        let set = PopularitySelector::all().from_counts(&p, &[5, 0, 1]);
        assert!(set.is_popular(ProcId::new(0)));
        assert!(
            !set.is_popular(ProcId::new(1)),
            "never-referenced stays out"
        );
        assert!(set.is_popular(ProcId::new(2)));
    }

    #[test]
    fn select_from_trace() {
        let p = program(2);
        let t = tempo_trace::Trace::from_full_records(
            &p,
            vec![ProcId::new(0); 10].into_iter().chain([ProcId::new(1)]),
        );
        let set = PopularitySelector::coverage(0.9)
            .with_min_count(1)
            .select(&p, &t);
        assert!(set.is_popular(ProcId::new(0)));
        assert!(!set.is_popular(ProcId::new(1)));
        assert_eq!(set.count_of(ProcId::new(0)), 10);
        assert_eq!(set.count_of(ProcId::new(1)), 1);
    }

    #[test]
    fn iterators_partition_ids() {
        let p = program(4);
        let set = PopularitySelector::coverage(0.5)
            .with_min_count(1)
            .from_counts(&p, &[10, 10, 1, 1]);
        let pop: Vec<_> = set.iter().collect();
        let unpop: Vec<_> = set.iter_unpopular().collect();
        assert_eq!(pop.len() + unpop.len(), 4);
        for id in &pop {
            assert!(set.is_popular(*id));
        }
        for id in &unpop {
            assert!(!set.is_popular(*id));
        }
    }

    #[test]
    fn popular_size_sums_bytes() {
        let p = program(3);
        let set = PopularSet::from_parts(vec![true, false, true], vec![5, 1, 5]);
        assert_eq!(set.popular_size(&p), 200);
    }

    #[test]
    fn merge_counts_sums_entrywise() {
        let mut a = PopularSet::from_parts(vec![true, false], vec![3, 1]);
        let b = PopularSet::from_parts(vec![true, false], vec![4, 2]);
        assert!(a.same_membership(&b));
        a.merge_counts(&b);
        assert_eq!(a.count_of(ProcId::new(0)), 7);
        assert_eq!(a.count_of(ProcId::new(1)), 3);
    }

    #[test]
    #[should_panic(expected = "membership must match")]
    fn merge_counts_rejects_membership_mismatch() {
        let mut a = PopularSet::from_parts(vec![true, false], vec![3, 1]);
        let b = PopularSet::from_parts(vec![true, true], vec![4, 2]);
        a.merge_counts(&b);
    }

    #[test]
    fn ties_break_by_id() {
        let p = program(3);
        // Equal counts: lower ids selected first.
        let sel = PopularitySelector::coverage(0.34).with_min_count(1);
        let set = sel.from_counts(&p, &[10, 10, 10]);
        assert!(set.is_popular(ProcId::new(0)));
        assert!(!set.is_popular(ProcId::new(2)));
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn rejects_bad_coverage() {
        PopularitySelector::coverage(1.5);
    }

    #[test]
    fn zero_total_references() {
        let p = program(2);
        let set = PopularitySelector::default_policy().from_counts(&p, &[0, 0]);
        assert_eq!(set.count(), 0);
    }
}
