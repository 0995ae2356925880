//! Property tests of the merge algebra on [`ProfileData`], the operation
//! the epoch engine folds every epoch's profile into its window through
//! (DESIGN.md §13, §15).
//!
//! The merge is commutative and associative because every summed
//! quantity is an integer event count (exact in f64 far below 2^53) and
//! the Q-statistics average is recomputed from exact integer
//! accumulators.

#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code asserts by panicking

use proptest::prelude::*;
use tempo::prelude::*;

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

fn fixture_program(sizes: &[u32]) -> Program {
    let mut b = Program::builder();
    for (i, s) in sizes.iter().enumerate() {
        b.procedure(format!("p{i}"), *s);
    }
    b.build().expect("sizes are positive")
}

/// Profiles one trace segment into a standalone [`ProfileData`] under a
/// shared every-procedure-popular membership — the shape epoch profiles
/// have (flags pinned at the first epoch), so any two segment profiles
/// over the same program are merge-compatible.
fn segment_profile(program: &Program, refs: &[usize]) -> ProfileData {
    let ids: Vec<ProcId> = program.ids().collect();
    let trace = Trace::from_full_records(program, refs.iter().map(|&i| ids[i]));
    let popular = tempo::trg::PopularSet::from_parts(
        vec![true; program.len()],
        trace.reference_counts(program).to_vec(),
    );
    let mut stream = Profiler::new(program, CacheConfig::direct_mapped_8k())
        .with_pair_db(true)
        .into_stream(popular);
    stream
        .consume(MemorySource::new(&trace))
        .expect("memory sources cannot fail");
    stream.finish()
}

// ---------------------------------------------------------------------
// Merge algebra: commutative, associative, identity
// ---------------------------------------------------------------------

prop_compose! {
    // Three random reference streams over one shared random program.
    fn three_segment_profiles()(
        sizes in prop::collection::vec(16u32..4000, 2..12),
    )(
        a in prop::collection::vec(0..sizes.len(), 1..120),
        b in prop::collection::vec(0..sizes.len(), 1..120),
        c in prop::collection::vec(0..sizes.len(), 1..120),
        sizes in Just(sizes),
    ) -> (Program, Vec<usize>, Vec<usize>, Vec<usize>) {
        (fixture_program(&sizes), a, b, c)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn merge_is_commutative((program, a, b, _c) in three_segment_profiles()) {
        let pa = segment_profile(&program, &a);
        let pb = segment_profile(&program, &b);

        let mut ab = pa.clone();
        ab.merge(&pb).unwrap();
        let mut ba = pb.clone();
        ba.merge(&pa).unwrap();
        prop_assert!(ab == ba, "a+b must equal b+a");
    }

    #[test]
    fn merge_is_associative((program, a, b, c) in three_segment_profiles()) {
        let pa = segment_profile(&program, &a);
        let pb = segment_profile(&program, &b);
        let pc = segment_profile(&program, &c);

        // (a + b) + c
        let mut left = pa.clone();
        left.merge(&pb).unwrap();
        left.merge(&pc).unwrap();
        // a + (b + c)
        let mut bc = pb.clone();
        bc.merge(&pc).unwrap();
        let mut right = pa.clone();
        right.merge(&bc).unwrap();
        prop_assert!(left == right, "(a+b)+c must equal a+(b+c)");
    }

    #[test]
    fn merging_an_empty_profile_is_identity((program, a, _b, _c) in three_segment_profiles()) {
        let pa = segment_profile(&program, &a);
        let empty = segment_profile(&program, &[]);
        let mut merged = pa.clone();
        merged.merge(&empty).unwrap();
        prop_assert!(merged == pa, "the empty profile is the merge identity");
    }
}
