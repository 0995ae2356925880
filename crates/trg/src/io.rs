//! Profile serialization.
//!
//! A [`ProfileData`] can be saved after a (potentially expensive) profiling
//! run and reloaded for any number of placement experiments — the shape of
//! the paper's own workflow, where traces are gathered once per
//! training input. The format is line-oriented text; `f64` weights are
//! printed with Rust's shortest-round-trip formatting, so reading back is
//! exact.
//!
//! ```
//! use tempo_program::Program;
//! use tempo_trace::Trace;
//! use tempo_cache::CacheConfig;
//! use tempo_trg::{Profiler, io::{write_profile, read_profile}};
//!
//! let program = Program::builder().procedure("a", 64).procedure("b", 64).build()?;
//! let ids: Vec<_> = program.ids().collect();
//! let trace = Trace::from_full_records(&program, [ids[0], ids[1], ids[0]]);
//! let profile = Profiler::new(&program, CacheConfig::direct_mapped_8k()).profile(&trace);
//!
//! let mut buf = Vec::new();
//! write_profile(&mut buf, &profile)?;
//! let back = read_profile(buf.as_slice())?;
//! assert_eq!(back.wcg.weight(0, 1), profile.wcg.weight(0, 1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

use tempo_cache::CacheConfig;

use crate::{PairDb, PopularSet, ProfileData, QStats, WeightedGraph};

/// Errors produced while reading or writing profiles.
#[derive(Debug)]
#[non_exhaustive]
pub enum ProfileIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Missing or malformed header.
    BadHeader,
    /// A section or line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
    },
    /// A section appeared out of order or was missing.
    BadStructure(&'static str),
}

impl fmt::Display for ProfileIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileIoError::Io(e) => write!(f, "i/o error: {e}"),
            ProfileIoError::BadHeader => write!(f, "missing or malformed tempo-profile header"),
            ProfileIoError::BadLine { line } => write!(f, "malformed profile line {line}"),
            ProfileIoError::BadStructure(what) => write!(f, "malformed profile section: {what}"),
        }
    }
}

impl Error for ProfileIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProfileIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProfileIoError {
    fn from(e: std::io::Error) -> Self {
        ProfileIoError::Io(e)
    }
}

/// Writes a profile in the text format.
///
/// # Errors
///
/// Propagates writer errors.
#[allow(clippy::cast_possible_truncation)] // bounded by construction (see expression)
pub fn write_profile<W: Write>(mut w: W, profile: &ProfileData) -> Result<(), ProfileIoError> {
    writeln!(w, "tempo-profile v1")?;
    writeln!(
        w,
        "cache {} {} {}",
        profile.cache.size(),
        profile.cache.line_size(),
        profile.cache.associativity()
    )?;
    // The trailing sum/samples fields are the exact integer accumulators
    // behind `average`; readers predating them ignore trailing fields, and
    // this reader defaults them to zero when absent, so both directions
    // stay compatible.
    writeln!(
        w,
        "qstats {} {} {} {}",
        profile.q_stats.average,
        profile.q_stats.max,
        profile.q_stats.occupancy_sum,
        profile.q_stats.samples
    )?;
    writeln!(w, "popular {}", profile.popular.len())?;
    for i in 0..profile.popular.len() {
        let id = tempo_program::ProcId::new(i as u32);
        writeln!(
            w,
            "{} {}",
            profile.popular.count_of(id),
            u8::from(profile.popular.is_popular(id))
        )?;
    }
    for (name, graph) in [
        ("wcg", &profile.wcg),
        ("trg_select", &profile.trg_select),
        ("trg_place", &profile.trg_place),
    ] {
        writeln!(w, "{name} {}", graph.edge_count())?;
        for e in graph.edges() {
            writeln!(w, "{} {} {}", e.a, e.b, e.w)?;
        }
    }
    match &profile.pair_db {
        None => writeln!(w, "pairdb absent")?,
        Some(db) => {
            writeln!(w, "pairdb {}", db.len())?;
            // Sort for a deterministic file.
            let mut entries: Vec<_> = db.iter().collect();
            entries.sort_by_key(|(k, _)| *k);
            for (k, v) in entries {
                writeln!(w, "{} {} {} {}", k.p, k.r, k.s, v)?;
            }
        }
    }
    Ok(())
}

/// A weight field: a finite, positive `f64`, as every writer emits (event
/// counts, and their decayed or perturbed multiples).
fn weight(field: &str) -> Option<f64> {
    field
        .parse::<f64>()
        .ok()
        .filter(|w| w.is_finite() && *w > 0.0)
}

struct LineReader<R: BufRead> {
    lines: std::io::Lines<R>,
    lineno: usize,
}

impl<R: BufRead> LineReader<R> {
    fn next_content(&mut self) -> Result<Option<(usize, String)>, ProfileIoError> {
        for line in self.lines.by_ref() {
            self.lineno += 1;
            let line = line?;
            let t = line.trim();
            if !t.is_empty() && !t.starts_with('#') {
                return Ok(Some((self.lineno, t.to_string())));
            }
        }
        Ok(None)
    }

    fn expect(&mut self, what: &'static str) -> Result<(usize, String), ProfileIoError> {
        self.next_content()?
            .ok_or(ProfileIoError::BadStructure(what))
    }
}

/// Reads a profile in the text format.
///
/// # Errors
///
/// Fails on I/O errors or any structural problem in the input. Besides
/// malformed lines, an edge line is a [`BadLine`](ProfileIoError::BadLine)
/// when it is a self-loop, when its weight is not finite and positive, or
/// (in `wcg` and `trg_select`) when an id is not below the file's
/// `popular` procedure count; so is a pair-database line whose three
/// blocks are not distinct or whose weight is bad. Whether the chunk ids
/// fit a program is [`ProfileData::fits`]'s question.
pub fn read_profile<R: BufRead>(r: R) -> Result<ProfileData, ProfileIoError> {
    let mut lr = LineReader {
        lines: r.lines(),
        lineno: 0,
    };

    let (_, header) = lr.expect("header")?;
    if header != "tempo-profile v1" {
        return Err(ProfileIoError::BadHeader);
    }

    let (ln, cache_line) = lr.expect("cache")?;
    let mut parts = cache_line.split_whitespace();
    if parts.next() != Some("cache") {
        return Err(ProfileIoError::BadStructure("cache"));
    }
    let geometry: Vec<u32> = parts
        .map(|s| s.parse().map_err(|_| ProfileIoError::BadLine { line: ln }))
        .collect::<Result<_, _>>()?;
    let [size, line_size, assoc] = geometry[..] else {
        return Err(ProfileIoError::BadLine { line: ln });
    };
    let cache = CacheConfig::new(size, line_size, assoc)
        .map_err(|_| ProfileIoError::BadLine { line: ln })?;

    let (ln, q_line) = lr.expect("qstats")?;
    let mut parts = q_line.split_whitespace();
    if parts.next() != Some("qstats") {
        return Err(ProfileIoError::BadStructure("qstats"));
    }
    let average: f64 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(ProfileIoError::BadLine { line: ln })?;
    let max: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(ProfileIoError::BadLine { line: ln })?;
    // Optional exact accumulators (absent in files written before profile
    // merging existed; such profiles merge with zero weight on `average`).
    let occupancy_sum: u64 = match parts.next() {
        None => 0,
        Some(s) => s
            .parse()
            .map_err(|_| ProfileIoError::BadLine { line: ln })?,
    };
    let samples: u64 = match parts.next() {
        None => 0,
        Some(s) => s
            .parse()
            .map_err(|_| ProfileIoError::BadLine { line: ln })?,
    };

    let (ln, pop_line) = lr.expect("popular")?;
    let mut parts = pop_line.split_whitespace();
    if parts.next() != Some("popular") {
        return Err(ProfileIoError::BadStructure("popular"));
    }
    let n: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(ProfileIoError::BadLine { line: ln })?;
    // `n` is an untrusted declared count: cap the preallocation (the same
    // hardening the trace readers apply) and let the vectors grow normally.
    let cap = n.min(1 << 20);
    let mut counts = Vec::with_capacity(cap);
    let mut flags = Vec::with_capacity(cap);
    for _ in 0..n {
        let (ln, line) = lr.expect("popular entry")?;
        let mut parts = line.split_whitespace();
        let (Some(c), Some(f), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(ProfileIoError::BadLine { line: ln });
        };
        counts.push(
            c.parse::<u64>()
                .map_err(|_| ProfileIoError::BadLine { line: ln })?,
        );
        flags.push(match f {
            "0" => false,
            "1" => true,
            _ => return Err(ProfileIoError::BadLine { line: ln }),
        });
    }
    let popular = PopularSet::from_parts(flags, counts);

    // Procedure-grain graphs name procedures, so their ids must fall below
    // the file's own procedure count; chunk ids need the program, which
    // `ProfileData::fits` checks.
    let mut graphs = Vec::with_capacity(3);
    for (expected, id_bound) in [("wcg", n), ("trg_select", n), ("trg_place", usize::MAX)] {
        let (ln, head) = lr.expect(expected)?;
        let mut parts = head.split_whitespace();
        if parts.next() != Some(expected) {
            return Err(ProfileIoError::BadStructure("graph section"));
        }
        let edges: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(ProfileIoError::BadLine { line: ln })?;
        let mut lines = Vec::new();
        for _ in 0..edges {
            let (ln, line) = lr.expect("edge")?;
            let mut parts = line.split_whitespace();
            let (Some(a), Some(b), Some(wt), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(ProfileIoError::BadLine { line: ln });
            };
            let id = |s: &str| {
                s.parse::<u32>()
                    .ok()
                    .filter(|&i| (i as usize) < id_bound)
                    .ok_or(ProfileIoError::BadLine { line: ln })
            };
            let (a, b) = (id(a)?, id(b)?);
            let wt = weight(wt).ok_or(ProfileIoError::BadLine { line: ln })?;
            if a == b {
                return Err(ProfileIoError::BadLine { line: ln });
            }
            lines.push((a, b, wt));
        }
        graphs.push(lines.into_iter().collect::<WeightedGraph>());
    }
    let trg_place = graphs.pop().expect("three graphs parsed");
    let trg_select = graphs.pop().expect("two graphs remain");
    let wcg = graphs.pop().expect("one graph remains");

    let (ln, db_line) = lr.expect("pairdb")?;
    let mut parts = db_line.split_whitespace();
    if parts.next() != Some("pairdb") {
        return Err(ProfileIoError::BadStructure("pairdb"));
    }
    let pair_db = match parts.next() {
        Some("absent") => None,
        Some(count) => {
            let count: usize = count
                .parse()
                .map_err(|_| ProfileIoError::BadLine { line: ln })?;
            let mut db = PairDb::new();
            for _ in 0..count {
                let (ln, line) = lr.expect("pairdb entry")?;
                let mut parts = line.split_whitespace();
                let (Some(p), Some(rr), Some(ss), Some(wt), None) = (
                    parts.next(),
                    parts.next(),
                    parts.next(),
                    parts.next(),
                    parts.next(),
                ) else {
                    return Err(ProfileIoError::BadLine { line: ln });
                };
                let parse_u32 = |s: &str| {
                    s.parse::<u32>()
                        .map_err(|_| ProfileIoError::BadLine { line: ln })
                };
                let (p, r, s) = (parse_u32(p)?, parse_u32(rr)?, parse_u32(ss)?);
                let wt = weight(wt).ok_or(ProfileIoError::BadLine { line: ln })?;
                if r == s || p == r || p == s {
                    return Err(ProfileIoError::BadLine { line: ln });
                }
                db.add(p, r, s, wt);
            }
            Some(db)
        }
        None => return Err(ProfileIoError::BadLine { line: ln }),
    };

    Ok(ProfileData {
        cache,
        popular,
        wcg,
        trg_select,
        trg_place,
        pair_db,
        q_stats: QStats {
            average,
            max,
            occupancy_sum,
            samples,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_program::{ProcId, Program};
    use tempo_trace::Trace;

    fn sample_profile(pair_db: bool) -> ProfileData {
        let program = Program::builder()
            .procedure("a", 300)
            .procedure("b", 300)
            .procedure("c", 300)
            .build()
            .unwrap();
        let ids: Vec<ProcId> = program.ids().collect();
        let mut refs = Vec::new();
        for _ in 0..20 {
            refs.extend([ids[0], ids[1], ids[2]]);
        }
        let trace = Trace::from_full_records(&program, refs);
        crate::Profiler::new(&program, CacheConfig::direct_mapped_8k())
            .popularity(crate::PopularitySelector::all())
            .with_pair_db(pair_db)
            .profile(&trace)
    }

    fn assert_profiles_equal(a: &ProfileData, b: &ProfileData) {
        assert_eq!(a.cache, b.cache);
        assert_eq!(a.q_stats.max, b.q_stats.max);
        assert!((a.q_stats.average - b.q_stats.average).abs() < 1e-15);
        assert_eq!(a.popular.len(), b.popular.len());
        for i in 0..a.popular.len() {
            let id = ProcId::new(i as u32);
            assert_eq!(a.popular.is_popular(id), b.popular.is_popular(id));
            assert_eq!(a.popular.count_of(id), b.popular.count_of(id));
        }
        for (ga, gb) in [
            (&a.wcg, &b.wcg),
            (&a.trg_select, &b.trg_select),
            (&a.trg_place, &b.trg_place),
        ] {
            assert_eq!(ga.edge_count(), gb.edge_count());
            for e in ga.edges() {
                assert_eq!(gb.weight(e.a, e.b), e.w);
            }
        }
        match (&a.pair_db, &b.pair_db) {
            (None, None) => {}
            (Some(da), Some(db)) => {
                assert_eq!(da.len(), db.len());
                for (k, v) in da.iter() {
                    assert_eq!(db.get(k.p, k.r, k.s), v);
                }
            }
            _ => panic!("pair db presence mismatch"),
        }
    }

    #[test]
    fn roundtrip_without_pair_db() {
        let p = sample_profile(false);
        let mut buf = Vec::new();
        write_profile(&mut buf, &p).unwrap();
        let back = read_profile(buf.as_slice()).unwrap();
        assert_profiles_equal(&p, &back);
    }

    #[test]
    fn roundtrip_with_pair_db() {
        let p = sample_profile(true);
        assert!(p.pair_db.is_some());
        let mut buf = Vec::new();
        write_profile(&mut buf, &p).unwrap();
        let back = read_profile(buf.as_slice()).unwrap();
        assert_profiles_equal(&p, &back);
    }

    #[test]
    fn perturbed_weights_roundtrip_exactly() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let p = sample_profile(false).perturbed(0.37, &mut rng);
        let mut buf = Vec::new();
        write_profile(&mut buf, &p).unwrap();
        let back = read_profile(buf.as_slice()).unwrap();
        // Bit-exact f64 round-trip through the shortest representation.
        for e in p.trg_select.edges() {
            assert_eq!(back.trg_select.weight(e.a, e.b), e.w);
        }
    }

    #[test]
    fn reader_rejects_malformed_input() {
        assert!(matches!(
            read_profile("garbage\n".as_bytes()).unwrap_err(),
            ProfileIoError::BadHeader
        ));
        assert!(matches!(
            read_profile("tempo-profile v1\n".as_bytes()).unwrap_err(),
            ProfileIoError::BadStructure("cache")
        ));
        let src = "tempo-profile v1\ncache 8192 32 1\nqstats 1.5 3\npopular 1\nbad\n";
        assert!(matches!(
            read_profile(src.as_bytes()).unwrap_err(),
            ProfileIoError::BadLine { .. }
        ));
        let src = "tempo-profile v1\ncache 8192 32 1\nqstats 1.5 3\npopular 0\nwcg 1\n";
        assert!(matches!(
            read_profile(src.as_bytes()).unwrap_err(),
            ProfileIoError::BadStructure(_)
        ));
    }

    #[test]
    fn qstats_accumulators_roundtrip_and_old_files_still_parse() {
        let p = sample_profile(false);
        assert!(p.q_stats.samples > 0);
        let mut buf = Vec::new();
        write_profile(&mut buf, &p).unwrap();
        let back = read_profile(buf.as_slice()).unwrap();
        assert_eq!(back.q_stats, p.q_stats);

        // A pre-accumulator file (two-field qstats line) parses with the
        // accumulators defaulted to zero.
        let src = "tempo-profile v1\ncache 8192 32 1\nqstats 1.5 3\npopular 0\n\
                   wcg 0\ntrg_select 0\ntrg_place 0\npairdb absent\n";
        let old = read_profile(src.as_bytes()).unwrap();
        assert_eq!(old.q_stats.average, 1.5);
        assert_eq!(old.q_stats.max, 3);
        assert_eq!(old.q_stats.occupancy_sum, 0);
        assert_eq!(old.q_stats.samples, 0);
    }

    #[test]
    fn hostile_declared_counts_fail_fast_without_preallocation() {
        // Each section header declares an element count the reader must not
        // trust with `Vec::with_capacity`: a count in the 2^60 range would
        // abort on allocation if preallocated. All three shapes must fail
        // with a parse error instead (missing entries), quickly and in
        // bounded memory.
        let huge = 1u64 << 60;
        let popular =
            format!("tempo-profile v1\ncache 8192 32 1\nqstats 0 0 0 0\npopular {huge}\n");
        assert!(read_profile(popular.as_bytes()).is_err());
        let graph =
            format!("tempo-profile v1\ncache 8192 32 1\nqstats 0 0 0 0\npopular 0\nwcg {huge}\n");
        assert!(read_profile(graph.as_bytes()).is_err());
        let pairdb = format!(
            "tempo-profile v1\ncache 8192 32 1\nqstats 0 0 0 0\npopular 0\n\
             wcg 0\ntrg_select 0\ntrg_place 0\npairdb {huge}\n"
        );
        assert!(read_profile(pairdb.as_bytes()).is_err());
    }

    /// A small valid profile in which `line` replaces the one entry line
    /// of the section whose header starts with `section`.
    fn edited(section: &str, line: &str) -> String {
        let mut text = String::from(
            "tempo-profile v1\ncache 8192 32 1\nqstats 0 0 0 0\npopular 3\n5 1\n5 1\n5 1\n",
        );
        for (name, entry) in [
            ("wcg 1", "0 1 2"),
            ("trg_select 1", "1 2 2"),
            ("trg_place 1", "0 5 2"),
            ("pairdb 1", "0 1 2 1"),
        ] {
            let entry = if name.starts_with(section) {
                line
            } else {
                entry
            };
            text.push_str(&format!("{name}\n{entry}\n"));
        }
        text
    }

    #[test]
    fn hostile_edge_lines_are_bad_lines() {
        assert!(read_profile(edited("none", "").as_bytes()).is_ok());
        let bad_line =
            |section: &str, line: &str| match read_profile(edited(section, line).as_bytes()) {
                Err(ProfileIoError::BadLine { line }) => line,
                other => panic!("{section} `{line}`: {other:?}"),
            };
        for section in ["wcg", "trg_select", "trg_place"] {
            for line in [
                "0 0 332", "1 2 NaN", "1 2 inf", "1 2 -inf", "1 2 -3", "1 2 0", "1 2 -0",
            ] {
                bad_line(section, line);
            }
        }
        // Procedure ids must fall below the file's `popular` count.
        assert_eq!(bad_line("wcg", "4000000000 1 332"), 9);
        assert_eq!(bad_line("trg_select", "0 3 1"), 11);
        // Chunk ids are checked against a program, by `ProfileData::fits`.
        let far = read_profile(edited("trg_place", "4000000000 1 7").as_bytes()).unwrap();
        assert_eq!(far.trg_place.weight(1, 4_000_000_000), 7.0);
        for line in ["5 5 7 1", "5 6 5 1", "5 6 7 NaN", "5 6 7 0"] {
            bad_line("pairdb", line);
        }
    }

    #[test]
    fn error_display() {
        assert!(ProfileIoError::BadHeader.to_string().contains("header"));
        assert!(ProfileIoError::BadLine { line: 7 }
            .to_string()
            .contains('7'));
        assert!(ProfileIoError::BadStructure("x").to_string().contains('x'));
    }
}
