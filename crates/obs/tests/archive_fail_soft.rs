//! `trend::parse_archive` fails soft on a damaged archive. A sample of a
//! committed `results/BENCH_*.json` archive is cut short, has bytes
//! flipped and lines duplicated, then goes through the lossy UTF-8
//! decode `bench_trend` applies to a file. The parser must not panic,
//! every line must parse on its own (the archive's points are its lines'
//! points, first key wins), and a line the damage left untouched must
//! still give its key and metrics.

use obs::trend::{parse_archive, TrendPoint};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Every 37th line of `results/BENCH_PR9.json`: a spread over its binaries.
fn sample() -> Vec<Vec<u8>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_PR9.json");
    let text = std::fs::read_to_string(path).expect("committed archive");
    text.lines()
        .step_by(37)
        .map(|l| l.as_bytes().to_vec())
        .collect()
}

/// The point a line gives when it is the whole archive.
fn alone(line: &str) -> Option<TrendPoint> {
    parse_archive(line).points.pop()
}

/// A damaged copy of `lines`, each line with whether it is an original
/// line left byte for byte as it was. A flipped byte may be a newline.
fn damage(lines: &[Vec<u8>], seed: u64) -> Vec<(Vec<u8>, bool)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out: Vec<(Vec<u8>, bool)> = lines.iter().map(|l| (l.clone(), true)).collect();
    for _ in 0..rng.gen_range(0..4) {
        let from = rng.gen_range(0..out.len());
        let copy = out[from].clone();
        out.insert(rng.gen_range(0..=out.len()), copy);
    }
    for _ in 0..rng.gen_range(0..6) {
        let at = rng.gen_range(0..out.len());
        let (line, untouched) = &mut out[at];
        if !line.is_empty() {
            let at = rng.gen_range(0..line.len());
            line[at] ^= rng.gen_range(1..=255u8);
            *untouched = false;
        }
    }
    if rng.gen_range(0..2) == 0 {
        let keep = rng.gen_range(0..out.len());
        out.truncate(keep + 1);
        let (line, untouched) = &mut out[keep];
        line.truncate(rng.gen_range(0..line.len().max(1)));
        *untouched = false;
    }
    out
}

#[test]
fn the_sample_parses_cleanly() {
    let lines = sample();
    let text = String::from_utf8(lines.join(&b'\n')).unwrap();
    let parsed = parse_archive(&text);
    assert!(parsed.points.len() >= 30, "{} points", parsed.points.len());
    assert_eq!(parsed.truncated, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn damaged_archives_fail_soft(seed in any::<u64>()) {
        let lines = sample();
        let damaged = damage(&lines, seed);
        let bytes = damaged.iter().map(|(l, _)| l.as_slice()).collect::<Vec<_>>().join(&b'\n');
        let text = String::from_utf8_lossy(&bytes);
        let whole = parse_archive(&text);

        // Line by line, first key wins: damage to one line reaches no other.
        let mut first: Vec<(TrendPoint, &str)> = Vec::new();
        for line in text.lines() {
            if let Some(p) = alone(line) {
                if !first.iter().any(|(q, _)| q.key == p.key) {
                    first.push((p, line));
                }
            }
        }
        let points: Vec<TrendPoint> = first.iter().map(|(p, _)| p.clone()).collect();
        prop_assert_eq!(&whole.points, &points);
        let objects = text.lines().filter(|l| l.trim().starts_with('{')).count();
        let counted = whole.points.len() + whole.truncated + whole.duplicates + whole.skipped_newer;
        prop_assert!(counted <= objects, "{counted} lines counted of {objects}");

        // An untouched line keeps its key in the archive, and its metrics
        // where no line before it took the key.
        for (line, _) in damaged.iter().filter(|(_, untouched)| *untouched) {
            let line = std::str::from_utf8(line).unwrap();
            let Some(p) = alone(line) else { continue };
            let got = whole.points.iter().find(|q| q.key == p.key);
            prop_assert!(got.is_some(), "{} lost", p.key);
            let (_, from) = first.iter().find(|(q, _)| q.key == p.key).unwrap();
            if *from == line {
                prop_assert_eq!(got.unwrap(), &p);
            }
        }
    }
}
