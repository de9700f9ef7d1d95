//! README.md's "JSON report schema" counter table is checked against
//! the tables the reports are generated from: a counter added, renamed,
//! reordered or re-gated without its README row fails here.

use optane_ptm::pmem_sim::StatsSnapshot;
use optane_ptm::ptm::PtmStatsSnapshot;
use optane_ptm::trace::counters::{Emit, Field, Kind};

fn declared(block: &str, fields: &[Field]) -> Vec<String> {
    let row = |f: &Field| {
        let kind = match f.kind {
            Kind::Sum => "sum",
            Kind::Max => "max",
        };
        let emitted = match f.emit {
            Emit::Always => "always".to_string(),
            Emit::NonZero => "if nonzero".to_string(),
            Emit::NonZeroWith(group) => format!("`{group}` group"),
        };
        format!("| `{block}` | `{}` | {kind} | {emitted} |", f.name)
    };
    fields.iter().map(row).collect()
}

#[test]
fn readme_counter_table_matches_the_declared_tables() {
    let readme = include_str!("../README.md");
    // A table row up to and including its fourth column.
    let documented: Vec<String> = readme
        .lines()
        .filter(|l| l.starts_with("| `ptm` |") || l.starts_with("| `mem` |"))
        .map(|l| {
            l.match_indices('|')
                .nth(4)
                .map_or(l, |(i, _)| &l[..=i])
                .to_string()
        })
        .collect();
    let mut want = declared("ptm", &PtmStatsSnapshot::default().fields());
    want.extend(declared("mem", &StatsSnapshot::default().fields()));
    assert_eq!(documented, want);
}
