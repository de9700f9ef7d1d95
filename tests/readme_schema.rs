//! README.md's "JSON report schema" counter table and its flight
//! recorder event table are checked against the tables they document: a
//! counter or event kind added, renamed, reordered, re-gated or retired
//! without its README row fails here.

use optane_ptm::pmem_sim::StatsSnapshot;
use optane_ptm::ptm::PtmStatsSnapshot;
use optane_ptm::trace::counters::{Emit, Field, Kind};
use optane_ptm::trace::EventKind;

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

#[test]
fn readme_event_table_matches_event_kinds() {
    let readme = include_str!("../README.md");
    // The event column of the table under the `| event | ...` header.
    let documented: Vec<&str> = readme
        .lines()
        .skip_while(|l| !l.starts_with("| event |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|l| l.split('|').nth(1).unwrap().trim().trim_matches('`'))
        .collect();
    let want: Vec<&str> = EventKind::ALL.iter().map(|k| k.label()).collect();
    assert_eq!(documented, want);
}
