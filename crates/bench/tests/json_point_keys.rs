//! Every `--json` line of the bins that run several arms per sweep point
//! (`shard_scaling`'s shard counts and cross-shard fractions, `ablate`'s
//! knobs) must carry its own `obs::trend::parse_archive` identity
//! (`workload|scenario|population`): the trend guard keeps the first line
//! of a key and never compares the rest.

use std::collections::HashMap;
use std::process::Command;

/// Run `exe args --json`, assert every line's key is its own, and return
/// the output.
fn assert_keys_unique(exe: &str, args: &[&str]) -> String {
    let out = Command::new(exe).args(args).arg("--json").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{exe} {args:?} exited {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let parsed = obs::trend::parse_archive(&stdout);
    let lines = stdout.lines().filter(|l| l.starts_with('{')).count();
    assert_eq!(parsed.truncated, 0, "{exe}: malformed lines");
    assert!(!parsed.points.is_empty(), "{exe}: no points");
    assert_eq!(
        parsed.duplicates,
        0,
        "{exe}: {} of {lines} lines repeat a key; the keys kept are {:?}",
        parsed.duplicates,
        parsed.points.iter().map(|p| &p.key).collect::<Vec<_>>()
    );
    assert_eq!(parsed.points.len(), lines);
    stdout
}

#[test]
fn shard_scaling_keys_are_unique() {
    assert_keys_unique(
        env!("CARGO_BIN_EXE_shard_scaling"),
        &[
            "--quick",
            "--shards",
            "1,2",
            "--threads-per-shard",
            "1",
            "--ops-per-shard",
            "40",
            "--cross-shard-frac",
            "0",
        ],
    );
}

/// What a point measured, labels aside: its virtual time, phase
/// totals and PTM and memory counters.
fn metrics(line: &str) -> String {
    let at = |key: &str| {
        line.find(&format!("\"{key}\":"))
            .unwrap_or_else(|| panic!("no {key} in {line}"))
    };
    [
        &line[at("elapsed_virtual_ns")..at("throughput_mops")],
        &line[at("phase_ns")..at("persistence_share")],
        &line[at("ptm")..],
    ]
    .concat()
}

/// `ablate` prints only arms that turn a knob on their base cell, which
/// `fig3` runs: its keys are its own and not `fig3`'s, and no 1-thread
/// line (deterministic) measures what a `fig3` line or another `ablate`
/// line does. A row equal to its base cell by construction fails here.
/// The budget, orec and fence-elision rows run at the sweep's largest
/// count (2 threads here) and are checked for keys only.
#[test]
fn ablate_runs_no_cell_twice() {
    let ablate = assert_keys_unique(
        env!("CARGO_BIN_EXE_ablate"),
        &["--quick", "--threads", "1,2", "--ops", "20"],
    );
    let fig3 = assert_keys_unique(
        env!("CARGO_BIN_EXE_fig3"),
        &["--quick", "--threads", "1", "--ops", "20"],
    );
    let both = obs::trend::parse_archive(&format!("{fig3}{ablate}"));
    assert_eq!(both.duplicates, 0, "an ablate key is a fig3 key");

    let key = |line: &str| {
        let field = |k| trace::json::str(line, k).unwrap();
        format!("{}|{}", field("workload"), field("scenario"))
    };
    let mut seen: HashMap<String, String> = fig3.lines().map(|l| (metrics(l), key(l))).collect();
    let one_thread = ablate
        .lines()
        .filter(|l| trace::json::num(l, "threads") == Some(1.0));
    let mut checked = 0;
    for line in one_thread {
        if let Some(other) = seen.insert(metrics(line), key(line)) {
            panic!("{} measures what {other} does", key(line));
        }
        checked += 1;
    }
    assert!(checked > 0, "no 1-thread ablate line");
}
