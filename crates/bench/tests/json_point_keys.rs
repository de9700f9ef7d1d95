//! Every `--json` line of the bins that run two arms per point must carry
//! its own `obs::trend::parse_archive` identity
//! (`workload|scenario|population`): the trend guard keeps the first line
//! of a key and never compares the rest.

use std::process::Command;

fn assert_keys_unique(exe: &str, args: &[&str]) {
    let out = Command::new(exe).args(args).arg("--json").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
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
}

#[test]
fn ablation_log_split_names_each_algorithm() {
    assert_keys_unique(
        env!("CARGO_BIN_EXE_ablation_log_split"),
        &["--quick", "--threads", "1", "--ops", "20"],
    );
}

#[test]
fn shard_scaling_names_the_group_commit_arm() {
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

#[test]
fn ablation_flush_plan_names_each_plan() {
    assert_keys_unique(
        env!("CARGO_BIN_EXE_ablation_flush_plan"),
        &["--quick", "--threads", "1", "--ops", "20"],
    );
}
