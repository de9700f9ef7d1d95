//! Regression test: `bench_trend` degrades gracefully on truncated /
//! partially written archive lines, bytes that are not UTF-8 and
//! archives it cannot read (warn + exit 0) instead of aborting the
//! whole diff — but fails on an archive it cannot order, rather than
//! diffing the others without it.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("bench-trend-graceful-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

const GOOD_PR9: &str = concat!(
    r#"{"workload":"tpcc-hash","scenario":"Optane_ADR","threads":4,"throughput_mops":1.2000,"latency":{"p99":900}}"#,
    "\n",
    r#"{"workload":"kv-zipf","scenario":"Optane_ADR_sharded","shards":8,"threads_per_shard":1,"throughput_mops":6.0000,"sojourn":{"p99":5000}}"#,
    "\n",
);

#[test]
fn truncated_archive_lines_warn_but_do_not_abort() {
    let dir = scratch_dir("truncated");
    fs::write(dir.join("BENCH_PR9.json"), GOOD_PR9).unwrap();
    // PR 10's archive was killed mid-append: one complete line, one cut
    // mid-value. The complete line must still diff against PR 9.
    let pr10 = concat!(
        r#"{"workload":"tpcc-hash","scenario":"Optane_ADR","threads":4,"throughput_mops":1.2500,"latency":{"p99":900}}"#,
        "\n",
        r#"{"workload":"kv-zipf","scenario":"Optane_ADR_sharded","shards":8,"threads_per_shard":1,"throughput_mo"#,
    );
    fs::write(dir.join("BENCH_PR10.json"), pr10).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_bench_trend"))
        .args(["--dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "expected exit 0, got {:?}\nstdout: {stdout}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains("truncated line(s)"),
        "missing truncation warning on stderr: {stderr}"
    );
    assert!(
        stdout.contains("1 common points"),
        "the surviving point should still diff: {stdout}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn zero_point_archive_is_ignored_not_fatal() {
    let dir = scratch_dir("zero-point");
    fs::write(dir.join("BENCH_PR8.json"), GOOD_PR9).unwrap();
    fs::write(dir.join("BENCH_PR9.json"), GOOD_PR9).unwrap();
    // Every line of PR 10's archive is garbage / truncated.
    fs::write(
        dir.join("BENCH_PR10.json"),
        "{\"workload\":\"x\",\"scenar\nnot json at all\n",
    )
    .unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_bench_trend"))
        .args(["--dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "expected exit 0, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains("archive ignored"),
        "missing zero-point warning on stderr: {stderr}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Run `bench_trend --dir dir`, expect exit 0, and return (stdout, stderr).
fn trend_ok(dir: &std::path::Path) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_trend"))
        .args(["--dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "expected exit 0, got {:?}\nstdout: {stdout}\nstderr: {stderr}",
        out.status.code()
    );
    (stdout, stderr)
}

#[test]
fn non_utf8_archive_bytes_spoil_only_their_line() {
    let dir = scratch_dir("non-utf8");
    fs::write(dir.join("BENCH_PR9.json"), GOOD_PR9).unwrap();
    // PR 10: PR 9's first line, then its second with a byte that is not
    // UTF-8 inside the workload name. Read as a point, it would be a new
    // key; it must count as a truncated line instead.
    let mut pr10 = GOOD_PR9.replacen("kv-zipf", "kv-\u{1}", 1).into_bytes();
    let bad = pr10.iter().position(|&b| b == 1).unwrap();
    pr10[bad] = 0xFF;
    fs::write(dir.join("BENCH_PR10.json"), pr10).unwrap();
    let (stdout, stderr) = trend_ok(&dir);
    assert!(
        stderr.contains("has 1 truncated line(s)"),
        "missing truncation warning on stderr: {stderr}"
    );
    assert!(
        stdout.contains("1 common points, 0 added, 1 removed"),
        "the complete line should still diff: {stdout}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unreadable_archive_is_skipped_with_a_warning() {
    let dir = scratch_dir("unreadable");
    fs::write(dir.join("BENCH_PR8.json"), GOOD_PR9).unwrap();
    // A directory named like an archive: discovered, but not a file.
    fs::create_dir(dir.join("BENCH_PR9.json")).unwrap();
    fs::write(dir.join("BENCH_PR10.json"), GOOD_PR9).unwrap();
    let (stdout, stderr) = trend_ok(&dir);
    assert!(
        stderr.contains("cannot read") && stderr.contains("BENCH_PR9.json"),
        "missing unreadable-archive warning on stderr: {stderr}"
    );
    assert!(
        stdout.contains("BENCH_PR8 -> BENCH_PR10: 2 common points"),
        "the readable archives should still diff: {stdout}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn archive_that_cannot_be_ordered_fails_naming_it() {
    let dir = scratch_dir("unordered");
    fs::write(dir.join("BENCH_PR6.json"), GOOD_PR9).unwrap();
    fs::write(dir.join("BENCH_PR9.json"), GOOD_PR9).unwrap();
    // The newest run, archived under a tag that is not PR<N>: diffing
    // PR 6 -> PR 9 again would report on a stale pair.
    fs::write(dir.join("BENCH_nightly.json"), GOOD_PR9).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench_trend"))
        .args(["--dir", dir.to_str().unwrap(), "--quick"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {stdout}\nstderr: {stderr}"
    );
    assert!(stdout.is_empty(), "a pair was diffed: {stdout}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("BENCH_nightly.json"), "{stderr}");
    let _ = fs::remove_dir_all(&dir);
}
