//! The open-loop front-end holds no copy of its request stream (DESIGN.md
//! §5 decision 20): a sharded KV run over 4 Mi requests raises the peak
//! resident set by far less than the stream would take as a
//! `Vec<Request>`. Its 1 Ki Zipfian keys split the requests unevenly
//! between the two shards, the case in which the lighter shard pulls the
//! generator ahead and the heavier one's pending queue would grow with
//! the stream. The one test is alone in its binary, so no concurrent test
//! allocates while it reads the high-water mark.

#![cfg(target_os = "linux")]

use workloads::{run_sharded_kv, Request, ShardedRunConfig, StreamConfig};

const MIB: u64 = 1 << 20;

/// This process's peak resident set so far, in bytes.
fn hwm() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("VmHWM line");
    kib * 1024
}

#[test]
fn a_sharded_run_holds_no_copy_of_its_stream() {
    let requests = 1u64 << 22;
    let rc = ShardedRunConfig {
        shards: 2,
        threads_per_shard: 1,
        stream: StreamConfig {
            total_ops: requests,
            keys: 1 << 10,
            ..StreamConfig::default()
        },
        ..ShardedRunConfig::default()
    };
    let before = hwm();
    let r = run_sharded_kv(&rc);
    let grew = hwm().saturating_sub(before);
    assert_eq!(r.ops, requests);
    assert_eq!(r.sojourn.count(), requests);
    let stream = requests * std::mem::size_of::<Request>() as u64;
    assert!(
        grew < stream / 4,
        "a run over a {} MiB stream raised VmHWM by {} MiB",
        stream / MIB,
        grew / MIB
    );
}
