//! Golden byte-identity test for the `--json` report lines.
//!
//! Every case below is a deterministic run (one worker per machine), so
//! `point_json` / `sharded_point_json` must reproduce the committed line
//! in `tests/golden/<case>.json` byte for byte — counters, key order,
//! emit-when-nonzero gating and number formatting included. One case is
//! a whole binary's output: `phase_profile --quick --json`, 36 one-thread
//! points (three algorithms × four domains × three workloads), the
//! refactoring oracle for everything between the driver and the report.
//!
//! The two `run_cross_shard_transfer` cases are not bit-reproducible run
//! to run, at the commit the goldens were first written against or
//! since: its closed-loop driver lets the two shard machines' clocks
//! drift with host scheduling, so stall and latency figures move (the
//! counts do not). Their goldens are stored, and compared, with every
//! number masked to `#` — that still pins the key sequence and the
//! presence or absence of the `twopc` block. The others were
//! identical over repeated runs.
//!
//! After an *intended* schema change, regenerate the goldens with
//!
//! ```text
//! cargo test -p bench --test golden_json -- --ignored regenerate_goldens
//! ```
//!
//! and review the diff of `tests/golden/` like any other change.

use std::path::PathBuf;
use std::process::Command;
use std::sync::{Arc, Mutex};

use bench::report::{point_json, sharded_point_json};
use pmem_sim::{DurabilityDomain, MediaKind, PAddr};
use ptm::{Algo, FlushPlan, PtmConfig, TxThread};
use rand::rngs::SmallRng;
use workloads::driver::{run_scenario, RunConfig, Scenario, Workload};
use workloads::{ShardedRunConfig, StreamConfig};

/// Lines a hardware section may touch before the default HTM model
/// aborts it for capacity is 512; a wide transaction writes one word in
/// each of this many lines.
const WIDE_LINES: u64 = 600;
const WORDS_PER_LINE: u64 = 8;

/// Three narrow read-modify-write transactions, then one that overflows
/// the hardware capacity: under `Algo::HtmLogged` the narrow ones commit
/// in hardware and the wide one burns its retries and falls back.
struct WideAndNarrow(Mutex<Option<PAddr>>);

impl Workload for WideAndNarrow {
    fn name(&self) -> String {
        "wide-and-narrow".into()
    }
    fn heap_words(&self) -> usize {
        1 << 14
    }
    fn setup(&mut self, th: &mut TxThread) {
        let heap = Arc::clone(th.heap());
        let base = heap.alloc_zeroed(th.session_mut(), (WIDE_LINES * WORDS_PER_LINE) as usize);
        *self.0.lock().unwrap() = Some(base);
    }
    fn op(&self, th: &mut TxThread, _rng: &mut SmallRng, _tid: usize, i: u64) {
        let base = self.0.lock().unwrap().unwrap();
        if i % 4 == 3 {
            th.run(|tx| {
                for line in 0..WIDE_LINES {
                    tx.write(base.offset(line * WORDS_PER_LINE), i)?;
                }
                Ok(())
            });
        } else {
            th.run(|tx| {
                let v = tx.read(base)?;
                tx.write(base, v + 1)
            });
        }
    }
}

fn one_thread(ops: u64, ptm: PtmConfig) -> RunConfig {
    RunConfig {
        threads: 1,
        ops_per_thread: ops,
        ptm,
        ..RunConfig::default()
    }
}

/// 200 `tpcc-hash` operations, one thread, Optane under ADR, `algo`
/// flushing by `flush`: one case per (policy, flush plan) arm that a
/// benchmark or ablation runs.
fn tpcc_adr(algo: Algo, flush: FlushPlan) -> String {
    let sc = Scenario::new(
        format!("Optane_ADR_{}", algo.label()),
        MediaKind::Optane,
        DurabilityDomain::Adr,
        algo,
    );
    let ptm = PtmConfig {
        flush,
        ..PtmConfig::default()
    };
    let rc = one_thread(200, ptm);
    point_json(
        "tpcc-hash",
        &bench::run_point_with("tpcc-hash", &sc, &rc, true),
    )
}

/// `WideAndNarrow` under `Algo::HtmLogged`: under ADR every commit
/// goes through the back-end ring, under eADR only the capacity
/// fallbacks do (`backend_log_bytes` is their share).
fn htm_run(label: &str, domain: DurabilityDomain) -> String {
    let sc = Scenario::new(label, MediaKind::Optane, domain, Algo::HtmLogged);
    let r = run_scenario(
        &mut WideAndNarrow(Mutex::new(None)),
        &sc,
        &one_thread(40, PtmConfig::default()),
    );
    // What the case exists to pin: the hardware-path counters carry
    // values. (Conflict and explicit aborts need a second thread or a
    // full back-end ring; at one thread they are present and zero.)
    assert!(r.ptm.htm_commits > 0 && r.ptm.htm_capacity_aborts > 0);
    assert!(r.ptm.htm_fallbacks > 0 && r.ptm.backend_log_bytes > 0);
    point_json("wide-and-narrow", &r)
}

fn two_by_one() -> ShardedRunConfig {
    ShardedRunConfig {
        shards: 2,
        threads_per_shard: 1,
        stream: StreamConfig {
            total_ops: 400,
            keys: 256,
            ..StreamConfig::default()
        },
        ..ShardedRunConfig::default()
    }
}

/// Cross-shard transfers (the `twopc` block is present at 0.5, absent at
/// 0), numbers masked.
fn xshard_masked(frac: f64) -> String {
    let r = workloads::run_cross_shard_transfer(&two_by_one(), frac);
    let line = sharded_point_json("xshard-transfer", &r);
    // Every maximal run of digits and decimal points becomes one `#`.
    let mut out = String::with_capacity(line.len());
    for c in line.chars() {
        if !(c.is_ascii_digit() || c == '.') {
            out.push(c);
        } else if !out.ends_with('#') {
            out.push('#');
        }
    }
    out
}

/// `phase_profile --quick --json`, one line per point.
fn phase_profile_quick() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_phase_profile"))
        .args(["--quick", "--json"])
        .output()
        .expect("spawn phase_profile");
    assert!(out.status.success(), "phase_profile failed");
    let text = String::from_utf8(out.stdout).expect("UTF-8 output");
    text.trim_end_matches('\n').to_string()
}

/// `(golden file stem, emitted line)` for every case.
fn cases() -> [(&'static str, String); 12] {
    use Algo::{HtmLogged, RedoLazy, UndoEager};
    use FlushPlan::{Batched, Combined, Incremental};
    let kv = workloads::run_sharded_kv(&two_by_one());
    [
        ("point_tpcc_adr_redo_1t", tpcc_adr(RedoLazy, Batched)),
        (
            "point_tpcc_adr_redo_incremental_1t",
            tpcc_adr(RedoLazy, Incremental),
        ),
        (
            "point_tpcc_adr_redo_combined_1t",
            tpcc_adr(RedoLazy, Combined),
        ),
        ("point_tpcc_adr_undo_1t", tpcc_adr(UndoEager, Batched)),
        (
            "point_tpcc_adr_undo_combined_1t",
            tpcc_adr(UndoEager, Combined),
        ),
        (
            "point_tpcc_adr_htm_combined_1t",
            tpcc_adr(HtmLogged, Combined),
        ),
        (
            "point_htm_logged_1t",
            htm_run("Optane_ADR_H", DurabilityDomain::Adr),
        ),
        (
            "point_htm_logged_eadr_1t",
            htm_run("Optane_eADR_H", DurabilityDomain::Eadr),
        ),
        ("sharded_kv_2x1", sharded_point_json("sharded-kv", &kv)),
        ("sharded_xshard_half_2x1", xshard_masked(0.5)),
        ("sharded_xshard_none_2x1", xshard_masked(0.0)),
        ("phase_profile_quick", phase_profile_quick()),
    ]
}

fn golden_path(case: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{case}.json"))
}

#[test]
fn report_lines_match_goldens_byte_for_byte() {
    for (case, line) in cases() {
        let path = golden_path(case);
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        assert_eq!(
            line,
            want.trim_end_matches('\n'),
            "{case}: emitted line differs from {}",
            path.display()
        );
    }
}

#[test]
#[ignore = "rewrites tests/golden/*.json; run only to accept an intended schema change"]
fn regenerate_goldens() {
    for (case, line) in cases() {
        std::fs::write(golden_path(case), line + "\n").expect("write golden");
    }
}
