//! Structured JSON reports for experiment points.
//!
//! Every figure/table binary can emit one JSON object per measurement
//! point (JSON Lines) instead of CSV, via `--json`. Lines are built with
//! [`trace::json::Writer`]; the `ptm` and `mem` blocks walk the layers'
//! counter tables (`PtmStatsSnapshot::fields`, `StatsSnapshot::fields`),
//! so a new counter reaches the report by being declared. See README.md
//! for the schema.

use ptm::Phase;
use trace::counters::{emitted, group_nonzero, Emit, Field};
use trace::json::Writer;
use workloads::driver::RunResult;

/// The report schema version stamped on every JSONL line (shared with
/// the `obs` exports — see `obs::export::SCHEMA_VERSION`). Version 2
/// introduced the stamp itself; unversioned lines are the PR 1-8
/// archives (version 1).
pub use obs::export::SCHEMA_VERSION;

/// Decimal places of every float in a report line.
const DECIMALS: usize = 6;

/// Open a report line: `{"schema_version":..,"workload":..,"scenario":..`.
fn begin_line(capacity: usize, workload: &str, scenario: &str) -> Writer {
    let mut w = Writer::with_capacity(capacity);
    w.begin_object();
    w.key("schema_version").u64(u64::from(SCHEMA_VERSION));
    w.key("workload").str(workload);
    w.key("scenario").str(scenario);
    w
}

/// `"key":{<name>:<value>,...}` for the given counter fields.
fn counter_block<'a>(w: &mut Writer, key: &str, fields: impl IntoIterator<Item = &'a Field>) {
    w.key(key).begin_object();
    for f in fields {
        w.key(f.name).u64(f.value);
    }
    w.end_object();
}

/// The fields named in `names`, in table order.
fn named<'a>(fields: &'a [Field], names: &'a [&str]) -> impl Iterator<Item = &'a Field> {
    fields.iter().filter(move |f| names.contains(&f.name))
}

/// One measurement point as a single-line JSON object.
///
/// Schema (all times in virtual ns):
/// `{workload, scenario, threads, ops, elapsed_virtual_ns,
///   throughput_mops, phase_ns: {<phase label>: ns, ...},
///   persistence_share,
///   latency: {count, mean_ns, p50, p90, p95, p99, p999, max,
///             buckets: [[lower_bound_ns, count], ...]},
///   ptm: {commits, aborts, ...}, mem: {loads, stores, ...}}`
///
/// The `ptm` and `mem` blocks carry every counter of their table whose
/// emit gate passes: contention-pacing and 2PC counters appear only when
/// nonzero, so runs that never pace or cross shards keep the exact
/// PR 1-9 line (the phase_profile byte-identity baseline depends on it).
pub fn point_json(workload: &str, r: &RunResult) -> String {
    let mut w = begin_line(2048, workload, &r.label);
    w.key("threads").u64(r.threads as u64);
    w.key("ops").u64(r.ops);
    w.key("elapsed_virtual_ns").u64(r.elapsed_virtual_ns);
    w.key("throughput_mops").f64(r.throughput_mops(), DECIMALS);

    w.key("phase_ns").begin_object();
    for p in Phase::ALL {
        w.key(p.label()).u64(r.phases.get(p));
    }
    w.end_object();
    w.key("persistence_share")
        .f64(r.phases.persistence_share(), DECIMALS);

    // Latency digest + sparse histogram.
    let s = r.latency.summary();
    w.key("latency").begin_object();
    w.key("count").u64(s.count);
    w.key("mean_ns").f64(s.mean_ns, DECIMALS);
    w.key("p50").u64(s.p50);
    w.key("p90").u64(s.p90);
    w.key("p95").u64(s.p95);
    w.key("p99").u64(s.p99);
    w.key("p999").u64(s.p999);
    w.key("max").u64(s.max);
    w.key("buckets").begin_array();
    for (lower_bound, count) in r.latency.nonzero_buckets() {
        w.begin_array().u64(lower_bound).u64(count).end_array();
    }
    w.end_array().end_object();

    counter_block(&mut w, "ptm", emitted(&r.ptm.fields()));
    counter_block(&mut w, "mem", emitted(&r.mem.fields()));
    w.end_object();
    w.finish()
}

/// One sharded measurement point as a single-line JSON object.
///
/// Extends the flat schema with the shard geometry, the group-commit
/// counters, sojourn latency (arrival → completion, the open-loop
/// front-end's client-visible metric) and a `per_shard` array carrying
/// each shard's WPQ-stall attribution. Its counter blocks are the
/// subsets of the tables a sharded sweep is read for.
pub fn sharded_point_json(workload: &str, r: &workloads::ShardedRunResult) -> String {
    let mut w = begin_line(1024, workload, &r.label);
    w.key("shards").u64(r.shards as u64);
    w.key("threads_per_shard").u64(r.threads_per_shard as u64);
    w.key("ops").u64(r.ops);
    w.key("elapsed_virtual_ns").u64(r.elapsed_virtual_ns);
    w.key("throughput_mops").f64(r.throughput_mops(), DECIMALS);
    w.key("sfences_per_commit")
        .f64(r.sfences_per_commit(), DECIMALS);

    let s = r.sojourn.summary();
    w.key("sojourn").begin_object();
    w.key("count").u64(s.count);
    w.key("mean_ns").f64(s.mean_ns, DECIMALS);
    w.key("p50").u64(s.p50);
    w.key("p99").u64(s.p99);
    w.key("p999").u64(s.p999);
    w.key("max").u64(s.max);
    w.end_object();

    let ptm = r.ptm.fields();
    let ptm_names = [
        "commits",
        "aborts",
        "group_commit_windows",
        "sfences_elided",
        "max_backoff_ns",
    ];
    counter_block(&mut w, "ptm", named(&ptm, &ptm_names));
    // The 2PC counters (in-doubt resolution included), only when the run
    // actually crossed shards: single-shard sweeps keep the exact
    // PR 1-9 line.
    if group_nonzero(&ptm, "twopc") {
        let twopc = ptm
            .iter()
            .filter(|f| matches!(f.emit, Emit::NonZeroWith("twopc" | "indoubt")));
        counter_block(&mut w, "twopc", twopc);
    }

    let mem_names = [
        "sfences",
        "wpq_stall_ns",
        "dram_write_stall_ns",
        "fence_wait_ns",
    ];
    counter_block(&mut w, "mem", named(&r.mem.fields(), &mem_names));

    w.key("per_shard").begin_array();
    for (i, m) in r.per_shard_mem.iter().enumerate() {
        w.begin_object();
        w.key("shard").u64(i as u64);
        for f in named(&m.fields(), &["sfences", "wpq_stall_ns", "fence_wait_ns"]) {
            w.key(f.name).u64(f.value);
        }
        w.end_object();
    }
    w.end_array().end_object();
    w.finish()
}

/// One restart measurement point as a single-line JSON object.
///
/// Emitted by `recovery_bench`: restart latency decomposed into log
/// repair and GC phases for a pool of `pool_words` words carrying
/// `dirty_entries` committed-but-unretired log entries. Times are
/// wall-clock ns (restart is a host-side operation — there is no
/// virtual clock yet when it runs).
///
/// Schema:
/// `{workload, scenario, pool_words, dirty_entries,
///   recovery: {logs_scanned, redo_replayed, redo_entries,
///              undo_rolled_back, torn_entries, malformed_logs,
///              recovery_ns},
///   gc: {blocks_scanned, live_blocks, reclaimed_blocks, leaked_blocks,
///        corrupt_headers, gc_scan_ns, gc_mark_ns, gc_sweep_ns},
///   full_restart_ns}`
pub fn restart_point_json(
    scenario: &str,
    pool_words: u64,
    dirty_entries: u64,
    r: &ptm::db::ReopenReports,
) -> String {
    let mut w = begin_line(512, "restart", scenario);
    w.key("pool_words").u64(pool_words);
    w.key("dirty_entries").u64(dirty_entries);

    w.key("recovery").begin_object();
    w.key("logs_scanned").u64(r.recovery.logs_scanned as u64);
    w.key("redo_replayed").u64(r.recovery.redo_replayed as u64);
    w.key("redo_entries").u64(r.recovery.redo_entries as u64);
    w.key("undo_rolled_back")
        .u64(r.recovery.undo_rolled_back as u64);
    w.key("torn_entries").u64(r.recovery.torn_entries as u64);
    w.key("malformed_logs")
        .u64(r.recovery.malformed.len() as u64);
    w.key("recovery_ns").u64(r.recovery.recovery_ns);
    w.end_object();

    w.key("gc").begin_object();
    w.key("blocks_scanned").u64(r.gc.blocks_scanned as u64);
    w.key("live_blocks").u64(r.gc.live_blocks as u64);
    w.key("reclaimed_blocks").u64(r.gc.reclaimed_blocks as u64);
    w.key("leaked_blocks").u64(r.gc.leaked_blocks as u64);
    w.key("corrupt_headers").u64(r.gc.corrupt_headers as u64);
    w.key("gc_scan_ns").u64(r.gc.gc_scan_ns);
    w.key("gc_mark_ns").u64(r.gc.gc_mark_ns);
    w.key("gc_sweep_ns").u64(r.gc.gc_sweep_ns);
    w.end_object();

    w.key("full_restart_ns").u64(r.full_restart_ns);
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> RunResult {
        use pmem_sim::{DurabilityDomain, MediaKind};
        use workloads::driver::{run_scenario, RunConfig, Scenario, Workload};

        struct Noop(std::sync::Mutex<Option<pmem_sim::PAddr>>);
        impl Workload for Noop {
            fn name(&self) -> String {
                "noop".into()
            }
            fn heap_words(&self) -> usize {
                1 << 10
            }
            fn setup(&mut self, th: &mut ptm::TxThread) {
                let heap = std::sync::Arc::clone(th.heap());
                let a = heap.alloc(th.session_mut(), 1);
                th.run(|tx| tx.write(a, 0));
                *self.0.lock().unwrap() = Some(a);
            }
            fn op(
                &self,
                th: &mut ptm::TxThread,
                _rng: &mut rand::rngs::SmallRng,
                _tid: usize,
                _i: u64,
            ) {
                let a = self.0.lock().unwrap().unwrap();
                th.run(|tx| {
                    let v = tx.read(a)?;
                    tx.write(a, v + 1)
                });
            }
        }
        let mut w = Noop(std::sync::Mutex::new(None));
        let sc = Scenario::new(
            "json \"test\"",
            MediaKind::Optane,
            DurabilityDomain::Adr,
            ptm::Algo::RedoLazy,
        );
        let rc = RunConfig {
            threads: 1,
            ops_per_thread: 30,
            ..RunConfig::default()
        };
        run_scenario(&mut w, &sc, &rc)
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let r = sample_result();
        let j = point_json("noop", &r);
        // Structural sanity without a JSON parser: balanced delimiters,
        // escaped quotes in the scenario label, the expected keys.
        assert!(
            j.starts_with(r#"{"schema_version":2,"#),
            "schema_version must lead every line: {j}"
        );
        trace::json::check_structure(&j).expect("well-formed line");
        assert!(j.contains("\"scenario\":\"json \\\"test\\\"\""));
        for key in [
            "\"phase_ns\"",
            "\"speculation\"",
            "\"fence_wait\"",
            "\"latency\"",
            "\"buckets\"",
            "\"persistence_share\"",
            "\"ptm\"",
            "\"mem\"",
            "\"throughput_mops\"",
            "\"flushes_elided\"",
            "\"lines_planned\"",
            "\"max_read_set_unique\"",
            "\"max_write_lines\"",
            "\"shadow_lines_allocated\"",
            "\"shadow_lines_reclaimed\"",
            "\"publish_fences\"",
            "\"clwb_batches\"",
            // Per-cause abort attribution and the hybrid-HTM counters:
            // trace_analyze cross-checks its trace-derived totals against
            // exactly these keys, so their presence is part of the schema.
            "\"aborts_read_locked\"",
            "\"aborts_read_version\"",
            "\"aborts_acquire\"",
            "\"aborts_validation\"",
            "\"htm_commits\"",
            "\"htm_logged_commits\"",
            "\"htm_aborts\"",
            "\"htm_capacity_aborts\"",
            "\"htm_conflict_aborts\"",
            "\"htm_explicit_aborts\"",
            "\"htm_fallbacks\"",
            "\"backend_log_bytes\"",
            "\"wpq_stall_ns\"",
            "\"dram_write_stall_ns\"",
            "\"fence_wait_ns\"",
            // Group-commit and backoff observability (PR 6): consumers
            // key on these to compute fences-per-commit reductions.
            "\"group_commit_windows\"",
            "\"sfences_elided\"",
            "\"max_backoff_ns\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        // One line (JSONL-safe).
        assert!(!j.contains('\n'));
    }

    #[test]
    fn sharded_json_pins_per_shard_attribution() {
        use workloads::{ShardedRunConfig, StreamConfig};
        let rc = ShardedRunConfig {
            shards: 2,
            threads_per_shard: 2,
            stream: StreamConfig {
                total_ops: 120,
                keys: 256,
                ..StreamConfig::default()
            },
            ..ShardedRunConfig::default()
        };
        let r = workloads::run_sharded_kv(&rc);
        let j = sharded_point_json("sharded-kv", &r);
        assert!(j.starts_with(r#"{"schema_version":2,"#), "unversioned: {j}");
        for key in [
            "\"shards\"",
            "\"threads_per_shard\"",
            "\"throughput_mops\"",
            "\"sfences_per_commit\"",
            "\"sojourn\"",
            "\"p99\"",
            "\"group_commit_windows\"",
            "\"sfences_elided\"",
            "\"max_backoff_ns\"",
            "\"per_shard\"",
            "\"wpq_stall_ns\"",
            "\"dram_write_stall_ns\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        // Exactly one per-shard entry per shard.
        assert_eq!(j.matches("\"shard\":").count(), 2);
        assert!(!j.contains('\n'));
    }

    /// The 2PC block is strictly opt-in: a run that never crosses shards
    /// emits the exact PR 1-9 keys —
    /// the phase_profile byte-identity baseline depends on this.
    #[test]
    fn twopc_keys_absent_when_run_never_crosses_shards() {
        let r = sample_result();
        let j = point_json("noop", &r);
        for key in [
            "\"prepares\"",
            "\"coordinator_commits\"",
            "\"prepare_fence_ns\"",
            "\"indoubt_resolved_commit\"",
        ] {
            assert!(!j.contains(key), "gated key {key} leaked into {j}");
        }
    }

    #[test]
    fn sharded_json_carries_twopc_block_for_cross_shard_runs() {
        use workloads::{ShardedRunConfig, StreamConfig};
        let rc = ShardedRunConfig {
            shards: 2,
            threads_per_shard: 1,
            stream: StreamConfig {
                total_ops: 200,
                keys: 256,
                ..StreamConfig::default()
            },
            ..ShardedRunConfig::default()
        };
        let r = workloads::run_cross_shard_transfer(&rc, 0.5);
        let j = sharded_point_json("xshard-transfer", &r);
        for key in [
            "\"twopc\"",
            "\"prepares\"",
            "\"coordinator_commits\"",
            "\"prepare_fence_ns\"",
            "\"indoubt_resolved_commit\"",
            "\"indoubt_resolved_abort\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        // And the gate really gates: a frac=0 run has no 2PC block.
        let r0 = workloads::run_cross_shard_transfer(&rc, 0.0);
        let j0 = sharded_point_json("xshard-transfer", &r0);
        assert!(!j0.contains("\"twopc\""), "2PC block leaked into {j0}");
        assert!(!j0.contains('\n'));
    }

    #[test]
    fn restart_json_pins_restart_counter_schema() {
        use pmem_sim::{DurabilityDomain, MachineConfig};
        use ptm::db::PtmDb;
        use ptm::PtmConfig;

        let cfg = MachineConfig::functional(DurabilityDomain::Adr);
        let db = PtmDb::create(cfg.clone(), PtmConfig::redo(), 1 << 12, 4);
        let mut th = db.thread(0);
        let heap = db.heap().clone();
        let a = heap.alloc(th.session_mut(), 2);
        th.run(|tx| tx.write(a, 9));
        heap.set_root(th.session_mut(), 0, a);
        drop(th);
        let image = db.crash(7);
        let (_db2, reports) = PtmDb::reopen(&image, cfg, PtmConfig::redo());

        let j = restart_point_json("redo/adr", 1 << 12, 1, &reports);
        assert!(j.starts_with(r#"{"schema_version":2,"#), "unversioned: {j}");
        // The restart counters are part of the published schema
        // (EXPERIMENTS.md tables key on them): exactly these keys, in
        // this order.
        let keys: Vec<&str> = j
            .split('"')
            .skip(1)
            .step_by(2)
            .filter(|tok| !["restart", "redo/adr"].contains(tok))
            .collect();
        assert_eq!(
            keys,
            [
                "schema_version",
                "workload",
                "scenario",
                "pool_words",
                "dirty_entries",
                "recovery",
                "logs_scanned",
                "redo_replayed",
                "redo_entries",
                "undo_rolled_back",
                "torn_entries",
                "malformed_logs",
                "recovery_ns",
                "gc",
                "blocks_scanned",
                "live_blocks",
                "reclaimed_blocks",
                "leaked_blocks",
                "corrupt_headers",
                "gc_scan_ns",
                "gc_mark_ns",
                "gc_sweep_ns",
                "full_restart_ns",
            ],
            "{j}"
        );
        assert!(!j.contains('\n'));
    }

    #[test]
    fn phase_ns_sums_to_positive_total_under_adr() {
        let r = sample_result();
        assert!(r.phases.total_ns() > 0);
        assert!(r.phases.get(Phase::FenceWait) > 0);
    }
}
