//! The metric registry: every name this benchmark reports, with its
//! unit, its direction, the layer it belongs to and — for a per-layer
//! metric — the end-to-end metric it is expected to move, written down
//! before anything was measured. `BENCHMARK.json` at the repository root
//! lists the same names; `tests/contract.rs` keeps the two in step.

use std::collections::BTreeMap;

use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which clock the number is on: `sim` (virtual time of the modelled
    /// design), `host` (the simulator's own cost) or `count`.
    pub clock: &'static str,
    /// Per-layer: the end-to-end metrics and workloads this should move.
    /// End-to-end: what a user sees.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock,
        moves,
    }
}

use Better::{Higher, Lower};

/// Printed by every workload with `--trace 0`. None of them is ever 0.
pub const END_TO_END: &[MetricDef] = &[
    m("sim_mops", "Mops/s", Higher, "sim",
      "throughput of the modelled design per virtual second (kv_open_2shard: the saturated pass)"),
    m("sim_mean_ns", "ns", Lower, "sim",
      "mean op latency (closed loop) or mean sojourn from arrival (kv_open_2shard, the paced pass)"),
    m("sim_p99_ns", "ns", Lower, "sim",
      "p99 op latency: exact samples, nearest rank interpolated within ties (closed loop); interpolated histogram quantile (kv_open_2shard)"),
    m("host_ops_per_s", "ops/s", Higher, "host",
      "simulated ops per nominal host wall second of the measured phase (drift-corrected, see calib.rs)"),
    m("host_cpu_s_per_mop", "s/Mop", Lower, "host",
      "user+sys CPU seconds (nominal host) per million simulated ops over the measured phase"),
    m("setup_s", "s", Lower, "host",
      "nominal host wall from the start of a repetition to the first measured op"),
    m("peak_rss_mb", "MB", Lower, "host",
      "VmHWM of the workload's process when measuring ends"),
];

/// Printed by every workload with `--trace 1`; 0 where a metric does not
/// apply to the workload (the human report and `results.json` omit those
/// instead).
pub const PER_LAYER: &[MetricDef] = &[
    // pmem-sim: virtual counters per op, every workload.
    m(
        "pmem-sim.loads_per_op",
        "1/op",
        Lower,
        "count",
        "sim_mean_ns, host_ops_per_s on all",
    ),
    m(
        "pmem-sim.stores_per_op",
        "1/op",
        Lower,
        "count",
        "sim_mean_ns, host_ops_per_s on all",
    ),
    m(
        "pmem-sim.clwbs_per_op",
        "1/op",
        Lower,
        "count",
        "sim_mops/sim_mean_ns on the ADR workloads; must read 0 on btree_eadr_1t",
    ),
    m(
        "pmem-sim.sfences_per_op",
        "1/op",
        Lower,
        "count",
        "sim_mops/sim_mean_ns on the ADR workloads; must read 0 on btree_eadr_1t",
    ),
    m(
        "pmem-sim.l3_miss_rate",
        "ratio",
        Lower,
        "count",
        "sim_mean_ns on btree_eadr_1t (tree > L3)",
    ),
    m(
        "pmem-sim.optane_lines_per_op",
        "1/op",
        Lower,
        "count",
        "sim_mops on the ADR workloads",
    ),
    m(
        "pmem-sim.evictions_per_op",
        "1/op",
        Lower,
        "count",
        "sim_mean_ns on btree_eadr_1t",
    ),
    m(
        "pmem-sim.fence_wait_ns_per_op",
        "ns/op",
        Lower,
        "sim",
        "sim_mean_ns on the ADR workloads; 0 on btree_eadr_1t",
    ),
    m(
        "pmem-sim.wpq_stall_ns_per_op",
        "ns/op",
        Lower,
        "sim",
        "sim_p99_ns on tpcc_undo_adr_2t and kv_open_2shard",
    ),
    // pmem-sim: model calibration, asserted against DESIGN.md section 6.
    m(
        "pmem-sim.model.l3_hit_ns",
        "ns",
        Lower,
        "sim",
        "every sim_* metric",
    ),
    m(
        "pmem-sim.model.dram_load_ns",
        "ns",
        Lower,
        "sim",
        "every sim_* metric",
    ),
    m(
        "pmem-sim.model.optane_load_ns",
        "ns",
        Lower,
        "sim",
        "every sim_* metric",
    ),
    m(
        "pmem-sim.model.clwb_sfence_adr_ns",
        "ns",
        Lower,
        "sim",
        "every sim_* metric on ADR workloads",
    ),
    // pmem-sim: host cost of one session call.
    m(
        "pmem-sim.session.load_host_ns",
        "ns",
        Lower,
        "host",
        "host_ops_per_s on all",
    ),
    m(
        "pmem-sim.session.store_host_ns",
        "ns",
        Lower,
        "host",
        "host_ops_per_s on all",
    ),
    m(
        "pmem-sim.session.clwb_sfence_host_ns",
        "ns",
        Lower,
        "host",
        "host_ops_per_s on the ADR workloads; no change on btree_eadr_1t",
    ),
    m(
        "pmem-sim.session.tracked_store_host_ns",
        "ns",
        Lower,
        "host",
        "host_ops_per_s on bank_crash_restart only",
    ),
    m(
        "pmem-sim.clock.advance_1t_host_ns",
        "ns",
        Lower,
        "host",
        "host_ops_per_s on the 1-thread workloads",
    ),
    m(
        "pmem-sim.clock.advance_2t_host_ns",
        "ns",
        Lower,
        "host",
        "host_ops_per_s, host_cpu_s_per_mop on tpcc_undo_adr_2t only",
    ),
    m(
        "pmem-sim.clock.sys_share",
        "ratio",
        Lower,
        "host",
        "host_cpu_s_per_mop on tpcc_undo_adr_2t (yield-spin); page faults elsewhere",
    ),
    // palloc
    m(
        "palloc.alloc_host_ns",
        "ns",
        Lower,
        "host",
        "host_ops_per_s on btree_eadr_1t, setup_s",
    ),
    m(
        "palloc.free_host_ns",
        "ns",
        Lower,
        "host",
        "host_ops_per_s on btree_eadr_1t",
    ),
    m(
        "palloc.alloc_sim_ns",
        "ns",
        Lower,
        "sim",
        "sim_mops on btree_eadr_1t (node splits)",
    ),
    m("palloc.gc_scan_ms", "ms", Lower, "host", "restart_s"),
    m("palloc.gc_mark_ms", "ms", Lower, "host", "restart_s"),
    m("palloc.gc_sweep_ms", "ms", Lower, "host", "restart_s"),
    m(
        "palloc.gc_blocks_reclaimed",
        "count",
        Lower,
        "count",
        "restart_s",
    ),
    // ptm
    m(
        "ptm.commits_per_op",
        "1/op",
        Lower,
        "count",
        "sim_mops on all (1 = one transaction per op)",
    ),
    m(
        "ptm.abort_rate",
        "ratio",
        Lower,
        "count",
        "sim_mops, sim_p99_ns on tpcc_undo_adr_2t",
    ),
    m(
        "ptm.max_write_entries",
        "count",
        Lower,
        "count",
        "sim_p99_ns on tpcc_*",
    ),
    m(
        "ptm.phase.speculation_share",
        "ratio",
        Lower,
        "sim",
        "sim_mean_ns on btree_eadr_1t",
    ),
    m(
        "ptm.phase.log_append_share",
        "ratio",
        Lower,
        "sim",
        "sim_mops on tpcc_adr_1t",
    ),
    m(
        "ptm.phase.flush_share",
        "ratio",
        Lower,
        "sim",
        "sim_mops on ADR workloads; 0 on btree_eadr_1t",
    ),
    m(
        "ptm.phase.fence_wait_share",
        "ratio",
        Lower,
        "sim",
        "sim_mops on ADR workloads; 0 on btree_eadr_1t",
    ),
    m(
        "ptm.phase.validation_share",
        "ratio",
        Lower,
        "sim",
        "sim_mean_ns on all closed-loop workloads",
    ),
    m(
        "ptm.phase.writeback_share",
        "ratio",
        Lower,
        "sim",
        "sim_mops on the redo workloads",
    ),
    m(
        "ptm.phase.rollback_share",
        "ratio",
        Lower,
        "sim",
        "sim_mops on tpcc_undo_adr_2t",
    ),
    m(
        "ptm.phase.backoff_share",
        "ratio",
        Lower,
        "sim",
        "sim_mops, sim_p99_ns on tpcc_undo_adr_2t",
    ),
    m(
        "ptm.txn.redo_8w_host_ns",
        "ns",
        Lower,
        "host",
        "host_ops_per_s on tpcc_adr_1t, btree_eadr_1t",
    ),
    m(
        "ptm.txn.undo_8w_host_ns",
        "ns",
        Lower,
        "host",
        "host_ops_per_s on tpcc_undo_adr_2t",
    ),
    m(
        "ptm.txn.readonly_8r_host_ns",
        "ns",
        Lower,
        "host",
        "host_ops_per_s on btree_eadr_1t, kv_open_2shard",
    ),
    m(
        "ptm.orec.lock_release_host_ns",
        "ns",
        Lower,
        "host",
        "host_ops_per_s on all closed-loop workloads",
    ),
    m(
        "ptm.umap.insert_get_x64_host_ns",
        "ns",
        Lower,
        "host",
        "host_ops_per_s on the redo workloads",
    ),
    m("ptm.recovery_host_ms", "ms", Lower, "host", "restart_s"),
    m("ptm.recovery_logs", "count", Lower, "count", "restart_s"),
    m("ptm.first_txn_s", "s", Lower, "host", "restart_s"),
    m(
        "restart_s",
        "s",
        Lower,
        "host",
        "end to end on bank_crash_restart: crash image to a fully restarted database",
    ),
    // pstructs
    m(
        "pstructs.bptree.get_host_ns",
        "ns",
        Lower,
        "host",
        "host_ops_per_s on btree_eadr_1t",
    ),
    m(
        "pstructs.bptree.insert_host_ns",
        "ns",
        Lower,
        "host",
        "host_ops_per_s, setup_s on btree_eadr_1t",
    ),
    m(
        "pstructs.hashmap.get_host_ns",
        "ns",
        Lower,
        "host",
        "host_ops_per_s on kv_open_2shard, bank_crash_restart",
    ),
    m(
        "pstructs.hashmap.insert_host_ns",
        "ns",
        Lower,
        "host",
        "host_ops_per_s on tpcc_*, setup_s on kv_open_2shard",
    ),
    m(
        "pstructs.bptree.loads_per_get",
        "1/op",
        Lower,
        "count",
        "sim_mean_ns on btree_eadr_1t",
    ),
    m(
        "pstructs.hashmap.loads_per_get",
        "1/op",
        Lower,
        "count",
        "sim_mean_ns on tpcc_*, kv_open_2shard",
    ),
    // workloads
    m(
        "workloads.op_host_ns_p50",
        "ns",
        Lower,
        "host",
        "host_ops_per_s on the closed-loop workloads",
    ),
    m(
        "workloads.op_host_ns_p99",
        "ns",
        Lower,
        "host",
        "host_ops_per_s on the closed-loop workloads",
    ),
    m(
        "workloads.driver_share",
        "ratio",
        Lower,
        "host",
        "host_ops_per_s on the closed-loop workloads",
    ),
    m(
        "workloads.sharded.gen_stream_ms",
        "ms",
        Lower,
        "host",
        "setup_s on kv_open_2shard",
    ),
    m(
        "workloads.sharded.queue_share_p99",
        "ratio",
        Lower,
        "sim",
        "sim_p99_ns on kv_open_2shard",
    ),
    m(
        "workloads.sharded.imbalance",
        "ratio",
        Lower,
        "count",
        "sim_mops on kv_open_2shard",
    ),
    m(
        "workloads.sharded.sfences_per_commit",
        "1/op",
        Lower,
        "count",
        "sim_mops on kv_open_2shard",
    ),
    // trace / obs: how far the per-layer numbers can be trusted.
    m(
        "trace.overhead_share",
        "ratio",
        Lower,
        "host",
        "none: bounds trust in host numbers of the traced run",
    ),
    m(
        "trace.events_per_op",
        "1/op",
        Lower,
        "count",
        "none: sizes the trace ring",
    ),
    m(
        "trace.dropped_events",
        "count",
        Lower,
        "count",
        "none: > 0 marks span totals as lower bounds",
    ),
    m(
        "obs.span_closure_err",
        "ratio",
        Lower,
        "sim",
        "none: sum of span components vs measured latency",
    ),
    // bench
    m(
        "bench.report.point_json_host_us",
        "us",
        Lower,
        "host",
        "suite wall only, no workload metric",
    ),
    m(
        "bench.report.point_json_bytes",
        "B",
        Lower,
        "count",
        "suite wall only, no workload metric",
    ),
];

/// Metric values keyed by registered name.
#[derive(Debug, Clone, Default)]
pub struct MetricSet {
    values: BTreeMap<&'static str, Summary>,
}

impl MetricSet {
    pub fn new() -> MetricSet {
        MetricSet::default()
    }

    /// Record a metric measured once (a count, or a single traced rep).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_summary(name, Summary::of(&[value]));
    }

    /// Record a metric measured per repetition: its median is the value.
    pub fn set_reps(&mut self, name: &'static str, per_rep: &[f64]) {
        self.set_summary(name, Summary::of(per_rep));
    }

    fn set_summary(&mut self, name: &'static str, s: Summary) {
        assert!(
            lookup(name).is_some(),
            "metric `{name}` is not in the registry"
        );
        let prev = self.values.insert(name, s);
        assert!(prev.is_none(), "metric `{name}` reported twice");
    }

    pub fn get(&self, name: &str) -> Option<Summary> {
        self.values.get(name).copied()
    }

    pub fn extend(&mut self, other: MetricSet) {
        for (k, v) in other.values {
            self.set_summary(k, v);
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Summary)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }
}

pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(d.name), "name {}", d.name);
            assert!(ok_unit(d.unit), "unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unknown_names_are_rejected() {
        MetricSet::new().set("no.such.metric", 1.0);
    }
}
