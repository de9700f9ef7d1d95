//! The three closed-loop workloads, run through
//! [`workloads::run_scenario`] with a [`Probe`] around the workload:
//! `tpcc_adr_1t`, `btree_eadr_1t`, `tpcc_undo_adr_2t`.

use pmem_sim::{DurabilityDomain, LatencyModel, MediaKind};
use ptm::{Algo, Phase};
use trace::TraceSink;
use workloads::{run_scenario, BTreeMixed, IndexKind, RunConfig, Scenario, Tpcc, Workload};

use super::{Rep, Scale, Traced, Virtual, WorkloadId};
use crate::host::HostMark;
use crate::probe::{p99_of_lanes, Probe};
use crate::traced;

/// TPCC warehouses (the paper's small-warehouse configuration).
const WAREHOUSES: u64 = 8;
/// `BTreeMixed` key range: prepopulated half full, 2^18 live keys in
/// 36-word leaves ≈ 9 MB, over the 4 MB modelled L3.
const BTREE_KEY_RANGE: u64 = 1 << 19;

/// Trace events one op can emit, with headroom, per workload: sizes the
/// flight-recorder ring so a traced repetition drops nothing. Measured:
/// TPCC ≈ 260 events/op (≈ 320 with the 2-thread run's retries), B+Tree ≈ 46.
fn ring_capacity(id: WorkloadId, ops_per_thread: u64) -> usize {
    let per_op = match id {
        WorkloadId::BtreeEadr1t => 96,
        WorkloadId::TpccAdr1t => 320,
        // Retries after aborts repeat a transaction's events.
        _ => 640,
    };
    (ops_per_thread * per_op) as usize
}

/// Total ops of one repetition, sized for ≈1.5 s of measured phase on
/// the 2-core reference host.
pub fn total_ops(id: WorkloadId, scale: Scale) -> u64 {
    match id {
        WorkloadId::TpccAdr1t => scale.pick(90_000, 10_000, 2_000),
        WorkloadId::BtreeEadr1t => scale.pick(260_000, 50_000, 6_000),
        WorkloadId::TpccUndoAdr2t => scale.pick(50_000, 10_000, 2_000),
        _ => unreachable!("{id:?} is not a run_scenario workload"),
    }
}

/// One repetition under `model` (the default model, except in the
/// sensitivity self-check).
pub fn run_rep(
    id: WorkloadId,
    scale: Scale,
    seed: u64,
    traced: bool,
    model: &LatencyModel,
) -> (Rep, Option<Traced>) {
    let ops = total_ops(id, scale);
    let (label, domain, algo, threads) = match id {
        WorkloadId::TpccAdr1t => ("Optane_ADR_R", DurabilityDomain::Adr, Algo::RedoLazy, 1),
        WorkloadId::BtreeEadr1t => ("Optane_eADR_R", DurabilityDomain::Eadr, Algo::RedoLazy, 1),
        WorkloadId::TpccUndoAdr2t => ("Optane_ADR_U", DurabilityDomain::Adr, Algo::UndoEager, 2),
        _ => unreachable!("{id:?} is not a run_scenario workload"),
    };
    let sc = Scenario::new(label, MediaKind::Optane, domain, algo);
    let ops_per_thread = ops / threads as u64;
    let rc = RunConfig {
        threads,
        ops_per_thread,
        seed,
        model: model.clone(),
        trace: traced.then(|| TraceSink::new(ring_capacity(id, ops_per_thread))),
        ..RunConfig::default()
    };
    if id == WorkloadId::BtreeEadr1t {
        let key_range = scale.pick(BTREE_KEY_RANGE, BTREE_KEY_RANGE, 1 << 13);
        go(BTreeMixed::new(key_range), &sc, &rc)
    } else {
        go(Tpcc::new(IndexKind::Hash, WAREHOUSES, ops), &sc, &rc)
    }
}

fn go<W: Workload>(workload: W, sc: &Scenario, rc: &RunConfig) -> (Rep, Option<Traced>) {
    let (threads, ops_per_thread, traced) = (rc.threads, rc.ops_per_thread, rc.trace.is_some());
    let mut probe = Probe::new(workload, threads, ops_per_thread, traced);
    let start = HostMark::now();
    let r = run_scenario(&mut probe, sc, rc);
    let end = HostMark::now();
    let setup_end = probe.setup_end();
    let epoch = probe.epoch();
    let lanes = probe.into_lanes();

    let (p99, p99_samples) = p99_of_lanes(&lanes);
    let mut rep = Rep {
        ops: r.ops,
        setup_s: start.until(&setup_end).wall_s,
        measured: setup_end.until(&end),
        virt: Virtual {
            mops: r.throughput_mops(),
            mean_ns: r.latency.mean(),
            p99_ns: p99,
            p99_samples,
            ops: r.ops,
            mem: r.mem,
            ptm: r.ptm,
            phases: Some(r.phases),
        },
        slowdown: 1.0,
        restart: None,
        failures: Vec::new(),
    };

    // Every op must have committed a transaction.
    if r.ptm.commits < r.ops {
        rep.fail(r.ops - r.ptm.commits, "ops without a commit");
    }
    // The probe and the driver time the same ops with the same clock
    // reads; their exact totals must agree.
    let probe_sum: u64 = lanes.iter().flat_map(|l| &l.sim_ns).sum();
    if p99_samples != r.ops || probe_sum != r.latency.sum() {
        rep.fail(
            r.ops,
            format!(
                "probe saw {p99_samples} ops / {probe_sum} ns, driver {} ops / {} ns",
                r.latency.count(),
                r.latency.sum()
            ),
        );
    }
    // Domain assertions: eADR bypasses the persist path entirely, ADR
    // must pay it.
    let persist_ns = r.phases.get(Phase::Flush) + r.phases.get(Phase::FenceWait);
    match sc.domain {
        DurabilityDomain::Eadr => {
            if r.mem.clwbs != 0 || r.mem.sfences != 0 || persist_ns != 0 {
                rep.fail(
                    r.ops,
                    format!(
                        "eADR run issued {} clwb / {} sfence / {persist_ns} ns of persist phases",
                        r.mem.clwbs, r.mem.sfences
                    ),
                );
            }
        }
        _ => {
            if r.mem.clwbs == 0 || r.mem.sfences == 0 || persist_ns == 0 {
                rep.fail(r.ops, "ADR run never flushed or fenced");
            }
        }
    }

    let traced = rc.trace.as_ref().map(|sink| {
        let threads = sink.threads();
        let (spans, dropped_events) = obs::spans::reconstruct(&threads);
        let host_ns = |m: &HostMark| m.at.duration_since(epoch).as_nanos() as u64;
        Traced {
            ops: traced::attach(&lanes, &spans),
            events: traced::events_recorded(&threads),
            dropped_events,
            closure_err: traced::closure_err(&spans, r.latency.sum()),
            setup_end_host_ns: host_ns(&setup_end),
            measure_end_host_ns: host_ns(&end),
            sim_elapsed_ns: r.elapsed_virtual_ns,
            queue_share_p99: None,
            imbalance: None,
        }
    });
    (rep, traced)
}
