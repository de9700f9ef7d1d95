//! Property-based tests of the cross-shard (2PC) transaction path.
//!
//! Two properties pin the PR 10 seam:
//!
//! * **differential** — a random program mixing single-shard and
//!   cross-shard transactions over a sharded engine commits exactly the
//!   state the same program commits on a serial single-engine run, for
//!   every algorithm × durability domain;
//! * **recovery order** — after a crash anywhere in the run (including
//!   inside a 2PC prepare/decide window), recovering the shards in *any*
//!   order, then resolving in-doubt participants, lands on bit-identical
//!   durable state and identical resolution counts.

use palloc::PHeap;
use pmem_sim::{AdversaryPolicy, DurabilityDomain, Machine, MachineConfig, PAddr};
use proptest::prelude::*;
use ptm::crash_harness::{count_sites, crash_at_site, digest_pools, ShardedTransfers, SweepCase};
use ptm::{
    recover_with_options, resolve_in_doubt, Abort, Algo, CrossShardTx, Ptm, PtmConfig,
    RecoverOptions, ShardedEngine, TxThread,
};
use std::sync::Arc;

const DOMAINS: [DurabilityDomain; 4] = [
    DurabilityDomain::Adr,
    DurabilityDomain::Eadr,
    DurabilityDomain::Pdram,
    DurabilityDomain::PdramLite,
];

const KEYS: u64 = 24;

/// Account `k`'s home shard and table offset under `shards` shards.
fn home(k: u64, shards: usize) -> (usize, u64) {
    ((k % shards as u64) as usize, k / shards as u64)
}

/// Run one program op against the sharded engine through the
/// cross-shard executor. Ops 0/3 take the unmodified single-shard fast
/// path; 1/2/4 go through the 2PC handle (op 4 user-aborts its first
/// attempt, so its writes must never become visible).
fn apply_sharded(
    cx: &mut CrossShardTx<'_>,
    tables: &[PAddr],
    shards: usize,
    op: u8,
    k1: u64,
    k2: u64,
    v: u64,
) {
    let (s1, o1) = home(k1, shards);
    let (s2, o2) = home(k2, shards);
    match op {
        0 => cx.run_single(s1, |tx| tx.write_at(tables[s1], o1, v)),
        1 => cx.run(|tx| {
            let b1 = tx.read_at(s1, tables[s1], o1)?;
            let b2 = tx.read_at(s2, tables[s2], o2)?;
            tx.write_at(s1, tables[s1], o1, b1 ^ v)?;
            if k1 != k2 {
                tx.write_at(s2, tables[s2], o2, b2.wrapping_add(v))?;
            }
            Ok(())
        }),
        2 => {
            cx.run(|tx| {
                let b1 = tx.read_at(s1, tables[s1], o1)?;
                let b2 = tx.read_at(s2, tables[s2], o2)?;
                Ok(b1.wrapping_add(b2))
            });
        }
        3 => {
            cx.run_single(s1, |tx| tx.read_at(tables[s1], o1));
        }
        _ => {
            let mut aborted_once = false;
            cx.run(|tx| {
                if !aborted_once {
                    tx.write_at(s1, tables[s1], o1, v.wrapping_mul(3))?;
                    tx.write_at(s2, tables[s2], o2, v.wrapping_mul(5))?;
                    aborted_once = true;
                    return Err(Abort);
                }
                Ok(())
            });
        }
    }
}

/// The same op against a plain single-engine executor holding all keys
/// in one table.
fn apply_single(th: &mut TxThread, base: PAddr, op: u8, k1: u64, k2: u64, v: u64) {
    match op {
        0 => th.run(|tx| tx.write_at(base, k1, v)),
        1 => th.run(|tx| {
            let b1 = tx.read_at(base, k1)?;
            let b2 = tx.read_at(base, k2)?;
            tx.write_at(base, k1, b1 ^ v)?;
            if k1 != k2 {
                tx.write_at(base, k2, b2.wrapping_add(v))?;
            }
            Ok(())
        }),
        2 => {
            th.run(|tx| {
                let b1 = tx.read_at(base, k1)?;
                let b2 = tx.read_at(base, k2)?;
                Ok(b1.wrapping_add(b2))
            });
        }
        3 => {
            th.run(|tx| tx.read_at(base, k1));
        }
        _ => {
            let mut aborted_once = false;
            th.run(|tx| {
                if !aborted_once {
                    tx.write_at(base, k1, v.wrapping_mul(3))?;
                    tx.write_at(base, k2, v.wrapping_mul(5))?;
                    aborted_once = true;
                    return Err(Abort);
                }
                Ok(())
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Differential: mixed single-/cross-shard programs on a sharded
    /// engine commit the same per-key state as the serial single-engine
    /// run, under every algorithm and durability domain.
    #[test]
    fn mixed_cross_shard_matches_single_engine(
        program in prop::collection::vec(
            (0u8..5, 0u64..KEYS, 0u64..KEYS, any::<u64>()),
            1..50,
        ),
        algo_idx in 0usize..Algo::ALL.len(),
        domain_idx in 0usize..DOMAINS.len(),
        shards in 2usize..4,
    ) {
        let algo = Algo::ALL[algo_idx];
        let domain = DOMAINS[domain_idx];
        let cfg = PtmConfig { algo, ..PtmConfig::default() };

        // Sharded arm.
        let engine = ShardedEngine::create(
            shards,
            MachineConfig::functional(domain),
            cfg.clone(),
            1 << 14,
            4,
        );
        engine.begin_roaming_run(1, u64::MAX);
        let mut cx = CrossShardTx::new(&engine, 0);
        let mut tables = Vec::with_capacity(shards);
        for s in 0..shards {
            let n = (0..KEYS).filter(|&k| home(k, shards).0 == s).count();
            let th = cx.thread_mut(s);
            let heap = Arc::clone(th.heap());
            let table = heap.alloc(th.session_mut(), n.max(1));
            cx.run_single(s, |tx| {
                for i in 0..n as u64 {
                    tx.write_at(table, i, 0)?;
                }
                Ok(())
            });
            tables.push(table);
        }
        for &(op, k1, k2, v) in &program {
            apply_sharded(&mut cx, &tables, shards, op, k1, k2, v);
        }
        let sharded_state: Vec<u64> = (0..KEYS)
            .map(|k| {
                let (s, off) = home(k, shards);
                cx.run_single(s, |tx| tx.read_at(tables[s], off))
            })
            .collect();
        cx.finish();

        // Serial single-engine reference.
        let m = Machine::new(MachineConfig::functional(domain));
        let heap = PHeap::format(&m, "h", 1 << 14, 4);
        let mut th = TxThread::new(Ptm::new(cfg), heap.clone(), m.session(0));
        let base = {
            let h = Arc::clone(&heap);
            h.alloc(th.session_mut(), KEYS as usize)
        };
        th.run(|tx| {
            for k in 0..KEYS {
                tx.write_at(base, k, 0)?;
            }
            Ok(())
        });
        for &(op, k1, k2, v) in &program {
            apply_single(&mut th, base, op, k1, k2, v);
        }
        let single_state: Vec<u64> = (0..KEYS)
            .map(|k| th.run(|tx| tx.read_at(base, k)))
            .collect();

        prop_assert_eq!(
            &sharded_state,
            &single_state,
            "{:?} under {:?} with {} shards diverged from the serial run",
            algo,
            domain,
            shards
        );
    }
}

/// Every permutation of `0..n` (the test sweeps n ≤ 3 shards, so full
/// enumeration stays tiny and deterministic).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 1 {
        return vec![vec![0]];
    }
    let mut out = Vec::new();
    for p in permutations(n - 1) {
        for at in 0..=p.len() {
            let mut q = p.clone();
            q.insert(at, n - 1);
            out.push(q);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Recovery-order independence: rebooting the shards of one crash
    /// and running per-shard recovery in any permutation, followed by
    /// the in-doubt resolution pass, produces bit-identical durable
    /// state and identical resolution counts.
    #[test]
    fn recovery_is_shard_order_independent(
        seed in 0u64..1_000,
        algo_idx in 0usize..Algo::ALL.len(),
        site_frac in 0u64..1_000,
        policy_idx in 0usize..AdversaryPolicy::SWEEP.len(),
        shards in 2usize..4,
    ) {
        let algo = Algo::ALL[algo_idx];
        let domain = DurabilityDomain::Adr;
        let policy = AdversaryPolicy::SWEEP[policy_idx];

        // The sweep harness's cross-shard transfer workload and its
        // crash step (one injector over every shard machine, survivors
        // imaged under per-shard derived seeds). Count the sites with a
        // dry run, then land the crash in the later half of the run,
        // where 2PC prepare/decide windows live.
        let workload = ShardedTransfers { shards, accounts: 6, initial: 64, transfers: 6 };
        let case = SweepCase { algo, domain, policy, seed };
        let total = count_sites(&workload, &case).max(1);
        let site = total / 2 + site_frac % (total - total / 2).max(1);
        let images = crash_at_site(&workload, &case, site).images;

        let mut reference: Option<(u64, usize, usize)> = None;
        for perm in permutations(shards) {
            let machines: Vec<Arc<Machine>> = images
                .iter()
                .map(|img| Machine::reboot(img, MachineConfig::functional(domain)))
                .collect();
            for &s in &perm {
                recover_with_options(&machines[s], RecoverOptions::default());
            }
            let reports = resolve_in_doubt(&machines);
            let commits: usize = reports.iter().map(|r| r.indoubt_resolved_commit).sum();
            let aborts: usize = reports.iter().map(|r| r.indoubt_resolved_abort).sum();
            let d = digest_pools(&machines);
            match reference {
                None => reference = Some((d, commits, aborts)),
                Some((d0, c0, a0)) => {
                    prop_assert_eq!(
                        (d, commits, aborts),
                        (d0, c0, a0),
                        "shard recovery order {:?} diverged ({:?}, site {}/{})",
                        perm,
                        algo,
                        site,
                        total
                    );
                }
            }
        }
    }
}
