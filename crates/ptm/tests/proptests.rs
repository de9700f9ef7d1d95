//! Property-based tests of PTM internals and end-to-end transaction
//! semantics.

use palloc::PHeap;
use pmem_sim::{DurabilityDomain, Machine, MachineConfig, PAddr};
use proptest::prelude::*;
use ptm::umap::U64Map;
use ptm::{Algo, FlushPlan, Ptm, PtmConfig, TxThread};
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// U64Map agrees with HashMap under arbitrary insert/get/clear mixes.
    #[test]
    fn umap_matches_hashmap(ops in prop::collection::vec((0u8..3, any::<u64>(), any::<u64>()), 1..300)) {
        let mut m = U64Map::new(8);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for &(op, k, v) in &ops {
            match op {
                0 => {
                    prop_assert_eq!(m.insert(k, v), model.insert(k, v));
                }
                1 => {
                    prop_assert_eq!(m.get(k), model.get(&k).copied());
                }
                _ => {
                    m.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(m.len(), model.len());
        }
    }

    /// Sequential transactions over random word programs behave exactly
    /// like direct memory, under every registered algorithm and with
    /// arbitrary transaction boundaries and user aborts.
    #[test]
    fn transactions_match_flat_memory(
        program in prop::collection::vec(
            // (op, addr, value): op 0..6 = write, 6..8 = read-check,
            // 8 = commit boundary, 9 = abort the pending transaction
            (0u8..10, 0u64..64, any::<u64>()),
            1..120,
        ),
        algo_idx in 0usize..Algo::ALL.len(),
    ) {
        let algo = Algo::ALL[algo_idx];
        let m = Machine::new(MachineConfig::functional(DurabilityDomain::Eadr));
        let heap = PHeap::format(&m, "h", 1 << 14, 4);
        let cfg = PtmConfig { algo, ..PtmConfig::default() };
        let mut th = TxThread::new(Ptm::new(cfg), heap.clone(), m.session(0));
        let base = {
            let h = std::sync::Arc::clone(&heap);
            h.alloc(th.session_mut(), 64)
        };
        let mut committed: [u64; 64] = [0; 64];

        // Split the program into transactions at the boundaries.
        let mut chunk: Vec<(u8, u64, u64)> = Vec::new();
        let flush = |th: &mut TxThread, chunk: &mut Vec<(u8, u64, u64)>, committed: &mut [u64; 64], abort: bool| {
            if chunk.is_empty() {
                return Ok(()) as Result<(), TestCaseError>;
            }
            let ops = chunk.clone();
            let mut aborted_once = false;
            let speculative: Option<[u64; 64]> = th.run(|tx| {
                let mut local = *committed;
                for &(op, a, v) in &ops {
                    if op < 6 {
                        tx.write_at(base, a, v)?;
                        local[a as usize] = v;
                    } else {
                        let got = tx.read_at(base, a)?;
                        if got != local[a as usize] {
                            // Surface mismatches as a value we can assert on.
                            return Ok(None);
                        }
                    }
                }
                if abort && !aborted_once {
                    aborted_once = true;
                    return Err(ptm::Abort);
                }
                Ok(Some(local))
            });
            match speculative {
                Some(local) => *committed = local,
                None => prop_assert!(false, "in-transaction read mismatch"),
            }
            chunk.clear();
            Ok(())
        };

        for &(op, a, v) in &program {
            match op {
                8 => flush(&mut th, &mut chunk, &mut committed, false)?,
                9 => flush(&mut th, &mut chunk, &mut committed, true)?,
                _ => chunk.push((op, a, v)),
            }
        }
        flush(&mut th, &mut chunk, &mut committed, false)?;

        // Final memory state equals the committed model exactly.
        for a in 0..64u64 {
            let got = th.run(|tx| tx.read_at(base, a));
            prop_assert_eq!(got, committed[a as usize], "addr {}", a);
        }
        let _ = PAddr::NULL;
    }

    /// The write-combining commit pipeline is semantically transparent:
    /// for arbitrary sequential programs, the final memory equals the
    /// naive pipeline's under ADR (where the flush schedule matters).
    #[test]
    fn write_combining_matches_naive_memory(
        writes in prop::collection::vec((0u64..48, any::<u64>()), 1..80),
        algo_idx in 0usize..Algo::ALL.len(),
    ) {
        let algo = Algo::ALL[algo_idx];
        let run_with = |flush: FlushPlan| {
            let m = Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
            let heap = PHeap::format(&m, "h", 1 << 14, 4);
            let cfg = PtmConfig { algo, flush, ..PtmConfig::default() };
            let mut th = TxThread::new(Ptm::new(cfg), heap.clone(), m.session(0));
            let base = {
                let h = std::sync::Arc::clone(&heap);
                h.alloc(th.session_mut(), 48)
            };
            for chunk in writes.chunks(5) {
                th.run(|tx| {
                    for &(a, v) in chunk {
                        let old = tx.read_at(base, a)?;
                        tx.write_at(base, a, old ^ v)?;
                    }
                    Ok(())
                });
            }
            // Durable (shadow) state, not just cache-visible state. For
            // HtmLogged the home writeback is deliberately unfenced and
            // durability lives in the sealed back-end ring, so its
            // durable state is what a crash recovers to.
            if algo == Algo::HtmLogged {
                drop(th);
                let img = m.crash(0);
                let m2 = Machine::reboot(&img, MachineConfig::functional(DurabilityDomain::Adr));
                ptm::recover(&m2);
                return (0..48u64)
                    .map(|a| m2.pool(base.pool()).raw_load(base.word() + a))
                    .collect::<Vec<u64>>();
            }
            (0..48u64)
                .map(|a| heap.pool().shadow().unwrap().load(base.word() + a))
                .collect::<Vec<u64>>()
        };
        prop_assert_eq!(run_with(FlushPlan::Batched), run_with(FlushPlan::Combined));
    }

    /// The hardware path, unlogged where the domain needs no flushes,
    /// computes the same results as pure software for sequential
    /// programs.
    #[test]
    fn hybrid_matches_software(
        writes in prop::collection::vec((0u64..32, any::<u64>()), 1..60),
        domain_idx in 0usize..3,
    ) {
        let domain = [
            DurabilityDomain::Eadr,
            DurabilityDomain::Pdram,
            DurabilityDomain::PdramLite,
        ][domain_idx];
        let run_with = |cfg: PtmConfig| {
            let m = Machine::new(MachineConfig::functional(domain));
            let heap = PHeap::format(&m, "h", 1 << 14, 4);
            let mut th = TxThread::new(Ptm::new(cfg), heap.clone(), m.session(0));
            let base = {
                let h = std::sync::Arc::clone(&heap);
                h.alloc(th.session_mut(), 32)
            };
            for &(a, v) in &writes {
                th.run(|tx| {
                    let old = tx.read_at(base, a)?;
                    tx.write_at(base, a, v ^ old)
                });
            }
            (0..32u64)
                .map(|a| th.run(|tx| tx.read_at(base, a)))
                .collect::<Vec<u64>>()
        };
        prop_assert_eq!(run_with(PtmConfig::redo()), run_with(PtmConfig::htm_logged()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Routed through the PR 2 crash-site sweep: for random seeds and
    /// algorithms, the naive and write-combined pipelines both survive a
    /// bounded ADR site sweep violation-free, and an end-of-run crash
    /// (same armed site, same adversary coin flips) recovers both
    /// pipelines to the identical state digest.
    #[test]
    fn crash_sweep_is_clean_and_digests_match_across_pipelines(
        seed in 0u64..1_000,
        algo_idx in 0usize..Algo::ALL.len(),
        transfers in 2usize..5,
    ) {
        use pmem_sim::AdversaryPolicy;
        use ptm::crash_harness::{run_site, sweep_case, BankTransfers, SweepCase, SweepOptions};
        use ptm::RecoverOptions;

        let algo = Algo::ALL[algo_idx];
        let case = SweepCase {
            algo,
            domain: DurabilityDomain::Adr,
            policy: AdversaryPolicy::SWEEP[(seed % AdversaryPolicy::SWEEP.len() as u64) as usize],
            seed,
        };
        let bank = |flush: FlushPlan| BankTransfers {
            accounts: 4,
            initial: 64,
            transfers,
            flush,
        };
        let opts = SweepOptions {
            max_sites_per_case: Some(6),
            ..SweepOptions::default()
        };
        for flush in [FlushPlan::Batched, FlushPlan::Combined] {
            let r = sweep_case(&bank(flush), &case, opts);
            let lines: Vec<String> = r.violations.iter().map(|v| v.to_string()).collect();
            prop_assert!(lines.is_empty(), "{:?}: {:?}", flush, lines);
        }
        // End-of-run crash at one fixed armed site: identical adversary
        // seed for both pipelines, so equal digests ⇒ the combined
        // pipeline leaves the machine in exactly the naive durable state.
        const END: u64 = 1 << 40;
        let naive = run_site(&bank(FlushPlan::Batched), &case, END, RecoverOptions::default());
        let combined = run_site(&bank(FlushPlan::Combined), &case, END, RecoverOptions::default());
        prop_assert!(naive.violations.is_empty(), "{:?}", naive.violations);
        prop_assert!(combined.violations.is_empty(), "{:?}", combined.violations);
        prop_assert_eq!(naive.state_digest, combined.state_digest);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cross-algorithm differential test: an identical sequential
    /// workload (random writes, reads, user aborts, arbitrary
    /// transaction boundaries) produces the identical committed heap
    /// state under every registered algorithm (redo, undo, cow shadow,
    /// htm-logged — the latter on its hardware path), in every
    /// durability domain. The algorithm seam may change *how* writes
    /// become durable, never *what* commits.
    #[test]
    fn algorithms_commit_identical_heap_state(
        program in prop::collection::vec(
            // (op, addr, value): op 0..7 = write, 7..9 = read,
            // 9 = commit boundary, 10 = user abort
            (0u8..11, 0u64..48, any::<u64>()),
            1..100,
        ),
        domain_idx in 0usize..4,
    ) {
        let domain = [
            DurabilityDomain::Adr,
            DurabilityDomain::Eadr,
            DurabilityDomain::Pdram,
            DurabilityDomain::PdramLite,
        ][domain_idx];
        let final_state = |algo: Algo| {
            let m = Machine::new(MachineConfig::functional(domain));
            let heap = PHeap::format(&m, "h", 1 << 14, 4);
            let cfg = PtmConfig::with_algo(algo);
            let mut th = TxThread::new(Ptm::new(cfg), heap.clone(), m.session(0));
            let base = {
                let h = std::sync::Arc::clone(&heap);
                h.alloc(th.session_mut(), 48)
            };
            let mut chunk: Vec<(u8, u64, u64)> = Vec::new();
            let run_chunk = |th: &mut TxThread, chunk: &[(u8, u64, u64)], abort: bool| {
                if chunk.is_empty() {
                    return;
                }
                let mut aborted_once = false;
                th.run(|tx| {
                    for &(op, a, v) in chunk {
                        if op < 7 {
                            tx.write_at(base, a, v)?;
                        } else {
                            tx.read_at(base, a)?;
                        }
                    }
                    if abort && !aborted_once {
                        aborted_once = true;
                        return Err(ptm::Abort);
                    }
                    Ok(())
                });
            };
            for &(op, a, v) in &program {
                match op {
                    9 => { run_chunk(&mut th, &chunk, false); chunk.clear(); }
                    10 => { run_chunk(&mut th, &chunk, true); chunk.clear(); }
                    _ => chunk.push((op, a, v)),
                }
            }
            run_chunk(&mut th, &chunk, false);
            // Committed (cache-visible) data-block state. Only the block
            // itself is compared: cow legitimately perturbs allocator
            // metadata by cycling shadow blocks.
            let pool = heap.pool();
            (0..48u64)
                .map(|a| pool.raw_load(base.word() + a))
                .collect::<Vec<u64>>()
        };
        let reference = final_state(Algo::ALL[0]);
        for &algo in &Algo::ALL[1..] {
            prop_assert_eq!(
                &reference,
                &final_state(algo),
                "{:?} diverged from {:?} under {:?}",
                algo,
                Algo::ALL[0],
                domain
            );
        }
    }
}
