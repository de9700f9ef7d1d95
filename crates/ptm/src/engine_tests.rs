//! Engine-level tests for the transaction driver and every registered
//! algorithm policy (redo, undo, cow shadow, htm). These exercise the public
//! `TxThread`/`Tx` API only; policy-internal unit tests live next to
//! their modules.

use std::sync::Arc;

use palloc::PHeap;
use pmem_sim::{DurabilityDomain, HtmModel, Machine, MachineConfig, PAddr, PoolId};
use rand::{rngs::SmallRng, Rng, SeedableRng};

use crate::config::{Algo, FlushPlan, PtmConfig};
use crate::txn::{Abort, Ptm, TxThread};

fn setup(algo: Algo) -> (Arc<Machine>, Arc<Ptm>, Arc<PHeap>) {
    let m = Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
    let heap = PHeap::format(&m, "heap", 1 << 16, 8);
    (m.clone(), Ptm::new(PtmConfig::with_algo(algo)), heap)
}

/// Every registered algorithm — tests iterate the registry, not a
/// hand-kept list, so a fourth algorithm is covered by construction.
fn all() -> Vec<Algo> {
    Algo::ALL.to_vec()
}

#[test]
fn write_then_read_within_tx() {
    for algo in all() {
        let (m, ptm, heap) = setup(algo);
        let mut th = TxThread::new(ptm, heap.clone(), m.session(0));
        let a = heap.alloc(th.session_mut(), 4);
        let got = th.run(|tx| {
            tx.write(a, 10)?;
            tx.write(a.offset(1), 20)?;
            let x = tx.read(a)?;
            let y = tx.read(a.offset(1))?;
            Ok(x + y)
        });
        assert_eq!(got, 30, "{algo:?}");
    }
}

#[test]
fn committed_writes_visible_to_next_tx() {
    for algo in all() {
        let (m, ptm, heap) = setup(algo);
        let mut th = TxThread::new(ptm, heap.clone(), m.session(0));
        let a = heap.alloc(th.session_mut(), 4);
        th.run(|tx| tx.write(a, 55));
        let v = th.run(|tx| tx.read(a));
        assert_eq!(v, 55, "{algo:?}");
    }
}

#[test]
fn user_abort_rolls_back() {
    for algo in all() {
        let (m, ptm, heap) = setup(algo);
        let mut th = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
        let a = heap.alloc(th.session_mut(), 4);
        th.run(|tx| tx.write(a, 1));
        let mut tried = false;
        th.run(|tx| {
            if !tried {
                tried = true;
                tx.write(a, 999)?;
                return Err(Abort); // user-requested retry
            }
            Ok(())
        });
        let v = th.run(|tx| tx.read(a));
        assert_eq!(v, 1, "{algo:?}: speculative write must be undone");
        // HtmLogged takes the user abort on the hardware path.
        let s = ptm.stats_snapshot();
        assert!(s.aborts + s.htm_aborts >= 1, "{algo:?}: {s:?}");
    }
}

#[test]
fn read_only_tx_commits_without_clock_bump() {
    for algo in all() {
        let (m, ptm, heap) = setup(algo);
        let mut th = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
        let a = heap.alloc(th.session_mut(), 4);
        th.run(|tx| tx.write(a, 5));
        let before = ptm.clock.sample();
        let v = th.run(|tx| tx.read(a));
        assert_eq!(v, 5);
        assert_eq!(ptm.clock.sample(), before, "{algo:?}");
    }
}

#[test]
fn commit_is_durable_under_adr() {
    for algo in all() {
        let (m, ptm, heap) = setup(algo);
        let mut th = TxThread::new(ptm, heap.clone(), m.session(0));
        let a = heap.alloc(th.session_mut(), 4);
        th.run(|tx| tx.write(a, 77));
        if algo == Algo::HtmLogged {
            // The home writeback is deliberately unfenced — until the
            // ring retires, durability lives in the sealed back-end
            // log. Crash and recover to observe it.
            drop(th);
            let img = m.crash(0);
            let m2 = Machine::reboot(&img, MachineConfig::functional(DurabilityDomain::Adr));
            crate::recovery::recover(&m2);
            assert_eq!(m2.pool(a.pool()).raw_load(a.word()), 77, "{algo:?}");
        } else {
            // After commit, the value must be durable (in the shadow).
            assert_eq!(heap.pool().shadow().unwrap().load(a.word()), 77, "{algo:?}");
        }
    }
}

#[test]
fn alloc_in_aborted_tx_is_freed() {
    for algo in all() {
        let (m, ptm, heap) = setup(algo);
        let mut th = TxThread::new(ptm, heap.clone(), m.session(0));
        let mut first = true;
        let mut leaked = PAddr::NULL;
        th.run(|tx| {
            if first {
                first = false;
                leaked = tx.alloc(8);
                return Err(Abort);
            }
            Ok(())
        });
        assert_eq!(heap.free_blocks(), 1, "{algo:?}: aborted alloc returned");
        // And it is reusable.
        let again = heap.alloc(th.session_mut(), 8);
        assert_eq!(again, leaked);
    }
}

#[test]
fn free_in_committed_tx_is_applied() {
    for algo in all() {
        let (m, ptm, heap) = setup(algo);
        let mut th = TxThread::new(ptm, heap.clone(), m.session(0));
        let a = heap.alloc(th.session_mut(), 8);
        th.run(|tx| {
            tx.free(a);
            tx.write_at(a, 0, 0)?; // touching freed-this-tx memory is
                                   // legal until commit
            Ok(())
        });
        // The freed block is back on its size class (cow additionally
        // cycles shadow blocks through a different class, so counting
        // free blocks is not algorithm-portable — reuse is).
        let again = heap.alloc(th.session_mut(), 8);
        assert_eq!(again, a, "{algo:?}: freed block must be reusable");
    }
}

#[test]
fn conflicting_writers_serialize_counter() {
    for algo in all() {
        let (m, ptm, heap) = setup(algo);
        let mut th0 = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
        let ctr = heap.alloc(th0.session_mut(), 1);
        th0.run(|tx| tx.write(ctr, 0));
        drop(th0);
        let threads = 4;
        let per = 500;
        m.begin_run(threads, u64::MAX);
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let m = Arc::clone(&m);
                let ptm = Arc::clone(&ptm);
                let heap = Arc::clone(&heap);
                scope.spawn(move || {
                    let mut th = TxThread::new(ptm, heap, m.session(tid));
                    for _ in 0..per {
                        th.run(|tx| {
                            let v = tx.read(ctr)?;
                            tx.write(ctr, v + 1)
                        });
                    }
                });
            }
        });
        let mut th = TxThread::new(ptm.clone(), heap.clone(), {
            m.begin_run(1, u64::MAX);
            m.session(0)
        });
        let v = th.run(|tx| tx.read(ctr));
        assert_eq!(v, (threads * per) as u64, "{algo:?}: lost updates");
    }
}

#[test]
fn bank_invariant_under_concurrency() {
    for algo in all() {
        let (m, ptm, heap) = setup(algo);
        let accounts = 16u64;
        let mut th0 = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
        let table = heap.alloc(th0.session_mut(), accounts as usize);
        th0.run(|tx| {
            for i in 0..accounts {
                tx.write_at(table, i, 1_000)?;
            }
            Ok(())
        });
        drop(th0);
        let threads = 4;
        m.begin_run(threads, u64::MAX);
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let m = Arc::clone(&m);
                let ptm = Arc::clone(&ptm);
                let heap = Arc::clone(&heap);
                scope.spawn(move || {
                    let mut th = TxThread::new(ptm, heap, m.session(tid));
                    let mut rng = SmallRng::seed_from_u64(tid as u64);
                    for _ in 0..400 {
                        let from = rng.gen_range(0..accounts);
                        let to = rng.gen_range(0..accounts);
                        th.run(|tx| {
                            let f = tx.read_at(table, from)?;
                            let t = tx.read_at(table, to)?;
                            if from != to && f >= 10 {
                                tx.write_at(table, from, f - 10)?;
                                tx.write_at(table, to, t + 10)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
        });
        m.begin_run(1, u64::MAX);
        let mut th = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
        let total = th.run(|tx| {
            let mut sum = 0;
            for i in 0..accounts {
                sum += tx.read_at(table, i)?;
            }
            Ok(sum)
        });
        assert_eq!(total, accounts * 1_000, "{algo:?}: money not conserved");
    }
}

fn setup_with(cfg: PtmConfig) -> (Arc<Machine>, Arc<Ptm>, Arc<PHeap>) {
    let m = Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
    let heap = PHeap::format(&m, "heap", 1 << 16, 8);
    (m.clone(), Ptm::new(cfg), heap)
}

/// Unique (pool, line) count of a set of addresses.
fn unique_lines(addrs: &[PAddr]) -> u64 {
    let mut lines: Vec<(u32, u64)> = addrs.iter().map(|a| (a.pool().0, a.line())).collect();
    lines.sort_unstable();
    lines.dedup();
    lines.len() as u64
}

/// Satellite acceptance: under ADR with write combining, the
/// writebacks of one committed redo transaction are exactly the
/// unique dirty lines it touches — ceil(k/2) log lines (two entries
/// per line), the header line twice (COMMITTED marker + retire), and
/// each unique data line once.
#[test]
fn combined_redo_writebacks_equal_unique_dirty_lines() {
    let (m, ptm, heap) = setup_with(PtmConfig::combined(Algo::RedoLazy));
    let mut th = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
    let a = heap.alloc(th.session_mut(), 24);
    // 12 entries: 8 words of one region plus 4 of another — several
    // entries share data lines.
    let writes: Vec<PAddr> = (0..8).chain(16..20).map(|w| a.offset(w)).collect();
    let before = m.stats.snapshot();
    th.run(|tx| {
        for (i, &w) in writes.iter().enumerate() {
            tx.write(w, i as u64 + 1)?;
        }
        Ok(())
    });
    let d = m.stats.snapshot().delta_since(&before);
    let k = writes.len() as u64;
    let log_lines = crate::log::entry_lines(writes.len()) as u64;
    let data_lines = unique_lines(&writes);
    assert!(data_lines < k, "test must exercise line sharing");
    let expected = log_lines + 2 + data_lines;
    assert_eq!(
        d.clwb_writebacks, expected,
        "writebacks must equal unique dirty lines \
         (log {log_lines} + header 2 + data {data_lines})"
    );
    assert_eq!(
        d.clwbs, expected,
        "combined pipeline flushes each line once"
    );
    assert_eq!(d.clwb_batches, 2, "one batched drain per fence window");
    let s = ptm.stats_snapshot();
    // The header-line flushes (marker, retire) go direct, not through
    // the planner: only log and data lines are planned.
    assert_eq!(s.lines_planned, log_lines + data_lines);
    assert_eq!(
        s.flushes_elided,
        (k - log_lines) + (k - data_lines),
        "planner elides the duplicate log- and data-line offers"
    );
    assert_eq!(s.max_write_lines, data_lines);
}

/// Same-shape accounting for undo: the commit window flushes each
/// unique in-place data line once (the per-entry log flushes during
/// execution are the algorithm's O(W) cost and stay as-is).
#[test]
fn combined_undo_writebacks_equal_unique_dirty_lines() {
    let (m, ptm, heap) = setup_with(PtmConfig::combined(Algo::UndoEager));
    let mut th = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
    let a = heap.alloc(th.session_mut(), 16);
    let writes: Vec<PAddr> = (0..6).map(|w| a.offset(w)).collect();
    let before = m.stats.snapshot();
    th.run(|tx| {
        for (i, &w) in writes.iter().enumerate() {
            // Repeat stores: the eager_writes dedup keeps one
            // obligation per address.
            tx.write(w, i as u64)?;
            tx.write(w, i as u64 + 10)?;
        }
        Ok(())
    });
    let d = m.stats.snapshot().delta_since(&before);
    let k = writes.len() as u64;
    let data_lines = unique_lines(&writes);
    // seq header + one flush per log entry append + commit window
    // (unique data lines) + truncate.
    let expected = 1 + k + data_lines + 1;
    assert_eq!(d.clwb_writebacks, expected);
    let s = ptm.stats_snapshot();
    assert_eq!(s.lines_planned, data_lines);
    assert_eq!(s.flushes_elided, k - data_lines);
}

/// Cow shadow accounting: under ADR with write combining, a committed
/// transaction flushes each shadow line once, the publish-log lines,
/// the header line twice (marker + retire), and each home line once in
/// the publish window — and bumps exactly two publish fences.
#[test]
fn combined_cow_writebacks_count_shadow_and_home_lines() {
    let (m, ptm, heap) = setup_with(PtmConfig::combined(Algo::CowShadow));
    let mut th = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
    let a = heap.alloc(th.session_mut(), 24);
    let writes: Vec<PAddr> = (0..8).chain(16..20).map(|w| a.offset(w)).collect();
    let before = m.stats.snapshot();
    th.run(|tx| {
        for (i, &w) in writes.iter().enumerate() {
            tx.write(w, i as u64 + 1)?;
        }
        Ok(())
    });
    let d = m.stats.snapshot().delta_since(&before);
    let home_lines = unique_lines(&writes);
    let s = ptm.stats_snapshot();
    assert_eq!(s.shadow_lines_allocated, home_lines, "one shadow per line");
    assert_eq!(s.shadow_lines_reclaimed, home_lines, "reclaimed at publish");
    assert_eq!(s.publish_fences, 2, "publish + retire");
    // shadow lines + publish-log lines (one 4-word record per dirtied
    // line, two per cache line) + header twice + home lines.
    let log_lines = crate::log::entry_lines(home_lines as usize) as u64;
    let expected = home_lines + log_lines + 2 + home_lines;
    assert_eq!(
        d.clwbs, expected,
        "cow flushes shadow {home_lines} + log {log_lines} + header 2 + home {home_lines}"
    );
}

/// The combined pipeline must commit the same data as the naive one
/// while issuing strictly fewer flushes on a line-sharing write set.
/// Redo and undo only: cow is already line-granular, so combining has
/// nothing left to elide there.
#[test]
fn combined_pipeline_matches_naive_semantics_with_fewer_flushes() {
    for algo in [Algo::RedoLazy, Algo::UndoEager] {
        let run = |flush: FlushPlan| {
            let cfg = PtmConfig {
                flush,
                ..PtmConfig::with_algo(algo)
            };
            let (m, ptm, heap) = setup_with(cfg);
            let mut th = TxThread::new(ptm, heap.clone(), m.session(0));
            let a = heap.alloc(th.session_mut(), 32);
            for round in 0..4u64 {
                th.run(|tx| {
                    for w in 0..16u64 {
                        tx.write_at(a, w, round * 100 + w)?;
                    }
                    Ok(())
                });
            }
            let values: Vec<u64> = (0..16)
                .map(|w| heap.pool().shadow().unwrap().load(a.word() + w))
                .collect();
            (values, m.stats.snapshot().clwbs)
        };
        let (naive_vals, naive_clwbs) = run(FlushPlan::Batched);
        let (combined_vals, combined_clwbs) = run(FlushPlan::Combined);
        assert_eq!(naive_vals, combined_vals, "{algo:?}: divergent commits");
        assert!(
            combined_clwbs < naive_clwbs,
            "{algo:?}: combined {combined_clwbs} must flush less than naive {naive_clwbs}"
        );
    }
}

/// Under eADR the planner is bypassed entirely: no planner counters
/// move and no flush instructions are issued — the eADR arm of the
/// ablation must be unchanged by the flag.
#[test]
fn combining_is_inert_under_eadr() {
    let m = Machine::new(MachineConfig::functional(DurabilityDomain::Eadr));
    let heap = PHeap::format(&m, "heap", 1 << 16, 8);
    let ptm = Ptm::new(PtmConfig {
        flush: FlushPlan::Combined,
        ..PtmConfig::redo()
    });
    let mut th = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
    let a = heap.alloc(th.session_mut(), 16);
    th.run(|tx| {
        for w in 0..16u64 {
            tx.write_at(a, w, w)?;
        }
        Ok(())
    });
    let s = ptm.stats_snapshot();
    assert_eq!(s.lines_planned, 0);
    assert_eq!(s.flushes_elided, 0);
    assert_eq!(m.stats.snapshot().clwbs, 0);
    assert_eq!(m.stats.snapshot().clwb_batches, 0);
}

/// The duplicate-filtered read set keeps one slot per orec, so a
/// hot-stripe re-read costs O(unique orecs) at validation.
#[test]
fn read_set_is_duplicate_filtered_under_combining() {
    let (m, ptm, heap) = setup_with(PtmConfig::combined(Algo::RedoLazy));
    let mut th = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
    let a = heap.alloc(th.session_mut(), 4);
    th.run(|tx| tx.write(a, 7));
    let got = th.run(|tx| {
        let mut sum = 0;
        for _ in 0..100 {
            sum += tx.read(a)?;
        }
        // A write forces the full (non-read-only) commit path, which
        // records the read-set high-water mark.
        tx.write(a.offset(1), sum)?;
        Ok(sum)
    });
    assert_eq!(got, 700);
    let s = ptm.stats_snapshot();
    assert!(
        s.max_read_set_unique <= 2,
        "100 re-reads of one stripe must collapse to one slot, got {}",
        s.max_read_set_unique
    );
}

#[test]
fn undo_pays_more_fences_than_redo() {
    let writes = 16u64;
    let fences_for = |algo: Algo| {
        let (m, ptm, heap) = setup(algo);
        let mut th = TxThread::new(ptm, heap.clone(), m.session(0));
        let a = heap.alloc(th.session_mut(), writes as usize);
        let before = m.stats.snapshot().sfences;
        th.run(|tx| {
            for i in 0..writes {
                tx.write_at(a, i, i)?;
            }
            Ok(())
        });
        m.stats.snapshot().sfences - before
    };
    let undo = fences_for(Algo::UndoEager);
    let redo = fences_for(Algo::RedoLazy);
    let cow = fences_for(Algo::CowShadow);
    assert!(
        undo >= writes && redo <= 8 && cow <= 8,
        "undo fences {undo} (expect >= {writes}), redo {redo} and cow {cow} (expect O(1))"
    );
}

#[test]
fn elide_fences_suppresses_sfence() {
    let m = Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
    let heap = PHeap::format(&m, "heap", 1 << 14, 8);
    let cfg = PtmConfig {
        elide_fences: true,
        ..PtmConfig::undo()
    };
    let ptm = Ptm::new(cfg);
    let mut th = TxThread::new(ptm, heap.clone(), m.session(0));
    let a = heap.alloc(th.session_mut(), 8);
    let before = m.stats.snapshot();
    th.run(|tx| {
        for i in 0..8 {
            tx.write_at(a, i, i)?;
        }
        Ok(())
    });
    let after = m.stats.snapshot();
    assert_eq!(after.sfences, before.sfences, "no fences issued");
    assert!(after.clwbs > before.clwbs, "flushes still issued");
}

#[test]
fn ts_extension_salvages_reads() {
    // A transaction reads a, then another tx commits to b (raising the
    // clock), then the first reads b: without extension this aborts;
    // with it, the read set {a} revalidates and the tx commits.
    let (m, ptm, heap) = setup(Algo::RedoLazy);
    m.begin_run(2, u64::MAX);
    let mut th0 = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
    let mut th1 = TxThread::new(ptm.clone(), heap.clone(), m.session(1));
    let a = heap.alloc(th0.session_mut(), 1);
    let b = heap.alloc(th0.session_mut(), 1);
    th0.run(|tx| {
        tx.write(a, 1)?;
        tx.write(b, 2)
    });
    let before = ptm.stats_snapshot();
    let mut stage = 0;
    let got = th0.run(|tx| {
        let va = tx.read(a)?;
        if stage == 0 {
            stage = 1;
            th1.run(|tx1| {
                let vb = tx1.read(b)?;
                tx1.write(b, vb + 10)
            });
        }
        let vb = tx.read(b)?;
        Ok((va, vb))
    });
    assert_eq!(got, (1, 12));
    let after = ptm.stats_snapshot();
    assert_eq!(after.aborts, before.aborts, "extension avoided the abort");
    assert!(after.extensions > before.extensions);
}

#[test]
fn snapshot_isolation_is_really_serializable() {
    // Classic write-skew shape is prevented: two txs each read both
    // cells and write one; outcome must be serializable.
    for algo in all() {
        let (m, ptm, heap) = setup(algo);
        m.begin_run(2, u64::MAX);
        let mut th0 = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
        let a = heap.alloc(th0.session_mut(), 1);
        let b = heap.alloc(th0.session_mut(), 1);
        th0.run(|tx| {
            tx.write(a, 100)?;
            tx.write(b, 100)
        });
        drop(th0);
        std::thread::scope(|scope| {
            let m0 = Arc::clone(&m);
            let p0 = Arc::clone(&ptm);
            let h0 = Arc::clone(&heap);
            scope.spawn(move || {
                let mut th = TxThread::new(p0, h0, m0.session(0));
                th.run(|tx| {
                    let x = tx.read(a)?;
                    let y = tx.read(b)?;
                    if x + y >= 100 {
                        tx.write(a, x.saturating_sub(100))?;
                    }
                    Ok(())
                });
            });
            let m1 = Arc::clone(&m);
            let p1 = Arc::clone(&ptm);
            let h1 = Arc::clone(&heap);
            scope.spawn(move || {
                let mut th = TxThread::new(p1, h1, m1.session(1));
                th.run(|tx| {
                    let x = tx.read(a)?;
                    let y = tx.read(b)?;
                    if x + y >= 100 {
                        tx.write(b, y.saturating_sub(100))?;
                    }
                    Ok(())
                });
            });
        });
        m.begin_run(1, u64::MAX);
        let mut th = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
        let (x, y) = th.run(|tx| Ok((tx.read(a)?, tx.read(b)?)));
        // Serializable outcomes: one tx sees the other's debit.
        assert!(
            (x, y) == (0, 100) || (x, y) == (100, 0) || (x, y) == (0, 0),
            "{algo:?}: non-serializable outcome ({x},{y})"
        );
        // (0,0) happens only if one committed before the other began;
        // with sum 200 initially both guards pass, so (0,0) is also
        // serializable. What must NOT happen is a torn guard, e.g.
        // negative balances — unrepresentable here, so the assert above
        // is the full check.
    }
}

mod htm {
    use super::*;

    fn setup(domain: DurabilityDomain) -> (Arc<Machine>, Arc<Ptm>, Arc<PHeap>) {
        let m = Machine::new(MachineConfig::functional(domain));
        let heap = PHeap::format(&m, "heap", 1 << 16, 8);
        let ptm = Ptm::new(PtmConfig::htm_logged());
        (m, ptm, heap)
    }

    #[test]
    fn htm_commits_under_eadr() {
        let (m, ptm, heap) = setup(DurabilityDomain::Eadr);
        let mut th = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
        let a = heap.alloc(th.session_mut(), 4);
        th.run(|tx| {
            tx.write(a, 5)?;
            let v = tx.read(a)?;
            tx.write(a.offset(1), v * 2)
        });
        assert_eq!(th.run(|tx| tx.read(a.offset(1))), 10);
        let s = ptm.stats_snapshot();
        assert!(s.htm_commits >= 2, "hardware path used: {s:?}");
        assert_eq!(s.htm_fallbacks, 0);
        // No flushes and no log traffic on the hardware path.
        assert_eq!(m.stats.snapshot().clwbs, 0);
    }

    #[test]
    fn htm_commit_is_durable_under_eadr() {
        let (m, ptm, heap) = setup(DurabilityDomain::Eadr);
        let mut th = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
        let a = heap.alloc(th.session_mut(), 2);
        th.run(|tx| tx.write(a, 1234));
        assert!(ptm.stats_snapshot().htm_commits >= 1);
        let img = m.crash(0);
        let m2 = Machine::reboot(&img, MachineConfig::functional(DurabilityDomain::Eadr));
        crate::recovery::recover(&m2);
        assert_eq!(m2.pool(a.pool()).raw_load(a.word()), 1234);
    }

    /// A conflict fallback commits one word through its back-end ring;
    /// a later hardware commit of the same word logs nothing. Were the
    /// fallback's sealed entry still in the ring, recovery would replay
    /// the stale value over the hardware commit's.
    #[test]
    fn fallback_ring_entry_never_replays_over_a_later_hardware_commit() {
        for domain in [
            DurabilityDomain::Eadr,
            DurabilityDomain::Pdram,
            DurabilityDomain::PdramLite,
        ] {
            let (m, ptm, heap) = setup(domain);
            // Two virtual threads on this one OS thread: no lag window.
            m.begin_run(2, u64::MAX);
            let mut th0 = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
            let mut th1 = TxThread::new(ptm.clone(), heap.clone(), m.session(1));
            let a = heap.alloc(th0.session_mut(), 8);
            // th1 commits to the same line inside each of th0's hardware
            // sections, so every one of them conflict-aborts.
            let mut attempt = 0;
            th0.run(|tx| {
                if attempt < crate::config::HTM_ATTEMPTS {
                    th1.run(|t| t.write(a.offset(1), attempt as u64));
                }
                attempt += 1;
                tx.write(a, 1)
            });
            let s = ptm.stats_snapshot();
            assert_eq!(s.htm_fallbacks, 1, "{domain:?}: {s:?}");
            assert_eq!(s.backend_log_bytes, 32, "{domain:?}: one ring entry");
            th1.run(|t| t.write(a, 2));
            assert_eq!(ptm.stats_snapshot().backend_log_bytes, 32);
            let img = m.crash(0);
            let m2 = Machine::reboot(&img, MachineConfig::functional(domain));
            crate::recovery::recover(&m2);
            assert_eq!(m2.pool(a.pool()).raw_load(a.word()), 2, "{domain:?}");
        }
    }

    #[test]
    fn htm_capacity_overflow_falls_back() {
        let (m, ptm, heap) = setup(DurabilityDomain::Eadr);
        let mut th = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
        let cap = m.config().htm.capacity_lines as u64;
        let wpl = pmem_sim::WORDS_PER_LINE as u64;
        let a = heap.alloc(th.session_mut(), ((cap + 4) * wpl) as usize);
        th.run(|tx| {
            // One word per line: the distinct-line footprint overflows
            // the modeled capacity.
            for i in 0..(cap + 2) {
                tx.write_at(a, i * wpl, i)?;
            }
            Ok(())
        });
        let s = ptm.stats_snapshot();
        assert!(s.htm_fallbacks >= 1, "capacity abort must fall back: {s:?}");
        assert!(s.htm_capacity_aborts >= 1, "attributed to capacity: {s:?}");
        assert_eq!(s.commits, 1);
        // Data intact via the software path.
        assert_eq!(th.run(|tx| tx.read_at(a, (cap + 1) * wpl)), cap + 1);
    }

    #[test]
    fn htm_capacity_counts_lines_not_entries() {
        // The capacity bound is the distinct-*line* footprint, not the
        // write-set entry count: twice as many word writes as the line
        // capacity, packed onto a fraction of the lines, must stay on
        // the hardware path.
        let (m, ptm, heap) = setup(DurabilityDomain::Eadr);
        let mut th = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
        let words = 2 * m.config().htm.capacity_lines as u64;
        let a = heap.alloc(th.session_mut(), words as usize);
        th.run(|tx| {
            for i in 0..words {
                tx.write_at(a, i, i)?;
            }
            Ok(())
        });
        let s = ptm.stats_snapshot();
        assert_eq!(s.htm_capacity_aborts, 0, "dense lines fit: {s:?}");
        assert_eq!(s.htm_fallbacks, 0);
        assert!(s.htm_commits >= 1, "stayed on the hardware path: {s:?}");
        assert_eq!(th.run(|tx| tx.read_at(a, words - 1)), words - 1);
    }

    #[test]
    fn hybrid_counter_is_exact_under_concurrency() {
        let (m, ptm, heap) = setup(DurabilityDomain::Eadr);
        let mut th0 = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
        let ctr = heap.alloc(th0.session_mut(), 1);
        th0.run(|tx| tx.write(ctr, 0));
        drop(th0);
        let threads = 4;
        let per = 400;
        m.begin_run(threads, u64::MAX);
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let m = Arc::clone(&m);
                let ptm = Arc::clone(&ptm);
                let heap = Arc::clone(&heap);
                scope.spawn(move || {
                    let mut th = TxThread::new(ptm, heap, m.session(tid));
                    for _ in 0..per {
                        th.run(|tx| {
                            let v = tx.read(ctr)?;
                            tx.write(ctr, v + 1)
                        });
                    }
                });
            }
        });
        m.begin_run(1, u64::MAX);
        let mut th = TxThread::new(ptm.clone(), heap, m.session(0));
        assert_eq!(th.run(|tx| tx.read(ctr)), (threads * per) as u64);
        let s = ptm.stats_snapshot();
        assert!(s.htm_commits > 0, "some hardware commits expected: {s:?}");
    }

    #[test]
    fn htm_mixes_safely_with_software_writers() {
        // Two threads mix hardware commits and conflict fallbacks on
        // overlapping data; the sum invariant must hold.
        let m = Machine::new(MachineConfig::functional(DurabilityDomain::Eadr));
        let heap = PHeap::format(&m, "heap", 1 << 16, 8);
        let hybrid = Ptm::new(PtmConfig::htm_logged());
        let mut th0 = TxThread::new(hybrid.clone(), heap.clone(), m.session(0));
        let cells = heap.alloc(th0.session_mut(), 8);
        th0.run(|tx| {
            for i in 0..8 {
                tx.write_at(cells, i, 100)?;
            }
            Ok(())
        });
        drop(th0);
        m.begin_run(2, u64::MAX);
        std::thread::scope(|scope| {
            // Both threads share one Ptm (same orecs/clock); run()
            // picks the hardware or software path per attempt.
            let m0 = Arc::clone(&m);
            let p0 = Arc::clone(&hybrid);
            let h0 = Arc::clone(&heap);
            scope.spawn(move || {
                let mut th = TxThread::new(p0, h0, m0.session(0));
                for i in 0..500u64 {
                    th.run(|tx| {
                        let a = i % 8;
                        let b = (i + 3) % 8;
                        let va = tx.read_at(cells, a)?;
                        let vb = tx.read_at(cells, b)?;
                        if a != b && va > 0 {
                            tx.write_at(cells, a, va - 1)?;
                            tx.write_at(cells, b, vb + 1)?;
                        }
                        Ok(())
                    });
                }
            });
            let m1 = Arc::clone(&m);
            let p1 = Arc::clone(&hybrid);
            let h1 = Arc::clone(&heap);
            scope.spawn(move || {
                let mut th = TxThread::new(p1, h1, m1.session(1));
                for i in 0..500u64 {
                    th.run(|tx| {
                        let a = (i + 5) % 8;
                        let b = i % 8;
                        let va = tx.read_at(cells, a)?;
                        let vb = tx.read_at(cells, b)?;
                        if a != b && va > 0 {
                            tx.write_at(cells, a, va - 1)?;
                            tx.write_at(cells, b, vb + 1)?;
                        }
                        Ok(())
                    });
                }
            });
        });
        m.begin_run(1, u64::MAX);
        let mut th = TxThread::new(hybrid, heap, m.session(0));
        let sum = th.run(|tx| {
            let mut s = 0;
            for i in 0..8 {
                s += tx.read_at(cells, i)?;
            }
            Ok(s)
        });
        assert_eq!(sum, 800, "transfers must conserve");
    }
}

/// One line per run: the final virtual time and every nonzero counter
/// of the three layers' snapshots.
fn virtual_signature(m: &Machine, ptm: &Ptm, now: u64) -> String {
    fn nonzero<const N: usize>(fields: [trace::counters::Field; N]) -> String {
        let cells: Vec<String> = fields
            .iter()
            .filter(|f| f.value != 0)
            .map(|f| format!("{}={}", f.name, f.value))
            .collect();
        cells.join(" ")
    }
    format!(
        "now={now} | {} | phases={:?} | {}",
        nonzero(ptm.stats_snapshot().fields()),
        ptm.phases_snapshot().ns,
        nonzero(m.stats.snapshot().fields()),
    )
}

/// The commit-path prefetch hint (`TxAccess::expect_access` from a
/// buffered write) is host-only. One seeded stream of blind writes,
/// read-modify-writes, re-writes, reads, allocations and frees per
/// hinted policy, under the default latency model and ADR: every
/// virtual statistic must equal the value recorded at the commit before
/// the hint existed — since the orec index stripes by line (its read-set
/// dedup moves `now` and the validation phase), the value of a build of
/// that index with every `expect_read` and `expect_access` call removed.
#[test]
fn commit_write_hint_moves_no_virtual_statistic() {
    let pinned = [
        (
            Algo::RedoLazy,
            "now=733431 | \
             commits=400 max_write_entries=11 | \
             phases=[134394, 13557, 407490, 52356, 37444, 88064, 0, 0] | \
             loads=1390 stores=8532 l3_hits=9385 l3_misses=537 clwbs=4335 clwb_writebacks=4335 sfences=1568 optane_lines_written=4335 fence_wait_ns=5316",
        ),
        (
            Algo::CowShadow,
            "now=1012343 | \
             commits=400 shadow_lines_allocated=2235 shadow_lines_reclaimed=2235 publish_fences=784 | \
             phases=[142433, 31824, 616264, 51328, 37444, 132924, 0, 0] | \
             loads=3636 stores=17453 l3_hits=20530 l3_misses=559 clwbs=6556 clwb_writebacks=6556 sfences=1568 optane_lines_written=6556 fence_wait_ns=4288",
        ),
        (
            Algo::HtmLogged,
            "now=675452 | \
             commits=400 htm_commits=400 htm_logged_commits=400 backend_log_bytes=71776 max_write_entries=11 | \
             phases=[113806, 52138, 379108, 25674, 16536, 88064, 0, 0] | \
             loads=1450 stores=12720 l3_hits=13572 l3_misses=598 clwbs=4174 clwb_writebacks=4108 sfences=875 optane_lines_written=4108 fence_wait_ns=1134",
        ),
    ];
    for (algo, want) in pinned {
        let m = Machine::new(MachineConfig::default());
        let heap = PHeap::format(&m, "heap", 1 << 16, 8);
        let ptm = Ptm::new(PtmConfig::with_algo(algo));
        let mut th = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
        let words = 1 << 12;
        let base = heap.alloc(th.session_mut(), words);
        let mut rng = SmallRng::seed_from_u64(0x21);
        let mut spare = PAddr::NULL;
        for _ in 0..400 {
            let blind = rng.gen_range(0..6u64);
            let rmw = rng.gen_range(0..4u64);
            let picks: Vec<u64> = (0..blind + 2 * rmw + 2)
                .map(|_| rng.gen_range(0..words as u64))
                .collect();
            let cycle_block = rng.gen_range(0..8u32) == 0;
            th.run(|tx| {
                let mut p = picks.iter().map(|&w| base.offset(w));
                for _ in 0..blind {
                    tx.write(p.next().unwrap(), 7)?;
                }
                for _ in 0..rmw {
                    let (from, to) = (p.next().unwrap(), p.next().unwrap());
                    let v = tx.read(from)?;
                    tx.write(to, v + 1)?;
                    tx.write(from, v)?;
                }
                let (a, b) = (p.next().unwrap(), p.next().unwrap());
                let sum = tx.read(a)? + tx.read(b)?;
                if cycle_block {
                    if !spare.is_null() {
                        tx.free(spare);
                    }
                    spare = tx.alloc_zeroed(12);
                    tx.write(spare, sum)?;
                }
                Ok(())
            });
        }
        let now = th.session_mut().now();
        drop(th);
        assert_eq!(virtual_signature(&m, &ptm, now), want, "{algo:?}");
    }
}

/// The contended orec paths the 1-thread goldens never reach: the lock
/// spin, timestamp extension at encounter time and every failure arm.
/// Two virtual threads on this one OS thread, 20 rounds per algorithm,
/// each round in two steps.
///
/// 1. `th1` writes `a` and, still inside its transaction, runs `th0`,
///    which reads `a`, then (retried) writes it, then commits empty.
///    Under encounter-time locking `th1` holds `a`'s stripe throughout:
///    a read-locked abort, then an acquire abort.
/// 2. `th0` reads `b`; inside its first attempt `th1` commits `d` (and
///    `b` on odd rounds); `th0` then writes `d` blind. Undo extends at
///    the write (fails on odd rounds: acquire abort); redo and cow fail
///    commit-time validation on odd rounds.
///
/// The final clocks, every counter and the phase totals are pinned. The
/// protocol's counts are the values it produced before its loops were
/// merged; the clocks, phases and `fence_wait_ns` were re-recorded once
/// the bandwidth servers served in virtual-time order, because the two
/// sessions' clocks are not kept in step here (`bw_late` counts the
/// requests one made behind the other's bookings).
#[test]
fn contended_orec_paths_keep_their_signature() {
    let pinned = [
        (
            Algo::UndoEager,
            "th1 now=31467 | now=32637 | \
             commits=80 aborts=50 aborts_read_locked=20 aborts_acquire=30 extensions=10 max_write_entries=2 max_backoff_ns=395 | \
             phases=[11111, 3918, 24440, 13036, 520, 0, 0, 10953] | \
             loads=100 stores=400 l3_hits=493 l3_misses=7 clwbs=260 clwb_writebacks=260 sfences=250 optane_lines_written=260 fence_wait_ns=5536 bw_late=70",
        ),
        (
            Algo::RedoLazy,
            "th1 now=23601 | now=22445 | \
             commits=80 aborts=10 aborts_validation=10 max_write_entries=2 max_backoff_ns=193 | \
             phases=[2662, 1956, 23500, 14159, 1600, 459, 40, 1544] | \
             loads=50 stores=410 l3_hits=453 l3_misses=7 clwbs=250 clwb_writebacks=250 sfences=240 optane_lines_written=250 fence_wait_ns=6959 bw_late=81",
        ),
        (
            Algo::CowShadow,
            "th1 now=32221 | now=24245 | \
             commits=80 aborts=10 aborts_validation=10 shadow_lines_allocated=80 shadow_lines_reclaimed=80 publish_fences=120 max_backoff_ns=193 | \
             phases=[3446, 3262, 30080, 14489, 1600, 1859, 60, 1544] | \
             loads=120 stores=698 l3_hits=807 l3_misses=11 clwbs=320 clwb_writebacks=320 sfences=240 optane_lines_written=320 fence_wait_ns=7289 bw_late=103",
        ),
    ];
    for (algo, want) in pinned {
        let m = Machine::new(MachineConfig::default());
        let heap = PHeap::format(&m, "heap", 1 << 16, 8);
        let ptm = Ptm::new(PtmConfig::with_algo(algo));
        m.begin_run(2, u64::MAX);
        let mut th0 = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
        let mut th1 = TxThread::new(ptm.clone(), heap.clone(), m.session(1));
        let cells = heap.alloc(th0.session_mut(), 64);
        let (a, b, d) = (cells, cells.offset(24), cells.offset(48));
        let stripes: Vec<u32> = [a, b, d].iter().map(|&x| ptm.orecs.index_of(x)).collect();
        assert!(stripes[0] != stripes[1] && stripes[1] != stripes[2] && stripes[0] != stripes[2]);
        for round in 0..20u64 {
            let mut stage = 0;
            th1.run(|t1| {
                t1.write(a, round)?;
                th0.run(|t0| {
                    stage += 1;
                    match stage {
                        1 => drop(t0.read(a)?),
                        2 => t0.write(a, round + 1)?,
                        _ => {}
                    }
                    Ok(())
                });
                Ok(())
            });
            let mut first = true;
            th0.run(|t0| {
                let vb = t0.read(b)?;
                if first {
                    first = false;
                    th1.run(|t1| {
                        t1.write(d, round)?;
                        if round % 2 == 1 {
                            t1.write(b, round)?;
                        }
                        Ok(())
                    });
                }
                t0.write(d, vb + 1)
            });
        }
        let now1 = th1.session_mut().now();
        let now0 = th0.session_mut().now();
        drop((th0, th1));
        let got = format!("th1 now={now1} | {}", virtual_signature(&m, &ptm, now0));
        assert_eq!(got, want, "{algo:?}");
    }
}

/// `Tx::expect_read` takes any span and shows to no observer. The same
/// seeded stream runs twice per algorithm — once plain, once with hints
/// on the null address, a pool that does not exist, one this thread has
/// not accessed, spans crossing and past the heap's end, a freed block
/// and live rows — and the two runs must agree on the final clock, every
/// counter, the phase totals, the trace, the crash sites counted and the
/// last read set. The hardware arm runs under an 8-line footprint bound
/// that one hinted span would overflow if a hint were tracked as a read.
#[test]
fn read_hint_on_any_span_leaves_every_observer_unchanged() {
    let run = |algo: Algo, hinted: bool| {
        let m = Machine::new(MachineConfig {
            htm: HtmModel { capacity_lines: 8 },
            ..MachineConfig::default()
        });
        let sink = trace::TraceSink::new(1 << 14);
        m.attach_tracer(Arc::clone(&sink));
        let inj = pmem_sim::CrashInjector::count_only();
        m.arm_injector(Arc::clone(&inj));
        let heap = PHeap::format(&m, "heap", 1 << 12, 8);
        let unused = m.alloc_pool("unused", 64, pmem_sim::MediaKind::Optane);
        let ptm = Ptm::new(PtmConfig {
            tracing: true,
            ..PtmConfig::with_algo(algo)
        });
        let mut th = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
        let rows = heap.alloc(th.session_mut(), 256);
        let freed = th.run(|tx| Ok(tx.alloc(12)));
        th.run(|tx| {
            tx.free(freed);
            Ok(())
        });
        let pool = rows.pool();
        let end = m.pool(pool).len_words() as u64;
        let mut rng = SmallRng::seed_from_u64(0x22);
        for _ in 0..60 {
            let (a, b) = (rng.gen_range(0..250u64), rng.gen_range(0..250u64));
            th.run(|tx| {
                if hinted {
                    tx.expect_read(PAddr::NULL, 1 << 20);
                    tx.expect_read(PAddr::new(PoolId(977), 5), 3);
                    tx.expect_read(unused.addr(0), 64);
                    tx.expect_read(PAddr::new(pool, end - 3), 10);
                    tx.expect_read(PAddr::new(pool, end), u64::MAX);
                    tx.expect_read(PAddr::new(pool, (1 << 40) - 1), u64::MAX);
                    tx.expect_read(freed, 12);
                    tx.expect_read(rows, 256);
                    tx.expect_read(rows.offset(a), 3);
                }
                let v = tx.read_at(rows, a)? + tx.read_at(rows, a + 2)?;
                if hinted {
                    tx.expect_read(rows.offset(b), 0);
                    tx.expect_read(rows.offset(b), 1);
                }
                tx.write_at(rows, b, v + 1)
            });
        }
        let now = th.session_mut().now();
        let last_reads = th.ax.read_set.clone();
        drop(th);
        (
            virtual_signature(&m, &ptm, now),
            sink.threads(),
            inj.sites_counted(),
            last_reads,
        )
    };
    for algo in all() {
        let plain = run(algo, false);
        assert!(plain.2 > 0 && !plain.1.is_empty(), "observers are live");
        if algo == Algo::HtmLogged {
            assert!(plain.0.contains("commits=62 htm_commits=62"), "{}", plain.0);
        }
        assert_eq!(run(algo, true), plain, "{algo:?}");
    }
}
