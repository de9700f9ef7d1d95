//! A copy-on-write transaction that loses commit-time acquisition
//! returns its shadow blocks: under contention every shadow line
//! allocated is reclaimed, whether its transaction committed or not.

use palloc::PHeap;
use pmem_sim::{DurabilityDomain, Machine, MachineConfig};
use ptm::{Ptm, PtmConfig, TxThread};
use std::sync::Arc;

#[test]
fn failed_acquisitions_reclaim_their_shadow_lines() {
    let m = Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
    let heap = PHeap::format(&m, "h", 1 << 18, 4);
    let ptm = Ptm::new(PtmConfig::cow());
    let mut th = TxThread::new(Arc::clone(&ptm), Arc::clone(&heap), m.session(0));
    // Three hot words over two cache lines.
    let hot = heap.alloc(th.session_mut(), 16);
    drop(th);
    let threads = 4;
    for _round in 0..50 {
        m.begin_run(threads, u64::MAX);
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let (ptm, heap, m) = (Arc::clone(&ptm), Arc::clone(&heap), &m);
                scope.spawn(move || {
                    let mut th = TxThread::new(ptm, heap, m.session(tid));
                    for i in 0..500u64 {
                        th.run(|tx| {
                            for off in [0, 1, 8] {
                                tx.write_at(hot, off, i)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
        });
        if ptm.stats_snapshot().aborts_acquire > 0 {
            break;
        }
    }
    let s = ptm.stats_snapshot();
    assert!(s.aborts_acquire > 0, "no acquisition ever failed");
    assert_eq!(
        s.shadow_lines_allocated, s.shadow_lines_reclaimed,
        "{} acquire aborts leaked shadow lines",
        s.aborts_acquire
    );
}
