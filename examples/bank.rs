//! Concurrent bank transfers with a mid-flight power failure.
//!
//! ```text
//! cargo run --example bank
//! ```
//!
//! Four worker threads transfer money between persistent accounts while
//! the main thread pulls the plug at an arbitrary moment. After reboot
//! and recovery, every transfer is either fully applied or fully undone:
//! the total balance is exactly what it started as — under both PTM
//! algorithms.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use optane_ptm::pmem_sim::{DurabilityDomain, MachineConfig};
use optane_ptm::ptm::{Algo, PtmConfig, PtmDb};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const ACCOUNTS: u64 = 64;
const INITIAL: u64 = 1_000;

fn main() {
    for algo in Algo::ALL {
        run(algo);
    }
    println!("bank OK");
}

fn run(algo: Algo) {
    let machine_cfg = MachineConfig {
        domain: DurabilityDomain::Adr,
        track_persistence: true,
        ..MachineConfig::default()
    };
    let cfg = PtmConfig::with_algo(algo);
    // One machine, one heap, one PTM (`quickstart` and `crash_recovery`
    // spell these steps out one by one).
    let db = PtmDb::create(machine_cfg.clone(), cfg.clone(), 1 << 16, 4);

    // Set up the accounts table and anchor it.
    let threads = 4;
    db.begin_run(1, u64::MAX);
    let table = {
        let mut th = db.thread(0);
        let heap = Arc::clone(db.heap());
        let table = heap.alloc(th.session_mut(), ACCOUNTS as usize);
        th.run(|tx| {
            for i in 0..ACCOUNTS {
                tx.write_at(table, i, INITIAL)?;
            }
            Ok(())
        });
        heap.set_root(th.session_mut(), 0, table);
        table
    };

    // Workers transfer money until told to stop.
    let stop = AtomicBool::new(false);
    db.begin_run(threads, u64::MAX);
    let image = std::thread::scope(|scope| {
        for tid in 0..threads {
            let (db, stop) = (&db, &stop);
            scope.spawn(move || {
                let mut th = db.thread(tid);
                let mut rng = SmallRng::seed_from_u64(tid as u64);
                while !stop.load(Ordering::Relaxed) {
                    let from = rng.gen_range(0..ACCOUNTS);
                    let to = rng.gen_range(0..ACCOUNTS);
                    let amt = rng.gen_range(1..50);
                    th.run(|tx| {
                        let f = tx.read_at(table, from)?;
                        let t = tx.read_at(table, to)?;
                        if from != to && f >= amt {
                            tx.write_at(table, from, f - amt)?;
                            tx.write_at(table, to, t + amt)?;
                        }
                        Ok(())
                    });
                }
            });
        }
        // Let the workers run, then pull the plug mid-flight. `freeze`
        // stops the world between memory operations so the failure is
        // instantaneous, exactly like a real power cut.
        std::thread::sleep(std::time::Duration::from_millis(60));
        db.machine().freeze();
        let image = db.crash(0xC0FFEE);
        stop.store(true, Ordering::Relaxed);
        db.machine().thaw();
        image
    });

    // Restart: log recovery, heap attach, restart GC — then check the
    // invariant through the recovered root, in a transaction.
    let (db2, reports) = PtmDb::reopen(&image, machine_cfg, cfg);
    let table2 = db2.heap().root_raw(0);
    let total = db2.thread(0).run(|tx| {
        let mut total = 0;
        for i in 0..ACCOUNTS {
            total += tx.read_at(table2, i)?;
        }
        Ok(total)
    });
    println!(
        "{algo:?}: after crash+recovery total = {total} (expected {}), \
         {} redo replayed / {} undo rolled back",
        ACCOUNTS * INITIAL,
        reports.recovery.redo_replayed,
        reports.recovery.undo_rolled_back
    );
    assert_eq!(total, ACCOUNTS * INITIAL, "{algo:?}: money not conserved");
}
