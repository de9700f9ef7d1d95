//! recovery_bench — restart latency vs pool size × dirtiness.
//!
//! The restart-time observability bench for the log repair + restart-GC
//! pipeline. For each `(pool_words, dirty_entries)` cell one
//! crash image is crafted — a `PtmDb`-compatible heap populated with a
//! root-reachable chain plus deliberately leaked blocks, and [`LOGS`]
//! committed-but-unretired redo logs carrying the dirty entries — and
//! restarted through `PtmDb::reopen`. Times are host wall-clock (restart
//! runs before any virtual clock exists); each point is best-of-[`REPS`].
//!
//! Output: CSV to stdout, or one JSON object per point with `--json`
//! (see [`bench::report::restart_point_json`] for the schema).
//!
//! `--quick` shrinks the grid.

use bench::args::Args;
use bench::report::restart_point_json;
use palloc::PHeap;
use pmem_sim::{CrashImage, DurabilityDomain, Machine, MachineConfig, PAddr};
use ptm::db::{PtmDb, ReopenReports, DB_HEAP_NAME};
use ptm::log::{committed_marker, TxLog, W_COUNT, W_STATE};
use ptm::PtmConfig;

/// Per-thread logs in every crafted image.
const LOGS: usize = 8;
/// Repetitions per point; the fastest is reported (restart is a latency
/// measurement — the minimum is the least noisy estimator).
const REPS: usize = 3;
/// Payload base value stored in every populated block's words.
const CHAIN_MAGIC: u64 = 0xA000_0000;

fn cfg() -> MachineConfig {
    MachineConfig::functional(DurabilityDomain::Adr)
}

/// Craft a crashed image with controlled dirtiness.
///
/// The heap (named so `PtmDb::reopen` finds it) is about one quarter
/// populated with 8-word blocks: even blocks form a chain hanging off
/// root 0 (live — the restart GC must mark them), odd blocks are left
/// unlinked (leaked — the GC must reclaim them). On top of that, `LOGS`
/// redo logs are written with `entries_per_log` committed-but-unretired
/// entries each, targeting per-log scratch blocks, so recovery has
/// `LOGS * entries_per_log` words of replay to do.
fn build_image(pool_words: usize, entries_per_log: usize) -> CrashImage {
    let m = Machine::new(cfg());
    let heap = PHeap::format(&m, DB_HEAP_NAME, pool_words, 8);
    let ptm_cfg = PtmConfig::redo();
    let mut s = m.session(0);

    let block_words = 8usize;
    let nblocks = (pool_words / 4 / (block_words + 2)).max(4);
    let mut blocks = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        blocks.push(heap.alloc(&mut s, block_words));
    }
    let mut prev: Option<PAddr> = None;
    for (i, &b) in blocks.iter().enumerate() {
        for w in 0..block_words as u64 {
            s.store(b.offset(w), CHAIN_MAGIC + i as u64);
        }
        if i % 2 == 0 {
            // Word 1 of the previous live block points at this one; the
            // conservative mark follows it.
            match prev {
                None => heap.set_root(&mut s, 0, b),
                Some(p) => s.store(p.offset(1), b.0),
            }
            prev = Some(b);
        }
    }
    for &b in &blocks {
        s.persist_range(b, block_words as u64);
    }

    for t in 0..LOGS {
        let log = TxLog::create(&m, t, &ptm_cfg);
        let chunks = entries_per_log.div_ceil(block_words);
        let mut targets = Vec::with_capacity(chunks * block_words);
        for _ in 0..chunks {
            let b = heap.alloc(&mut s, block_words);
            for w in 0..block_words as u64 {
                s.store(b.offset(w), 0);
            }
            s.persist_range(b, block_words as u64);
            for w in 0..block_words as u64 {
                targets.push(b.offset(w));
            }
        }
        for (i, target) in targets.iter().enumerate().take(entries_per_log) {
            let e = log.entry_addr(i);
            log.primary.raw_store(e.word(), target.0);
            log.primary
                .raw_store(e.word() + 1, 7_000_000 + (t * entries_per_log + i) as u64);
            log.primary.persist_line_now(e.line());
        }
        log.primary.raw_store(W_COUNT, entries_per_log as u64);
        log.primary
            .raw_store(W_STATE, committed_marker(entries_per_log as u64));
        log.primary.persist_line_now(0);
    }
    drop(s);
    m.crash(42)
}

/// Reboot + recover + restart-GC the image, best-of-REPS.
fn measure(image: &CrashImage) -> ReopenReports {
    let mut best: Option<ReopenReports> = None;
    for _ in 0..REPS {
        let (_db, rep) = PtmDb::reopen(image, cfg(), PtmConfig::redo());
        if best
            .as_ref()
            .is_none_or(|b| rep.full_restart_ns < b.full_restart_ns)
        {
            best = Some(rep);
        }
    }
    best.unwrap()
}

fn main() {
    let mut args = Args::from_env();
    let quick = args.flag("--quick");
    let json = args.flag("--json");
    args.finish();
    // Dirtiness entries are per log and clamped per pool (the scratch
    // blocks must fit alongside the population). 8192 is the default log
    // capacity — the worst legal case.
    let pools: &[usize] = if quick {
        &[1 << 14, 1 << 18]
    } else {
        &[1 << 16, 1 << 18, 1 << 20]
    };
    let dirt: &[usize] = if quick {
        &[16, 8192]
    } else {
        &[64, 1024, 8192]
    };

    if !json {
        println!(
            "pool_words,dirty_entries,recovery_ns,gc_scan_ns,gc_mark_ns,gc_sweep_ns,\
             full_restart_ns"
        );
    }

    for &p in pools {
        for &d in dirt {
            // Clamp per-log entries so the scratch blocks fit in half
            // the pool (the other half holds the population + slack).
            let d_eff = d.min(p / (2 * LOGS));
            let image = build_image(p, d_eff);
            let rep = measure(&image);
            let dirty = (d_eff * LOGS) as u64;
            if json {
                let scenario = format!("redo/adr/p{p}/d{dirty}");
                println!("{}", restart_point_json(&scenario, p as u64, dirty, &rep));
            } else {
                println!(
                    "{p},{dirty},{},{},{},{},{}",
                    rep.recovery.recovery_ns,
                    rep.gc.gc_scan_ns,
                    rep.gc.gc_mark_ns,
                    rep.gc.gc_sweep_ns,
                    rep.full_restart_ns
                );
            }
        }
    }
}
