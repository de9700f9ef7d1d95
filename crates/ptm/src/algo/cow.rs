//! Copy-on-write shadow updates (the third design point: Marathe et
//! al., *Persistent Memory Transactions*, arXiv:1804.00701).
//!
//! The first write to a cache line allocates a line-aligned *shadow*
//! line from the persistent heap and redirects that line's writes to
//! it; home locations are untouched until commit. The commit publishes
//! atomically redo-style: flush the shadow lines and a publish log of
//! `(home, shadow, mask)` records, seal with the COMMITTED marker, then
//! copy the masked words home and retire. **O(1)** fences like redo,
//! paid for with ~2x data writes (shadow + home) and an allocation per
//! dirtied line.
//!
//! Abort is cheap — home was never touched, so only the orecs are
//! restored and the shadow blocks freed. A crash leaks its shadow
//! blocks: they are unreachable from the heap roots, so the restart GC
//! reclaims them; recovery itself only replays the publish.

use pmem_sim::{PAddr, WORDS_PER_LINE};

use trace::EventKind;

use crate::access::TxAccess;
use crate::config::Algo;
use crate::log::{
    committed_marker, is_committed, marker_count, prepared_count, prepared_marker, ALGO_COW,
    STATE_IDLE, W_STATE,
};
use crate::phases::Phase;
use crate::recovery::RecoverCtx;
use crate::stats::PtmStats;
use crate::txn::TxResult;

use super::LogPolicy;

/// One dirtied home line and its shadow redirection.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CowLine {
    /// PAddr bits of the home line's first word.
    pub home: u64,
    /// PAddr bits of the (line-aligned) shadow line's first word.
    pub shadow: u64,
    /// PAddr bits of the heap block backing the shadow (freed on
    /// publish/abort; `shadow` sits line-aligned inside it).
    pub block: u64,
    /// Bit `w` set ⇔ word `w` of the line was written this transaction.
    pub mask: u64,
}

pub struct CowPolicy;

const LPW: u64 = WORDS_PER_LINE as u64;

/// Home-line base address of `addr`.
#[inline]
fn home_line(addr: PAddr) -> PAddr {
    PAddr::new(addr.pool(), addr.line() * LPW)
}

/// Return the shadow blocks to the allocator and clear the shadow
/// state. Charged to whatever phase the caller set (Speculation on
/// publish, Rollback on abort). Crashed transactions never get here —
/// their blocks are unreachable and fall to the restart GC.
fn reclaim_shadows(ax: &mut TxAccess) {
    if ax.cow_lines.is_empty() {
        return;
    }
    let n = ax.cow_lines.len() as u64;
    for i in 0..ax.cow_lines.len() {
        let block = PAddr(ax.cow_lines[i].block);
        ax.heap.free(&mut ax.s, block);
    }
    PtmStats::add(&ax.ptm.stats.shadow_lines_reclaimed, n);
    ax.cow_lines.clear();
    ax.cow_map.clear();
    ax.cow_words.clear();
}

/// Persist the shadow data and publish log, sealing under `marker`
/// (COMMITTED single-shard, PREPARED on the 2PC prepare path — same
/// flush/fence sequence either way).
fn seal_publish_log(ax: &mut TxAccess, marker: u64) {
    // Publish log: one (home, shadow, mask) record per dirtied line.
    // Marker-protected like redo — the records mean nothing until
    // the marker is durable, so no per-record checksum.
    let now = ax.s.now();
    let outer = ax.timer.switch(now, Phase::LogAppend);
    for i in 0..ax.cow_lines.len() {
        let line = ax.cow_lines[i];
        let e = ax.log.entry_addr(i);
        ax.s.store(e, line.home);
        ax.s.store(e.offset(1), line.shadow);
        ax.s.store(e.offset(2), line.mask);
    }
    let now = ax.s.now();
    ax.timer.switch(now, outer);
    // Shadow data + publish log + alloc-new blocks: flush each line
    // once, one fence for all three.
    ax.offer_fresh_blocks();
    for i in 0..ax.cow_lines.len() {
        ax.offer(PAddr(ax.cow_lines[i].shadow));
    }
    for i in 0..ax.cow_lines.len() {
        ax.offer_adjacent(ax.log.entry_addr(i));
    }
    ax.close_window();
    ax.fence();
    // As in redo, the marker is the linearization + durability point.
    ax.seal_header(ax.cow_lines.len() as u64, marker);
}

/// Publish the first `count` publish-log records: copy each record's
/// masked shadow words home, durably.
fn replay(ctx: &mut RecoverCtx<'_>, count: usize) {
    for i in 0..count {
        let (home, shadow, mask) = ctx.raw_entry(i);
        for w in 0..LPW {
            if mask & (1 << w) != 0 {
                let v = ctx.raw_load(PAddr(shadow).offset(w));
                ctx.store_persist(PAddr(home).offset(w), v);
                ctx.report.cow_words += 1;
            }
        }
    }
}

impl LogPolicy for CowPolicy {
    fn algo(&self) -> Algo {
        Algo::CowShadow
    }

    fn persistent_tag(&self) -> u64 {
        ALGO_COW
    }

    fn on_read(&self, ax: &mut TxAccess, addr: PAddr, _o: u32) -> Option<TxResult<u64>> {
        if ax.cow_lines.is_empty() {
            return None;
        }
        ax.index_cost();
        if let Some(i) = ax.cow_map.get(home_line(addr).0) {
            let line = &ax.cow_lines[i as usize];
            let w = addr.word() % LPW;
            if line.mask & (1 << w) != 0 {
                let shadow = PAddr(line.shadow);
                return Some(Ok(ax.s.load(shadow.offset(w))));
            }
        }
        // Unwritten word of a dirtied line: fall through to the
        // validated home read (home is untouched until publish).
        None
    }

    fn on_write(&self, ax: &mut TxAccess, addr: PAddr, val: u64) -> TxResult<()> {
        if ax.ptm.config.tracing {
            let o = ax.ptm.orecs.index_of(addr);
            ax.s.trace_event(EventKind::TxWrite, o as u64, addr.0);
        }
        ax.index_cost();
        let home = home_line(addr);
        let now = ax.s.now();
        let outer = ax.timer.switch(now, Phase::LogAppend);
        let idx = match ax.cow_map.get(home.0) {
            Some(i) => i as usize,
            None => {
                let i = ax.cow_lines.len();
                assert!(i < ax.log.capacity, "cow shadow set overflow ({i} lines)");
                // Two lines' worth guarantees a line-aligned window
                // regardless of the block's alignment (palloc data
                // starts one word past the block header).
                let block = ax.heap.alloc(&mut ax.s, 2 * WORDS_PER_LINE);
                let shadow = PAddr::new(block.pool(), (block.word() + LPW - 1) & !(LPW - 1));
                PtmStats::bump(&ax.ptm.stats.shadow_lines_allocated);
                ax.cow_map.insert(home.0, i as u64);
                ax.cow_lines.push(CowLine {
                    home: home.0,
                    shadow: shadow.0,
                    block: block.0,
                    mask: 0,
                });
                i
            }
        };
        let w = addr.word() % LPW;
        if ax.cow_lines[idx].mask & (1 << w) == 0 {
            ax.cow_lines[idx].mask |= 1 << w;
            ax.expect_access(addr, 1);
            // Word-granular commit-time acquisition set, like redo's
            // entry list (adjacent words stripe to different orecs).
            ax.cow_words.push(addr.0);
        }
        let shadow = PAddr(ax.cow_lines[idx].shadow);
        ax.s.store(shadow.offset(w), val);
        let now = ax.s.now();
        ax.timer.switch(now, outer);
        Ok(())
    }

    fn read_only(&self, ax: &TxAccess) -> bool {
        ax.cow_lines.is_empty() && ax.fresh_blocks.is_empty()
    }

    fn write_set_size(&self, ax: &TxAccess) -> u64 {
        ax.cow_words.len() as u64
    }

    /// Commit-time locking over the written words, like redo.
    fn pre_commit_acquire(&self, ax: &mut TxAccess) -> bool {
        ax.acquire_each(ax.cow_words.len(), |ax, i| ax.cow_words[i])
    }

    fn make_durable(&self, ax: &mut TxAccess) {
        seal_publish_log(ax, committed_marker(ax.cow_lines.len() as u64));
    }

    fn make_prepared(&self, ax: &mut TxAccess, gtid: u64) {
        seal_publish_log(ax, prepared_marker(ax.cow_lines.len() as u64, gtid));
    }

    fn commit_publish(&self, ax: &mut TxAccess, wv: u64) {
        // Copy the masked shadow words home (the algorithm's ~2x data
        // cost: every committed word is loaded from the shadow and
        // stored again at home).
        let now = ax.s.now();
        ax.timer.switch(now, Phase::Writeback);
        for i in 0..ax.cow_lines.len() {
            let line = ax.cow_lines[i];
            let (home, shadow) = (PAddr(line.home), PAddr(line.shadow));
            for w in 0..LPW {
                if line.mask & (1 << w) != 0 {
                    let v = ax.s.load(shadow.offset(w));
                    ax.s.store(home.offset(w), v);
                }
            }
            ax.offer(home);
        }
        ax.close_data_window();
        ax.fence();
        PtmStats::bump(&ax.ptm.stats.publish_fences);
        // Retire the log, then make the writes visible.
        ax.persist_state(STATE_IDLE);
        PtmStats::bump(&ax.ptm.stats.publish_fences);
        ax.release_owned_at(wv);
        // Allocator work, charged like deferred frees.
        let now = ax.s.now();
        ax.timer.switch(now, Phase::Speculation);
        reclaim_shadows(ax);
    }

    /// Cow abort: home was never touched — restore pre-lock orec
    /// versions (also correct after a post-bump validation failure:
    /// nothing was published) and return the shadow blocks.
    fn abort_rollback(&self, ax: &mut TxAccess, _wv: Option<u64>) {
        ax.release_owned_restore();
        reclaim_shadows(ax);
    }

    fn recover_apply(&self, ctx: &mut RecoverCtx<'_>) {
        let state = ctx.primary.raw_load(W_STATE);
        if is_committed(state) && !ctx.opts.skip_redo_replay {
            // A stale count would re-copy leftover publish entries from
            // reclaimed shadow lines, a corrupt one publish garbage.
            let Some(count) = ctx.sealed_count("committed", marker_count(state), "publish") else {
                return;
            };
            replay(ctx, count);
            ctx.report.cow_published += 1;
        }
        // The orphaned shadow blocks stay allocated until the restart
        // GC sweeps them (they are unreachable from the heap roots).
        ctx.retire();
    }

    fn resolve_prepared(&self, ctx: &mut RecoverCtx<'_>, committed: bool) {
        let state = ctx.primary.raw_load(W_STATE);
        if committed {
            // The coordinator decided commit: publish the masked shadow
            // words home, exactly like a committed publish log.
            let Some(count) = ctx.sealed_count("prepared", prepared_count(state), "publish") else {
                return;
            };
            replay(ctx, count);
        }
        // Presumed abort: home untouched — retiring is the rollback.
        // Either way the shadow blocks fall to the restart GC.
        ctx.retire();
    }
}
