//! Per-thread timed access to the simulated machine.
//!
//! A [`MemSession`] charges every access's modeled latency to the thread's
//! virtual clock, routes misses and writebacks through the shared
//! bandwidth servers, and maintains the `clwb`/`sfence` state machine that
//! the ADR durability domain requires:
//!
//! * `store` updates the cache-visible value (and dirties the L3 line);
//! * `clwb` issues an asynchronous writeback of a dirty line toward the
//!   WPQ, recording its completion time (and, when persistence tracking is
//!   on, snapshotting the flushed values);
//! * `sfence` waits for the thread's outstanding flushes and then — under
//!   ADR — commits the snapshots to the durable shadow (through each
//!   pool's durability journal, see [`crate::pool::MediaShadow`]).
//!
//! Under eADR and the PDRAM domains, `clwb`/`sfence` are free no-ops and
//! stores are durable once cache-visible; PDRAM additionally serves
//! Optane-backed pools at DRAM latency while charging asynchronous
//! writeback traffic against the Optane write path (stalling only when the
//! backlog bound is exceeded — the paper's WPQ-saturation wall).

use std::collections::HashSet;
use std::sync::Arc;

use crate::bandwidth::{BwServer, Grant, Served};
use crate::cache::{line_key, Access};
use crate::clock::ClockHandle;
use crate::domain::DurabilityDomain;
use crate::inject::SiteKind;
use crate::machine::{Machine, HTM_BEGIN_NS, HTM_COMMIT_NS};
use crate::pool::{JournalEntry, MediaKind, PAddr, PmemPool, PoolId};
use crate::stats::{bump, StatsShard};
use crate::WORDS_PER_LINE;

/// A line pending durability: flushed by `clwb`, committed by `sfence`.
struct PendingFlush {
    pool: PoolId,
    /// The line's contents and capture epoch, taken at `clwb` time.
    snapshot: JournalEntry,
}

/// Per-thread access handle. Not `Sync`; create one per virtual thread.
///
/// Everything an access touches is either owned by the session (clock,
/// counters, pool handles, scratch) or read-only (`machine`'s config),
/// except what the model itself shares between threads: the L3 tag
/// array, the bandwidth servers and the pools' words.
pub struct MemSession {
    machine: Arc<Machine>,
    tid: usize,
    clock: ClockHandle,
    /// This session's counters (see [`crate::stats`]): it is the only
    /// writer; the machine folds them into its totals when it drops.
    stats: Arc<StatsShard>,
    /// Pool-id-indexed cache of pool handles (append-only registry);
    /// [`Self::resolve`] lends pools out of it.
    pool_cache: Vec<Option<Arc<PmemPool>>>,
    pending: Vec<PendingFlush>,
    /// WPQ-acceptance time of this thread's latest outstanding flush.
    /// ADR guarantees stores once they reach the memory controller's
    /// queues, so `sfence` waits for queue acceptance — the drain to
    /// media is asynchronous (its saturation is modeled by the
    /// backlog-bound stalls at `clwb` time).
    last_flush_accept: u64,
    /// Flight-recorder ring, captured from the machine's attached tracer
    /// at construction (None when tracing is off — the common case — so
    /// every record site is a single branch on an owned Option). The
    /// ring is submitted back to the sink when the session drops.
    ring: Option<(Arc<trace::TraceSink>, trace::TraceRing)>,
    /// Inside a hardware-transactional section ([`Self::htm_begin`] ..
    /// commit/abort). Flush/fence instructions are illegal in a section
    /// (they abort real HTM — the paper's §V TSX observation); debug
    /// builds assert it.
    htm_active: bool,
    /// Conflict serial sampled at `xbegin`.
    htm_start_serial: u64,
    /// Line-granular footprint of the current section (reads + writes).
    htm_footprint: HashSet<u64>,
    /// Write subset of the footprint: the lines published at `xend`.
    htm_writes: HashSet<u64>,
    /// [`Self::clwb_batch`] scratch, kept for its capacity: per-bank
    /// sequence counters and the `(round, bank, line)` schedule.
    batch_seq: Vec<u32>,
    batch_order: Vec<(u32, u32, PAddr)>,
}

impl MemSession {
    pub(crate) fn new(machine: Arc<Machine>, tid: usize, clock: ClockHandle) -> Self {
        let ring = machine.tracer().map(|sink| {
            let ring = sink.ring();
            (sink, ring)
        });
        let stats = machine.stats.register();
        MemSession {
            machine,
            tid,
            clock,
            stats,
            pool_cache: Vec::new(),
            pending: Vec::new(),
            last_flush_accept: 0,
            ring,
            htm_active: false,
            htm_start_serial: 0,
            htm_footprint: HashSet::new(),
            htm_writes: HashSet::new(),
            batch_seq: Vec::new(),
            batch_order: Vec::new(),
        }
    }

    // ---- hardware transactional memory -------------------------------

    /// Begin a hardware-transactional section (`xbegin`): charges the
    /// begin cost and samples the machine's conflict serial. Sections do
    /// not nest.
    pub fn htm_begin(&mut self) {
        debug_assert!(!self.htm_active, "hardware sections do not nest");
        self.htm_active = true;
        self.htm_start_serial = self.machine.htm_serial_now();
        self.htm_footprint.clear();
        self.htm_writes.clear();
        self.clock.advance(HTM_BEGIN_NS);
    }

    /// Whether a hardware section is currently open.
    #[inline]
    pub fn htm_in_section(&self) -> bool {
        self.htm_active
    }

    /// Track a read inside the section at line granularity. `false`
    /// means the footprint exceeded the modeled capacity — the caller
    /// must abort the section (capacity abort).
    #[inline]
    pub fn htm_track_read(&mut self, addr: PAddr) -> bool {
        debug_assert!(self.htm_active, "htm_track_read outside a section");
        self.htm_footprint
            .insert(line_key(addr.pool().0, addr.line()));
        self.htm_footprint.len() <= self.machine.config().htm.capacity_lines
    }

    /// Track a (buffered) write inside the section at line granularity;
    /// write lines are also part of the read/write footprint. `false` is
    /// a capacity abort, as for [`Self::htm_track_read`].
    #[inline]
    pub fn htm_track_write(&mut self, addr: PAddr) -> bool {
        debug_assert!(self.htm_active, "htm_track_write outside a section");
        let key = line_key(addr.pool().0, addr.line());
        self.htm_footprint.insert(key);
        self.htm_writes.insert(key);
        self.htm_footprint.len() <= self.machine.config().htm.capacity_lines
    }

    /// Current line-granular footprint of the open section.
    #[inline]
    pub fn htm_footprint_lines(&self) -> usize {
        self.htm_footprint.len()
    }

    /// End the section with a conflict check (`xend`): charges the
    /// commit cost; atomically verifies no concurrent committer
    /// published a line of this section's footprint since `xbegin`, and
    /// publishes this section's write lines. `false` = conflict abort
    /// (nothing published). Either way the section is closed.
    pub fn htm_commit(&mut self) -> bool {
        debug_assert!(self.htm_active, "htm_commit outside a section");
        self.clock.advance(HTM_COMMIT_NS);
        let ok = self.machine.htm_try_commit(
            self.htm_start_serial,
            &self.htm_footprint,
            &self.htm_writes,
        );
        self.htm_close();
        ok
    }

    /// End the section without a conflict check or publication: the
    /// read-only retire, for callers whose per-read validation already
    /// guarantees a consistent snapshot as of the start timestamp.
    /// Charges the commit cost.
    pub fn htm_commit_readonly(&mut self) {
        debug_assert!(self.htm_active, "htm_commit_readonly outside a section");
        self.clock.advance(HTM_COMMIT_NS);
        self.htm_close();
    }

    /// Abort the section (`xabort` or an internal conflict/capacity
    /// event): discards tracking state, publishes nothing, charges
    /// nothing beyond what the section already paid.
    pub fn htm_abort(&mut self) {
        self.htm_close();
    }

    fn htm_close(&mut self) {
        self.htm_active = false;
        self.htm_footprint.clear();
        self.htm_writes.clear();
    }

    /// Publish committed lines on behalf of a software (non-HTM) commit
    /// so overlapping open sections conflict-abort against it. Call
    /// while the commit still excludes racing readers (e.g. before
    /// releasing its write locks).
    pub fn htm_publish_lines(&mut self, lines: impl IntoIterator<Item = PAddr>) {
        self.machine
            .htm_publish(lines.into_iter().map(|a| line_key(a.pool().0, a.line())));
    }

    /// Record a flight-recorder event at the current virtual time. A
    /// single branch when tracing is off; used by this session's own
    /// durability instrumentation and by the PTM layer for transaction
    /// lifecycle events.
    #[inline]
    pub fn trace_event(&mut self, kind: trace::EventKind, a: u64, b: u64) {
        if let Some((_, ring)) = self.ring.as_mut() {
            ring.record(self.clock.now(), kind, a, b);
        }
    }

    /// Whether this session is recording trace events (callers use this
    /// to skip computing event payloads).
    #[inline]
    pub fn tracing(&self) -> bool {
        self.ring.is_some()
    }

    /// The virtual thread id of this session.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The owning machine.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Charge `ns` of work to this thread (metadata accesses, compute).
    #[inline]
    pub fn advance(&mut self, ns: u64) {
        self.clock.advance(ns);
    }

    /// Idle this thread until virtual time `target` (open-loop drivers
    /// waiting for a request's arrival time). No-op if already past it.
    #[inline]
    pub fn advance_to(&mut self, target: u64) {
        self.clock.advance_to(target);
    }

    /// Publish the clock (call before blocking on app-level sync).
    pub fn publish_clock(&mut self) {
        self.clock.publish();
    }

    /// Mark this virtual thread finished for the run.
    pub fn finish(&mut self) {
        self.clock.finish();
    }

    /// Enter a crash-atomic section (see
    /// [`crate::clock::ClockHandle::enter_atomic`]): a simulated power
    /// failure will not land in the middle of it.
    pub fn enter_atomic(&mut self) {
        self.clock.enter_atomic();
    }

    /// Leave a crash-atomic section.
    pub fn exit_atomic(&mut self) {
        self.clock.exit_atomic();
    }

    /// Report a persistence-relevant event to the machine's crash-site
    /// injector (no-op unless one is armed). Called *before* the event's
    /// effect, so site N enumerates "crash just before event N".
    #[inline]
    fn site(&self, kind: SiteKind) {
        self.machine.note_site(kind, self.clock.in_atomic());
    }

    /// Borrow pool `id` out of the session's cache (no refcount traffic),
    /// fetching its handle from the machine on first use. The borrow
    /// holds the whole session, so helpers below take a [`PoolId`] and
    /// resolve it themselves rather than being handed the pool.
    #[inline]
    fn resolve(&mut self, id: PoolId) -> &PmemPool {
        let idx = id.0 as usize;
        if !matches!(self.pool_cache.get(idx), Some(Some(_))) {
            self.cache_pool(id);
        }
        self.pool_cache[idx]
            .as_deref()
            .expect("access to a pool the machine never allocated")
    }

    /// Fetch pool `id`'s handle into the cache; an id the machine never
    /// allocated leaves the cache as it was.
    #[cold]
    fn cache_pool(&mut self, id: PoolId) {
        if let Some(pool) = self.machine.try_pool(id) {
            let idx = id.0 as usize;
            if idx >= self.pool_cache.len() {
                self.pool_cache.resize(idx + 1, None);
            }
            self.pool_cache[idx] = Some(pool);
        }
    }

    /// Host-only hint that the `words` words from `addr` will be loaded
    /// or stored soon: prefetches the host lines those accesses will
    /// touch — per simulated line of the span, its L3 tag slot and the
    /// span's words there, at home in their pool — see
    /// [`crate::host::prefetch`]. Returns how many of the words exist.
    ///
    /// Invisible to the model (no virtual time, counter, crash site,
    /// trace event or tag-array change) and total: the part of the span
    /// past its pool's end is ignored, as is all of it (0 returned) when
    /// this session has not accessed the pool yet — the hint looks only
    /// in the session's own pool cache, so a pool id the machine never
    /// allocated costs one bounds check, never the registry's lock.
    #[inline]
    pub fn prefetch(&self, addr: PAddr, words: u64) -> u64 {
        let id = addr.pool();
        let Some(Some(pool)) = self.pool_cache.get(id.0 as usize) else {
            return 0;
        };
        let first = addr.word();
        let end = first.saturating_add(words).min(pool.len_words() as u64);
        let mut word = first;
        while word < end {
            let line = word / WORDS_PER_LINE as u64;
            let next = ((line + 1) * WORDS_PER_LINE as u64).min(end);
            self.machine.cache.prefetch(line_key(id.0, line));
            // A pool's words start where the host allocator put them (16
            // bytes into a host line for anything it maps), so a
            // simulated line straddles two host lines: the span's first
            // and last word in it reach both.
            pool.prefetch(word);
            if next - 1 != word {
                pool.prefetch(next - 1);
            }
            word = next;
        }
        end.saturating_sub(first)
    }

    /// Whether accesses to pool `id` pay Optane or DRAM latency under
    /// the active domain.
    #[inline]
    fn effective_optane(&mut self, id: PoolId) -> bool {
        let domain = self.machine.domain();
        let pool = self.resolve(id);
        pool.media_kind() == MediaKind::Optane
            && !domain.serves_at_dram_speed(pool.media_kind(), pool.class())
    }

    /// Whether writes to pool `id` generate deferred Optane writeback
    /// traffic (PDRAM / PDRAM-Lite accelerated pools).
    #[inline]
    fn pdram_writeback(&mut self, id: PoolId) -> bool {
        let domain = self.machine.domain();
        let pool = self.resolve(id);
        pool.media_kind() == MediaKind::Optane
            && domain.serves_at_dram_speed(pool.media_kind(), pool.class())
    }

    /// Charge synchronous back-pressure from an over-bound write-server
    /// backlog. One physical stall is attributed exactly once: to
    /// `wpq_stall_ns` (with a `WpqStall` trace event) when the write
    /// landed on the Optane path, otherwise to `dram_write_stall_ns` —
    /// so the WPQ counter and the trace-derived stall total both mean
    /// exactly "Optane write-pending-queue pressure" and always agree.
    fn backpressure(&mut self, optane: bool, backlog: u64, bound: u64) {
        if backlog <= bound {
            return;
        }
        let stall = backlog - bound;
        if optane {
            bump(&self.stats.wpq_stall_ns, stall);
            self.trace_event(trace::EventKind::WpqStall, stall, backlog);
        } else {
            bump(&self.stats.dram_write_stall_ns, stall);
        }
        self.clock.advance(stall);
    }

    /// Submit `service_ns` to `server` at this thread's `now`, counting a
    /// request the server could not serve in virtual-time order.
    fn book(&self, server: &BwServer, service_ns: u64) -> Grant {
        let g = server.request(self.now(), service_ns);
        match g.served {
            Served::InOrder => {}
            Served::Late => bump(&self.stats.bw_late, 1),
            Served::HorizonMiss => bump(&self.stats.bw_horizon_misses, 1),
        }
        g
    }

    /// Persist a displaced dirty line's contents. MUST run synchronously
    /// with the cache-slot replacement, before any clock advance: an
    /// advance is a freeze/crash park point, and a crash landing between
    /// the slot replacement and this persist would lose data that a
    /// concurrent thread's `clwb` (correctly) skipped because the line
    /// had already left the cache.
    fn persist_victim(&mut self, victim_key: u64) {
        if self.machine.tracking() && self.machine.domain() == DurabilityDomain::Adr {
            let pool_id = PoolId((victim_key >> 44) as u32);
            let line = victim_key & ((1 << 44) - 1);
            self.resolve(pool_id).persist_line_now(line);
        }
    }

    /// Charge a displaced dirty line's writeback to the appropriate
    /// bandwidth server (timing only; durability handled by
    /// [`Self::persist_victim`]).
    fn writeback_victim(&mut self, victim_key: u64) {
        let pool_id = PoolId((victim_key >> 44) as u32);
        // A PDRAM-accelerated pool's L3 victims land in the DRAM cache.
        let optane = self.effective_optane(pool_id);
        let m = self.machine.model();
        let g = self.book(
            self.machine.servers.write_for(optane, victim_key),
            m.write_line_ns(optane),
        );
        bump(&self.stats.evictions, 1);
        if optane {
            bump(&self.stats.optane_lines_written, 1);
        } else {
            bump(&self.stats.dram_lines_written, 1);
        }
        // Evictions are asynchronous: the thread only stalls when the
        // write server's backlog bound is exceeded.
        let bound = m.wpq_backlog_ns();
        self.backpressure(optane, g.backlog, bound);
    }

    fn miss_fill(&mut self, pool: PoolId, key: u64, dirty_victim: Option<u64>, rfo: bool) {
        // Durability of the displaced line first — before any advance
        // (park point). See `persist_victim`.
        if let Some(v) = dirty_victim {
            self.site(SiteKind::Eviction);
            self.persist_victim(v);
        }
        // For PDRAM-accelerated pools the L3 miss goes through the DRAM
        // cache of Optane pages: a hit there is a DRAM access, a miss pays
        // Optane latency while the page is pulled in (Fig. 8's
        // working-set-exceeds-DRAM regime).
        let optane = if self.pdram_writeback(pool) {
            match self.machine.dram_cache.access(key, rfo) {
                Access::Hit => false,
                Access::Miss { .. } => true,
            }
        } else {
            self.effective_optane(pool)
        };
        let m = self.machine.model();
        // Bandwidth queueing on the read path...
        let g = self.book(
            self.machine.servers.read_for(optane),
            m.read_line_ns(optane),
        );
        self.clock.advance_to(g.finish);
        // ...plus the media access latency itself.
        let mut lat = m.load_miss_ns(optane);
        if rfo {
            lat += m.store_rfo_extra_ns;
        }
        self.clock.advance(lat);
        bump(&self.stats.l3_misses, 1);
        if let Some(v) = dirty_victim {
            self.writeback_victim(v);
        }
    }

    /// Timed 64-bit load.
    pub fn load(&mut self, addr: PAddr) -> u64 {
        let key = line_key(addr.pool().0, addr.line());
        bump(&self.stats.loads, 1);
        match self.machine.cache.access(key, false) {
            Access::Hit => {
                self.clock.advance(self.machine.model().l3_hit_ns);
                bump(&self.stats.l3_hits, 1);
            }
            Access::Miss { dirty_victim } => {
                self.miss_fill(addr.pool(), key, dirty_victim, false);
            }
        }
        self.resolve(addr.pool()).raw_load(addr.word())
    }

    /// Timed 64-bit store (becomes durable according to the domain rules).
    pub fn store(&mut self, addr: PAddr, value: u64) {
        self.site(SiteKind::Store);
        let key = line_key(addr.pool().0, addr.line());
        bump(&self.stats.stores, 1);
        match self.machine.cache.access(key, true) {
            Access::Hit => {
                self.clock.advance(self.machine.model().store_hit_ns);
                bump(&self.stats.l3_hits, 1);
            }
            Access::Miss { dirty_victim } => {
                self.miss_fill(addr.pool(), key, dirty_victim, true);
                // Creating a new dirty line under PDRAM schedules deferred
                // Optane writeback traffic.
                if self.pdram_writeback(addr.pool()) {
                    let m = self.machine.model();
                    let g = self.book(
                        self.machine.servers.write_for(true, key),
                        m.optane_write_line_ns,
                    );
                    bump(&self.stats.optane_lines_written, 1);
                    let bound = m.pdram_backlog_ns();
                    self.backpressure(true, g.backlog, bound);
                }
            }
        }
        self.resolve(addr.pool()).raw_store(addr.word(), value);
    }

    /// Timed `clwb` of the line containing `addr`.
    ///
    /// Free under eADR-class domains (the PTM elides the instruction; the
    /// session also guards so callers need not special-case).
    pub fn clwb(&mut self, addr: PAddr) {
        if !self.machine.domain().requires_flushes() {
            return;
        }
        debug_assert!(
            !self.htm_active,
            "clwb inside a hardware section would abort it"
        );
        self.site(SiteKind::Clwb);
        let key = line_key(addr.pool().0, addr.line());
        let optane = self.effective_optane(addr.pool());
        bump(&self.stats.clwbs, 1);
        let was_dirty = self.machine.cache.clwb(key);
        self.trace_event(trace::EventKind::Clwb, key, was_dirty as u64);
        // Record the durability obligation regardless of the line's dirty
        // state, and before any clock advance (a park point): a clean
        // line may have been cleaned by *another thread's* in-flight
        // `clwb` whose fence has not executed; this thread's
        // `clwb`+`sfence` must still guarantee the data (flush+fence by
        // any thread after the last store is the architectural contract).
        if self.machine.tracking() {
            let pool = self.resolve(addr.pool());
            if pool.media_kind() == MediaKind::Optane {
                let snapshot = pool.snapshot_line(addr.line());
                self.pending.push(PendingFlush {
                    pool: addr.pool(),
                    snapshot,
                });
            }
        }
        if !was_dirty {
            self.clock.advance(self.machine.model().clwb_clean_ns);
            return;
        }
        self.clock.advance(self.machine.model().clwb_ns(optane));
        bump(&self.stats.clwb_writebacks, 1);
        if optane {
            bump(&self.stats.optane_lines_written, 1);
        } else {
            bump(&self.stats.dram_lines_written, 1);
        }
        let write_ns = self.machine.model().write_line_ns(optane);
        let g = self.book(self.machine.servers.write_for(optane, key), write_ns);
        // The flush is durable once the WPQ accepts it — when its bank
        // starts serving it — not when the media write completes.
        self.site(SiteKind::WpqAccept);
        let accept = g.finish.saturating_sub(write_ns).max(self.now());
        self.last_flush_accept = self.last_flush_accept.max(accept);
        self.trace_event(trace::EventKind::WpqAccept, g.backlog, accept);
        // WPQ bound: a full queue back-pressures the flusher synchronously.
        let bound = self.machine.model().wpq_backlog_ns();
        self.backpressure(optane, g.backlog, bound);
    }

    /// Batched `clwb`: drain a planner's worth of line addresses in an
    /// order that interleaves Optane write banks.
    ///
    /// The flush planner (`ptm`'s `LineSet`) hands over one fence
    /// window's unique lines at once; issuing them round-robin across
    /// the banded write path spreads WPQ load so no single bank's
    /// backlog dominates the following `sfence` wait. The schedule is a
    /// pure function of the line keys (bank hash + arrival order), so
    /// crash-site enumeration stays deterministic: each line still goes
    /// through the ordinary [`Self::clwb`] site/state machine.
    ///
    /// Drains `lines` (leaving it empty for reuse); free under
    /// eADR-class domains.
    pub fn clwb_batch(&mut self, lines: &mut Vec<PAddr>) {
        if !self.machine.domain().requires_flushes() || lines.is_empty() {
            lines.clear();
            return;
        }
        bump(&self.stats.clwb_batches, 1);
        self.trace_event(trace::EventKind::ClwbBatch, lines.len() as u64, 0);
        if lines.len() > 1 {
            let servers = &self.machine.servers;
            let seq = &mut self.batch_seq;
            seq.clear();
            seq.resize(servers.optane_write.len(), 0);
            // Taken out of the session while `clwb` borrows it; put back
            // below for its capacity.
            let mut order = std::mem::take(&mut self.batch_order);
            order.extend(lines.drain(..).map(|a| {
                let bank = servers.optane_bank_of(line_key(a.pool().0, a.line()));
                let s = seq[bank];
                seq[bank] += 1;
                (s, bank as u32, a)
            }));
            // Unique (round, bank) pairs: round-robin one line per bank
            // per round, deterministic for a given input order.
            order.sort_unstable_by_key(|&(s, b, _)| (s, b));
            for (_, _, a) in order.drain(..) {
                self.clwb(a);
            }
            self.batch_order = order;
        } else {
            let a = lines.pop().unwrap();
            self.clwb(a);
        }
    }

    /// Timed `sfence`: waits for this thread's outstanding flushes, then
    /// commits their durability (under ADR).
    pub fn sfence(&mut self) {
        if !self.machine.domain().requires_flushes() {
            return;
        }
        debug_assert!(
            !self.htm_active,
            "sfence inside a hardware section would abort it"
        );
        self.site(SiteKind::Sfence);
        bump(&self.stats.sfences, 1);
        let now = self.now();
        let wait = self.last_flush_accept.saturating_sub(now);
        // Recorded before the wait is charged, so the event spans the
        // fence-wait interval [ts, ts+wait].
        self.trace_event(trace::EventKind::Sfence, wait, 0);
        if wait > 0 {
            bump(&self.stats.fence_wait_ns, wait);
            self.clock.advance(wait);
        }
        self.clock.advance(self.machine.model().sfence_ns);
        if self.machine.tracking() && self.machine.domain() == DurabilityDomain::Adr {
            self.journal_pending();
        } else {
            // NoPowerReserve: the WPQ may be lost; flushed lines get no
            // durability guarantee (the crash adversary decides).
            self.pending.clear();
        }
    }

    /// Each pool's pending snapshots, in flush order, go to its
    /// durability journal under one lock. Out of line: inlined into the
    /// fences, this loop made the untracked fence path slower
    /// (`tpcc_adr_1t` set-up +7.6 %, EXPERIMENTS.md "Durability journal").
    #[inline(never)]
    fn journal_pending(&mut self) {
        while let Some(first) = self.pending.first() {
            let id = first.pool;
            let pool = self.pool_cache[id.0 as usize]
                .as_deref()
                .expect("pool cached at clwb");
            pool.journal(
                self.pending
                    .iter()
                    .filter(|pf| pf.pool == id)
                    .map(|pf| &pf.snapshot),
            );
            self.pending.retain(|pf| pf.pool != id);
        }
    }

    /// Convenience: `clwb` every line covering `words` words from `addr`,
    /// then `sfence`.
    pub fn persist_range(&mut self, addr: PAddr, words: u64) {
        if !self.machine.domain().requires_flushes() {
            return;
        }
        let first = addr.line();
        let last = addr.offset(words.saturating_sub(1)).line();
        for line in first..=last {
            self.clwb(PAddr::new(addr.pool(), line * WORDS_PER_LINE as u64));
        }
        self.sfence();
    }
}

impl Drop for MemSession {
    fn drop(&mut self) {
        self.machine.stats.retire(&self.stats);
        if let Some((sink, ring)) = self.ring.take() {
            sink.submit(self.tid as u32, &ring);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::DurabilityDomain as DD;

    fn machine(domain: DD, track: bool) -> Arc<Machine> {
        Machine::new(MachineConfig {
            domain,
            track_persistence: track,
            ..MachineConfig::default()
        })
    }

    #[test]
    fn store_then_load_roundtrips() {
        let m = machine(DD::Adr, false);
        let p = m.alloc_pool("h", 64, MediaKind::Optane);
        let mut s = m.session(0);
        s.store(p.addr(3), 77);
        assert_eq!(s.load(p.addr(3)), 77);
    }

    #[test]
    fn second_access_hits_cache_and_is_cheaper() {
        let m = machine(DD::Adr, false);
        let p = m.alloc_pool("h", 64, MediaKind::Optane);
        let mut s = m.session(0);
        let t0 = s.now();
        s.load(p.addr(0));
        let miss_cost = s.now() - t0;
        let t1 = s.now();
        s.load(p.addr(1)); // same line
        let hit_cost = s.now() - t1;
        assert!(miss_cost > hit_cost, "miss {miss_cost} <= hit {hit_cost}");
        assert_eq!(hit_cost, m.model().l3_hit_ns);
    }

    #[test]
    fn optane_miss_costs_more_than_dram_miss() {
        let m = machine(DD::Adr, false);
        let po = m.alloc_pool("o", 64, MediaKind::Optane);
        let pd = m.alloc_pool("d", 64, MediaKind::Dram);
        let mut s = m.session(0);
        let t0 = s.now();
        s.load(po.addr(0));
        let optane_cost = s.now() - t0;
        let t1 = s.now();
        s.load(pd.addr(0));
        let dram_cost = s.now() - t1;
        assert!(optane_cost > 2 * dram_cost);
    }

    #[test]
    fn pdram_serves_warm_optane_at_dram_speed() {
        // Cold miss: both domains pay Optane latency (PDRAM must pull the
        // page into its DRAM cache). Warm re-miss after L3 churn: PDRAM
        // hits the DRAM cache, ADR goes back to Optane.
        let mp = machine(DD::Pdram, false);
        let ma = machine(DD::Adr, false);
        let pp = mp.alloc_pool("o", 64, MediaKind::Optane);
        let pa = ma.alloc_pool("o", 64, MediaKind::Optane);
        let mut sp = mp.session(0);
        let mut sa = ma.session(0);
        sp.load(pp.addr(0));
        sa.load(pa.addr(0));
        assert_eq!(sp.now(), sa.now(), "cold miss costs the same");
        mp.clear_l3();
        ma.clear_l3();
        let (t0p, t0a) = (sp.now(), sa.now());
        sp.load(pp.addr(0));
        sa.load(pa.addr(0));
        assert!(
            sp.now() - t0p < sa.now() - t0a,
            "warm PDRAM re-miss must be served by the DRAM cache"
        );
    }

    #[test]
    fn clwb_and_sfence_are_free_under_eadr() {
        let m = machine(DD::Eadr, false);
        let p = m.alloc_pool("h", 64, MediaKind::Optane);
        let mut s = m.session(0);
        s.store(p.addr(0), 1);
        let before = s.now();
        s.clwb(p.addr(0));
        s.sfence();
        assert_eq!(s.now(), before);
        assert_eq!(m.stats.snapshot().clwbs, 0);
    }

    #[test]
    fn clwb_of_dirty_line_then_fence_persists_under_adr() {
        let m = machine(DD::Adr, true);
        let p = m.alloc_pool("h", 64, MediaKind::Optane);
        let mut s = m.session(0);
        s.store(p.addr(0), 42);
        assert_eq!(p.shadow().unwrap().load(0), 0, "not durable before flush");
        s.clwb(p.addr(0));
        assert_eq!(p.shadow().unwrap().load(0), 0, "not durable before fence");
        s.sfence();
        assert_eq!(p.shadow().unwrap().load(0), 42, "durable after clwb+sfence");
    }

    #[test]
    fn store_without_flush_is_not_durable_under_adr() {
        let m = machine(DD::Adr, true);
        let p = m.alloc_pool("h", 64, MediaKind::Optane);
        let mut s = m.session(0);
        s.store(p.addr(0), 42);
        s.sfence(); // fence without clwb does nothing for this line
        assert_eq!(p.shadow().unwrap().load(0), 0);
    }

    #[test]
    fn clwb_snapshot_semantics() {
        // A store between clwb and sfence must not retroactively persist.
        let m = machine(DD::Adr, true);
        let p = m.alloc_pool("h", 64, MediaKind::Optane);
        let mut s = m.session(0);
        s.store(p.addr(0), 1);
        s.clwb(p.addr(0));
        s.store(p.addr(0), 2);
        s.sfence();
        assert_eq!(p.shadow().unwrap().load(0), 1);
        assert_eq!(s.load(p.addr(0)), 2);
    }

    #[test]
    fn fence_waits_for_queue_acceptance_under_backlog() {
        // Zero-cost issue path so back-to-back flushes pile onto the
        // write banks faster than they accept; the fence must then wait
        // for the last line's acceptance (but not for its media write).
        let mut model = crate::LatencyModel::zero();
        model.optane_write_line_ns = 144;
        model.optane_write_banks = 2;
        model.wpq_lines = 1 << 20; // avoid the full-WPQ stall path
        let m = Machine::new(MachineConfig {
            domain: DD::Adr,
            model,
            track_persistence: false,
            ..MachineConfig::default()
        });
        let p = m.alloc_pool("h", 1 << 12, MediaKind::Optane);
        let mut s = m.session(0);
        for i in 0..32u64 {
            s.store(p.addr(i * 8), i);
            s.clwb(p.addr(i * 8));
        }
        let before = s.now();
        s.sfence();
        let fence_cost = s.now() - before;
        assert!(fence_cost > 0, "backlogged banks must delay acceptance");
        assert!(m.stats.snapshot().fence_wait_ns > 0);
        // But the wait is for acceptance, not the full drain: strictly
        // less than the total service of all queued lines.
        assert!(fence_cost < 32 * 144);
    }

    #[test]
    fn fence_is_cheap_when_queues_are_idle() {
        let m = machine(DD::Adr, false);
        let p = m.alloc_pool("h", 1024, MediaKind::Optane);
        let mut s = m.session(0);
        s.store(p.addr(0), 1);
        s.clwb(p.addr(0));
        let before = s.now();
        s.sfence();
        let fence_cost = s.now() - before;
        // Idle WPQ: acceptance is immediate, only the base fence latency.
        assert_eq!(fence_cost, m.model().sfence_ns);
    }

    #[test]
    fn undo_style_fencing_costs_more_than_redo_style() {
        // The paper's central cost asymmetry: W writes with a fence each
        // (undo) vs W writes with one fence (redo).
        let cost_of = |fences_per_write: bool| {
            let m = machine(DD::Adr, false);
            let p = m.alloc_pool("h", 4096, MediaKind::Optane);
            let mut s = m.session(0);
            for i in 0..32u64 {
                s.store(p.addr(i * 8), i);
                s.clwb(p.addr(i * 8));
                if fences_per_write {
                    s.sfence();
                }
            }
            if !fences_per_write {
                s.sfence();
            }
            s.now()
        };
        let undo = cost_of(true);
        let redo = cost_of(false);
        assert!(undo > redo, "undo {undo} <= redo {redo}");
    }

    #[test]
    fn wpq_saturation_stalls_flushers() {
        // Zero base latency so back-to-back flushes arrive faster than the
        // write path drains; only the write service time is non-zero.
        let mut model = crate::LatencyModel::zero();
        model.optane_write_line_ns = 55;
        model.wpq_lines = 4; // tiny WPQ
        let m = Machine::new(MachineConfig {
            domain: DD::Adr,
            model,
            track_persistence: false,
            ..MachineConfig::default()
        });
        let p = m.alloc_pool("h", 1 << 16, MediaKind::Optane);
        let mut s = m.session(0);
        for i in 0..512u64 {
            s.store(p.addr(i * 8), i);
            s.clwb(p.addr(i * 8));
        }
        assert!(m.stats.snapshot().wpq_stall_ns > 0);
    }

    /// Regression: DRAM write-path back-pressure used to be charged to
    /// `wpq_stall_ns` (and emitted as a `WpqStall` trace event), so a
    /// DRAM-heavy workload appeared to be stalling on the Optane WPQ it
    /// never touched. The stall time is real — it must still advance the
    /// clock — but it belongs in `dram_write_stall_ns`.
    #[test]
    fn dram_backpressure_is_not_charged_to_the_wpq() {
        let mut model = crate::LatencyModel::zero();
        model.dram_write_line_ns = 55;
        model.wpq_lines = 4;
        let m = Machine::new(MachineConfig {
            domain: DD::Adr,
            model,
            track_persistence: false,
            ..MachineConfig::default()
        });
        let p = m.alloc_pool("h", 1 << 16, MediaKind::Dram);
        let mut s = m.session(0);
        for i in 0..512u64 {
            s.store(p.addr(i * 8), i);
            s.clwb(p.addr(i * 8));
        }
        let elapsed = s.now();
        let st = m.stats.snapshot();
        assert!(st.dram_write_stall_ns > 0, "the stall itself must remain");
        assert_eq!(st.wpq_stall_ns, 0, "no Optane line was ever written");
        assert!(
            elapsed >= st.dram_write_stall_ns,
            "stall time is clock time, not a phantom counter"
        );
    }

    /// One physical stall, one attribution: under a mixed DRAM/Optane
    /// flush storm the `WpqStall` trace events must sum to exactly the
    /// `wpq_stall_ns` counter (DRAM back-pressure emits no such event),
    /// so nothing is double-charged across the two paths.
    #[test]
    fn wpq_stall_trace_matches_counter_under_mixed_media() {
        let mut model = crate::LatencyModel::zero();
        model.optane_write_line_ns = 55;
        model.dram_write_line_ns = 40;
        model.wpq_lines = 4;
        let m = Machine::new(MachineConfig {
            domain: DD::Adr,
            model,
            track_persistence: false,
            ..MachineConfig::default()
        });
        let sink = trace::TraceSink::new(1 << 14);
        m.attach_tracer(Arc::clone(&sink));
        let po = m.alloc_pool("opt", 1 << 16, MediaKind::Optane);
        let pd = m.alloc_pool("dram", 1 << 16, MediaKind::Dram);
        {
            let mut s = m.session(0);
            for i in 0..256u64 {
                s.store(po.addr(i * 8), i);
                s.clwb(po.addr(i * 8));
                s.store(pd.addr(i * 8), i);
                s.clwb(pd.addr(i * 8));
            }
            s.sfence();
        }
        m.detach_tracer();
        let st = m.stats.snapshot();
        assert!(st.wpq_stall_ns > 0 && st.dram_write_stall_ns > 0);
        let traced: u64 = sink
            .merged()
            .iter()
            .filter(|e| e.kind == trace::EventKind::WpqStall)
            .map(|e| e.a)
            .sum();
        assert_eq!(
            traced, st.wpq_stall_ns,
            "every WpqStall event must correspond to exactly one counter charge"
        );
    }

    #[test]
    fn persist_range_covers_all_lines() {
        let m = machine(DD::Adr, true);
        let p = m.alloc_pool("h", 64, MediaKind::Optane);
        let mut s = m.session(0);
        for i in 0..24u64 {
            s.store(p.addr(i), i + 1);
        }
        s.persist_range(p.addr(0), 24);
        let shadow = p.shadow().unwrap();
        for i in 0..24u64 {
            assert_eq!(shadow.load(i), i + 1, "word {i}");
        }
    }

    #[test]
    fn eadr_store_is_durable_at_crash_time_not_in_shadow() {
        // Under eADR the shadow is not updated eagerly; durability of
        // cache-visible state is applied by the crash simulator instead.
        let m = machine(DD::Eadr, true);
        let p = m.alloc_pool("h", 64, MediaKind::Optane);
        let mut s = m.session(0);
        s.store(p.addr(0), 9);
        assert_eq!(p.shadow().unwrap().load(0), 0);
        assert!(m
            .domain()
            .preserves_cache_visible(MediaKind::Optane, crate::PersistenceClass::Normal));
    }

    #[test]
    fn clwb_batch_persists_like_individual_clwbs() {
        let m = machine(DD::Adr, true);
        let p = m.alloc_pool("h", 256, MediaKind::Optane);
        let mut s = m.session(0);
        let mut lines = Vec::new();
        for i in 0..8u64 {
            s.store(p.addr(i * 8), i + 1);
            lines.push(p.addr(i * 8));
        }
        s.clwb_batch(&mut lines);
        assert!(lines.is_empty(), "batch drains the scratch buffer");
        s.sfence();
        let st = m.stats.snapshot();
        assert_eq!(st.clwbs, 8);
        assert_eq!(st.clwb_writebacks, 8);
        assert_eq!(st.clwb_batches, 1);
        let shadow = p.shadow().unwrap();
        for i in 0..8u64 {
            assert_eq!(shadow.load(i * 8), i + 1, "line {i}");
        }
    }

    #[test]
    fn clwb_batch_is_free_under_eadr() {
        let m = machine(DD::Eadr, false);
        let p = m.alloc_pool("h", 256, MediaKind::Optane);
        let mut s = m.session(0);
        s.store(p.addr(0), 1);
        let mut lines = vec![p.addr(0), p.addr(8)];
        let before = s.now();
        s.clwb_batch(&mut lines);
        assert_eq!(s.now(), before);
        assert!(lines.is_empty());
        let st = m.stats.snapshot();
        assert_eq!(st.clwbs, 0);
        assert_eq!(st.clwb_batches, 0);
    }

    #[test]
    fn clwb_batch_interleaves_banks_deterministically() {
        // Same line list, two machines: identical virtual-time outcome —
        // the bank-interleaved schedule is a pure function of the input.
        let run = || {
            let m = machine(DD::Adr, false);
            let p = m.alloc_pool("h", 1 << 12, MediaKind::Optane);
            let mut s = m.session(0);
            let mut lines = Vec::new();
            for i in 0..64u64 {
                s.store(p.addr(i * 8), i);
                lines.push(p.addr(i * 8));
            }
            s.clwb_batch(&mut lines);
            s.sfence();
            s.now()
        };
        assert_eq!(run(), run());
    }

    /// The hint is host-only: on a clean resident line, a dirty one, one
    /// that was displaced and one never touched — word by word and as one
    /// span over all four — nothing the model or its observers can see
    /// moves.
    #[test]
    fn prefetch_is_invisible_to_the_model_and_its_observers() {
        let m = machine(DD::Adr, true);
        let p = m.alloc_pool("h", 1 << 10, MediaKind::Optane);
        let sink = trace::TraceSink::new(1 << 10);
        m.attach_tracer(Arc::clone(&sink));
        let inj = crate::CrashInjector::count_only();
        m.arm_injector(Arc::clone(&inj));
        let mut s = m.session(0);
        let (clean, dirty, absent, untouched) = (p.addr(0), p.addr(8), p.addr(16), p.addr(24));
        s.store(absent, 3);
        m.clear_l3();
        s.load(clean);
        s.store(dirty, 1);
        s.clwb(dirty);
        s.store(dirty, 2);
        let lines = [clean, dirty, absent, untouched];
        let observe = |s: &MemSession| {
            (
                s.now(),
                m.stats.snapshot(),
                lines.map(|a| {
                    let key = line_key(a.pool().0, a.line());
                    (m.cache.present(key), m.cache.dirty(key))
                }),
                inj.sites_counted(),
                s.ring.as_ref().map(|(_, ring)| ring.recorded()),
                s.pending.len(),
            )
        };
        let before = observe(&s);
        assert_eq!(
            before.2,
            [(true, false), (true, true), (false, false), (false, false)],
            "the four line states the hint is tried on"
        );
        assert!(before.3 > 0 && before.4 > Some(0), "observers are live");
        for a in lines {
            assert_eq!(s.prefetch(a, 1), 1);
            assert_eq!(s.prefetch(a.offset(7), 1), 1);
        }
        assert_eq!(s.prefetch(clean.offset(5), 25), 25, "a span over all four");
        assert_eq!(observe(&s), before);
        assert_eq!(s.load(dirty), 2, "and the data is where it was");
    }

    /// The hint is total: a span in the reserved pool, in a pool the
    /// machine never allocated, in one this session has not accessed yet,
    /// or past its pool's end is ignored — no panic, no slot grown in the
    /// session's pool cache (so the machine's registry was not asked) —
    /// and a span crossing the end is cut there.
    #[test]
    fn prefetch_of_an_address_in_no_pool_is_ignored() {
        let m = machine(DD::Adr, false);
        let p = m.alloc_pool("h", 64, MediaKind::Optane);
        let q = m.alloc_pool("q", 64, MediaKind::Dram);
        let mut s = m.session(0);
        s.load(p.addr(0));
        let cached = s.pool_cache.len();
        let max_word = (1 << 40) - 1;
        assert_eq!(s.prefetch(PAddr::NULL, 8), 0);
        assert_eq!(s.prefetch(PAddr::new(PoolId(0), 5), 1), 0);
        assert_eq!(s.prefetch(PAddr::new(PoolId(977), 5), u64::MAX), 0);
        assert_eq!(
            s.prefetch(PAddr::new(PoolId((1 << 24) - 1), max_word), 1),
            0
        );
        assert_eq!(s.prefetch(q.addr(3), 1), 0, "not this session's yet");
        assert_eq!(s.pool_cache.len(), cached);
        let end = p.len_words() as u64;
        assert_eq!(s.prefetch(p.addr(0), 0), 0);
        assert_eq!(s.prefetch(p.addr(end - 3), 10), 3, "cut at the pool's end");
        assert_eq!(s.prefetch(p.addr(end - 3), u64::MAX), 3);
        assert_eq!(s.prefetch(PAddr::new(p.id(), end), 1), 0);
        assert_eq!(s.prefetch(PAddr::new(p.id(), max_word), u64::MAX), 0);
        s.load(q.addr(0));
        assert_eq!(s.prefetch(q.addr(3), 2), 2, "found once accessed");
        assert_eq!(m.stats.snapshot().loads, 2);
    }

    #[test]
    fn stats_count_flush_activity() {
        let m = machine(DD::Adr, false);
        let p = m.alloc_pool("h", 64, MediaKind::Optane);
        let mut s = m.session(0);
        s.store(p.addr(0), 1);
        s.clwb(p.addr(0));
        s.clwb(p.addr(0)); // second flush: clean
        s.sfence();
        let st = m.stats.snapshot();
        assert_eq!(st.clwbs, 2);
        assert_eq!(st.clwb_writebacks, 1);
        assert_eq!(st.sfences, 1);
    }
}
