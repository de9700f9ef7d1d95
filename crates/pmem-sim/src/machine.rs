//! The simulated machine: pools + cache + bandwidth servers + clocks.

use std::collections::HashMap;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::bandwidth::Servers;
use crate::cache::CacheSim;
use crate::clock::ClockDomain;
use crate::domain::DurabilityDomain;
use crate::inject::{CrashInjector, SiteKind};
use crate::latency::LatencyModel;
use crate::pool::{MediaKind, PersistenceClass, PmemPool, PoolId};
use crate::session::MemSession;
use crate::stats::MachineStats;

/// `xbegin` / `xend` cost, in virtual ns. Measured TSX round trips are a
/// few dozen cycles each way (xbegin ~30-45 cycles, xend ~20-40 on
/// Skylake-class parts): cheap enough that even read-only transactions
/// can afford a section, which is what makes the hardware path pay off.
pub const HTM_BEGIN_NS: u64 = 12;
pub const HTM_COMMIT_NS: u64 = 15;

/// First-class simulated-HTM model: the machine (not the PTM layer)
/// decides how many cache lines a hardware section may touch; what
/// `xbegin`/`xend` cost is [`HTM_BEGIN_NS`] / [`HTM_COMMIT_NS`]. Conflict
/// detection is line-granular against a machine-wide table of recently
/// committed lines — the cache-coherence view a real HTM implementation
/// has — so sections abort against *any* concurrent committer that
/// published an overlapping line, exactly like a remote RFO would abort
/// TSX.
#[derive(Clone, Debug)]
pub struct HtmModel {
    /// Line-granular footprint bound (read set + write set combined),
    /// modeling the L1/L2 capacity a real HTM tracks speculative state
    /// in. Exceeding it is a capacity abort.
    pub capacity_lines: usize,
}

impl Default for HtmModel {
    fn default() -> Self {
        HtmModel {
            capacity_lines: 512,
        }
    }
}

/// Construction parameters for a [`Machine`].
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// The active durability domain.
    pub domain: DurabilityDomain,
    /// Timing parameters.
    pub model: LatencyModel,
    /// Enable per-pool durable shadows so crashes can be simulated.
    /// Costs 2x memory and some tracking work; off for pure benchmarks.
    pub track_persistence: bool,
    /// Bounded-lag window for multi-threaded runs, in virtual ns.
    pub window_ns: u64,
    /// Hardware-transactional-memory capabilities of this machine.
    pub htm: HtmModel,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            domain: DurabilityDomain::Adr,
            model: LatencyModel::default(),
            track_persistence: false,
            window_ns: 2_000,
            htm: HtmModel::default(),
        }
    }
}

impl MachineConfig {
    /// A config for functional tests: zero latency, tracking on.
    pub fn functional(domain: DurabilityDomain) -> Self {
        MachineConfig {
            domain,
            model: LatencyModel::zero(),
            track_persistence: true,
            window_ns: u64::MAX,
            htm: HtmModel::default(),
        }
    }
}

/// An observer a run may attach to the machine (injector, tracer).
/// `armed` mirrors `value.is_some()`, so finding none attached costs one
/// relaxed load.
#[derive(Debug)]
struct Slot<T> {
    value: Mutex<Option<Arc<T>>>,
    armed: AtomicBool,
}

impl<T> Slot<T> {
    fn empty() -> Self {
        Slot {
            value: Mutex::new(None),
            armed: AtomicBool::new(false),
        }
    }

    /// Replaces any previously attached value.
    fn attach(&self, v: Arc<T>) {
        *self.value.lock().unwrap() = Some(v);
        self.armed.store(true, Ordering::Release);
    }

    fn detach(&self) -> Option<Arc<T>> {
        self.armed.store(false, Ordering::Release);
        self.value.lock().unwrap().take()
    }

    #[inline]
    fn get(&self) -> Option<Arc<T>> {
        if self.armed.load(Ordering::Relaxed) {
            self.get_slow()
        } else {
            None
        }
    }

    #[cold]
    fn get_slow(&self) -> Option<Arc<T>> {
        self.value.lock().unwrap().clone()
    }
}

/// One simulated Optane-class machine.
///
/// A `Machine` owns its pools, the shared L3 model, the bandwidth servers
/// and the virtual-clock domain of the current run. Threads interact with
/// it through per-thread [`MemSession`]s.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    pools: RwLock<Vec<Arc<PmemPool>>>,
    next_pool: AtomicU32,
    pub(crate) cache: CacheSim,
    /// Second-level model: the DRAM cache of Optane pages backing the
    /// PDRAM / PDRAM-Lite domains (Memory-Mode directory). Only consulted
    /// for pools those domains accelerate.
    pub(crate) dram_cache: CacheSim,
    pub(crate) servers: Servers,
    clocks: RwLock<Arc<ClockDomain>>,
    /// Armed crash-site injector, if any (see [`crate::inject`]):
    /// un-instrumented runs pay one relaxed load per persistence event.
    injector: Slot<CrashInjector>,
    /// Attached flight-recorder sink, if any. Sessions capture a ring
    /// from it at construction.
    tracer: Slot<trace::TraceSink>,
    /// Monotonic serial stamped on every HTM line publication; sections
    /// sample it at `xbegin` and conflict against later publications.
    htm_serial: AtomicU64,
    /// line key -> serial of the latest HTM-visible commit that wrote
    /// the line (the simulated coherence-conflict directory).
    htm_table: Mutex<HashMap<u64, u64>>,
    pub stats: MachineStats,
}

impl Machine {
    pub fn new(config: MachineConfig) -> Arc<Self> {
        let cache = CacheSim::new(config.model.l3_bytes);
        // Only a domain that serves some Optane pool at DRAM speed (asked
        // for the most accelerated class) ever consults the DRAM cache;
        // elsewhere a minimum-size array stands in for the 8 MB of tags
        // the default 64 MB cache needs.
        let has_dram_cache = config
            .domain
            .serves_at_dram_speed(MediaKind::Optane, PersistenceClass::PdramLite);
        let dram_cache = CacheSim::new(if has_dram_cache {
            config.model.dram_cache_bytes
        } else {
            0
        });
        let servers = Servers::new(config.model.optane_write_banks);
        let clocks = Arc::new(ClockDomain::new(1, u64::MAX));
        Arc::new(Machine {
            config,
            pools: RwLock::new(Vec::new()),
            next_pool: AtomicU32::new(1), // pool 0 reserved so PAddr::NULL stays invalid
            cache,
            dram_cache,
            servers,
            clocks: RwLock::new(clocks),
            injector: Slot::empty(),
            tracer: Slot::empty(),
            htm_serial: AtomicU64::new(0),
            htm_table: Mutex::new(HashMap::new()),
            stats: MachineStats::new(),
        })
    }

    /// The machine's HTM capabilities.
    pub fn htm(&self) -> &HtmModel {
        &self.config.htm
    }

    /// Serial to sample at `xbegin`: publications with a larger serial
    /// conflict with the section.
    pub(crate) fn htm_serial_now(&self) -> u64 {
        self.htm_serial.load(Ordering::Acquire)
    }

    /// Atomic conflict-check-and-publish at `xend`: if any line of the
    /// section's footprint was published after `start_serial`, the
    /// section loses (a remote committer invalidated its speculative
    /// state) and nothing is published. Otherwise the section's write
    /// lines are published under a fresh serial.
    pub(crate) fn htm_try_commit(
        &self,
        start_serial: u64,
        footprint: &HashSet<u64>,
        writes: &HashSet<u64>,
    ) -> bool {
        let mut table = self.htm_table.lock().unwrap();
        for key in footprint {
            if let Some(&s) = table.get(key) {
                if s > start_serial {
                    return false;
                }
            }
        }
        let serial = self.htm_serial.fetch_add(1, Ordering::AcqRel) + 1;
        for &key in writes {
            table.insert(key, serial);
        }
        true
    }

    /// Publish committed lines on behalf of a *software* commit so
    /// concurrent HTM sections whose footprints overlap it abort — the
    /// coherence traffic a software writeback generates is conflict
    /// traffic to a hardware section just like another section's commit.
    pub(crate) fn htm_publish(&self, lines: impl Iterator<Item = u64>) {
        let mut table = self.htm_table.lock().unwrap();
        let serial = self.htm_serial.fetch_add(1, Ordering::AcqRel) + 1;
        for key in lines {
            table.insert(key, serial);
        }
    }

    /// Arm a crash-site injector: every subsequent persistence-relevant
    /// event is counted (and may trigger a simulated crash). Replaces any
    /// previously armed injector.
    pub fn arm_injector(&self, injector: Arc<CrashInjector>) {
        self.injector.attach(injector);
    }

    /// Disarm and return the current injector.
    pub fn disarm_injector(&self) -> Option<Arc<CrashInjector>> {
        self.injector.detach()
    }

    /// Record one persistence-relevant event with the armed injector (a
    /// no-op when none is armed). May unwind with
    /// [`crate::inject::SimulatedCrash`] if the armed site is reached.
    #[inline]
    pub fn note_site(&self, kind: SiteKind, in_atomic: bool) {
        if let Some(inj) = self.injector.get() {
            inj.note(self, kind, in_atomic);
        }
    }

    /// Attach a flight-recorder sink: sessions created *afterwards* record
    /// durability events into per-thread rings submitted to this sink.
    /// Replaces any previously attached sink.
    pub fn attach_tracer(&self, sink: Arc<trace::TraceSink>) {
        self.tracer.attach(sink);
    }

    /// Detach and return the current tracer sink.
    pub fn detach_tracer(&self) -> Option<Arc<trace::TraceSink>> {
        self.tracer.detach()
    }

    /// The attached tracer sink, if any. One relaxed load when none is
    /// attached (the common case).
    #[inline]
    pub fn tracer(&self) -> Option<Arc<trace::TraceSink>> {
        self.tracer.get()
    }

    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    pub fn domain(&self) -> DurabilityDomain {
        self.config.domain
    }

    pub fn model(&self) -> &LatencyModel {
        &self.config.model
    }

    /// Allocate a pool of `len_words` words of ordinary persistence class.
    pub fn alloc_pool(&self, name: &str, len_words: usize, media: MediaKind) -> Arc<PmemPool> {
        self.alloc_pool_with_class(name, len_words, media, PersistenceClass::Normal)
    }

    /// Allocate a pool with an explicit persistence class (used for the
    /// PDRAM-Lite redo-log region).
    pub fn alloc_pool_with_class(
        &self,
        name: &str,
        len_words: usize,
        media: MediaKind,
        class: PersistenceClass,
    ) -> Arc<PmemPool> {
        self.add_pool(|id, track| PmemPool::new(id, name, len_words, media, class, track))
    }

    /// Register the pool `build` makes from the next pool id and this
    /// machine's `track_persistence`.
    pub(crate) fn add_pool(&self, build: impl FnOnce(PoolId, bool) -> PmemPool) -> Arc<PmemPool> {
        let id = PoolId(self.next_pool.fetch_add(1, Ordering::Relaxed));
        let pool = Arc::new(build(id, self.config.track_persistence));
        let mut pools = self.pools.write().unwrap();
        let idx = id.0 as usize;
        if pools.len() <= idx {
            pools.resize_with(idx + 1, || {
                // Fill gaps (incl. reserved pool 0) with zero-size stubs.
                Arc::new(PmemPool::new(
                    PoolId(0),
                    "reserved",
                    0,
                    MediaKind::Dram,
                    PersistenceClass::Normal,
                    false,
                ))
            });
        }
        pools[idx] = Arc::clone(&pool);
        pool
    }

    /// Look up a pool by id.
    pub fn pool(&self, id: PoolId) -> Arc<PmemPool> {
        let pools = self.pools.read().unwrap();
        Arc::clone(&pools[id.0 as usize])
    }

    /// Fail-soft pool lookup: `None` for ids that were never allocated
    /// (or the reserved id 0). Recovery uses this when chasing pool ids
    /// read from possibly-corrupt persistent headers, where a bogus id
    /// must produce a diagnostic instead of a panic.
    pub fn try_pool(&self, id: PoolId) -> Option<Arc<PmemPool>> {
        if id.0 == 0 {
            return None;
        }
        let pools = self.pools.read().unwrap();
        pools.get(id.0 as usize).filter(|p| p.id() == id).cloned()
    }

    /// All pools, in id order (skipping the reserved stub at index 0).
    pub fn pools(&self) -> Vec<Arc<PmemPool>> {
        let pools = self.pools.read().unwrap();
        pools.iter().skip(1).cloned().collect()
    }

    /// Start a fresh timed run with `threads` virtual threads. Resets the
    /// bandwidth servers and replaces the clock domain; previously created
    /// sessions become stale and must not be used afterwards.
    pub fn begin_run(&self, threads: usize, window_ns: u64) {
        self.begin_run_on(Arc::new(ClockDomain::new(threads, window_ns)));
    }

    /// [`Machine::begin_run`] on a clock domain the caller may share with
    /// other machines: a thread's sessions on all of them share one clock.
    pub fn begin_run_on(&self, clocks: Arc<ClockDomain>) {
        self.servers.reset();
        *self.clocks.write().unwrap() = clocks;
    }

    /// Obtain a session for virtual thread `tid` in the current run.
    pub fn session(self: &Arc<Self>, tid: usize) -> MemSession {
        let domain = Arc::clone(&self.clocks.read().unwrap());
        MemSession::new(Arc::clone(self), tid, domain.handle(tid))
    }

    /// The makespan of the current run: the largest virtual time reached by
    /// any thread. Throughput = operations / makespan.
    pub fn run_time_ns(&self) -> u64 {
        self.clocks.read().unwrap().max_time()
    }

    /// Whether the machine tracks durable shadows (crash simulation).
    pub fn tracking(&self) -> bool {
        self.config.track_persistence
    }

    /// Stop the world before a concurrent crash snapshot: every session
    /// thread parks at its next publish point (within ~64 memory
    /// operations). A crash taken while threads keep running would
    /// otherwise sample a smeared, non-instantaneous memory state.
    /// Blocks until all threads of the current run are parked or done.
    pub fn freeze(&self) {
        self.clocks.read().unwrap().freeze();
    }

    /// Resume after [`Machine::freeze`].
    pub fn thaw(&self) {
        self.clocks.read().unwrap().thaw();
    }

    /// Drop only the L3 model, keeping the PDRAM DRAM-cache warm (models
    /// an L3-capacity working set churn without evicting DRAM pages).
    pub fn clear_l3(&self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_get_distinct_ids_and_lookup_works() {
        let m = Machine::new(MachineConfig::default());
        let a = m.alloc_pool("a", 64, MediaKind::Optane);
        let b = m.alloc_pool("b", 64, MediaKind::Dram);
        assert_ne!(a.id(), b.id());
        assert_eq!(m.pool(a.id()).name(), "a");
        assert_eq!(m.pool(b.id()).name(), "b");
        assert_eq!(m.pools().len(), 2);
    }

    #[test]
    fn pool_zero_is_reserved() {
        let m = Machine::new(MachineConfig::default());
        let a = m.alloc_pool("a", 64, MediaKind::Optane);
        assert!(a.id().0 >= 1, "PAddr::NULL must never address a real pool");
    }

    /// Only PDRAM and PDRAM-Lite consult the DRAM cache of Optane pages;
    /// every other domain must not pay for its tag array.
    #[test]
    fn dram_cache_is_sized_from_the_domain() {
        for domain in DurabilityDomain::ALL {
            let m = Machine::new(MachineConfig {
                domain,
                ..MachineConfig::default()
            });
            let full = m.model().dram_cache_bytes / crate::LINE_BYTES;
            let accelerated = matches!(
                domain,
                DurabilityDomain::Pdram | DurabilityDomain::PdramLite
            );
            let want = if accelerated {
                full
            } else {
                CacheSim::new(0).lines()
            };
            assert_eq!(m.dram_cache.lines(), want, "{domain}");
        }
    }

    #[test]
    fn begin_run_resets_servers() {
        use crate::bandwidth::Served;
        let m = Machine::new(MachineConfig::default());
        let bank = m.servers.write_for(true, 7);
        bank.request(5_000, 1_000);
        assert_eq!(bank.request(0, 100).served, Served::Late);
        m.begin_run(2, 1_000);
        for b in &m.servers.optane_write {
            assert_eq!(b.backlog(0), 0);
            assert_eq!(
                b.booked_in(0, 10_000),
                0,
                "no period or calendar booking survives"
            );
        }
        // A new run starts idle: nothing of the old periods is left to
        // queue behind or to fill around.
        let g = bank.request(0, 1_000);
        assert_eq!((g.finish, g.served), (1_000, Served::InOrder));
        assert_eq!(bank.booked_in(0, 10_000), 1_000);
    }

    #[test]
    fn session_ids_bound_by_run_threads() {
        let m = Machine::new(MachineConfig::default());
        m.begin_run(2, u64::MAX);
        let _s0 = m.session(0);
        let _s1 = m.session(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.session(2)));
        assert!(r.is_err());
    }

    #[test]
    fn functional_config_is_tracked_and_free() {
        let cfg = MachineConfig::functional(DurabilityDomain::Adr);
        assert!(cfg.track_persistence);
        assert_eq!(cfg.model.sfence_ns, 0);
    }
}
