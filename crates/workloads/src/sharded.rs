//! Open-loop sharded front-end: a simulated client population drives a
//! [`ShardedEngine`] through per-shard request queues.
//!
//! The single-machine driver ([`crate::driver`]) is closed-loop: each
//! thread issues its next operation the instant the previous one
//! finishes, so latency under load is invisible. This front-end is
//! open-loop: requests *arrive* on a virtual-time schedule (bursty
//! inter-arrival gaps, Zipfian keys — the shape memcached sees from
//! memaslap), are routed to their home shard by key, and queue there
//! until a shard worker picks them up. The reported latency is the
//! **sojourn** time (arrival → completion), which is what a client
//! observes and what a p99-under-load claim must be measured against.
//!
//! Routing is single-shard for the open-loop front-ends: each request
//! names one key, each key is homed on one shard, and the worker
//! executing it asserts the homing before touching the heap
//! ([`ShardedEngine::assert_routed`]). The closed-loop
//! [`run_cross_shard_transfer`] workload additionally exercises
//! cross-shard atomicity: a tunable fraction of its transfers/multi-gets
//! spans two shards via [`ptm::CrossShardTx`] (2PC over the per-shard
//! logs).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use pmem_sim::{DurabilityDomain, LatencyModel, MachineConfig, PAddr, StatsSnapshot};
use ptm::{CrossShardTx, PtmConfig, PtmStatsSnapshot, ShardedEngine, TxThread};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::hist::LatencyHistogram;
use crate::kvstore::KvStore;
use crate::tpcc::{IndexKind, Tpcc};
use crate::Workload;

/// YCSB-style Zipfian key generator (Gray et al. rejection-free form):
/// key 0 is the hottest, skew grows with `theta` (0 = uniform, 0.99 =
/// YCSB default).
#[derive(Debug, Clone)]
pub struct ZipfGen {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ZipfGen {
    pub fn new(n: u64, theta: f64) -> ZipfGen {
        assert!(n >= 1, "zipf needs a non-empty key space");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        ZipfGen {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    pub fn next(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1.min(self.n - 1);
        }
        let k = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }
}

/// One client request in the open-loop stream.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Virtual time at which the client issues the request.
    pub arrival_ns: u64,
    /// Application key (routes the request to its home shard).
    pub key: u64,
    /// Operation selector (workload-interpreted: kv get/set, tpcc op id).
    pub kind: u64,
}

/// Shape of the simulated client population.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Total requests across all shards.
    pub total_ops: u64,
    /// Key population (keys are `0..keys`).
    pub keys: u64,
    /// Zipfian skew over the key population (0 = uniform).
    pub zipf_theta: f64,
    /// Mean virtual-time gap between arrival *instants*.
    pub mean_gap_ns: u64,
    /// Maximum burst size: each arrival instant carries 1..=burst
    /// requests (open-loop bursts; 1 = smooth arrivals).
    pub burst: u64,
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            total_ops: 4_000,
            keys: 1 << 14,
            zipf_theta: 0.9,
            mean_gap_ns: 300,
            burst: 8,
            seed: 42,
        }
    }
}

/// The arrival-ordered open-loop request stream, generated one request
/// at a time: bursty arrivals — a uniform gap (same mean as exponential)
/// followed by a burst of simultaneous requests — with Zipfian keys.
#[derive(Debug, Clone)]
pub(crate) struct OpenLoop {
    rng: SmallRng,
    zipf: ZipfGen,
    max_gap_ns: u64,
    max_burst: u64,
    now: u64,
    /// Requests still to come at the current arrival instant.
    burst_left: u64,
    /// Requests still to come in the stream.
    left: u64,
}

impl OpenLoop {
    pub(crate) fn new(cfg: &StreamConfig) -> OpenLoop {
        OpenLoop {
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0x5157_4f52_4b4c_4f41),
            zipf: ZipfGen::new(cfg.keys, cfg.zipf_theta),
            max_gap_ns: 2 * cfg.mean_gap_ns.max(1),
            max_burst: cfg.burst.max(1),
            now: 0,
            burst_left: 0,
            left: cfg.total_ops,
        }
    }
}

impl Iterator for OpenLoop {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.left == 0 {
            return None;
        }
        if self.burst_left == 0 {
            self.now += self.rng.gen_range(0..=self.max_gap_ns);
            self.burst_left = self.rng.gen_range(1..=self.max_burst);
        }
        self.burst_left -= 1;
        self.left -= 1;
        Some(Request {
            arrival_ns: self.now,
            key: self.zipf.next(&mut self.rng),
            kind: self.rng.gen(),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

/// The whole open-loop stream at once (the sharded runs draw it through
/// their feed instead).
pub fn gen_open_loop(cfg: &StreamConfig) -> Vec<Request> {
    OpenLoop::new(cfg).collect()
}

/// Execution parameters for one sharded measurement point.
#[derive(Debug, Clone)]
pub struct ShardedRunConfig {
    pub shards: usize,
    pub threads_per_shard: usize,
    pub model: LatencyModel,
    pub domain: DurabilityDomain,
    /// PTM template: algorithm, group-commit knobs, heap media.
    pub ptm: PtmConfig,
    pub stream: StreamConfig,
    /// Per-shard flight-recorder sinks (`trace[i]` → shard `i`'s
    /// machine, attached for the measured phase only). Empty = off.
    /// Build them with `TraceSink::new_for_shard` so merged tids stay
    /// shard-attributable. `PtmConfig::tracing` is forced on while any
    /// sink is present.
    pub trace: Vec<Arc<trace::TraceSink>>,
}

impl Default for ShardedRunConfig {
    fn default() -> Self {
        ShardedRunConfig {
            shards: 1,
            threads_per_shard: 4,
            model: LatencyModel::default(),
            domain: DurabilityDomain::Adr,
            ptm: PtmConfig::default(),
            stream: StreamConfig::default(),
            trace: Vec::new(),
        }
    }
}

impl ShardedRunConfig {
    /// A run with no shard or no worker per shard executes nothing, and
    /// would report requests it never ran.
    fn assert_nonempty(&self) {
        assert!(self.shards >= 1, "ShardedRunConfig::shards must be >= 1");
        assert!(
            self.threads_per_shard >= 1,
            "ShardedRunConfig::threads_per_shard must be >= 1"
        );
    }
}

/// Result of one sharded measurement point.
#[derive(Debug, Clone)]
pub struct ShardedRunResult {
    pub label: String,
    pub shards: usize,
    pub threads_per_shard: usize,
    pub ops: u64,
    /// Aggregate makespan: the largest virtual time on any shard.
    pub elapsed_virtual_ns: u64,
    /// Sum of all shards' PTM counters.
    pub ptm: PtmStatsSnapshot,
    /// Sum of all shards' memory-system counters.
    pub mem: StatsSnapshot,
    /// Per-shard memory-system counters (WPQ-stall attribution).
    pub per_shard_mem: Vec<StatsSnapshot>,
    /// Sojourn time (request arrival → completion) distribution.
    pub sojourn: LatencyHistogram,
}

impl ShardedRunResult {
    /// Collect a finished run's totals from the engine it ran on.
    fn collect(
        label: String,
        rc: &ShardedRunConfig,
        ops: u64,
        engine: &ShardedEngine,
        sojourn: LatencyHistogram,
    ) -> ShardedRunResult {
        ShardedRunResult {
            label,
            shards: rc.shards,
            threads_per_shard: rc.threads_per_shard,
            ops,
            elapsed_virtual_ns: engine.max_run_time_ns(),
            ptm: engine.aggregate_ptm_stats(),
            mem: engine.aggregate_mem_stats(),
            per_shard_mem: engine.per_shard_mem_stats(),
            sojourn,
        }
    }

    /// Aggregate throughput in millions of operations per virtual second.
    pub fn throughput_mops(&self) -> f64 {
        if self.elapsed_virtual_ns == 0 {
            return 0.0;
        }
        self.ops as f64 * 1_000.0 / self.elapsed_virtual_ns as f64
    }

    /// Fences retired per committed transaction — the group-commit
    /// headline metric.
    pub fn sfences_per_commit(&self) -> f64 {
        self.mem.sfences as f64 / self.ptm.commits.max(1) as f64
    }
}

/// A fresh engine for `rc`: one machine per shard, and the PTM template
/// with tracing forced on while a flight recorder is armed, so
/// transaction lifecycle events reach the sinks.
fn build_engine(rc: &ShardedRunConfig, heap_words: usize) -> ShardedEngine {
    let machine_cfg = MachineConfig {
        domain: rc.domain,
        model: rc.model.clone(),
        track_persistence: false,
        ..MachineConfig::default()
    };
    let ptm_cfg = PtmConfig {
        tracing: rc.ptm.tracing || !rc.trace.is_empty(),
        ..rc.ptm.clone()
    };
    ShardedEngine::create(rc.shards, machine_cfg, ptm_cfg, heap_words, 4)
}

/// Set every shard up in parallel (each shard is an independent
/// machine), single-threaded and unthrottled within a shard: shard `i`
/// runs `f(i, &mut states[i], thread)`. Zeroes the counters afterwards
/// so the measured phase starts clean.
fn set_up_shards<S: Send>(
    engine: &ShardedEngine,
    states: &mut [S],
    f: impl Fn(usize, &mut S, &mut TxThread) + Sync,
) {
    engine.begin_run_all(1);
    std::thread::scope(|scope| {
        for (shard, state) in states.iter_mut().enumerate() {
            let f = &f;
            scope.spawn(move || {
                let mut th = engine.thread(shard, 0);
                f(shard, state, &mut th);
                th.session_mut().finish();
            });
        }
    });
    engine.reset_stats();
}

/// Arm the flight recorder for a measured phase: sessions capture their
/// rings at construction, so call this before creating the workers.
fn arm_tracers(engine: &ShardedEngine, rc: &ShardedRunConfig) {
    for (i, sink) in rc.trace.iter().enumerate() {
        engine.shard(i).machine().attach_tracer(Arc::clone(sink));
    }
}

/// Disarm it once the workers' sessions have dropped (submitting their
/// rings).
fn disarm_tracers(engine: &ShardedEngine, rc: &ShardedRunConfig) {
    for i in 0..rc.trace.len() {
        engine.shard(i).machine().detach_tracer();
    }
}

/// Requests a shard takes per refill. Big enough that a refill's lock,
/// allocation and `Arc` cost well under a nanosecond per request; small
/// enough that a refill, which runs the generator under the lock until
/// its shard has this many (≈ shards × 1024 draws at ≈ 40 host-ns each),
/// ends long before a peer shard's worker has run the 1024 requests of
/// its own segment. Not a knob: a shard's requests are claimed in arrival
/// order for any size, so nothing the model sees depends on it.
const SEGMENT: usize = 1024;

/// Most requests one shard may have pending (1.5 MiB). Refills pull the
/// generator only while every shard is below it, so the feed holds at
/// most `shards × BACKLOG` requests however long or skewed the stream:
/// without it the lighter shard of a skewed split pulls the stream ahead
/// of the heavier one, and the heavier one's queue grows with the stream
/// (600 K requests of 4 Mi at a 57 / 43 split). 64 segments are tens of
/// milliseconds of one worker's requests, so host jitter alone seldom
/// reaches it. Not a knob, for the reason [`SEGMENT`] is not.
const BACKLOG: usize = 64 * SEGMENT;

const POISONED: &str = "a worker panicked while refilling the feed";

/// A run of one shard's requests in arrival order, claimed front to back
/// by that shard's workers.
struct Segment {
    reqs: Box<[Request]>,
    head: AtomicUsize,
}

impl Segment {
    fn new(reqs: Box<[Request]>) -> Arc<Segment> {
        Arc::new(Segment {
            reqs,
            head: AtomicUsize::new(0),
        })
    }
}

/// The open-loop stream on demand, split by shard (DESIGN.md §5 decision
/// 20). Each shard has one current [`Segment`]; its workers claim from it
/// with one `fetch_add` per request. A worker that runs off its end
/// refills it under the feed's one mutex: it pulls the shared generator
/// until its shard has its next [`SEGMENT`] requests, and requests routed
/// elsewhere wait in their shard's pending queue. The lock covers host
/// bookkeeping only — no timed operation runs under it (decision 13(i)).
/// Every shard needs a worker: a refill waits while any shard's backlog
/// is full, and only that shard's workers drain it.
struct Feed<R> {
    route: R,
    state: Mutex<FeedState>,
    /// Signalled when a full backlog drains.
    drained: Condvar,
}

struct FeedState {
    gen: OpenLoop,
    /// Per shard: generated, not yet in a segment (arrival order).
    pending: Vec<VecDeque<Request>>,
    /// Per shard: the segment its workers claim from.
    current: Vec<Arc<Segment>>,
    handed_out: u64,
}

impl<R: Fn(u64) -> usize> Feed<R> {
    fn new(stream: &StreamConfig, shards: usize, route: R) -> Feed<R> {
        let empty = Segment::new(Box::default());
        Feed {
            route,
            state: Mutex::new(FeedState {
                gen: OpenLoop::new(stream),
                pending: vec![VecDeque::new(); shards],
                current: vec![empty; shards],
                handed_out: 0,
            }),
            drained: Condvar::new(),
        }
    }

    /// A claim handle for one of `shard`'s workers.
    fn claims(&self, shard: usize) -> Claims<'_, R> {
        let seg = Arc::clone(&self.state.lock().expect(POISONED).current[shard]);
        Claims {
            feed: self,
            shard,
            seg,
        }
    }

    /// `shard`'s next segment, for a worker that found `spent` claimed
    /// out: the current one if a peer has already replaced `spent`, else
    /// a new one. `None` once the stream holds no more for `shard`.
    fn refill(&self, shard: usize, spent: &Arc<Segment>) -> Option<Arc<Segment>> {
        let mut st = self.state.lock().expect(POISONED);
        loop {
            if !Arc::ptr_eq(&st.current[shard], spent) {
                return Some(Arc::clone(&st.current[shard]));
            }
            if st.pending[shard].len() >= SEGMENT {
                break;
            }
            if st.pending.iter().any(|q| q.len() >= BACKLOG) {
                st = self.drained.wait(st).expect(POISONED);
                continue;
            }
            let Some(req) = st.gen.next() else { break };
            st.pending[(self.route)(req.key)].push_back(req);
        }
        let backlog = st.pending[shard].len();
        let n = backlog.min(SEGMENT);
        if n == 0 {
            return None;
        }
        let seg = Segment::new(st.pending[shard].drain(..n).collect());
        st.handed_out += n as u64;
        st.current[shard] = Arc::clone(&seg);
        if backlog >= BACKLOG {
            self.drained.notify_all();
        }
        Some(seg)
    }

    /// Requests handed to workers so far.
    fn handed_out(&self) -> u64 {
        self.state.lock().expect(POISONED).handed_out
    }
}

/// One worker's view of its shard's requests.
struct Claims<'f, R> {
    feed: &'f Feed<R>,
    shard: usize,
    seg: Arc<Segment>,
}

impl<R: Fn(u64) -> usize> Iterator for Claims<'_, R> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        loop {
            // Relaxed: the index publishes nothing; a segment's requests
            // reach its workers through the feed's mutex.
            let idx = self.seg.head.fetch_add(1, Ordering::Relaxed);
            if let Some(req) = self.seg.reqs.get(idx) {
                return Some(*req);
            }
            self.seg = self.feed.refill(self.shard, &self.seg)?;
        }
    }
}

/// Drive the feed through the engine: `threads_per_shard` workers per
/// shard claim requests in arrival order, idle until each request's
/// arrival instant, execute `exec`, and record sojourn times.
fn drive<R, F>(
    engine: &ShardedEngine,
    feed: &Feed<R>,
    rc: &ShardedRunConfig,
    exec: F,
) -> LatencyHistogram
where
    R: Fn(u64) -> usize + Sync,
    F: Fn(usize, &mut TxThread, &mut SmallRng, &Request) + Sync,
{
    arm_tracers(engine, rc);
    engine.begin_run_all(rc.threads_per_shard);
    let sojourn = Mutex::new(LatencyHistogram::new());
    std::thread::scope(|scope| {
        for shard in 0..rc.shards {
            for tid in 0..rc.threads_per_shard {
                let engine = &engine;
                let sojourn = &sojourn;
                let exec = &exec;
                let seed = rc.stream.seed;
                scope.spawn(move || {
                    let mut th = engine.thread(shard, tid);
                    let mut rng = SmallRng::seed_from_u64(
                        seed ^ ((shard as u64) << 32 | tid as u64).wrapping_mul(0x9E37_79B9),
                    );
                    let mut local = LatencyHistogram::new();
                    for req in feed.claims(shard) {
                        if th.session_mut().now() < req.arrival_ns {
                            th.session_mut().advance_to(req.arrival_ns);
                        }
                        {
                            // Queue wait observed at dequeue: how long
                            // the request sat before this worker picked
                            // it up (0 when the worker idled for it).
                            let s = th.session_mut();
                            if s.tracing() {
                                let wait = s.now().saturating_sub(req.arrival_ns);
                                s.trace_event(trace::EventKind::QueueWait, wait, req.arrival_ns);
                            }
                        }
                        exec(shard, &mut th, &mut rng, &req);
                        let done = th.session_mut().now();
                        local.record(done.saturating_sub(req.arrival_ns));
                    }
                    th.session_mut().finish();
                    sojourn.lock().unwrap().merge(&local);
                });
            }
        }
    });
    disarm_tracers(engine, rc);
    sojourn.into_inner().unwrap()
}

// ---------------------------------------------------------------------
// Sharded key/value store
// ---------------------------------------------------------------------

/// Value size for the sharded KV store: 16 words = 2 cache lines (small
/// values, so the population can scale to many keys per shard).
pub const SHARDED_KV_VALUE_WORDS: u64 = 16;

/// Run the memcached-like store across `rc.shards` shards: Zipfian keys
/// are homed by [`ShardedEngine::route`], a 50/50 get/set mix runs
/// against each shard's private [`KvStore`].
pub fn run_sharded_kv(rc: &ShardedRunConfig) -> ShardedRunResult {
    const VW: u64 = SHARDED_KV_VALUE_WORDS;
    rc.assert_nonempty();
    // Home every key, size each shard's heap for its population.
    let mut per_shard_keys = vec![Vec::new(); rc.shards];
    for k in 0..rc.stream.keys {
        per_shard_keys[ShardedEngine::route(k, rc.shards)].push(k);
    }
    let max_keys = per_shard_keys.iter().map(Vec::len).max().unwrap_or(0) as u64;
    let heap_words = ((max_keys * (VW + 16)) as usize + (1 << 15)).next_power_of_two();
    let engine = build_engine(rc, heap_words);

    let mut stores: Vec<KvStore> = per_shard_keys
        .into_iter()
        .map(|keys| KvStore::with_keys(VW, keys))
        .collect();
    set_up_shards(&engine, &mut stores, |_, store, th| store.populate(th));

    let feed = Feed::new(&rc.stream, rc.shards, |key| engine.shard_of(key));
    let sojourn = drive(&engine, &feed, rc, |shard, th, _rng, req| {
        engine.assert_routed(shard, req.key);
        if req.kind & 1 == 0 {
            stores[shard].get(th, req.key);
        } else {
            stores[shard].set(th, req.key, req.kind);
        }
    });

    let label = format!("sharded-kv-{}x{}", rc.shards, rc.threads_per_shard);
    ShardedRunResult::collect(label, rc, feed.handed_out(), &engine, sojourn)
}

// ---------------------------------------------------------------------
// Sharded TPCC
// ---------------------------------------------------------------------

/// Run TPCC across shards, routed by **home warehouse**: global warehouse
/// `gw` lives on shard `gw % shards` as that shard's local warehouse
/// `gw / shards`. Every transaction touches exactly one warehouse's data,
/// so the partitioning is exact — this is the classic shardable slice of
/// TPCC (cross-warehouse payments would need 2PC, which is out of scope).
pub fn run_sharded_tpcc(rc: &ShardedRunConfig, kind: IndexKind) -> ShardedRunResult {
    rc.assert_nonempty();
    let warehouses = rc.stream.keys;
    assert!(
        warehouses >= rc.shards as u64,
        "need at least one warehouse per shard"
    );
    let route = |gw: u64| (gw % rc.shards as u64) as usize;
    let local_of = |gw: u64| gw / rc.shards as u64;
    let wh_per_shard = |shard: usize| {
        (warehouses / rc.shards as u64) + u64::from((warehouses % rc.shards as u64) > shard as u64)
    };

    // Per-shard TPCC instances sized for that shard's warehouse count and
    // expected order share.
    let expected_per_shard = (rc.stream.total_ops / rc.shards as u64).max(256);
    let mut insts: Vec<Tpcc> = (0..rc.shards)
        .map(|s| Tpcc::new(kind, wh_per_shard(s), expected_per_shard))
        .collect();
    let heap_words = insts.iter().map(|t| t.heap_words()).max().unwrap();
    let engine = build_engine(rc, heap_words);

    set_up_shards(&engine, &mut insts, |_, inst, th| inst.setup(th));

    let feed = Feed::new(&rc.stream, rc.shards, route);
    let sojourn = drive(&engine, &feed, rc, |shard, th, rng, req| {
        debug_assert_eq!(route(req.key), shard, "warehouse routed to wrong shard");
        insts[shard].op_at_warehouse(th, rng, local_of(req.key), req.kind);
    });

    let label = format!("sharded-tpcc-{}x{}", rc.shards, rc.threads_per_shard);
    ShardedRunResult::collect(label, rc, feed.handed_out(), &engine, sojourn)
}

// ---------------------------------------------------------------------
// Cross-shard transfer / multi-get (2PC)
// ---------------------------------------------------------------------

/// Initial balance of every account in [`run_cross_shard_transfer`].
pub const TRANSFER_INITIAL_BALANCE: u64 = 1_000;

/// Closed-loop account-transfer workload over a [`ShardedEngine`] with a
/// tunable cross-shard fraction.
///
/// `rc.stream.keys` accounts (one word each) are homed across shards by
/// [`ShardedEngine::shard_of`]. `rc.threads_per_shard * rc.shards`
/// roaming workers each drive a [`CrossShardTx`]; every operation picks
/// an account pair — spanning two shards with probability `cross_frac`,
/// homed on one shard otherwise — and runs either a balance transfer
/// (odd ops) or a multi-get (even ops) as **one atomic transaction**.
/// Single-shard pairs take the ordinary single-shard commit path;
/// cross-shard pairs pay the 2PC prepare/decide protocol, so sweeping
/// `cross_frac` traces out exactly the seam cost the fence-budget table
/// documents.
///
/// Workers roam every shard, each on one clock
/// ([`ShardedEngine::begin_roaming_run`]), and
/// [`pmem_sim::clock::WINDOW_NS`] bounds how far any worker runs ahead of
/// the others.
pub fn run_cross_shard_transfer(rc: &ShardedRunConfig, cross_frac: f64) -> ShardedRunResult {
    rc.assert_nonempty();
    assert!((0.0..=1.0).contains(&cross_frac), "cross_frac in [0, 1]");
    let keys = rc.stream.keys;
    assert!(keys >= 4, "transfer workload needs at least 4 accounts");
    let heap_words = ((keys as usize * 8) + (1 << 14)).next_power_of_two();
    let engine = build_engine(rc, heap_words);

    // Each shard allocates its own accounts and seeds the initial
    // balance; the cells are gathered into one key-indexed table.
    let mut per_shard: Vec<Vec<(u64, PAddr)>> = vec![Vec::new(); rc.shards];
    set_up_shards(&engine, &mut per_shard, |shard, cells, th| {
        for k in (0..keys).filter(|&k| engine.shard_of(k) == shard) {
            let c = th.run(|tx| {
                let c = tx.alloc(1);
                tx.write(c, TRANSFER_INITIAL_BALANCE)?;
                Ok(c)
            });
            cells.push((k, c));
        }
    });
    let mut accounts: Vec<PAddr> = vec![PAddr(0); keys as usize];
    for &(k, c) in per_shard.iter().flatten() {
        accounts[k as usize] = c;
    }

    let workers = rc.threads_per_shard * rc.shards;
    let total_ops = rc.stream.total_ops;
    let accounts = &accounts;
    let zipf = ZipfGen::new(keys, rc.stream.zipf_theta);
    let latency = Mutex::new(LatencyHistogram::new());
    // Cross-shard probability as a 32-bit threshold (exact for the
    // fractions the benches sweep; avoids per-op float draws).
    let cross_threshold = (cross_frac * u32::MAX as f64) as u32;
    arm_tracers(&engine, rc);
    engine.begin_roaming_run(workers);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let engine = &engine;
            let latency = &latency;
            let seed = rc.stream.seed;
            let zipf = zipf.clone();
            scope.spawn(move || {
                let mut cx = CrossShardTx::new(engine, w);
                let mut rng =
                    SmallRng::seed_from_u64(seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut local = LatencyHistogram::new();
                let my_ops =
                    total_ops / workers as u64 + u64::from((total_ops % workers as u64) > w as u64);
                for op in 0..my_ops {
                    let k1 = zipf.next(&mut rng);
                    let s1 = engine.shard_of(k1);
                    let want_cross = rc.shards > 1 && rng.gen::<u32>() < cross_threshold;
                    let (k2, s2) = loop {
                        let k = zipf.next(&mut rng);
                        if k == k1 {
                            continue;
                        }
                        let s = engine.shard_of(k);
                        if (s != s1) == want_cross {
                            break (k, s);
                        }
                    };
                    let (a1, a2) = (accounts[k1 as usize], accounts[k2 as usize]);
                    let t0 = cx.frontier();
                    if op & 1 == 1 {
                        // Transfer: move one unit k1 -> k2 (skip when
                        // k1 is broke, keeping balances non-negative).
                        cx.run(|tx| {
                            let b1 = tx.read(s1, a1)?;
                            if b1 == 0 {
                                return Ok(());
                            }
                            let b2 = tx.read(s2, a2)?;
                            tx.write(s1, a1, b1 - 1)?;
                            tx.write(s2, a2, b2 + 1)
                        });
                    } else {
                        // Multi-get: one consistent read of both.
                        cx.run(|tx| {
                            let b1 = tx.read(s1, a1)?;
                            let b2 = tx.read(s2, a2)?;
                            Ok(b1.wrapping_add(b2))
                        });
                    }
                    local.record(cx.frontier().saturating_sub(t0));
                }
                cx.finish();
                latency.lock().unwrap().merge(&local);
            });
        }
    });
    disarm_tracers(&engine, rc);

    // Workload invariant: transfers conserve the total balance. A 2PC
    // bug that commits one leg of a transfer and drops the other shows
    // up here immediately, even without a crash.
    let total: u64 = accounts
        .iter()
        .enumerate()
        .map(|(k, a)| {
            engine
                .shard(engine.shard_of(k as u64))
                .machine()
                .pool(a.pool())
                .raw_load(a.word())
        })
        .sum();
    assert_eq!(
        total,
        keys * TRANSFER_INITIAL_BALANCE,
        "transfer workload lost or minted balance"
    );

    let label = format!(
        "xshard-transfer-{}x{}-f{:.2}",
        rc.shards, rc.threads_per_shard, cross_frac
    );
    let sojourn = latency.into_inner().unwrap();
    ShardedRunResult::collect(label, rc, total_ops, &engine, sojourn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm::Algo;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = ZipfGen::new(1000, 0.99);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = vec![0u64; 1000];
        for _ in 0..20_000 {
            let k = z.next(&mut rng);
            assert!(k < 1000);
            counts[k as usize] += 1;
        }
        // Hot head: the top key alone draws far more than uniform share.
        assert!(counts[0] > 20_000 / 1000 * 10, "head count {}", counts[0]);
        // But the tail is still reachable.
        assert!(counts[500..].iter().sum::<u64>() > 0);
        // theta=0 is uniform-ish: head is not wildly hot.
        let u = ZipfGen::new(1000, 0.0);
        let mut cu = vec![0u64; 1000];
        for _ in 0..20_000 {
            cu[u.next(&mut rng) as usize] += 1;
        }
        assert!(cu[0] < 200, "uniform head count {}", cu[0]);
    }

    #[test]
    fn stream_is_arrival_ordered_and_sized() {
        let cfg = StreamConfig {
            total_ops: 500,
            ..StreamConfig::default()
        };
        let reqs = gen_open_loop(&cfg);
        assert_eq!(reqs.len(), 500);
        for w in reqs.windows(2) {
            assert!(w[0].arrival_ns <= w[1].arrival_ns);
        }
        // Bursts exist: some consecutive requests share an arrival.
        assert!(reqs.windows(2).any(|w| w[0].arrival_ns == w[1].arrival_ns));
        // Determinism.
        let again = gen_open_loop(&cfg);
        assert_eq!(reqs.len(), again.len());
        assert!(reqs
            .iter()
            .zip(&again)
            .all(|(a, b)| a.arrival_ns == b.arrival_ns && a.key == b.key && a.kind == b.kind));
    }

    /// FNV-1a over each request's three words, little-endian.
    fn fnv1a(reqs: &[Request]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for r in reqs {
            for w in [r.arrival_ns, r.key, r.kind] {
                for b in w.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn open_loop_draws_what_the_materialised_stream_drew() {
        // Signatures of `gen_open_loop` recorded before it became
        // `OpenLoop`'s collect().
        let d = StreamConfig::default();
        let paced = StreamConfig {
            total_ops: 2_000_000,
            keys: 1 << 16,
            mean_gap_ns: 2_400,
            ..d.clone()
        };
        let cases = [
            (
                StreamConfig {
                    total_ops: 1_001,
                    ..d.clone()
                },
                0xf8cc_aece_4b56_b47d,
            ),
            (
                StreamConfig {
                    total_ops: 5_000,
                    burst: 1,
                    seed: 7,
                    ..d.clone()
                },
                0x3458_215e_49a6_be73,
            ),
            (
                StreamConfig {
                    total_ops: 0,
                    ..d.clone()
                },
                0xcbf2_9ce4_8422_2325,
            ),
            (paced, 0x4a5d_3c9a_26a9_61bd),
        ];
        for (cfg, sig) in cases {
            let mut gen = OpenLoop::new(&cfg);
            let reqs: Vec<Request> = gen.by_ref().collect();
            assert_eq!(reqs.len() as u64, cfg.total_ops);
            assert_eq!(fnv1a(&reqs), sig, "{cfg:?}");
            assert!(gen.next().is_none(), "a drained stream stays drained");
        }
        // The first case stops inside a burst: its last arrival instant
        // had more requests to come.
        let mut gen = OpenLoop::new(&StreamConfig {
            total_ops: 1_001,
            ..d
        });
        gen.by_ref().for_each(drop);
        assert!(gen.burst_left > 0);
    }

    /// Claim a feed dry the way `drive` does, without an engine, and check
    /// that every request runs exactly once: each worker's claims in
    /// arrival order, each shard's together the stable partition of the
    /// stream. Shard 0's workers start only once `gate` requests have been
    /// routed to it.
    fn check_feed<R>(stream: &StreamConfig, shards: usize, workers: usize, route: R, gate: usize)
    where
        R: Fn(u64) -> usize + Sync,
    {
        let all = gen_open_loop(stream);
        let position: std::collections::HashMap<u64, usize> =
            all.iter().enumerate().map(|(i, r)| (r.kind, i)).collect();
        assert_eq!(position.len(), all.len(), "kinds identify requests");
        let mut expected = vec![Vec::new(); shards];
        for (i, r) in all.iter().enumerate() {
            expected[route(r.key)].push(i);
        }
        let to_first = AtomicUsize::new(0);
        let feed = Feed::new(stream, shards, |key| {
            let shard = route(key);
            if shard == 0 {
                to_first.fetch_add(1, Ordering::Relaxed);
            }
            shard
        });
        let mut got = vec![Vec::new(); shards];
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..shards)
                .flat_map(|shard| (0..workers).map(move |_| shard))
                .map(|shard| {
                    let (feed, position, to_first) = (&feed, &position, &to_first);
                    let claims = scope.spawn(move || {
                        while shard == 0 && to_first.load(Ordering::Relaxed) < gate {
                            std::thread::yield_now();
                        }
                        feed.claims(shard)
                            .map(|r| position[&r.kind])
                            .collect::<Vec<usize>>()
                    });
                    (shard, claims)
                })
                .collect();
            for (shard, claims) in workers {
                let mine = claims.join().unwrap();
                assert!(
                    mine.windows(2).all(|w| w[0] < w[1]),
                    "{shards} shards: shard {shard} claimed out of arrival order"
                );
                got[shard].extend(mine);
            }
        });
        for (shard, mut got) in got.into_iter().enumerate() {
            got.sort_unstable();
            assert!(
                got == expected[shard],
                "{shards} shards: shard {shard} did not run its requests exactly once"
            );
        }
        assert_eq!(feed.handed_out(), stream.total_ops);
    }

    #[test]
    fn feed_runs_every_request_once_in_arrival_order_per_shard() {
        let stream = StreamConfig {
            total_ops: 3 * SEGMENT as u64 * 8 + 77,
            keys: 1 << 12,
            ..StreamConfig::default()
        };
        for shards in [1, 2, 3, 8, 16] {
            for workers in [1, 2, 4] {
                let route = |key| ShardedEngine::route(key, shards);
                check_feed(&stream, shards, workers, route, 0);
            }
        }
    }

    #[test]
    fn a_full_backlog_holds_the_generator_until_its_shard_drains() {
        // Shard 1 gets one key in 16. Shard 0's workers start only when
        // its backlog is full, so shard 1's refills must wait for them.
        let stream = StreamConfig {
            total_ops: 3 * BACKLOG as u64,
            ..StreamConfig::default()
        };
        for workers in [1, 2] {
            let route = |key| usize::from(key % 16 == 15);
            check_feed(&stream, 2, workers, route, BACKLOG);
        }
    }

    #[test]
    #[should_panic(expected = "ShardedRunConfig::shards must be >= 1")]
    fn sharded_kv_rejects_zero_shards() {
        run_sharded_kv(&ShardedRunConfig {
            shards: 0,
            ..quick_rc(1)
        });
    }

    #[test]
    #[should_panic(expected = "ShardedRunConfig::threads_per_shard must be >= 1")]
    fn sharded_kv_rejects_zero_workers() {
        run_sharded_kv(&ShardedRunConfig {
            threads_per_shard: 0,
            ..quick_rc(2)
        });
    }

    #[test]
    #[should_panic(expected = "ShardedRunConfig::shards must be >= 1")]
    fn sharded_tpcc_rejects_zero_shards() {
        run_sharded_tpcc(
            &ShardedRunConfig {
                shards: 0,
                ..quick_rc(1)
            },
            IndexKind::Hash,
        );
    }

    #[test]
    #[should_panic(expected = "ShardedRunConfig::threads_per_shard must be >= 1")]
    fn sharded_tpcc_rejects_zero_workers() {
        run_sharded_tpcc(
            &ShardedRunConfig {
                threads_per_shard: 0,
                ..quick_rc(2)
            },
            IndexKind::Hash,
        );
    }

    #[test]
    #[should_panic(expected = "ShardedRunConfig::shards must be >= 1")]
    fn cross_shard_transfer_rejects_zero_shards() {
        run_cross_shard_transfer(
            &ShardedRunConfig {
                shards: 0,
                ..quick_rc(1)
            },
            0.5,
        );
    }

    #[test]
    #[should_panic(expected = "ShardedRunConfig::threads_per_shard must be >= 1")]
    fn cross_shard_transfer_rejects_zero_workers() {
        run_cross_shard_transfer(
            &ShardedRunConfig {
                threads_per_shard: 0,
                ..quick_rc(2)
            },
            0.5,
        );
    }

    fn quick_rc(shards: usize) -> ShardedRunConfig {
        ShardedRunConfig {
            shards,
            threads_per_shard: 2,
            ptm: PtmConfig {
                algo: Algo::RedoLazy,
                ..PtmConfig::default()
            },
            stream: StreamConfig {
                total_ops: 400,
                keys: 512,
                ..StreamConfig::default()
            },
            ..ShardedRunConfig::default()
        }
    }

    #[test]
    fn sharded_kv_runs_and_counts() {
        let r = run_sharded_kv(&quick_rc(2));
        assert_eq!(r.ops, 400);
        assert!(r.elapsed_virtual_ns > 0);
        assert!(r.ptm.commits >= 400, "commits {}", r.ptm.commits);
        assert_eq!(r.per_shard_mem.len(), 2);
        assert_eq!(r.sojourn.count(), 400);
        assert!(r.throughput_mops() > 0.0);
    }

    #[test]
    fn sharded_tpcc_runs_and_counts() {
        let mut rc = quick_rc(2);
        rc.stream.keys = 4; // 4 warehouses over 2 shards
        rc.stream.total_ops = 200;
        let r = run_sharded_tpcc(&rc, IndexKind::Hash);
        assert_eq!(r.ops, 200);
        assert!(r.ptm.commits >= 200);
        assert_eq!(r.sojourn.count(), 200);
    }

    #[test]
    fn cross_shard_transfer_runs_and_counts_2pc() {
        let mut rc = quick_rc(2);
        rc.stream.total_ops = 300;
        rc.stream.keys = 64;
        let r = run_cross_shard_transfer(&rc, 0.5);
        assert_eq!(r.ops, 300);
        assert!(r.ptm.commits >= 300);
        assert!(r.ptm.coordinator_commits > 0, "no cross-shard commits");
        assert_eq!(
            r.ptm.prepares,
            2 * r.ptm.coordinator_commits,
            "every 2PC transfer has exactly two writer participants"
        );
        assert_eq!(r.sojourn.count(), 300);

        // frac=0 never engages the 2PC machinery.
        let r0 = run_cross_shard_transfer(&rc, 0.0);
        assert_eq!(r0.ptm.prepares, 0);
        assert_eq!(r0.ptm.coordinator_commits, 0);
    }

    #[test]
    fn group_commit_elides_fences_on_sharded_kv() {
        let mut base = quick_rc(1);
        base.threads_per_shard = 4;
        base.stream.total_ops = 600;
        let plain = run_sharded_kv(&base);
        let mut grouped = base.clone();
        grouped.ptm.group_commit = true;
        let g = run_sharded_kv(&grouped);
        assert!(g.ptm.sfences_elided > 0, "no joins happened");
        assert!(
            g.sfences_per_commit() < plain.sfences_per_commit(),
            "group commit must reduce fences/commit: {} vs {}",
            g.sfences_per_commit(),
            plain.sfences_per_commit()
        );
    }
}
