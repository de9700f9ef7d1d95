//! Deterministic crash-site enumeration harness.
//!
//! Random crash fuzzing (freeze at a wall-clock instant, crash with a
//! random adversary seed) samples the crash space; this module
//! *enumerates* it. Every persistence-relevant event of a workload run —
//! timed store, `clwb`, `sfence`, cache eviction, WPQ acceptance,
//! recovery persist — is a numbered **crash site** (see
//! [`pmem_sim::inject`]). The harness:
//!
//! 1. **dry-runs** the workload with a counting injector to learn the
//!    total number of sites;
//! 2. **sweeps** every site (or a strided subset above a configurable
//!    bound): for each site it re-runs the workload on a fresh machine
//!    with an injector armed to crash exactly there, reboots from the
//!    captured image, runs [`crate::recover`] and the allocator's restart
//!    GC, and checks invariants;
//! 3. on a violation prints a **minimal reproducer** — the site index,
//!    algorithm, durability domain, adversary policy and seed — that
//!    replays the exact same crash deterministically (single-threaded
//!    workloads are fully determined by the case seed).
//!
//! The generic invariants (recovery idempotence, heap attach + GC
//! consistency) live here; workload-specific ones (e.g. the bank's
//! committed-prefix check) live in the [`CrashWorkload`] impl.

use std::sync::Arc;

use palloc::{GcReport, PHeap};
use pmem_sim::{
    catch_simulated_crash, silence_simulated_crash_panics, AdversaryPolicy, CrashImage,
    CrashInjector, DurabilityDomain, Machine, MachineConfig, SiteKind,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::{Algo, PtmConfig};
use crate::db::ReopenReports;
use crate::recovery::{recover_with_options, resolve_in_doubt, RecoverOptions, RecoveryReport};
use crate::shard::{ShardedEngine, SHARD_HEAP_PREFIX};
use crate::twopc::CrossShardTx;
use crate::txn::{Ptm, TxThread};

/// One point of the sweep grid: which algorithm, durability domain and
/// crash adversary to run the workload under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCase {
    pub algo: Algo,
    pub domain: DurabilityDomain,
    pub policy: AdversaryPolicy,
    /// Seed for the workload's transfer plan (and, mixed with the site
    /// index, for the crash adversary).
    pub seed: u64,
}

/// The crash adversary seed used when crashing at `site`: per-site so
/// that neighbouring sites don't share coin flips, but a pure function
/// of (case seed, site) so a reproducer replays the exact image.
pub fn derive_crash_seed(seed: u64, site: u64) -> u64 {
    seed ^ site.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A workload the harness can sweep. Implementations must be
/// **deterministic in the case seed** when run single-threaded: the
/// dry-run and every armed run must produce the identical event
/// sequence.
pub trait CrashWorkload {
    /// Display name (appears in reproducer lines).
    fn name(&self) -> &str;
    /// Name of the pool holding the workload's persistent heap.
    fn heap_pool(&self) -> &str;
    /// Execute the full workload (format, populate, transact) on a fresh
    /// machine. May unwind with a simulated crash at any site.
    fn run(&self, machine: &Arc<Machine>, case: &SweepCase);
    /// Check workload invariants on the recovered machine. Returns one
    /// description per violation (empty = consistent).
    fn check(
        &self,
        machine: &Arc<Machine>,
        heap: &Arc<PHeap>,
        gc: &GcReport,
        case: &SweepCase,
    ) -> Vec<String>;
}

/// One invariant violation found by the sweep.
#[derive(Debug, Clone)]
pub struct Violation {
    pub workload: String,
    pub case: SweepCase,
    /// The site the injector was armed for (what a replay must arm).
    pub site: u64,
    /// Where the crash actually fired (later than `site` if deferred by
    /// a crash-atomic section), and the event kind there.
    pub fired: Option<(u64, SiteKind)>,
    pub detail: String,
}

impl Violation {
    /// The minimal deterministic reproducer for this violation. Feed the
    /// fields back to [`run_site`] (or `crash_sites --site ...`) to
    /// replay the exact same crash.
    pub fn reproducer(&self) -> String {
        format!(
            "CRASH-REPRO workload={} site={} algo={} domain={} policy={} seed={}",
            self.workload,
            self.site,
            self.case.algo.name(),
            self.case.domain.name(),
            self.case.policy,
            self.case.seed,
        )
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.reproducer(), self.detail)
    }
}

/// Sweep tuning knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepOptions {
    /// Upper bound on armed sites per case; above it the sweep strides
    /// evenly across the site space. `None` = exhaustive.
    pub max_sites_per_case: Option<u64>,
    /// Fault-injection switches for harness self-tests (deliberately
    /// broken recovery must make the sweep fail).
    pub recover: RecoverOptions,
}

/// Outcome of crashing one workload run at one site and recovering.
#[derive(Debug, Clone)]
pub struct SiteResult {
    /// Actual firing point, `None` when the run completed (the armed
    /// site was past the end; the harness then crashes at end-of-run).
    pub fired: Option<(u64, SiteKind)>,
    pub recovery: RecoveryReport,
    pub gc: Option<GcReport>,
    /// FNV-1a digest over every pool's post-recovery contents; equal
    /// digests ⇒ identical recovered states (replay determinism checks).
    pub state_digest: u64,
    pub violations: Vec<String>,
}

/// Results for one [`SweepCase`].
#[derive(Debug, Clone)]
pub struct CaseResult {
    pub case: SweepCase,
    /// Sites counted by the dry run.
    pub total_sites: u64,
    /// Sites actually armed (≤ `total_sites + 1`; the `+1` is the
    /// end-of-run crash).
    pub sites_run: u64,
    pub violations: Vec<Violation>,
}

/// Aggregate of a full sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    pub cases: Vec<CaseResult>,
}

impl SweepReport {
    pub fn sites_run(&self) -> u64 {
        self.cases.iter().map(|c| c.sites_run).sum()
    }

    pub fn violations(&self) -> impl Iterator<Item = &Violation> {
        self.cases.iter().flat_map(|c| c.violations.iter())
    }

    pub fn is_clean(&self) -> bool {
        self.violations().next().is_none()
    }
}

/// Dry-run `workload` under `case`, counting every crash site without
/// firing. Returns the total number of sites.
pub fn count_sites(workload: &dyn CrashWorkload, case: &SweepCase) -> u64 {
    let machine = Machine::new(MachineConfig::functional(case.domain));
    let injector = CrashInjector::count_only();
    machine.arm_injector(Arc::clone(&injector));
    workload.run(&machine, case);
    machine.disarm_injector();
    injector.sites_counted()
}

fn snapshot_pools(machine: &Arc<Machine>) -> Vec<Vec<u64>> {
    machine
        .pools()
        .iter()
        .map(|p| (0..p.len_words() as u64).map(|w| p.raw_load(w)).collect())
        .collect()
}

fn digest_pools(machine: &Arc<Machine>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for pool in machine.pools() {
        for w in 0..pool.len_words() as u64 {
            h = (h ^ pool.raw_load(w)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Run `workload` with a crash armed at `site`, reboot, recover with
/// `opts`, and check every invariant. A `site` at or past the end of the
/// run crashes at end-of-run instead (the run completes first).
pub fn run_site(
    workload: &dyn CrashWorkload,
    case: &SweepCase,
    site: u64,
    opts: RecoverOptions,
) -> SiteResult {
    silence_simulated_crash_panics();
    let machine = Machine::new(MachineConfig::functional(case.domain));
    let crash_seed = derive_crash_seed(case.seed, site);
    let injector = CrashInjector::at_site(site, case.policy, crash_seed);
    machine.arm_injector(Arc::clone(&injector));
    let completed = catch_simulated_crash(|| workload.run(&machine, case)).is_ok();
    machine.disarm_injector();
    let (image, fired) = if completed {
        (machine.crash_with(crash_seed, case.policy), None)
    } else {
        let f = injector
            .take_outcome()
            .expect("simulated crash unwound without a captured image");
        (f.image, Some((f.site, f.kind)))
    };
    drop(machine);

    let recovered = Machine::reboot(&image, MachineConfig::functional(case.domain));
    let recovery = recover_with_options(&recovered, opts);
    let mut violations = Vec::new();

    // Generic invariant: recovery is idempotent — a second pass finds no
    // work and leaves every durable word unchanged.
    let before = snapshot_pools(&recovered);
    let second = recover_with_options(&recovered, opts);
    if second.redo_replayed + second.undo_rolled_back + second.htm_replayed != 0 {
        violations.push(format!("second recovery pass still found work: {second:?}"));
    }
    if snapshot_pools(&recovered) != before {
        violations.push("second recovery pass changed durable state".to_string());
    }

    // Generic invariant: recovery is worker-count independent — the same
    // image recovered at a different worker count lands on a bit-
    // identical durable state (replay-order independence; see the
    // recovery module docs) and, timing aside, an identical report.
    {
        let alt_workers = if opts.workers <= 1 { 4 } else { 1 };
        let alt = Machine::reboot(&image, MachineConfig::functional(case.domain));
        let alt_recovery = recover_with_options(
            &alt,
            RecoverOptions {
                workers: alt_workers,
                ..opts
            },
        );
        if digest_pools(&alt) != digest_pools(&recovered) {
            violations.push(format!(
                "recovery with {alt_workers} workers diverged from {} workers \
                 (post-recovery digests differ)",
                recovery.recovery_workers
            ));
        }
        if alt_recovery.without_timing() != recovery.without_timing() {
            violations.push(format!(
                "recovery report depends on worker count: \
                 {} workers {recovery:?} vs {alt_workers} workers {alt_recovery:?}",
                recovery.recovery_workers
            ));
        }
    }

    // Generic invariant: the heap re-attaches, its GC report and header
    // chain are consistent, and the workload's own invariants hold. The
    // GC runs with the same worker count as log recovery, so parallel
    // sweeps exercise the parallel scan/mark too.
    let heap_pool = recovered
        .pools()
        .into_iter()
        .find(|p| p.name() == workload.heap_pool());
    let mut gc_report = None;
    match heap_pool {
        None => violations.push(format!(
            "heap pool `{}` missing after reboot",
            workload.heap_pool()
        )),
        Some(pool) => match PHeap::attach_with(pool, opts.workers.max(1)) {
            Err(e) => violations.push(format!("heap attach failed: {e}")),
            Ok((heap, gc)) => {
                if let Err(e) = heap.validate() {
                    violations.push(format!("heap inconsistent after GC: {e}"));
                }
                violations.extend(workload.check(&recovered, &heap, &gc, case));
                gc_report = Some(gc);
            }
        },
    }

    SiteResult {
        fired,
        recovery,
        gc: gc_report,
        state_digest: digest_pools(&recovered),
        violations,
    }
}

/// Sweep one case: count sites, then crash at every site (strided when
/// the count exceeds `opts.max_sites_per_case`) plus once at end-of-run.
pub fn sweep_case(
    workload: &dyn CrashWorkload,
    case: &SweepCase,
    opts: SweepOptions,
) -> CaseResult {
    let total_sites = count_sites(workload, case);
    // `total_sites` is itself a valid armed site: it never fires, which
    // exercises the end-of-run crash.
    let span = total_sites + 1;
    let stride = match opts.max_sites_per_case {
        Some(max) if max > 0 && span > max => span.div_ceil(max),
        _ => 1,
    };
    let mut violations = Vec::new();
    let mut sites_run = 0;
    let mut site = 0;
    while site < span {
        let result = run_site(workload, case, site, opts.recover);
        sites_run += 1;
        violations.extend(result.violations.into_iter().map(|detail| Violation {
            workload: workload.name().to_string(),
            case: *case,
            site,
            fired: result.fired,
            detail,
        }));
        site += stride;
    }
    CaseResult {
        case: *case,
        total_sites,
        sites_run,
        violations,
    }
}

/// Sweep every case in `cases`.
pub fn sweep(workload: &dyn CrashWorkload, cases: &[SweepCase], opts: SweepOptions) -> SweepReport {
    SweepReport {
        cases: cases
            .iter()
            .map(|case| sweep_case(workload, case, opts))
            .collect(),
    }
}

/// The paper-relevant sweep grid: every registered algorithm × the four
/// live durability domains × every adversary policy in
/// [`AdversaryPolicy::SWEEP`].
pub fn default_cases(seed: u64) -> Vec<SweepCase> {
    let mut cases = Vec::new();
    for algo in Algo::ALL {
        for domain in [
            DurabilityDomain::Adr,
            DurabilityDomain::Eadr,
            DurabilityDomain::Pdram,
            DurabilityDomain::PdramLite,
        ] {
            for policy in AdversaryPolicy::SWEEP {
                cases.push(SweepCase {
                    algo,
                    domain,
                    policy,
                    seed,
                });
            }
        }
    }
    cases
}

/// The canonical sweep workload: a single-threaded sequence of bank
/// transfers over a rooted table, with deliberately leaked scratch
/// allocations so the restart GC has something to reclaim.
///
/// The transfer plan is a pure function of the case seed, so the checker
/// can enumerate every committed-prefix state: after recovery the table
/// must equal the state after exactly k committed transfers for some k
/// (transactions are atomic — no mixtures, no partial transfers), which
/// also implies the total balance is conserved.
#[derive(Debug, Clone)]
pub struct BankTransfers {
    pub accounts: u64,
    pub initial: u64,
    pub transfers: usize,
    /// Run commits through the write-combining pipeline (the default:
    /// the sweep's acceptance bar is that batching survives every crash
    /// site; set `false` to sweep the naive baseline).
    pub write_combining: bool,
}

impl Default for BankTransfers {
    fn default() -> Self {
        BankTransfers {
            accounts: 8,
            initial: 100,
            transfers: 10,
            write_combining: true,
        }
    }
}

impl BankTransfers {
    /// The deterministic transfer plan for `seed`.
    fn plan(&self, seed: u64) -> Vec<(u64, u64, u64)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..self.transfers)
            .map(|_| {
                (
                    rng.gen_range(0..self.accounts),
                    rng.gen_range(0..self.accounts),
                    rng.gen_range(1..self.initial / 2),
                )
            })
            .collect()
    }

    /// Table contents after k committed transfers, for k = 0..=transfers.
    fn prefix_states(&self, seed: u64) -> Vec<Vec<u64>> {
        let mut state = vec![self.initial; self.accounts as usize];
        let mut states = vec![state.clone()];
        for (from, to, amt) in self.plan(seed) {
            let f = state[from as usize];
            if from != to && f >= amt {
                state[from as usize] -= amt;
                state[to as usize] += amt;
            }
            states.push(state.clone());
        }
        states
    }
}

impl CrashWorkload for BankTransfers {
    fn name(&self) -> &str {
        "bank"
    }

    fn heap_pool(&self) -> &str {
        "bank"
    }

    fn run(&self, machine: &Arc<Machine>, case: &SweepCase) {
        let heap = PHeap::format(machine, self.heap_pool(), 1 << 15, 4);
        let cfg = PtmConfig {
            algo: case.algo,
            write_combining: self.write_combining,
            ..PtmConfig::default()
        };
        let ptm = Ptm::new(cfg);
        let mut th = TxThread::new(ptm, Arc::clone(&heap), machine.session(0));
        let table = heap.alloc(th.session_mut(), self.accounts as usize);
        th.run(|tx| {
            for i in 0..self.accounts {
                tx.write_at(table, i, self.initial)?;
            }
            Ok(())
        });
        heap.set_root(th.session_mut(), 0, table);
        for (from, to, amt) in self.plan(case.seed) {
            // Leak a scratch block on purpose: a crash anywhere leaves it
            // unreachable, and the restart GC must reclaim it.
            let scratch = heap.alloc(th.session_mut(), 3);
            th.session_mut().store(scratch, 0xC0FFEE);
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
    }

    fn check(
        &self,
        machine: &Arc<Machine>,
        heap: &Arc<PHeap>,
        gc: &GcReport,
        case: &SweepCase,
    ) -> Vec<String> {
        let mut violations = Vec::new();
        let root = heap.root_raw(0);
        // Once the root is durable, the (committed) init transaction is
        // recoverable, so exactly the table block is reachable; before
        // that, nothing is. Everything else must have been reclaimed.
        let expected_live = if root.is_null() { 0 } else { 1 };
        if gc.live_blocks != expected_live {
            violations.push(format!(
                "GC kept {} live blocks, expected {expected_live} (leaked {} of {} scanned)",
                gc.live_blocks, gc.leaked_blocks, gc.blocks_scanned
            ));
        }
        if root.is_null() {
            return violations;
        }
        let pool = machine.pool(root.pool());
        let table: Vec<u64> = (0..self.accounts)
            .map(|i| pool.raw_load(root.word() + i))
            .collect();
        let states = self.prefix_states(case.seed);
        if !states.contains(&table) {
            let total: u64 = table.iter().sum();
            violations.push(format!(
                "recovered table {table:?} (sum {total}) matches no committed prefix \
                 (expected sum {})",
                self.accounts * self.initial
            ));
        }
        violations
    }
}

/// A two-thread bank driven through a shared group-commit window, for
/// sweeping crash sites that land *inside* an open window — after a lead
/// transaction published its fence but while joiners are still riding it.
///
/// Both virtual threads live on one OS thread and are stepped
/// alternately (A, B, A, B, ...), so the run is fully deterministic in
/// the case seed while still exercising the cross-transaction join path:
/// under the functional machine config the second thread's
/// `make_durable` always lands within the lead's window and joins
/// instead of fencing. Each thread transfers only within its own
/// account range, so recovery must land on a committed prefix of each
/// thread's plan *independently* — a torn window (a joiner treated as
/// durable although its covering fence never retired) shows up as a
/// non-prefix state.
#[derive(Debug, Clone)]
pub struct GroupWindowBank {
    pub accounts_per_thread: u64,
    pub initial: u64,
    pub transfers_per_thread: usize,
}

impl Default for GroupWindowBank {
    fn default() -> Self {
        GroupWindowBank {
            accounts_per_thread: 4,
            initial: 100,
            transfers_per_thread: 4,
        }
    }
}

impl GroupWindowBank {
    /// Thread `t`'s deterministic transfer plan, confined to its own
    /// account range `[t·n, (t+1)·n)` (offsets are range-local).
    fn plan(&self, seed: u64, t: u64) -> Vec<(u64, u64, u64)> {
        let n = self.accounts_per_thread;
        let mut rng = SmallRng::seed_from_u64(seed ^ (t + 1).wrapping_mul(0x9E37_79B9));
        (0..self.transfers_per_thread)
            .map(|_| {
                (
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(1..self.initial / 2),
                )
            })
            .collect()
    }

    /// Thread `t`'s range contents after k committed transfers.
    fn prefix_states(&self, seed: u64, t: u64) -> Vec<Vec<u64>> {
        let mut state = vec![self.initial; self.accounts_per_thread as usize];
        let mut states = vec![state.clone()];
        for (from, to, amt) in self.plan(seed, t) {
            let f = state[from as usize];
            if from != to && f >= amt {
                state[from as usize] -= amt;
                state[to as usize] += amt;
            }
            states.push(state.clone());
        }
        states
    }
}

impl CrashWorkload for GroupWindowBank {
    fn name(&self) -> &str {
        "group-bank"
    }

    fn heap_pool(&self) -> &str {
        "group-bank"
    }

    fn run(&self, machine: &Arc<Machine>, case: &SweepCase) {
        machine.begin_run(2, u64::MAX);
        let heap = PHeap::format(machine, self.heap_pool(), 1 << 15, 4);
        let cfg = PtmConfig {
            algo: case.algo,
            group_commit: true,
            // Generous window: under the functional (zero-latency) config
            // every second fence lands inside it, so the join path runs
            // at every transfer.
            group_window_ns: 1 << 20,
            ..PtmConfig::default()
        };
        let ptm = Ptm::new(cfg);
        let mut ths: Vec<TxThread> = (0..2)
            .map(|t| TxThread::new(Arc::clone(&ptm), Arc::clone(&heap), machine.session(t)))
            .collect();
        let n = self.accounts_per_thread;
        let table = heap.alloc(ths[0].session_mut(), (2 * n) as usize);
        ths[0].run(|tx| {
            for i in 0..2 * n {
                tx.write_at(table, i, self.initial)?;
            }
            Ok(())
        });
        heap.set_root(ths[0].session_mut(), 0, table);
        let plans = [self.plan(case.seed, 0), self.plan(case.seed, 1)];
        // Step the two virtual threads alternately from this one OS
        // thread: every B-transfer commits right after an A-transfer's
        // fence, inside the window A just opened (and vice versa).
        for (pa, pb) in plans[0].iter().zip(&plans[1]) {
            for (t, &(from, to, amt)) in [pa, pb].into_iter().enumerate() {
                let base = t as u64 * n;
                ths[t].run(|tx| {
                    let f = tx.read_at(table, base + from)?;
                    let v = tx.read_at(table, base + to)?;
                    if from != to && f >= amt {
                        tx.write_at(table, base + from, f - amt)?;
                        tx.write_at(table, base + to, v + amt)?;
                    }
                    Ok(())
                });
            }
        }
    }

    fn check(
        &self,
        machine: &Arc<Machine>,
        heap: &Arc<PHeap>,
        gc: &GcReport,
        case: &SweepCase,
    ) -> Vec<String> {
        let mut violations = Vec::new();
        let root = heap.root_raw(0);
        let expected_live = if root.is_null() { 0 } else { 1 };
        if gc.live_blocks != expected_live {
            violations.push(format!(
                "GC kept {} live blocks, expected {expected_live}",
                gc.live_blocks
            ));
        }
        if root.is_null() {
            return violations;
        }
        let pool = machine.pool(root.pool());
        let n = self.accounts_per_thread;
        for t in 0..2u64 {
            let slice: Vec<u64> = (0..n)
                .map(|i| pool.raw_load(root.word() + t * n + i))
                .collect();
            if !self.prefix_states(case.seed, t).contains(&slice) {
                violations.push(format!(
                    "thread {t} range {slice:?} matches no committed prefix \
                     (torn group-commit window?)"
                ));
            }
        }
        violations
    }
}

// ---------------------------------------------------------------------
// Sharded (cross-shard 2PC) crash-site sweep
// ---------------------------------------------------------------------

/// The cross-shard sweep workload: a single worker issuing a
/// deterministic sequence of bank transfers over accounts partitioned
/// round-robin across the shards of a [`ShardedEngine`], driven through
/// [`CrossShardTx`] so that roughly half the transfers span two shards
/// and commit via 2PC (prepare → coordinator record → commit), while the
/// rest take the single-writer fast path.
///
/// Like [`BankTransfers`], the plan is a pure function of the case seed,
/// so the checker enumerates every committed-prefix state: after
/// recovery the global account vector (gathered across all shards) must
/// equal the state after exactly k committed transfers for some k. A
/// torn cross-shard transfer — debit applied on one shard, credit lost
/// on the other — matches no prefix and fails the sweep.
#[derive(Debug, Clone)]
pub struct ShardedTransfers {
    pub shards: usize,
    /// Total accounts, homed round-robin: account `a` lives on shard
    /// `a % shards` at table offset `a / shards`.
    pub accounts: u64,
    pub initial: u64,
    pub transfers: usize,
}

impl Default for ShardedTransfers {
    fn default() -> Self {
        ShardedTransfers {
            shards: 2,
            accounts: 8,
            initial: 100,
            transfers: 8,
        }
    }
}

impl ShardedTransfers {
    fn ptm_config(&self, case: &SweepCase) -> PtmConfig {
        PtmConfig {
            algo: case.algo,
            ..PtmConfig::default()
        }
    }

    /// Build the fresh engine a run starts from (heap format and
    /// coordinator pools are created *before* the injector is armed, so
    /// site numbering starts at the workload itself).
    fn build(&self, case: &SweepCase) -> ShardedEngine {
        ShardedEngine::create(
            self.shards,
            MachineConfig::functional(case.domain),
            self.ptm_config(case),
            1 << 15,
            4,
        )
    }

    /// Home shard and table offset of account `a`.
    fn home(&self, a: u64) -> (usize, u64) {
        ((a % self.shards as u64) as usize, a / self.shards as u64)
    }

    /// Number of accounts homed on shard `s`.
    fn accounts_on(&self, s: usize) -> u64 {
        (self.accounts + self.shards as u64 - 1 - s as u64) / self.shards as u64
    }

    /// The deterministic transfer plan for `seed`.
    fn plan(&self, seed: u64) -> Vec<(u64, u64, u64)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..self.transfers)
            .map(|_| {
                (
                    rng.gen_range(0..self.accounts),
                    rng.gen_range(0..self.accounts),
                    rng.gen_range(1..self.initial / 2),
                )
            })
            .collect()
    }

    /// Global account vector after k committed transfers, k = 0..=n.
    fn prefix_states(&self, seed: u64) -> Vec<Vec<u64>> {
        let mut state = vec![self.initial; self.accounts as usize];
        let mut states = vec![state.clone()];
        for (from, to, amt) in self.plan(seed) {
            let f = state[from as usize];
            if from != to && f >= amt {
                state[from as usize] -= amt;
                state[to as usize] += amt;
            }
            states.push(state.clone());
        }
        states
    }

    /// Execute the workload (populate every shard, then transact). May
    /// unwind with a simulated crash at any armed site.
    fn run(&self, engine: &ShardedEngine, case: &SweepCase) {
        engine.begin_run_all(1, u64::MAX);
        let mut cx = CrossShardTx::new(engine, 0);
        // Per-shard account tables, rooted so recovery can find them.
        let mut tables = Vec::with_capacity(self.shards);
        for s in 0..self.shards {
            let n = self.accounts_on(s) as usize;
            let th = cx.thread_mut(s);
            let heap = Arc::clone(th.heap());
            let table = heap.alloc(th.session_mut(), n.max(1));
            cx.run_single(s, |tx| {
                for i in 0..n as u64 {
                    tx.write_at(table, i, self.initial)?;
                }
                Ok(())
            });
            let th = cx.thread_mut(s);
            let heap = Arc::clone(th.heap());
            heap.set_root(th.session_mut(), 0, table);
            tables.push(table);
        }
        for (from, to, amt) in self.plan(case.seed) {
            let (sf, of) = self.home(from);
            let (st, ot) = self.home(to);
            // Leak a scratch block on the debit shard: a crash leaves it
            // unreachable and that shard's restart GC must reclaim it.
            {
                let th = cx.thread_mut(sf);
                let heap = Arc::clone(th.heap());
                let scratch = heap.alloc(th.session_mut(), 3);
                th.session_mut().store(scratch, 0xC0FFEE);
            }
            cx.run(|tx| {
                let f = tx.read_at(sf, tables[sf], of)?;
                let t = tx.read_at(st, tables[st], ot)?;
                if from != to && f >= amt {
                    tx.write_at(sf, tables[sf], of, f - amt)?;
                    tx.write_at(st, tables[st], ot, t + amt)?;
                }
                Ok(())
            });
        }
    }

    /// Workload invariants on the recovered engine.
    fn check(
        &self,
        engine: &ShardedEngine,
        reports: &[ReopenReports],
        case: &SweepCase,
    ) -> Vec<String> {
        let mut violations = Vec::new();
        let mut roots = Vec::with_capacity(self.shards);
        for (s, report) in reports.iter().enumerate().take(self.shards) {
            let root = engine.heap(s).root_raw(0);
            // Same reasoning as the single-shard bank: once shard s's
            // root is durable its (committed) init transaction is
            // recoverable, so exactly the table block is live there.
            let expected_live = if root.is_null() { 0 } else { 1 };
            if report.gc.live_blocks != expected_live {
                violations.push(format!(
                    "shard {s}: GC kept {} live blocks, expected {expected_live}",
                    report.gc.live_blocks
                ));
            }
            roots.push(root);
        }
        // Shards are set up in order, so transfers only ever ran if every
        // root is durable; a null root anywhere means we crashed during
        // setup and there is no committed-prefix state to compare yet.
        if roots.iter().any(|r| r.is_null()) {
            return violations;
        }
        let mut state = vec![0u64; self.accounts as usize];
        for a in 0..self.accounts {
            let (s, off) = self.home(a);
            let pool = engine.machine(s).pool(roots[s].pool());
            state[a as usize] = pool.raw_load(roots[s].word() + off);
        }
        if !self.prefix_states(case.seed).contains(&state) {
            let total: u64 = state.iter().sum();
            violations.push(format!(
                "recovered accounts {state:?} (sum {total}) match no committed prefix \
                 (expected sum {}): a cross-shard transfer tore",
                self.accounts * self.initial
            ));
        }
        violations
    }
}

/// Per-shard adversary seed for survivor shards, matching the
/// [`pmem_sim::MachineSet::crash_all`] derivation so every shard's image
/// stays an independent pure function of the case seed and site.
fn shard_crash_seed(crash_seed: u64, shard: usize) -> u64 {
    if shard == 0 {
        crash_seed
    } else {
        crash_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64)
    }
}

/// Which shard's machine a fired crash image belongs to, identified by
/// its `shard-heap-<i>` pool.
fn crashed_shard(image: &CrashImage) -> usize {
    let prefix = format!("{SHARD_HEAP_PREFIX}-");
    image
        .pools
        .iter()
        .find_map(|p| p.name.strip_prefix(&prefix).and_then(|s| s.parse().ok()))
        .expect("fired crash image contains no shard heap pool")
}

fn digest_machines(machines: &[Arc<Machine>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for machine in machines {
        for pool in machine.pools() {
            for w in 0..pool.len_words() as u64 {
                h = (h ^ pool.raw_load(w)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn snapshot_machines(machines: &[Arc<Machine>]) -> Vec<Vec<Vec<u64>>> {
    machines
        .iter()
        .map(|m| {
            m.pools()
                .iter()
                .map(|p| (0..p.len_words() as u64).map(|w| p.raw_load(w)).collect())
                .collect()
        })
        .collect()
}

/// Dry-run the sharded workload, counting every crash site across *all*
/// shard machines with one shared injector (the global site numbering is
/// what lets one index name an event on any shard).
pub fn count_sites_sharded(workload: &ShardedTransfers, case: &SweepCase) -> u64 {
    let engine = workload.build(case);
    let injector = CrashInjector::count_only();
    for s in 0..workload.shards {
        engine.machine(s).arm_injector(Arc::clone(&injector));
    }
    workload.run(&engine, case);
    for s in 0..workload.shards {
        engine.machine(s).disarm_injector();
    }
    injector.sites_counted()
}

/// Run the sharded workload with a crash armed at global `site`, image
/// every shard (the firing shard synchronously at the site, survivors
/// under per-shard derived adversary seeds), reopen the whole engine —
/// per-shard recovery followed by the cross-shard resolution pass — and
/// check every invariant:
///
/// * recovery + resolution are **idempotent** (a second pass finds no
///   work and changes no durable word on any shard);
/// * the reopened state is **worker-count independent** (recovery at 1
///   and 4 workers lands on bit-identical cross-engine digests);
/// * every shard's heap re-attaches and validates, restart GC reclaims
///   exactly the leaked scratch blocks;
/// * the recovered global account vector matches a committed prefix —
///   cross-shard transfers are all-or-nothing under every crash site.
pub fn run_site_sharded(
    workload: &ShardedTransfers,
    case: &SweepCase,
    site: u64,
    opts: RecoverOptions,
) -> SiteResult {
    silence_simulated_crash_panics();
    let engine = workload.build(case);
    let crash_seed = derive_crash_seed(case.seed, site);
    let injector = CrashInjector::at_site(site, case.policy, crash_seed);
    for s in 0..workload.shards {
        engine.machine(s).arm_injector(Arc::clone(&injector));
    }
    let completed = catch_simulated_crash(|| workload.run(&engine, case)).is_ok();
    for s in 0..workload.shards {
        engine.machine(s).disarm_injector();
    }
    let (images, fired) = if completed {
        let images = (0..workload.shards)
            .map(|s| {
                engine
                    .machine(s)
                    .crash_with(shard_crash_seed(crash_seed, s), case.policy)
            })
            .collect::<Vec<_>>();
        (images, None)
    } else {
        let f = injector
            .take_outcome()
            .expect("simulated crash unwound without a captured image");
        let hit = crashed_shard(&f.image);
        let fired = Some((f.site, f.kind));
        let mut images = Vec::with_capacity(workload.shards);
        for s in 0..workload.shards {
            if s == hit {
                images.push(f.image.clone());
            } else {
                images.push(
                    engine
                        .machine(s)
                        .crash_with(shard_crash_seed(crash_seed, s), case.policy),
                );
            }
        }
        (images, fired)
    };
    drop(engine);

    let machine_cfg = MachineConfig::functional(case.domain);
    let ptm_cfg = workload.ptm_config(case);
    let (recovered, reports) =
        ShardedEngine::reopen_with(&images, machine_cfg.clone(), ptm_cfg.clone(), opts);
    let mut violations = Vec::new();

    // Generic invariant: recovery + resolution are idempotent.
    let machines: Vec<Arc<Machine>> = recovered.machine_set().machines().to_vec();
    let before = snapshot_machines(&machines);
    for machine in &machines {
        let second = recover_with_options(machine, opts);
        if second.redo_replayed + second.undo_rolled_back + second.htm_replayed != 0 {
            violations.push(format!("second recovery pass still found work: {second:?}"));
        }
        if second.prepared_skipped != 0 {
            violations.push(format!(
                "second recovery pass still sees {} prepared logs",
                second.prepared_skipped
            ));
        }
    }
    let second_res = resolve_in_doubt(&machines);
    for r in &second_res {
        if r.indoubt_resolved_commit + r.indoubt_resolved_abort != 0 {
            violations.push(format!("second resolution pass still decided logs: {r:?}"));
        }
    }
    if snapshot_machines(&machines) != before {
        violations.push("second recovery+resolution pass changed durable state".to_string());
    }

    // Generic invariant: worker-count independence — the same images
    // reopened at a different recovery worker count land on an
    // identical cross-engine digest (and, timing aside, reports).
    {
        let alt_workers = if opts.workers <= 1 { 4 } else { 1 };
        let (alt, alt_reports) = ShardedEngine::reopen_with(
            &images,
            machine_cfg.clone(),
            ptm_cfg.clone(),
            RecoverOptions {
                workers: alt_workers,
                ..opts
            },
        );
        let alt_machines: Vec<Arc<Machine>> = alt.machine_set().machines().to_vec();
        if digest_machines(&alt_machines) != digest_machines(&machines) {
            violations.push(format!(
                "sharded recovery with {alt_workers} workers diverged from {} workers \
                 (post-recovery digests differ)",
                opts.workers.max(1)
            ));
        }
        for (s, (a, b)) in reports.iter().zip(alt_reports.iter()).enumerate() {
            if a.recovery.without_timing() != b.recovery.without_timing() {
                violations.push(format!(
                    "shard {s} recovery report depends on worker count: {:?} vs {:?}",
                    a.recovery, b.recovery
                ));
            }
        }
    }

    // Per-shard heap health, then the workload's own invariants.
    for s in 0..workload.shards {
        if let Err(e) = recovered.heap(s).validate() {
            violations.push(format!("shard {s}: heap inconsistent after GC: {e}"));
        }
    }
    violations.extend(workload.check(&recovered, &reports, case));

    let mut merged = ReopenReports::default();
    for r in &reports {
        merged.merge(r);
    }
    SiteResult {
        fired,
        recovery: merged.recovery,
        gc: Some(merged.gc),
        state_digest: digest_machines(&machines),
        violations,
    }
}

/// Sweep one case of the sharded grid: count global sites, crash at
/// every site (strided above `opts.max_sites_per_case`) plus once at
/// end-of-run.
pub fn sweep_case_sharded(
    workload: &ShardedTransfers,
    case: &SweepCase,
    opts: SweepOptions,
) -> CaseResult {
    let total_sites = count_sites_sharded(workload, case);
    let span = total_sites + 1;
    let stride = match opts.max_sites_per_case {
        Some(max) if max > 0 && span > max => span.div_ceil(max),
        _ => 1,
    };
    let mut violations = Vec::new();
    let mut sites_run = 0;
    let mut site = 0;
    while site < span {
        let result = run_site_sharded(workload, case, site, opts.recover);
        sites_run += 1;
        violations.extend(result.violations.into_iter().map(|detail| Violation {
            workload: format!("xshard-{}", workload.shards),
            case: *case,
            site,
            fired: result.fired,
            detail,
        }));
        site += stride;
    }
    CaseResult {
        case: *case,
        total_sites,
        sites_run,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bank() -> BankTransfers {
        BankTransfers {
            accounts: 4,
            initial: 64,
            transfers: 3,
            ..BankTransfers::default()
        }
    }

    fn case(algo: Algo, policy: AdversaryPolicy) -> SweepCase {
        SweepCase {
            algo,
            domain: DurabilityDomain::Adr,
            policy,
            seed: 42,
        }
    }

    #[test]
    fn site_counting_is_deterministic_and_nonzero() {
        let bank = tiny_bank();
        let c = case(Algo::RedoLazy, AdversaryPolicy::PerWord);
        let a = count_sites(&bank, &c);
        let b = count_sites(&bank, &c);
        assert_eq!(a, b);
        assert!(a > 0, "a transactional workload must emit crash sites");
    }

    #[test]
    fn replaying_a_site_reproduces_the_exact_state() {
        let bank = tiny_bank();
        let c = case(Algo::UndoEager, AdversaryPolicy::PerWord);
        let total = count_sites(&bank, &c);
        let site = total / 2;
        let a = run_site(&bank, &c, site, RecoverOptions::default());
        let b = run_site(&bank, &c, site, RecoverOptions::default());
        assert_eq!(a.fired, b.fired);
        assert_eq!(a.state_digest, b.state_digest, "replay must be bit-exact");
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn bounded_sweep_of_every_algorithm_is_clean() {
        let bank = tiny_bank();
        let opts = SweepOptions {
            max_sites_per_case: Some(24),
            ..SweepOptions::default()
        };
        for algo in Algo::ALL {
            let report = sweep_case(&bank, &case(algo, AdversaryPolicy::PerWord), opts);
            assert!(report.sites_run > 0 && report.sites_run <= 25);
            let msgs: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
            assert!(report.violations.is_empty(), "{msgs:?}");
        }
    }

    #[test]
    fn end_of_run_site_recovers_the_final_state() {
        let bank = tiny_bank();
        let c = case(Algo::RedoLazy, AdversaryPolicy::PerWord);
        let total = count_sites(&bank, &c);
        let r = run_site(&bank, &c, total, RecoverOptions::default());
        assert!(r.fired.is_none(), "site == total must complete the run");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    /// The sweep's teeth: deliberately broken recovery must produce a
    /// violation with a reproducer that replays deterministically.
    #[test]
    fn broken_recovery_fails_the_sweep_with_a_replayable_reproducer() {
        let bank = tiny_bank();
        // AllNew persists every speculative in-place write, so skipping
        // undo rollback is guaranteed to leave torn transfers behind.
        let c = case(Algo::UndoEager, AdversaryPolicy::AllNew);
        let opts = SweepOptions {
            max_sites_per_case: Some(64),
            recover: RecoverOptions {
                skip_undo_rollback: true,
                ..RecoverOptions::default()
            },
        };
        let report = sweep_case(&bank, &c, opts);
        let v = report
            .violations
            .first()
            .expect("skipping undo rollback must violate an invariant");
        let line = v.reproducer();
        assert!(
            line.contains("workload=bank")
                && line.contains("algo=undo")
                && line.contains("policy=all-new"),
            "{line}"
        );
        // Replay: the same armed site under the same broken recovery
        // reproduces the same violation.
        let replay = run_site(&bank, &c, v.site, opts.recover);
        assert!(replay.violations.contains(&v.detail), "{line}");
        // And correct recovery at that site is clean.
        let fixed = run_site(&bank, &c, v.site, RecoverOptions::default());
        assert!(fixed.violations.is_empty(), "{:?}", fixed.violations);
    }

    fn tiny_group_bank() -> GroupWindowBank {
        GroupWindowBank {
            accounts_per_thread: 4,
            initial: 64,
            transfers_per_thread: 3,
        }
    }

    /// The two-thread group-commit workload really exercises the join
    /// path: its fence stream contains `FenceJoin` events (transactions
    /// riding another transaction's fence), so the sweep below genuinely
    /// enumerates crash sites inside open windows.
    #[test]
    fn group_window_bank_joins_fences() {
        let bank = tiny_group_bank();
        let c = case(Algo::RedoLazy, AdversaryPolicy::PerWord);
        let machine = Machine::new(MachineConfig::functional(c.domain));
        let sink = trace::TraceSink::new(1 << 14);
        machine.attach_tracer(Arc::clone(&sink));
        bank.run(&machine, &c);
        machine.detach_tracer();
        let joins = sink
            .merged()
            .iter()
            .filter(|e| e.kind == trace::EventKind::FenceJoin)
            .count();
        assert!(joins > 0, "no transaction ever joined a fence window");
    }

    /// The tentpole's torn-window acceptance bar: crash sites inside an
    /// open group-commit window — for every algorithm across all four
    /// live durability domains — recover to a committed prefix on both
    /// participating threads.
    #[test]
    fn group_window_sweep_is_clean_across_algos_and_domains() {
        let bank = tiny_group_bank();
        let opts = SweepOptions {
            max_sites_per_case: Some(16),
            ..SweepOptions::default()
        };
        for algo in Algo::ALL {
            for domain in [
                DurabilityDomain::Adr,
                DurabilityDomain::Eadr,
                DurabilityDomain::Pdram,
                DurabilityDomain::PdramLite,
            ] {
                let c = SweepCase {
                    algo,
                    domain,
                    policy: AdversaryPolicy::PerWord,
                    seed: 42,
                };
                let report = sweep_case(&bank, &c, opts);
                assert!(report.sites_run > 0);
                let msgs: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
                assert!(
                    report.violations.is_empty(),
                    "{algo:?}/{domain:?}: {msgs:?}"
                );
            }
        }
    }

    #[test]
    fn group_window_replay_is_deterministic() {
        let bank = tiny_group_bank();
        let c = case(Algo::CowShadow, AdversaryPolicy::PerWord);
        let total = count_sites(&bank, &c);
        assert!(total > 0);
        let site = total / 3;
        let a = run_site(&bank, &c, site, RecoverOptions::default());
        let b = run_site(&bank, &c, site, RecoverOptions::default());
        assert_eq!(a.fired, b.fired);
        assert_eq!(a.state_digest, b.state_digest);
    }

    /// Satellite acceptance: the sweep run at recovery workers 1 and 4
    /// lands on bit-identical post-recovery digests at every probed
    /// site (the two-thread workload has two logs, so 4 workers really
    /// does split the repair work).
    #[test]
    fn sweep_with_parallel_recovery_matches_serial_digests() {
        let bank = tiny_group_bank();
        let c = case(Algo::RedoLazy, AdversaryPolicy::PerWord);
        let total = count_sites(&bank, &c);
        assert!(total > 2);
        for site in [total / 4, total / 2, total - 1] {
            let serial = run_site(&bank, &c, site, RecoverOptions::default());
            let parallel = run_site(
                &bank,
                &c,
                site,
                RecoverOptions {
                    workers: 4,
                    ..RecoverOptions::default()
                },
            );
            assert_eq!(serial.fired, parallel.fired, "site {site}");
            assert_eq!(
                serial.state_digest, parallel.state_digest,
                "site {site}: serial and parallel recovery must converge bit-identically"
            );
            assert!(parallel.violations.is_empty(), "{:?}", parallel.violations);
        }
    }

    /// A bounded sweep of every algorithm with recovery (and GC) at 4
    /// workers stays clean — the in-sweep worker-independence invariant
    /// re-checks each site against a serial pass.
    #[test]
    fn bounded_sweep_with_four_recovery_workers_is_clean() {
        let bank = tiny_group_bank();
        let opts = SweepOptions {
            max_sites_per_case: Some(12),
            recover: RecoverOptions {
                workers: 4,
                ..RecoverOptions::default()
            },
        };
        for algo in Algo::ALL {
            let report = sweep_case(&bank, &case(algo, AdversaryPolicy::PerWord), opts);
            assert!(report.sites_run > 0);
            let msgs: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
            assert!(report.violations.is_empty(), "{algo:?}: {msgs:?}");
        }
    }

    #[test]
    fn default_grid_covers_algos_domains_and_policies() {
        let cases = default_cases(7);
        assert_eq!(
            cases.len(),
            Algo::ALL.len() * 4 * AdversaryPolicy::SWEEP.len()
        );
        assert!(cases.iter().all(|c| c.seed == 7));
    }

    fn tiny_xshard() -> ShardedTransfers {
        ShardedTransfers {
            shards: 2,
            accounts: 6,
            initial: 64,
            transfers: 3,
        }
    }

    #[test]
    fn sharded_site_counting_is_deterministic_and_nonzero() {
        let w = tiny_xshard();
        let c = case(Algo::RedoLazy, AdversaryPolicy::PerWord);
        let a = count_sites_sharded(&w, &c);
        let b = count_sites_sharded(&w, &c);
        assert_eq!(a, b);
        assert!(a > 0, "a cross-shard workload must emit crash sites");
        // The plan for this seed must actually cross shards, or the
        // sweep below would never exercise the 2PC windows.
        assert!(
            w.plan(c.seed)
                .iter()
                .any(|&(f, t, _)| w.home(f).0 != w.home(t).0),
            "seed {} produces no cross-shard transfer",
            c.seed
        );
    }

    #[test]
    fn sharded_replay_of_a_site_reproduces_the_exact_state() {
        let w = tiny_xshard();
        let c = case(Algo::UndoEager, AdversaryPolicy::PerWord);
        let total = count_sites_sharded(&w, &c);
        let site = total / 2;
        let a = run_site_sharded(&w, &c, site, RecoverOptions::default());
        let b = run_site_sharded(&w, &c, site, RecoverOptions::default());
        assert_eq!(a.fired, b.fired);
        assert_eq!(a.state_digest, b.state_digest, "replay must be bit-exact");
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn sharded_end_of_run_site_recovers_the_final_state() {
        let w = tiny_xshard();
        let c = case(Algo::RedoLazy, AdversaryPolicy::PerWord);
        let total = count_sites_sharded(&w, &c);
        let r = run_site_sharded(&w, &c, total, RecoverOptions::default());
        assert!(r.fired.is_none(), "site == total must complete the run");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    /// The tentpole acceptance bar: crash sites across the whole 2PC
    /// window — prepares durable on a subset of participants, torn
    /// coordinator record, decision durable but participant retirement
    /// unfinished — recover all-or-nothing for every logging policy
    /// across all four live durability domains.
    #[test]
    fn sharded_sweep_is_clean_across_algos_and_domains() {
        let w = tiny_xshard();
        let opts = SweepOptions {
            max_sites_per_case: Some(10),
            ..SweepOptions::default()
        };
        for algo in [Algo::RedoLazy, Algo::UndoEager, Algo::CowShadow] {
            for domain in [
                DurabilityDomain::Adr,
                DurabilityDomain::Eadr,
                DurabilityDomain::Pdram,
                DurabilityDomain::PdramLite,
            ] {
                let c = SweepCase {
                    algo,
                    domain,
                    policy: AdversaryPolicy::PerWord,
                    seed: 42,
                };
                let report = sweep_case_sharded(&w, &c, opts);
                assert!(report.sites_run > 0);
                let msgs: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
                assert!(
                    report.violations.is_empty(),
                    "{algo:?}/{domain:?}: {msgs:?}"
                );
            }
        }
    }

    /// Every sweep adversary policy (including the extreme all-old /
    /// all-new images and line-granular tearing) leaves cross-shard
    /// transfers atomic.
    #[test]
    fn sharded_sweep_is_clean_across_adversary_policies() {
        let w = tiny_xshard();
        let opts = SweepOptions {
            max_sites_per_case: Some(8),
            ..SweepOptions::default()
        };
        for policy in AdversaryPolicy::SWEEP {
            let c = SweepCase {
                algo: Algo::RedoLazy,
                domain: DurabilityDomain::Adr,
                policy,
                seed: 42,
            };
            let report = sweep_case_sharded(&w, &c, opts);
            assert!(report.sites_run > 0);
            let msgs: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
            assert!(report.violations.is_empty(), "{policy}: {msgs:?}");
        }
    }

    /// The sweep genuinely reaches the in-doubt window: somewhere in the
    /// tail of the run (the last transfer's commit sequence) there is a
    /// site whose recovery finds PREPARED participant logs and resolves
    /// them from the coordinator record (or its absence).
    #[test]
    fn sharded_sweep_exercises_in_doubt_resolution() {
        let w = tiny_xshard();
        // Deterministically pick a seed whose *last* transfer is
        // cross-shard and actually moves money, so the tail of the run
        // is a 2PC commit sequence.
        let seed = (0..100u64)
            .find(|&s| {
                let crossing = w
                    .plan(s)
                    .last()
                    .map(|&(f, t, _)| f != t && w.home(f).0 != w.home(t).0)
                    .unwrap_or(false);
                let states = w.prefix_states(s);
                crossing && states[states.len() - 1] != states[states.len() - 2]
            })
            .expect("some small seed must end on an effective cross-shard transfer");
        let c = SweepCase {
            algo: Algo::RedoLazy,
            domain: DurabilityDomain::Adr,
            policy: AdversaryPolicy::AllOld,
            seed,
        };
        let total = count_sites_sharded(&w, &c);
        let mut resolved = 0usize;
        for site in total.saturating_sub(48)..total {
            let r = run_site_sharded(&w, &c, site, RecoverOptions::default());
            assert!(r.violations.is_empty(), "site {site}: {:?}", r.violations);
            resolved += r.recovery.indoubt_resolved_commit + r.recovery.indoubt_resolved_abort;
        }
        assert!(
            resolved > 0,
            "no tail site left a log in doubt — the sweep is missing the 2PC window"
        );
    }

    #[test]
    fn names_roundtrip() {
        for algo in Algo::ALL {
            assert_eq!(algo.name().parse(), Ok(algo));
        }
        for domain in DurabilityDomain::ALL {
            assert_eq!(domain.name().parse(), Ok(domain));
        }
    }
}
