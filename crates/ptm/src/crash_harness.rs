//! Deterministic crash-site enumeration harness.
//!
//! Random crash fuzzing (freeze at a wall-clock instant, crash with a
//! random adversary seed — [`crate::crash_round`]) samples the crash
//! space; this module *enumerates* it. Every persistence-relevant event
//! of a workload run — timed store, `clwb`, `sfence`, cache eviction, WPQ
//! acceptance, recovery persist — is a numbered **crash site** (see
//! [`pmem_sim::inject`]). The harness:
//!
//! 1. **dry-runs** the workload with a counting injector to learn the
//!    total number of sites;
//! 2. **sweeps** every site (or a strided subset above a configurable
//!    bound): for each site it re-runs the workload on fresh machines
//!    with an injector armed to crash exactly there, restarts them from
//!    the captured images through the production sequence
//!    ([`crate::db::restart`] per machine, then in-doubt resolution), and
//!    checks invariants;
//! 3. on a violation prints a **minimal reproducer** — the site index,
//!    algorithm, durability domain, adversary policy and seed — that
//!    replays the exact same crash deterministically (single-threaded
//!    workloads are fully determined by the case seed).
//!
//! There is one driver, written over a slice of machines: a workload
//! spanning N machines (the shards of a [`ShardedEngine`]) has one
//! injector armed on all of them, so one site index names an event on
//! any machine; an ordinary workload is the length-1 case. The generic
//! invariants live in [`run_site`]; workload-specific ones (e.g. the
//! bank's committed-prefix check) in the [`CrashWorkload`] impl. Adding
//! a workload is one `impl CrashWorkload` and nothing else.

use std::sync::Arc;

use palloc::GcReport;
use pmem_sim::{
    catch_simulated_crash, silence_simulated_crash_panics, AdversaryPolicy, CrashImage,
    CrashInjector, DurabilityDomain, Machine, MachineConfig, PAddr, SiteKind,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::{Algo, FlushPlan, PtmConfig};
use crate::db::{machines_of, PtmDb, ReopenReports, Restarted};
use crate::recovery::{recover_with_options, resolve_in_doubt, RecoverOptions, RecoveryReport};
use crate::shard::{restart_all, shard_heap_name, ShardedEngine};
use crate::twopc::CrossShardTx;
use crate::txn::TxThread;

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

/// Shard (machine) `shard`'s seed derived from `seed` — the one
/// derivation, used by the sweep and by [`ShardedEngine::crash_all`]: a
/// golden-ratio multiple of the shard index, anchored so shard 0 keeps
/// `seed` itself (one machine is the length-1 case), and every machine's
/// crash image stays an independent pure function of the seed.
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64)
}

/// A workload the harness can sweep. Implementations must be
/// **deterministic in the case seed** when run single-threaded: the
/// dry-run and every armed run must produce the identical event
/// sequence.
pub trait CrashWorkload {
    /// Display name (appears in reproducer lines).
    fn name(&self) -> &str;
    /// How many machines one run spans. The harness builds that many
    /// fresh machines and arms one injector on all of them, so a site
    /// index names an event on whichever machine it happens on.
    fn machines(&self) -> usize {
        1
    }
    /// Name of the pool holding machine `machine`'s persistent heap.
    fn heap_pool(&self, machine: usize) -> String;
    /// Execute the full workload (format, populate, transact) on fresh
    /// machines. May unwind with a simulated crash at any site.
    fn run(&self, machines: &[Arc<Machine>], case: &SweepCase);
    /// Split [`CrashWorkload::run`] for the harness: what `build` itself
    /// does happens before the injector is armed and so stays outside
    /// the numbered sites; the closure it returns is the armed rest. The
    /// default arms everything.
    fn build<'a>(
        &'a self,
        machines: &'a [Arc<Machine>],
        case: &'a SweepCase,
    ) -> Box<dyn FnOnce() + 'a> {
        Box::new(move || self.run(machines, case))
    }
    /// Check workload invariants on the restarted machines (in machine
    /// order). Returns one description per violation (empty =
    /// consistent).
    fn check(&self, restarted: &[Restarted], case: &SweepCase) -> Vec<String>;
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
    /// Recovery and GC reports, merged over the machines; default /
    /// `None` when a machine failed to restart.
    pub recovery: RecoveryReport,
    pub gc: Option<GcReport>,
    /// [`digest_pools`] of the restarted machines; equal digests ⇒
    /// identical recovered states (replay determinism checks). 0 when a
    /// machine failed to restart — there is no recovered state.
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

/// Every word of every pool: machines in slice order, pools in id order.
fn pool_words(machines: &[Arc<Machine>]) -> impl Iterator<Item = u64> + '_ {
    machines.iter().flat_map(|m| m.pools()).flat_map(|pool| {
        let words = pool.len_words() as u64;
        (0..words).map(move |w| pool.raw_load(w))
    })
}

/// The durable state of `machines`, word for word — what two recoveries
/// of one image must agree on.
pub(crate) fn snapshot_pools(machines: &[Arc<Machine>]) -> Vec<u64> {
    pool_words(machines).collect()
}

/// FNV-1a fold of every pool word (a slice of one machine folds to that
/// machine's digest: one machine is the length-1 case).
pub fn digest_pools(machines: &[Arc<Machine>]) -> u64 {
    pool_words(machines).fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run `workload` on fresh machines with `injector` armed on every one
/// of them (its build step first, unarmed). Returns the machines and
/// whether the run completed rather than unwinding with a crash.
fn armed_run(
    workload: &dyn CrashWorkload,
    case: &SweepCase,
    injector: &Arc<CrashInjector>,
) -> (Vec<Arc<Machine>>, bool) {
    let cfg = MachineConfig::functional(case.domain);
    let machines: Vec<_> = (0..workload.machines())
        .map(|_| Machine::new(cfg.clone()))
        .collect();
    let run = workload.build(&machines, case);
    for m in &machines {
        m.arm_injector(Arc::clone(injector));
    }
    let completed = catch_simulated_crash(run).is_ok();
    for m in &machines {
        m.disarm_injector();
    }
    (machines, completed)
}

/// Dry-run `workload` under `case`, counting every crash site on every
/// machine without firing. Returns the total number of sites.
pub fn count_sites(workload: &dyn CrashWorkload, case: &SweepCase) -> u64 {
    let injector = CrashInjector::count_only();
    armed_run(workload, case, &injector);
    injector.sites_counted()
}

/// A workload run cut short by a crash: one image per machine.
pub struct CrashedRun {
    pub images: Vec<CrashImage>,
    /// Actual firing point, `None` when the run completed (the armed
    /// site was at or past the end) and the crash hit at end-of-run.
    pub fired: Option<(u64, SiteKind)>,
}

/// Run `workload` with a crash armed at `site` and image every machine:
/// the firing machine synchronously at the site, the survivors — all of
/// them when the run completes — under per-machine derived adversary
/// seeds ([`shard_seed`]).
pub fn crash_at_site(workload: &dyn CrashWorkload, case: &SweepCase, site: u64) -> CrashedRun {
    silence_simulated_crash_panics();
    let crash_seed = derive_crash_seed(case.seed, site);
    let injector = CrashInjector::at_site(site, case.policy, crash_seed);
    let (machines, completed) = armed_run(workload, case, &injector);
    let outcome = (!completed).then(|| {
        injector
            .take_outcome()
            .expect("simulated crash unwound without a captured image")
    });
    let fired = outcome.as_ref().map(|f| (f.site, f.kind));
    // The fired image was captured on the machine whose heap pool it
    // holds; a single machine needs no lookup (its heap may not exist
    // yet when the workload formats it inside the armed run).
    let mut at_site = outcome.map(|f| {
        let hit = (0..machines.len())
            .find(|&m| {
                let heap = workload.heap_pool(m);
                machines.len() == 1 || f.image.pools.iter().any(|p| p.name == heap)
            })
            .expect("fired crash image holds no machine's heap pool");
        (hit, f.image)
    });
    let images = machines
        .iter()
        .enumerate()
        .map(|(m, machine)| match at_site.take_if(|(hit, _)| *hit == m) {
            Some((_, image)) => image,
            None => machine.crash_with(shard_seed(crash_seed, m), case.policy),
        })
        .collect();
    CrashedRun { images, fired }
}

/// [`crash_at_site`], then restart every machine with `opts` and check
/// every invariant:
///
/// * every machine **restarts** — an image whose heap pool is missing
///   or fails to attach is a violation, not a panic;
/// * recovery + in-doubt resolution are **idempotent** (a second pass
///   finds no work, sees no prepared log, decides nothing and changes no
///   durable word on any machine);
/// * every heap validates after its restart GC, and the workload's own
///   invariants hold.
pub fn run_site(
    workload: &dyn CrashWorkload,
    case: &SweepCase,
    site: u64,
    opts: RecoverOptions,
) -> SiteResult {
    let CrashedRun { images, fired } = crash_at_site(workload, case, site);
    let cfg = MachineConfig::functional(case.domain);
    let heap_pools: Vec<String> = (0..images.len()).map(|m| workload.heap_pool(m)).collect();
    let restarted = match restart_all(&images, &heap_pools, &cfg, opts) {
        Ok(restarted) => restarted,
        Err(e) => {
            return SiteResult {
                fired,
                recovery: RecoveryReport::default(),
                gc: None,
                state_digest: 0,
                violations: vec![e],
            }
        }
    };
    let machines = machines_of(&restarted);
    let mut violations = Vec::new();

    // Generic invariant: recovery + resolution are idempotent.
    let before = snapshot_pools(&machines);
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
    for r in resolve_in_doubt(&machines) {
        if r.indoubt_resolved_commit + r.indoubt_resolved_abort != 0 {
            violations.push(format!("second resolution pass still decided logs: {r:?}"));
        }
    }
    if snapshot_pools(&machines) != before {
        violations.push("second recovery+resolution pass changed durable state".to_string());
    }
    let state_digest = digest_pools(&machines);

    // Per-machine heap health, then the workload's own invariants.
    for (m, r) in restarted.iter().enumerate() {
        if let Err(e) = r.heap.validate() {
            violations.push(format!("machine {m}: heap inconsistent after GC: {e}"));
        }
    }
    violations.extend(workload.check(&restarted, case));

    let mut merged = ReopenReports::default();
    for r in &restarted {
        merged.merge(&r.reports);
    }
    SiteResult {
        fired,
        recovery: merged.recovery,
        gc: Some(merged.gc),
        state_digest,
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

/// The bank model every workload below shares: a seeded sequence of
/// `(from, to, amount)` transfers over `accounts` accounts that all
/// start at `initial` (account numbers are local to the range; a
/// workload that keeps several ranges adds the base itself).
///
/// The plan is a pure function of its seed and the transfers commit in
/// order, each atomically, so the checker can enumerate every state a
/// crash may legally leave behind: the accounts after exactly k
/// committed transfers for some k — no mixtures, no partial transfers,
/// which also implies the total balance is conserved.
struct BankPlan {
    accounts: u64,
    initial: u64,
    transfers: Vec<(u64, u64, u64)>,
}

impl BankPlan {
    fn new(seed: u64, accounts: u64, initial: u64, transfers: usize) -> BankPlan {
        let mut rng = SmallRng::seed_from_u64(seed);
        let transfers = (0..transfers)
            .map(|_| {
                (
                    rng.gen_range(0..accounts),
                    rng.gen_range(0..accounts),
                    rng.gen_range(1..initial / 2),
                )
            })
            .collect();
        BankPlan {
            accounts,
            initial,
            transfers,
        }
    }

    /// Account balances after k committed transfers, k = 0..=transfers.
    fn prefix_states(&self) -> Vec<Vec<u64>> {
        let mut state = vec![self.initial; self.accounts as usize];
        let mut states = vec![state.clone()];
        for &(from, to, amt) in &self.transfers {
            let f = state[from as usize];
            if from != to && f >= amt {
                state[from as usize] -= amt;
                state[to as usize] += amt;
            }
            states.push(state.clone());
        }
        states
    }

    /// `None` if `balances` is a committed prefix of the plan, else the
    /// violation text.
    fn prefix_violation(&self, balances: &[u64]) -> Option<String> {
        if self.prefix_states().iter().any(|s| s == balances) {
            return None;
        }
        let total: u64 = balances.iter().sum();
        Some(format!(
            "recovered table {balances:?} (sum {total}) matches no committed prefix \
             (expected sum {})",
            self.accounts * self.initial
        ))
    }
}

/// Restart-GC invariant of the bank workloads: once machine `m`'s root
/// is durable its (committed) init transaction is recoverable, so
/// exactly the table block is reachable; before that, nothing is.
/// Everything else — the scratch blocks leaked on purpose — must have
/// been reclaimed.
fn live_blocks_violation(m: usize, r: &Restarted) -> Option<String> {
    let expected_live = if r.heap.root_raw(0).is_null() { 0 } else { 1 };
    let gc = &r.reports.gc;
    (gc.live_blocks != expected_live).then(|| {
        format!(
            "machine {m}: GC kept {} live blocks, expected {expected_live} \
             (leaked {} of {} scanned)",
            gc.live_blocks, gc.leaked_blocks, gc.blocks_scanned
        )
    })
}

/// The `len` words of the table rooted in slot 0 of `r`'s heap; `None`
/// while the root is still null (the crash hit set-up, so there is no
/// committed state to compare yet).
pub(crate) fn rooted_table(r: &Restarted, len: u64) -> Option<Vec<u64>> {
    let root = r.heap.root_raw(0);
    if root.is_null() {
        return None;
    }
    let pool = r.machine.pool(root.pool());
    Some((0..len).map(|i| pool.raw_load(root.word() + i)).collect())
}

/// Allocate an `accounts`-word table (one word when there are none), set
/// every balance to `initial` in one transaction, and root the table in
/// slot 0 of the thread's heap.
pub(crate) fn open_accounts(th: &mut TxThread, accounts: u64, initial: u64) -> PAddr {
    let heap = Arc::clone(th.heap());
    let table = heap.alloc(th.session_mut(), accounts.max(1) as usize);
    th.run(|tx| {
        for i in 0..accounts {
            tx.write_at(table, i, initial)?;
        }
        Ok(())
    });
    heap.set_root(th.session_mut(), 0, table);
    table
}

/// Leak a scratch block on purpose: a crash anywhere leaves it
/// unreachable, and the restart GC of that heap must reclaim it.
fn leak_scratch(th: &mut TxThread) {
    let heap = Arc::clone(th.heap());
    let scratch = heap.alloc(th.session_mut(), 3);
    th.session_mut().store(scratch, 0xC0FFEE);
}

/// One transfer transaction between two words of `table`: all or
/// nothing, and nothing when it would overdraw `from`.
pub(crate) fn transfer(th: &mut TxThread, table: PAddr, from: u64, to: u64, amt: u64) {
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

/// The canonical sweep workload: a single-threaded sequence of bank
/// transfers over a rooted table, with deliberately leaked scratch
/// allocations so the restart GC has something to reclaim. Recovery
/// must land on a committed prefix of its [`BankPlan`].
#[derive(Debug, Clone)]
pub struct BankTransfers {
    pub accounts: u64,
    pub initial: u64,
    pub transfers: usize,
    /// How commits flush. `Combined` by default: the sweep's acceptance
    /// bar is that batching survives every crash site; set `Batched` to
    /// sweep the naive baseline.
    pub flush: FlushPlan,
}

impl Default for BankTransfers {
    fn default() -> Self {
        BankTransfers {
            accounts: 8,
            initial: 100,
            transfers: 10,
            flush: FlushPlan::Combined,
        }
    }
}

impl BankTransfers {
    fn plan(&self, seed: u64) -> BankPlan {
        BankPlan::new(seed, self.accounts, self.initial, self.transfers)
    }
}

impl CrashWorkload for BankTransfers {
    fn name(&self) -> &str {
        "bank"
    }

    fn heap_pool(&self, _machine: usize) -> String {
        "bank".to_string()
    }

    fn run(&self, machines: &[Arc<Machine>], case: &SweepCase) {
        let cfg = PtmConfig {
            algo: case.algo,
            flush: self.flush,
            ..PtmConfig::default()
        };
        let db = PtmDb::on_machine(
            Arc::clone(&machines[0]),
            &self.heap_pool(0),
            cfg,
            1 << 15,
            4,
        );
        let mut th = db.thread(0);
        let table = open_accounts(&mut th, self.accounts, self.initial);
        for (from, to, amt) in self.plan(case.seed).transfers {
            leak_scratch(&mut th);
            transfer(&mut th, table, from, to, amt);
        }
    }

    fn check(&self, restarted: &[Restarted], case: &SweepCase) -> Vec<String> {
        let mut violations: Vec<String> = live_blocks_violation(0, &restarted[0])
            .into_iter()
            .collect();
        if let Some(table) = rooted_table(&restarted[0], self.accounts) {
            violations.extend(self.plan(case.seed).prefix_violation(&table));
        }
        violations
    }
}

/// A two-thread bank: the sweeps' one workload with two virtual threads
/// committing on one machine.
///
/// Both virtual threads live on one OS thread and are stepped
/// alternately (A, B, A, B, ...) under an unbounded lag window (no
/// window ever blocks one thread on the other), so the run is fully
/// deterministic in the case seed while each thread's commits — log
/// appends, flushes and fences — interleave with the other's. Each
/// thread transfers only within its own account range, so recovery must
/// land on a committed prefix of each thread's plan *independently*: a
/// crash that leaves one thread's transfer half-applied shows up as a
/// non-prefix state.
#[derive(Debug, Clone)]
pub struct TwoThreadBank {
    pub accounts_per_thread: u64,
    pub initial: u64,
    pub transfers_per_thread: usize,
}

impl Default for TwoThreadBank {
    fn default() -> Self {
        TwoThreadBank {
            accounts_per_thread: 4,
            initial: 100,
            transfers_per_thread: 4,
        }
    }
}

impl TwoThreadBank {
    /// Thread `t`'s plan, confined to its own account range
    /// `[t·n, (t+1)·n)`.
    fn plan(&self, seed: u64, t: u64) -> BankPlan {
        BankPlan::new(
            seed ^ (t + 1).wrapping_mul(0x9E37_79B9),
            self.accounts_per_thread,
            self.initial,
            self.transfers_per_thread,
        )
    }
}

impl CrashWorkload for TwoThreadBank {
    fn name(&self) -> &str {
        "group-bank"
    }

    fn heap_pool(&self, _machine: usize) -> String {
        "group-bank".to_string()
    }

    fn run(&self, machines: &[Arc<Machine>], case: &SweepCase) {
        machines[0].begin_run(2, u64::MAX);
        let db = PtmDb::on_machine(
            Arc::clone(&machines[0]),
            &self.heap_pool(0),
            PtmConfig::with_algo(case.algo),
            1 << 15,
            4,
        );
        let mut ths: Vec<TxThread> = (0..2).map(|t| db.thread(t)).collect();
        let n = self.accounts_per_thread;
        let table = open_accounts(&mut ths[0], 2 * n, self.initial);
        let plans = [self.plan(case.seed, 0), self.plan(case.seed, 1)];
        // Step the two virtual threads alternately from this one OS
        // thread: every B-transfer commits right after an A-transfer's
        // fence (and vice versa).
        for (pa, pb) in plans[0].transfers.iter().zip(&plans[1].transfers) {
            for (t, &(from, to, amt)) in [pa, pb].into_iter().enumerate() {
                let base = t as u64 * n;
                transfer(&mut ths[t], table, base + from, base + to, amt);
            }
        }
    }

    fn check(&self, restarted: &[Restarted], case: &SweepCase) -> Vec<String> {
        let mut violations: Vec<String> = live_blocks_violation(0, &restarted[0])
            .into_iter()
            .collect();
        let n = self.accounts_per_thread;
        if let Some(table) = rooted_table(&restarted[0], 2 * n) {
            for (t, range) in table.chunks(n as usize).enumerate() {
                if let Some(v) = self.plan(case.seed, t as u64).prefix_violation(range) {
                    violations.push(format!("thread {t}: {v}"));
                }
            }
        }
        violations
    }
}

/// The cross-shard sweep workload: a single worker issuing a
/// deterministic sequence of bank transfers over accounts partitioned
/// round-robin across the shards of a [`ShardedEngine`] — one machine
/// per shard — driven through [`CrossShardTx`] so that roughly half the
/// transfers span two shards and commit via 2PC (prepare → coordinator
/// record → commit), while the rest take the single-writer fast path.
///
/// The global account vector (gathered across all shards) must match a
/// committed prefix of the one [`BankPlan`]: a torn cross-shard transfer
/// — debit applied on one shard, credit lost on the other — matches no
/// prefix and fails the sweep.
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
    /// Home shard and table offset of account `a`.
    fn home(&self, a: u64) -> (usize, u64) {
        ((a % self.shards as u64) as usize, a / self.shards as u64)
    }

    /// Number of accounts homed on shard `s`.
    fn accounts_on(&self, s: usize) -> u64 {
        (self.accounts + self.shards as u64 - 1 - s as u64) / self.shards as u64
    }

    fn plan(&self, seed: u64) -> BankPlan {
        BankPlan::new(seed, self.accounts, self.initial, self.transfers)
    }

    /// Populate every shard, then transact.
    fn transact(&self, engine: &ShardedEngine, case: &SweepCase) {
        engine.begin_roaming_run(1);
        let mut cx = CrossShardTx::new(engine, 0);
        // Per-shard account tables, rooted so recovery can find them.
        let tables: Vec<PAddr> = (0..self.shards)
            .map(|s| open_accounts(cx.thread_mut(s), self.accounts_on(s), self.initial))
            .collect();
        for (from, to, amt) in self.plan(case.seed).transfers {
            let (sf, of) = self.home(from);
            let (st, ot) = self.home(to);
            // The scratch block leaks on the debit shard.
            leak_scratch(cx.thread_mut(sf));
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
}

impl CrashWorkload for ShardedTransfers {
    fn name(&self) -> &str {
        "transfer"
    }

    fn machines(&self) -> usize {
        self.shards
    }

    fn heap_pool(&self, machine: usize) -> String {
        shard_heap_name(machine)
    }

    fn run(&self, machines: &[Arc<Machine>], case: &SweepCase) {
        self.build(machines, case)()
    }

    /// The engine's heaps and coordinator pools are formatted here,
    /// before the injector is armed, so site numbering starts at the
    /// workload itself.
    fn build<'a>(
        &'a self,
        machines: &'a [Arc<Machine>],
        case: &'a SweepCase,
    ) -> Box<dyn FnOnce() + 'a> {
        let cfg = PtmConfig {
            algo: case.algo,
            ..PtmConfig::default()
        };
        let engine = ShardedEngine::on_machines(machines.to_vec(), cfg, 1 << 15, 4);
        Box::new(move || self.transact(&engine, case))
    }

    fn check(&self, restarted: &[Restarted], case: &SweepCase) -> Vec<String> {
        let mut violations: Vec<String> = restarted
            .iter()
            .enumerate()
            .filter_map(|(s, r)| live_blocks_violation(s, r))
            .collect();
        // Shards are set up in order, so transfers only ever ran if every
        // root is durable; a null root anywhere means the crash hit
        // set-up and there is no committed-prefix state to compare yet.
        let tables: Option<Vec<Vec<u64>>> = restarted
            .iter()
            .enumerate()
            .map(|(s, r)| rooted_table(r, self.accounts_on(s)))
            .collect();
        if let Some(tables) = tables {
            let state: Vec<u64> = (0..self.accounts)
                .map(|a| {
                    let (s, off) = self.home(a);
                    tables[s][off as usize]
                })
                .collect();
            if let Some(v) = self.plan(case.seed).prefix_violation(&state) {
                violations.push(format!("{v}: a cross-shard transfer tore"));
            }
        }
        violations
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

    fn tiny_two_thread_bank() -> TwoThreadBank {
        TwoThreadBank {
            accounts_per_thread: 4,
            initial: 64,
            transfers_per_thread: 3,
        }
    }

    /// Crash sites in the two-thread bank — for every algorithm across
    /// all four live durability domains — recover to a committed prefix
    /// on both threads.
    #[test]
    fn two_thread_sweep_is_clean_across_algos_and_domains() {
        let bank = tiny_two_thread_bank();
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
    fn two_thread_replay_is_deterministic() {
        let bank = tiny_two_thread_bank();
        let c = case(Algo::UndoEager, AdversaryPolicy::PerWord);
        let total = count_sites(&bank, &c);
        assert!(total > 0);
        let site = total / 3;
        let a = run_site(&bank, &c, site, RecoverOptions::default());
        let b = run_site(&bank, &c, site, RecoverOptions::default());
        assert_eq!(a.fired, b.fired);
        assert_eq!(a.state_digest, b.state_digest);
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
        let a = count_sites(&w, &c);
        let b = count_sites(&w, &c);
        assert_eq!(a, b);
        assert!(a > 0, "a cross-shard workload must emit crash sites");
        // The plan for this seed must actually cross shards, or the
        // sweep below would never exercise the 2PC windows.
        assert!(
            w.plan(c.seed)
                .transfers
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
        let total = count_sites(&w, &c);
        let site = total / 2;
        let a = run_site(&w, &c, site, RecoverOptions::default());
        let b = run_site(&w, &c, site, RecoverOptions::default());
        assert_eq!(a.fired, b.fired);
        assert_eq!(a.state_digest, b.state_digest, "replay must be bit-exact");
        assert_eq!(a.violations, b.violations);
    }

    /// An undo decide-commit fences its log truncation before it clears
    /// the PREPARED marker. With one fence for both, these two sites
    /// persisted the cleared marker without the truncation, and recovery
    /// rolled back a participant that was decided commit.
    #[test]
    fn undo_decide_commit_does_not_tear_a_transfer() {
        let w = ShardedTransfers::default();
        let c = case(Algo::UndoEager, AdversaryPolicy::PerWord);
        for site in [167, 343] {
            let r = run_site(&w, &c, site, RecoverOptions::default());
            assert!(r.violations.is_empty(), "site {site}: {:?}", r.violations);
        }
    }

    #[test]
    fn sharded_end_of_run_site_recovers_the_final_state() {
        let w = tiny_xshard();
        let c = case(Algo::RedoLazy, AdversaryPolicy::PerWord);
        let total = count_sites(&w, &c);
        let r = run_site(&w, &c, total, RecoverOptions::default());
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
        for algo in [Algo::RedoLazy, Algo::UndoEager] {
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
                let report = sweep_case(&w, &c, opts);
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
            let report = sweep_case(&w, &c, opts);
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
                let plan = w.plan(s);
                let crossing = plan
                    .transfers
                    .last()
                    .map(|&(f, t, _)| f != t && w.home(f).0 != w.home(t).0)
                    .unwrap_or(false);
                let states = plan.prefix_states();
                crossing && states[states.len() - 1] != states[states.len() - 2]
            })
            .expect("some small seed must end on an effective cross-shard transfer");
        let c = SweepCase {
            algo: Algo::RedoLazy,
            domain: DurabilityDomain::Adr,
            policy: AdversaryPolicy::AllOld,
            seed,
        };
        let total = count_sites(&w, &c);
        let mut resolved = 0usize;
        for site in total.saturating_sub(48)..total {
            let r = run_site(&w, &c, site, RecoverOptions::default());
            assert!(r.violations.is_empty(), "site {site}: {:?}", r.violations);
            resolved += r.recovery.indoubt_resolved_commit + r.recovery.indoubt_resolved_abort;
        }
        assert!(
            resolved > 0,
            "no tail site left a log in doubt — the sweep is missing the 2PC window"
        );
    }

    /// One machine is the length-1 case of the multi-machine driver, bit
    /// for bit: the site counts and recovered-state digests below were
    /// measured with the separate single-machine and sharded drivers
    /// this one replaced (parent commit, same workloads, case and site).
    #[test]
    fn length_one_runs_reproduce_the_single_machine_driver() {
        assert_eq!(shard_seed(0xABCD, 0), 0xABCD);
        let c = case(Algo::RedoLazy, AdversaryPolicy::PerWord);
        let one_shard = ShardedTransfers {
            shards: 1,
            ..tiny_xshard()
        };
        let pinned: [(&dyn CrashWorkload, u64, u64); 3] = [
            (&tiny_bank(), 78, 0x9c2b_2332_e669_7daf),
            (&one_shard, 123, 0x0e23_86d7_973d_0070),
            (&tiny_xshard(), 159, 0x99d8_5c5f_8498_0927),
        ];
        for (w, total, digest) in pinned {
            assert_eq!(count_sites(w, &c), total, "{}", w.name());
            let r = run_site(w, &c, total / 2, RecoverOptions::default());
            assert_eq!(r.state_digest, digest, "{}", w.name());
            assert!(r.violations.is_empty(), "{:?}", r.violations);
        }
    }

    /// A bank whose declared heap pool is wrong, or whose heap header is
    /// wrecked at the end of the run.
    struct BrokenHeap {
        bank: BankTransfers,
        wreck_header: bool,
    }

    impl CrashWorkload for BrokenHeap {
        fn name(&self) -> &str {
            "broken-heap"
        }
        fn heap_pool(&self, m: usize) -> String {
            if self.wreck_header {
                self.bank.heap_pool(m)
            } else {
                "no-such-pool".to_string()
            }
        }
        fn run(&self, machines: &[Arc<Machine>], case: &SweepCase) {
            self.bank.run(machines, case);
            if self.wreck_header {
                let pools = machines[0].pools();
                let heap = pools.iter().find(|p| p.name() == "bank").unwrap();
                heap.raw_store(palloc::layout::OFF_MAGIC, 0);
                heap.persist_line_now(0);
            }
        }
        fn check(&self, restarted: &[Restarted], case: &SweepCase) -> Vec<String> {
            self.bank.check(restarted, case)
        }
    }

    /// The fail-soft property the restart sequence's `Result` exists
    /// for: a machine that cannot be restarted is a violation carrying
    /// the reason, never a panic in the sweep.
    #[test]
    fn unrestartable_machine_is_a_violation_not_a_panic() {
        let c = case(Algo::RedoLazy, AdversaryPolicy::PerWord);
        for (wreck_header, expect) in [(false, "missing after reboot"), (true, "attach failed")] {
            let w = BrokenHeap {
                bank: tiny_bank(),
                wreck_header,
            };
            let total = count_sites(&w, &c);
            let r = run_site(&w, &c, total, RecoverOptions::default());
            assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
            assert!(r.violations[0].contains(expect), "{:?}", r.violations);
            assert!(r.gc.is_none() && r.state_digest == 0);
        }
        // Through the sweep: a missing pool fails every site, each with
        // its reproducer line.
        let w = BrokenHeap {
            bank: tiny_bank(),
            wreck_header: false,
        };
        let opts = SweepOptions {
            max_sites_per_case: Some(4),
            ..SweepOptions::default()
        };
        let swept = sweep_case(&w, &c, opts);
        assert_eq!(swept.violations.len() as u64, swept.sites_run);
        let line = swept.violations[0].to_string();
        assert!(
            line.starts_with("CRASH-REPRO workload=broken-heap site=0 "),
            "{line}"
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
