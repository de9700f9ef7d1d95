//! PTM configuration: algorithm selection and the paper's tuning knobs.

/// Which PTM algorithm to run. The first two are the best performers
/// from the authors' PACT'19 suite, as used throughout the paper; the
/// third is durable HTM (Giles et al.), the paper's §V future work.
///
/// Each variant maps to one [`crate::algo::LogPolicy`] implementation in
/// the `crate::algo` registry — adding an algorithm means adding a
/// policy file and a registry row, nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// "orec-lazy": commit-time locking with redo logging. Reads consult
    /// the redo log; writes are buffered and applied at commit. O(1)
    /// fences per transaction.
    RedoLazy,
    /// "orec-eager": encounter-time locking with undo logging. Writes go
    /// in place after persisting the old value. O(W) fences.
    UndoEager,
    /// Durable HTM via aliased back-end logging (Giles et al., *Hardware
    /// Transactional Persistent Memory*): the transaction body runs in a
    /// simulated hardware section with buffered writes and **no** orec
    /// acquisition, flush or fence inside the section; after the section
    /// retires, a redo-style back-end log is persisted and sealed, then
    /// home locations are written back lazily. Conflict detection is the
    /// hardware section itself, so the contention window contains zero
    /// persistence stalls — the HTM fast path works under ADR. Where the
    /// domain needs no flushes the log is skipped: the write set is
    /// applied in place, atomically, when the section retires.
    HtmLogged,
}

impl Algo {
    /// Every registered algorithm, in registry order. Test helpers and
    /// sweep grids iterate this so a newly registered algorithm is
    /// exercised automatically.
    pub const ALL: [Algo; 3] = [Algo::RedoLazy, Algo::UndoEager, Algo::HtmLogged];

    /// Suffix used in the paper's curve labels ("R" / "U" / "H").
    pub fn label(self) -> &'static str {
        match self {
            Algo::RedoLazy => "R",
            Algo::UndoEager => "U",
            Algo::HtmLogged => "H",
        }
    }

    /// Canonical CLI name; [`std::fmt::Display`] and [`std::str::FromStr`]
    /// round-trip through it (single source of truth for `--algo`
    /// parsing across the bench binaries and the crash harness).
    pub fn name(self) -> &'static str {
        match self {
            Algo::RedoLazy => "redo",
            Algo::UndoEager => "undo",
            Algo::HtmLogged => "htm",
        }
    }
}

impl std::fmt::Display for Algo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Algo {
    type Err = String;

    fn from_str(s: &str) -> Result<Algo, String> {
        Algo::ALL
            .into_iter()
            .find(|a| a.name() == s)
            .ok_or_else(|| {
                let known: Vec<&str> = Algo::ALL.iter().map(|a| a.name()).collect();
                format!("unknown algorithm `{s}` (known: {})", known.join(", "))
            })
    }
}

/// How a transaction's durability obligations become `clwb`s — one
/// concept with three points. Policies only *offer* lines to the flush
/// window of [`crate::access::TxAccess`]; this plan (and whether the
/// domain needs flushes at all) decides what an offer turns into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushPlan {
    /// Per-entry `clwb`s, and additionally each redo-log line as it
    /// fills during execution (§III-B's staggered timing; the paper found
    /// no noticeable difference, `bench --bin ablate`'s `+incremental`
    /// rows reproduce that). Only a redo log under a domain that needs
    /// flushes has lines to flush early: elsewhere this plan is
    /// `Batched` line for line (a test in `ablate` pins it).
    Incremental,
    /// Per-entry `clwb`s in a tight loop at commit: the paper's measured
    /// baseline and the default.
    Batched,
    /// Write combining: every obligation of a fence window (redo
    /// write-back lines, `eager_writes`, fresh blocks, log lines) is
    /// collected in a line-granular `LineSet`, deduped, and drained
    /// through the bank-interleaved `MemSession::clwb_batch`; the read
    /// set is duplicate-filtered too, so `validate_reads`/`extend` cost
    /// O(unique orecs). Under eADR-class domains the planner is skipped
    /// (flushes are free no-ops there).
    Combined,
}

/// Modeled cost of one orec/global-clock access (DRAM metadata, hot).
pub const OREC_NS: u64 = 4;
/// Modeled cost of one log-index probe when `split_log_index`.
pub const INDEX_NS: u64 = 4;
/// Spin iterations on a locked orec before aborting.
pub const LOCK_SPIN: u32 = 16;
/// Abort ceiling before declaring livelock (panics). Generous.
pub const MAX_RETRIES: u32 = 1_000_000;
/// Contention backoff ceiling in virtual ns (the exponential retry
/// backoff saturates here). Bounded so a victim of a hot orec is
/// delayed a bounded amount per attempt; the high-water
/// `PtmStats::max_backoff_ns` makes the actual worst delay observable.
pub const MAX_BACKOFF_NS: u64 = 40_000;
const _: () = assert!(MAX_BACKOFF_NS > 0, "backoff ceiling must be positive");
/// Hardware-section attempts before a policy with a hardware path
/// ([`Algo::HtmLogged`]) falls back to its software sequence. The
/// hardware model itself is a machine property: the footprint capacity
/// is `pmem_sim::HtmModel`, the `xbegin` / `xend` costs are
/// `pmem_sim::machine::{HTM_BEGIN_NS, HTM_COMMIT_NS}`; every machine has
/// HTM.
pub const HTM_ATTEMPTS: u32 = 4;
/// Per-thread log capacity in entries (4 words each).
pub const LOG_CAPACITY: usize = 1 << 13;

/// Runtime configuration. TL2-style timestamp extension on validation
/// failure is always attempted; the modeled metadata costs and retry
/// bounds are the constants above.
#[derive(Debug, Clone)]
pub struct PtmConfig {
    pub algo: Algo,
    pub flush: FlushPlan,
    /// Table III's deliberately *incorrect* variant: issue `clwb`s but no
    /// `sfence`s. Measurement-only — recovery guarantees are void.
    pub elide_fences: bool,
    /// The paper's split-log optimization (§III-A): keep the log's hash
    /// index in DRAM. When `false`, index probes are charged Optane
    /// latency (ablation).
    pub split_log_index: bool,
    /// Number of orecs (rounded to a power of two).
    pub orec_count: usize,
    /// PDRAM-Lite primary log budget, in entries. Entries beyond it spill
    /// to an Optane overflow region (§IV-B: a handful of pages per thread
    /// with fall-back to Optane "should suffice").
    pub lite_log_entries: usize,
    /// Where the persistent heap lives (Optane vs the paper's DRAM
    /// ramdisk baseline). Stored here so the harness can construct
    /// matching log pools.
    pub heap_media: pmem_sim::MediaKind,
    /// Record transaction-lifecycle events into the flight recorder
    /// attached to the machine (see the `trace` crate). The memory-system
    /// events trace whenever a sink is attached; this flag additionally
    /// gates the PTM-layer instrumentation (one boolean test per site
    /// when off — the session ring is only captured when a sink is
    /// armed, so the off cost is a single predictable branch).
    pub tracing: bool,
}

impl Default for PtmConfig {
    fn default() -> Self {
        PtmConfig {
            algo: Algo::RedoLazy,
            flush: FlushPlan::Batched,
            elide_fences: false,
            split_log_index: true,
            orec_count: 1 << 18,
            lite_log_entries: 128,
            heap_media: pmem_sim::MediaKind::Optane,
            tracing: false,
        }
    }
}

impl PtmConfig {
    /// Default configuration running `algo`.
    pub fn with_algo(algo: Algo) -> Self {
        PtmConfig {
            algo,
            ..Self::default()
        }
    }

    pub fn redo() -> Self {
        Self::with_algo(Algo::RedoLazy)
    }

    pub fn undo() -> Self {
        Self::with_algo(Algo::UndoEager)
    }

    pub fn htm_logged() -> Self {
        Self::with_algo(Algo::HtmLogged)
    }

    /// The given algorithm under [`FlushPlan::Combined`].
    pub fn combined(algo: Algo) -> Self {
        PtmConfig {
            algo,
            flush: FlushPlan::Combined,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = PtmConfig::default();
        assert!(c.split_log_index, "paper's tuned algorithms split the log");
        assert!(!c.elide_fences, "fence elision is an incorrect variant");
        assert_eq!(c.flush, FlushPlan::Batched, "the paper's measured arm");
    }

    #[test]
    fn combined_turns_on_write_combining() {
        let c = PtmConfig::combined(Algo::UndoEager);
        assert_eq!(c.algo, Algo::UndoEager);
        assert_eq!(c.flush, FlushPlan::Combined);
    }

    #[test]
    fn constructors_pick_algorithms() {
        assert_eq!(PtmConfig::redo().algo, Algo::RedoLazy);
        assert_eq!(PtmConfig::undo().algo, Algo::UndoEager);
        assert_eq!(PtmConfig::htm_logged().algo, Algo::HtmLogged);
        for algo in Algo::ALL {
            assert_eq!(PtmConfig::with_algo(algo).algo, algo);
        }
        assert_eq!(Algo::RedoLazy.label(), "R");
        assert_eq!(Algo::UndoEager.label(), "U");
        assert_eq!(Algo::HtmLogged.label(), "H");
    }

    #[test]
    fn display_fromstr_round_trips() {
        for algo in Algo::ALL {
            let s = algo.to_string();
            assert_eq!(s.parse::<Algo>().unwrap(), algo, "{s}");
        }
        assert!("nope".parse::<Algo>().is_err());
        // The retired copy-on-write name is rejected, and the message
        // names every registered algorithm.
        let err = "cow".parse::<Algo>().unwrap_err();
        for algo in Algo::ALL {
            assert!(err.contains(algo.name()), "{err}");
        }
    }
}
