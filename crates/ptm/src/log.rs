//! Persistent per-thread transaction descriptor and write-ahead log.
//!
//! Layout of a thread's primary log pool (`ptm-log-<tid>`):
//!
//! ```text
//! word 0  state        (IDLE / COMMITTED — the redo linearization marker)
//! word 1  count        (redo: number of valid entries, sealed with state)
//! word 2  algo         (1 = redo, 2 = undo, 4 = htm; recovery
//!                       dispatches on it via the `crate::algo` registry;
//!                       3 is retired (the deleted copy-on-write
//!                       algorithm): never reassign, so an older image
//!                       carrying it stays a foreign log)
//! word 3  overflow id  (pool id of the spill region, 0 = none)
//! word 4  primary cap  (entries that fit in this pool)
//! word 8… entries      (4 words each: addr, value, checksum, pad)
//! ```
//!
//! **Redo** entries become meaningful only once the commit marker
//! (`state = COMMITTED` plus `count`, on one cache line, one flush+fence)
//! is durable; all entries are flushed and fenced *before* the marker, so
//! recovery never sees a torn committed log.
//!
//! **Undo** entries must be trusted *without* a marker (the crash can hit
//! mid-transaction), so each entry carries a checksum
//! `addr ^ value ^ SEAL`. A torn entry — some words durable, some not —
//! fails the checksum unless the lost value word was genuinely zero, in
//! which case replaying it is a no-op rewrite of the same value. The log
//! is truncated (entry 0's address word zeroed, flushed, fenced) after
//! the in-place data has been flushed at commit, and after rollback
//! completes at abort.
//!
//! Under `DurabilityDomain::PdramLite` the primary pool is created with
//! [`PersistenceClass::PdramLite`] — served at DRAM latency, durable —
//! and holds `lite_log_entries`; the remainder spills to an Optane-class
//! overflow pool, reproducing the paper's bounded-budget design.

use std::sync::Arc;

use pmem_sim::{DurabilityDomain, Machine, MediaKind, PAddr, PersistenceClass, PmemPool};

use crate::config::{PtmConfig, LOG_CAPACITY};

/// Descriptor state values (the low byte of `W_STATE`).
pub const STATE_IDLE: u64 = 0;
pub const STATE_COMMITTED: u64 = 2;
/// 2PC participant state: the write set is durable but the outcome
/// belongs to the coordinator record, not this log. Recovery must
/// neither replay nor roll back a prepared log until the outcome-
/// resolution pass has consulted the coordinator.
pub const STATE_PREPARED: u64 = 3;
/// Bits of the state word holding the state value proper; the upper
/// bits of a committed marker carry the entry count (see
/// [`committed_marker`]).
pub const STATE_MASK: u64 = 0xFF;

/// Build a committed marker carrying its own entry count. The marker
/// and the count must become durable *atomically*: they share the
/// header cache line, but under a power failure the WPQ persists a torn
/// line word by word — a marker word that survives while the separate
/// `W_COUNT` word reverts to a stale (larger) value makes recovery
/// replay stale entries past the real write set. Packing the count into
/// the marker word makes that split impossible. `W_COUNT` is still
/// written as an observability mirror, but recovery must never trust it
/// for a committed log.
pub fn committed_marker(count: u64) -> u64 {
    debug_assert!(count < 1 << 56, "entry count overflows marker");
    STATE_COMMITTED | (count << 8)
}

/// Whether a state word is a committed marker (any entry count).
pub fn is_committed(state: u64) -> bool {
    state & STATE_MASK == STATE_COMMITTED
}

/// The entry count packed into a committed marker.
pub fn marker_count(state: u64) -> u64 {
    state >> 8
}

/// Build a prepared marker for a 2PC participant, carrying both the
/// entry count (bits 8..32) and the global transaction id (bits
/// 32..64). Like [`committed_marker`], packing everything recovery
/// needs into one word makes a torn header line unable to pair a
/// durable marker with a stale count or gtid.
pub fn prepared_marker(count: u64, gtid: u64) -> u64 {
    debug_assert!(count < 1 << 24, "entry count overflows prepared marker");
    debug_assert!(gtid > 0 && gtid < 1 << 32, "gtid out of marker range");
    STATE_PREPARED | (count << 8) | (gtid << 32)
}

/// Whether a state word is a prepared marker.
pub fn is_prepared(state: u64) -> bool {
    state & STATE_MASK == STATE_PREPARED
}

/// The entry count packed into a prepared marker.
pub fn prepared_count(state: u64) -> u64 {
    (state >> 8) & 0xFF_FFFF
}

/// The global transaction id packed into a prepared marker.
pub fn prepared_gtid(state: u64) -> u64 {
    state >> 32
}

// ---- coordinator commit record ------------------------------------------
//
// The 2PC decision record lives in a small pool (`ptm-2pc-coord`) on the
// *coordinator shard's* machine — a designated participant, not a
// separate coordinator node, so the record rides the same crash/recovery
// machinery as every other pool (DESIGN.md decision 14). A record is two
// words on one cache line: the gtid and a seal derived from it. The
// decision point is the flush+fence of that line; a torn record (gtid
// durable, seal stale or vice versa) fails the seal check and reads as
// "no decision", which resolves the transaction as aborted — exactly the
// presumed-abort contract.

/// Name of the per-machine coordinator-record pool.
pub const COORD_POOL: &str = "ptm-2pc-coord";
/// Slots in the coordinator pool (2 words each; one line holds 4).
pub const COORD_SLOTS: usize = 64;
/// Words per coordinator slot.
pub const COORD_SLOT_WORDS: usize = 2;
/// Seal constant for coordinator records.
pub const COORD_SEAL: u64 = 0x00C0_012D_2BC5_EA1E;

/// Seal for a coordinator commit record of `gtid`.
#[inline]
pub fn coord_seal(gtid: u64) -> u64 {
    gtid.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ COORD_SEAL
}

/// Algo discriminants as stored persistently (each policy's
/// `LogPolicy::persistent_tag`).
pub const ALGO_REDO: u64 = 1;
pub const ALGO_UNDO: u64 = 2;
pub const ALGO_HTM: u64 = 4;

/// Header word offsets.
pub const W_STATE: u64 = 0;
pub const W_COUNT: u64 = 1;
pub const W_ALGO: u64 = 2;
pub const W_OVF: u64 = 3;
pub const W_PRIMARY_CAP: u64 = 4;
/// Persistent per-thread transaction sequence number. Bumped and fenced
/// before an undo transaction's first entry; folded into every entry
/// checksum so recovery cannot mistake a stale entry from an earlier
/// transaction (lying just past the current transaction's entries) for a
/// live one.
pub const W_SEQ: u64 = 5;
/// First entry word.
pub const ENTRY0: u64 = 8;
/// Words per entry.
pub const ENTRY_WORDS: u64 = 4;

/// Checksum seal for undo entries.
pub const SEAL: u64 = 0x005E_A10F_1EA5_C0DE;

/// Distinct cache lines occupied by the first `count` log entries.
///
/// Entries are 4 words in an 8-word line and start line-aligned (at
/// [`ENTRY0`] in the primary pool, at word 0 in the overflow pool), so
/// they pack two per line: `count` entries dirty exactly
/// `ceil(count / 2)` lines. This is the write-combining planner's
/// per-commit log flush cost; the naive pipeline pays one flush per
/// entry instead.
#[inline]
pub const fn entry_lines(count: usize) -> usize {
    count.div_ceil(2)
}

/// Seal an undo entry for transaction sequence number `seq`.
#[inline]
pub fn seal(addr: u64, value: u64, seq: u64) -> u64 {
    addr ^ value ^ SEAL ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Name prefix of primary log pools (recovery discovers them by name).
pub const LOG_POOL_PREFIX: &str = "ptm-log-";
/// Name prefix of overflow pools (skipped by discovery; reached via id).
pub const OVF_POOL_PREFIX: &str = "ptm-logovf-";

/// A thread's persistent log region.
pub struct TxLog {
    pub primary: Arc<PmemPool>,
    pub overflow: Option<Arc<PmemPool>>,
    /// Entries that fit in the primary pool.
    pub primary_cap: usize,
    /// Total entry capacity.
    pub capacity: usize,
}

impl TxLog {
    /// Create the per-thread log pools on `machine`. Setup is untimed.
    pub fn create(machine: &Arc<Machine>, tid: usize, cfg: &PtmConfig) -> TxLog {
        let lite = machine.domain() == DurabilityDomain::PdramLite;
        let media = cfg.heap_media;
        let (primary_cap, class) = if lite && media == MediaKind::Optane {
            (
                cfg.lite_log_entries.min(LOG_CAPACITY),
                PersistenceClass::PdramLite,
            )
        } else {
            (LOG_CAPACITY, PersistenceClass::Normal)
        };
        let primary_words = (ENTRY0 + primary_cap as u64 * ENTRY_WORDS) as usize;
        let primary = machine.alloc_pool_with_class(
            &format!("{LOG_POOL_PREFIX}{tid}"),
            primary_words,
            media,
            class,
        );
        let overflow = if primary_cap < LOG_CAPACITY {
            let words = (LOG_CAPACITY - primary_cap) * ENTRY_WORDS as usize;
            Some(machine.alloc_pool(&format!("{OVF_POOL_PREFIX}{tid}"), words, media))
        } else {
            None
        };
        primary.raw_store(W_STATE, STATE_IDLE);
        primary.raw_store(W_COUNT, 0);
        primary.raw_store(W_ALGO, crate::algo::policy(cfg.algo).persistent_tag());
        primary.raw_store(W_OVF, overflow.as_ref().map_or(0, |p| p.id().0 as u64));
        primary.raw_store(W_PRIMARY_CAP, primary_cap as u64);
        primary.raw_store(W_SEQ, 0);
        primary.persist_line_now(0);
        TxLog {
            primary,
            overflow,
            primary_cap,
            capacity: LOG_CAPACITY,
        }
    }

    /// Address of entry `i`'s first word (`addr` field).
    #[inline]
    pub fn entry_addr(&self, i: usize) -> PAddr {
        if i < self.primary_cap {
            self.primary.addr(ENTRY0 + i as u64 * ENTRY_WORDS)
        } else {
            let ovf = self
                .overflow
                .as_ref()
                .expect("entry index beyond primary with no overflow");
            ovf.addr((i - self.primary_cap) as u64 * ENTRY_WORDS)
        }
    }

    /// Address of the descriptor header (state word).
    #[inline]
    pub fn state_addr(&self) -> PAddr {
        self.primary.addr(W_STATE)
    }

    /// Address of the count word.
    #[inline]
    pub fn count_addr(&self) -> PAddr {
        self.primary.addr(W_COUNT)
    }

    /// Address of the sequence-number word.
    #[inline]
    pub fn seq_addr(&self) -> PAddr {
        self.primary.addr(W_SEQ)
    }

    /// Untimed read of an entry (recovery).
    pub fn raw_entry(
        primary: &PmemPool,
        overflow: Option<&PmemPool>,
        primary_cap: usize,
        i: usize,
    ) -> (u64, u64, u64) {
        let (pool, base) = if i < primary_cap {
            (primary, ENTRY0 + i as u64 * ENTRY_WORDS)
        } else {
            (
                overflow.expect("entry beyond primary with no overflow"),
                (i - primary_cap) as u64 * ENTRY_WORDS,
            )
        };
        (
            pool.raw_load(base),
            pool.raw_load(base + 1),
            pool.raw_load(base + 2),
        )
    }

    /// Untimed read of a full 4-word entry (recovery of `HtmLogged`
    /// back-end logs, whose fourth word is a checksum rather than pad).
    pub fn raw_entry4(
        primary: &PmemPool,
        overflow: Option<&PmemPool>,
        primary_cap: usize,
        i: usize,
    ) -> (u64, u64, u64, u64) {
        let (pool, base) = if i < primary_cap {
            (primary, ENTRY0 + i as u64 * ENTRY_WORDS)
        } else {
            (
                overflow.expect("entry beyond primary with no overflow"),
                (i - primary_cap) as u64 * ENTRY_WORDS,
            )
        };
        (
            pool.raw_load(base),
            pool.raw_load(base + 1),
            pool.raw_load(base + 2),
            pool.raw_load(base + 3),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::MachineConfig;

    fn machine(domain: DurabilityDomain) -> Arc<Machine> {
        Machine::new(MachineConfig::functional(domain))
    }

    #[test]
    fn create_initializes_header_durably() {
        let m = machine(DurabilityDomain::Adr);
        let cfg = PtmConfig::redo();
        let log = TxLog::create(&m, 3, &cfg);
        assert_eq!(log.primary.raw_load(W_ALGO), ALGO_REDO);
        assert_eq!(log.primary.raw_load(W_STATE), STATE_IDLE);
        assert_eq!(log.primary_cap, LOG_CAPACITY);
        assert!(log.overflow.is_none());
        // Header durable even under ADR (shadow has it).
        assert_eq!(log.primary.shadow().unwrap().load(W_ALGO), ALGO_REDO);
        assert_eq!(log.primary.name(), "ptm-log-3");
    }

    #[test]
    fn pdram_lite_splits_into_lite_primary_and_optane_overflow() {
        let m = machine(DurabilityDomain::PdramLite);
        let mut cfg = PtmConfig::redo();
        cfg.lite_log_entries = 16;
        let log = TxLog::create(&m, 0, &cfg);
        assert_eq!(log.primary_cap, 16);
        assert_eq!(log.primary.class(), PersistenceClass::PdramLite);
        let ovf = log.overflow.as_ref().unwrap();
        assert_eq!(ovf.class(), PersistenceClass::Normal);
        assert_eq!(log.primary.raw_load(W_OVF), ovf.id().0 as u64);
        // Entries below the budget land in primary; above spill.
        assert_eq!(log.entry_addr(15).pool(), log.primary.id());
        assert_eq!(log.entry_addr(16).pool(), ovf.id());
        assert_eq!(log.entry_addr(16).word(), 0);
    }

    #[test]
    fn dram_heap_gets_dram_logs() {
        let m = machine(DurabilityDomain::Adr);
        let cfg = PtmConfig {
            heap_media: MediaKind::Dram,
            ..PtmConfig::redo()
        };
        let log = TxLog::create(&m, 0, &cfg);
        assert_eq!(log.primary.media_kind(), MediaKind::Dram);
    }

    #[test]
    fn entries_are_line_disjoint_pairs() {
        // 4-word entries, 8-word lines: two entries per line, never torn
        // across lines.
        let m = machine(DurabilityDomain::Adr);
        let log = TxLog::create(&m, 0, &PtmConfig::redo());
        for i in 0..32 {
            let a = log.entry_addr(i);
            let line_of_first = a.line();
            let line_of_last = a.offset(ENTRY_WORDS - 1).line();
            assert_eq!(line_of_first, line_of_last, "entry {i} spans lines");
        }
    }

    #[test]
    fn entry_lines_matches_entry_addr_geometry() {
        let m = machine(DurabilityDomain::Adr);
        let log = TxLog::create(&m, 0, &PtmConfig::redo());
        for count in 0..32usize {
            let lines: std::collections::HashSet<u64> =
                (0..count).map(|i| log.entry_addr(i).line()).collect();
            assert_eq!(entry_lines(count), lines.len(), "count {count}");
        }
    }

    #[test]
    fn prepared_marker_round_trips_and_is_distinct() {
        let m = prepared_marker(37, 0xDEAD_BEEF);
        assert!(is_prepared(m));
        assert!(!is_committed(m));
        assert_eq!(prepared_count(m), 37);
        assert_eq!(prepared_gtid(m), 0xDEAD_BEEF);
        // Committed markers never read as prepared and vice versa.
        let c = committed_marker(37);
        assert!(is_committed(c));
        assert!(!is_prepared(c));
        assert_ne!(m & STATE_MASK, c & STATE_MASK);
        assert!(!is_prepared(STATE_IDLE));
    }

    #[test]
    fn coord_seal_rejects_torn_records() {
        let gtid = 42u64;
        let s = coord_seal(gtid);
        assert_eq!(coord_seal(gtid), s);
        // Torn record: gtid word durable, seal word lost (zero) — or a
        // seal from a different gtid. Both must fail.
        assert_ne!(coord_seal(gtid), 0);
        assert_ne!(coord_seal(41), s);
    }

    #[test]
    fn seal_detects_lost_value_word_and_stale_seq() {
        let addr = 0xABCD;
        let value = 77;
        let chk = seal(addr, value, 5);
        assert_eq!(seal(addr, value, 5), chk);
        // Lost value word (reads back 0): checksum mismatch unless the
        // true value was 0.
        assert_ne!(seal(addr, 0, 5), chk);
        // A stale entry sealed under an earlier transaction's sequence
        // number must not validate under the current one.
        assert_ne!(seal(addr, value, 4), chk);
    }
}
