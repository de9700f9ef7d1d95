//! The pluggable algorithm layer: everything a PTM algorithm decides —
//! how writes are captured, what must be durable before the commit
//! point, how the commit is published, how an abort is undone, and how
//! a crashed log is repaired — lives behind [`LogPolicy`].
//!
//! The shared machinery ([`crate::access::TxAccess`]) owns the read set,
//! write-set structures, orec protocol, phase charging, and trace
//! emission; policies are stateless unit structs that operate on it.
//! `txn.rs` drives the retry loop (software and hardware) and never
//! matches on [`Algo`] — the only algorithm dispatch in the crate is
//! the [`policy`] registry below. Registering a new algorithm means
//! adding a policy file and a registry row. The hardware path is itself
//! part of the seam: a policy opts in through [`LogPolicy::htm_mode`]
//! and supplies [`LogPolicy::htm_commit`]; [`htm::HtmPolicy`] is the
//! one that does.

pub mod cow;
pub mod htm;
pub mod redo;
pub mod undo;

use pmem_sim::PAddr;

use crate::access::TxAccess;
use crate::config::Algo;
use crate::recovery::RecoverCtx;
use crate::txn::TxResult;

/// The algorithm seam. One implementation per [`Algo`] variant; all
/// methods take the shared [`TxAccess`] — policies hold no state.
///
/// The driver's commit sequence is fixed (read-only fast path, then
/// `pre_commit_acquire` → clock bump → read validation → `make_durable`
/// → `commit_publish`); the policy methods fill in the algorithm-
/// specific steps. TL2-style begin/read validation/retry/backoff and
/// the HTM path are shared and not part of the contract.
pub trait LogPolicy: Sync {
    /// The [`Algo`] this policy implements.
    fn algo(&self) -> Algo;

    /// Tag written to the persistent log header (`W_ALGO`) so recovery
    /// can dispatch without configuration. Must be unique and stable
    /// across versions.
    fn persistent_tag(&self) -> u64;

    /// Own-write lookup before the shared validated read of `addr`
    /// (orec `o`). `Some(result)` short-circuits; `None` falls through
    /// to [`TxAccess::validated_read`].
    fn on_read(&self, ax: &mut TxAccess, addr: PAddr, o: u32) -> Option<TxResult<u64>>;

    /// Capture a transactional write (buffer, log-and-write-in-place,
    /// or redirect — the algorithm's defining choice).
    fn on_write(&self, ax: &mut TxAccess, addr: PAddr, val: u64) -> TxResult<()>;

    /// Whether the transaction can take the read-only fast path (commit
    /// without touching the clock or any orec).
    fn read_only(&self, ax: &TxAccess) -> bool;

    /// Committed write-set size for the `max_write_entries` high-water
    /// stat.
    fn write_set_size(&self, ax: &TxAccess) -> u64;

    /// Acquire whatever orecs the commit still needs (commit-time
    /// locking). On failure the policy has already released its own
    /// holdings and noted the abort cause; the driver just retries.
    fn pre_commit_acquire(&self, ax: &mut TxAccess) -> bool;

    /// Make the write set durable up to and including the commit
    /// marker: after this returns, a crash must recover to the
    /// transaction's committed state.
    fn make_durable(&self, ax: &mut TxAccess);

    /// Publish the committed writes (write back / release in-place
    /// stores / copy shadows home), retire the log, and release held
    /// orecs at commit timestamp `wv`.
    fn commit_publish(&self, ax: &mut TxAccess, wv: u64);

    /// Undo the current attempt. `wv` is `Some` when the driver already
    /// bumped the clock (post-acquire validation failure) and `None`
    /// for a user abort (`Err(Abort)` escaped the closure) — policies
    /// that wrote in place must then bump the clock themselves before
    /// restoring.
    fn abort_rollback(&self, ax: &mut TxAccess, wv: Option<u64>);

    /// Repair one crashed log of this algorithm (dispatched on the
    /// persistent tag, not on configuration).
    fn recover_apply(&self, ctx: &mut RecoverCtx<'_>);

    // ---- two-phase commit (cross-shard) ---------------------------------

    /// 2PC prepare: make the write set durable under a `PREPARED`
    /// marker carrying `gtid` instead of the `COMMITTED` marker. After
    /// this returns the participant is *in-doubt* — a crash must leave
    /// recovery consulting the coordinator record for the outcome, and
    /// the per-shard replay pass must neither replay nor roll back the
    /// log. Called with the commit timestamp already in `ax.commit_wv`
    /// (like `make_durable`).
    fn make_prepared(&self, ax: &mut TxAccess, gtid: u64);

    /// 2PC decide-commit on a prepared participant: publish the writes,
    /// retire the log, release orecs at `wv`. The default is
    /// [`LogPolicy::commit_publish`], correct for policies whose publish
    /// path overwrites the marker with a durable `IDLE` (redo, cow).
    fn commit_prepared(&self, ax: &mut TxAccess, wv: u64) {
        self.commit_publish(ax, wv);
    }

    /// 2PC decide-abort on a prepared participant: roll back, then
    /// durably clear the `PREPARED` marker so presumed-abort resolution
    /// finds nothing. Rollback runs *first*: a crash in between leaves
    /// the marker with no live entries, which resolution handles
    /// idempotently.
    fn abort_prepared(&self, ax: &mut TxAccess, wv: u64) {
        self.abort_rollback(ax, Some(wv));
        ax.persist_state(crate::log::STATE_IDLE);
    }

    /// Resolve one in-doubt (`PREPARED`) log during recovery:
    /// `committed` reflects the coordinator record. Must be idempotent
    /// (a crash mid-resolution re-runs it) and end with the log retired.
    fn resolve_prepared(&self, ctx: &mut RecoverCtx<'_>, committed: bool);

    // ---- hardware path --------------------------------------------------

    /// Whether this policy has a hardware path: the driver then runs
    /// the body in a hardware section first, under every domain, and
    /// falls back to the software sequence above after
    /// [`crate::config::HTM_ATTEMPTS`] aborts.
    fn htm_mode(&self) -> bool {
        false
    }

    /// Called before each hardware attempt, outside the section: the
    /// one place a logged policy may flush or fence (e.g. to recycle
    /// its back-end ring) without violating the invariant that the
    /// TxBegin→HtmRetire window contains no `clwb`/`sfence`.
    fn htm_prepare(&self, _ax: &mut TxAccess) {}

    /// Commit the open hardware section (the driver already ran the
    /// body). On `false` the policy has closed the section, noted the
    /// abort cause in `ax.htm_abort_cause`, and released anything it
    /// acquired; the driver counts the abort and retries. Only called
    /// when [`LogPolicy::htm_mode`] is `true`.
    fn htm_commit(&self, _ax: &mut TxAccess) -> bool {
        unreachable!("htm_commit on a policy without a hardware path")
    }
}

/// The algorithm registry: the single point in the crate that maps an
/// [`Algo`] to its implementation.
pub fn policy(algo: Algo) -> &'static dyn LogPolicy {
    match algo {
        Algo::RedoLazy => &redo::RedoPolicy,
        Algo::UndoEager => &undo::UndoPolicy,
        Algo::CowShadow => &cow::CowPolicy,
        Algo::HtmLogged => &htm::HtmPolicy,
    }
}

/// Recovery-side dispatch: find the policy whose persistent tag was
/// written to a log header. `None` for foreign/unknown tags (the log is
/// left untouched, matching the pre-seam behavior for unrecognized
/// algorithm words).
pub fn policy_for_tag(tag: u64) -> Option<&'static dyn LogPolicy> {
    Algo::ALL
        .into_iter()
        .map(policy)
        .find(|p| p.persistent_tag() == tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_total_and_tags_are_unique() {
        let mut tags = Vec::new();
        for algo in Algo::ALL {
            let p = policy(algo);
            assert_eq!(p.algo(), algo);
            tags.push(p.persistent_tag());
        }
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(
            tags.len(),
            Algo::ALL.len(),
            "persistent tags must be unique"
        );
    }

    #[test]
    fn tag_lookup_round_trips_and_rejects_foreign() {
        for algo in Algo::ALL {
            let p = policy(algo);
            let back = policy_for_tag(p.persistent_tag()).expect("registered tag");
            assert_eq!(back.algo(), algo);
        }
        assert!(policy_for_tag(0).is_none());
        assert!(policy_for_tag(0xDEAD).is_none());
    }
}
