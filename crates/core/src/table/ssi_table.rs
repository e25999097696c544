//! Serializable snapshot isolation (SSI) via commit-time read-set
//! validation — the fourth drop-in concurrency-control protocol.
//!
//! Plain snapshot isolation admits *write skew* and the *read-only
//! transaction anomaly*: two transactions can each read overlapping data,
//! write disjoint keys, and both commit even though no serial order explains
//! the result.  Gómez Ferro & Yabandeh ("A Critique of Snapshot Isolation")
//! show that replacing the write-write conflict check with a *read-write*
//! check — validating at commit that nothing a transaction **read** was
//! overwritten by a concurrent committer — yields full serializability
//! ("write-snapshot isolation") using exactly the centralized-certifier
//! machinery a group-commit path already has.
//!
//! [`SsiTable`] implements that scheme as a validation policy ([`Ssi`])
//! over the same [`Table`] skeleton and multi-version store as
//! [`MvccTable`](crate::table::MvccTable):
//!
//! * **reads and writes** are the MVCC ones — same pinned snapshots, same
//!   latch-free committed-read fast path, same write buffering.  Each point
//!   read of a read-write transaction additionally records its key in a
//!   per-transaction [`ReadSet`] held in the table's slot-local policy cell,
//!   so the bookkeeping adds one uncontended per-slot mutex per read and
//!   **no** shared state.
//! * **commit validation** ([`TxParticipant::validate`]) first runs the
//!   First-Committer-Wins check (write-write conflicts abort exactly as
//!   under plain MVCC-SI), then certifies the read set: for every key
//!   read, [`Table::newest_version_ts`] must not exceed the snapshot the
//!   transaction read that state at (its pinned `ReadCTS`,
//!   [`StateContext::read_snapshot`]).  A whole-table scan marks the
//!   read set as `whole_table` and is certified against the table-level
//!   last-commit watermark instead, which also rejects phantom inserts.
//! * **read-only transactions never validate and never abort.**  This is
//!   the key advantage of write-snapshot isolation over classic BOCC: a
//!   reader's pinned snapshot *is* its serialization point, so only
//!   transactions that write anything pay for certification.  The read-only
//!   anomaly is still prevented, because the read-write transaction whose
//!   commit would make the reader's observation non-serializable fails its
//!   own read-set validation.
//!
//! # Serialization of certification against concurrent commits
//!
//! Certifying a read of key `k` races with a concurrent commit installing a
//! newer `k`; both sides must serialize or cross-group write skew slips
//! back in.  The table reports
//! [`TxParticipant::validation_requires_commit_lock`] when the transaction
//! recorded reads here, so the coordinator
//! ([`crate::manager::TransactionManager`]) holds the commit locks of the
//! *read* groups — not only the written ones — across validation + apply.
//! Every pair of (certifier, conflicting committer) therefore shares at
//! least one group lock: whoever enters second observes the first's
//! installed versions (point reads) or advanced scan watermark
//! (whole-table certification; bumped after a successful apply, inside the
//! lock) and aborts.
//!
//! # Scope of the guarantee
//!
//! The serializability upgrade is per [topology group], matching the
//! system's unit of atomic publication: within one group — one continuous
//! query's states — committed histories are serializable and the
//! write-skew / read-only anomalies are closed (`tests/isolation_anomalies.rs`).  Reads spanning
//! *independent* groups pin one snapshot per group (the base system's
//! overlap rule), and those per-group snapshots need not form one global
//! consistent cut; a write-free transaction observing several unrelated
//! groups gets the same cross-group SI consistency as under plain MVCC.
//! States left outside any group have no commit lock and no published
//! `LastCTS`; always register SSI tables in a group.
//!
//! [topology group]: crate::context::StateContext::register_group
//! [`StateContext::read_snapshot`]: crate::context::StateContext::read_snapshot
//! [`TxParticipant::validate`]: crate::table::TxParticipant::validate
//! [`TxParticipant::validation_requires_commit_lock`]: crate::table::TxParticipant::validation_requires_commit_lock

use crate::context::{StateContext, Tx};
use crate::table::common::{KeyType, ReadSet, Recycle, SlotLocal, ValueType, WriteOp};
use crate::table::mvcc_table::MvccTableOptions;
use crate::table::skeleton::{Policy, Store, Table};
use crate::table::store::Versions;
use crate::telemetry::AbortReason;
use std::sync::atomic::{AtomicU64, Ordering};
use tsp_common::{Result, Timestamp, TspError};

/// Write-snapshot isolation: MVCC plus read-set certification.
pub struct Ssi<K, V> {
    store: Versions<K, V>,
    /// Commit timestamp of the newest transaction applied to this table —
    /// the certification bound for whole-table scans (phantom protection).
    watermark: AtomicU64,
    /// Per-transaction state: recording a read costs an uncontended
    /// per-slot mutex, the commit-time "did this transaction read here?"
    /// probe one atomic load.
    txs: SlotLocal<SsiTx<K>>,
}

/// A serializable transactional table: MVCC snapshot isolation plus
/// commit-time read-set validation (write-snapshot isolation).
///
/// Everything a [`MvccTable`](crate::table::MvccTable) guarantees still
/// holds — pinned snapshots, latch-free committed reads,
/// First-Committer-Wins on writes — and in addition no committed history
/// ever exhibits write skew or the read-only anomaly (see the module docs
/// and `tests/isolation_anomalies.rs`).
pub type SsiTable<K, V> = Table<K, V, Ssi<K, V>>;

/// What an SSI transaction keeps in its slot cell.
struct SsiTx<K> {
    /// The keys read (or the whole-table mark), for certification.
    reads: ReadSet<K>,
    /// The (previous, advanced-to) scan watermark recorded by `apply`, so
    /// that a transaction aborted *after* its apply (a later participant
    /// failed) can restore the watermark instead of stranding a commit
    /// timestamp that never published.
    watermark_undo: Option<(Timestamp, Timestamp)>,
}

impl<K> Default for SsiTx<K> {
    fn default() -> Self {
        SsiTx {
            reads: ReadSet::default(),
            watermark_undo: None,
        }
    }
}

impl<K: KeyType> Recycle for SsiTx<K> {
    fn recycle(&mut self) {
        self.reads.recycle();
        self.watermark_undo = None;
    }
}

impl<K: KeyType, V: ValueType> Policy<K, V> for Ssi<K, V> {
    type Store = Versions<K, V>;

    fn new(ctx: &StateContext, opts: &MvccTableOptions) -> Self {
        Ssi {
            store: Versions::new(ctx, opts),
            watermark: AtomicU64::new(0),
            txs: SlotLocal::for_context(ctx),
        }
    }

    fn store(&self) -> &Versions<K, V> {
        &self.store
    }

    /// Records the key read — or, for a scan, the whole table, so that
    /// certification rejects the transaction if *any* commit (an insert of
    /// a key that did not exist at scan time included) lands here later.
    ///
    /// Read-only transactions skip the recording entirely — they are never
    /// validated (their snapshot is their serialization point), so the read
    /// path of an ad-hoc query is byte-for-byte the latch-free MVCC one.
    /// The skeleton has already validated ownership (a stale handle fails
    /// with `UnknownTxn` before it can clobber the slot occupant's read set).
    fn on_read(t: &SsiTable<K, V>, tx: &Tx, key: Option<&K>) -> Result<()> {
        if tx.is_read_only() {
            return Ok(());
        }
        // Epoch-fenced on the first-touch claim: a lease-reaped transaction
        // must not re-register a read set the reaper already retracted.
        t.policy
            .txs
            .with_mut_checked(tx, || t.ctx.check_fate(tx), |s| s.reads.record(key))
    }

    fn on_write(t: &SsiTable<K, V>, tx: &Tx, key: &K) -> Result<()> {
        t.eager_conflict_check(tx, key)
    }

    /// First-Committer-Wins on the write set, then read-set certification —
    /// the step that upgrades snapshot isolation to serializability.
    ///
    /// A transaction that buffered no writes against *any* participant
    /// (`txn_has_writes == false`) is trivially serializable at its
    /// snapshot — its pinned `ReadCTS` is its serialization point — so
    /// certification is skipped entirely and such transactions can never
    /// abort, exactly like `begin_read_only` ones.
    ///
    /// The certification bound is the state's pinned `ReadCTS`
    /// ([`read_snapshot`](crate::context::StateContext::read_snapshot)) —
    /// *not* the FCW floor, which additionally takes the minimum with the
    /// begin timestamp.  Reads are served at the pin, so a version that
    /// committed between `begin` and the first read *was* observed and must
    /// not fail certification; min-ing with the begin timestamp would
    /// spuriously abort every read-write query that begins just before a
    /// group commit.  A version newer than the pin was genuinely unseen —
    /// exactly the read-write antidependency certification must reject.
    ///
    /// The key probe runs inside the transaction-private slot lock — no key
    /// is cloned; `newest_version_ts` is latch-free.
    fn validate(t: &SsiTable<K, V>, tx: &Tx, txn_has_writes: bool) -> Result<()> {
        t.first_committer_wins(tx)?;
        if !txn_has_writes || tx.is_read_only() || !t.policy.txs.is_claimed(tx) {
            return Ok(());
        }
        // Certification is only sound under the group commit lock; an
        // ungrouped state has none (and no published LastCTS), so degrading
        // silently to racy SI would betray the protocol's whole point.
        let mut grouped = false;
        t.ctx
            .for_each_group_of_state(t.state_id, |_, _| grouped = true);
        if !grouped {
            return Err(TspError::config(format!(
                "SSI table '{}' is not registered in any topology group; \
                 read-set certification requires the group commit lock",
                t.name
            )));
        }
        let snapshot = t.ctx.read_snapshot(tx, t.state_id)?;
        let conflict = t
            .policy
            .txs
            .with(tx, |s| {
                if s.reads.whole_table {
                    t.policy.watermark.load(Ordering::Acquire) > snapshot
                } else {
                    s.reads
                        .keys
                        .iter()
                        .any(|k| t.newest_version_ts(k) > snapshot)
                }
            })
            .unwrap_or(false);
        if conflict {
            t.ctx.telemetry().record_abort(AbortReason::Certification);
            return Err(TspError::ValidationFailed {
                txn: tx.id().as_u64(),
            });
        }
        Ok(())
    }

    /// Read-set certification must be serialized against committers of the
    /// groups this transaction read through this table: the coordinator
    /// therefore takes those group-commit locks too (not only the written
    /// groups'), closing the window in which a concurrent writer could
    /// install a newer version of a certified key between this
    /// transaction's validation and its publish.
    fn validation_requires_commit_lock(t: &SsiTable<K, V>, tx: &Tx) -> bool {
        !tx.is_read_only() && t.policy.txs.is_claimed(tx)
    }

    fn apply(t: &SsiTable<K, V>, tx: &Tx, ops: &[(K, WriteOp<V>)], cts: Timestamp) -> Result<()> {
        t.policy.store.apply(&t.ctx, &t.backend, tx, ops, cts)?;
        // Advance the scan watermark only once the versions are actually
        // installed: a failed apply (capacity pressure) aborts the whole
        // transaction, and a watermark for a commit that never happened
        // would spuriously fail later whole-table certifications.  While
        // the committing transaction holds the group locks, no certifier
        // can observe the install-then-watermark window.  The previous
        // value is kept in the policy cell so an abort of the *whole
        // transaction* after this apply succeeded (a later participant
        // failed) can restore it in `finish`; that restore runs after the
        // locks drop, so its effect is best-effort — the residual (shared
        // with plain MVCC, whose failed applies also leave never-published
        // versions behind) is only ever a conservative spurious abort,
        // never a missed conflict.
        if !ops.is_empty() {
            let prev = t.policy.watermark.fetch_max(cts, Ordering::AcqRel);
            t.policy
                .txs
                .with_mut(tx, |s| s.watermark_undo = Some((prev, cts)));
        }
        Ok(())
    }

    /// Drops the read set.  If an aborted transaction's apply already
    /// advanced the watermark, takes it back — unless a newer commit has
    /// legitimately raised it since (then that commit's timestamp covers
    /// ours and nothing is stale).
    fn finish(t: &SsiTable<K, V>, tx: &Tx, committed: bool) {
        let undo = t.policy.txs.release_with(tx, |s| s.watermark_undo);
        if let (Some(Some((prev, cts))), false) = (undo, committed) {
            let _ =
                t.policy
                    .watermark
                    .compare_exchange(cts, prev, Ordering::AcqRel, Ordering::Acquire);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn setup() -> (
        Arc<StateContext>,
        Arc<crate::manager::TransactionManager>,
        Arc<SsiTable<u32, i64>>,
    ) {
        let ctx = Arc::new(StateContext::new());
        let mgr = crate::manager::TransactionManager::new(Arc::clone(&ctx));
        let table = SsiTable::<u32, i64>::volatile(&ctx, "ssi");
        mgr.register(table.clone());
        mgr.register_group(&[table.id()]).unwrap();
        (ctx, mgr, table)
    }

    #[test]
    fn snapshot_reads_and_fcw_still_hold() {
        let (_ctx, mgr, table) = setup();
        let w = mgr.begin().unwrap();
        table.write(&w, 1, 10).unwrap();
        mgr.commit(&w).unwrap();

        // Pinned snapshot is stable while a writer commits.
        let reader = mgr.begin_read_only().unwrap();
        assert_eq!(table.read(&reader, &1).unwrap(), Some(10));
        let w2 = mgr.begin().unwrap();
        table.write(&w2, 1, 20).unwrap();
        mgr.commit(&w2).unwrap();
        assert_eq!(table.read(&reader, &1).unwrap(), Some(10));
        mgr.commit(&reader).unwrap();

        // FCW: two writers of one key, first committer wins.
        let t1 = mgr.begin().unwrap();
        let t2 = mgr.begin().unwrap();
        table.write(&t1, 1, 30).unwrap();
        table.write(&t2, 1, 40).unwrap();
        mgr.commit(&t1).unwrap();
        let err = mgr.commit(&t2).unwrap_err();
        assert!(err.is_retryable());
    }

    #[test]
    fn stale_read_aborts_the_writer_that_depends_on_it() {
        let (_ctx, mgr, table) = setup();
        let init = mgr.begin().unwrap();
        table.write(&init, 1, 100).unwrap();
        mgr.commit(&init).unwrap();

        // t reads key 1, a concurrent writer overwrites it, t writes key 2:
        // plain SI would commit t (disjoint write sets); SSI must abort it.
        let t = mgr.begin().unwrap();
        assert_eq!(table.read(&t, &1).unwrap(), Some(100));
        let w = mgr.begin().unwrap();
        table.write(&w, 1, 200).unwrap();
        mgr.commit(&w).unwrap();
        table.write(&t, 2, 1).unwrap();
        let err = mgr.commit(&t).unwrap_err();
        assert!(
            matches!(err, TspError::ValidationFailed { .. }),
            "read-set certification must reject the stale read, got {err}"
        );
    }

    #[test]
    fn read_only_transactions_are_never_validated() {
        let (_ctx, mgr, table) = setup();
        let init = mgr.begin().unwrap();
        table.write(&init, 1, 1).unwrap();
        mgr.commit(&init).unwrap();

        // The reader observes key 1, a writer overwrites it, and the reader
        // still commits: its snapshot is its serialization point.
        let reader = mgr.begin_read_only().unwrap();
        assert_eq!(table.read(&reader, &1).unwrap(), Some(1));
        let w = mgr.begin().unwrap();
        table.write(&w, 1, 2).unwrap();
        mgr.commit(&w).unwrap();
        assert_eq!(table.read(&reader, &1).unwrap(), Some(1));
        mgr.commit(&reader)
            .expect("read-only SSI transactions never abort");
    }

    #[test]
    fn scan_certification_rejects_phantom_inserts() {
        let (_ctx, mgr, table) = setup();
        let init = mgr.begin().unwrap();
        table.write(&init, 1, 1).unwrap();
        mgr.commit(&init).unwrap();

        // A read-write transaction scans the table, then a concurrent
        // insert of a brand-new key commits: the scanner must abort.
        let t = mgr.begin().unwrap();
        assert_eq!(table.scan(&t).unwrap().len(), 1);
        let w = mgr.begin().unwrap();
        table.write(&w, 2, 2).unwrap();
        mgr.commit(&w).unwrap();
        table.write(&t, 3, 3).unwrap();
        let err = mgr.commit(&t).unwrap_err();
        assert!(matches!(err, TspError::ValidationFailed { .. }));

        // A read-only scanner is untouched by the same interleaving.
        let q = mgr.begin_read_only().unwrap();
        table.scan(&q).unwrap();
        let w2 = mgr.begin().unwrap();
        table.write(&w2, 4, 4).unwrap();
        mgr.commit(&w2).unwrap();
        mgr.commit(&q).unwrap();
    }

    #[test]
    fn fresh_reads_do_not_spuriously_abort() {
        let (_ctx, mgr, table) = setup();
        let init = mgr.begin().unwrap();
        table.write(&init, 1, 1).unwrap();
        table.write(&init, 2, 2).unwrap();
        mgr.commit(&init).unwrap();

        // Reads whose versions are current at the snapshot floor validate
        // fine, even when *other* keys were overwritten concurrently.
        let t = mgr.begin().unwrap();
        assert_eq!(table.read(&t, &1).unwrap(), Some(1));
        let w = mgr.begin().unwrap();
        table.write(&w, 2, 20).unwrap();
        mgr.commit(&w).unwrap();
        table.write(&t, 3, 3).unwrap();
        mgr.commit(&t)
            .expect("disjoint read/write footprints commit");
    }

    #[test]
    fn commit_between_begin_and_first_read_does_not_spuriously_abort() {
        // The certification bound is the pinned ReadCTS, not min(begin, pin):
        // a version that committed after begin() but before the first read
        // WAS observed by the transaction and must certify cleanly.
        let (_ctx, mgr, table) = setup();
        let init = mgr.begin().unwrap();
        table.write(&init, 1, 1).unwrap();
        mgr.commit(&init).unwrap();

        let t = mgr.begin().unwrap();
        // A writer commits k1 = 2 *after* t began but *before* t reads.
        let w = mgr.begin().unwrap();
        table.write(&w, 1, 2).unwrap();
        mgr.commit(&w).unwrap();
        // t's first read pins the post-commit snapshot and sees the new value.
        assert_eq!(table.read(&t, &1).unwrap(), Some(2));
        table.write(&t, 2, 1).unwrap();
        mgr.commit(&t)
            .expect("the read observed the newest version — no antidependency");
    }

    #[test]
    fn write_free_read_write_transactions_never_abort() {
        // A transaction begun with `begin()` that ends up writing nothing is
        // trivially serializable at its snapshot: coordinated validation
        // must skip certification even though the handle is not read-only.
        let (_ctx, mgr, table) = setup();
        let init = mgr.begin().unwrap();
        table.write(&init, 1, 1).unwrap();
        mgr.commit(&init).unwrap();

        let t = mgr.begin().unwrap();
        assert_eq!(table.read(&t, &1).unwrap(), Some(1));
        let w = mgr.begin().unwrap();
        table.write(&w, 1, 2).unwrap();
        mgr.commit(&w).unwrap();
        mgr.commit(&t)
            .expect("write-free transactions are never certified");
    }

    #[test]
    fn cross_group_write_skew_is_rejected() {
        // Two tables in *different* groups: T1 reads a, writes b; T2 reads
        // b, writes a.  Certification must hold the read groups' commit
        // locks too, so the second committer observes the first's install
        // and aborts — the classic write-skew cycle, across groups.
        let ctx = Arc::new(StateContext::new());
        let mgr = crate::manager::TransactionManager::new(Arc::clone(&ctx));
        let a = SsiTable::<u32, i64>::volatile(&ctx, "a");
        let b = SsiTable::<u32, i64>::volatile(&ctx, "b");
        mgr.register(a.clone());
        mgr.register(b.clone());
        let ga = mgr.register_group(&[a.id()]).unwrap();
        mgr.register_group(&[b.id()]).unwrap();
        let init = mgr.begin().unwrap();
        a.write(&init, 0, 1).unwrap();
        b.write(&init, 0, 1).unwrap();
        mgr.commit(&init).unwrap();
        let ga_cts = ctx.last_cts(ga).unwrap();

        let t1 = mgr.begin().unwrap();
        let t2 = mgr.begin().unwrap();
        assert_eq!(a.read(&t1, &0).unwrap(), Some(1));
        assert_eq!(b.read(&t2, &0).unwrap(), Some(1));
        b.write(&t1, 0, 0).unwrap();
        a.write(&t2, 0, 0).unwrap();
        mgr.commit(&t1).unwrap();
        // t1 only *read* group ga: its lock was taken for certification,
        // but ga's LastCTS must not move — nothing was committed to it.
        assert_eq!(
            ctx.last_cts(ga).unwrap(),
            ga_cts,
            "a read-side commit lock must not advance the group's LastCTS"
        );
        let err = mgr.commit(&t2).unwrap_err();
        assert!(
            matches!(err, TspError::ValidationFailed { .. }),
            "cross-group write skew must be rejected, got {err}"
        );
    }

    #[test]
    fn stale_handle_cannot_clobber_the_live_read_set() {
        // A finished transaction's handle must fail with UnknownTxn instead
        // of resetting the read set of the new occupant of its slot.
        // (Capacity 2: the thread-local claim hint makes `stale` and `live`
        // reuse one slot while the writer below takes the other.)
        let ctx = Arc::new(StateContext::with_capacity(2));
        let mgr = crate::manager::TransactionManager::new(Arc::clone(&ctx));
        let table = SsiTable::<u32, i64>::volatile(&ctx, "ssi");
        mgr.register(table.clone());
        mgr.register_group(&[table.id()]).unwrap();
        let init = mgr.begin().unwrap();
        table.write(&init, 1, 1).unwrap();
        mgr.commit(&init).unwrap();

        let stale = mgr.begin().unwrap();
        mgr.abort(&stale).unwrap();
        let live = mgr.begin().unwrap();
        assert_eq!(stale.slot(), live.slot(), "slot reused");
        assert_eq!(table.read(&live, &1).unwrap(), Some(1));
        // The stale handle is rejected and leaves the live read set intact …
        assert!(table.read(&stale, &1).is_err());
        assert!(table.scan(&stale).is_err());
        // … so the live transaction's certification still sees its read.
        let w = mgr.begin().unwrap();
        table.write(&w, 1, 2).unwrap();
        mgr.commit(&w).unwrap();
        table.write(&live, 2, 2).unwrap();
        assert!(
            mgr.commit(&live).is_err(),
            "the recorded stale read must still fail certification"
        );
    }

    #[test]
    fn rollback_clears_the_read_set() {
        let (_ctx, mgr, table) = setup();
        let t = mgr.begin().unwrap();
        assert_eq!(table.read(&t, &9).unwrap(), None);
        mgr.abort(&t).unwrap();
        // The slot can be reused without leaking the previous read set: a
        // conflicting commit on key 9 must not abort the new occupant.
        let w = mgr.begin().unwrap();
        table.write(&w, 9, 9).unwrap();
        mgr.commit(&w).unwrap();
        let t2 = mgr.begin().unwrap();
        table.write(&t2, 10, 10).unwrap();
        mgr.commit(&t2)
            .expect("stale read set must not leak into new txn");
    }
}
