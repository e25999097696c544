//! Backward-oriented optimistic concurrency control (BOCC) baseline table.
//!
//! The second comparison protocol of the paper's evaluation (§5, Härder
//! \[8\]).  Transactions run without any locks, recording a read set and
//! buffering writes; at commit time the read (and write) set is validated
//! *backwards* against the write sets of all transactions that committed
//! during this transaction's lifetime.  Any overlap forces an abort.
//!
//! This is fast when conflicts are rare ("it is designed for scenarios with
//! few conflicts", §5.2 — the paper observes BOCC ≈ 5 % faster than MVCC at
//! low contention with many ad-hoc queries) but collapses under contention
//! because every reader that overlaps the stream writer's hot keys must
//! abort and redo its work.

use crate::context::{StateContext, Tx};
use crate::table::common::{KeyType, ReadSet, SlotLocal, ValueType, WriteOp};
use crate::table::mvcc_table::MvccTableOptions;
use crate::table::skeleton::{Policy, Store, Table};
use crate::table::store::InPlaceStore;
use crate::telemetry::AbortReason;
use parking_lot::RwLock;
use tsp_common::{Result, Timestamp, TspError};

/// Prune the commit log once it exceeds this many entries.
const COMMIT_LOG_PRUNE_THRESHOLD: usize = 1024;

/// A committed transaction's footprint kept for backward validation.
struct CommitRecord<K> {
    cts: Timestamp,
    write_keys: Box<[K]>,
}

/// Backward-oriented optimistic concurrency control.
pub struct Bocc<K, V> {
    store: InPlaceStore<K, V>,
    /// The footprints backward validation checks, in commit order.
    commit_log: RwLock<Vec<CommitRecord<K>>>,
    /// Per-transaction read sets, stored slot-locally: recording a read
    /// costs an uncontended per-slot mutex instead of a global one.
    reads: SlotLocal<ReadSet<K>>,
}

/// A single-version transactional table protected by backward-oriented
/// optimistic concurrency control.
pub type BoccTable<K, V> = Table<K, V, Bocc<K, V>>;

impl<K: KeyType, V: ValueType> Policy<K, V> for Bocc<K, V> {
    type Store = InPlaceStore<K, V>;

    fn new(ctx: &StateContext, opts: &MvccTableOptions) -> Self {
        Bocc {
            store: InPlaceStore::new(ctx, opts),
            commit_log: RwLock::new(Vec::new()),
            reads: SlotLocal::for_context(ctx),
        }
    }

    fn store(&self) -> &InPlaceStore<K, V> {
        &self.store
    }

    /// Registers a read with the transaction's read set (for a scan, the
    /// whole table: backward validation then rejects the transaction if
    /// *any* commit lands before it commits, inserts of new keys included),
    /// pinning the group's `LastCTS` as the transaction's start marker on
    /// the *first* read.
    ///
    /// The pin makes backward validation compare commit-log entries against
    /// the snapshot floor, which closes the window where a commit draws its
    /// timestamp before this transaction begins but applies after this read.
    /// Pinning only once keeps the per-read cost at one mutex acquisition.
    fn on_read(t: &BoccTable<K, V>, tx: &Tx, key: Option<&K>) -> Result<()> {
        if !t.policy.reads.is_claimed(tx) {
            let _ = t.ctx.read_snapshot(tx, t.state_id)?;
        }
        // Epoch fence on the first-touch claim: a lease-reaped transaction
        // must not re-register a read set the reaper already retracted.
        t.policy
            .reads
            .with_mut_checked(tx, || t.ctx.check_fate(tx), |rs| rs.record(key))
    }

    /// Backward validation: the transaction fails if any transaction that
    /// committed after this one's snapshot floor for this state (its begin
    /// timestamp, or the older `LastCTS` pinned by its first read) wrote a
    /// key this one read or writes — or wrote *anything*, if this one
    /// scanned the whole table.  Read-only transactions validate too.  The
    /// read and write sets are probed in place, inside their slot cells.
    fn validate(t: &BoccTable<K, V>, tx: &Tx, _txn_has_writes: bool) -> Result<()> {
        if !t.policy.reads.is_claimed(tx) && !t.write_sets.has_writes(tx) {
            return Ok(());
        }
        let floor = t.ctx.state_snapshot_floor(tx, t.state_id)?;
        let conflict = t.write_sets.view(tx, |ws| {
            t.policy.reads.view(tx, |rs| {
                let whole_table = rs.is_some_and(|rs| rs.whole_table);
                let touched = |k: &K| {
                    rs.is_some_and(|rs| rs.keys.contains(k))
                        || ws.is_some_and(|ws| ws.get(k).is_some())
                };
                // The log is append-only in cts order: nothing at or below
                // the floor can conflict.
                t.policy
                    .commit_log
                    .read()
                    .iter()
                    .rev()
                    .take_while(|rec| rec.cts > floor)
                    .any(|rec| whole_table || rec.write_keys.iter().any(touched))
            })
        });
        if conflict {
            t.ctx.telemetry().record_abort(AbortReason::Certification);
            return Err(TspError::ValidationFailed {
                txn: tx.id().as_u64(),
            });
        }
        Ok(())
    }

    /// Backward validation of a *writing* transaction must be serialized
    /// against committers of the groups it read: without the read-group
    /// commit lock, two cross-group read-write transactions could each
    /// validate before the other appends to the commit log, admitting
    /// write skew.  (Read-only transactions still validate lock-free in
    /// the manager's fast path — their failure mode is a missed abort of a
    /// non-snapshot read, inherent to lockless BOCC reads.)
    fn validation_requires_commit_lock(t: &BoccTable<K, V>, tx: &Tx) -> bool {
        !tx.is_read_only() && t.policy.reads.is_claimed(tx)
    }

    /// Publishes the commit-log footprint, then the values.
    fn apply(t: &BoccTable<K, V>, tx: &Tx, ops: &[(K, WriteOp<V>)], cts: Timestamp) -> Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        // Publish the footprint to the validation log *before* the values
        // become visible, so a concurrent validator can never read a new
        // value without also seeing the log entry (conservative ordering).
        let write_keys = ops.iter().map(|(k, _)| k.clone()).collect();
        let log = &t.policy.commit_log;
        log.write().push(CommitRecord { cts, write_keys });
        t.policy.store.apply(&t.ctx, &t.backend, tx, ops, cts)?;
        // Cheap length probe first: the oldest-active sweep only runs when
        // there is actually something to prune.
        if log.read().len() > COMMIT_LOG_PRUNE_THRESHOLD {
            let oldest = t.ctx.oldest_active();
            let mut log = log.write();
            if log.len() > COMMIT_LOG_PRUNE_THRESHOLD {
                // Records older than every active transaction's begin can
                // no longer invalidate anyone.
                log.retain(|r| r.cts >= oldest);
            }
        }
        Ok(())
    }

    /// Removes the commit-log record published at `cts` — the commit will
    /// never be visible, and a lingering record would spuriously fail
    /// backward validation for every overlapping transaction — then restores
    /// the committed-map entries `apply` overwrote, from the captured
    /// pre-images.
    fn undo(t: &BoccTable<K, V>, tx: &Tx, ops: &[(K, WriteOp<V>)], cts: Timestamp) {
        let mut log = t.policy.commit_log.write();
        if let Some(pos) = log.iter().rposition(|r| r.cts == cts) {
            log.remove(pos);
        }
        drop(log);
        t.policy.store.undo(tx, ops, cts);
    }

    fn finish(t: &BoccTable<K, V>, tx: &Tx, _committed: bool) {
        t.policy.reads.clear(tx);
    }
}

impl<K: KeyType, V: ValueType> BoccTable<K, V> {
    /// Number of entries currently in the validation commit log.
    pub fn commit_log_len(&self) -> usize {
        self.policy.commit_log.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::common::TxParticipant;
    use std::sync::Arc;

    fn setup() -> (Arc<StateContext>, Arc<BoccTable<u32, String>>) {
        let ctx = Arc::new(StateContext::new());
        let table = BoccTable::volatile(&ctx, "bocc");
        ctx.register_group(&[table.id()]).unwrap();
        (ctx, table)
    }

    fn commit(ctx: &StateContext, table: &BoccTable<u32, String>, tx: &Tx) -> Result<()> {
        table.validate(tx, true)?;
        let cts = ctx.clock().next_commit_ts();
        table.apply(tx, cts)?;
        table.apply_durable(tx, cts)?;
        for g in ctx.groups_of_state(table.id()) {
            ctx.publish_group_commit(g, cts)?;
        }
        table.finish(tx, true);
        ctx.finish(tx);
        Ok(())
    }

    #[test]
    fn committed_writes_become_visible() {
        let (ctx, table) = setup();
        let w = ctx.begin(false).unwrap();
        table.write(&w, 1, "v".into()).unwrap();
        assert_eq!(table.read(&w, &1).unwrap(), Some("v".into()));
        commit(&ctx, &table, &w).unwrap();
        let r = ctx.begin(true).unwrap();
        assert_eq!(table.read(&r, &1).unwrap(), Some("v".into()));
        table.finish(&r, true);
        ctx.finish(&r);
        assert_eq!(table.commit_log_len(), 1);
    }

    #[test]
    fn reader_overlapping_later_commit_fails_validation() {
        let (ctx, table) = setup();
        let init = ctx.begin(false).unwrap();
        table.write(&init, 5, "old".into()).unwrap();
        commit(&ctx, &table, &init).unwrap();

        // Reader starts, reads key 5, then a writer commits a new version of
        // key 5 before the reader validates.
        let reader = ctx.begin(true).unwrap();
        assert_eq!(table.read(&reader, &5).unwrap(), Some("old".into()));

        let writer = ctx.begin(false).unwrap();
        table.write(&writer, 5, "new".into()).unwrap();
        commit(&ctx, &table, &writer).unwrap();

        let err = table.validate(&reader, false).unwrap_err();
        assert!(matches!(err, TspError::ValidationFailed { .. }));
        table.finish(&reader, true);
        ctx.finish(&reader);
        assert_eq!(ctx.telemetry_snapshot().stats.validation_failures, 1);
    }

    #[test]
    fn reader_on_disjoint_keys_validates_fine() {
        let (ctx, table) = setup();
        let init = ctx.begin(false).unwrap();
        table.write(&init, 1, "a".into()).unwrap();
        table.write(&init, 2, "b".into()).unwrap();
        commit(&ctx, &table, &init).unwrap();

        let reader = ctx.begin(true).unwrap();
        assert_eq!(table.read(&reader, &1).unwrap(), Some("a".into()));

        let writer = ctx.begin(false).unwrap();
        table.write(&writer, 2, "b2".into()).unwrap();
        commit(&ctx, &table, &writer).unwrap();

        // The reader never touched key 2, so validation passes.
        assert!(commit(&ctx, &table, &reader).is_ok());
    }

    #[test]
    fn write_write_overlap_aborts_later_committer() {
        let (ctx, table) = setup();
        let t1 = ctx.begin(false).unwrap();
        let t2 = ctx.begin(false).unwrap();
        table.write(&t1, 9, "t1".into()).unwrap();
        table.write(&t2, 9, "t2".into()).unwrap();
        commit(&ctx, &table, &t1).unwrap();
        let err = commit(&ctx, &table, &t2).unwrap_err();
        assert!(matches!(err, TspError::ValidationFailed { .. }));
        table.finish(&t2, false);
        ctx.finish(&t2);
        let r = ctx.begin(true).unwrap();
        assert_eq!(table.read(&r, &9).unwrap(), Some("t1".into()));
        table.finish(&r, true);
        ctx.finish(&r);
    }

    #[test]
    fn transactions_that_began_after_commit_are_not_invalidated() {
        let (ctx, table) = setup();
        let w = ctx.begin(false).unwrap();
        table.write(&w, 3, "x".into()).unwrap();
        commit(&ctx, &table, &w).unwrap();
        // This reader begins after the commit — no conflict.
        let r = ctx.begin(true).unwrap();
        assert_eq!(table.read(&r, &3).unwrap(), Some("x".into()));
        assert!(commit(&ctx, &table, &r).is_ok());
    }

    #[test]
    fn rollback_discards_writes_and_read_set() {
        let (ctx, table) = setup();
        let t = ctx.begin(false).unwrap();
        table.write(&t, 1, "tmp".into()).unwrap();
        table.read(&t, &2).unwrap();
        table.finish(&t, false);
        ctx.finish(&t);
        assert!(!table.has_writes(&t));
        let r = ctx.begin(true).unwrap();
        assert_eq!(table.read(&r, &1).unwrap(), None);
        table.finish(&r, true);
        ctx.finish(&r);
    }

    #[test]
    fn delete_and_preload_behaviour() {
        let (ctx, table) = setup();
        table.preload([(10u32, "pre".to_string())]).unwrap();
        let r = ctx.begin(true).unwrap();
        assert_eq!(table.read(&r, &10).unwrap(), Some("pre".into()));
        table.finish(&r, true);
        ctx.finish(&r);
        let d = ctx.begin(false).unwrap();
        table.delete(&d, 10).unwrap();
        commit(&ctx, &table, &d).unwrap();
        let r2 = ctx.begin(true).unwrap();
        assert_eq!(table.read(&r2, &10).unwrap(), None);
        table.finish(&r2, true);
        ctx.finish(&r2);
        let scanner = ctx.begin(true).unwrap();
        let scan = table.scan(&scanner).unwrap();
        assert!(scan.is_empty());
        table.finish(&scanner, true);
        ctx.finish(&scanner);
    }

    #[test]
    fn scan_detects_phantom_inserts() {
        let (ctx, table) = setup();
        let init = ctx.begin(false).unwrap();
        table.write(&init, 1, "a".into()).unwrap();
        commit(&ctx, &table, &init).unwrap();

        // The scanner reads the whole table, then a writer INSERTS a key that
        // did not exist at scan time: the scanner must fail validation (a
        // key-based read set alone would miss this phantom).
        let scanner = ctx.begin(true).unwrap();
        assert_eq!(table.scan(&scanner).unwrap().len(), 1);
        let w = ctx.begin(false).unwrap();
        table.write(&w, 2, "phantom".into()).unwrap();
        commit(&ctx, &table, &w).unwrap();
        let err = table.validate(&scanner, false).unwrap_err();
        assert!(matches!(err, TspError::ValidationFailed { .. }));
        table.finish(&scanner, true);
        ctx.finish(&scanner);
    }

    #[test]
    fn scan_joins_the_read_set_for_validation() {
        let (ctx, table) = setup();
        let init = ctx.begin(false).unwrap();
        table.write(&init, 1, "a".into()).unwrap();
        commit(&ctx, &table, &init).unwrap();

        // The scanner reads the whole table, then a writer overwrites one of
        // the scanned keys: the scanner must fail backward validation.
        let scanner = ctx.begin(true).unwrap();
        assert_eq!(table.scan(&scanner).unwrap().len(), 1);
        let w = ctx.begin(false).unwrap();
        table.write(&w, 1, "b".into()).unwrap();
        commit(&ctx, &table, &w).unwrap();
        let err = table.validate(&scanner, false).unwrap_err();
        assert!(matches!(err, TspError::ValidationFailed { .. }));
        table.finish(&scanner, true);
        ctx.finish(&scanner);
    }
}
