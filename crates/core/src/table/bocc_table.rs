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
use crate::table::common::{
    buffer_write, read_own_write, reject_read_only, InPlaceStore, KeyType, ReadSet, SlotLocal,
    TransactionalTable, TxParticipant, TypedBackend, ValueType, WriteOp,
};
use crate::telemetry::AbortReason;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use tsp_common::{FxHashSet, Result, StateId, Timestamp, TspError};
use tsp_storage::redo::RedoSections;
use tsp_storage::StorageBackend;

/// Prune the commit log once it exceeds this many entries.
const COMMIT_LOG_PRUNE_THRESHOLD: usize = 1024;

/// A committed transaction's footprint kept for backward validation.
struct CommitRecord<K> {
    cts: Timestamp,
    write_keys: Box<[K]>,
}

/// A single-version transactional table protected by backward-oriented
/// optimistic concurrency control.
pub struct BoccTable<K, V> {
    state_id: StateId,
    name: String,
    ctx: Arc<StateContext>,
    /// Committed map, write sets and the in-place commit plumbing.
    store: InPlaceStore<K, V>,
    /// Per-transaction read sets, stored slot-locally: recording a read
    /// costs an uncontended per-slot mutex instead of a global one.
    read_sets: SlotLocal<ReadSet<K>>,
    commit_log: RwLock<Vec<CommitRecord<K>>>,
}

impl<K: KeyType, V: ValueType> BoccTable<K, V> {
    /// Creates a volatile (in-memory only) table registered as `name`.
    pub fn volatile(ctx: &Arc<StateContext>, name: impl Into<String>) -> Arc<Self> {
        Self::build(ctx, name, None)
    }

    /// Creates a table persisting committed data to `backend`.
    pub fn persistent(
        ctx: &Arc<StateContext>,
        name: impl Into<String>,
        backend: Arc<dyn StorageBackend>,
    ) -> Arc<Self> {
        Self::build(ctx, name, Some(backend))
    }

    fn build(
        ctx: &Arc<StateContext>,
        name: impl Into<String>,
        backend: Option<Arc<dyn StorageBackend>>,
    ) -> Arc<Self> {
        let name = name.into();
        let state_id = ctx.register_state(&name);
        let backend = TypedBackend::for_context(ctx, state_id, backend);
        Arc::new(BoccTable {
            state_id,
            name,
            ctx: Arc::clone(ctx),
            store: InPlaceStore::new(ctx, state_id, backend),
            read_sets: SlotLocal::for_context(ctx),
            commit_log: RwLock::new(Vec::new()),
        })
    }

    /// The table's registered state id.
    pub fn id(&self) -> StateId {
        self.state_id
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    // ------------------------------------------------------------------
    // Data access within a transaction
    // ------------------------------------------------------------------

    /// Reads `key`, recording it in the transaction's read set.
    pub fn read(&self, tx: &Tx, key: &K) -> Result<Option<V>> {
        self.ctx.record_access(tx, self.state_id)?;
        self.ctx.telemetry().bump_read(tx.slot());
        if let Some(own) = read_own_write(self.store.write_sets(), tx, key) {
            return Ok(own);
        }
        self.record_read(tx, |rs| {
            rs.keys.insert(key.clone());
        })?;
        self.store.committed_value(key)
    }

    /// Registers a read with the transaction's read set, pinning the group's
    /// `LastCTS` as the transaction's start marker on the *first* read.
    ///
    /// The pin makes backward validation compare commit-log entries against
    /// the snapshot floor, which closes the window where a commit draws its
    /// timestamp before this transaction begins but applies after this read.
    /// Pinning only once keeps the per-read cost at one mutex acquisition.
    fn record_read(&self, tx: &Tx, update: impl FnOnce(&mut ReadSet<K>)) -> Result<()> {
        if !self.read_sets.is_claimed(tx) {
            let _ = self.ctx.read_snapshot(tx, self.state_id)?;
        }
        // Epoch fence on the first-touch claim: a lease-reaped transaction
        // must not re-register a read set the reaper already retracted.
        self.read_sets
            .with_mut_checked(tx, || self.ctx.check_fate(tx), update)?;
        Ok(())
    }

    /// Buffers an insert/update (no checks until validation).
    pub fn write(&self, tx: &Tx, key: K, value: V) -> Result<()> {
        self.write_op(tx, key, WriteOp::Put(value))
    }

    /// Buffers a delete (no checks until validation).
    pub fn delete(&self, tx: &Tx, key: K) -> Result<()> {
        self.write_op(tx, key, WriteOp::Delete)
    }

    fn write_op(&self, tx: &Tx, key: K, op: WriteOp<V>) -> Result<()> {
        reject_read_only(tx)?;
        self.ctx.record_access(tx, self.state_id)?;
        buffer_write(&self.ctx, self.store.write_sets(), tx, key, op)
    }

    /// A whole-table read within `tx`: the current committed image overlaid
    /// with the transaction's own uncommitted writes.
    ///
    /// The scan marks the whole table as read, so backward validation
    /// rejects the transaction if *any* commit lands before it commits —
    /// including inserts of keys that did not exist at scan time (phantom
    /// protection).  The scan is therefore optimistically consistent, at the
    /// cost of aborting whole-table readers under write traffic.
    pub fn scan(&self, tx: &Tx) -> Result<BTreeMap<K, V>> {
        self.ctx.record_access(tx, self.state_id)?;
        self.record_read(tx, |rs| {
            rs.whole_table = true;
        })?;
        self.store.scan(tx)
    }

    /// Loads initial data directly as committed rows, outside any
    /// transaction.  Persistent rows are written in large batches.
    pub fn preload(&self, rows: impl IntoIterator<Item = (K, V)>) -> Result<()> {
        self.store.preload(&mut rows.into_iter())
    }

    /// Number of entries currently in the validation commit log.
    pub fn commit_log_len(&self) -> usize {
        self.commit_log.read().len()
    }

    fn prune_commit_log(&self) {
        // Cheap length probe first: the oldest-active sweep only runs when
        // there is actually something to prune.
        if self.commit_log.read().len() <= COMMIT_LOG_PRUNE_THRESHOLD {
            return;
        }
        let oldest = self.ctx.oldest_active();
        let mut log = self.commit_log.write();
        if log.len() > COMMIT_LOG_PRUNE_THRESHOLD {
            // Records older than every active transaction's begin can no
            // longer invalidate anyone.
            log.retain(|r| r.cts >= oldest);
        }
    }
}

impl<K: KeyType, V: ValueType> TxParticipant for BoccTable<K, V> {
    fn state_id(&self) -> StateId {
        self.state_id
    }

    fn has_writes(&self, tx: &Tx) -> bool {
        self.store.write_sets().has_writes(tx)
    }

    /// Backward validation: the transaction fails if any transaction that
    /// committed after this one's snapshot floor for this state (its begin
    /// timestamp, or the older `LastCTS` pinned by its first read) wrote a
    /// key this one read or writes — or wrote *anything*, if this one
    /// scanned the whole table.  Read-only transactions validate too.
    fn validate(&self, tx: &Tx, _txn_has_writes: bool) -> Result<()> {
        let (read_keys, whole_table) = self
            .read_sets
            .with(tx, |rs| (rs.keys.clone(), rs.whole_table))
            .unwrap_or_default();
        let write_keys: FxHashSet<K> = self
            .store
            .write_sets()
            .with(tx, |ws| ws.keys().cloned().collect())
            .unwrap_or_default();
        if read_keys.is_empty() && write_keys.is_empty() && !whole_table {
            return Ok(());
        }
        let floor = self.ctx.state_snapshot_floor(tx, self.state_id)?;
        let log = self.commit_log.read();
        for rec in log.iter().rev() {
            if rec.cts <= floor {
                // Log is append-only in cts order: nothing older can conflict.
                break;
            }
            if whole_table
                || rec
                    .write_keys
                    .iter()
                    .any(|k| read_keys.contains(k) || write_keys.contains(k))
            {
                self.ctx
                    .telemetry()
                    .record_abort(AbortReason::Certification);
                return Err(TspError::ValidationFailed {
                    txn: tx.id().as_u64(),
                });
            }
        }
        Ok(())
    }

    /// In-memory apply: publishes the commit-log footprint, then the values.
    /// Persistence happens in [`apply_durable`](TxParticipant::apply_durable).
    fn apply(&self, tx: &Tx, cts: Timestamp) -> Result<()> {
        // Publish the footprint to the validation log *before* the values
        // become visible, so a concurrent validator can never read a new
        // value without also seeing the log entry (conservative ordering).
        self.store.apply(tx, |ops| {
            let write_keys = ops.iter().map(|(k, _)| k.clone()).collect();
            self.commit_log
                .write()
                .push(CommitRecord { cts, write_keys });
        });
        self.prune_commit_log();
        Ok(())
    }

    fn finish(&self, tx: &Tx, _committed: bool) {
        self.store.clear(tx);
        self.read_sets.clear(tx);
    }

    /// Backward validation of a *writing* transaction must be serialized
    /// against committers of the groups it read: without the read-group
    /// commit lock, two cross-group read-write transactions could each
    /// validate before the other appends to the commit log, admitting
    /// write skew.  (Read-only transactions still validate lock-free in
    /// the manager's fast path — their failure mode is a missed abort of a
    /// non-snapshot read, inherent to lockless BOCC reads.)
    fn validation_requires_commit_lock(&self, tx: &Tx) -> bool {
        !tx.is_read_only() && self.read_sets.is_claimed(tx)
    }

    /// Removes the commit-log record published at `cts` — the commit will
    /// never be visible, and a lingering record would spuriously fail
    /// backward validation for every overlapping transaction — then restores
    /// the committed-map entries `apply` overwrote, from the captured
    /// pre-images.
    fn undo_apply(&self, tx: &Tx, cts: Timestamp) {
        let mut log = self.commit_log.write();
        if let Some(pos) = log.iter().rposition(|r| r.cts == cts) {
            log.remove(pos);
        }
        drop(log);
        self.store.undo(tx);
    }

    fn is_persistent(&self) -> bool {
        self.store.is_persistent()
    }

    fn redo_section(&self, tx: &Tx, sections: &mut RedoSections) {
        self.store.redo_section(tx, sections)
    }

    fn apply_durable(&self, tx: &Tx, cts: Timestamp) -> Result<()> {
        self.store.apply_durable(&self.ctx, tx, cts)
    }

    fn wait_durable(&self, cts: Timestamp, deadline: Option<Instant>) -> Result<bool> {
        self.store.wait_durable(cts, deadline)
    }
}

impl<K: KeyType, V: ValueType> TransactionalTable<K, V> for BoccTable<K, V> {
    fn read(&self, tx: &Tx, key: &K) -> Result<Option<V>> {
        BoccTable::read(self, tx, key)
    }

    fn write(&self, tx: &Tx, key: K, value: V) -> Result<()> {
        BoccTable::write(self, tx, key, value)
    }

    fn delete(&self, tx: &Tx, key: K) -> Result<()> {
        BoccTable::delete(self, tx, key)
    }

    fn scan(&self, tx: &Tx) -> Result<BTreeMap<K, V>> {
        BoccTable::scan(self, tx)
    }

    fn preload_iter(&self, rows: &mut dyn Iterator<Item = (K, V)>) -> Result<()> {
        self.store.preload(rows)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn as_participant(self: Arc<Self>) -> Arc<dyn TxParticipant> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
