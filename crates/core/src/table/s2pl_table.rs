//! Strict two-phase-locking (S2PL) baseline table.
//!
//! This is the first comparison protocol of the paper's evaluation (§5,
//! Eswaran et al. \[6\]).  Reads take shared locks, writes take exclusive
//! locks, all locks are held until the transaction finishes (strict 2PL), and
//! deadlocks are avoided with wait-die.  Because readers block behind the
//! single stream writer — which holds its write locks across the synchronous
//! persistence of its commit — throughput collapses as contention rises,
//! which is exactly the behaviour Figure 4 shows for S2PL.
//!
//! Writes are buffered in a per-transaction write set and applied at commit
//! while the exclusive locks are still held; no other transaction can
//! observe the key between the write and the commit, so concurrency control
//! needs no undo logging.  The *commit coordinator* still can: a later
//! participant of the same multi-state commit may fail after this table
//! already updated its committed map in place, so `apply` captures the
//! overwritten pre-images and [`TxParticipant::undo_apply`] restores them
//! exactly.  The pre-images stay in memory: the group redo record
//! ([`tsp_storage::redo`]) only rolls commits forward, so it carries the ops
//! alone.  That single-version store is `InPlaceStore` (`table/common.rs`),
//! shared with the BOCC baseline.

use crate::context::{StateContext, Tx};
use crate::table::common::{
    buffer_write, read_own_write, reject_read_only, InPlaceStore, KeyType, TransactionalTable,
    TxParticipant, TypedBackend, ValueType, WriteOp,
};
use crate::table::locks::{LockManager, LockMode};
use crate::telemetry::AbortReason;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use tsp_common::{Result, StateId, Timestamp, TspError};
use tsp_storage::redo::RedoSections;
use tsp_storage::StorageBackend;

/// A single-version transactional table protected by strict two-phase
/// locking.
pub struct S2plTable<K, V> {
    state_id: StateId,
    name: String,
    ctx: Arc<StateContext>,
    locks: LockManager<K>,
    /// Committed map, write sets and the in-place commit plumbing.
    store: InPlaceStore<K, V>,
}

impl<K: KeyType, V: ValueType> S2plTable<K, V> {
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
        Arc::new(S2plTable {
            state_id,
            name,
            ctx: Arc::clone(ctx),
            locks: LockManager::new(),
            store: InPlaceStore::new(ctx, state_id, backend),
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

    /// Reads `key` under a shared lock (blocking behind concurrent writers;
    /// wait-die may abort the younger transaction).
    pub fn read(&self, tx: &Tx, key: &K) -> Result<Option<V>> {
        self.ctx.record_access(tx, self.state_id)?;
        self.ctx.telemetry().bump_read(tx.slot());
        if let Some(own) = read_own_write(self.store.write_sets(), tx, key) {
            return Ok(own);
        }
        self.acquire(tx, key, LockMode::Shared)?;
        self.fence_acquired(tx)?;
        self.store.committed_value(key)
    }

    /// Buffers an insert/update under an exclusive lock.
    pub fn write(&self, tx: &Tx, key: K, value: V) -> Result<()> {
        self.write_op(tx, key, WriteOp::Put(value))
    }

    /// Buffers a delete under an exclusive lock.
    pub fn delete(&self, tx: &Tx, key: K) -> Result<()> {
        self.write_op(tx, key, WriteOp::Delete)
    }

    fn write_op(&self, tx: &Tx, key: K, op: WriteOp<V>) -> Result<()> {
        reject_read_only(tx)?;
        self.ctx.record_access(tx, self.state_id)?;
        self.acquire(tx, &key, LockMode::Exclusive)?;
        self.fence_acquired(tx)?;
        buffer_write(&self.ctx, self.store.write_sets(), tx, key, op)
    }

    fn acquire(&self, tx: &Tx, key: &K, mode: LockMode) -> Result<()> {
        self.locks.lock(tx.id(), key, mode).map_err(|e| {
            if matches!(e, TspError::Deadlock { .. }) {
                self.ctx.telemetry().record_abort(AbortReason::LockConflict);
            }
            e
        })
    }

    /// Epoch fence after every lock acquisition: a lease-reaped transaction
    /// must not walk away holding a fresh lock the reaper's `release_all`
    /// already missed.  The lock manager's global holdings mutex totally
    /// orders this transaction's insert against the reaper's sweep, so
    /// either this fence observes the epoch bump and self-releases, or the
    /// reaper's `release_all` (which runs after its epoch claim) sweeps the
    /// lock just inserted — no leak either way.
    fn fence_acquired(&self, tx: &Tx) -> Result<()> {
        if let Err(e) = self.ctx.check_fate(tx) {
            self.locks.release_all(tx.id());
            return Err(e);
        }
        Ok(())
    }

    /// A whole-table read within `tx`: the current committed image overlaid
    /// with the transaction's own uncommitted writes.
    ///
    /// Full-table reads under shared locks are not offered; the scan reads
    /// the committed image without locking individual keys (callers that
    /// need a strictly consistent whole-table view should use the MVCC
    /// table, whose scan is snapshot-exact).
    pub fn scan(&self, tx: &Tx) -> Result<BTreeMap<K, V>> {
        self.ctx.record_access(tx, self.state_id)?;
        self.store.scan(tx)
    }

    /// Loads initial data directly as committed rows, outside any
    /// transaction.  Persistent rows are written in large batches.
    pub fn preload(&self, rows: impl IntoIterator<Item = (K, V)>) -> Result<()> {
        self.store.preload(&mut rows.into_iter())
    }

    /// Number of transactions currently holding locks on this table.
    pub fn lock_holder_count(&self) -> usize {
        self.locks.holder_count()
    }
}

impl<K: KeyType, V: ValueType> TxParticipant for S2plTable<K, V> {
    fn state_id(&self) -> StateId {
        self.state_id
    }

    fn has_writes(&self, tx: &Tx) -> bool {
        self.store.write_sets().has_writes(tx)
    }

    /// All conflicts were already resolved by lock acquisition; there is
    /// nothing to validate.
    fn validate(&self, _tx: &Tx, _txn_has_writes: bool) -> Result<()> {
        Ok(())
    }

    /// In-memory apply: updates the committed map while the exclusive locks
    /// are still held.  Persistence happens in
    /// [`apply_durable`](TxParticipant::apply_durable).
    fn apply(&self, tx: &Tx, _cts: Timestamp) -> Result<()> {
        self.store.apply(tx, |_| {});
        Ok(())
    }

    /// Drops the buffered state and releases every lock (strict 2PL: locks
    /// are held until the transaction ends).
    fn finish(&self, tx: &Tx, _committed: bool) {
        self.store.clear(tx);
        self.locks.release_all(tx.id());
    }

    /// Restores the committed-map entries `apply` overwrote, from the
    /// captured pre-images.
    fn undo_apply(&self, tx: &Tx, _cts: Timestamp) {
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

impl<K: KeyType, V: ValueType> TransactionalTable<K, V> for S2plTable<K, V> {
    fn read(&self, tx: &Tx, key: &K) -> Result<Option<V>> {
        S2plTable::read(self, tx, key)
    }

    fn write(&self, tx: &Tx, key: K, value: V) -> Result<()> {
        S2plTable::write(self, tx, key, value)
    }

    fn delete(&self, tx: &Tx, key: K) -> Result<()> {
        S2plTable::delete(self, tx, key)
    }

    fn scan(&self, tx: &Tx) -> Result<BTreeMap<K, V>> {
        S2plTable::scan(self, tx)
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
    use tsp_storage::{BTreeBackend, Codec};

    fn setup() -> (Arc<StateContext>, Arc<S2plTable<u32, String>>) {
        let ctx = Arc::new(StateContext::new());
        let table = S2plTable::volatile(&ctx, "s2pl");
        ctx.register_group(&[table.id()]).unwrap();
        (ctx, table)
    }

    fn commit(ctx: &StateContext, table: &S2plTable<u32, String>, tx: &Tx) {
        table.validate(tx, true).unwrap();
        let cts = ctx.clock().next_commit_ts();
        table.apply(tx, cts).unwrap();
        table.apply_durable(tx, cts).unwrap();
        for g in ctx.groups_of_state(table.id()) {
            ctx.publish_group_commit(g, cts).unwrap();
        }
        table.finish(tx, true);
        ctx.finish(tx);
    }

    #[test]
    fn committed_writes_become_visible() {
        let (ctx, table) = setup();
        let w = ctx.begin(false).unwrap();
        table.write(&w, 1, "hello".into()).unwrap();
        assert_eq!(table.read(&w, &1).unwrap(), Some("hello".into()));
        commit(&ctx, &table, &w);
        let r = ctx.begin(true).unwrap();
        assert_eq!(table.read(&r, &1).unwrap(), Some("hello".into()));
        table.finish(&r, true);
        ctx.finish(&r);
        assert_eq!(table.lock_holder_count(), 0);
    }

    #[test]
    fn younger_reader_dies_on_locked_key() {
        let (ctx, table) = setup();
        let writer = ctx.begin(false).unwrap();
        table.write(&writer, 42, "locked".into()).unwrap();
        // A younger reader conflicts with the exclusive lock and dies.
        let reader = ctx.begin(true).unwrap();
        let err = table.read(&reader, &42).unwrap_err();
        assert!(matches!(err, TspError::Deadlock { .. }));
        table.finish(&reader, true);
        ctx.finish(&reader);
        commit(&ctx, &table, &writer);
        assert!(ctx.telemetry_snapshot().stats.deadlocks >= 1);
    }

    #[test]
    fn locks_are_released_after_finish() {
        let (ctx, table) = setup();
        let writer = ctx.begin(false).unwrap();
        table.write(&writer, 7, "v".into()).unwrap();
        commit(&ctx, &table, &writer);
        // After the writer finished, a younger reader acquires the lock fine.
        let reader = ctx.begin(true).unwrap();
        assert_eq!(table.read(&reader, &7).unwrap(), Some("v".into()));
        table.finish(&reader, true);
        ctx.finish(&reader);
    }

    #[test]
    fn rollback_discards_buffered_writes() {
        let (ctx, table) = setup();
        let w1 = ctx.begin(false).unwrap();
        table.write(&w1, 3, "keep".into()).unwrap();
        commit(&ctx, &table, &w1);

        let w2 = ctx.begin(false).unwrap();
        table.write(&w2, 3, "discard".into()).unwrap();
        table.delete(&w2, 3).unwrap();
        table.finish(&w2, false);
        ctx.finish(&w2);

        let r = ctx.begin(true).unwrap();
        assert_eq!(table.read(&r, &3).unwrap(), Some("keep".into()));
        table.finish(&r, true);
        ctx.finish(&r);
    }

    #[test]
    fn delete_removes_committed_value() {
        let (ctx, table) = setup();
        let w = ctx.begin(false).unwrap();
        table.write(&w, 8, "x".into()).unwrap();
        commit(&ctx, &table, &w);
        let d = ctx.begin(false).unwrap();
        table.delete(&d, 8).unwrap();
        commit(&ctx, &table, &d);
        let r = ctx.begin(true).unwrap();
        assert_eq!(table.read(&r, &8).unwrap(), None);
        table.finish(&r, true);
        ctx.finish(&r);
    }

    #[test]
    fn preload_and_backend_fallthrough() {
        let ctx = Arc::new(StateContext::new());
        let backend = Arc::new(BTreeBackend::new());
        let table = S2plTable::<u32, String>::persistent(&ctx, "p", backend.clone());
        ctx.register_group(&[table.id()]).unwrap();
        table
            .preload((0..10u32).map(|i| (i, format!("v{i}"))))
            .unwrap();
        let r = ctx.begin(true).unwrap();
        assert_eq!(table.read(&r, &4).unwrap(), Some("v4".into()));
        table.finish(&r, true);
        ctx.finish(&r);
        // Committed updates shadow the base table and are persisted.
        let w = ctx.begin(false).unwrap();
        table.write(&w, 4, "updated".into()).unwrap();
        table.validate(&w, true).unwrap();
        let cts = ctx.clock().next_commit_ts();
        table.apply(&w, cts).unwrap();
        table.apply_durable(&w, cts).unwrap();
        table.finish(&w, true);
        ctx.finish(&w);
        assert_eq!(
            backend.get(&4u32.encode()).unwrap(),
            Some("updated".to_string().encode())
        );
        let scanner = ctx.begin(true).unwrap();
        let scan = table.scan(&scanner).unwrap();
        assert_eq!(scan.len(), 10);
        assert_eq!(scan.get(&4), Some(&"updated".to_string()));
        table.finish(&scanner, true);
        ctx.finish(&scanner);
    }

    #[test]
    fn scan_overlays_own_writes() {
        let (ctx, table) = setup();
        let w = ctx.begin(false).unwrap();
        table.write(&w, 1, "committed".into()).unwrap();
        commit(&ctx, &table, &w);
        let t = ctx.begin(false).unwrap();
        table.write(&t, 2, "own".into()).unwrap();
        table.delete(&t, 1).unwrap();
        let snap = table.scan(&t).unwrap();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.get(&2), Some(&"own".to_string()));
        table.finish(&t, false);
        ctx.finish(&t);
    }

    #[test]
    fn older_writer_waits_for_younger_reader() {
        use std::time::Duration;
        let (ctx, table) = setup();
        // Begin the (older) writer first, then the younger reader.
        let writer = ctx.begin(false).unwrap();
        let reader = ctx.begin(true).unwrap();
        assert_eq!(table.read(&reader, &1).unwrap(), None);
        let t = {
            let table = Arc::clone(&table);
            let ctx = Arc::clone(&ctx);
            let writer_tx = writer.clone();
            std::thread::spawn(move || {
                // The older writer is allowed to wait for the shared lock.
                table.write(&writer_tx, 1, "w".into()).unwrap();
                commit(&ctx, &table, &writer_tx);
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        table.finish(&reader, true);
        ctx.finish(&reader);
        t.join().unwrap();
        let r = ctx.begin(true).unwrap();
        assert_eq!(table.read(&r, &1).unwrap(), Some("w".into()));
        table.finish(&r, true);
        ctx.finish(&r);
    }
}
