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
//! alone.  That single-version store is [`InPlaceStore`], shared with the
//! BOCC baseline.  The keys a transaction locked live in its slot-local
//! policy cell, so `finish` releases them without a shared registry.
//!
//! [`TxParticipant::undo_apply`]: crate::table::TxParticipant::undo_apply

use crate::context::{StateContext, Tx};
use crate::table::common::{KeyType, SlotLocal, ValueType};
use crate::table::locks::{LockManager, LockMode};
use crate::table::mvcc_table::MvccTableOptions;
use crate::table::skeleton::{Policy, Store, Table};
use crate::table::store::InPlaceStore;
use crate::telemetry::AbortReason;
use tsp_common::{FxHashSet, Result, TspError};

/// Strict two-phase locking with wait-die.
pub struct S2pl<K, V> {
    store: InPlaceStore<K, V>,
    locks: LockManager<K>,
    /// The keys each transaction holds a lock on, released at `finish`.
    held: SlotLocal<FxHashSet<K>>,
}

/// A single-version transactional table protected by strict two-phase
/// locking.
pub type S2plTable<K, V> = Table<K, V, S2pl<K, V>>;

impl<K: KeyType, V: ValueType> Policy<K, V> for S2pl<K, V> {
    type Store = InPlaceStore<K, V>;

    fn new(ctx: &StateContext, opts: &MvccTableOptions) -> Self {
        S2pl {
            store: InPlaceStore::new(ctx, opts),
            locks: LockManager::new(),
            held: SlotLocal::for_context(ctx),
        }
    }

    fn store(&self) -> &InPlaceStore<K, V> {
        &self.store
    }

    /// Point reads take a shared lock (blocking behind concurrent writers;
    /// wait-die may abort the younger transaction).  Full-table reads under
    /// shared locks are not offered: a scan reads the committed image
    /// without locking individual keys (callers that need a strictly
    /// consistent whole-table view should use the MVCC table, whose scan is
    /// snapshot-exact).
    fn on_read(t: &S2plTable<K, V>, tx: &Tx, key: Option<&K>) -> Result<()> {
        key.map_or(Ok(()), |key| lock(t, tx, key, LockMode::Shared))
    }

    /// Writes take an exclusive lock before they are buffered.
    fn on_write(t: &S2plTable<K, V>, tx: &Tx, key: &K) -> Result<()> {
        lock(t, tx, key, LockMode::Exclusive)
    }

    /// All conflicts were already resolved by lock acquisition; there is
    /// nothing to validate.
    fn validate(_t: &S2plTable<K, V>, _tx: &Tx, _txn_has_writes: bool) -> Result<()> {
        Ok(())
    }

    /// Releases every lock (strict 2PL: locks are held until the
    /// transaction ends).
    fn finish(t: &S2plTable<K, V>, tx: &Tx, _committed: bool) {
        let S2pl { locks, held, .. } = &t.policy;
        held.release_with(tx, |keys| locks.release(tx.id(), keys.iter()));
    }
}

/// Acquires `mode` on `key` and records the key in the transaction's cell.
///
/// The first lock claims the cell under the epoch fence, and every
/// acquisition is fenced again afterwards: a lease-reaped transaction must
/// not walk away holding a fresh lock the reaper's `finish` already missed.
/// The cell mutex totally orders the recording against the reaper's
/// release, so either the fence fails here and the transaction releases
/// the lock itself, or the reaper's `finish` (which runs after its epoch
/// claim) releases it — no leak either way.
fn lock<K: KeyType, V: ValueType>(
    t: &S2plTable<K, V>,
    tx: &Tx,
    key: &K,
    mode: LockMode,
) -> Result<()> {
    let S2pl { locks, held, .. } = &t.policy;
    if let Err(e) = locks.lock(tx.id(), key, mode) {
        if matches!(e, TspError::Deadlock { .. }) {
            t.ctx.telemetry().record_abort(AbortReason::LockConflict);
        }
        return Err(e);
    }
    let recorded = held.with_mut_checked(
        tx,
        || t.ctx.check_fate(tx),
        |keys| {
            if !keys.contains(key) {
                keys.insert(key.clone());
            }
        },
    );
    if let Err(e) = recorded.and_then(|()| t.ctx.check_fate(tx)) {
        locks.release(tx.id(), [key]);
        held.release_with(tx, |keys| locks.release(tx.id(), keys.iter()));
        return Err(e);
    }
    Ok(())
}

impl<K: KeyType, V: ValueType> S2plTable<K, V> {
    /// Number of transactions currently holding locks on this table.
    pub fn lock_holder_count(&self) -> usize {
        self.policy.locks.holder_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::common::TxParticipant;
    use std::sync::Arc;
    use tsp_storage::{BTreeBackend, Codec, StorageBackend};

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
