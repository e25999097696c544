//! The one transactional table: [`Table<K, V, P>`], a skeleton written
//! once for every concurrency-control protocol, with the protocol plugged
//! in as a [`Policy`].
//!
//! The paper runs all its protocols through "fundamentally the same
//! consistency protocol for multiple states" (§5); they differ only in a
//! read rule, a validation rule, and versioned or in-place apply.  The
//! skeleton owns everything else — the registration, the
//! read-your-own-writes prologue, write buffering, the write sets, the base
//! table and its durable batches — and calls the policy's hooks, statically
//! dispatched, at the points where protocols differ:
//!
//! * [`Policy::Store`] — the committed data: the versioned store of MVCC
//!   and SSI ([`Versions`](crate::table::store::Versions)) or the
//!   single-version one of S2PL and BOCC
//!   ([`InPlaceStore`](crate::table::store::InPlaceStore));
//! * [`Policy::on_read`] / [`Policy::on_write`] — nothing (MVCC), record
//!   the read (SSI, BOCC), or take a lock (S2PL);
//! * [`Policy::validate`], [`Policy::apply`], [`Policy::undo`] and
//!   [`Policy::finish`] — the commit-time rules.
//!
//! The policy value lives in the table and holds the protocol's state: its
//! store, its table-wide state (the lock table, the commit log, the scan
//! watermark) and its per-transaction state (read set, held locks) in one
//! slot-local cell beside the write set.  When a transaction's write-set
//! cell and its policy cell are both locked, the write set is locked first.

use crate::context::{StateContext, Tx};
use crate::table::common::{
    buffer_write, persist_pending, read_own_write, redo_section, KeyType, SlotLocal,
    TransactionalTable, TxParticipant, TypedBackend, ValueType, WriteOp, WriteSet,
};
use crate::table::mvcc_table::MvccTableOptions;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use tsp_common::{Result, StateId, Timestamp, TspError};
use tsp_storage::redo::RedoSections;
use tsp_storage::StorageBackend;

/// Rows per durable batch when preloading a persistent table.
pub const PRELOAD_BATCH: usize = 4096;

/// The committed-data half of a table: versioned or in place.
pub trait Store<K: KeyType, V: ValueType>: Send + Sync + Sized {
    /// Creates the store for a table of `ctx`.
    fn new(ctx: &StateContext, opts: &MvccTableOptions) -> Self;

    /// Records `tx`'s access to `state` and returns the timestamp its reads
    /// of committed data are served at (unused by single-version stores).
    fn access(ctx: &StateContext, tx: &Tx, state: StateId) -> Result<Timestamp>;

    /// The committed value of `key` at `at`, falling back to the base table.
    fn get(&self, at: Timestamp, key: &K, backend: &TypedBackend<K, V>) -> Result<Option<V>>;

    /// Overlays the in-memory committed image at `at` onto `out`, which
    /// holds the base table.
    fn overlay(&self, at: Timestamp, out: &mut BTreeMap<K, V>);

    /// Installs one preloaded row of a volatile table.
    fn preload(&self, key: K, value: V);

    /// Makes `ops` visible at `cts` once the coordinator publishes it.
    fn apply(
        &self,
        ctx: &StateContext,
        backend: &TypedBackend<K, V>,
        tx: &Tx,
        ops: &[(K, WriteOp<V>)],
        cts: Timestamp,
    ) -> Result<()>;

    /// Reverts an [`apply`](Self::apply) that will never be published.
    fn undo(&self, tx: &Tx, ops: &[(K, WriteOp<V>)], cts: Timestamp);

    /// Drops what the store kept for `tx`.
    fn finish(&self, tx: &Tx) {
        let _ = tx;
    }
}

/// A concurrency-control protocol, plugged into [`Table`]: a value that
/// holds the protocol's state, and hooks that get the whole table (the
/// policy is `t.policy`).
pub trait Policy<K: KeyType, V: ValueType>: Sized + Send + Sync + 'static {
    /// Where committed data lives.
    type Store: Store<K, V>;

    /// Creates the policy, store included, for a table of `ctx`.
    fn new(ctx: &StateContext, opts: &MvccTableOptions) -> Self;

    /// The policy's store.
    fn store(&self) -> &Self::Store;

    /// Runs before a read of committed data: `key` is `None` for a
    /// whole-table scan.  Reads the transaction's own writes answer skip it.
    fn on_read(t: &Table<K, V, Self>, tx: &Tx, key: Option<&K>) -> Result<()> {
        let _ = (t, tx, key);
        Ok(())
    }

    /// Runs before a write or delete of `key` is buffered.
    fn on_write(t: &Table<K, V, Self>, tx: &Tx, key: &K) -> Result<()> {
        let _ = (t, tx, key);
        Ok(())
    }

    /// See [`TxParticipant::validate`].
    fn validate(t: &Table<K, V, Self>, tx: &Tx, txn_has_writes: bool) -> Result<()>;

    /// See [`TxParticipant::validation_requires_commit_lock`].
    fn validation_requires_commit_lock(t: &Table<K, V, Self>, tx: &Tx) -> bool {
        let _ = (t, tx);
        false
    }

    /// In-memory apply of the transaction's write set at `cts`.
    fn apply(
        t: &Table<K, V, Self>,
        tx: &Tx,
        ops: &[(K, WriteOp<V>)],
        cts: Timestamp,
    ) -> Result<()> {
        t.policy.store().apply(&t.ctx, &t.backend, tx, ops, cts)
    }

    /// Reverts a successful [`apply`](Self::apply) that will never publish.
    fn undo(t: &Table<K, V, Self>, tx: &Tx, ops: &[(K, WriteOp<V>)], cts: Timestamp) {
        t.policy.store().undo(tx, ops, cts)
    }

    /// Ends the transaction: releases what the policy kept for it.
    fn finish(t: &Table<K, V, Self>, tx: &Tx, committed: bool) {
        let _ = (t, tx, committed);
    }
}

/// A transactional table of policy `P` — see the module docs.
pub struct Table<K, V, P> {
    pub(super) state_id: StateId,
    pub(super) name: String,
    pub(super) ctx: Arc<StateContext>,
    /// The uncommitted write sets — the "Uncommitted Write Set" box of
    /// Fig. 3: the write-buffer probe on the read path costs one atomic
    /// load for transactions that have not written here.
    pub(super) write_sets: SlotLocal<WriteSet<K, V>>,
    pub(super) backend: TypedBackend<K, V>,
    pub(super) policy: P,
}

impl<K: KeyType, V: ValueType, P: Policy<K, V>> Table<K, V, P> {
    /// Creates a volatile (in-memory only) table registered as `name`.
    pub fn volatile(ctx: &Arc<StateContext>, name: impl Into<String>) -> Arc<Self> {
        Self::with_options(ctx, name, None, MvccTableOptions::default())
    }

    /// Creates a table persisting committed data to `backend`.
    pub fn persistent(
        ctx: &Arc<StateContext>,
        name: impl Into<String>,
        backend: Arc<dyn StorageBackend>,
    ) -> Arc<Self> {
        Self::with_options(ctx, name, Some(backend), MvccTableOptions::default())
    }

    /// Creates a table with explicit version-store options, volatile when
    /// `backend` is `None`.  The single-version protocols ignore `opts`.
    pub fn with_options(
        ctx: &Arc<StateContext>,
        name: impl Into<String>,
        backend: Option<Arc<dyn StorageBackend>>,
        opts: MvccTableOptions,
    ) -> Arc<Self> {
        let name = name.into();
        let state_id = ctx.register_state(&name);
        Arc::new(Table {
            state_id,
            name,
            write_sets: SlotLocal::for_context(ctx),
            policy: P::new(ctx, &opts),
            backend: TypedBackend::for_context(ctx, state_id, backend),
            ctx: Arc::clone(ctx),
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

    /// Reads `key` within `tx`, honouring its own uncommitted writes and
    /// the protocol's read rule.
    pub fn read(&self, tx: &Tx, key: &K) -> Result<Option<V>> {
        // Records the access and, for versioned stores, resolves the pinned
        // snapshot — announcing on first access the snapshot floor that
        // makes the latch-free version scan sound.
        let at = P::Store::access(&self.ctx, tx, self.state_id)?;
        self.ctx.telemetry().bump_read(tx.slot());
        if let Some(own) = read_own_write(&self.write_sets, tx, key) {
            return Ok(own);
        }
        P::on_read(self, tx, Some(key))?;
        self.policy.store().get(at, key, &self.backend)
    }

    /// Buffers an insert/update of `key` in the transaction's write set.
    pub fn write(&self, tx: &Tx, key: K, value: V) -> Result<()> {
        self.write_op(tx, key, WriteOp::Put(value))
    }

    /// Buffers a delete of `key` in the transaction's write set.
    pub fn delete(&self, tx: &Tx, key: K) -> Result<()> {
        self.write_op(tx, key, WriteOp::Delete)
    }

    fn write_op(&self, tx: &Tx, key: K, op: WriteOp<V>) -> Result<()> {
        if tx.is_read_only() {
            return Err(TspError::protocol(
                "write attempted in a read-only transaction",
            ));
        }
        self.ctx.record_access(tx, self.state_id)?;
        P::on_write(self, tx, &key)?;
        buffer_write(&self.ctx, &self.write_sets, tx, key, op)
    }

    /// A whole-table read within `tx`: the committed image the protocol
    /// shows it (a pinned snapshot for the versioned store, the current
    /// image for the single-version one) overlaid with its own writes.
    pub fn scan(&self, tx: &Tx) -> Result<BTreeMap<K, V>> {
        let at = P::Store::access(&self.ctx, tx, self.state_id)?;
        P::on_read(self, tx, None)?;
        let mut out = BTreeMap::new();
        self.backend.scan(&mut |k, v| {
            out.insert(k, v);
            true
        })?;
        self.policy.store().overlay(at, &mut out);
        self.write_sets.with(tx, |ws| {
            for (k, op) in ws.ops() {
                match op {
                    WriteOp::Put(v) => out.insert(k.clone(), v.clone()),
                    WriteOp::Delete => out.remove(k),
                };
            }
        });
        Ok(out)
    }

    /// Loads initial rows directly as committed data, outside any
    /// transaction (benchmark preloading, recovery restore).  Persistent
    /// rows go to the base table in batches of [`PRELOAD_BATCH`], so it
    /// pays one durable write per few thousand rows; volatile rows go to
    /// the store.
    pub fn preload(&self, rows: impl IntoIterator<Item = (K, V)>) -> Result<()> {
        self.preload_rows(&mut rows.into_iter())
    }

    fn preload_rows(&self, rows: &mut dyn Iterator<Item = (K, V)>) -> Result<()> {
        if !self.backend.is_persistent() {
            rows.for_each(|(k, v)| self.policy.store().preload(k, v));
            return Ok(());
        }
        let mut chunk: Vec<(K, WriteOp<V>)> = Vec::new();
        for (k, v) in rows {
            chunk.push((k, WriteOp::Put(v)));
            if chunk.len() >= PRELOAD_BATCH {
                self.backend.apply(&chunk)?;
                chunk.clear();
            }
        }
        self.backend.apply(&chunk)
    }
}

impl<K: KeyType, V: ValueType, P: Policy<K, V>> TxParticipant for Table<K, V, P> {
    fn state_id(&self) -> StateId {
        self.state_id
    }

    fn has_writes(&self, tx: &Tx) -> bool {
        self.write_sets.has_writes(tx)
    }

    fn validate(&self, tx: &Tx, txn_has_writes: bool) -> Result<()> {
        P::validate(self, tx, txn_has_writes)
    }

    /// In-memory apply; the base table is [`apply_durable`]'s job.
    ///
    /// [`apply_durable`]: TxParticipant::apply_durable
    fn apply(&self, tx: &Tx, cts: Timestamp) -> Result<()> {
        self.write_sets
            .with(tx, |ws| P::apply(self, tx, ws.ops(), cts))
            .unwrap_or(Ok(()))
    }

    /// Drops the write set, the store's stash and the policy's state.
    fn finish(&self, tx: &Tx, committed: bool) {
        self.write_sets.clear(tx);
        self.policy.store().finish(tx);
        P::finish(self, tx, committed);
    }

    fn validation_requires_commit_lock(&self, tx: &Tx) -> bool {
        P::validation_requires_commit_lock(self, tx)
    }

    fn undo_apply(&self, tx: &Tx, cts: Timestamp) {
        self.write_sets
            .with(tx, |ws| P::undo(self, tx, ws.ops(), cts));
    }

    fn is_persistent(&self) -> bool {
        self.backend.is_persistent()
    }

    fn redo_section(&self, tx: &Tx, sections: &mut RedoSections) {
        redo_section(&self.backend, &self.write_sets, tx, self.state_id, sections);
    }

    /// Persists the write set with the durable commit-timestamp marker —
    /// synchronously, or as a push onto the asynchronous writer's queue.
    /// Failure atomicity comes from the backend's WAL.
    fn apply_durable(&self, tx: &Tx, cts: Timestamp) -> Result<()> {
        persist_pending(
            &self.ctx,
            &self.backend,
            &self.write_sets,
            tx,
            self.state_id,
            cts,
        )
    }

    fn wait_durable(&self, cts: Timestamp, deadline: Option<Instant>) -> Result<bool> {
        self.backend.wait_durable(cts, deadline)
    }
}

impl<K: KeyType, V: ValueType, P: Policy<K, V>> TransactionalTable<K, V> for Table<K, V, P> {
    fn read(&self, tx: &Tx, key: &K) -> Result<Option<V>> {
        Table::read(self, tx, key)
    }

    fn write(&self, tx: &Tx, key: K, value: V) -> Result<()> {
        Table::write(self, tx, key, value)
    }

    fn delete(&self, tx: &Tx, key: K) -> Result<()> {
        Table::delete(self, tx, key)
    }

    fn scan(&self, tx: &Tx) -> Result<BTreeMap<K, V>> {
        Table::scan(self, tx)
    }

    fn preload_iter(&self, rows: &mut dyn Iterator<Item = (K, V)>) -> Result<()> {
        self.preload_rows(rows)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn as_participant(self: Arc<Self>) -> Arc<dyn TxParticipant> {
        self
    }
}
