//! Building blocks of the transactional table: the protocol-agnostic
//! [`TransactionalTable`] and [`TxParticipant`] interfaces, uncommitted
//! write sets ("dirty arrays"), slot-local transaction storage, the typed
//! view onto a byte-level storage backend with its durable-batch helpers,
//! and the trait bounds for keys and values.

use crate::clock::EPOCH_TS;
use crate::context::{StateContext, Tx};
use crate::telemetry::Counter;
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tsp_common::recycle::{recycle_map, recycle_set, recycle_vec, KEEP_BYTES, KEEP_ENTRIES};
use tsp_common::{CachePadded, FxHashMap, FxHashSet, Result, StateId, Timestamp};
use tsp_storage::redo::{redo_key, RedoSections};
use tsp_storage::{BatchWriter, Codec, StorageBackend, WriteBatch};

/// Bound for table keys: hashable, ordered, encodable.
pub trait KeyType: Clone + Eq + Hash + Ord + Codec + Send + Sync + 'static {}
impl<T: Clone + Eq + Hash + Ord + Codec + Send + Sync + 'static> KeyType for T {}

/// Bound for table values: cloneable and encodable.
pub trait ValueType: Clone + Codec + Send + Sync + 'static {}
impl<T: Clone + Codec + Send + Sync + 'static> ValueType for T {}

/// One buffered, uncommitted modification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WriteOp<V> {
    /// Insert or update to `V`.
    Put(V),
    /// Delete the key.
    Delete,
}

/// The uncommitted write set of one transaction against one table — the
/// paper's "Dirty Array" inside the "Uncommitted Write Set" (§4.1).
///
/// Writes are buffered here until commit; aborting a transaction therefore
/// only needs to drop this structure ("it is enough for the abort operation
/// to simply clear the corresponding write set").
///
/// The set is always in its *effective* form: one op per key, in the order
/// the keys were first written, a later write of a key overwriting its op
/// in place (last write wins).  The commit phases — validation, apply, the
/// redo section and the durable batch — iterate [`ops`](Self::ops) by
/// reference inside the transaction's slot cell, with nothing to rebuild.
#[derive(Clone, Debug)]
pub struct WriteSet<K, V> {
    /// One op per key, in first-write order.
    ops: Vec<(K, WriteOp<V>)>,
    /// Index from key to the position of its op.
    index: FxHashMap<K, usize>,
}

impl<K: KeyType, V: ValueType> Default for WriteSet<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: KeyType, V: ValueType> WriteSet<K, V> {
    /// Creates an empty write set.
    pub fn new() -> Self {
        WriteSet {
            ops: Vec::new(),
            index: FxHashMap::default(),
        }
    }

    /// Buffers a put.
    pub fn put(&mut self, key: K, value: V) {
        self.record(key, WriteOp::Put(value));
    }

    /// Buffers a delete.
    pub fn delete(&mut self, key: K) {
        self.record(key, WriteOp::Delete);
    }

    fn record(&mut self, key: K, op: WriteOp<V>) {
        match self.index.entry(key) {
            Entry::Occupied(e) => self.ops[*e.get()].1 = op,
            Entry::Vacant(e) => {
                self.ops.push((e.key().clone(), op));
                e.insert(self.ops.len() - 1);
            }
        }
    }

    /// The buffered op for `key`, if any (read-your-own-writes).
    pub fn get(&self, key: &K) -> Option<&WriteOp<V>> {
        self.index.get(key).map(|&i| &self.ops[i].1)
    }

    /// Number of distinct keys written.
    pub fn key_count(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The modifications: one per key, the last write winning, in
    /// first-write order.
    pub fn ops(&self) -> &[(K, WriteOp<V>)] {
        &self.ops
    }

    /// The distinct keys written, in first-write order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.ops.iter().map(|(k, _)| k)
    }

    /// Entries the op list and the index hold before they reallocate.
    #[cfg(test)]
    fn capacity(&self) -> (usize, usize) {
        (self.ops.capacity(), self.index.capacity())
    }
}

impl<K: KeyType, V: ValueType> Recycle for WriteSet<K, V> {
    fn recycle(&mut self) {
        recycle_vec(&mut self.ops, KEEP_ENTRIES);
        recycle_map(&mut self.index);
    }
}

/// Slot-local data that outlives its transaction.  [`SlotLocal`] empties a
/// cell with [`recycle`](Self::recycle) when its transaction finishes (or
/// a new one claims it), so the buffers inside keep their capacity from one
/// transaction to the next, under the rule of [`tsp_common::recycle`].
pub trait Recycle: Default {
    /// Empties the data for the cell's next transaction.  The default
    /// replaces it with `Default::default()` — right for data that holds
    /// no buffer.
    fn recycle(&mut self) {
        *self = Self::default();
    }
}

impl<T> Recycle for Option<T> {}

impl<T> Recycle for Vec<T> {
    fn recycle(&mut self) {
        recycle_vec(self, KEEP_ENTRIES);
    }
}

impl<T, S: BuildHasher + Default> Recycle for HashSet<T, S> {
    fn recycle(&mut self) {
        recycle_set(self);
    }
}

/// Transaction-slot-local storage: one `T` per active-transaction slot,
/// indexed by [`Tx::slot`].
///
/// This replaces the historical `Mutex<HashMap<TxnId, T>>` registries that
/// every table consulted on *every* read (write-buffer lookup, BOCC read
/// sets) — a shared lock plus a hash probe on the hottest path in the
/// system.  A transaction's data now lives in the slot it already owns:
///
/// * the **owner tag** (an atomic holding the claiming transaction's id)
///   lets readers decide "this transaction has no data here" with a single
///   `Acquire` load and **no lock** — the common case for read-dominated
///   transactions probing their own write buffer;
/// * the per-slot mutex is only taken when data exists or is being created,
///   and it is *transaction-private* — uncontended unless one transaction
///   is genuinely driven from several operator threads;
/// * slots are cache-line-padded so neighbouring transactions do not
///   false-share.
///
/// Soundness of the owner fast path: transaction ids are never reused, a
/// slot is exclusively owned between `begin` and `finish`, and the owner tag
/// is only set (under the slot mutex) by the owning transaction itself —
/// `owner == tx.id` therefore proves the stored data belongs to `tx`, and
/// any stale tag from a previous occupant fails the comparison.
pub struct SlotLocal<T> {
    slots: Box<[CachePadded<SlotCell<T>>]>,
}

struct SlotCell<T> {
    /// Transaction id that claimed this cell (0 = unclaimed).
    owner: AtomicU64,
    data: Mutex<T>,
}

impl<T: Recycle> SlotLocal<T> {
    /// Creates storage for `capacity` transaction slots (size it with
    /// [`StateContext::max_active_txns`]).
    pub fn new(capacity: usize) -> Self {
        SlotLocal {
            slots: (0..capacity.max(1))
                .map(|_| {
                    CachePadded::new(SlotCell {
                        owner: AtomicU64::new(0),
                        data: Mutex::new(T::default()),
                    })
                })
                .collect(),
        }
    }

    /// Creates storage sized for `ctx`'s active-transaction table.
    pub fn for_context(ctx: &StateContext) -> Self {
        Self::new(ctx.max_active_txns())
    }

    fn cell(&self, tx: &Tx) -> &SlotCell<T> {
        &self.slots[tx.slot() % self.slots.len()]
    }

    /// True if `tx` has claimed its cell (i.e. has data here).  Lock-free.
    pub fn is_claimed(&self, tx: &Tx) -> bool {
        self.cell(tx).owner.load(Ordering::Acquire) == tx.id().as_u64()
    }

    /// Runs `f` with `tx`'s data, claiming (and emptying) the cell on
    /// first use.
    pub fn with_mut<R>(&self, tx: &Tx, f: impl FnOnce(&mut T) -> R) -> R {
        let cell = self.cell(tx);
        crate::latch_probe::count_latch();
        let mut data = cell.data.lock();
        if cell.owner.load(Ordering::Relaxed) != tx.id().as_u64() {
            // First use by this transaction (or a stale leftover from a
            // previous occupant that skipped `finish`): start empty.
            data.recycle();
            cell.owner.store(tx.id().as_u64(), Ordering::Release);
        }
        f(&mut data)
    }

    /// [`with_mut`](Self::with_mut) with an epoch-fence check on first use.
    ///
    /// Claiming a cell is the moment a transaction starts depending on
    /// slot-local state, so it is where a *reaped* transaction must be
    /// stopped: once the reaper has force-aborted the slot's occupant, a
    /// late write from the zombie owner would otherwise claim-and-reset the
    /// cell and plant a stale owner tag for the slot's next occupant to
    /// trip over.  `check` (typically `StateContext::check_fate`) runs
    /// **under the cell mutex** and only on the claim path — repeat touches
    /// by an already-claimed owner skip it, keeping the hot path one lock +
    /// one relaxed load.  The ordering argument: the reaper clears cells
    /// through [`clear`](Self::clear) under the same
    /// mutex *after* winning the epoch CAS, so if this claim observes the
    /// pre-reap owner tag as already cleared (or a new occupant's tag), the
    /// epoch bump is visible too and `check` fails deterministically.
    pub fn with_mut_checked<R>(
        &self,
        tx: &Tx,
        check: impl FnOnce() -> Result<()>,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R> {
        let cell = self.cell(tx);
        crate::latch_probe::count_latch();
        let mut data = cell.data.lock();
        if cell.owner.load(Ordering::Relaxed) != tx.id().as_u64() {
            check()?;
            data.recycle();
            cell.owner.store(tx.id().as_u64(), Ordering::Release);
        }
        Ok(f(&mut data))
    }

    /// Runs `f` with `tx`'s data if the cell is claimed.  Unclaimed cells
    /// are detected with a single atomic load — no lock.
    pub fn with<R>(&self, tx: &Tx, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.view(tx, |data| data.map(f))
    }

    /// Runs `f` with `tx`'s data, or with `None` if the cell is not
    /// claimed (detected with a single atomic load — no lock).
    pub fn view<R>(&self, tx: &Tx, f: impl FnOnce(Option<&T>) -> R) -> R {
        let cell = self.cell(tx);
        if cell.owner.load(Ordering::Acquire) != tx.id().as_u64() {
            return f(None);
        }
        crate::latch_probe::count_latch();
        let data = cell.data.lock();
        // Re-check under the lock: `release_with` may have released the
        // cell between the probe and the lock.
        if cell.owner.load(Ordering::Relaxed) != tx.id().as_u64() {
            return f(None);
        }
        f(Some(&data))
    }

    /// Runs `f` with `tx`'s data one last time, then empties the cell in
    /// place ([`Recycle`]) and releases it.  `None` if `tx` holds no data
    /// here (never claimed, or already released).
    pub fn release_with<R>(&self, tx: &Tx, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        let cell = self.cell(tx);
        if cell.owner.load(Ordering::Acquire) != tx.id().as_u64() {
            return None;
        }
        crate::latch_probe::count_latch();
        let mut data = cell.data.lock();
        if cell.owner.load(Ordering::Relaxed) != tx.id().as_u64() {
            return None;
        }
        cell.owner.store(0, Ordering::Release);
        let result = f(&mut data);
        data.recycle();
        Some(result)
    }

    /// Removes and returns `tx`'s data, releasing the cell.
    pub fn take(&self, tx: &Tx) -> Option<T> {
        self.release_with(tx, std::mem::take)
    }

    /// Empties `tx`'s cell in place and releases it (`finish` path).
    pub fn clear(&self, tx: &Tx) {
        self.release_with(tx, |_| ());
    }

    /// The data of the cell `slot` maps to, whoever owns it (tests).
    #[cfg(test)]
    fn cell_data(&self, slot: usize) -> parking_lot::MutexGuard<'_, T> {
        self.slots[slot % self.slots.len()].data.lock()
    }

    /// Number of claimed cells (diagnostics).
    pub fn claimed_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|c| c.owner.load(Ordering::Acquire) != 0)
            .count()
    }
}

impl<K: KeyType, V: ValueType> SlotLocal<WriteSet<K, V>> {
    /// True if `tx` has buffered at least one modification.
    pub fn has_writes(&self, tx: &Tx) -> bool {
        self.with(tx, |ws| !ws.is_empty()).unwrap_or(false)
    }
}

/// What one transaction has read from a table, kept for commit-time read
/// validation (BOCC backward validation, SSI read-set certification).
///
/// Stored per transaction slot in [`SlotLocal`] storage, so recording a read
/// costs an uncontended per-slot mutex instead of a global registry lock,
/// and the "has this transaction read anything here?" probe at commit is a
/// single atomic owner-tag load.
#[derive(Debug)]
pub struct ReadSet<K> {
    /// Point-read keys.
    pub keys: FxHashSet<K>,
    /// True if the transaction scanned the whole table; validation then
    /// treats *every* later commit as conflicting (phantom protection —
    /// a key-based read set cannot see concurrently inserted keys).
    pub whole_table: bool,
}

impl<K> Default for ReadSet<K> {
    fn default() -> Self {
        ReadSet {
            keys: FxHashSet::default(),
            whole_table: false,
        }
    }
}

impl<K: KeyType> ReadSet<K> {
    /// True if the transaction recorded no reads at all.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty() && !self.whole_table
    }

    /// Records a point read of `key`, or a whole-table scan (`None`).  A
    /// whole-table mark subsumes point keys, and repeat reads of a hot key
    /// need no second clone.
    pub fn record(&mut self, key: Option<&K>) {
        match key {
            None => self.whole_table = true,
            Some(k) if !self.whole_table && !self.keys.contains(k) => {
                self.keys.insert(k.clone());
            }
            Some(_) => {}
        }
    }
}

impl<K: KeyType> Recycle for ReadSet<K> {
    fn recycle(&mut self) {
        recycle_set(&mut self.keys);
        self.whole_table = false;
    }
}

/// A typed view of an optional byte-level [`StorageBackend`] — the "Base
/// Table" of Fig. 3.
///
/// Tables without a backend are purely volatile (e.g. window operator
/// states); tables with a backend persist every committed transaction as one
/// atomic [`WriteBatch`].
pub struct TypedBackend<K, V> {
    backend: Option<Arc<dyn StorageBackend>>,
    /// Asynchronous persistence writer (stage 2 of the commit pipeline).
    /// `None` = synchronous durability inside the commit critical section.
    writer: Option<Arc<BatchWriter>>,
    /// What each commit's durable batch needs from the commits before it.
    log: Mutex<DurableLog>,
    _marker: std::marker::PhantomData<fn() -> (K, V)>,
}

/// The per-view state of [`persist_pending`], locked once per commit.
#[derive(Default)]
struct DurableLog {
    /// The group redo records the view wrote and has not yet deleted,
    /// oldest first: each commit timestamp with the states holding a copy.
    live_redo: VecDeque<(Timestamp, Arc<[StateId]>)>,
    /// The batch buffer of synchronous persistence, reused by every commit
    /// (`write_batch` only borrows it).  With an asynchronous writer the
    /// batch is drawn from the writer's pool instead.
    batch: WriteBatch,
}

impl<K: KeyType, V: ValueType> TypedBackend<K, V> {
    /// A view with no persistence.
    pub fn volatile() -> Self {
        Self::new(None, None)
    }

    /// A view over `backend` with synchronous durability.
    pub fn persistent(backend: Arc<dyn StorageBackend>) -> Self {
        Self::new(Some(backend), None)
    }

    fn new(backend: Option<Arc<dyn StorageBackend>>, writer: Option<Arc<BatchWriter>>) -> Self {
        TypedBackend {
            backend,
            writer,
            log: Mutex::new(DurableLog::default()),
            _marker: std::marker::PhantomData,
        }
    }

    /// Builds the view a table needs for `ctx`: volatile when `backend` is
    /// `None`, otherwise persistent — attaching the context's per-backend
    /// asynchronous [`BatchWriter`] when the commit pipeline is enabled
    /// ([`StateContext::enable_async_persistence`]).
    pub fn for_context(
        ctx: &StateContext,
        state: StateId,
        backend: Option<Arc<dyn StorageBackend>>,
    ) -> Self {
        match backend {
            None => Self::volatile(),
            Some(b) => {
                let writer = if ctx.durability().async_enabled() {
                    Some(ctx.durability().writer_for(state, &b))
                } else {
                    None
                };
                Self::new(Some(b), writer)
            }
        }
    }

    /// The attached asynchronous persistence writer, if any.
    pub fn writer(&self) -> Option<&Arc<BatchWriter>> {
        self.writer.as_ref()
    }

    /// True if a backend is attached.
    pub fn is_persistent(&self) -> bool {
        self.backend.is_some()
    }

    /// The raw backend, if any.
    pub fn raw(&self) -> Option<&Arc<dyn StorageBackend>> {
        self.backend.as_ref()
    }

    /// Reads and decodes the committed value of `key`.  The key is encoded
    /// into a per-thread scratch buffer and the value decoded where the
    /// backend holds it ([`StorageBackend::get_with`]), so a lookup that
    /// finds a fixed-size value allocates nothing.
    pub fn get(&self, key: &K) -> Result<Option<V>> {
        thread_local! {
            static KEY: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
        }
        let Some(b) = &self.backend else {
            return Ok(None);
        };
        let mut encoded = KEY.take();
        key.encode_into(&mut encoded);
        let mut value = None;
        let found = b.get_with(&encoded, &mut |bytes| value = Some(V::decode(bytes)));
        recycle_vec(&mut encoded, KEEP_BYTES);
        KEY.set(encoded);
        found?;
        value.transpose()
    }

    /// Writes a committed value directly (used for preloading data outside
    /// any transaction, e.g. benchmark table initialisation).
    pub fn put_direct(&self, key: &K, value: &V) -> Result<()> {
        if let Some(b) = &self.backend {
            b.put(&key.encode(), &value.encode())?;
        }
        Ok(())
    }

    /// Encodes the effective modifications of a write set into `batch`,
    /// each typed key and value encoded straight into the batch's buffer —
    /// the bytes the WAL stores.
    fn encode_ops(batch: &mut WriteBatch, ops: &[(K, WriteOp<V>)]) {
        for (k, op) in ops {
            match op {
                WriteOp::Put(v) => batch.put_with(k, v),
                WriteOp::Delete => batch.delete_with(k),
            };
        }
    }

    /// Applies the effective modifications of a write set as one atomic
    /// batch, synchronously — preloading uses this; transactional commits
    /// go through [`persist_pending`].
    pub fn apply(&self, ops: &[(K, WriteOp<V>)]) -> Result<()> {
        let Some(b) = &self.backend else {
            return Ok(());
        };
        if ops.is_empty() {
            return Ok(());
        }
        let mut batch = WriteBatch::new();
        Self::encode_ops(&mut batch, ops);
        b.write_batch(&batch)
    }

    /// An empty batch for the next commit: the asynchronous writer's
    /// pooled buffer, or the buffer synchronous persistence keeps in `log`.
    fn take_batch(&self, log: &mut DurableLog) -> WriteBatch {
        match &self.writer {
            Some(w) => w.take_buffer(),
            None => std::mem::take(&mut log.batch),
        }
    }

    /// Persists the durable work of the commit at `cts`: hands `batch` to
    /// the asynchronous [`BatchWriter`] when one is attached (a queue push —
    /// no I/O on the commit path; durability trails behind the `DurableCTS`
    /// watermark), otherwise writes it synchronously and keeps the emptied
    /// buffer in `log` for the next commit.
    fn apply_at(&self, mut batch: WriteBatch, cts: Timestamp, log: &mut DurableLog) -> Result<()> {
        let Some(b) = &self.backend else {
            return Ok(());
        };
        match &self.writer {
            Some(w) => w.enqueue(cts, batch),
            None => {
                let written = b.write_batch(&batch);
                batch.recycle();
                log.batch = batch;
                written
            }
        }
    }

    /// Waits until the commit at `cts` is durable on this backend, giving up
    /// at `deadline` (`None` = no bound): waits on the attached asynchronous
    /// writer's `DurableCTS` watermark, or returns `Ok(true)` at once under
    /// synchronous (or no) persistence.  See
    /// [`TxParticipant::wait_durable`].
    pub fn wait_durable(&self, cts: Timestamp, deadline: Option<Instant>) -> Result<bool> {
        match (&self.writer, deadline) {
            (None, _) => Ok(true),
            (Some(w), None) => w.wait_durable(cts).map(|()| true),
            (Some(w), Some(d)) => {
                w.wait_durable_timeout(cts, d.saturating_duration_since(Instant::now()))
            }
        }
    }

    /// Scans all committed entries, decoding keys and values.  Entries whose
    /// key starts with the reserved metadata prefix are skipped.
    pub fn scan(&self, visit: &mut dyn FnMut(K, V) -> bool) -> Result<()> {
        let Some(b) = &self.backend else {
            return Ok(());
        };
        let mut decode_err = None;
        b.scan(&mut |k, v| {
            if k.starts_with(META_PREFIX) {
                return true;
            }
            match (K::decode(k), V::decode(v)) {
                (Ok(key), Ok(value)) => visit(key, value),
                (Err(e), _) | (_, Err(e)) => {
                    decode_err = Some(e);
                    false
                }
            }
        })?;
        match decode_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Reserved key prefix for table metadata stored inside the base table
/// (e.g. the durably persisted group commit timestamp).
pub const META_PREFIX: &[u8] = b"__tsp__/";

/// Reserved key under which a persistent table stores the commit timestamp
/// of the last transaction applied to it (used by recovery to restore the
/// group's `LastCTS`): [`META_PREFIX`] followed by `last_cts`.
pub const LAST_CTS_KEY: &[u8] = b"__tsp__/last_cts";

/// A participant in the consistency protocol (§4.3): one transactional state
/// whose buffered effects the commit coordinator validates, applies, makes
/// durable and publishes — the phase sequence every concurrency-control
/// protocol shares (§5.1).  The manager runs the phases
/// (`crate::manager`'s phase helpers); a participant owes five obligations
/// ([`state_id`](Self::state_id), [`has_writes`](Self::has_writes),
/// [`validate`](Self::validate), [`apply`](Self::apply),
/// [`finish`](Self::finish)) and overrides the defaulted hooks only where
/// its protocol or storage needs them.
pub trait TxParticipant: Send + Sync {
    /// The participant's state id.
    fn state_id(&self) -> StateId;

    /// True if the transaction buffered modifications against this state.
    fn has_writes(&self, tx: &Tx) -> bool;

    /// Concurrency-control validation before commit.  Returning an error
    /// votes abort for the whole transaction (First-Committer-Wins check for
    /// MVCC, read-set validation for BOCC and SSI, nothing for S2PL).
    ///
    /// `txn_has_writes` is the coordinator's knowledge of whether the
    /// transaction buffered writes against *any* participant.  Protocols
    /// whose validation only matters for writing transactions (SSI: a
    /// transaction that wrote nothing anywhere is trivially serializable at
    /// its snapshot) use it to skip work a single participant cannot prove
    /// safe on its own; the others ignore it.
    fn validate(&self, tx: &Tx, txn_has_writes: bool) -> Result<()>;

    /// Applies the transaction's buffered effects **in memory** with commit
    /// timestamp `cts`: installs versions / updates the committed image so
    /// the transaction becomes visible once the coordinator publishes the
    /// group's `LastCTS`.  Runs inside the group-commit critical section.
    ///
    /// Base-table persistence is *not* part of this step — the coordinator
    /// calls [`apply_durable`](Self::apply_durable) afterwards (stage 2 of
    /// the commit pipeline), while the write set is still alive.
    fn apply(&self, tx: &Tx, cts: Timestamp) -> Result<()>;

    /// Ends the transaction on this state: discards its buffered effects
    /// (when `committed` is false) and releases every per-transaction
    /// resource (write sets, read sets, locks, stashes).  Called exactly
    /// once per participant, after the commit was published or the
    /// transaction aborted.
    fn finish(&self, tx: &Tx, committed: bool);

    /// True if this participant's commit-time validation must be serialized
    /// against committers of the groups `tx` *read* through this state (the
    /// coordinator then holds those group-commit locks across
    /// validation + apply, not just the written groups' locks).
    ///
    /// SSI returns true when `tx` recorded reads here: certifying a read of
    /// key `k` races with a concurrent commit installing a newer `k` unless
    /// both sides serialize on the same group lock.  The default is false —
    /// protocols that only validate their own write sets (MVCC) or that
    /// never validate (S2PL) need no read-side lock.
    fn validation_requires_commit_lock(&self, tx: &Tx) -> bool {
        let _ = tx;
        false
    }

    /// Undoes a *successful* [`apply`](Self::apply) whose commit will never
    /// be published (a later participant of the same transaction failed).
    /// Called while the coordinator still holds the group-commit locks.
    ///
    /// Multi-version stores unlink the versions installed at `cts` so their
    /// headers cannot spuriously trip First-Committer-Wins or SSI
    /// certification for later transactions (the failed-apply version leak).
    /// The single-version baselines update their committed image in place,
    /// so their `apply` captures the overwritten pre-images and this hook
    /// restores them exactly.  The default is a no-op (volatile states with
    /// nothing applied).  Must tolerate a partially applied (mid-loop
    /// failed) state and be idempotent.
    fn undo_apply(&self, tx: &Tx, cts: Timestamp) {
        let _ = (tx, cts);
    }

    /// True if a persistent base table is attached, i.e. this participant
    /// may contribute a [`redo_section`](Self::redo_section).  The
    /// coordinator counts persistent writers *before* serializing any
    /// section, so the single-state fast path — the common case — never
    /// pays the write-set encoding a group record would need.  The default
    /// (volatile states) is false.
    fn is_persistent(&self) -> bool {
        false
    }

    /// Encodes this participant's section of the group-wide redo record of
    /// the commit in flight into `sections`: its write set, straight from
    /// the typed ops.  Contributes nothing if the participant persists
    /// nothing for this transaction.
    ///
    /// Called by the coordinator between [`apply`](Self::apply) and
    /// [`apply_durable`](Self::apply_durable), while the write set is still
    /// alive.  The default — used by volatile states — contributes
    /// nothing.
    fn redo_section(&self, tx: &Tx, sections: &mut RedoSections) {
        let _ = (tx, sections);
    }

    /// Persists the transaction's buffered effects to the base table for the
    /// commit at `cts`.  Still called inside the commit critical section so
    /// the per-backend persistence order matches the commit order, but with
    /// an asynchronous writer attached this is only a queue push; the actual
    /// I/O happens on the writer thread and `commit_durable`/`flush` wait on
    /// the `DurableCTS` watermark.  The default is a no-op (volatile
    /// states).
    fn apply_durable(&self, tx: &Tx, cts: Timestamp) -> Result<()> {
        let _ = (tx, cts);
        Ok(())
    }

    /// Waits until the commit at `cts` is durable in this participant's
    /// base table, giving up at `deadline` (`None` waits without bound).
    /// Returns `Ok(true)` once durable, `Ok(false)` if the deadline passed
    /// first, or the persistence writer's sticky error.  With an
    /// asynchronous persistence writer attached this waits on its
    /// `DurableCTS` watermark; the default (volatile tables, synchronous
    /// persistence) returns `Ok(true)` at once — durability already
    /// happened inside [`apply_durable`](Self::apply_durable).
    fn wait_durable(&self, cts: Timestamp, deadline: Option<Instant>) -> Result<bool> {
        let _ = (cts, deadline);
        Ok(true)
    }
}

// ---------------------------------------------------------------------
// The protocol-agnostic table interface
// ---------------------------------------------------------------------

/// The protocol-agnostic transactional table interface.
///
/// The one implementation, [`crate::table::Table`], serves every
/// concurrency-control protocol — [`crate::table::MvccTable`] (snapshot
/// isolation, the paper's contribution), [`crate::table::S2plTable`] and
/// [`crate::table::BoccTable`] (the evaluation baselines) and
/// [`crate::table::SsiTable`] — mirroring the paper's observation that "all concurrency
/// control protocols use fundamentally the same consistency protocol for
/// multiple states" (§5.1).  Code written against
/// `Arc<dyn TransactionalTable<K, V>>` is therefore protocol-independent; the
/// concrete protocol is selected at runtime through
/// [`Protocol::create_table`](crate::table::Protocol::create_table).
///
/// The supertrait [`TxParticipant`] carries the commit-protocol half
/// (validate / apply / finish); `dyn TransactionalTable<K, V>`
/// upcasts to `dyn TxParticipant` for registration with the
/// [`crate::manager::TransactionManager`].
pub trait TransactionalTable<K: KeyType, V: ValueType>: TxParticipant {
    /// Reads `key` within `tx`, honouring the transaction's own uncommitted
    /// writes and the protocol's visibility rules (snapshot for MVCC, shared
    /// lock for S2PL, read-set recording for BOCC).
    fn read(&self, tx: &Tx, key: &K) -> Result<Option<V>>;

    /// Buffers an insert/update of `key` in the transaction's write set.
    fn write(&self, tx: &Tx, key: K, value: V) -> Result<()>;

    /// Buffers a delete of `key` in the transaction's write set.
    fn delete(&self, tx: &Tx, key: K) -> Result<()>;

    /// A whole-table read within `tx`: the committed image visible to the
    /// transaction overlaid with its own uncommitted writes.
    ///
    /// This is the unified replacement for the historical split between
    /// `MvccTable::scan(tx)` and the baselines' `scan_committed()`: every
    /// protocol now answers scans through the transaction, with its own
    /// consistency guarantees (a pinned snapshot for MVCC; the current
    /// committed image, validated at commit, for BOCC; the committed image
    /// without per-key locks for S2PL).
    fn scan(&self, tx: &Tx) -> Result<BTreeMap<K, V>>;

    /// Loads initial rows directly as committed data, outside any transaction
    /// (benchmark preloading, recovery restore).  Use the more convenient
    /// [`TransactionalTableExt::preload`] wherever the iterator type is known.
    fn preload_iter(&self, rows: &mut dyn Iterator<Item = (K, V)>) -> Result<()>;

    /// The table's registered state id (alias of [`TxParticipant::state_id`]).
    fn id(&self) -> StateId {
        self.state_id()
    }

    /// The table's name, as registered with its context (diagnostics).
    fn name(&self) -> &str;

    /// Upcasts the table to its commit-protocol half for registration with a
    /// transaction manager.
    fn as_participant(self: Arc<Self>) -> Arc<dyn TxParticipant>;
}

/// A shared, protocol-erased handle to a transactional table.
pub type TableHandle<K, V> = Arc<dyn TransactionalTable<K, V>>;

/// Convenience extensions over [`TransactionalTable`] (kept out of the core
/// trait so it stays object-safe).
pub trait TransactionalTableExt<K: KeyType, V: ValueType>: TransactionalTable<K, V> {
    /// Loads initial rows directly as committed data, outside any
    /// transaction.
    fn preload<I: IntoIterator<Item = (K, V)>>(&self, rows: I) -> Result<()> {
        self.preload_iter(&mut rows.into_iter())
    }
}

impl<K: KeyType, V: ValueType, T: TransactionalTable<K, V> + ?Sized> TransactionalTableExt<K, V>
    for T
{
}

// ---------------------------------------------------------------------
// Helpers of the table skeleton
// ---------------------------------------------------------------------

/// Looks up the transaction's own buffered modification of `key`
/// (read-your-own-writes).  `Some(Some(v))` is a buffered put, `Some(None)` a
/// buffered delete, `None` means the transaction has not touched the key.
///
/// For transactions that have not written to this table (every read-only
/// ad-hoc query) this costs one atomic load — no lock (see [`SlotLocal`]).
pub fn read_own_write<K: KeyType, V: ValueType>(
    write_sets: &SlotLocal<WriteSet<K, V>>,
    tx: &Tx,
    key: &K,
) -> Option<Option<V>> {
    write_sets
        .with(tx, |ws| ws.get(key).cloned())
        .flatten()
        .map(|op| match op {
            WriteOp::Put(v) => Some(v),
            WriteOp::Delete => None,
        })
}

/// Buffers one modification in the transaction's write set, bumping the
/// shared write counter (the tail end of every protocol's write path).
///
/// The first write a transaction buffers claims its slot-local cell; that
/// claim is epoch-fenced, so a transaction the reaper force-aborted gets
/// [`TspError::LeaseExpired`](tsp_common::TspError::LeaseExpired) here
/// instead of planting state in a cell the slot's next occupant will
/// inherit.
pub fn buffer_write<K: KeyType, V: ValueType>(
    ctx: &StateContext,
    write_sets: &SlotLocal<WriteSet<K, V>>,
    tx: &Tx,
    key: K,
    op: WriteOp<V>,
) -> Result<()> {
    ctx.telemetry().bump_write(tx.slot());
    write_sets.with_mut_checked(
        tx,
        || ctx.check_fate(tx),
        |ws| match op {
            WriteOp::Put(v) => ws.put(key, v),
            WriteOp::Delete => ws.delete(key),
        },
    )
}

/// The `apply_durable` body of every table: persists `tx`'s
/// write set together with the durable commit-timestamp marker — an
/// enqueue on the asynchronous [`BatchWriter`] when the commit pipeline is
/// enabled, a synchronous batch write otherwise.  The ops are encoded
/// straight from the write set into a recycled batch buffer (the writer's
/// pool, or the one synchronous persistence keeps per table).  A
/// transaction with no ops persists nothing (not even the marker).
///
/// When the coordinator attached a group redo record to `tx` (the commit
/// spans several persistent states — see [`StateContext::attach_redo`]),
/// the record rides in this participant's batch too, under [`redo_key`],
/// holding every *other* participant's section: every surviving
/// participant then holds the sections of the states that may have lost
/// their batch, which is what lets recovery roll a torn suffix forward
/// instead of min-fencing it.  The record is written straight into the
/// batch from the sections the coordinator encoded once.
///
/// The same batch deletes the records `backend` wrote earlier once they
/// are dead: every state holding a copy durably applied their commit, so no
/// recovery can need them (the rule in [`tsp_storage::redo`]).  Live
/// records per state stay bounded by the durability lag of the commits'
/// own participants instead of growing with every commit.  The records
/// are forgotten only once the batch deleting them was accepted.
pub fn persist_pending<K: KeyType, V: ValueType>(
    ctx: &StateContext,
    backend: &TypedBackend<K, V>,
    write_sets: &SlotLocal<WriteSet<K, V>>,
    tx: &Tx,
    state: StateId,
    cts: Timestamp,
) -> Result<()> {
    if !backend.is_persistent() {
        return Ok(());
    }
    let mut log = backend.log.lock();
    let Some(mut batch) = write_sets
        .with(tx, |ws| {
            (!ws.is_empty()).then(|| {
                let mut batch = backend.take_batch(&mut log);
                TypedBackend::encode_ops(&mut batch, ws.ops());
                batch
            })
        })
        .flatten()
    else {
        return Ok(());
    };
    batch.put(LAST_CTS_KEY, cts.to_be_bytes());
    let holders = ctx.with_pending_redo(tx, |redo| {
        let mut record_len = 0;
        batch.put_value_with(redo_key(cts), |out| {
            let start = out.len();
            redo.sections.encode_copy(Some(state.as_u32()), out);
            record_len = out.len() - start;
        });
        ctx.telemetry().add(Counter::RedoBytes, record_len as u64);
        Arc::clone(&redo.holders)
    });
    let dead = dead_redo(ctx, backend, state, &log.live_redo);
    for (c, _) in log.live_redo.iter().take(dead) {
        batch.delete(redo_key(*c));
    }
    backend.apply_at(batch, cts, &mut log)?;
    log.live_redo.drain(..dead);
    if let Some(holders) = holders {
        log.live_redo.push_back((cts, holders));
    }
    Ok(())
}

/// How many of the oldest `live` records are dead.  With asynchronous
/// writers a record is dead once the writer of every state holding a copy
/// has durably applied its commit ([`DurabilityHub::durable_on`]); writers
/// of other states never hold it back.  With synchronous persistence it is
/// dead at or below the published `LastCTS` of `state`'s groups, because a
/// commit is published only after every participant wrote its batch.
///
/// [`DurabilityHub::durable_on`]: crate::context::DurabilityHub::durable_on
fn dead_redo<K: KeyType, V: ValueType>(
    ctx: &StateContext,
    backend: &TypedBackend<K, V>,
    state: StateId,
    live: &VecDeque<(Timestamp, Arc<[StateId]>)>,
) -> usize {
    if live.is_empty() {
        return 0;
    }
    if backend.writer().is_some() {
        let durability = ctx.durability();
        return live
            .iter()
            .take_while(|(c, holders)| durability.durable_on(holders, *c))
            .count();
    }
    let mut published = None::<Timestamp>;
    ctx.for_each_group_of_state(state, |_, last_cts| {
        published = Some(published.map_or(last_cts, |p| p.min(last_cts)));
    });
    let published = published.unwrap_or(EPOCH_TS);
    live.iter().take_while(|(c, _)| *c <= published).count()
}

/// Assembles the group redo record for the commit at `cts` in `tx`'s slot
/// so every participant's [`persist_pending`] folds a copy into its own
/// durable batch (riding the batch's existing WAL record and fsync — no
/// extra sync).  `writers` are the participants that buffered writes; each
/// section is encoded once here, and each copy holds the sections of the
/// other participants.
///
/// Single-participant commits skip the record: one batch is already
/// failure-atomic through the backend's WAL, so there is no suffix to tear.
/// Only when **two or more** persistent participants contribute sections is
/// the record needed — it is what lets [`crate::recovery::restore_group`]
/// roll a torn suffix forward to the group's maximum logged commit instead
/// of fencing visibility to the minimum.
pub fn attach_group_redo<'a>(
    ctx: &StateContext,
    tx: &Tx,
    cts: Timestamp,
    writers: impl Iterator<Item = &'a Arc<dyn TxParticipant>> + Clone,
) {
    // Count persistent writers before serializing: a single-state commit
    // (the overwhelmingly common case) is already batch-atomic, needs no
    // record, and must not pay the per-op write-set encoding just to find
    // that out.
    if writers.clone().filter(|p| p.is_persistent()).count() < 2 {
        return;
    }
    ctx.attach_redo(tx, |redo| {
        redo.sections.reset(cts);
        for p in writers {
            p.redo_section(tx, &mut redo.sections);
        }
        if redo.sections.len() < 2 {
            return false;
        }
        redo.share_holders();
        true
    });
}

/// The `redo_section` body of every persistent table:
/// encodes `tx`'s write set as `state`'s section of the group redo record,
/// straight from the typed ops.  Volatile tables and empty write sets
/// contribute nothing.
pub fn redo_section<K: KeyType, V: ValueType>(
    backend: &TypedBackend<K, V>,
    write_sets: &SlotLocal<WriteSet<K, V>>,
    tx: &Tx,
    state: StateId,
    sections: &mut RedoSections,
) {
    if !backend.is_persistent() {
        return;
    }
    write_sets.with(tx, |ws| {
        if ws.is_empty() {
            return;
        }
        sections.push(state.as_u32(), |w| {
            for (k, op) in ws.ops() {
                match op {
                    WriteOp::Put(v) => w.put_with(k, v),
                    WriteOp::Delete => w.delete_with(k),
                }
            }
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_common::TspError;
    use tsp_storage::BTreeBackend;

    #[test]
    fn write_set_last_write_wins() {
        let mut ws: WriteSet<u32, String> = WriteSet::new();
        assert!(ws.is_empty());
        ws.put(1, "a".into());
        ws.put(2, "b".into());
        ws.put(1, "c".into());
        ws.delete(2);
        assert_eq!(ws.key_count(), 2);
        assert_eq!(ws.get(&1), Some(&WriteOp::Put("c".into())));
        assert_eq!(ws.get(&2), Some(&WriteOp::Delete));
        assert_eq!(ws.get(&3), None);
        assert_eq!(
            ws.ops(),
            &[(1, WriteOp::Put("c".into())), (2, WriteOp::Delete)]
        );
        assert_eq!(ws.keys().copied().collect::<Vec<_>>(), vec![1, 2]);
    }

    /// put → delete → put on one key leaves one op, at the key's first-write
    /// position, and read-your-own-writes sees the last write.
    #[test]
    fn rewrites_of_one_key_keep_one_op_in_first_write_order() {
        let ctx = StateContext::new();
        let sets: SlotLocal<WriteSet<u32, String>> = SlotLocal::for_context(&ctx);
        let tx = ctx.begin(false).unwrap();
        sets.with_mut(&tx, |ws| {
            ws.put(5, "first".into());
            ws.put(9, "other".into());
            ws.delete(5);
        });
        assert_eq!(read_own_write(&sets, &tx, &5), Some(None));
        sets.with_mut(&tx, |ws| ws.put(5, "last".into()));
        assert_eq!(read_own_write(&sets, &tx, &5), Some(Some("last".into())));
        assert_eq!(read_own_write(&sets, &tx, &7), None);
        let ops = sets.with(&tx, |ws| ws.ops().to_vec()).unwrap();
        assert_eq!(
            ops,
            vec![
                (5, WriteOp::Put("last".into())),
                (9, WriteOp::Put("other".into()))
            ]
        );
        ctx.finish(&tx);
    }

    #[test]
    fn tx_write_sets_lifecycle() {
        let ctx = StateContext::new();
        let sets: SlotLocal<WriteSet<u32, u64>> = SlotLocal::for_context(&ctx);
        let t1 = ctx.begin(false).unwrap();
        let t2 = ctx.begin(false).unwrap();
        assert!(!sets.has_writes(&t1));
        sets.with_mut(&t1, |ws| ws.put(1, 100));
        sets.with_mut(&t2, |ws| ws.put(2, 200));
        assert!(sets.has_writes(&t1));
        assert_eq!(sets.claimed_count(), 2);
        assert_eq!(sets.with(&t1, |ws| ws.key_count()), Some(1));
        let taken = sets.take(&t1).unwrap();
        assert_eq!(taken.key_count(), 1);
        assert!(!sets.has_writes(&t1));
        sets.clear(&t2);
        assert_eq!(sets.claimed_count(), 0);
        ctx.finish(&t1);
        ctx.finish(&t2);
    }

    #[test]
    fn slot_local_survives_slot_reuse() {
        // A new transaction reusing the slot of a finished one must not see
        // the predecessor's data, even if the predecessor skipped cleanup.
        let ctx = StateContext::with_capacity(1);
        let sets: SlotLocal<WriteSet<u32, u64>> = SlotLocal::for_context(&ctx);
        let t1 = ctx.begin(false).unwrap();
        sets.with_mut(&t1, |ws| ws.put(7, 70));
        ctx.finish(&t1); // no take/clear: stale leftover in the cell
        let t2 = ctx.begin(false).unwrap();
        assert_eq!(t1.slot(), t2.slot(), "slot reused");
        assert!(!sets.has_writes(&t2), "stale owner tag rejected");
        sets.with_mut(&t2, |ws| ws.put(8, 80));
        assert_eq!(
            sets.with(&t2, |ws| ws.get(&7).cloned()),
            Some(None),
            "first use reset the leftover write set"
        );
        // The finished transaction's handle no longer reaches the cell.
        assert!(sets.with(&t1, |ws| ws.key_count()).is_none());
        ctx.finish(&t2);
    }

    #[test]
    fn checked_claim_runs_the_check_only_on_first_use() {
        let ctx = StateContext::new();
        let sets: SlotLocal<WriteSet<u32, u64>> = SlotLocal::for_context(&ctx);
        let tx = ctx.begin(false).unwrap();
        // A failing check blocks the claim and leaves the cell unclaimed.
        let err = sets
            .with_mut_checked(&tx, || Err(TspError::LeaseExpired { txn: 1 }), |_| ())
            .unwrap_err();
        assert!(matches!(err, TspError::LeaseExpired { .. }));
        assert!(!sets.has_writes(&tx));
        assert_eq!(sets.claimed_count(), 0);
        // A passing check claims the cell …
        sets.with_mut_checked(&tx, || Ok(()), |ws| ws.put(1, 10))
            .unwrap();
        assert!(sets.has_writes(&tx));
        // … and repeat touches skip the check entirely.
        sets.with_mut_checked(
            &tx,
            || panic!("check must not run for an already-claimed cell"),
            |ws| ws.put(2, 20),
        )
        .unwrap();
        assert_eq!(sets.with(&tx, |ws| ws.key_count()), Some(2));
        ctx.finish(&tx);
    }

    /// True if a recycled collection of `capacity` fits the rule after a
    /// use of `used` entries: at most twice the need, or below the floor.
    fn capped(capacity: usize, used: usize) -> bool {
        capacity <= 2 * used || capacity < KEEP_ENTRIES
    }

    /// Runs one transaction on `ctx` that writes keys `0..n` to `sets` and
    /// finishes it; returns its slot.
    fn write_keys(ctx: &StateContext, sets: &SlotLocal<WriteSet<u32, u64>>, n: u32) -> usize {
        let tx = ctx.begin(false).unwrap();
        sets.with_mut(&tx, |ws| (0..n).for_each(|k| ws.put(k, u64::from(k))));
        sets.clear(&tx);
        ctx.finish(&tx);
        tx.slot()
    }

    #[test]
    fn a_slot_keeps_its_write_set_buffers_but_not_a_large_one() {
        let ctx = StateContext::with_capacity(1);
        let sets: SlotLocal<WriteSet<u32, u64>> = SlotLocal::for_context(&ctx);
        let slot = write_keys(&ctx, &sets, 100);
        let warm = sets.cell_data(slot).capacity();
        assert!(warm.0 >= 100 && warm.1 >= 100);
        write_keys(&ctx, &sets, 100);
        assert_eq!(sets.cell_data(slot).capacity(), warm, "reused");

        write_keys(&ctx, &sets, 100_000);
        write_keys(&ctx, &sets, 10);
        let (ops, index) = sets.cell_data(slot).capacity();
        assert!(capped(ops, 10), "op list kept {ops} entries");
        assert!(capped(index, 10), "index kept {index} entries");
    }

    #[test]
    fn a_slot_does_not_keep_a_large_read_set() {
        let ctx = StateContext::with_capacity(1);
        let reads: SlotLocal<ReadSet<u32>> = SlotLocal::for_context(&ctx);
        let mut slot = 0;
        for n in [100_000, 10] {
            let tx = ctx.begin(false).unwrap();
            reads.with_mut(&tx, |rs| {
                rs.keys.extend(0..n);
                rs.whole_table = true;
            });
            reads.clear(&tx);
            ctx.finish(&tx);
            slot = tx.slot();
        }
        let cell = reads.cell_data(slot);
        assert!(cell.is_empty());
        assert!(capped(cell.keys.capacity(), 10), "{}", cell.keys.capacity());
    }

    /// A participant holding nothing but a write set.
    struct Buffered {
        state: StateId,
        sets: SlotLocal<WriteSet<u32, u64>>,
    }

    impl TxParticipant for Buffered {
        fn state_id(&self) -> StateId {
            self.state
        }
        fn has_writes(&self, tx: &Tx) -> bool {
            self.sets.has_writes(tx)
        }
        fn validate(&self, _tx: &Tx, _txn_has_writes: bool) -> Result<()> {
            Ok(())
        }
        fn apply(&self, _tx: &Tx, _cts: Timestamp) -> Result<()> {
            Ok(())
        }
        fn finish(&self, tx: &Tx, _committed: bool) {
            self.sets.clear(tx);
        }
    }

    /// The reaper empties a zombie's cell through the same recycling path
    /// as `finish`, under the cell mutex: the cell is released and empty,
    /// the zombie's late write cannot claim it, and the slot's next
    /// transaction starts clean and caps what the zombie grew.
    #[test]
    fn a_reaped_zombie_leaves_a_clean_cell() {
        let ctx = Arc::new(StateContext::with_capacity(1));
        ctx.set_transaction_lease(Some(std::time::Duration::from_millis(1)));
        let mgr = crate::manager::TransactionManager::new(Arc::clone(&ctx));
        let table = Arc::new(Buffered {
            state: ctx.register_state("buffered"),
            sets: SlotLocal::for_context(&ctx),
        });
        mgr.register(table.clone());
        let write = |tx: &Tx, k: u32| {
            ctx.record_access(tx, table.state)?;
            buffer_write(&ctx, &table.sets, tx, k, WriteOp::Put(u64::from(k)))
        };
        let zombie = mgr.begin().unwrap();
        for k in 0..100_000 {
            write(&zombie, k).unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(mgr.reap_expired(), 1);
        assert_eq!(table.sets.claimed_count(), 0, "cell released");
        assert_eq!(table.sets.cell_data(zombie.slot()).key_count(), 0);
        assert!(write(&zombie, 1).is_err(), "the zombie's late write fails");
        assert_eq!(table.sets.claimed_count(), 0, "and claims nothing");

        let next = mgr.begin().unwrap();
        assert_eq!(next.slot(), zombie.slot());
        assert!(!table.sets.has_writes(&next));
        for k in 0..10 {
            write(&next, k).unwrap();
        }
        assert_eq!(table.sets.with(&next, |ws| ws.key_count()), Some(10));
        mgr.commit(&next).unwrap();
        let (ops, index) = table.sets.cell_data(next.slot()).capacity();
        assert!(capped(ops, 10) && capped(index, 10), "{ops} / {index}");
    }

    #[test]
    fn typed_backend_volatile_is_a_noop() {
        let tb: TypedBackend<u32, u64> = TypedBackend::volatile();
        assert!(!tb.is_persistent());
        assert_eq!(tb.get(&1).unwrap(), None);
        tb.put_direct(&1, &5).unwrap();
        assert_eq!(tb.get(&1).unwrap(), None);
        tb.apply(&[(1, WriteOp::Put(5))]).unwrap();
        let mut visited = 0;
        tb.scan(&mut |_, _| {
            visited += 1;
            true
        })
        .unwrap();
        assert_eq!(visited, 0);
    }

    #[test]
    fn typed_backend_round_trips_through_storage() {
        let backend = Arc::new(BTreeBackend::new());
        let tb: TypedBackend<u32, String> = TypedBackend::persistent(backend.clone());
        assert!(tb.is_persistent());
        tb.put_direct(&7, &"seven".to_string()).unwrap();
        assert_eq!(tb.get(&7).unwrap(), Some("seven".to_string()));
        tb.apply(&[(8, WriteOp::Put("eight".into())), (7, WriteOp::Delete)])
            .unwrap();
        backend.put(LAST_CTS_KEY, &42u64.encode()).unwrap();
        assert_eq!(tb.get(&7).unwrap(), None);
        assert_eq!(tb.get(&8).unwrap(), Some("eight".to_string()));
        // Metadata keys are visible at the byte level …
        assert_eq!(backend.get(LAST_CTS_KEY).unwrap(), Some(42u64.encode()));
        // … but skipped by the typed scan.
        let mut seen = Vec::new();
        tb.scan(&mut |k, v| {
            seen.push((k, v));
            true
        })
        .unwrap();
        assert_eq!(seen, vec![(8, "eight".to_string())]);
    }

    #[test]
    fn typed_backend_empty_apply_is_noop() {
        let backend = Arc::new(BTreeBackend::new());
        let tb: TypedBackend<u32, u64> = TypedBackend::persistent(backend.clone());
        tb.apply(&[]).unwrap();
        assert_eq!(backend.len(), 0);
    }
}
