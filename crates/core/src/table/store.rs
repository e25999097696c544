//! The two committed-data stores a [`Table`](crate::table::Table) can
//! sit on: the multi-version store of MVCC and SSI ([`Versions`]) and the
//! single-version store of S2PL and BOCC ([`InPlaceStore`]).

use crate::clock::EPOCH_TS;
use crate::context::{StateContext, Tx};
use crate::mvcc::MvccObject;
use crate::table::common::{KeyType, SlotLocal, TypedBackend, ValueType, WriteOp};
use crate::table::mvcc_table::{ConflictCheck, MvccTableOptions};
use crate::table::objmap::ObjMap;
use crate::table::skeleton::Store;
use crate::telemetry::Counter;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use tsp_common::{fx_shard, FxHashMap, Result, StateId, Timestamp, NO_TS};

/// The multi-version store: a lock-free, insert-only key → [`MvccObject`]
/// index (`objmap.rs`) that stores each object inline in its chain node.
/// Uncommitted writes stay in the write sets; a commit installs versions
/// that become visible once the group's `LastCTS` is published.
pub struct Versions<K, V> {
    pub(super) objects: ObjMap<K, MvccObject<V>>,
    pub(super) conflict_check: ConflictCheck,
}

impl<K: KeyType, V: ValueType> Versions<K, V> {
    pub(super) fn object(&self, key: &K) -> Option<&MvccObject<V>> {
        self.objects.get(key)
    }

    fn object_or_create(&self, key: &K) -> &MvccObject<V> {
        self.objects.get_or_insert_with(key, MvccObject::new)
    }
}

impl<K: KeyType, V: ValueType> Store<K, V> for Versions<K, V> {
    fn new(_ctx: &StateContext, opts: &MvccTableOptions) -> Self {
        Versions {
            objects: ObjMap::new(opts.index_buckets),
            conflict_check: opts.conflict_check,
        }
    }

    fn access(ctx: &StateContext, tx: &Tx, state: StateId) -> Result<Timestamp> {
        ctx.access_snapshot(tx, state)
    }

    /// The version visible at snapshot `at`, latch-free.  A key with no
    /// in-memory version has at most a committed value that predates every
    /// running transaction (preloaded or recovered base-table data).
    fn get(&self, at: Timestamp, key: &K, backend: &TypedBackend<K, V>) -> Result<Option<V>> {
        match self.object(key) {
            Some(obj) if !obj.is_empty() => Ok(obj.read_visible(at)),
            _ => backend.get(key),
        }
    }

    fn overlay(&self, at: Timestamp, out: &mut BTreeMap<K, V>) {
        self.objects.for_each(|k, obj| {
            if obj.is_empty() {
                return;
            }
            match obj.read_visible(at) {
                Some(v) => out.insert(k.clone(), v),
                None => out.remove(k),
            };
        });
    }

    fn preload(&self, key: K, value: V) {
        self.object_or_create(&key).install(value, EPOCH_TS, 0);
    }

    /// Installs the ops' versions at `cts`, by reference from the write set.
    fn apply(
        &self,
        ctx: &StateContext,
        backend: &TypedBackend<K, V>,
        _tx: &Tx,
        ops: &[(K, WriteOp<V>)],
        cts: Timestamp,
    ) -> Result<()> {
        let oldest = ctx.oldest_active();
        for (key, op) in ops {
            let existing = self.object(key);
            let needs_promotion = existing.is_none_or(|o| o.is_empty());
            let obj = existing.unwrap_or_else(|| self.object_or_create(key));
            // Promote a base-table row (committed before any in-memory
            // version existed) so that older snapshots keep seeing it.
            if needs_promotion && backend.is_persistent() {
                if let Some(old) = backend.get(key)? {
                    if obj.is_empty() {
                        obj.install(old, EPOCH_TS, 0);
                    }
                }
            }
            match op {
                WriteOp::Put(v) => {
                    let reclaimed =
                        obj.install_with(v.clone(), cts, oldest, || ctx.oldest_active_fresh());
                    if reclaimed > 0 {
                        ctx.telemetry().bump(Counter::GcRuns);
                        ctx.telemetry().add(Counter::GcReclaimed, reclaimed as u64);
                    }
                }
                WriteOp::Delete => {
                    obj.mark_deleted(cts);
                }
            }
        }
        Ok(())
    }

    /// Unlinks the versions installed at `cts` (and revives the versions
    /// they superseded): the commit was never published, and leaving the
    /// headers in place would spuriously trip First-Committer-Wins / SSI
    /// certification for later transactions (the failed-apply version leak).
    fn undo(&self, _tx: &Tx, ops: &[(K, WriteOp<V>)], cts: Timestamp) {
        for (key, _) in ops {
            if let Some(obj) = self.object(key) {
                obj.undo_commit(cts);
            }
        }
    }
}

/// Shards of an [`InPlaceStore`]'s committed map.
const IN_PLACE_SHARDS: usize = 64;

/// A committed-map entry's pre-image: `None` = the key had no entry,
/// `Some(None)` = a tombstone, `Some(Some(v))` = a committed override.
type PreImage<V> = Option<Option<V>>;

/// One shard of an [`InPlaceStore`]'s committed map (`None` = deleted).
type CommittedShard<K, V> = RwLock<FxHashMap<K, Option<V>>>;

/// The single-version store: a sharded committed map overriding the base
/// table, updated in place at commit.
///
/// Updating in place means a commit that is torn after this store applied
/// (a later participant failed) must restore exactly what it overwrote, so
/// [`apply`](Store::apply) captures the pre-image of every entry it
/// replaces; [`undo`](Store::undo) restores them.  Recovery only rolls
/// forward, so the pre-images stay in memory and the group redo record
/// carries the ops alone.
pub struct InPlaceStore<K, V> {
    /// Committed values overriding the base table.
    committed: Box<[CommittedShard<K, V>]>,
    /// Pre-images of the committed-map entries `apply` overwrote, one per
    /// op of the write set, in its order.
    undo_images: SlotLocal<Vec<PreImage<V>>>,
}

impl<K: KeyType, V: ValueType> InPlaceStore<K, V> {
    fn shard(&self, key: &K) -> &CommittedShard<K, V> {
        &self.committed[fx_shard(key, IN_PLACE_SHARDS)]
    }
}

impl<K: KeyType, V: ValueType> Store<K, V> for InPlaceStore<K, V> {
    fn new(ctx: &StateContext, _opts: &MvccTableOptions) -> Self {
        InPlaceStore {
            committed: (0..IN_PLACE_SHARDS)
                .map(|_| RwLock::new(FxHashMap::default()))
                .collect(),
            undo_images: SlotLocal::for_context(ctx),
        }
    }

    fn access(ctx: &StateContext, tx: &Tx, state: StateId) -> Result<Timestamp> {
        ctx.record_access(tx, state).map(|()| NO_TS)
    }

    /// The latest committed value: the in-memory override, else the base
    /// table.
    fn get(&self, _at: Timestamp, key: &K, backend: &TypedBackend<K, V>) -> Result<Option<V>> {
        if let Some(entry) = self.shard(key).read().get(key) {
            return Ok(entry.clone());
        }
        backend.get(key)
    }

    fn overlay(&self, _at: Timestamp, out: &mut BTreeMap<K, V>) {
        for shard in self.committed.iter() {
            for (k, v) in shard.read().iter() {
                match v {
                    Some(v) => out.insert(k.clone(), v.clone()),
                    None => out.remove(k),
                };
            }
        }
    }

    fn preload(&self, key: K, value: V) {
        self.shard(&key).write().insert(key, Some(value));
    }

    /// Writes the ops into the committed map, capturing each overwritten
    /// pre-image for [`undo`](Store::undo) as it goes (a panic mid-way
    /// leaves the pre-images of what was already written).
    fn apply(
        &self,
        _ctx: &StateContext,
        _backend: &TypedBackend<K, V>,
        tx: &Tx,
        ops: &[(K, WriteOp<V>)],
        _cts: Timestamp,
    ) -> Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        self.undo_images.with_mut(tx, |undo| {
            undo.clear();
            for (key, op) in ops {
                let value = match op {
                    WriteOp::Put(v) => Some(v.clone()),
                    WriteOp::Delete => None,
                };
                undo.push(self.shard(key).write().insert(key.clone(), value));
            }
        });
        Ok(())
    }

    /// Restores the committed-map entries `apply` overwrote.  Each key
    /// appears once in the write set, so the order does not matter.
    /// Releasing the stash makes the call idempotent.
    fn undo(&self, tx: &Tx, ops: &[(K, WriteOp<V>)], _cts: Timestamp) {
        self.undo_images.release_with(tx, |undo| {
            for ((key, _), prev) in ops.iter().zip(undo.drain(..)) {
                let mut shard = self.shard(key).write();
                match prev {
                    Some(entry) => shard.insert(key.clone(), entry),
                    None => shard.remove(key),
                };
            }
        });
    }

    fn finish(&self, tx: &Tx) {
        self.undo_images.clear(tx);
    }
}
