//! Key-space partitioned contexts: horizontal scale-out behind the
//! protocol-agnostic table interface.
//!
//! Latch-free reads and per-group commit locks removed the single-context
//! hotspots; what remains shared is the [`StateContext`] itself — one
//! clock, one slot bitmap, one GC floor, one set of persistence queues.
//! This module removes that wall by sharding
//! the *key space* across N independent contexts:
//!
//! * [`PartitionedContext`] owns N inner [`StateContext`]s.  Each inner
//!   context has its own logical clock, active-transaction slot bitmap,
//!   `OldestActiveVersion` GC floor and per-backend persistence
//!   ([`BatchWriter`](tsp_storage::BatchWriter)) queues — nothing is
//!   shared between partitions on the data path.
//! * [`PartitionedTable`] is the partition router: it implements
//!   [`TransactionalTable<K, V>`], so harnesses, the YCSB driver, stream
//!   operators, benches and examples drive it exactly like an
//!   unpartitioned table.  Every key routes through a [`Partitioner`] to
//!   one shard table living on that partition's inner context.
//!
//! # How transactions span contexts
//!
//! Callers still begin/commit through one outer [`TransactionManager`]
//! over the *router context*.  The router context holds one **anchor
//! state** and one singleton **anchor group** per partition; the first
//! touch of partition *p* records an access on anchor *p* and lazily
//! begins a *sub-transaction* on *p*'s inner context (stored in
//! slot-local storage keyed by the outer transaction).  At commit, the
//! outer manager's existing machinery does all coordination:
//!
//! * a **single-partition** transaction has exactly one write group — the
//!   anchor group of its partition — so it takes *that partition's lock
//!   only*.  The per-partition anchor locks are therefore per-partition
//!   commit pipelines: committers of different partitions never contend,
//!   and a preempted committer only stalls its own partition.
//! * a **cross-partition** transaction writes several anchor groups, so
//!   the same commit path acquires every involved partition's commit lock
//!   in ascending group order, validates all partitions (phase 1), then
//!   applies and publishes each partition (phase 2) — a two-phase
//!   cross-partition commit over the group commit locks.  All-or-nothing
//!   validation holds: no partition applies until every partition
//!   validated.
//!
//! The `PartitionShard` participant registered for each anchor state
//! translates the outer commit protocol onto the inner context: inner
//! validation runs in `validate`, the inner commit timestamp is drawn
//! and versions installed in `apply`, persistence happens in
//! `apply_durable`, and the inner `LastCTS` publish — the store that
//! makes the partition's half visible — happens in `publish_commit`,
//! which the manager only reaches after **every** partition's durable
//! hand-off succeeded (so a late partition's I/O failure can still undo
//! all partitions' never-published versions without racing readers) —
//! all inside the outer anchor lock(s), which serialize every committer
//! of that partition.  Inner group-commit locks are never taken; the
//! anchor lock *is* the partition's commit lock.  The shard owns no phase
//! loop of its own: it runs the inner apply, durable hand-off, publish and
//! finish through the manager's phase helpers, the same ones the outer
//! commit uses.
//!
//! # The consistent-snapshot rule (what NMSI relaxes)
//!
//! Each partition is a complete snapshot-isolation domain of its own:
//! within one partition, reads are served from one pinned snapshot
//! (`ReadCTS` of the shard's inner group) and First-Committer-Wins /
//! BOCC / SSI certification run unchanged.  *Across* partitions the
//! router follows Non-Monotonic Snapshot Isolation (NMSI, see PAPERS.md):
//! a transaction pins each partition's snapshot independently, at its
//! first access of that partition.  There is no global clock, so there is
//! no global total order of snapshots — two partitions' pins may
//! "straddle" a concurrent cross-partition commit, and a reader may
//! observe partition *p*'s half of a cross-partition transaction but not
//! (yet) partition *q*'s.  What *is* guaranteed across partitions:
//!
//! * **atomic commitment** — a cross-partition transaction validates on
//!   every partition under all involved commit locks before any
//!   partition applies; it either commits everywhere or nowhere;
//! * **per-partition SI** — every individual read is from a consistent
//!   partition snapshot; lost updates are impossible on any partition
//!   (FCW validates under the partition's commit lock);
//! * **protocol-pinned boundaries** — SSI certifies cross-partition read
//!   sets under the read-partitions' anchor locks
//!   ([`TxParticipant::validation_requires_commit_lock`] forwards from
//!   the inner tables), so cross-partition write skew is still rejected
//!   under SSI; plain MVCC/SI admits it, exactly as it does within one
//!   context.  The conformance tests in `tests/partitioned.rs` pin this
//!   boundary.
//!
//! What NMSI gives up relative to one shared context is *snapshot
//! monotonicity*: there is no single timestamp at which a cross-partition
//! read set is guaranteed simultaneous.  Deployments that need a
//! globally consistent point-in-time view should route all involved keys
//! to one partition (range-partition by the correlated dimension) or run
//! on a single context.
//!
//! # Choosing partition counts
//!
//! Partitions scale the *commit pipelines* and the *persistence queues*.
//! A partition per storage device (or per expected committer thread, when
//! volatile) is the sweet spot; more partitions than concurrent
//! committers only add routing cost, and transactions that straddle
//! partitions pay the multi-lock path.  Routing is cheapest when the
//! workload is partitionable — each transaction's keys confined to one
//! partition, as in per-area smart-meter updates or per-shard YCSB
//! multi-gets.

use crate::clock::EPOCH_TS;
use crate::context::{StateContext, Tx};
use crate::manager::{apply_all, finish_all, hand_off_durable, publish_all, TransactionManager};
use crate::recovery::{recover_table_cts, replay_torn_suffix};
use crate::table::common::{
    KeyType, Recycle, SlotLocal, TableHandle, TransactionalTable, TxParticipant, ValueType,
};
use crate::table::factory::Protocol;
use crate::telemetry::{Counter, Telemetry, TelemetrySnapshot, WriterScan};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tsp_common::{GroupId, Result, StateId, Timestamp, TspError};
use tsp_storage::StorageBackend;

// ---------------------------------------------------------------------
// Partitioners
// ---------------------------------------------------------------------

/// Maps keys to partitions.  Implementations must be pure: the same key
/// must always map to the same partition for a given partition count.
///
/// **On-disk stability.**  With persistent per-partition backends the
/// assignment is baked into which backend holds which key, so it must
/// also be stable across *process restarts, toolchain upgrades and
/// platforms* — recovery routes each key back to the partition whose
/// backend persisted it, and a drifted assignment silently makes
/// recovered data unreachable (reads route to the wrong, empty
/// partition) or misrouted (new writes land beside stale twins).  Do
/// not build partitioners on hashes whose algorithm is unspecified
/// (e.g. `DefaultHasher`, documented as free to change between Rust
/// releases); [`HashPartitioner`] uses a pinned FNV-1a for this reason.
pub trait Partitioner<K: ?Sized>: Send + Sync {
    /// The partition (`0..partitions`) owning `key`.
    fn partition_of(&self, key: &K, partitions: usize) -> usize;
}

/// 64-bit FNV-1a over the key's `Hash::hash` byte stream — a fixed,
/// explicitly versioned algorithm (offset basis `0xcbf29ce484222325`,
/// prime `0x100000001b3`), vendored so partition assignment can never
/// drift with the standard library's hasher.  Stability caveat: the
/// hashed byte stream is whatever the key's `Hash` impl feeds in, so
/// persistent deployments should stick to keys whose `Hash` is
/// layout-stable (integers, strings, byte arrays — the std impls write
/// their value bytes and are stable in practice).
struct Fnv1aHasher(u64);

impl Fnv1aHasher {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1aHasher(Self::OFFSET_BASIS)
    }
}

impl Hasher for Fnv1aHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    // The default integer methods hash native-endian (and, for usize,
    // native-width) bytes; pin little-endian 64-bit forms so the
    // assignment is identical on every platform.
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// Hash partitioner (the default): a pinned 64-bit FNV-1a of the key,
/// reduced modulo the partition count.  The algorithm is vendored (not
/// `DefaultHasher`, whose internals may change between Rust releases)
/// so the key→partition assignment is stable across processes,
/// toolchains and platforms — with persistent per-partition backends
/// the assignment is on-disk state (see [`Partitioner`]).  Spreads any
/// key type uniformly; use [`RangePartitioner`] when transactions touch
/// contiguous key runs that should stay on one partition.
#[derive(Clone, Copy, Debug, Default)]
pub struct HashPartitioner;

impl<K: Hash + ?Sized> Partitioner<K> for HashPartitioner {
    fn partition_of(&self, key: &K, partitions: usize) -> usize {
        let mut h = Fnv1aHasher::new();
        key.hash(&mut h);
        (h.finish() % partitions.max(1) as u64) as usize
    }
}

/// Range partitioner: `bounds` holds the partition split points in
/// ascending order (`bounds.len() == partitions - 1`); keys below
/// `bounds[0]` go to partition 0, keys in `[bounds[i-1], bounds[i])` to
/// partition `i`, and so on.  Keeps contiguous key runs — a smart meter's
/// area, a tenant's id range — on one partition so their transactions
/// stay single-partition.
#[derive(Clone, Debug)]
pub struct RangePartitioner<K> {
    bounds: Vec<K>,
}

impl<K: Ord> RangePartitioner<K> {
    /// Creates a range partitioner from ascending split points.
    pub fn new(mut bounds: Vec<K>) -> Self {
        bounds.sort();
        RangePartitioner { bounds }
    }
}

impl<K: Ord + Send + Sync> Partitioner<K> for RangePartitioner<K> {
    fn partition_of(&self, key: &K, partitions: usize) -> usize {
        self.bounds
            .partition_point(|b| b <= key)
            .min(partitions.saturating_sub(1))
    }
}

// ---------------------------------------------------------------------
// PartitionedContext
// ---------------------------------------------------------------------

/// One partition's sub-transaction state, stored per *outer* transaction
/// slot.
#[derive(Default)]
struct SubTxn {
    /// The inner-context transaction, begun on first access.
    tx: Option<Tx>,
    /// The inner commit timestamp drawn by `apply`, consumed by
    /// `apply_durable` / `undo_apply`.
    pending_cts: Option<Timestamp>,
}

impl Recycle for SubTxn {}

/// A shard table registered on one partition: the inner participant plus
/// the inner groups its commits publish.
struct InnerEntry {
    participant: Arc<dyn TxParticipant>,
    groups: Vec<GroupId>,
}

/// The inner participants a sub-transaction accessed, each paired with
/// the inner groups its commits publish.
type AccessedInner = Vec<(Arc<dyn TxParticipant>, Vec<GroupId>)>;

/// What [`PartitionedContext::restore_partition`] found and repaired for
/// one partition — the per-partition analogue of
/// [`crate::recovery::RecoveryReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionRecovery {
    /// The recovered partition.
    pub partition: usize,
    /// The partition's restored visibility horizon: the maximum stored
    /// commit timestamp across its persistent shards, with any torn
    /// suffix rolled forward from the redo log first.
    pub last_cts: Timestamp,
    /// Per-shard stored commit timestamps **as found on disk**, before
    /// any replay, in table-creation order ([`None`] if a shard never
    /// persisted a transaction).
    pub per_state: Vec<Option<Timestamp>>,
    /// True if a crash tore a multi-state commit inside this partition
    /// and the lagging shards were repaired from the redo log.
    pub torn_group_commit: bool,
    /// Number of commits whose missing per-shard batches were replayed.
    pub replayed_commits: u64,
}

/// Everything one partition owns.
struct PartitionCore {
    /// The partition's independent context: own clock, slot bitmap, GC
    /// floor, durability hub.
    ctx: Arc<StateContext>,
    /// The anchor state registered in the *router* context; recording an
    /// access on it routes the outer commit protocol to this partition.
    anchor: StateId,
    /// Sub-transactions keyed by the outer transaction's slot.
    subs: SlotLocal<SubTxn>,
    /// Inner participants, keyed by their inner state id.
    inner: RwLock<BTreeMap<StateId, InnerEntry>>,
}

impl PartitionCore {
    /// The live sub-transaction of `outer`, if this partition was touched.
    fn sub(&self, outer: &Tx) -> Option<Tx> {
        self.subs.with(outer, |s| s.tx.clone()).flatten()
    }

    /// The inner participants `sub` accessed, in state-id order, paired
    /// with their inner groups.
    ///
    /// Errors (the sub-transaction is no longer live on the inner context)
    /// are propagated, never mapped to "no participants": a swallowed
    /// error here would skip inner validation and version installation
    /// while the outer commit still reports success, silently dropping the
    /// sub-transaction's writes.
    fn accessed(&self, sub: &Tx) -> Result<AccessedInner> {
        let states = self.ctx.accessed_states(sub)?;
        let registry = self.inner.read();
        let mut out = Vec::with_capacity(states.len());
        let mut ids: Vec<StateId> = states.into_iter().map(|(s, _)| s).collect();
        ids.sort();
        for id in ids {
            if let Some(e) = registry.get(&id) {
                out.push((Arc::clone(&e.participant), e.groups.clone()));
            }
        }
        Ok(out)
    }

    /// True if any inner participant of `outer`'s sub-transaction satisfies
    /// `pred`.  A sub-transaction whose accesses cannot be enumerated
    /// answers `true`: that keeps the outer commit on the write path, where
    /// validation surfaces the error and aborts — answering `false` could
    /// send it down the read-only path and silently drop its writes.
    fn any_accessed(&self, outer: &Tx, pred: impl Fn(&dyn TxParticipant, &Tx) -> bool) -> bool {
        let Some(sub) = self.sub(outer) else {
            return false;
        };
        match self.accessed(&sub) {
            Ok(accessed) => accessed.iter().any(|(p, _)| pred(p.as_ref(), &sub)),
            Err(_) => {
                debug_assert!(false, "accessed_states failed for a live sub-transaction");
                true
            }
        }
    }

    /// The inner participants `sub` wrote, paired with their inner groups.
    fn writers(&self, sub: &Tx) -> Result<AccessedInner> {
        let mut writers = self.accessed(sub)?;
        writers.retain(|(p, _)| p.has_writes(sub));
        Ok(writers)
    }

    /// The sub-transaction of `outer` with the inner commit timestamp its
    /// `apply` drew and its inner writers — `None` unless this partition
    /// has a commit in flight.
    fn in_flight(&self, outer: &Tx) -> Result<Option<(Tx, Timestamp, AccessedInner)>> {
        let Some((sub, cts)) = self
            .subs
            .with(outer, |s| s.tx.clone().zip(s.pending_cts))
            .flatten()
        else {
            return Ok(None);
        };
        let writers = self.writers(&sub)?;
        Ok(Some((sub, cts, writers)))
    }
}

/// N independent [`StateContext`]s behind one router context — the
/// horizontal scale-out unit.  See the module docs for the architecture.
///
/// ```
/// use std::sync::Arc;
/// use tsp_core::prelude::*;
/// use tsp_core::partition::PartitionedContext;
///
/// let pc = PartitionedContext::new(4);
/// let mgr = TransactionManager::new(Arc::clone(pc.router_ctx()));
/// pc.attach(&mgr).unwrap();
/// let table = pc.create_table::<u64, u64>(Protocol::Mvcc, "kv", |_p| None);
///
/// let tx = mgr.begin().unwrap();
/// table.write(&tx, 7, 700).unwrap();   // routed to 7's partition
/// mgr.commit(&tx).unwrap();
///
/// let q = mgr.begin_read_only().unwrap();
/// assert_eq!(table.read(&q, &7).unwrap(), Some(700));
/// mgr.commit(&q).unwrap();
/// ```
pub struct PartitionedContext {
    router: Arc<StateContext>,
    parts: Vec<PartitionCore>,
    attached: AtomicBool,
}

impl PartitionedContext {
    /// Creates `partitions` inner contexts (and the router context) with
    /// the default active-transaction capacity.
    pub fn new(partitions: usize) -> Arc<Self> {
        Self::with_capacity(partitions, crate::context::MAX_ACTIVE_TXNS)
    }

    /// Creates `partitions` inner contexts sized for `capacity` concurrent
    /// transactions each.  Every outer transaction holds at most one slot
    /// per inner context, so equal capacities guarantee sub-transaction
    /// begin can never exhaust an inner slot table.
    pub fn with_capacity(partitions: usize, capacity: usize) -> Arc<Self> {
        let partitions = partitions.max(1);
        let router = Arc::new(StateContext::with_capacity(capacity));
        let parts = (0..partitions)
            .map(|p| {
                let ctx = Arc::new(StateContext::with_capacity(capacity));
                let anchor = router.register_state(format!("__partition/{p}"));
                PartitionCore {
                    ctx,
                    anchor,
                    subs: SlotLocal::new(capacity),
                    inner: RwLock::new(BTreeMap::new()),
                }
            })
            .collect();
        Arc::new(PartitionedContext {
            router,
            parts,
            attached: AtomicBool::new(false),
        })
    }

    /// The router context — pass it to [`TransactionManager::new`]; the
    /// resulting manager begins and commits all partitioned transactions.
    pub fn router_ctx(&self) -> &Arc<StateContext> {
        &self.router
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Partition `p`'s inner context (diagnostics, GC drivers, stats).
    /// Do **not** run transactions on it directly: partition commit
    /// ordering is only guaranteed through the router.
    pub fn partition_ctx(&self, p: usize) -> &Arc<StateContext> {
        &self.parts[p].ctx
    }

    /// Registers the per-partition commit machinery with `mgr`: one
    /// anchor participant and one anchor group (= one commit lock) per
    /// partition.  Must be called once, before
    /// the first partitioned transaction commits; `mgr` must drive the
    /// router context.
    pub fn attach(self: &Arc<Self>, mgr: &TransactionManager) -> Result<()> {
        if !Arc::ptr_eq(mgr.context(), &self.router) {
            return Err(TspError::protocol(
                "attach: manager does not drive this router context",
            ));
        }
        if self.attached.swap(true, Ordering::AcqRel) {
            return Err(TspError::protocol("attach: already attached"));
        }
        for (p, core) in self.parts.iter().enumerate() {
            mgr.register(Arc::new(PartitionShard {
                pc: Arc::clone(self),
                p,
            }));
            mgr.register_group(&[core.anchor])?;
        }
        Ok(())
    }

    /// Enables the asynchronous persistence pipeline on every partition
    /// (see [`StateContext::enable_async_persistence`]).
    pub fn enable_async_persistence(&self) {
        for core in &self.parts {
            core.ctx.enable_async_persistence();
        }
    }

    /// Configures the transaction lease on the router *and* every inner
    /// context (see [`StateContext::set_transaction_lease`]).
    ///
    /// Only the router's lease drives reaping — the outer manager's reaper
    /// force-aborts an expired outer transaction and the `PartitionShard`
    /// `finish` cascade ends its sub-transactions on every partition,
    /// so inner slots can never outlive the outer lease.  The inner
    /// contexts still get the lease configured so their
    /// `oldest_active_age_nanos` gauges (and hence
    /// [`Self::telemetry_rollup`]) report per-partition transaction age.
    pub fn set_transaction_lease(&self, lease: Option<std::time::Duration>) {
        self.router.set_transaction_lease(lease);
        for core in &self.parts {
            core.ctx.set_transaction_lease(lease);
        }
    }

    /// Force-aborts every expired outer transaction through the attached
    /// manager's reaper (the hook [`TransactionManager::new`] installs on
    /// the router context).  Each reaped outer transaction's rollback
    /// cascades through its `PartitionShard`s, finishing the inner
    /// sub-transactions and releasing every partition's slot — so one
    /// sweep here unwedges GC floors on all partitions at once.  Returns
    /// the number of outer transactions reaped; 0 before `attach` or when
    /// no manager was created over the router context.
    pub fn reap_expired(&self) -> usize {
        self.router.try_reap()
    }

    /// Blocks until every partition's persistence backlog is durable — the
    /// partitioned analogue of [`TransactionManager::flush`], which only
    /// reaches the router context (the router itself persists nothing).
    pub fn flush(&self) -> Result<()> {
        for core in &self.parts {
            core.ctx.durability().flush()?;
        }
        Ok(())
    }

    /// Sweeps every partition's persistence writers and attempts to recover
    /// any stuck in the sticky-failed state — the partitioned analogue of
    /// [`TransactionManager::try_recover_writers`].  Returns the total
    /// number of writers healed.
    pub fn try_recover_writers(&self) -> Result<usize> {
        let mut recovered = 0;
        for core in &self.parts {
            recovered += core.ctx.durability().try_recover_writers()?;
        }
        Ok(recovered)
    }

    /// Recovers partition `p` after a restart: rolls any torn multi-state
    /// commit *inside* the partition forward from the per-partition redo
    /// log ([`crate::recovery::replay_torn_suffix`]), restores each
    /// persistent shard's inner-group `LastCTS` to its (repaired) stored
    /// marker, and advances the partition's internal clock past every
    /// persisted timestamp.
    ///
    /// Call after every partitioned table has been re-created on this
    /// context (re-creation re-registers the shard states in the same
    /// order).  `backends` are the partition's persistent shard backends
    /// in **table-creation order** — one per table whose `backend_for(p)`
    /// returned `Some`, the same instances handed to
    /// [`create_table`](Self::create_table).
    ///
    /// A commit that straddles *partitions* is coordinated by the outer
    /// two-phase protocol before any partition persists, so per-partition
    /// recovery composes: each partition independently restores its exact
    /// committed prefix.
    pub fn restore_partition(
        &self,
        p: usize,
        backends: &[&dyn StorageBackend],
    ) -> Result<PartitionRecovery> {
        let core = self
            .parts
            .get(p)
            .ok_or_else(|| TspError::config(format!("restore_partition: no partition {p}")))?;
        let inner = core.inner.read();
        // BTreeMap order == inner state-id order == table-creation order.
        let persistent: Vec<(StateId, &InnerEntry)> = inner
            .iter()
            .filter(|(_, e)| e.participant.is_persistent())
            .map(|(s, e)| (*s, e))
            .collect();
        if persistent.len() != backends.len() {
            return Err(TspError::config(format!(
                "restore_partition: partition {p} has {} persistent shards but {} backends were passed",
                persistent.len(),
                backends.len()
            )));
        }
        let states: Vec<StateId> = persistent.iter().map(|(s, _)| *s).collect();
        let (per_state, replayed_commits) = replay_torn_suffix(&states, backends)?;
        let mut last_cts = EPOCH_TS;
        for ((_, entry), b) in persistent.iter().zip(backends) {
            // Re-read after replay: a repaired shard's marker has advanced.
            let cts = recover_table_cts(*b)?.unwrap_or(EPOCH_TS);
            last_cts = last_cts.max(cts);
            for g in &entry.groups {
                core.ctx.restore_group_cts(*g, cts)?;
            }
        }
        core.ctx.clock().advance_past(last_cts);
        core.ctx
            .telemetry()
            .add(Counter::RedoReplays, replayed_commits);
        Ok(PartitionRecovery {
            partition: p,
            last_cts,
            per_state,
            torn_group_commit: replayed_commits > 0,
            replayed_commits,
        })
    }

    /// Per-partition telemetry snapshots (index = partition).  Each inner
    /// context counts its own begins/commits/reads/writes/GC, so skew
    /// across partitions is directly observable.
    pub fn partition_telemetry(&self) -> Vec<TelemetrySnapshot> {
        self.parts
            .iter()
            .map(|c| c.ctx.telemetry_snapshot())
            .collect()
    }

    /// One deployment-wide [`TelemetrySnapshot`] rolling up the router and
    /// every partition: one [`Telemetry::merge`] and one writer scan per
    /// context.  Counters sum, stage and persistence histograms merge
    /// bucket-wise, the GC floor-lag and oldest-age gauges take the maximum
    /// (the laggiest partition bounds reclaimable garbage everywhere it
    /// matters).
    pub fn telemetry_rollup(&self) -> TelemetrySnapshot {
        let merged = Telemetry::new();
        let mut writers = WriterScan::default();
        for ctx in std::iter::once(&self.router).chain(self.parts.iter().map(|c| &c.ctx)) {
            ctx.refresh_oldest_active_age();
            merged.merge(ctx.telemetry());
            ctx.durability().scan_writers(&mut writers);
        }
        merged.snapshot(&writers)
    }

    /// Creates a partitioned table routed by [`HashPartitioner`].
    /// `backend_for(p)` supplies partition `p`'s storage backend (return
    /// `None` for volatile partitions) — per-partition backends are what
    /// make persistence queues scale.
    pub fn create_table<K: KeyType, V: ValueType>(
        self: &Arc<Self>,
        protocol: Protocol,
        name: impl Into<String>,
        backend_for: impl FnMut(usize) -> Option<Arc<dyn StorageBackend>>,
    ) -> Arc<PartitionedTable<K, V>> {
        self.create_table_with(protocol, name, backend_for, Arc::new(HashPartitioner))
    }

    /// [`create_table`](Self::create_table) with an explicit
    /// [`Partitioner`].
    pub fn create_table_with<K: KeyType, V: ValueType>(
        self: &Arc<Self>,
        protocol: Protocol,
        name: impl Into<String>,
        mut backend_for: impl FnMut(usize) -> Option<Arc<dyn StorageBackend>>,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> Arc<PartitionedTable<K, V>> {
        let name = name.into();
        let mut shards: Vec<TableHandle<K, V>> = Vec::with_capacity(self.parts.len());
        let mut persistent = false;
        for (p, core) in self.parts.iter().enumerate() {
            let backend = backend_for(p);
            persistent |= backend.is_some();
            let shard = protocol.create_table::<K, V>(&core.ctx, format!("{name}.p{p}"), backend);
            let groups = vec![core
                .ctx
                .register_group(&[shard.id()])
                .expect("freshly registered shard state")];
            core.inner.write().insert(
                shard.id(),
                InnerEntry {
                    participant: Arc::clone(&shard).as_participant(),
                    groups,
                },
            );
            shards.push(shard);
        }
        let facade_id = self.router.register_state(&name);
        Arc::new(PartitionedTable {
            pc: Arc::clone(self),
            shards,
            partitioner,
            facade_id,
            name,
            persistent,
        })
    }

    /// Lazily begins (or returns) `outer`'s sub-transaction on partition
    /// `p`, recording the anchor access that routes the commit protocol
    /// here.
    fn ensure_sub(&self, outer: &Tx, p: usize) -> Result<Tx> {
        let core = &self.parts[p];
        // Fast path: the sub-transaction already exists (owner-tagged
        // probe + transaction-private slot mutex).
        if let Some(sub) = core.sub(outer) {
            return Ok(sub);
        }
        if !self.attached.load(Ordering::Acquire) {
            return Err(TspError::protocol(
                "partitioned table used before PartitionedContext::attach",
            ));
        }
        // Verify the outer transaction is still live before creating inner
        // state for it, then begin the sub inside the slot mutex so two
        // operator threads driving the same transaction cannot double-begin.
        let created = core.subs.with_mut(outer, |s| -> Result<(Tx, bool)> {
            if let Some(ref sub) = s.tx {
                return Ok((sub.clone(), false));
            }
            let sub = core.ctx.begin(outer.is_read_only())?;
            s.tx = Some(sub.clone());
            Ok((sub, true))
        });
        let (sub, fresh) = created?;
        if fresh {
            // Route the outer commit protocol to this partition.  On
            // failure (the outer transaction already finished) the inner
            // transaction must not leak its slot.
            if let Err(e) = self.router.record_access(outer, core.anchor) {
                core.ctx.finish(&sub);
                core.subs.clear(outer);
                return Err(e);
            }
        }
        Ok(sub)
    }
}

// ---------------------------------------------------------------------
// The per-partition commit participant
// ---------------------------------------------------------------------

/// The anchor participant of one partition: translates the outer commit
/// protocol (validate → apply → durable hand-off → publish → finish, under
/// the anchor group's commit lock) onto the partition's inner context and
/// shard tables, running the inner phases through the manager's own phase
/// helpers.
struct PartitionShard {
    pc: Arc<PartitionedContext>,
    p: usize,
}

impl PartitionShard {
    fn core(&self) -> &PartitionCore {
        &self.pc.parts[self.p]
    }
}

/// The participants of `accessed`, for the manager's phase helpers.
fn participants(accessed: &AccessedInner) -> impl Iterator<Item = &Arc<dyn TxParticipant>> + Clone {
    accessed.iter().map(|(p, _)| p)
}

impl TxParticipant for PartitionShard {
    fn state_id(&self) -> StateId {
        self.core().anchor
    }

    fn has_writes(&self, tx: &Tx) -> bool {
        self.core().any_accessed(tx, |p, sub| p.has_writes(sub))
    }

    /// Phase 1 of the partition commit: inner concurrency-control
    /// validation, under the outer anchor lock(s) that serialize every
    /// committer of this partition.  Inner group locks are never taken —
    /// the anchor lock provides the mutual exclusion inner validation
    /// normally gets from its own group lock.
    fn validate(&self, tx: &Tx, txn_has_writes: bool) -> Result<()> {
        let core = self.core();
        let Some(sub) = core.sub(tx) else {
            return Ok(());
        };
        core.accessed(&sub)?
            .iter()
            .try_for_each(|(p, _)| p.validate(&sub, txn_has_writes))
    }

    /// Phase 2: draw the partition's own commit timestamp and install the
    /// sub-transaction's versions in memory.
    fn apply(&self, tx: &Tx, _outer_cts: Timestamp) -> Result<()> {
        let core = self.core();
        let Some(sub) = core.sub(tx) else {
            return Ok(());
        };
        let writers = core.writers(&sub)?;
        let cts = core.ctx.clock().next_commit_ts();
        core.subs.with_mut(tx, |s| s.pending_cts = Some(cts));
        // The shard drives the inner pipeline itself (no inner
        // `TransactionManager`), so it also records the inner context's
        // stage timing — this is what makes per-partition telemetry
        // partition-resolved instead of router-only.
        let t_apply = Instant::now();
        let applied = apply_all(&sub, cts, participants(&writers));
        core.ctx.telemetry().apply_nanos().record(t_apply.elapsed());
        if applied.is_err() {
            core.subs.with_mut(tx, |s| s.pending_cts = None);
        }
        applied
    }

    /// Ends the sub-transaction on every inner participant and releases its
    /// inner slot.
    fn finish(&self, tx: &Tx, committed: bool) {
        let core = self.core();
        if let Some(SubTxn { tx: Some(sub), .. }) = core.subs.take(tx) {
            let accessed = core.accessed(&sub).unwrap_or_else(|_| {
                debug_assert!(false, "accessed_states failed for a live sub-transaction");
                Vec::new()
            });
            finish_all(&core.ctx, &sub, accessed.iter().map(|(p, _)| p), committed);
        }
    }

    /// Forwarded from the inner tables: SSI read-set certification on
    /// this partition requires the anchor lock even when the transaction
    /// only read here — the outer manager then holds this partition's
    /// commit lock across cross-partition certification.
    fn validation_requires_commit_lock(&self, tx: &Tx) -> bool {
        self.core()
            .any_accessed(tx, |p, sub| p.validation_requires_commit_lock(sub))
    }

    fn undo_apply(&self, tx: &Tx, _outer_cts: Timestamp) {
        let core = self.core();
        let in_flight = core.in_flight(tx);
        // Undo cannot propagate; a live sub-transaction (its inner commit
        // timestamp is still set) must always enumerate.
        debug_assert!(
            in_flight.is_ok(),
            "accessed_states failed for a live sub-transaction"
        );
        if let Ok(Some((sub, cts, writers))) = in_flight {
            for (p, _) in &writers {
                p.undo_apply(&sub, cts);
            }
            core.subs.with_mut(tx, |s| s.pending_cts = None);
        }
    }

    /// Phase 3: persist through the partition's own durability hub.  Still
    /// under the anchor lock, so the per-partition persistence order
    /// matches the commit order.  The partition drives its own inner
    /// commit, so the shared hand-off also assembles the inner group's redo
    /// record (the outer manager only sees this shard as one opaque
    /// participant): a crash tearing a multi-state commit *inside* the
    /// partition is rolled forward by the partition's own recovery.
    ///
    /// Deliberately does **not** publish the inner `LastCTS`: in a
    /// cross-partition commit a *later* partition's durable failure must
    /// still be able to undo this partition's apply, and undo is only safe
    /// while the versions were never visible.  The publish happens in
    /// [`publish_commit`](Self::publish_commit), which the outer manager
    /// calls only after every partition's durable hand-off succeeded.
    fn apply_durable(&self, tx: &Tx, _outer_cts: Timestamp) -> Result<()> {
        let core = self.core();
        let Some((sub, cts, writers)) = core.in_flight(tx)? else {
            return Ok(()); // no writes on this partition
        };
        let t_durable = Instant::now();
        let handed_off = hand_off_durable(&core.ctx, &sub, cts, participants(&writers));
        core.ctx
            .telemetry()
            .durable_handoff_nanos()
            .record(t_durable.elapsed());
        if handed_off.is_err() {
            core.subs.with_mut(tx, |s| s.pending_cts = None);
        }
        handed_off
    }

    /// Phase 4: publish the inner `LastCTS` — the store that makes this
    /// partition's half of the transaction visible.  Runs after *every*
    /// partition's `apply_durable` succeeded (the commit is decided), so
    /// the versions published here can never be undone; still under the
    /// anchor lock(s), so the per-partition publish order matches the
    /// commit order.
    fn publish_commit(&self, tx: &Tx, _outer_cts: Timestamp) {
        let core = self.core();
        let Some((sub, cts, writers)) = core
            .in_flight(tx)
            .expect("sub-transaction is live through commit")
        else {
            return; // no writes on this partition
        };
        publish_all(&sub, cts, participants(&writers));
        for g in writers.iter().flat_map(|(_, groups)| groups) {
            // Inner groups were registered at table creation; the publish
            // cannot fail, and the decided commit must not unwind here.
            core.ctx
                .publish_group_commit(*g, cts)
                .expect("registered inner group publishes");
        }
    }

    /// Durability of this partition is confirmed through its own hub; the
    /// outer commit timestamp carries no meaning in inner time, so wait
    /// for the partition's whole backlog — the bound
    /// [`PartitionedContext::flush`] gives — until `deadline`.
    fn wait_durable(&self, _cts: Timestamp, deadline: Option<Instant>) -> Result<bool> {
        let hub = self.core().ctx.durability();
        match deadline {
            None => hub.flush().map(|()| true),
            Some(d) => hub
                .wait_durable_timeout(Timestamp::MAX, d.saturating_duration_since(Instant::now())),
        }
    }
}

// ---------------------------------------------------------------------
// The partition-router table
// ---------------------------------------------------------------------

/// The partition router: a [`TransactionalTable`] whose keys are sharded
/// across the partitions of a [`PartitionedContext`].  Single-partition
/// transactions coordinate only on their partition; see the module docs
/// for the cross-partition rules.
pub struct PartitionedTable<K, V> {
    pc: Arc<PartitionedContext>,
    shards: Vec<TableHandle<K, V>>,
    partitioner: Arc<dyn Partitioner<K>>,
    facade_id: StateId,
    name: String,
    persistent: bool,
}

impl<K: KeyType, V: ValueType> PartitionedTable<K, V> {
    /// The partition owning `key`.
    pub fn partition_of(&self, key: &K) -> usize {
        self.partitioner
            .partition_of(key, self.shards.len())
            .min(self.shards.len() - 1)
    }

    /// Partition `p`'s shard table (diagnostics; e.g. per-shard GC or
    /// version counts).
    pub fn shard(&self, p: usize) -> &TableHandle<K, V> {
        &self.shards[p]
    }

    fn with_sub<R>(
        &self,
        tx: &Tx,
        key: &K,
        f: impl FnOnce(&TableHandle<K, V>, &Tx) -> R,
    ) -> Result<R> {
        let p = self.partition_of(key);
        let sub = self.pc.ensure_sub(tx, p)?;
        Ok(f(&self.shards[p], &sub))
    }
}

impl<K: KeyType, V: ValueType> TxParticipant for PartitionedTable<K, V> {
    // The facade's own state is never recorded as accessed — all commit
    // traffic routes through the per-partition anchor participants — so
    // the manager never invokes these.  They behave sensibly anyway for
    // direct callers.
    fn state_id(&self) -> StateId {
        self.facade_id
    }

    fn has_writes(&self, tx: &Tx) -> bool {
        self.pc.parts.iter().enumerate().any(|(p, core)| {
            core.sub(tx)
                .map(|sub| self.shards[p].has_writes(&sub))
                .unwrap_or(false)
        })
    }

    fn validate(&self, _tx: &Tx, _txn_has_writes: bool) -> Result<()> {
        Ok(())
    }

    fn apply(&self, _tx: &Tx, _cts: Timestamp) -> Result<()> {
        Ok(())
    }

    fn finish(&self, _tx: &Tx, _committed: bool) {}

    fn is_persistent(&self) -> bool {
        self.persistent
    }
}

impl<K: KeyType, V: ValueType> TransactionalTable<K, V> for PartitionedTable<K, V> {
    fn read(&self, tx: &Tx, key: &K) -> Result<Option<V>> {
        self.with_sub(tx, key, |shard, sub| shard.read(sub, key))?
    }

    fn write(&self, tx: &Tx, key: K, value: V) -> Result<()> {
        let p = self.partition_of(&key);
        let sub = self.pc.ensure_sub(tx, p)?;
        self.shards[p].write(&sub, key, value)
    }

    fn delete(&self, tx: &Tx, key: K) -> Result<()> {
        let p = self.partition_of(&key);
        let sub = self.pc.ensure_sub(tx, p)?;
        self.shards[p].delete(&sub, key)
    }

    /// A whole-table scan touches every partition, making the transaction
    /// cross-partition.  Each partition contributes a consistent snapshot
    /// of its shard; the union follows the NMSI rule (per-partition
    /// snapshots pinned at first access — see the module docs).
    fn scan(&self, tx: &Tx) -> Result<BTreeMap<K, V>> {
        let mut out = BTreeMap::new();
        for p in 0..self.shards.len() {
            let sub = self.pc.ensure_sub(tx, p)?;
            out.append(&mut self.shards[p].scan(&sub)?);
        }
        Ok(out)
    }

    fn preload_iter(&self, rows: &mut dyn Iterator<Item = (K, V)>) -> Result<()> {
        let mut buckets: Vec<Vec<(K, V)>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (k, v) in rows {
            buckets[self.partition_of(&k)].push((k, v));
        }
        for (p, bucket) in buckets.into_iter().enumerate() {
            if !bucket.is_empty() {
                self.shards[p].preload_iter(&mut bucket.into_iter())?;
            }
        }
        Ok(())
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
    use crate::table::common::TransactionalTableExt;

    fn setup(
        partitions: usize,
        protocol: Protocol,
    ) -> (
        Arc<PartitionedContext>,
        Arc<TransactionManager>,
        Arc<PartitionedTable<u64, u64>>,
    ) {
        let pc = PartitionedContext::new(partitions);
        let mgr = TransactionManager::new(Arc::clone(pc.router_ctx()));
        pc.attach(&mgr).unwrap();
        let table = pc.create_table::<u64, u64>(protocol, "kv", |_| None);
        (pc, mgr, table)
    }

    #[test]
    fn basic_read_write_roundtrip_all_protocols() {
        for protocol in Protocol::ALL {
            let (_pc, mgr, table) = setup(4, protocol);
            let tx = mgr.begin().unwrap();
            for k in 0..32u64 {
                table.write(&tx, k, k * 10).unwrap();
            }
            assert!(mgr.commit(&tx).unwrap().is_some());
            let q = mgr.begin_read_only().unwrap();
            for k in 0..32u64 {
                assert_eq!(table.read(&q, &k).unwrap(), Some(k * 10), "{protocol}");
            }
            mgr.commit(&q).unwrap();
        }
    }

    #[test]
    fn single_partition_txn_touches_one_partition() {
        let pc = PartitionedContext::new(4);
        let mgr = TransactionManager::new(Arc::clone(pc.router_ctx()));
        pc.attach(&mgr).unwrap();
        let table = pc.create_table_with::<u64, u64>(
            Protocol::Mvcc,
            "kv",
            |_| None,
            Arc::new(RangePartitioner::new(vec![100, 200, 300])),
        );
        let tx = mgr.begin().unwrap();
        table.write(&tx, 150, 1).unwrap(); // partition 1
        table.write(&tx, 199, 2).unwrap(); // partition 1
                                           // Only partition 1 carries an active sub-transaction.
        let active: Vec<usize> = (0..4).map(|p| pc.partition_ctx(p).active_count()).collect();
        assert_eq!(active, vec![0, 1, 0, 0]);
        mgr.commit(&tx).unwrap();
        for p in 0..4 {
            assert_eq!(pc.partition_ctx(p).active_count(), 0, "slot leak on p{p}");
        }
    }

    #[test]
    fn cross_partition_commit_is_all_or_nothing_on_conflict() {
        let (_pc, mgr, table) = setup(2, Protocol::Mvcc);
        let table = table as Arc<PartitionedTable<u64, u64>>;
        // Find keys on different partitions.
        let (a, b) = distinct_partition_keys(&table);
        let t1 = mgr.begin().unwrap();
        let t2 = mgr.begin().unwrap();
        table.write(&t1, a, 1).unwrap();
        table.write(&t1, b, 1).unwrap();
        table.write(&t2, a, 2).unwrap(); // conflicts with t1 on a's partition
        table.write(&t2, b, 2).unwrap();
        mgr.commit(&t1).unwrap();
        let err = mgr.commit(&t2).unwrap_err();
        assert!(err.is_retryable());
        // Nothing of t2 survived on either partition.
        let q = mgr.begin_read_only().unwrap();
        assert_eq!(table.read(&q, &a).unwrap(), Some(1));
        assert_eq!(table.read(&q, &b).unwrap(), Some(1));
        mgr.commit(&q).unwrap();
    }

    #[test]
    fn scan_unions_partitions_and_own_writes() {
        let (_pc, mgr, table) = setup(3, Protocol::Mvcc);
        table.preload((0..30u64).map(|k| (k, k))).unwrap();
        let tx = mgr.begin().unwrap();
        table.write(&tx, 100, 100).unwrap();
        table.delete(&tx, 3).unwrap();
        let snap = table.scan(&tx).unwrap();
        assert_eq!(snap.len(), 30); // 30 preloaded - 1 deleted + 1 written
        assert_eq!(snap.get(&100), Some(&100));
        assert!(!snap.contains_key(&3));
        mgr.abort(&tx).unwrap();
    }

    /// A storage backend whose `write_batch` always fails — simulates a
    /// dead device on one partition.
    struct FailingBackend;

    impl StorageBackend for FailingBackend {
        fn get(&self, _key: &[u8]) -> Result<Option<Vec<u8>>> {
            Ok(None)
        }
        fn put(&self, _key: &[u8], _value: &[u8]) -> Result<()> {
            Err(TspError::Io(std::io::Error::other("device failed")))
        }
        fn delete(&self, _key: &[u8]) -> Result<()> {
            Err(TspError::Io(std::io::Error::other("device failed")))
        }
        fn write_batch(&self, _batch: &tsp_storage::WriteBatch) -> Result<()> {
            Err(TspError::Io(std::io::Error::other("device failed")))
        }
        fn scan(&self, _visit: &mut dyn FnMut(&[u8], &[u8]) -> bool) -> Result<()> {
            Ok(())
        }
        fn len(&self) -> usize {
            0
        }
        fn sync(&self) -> Result<()> {
            Ok(())
        }
        fn name(&self) -> &'static str {
            "failing"
        }
    }

    /// Pins the ordering fix for the cross-partition durable-failure hole:
    /// partition 0 (applied and persisted first) must **not** publish its
    /// inner `LastCTS` before partition 1's durable hand-off runs.  With a
    /// failing backend on partition 1, the commit must abort with nothing
    /// visible on *either* partition — previously partition 0 published in
    /// `apply_durable`, so its half was visible (and then undone under
    /// readers' feet) when partition 1 failed.
    #[test]
    fn cross_partition_durable_failure_publishes_nothing() {
        let pc = PartitionedContext::new(2);
        let mgr = TransactionManager::new(Arc::clone(pc.router_ctx()));
        pc.attach(&mgr).unwrap();
        let table = pc.create_table::<u64, u64>(Protocol::Mvcc, "kv", |p| {
            (p == 1).then(|| Arc::new(FailingBackend) as Arc<dyn StorageBackend>)
        });
        // a on the healthy partition 0, b on the failing partition 1.
        let a = (0..10_000u64).find(|k| table.partition_of(k) == 0).unwrap();
        let b = (0..10_000u64).find(|k| table.partition_of(k) == 1).unwrap();
        let tx = mgr.begin().unwrap();
        table.write(&tx, a, 1).unwrap();
        table.write(&tx, b, 2).unwrap();
        assert!(mgr.commit(&tx).is_err());
        // Nothing became visible anywhere — commits everywhere or nowhere.
        let q = mgr.begin_read_only().unwrap();
        assert_eq!(table.read(&q, &a).unwrap(), None);
        assert_eq!(table.read(&q, &b).unwrap(), None);
        mgr.commit(&q).unwrap();
        // The healthy partition is fully functional afterwards.
        let tx = mgr.begin().unwrap();
        table.write(&tx, a, 3).unwrap();
        mgr.commit(&tx).unwrap();
        let q = mgr.begin_read_only().unwrap();
        assert_eq!(table.read(&q, &a).unwrap(), Some(3));
        mgr.commit(&q).unwrap();
    }

    /// The vendored FNV-1a must match the published reference vectors —
    /// partition assignment is on-disk state, so the algorithm may never
    /// drift.
    #[test]
    fn fnv1a_matches_reference_vectors() {
        fn fnv(bytes: &[u8]) -> u64 {
            let mut h = Fnv1aHasher::new();
            h.write(bytes);
            h.finish()
        }
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn partitioner_routes_stably() {
        let hp = HashPartitioner;
        for k in 0u64..1000 {
            let p1 = hp.partition_of(&k, 8);
            let p2 = hp.partition_of(&k, 8);
            assert_eq!(p1, p2);
            assert!(p1 < 8);
        }
        let rp = RangePartitioner::new(vec![10u64, 20]);
        assert_eq!(rp.partition_of(&5, 3), 0);
        assert_eq!(rp.partition_of(&10, 3), 1);
        assert_eq!(rp.partition_of(&25, 3), 2);
    }

    #[test]
    fn use_before_attach_is_rejected() {
        let pc = PartitionedContext::new(2);
        let mgr = TransactionManager::new(Arc::clone(pc.router_ctx()));
        let table = pc.create_table::<u64, u64>(Protocol::Mvcc, "kv", |_| None);
        let tx = mgr.begin().unwrap();
        assert!(table.write(&tx, 1, 1).is_err());
        mgr.abort(&tx).unwrap();
    }

    #[test]
    fn per_partition_stats_observe_traffic() {
        let (pc, mgr, table) = setup(2, Protocol::Mvcc);
        let (a, _b) = distinct_partition_keys(&table);
        for _ in 0..5 {
            let tx = mgr.begin().unwrap();
            table.write(&tx, a, 1).unwrap();
            mgr.commit(&tx).unwrap();
        }
        let per_part = pc.partition_telemetry();
        let pa = table.partition_of(&a);
        assert_eq!(per_part[pa].stats.committed, 5);
        assert_eq!(per_part[1 - pa].stats.committed, 0);
    }

    #[test]
    fn telemetry_rollup_merges_partition_histograms_and_sums_counters() {
        let (pc, mgr, table) = setup(2, Protocol::Mvcc);
        let (a, b) = distinct_partition_keys(&table);
        for i in 0..4 {
            let tx = mgr.begin().unwrap();
            table.write(&tx, a, i).unwrap();
            mgr.commit(&tx).unwrap();
        }
        let tx = mgr.begin().unwrap();
        table.write(&tx, b, 9).unwrap();
        mgr.commit(&tx).unwrap();

        // Per-partition snapshots see only their own commits …
        let per_part = pc.partition_telemetry();
        let pa = table.partition_of(&a);
        assert_eq!(per_part[pa].stats.committed, 4);
        assert_eq!(per_part[1 - pa].stats.committed, 1);
        assert!(per_part[pa].apply_nanos.count >= 4);

        // … and the roll-up merges both plus the router: counters sum,
        // histogram counts accumulate across partitions.
        let rollup = pc.telemetry_rollup();
        assert_eq!(
            rollup.stats.committed,
            per_part[0].stats.committed
                + per_part[1].stats.committed
                + pc.router_ctx().telemetry_snapshot().stats.committed
        );
        assert_eq!(
            rollup.apply_nanos.count,
            per_part[0].apply_nanos.count
                + per_part[1].apply_nanos.count
                + pc.router_ctx().telemetry_snapshot().apply_nanos.count
        );
        assert!(rollup.apply_nanos.count >= 5);
        assert_eq!(rollup.failed_writers, 0);
    }

    /// A reaped cross-partition zombie releases its slot on the router
    /// *and* on every inner context (the rollback cascade finishes the
    /// sub-transactions), and its writes never become visible anywhere.
    #[test]
    fn reaping_an_outer_transaction_frees_every_partition() {
        let (pc, mgr, table) = setup(2, Protocol::Mvcc);
        pc.set_transaction_lease(Some(std::time::Duration::from_millis(1)));
        let (a, b) = distinct_partition_keys(&table);
        let zombie = mgr.begin().unwrap();
        table.write(&zombie, a, 1).unwrap();
        table.write(&zombie, b, 2).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(pc.reap_expired(), 1);
        assert_eq!(pc.router_ctx().active_count(), 0);
        for p in 0..2 {
            assert_eq!(
                pc.partition_ctx(p).active_count(),
                0,
                "inner slot leak on p{p}"
            );
        }
        // The zombie's late commit is fenced off, and nothing it wrote is
        // visible on either partition.
        assert!(matches!(
            mgr.commit(&zombie),
            Err(TspError::LeaseExpired { .. })
        ));
        let q = mgr.begin_read_only().unwrap();
        assert_eq!(table.read(&q, &a).unwrap(), None);
        assert_eq!(table.read(&q, &b).unwrap(), None);
        mgr.commit(&q).unwrap();
    }

    /// Two keys guaranteed to live on different partitions of a 2-way
    /// hash-partitioned table.
    fn distinct_partition_keys(table: &PartitionedTable<u64, u64>) -> (u64, u64) {
        let a = 0u64;
        let pa = table.partition_of(&a);
        for b in 1u64..10_000 {
            if table.partition_of(&b) != pa {
                return (a, b);
            }
        }
        panic!("hash partitioner never split 10k keys");
    }
}
