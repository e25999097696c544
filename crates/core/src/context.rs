//! The global state context (§4.1, Fig. 3) with a latch-free read fast path.
//!
//! The context is the shared runtime metadata of the transaction layer:
//!
//! * **States** — every registered transactional state (queryable table) with
//!   its name and optional physical location,
//! * **Topologies/Groups** — which states are written together atomically by
//!   one continuous query (`GroupID → List<StateID>, LastCTS`),
//! * **Active transactions** — a fixed array of cache-line-padded transaction
//!   slots whose occupancy is managed by a CAS-updated bitmap (the paper's
//!   bit vector, one 64-bit word per 64 slots); each slot tracks the accessed
//!   states with their status (`Active` / `Commit` / `Abort`) and the pinned
//!   `ReadCTS` per group,
//! * the **global atomic clock** issuing all timestamps, and
//! * `OldestActiveVersion` — the oldest snapshot any in-flight transaction
//!   may still read, used by on-demand garbage collection.
//!
//! # Hot-path design
//!
//! The table layer calls [`StateContext::access_snapshot`] (record the
//! access + resolve the pinned snapshot) on **every read**, so that call
//! must not serialise on anything shared:
//!
//! * Each transaction slot (`TxSlot`) carries a small per-state snapshot
//!   cache: one `SnapshotCacheEntry` per state id below
//!   `SNAPSHOT_CACHE_STATES`, holding an *access tag*, a *pin tag* and the
//!   pinned timestamp.  A tag is the id of the transaction that wrote it.
//!   Once a transaction has touched a state, every further access of that
//!   state is three loads — no mutex, no registry `RwLock` — however the
//!   transaction interleaves its states, and even when several operator
//!   threads share one `Tx`.  The cache is sound because a pinned snapshot
//!   for a state never changes within a transaction (pins are created once
//!   per group and never updated), and because transaction ids are never
//!   reused: a tag equal to `tx.id` was written by this very transaction,
//!   so `begin` needs no reset.  State ids past the array take the slow
//!   path (owner and fate checks, group lookup, the slot's detail mutex).
//! * [`record_access`](StateContext::record_access) hits on the access tag
//!   alone; `access_snapshot` sets both tags.
//! * Slot claiming ([`begin`](StateContext::begin)) starts scanning at a
//!   rotor-advanced bit so concurrent claimants do not all CAS word 0.
//! * [`oldest_active`](StateContext::oldest_active) is cached behind a
//!   generation counter bumped on begin/finish/pin; on-demand GC therefore
//!   only rescans the slot array when the active-transaction population
//!   actually changed.  [`oldest_active_fresh`](StateContext::oldest_active_fresh)
//!   always rescans — it is the `refresh` bound of the version-reclaim
//!   protocol.
//!
//! ## Why a stale handle cannot read the next occupant's pin
//!
//! A hit loads, in order, `tag` (`Acquire`), `ts` (`Acquire`) and the slot's
//! owner word `txn`, and accepts only if both `tag` and `txn` equal `tx.id`.
//! The slow path stores `ts` and then the tag, both with `Release`, after
//! the owner check.  Let transaction A (id `a`) hold a stale handle while
//! the slot's next occupant B (id `b`) pins the same state:
//!
//! * If A's `ts` load returns B's store, that load synchronises with it.
//!   B's `begin` stored `txn = b` before B could run any slow path (the
//!   handle only exists once `begin` returned), so that store
//!   happens-before A's later `txn` load, which therefore returns `b` or a
//!   later value of the owner word — never `a`, because ids are never
//!   reused.  A rejects the hit.
//! * Otherwise `ts` is A's own store: A's tag load of `a` synchronised with
//!   A's tag store, which follows A's `ts` store, so no earlier occupant's
//!   value can be returned either.
//!
//! Once A has finished (or a reaper has finished it) the owner word no
//! longer reads `a`, so every later call from A's handle misses and the
//! slow path reports `UnknownTxn` or `LeaseExpired`.  A hit also implies the
//! pin's snapshot floor was announced (the pin precedes the tag store), so
//! the version-reclaim protocol below holds for cache hits.
//!
//! # Memory-ordering contract with the version layer
//!
//! [`crate::mvcc`] documents the Dekker-style fence pairing that makes the
//! latch-free value clone sound.  The context provides the reader half: the
//! snapshot floor of a slot is *announced* — stored and followed by
//! `fence(SeqCst)` — in `begin` (floor = begin timestamp) and in
//! `lower_snapshot_floor` (every new pin), always **before** the transaction
//! can issue its first version scan at that floor.  The garbage collector's
//! half re-reads the floors after its own `SeqCst` fence via
//! `oldest_active_fresh`.  Per-slot detail lists (accessed states, pinned
//! groups) sit behind a short-critical-section mutex per slot — taken only
//! on the *first* access of a state; the registries of states and groups are
//! read-mostly, behind an `RwLock`, and consulted only on that same slow
//! path.

use crate::clock::{GlobalClock, EPOCH_TS};
use crate::table::common::{Recycle, SlotLocal};
use crate::telemetry::{AbortReason, Counter, Telemetry, TelemetrySnapshot, WriterScan};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsp_common::{CachePadded, GroupId, Result, StateId, Timestamp, TspError, TxnId};
use tsp_storage::redo::RedoSections;
use tsp_storage::{BatchWriter, RetryPolicy, StorageBackend};

/// Default maximum number of concurrently active transactions.
///
/// This is only the default of [`StateContext::new`]; contexts serving more
/// concurrent clients can be sized explicitly with
/// [`StateContext::with_capacity`] (the slot table uses one bitmap word per
/// 64 slots, so any capacity is supported).
pub const MAX_ACTIVE_TXNS: usize = 64;

/// Accessed-state lists up to this length are searched linearly; longer
/// lists maintain a hash index (transactions touching many states would
/// otherwise go quadratic in `record_access`).
const LINEAR_SCAN_MAX: usize = 8;

/// States with an id below this bound get a per-slot snapshot cache entry;
/// higher ids always take the slow path.
const SNAPSHOT_CACHE_STATES: usize = 8;

/// Commit status of one state within one transaction (the paper's
/// `List<StateID, Status>`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateStatus {
    /// The state has been accessed; no commit/abort decision yet.
    Active,
    /// The operator responsible for this state voted commit.
    Commit,
    /// The operator responsible for this state voted abort.
    Abort,
}

/// Outcome of flagging a state as committed within a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitVote {
    /// Other states of the transaction still have to vote.
    Pending,
    /// This caller set the *last* missing commit flag and therefore becomes
    /// the coordinator responsible for the global commit (§4.3).
    Coordinator,
    /// At least one state has voted abort — the transaction must be rolled
    /// back globally.
    Aborted,
}

/// Metadata describing a registered state.
#[derive(Clone, Debug)]
pub struct StateInfo {
    /// The state's identifier.
    pub id: StateId,
    /// Human-readable name.
    pub name: String,
    /// Optional physical location (e.g. the directory of a persistent base
    /// table), mirroring the "Location/Pointer" column of Fig. 3.
    pub location: Option<PathBuf>,
}

struct GroupInfo {
    states: Vec<StateId>,
    /// LastCTS — the commit timestamp of the last *globally completed*
    /// transaction of this group.  Readers pin their snapshot to this value.
    last_cts: AtomicU64,
    /// The group's commit lock: the short per-group synchronization of
    /// §4.2 that orders the group's committers.  An `Arc`, so a committer
    /// holds it without holding the registry.
    commit_lock: Arc<Mutex<()>>,
}

/// One row of [`StateContext::active_transaction_details`]: transaction id,
/// snapshot floor, pinned (group, ReadCTS) list and accessed states.
pub type TxDetailSnapshot = (
    TxnId,
    Timestamp,
    Vec<(GroupId, Timestamp)>,
    Vec<(StateId, StateStatus)>,
);

/// Per-transaction bookkeeping stored in a slot (behind the slot mutex).
#[derive(Clone, Debug, Default)]
struct TxDetail {
    /// Accessed states and their commit status.
    states: Vec<(StateId, StateStatus)>,
    /// Pinned read snapshot per group (`List<GroupID, ReadCTS>`).
    read_cts: Vec<(GroupId, Timestamp)>,
    /// Secondary index into `states`, maintained lazily once the list
    /// outgrows [`LINEAR_SCAN_MAX`].
    state_index: HashMap<StateId, usize>,
}

impl TxDetail {
    fn clear(&mut self) {
        self.states.clear();
        self.read_cts.clear();
        self.state_index.clear();
    }

    /// Index of `state` in `states`, if recorded.  Small lists scan
    /// linearly; large ones consult (and lazily rebuild) the hash index.
    fn position(&mut self, state: StateId) -> Option<usize> {
        if self.states.len() <= LINEAR_SCAN_MAX {
            return self.states.iter().position(|(s, _)| *s == state);
        }
        if self.state_index.len() < self.states.len() {
            self.state_index = self
                .states
                .iter()
                .enumerate()
                .map(|(i, (s, _))| (*s, i))
                .collect();
        }
        self.state_index.get(&state).copied()
    }

    /// Records `state` (keeping an existing entry), returning its index.
    fn record(&mut self, state: StateId, status: StateStatus) -> usize {
        if let Some(i) = self.position(state) {
            return i;
        }
        self.states.push((state, status));
        let i = self.states.len() - 1;
        if self.states.len() > LINEAR_SCAN_MAX {
            self.state_index.insert(state, i);
        }
        i
    }
}

/// Per-slot, per-state cache of a transaction's access record and pinned
/// snapshot (see "Hot-path design" in the module docs).  Tags hold the id of
/// the transaction that wrote them (0 = never written).
#[derive(Default)]
struct SnapshotCacheEntry {
    /// Id of the transaction that recorded an access of this state.
    access_tag: AtomicU64,
    /// Id of the transaction whose pinned snapshot `pin_ts` holds.
    pin_tag: AtomicU64,
    /// The pinned snapshot of the `pin_tag` transaction for this state.
    pin_ts: AtomicU64,
}

/// One active-transaction slot, padded to its own cache line(s) so
/// concurrent transactions do not false-share floor updates.
struct TxSlot {
    /// Transaction id occupying the slot (0 = free).
    txn: AtomicU64,
    /// Lower bound of the snapshots this transaction may read; feeds the
    /// OldestActiveVersion computation.  Stores are *announced* with a
    /// `SeqCst` fence (see module docs).
    snapshot_floor: AtomicU64,
    /// Per-state access and snapshot cache, indexed by state id.
    snapshot_cache: [SnapshotCacheEntry; SNAPSHOT_CACHE_STATES],
    /// Slot generation ("epoch"), advanced by every claim (`begin`, by
    /// [`BEGIN_STEP`]) and by every fate decision: the owner's commit or
    /// abort CASes `e → e + 1`, a reaper `e → e + REAP_STEP`.  A `Tx`
    /// captures the post-claim value; whoever CASes first owns the slot's
    /// fate — the loser learns it lost, and from the value it lost on who
    /// won, and must not touch slot-local state (see
    /// [`StateContext::claim_fate`]).
    ///
    /// Parity invariant: **odd = active and undecided, even = decided or
    /// free**.  `begin` always claims from an even epoch (`finish` restores
    /// parity for transactions that bypass fate claiming), so a reaper can
    /// tell an undecided occupant (odd — reapable) from one whose owner
    /// already claimed its fate (even — the reap CAS would wrongly "win" a
    /// settled race, so even epochs are never reaped).
    epoch: AtomicU64,
    /// Epoch of the most recent occupant whose fate a *reaper* claimed
    /// (`u64::MAX` = never reaped).  Read only by a late operation that
    /// finds the slot already reused — the epoch word itself tells the
    /// others — so it reports `LeaseExpired` instead of `UnknownTxn`.
    last_reaped_epoch: AtomicU64,
    /// Lease deadline on the coarse lease clock, in nanoseconds since the
    /// context's anchor (`u64::MAX` = no lease).  Written on `begin` and
    /// renewed by slow-path activity; never touched by the latch-free read
    /// fast path.
    lease_deadline: AtomicU64,
    /// Coarse-clock nanoseconds at which the slot was claimed; feeds the
    /// `oldest_active_age_nanos` gauge (0 when no lease clock runs).
    claimed_at_nanos: AtomicU64,
    /// Accessed states and pinned groups (slow path only).
    detail: Mutex<TxDetail>,
}

impl TxSlot {
    fn new() -> Self {
        TxSlot {
            txn: AtomicU64::new(0),
            snapshot_floor: AtomicU64::new(u64::MAX),
            snapshot_cache: Default::default(),
            epoch: AtomicU64::new(0),
            last_reaped_epoch: AtomicU64::new(u64::MAX),
            lease_deadline: AtomicU64::new(u64::MAX),
            claimed_at_nanos: AtomicU64::new(0),
            detail: Mutex::new(TxDetail::default()),
        }
    }
}

/// How far `begin` advances a slot's (even) epoch: past both fate
/// decisions of the previous occupant, so `e + 1` and `e + REAP_STEP` are
/// only ever the decisions of the occupant that began at `e`.
const BEGIN_STEP: u64 = 3;

/// How far a reaper's fate claim advances an (odd) epoch: to an even value
/// the owner's own `e → e + 1` claim never produces.
const REAP_STEP: u64 = 3;

/// Outcome of [`StateContext::claim_fate`]: who gets to decide (and clean
/// up after) a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FateClaim {
    /// The caller won the epoch CAS and now owns the slot's fate; it must
    /// run the commit or rollback machinery exactly once.
    Won,
    /// A reaper claimed the fate first: the transaction was force-aborted
    /// and its slot-local state already cleaned up.
    Reaped,
    /// The fate was already decided by the owner itself (double
    /// commit/abort) — the slot may even be serving a new transaction.
    Gone,
}

/// The group redo record of an in-flight commit — each participant's
/// section, encoded once — and the states whose commit batches carry a
/// copy of it.
///
/// Kept in the transaction's slot and reused by the slot's later commits:
/// the section buffers keep their capacity, and the holder list is shared
/// by every commit with the same participant set.
#[derive(Default)]
pub struct PendingRedo {
    /// The encoded sections; each holder's batch stores the record of the
    /// *other* holders' sections ([`RedoSections::encode_copy`]).
    pub sections: RedoSections,
    /// The states that hold a copy: the record is dead once every one of
    /// them has durably applied the commit.
    pub holders: Arc<[StateId]>,
}

impl Recycle for PendingRedo {
    /// Empties the sections; the holder list stays for the next commit to
    /// share.
    fn recycle(&mut self) {
        self.sections.reset(0);
    }
}

impl PendingRedo {
    /// Sets [`holders`](Self::holders) to the states with a section, keeping
    /// the current list when it already names them.
    pub fn share_holders(&mut self) {
        let same = self
            .holders
            .iter()
            .map(|s| s.as_u32())
            .eq(self.sections.states());
        if !same {
            self.holders = self.sections.states().map(StateId).collect();
        }
    }
}

/// The durability side of the two-watermark commit pipeline: the registry of
/// asynchronous per-backend persistence writers and the `DurableCTS`
/// watermark they advance.
///
/// The context tracks **two** horizons per deployment:
///
/// * **visibility** — each group's `LastCTS`, advanced inside the
///   group-commit critical section; `commit()` returns when it moves;
/// * **durability** — `DurableCTS`, the largest timestamp every attached
///   [`BatchWriter`] has durably applied; `commit_durable()`/`flush()` wait
///   on it.
///
/// With asynchronous persistence *disabled* (the default) commits persist
/// synchronously inside the commit lock and the two watermarks coincide;
/// [`durable_cts`](DurabilityHub::durable_cts) then reports `None` (no
/// writers) and the wait operations return immediately.
pub struct DurabilityHub {
    /// Whether tables built against this context should persist through an
    /// asynchronous writer (set before tables are constructed).
    async_enabled: AtomicBool,
    /// Depth gauge shared with the owning context's [`Telemetry`]
    /// (`persist_queue_depth`): the writers keep it equal to the total
    /// number of queued batches across all backends.
    depth_gauge: Arc<AtomicU64>,
    /// One writer per distinct backend, deduplicated by `Arc` identity.
    writers: RwLock<Vec<(usize, Arc<BatchWriter>)>>,
    /// The writer each persistent state persists through.
    state_writers: RwLock<Vec<(StateId, Arc<BatchWriter>)>>,
    /// Retry budget applied to writers spawned from here on (transient
    /// `write_batch` failures are retried in place under it).
    retry_policy: Mutex<RetryPolicy>,
}

impl DurabilityHub {
    fn new(depth_gauge: Arc<AtomicU64>) -> Self {
        DurabilityHub {
            async_enabled: AtomicBool::new(false),
            depth_gauge,
            writers: RwLock::new(Vec::new()),
            state_writers: RwLock::new(Vec::new()),
            retry_policy: Mutex::new(RetryPolicy::default()),
        }
    }

    /// Sets the [`RetryPolicy`] for persistence writers spawned *after*
    /// this call; writers already running keep their policy.  Call before
    /// tables are built (alongside
    /// [`StateContext::enable_async_persistence`]).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry_policy.lock() = policy;
    }

    /// Total batches currently queued across all writers (the same gauge
    /// surfaced as `TxStatsSnapshot::persist_queue_depth`).
    pub fn queue_depth(&self) -> u64 {
        self.depth_gauge.load(Ordering::Relaxed)
    }

    /// True if tables should route base-table persistence through an
    /// asynchronous [`BatchWriter`].
    pub fn async_enabled(&self) -> bool {
        self.async_enabled.load(Ordering::Acquire)
    }

    /// Returns the writer for `backend`, spawning it on first use, and
    /// records that `state` persists through it.  One writer exists per
    /// distinct backend (`Arc` identity), so tables sharing a base table
    /// also share its persistence queue — batches for one backend are
    /// applied by one thread, in commit-timestamp order.
    pub fn writer_for(
        &self,
        state: StateId,
        backend: &Arc<dyn StorageBackend>,
    ) -> Arc<BatchWriter> {
        let writer = self.backend_writer(backend);
        self.state_writers
            .write()
            .push((state, Arc::clone(&writer)));
        writer
    }

    fn backend_writer(&self, backend: &Arc<dyn StorageBackend>) -> Arc<BatchWriter> {
        let key = Arc::as_ptr(backend) as *const () as usize;
        if let Some((_, w)) = self.writers.read().iter().find(|(k, _)| *k == key) {
            return Arc::clone(w);
        }
        let mut writers = self.writers.write();
        if let Some((_, w)) = writers.iter().find(|(k, _)| *k == key) {
            return Arc::clone(w);
        }
        let writer = BatchWriter::spawn_with_policy(
            Arc::clone(backend),
            tsp_storage::DEFAULT_QUEUE_CAPACITY,
            Some(Arc::clone(&self.depth_gauge)),
            *self.retry_policy.lock(),
        );
        writers.push((key, Arc::clone(&writer)));
        writer
    }

    /// True when the commit at `cts` is durable on the writer of every
    /// state in `states`.  A state with no writer recorded by
    /// [`writer_for`](Self::writer_for) counts as not durable.
    pub fn durable_on(&self, states: &[StateId], cts: Timestamp) -> bool {
        let bound = self.state_writers.read();
        states
            .iter()
            .all(|s| bound.iter().any(|(b, w)| b == s && w.durable_cts() >= cts))
    }

    /// The global `DurableCTS` watermark: the minimum over all writers'
    /// durable timestamps, i.e. the largest timestamp known durable on
    /// *every* backend.  Writers that never received work are vacuously
    /// durable and are skipped — attaching a fresh table must not collapse
    /// the watermark to 0.  `None` when no asynchronous writer has ever
    /// been handed work (synchronous persistence — everything committed is
    /// durable).
    pub fn durable_cts(&self) -> Option<Timestamp> {
        let writers = self.writers.read();
        writers
            .iter()
            .filter(|(_, w)| w.has_work_history())
            .map(|(_, w)| w.durable_cts())
            .min()
    }

    /// Blocks until the commit at `cts` is durable on every backend (or a
    /// writer reports its sticky failure).
    pub fn wait_durable(&self, cts: Timestamp) -> Result<()> {
        let writers: Vec<Arc<BatchWriter>> = self
            .writers
            .read()
            .iter()
            .map(|(_, w)| Arc::clone(w))
            .collect();
        for w in writers {
            w.wait_durable(cts)?;
        }
        Ok(())
    }

    /// Bounded [`wait_durable`](Self::wait_durable): returns `Ok(true)`
    /// when the commit at `cts` is durable on every backend, `Ok(false)`
    /// if `timeout` elapsed first, and a writer's sticky error if one
    /// failed.  The timeout spans *all* writers — each successive writer
    /// gets whatever remains of the budget.
    pub fn wait_durable_timeout(&self, cts: Timestamp, timeout: Duration) -> Result<bool> {
        let deadline = Instant::now() + timeout;
        let writers: Vec<Arc<BatchWriter>> = self
            .writers
            .read()
            .iter()
            .map(|(_, w)| Arc::clone(w))
            .collect();
        for w in writers {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if !w.wait_durable_timeout(cts, remaining)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Blocks until every enqueued batch on every backend is durable.
    pub fn flush(&self) -> Result<()> {
        let writers: Vec<Arc<BatchWriter>> = self
            .writers
            .read()
            .iter()
            .map(|(_, w)| Arc::clone(w))
            .collect();
        for w in writers {
            w.sync_barrier()?;
        }
        Ok(())
    }

    /// Attempts [`BatchWriter::try_recover`] on every sticky-failed writer
    /// and returns how many were resurrected.  Healthy writers are
    /// untouched; the first recovery that fails (the backend is still sick,
    /// or the writer was abandoned) aborts the sweep with its error.
    pub fn try_recover_writers(&self) -> Result<usize> {
        let writers: Vec<Arc<BatchWriter>> = self
            .writers
            .read()
            .iter()
            .map(|(_, w)| Arc::clone(w))
            .collect();
        let mut recovered = 0;
        for w in writers {
            if w.try_recover()? {
                recovered += 1;
            }
        }
        Ok(recovered)
    }

    /// Number of attached writers (diagnostics).
    pub fn writer_count(&self) -> usize {
        self.writers.read().len()
    }

    /// Adds every attached writer's queue-dwell and coalesced-batch-size
    /// histograms and fault-tolerance counters to `scan` — the persistence
    /// leg of [`StateContext::telemetry_snapshot`].
    pub fn scan_writers(&self, scan: &mut WriterScan) {
        let writers = self.writers.read();
        scan.writers += writers.len() as u64;
        for (_, w) in writers.iter() {
            scan.queue_dwell.merge(w.queue_dwell());
            scan.coalesced_batch.merge(w.coalesced_batch());
            scan.failed += u64::from(w.is_failed());
            scan.retries += w.persist_retries();
            scan.recoveries += w.recoveries();
        }
    }
}

/// A handle to a running transaction.
///
/// The handle is cheap to clone and carries its slot index so table
/// operations never need a lookup to find the transaction's bookkeeping.
#[derive(Clone, Debug)]
pub struct Tx {
    id: TxnId,
    slot: usize,
    begin_ts: Timestamp,
    read_only: bool,
    /// Slot epoch captured at `begin`; the fencing token of the lease
    /// protocol (see [`TxSlot::epoch`]).
    epoch: u64,
}

impl Tx {
    /// The transaction id (== begin timestamp).
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The slot epoch captured at `begin` — the fencing token a reaper and
    /// the owner race on (diagnostics; protocol code goes through
    /// `StateContext`).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The begin timestamp.
    pub fn begin_ts(&self) -> Timestamp {
        self.begin_ts
    }

    /// Slot index inside the active-transaction table.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// True if the transaction was opened read-only.
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }
}

/// The global state context shared by all tables, protocols and operators.
pub struct StateContext {
    clock: GlobalClock,
    states: RwLock<Vec<StateInfo>>,
    groups: RwLock<Vec<GroupInfo>>,
    slots: Vec<CachePadded<TxSlot>>,
    /// Occupancy bitmap of the active-transaction slots (CAS-updated), one
    /// padded word per 64 slots.  Bits beyond `slots.len()` in the last word
    /// are permanently set so `claim_slot` never hands them out.
    slot_bitmap: Vec<CachePadded<AtomicU64>>,
    /// Rotor spreading concurrent `claim_slot` scans over the bitmap.
    slot_rotor: CachePadded<AtomicUsize>,
    /// Bumped whenever the active-transaction population (or a floor)
    /// changes; tags the `oldest_active` cache.
    active_gen: CachePadded<AtomicU64>,
    /// Cached `oldest_active` value and the generation it was computed at.
    oldest_cache: AtomicU64,
    oldest_cache_gen: AtomicU64,
    telemetry: Telemetry,
    durability: DurabilityHub,
    /// Per-slot stash of the group redo record the commit coordinator
    /// assembled for the transaction's in-flight commit; each persistent
    /// participant appends it to its own commit batch (see
    /// [`crate::table::common::persist_pending`]).
    redo_stash: SlotLocal<PendingRedo>,
    /// Bounded-wait admission budget for `begin` in nanoseconds; 0 means
    /// immediate-fail admission (`SlotExhaustion` when the slot table is
    /// full, the historical behaviour).
    admission_wait_nanos: AtomicU64,
    /// Transaction lease duration in nanoseconds; 0 disables leases (no
    /// deadline stamping, no reaping — the historical behaviour).
    lease_nanos: AtomicU64,
    /// Wall-clock anchor of the coarse lease clock.
    lease_anchor: Instant,
    /// Cached nanoseconds-since-anchor, refreshed by `begin` (one
    /// `Instant::now` per transaction, only while leases are enabled) and
    /// by the reaper's candidate scan.  Lease stamping and renewal read
    /// this with a relaxed load instead of taking a timestamp — deadline
    /// precision is inter-begin granularity, plenty for millisecond leases.
    coarse_clock_nanos: CachePadded<AtomicU64>,
    /// Reap entry point installed by the owning `TransactionManager`; the
    /// admission slow path invokes it when the slot table is exhausted so a
    /// herd of zombies cannot wedge `begin` (no-op until installed).
    reaper: RwLock<Option<Arc<dyn Fn() -> usize + Send + Sync>>>,
}

impl Default for StateContext {
    fn default() -> Self {
        Self::new()
    }
}

impl StateContext {
    /// Creates an empty context with a fresh clock and the default
    /// transaction-slot capacity ([`MAX_ACTIVE_TXNS`]).
    pub fn new() -> Self {
        Self::with_clock_and_capacity(GlobalClock::new(), MAX_ACTIVE_TXNS)
    }

    /// Creates an empty context sized for up to `capacity` concurrently
    /// active transactions (high-concurrency workloads should size this to
    /// their worker count so `begin` never fails with `CapacityExhausted`).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_clock_and_capacity(GlobalClock::new(), capacity)
    }

    /// Creates a context around an existing clock (used by recovery), with
    /// the default transaction-slot capacity.
    pub fn with_clock(clock: GlobalClock) -> Self {
        Self::with_clock_and_capacity(clock, MAX_ACTIVE_TXNS)
    }

    /// Creates a context around an existing clock with an explicit
    /// transaction-slot capacity.
    pub fn with_clock_and_capacity(clock: GlobalClock, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let words = capacity.div_ceil(64);
        let slot_bitmap: Vec<CachePadded<AtomicU64>> = (0..words)
            .map(|w| {
                // Mark the out-of-range tail of the last word as occupied.
                let first_slot = w * 64;
                let usable = capacity.saturating_sub(first_slot).min(64);
                if usable == 64 {
                    CachePadded::new(AtomicU64::new(0))
                } else {
                    CachePadded::new(AtomicU64::new(!0u64 << usable))
                }
            })
            .collect();
        let telemetry = Telemetry::striped(capacity);
        let durability = DurabilityHub::new(Arc::clone(telemetry.persist_queue_depth()));
        StateContext {
            clock,
            states: RwLock::new(Vec::new()),
            groups: RwLock::new(Vec::new()),
            slots: (0..capacity)
                .map(|_| CachePadded::new(TxSlot::new()))
                .collect(),
            slot_bitmap,
            slot_rotor: CachePadded::new(AtomicUsize::new(0)),
            active_gen: CachePadded::new(AtomicU64::new(0)),
            oldest_cache: AtomicU64::new(0),
            oldest_cache_gen: AtomicU64::new(u64::MAX),
            telemetry,
            durability,
            redo_stash: SlotLocal::new(capacity),
            admission_wait_nanos: AtomicU64::new(0),
            lease_nanos: AtomicU64::new(0),
            lease_anchor: Instant::now(),
            coarse_clock_nanos: CachePadded::new(AtomicU64::new(0)),
            reaper: RwLock::new(None),
        }
    }

    /// The maximum number of concurrently active transactions this context
    /// can host.
    pub fn max_active_txns(&self) -> usize {
        self.slots.len()
    }

    /// The global clock.
    pub fn clock(&self) -> &GlobalClock {
        &self.clock
    }

    /// The context's metrics registry: counters, abort taxonomy, stage
    /// histograms and gauges (see [`crate::telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// A [`TelemetrySnapshot`] covering this context: the registry plus
    /// the persistence aggregates scanned from every attached writer.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.refresh_oldest_active_age();
        let mut writers = WriterScan::default();
        self.durability.scan_writers(&mut writers);
        self.telemetry.snapshot(&writers)
    }

    /// The durability hub: asynchronous persistence writers and the
    /// `DurableCTS` watermark (see [`DurabilityHub`]).
    pub fn durability(&self) -> &DurabilityHub {
        &self.durability
    }

    /// Enables pipelined (asynchronous) base-table persistence for tables
    /// built against this context *after* this call: commits return when
    /// visible, durability trails behind the `DurableCTS` watermark, and
    /// `TransactionManager::commit_durable`/`flush` wait on it.
    ///
    /// Call before constructing tables.  The default is synchronous
    /// persistence inside the commit critical section (visibility implies
    /// durability), matching the paper's evaluation setting.
    pub fn enable_async_persistence(&self) {
        self.durability.async_enabled.store(true, Ordering::Release);
    }

    /// Configures bounded-wait admission for [`begin`](Self::begin): when
    /// the slot table is full, `begin` retries slot acquisition with
    /// backoff for up to `wait` before aborting with an
    /// [`AbortReason::AdmissionTimeout`], instead of failing immediately
    /// with `SlotExhaustion`.  `None` restores immediate-fail admission.
    pub fn set_admission_wait(&self, wait: Option<Duration>) {
        let nanos = wait.map_or(0, |w| {
            u64::try_from(w.as_nanos()).unwrap_or(u64::MAX).max(1)
        });
        self.admission_wait_nanos.store(nanos, Ordering::Relaxed);
    }

    /// Configures a transaction lease: every transaction begun after this
    /// call carries a wall-clock deadline of `lease` from its last observed
    /// activity (begin, and renewal on every slow-path owner check).  A
    /// transaction past its deadline may be force-aborted by
    /// `TransactionManager::reap_expired` — choose a lease comfortably
    /// larger than the longest transaction you expect, including stalls.
    /// `None` (the default) disables leases: nothing is stamped, nothing is
    /// reaped, behaviour is exactly the pre-lease engine.
    ///
    /// The deadline lives on a *coarse* cached clock refreshed once per
    /// `begin`, so stamping and renewal are a relaxed load + store; the
    /// latch-free committed-read fast path never touches it.
    pub fn set_transaction_lease(&self, lease: Option<Duration>) {
        let nanos = lease.map_or(0, |l| {
            u64::try_from(l.as_nanos()).unwrap_or(u64::MAX).max(1)
        });
        self.lease_nanos.store(nanos, Ordering::Relaxed);
    }

    /// The configured transaction lease (`None` = leases disabled).
    pub fn transaction_lease(&self) -> Option<Duration> {
        match self.lease_nanos.load(Ordering::Relaxed) {
            0 => None,
            n => Some(Duration::from_nanos(n)),
        }
    }

    /// Bounded [`DurabilityHub::wait_durable`]: `Ok(true)` once the commit
    /// at `cts` is durable on every backend, `Ok(false)` if `timeout`
    /// elapsed first (counted in [`Counter::DurabilityTimeouts`]), or a
    /// writer's sticky error.
    pub fn wait_durable_timeout(&self, cts: Timestamp, timeout: Duration) -> Result<bool> {
        let durable = self.durability.wait_durable_timeout(cts, timeout)?;
        if !durable {
            self.telemetry.bump(Counter::DurabilityTimeouts);
        }
        Ok(durable)
    }

    // ------------------------------------------------------------------
    // Registries
    // ------------------------------------------------------------------

    /// Registers a new state and returns its id.
    pub fn register_state(&self, name: impl Into<String>) -> StateId {
        self.register_state_at(name, None)
    }

    /// Registers a new state with a physical location.
    pub fn register_state_at(&self, name: impl Into<String>, location: Option<PathBuf>) -> StateId {
        let mut states = self.states.write();
        let id = StateId(states.len() as u32);
        states.push(StateInfo {
            id,
            name: name.into(),
            location,
        });
        id
    }

    /// Returns the metadata of a registered state.
    pub fn state_info(&self, state: StateId) -> Result<StateInfo> {
        self.states
            .read()
            .get(state.index())
            .cloned()
            .ok_or(TspError::UnknownState { state: state.0 })
    }

    /// Number of registered states.
    pub fn state_count(&self) -> usize {
        self.states.read().len()
    }

    /// Registers a topology group: the set of states one continuous query
    /// updates atomically.  The group's `LastCTS` starts at the epoch, i.e.
    /// preloaded/recovered base-table data is visible to every reader.
    pub fn register_group(&self, states: &[StateId]) -> Result<GroupId> {
        {
            let registered = self.states.read();
            for s in states {
                if s.index() >= registered.len() {
                    return Err(TspError::UnknownState { state: s.0 });
                }
            }
        }
        let mut groups = self.groups.write();
        let id = GroupId(groups.len() as u32);
        groups.push(GroupInfo {
            states: states.to_vec(),
            last_cts: AtomicU64::new(EPOCH_TS),
            commit_lock: Arc::new(Mutex::new(())),
        });
        Ok(id)
    }

    /// Number of registered groups.
    pub fn group_count(&self) -> usize {
        self.groups.read().len()
    }

    /// States belonging to a group.
    pub fn group_states(&self, group: GroupId) -> Result<Vec<StateId>> {
        self.groups
            .read()
            .get(group.index())
            .map(|g| g.states.clone())
            .ok_or(TspError::UnknownGroup { group: group.0 })
    }

    /// Groups a state belongs to (usually exactly one).
    pub fn groups_of_state(&self, state: StateId) -> Vec<GroupId> {
        let mut groups = Vec::new();
        self.for_each_group_of_state(state, |g, _| groups.push(g));
        groups
    }

    /// Visits each group `state` belongs to with its `LastCTS`, under the
    /// group registry's read lock — the commit path's allocation-free form
    /// of [`groups_of_state`](Self::groups_of_state).  `visit` must not
    /// call back into the group registry.
    pub fn for_each_group_of_state(
        &self,
        state: StateId,
        mut visit: impl FnMut(GroupId, Timestamp),
    ) {
        for (i, g) in self.groups.read().iter().enumerate() {
            if g.states.contains(&state) {
                visit(GroupId(i as u32), g.last_cts.load(Ordering::Acquire));
            }
        }
    }

    /// The commit timestamp of the last globally completed transaction of
    /// `group` (the paper's `LastCTS`).
    pub fn last_cts(&self, group: GroupId) -> Result<Timestamp> {
        self.groups
            .read()
            .get(group.index())
            .map(|g| g.last_cts.load(Ordering::Acquire))
            .ok_or(TspError::UnknownGroup { group: group.0 })
    }

    /// Publishes a group commit: atomically advances `LastCTS` to `cts`.
    /// This is the single atomic store that makes a (possibly multi-state)
    /// transaction visible to readers "completely or not at all" (§4.2/4.3).
    pub fn publish_group_commit(&self, group: GroupId, cts: Timestamp) -> Result<()> {
        let groups = self.groups.read();
        let g = groups
            .get(group.index())
            .ok_or(TspError::UnknownGroup { group: group.0 })?;
        g.last_cts.fetch_max(cts, Ordering::AcqRel);
        Ok(())
    }

    /// Runs `f` holding the commit lock of every group `groups` yields, taken
    /// in the order yielded — callers pass ascending group ids, so
    /// concurrent committers cannot deadlock.  The guards live on the stack
    /// of this recursion, and the registry's read lock is released before
    /// each acquisition, so `f` may publish (see
    /// [`publish_group_commit`](Self::publish_group_commit)).
    ///
    /// # Panics
    /// If a yielded group was never registered.
    pub(crate) fn with_commit_locks<R>(
        &self,
        mut groups: impl Iterator<Item = GroupId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let Some(group) = groups.next() else {
            return f();
        };
        let lock = Arc::clone(&self.groups.read()[group.index()].commit_lock);
        let _held = lock.lock();
        self.with_commit_locks(groups, f)
    }

    /// Restores a group's `LastCTS` (recovery).
    pub fn restore_group_cts(&self, group: GroupId, cts: Timestamp) -> Result<()> {
        let groups = self.groups.read();
        let g = groups
            .get(group.index())
            .ok_or(TspError::UnknownGroup { group: group.0 })?;
        g.last_cts.store(cts.max(EPOCH_TS), Ordering::Release);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Active transactions
    // ------------------------------------------------------------------

    /// Begins a new transaction: draws a TxnId from the clock and claims a
    /// slot in the active-transaction table via CAS on the occupancy bitmap.
    ///
    /// When the slot table is full the outcome depends on the admission
    /// mode ([`set_admission_wait`](Self::set_admission_wait)): immediate
    /// `SlotExhaustion` by default, or a bounded backoff wait that either
    /// wins a freed slot (counted in [`Counter::AdmissionWaits`]) or
    /// expires with an [`AbortReason::AdmissionTimeout`].
    pub fn begin(&self, read_only: bool) -> Result<Tx> {
        let slot = self.claim_slot_admitted()?;
        let s = &self.slots[slot];
        // The snapshot cache needs no reset: its entries are tagged with
        // the id of the transaction that wrote them (see module docs).
        s.detail.lock().clear();
        // Stamp the lease deadline (and refresh the coarse clock) before
        // publishing the new owner, so a reaper scan that sees this txn id
        // sees *its* deadline, never the previous occupant's.  With leases
        // disabled this is two relaxed stores and no timestamp call.
        let lease = self.lease_nanos.load(Ordering::Relaxed);
        if lease != 0 {
            let now = self.coarse_now_fresh();
            s.lease_deadline
                .store(now.saturating_add(lease), Ordering::Relaxed);
            s.claimed_at_nanos.store(now, Ordering::Relaxed);
        } else {
            s.lease_deadline.store(u64::MAX, Ordering::Relaxed);
            s.claimed_at_nanos.store(0, Ordering::Relaxed);
        }
        // Advance the slot epoch (the fencing token): the fetch_add
        // serialises against any in-flight reaper CAS on this slot, so a
        // stale reap claim can never hit the new occupant's epoch.  The
        // slot's epoch is even here (finish restores parity), so the new
        // occupant's epoch is odd — the "active, undecided" parity a reaper
        // is allowed to claim.
        let epoch = s.epoch.fetch_add(BEGIN_STEP, Ordering::AcqRel) + BEGIN_STEP;
        let id = self.clock.next_txn();
        let begin_ts = id.as_u64();
        s.txn.store(begin_ts, Ordering::Release);
        s.snapshot_floor.store(begin_ts, Ordering::Release);
        // Announce the floor before this transaction's first version scan
        // (Dekker pairing with the GC reclaim fence, see mvcc.rs), and
        // invalidate the cached OldestActiveVersion.
        fence(Ordering::SeqCst);
        self.active_gen.fetch_add(1, Ordering::Release);
        self.telemetry.bump(Counter::Begun);
        Ok(Tx {
            id,
            slot,
            begin_ts,
            read_only,
            epoch,
        })
    }

    /// Takes a fresh wall-clock reading, publishes it as the coarse lease
    /// clock, and returns it (nanoseconds since the context's anchor).
    fn coarse_now_fresh(&self) -> u64 {
        let now = u64::try_from(self.lease_anchor.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.coarse_clock_nanos.store(now, Ordering::Relaxed);
        now
    }

    /// [`claim_slot`](Self::claim_slot) plus admission control: applies the
    /// configured bounded wait when the slot table is full and records the
    /// abort taxonomy for both failure modes.
    #[inline]
    fn claim_slot_admitted(&self) -> Result<usize> {
        match self.claim_slot() {
            Ok(slot) => Ok(slot),
            Err(err) => self.claim_slot_contended(err),
        }
    }

    /// The slot table was full at `begin`: wait out the configured admission
    /// window (or fail immediately when none is set).  Kept out of line so the
    /// begin fast path stays as small as it was before admission control.
    #[cold]
    fn claim_slot_contended(&self, err: TspError) -> Result<usize> {
        // A full slot table is exactly where abandoned transactions hurt:
        // reap expired leases inline (no-op while leases are disabled or no
        // manager is attached) and retry once before waiting or failing.
        if self.lease_nanos.load(Ordering::Relaxed) != 0 && self.try_reap() > 0 {
            if let Ok(slot) = self.claim_slot() {
                return Ok(slot);
            }
        }
        let wait_nanos = self.admission_wait_nanos.load(Ordering::Relaxed);
        if wait_nanos == 0 {
            // Immediate-fail admission — the historical behaviour.
            self.telemetry.record_abort(AbortReason::SlotExhaustion);
            return Err(err);
        }
        let started = Instant::now();
        let deadline = started + Duration::from_nanos(wait_nanos);
        // Doubling backoff between re-scans: slots free up at commit/abort
        // granularity, so microsecond-scale probing is plenty — tight
        // spinning would steal cycles from the very transactions whose
        // completion frees a slot.
        let mut backoff = Duration::from_micros(5);
        loop {
            let now = Instant::now();
            if now >= deadline {
                self.telemetry.record_abort(AbortReason::AdmissionTimeout);
                return Err(TspError::CapacityExhausted {
                    what: "active transaction slots (admission wait expired)",
                });
            }
            std::thread::sleep(backoff.min(deadline - now));
            if self.lease_nanos.load(Ordering::Relaxed) != 0 {
                self.try_reap();
            }
            if let Ok(slot) = self.claim_slot() {
                self.telemetry.bump(Counter::AdmissionWaits);
                self.telemetry
                    .admission_wait_nanos()
                    .record_nanos(started.elapsed().as_nanos() as u64);
                return Ok(slot);
            }
            backoff = (backoff * 2).min(Duration::from_micros(500));
        }
    }

    /// Claims a free slot bit.
    ///
    /// Fast path: each thread remembers the slot it used last and tries to
    /// re-claim it with a single CAS.  That keeps a thread's transaction
    /// bookkeeping (slot, write-set cell, detail lists) cache-hot *and*
    /// makes concurrent claimants converge on disjoint slots — no CAS
    /// collisions at all in steady state, which is strictly better than
    /// spreading scans.  A global rotor only seeds the scan start when the
    /// hint misses (first claim per thread, or the hinted slot was taken),
    /// so claimants that do scan don't all hammer word 0.
    fn claim_slot(&self) -> Result<usize> {
        thread_local! {
            static SLOT_HINT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
        }
        let hint = SLOT_HINT.with(|h| h.get());
        if hint < self.slots.len() {
            let word = &self.slot_bitmap[hint / 64];
            let bit = 1u64 << (hint % 64);
            let bitmap = word.load(Ordering::Acquire);
            if bitmap & bit == 0
                && word
                    .compare_exchange(bitmap, bitmap | bit, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                return Ok(hint);
            }
        }
        let slot = self.claim_slot_scan()?;
        SLOT_HINT.with(|h| h.set(slot));
        Ok(slot)
    }

    /// Scan fallback of [`claim_slot`](Self::claim_slot), rotor-seeded.
    fn claim_slot_scan(&self) -> Result<usize> {
        let words = self.slot_bitmap.len();
        let start = self.slot_rotor.fetch_add(1, Ordering::Relaxed);
        let start_word = (start / 64) % words;
        let start_bit = (start % 64) as u32;
        for k in 0..words {
            let w = (start_word + k) % words;
            let word = &self.slot_bitmap[w];
            loop {
                let bitmap = word.load(Ordering::Acquire);
                if bitmap == u64::MAX {
                    break; // word full — move on
                }
                let candidates = !bitmap;
                // Prefer a free bit at or after the rotor hint in the first
                // word scanned, so claimants fan out within the word too.
                let hinted = if k == 0 {
                    candidates & (u64::MAX << start_bit)
                } else {
                    0
                };
                let pick = if hinted != 0 { hinted } else { candidates };
                let free = pick.trailing_zeros() as usize;
                let new = bitmap | (1u64 << free);
                if word
                    .compare_exchange(bitmap, new, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return Ok(w * 64 + free);
                }
                // CAS raced; re-read this word and retry.
            }
        }
        Err(TspError::CapacityExhausted {
            what: "active transaction slots",
        })
    }

    /// Builds the group redo record for `tx`'s in-flight commit in the
    /// slot's recycled [`PendingRedo`] and attaches it when `build` returns
    /// true.  Each persistent participant's durable hand-off appends it to
    /// its own commit batch; released in [`finish`](Self::finish).
    pub fn attach_redo(&self, tx: &Tx, build: impl FnOnce(&mut PendingRedo) -> bool) {
        if !self.redo_stash.with_mut(tx, build) {
            self.redo_stash.clear(tx);
        }
    }

    /// Runs `f` with the group redo record attached to `tx`'s in-flight
    /// commit, if any.
    pub fn with_pending_redo<R>(&self, tx: &Tx, f: impl FnOnce(&PendingRedo) -> R) -> Option<R> {
        self.redo_stash.with(tx, f)
    }

    /// Releases a transaction's slot.  Idempotent: releasing an already
    /// finished transaction is a no-op.
    pub fn finish(&self, tx: &Tx) {
        self.redo_stash.clear(tx);
        let s = &self.slots[tx.slot];
        if s.txn
            .compare_exchange(tx.id.as_u64(), 0, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return; // slot already reused or released
        }
        s.lease_deadline.store(u64::MAX, Ordering::Relaxed);
        // Restore the epoch parity invariant (even = free/decided, odd =
        // active and undecided) for transactions that bypass fate claiming
        // and release their slot directly.  A concurrent reaper may race
        // this CAS on the same odd epoch; exactly one bump wins and the
        // loser's claim fails, so the epoch always lands even.  (The reaper
        // cannot proceed past a won CAS either: its occupant re-check sees
        // the `txn` word this function just cleared.)
        let e = s.epoch.load(Ordering::Acquire);
        if e & 1 == 1 {
            let _ = s
                .epoch
                .compare_exchange(e, e + 1, Ordering::AcqRel, Ordering::Acquire);
        }
        s.snapshot_floor.store(u64::MAX, Ordering::Release);
        self.slot_bitmap[tx.slot / 64].fetch_and(!(1u64 << (tx.slot % 64)), Ordering::AcqRel);
        self.active_gen.fetch_add(1, Ordering::Release);
    }

    /// The occupancy bits of word `w` with the permanently set out-of-range
    /// tail of the last word masked off.
    fn masked_word(&self, w: usize) -> u64 {
        let bits = self.slot_bitmap[w].load(Ordering::Acquire);
        let first_slot = w * 64;
        let usable = self.slots.len().saturating_sub(first_slot).min(64);
        if usable < 64 {
            bits & ((1u64 << usable) - 1)
        } else {
            bits
        }
    }

    /// Number of transactions currently holding a slot.
    pub fn active_count(&self) -> usize {
        (0..self.slot_bitmap.len())
            .map(|w| self.masked_word(w).count_ones() as usize)
            .sum()
    }

    /// Calls `visit` with every occupied, in-range slot index (allocation-free
    /// — this runs on hot paths like `oldest_active`).
    fn for_each_occupied_slot(&self, mut visit: impl FnMut(usize)) {
        for w in 0..self.slot_bitmap.len() {
            let mut bits = self.masked_word(w);
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                visit(w * 64 + i);
            }
        }
    }

    /// Scans every occupied slot's snapshot floor (no caching).
    fn scan_oldest(&self) -> Timestamp {
        let mut min = u64::MAX;
        self.for_each_occupied_slot(|i| {
            let floor = self.slots[i].snapshot_floor.load(Ordering::SeqCst);
            min = min.min(floor);
        });
        if min == u64::MAX {
            self.clock.now()
        } else {
            min
        }
    }

    /// The oldest snapshot any in-flight transaction may still read
    /// (`OldestActiveVersion`).  When no transaction is active, the current
    /// clock value is returned — everything older than "now" is reclaimable.
    ///
    /// The value is cached behind a generation counter bumped on every
    /// begin/finish/pin, so repeated calls (e.g. per-commit on-demand GC)
    /// do not rescan the slot array while the population is unchanged.  Use
    /// [`oldest_active_fresh`](Self::oldest_active_fresh) where the reclaim
    /// protocol requires an uncached scan.
    pub fn oldest_active(&self) -> Timestamp {
        let gen = self.active_gen.load(Ordering::Acquire);
        if self.oldest_cache_gen.load(Ordering::Acquire) == gen {
            // The cached value may at worst be *fresher* than its tag (a
            // concurrent recompute); both are valid advisory bounds — the
            // safety-critical reclaim path rescans via `oldest_active_fresh`.
            return self.oldest_cache.load(Ordering::Relaxed);
        }
        let min = self.scan_oldest();
        self.oldest_cache.store(min, Ordering::Relaxed);
        self.oldest_cache_gen.store(gen, Ordering::Release);
        min
    }

    /// Uncached [`oldest_active`](Self::oldest_active): always rescans the
    /// announced snapshot floors.  This is the `refresh` bound of the
    /// version-reclaim fence protocol (see `mvcc.rs`); garbage collectors
    /// must call it *after* their `SeqCst` fence.
    pub fn oldest_active_fresh(&self) -> Timestamp {
        self.scan_oldest()
    }

    /// Diagnostic snapshot of the active-transaction table: one entry per
    /// occupied slot with the transaction id and its snapshot floor (the
    /// value that feeds `OldestActiveVersion`).
    pub fn active_transactions(&self) -> Vec<(TxnId, Timestamp)> {
        let mut out = Vec::new();
        self.for_each_occupied_slot(|i| {
            let txn = self.slots[i].txn.load(Ordering::Acquire);
            let floor = self.slots[i].snapshot_floor.load(Ordering::Acquire);
            if txn != 0 {
                out.push((TxnId(txn), floor));
            }
        });
        out
    }

    /// Extended diagnostic snapshot including each active transaction's
    /// pinned (group, ReadCTS) list and accessed states.
    ///
    /// The per-slot mutex is held only long enough to copy the lists into
    /// reused buffers; the per-row allocations happen outside the lock so a
    /// monitoring scrape cannot stall transactions on the allocator.
    pub fn active_transaction_details(&self) -> Vec<TxDetailSnapshot> {
        let mut out = Vec::new();
        let mut pins_buf: Vec<(GroupId, Timestamp)> = Vec::new();
        let mut states_buf: Vec<(StateId, StateStatus)> = Vec::new();
        self.for_each_occupied_slot(|i| {
            let (txn, floor) = {
                let detail = self.slots[i].detail.lock();
                let txn = self.slots[i].txn.load(Ordering::Acquire);
                let floor = self.slots[i].snapshot_floor.load(Ordering::Acquire);
                pins_buf.clear();
                pins_buf.extend_from_slice(&detail.read_cts);
                states_buf.clear();
                states_buf.extend_from_slice(&detail.states);
                (txn, floor)
            };
            if txn != 0 {
                out.push((TxnId(txn), floor, pins_buf.clone(), states_buf.clone()));
            }
        });
        out
    }

    fn check_owner(&self, tx: &Tx) -> Result<()> {
        let s = &self.slots[tx.slot];
        if s.txn.load(Ordering::Acquire) != tx.id.as_u64() {
            return Err(self.fate_error(tx, s.epoch.load(Ordering::Acquire)));
        }
        // Owner confirmed on a slow path — renew the lease from the coarse
        // clock (a relaxed load + store; no timestamp call).
        let lease = self.lease_nanos.load(Ordering::Relaxed);
        if lease != 0 {
            s.lease_deadline.store(
                self.coarse_clock_nanos
                    .load(Ordering::Relaxed)
                    .saturating_add(lease),
                Ordering::Relaxed,
            );
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Leases, epoch fencing and reaping
    // ------------------------------------------------------------------

    /// Claims the right to decide `tx`'s fate (commit or rollback) by
    /// CASing the slot epoch forward.  Exactly one claimant per transaction
    /// wins: the owner's commit/abort, or a reaper.  The commit and abort
    /// paths call this *before* touching participants; on anything but
    /// [`FateClaim::Won`] they must not run validation or cleanup (a reaper
    /// already rolled the transaction back, or it was already finished).
    pub(crate) fn claim_fate(&self, tx: &Tx) -> FateClaim {
        let s = &self.slots[tx.slot];
        match s
            .epoch
            .compare_exchange(tx.epoch, tx.epoch + 1, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => FateClaim::Won,
            Err(seen) if self.reaped(tx, seen) => FateClaim::Reaped,
            Err(_) => FateClaim::Gone,
        }
    }

    /// Whether a reaper decided `tx`'s fate, read from `seen`, the slot's
    /// epoch once it no longer equals `tx.epoch`.  `e + REAP_STEP` is the
    /// reaper's own claim and `e + 1` the owner's; only a later epoch (the
    /// slot was reused) consults the `last_reaped_epoch` marker, which the
    /// reaper stored before it released the slot.
    fn reaped(&self, tx: &Tx, seen: u64) -> bool {
        seen == tx.epoch + REAP_STEP
            || (seen != tx.epoch + 1
                && self.slots[tx.slot]
                    .last_reaped_epoch
                    .load(Ordering::Acquire)
                    == tx.epoch)
    }

    /// The error of an operation on `tx` after its fate was decided (the
    /// slot's epoch reads `seen`): `LeaseExpired` when a reaper won — an
    /// actionable error for an abandoned-then-resumed client — and
    /// `UnknownTxn` when the transaction already finished.
    fn fate_error(&self, tx: &Tx, seen: u64) -> TspError {
        let txn = tx.id.as_u64();
        if self.reaped(tx, seen) {
            TspError::LeaseExpired { txn }
        } else {
            TspError::UnknownTxn { txn }
        }
    }

    /// Verifies that nobody has claimed `tx`'s fate yet — the epoch-fence
    /// check guarding first-touch claims of slot-local state (see
    /// `SlotLocal::with_mut_checked`).  Errors with `LeaseExpired` when a
    /// reaper won, `UnknownTxn` when the transaction already finished.
    pub(crate) fn check_fate(&self, tx: &Tx) -> Result<()> {
        let seen = self.slots[tx.slot].epoch.load(Ordering::Acquire);
        if seen == tx.epoch {
            return Ok(());
        }
        Err(self.fate_error(tx, seen))
    }

    /// Scans the slot table for transactions whose lease deadline has
    /// passed, refreshing the coarse clock with a fresh reading first.
    /// Returns `(slot, txn, epoch)` candidates; each must still be
    /// confirmed via [`claim_reap`](Self::claim_reap) — the scan is racy by
    /// design and a candidate may commit or finish at any moment.
    pub(crate) fn expired_candidates(&self) -> Vec<(usize, TxnId, u64)> {
        if self.lease_nanos.load(Ordering::Relaxed) == 0 {
            return Vec::new();
        }
        let now = self.coarse_now_fresh();
        let mut out = Vec::new();
        self.for_each_occupied_slot(|i| {
            let s = &self.slots[i];
            if s.lease_deadline.load(Ordering::Relaxed) >= now {
                return;
            }
            // Read the id before the epoch: `begin` bumps the epoch before
            // publishing the id, so a non-zero id implies the epoch we read
            // afterwards is at least that occupant's (a *newer* epoch makes
            // the reap CAS fail harmlessly).
            let txn = s.txn.load(Ordering::Acquire);
            if txn == 0 {
                return;
            }
            // Parity gate: an even epoch means the occupant already claimed
            // its fate (commit or abort in flight) — or the slot is being
            // recycled.  CASing an even epoch forward would let the reaper
            // "win" a race the owner already won, so only odd (active,
            // undecided) epochs are reap candidates.
            let epoch = s.epoch.load(Ordering::Acquire);
            if epoch & 1 == 1 {
                out.push((i, TxnId(txn), epoch));
            }
        });
        out
    }

    /// Attempts to claim an expired candidate's fate for reaping.  On
    /// success the caller (the manager's `reap_expired`) owns the
    /// transaction's cleanup and receives a reconstructed handle to drive
    /// the regular rollback machinery; `None` means the owner finished or
    /// decided first — nothing to do.
    pub(crate) fn claim_reap(&self, slot: usize, txn: TxnId, epoch: u64) -> Option<Tx> {
        let s = &self.slots[slot];
        if epoch & 1 == 0 {
            return None; // defensive: only undecided (odd) epochs are reapable
        }
        if s.txn.load(Ordering::Acquire) != txn.as_u64() {
            return None; // occupant changed since the scan
        }
        if s.epoch
            .compare_exchange(
                epoch,
                epoch + REAP_STEP,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_err()
        {
            return None; // the owner (or a newer claim) won the race
        }
        #[cfg(test)]
        AFTER_REAP_CAS.with(|pause| {
            if let Some(f) = pause.borrow_mut().as_mut() {
                f();
            }
        });
        // Record which epoch was reaped before the slot can be reused: a
        // late operation that finds a later occupant's epoch reads this
        // marker.  (If the occupant changed between the pre-check and the
        // CAS — only possible when a transaction bypassed fate claiming via
        // a bare `finish` — the marker is stale but harmless: that
        // transaction is already gone.)
        s.last_reaped_epoch.store(epoch, Ordering::Release);
        if s.txn.load(Ordering::Acquire) != txn.as_u64() {
            return None;
        }
        Some(Tx {
            id: txn,
            slot,
            begin_ts: txn.as_u64(),
            read_only: false,
            epoch,
        })
    }

    /// Installs the reap entry point the admission slow path calls when the
    /// slot table is exhausted.  `TransactionManager::new` installs its
    /// `reap_expired`; a later install (second manager over the same
    /// context) replaces the hook.
    pub(crate) fn install_reaper(&self, f: impl Fn() -> usize + Send + Sync + 'static) {
        *self.reaper.write() = Some(Arc::new(f));
    }

    /// Invokes the installed reap hook (0 when none is installed).
    pub(crate) fn try_reap(&self) -> usize {
        let hook = self.reaper.read().clone();
        hook.map_or(0, |f| f())
    }

    /// Age of the oldest active transaction in wall nanoseconds, measured
    /// on the lease clock (0 when idle or when leases are disabled — the
    /// coarse clock only runs while a lease is configured).  Also publishes
    /// the value to the telemetry gauge.
    pub fn refresh_oldest_active_age(&self) -> u64 {
        let mut age = 0u64;
        if self.lease_nanos.load(Ordering::Relaxed) != 0 {
            let now = u64::try_from(self.lease_anchor.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.for_each_occupied_slot(|i| {
                let claimed = self.slots[i].claimed_at_nanos.load(Ordering::Relaxed);
                if claimed != 0 && self.slots[i].txn.load(Ordering::Acquire) != 0 {
                    age = age.max(now.saturating_sub(claimed));
                }
            });
        }
        self.telemetry.set_oldest_active_age_nanos(age);
        age
    }

    /// The snapshot cache entry of `state` in `tx`'s slot, if the state id
    /// is small enough to have one.
    #[inline]
    fn cache_entry(&self, tx: &Tx, state: StateId) -> Option<&SnapshotCacheEntry> {
        self.slots[tx.slot].snapshot_cache.get(state.index())
    }

    /// True while `tx` still occupies its slot.  The cache hits check this
    /// *after* their tag loads (see "Hot-path design" in the module docs).
    #[inline]
    fn is_occupant(&self, tx: &Tx) -> bool {
        self.slots[tx.slot].txn.load(Ordering::Acquire) == tx.id.as_u64()
    }

    /// Records that `tx` accessed `state` (status `Active` if not yet seen).
    ///
    /// Fast path: the state's access tag in the slot's snapshot cache —
    /// repeat accesses cost two atomic loads and no lock.
    pub fn record_access(&self, tx: &Tx, state: StateId) -> Result<()> {
        let id = tx.id.as_u64();
        let entry = self.cache_entry(tx, state);
        if let Some(e) = entry {
            if e.access_tag.load(Ordering::Acquire) == id && self.is_occupant(tx) {
                return Ok(());
            }
        }
        self.check_owner(tx)?;
        // Epoch fence: a reaped transaction must not record new accesses
        // (its slot's detail may already belong to the reap in progress).
        // Slow path only — the cache hit above stays latch- and fence-free.
        self.check_fate(tx)?;
        crate::latch_probe::count_latch();
        self.slots[tx.slot]
            .detail
            .lock()
            .record(state, StateStatus::Active);
        if let Some(e) = entry {
            e.access_tag.store(id, Ordering::Release);
        }
        Ok(())
    }

    /// The states accessed by `tx` so far.
    pub fn accessed_states(&self, tx: &Tx) -> Result<Vec<(StateId, StateStatus)>> {
        self.check_owner(tx)?;
        Ok(self.slots[tx.slot].detail.lock().states.clone())
    }

    /// Visits the states accessed by `tx` so far, in access order, under
    /// the slot's detail lock — the allocation-free form of
    /// [`accessed_states`](Self::accessed_states).  `visit` must not call
    /// back into this context for `tx`.
    pub fn for_each_accessed_state(&self, tx: &Tx, mut visit: impl FnMut(StateId)) -> Result<()> {
        self.check_owner(tx)?;
        for (state, _) in &self.slots[tx.slot].detail.lock().states {
            visit(*state);
        }
        Ok(())
    }

    /// Records the access *and* resolves the snapshot timestamp `tx` must
    /// use when reading `state` — the combined per-read entry point of the
    /// table layer.
    ///
    /// Fast path: once `tx` has pinned `state`, the snapshot is served from
    /// the state's entry in the slot's snapshot cache — three atomic loads,
    /// no mutex, no registry lock — whichever states the transaction
    /// touched in between.  This is sound because the snapshot for a given
    /// state never changes within a transaction: the first access pins
    /// *all* of the state's groups, and pins are only ever created, never
    /// updated.
    pub fn access_snapshot(&self, tx: &Tx, state: StateId) -> Result<Timestamp> {
        let id = tx.id.as_u64();
        let entry = self.cache_entry(tx, state);
        if let Some(e) = entry {
            if e.pin_tag.load(Ordering::Acquire) == id {
                let ts = e.pin_ts.load(Ordering::Acquire);
                if self.is_occupant(tx) {
                    return Ok(ts);
                }
            }
        }
        // Slow path: record the access, pin the state's groups, cache.
        self.check_owner(tx)?;
        // Epoch fence (slow path only; cache hits stay latch-free): a
        // reaped transaction must not pin new groups — the reaper is
        // concurrently *unpinning* them to release the snapshot floor.
        self.check_fate(tx)?;
        crate::latch_probe::count_latch();
        let mut detail = self.slots[tx.slot].detail.lock();
        detail.record(state, StateStatus::Active);
        let result = self.pin_groups_locked(&mut detail, tx, state);
        // Publish the entry: timestamp first, then the tags (the hit loads
        // them in the opposite order; see module docs).
        if let Some(e) = entry {
            e.pin_ts.store(result, Ordering::Release);
            e.pin_tag.store(id, Ordering::Release);
            e.access_tag.store(id, Ordering::Release);
        }
        Ok(result)
    }

    /// Returns (pinning it on first use) the snapshot timestamp `tx` must use
    /// when reading `state`, without recording the access.
    ///
    /// The first read of a group pins `ReadCTS = LastCTS(group)`.  If the
    /// state belongs to several groups, or the transaction has already pinned
    /// other groups whose snapshot is older, the *older* timestamp wins — the
    /// paper's overlap rule ("the older version must be read to guarantee
    /// consistency").
    pub fn read_snapshot(&self, tx: &Tx, state: StateId) -> Result<Timestamp> {
        self.check_owner(tx)?;
        let mut detail = self.slots[tx.slot].detail.lock();
        Ok(self.pin_groups_locked(&mut detail, tx, state))
    }

    /// Pin resolution shared by [`read_snapshot`](Self::read_snapshot) and
    /// [`access_snapshot`](Self::access_snapshot); caller holds the slot's
    /// detail mutex.
    fn pin_groups_locked(&self, detail: &mut TxDetail, tx: &Tx, state: StateId) -> Timestamp {
        let mut result = u64::MAX;
        let mut grouped = false;
        self.for_each_group_of_state(state, |g, last_cts| {
            grouped = true;
            if let Some((_, ts)) = detail.read_cts.iter().find(|(pg, _)| *pg == g) {
                result = result.min(*ts);
            } else {
                detail.read_cts.push((g, last_cts));
                self.lower_snapshot_floor(tx.slot, last_cts);
                result = result.min(last_cts);
            }
        });
        if grouped {
            // Overlap rule: never read newer than a snapshot already pinned
            // by this transaction for another group sharing a state.
            return result;
        }
        // A state outside any group reads the freshest committed data but
        // still pins a per-transaction snapshot so repeated reads agree.
        if let Some((_, ts)) = detail.read_cts.iter().find(|(g, _)| g.0 == u32::MAX) {
            return *ts;
        }
        let ts = self.clock.now();
        detail.read_cts.push((GroupId(u32::MAX), ts));
        self.lower_snapshot_floor(tx.slot, ts);
        ts
    }

    /// The pinned read snapshots of `tx` (group, ReadCTS).
    pub fn pinned_snapshots(&self, tx: &Tx) -> Result<Vec<(GroupId, Timestamp)>> {
        self.check_owner(tx)?;
        Ok(self.slots[tx.slot].detail.lock().read_cts.clone())
    }

    /// The oldest timestamp `tx` may have observed: the minimum of its begin
    /// timestamp and every snapshot it has pinned.
    ///
    /// Optimistic validation (MVCC First-Committer-Wins, BOCC backward
    /// validation) must compare committed versions against this floor rather
    /// than the begin timestamp alone — a transaction can begin *after* a
    /// concurrent commit drew its timestamp yet still pin the pre-commit
    /// snapshot, and validating against the begin timestamp would then let a
    /// stale read-modify-write commit (a lost update).
    pub fn snapshot_floor(&self, tx: &Tx) -> Result<Timestamp> {
        self.check_owner(tx)?;
        Ok(self.slots[tx.slot]
            .snapshot_floor
            .load(Ordering::Acquire)
            .min(tx.begin_ts()))
    }

    /// The oldest timestamp `tx` may have observed *through `state`*: the
    /// minimum of its begin timestamp and the snapshots it pinned for the
    /// groups `state` belongs to.
    ///
    /// This is the validation floor a per-state concurrency check must use.
    /// The transaction-global [`snapshot_floor`](Self::snapshot_floor) would
    /// be overly conservative for cross-group transactions: a stale pin on a
    /// quiescent group would make every update in a busy, unrelated group
    /// look conflicting, and retries would spuriously abort forever.
    pub fn state_snapshot_floor(&self, tx: &Tx, state: StateId) -> Result<Timestamp> {
        self.check_owner(tx)?;
        let detail = self.slots[tx.slot].detail.lock();
        let mut floor = tx.begin_ts();
        let mut grouped = false;
        self.for_each_group_of_state(state, |g, _| {
            grouped = true;
            if let Some((_, ts)) = detail.read_cts.iter().find(|(pg, _)| *pg == g) {
                floor = floor.min(*ts);
            }
        });
        if !grouped {
            // Ungrouped states pin under the sentinel group id.
            if let Some((_, ts)) = detail.read_cts.iter().find(|(g, _)| g.0 == u32::MAX) {
                floor = floor.min(*ts);
            }
        }
        Ok(floor)
    }

    /// Lowers a slot's snapshot floor to `ts` and *announces* it: the
    /// `SeqCst` fence pairs with the garbage collector's reclaim fence so
    /// that either the GC's floor rescan observes this pin, or this
    /// transaction's subsequent version scans observe the GC's write window
    /// (see the `mvcc.rs` module docs).
    fn lower_snapshot_floor(&self, slot: usize, ts: Timestamp) {
        self.slots[slot]
            .snapshot_floor
            .fetch_min(ts, Ordering::AcqRel);
        fence(Ordering::SeqCst);
        self.active_gen.fetch_add(1, Ordering::Release);
    }

    // ------------------------------------------------------------------
    // Consistency-protocol flags (§4.3)
    // ------------------------------------------------------------------

    /// Flags `state` as ready to commit within `tx`.
    ///
    /// Returns [`CommitVote::Coordinator`] when this call set the *last*
    /// missing flag — the caller then performs the global commit.  Returns
    /// [`CommitVote::Aborted`] if any state has flagged abort.
    pub fn flag_commit(&self, tx: &Tx, state: StateId) -> Result<CommitVote> {
        self.check_owner(tx)?;
        let mut detail = self.slots[tx.slot].detail.lock();
        // Record this state's vote first so that "all states have decided"
        // can be observed even when the overall outcome is an abort.
        let i = detail.record(state, StateStatus::Active);
        if detail.states[i].1 != StateStatus::Abort {
            detail.states[i].1 = StateStatus::Commit;
        }
        if detail
            .states
            .iter()
            .any(|(_, st)| *st == StateStatus::Abort)
        {
            return Ok(CommitVote::Aborted);
        }
        if detail
            .states
            .iter()
            .all(|(_, st)| *st == StateStatus::Commit)
        {
            Ok(CommitVote::Coordinator)
        } else {
            Ok(CommitVote::Pending)
        }
    }

    /// Number of accessed states that have not yet voted commit or abort.
    pub fn undecided_count(&self, tx: &Tx) -> Result<usize> {
        self.check_owner(tx)?;
        Ok(self.slots[tx.slot]
            .detail
            .lock()
            .states
            .iter()
            .filter(|(_, st)| *st == StateStatus::Active)
            .count())
    }

    /// Flags `state` as aborted within `tx`; the whole transaction must then
    /// be rolled back globally.
    pub fn flag_abort(&self, tx: &Tx, state: StateId) -> Result<()> {
        self.check_owner(tx)?;
        let mut detail = self.slots[tx.slot].detail.lock();
        let i = detail.record(state, StateStatus::Abort);
        detail.states[i].1 = StateStatus::Abort;
        Ok(())
    }

    /// True if any state of `tx` has voted abort.
    pub fn is_abort_flagged(&self, tx: &Tx) -> Result<bool> {
        self.check_owner(tx)?;
        Ok(self.slots[tx.slot]
            .detail
            .lock()
            .states
            .iter()
            .any(|(_, st)| *st == StateStatus::Abort))
    }
}

#[cfg(test)]
thread_local! {
    /// Test-only pause point, run by a reaper on this thread between its
    /// winning fate CAS and its `last_reaped_epoch` store.
    pub(crate) static AFTER_REAP_CAS: std::cell::RefCell<Option<Box<dyn FnMut()>>> =
        const { std::cell::RefCell::new(None) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn ctx_with_two_states() -> (StateContext, StateId, StateId, GroupId) {
        let ctx = StateContext::new();
        let a = ctx.register_state("a");
        let b = ctx.register_state("b");
        let g = ctx.register_group(&[a, b]).unwrap();
        (ctx, a, b, g)
    }

    #[test]
    fn state_and_group_registration() {
        let (ctx, a, b, g) = ctx_with_two_states();
        assert_eq!(ctx.state_count(), 2);
        assert_eq!(ctx.group_count(), 1);
        assert_eq!(ctx.state_info(a).unwrap().name, "a");
        assert_eq!(ctx.group_states(g).unwrap(), vec![a, b]);
        assert_eq!(ctx.groups_of_state(b), vec![g]);
        assert!(ctx.state_info(StateId(99)).is_err());
        assert!(ctx.group_states(GroupId(99)).is_err());
        assert!(ctx.register_group(&[StateId(77)]).is_err());
        assert_eq!(ctx.last_cts(g).unwrap(), EPOCH_TS);
    }

    #[test]
    fn begin_finish_and_slot_reuse() {
        let (ctx, ..) = ctx_with_two_states();
        let t1 = ctx.begin(false).unwrap();
        let t2 = ctx.begin(false).unwrap();
        assert_ne!(t1.id(), t2.id());
        assert_ne!(t1.slot(), t2.slot());
        assert_eq!(ctx.active_count(), 2);
        ctx.finish(&t1);
        assert_eq!(ctx.active_count(), 1);
        // The slot can be reused by a new transaction.
        let t3 = ctx.begin(true).unwrap();
        assert!(t3.is_read_only());
        assert_eq!(ctx.active_count(), 2);
        // Finishing an already-finished transaction is harmless, even after
        // the slot has been reused.
        ctx.finish(&t1);
        assert_eq!(ctx.active_count(), 2);
        ctx.finish(&t2);
        ctx.finish(&t3);
        assert_eq!(ctx.active_count(), 0);
    }

    #[test]
    fn lease_config_round_trips_and_defaults_off() {
        let ctx = StateContext::new();
        assert_eq!(ctx.transaction_lease(), None);
        ctx.set_transaction_lease(Some(Duration::from_millis(250)));
        assert_eq!(ctx.transaction_lease(), Some(Duration::from_millis(250)));
        ctx.set_transaction_lease(None);
        assert_eq!(ctx.transaction_lease(), None);
        // A sub-nanosecond-rounding lease still counts as enabled.
        ctx.set_transaction_lease(Some(Duration::from_nanos(0)));
        assert!(ctx.transaction_lease().is_some());
    }

    #[test]
    fn fate_claim_parity_exactly_one_winner() {
        let (ctx, ..) = ctx_with_two_states();
        let tx = ctx.begin(false).unwrap();
        // Epochs captured at begin are odd: active and undecided.
        assert_eq!(tx.epoch() & 1, 1);
        assert!(ctx.check_fate(&tx).is_ok());
        // First claim wins; every later claim (double commit/abort) loses.
        assert_eq!(ctx.claim_fate(&tx), FateClaim::Won);
        assert_eq!(ctx.claim_fate(&tx), FateClaim::Gone);
        assert!(matches!(
            ctx.check_fate(&tx),
            Err(TspError::UnknownTxn { .. })
        ));
        ctx.finish(&tx);
        // The next occupant of the slot gets a fresh odd epoch.
        let t2 = ctx.begin(false).unwrap();
        if t2.slot() == tx.slot() {
            assert!(t2.epoch() > tx.epoch());
            assert_eq!(t2.epoch() & 1, 1);
        }
        ctx.finish(&t2);
    }

    #[test]
    fn expired_candidates_skip_decided_and_live_leases() {
        let (ctx, ..) = ctx_with_two_states();
        ctx.set_transaction_lease(Some(Duration::from_millis(1)));
        let zombie = ctx.begin(false).unwrap();
        let deciding = ctx.begin(false).unwrap();
        let fresh_lease = Duration::from_secs(600);
        ctx.set_transaction_lease(Some(fresh_lease));
        let live = ctx.begin(false).unwrap();
        ctx.set_transaction_lease(Some(Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(20));
        // `deciding`'s owner claimed its fate — even epoch, not reapable.
        assert_eq!(ctx.claim_fate(&deciding), FateClaim::Won);
        let candidates = ctx.expired_candidates();
        assert_eq!(candidates.len(), 1);
        let (slot, txn, epoch) = candidates[0];
        assert_eq!(txn, zombie.id());
        // An even (decided) epoch is rejected defensively.
        assert!(ctx
            .claim_reap(deciding.slot(), deciding.id(), deciding.epoch() + 1)
            .is_none());
        // The real candidate is claimed exactly once.
        let reaped = ctx
            .claim_reap(slot, txn, epoch)
            .expect("zombie is reapable");
        assert_eq!(reaped.id(), zombie.id());
        assert!(ctx.claim_reap(slot, txn, epoch).is_none(), "double reap");
        // The reaped owner's late checks surface LeaseExpired.
        assert!(matches!(
            ctx.check_fate(&zombie),
            Err(TspError::LeaseExpired { .. })
        ));
        ctx.finish(&reaped);
        assert!(matches!(
            ctx.check_owner(&zombie),
            Err(TspError::LeaseExpired { .. })
        ));
        ctx.finish(&deciding);
        ctx.finish(&live);
        let _ = fresh_lease;
    }

    #[test]
    fn slot_capacity_is_bounded() {
        let ctx = StateContext::new();
        let txs: Vec<Tx> = (0..MAX_ACTIVE_TXNS)
            .map(|_| ctx.begin(false).unwrap())
            .collect();
        assert_eq!(ctx.active_count(), MAX_ACTIVE_TXNS);
        let err = ctx.begin(false).unwrap_err();
        assert!(matches!(err, TspError::CapacityExhausted { .. }));
        for t in &txs {
            ctx.finish(t);
        }
        assert_eq!(ctx.active_count(), 0);
    }

    #[test]
    fn with_capacity_supports_more_than_one_bitmap_word() {
        let ctx = StateContext::with_capacity(130);
        assert_eq!(ctx.max_active_txns(), 130);
        let txs: Vec<Tx> = (0..130).map(|_| ctx.begin(false).unwrap()).collect();
        assert_eq!(ctx.active_count(), 130);
        // Slots are unique even across bitmap words.
        let mut slots: Vec<usize> = txs.iter().map(|t| t.slot()).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 130);
        let err = ctx.begin(false).unwrap_err();
        assert!(matches!(err, TspError::CapacityExhausted { .. }));
        // Free one high slot and claim it again.
        ctx.finish(&txs[129]);
        assert_eq!(ctx.active_count(), 129);
        let t = ctx.begin(true).unwrap();
        assert_eq!(ctx.active_count(), 130);
        ctx.finish(&t);
        for t in &txs[..129] {
            ctx.finish(t);
        }
        assert_eq!(ctx.active_count(), 0);
        assert!(!ctx
            .active_transactions()
            .iter()
            .any(|(id, _)| id.as_u64() == 0));
    }

    #[test]
    fn snapshot_floor_tracks_pins_and_begin() {
        let (ctx, a, _, g) = ctx_with_two_states();
        ctx.publish_group_commit(g, 10).unwrap();
        while ctx.clock().now() < 50 {
            ctx.clock().tick();
        }
        let t = ctx.begin(true).unwrap();
        assert_eq!(ctx.snapshot_floor(&t).unwrap(), t.begin_ts());
        ctx.read_snapshot(&t, a).unwrap(); // pins 10
        assert_eq!(ctx.snapshot_floor(&t).unwrap(), 10);
        ctx.finish(&t);
        assert!(ctx.snapshot_floor(&t).is_err(), "finished txn rejected");
    }

    #[test]
    fn operations_on_finished_txn_are_rejected() {
        let (ctx, a, ..) = ctx_with_two_states();
        let t = ctx.begin(false).unwrap();
        ctx.finish(&t);
        assert!(ctx.record_access(&t, a).is_err());
        assert!(ctx.read_snapshot(&t, a).is_err());
        assert!(ctx.access_snapshot(&t, a).is_err());
        assert!(ctx.flag_commit(&t, a).is_err());
        assert!(ctx.flag_abort(&t, a).is_err());
        assert!(ctx.accessed_states(&t).is_err());
    }

    #[test]
    fn read_snapshot_pins_group_last_cts() {
        let (ctx, a, b, g) = ctx_with_two_states();
        let t = ctx.begin(true).unwrap();
        let s1 = ctx.read_snapshot(&t, a).unwrap();
        assert_eq!(s1, EPOCH_TS);
        // A commit published *after* the pin must not change the snapshot.
        ctx.publish_group_commit(g, 100).unwrap();
        assert_eq!(ctx.read_snapshot(&t, a).unwrap(), s1);
        assert_eq!(
            ctx.read_snapshot(&t, b).unwrap(),
            s1,
            "same group → same pin"
        );
        ctx.finish(&t);
        // A new transaction sees the new LastCTS.
        let t2 = ctx.begin(true).unwrap();
        assert_eq!(ctx.read_snapshot(&t2, a).unwrap(), 100);
        ctx.finish(&t2);
    }

    #[test]
    fn access_snapshot_combines_record_and_pin() {
        let (ctx, a, b, g) = ctx_with_two_states();
        ctx.publish_group_commit(g, 7).unwrap();
        let t = ctx.begin(false).unwrap();
        // First call pins and records; the repeat is served by the cache.
        assert_eq!(ctx.access_snapshot(&t, a).unwrap(), 7);
        ctx.publish_group_commit(g, 99).unwrap();
        assert_eq!(ctx.access_snapshot(&t, a).unwrap(), 7, "pin is stable");
        // The access was recorded for the commit protocol.
        let states = ctx.accessed_states(&t).unwrap();
        assert_eq!(states, vec![(a, StateStatus::Active)]);
        // Alternating states hits each state's own cache entry: b shares
        // the group, so it sees the same pinned snapshot.
        assert_eq!(ctx.access_snapshot(&t, b).unwrap(), 7);
        assert_eq!(ctx.access_snapshot(&t, a).unwrap(), 7);
        assert_eq!(ctx.accessed_states(&t).unwrap().len(), 2);
        ctx.finish(&t);
    }

    #[test]
    fn stale_handle_after_slot_reuse_gets_unknown_txn() {
        // One slot, so every transaction reuses the previous one's slot and
        // snapshot-cache entries.
        let ctx = StateContext::with_capacity(1);
        let a = ctx.register_state("a");
        let g = ctx.register_group(&[a]).unwrap();
        let mut prev: Option<(Tx, Timestamp)> = None;
        for round in 0..100u64 {
            ctx.publish_group_commit(g, 10 + round).unwrap();
            let t = ctx.begin(true).unwrap();
            assert_eq!(ctx.access_snapshot(&t, a).unwrap(), 10 + round);
            if let Some((old, old_pin)) = &prev {
                assert_eq!(old.slot(), t.slot());
                assert_ne!(*old_pin, 10 + round);
                // The old handle's cache entry was overwritten by `t`; it
                // must neither hit nor return `t`'s pin.
                assert!(matches!(
                    ctx.access_snapshot(old, a),
                    Err(TspError::UnknownTxn { .. })
                ));
                assert!(matches!(
                    ctx.record_access(old, a),
                    Err(TspError::UnknownTxn { .. })
                ));
            }
            // A repeat through the live handle is still a hit on its own pin.
            assert_eq!(ctx.access_snapshot(&t, a).unwrap(), 10 + round);
            ctx.finish(&t);
            // Finished, not yet reused: its own warm entry must not hit.
            assert!(matches!(
                ctx.access_snapshot(&t, a),
                Err(TspError::UnknownTxn { .. })
            ));
            prev = Some((t, 10 + round));
        }
    }

    #[test]
    fn reaped_transaction_misses_its_warm_cache_with_lease_expired() {
        let (ctx, a, b, g) = ctx_with_two_states();
        ctx.publish_group_commit(g, 7).unwrap();
        ctx.set_transaction_lease(Some(Duration::from_millis(1)));
        let zombie = ctx.begin(false).unwrap();
        // Warm both the pin and the access entries.
        assert_eq!(ctx.access_snapshot(&zombie, a).unwrap(), 7);
        ctx.record_access(&zombie, b).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let (slot, txn, epoch) = ctx.expired_candidates()[0];
        let reaped = ctx
            .claim_reap(slot, txn, epoch)
            .expect("zombie is reapable");
        ctx.finish(&reaped);
        assert!(matches!(
            ctx.access_snapshot(&zombie, a),
            Err(TspError::LeaseExpired { .. })
        ));
        assert!(matches!(
            ctx.record_access(&zombie, b),
            Err(TspError::LeaseExpired { .. })
        ));
    }

    #[test]
    fn threads_sharing_one_tx_both_read_the_pinned_snapshot() {
        use std::sync::Barrier;
        let (ctx, a, b, g) = ctx_with_two_states();
        ctx.publish_group_commit(g, 7).unwrap();
        let ctx = Arc::new(ctx);
        let tx = ctx.begin(true).unwrap();
        let stop = AtomicBool::new(false);
        let start = Barrier::new(3);
        let pins: Vec<Vec<Timestamp>> = std::thread::scope(|s| {
            // Keeps advancing LastCTS, so a pin taken from a fresh group
            // lookup instead of the transaction's pin would show up.
            s.spawn(|| {
                start.wait();
                let mut cts = 8;
                while !stop.load(Ordering::Relaxed) {
                    ctx.publish_group_commit(g, cts).unwrap();
                    cts += 1;
                }
            });
            let readers: Vec<_> = [a, b]
                .into_iter()
                .map(|state| {
                    let (ctx, tx, start) = (&ctx, &tx, &start);
                    s.spawn(move || {
                        start.wait();
                        (0..20_000)
                            .map(|_| ctx.access_snapshot(tx, state).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let pins = readers.into_iter().map(|h| h.join().unwrap()).collect();
            stop.store(true, Ordering::Relaxed);
            pins
        });
        let pinned = ctx.pinned_snapshots(&tx).unwrap();
        assert_eq!(pinned.len(), 1);
        let expected = pinned[0].1;
        for per_state in &pins {
            assert!(per_state.iter().all(|ts| *ts == expected));
        }
        assert_eq!(ctx.accessed_states(&tx).unwrap().len(), 2);
        ctx.finish(&tx);
    }

    #[test]
    fn overlap_rule_uses_older_snapshot() {
        let ctx = StateContext::new();
        let a = ctx.register_state("a");
        let b = ctx.register_state("b");
        let c = ctx.register_state("c");
        let g1 = ctx.register_group(&[a, b]).unwrap();
        let g2 = ctx.register_group(&[b, c]).unwrap();
        ctx.publish_group_commit(g1, 50).unwrap();
        ctx.publish_group_commit(g2, 80).unwrap();
        let t = ctx.begin(true).unwrap();
        // First read touches only g1.
        assert_eq!(ctx.read_snapshot(&t, a).unwrap(), 50);
        // b belongs to both groups: the older pinned snapshot (50) wins even
        // though g2's LastCTS is 80.
        assert_eq!(ctx.read_snapshot(&t, b).unwrap(), 50);
        // c belongs only to g2, which has now been pinned at 80 by the read
        // of b; reading c alone reports g2's pin.
        assert_eq!(ctx.read_snapshot(&t, c).unwrap(), 80);
        let pins = ctx.pinned_snapshots(&t).unwrap();
        assert_eq!(pins.len(), 2);
        ctx.finish(&t);
    }

    #[test]
    fn ungrouped_state_pins_current_time() {
        let ctx = StateContext::new();
        let lone = ctx.register_state("lone");
        let t = ctx.begin(true).unwrap();
        let s1 = ctx.read_snapshot(&t, lone).unwrap();
        // Snapshot is stable across repeated reads even as the clock advances.
        ctx.clock().tick();
        assert_eq!(ctx.read_snapshot(&t, lone).unwrap(), s1);
        assert_eq!(ctx.access_snapshot(&t, lone).unwrap(), s1);
        ctx.finish(&t);
    }

    #[test]
    fn oldest_active_tracks_pinned_snapshots() {
        let (ctx, a, _, g) = ctx_with_two_states();
        ctx.publish_group_commit(g, 10).unwrap();
        // No active transactions: oldest == now.
        assert_eq!(ctx.oldest_active(), ctx.clock().now());
        // Advance the clock well past the published LastCTS so that a pinned
        // snapshot (10) is genuinely older than any begin timestamp.
        while ctx.clock().now() < 50 {
            ctx.clock().tick();
        }
        let t1 = ctx.begin(true).unwrap();
        assert_eq!(ctx.oldest_active(), t1.begin_ts());
        ctx.read_snapshot(&t1, a).unwrap(); // pins 10
        let t2 = ctx.begin(false).unwrap();
        let oldest = ctx.oldest_active();
        assert_eq!(oldest, 10, "pinned snapshot (10) is older than t2's begin");
        assert_eq!(ctx.oldest_active_fresh(), 10);
        ctx.finish(&t1);
        assert_eq!(ctx.oldest_active(), t2.begin_ts());
        ctx.finish(&t2);
    }

    #[test]
    fn oldest_active_cache_follows_population_changes() {
        let (ctx, ..) = ctx_with_two_states();
        let t1 = ctx.begin(false).unwrap();
        // Repeated calls with an unchanged population hit the cache.
        let o1 = ctx.oldest_active();
        assert_eq!(ctx.oldest_active(), o1);
        assert_eq!(o1, t1.begin_ts());
        // Any begin/finish invalidates it.
        let t2 = ctx.begin(false).unwrap();
        assert_eq!(ctx.oldest_active(), t1.begin_ts());
        ctx.finish(&t1);
        assert_eq!(ctx.oldest_active(), t2.begin_ts());
        ctx.finish(&t2);
        assert_eq!(ctx.oldest_active(), ctx.clock().now());
    }

    #[test]
    fn publish_group_commit_is_monotonic() {
        let (ctx, _, _, g) = ctx_with_two_states();
        ctx.publish_group_commit(g, 42).unwrap();
        ctx.publish_group_commit(g, 17).unwrap(); // stale publish must not regress
        assert_eq!(ctx.last_cts(g).unwrap(), 42);
        ctx.restore_group_cts(g, 5).unwrap(); // explicit restore may regress
        assert_eq!(ctx.last_cts(g).unwrap(), 5);
        assert!(ctx.publish_group_commit(GroupId(9), 1).is_err());
    }

    #[test]
    fn commit_votes_and_coordinator_election() {
        let (ctx, a, b, _) = ctx_with_two_states();
        let t = ctx.begin(false).unwrap();
        ctx.record_access(&t, a).unwrap();
        ctx.record_access(&t, b).unwrap();
        // First state votes commit → still pending.
        assert_eq!(ctx.flag_commit(&t, a).unwrap(), CommitVote::Pending);
        // Second (last) state votes commit → caller becomes coordinator.
        assert_eq!(ctx.flag_commit(&t, b).unwrap(), CommitVote::Coordinator);
        ctx.finish(&t);
    }

    #[test]
    fn abort_flag_wins_over_commit_flags() {
        let (ctx, a, b, _) = ctx_with_two_states();
        let t = ctx.begin(false).unwrap();
        ctx.record_access(&t, a).unwrap();
        ctx.record_access(&t, b).unwrap();
        ctx.flag_abort(&t, b).unwrap();
        assert!(ctx.is_abort_flagged(&t).unwrap());
        assert_eq!(ctx.flag_commit(&t, a).unwrap(), CommitVote::Aborted);
        ctx.finish(&t);
    }

    #[test]
    fn flag_commit_on_unaccessed_state_records_it() {
        let (ctx, a, ..) = ctx_with_two_states();
        let t = ctx.begin(false).unwrap();
        // Flagging commit on a state never explicitly recorded still works
        // (single-state auto-commit path) and elects the coordinator.
        assert_eq!(ctx.flag_commit(&t, a).unwrap(), CommitVote::Coordinator);
        let states = ctx.accessed_states(&t).unwrap();
        assert_eq!(states, vec![(a, StateStatus::Commit)]);
        ctx.finish(&t);
    }

    #[test]
    fn many_states_use_the_indexed_lookup() {
        // More states than LINEAR_SCAN_MAX: exercises the hash-indexed
        // lookup path and keeps duplicate recording correct.
        let ctx = StateContext::new();
        let states: Vec<StateId> = (0..40)
            .map(|i| ctx.register_state(format!("s{i}")))
            .collect();
        let t = ctx.begin(false).unwrap();
        for round in 0..3 {
            for s in &states {
                ctx.record_access(&t, *s).unwrap();
                let _ = round;
            }
        }
        let recorded = ctx.accessed_states(&t).unwrap();
        assert_eq!(recorded.len(), 40, "each state recorded exactly once");
        // Voting across the large list still elects exactly one coordinator.
        let mut coordinator = 0;
        for s in &states {
            if ctx.flag_commit(&t, *s).unwrap() == CommitVote::Coordinator {
                coordinator += 1;
            }
        }
        assert_eq!(coordinator, 1);
        ctx.finish(&t);
    }

    #[test]
    fn concurrent_begin_finish_has_no_duplicate_slots() {
        let ctx = Arc::new(StateContext::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let ctx = Arc::clone(&ctx);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let t = ctx.begin(false).unwrap();
                        // Slot must be exclusively ours while active.
                        ctx.record_access(&t, StateId(0)).ok();
                        ctx.finish(&t);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ctx.active_count(), 0);
        assert_eq!(ctx.telemetry_snapshot().stats.begun, 4000);
    }

    /// Satellite: threaded slot churn across a multi-word (>64 slot)
    /// context.  Asserts that slots never leak and that `oldest_active`
    /// never exceeds the floor of a continuously live transaction.
    #[test]
    fn concurrent_slot_churn_multiword_respects_floors() {
        const CAPACITY: usize = 130;
        const THREADS: usize = 8;
        const PER_THREAD: usize = 12; // 8 × 12 + holder = 97 concurrent > 64
        let ctx = Arc::new(StateContext::with_capacity(CAPACITY));
        let a = ctx.register_state("a");
        let g = ctx.register_group(&[a]).unwrap();
        ctx.publish_group_commit(g, 5).unwrap();
        while ctx.clock().now() < 50 {
            ctx.clock().tick();
        }
        // The holder pins snapshot 5 and stays alive for the whole run.
        let holder = ctx.begin(true).unwrap();
        assert_eq!(ctx.read_snapshot(&holder, a).unwrap(), 5);
        let failed = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let ctx = Arc::clone(&ctx);
                let failed = Arc::clone(&failed);
                std::thread::spawn(move || {
                    for round in 0..150 {
                        let txs: Vec<Tx> = (0..PER_THREAD)
                            .map(|_| ctx.begin(round % 2 == 0).unwrap())
                            .collect();
                        for tx in &txs {
                            assert!(tx.slot() < CAPACITY);
                            ctx.access_snapshot(tx, a).unwrap();
                        }
                        // The holder is alive with floor 5: no oldest_active
                        // result — cached or fresh — may ever exceed it.
                        if ctx.oldest_active() > 5 || ctx.oldest_active_fresh() > 5 {
                            failed.store(true, Ordering::Relaxed);
                        }
                        for tx in &txs {
                            ctx.finish(tx);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            !failed.load(Ordering::Relaxed),
            "oldest_active exceeded a live transaction's floor"
        );
        ctx.finish(&holder);
        // No slot leaked: the table drains completely and can be refilled.
        assert_eq!(ctx.active_count(), 0);
        let refill: Vec<Tx> = (0..CAPACITY).map(|_| ctx.begin(false).unwrap()).collect();
        assert_eq!(ctx.active_count(), CAPACITY);
        for t in &refill {
            ctx.finish(t);
        }
        assert_eq!(ctx.active_count(), 0);
    }

    #[test]
    fn durability_queue_depth_flows_into_stats() {
        use tsp_storage::{BTreeBackend, StorageBackend, WriteBatch};
        let ctx = StateContext::new();
        let backend: Arc<dyn StorageBackend> = Arc::new(BTreeBackend::new());
        let writer = ctx.durability().writer_for(StateId(0), &backend);
        assert_eq!(writer.capacity(), tsp_storage::DEFAULT_QUEUE_CAPACITY);
        let mut batch = WriteBatch::new();
        batch.put(vec![1], vec![1]);
        writer.enqueue(5, batch).unwrap();
        ctx.durability().flush().unwrap();
        // Fully drained: the gauge (shared with Telemetry) is back to zero.
        assert_eq!(ctx.durability().queue_depth(), 0);
        assert_eq!(ctx.telemetry_snapshot().stats.persist_queue_depth, 0);
        assert!(ctx.durability().durable_cts().unwrap() >= 5);
    }
}
