//! The transaction manager: the consistency protocol of §4.3 driving the
//! per-table concurrency protocols.
//!
//! A continuous query that updates several states must make those updates
//! visible together.  The manager implements the paper's "modified version of
//! the 2-Phase-Commit protocol":
//!
//! 1. every operator (or the caller of [`TransactionManager::commit`]) flags
//!    its state as ready to commit,
//! 2. the participant that sets the *last* flag becomes the coordinator,
//! 3. the coordinator validates every participant
//!    ([`TxParticipant::validate`]), draws one commit timestamp, applies all
//!    write sets, hands them off for durability, and finally publishes the
//!    group's `LastCTS` — the single atomic store that makes the whole
//!    multi-state transaction visible,
//! 4. if any state flags abort, the transaction is rolled back globally,
//! 5. every participant is told how the transaction ended
//!    ([`TxParticipant::finish`]).
//!
//! The phase sequence — validate → apply → durable hand-off → publish →
//! finish, with the undo rule of each step — is written once, as the
//! helpers after [`TransactionManager`]'s impl (`apply_all`,
//! `hand_off_durable`, `finish_all`).
//!
//! Readers coordinate purely through `LastCTS`/`ReadCTS` in the
//! [`StateContext`]; they never take part in the 2PC and never block.
//!
//! # The commit path
//!
//! **Stage 1 — the group commit locks.**  Every write commit takes one
//! path: collect the transaction's commit-lock groups (the groups of the
//! states it wrote, plus the groups of every participant whose validation
//! certifies reads under the lock — SSI and BOCC), lock them in ascending
//! group order, run the phases, publish `LastCTS` for the groups it wrote,
//! unlock.  Each group's one lock lives in the context's group registry
//! beside its `LastCTS`, so a group has exactly one lock however it was
//! registered, and the ascending order keeps concurrent committers
//! deadlock-free.  In the paper's model one stream query writes a group's
//! states, so a group has one committer and its lock is uncontended.
//!
//! **Stage 2 — pipelined persistence.**  [`TxParticipant::apply`] installs
//! versions in memory only; [`TxParticipant::apply_durable`] hands the
//! encoded batch to the per-backend asynchronous
//! [`BatchWriter`](tsp_storage::BatchWriter) (a queue push inside the
//! lock, preserving commit order), which coalesces bursts into one
//! `write_batch` — one WAL record, one fsync — and advances the
//! `DurableCTS` watermark.  [`TransactionManager::commit`] returns when the
//! transaction is *visible*; [`TransactionManager::commit_durable`] /
//! [`TransactionManager::flush`] additionally wait until it is *durable*.
//! Recovery replays exactly up to `DurableCTS` (the `last_cts` marker
//! travels in the same atomic batch), so a crash loses at most a suffix of
//! unflushed commits, never a torn prefix.  Asynchronous persistence is
//! opt-in per context ([`StateContext::enable_async_persistence`]); the
//! default keeps durability synchronous inside the lock, where the two
//! watermarks coincide.

use crate::context::{CommitVote, FateClaim, StateContext, Tx};
use crate::table::common::{attach_group_redo, TxParticipant};
use crate::telemetry::{AbortReason, Counter};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsp_common::recycle::{recycle_vec, KEEP_ENTRIES};
use tsp_common::{GroupId, Result, StateId, Timestamp, TspError};

/// The participants of one commit: those that buffered writes first, then
/// the ones it only read, each part in state-id order.
type Participants = Vec<Arc<dyn TxParticipant>>;

/// The commit locks of one commit: each group once, in ascending order,
/// with whether the commit wrote it.
type LockSet = Vec<(GroupId, bool)>;

/// Outcome reported to an operator that flagged its state (operator-style
/// commit protocol, §4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlagOutcome {
    /// Other states still have to report; nothing was decided yet.
    Pending,
    /// This caller was elected coordinator and the global commit succeeded.
    /// Carries the commit timestamp (`None` for read-only transactions).
    Committed(Option<Timestamp>),
    /// The transaction was rolled back globally.
    RolledBack,
}

/// Coordinates transactions across all registered transactional states.
pub struct TransactionManager {
    ctx: Arc<StateContext>,
    participants: RwLock<HashMap<StateId, Arc<dyn TxParticipant>>>,
    /// Per transaction slot, the emptied participant list of the slot's
    /// last commit, refilled by its next one.
    lists: Box<[Mutex<Participants>]>,
    /// Per transaction slot, the emptied lock set of the slot's last write
    /// commit, refilled by its next one.
    lock_sets: Box<[Mutex<LockSet>]>,
}

impl TransactionManager {
    /// Creates a manager over `ctx`.
    ///
    /// Also installs this manager's [`reap_expired`](Self::reap_expired) as
    /// the context's reap hook, so the admission slow path can free wedged
    /// slots inline when the transaction table is exhausted and a lease is
    /// configured.  The hook holds only a weak reference — dropping the
    /// manager disarms it.
    pub fn new(ctx: Arc<StateContext>) -> Arc<Self> {
        let slots = ctx.max_active_txns();
        let mgr = Arc::new(TransactionManager {
            ctx,
            participants: RwLock::new(HashMap::new()),
            lists: (0..slots).map(|_| Mutex::new(Vec::new())).collect(),
            lock_sets: (0..slots).map(|_| Mutex::new(Vec::new())).collect(),
        });
        let weak = Arc::downgrade(&mgr);
        mgr.ctx
            .install_reaper(move || weak.upgrade().map_or(0, |m| m.reap_expired()));
        mgr
    }

    /// The shared state context.
    pub fn context(&self) -> &Arc<StateContext> {
        &self.ctx
    }

    /// Registers a transactional state so commits can reach it.
    pub fn register(&self, participant: Arc<dyn TxParticipant>) {
        self.participants
            .write()
            .insert(participant.state_id(), participant);
    }

    /// Registers a topology group of states written together atomically and
    /// returns its id ([`StateContext::register_group`]).
    pub fn register_group(&self, states: &[StateId]) -> Result<GroupId> {
        self.ctx.register_group(states)
    }

    /// Begins a read-write transaction.
    pub fn begin(&self) -> Result<Tx> {
        self.ctx.begin(false)
    }

    /// Begins a read-only transaction (ad-hoc snapshot query).
    pub fn begin_read_only(&self) -> Result<Tx> {
        self.ctx.begin(true)
    }

    /// The participants `tx` accessed, in state-id order, collected into
    /// the list buffer of `tx`'s slot.  Hand the list back with
    /// [`recycle_list`](Self::recycle_list).
    fn accessed_participants(&self, tx: &Tx) -> Result<Participants> {
        let mut list = std::mem::take(&mut *self.lists[tx.slot()].lock());
        let registry = self.participants.read();
        self.ctx.for_each_accessed_state(tx, |s| {
            if let Some(p) = registry.get(&s) {
                list.push(Arc::clone(p));
            }
        })?;
        drop(registry);
        list.sort_unstable_by_key(|p| p.state_id());
        Ok(list)
    }

    /// Returns `list`, emptied, to the buffer of `tx`'s slot.
    fn recycle_list(&self, tx: &Tx, mut list: Participants) {
        recycle_vec(&mut list, KEEP_ENTRIES);
        *self.lists[tx.slot()].lock() = list;
    }

    // ------------------------------------------------------------------
    // Whole-transaction API (query-centric boundaries)
    // ------------------------------------------------------------------

    /// Commits `tx` across every state it accessed.
    ///
    /// Returns the commit timestamp, or `None` for transactions that wrote
    /// nothing (pure ad-hoc readers).  On a concurrency-control conflict the
    /// transaction is rolled back and the error returned; retryable errors
    /// ([`TspError::is_retryable`]) may be retried with a *new* transaction.
    pub fn commit(&self, tx: &Tx) -> Result<Option<Timestamp>> {
        self.reject_abort_flagged(tx)?;
        self.commit_internal(tx)
    }

    /// Aborts `tx`, discarding all buffered effects in every accessed state.
    pub fn abort(&self, tx: &Tx) -> Result<()> {
        self.rollback_internal(tx)
    }

    /// Commits `tx` and blocks until it is **durable**: every participating
    /// base table has persisted the commit (with asynchronous persistence,
    /// until the `DurableCTS` watermark has passed the commit timestamp).
    ///
    /// With the default synchronous persistence this is equivalent to
    /// [`commit`](Self::commit).  Durability failures of the asynchronous
    /// writer surface here (and on [`flush`](Self::flush)) — the commit is
    /// visible but its persistence could not be confirmed.  Only the
    /// participants `tx` actually wrote are waited on; an unrelated table's
    /// persistence backlog never delays this commit.
    pub fn commit_durable(&self, tx: &Tx) -> Result<Option<Timestamp>> {
        self.commit_and_wait(tx, None).map(|(cts, _)| cts)
    }

    /// [`commit_durable`](Self::commit_durable) with a **bounded** durability
    /// wait: the commit itself is unconditional, but the wait for the
    /// `DurableCTS` watermark gives up after `timeout`.
    ///
    /// Returns `(cts, durable)`.  `durable == false` means the commit is
    /// visible but its persistence was not confirmed within the timeout —
    /// the write is still queued and will normally become durable shortly;
    /// the caller can poll again with [`StateContext::wait_durable_timeout`]
    /// or escalate.  Each timeout bumps the `durability_timeouts`
    /// counter.
    pub fn commit_durable_timeout(
        &self,
        tx: &Tx,
        timeout: Duration,
    ) -> Result<(Option<Timestamp>, bool)> {
        self.commit_and_wait(tx, Some(timeout))
    }

    /// The one path behind both durable commits: resolve the writers while
    /// `tx` is still active (after the commit its slot is released), commit,
    /// then wait on each writer's [`TxParticipant::wait_durable`] — a state
    /// this transaction only read has no durability to wait for.  The
    /// `timeout` clock starts once the commit is visible.
    fn commit_and_wait(
        &self,
        tx: &Tx,
        timeout: Option<Duration>,
    ) -> Result<(Option<Timestamp>, bool)> {
        self.reject_abort_flagged(tx)?;
        let mut participants = self.accessed_participants(tx)?;
        let writers = split_writers(tx, &mut participants);
        let outcome = self
            .commit_resolved(tx, &participants, writers)
            .and_then(|cts| {
                let Some(cts) = cts else {
                    return Ok((None, true));
                };
                let deadline = timeout.map(|t| Instant::now() + t);
                for p in &participants[..writers] {
                    if !p.wait_durable(cts, deadline)? {
                        self.ctx.telemetry().bump(Counter::DurabilityTimeouts);
                        return Ok((Some(cts), false));
                    }
                }
                Ok((Some(cts), true))
            });
        self.recycle_list(tx, participants);
        outcome
    }

    /// Rolls `tx` back and fails if any participating state flagged abort.
    fn reject_abort_flagged(&self, tx: &Tx) -> Result<()> {
        if self.ctx.is_abort_flagged(tx)? {
            self.rollback_internal(tx)?;
            return Err(TspError::TxnAborted {
                txn: tx.id().as_u64(),
                reason: "a participating state flagged abort".into(),
            });
        }
        Ok(())
    }

    /// Blocks until every commit enqueued to the asynchronous persistence
    /// writers is durable.  A no-op under synchronous persistence.
    pub fn flush(&self) -> Result<()> {
        self.ctx.durability().flush()
    }

    /// Sweeps the asynchronous persistence writers and attempts to
    /// [`recover`](tsp_storage::BatchWriter::try_recover) any that are stuck
    /// in the sticky-failed state.  Returns the number of writers healed.
    pub fn try_recover_writers(&self) -> Result<usize> {
        self.ctx.durability().try_recover_writers()
    }

    /// Validation + in-memory apply + durable hand-off for one transaction,
    /// with the relevant commit locks held by the caller.  Returns the
    /// commit timestamp; the caller publishes the group `LastCTS`.  The
    /// first `writers` participants buffered writes.
    fn commit_one(
        &self,
        tx: &Tx,
        participants: &[Arc<dyn TxParticipant>],
        writers: usize,
    ) -> Result<Timestamp> {
        // Stage timings record on success *and* failure (an abort's
        // validation time is exactly what a conflict investigation needs).
        // Cost: a handful of `Instant::now()` calls and relaxed histogram
        // bumps per *write* commit — nothing here runs on the read path.
        let telemetry = self.ctx.telemetry();
        // Phase 1: validation (First-Committer-Wins / BOCC / SSI read-set
        // certification).
        let t_validate = Instant::now();
        let validated: Result<()> = participants.iter().try_for_each(|p| p.validate(tx, true));
        telemetry.validate_nanos().record(t_validate.elapsed());
        validated?;
        let cts = self.ctx.clock().next_commit_ts();
        let writers = participants[..writers].iter();
        // Phase 2: in-memory apply with a single commit timestamp.  Phase 3:
        // durable hand-off, reached only if every apply succeeded.  Each
        // helper undoes what it installed before returning an error.
        let t_apply = Instant::now();
        let applied = apply_all(tx, cts, writers.clone());
        telemetry.apply_nanos().record(t_apply.elapsed());
        let handed_off = applied.and_then(|()| {
            let t_durable = Instant::now();
            let handed_off = hand_off_durable(&self.ctx, tx, cts, writers);
            telemetry
                .durable_handoff_nanos()
                .record(t_durable.elapsed());
            handed_off
        });
        if let Err(e) = handed_off {
            self.ctx.telemetry().record_abort(AbortReason::FailedApply);
            return Err(e);
        }
        Ok(cts)
    }

    fn commit_internal(&self, tx: &Tx) -> Result<Option<Timestamp>> {
        let mut participants = self.accessed_participants(tx)?;
        let writers = split_writers(tx, &mut participants);
        let outcome = self.commit_resolved(tx, &participants, writers);
        self.recycle_list(tx, participants);
        outcome
    }

    /// [`commit_internal`](Self::commit_internal) with the participant list
    /// already resolved (callers that need the list themselves, like
    /// [`commit_durable`](Self::commit_durable), avoid resolving it twice).
    /// The first `writers` participants buffered writes.
    fn commit_resolved(
        &self,
        tx: &Tx,
        participants: &[Arc<dyn TxParticipant>],
        writers: usize,
    ) -> Result<Option<Timestamp>> {
        // Claim the transaction's fate before touching any participant: the
        // slot-epoch CAS is the single arbitration point between this commit
        // and a concurrent lease reaper.  Losing means a reaper (or an
        // earlier commit/abort) already settled the transaction — its
        // buffers are gone and its slot may belong to someone else, so
        // nothing below may run.
        match self.ctx.claim_fate(tx) {
            FateClaim::Won => {}
            FateClaim::Reaped => {
                return Err(TspError::LeaseExpired {
                    txn: tx.id().as_u64(),
                })
            }
            FateClaim::Gone => {
                return Err(TspError::UnknownTxn {
                    txn: tx.id().as_u64(),
                })
            }
        }
        // Read-only fast path: nothing to validate, nothing to publish.
        if writers == 0 {
            // BOCC still validates its read set here; SSI learns from the
            // hint that the transaction wrote nothing and skips validation.
            if let Err(e) = participants.iter().try_for_each(|p| p.validate(tx, false)) {
                self.finish(tx, participants, false);
                return Err(e);
            }
            self.finish(tx, participants, true);
            return Ok(None);
        }

        // Every write commit: lock its groups in ascending order, run the
        // phases, publish LastCTS for the groups it wrote, unlock.
        let mut locks = self.lock_set(tx, participants, writers);
        let outcome = self
            .ctx
            .with_commit_locks(locks.iter().map(|&(g, _)| g), || {
                let cts = self.commit_one(tx, participants, writers)?;
                for &(g, wrote) in &locks {
                    if wrote {
                        self.ctx
                            .publish_group_commit(g, cts)
                            .expect("registered group publishes");
                    }
                }
                Ok(cts)
            });
        recycle_vec(&mut locks, KEEP_ENTRIES);
        *self.lock_sets[tx.slot()].lock() = locks;
        self.finish(tx, participants, outcome.is_ok());
        outcome.map(Some)
    }

    /// The commit-lock set of `tx`, in ascending group order with one entry
    /// per group, collected into the lock-set buffer of `tx`'s slot: the
    /// groups whose LastCTS this commit moves ("only during the commit
    /// time, a short synchronization is required", §4.2), plus the groups
    /// of every participant whose validation must be serialised against
    /// commits of the groups the transaction *read* (SSI/BOCC read-set
    /// certification — without the lock, a concurrent writer of a read key
    /// could install its version between this transaction's certification
    /// and its publish, re-admitting write skew across groups).  Each group
    /// is flagged with whether the commit wrote it: a read-side lock must
    /// not advance a group's LastCTS.
    fn lock_set(
        &self,
        tx: &Tx,
        participants: &[Arc<dyn TxParticipant>],
        writers: usize,
    ) -> LockSet {
        let mut locks = std::mem::take(&mut *self.lock_sets[tx.slot()].lock());
        for p in &participants[..writers] {
            self.ctx
                .for_each_group_of_state(p.state_id(), |g, _| locks.push((g, true)));
        }
        for p in participants
            .iter()
            .filter(|p| p.validation_requires_commit_lock(tx))
        {
            self.ctx
                .for_each_group_of_state(p.state_id(), |g, _| locks.push((g, false)));
        }
        // `false` sorts first, so the entry a group keeps absorbs the
        // written flag of its duplicates.
        locks.sort_unstable();
        locks.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            kept.1 |= same && later.1;
            same
        });
        locks
    }

    fn rollback_internal(&self, tx: &Tx) -> Result<()> {
        // Fate arbitration makes `abort` idempotent and race-safe: a second
        // abort, an abort after a failed commit, or an abort racing (or
        // trailing) a lease reaper finds the epoch already moved on and
        // simply succeeds — the slot, possibly recycled by now, is never
        // touched.  The transaction ends up aborted either way, which is
        // exactly what the caller asked for.
        match self.ctx.claim_fate(tx) {
            FateClaim::Won => {}
            FateClaim::Reaped | FateClaim::Gone => return Ok(()),
        }
        let participants = self.accessed_participants(tx)?;
        self.finish(tx, &participants, false);
        self.recycle_list(tx, participants);
        Ok(())
    }

    fn finish(&self, tx: &Tx, participants: &[Arc<dyn TxParticipant>], committed: bool) {
        finish_all(&self.ctx, tx, participants.iter(), committed);
    }

    // ------------------------------------------------------------------
    // Operator-style API (data-centric boundaries, §4.3)
    // ------------------------------------------------------------------

    /// Reports that the operator maintaining `state` received the COMMIT
    /// punctuation for `tx`.
    ///
    /// The caller that sets the last missing flag is elected coordinator and
    /// performs the global commit inline; everyone else sees
    /// [`FlagOutcome::Pending`].
    pub fn flag_commit(&self, tx: &Tx, state: StateId) -> Result<FlagOutcome> {
        match self.ctx.flag_commit(tx, state)? {
            CommitVote::Pending => Ok(FlagOutcome::Pending),
            CommitVote::Coordinator => {
                let cts = self.commit_internal(tx)?;
                Ok(FlagOutcome::Committed(cts))
            }
            CommitVote::Aborted => {
                if self.ctx.undecided_count(tx)? == 0 {
                    self.rollback_internal(tx)?;
                    Ok(FlagOutcome::RolledBack)
                } else {
                    Ok(FlagOutcome::Pending)
                }
            }
        }
    }

    /// Reports that the operator maintaining `state` received the ROLLBACK
    /// punctuation (or hit an error) for `tx`.  The transaction will be
    /// rolled back globally; the caller that reports the last outstanding
    /// state performs the rollback.
    pub fn flag_abort(&self, tx: &Tx, state: StateId) -> Result<FlagOutcome> {
        self.ctx.flag_abort(tx, state)?;
        if self.ctx.undecided_count(tx)? == 0 {
            self.rollback_internal(tx)?;
            Ok(FlagOutcome::RolledBack)
        } else {
            Ok(FlagOutcome::Pending)
        }
    }

    // ------------------------------------------------------------------
    // Lease reaping (abandoned-transaction supervision)
    // ------------------------------------------------------------------

    /// Force-aborts every transaction whose lease has expired and returns
    /// how many were reaped.  A no-op (returning 0) when no lease is
    /// configured ([`StateContext::set_transaction_lease`]).
    ///
    /// Each candidate's fate is claimed through the slot-epoch CAS before
    /// anything is touched, so the sweep races safely against a
    /// concurrently-committing owner: whoever wins the CAS owns the slot's
    /// fate, and the loser — this sweep, or the owner's late
    /// commit/abort/read/write — backs off cleanly (`LeaseExpired` on the
    /// owner's side).  A won claim is rolled back through the regular
    /// participant machinery: write buffers dropped, S2PL locks released,
    /// BOCC/SSI read sets retracted, the snapshot floor un-announced (so
    /// `oldest_active` and MVCC GC advance), and the slot freed for reuse.
    ///
    /// Callable from anywhere: inline, from the admission slow path (wired
    /// up by [`new`](Self::new) — a full slot table triggers a sweep before
    /// backing off), or from the background supervisor thread
    /// ([`spawn_reaper`](Self::spawn_reaper)).
    pub fn reap_expired(&self) -> usize {
        let mut reaped = 0;
        for (slot, txn, epoch) in self.ctx.expired_candidates() {
            let Some(tx) = self.ctx.claim_reap(slot, txn, epoch) else {
                continue; // the owner finished or decided first
            };
            // From here the sweep owns the transaction's cleanup.  The
            // participant list comes from the slot's access record — still
            // readable: the slot is not released until `finish` below.
            let participants = self.accessed_participants(&tx).unwrap_or_default();
            for p in &participants {
                // A panicking participant (poisoned user codec, say) must
                // not wedge the sweep — the remaining participants and the
                // slot itself still get cleaned.  Slot-local rollback is
                // tag-checked, so a partially cleaned participant is safe.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    p.finish(&tx, false);
                }));
            }
            self.ctx.finish(&tx);
            self.recycle_list(&tx, participants);
            let telemetry = self.ctx.telemetry();
            telemetry.bump(Counter::Aborted);
            telemetry.record_abort(AbortReason::LeaseExpired);
            telemetry.bump(Counter::LeaseReaps);
            reaped += 1;
        }
        reaped
    }

    /// Starts a background supervisor thread that sweeps expired leases
    /// every `interval` until the handle is stopped or dropped.
    ///
    /// The thread holds only a weak reference to the manager: dropping the
    /// last strong handle ends the thread at its next tick even if the
    /// [`ReaperHandle`] leaks.
    pub fn spawn_reaper(self: &Arc<Self>, interval: Duration) -> ReaperHandle {
        let weak = Arc::downgrade(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("tsp-reaper".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    if stop_flag.load(Ordering::Relaxed) {
                        break;
                    }
                    match weak.upgrade() {
                        Some(mgr) => {
                            let _ = mgr.reap_expired();
                        }
                        None => break,
                    }
                }
            })
            .expect("spawning the reaper thread cannot fail");
        ReaperHandle {
            stop,
            handle: Some(handle),
        }
    }

    // ------------------------------------------------------------------
    // Scoped transactions (RAII)
    // ------------------------------------------------------------------

    /// Begins a read-write transaction wrapped in a [`TxGuard`] that aborts
    /// on drop unless explicitly committed — the leak-proof way to run a
    /// transaction from in-process code:
    ///
    /// ```ignore
    /// let guard = mgr.scoped()?;
    /// table.write(&guard, key, value)?;
    /// let cts = guard.commit()?;          // or: drop(guard) aborts
    /// ```
    pub fn scoped(self: &Arc<Self>) -> Result<TxGuard> {
        Ok(TxGuard {
            mgr: Arc::clone(self),
            tx: Some(self.begin()?),
        })
    }

    /// [`scoped`](Self::scoped) for a read-only transaction.
    pub fn scoped_read_only(self: &Arc<Self>) -> Result<TxGuard> {
        Ok(TxGuard {
            mgr: Arc::clone(self),
            tx: Some(self.begin_read_only()?),
        })
    }
}

// ---------------------------------------------------------------------
// The commit phases
// ---------------------------------------------------------------------
//
// One commit is validate → apply → durable hand-off → publish → finish.
// The helpers below hold the order and the undo rule of each step; the
// publish is the caller's group `LastCTS` store, after every hand-off
// succeeded, so a durable failure never undoes a version a reader saw.

/// Runs one participant call with a panic converted into an error, so a
/// panicking participant (a panicking user codec, say) is undone like a
/// failing one — leaking its installed versions would spuriously trip
/// FCW/SSI for every later committer of the group.
fn guarded(f: impl FnOnce() -> Result<()>) -> Result<()> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|_| Err(TspError::protocol("participant panicked during commit")))
}

/// Phase 2: applies every writer in memory at `cts`.  If writer *i* fails
/// (version-array capacity pressure, a panic), `undo_apply` runs on
/// `writers[..=i]` — the failing one may be partially applied — so no
/// installed-but-never-published version can spuriously trip
/// First-Committer-Wins / SSI certification for later transactions.
fn apply_all<'a>(
    tx: &Tx,
    cts: Timestamp,
    writers: impl Iterator<Item = &'a Arc<dyn TxParticipant>> + Clone,
) -> Result<()> {
    for (i, p) in writers.clone().enumerate() {
        if let Err(e) = guarded(|| p.apply(tx, cts)) {
            for q in writers.take(i + 1) {
                q.undo_apply(tx, cts);
            }
            return Err(e);
        }
    }
    Ok(())
}

/// Phase 3: the durable hand-off, run only after every apply succeeded.
///
/// When two or more persistent writers contribute, the group redo record is
/// assembled first ([`attach_group_redo`]) and stashed on `tx`, so each
/// writer's batch carries the other writers' write sets on its existing WAL
/// record and fsync.  A failure (an I/O error, a dead async
/// writer, a panic) undoes **every** writer.  Writers whose hand-off already
/// happened leave this aborted commit's batch on (its way to) disk; that
/// orphan is harmless, because recovery treats any redo record as
/// presumed-commit and rolls the group forward to it — see
/// [`crate::recovery::restore_group`].
fn hand_off_durable<'a>(
    ctx: &StateContext,
    tx: &Tx,
    cts: Timestamp,
    writers: impl Iterator<Item = &'a Arc<dyn TxParticipant>> + Clone,
) -> Result<()> {
    attach_group_redo(ctx, tx, cts, writers.clone());
    for p in writers.clone() {
        if let Err(e) = guarded(|| p.apply_durable(tx, cts)) {
            for q in writers {
                q.undo_apply(tx, cts);
            }
            return Err(e);
        }
    }
    Ok(())
}

/// Moves the participants that buffered writes for `tx` to the front of
/// `participants`, keeping each part's order, and returns how many there
/// are.  Rotates in place: commits touch a handful of states.
fn split_writers(tx: &Tx, participants: &mut [Arc<dyn TxParticipant>]) -> usize {
    let mut writers = 0;
    for i in 0..participants.len() {
        if participants[i].has_writes(tx) {
            participants[writers..=i].rotate_right(1);
            writers += 1;
        }
    }
    writers
}

/// Ends `tx` on every participant and on `ctx`, counting it as committed or
/// aborted.
fn finish_all<'a>(
    ctx: &StateContext,
    tx: &Tx,
    participants: impl Iterator<Item = &'a Arc<dyn TxParticipant>>,
    committed: bool,
) {
    for p in participants {
        p.finish(tx, committed);
    }
    ctx.finish(tx);
    ctx.telemetry().bump(if committed {
        Counter::Committed
    } else {
        Counter::Aborted
    });
}

/// Handle to a background lease-reaper thread ([`TransactionManager::
/// spawn_reaper`]); stops the thread when dropped.
pub struct ReaperHandle {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ReaperHandle {
    /// Signals the thread to stop and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ReaperHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A transaction that cannot leak: created by
/// [`TransactionManager::scoped`], aborted on drop unless consumed by
/// [`commit`](Self::commit) / [`commit_durable`](Self::commit_durable) /
/// [`abort`](Self::abort).
///
/// Dereferences to the underlying [`Tx`], so it passes directly to every
/// table operation.  The drop-abort goes through the same fate-claiming
/// rollback as an explicit abort, so it is safe even if a lease reaper got
/// to the transaction first.
pub struct TxGuard {
    mgr: Arc<TransactionManager>,
    tx: Option<Tx>,
}

impl TxGuard {
    /// The guarded transaction handle.
    pub fn tx(&self) -> &Tx {
        self.tx.as_ref().expect("guard holds a transaction")
    }

    /// Commits the transaction, consuming the guard.
    pub fn commit(mut self) -> Result<Option<Timestamp>> {
        let tx = self.tx.take().expect("guard holds a transaction");
        self.mgr.commit(&tx)
    }

    /// Commits and waits for durability, consuming the guard.
    pub fn commit_durable(mut self) -> Result<Option<Timestamp>> {
        let tx = self.tx.take().expect("guard holds a transaction");
        self.mgr.commit_durable(&tx)
    }

    /// Aborts the transaction explicitly, consuming the guard.
    pub fn abort(mut self) -> Result<()> {
        let tx = self.tx.take().expect("guard holds a transaction");
        self.mgr.abort(&tx)
    }
}

impl std::ops::Deref for TxGuard {
    type Target = Tx;
    fn deref(&self) -> &Tx {
        self.tx()
    }
}

impl Drop for TxGuard {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            let _ = self.mgr.abort(&tx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{BoccTable, MvccTable, S2plTable};
    use tsp_common::TspError;

    #[allow(clippy::type_complexity)]
    fn mvcc_pair() -> (
        Arc<TransactionManager>,
        Arc<MvccTable<u32, u64>>,
        Arc<MvccTable<u32, u64>>,
    ) {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let a = MvccTable::volatile(&ctx, "a");
        let b = MvccTable::volatile(&ctx, "b");
        mgr.register(a.clone());
        mgr.register(b.clone());
        mgr.register_group(&[a.id(), b.id()]).unwrap();
        (mgr, a, b)
    }

    #[test]
    fn multi_state_commit_is_atomic_for_readers() {
        let (mgr, a, b) = mvcc_pair();
        let w = mgr.begin().unwrap();
        a.write(&w, 1, 100).unwrap();
        b.write(&w, 1, 200).unwrap();

        // Before the commit, a reader sees neither state's update.
        let r = mgr.begin_read_only().unwrap();
        assert_eq!(a.read(&r, &1).unwrap(), None);
        assert_eq!(b.read(&r, &1).unwrap(), None);
        mgr.commit(&r).unwrap();

        let cts = mgr.commit(&w).unwrap();
        assert!(cts.is_some());

        // After the commit, a reader sees both.
        let r = mgr.begin_read_only().unwrap();
        assert_eq!(a.read(&r, &1).unwrap(), Some(100));
        assert_eq!(b.read(&r, &1).unwrap(), Some(200));
        mgr.commit(&r).unwrap();
        assert_eq!(mgr.context().telemetry_snapshot().stats.committed, 3);
    }

    #[test]
    fn read_only_commit_returns_no_timestamp() {
        let (mgr, a, _) = mvcc_pair();
        let r = mgr.begin_read_only().unwrap();
        assert_eq!(a.read(&r, &5).unwrap(), None);
        assert_eq!(mgr.commit(&r).unwrap(), None);
    }

    #[test]
    fn abort_discards_all_states() {
        let (mgr, a, b) = mvcc_pair();
        let w = mgr.begin().unwrap();
        a.write(&w, 2, 1).unwrap();
        b.write(&w, 2, 2).unwrap();
        mgr.abort(&w).unwrap();
        let r = mgr.begin_read_only().unwrap();
        assert_eq!(a.read(&r, &2).unwrap(), None);
        assert_eq!(b.read(&r, &2).unwrap(), None);
        mgr.commit(&r).unwrap();
        assert_eq!(mgr.context().telemetry_snapshot().stats.aborted, 1);
    }

    #[test]
    fn commit_after_abort_flag_fails() {
        let (mgr, a, b) = mvcc_pair();
        let w = mgr.begin().unwrap();
        a.write(&w, 3, 1).unwrap();
        b.write(&w, 3, 2).unwrap();
        mgr.context().flag_abort(&w, a.id()).unwrap();
        let err = mgr.commit(&w).unwrap_err();
        assert!(matches!(err, TspError::TxnAborted { .. }));
        let r = mgr.begin_read_only().unwrap();
        assert_eq!(b.read(&r, &3).unwrap(), None);
        mgr.commit(&r).unwrap();
    }

    #[test]
    fn fcw_conflict_rolls_back_both_states() {
        let (mgr, a, b) = mvcc_pair();
        let t1 = mgr.begin().unwrap();
        let t2 = mgr.begin().unwrap();
        a.write(&t1, 7, 1).unwrap();
        b.write(&t1, 7, 1).unwrap();
        a.write(&t2, 7, 2).unwrap();
        b.write(&t2, 8, 2).unwrap();
        mgr.commit(&t1).unwrap();
        // t2 conflicts on state a (key 7); nothing of t2 may survive, not
        // even the non-conflicting write to state b.
        let err = mgr.commit(&t2).unwrap_err();
        assert!(matches!(err, TspError::WriteConflict { .. }));
        let r = mgr.begin_read_only().unwrap();
        assert_eq!(a.read(&r, &7).unwrap(), Some(1));
        assert_eq!(b.read(&r, &8).unwrap(), None);
        mgr.commit(&r).unwrap();
    }

    #[test]
    fn operator_style_flags_elect_coordinator() {
        let (mgr, a, b) = mvcc_pair();
        let w = mgr.begin().unwrap();
        a.write(&w, 4, 40).unwrap();
        b.write(&w, 4, 44).unwrap();
        // Operator of state a reports first: pending.
        assert_eq!(mgr.flag_commit(&w, a.id()).unwrap(), FlagOutcome::Pending);
        // Operator of state b reports last: becomes coordinator and commits.
        match mgr.flag_commit(&w, b.id()).unwrap() {
            FlagOutcome::Committed(Some(_)) => {}
            other => panic!("expected commit, got {other:?}"),
        }
        let r = mgr.begin_read_only().unwrap();
        assert_eq!(a.read(&r, &4).unwrap(), Some(40));
        assert_eq!(b.read(&r, &4).unwrap(), Some(44));
        mgr.commit(&r).unwrap();
    }

    #[test]
    fn operator_style_abort_wins_globally() {
        let (mgr, a, b) = mvcc_pair();
        let w = mgr.begin().unwrap();
        a.write(&w, 5, 50).unwrap();
        b.write(&w, 5, 55).unwrap();
        assert_eq!(mgr.flag_abort(&w, a.id()).unwrap(), FlagOutcome::Pending);
        // The second operator votes commit, but the abort flag forces a
        // global rollback performed by this (last) caller.
        assert_eq!(
            mgr.flag_commit(&w, b.id()).unwrap(),
            FlagOutcome::RolledBack
        );
        let r = mgr.begin_read_only().unwrap();
        assert_eq!(a.read(&r, &5).unwrap(), None);
        assert_eq!(b.read(&r, &5).unwrap(), None);
        mgr.commit(&r).unwrap();
    }

    #[test]
    fn single_state_flag_commits_immediately() {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let a = MvccTable::<u32, u64>::volatile(&ctx, "solo");
        mgr.register(a.clone());
        mgr.register_group(&[a.id()]).unwrap();
        let w = mgr.begin().unwrap();
        a.write(&w, 1, 10).unwrap();
        match mgr.flag_commit(&w, a.id()).unwrap() {
            FlagOutcome::Committed(Some(_)) => {}
            other => panic!("expected commit, got {other:?}"),
        }
    }

    #[test]
    fn s2pl_tables_work_under_the_same_consistency_protocol() {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let a = S2plTable::<u32, u64>::volatile(&ctx, "a");
        let b = S2plTable::<u32, u64>::volatile(&ctx, "b");
        mgr.register(a.clone());
        mgr.register(b.clone());
        mgr.register_group(&[a.id(), b.id()]).unwrap();
        let w = mgr.begin().unwrap();
        a.write(&w, 1, 11).unwrap();
        b.write(&w, 1, 12).unwrap();
        mgr.commit(&w).unwrap();
        let r = mgr.begin_read_only().unwrap();
        assert_eq!(a.read(&r, &1).unwrap(), Some(11));
        assert_eq!(b.read(&r, &1).unwrap(), Some(12));
        mgr.commit(&r).unwrap();
    }

    #[test]
    fn bocc_reader_conflict_is_reported_at_commit() {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let a = BoccTable::<u32, u64>::volatile(&ctx, "a");
        mgr.register(a.clone());
        mgr.register_group(&[a.id()]).unwrap();
        // Seed a value.
        let w = mgr.begin().unwrap();
        a.write(&w, 1, 1).unwrap();
        mgr.commit(&w).unwrap();
        // Reader reads, then the writer overwrites before the reader commits.
        let r = mgr.begin_read_only().unwrap();
        assert_eq!(a.read(&r, &1).unwrap(), Some(1));
        let w2 = mgr.begin().unwrap();
        a.write(&w2, 1, 2).unwrap();
        mgr.commit(&w2).unwrap();
        let err = mgr.commit(&r).unwrap_err();
        assert!(matches!(err, TspError::ValidationFailed { .. }));
        assert!(err.is_retryable());
    }

    #[test]
    fn unregistered_state_is_skipped_gracefully() {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let a = MvccTable::<u32, u64>::volatile(&ctx, "a");
        // Intentionally not registered with the manager.
        ctx.register_group(&[a.id()]).unwrap();
        let w = mgr.begin().unwrap();
        a.write(&w, 1, 1).unwrap();
        // The commit cannot reach the unregistered participant; it still
        // finishes the transaction without panicking.
        mgr.commit(&w).unwrap();
    }

    #[test]
    fn register_group_with_unknown_state_fails() {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(ctx);
        assert!(mgr.register_group(&[StateId(42)]).is_err());
    }

    #[test]
    fn abort_is_idempotent() {
        let (mgr, a, _) = mvcc_pair();
        let w = mgr.begin().unwrap();
        a.write(&w, 9, 90).unwrap();
        mgr.abort(&w).unwrap();
        // Double abort, and abort after a (failed) commit, both succeed
        // without touching the recycled slot.
        mgr.abort(&w).unwrap();
        assert!(mgr.commit(&w).is_err());
        mgr.abort(&w).unwrap();
        assert_eq!(mgr.context().telemetry_snapshot().stats.aborted, 1);
    }

    #[test]
    fn abort_after_commit_is_ok_and_preserves_the_commit() {
        let (mgr, a, _) = mvcc_pair();
        let w = mgr.begin().unwrap();
        a.write(&w, 10, 1).unwrap();
        mgr.commit(&w).unwrap();
        mgr.abort(&w).unwrap();
        let r = mgr.begin_read_only().unwrap();
        assert_eq!(a.read(&r, &10).unwrap(), Some(1));
        mgr.commit(&r).unwrap();
    }

    #[test]
    fn reap_expired_frees_wedged_slots_and_fences_the_owner() {
        let (mgr, a, b) = mvcc_pair();
        let ctx = Arc::clone(mgr.context());
        ctx.set_transaction_lease(Some(Duration::from_millis(1)));
        // A well-behaved writer commits first so the zombie pins a floor
        // below the head of the version chain.
        let w = mgr.begin().unwrap();
        a.write(&w, 1, 1).unwrap();
        mgr.commit(&w).unwrap();

        let zombie = mgr.begin().unwrap();
        a.write(&zombie, 1, 2).unwrap();
        b.write(&zombie, 2, 2).unwrap();
        let floor_before = ctx.oldest_active_fresh();
        assert_eq!(floor_before, zombie.id().as_u64());

        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(mgr.reap_expired(), 1);
        // The zombie no longer pins the floor (with nothing active the
        // fresh scan returns the clock head), its slot is free, and its
        // buffered writes are gone.
        assert_eq!(ctx.active_count(), 0);
        assert!(ctx.oldest_active_fresh() >= floor_before);
        let err = mgr.commit(&zombie).unwrap_err();
        assert!(matches!(err, TspError::LeaseExpired { .. }));
        let r = mgr.begin_read_only().unwrap();
        assert_eq!(a.read(&r, &1).unwrap(), Some(1));
        assert_eq!(b.read(&r, &2).unwrap(), None);
        mgr.commit(&r).unwrap();
        // Later transactions drew fresh timestamps, so the floor has now
        // strictly advanced past the reaped zombie's snapshot.
        assert!(ctx.oldest_active_fresh() > floor_before);

        let snap = ctx.telemetry_snapshot().stats;
        assert_eq!(snap.lease_expirations, 1);
        assert_eq!(ctx.telemetry_snapshot().lease_reaps, 1);
    }

    #[test]
    fn owner_losing_to_a_reaper_before_its_marker_store_sees_lease_expired() {
        use crate::context::AFTER_REAP_CAS;
        use std::sync::mpsc;
        let (mgr, a, _) = mvcc_pair();
        let ctx = Arc::clone(mgr.context());
        ctx.set_transaction_lease(Some(Duration::from_millis(1)));
        let zombie = mgr.begin().unwrap();
        a.write(&zombie, 1, 1).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        // The reaper pauses between its winning fate CAS and its
        // `last_reaped_epoch` store.
        let (won, won_rx) = mpsc::channel();
        let (resume, resume_rx) = mpsc::channel::<()>();
        let reaper = {
            let mgr = Arc::clone(&mgr);
            std::thread::spawn(move || {
                AFTER_REAP_CAS.with(|pause| {
                    *pause.borrow_mut() = Some(Box::new(move || {
                        won.send(()).unwrap();
                        resume_rx.recv().unwrap();
                    }));
                });
                mgr.reap_expired()
            })
        };
        won_rx.recv().unwrap();
        let fenced = ctx.check_fate(&zombie);
        let committed = mgr.commit(&zombie);
        resume.send(()).unwrap();
        assert_eq!(reaper.join().unwrap(), 1);
        assert!(
            matches!(fenced, Err(TspError::LeaseExpired { .. })),
            "{fenced:?}"
        );
        assert!(
            matches!(committed, Err(TspError::LeaseExpired { .. })),
            "{committed:?}"
        );
    }

    /// A reader parked between its `LastCTS` load and its floor
    /// announcement must still read a committed version once released.
    /// Writer 2 drew its commit timestamp before the reader began and
    /// publishes while the reader is parked, so the loaded `LastCTS` is
    /// below the reader's begin timestamp; writer 3's install then runs the
    /// on-demand GC, whose floor scan still sees only that begin timestamp
    /// and vacates the version visible at the loaded value.  Pinning the
    /// value reloaded after the announcement reads writer 3's version; a
    /// pin of the loaded value would find no version at all.
    #[test]
    fn a_pin_reloads_last_cts_after_announcing_its_floor() {
        use crate::context::BEFORE_PIN_ANNOUNCE;
        use std::sync::mpsc;
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let a = MvccTable::<u32, u64>::volatile(&ctx, "a");
        mgr.register(a.clone());
        let group = mgr.register_group(&[a.id()]).unwrap();
        let w1 = mgr.begin().unwrap();
        a.write(&w1, 1, 1).unwrap();
        mgr.commit(&w1).unwrap();

        // Writer 2 applies at a timestamp drawn before the reader begins.
        let w2 = mgr.begin().unwrap();
        a.write(&w2, 1, 2).unwrap();
        a.validate(&w2, true).unwrap();
        let cts2 = ctx.clock().next_commit_ts();
        a.apply(&w2, cts2).unwrap();

        let (parked, parked_rx) = mpsc::channel();
        let (resume, resume_rx) = mpsc::channel::<()>();
        let reader = {
            let mgr = Arc::clone(&mgr);
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                let r = mgr.begin_read_only().unwrap();
                let begin = r.begin_ts();
                BEFORE_PIN_ANNOUNCE.with(|pause| {
                    *pause.borrow_mut() = Some(Box::new(move || {
                        let _ = parked.send(begin);
                        let _ = resume_rx.recv();
                    }));
                });
                let seen = a.read(&r, &1).unwrap();
                mgr.commit(&r).unwrap();
                seen
            })
        };
        let begin = parked_rx.recv().unwrap();
        assert!(cts2 < begin, "the reader began after cts2 was drawn");
        // Writer 2 publishes and ends; writer 3 commits the second version
        // after it, and its install reclaims the first.
        ctx.publish_group_commit(group, cts2).unwrap();
        a.finish(&w2, true);
        ctx.finish(&w2);
        let w3 = mgr.begin().unwrap();
        a.write(&w3, 1, 3).unwrap();
        mgr.commit(&w3).unwrap();
        resume.send(()).unwrap();
        assert_eq!(reader.join().unwrap(), Some(3));
    }

    #[test]
    fn reap_expired_without_a_lease_is_a_noop() {
        let (mgr, a, _) = mvcc_pair();
        let w = mgr.begin().unwrap();
        a.write(&w, 1, 1).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(mgr.reap_expired(), 0);
        mgr.commit(&w).unwrap();
    }

    #[test]
    fn renewed_leases_survive_the_sweep() {
        let (mgr, a, _) = mvcc_pair();
        let ctx = Arc::clone(mgr.context());
        ctx.set_transaction_lease(Some(Duration::from_secs(60)));
        let w = mgr.begin().unwrap();
        a.write(&w, 3, 3).unwrap();
        assert_eq!(mgr.reap_expired(), 0, "active lease is not reaped");
        mgr.commit(&w).unwrap();
    }

    #[test]
    fn background_reaper_sweeps_and_stops_cleanly() {
        let (mgr, a, _) = mvcc_pair();
        let ctx = Arc::clone(mgr.context());
        ctx.set_transaction_lease(Some(Duration::from_millis(1)));
        let handle = mgr.spawn_reaper(Duration::from_millis(2));
        let zombie = mgr.begin().unwrap();
        a.write(&zombie, 1, 1).unwrap();
        let mut waited = 0;
        while ctx.telemetry().count(Counter::LeaseReaps) == 0 && waited < 500 {
            std::thread::sleep(Duration::from_millis(2));
            waited += 1;
        }
        assert_eq!(
            ctx.telemetry().count(Counter::LeaseReaps),
            1,
            "zombie was reaped"
        );
        handle.stop();
        assert!(matches!(
            mgr.commit(&zombie).unwrap_err(),
            TspError::LeaseExpired { .. }
        ));
    }

    #[test]
    fn admission_slow_path_reaps_when_slots_are_exhausted() {
        let ctx = Arc::new(StateContext::with_capacity(2));
        ctx.set_transaction_lease(Some(Duration::from_millis(1)));
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let a = MvccTable::<u32, u64>::volatile(&ctx, "a");
        mgr.register(a.clone());
        mgr.register_group(&[a.id()]).unwrap();
        // Two zombies fill the table.
        let z1 = mgr.begin().unwrap();
        let z2 = mgr.begin().unwrap();
        a.write(&z1, 1, 1).unwrap();
        a.write(&z2, 2, 2).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        // No admission wait configured: the contended path still reaps
        // inline before giving up, so this begin succeeds.
        let w = mgr.begin().expect("slot freed by the inline reap");
        a.write(&w, 3, 3).unwrap();
        mgr.commit(&w).unwrap();
        assert_eq!(ctx.telemetry_snapshot().stats.lease_expirations, 2);
    }

    #[test]
    fn tx_guard_aborts_on_drop_and_commits_on_demand() {
        let (mgr, a, _) = mvcc_pair();
        {
            let g = mgr.scoped().unwrap();
            a.write(&g, 1, 10).unwrap();
        } // dropped without commit: aborted
        assert_eq!(mgr.context().telemetry_snapshot().stats.aborted, 1);

        let g = mgr.scoped().unwrap();
        a.write(&g, 1, 11).unwrap();
        g.commit().unwrap().expect("write commit has a timestamp");

        let r = mgr.scoped_read_only().unwrap();
        assert_eq!(a.read(&r, &1).unwrap(), Some(11));
        assert_eq!(r.commit().unwrap(), None);

        let g = mgr.scoped().unwrap();
        a.write(&g, 1, 12).unwrap();
        g.abort().unwrap();
        let r = mgr.scoped_read_only().unwrap();
        assert_eq!(a.read(&r, &1).unwrap(), Some(11));
        drop(r);
    }

    /// Which phase of a [`Recorder`] fails.
    #[derive(Clone, Copy, PartialEq)]
    enum Fail {
        Never,
        Apply,
        Durable,
    }

    /// A fake participant that logs every phase call as `"<name>.<phase>"`
    /// into a log shared by all participants of one transaction.
    struct Recorder {
        id: StateId,
        name: &'static str,
        fail: Fail,
        log: Arc<Mutex<Vec<String>>>,
    }

    impl Recorder {
        fn note(&self, phase: &str) {
            self.log.lock().push(format!("{}.{phase}", self.name));
        }

        fn outcome(&self, phase: &str, fail: Fail) -> Result<()> {
            self.note(phase);
            if self.fail == fail {
                return Err(TspError::protocol("injected failure"));
            }
            Ok(())
        }
    }

    impl TxParticipant for Recorder {
        fn state_id(&self) -> StateId {
            self.id
        }
        fn has_writes(&self, _tx: &Tx) -> bool {
            true
        }
        fn validate(&self, _tx: &Tx, _txn_has_writes: bool) -> Result<()> {
            self.note("validate");
            Ok(())
        }
        fn apply(&self, _tx: &Tx, _cts: Timestamp) -> Result<()> {
            self.outcome("apply", Fail::Apply)
        }
        fn finish(&self, _tx: &Tx, committed: bool) {
            self.note(&format!("finish({committed})"));
        }
        fn undo_apply(&self, _tx: &Tx, _cts: Timestamp) {
            self.note("undo_apply");
        }
        fn apply_durable(&self, _tx: &Tx, _cts: Timestamp) -> Result<()> {
            self.outcome("apply_durable", Fail::Durable)
        }
    }

    /// Commits one transaction over recorders named by `spec` (one group)
    /// and returns the commit result, the phase log and whether the group's
    /// `LastCTS` moved.
    fn run_phases(spec: &[(&'static str, Fail)]) -> (Result<Option<Timestamp>>, Vec<String>, bool) {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let log = Arc::new(Mutex::new(Vec::new()));
        let ids: Vec<StateId> = spec
            .iter()
            .map(|&(name, fail)| {
                let id = ctx.register_state(name);
                mgr.register(Arc::new(Recorder {
                    id,
                    name,
                    fail,
                    log: Arc::clone(&log),
                }));
                id
            })
            .collect();
        let group = mgr.register_group(&ids).unwrap();
        let before = ctx.last_cts(group).unwrap();
        let tx = mgr.begin().unwrap();
        for id in &ids {
            ctx.record_access(&tx, *id).unwrap();
        }
        let result = mgr.commit(&tx);
        let published = ctx.last_cts(group).unwrap() != before;
        let log = log.lock().clone();
        (result, log, published)
    }

    fn phases(entries: &[&str]) -> Vec<String> {
        entries.iter().map(|e| e.to_string()).collect()
    }

    #[test]
    fn commit_phases_run_in_order() {
        let (result, log, published) = run_phases(&[("a", Fail::Never), ("b", Fail::Never)]);
        assert!(result.unwrap().is_some());
        assert!(published);
        assert_eq!(
            log,
            phases(&[
                "a.validate",
                "b.validate",
                "a.apply",
                "b.apply",
                "a.apply_durable",
                "b.apply_durable",
                "a.finish(true)",
                "b.finish(true)",
            ])
        );
    }

    #[test]
    fn failed_apply_undoes_the_applied_prefix_and_persists_nothing() {
        let (result, log, published) =
            run_phases(&[("a", Fail::Never), ("b", Fail::Apply), ("c", Fail::Never)]);
        assert!(result.is_err());
        assert!(!published);
        assert_eq!(
            log,
            phases(&[
                "a.validate",
                "b.validate",
                "c.validate",
                "a.apply",
                "b.apply",
                "a.undo_apply",
                "b.undo_apply",
                "a.finish(false)",
                "b.finish(false)",
                "c.finish(false)",
            ])
        );
    }

    #[test]
    fn failed_durable_hand_off_undoes_every_writer_and_publishes_nothing() {
        let (result, log, published) = run_phases(&[("a", Fail::Never), ("b", Fail::Durable)]);
        assert!(result.is_err());
        assert!(!published);
        assert_eq!(
            log,
            phases(&[
                "a.validate",
                "b.validate",
                "a.apply",
                "b.apply",
                "a.apply_durable",
                "b.apply_durable",
                "a.undo_apply",
                "b.undo_apply",
                "a.finish(false)",
                "b.finish(false)",
            ])
        );
    }
}
