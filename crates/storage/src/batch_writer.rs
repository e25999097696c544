//! The asynchronous group-commit persistence writer — stage 2 of the commit
//! pipeline.
//!
//! A [`BatchWriter`] owns one background thread per storage backend.  The
//! transaction layer hands it `(commit timestamp, WriteBatch)` pairs from
//! *inside* the group-commit critical section (a queue push — no I/O on the
//! commit path); the writer thread drains the queue, **coalesces** every
//! pending batch into a single [`WriteBatch`] in commit-timestamp order, and
//! applies it with one `write_batch` call — one WAL record and one fsync for
//! a whole burst of commits instead of one per transaction.  A batch is one
//! encoded buffer in the WAL op encoding, so coalescing concatenates the
//! buffers and re-encodes no op; a drain of one batch writes it as is.
//!
//! # The `DurableCTS` watermark
//!
//! After a coalesced batch is durably applied, the writer advances its
//! `DurableCTS` watermark to the highest commit timestamp it contained.
//! Because batches are applied in commit-timestamp order and each carries
//! the table layer's `last_cts` marker in the *same* atomic batch, the
//! backend always holds a **prefix** of the commit history: a crash loses at
//! most a suffix of not-yet-drained batches, never a hole, and recovery
//! (`tsp-core`'s `recovery` module) replays exactly up to the persisted
//! marker — which equals `DurableCTS` at the time of the crash.
//!
//! Visibility and durability are therefore two separate watermarks:
//! `commit()` returns when the transaction is *visible* (the group's
//! `LastCTS` moved); [`BatchWriter::wait_durable`] (surfaced as
//! `TransactionManager::commit_durable` / `flush`) blocks until it is
//! *durable*.
//!
//! The writer recycles its buffers: the queue a drain takes is swapped for
//! the (empty) one the previous drain emptied, a multi-batch drain
//! concatenates into a merge buffer the writer keeps, and the drained
//! batches go back to a small pool that the committer's next batch is drawn
//! from ([`BatchWriter::take_buffer`]).  Each buffer is kept only while it
//! is at most twice what its last use needed ([`tsp_common::recycle`]), so
//! a warm writer allocates nothing per commit and one huge commit does not
//! pin memory.
//!
//! Multi-state group commits additionally piggyback a [`crate::redo`] record
//! on each participant's batch: the record travels inside the batch the
//! writer coalesces, so it shares the batch's WAL record and fsync — group
//! redo durability costs no extra sync on this path.
//!
//! **Shared-backend caveat.**  The prefix property holds per commit-lock
//! domain: commit timestamps are drawn and enqueued inside the group-commit
//! critical section, so all batches for one table — and for any set of
//! tables whose commits serialize on common locks — reach the queue in
//! timestamp order.  If tables of *disjoint* topology groups share one
//! backend, a commit of one group can be drawn before, but enqueued after,
//! a larger timestamp of the other, and the watermark may transiently cover
//! a commit still in flight; a crash in that window recovers per-group
//! prefixes rather than one global prefix.  Give disjoint groups disjoint
//! backends (the normal one-backend-per-table layout) when the global
//! prefix matters.
//!
//! # Failure semantics
//!
//! A failed `write_batch` is first retried in place: errors the taxonomy
//! classifies as *transient* (`TspError::is_transient`) are re-attempted
//! with capped exponential backoff and jitter under the writer's
//! [`RetryPolicy`] (attempt count + deadline).  Only a **permanent** error
//! or an exhausted retry budget makes the writer *sticky-failed*: the error
//! is reported to every current and future durability waiter and every
//! further enqueue, so a commit whose durability was never confirmed can
//! never be silently dropped.
//!
//! A sticky-failed writer is no longer failed for the life of the process:
//! [`BatchWriter::try_recover`] re-applies the retained failed batch,
//! re-spawns the writer thread to replay the retained queue in
//! commit-timestamp order, and reconciles the depth gauge and the
//! `DurableCTS` watermark — one transient blip (a full disk that was
//! cleaned up, a device that came back) no longer disables durability until
//! restart.  [`BatchWriter::kill_and_abandon_queue`] simulates a crash for
//! recovery tests: the thread stops without draining, losing the queued
//! suffix exactly like a power failure would; an abandoned writer is *not*
//! recoverable.
//!
//! # Backpressure
//!
//! The queue is **bounded** ([`DEFAULT_QUEUE_CAPACITY`] batches unless
//! overridden via [`BatchWriter::spawn_with`]).  When commits outpace the
//! backend, [`BatchWriter::enqueue`] *blocks* inside the group-commit
//! critical section until the writer thread drains, turning an unbounded
//! memory backlog (and an unbounded visible-but-not-durable window) into
//! commit-path latency — the same flow-control shape as a WAL buffer
//! filling up.  The current depth is observable through
//! [`BatchWriter::queued_len`] and, when a depth gauge is attached, through
//! the owning context's metrics registry (`persist_queue_depth`).

use crate::backend::{StorageBackend, WriteBatch};
use crate::retry::RetryPolicy;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tsp_common::recycle::{keeps, KEEP_ENTRIES};
use tsp_common::{Histogram, Result, Timestamp, TspError};

/// Default bound on the number of queued batches per writer.  Each queued
/// batch is one group-commit's worth of durable work, so the default allows
/// a deep pipeline before backpressure engages while still bounding both
/// memory and the visible-but-not-yet-durable window.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// Written batch buffers a writer keeps for the committers' next batches:
/// a few drains' worth.  A backlog beyond it (an fsync stall) allocates,
/// and its buffers are freed once written rather than held for the next
/// stall.
const POOLED_BUFFERS: usize = 64;

/// Queue and lifecycle state shared with the writer thread.
struct WriterState {
    /// Pending `(cts, batch, enqueued_at)` entries, in enqueue order.  The
    /// enqueue instant feeds the queue-dwell histogram at drain time.
    queue: Vec<(Timestamp, WriteBatch, Instant)>,
    /// True while the thread is applying a drained batch.
    writing: bool,
    /// Graceful shutdown: drain everything, then exit.
    shutdown: bool,
    /// Crash simulation: exit immediately, dropping the queue.
    abandoned: bool,
    /// Sticky failure description from a failed `write_batch`.
    error: Option<String>,
    /// The coalesced batch whose `write_batch` failed, retained with its
    /// highest commit timestamp so [`BatchWriter::try_recover`] can replay
    /// it ahead of the queue.  `None` while healthy.
    retained: Option<(Timestamp, WriteBatch)>,
    /// True while a `try_recover` call is replaying the retained batch;
    /// serialises concurrent recovery attempts.
    recovering: bool,
    /// True once the depth gauge was reconciled for entries that will
    /// never drain (sticky failure or abandon).  Those entries stay in
    /// `queue` for waiters to observe, so the dead paths must subtract
    /// them from the gauge exactly once between them.
    gauge_reconciled: bool,
}

struct Shared {
    backend: Arc<dyn StorageBackend>,
    state: Mutex<WriterState>,
    /// Maximum queued batches before `enqueue` blocks (backpressure).
    capacity: usize,
    /// Optional externally owned gauge mirroring the queue depth (wired to
    /// the owning context's metrics registry by the durability hub).
    depth_gauge: Option<Arc<AtomicU64>>,
    /// Wakes the writer thread when work (or shutdown) arrives.
    work: Condvar,
    /// Wakes durability waiters when the watermark (or the error) moves.
    done: Condvar,
    /// Highest commit timestamp durably applied (the `DurableCTS`
    /// watermark).  Monotone.
    durable: AtomicU64,
    /// True once any batch has ever been enqueued; a writer that never
    /// received work is vacuously durable and must not drag aggregate
    /// watermarks down to 0.
    ever_enqueued: std::sync::atomic::AtomicBool,
    /// Retry budget applied to every `write_batch` (and to recovery
    /// replays).
    policy: RetryPolicy,
    /// In-place `write_batch` retries performed (transient failures that
    /// were re-attempted rather than going sticky).
    retries: AtomicU64,
    /// Successful [`BatchWriter::try_recover`] completions.
    recoveries: AtomicU64,
    /// Telemetry: how long batches sat in the queue before being drained
    /// (nanoseconds; recorded by the writer thread, off the commit path).
    dwell: Histogram,
    /// Telemetry: how many enqueued batches each drain coalesced into one
    /// backend `write_batch`.
    coalesce: Histogram,
    /// Emptied batch buffers of written drains, handed out by
    /// [`BatchWriter::take_buffer`]; at most [`POOLED_BUFFERS`].
    pool: Mutex<Vec<WriteBatch>>,
}

/// Asynchronous, coalescing persistence writer for one storage backend.
pub struct BatchWriter {
    shared: Arc<Shared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl BatchWriter {
    /// Spawns the writer thread for `backend` with the default queue bound
    /// ([`DEFAULT_QUEUE_CAPACITY`]) and no depth gauge.
    pub fn spawn(backend: Arc<dyn StorageBackend>) -> Arc<Self> {
        Self::spawn_with(backend, DEFAULT_QUEUE_CAPACITY, None)
    }

    /// Spawns the writer thread for `backend` with an explicit queue bound
    /// (clamped to at least 1), an optional depth gauge the writer keeps
    /// equal to its queue length, and the default [`RetryPolicy`].
    pub fn spawn_with(
        backend: Arc<dyn StorageBackend>,
        capacity: usize,
        depth_gauge: Option<Arc<AtomicU64>>,
    ) -> Arc<Self> {
        Self::spawn_with_policy(backend, capacity, depth_gauge, RetryPolicy::default())
    }

    /// [`spawn_with`](Self::spawn_with) plus an explicit retry budget for
    /// transient `write_batch` failures.
    pub fn spawn_with_policy(
        backend: Arc<dyn StorageBackend>,
        capacity: usize,
        depth_gauge: Option<Arc<AtomicU64>>,
        policy: RetryPolicy,
    ) -> Arc<Self> {
        let shared = Arc::new(Shared {
            backend,
            state: Mutex::new(WriterState {
                queue: Vec::new(),
                writing: false,
                shutdown: false,
                abandoned: false,
                error: None,
                retained: None,
                recovering: false,
                gauge_reconciled: false,
            }),
            capacity: capacity.max(1),
            depth_gauge,
            work: Condvar::new(),
            done: Condvar::new(),
            durable: AtomicU64::new(0),
            ever_enqueued: std::sync::atomic::AtomicBool::new(false),
            policy,
            retries: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            dwell: Histogram::new(),
            coalesce: Histogram::new(),
            pool: Mutex::new(Vec::new()),
        });
        let thread = spawn_writer_thread(&shared);
        Arc::new(BatchWriter {
            shared,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// The backend this writer persists to.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.shared.backend
    }

    /// An empty batch for the next [`enqueue`](Self::enqueue): a recycled
    /// buffer of an earlier, written batch when one is pooled.
    pub fn take_buffer(&self) -> WriteBatch {
        self.shared.pool.lock().pop().unwrap_or_default()
    }

    /// Capacities of the pooled batch buffers (tests).
    #[cfg(test)]
    fn pooled_capacities(&self) -> Vec<usize> {
        self.shared
            .pool
            .lock()
            .iter()
            .map(WriteBatch::capacity)
            .collect()
    }

    /// Enqueues the durable work of one commit.  Called from inside the
    /// group-commit critical section: normally a queue push and a wakeup,
    /// no I/O — but when the queue is at capacity this **blocks** until the
    /// writer thread drains (backpressure: the commit path slows to the
    /// backend's sustained rate instead of growing an unbounded backlog).
    ///
    /// Returns the sticky error if the writer has already failed or been
    /// shut down — the caller must then abort the commit rather than let a
    /// never-persisted transaction become visible.
    pub fn enqueue(&self, cts: Timestamp, batch: WriteBatch) -> Result<()> {
        let mut st = self.shared.state.lock();
        loop {
            if let Some(e) = &st.error {
                return Err(TspError::Io(std::io::Error::other(format!(
                    "persistence writer failed earlier: {e}"
                ))));
            }
            if st.shutdown || st.abandoned {
                return Err(TspError::Io(std::io::Error::other(
                    "persistence writer is shut down",
                )));
            }
            if st.queue.len() < self.shared.capacity {
                break;
            }
            // Full: wait for the writer thread to drain.  `done` is
            // notified after every applied batch (and on failure/abandon),
            // so this wakes as soon as space exists or progress is
            // impossible.
            self.shared.done.wait(&mut st);
        }
        st.queue.push((cts, batch, Instant::now()));
        if let Some(g) = &self.shared.depth_gauge {
            g.fetch_add(1, Ordering::Relaxed);
        }
        self.shared.ever_enqueued.store(true, Ordering::Release);
        self.shared.work.notify_one();
        Ok(())
    }

    /// The queue bound this writer was spawned with.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// True once this writer has ever been handed work.  A writer that
    /// never has is *vacuously* durable at any timestamp — aggregations
    /// over several writers should skip it rather than min in its zero
    /// watermark.
    pub fn has_work_history(&self) -> bool {
        self.shared.ever_enqueued.load(Ordering::Acquire)
    }

    /// The `DurableCTS` watermark: every commit with a timestamp at or below
    /// it is durably in the backend.
    pub fn durable_cts(&self) -> Timestamp {
        self.shared.durable.load(Ordering::Acquire)
    }

    /// Blocks until everything enqueued so far is durable (or the writer
    /// failed).
    pub fn sync_barrier(&self) -> Result<()> {
        let mut st = self.shared.state.lock();
        loop {
            if let Some(e) = &st.error {
                return Err(TspError::Io(std::io::Error::other(format!(
                    "persistence writer failed: {e}"
                ))));
            }
            if st.queue.is_empty() && !st.writing {
                return Ok(());
            }
            if st.abandoned {
                return Err(TspError::Io(std::io::Error::other(
                    "persistence writer was abandoned with work pending",
                )));
            }
            self.shared.done.wait(&mut st);
        }
    }

    /// Blocks until the commit at `cts` is durable: returns as soon as
    /// `DurableCTS >= cts` (woken per applied batch — it does **not** wait
    /// for later commits' backlog), or when the queue is fully drained
    /// (covers waiters for timestamps this writer never saw).
    pub fn wait_durable(&self, cts: Timestamp) -> Result<()> {
        if self.durable_cts() >= cts {
            return Ok(());
        }
        let mut st = self.shared.state.lock();
        loop {
            if self.durable_cts() >= cts {
                return Ok(());
            }
            if let Some(e) = &st.error {
                return Err(TspError::Io(std::io::Error::other(format!(
                    "persistence writer failed: {e}"
                ))));
            }
            if st.queue.is_empty() && !st.writing {
                return Ok(());
            }
            if st.abandoned {
                return Err(TspError::Io(std::io::Error::other(
                    "persistence writer was abandoned with work pending",
                )));
            }
            self.shared.done.wait(&mut st);
        }
    }

    /// Crash simulation for recovery tests: stops the writer thread
    /// *without* draining the queue.  Batches not yet applied are lost,
    /// exactly as a power failure would lose them; batches already applied
    /// are durable.  The writer is unusable afterwards.
    pub fn kill_and_abandon_queue(&self) {
        {
            let mut st = self.shared.state.lock();
            st.abandoned = true;
            // The abandoned queue will never drain: take its depth back out
            // of the gauge so the context-level stat does not stick.  The
            // entries themselves stay (durability waiters must keep seeing
            // "abandoned with work pending", not a clean drain).
            reconcile_dead_queue_gauge(&self.shared, &mut st);
            self.shared.work.notify_all();
            self.shared.done.notify_all();
        }
        if let Some(handle) = self.thread.lock().take() {
            let _ = handle.join();
        }
    }

    /// Number of batches waiting in the queue (diagnostics).
    pub fn queued_len(&self) -> usize {
        self.shared.state.lock().queue.len()
    }

    /// True if the writer is in the sticky-failed state: a `write_batch`
    /// failed permanently (or exhausted its retry budget), no further work
    /// will drain until [`try_recover`](Self::try_recover) succeeds, and
    /// every durability wait reports the error.
    pub fn is_failed(&self) -> bool {
        self.shared.state.lock().error.is_some()
    }

    /// The retry budget this writer applies to transient `write_batch`
    /// failures.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.shared.policy
    }

    /// In-place `write_batch` retries performed so far (each one a
    /// transient failure that was re-attempted instead of going sticky).
    pub fn persist_retries(&self) -> u64 {
        self.shared.retries.load(Ordering::Relaxed)
    }

    /// Successful [`try_recover`](Self::try_recover) completions.
    pub fn recoveries(&self) -> u64 {
        self.shared.recoveries.load(Ordering::Relaxed)
    }

    /// Bounded [`wait_durable`](Self::wait_durable): returns `Ok(true)` when
    /// the commit at `cts` is durable, `Ok(false)` if `timeout` elapsed
    /// first, and the sticky error if the writer failed.
    pub fn wait_durable_timeout(&self, cts: Timestamp, timeout: Duration) -> Result<bool> {
        if self.durable_cts() >= cts {
            return Ok(true);
        }
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock();
        loop {
            if self.durable_cts() >= cts {
                return Ok(true);
            }
            if let Some(e) = &st.error {
                return Err(TspError::Io(std::io::Error::other(format!(
                    "persistence writer failed: {e}"
                ))));
            }
            if st.queue.is_empty() && !st.writing {
                return Ok(true);
            }
            if st.abandoned {
                return Err(TspError::Io(std::io::Error::other(
                    "persistence writer was abandoned with work pending",
                )));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(false);
            }
            let _ = self.shared.done.wait_for(&mut st, deadline - now);
        }
    }

    /// Attempts to resurrect a sticky-failed writer without a process
    /// restart.
    ///
    /// Returns `Ok(false)` if the writer is healthy (nothing to recover).
    /// Otherwise: the dead writer thread is joined, the retained failed
    /// batch is re-applied (under the same [`RetryPolicy`]), the depth
    /// gauge is reconciled back to the still-queued entries, the
    /// `DurableCTS` watermark advances over the replayed batch, and a fresh
    /// writer thread is spawned to drain the retained queue in
    /// commit-timestamp order — then `Ok(true)`.
    ///
    /// If the replay fails again the writer stays sticky-failed (with the
    /// new error and the batch retained for the next attempt) and the error
    /// is returned.  An abandoned writer is not recoverable — the abandon
    /// path models a crash, whose queue is *lost* by definition.
    pub fn try_recover(&self) -> Result<bool> {
        {
            let mut st = self.shared.state.lock();
            if st.error.is_none() {
                return Ok(false);
            }
            if st.abandoned {
                return Err(TspError::permanent_io(
                    "persistence writer was abandoned; its queue is lost",
                ));
            }
            if st.recovering {
                return Err(TspError::transient_io(
                    "persistence writer recovery already in progress",
                ));
            }
            st.recovering = true;
        }
        // The failed writer thread has returned (it goes sticky by
        // returning from its loop); reap it so the re-spawn below does not
        // leak a handle.
        if let Some(handle) = self.thread.lock().take() {
            let _ = handle.join();
        }
        // Replay the retained batch outside the state lock (it is I/O) —
        // `recovering` keeps concurrent recoveries out, and the sticky
        // `error` keeps enqueues and waiters failing fast meanwhile.
        let retained = self.shared.state.lock().retained.take();
        if let Some((max_cts, batch)) = retained {
            if let Err(e) = write_with_retry(&self.shared, &batch) {
                let mut st = self.shared.state.lock();
                st.retained = Some((max_cts, batch));
                st.error = Some(e.to_string());
                st.recovering = false;
                return Err(e);
            }
            self.shared.durable.fetch_max(max_cts, Ordering::AcqRel);
        }
        {
            let mut st = self.shared.state.lock();
            st.error = None;
            st.writing = false;
            st.recovering = false;
            // The sticky-failure path subtracted the queued entries from
            // the gauge (they were dead); they are live again now.
            if st.gauge_reconciled {
                st.gauge_reconciled = false;
                if let Some(g) = &self.shared.depth_gauge {
                    g.fetch_add(st.queue.len() as u64, Ordering::Relaxed);
                }
            }
        }
        *self.thread.lock() = Some(spawn_writer_thread(&self.shared));
        self.shared.recoveries.fetch_add(1, Ordering::Relaxed);
        // Wake durability waiters: the watermark may have passed them, and
        // the rest of the queue is draining again.
        self.shared.done.notify_all();
        Ok(true)
    }

    /// Telemetry: time batches dwelled in the queue before being drained
    /// (nanoseconds).
    pub fn queue_dwell(&self) -> &Histogram {
        &self.shared.dwell
    }

    /// Telemetry: enqueued batches coalesced per backend `write_batch`.
    pub fn coalesced_batch(&self) -> &Histogram {
        &self.shared.coalesce
    }
}

impl Drop for BatchWriter {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        if let Some(handle) = self.thread.lock().take() {
            let _ = handle.join();
        }
    }
}

/// Subtracts the dead queue's depth from the gauge, at most once across
/// the sticky-failure and abandon paths.  The entries stay in the queue
/// (waiters must keep observing the pending work), so letting both paths
/// subtract — a writer thread failing after a kill, or killed after a
/// failure — would underflow the `u64` gauge to a huge value.
fn reconcile_dead_queue_gauge(shared: &Shared, st: &mut WriterState) {
    if st.gauge_reconciled {
        return;
    }
    st.gauge_reconciled = true;
    if let Some(g) = &shared.depth_gauge {
        g.fetch_sub(st.queue.len() as u64, Ordering::Relaxed);
    }
}

/// Spawns (or re-spawns, after recovery) the writer thread.
fn spawn_writer_thread(shared: &Arc<Shared>) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name("tsp-batch-writer".into())
        .spawn(move || writer_loop(&shared))
        .expect("spawn batch-writer thread")
}

/// Applies `batch` under the writer's [`RetryPolicy`]: transient failures
/// are re-attempted with capped, jittered exponential backoff until the
/// attempt count or deadline is exhausted; permanent failures (and an
/// abandon observed mid-retry) return immediately.
fn write_with_retry(shared: &Shared, batch: &WriteBatch) -> Result<()> {
    let policy = shared.policy;
    let max_attempts = policy.max_attempts.max(1);
    let mut started: Option<Instant> = None;
    // Deterministic jitter seed, decorrelated across batches by the current
    // watermark so concurrent writers do not retry in lockstep.
    let mut rng = 0x5EED_BA7C_u64 ^ shared.durable.load(Ordering::Relaxed);
    let mut failed = 0u32;
    loop {
        match shared.backend.write_batch(batch) {
            Ok(()) => return Ok(()),
            Err(e) => {
                failed += 1;
                let first_failure = *started.get_or_insert_with(Instant::now);
                let budget_left = failed < max_attempts
                    && policy.deadline.is_none_or(|d| first_failure.elapsed() < d);
                if !e.is_transient() || !budget_left {
                    return Err(e);
                }
                // A kill during retries models a crash: stop pushing.
                if shared.state.lock().abandoned {
                    return Err(e);
                }
                shared.retries.fetch_add(1, Ordering::Relaxed);
                let backoff = policy.backoff(failed, &mut rng);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
        }
    }
}

/// A drained queue entry: commit timestamp, batch, enqueue instant.
type Entry = (Timestamp, WriteBatch, Instant);

/// Returns the batch buffers of a written drain to the pool and empties
/// `drained` for the next drain (under the recycling rule).
fn recycle_drained(shared: &Shared, drained: &mut Vec<Entry>) {
    let used = drained.len();
    let mut pool = shared.pool.lock();
    for (_, mut batch, _) in drained.drain(..) {
        batch.recycle();
        if pool.len() < POOLED_BUFFERS && batch.capacity() > 0 {
            pool.push(batch);
        }
    }
    if !keeps(drained.capacity(), used, KEEP_ENTRIES) {
        *drained = Vec::new();
    }
}

/// The writer thread: drain → coalesce (cts order) → one `write_batch`
/// (with in-place retries) → advance `DurableCTS` → wake waiters.
fn writer_loop(shared: &Shared) {
    // Kept across drains: the empty queue the next drain swaps in, and the
    // buffer a multi-batch drain is concatenated into.
    let mut drained: Vec<Entry> = Vec::new();
    let mut merged = WriteBatch::new();
    loop {
        {
            let mut st = shared.state.lock();
            loop {
                if st.abandoned {
                    return;
                }
                if !st.queue.is_empty() {
                    break;
                }
                if st.shutdown {
                    return;
                }
                shared.work.wait(&mut st);
            }
            std::mem::swap(&mut st.queue, &mut drained);
            // Commit-timestamp order: enqueues happen inside the per-group
            // commit locks, so per-table batches already arrive in cts
            // order; sorting additionally restores order across groups
            // *within one drain*.  Note the prefix guarantee is only
            // end-to-end when all commits to this backend draw their cts
            // under one commit-lock domain (the normal one-backend-per-table
            // deployment) — see the module docs for the shared-backend
            // caveat.
            if !drained.is_sorted_by_key(|(cts, _, _)| *cts) {
                drained.sort_by_key(|(cts, _, _)| *cts);
            }
            st.writing = true;
            if let Some(g) = &shared.depth_gauge {
                g.fetch_sub(drained.len() as u64, Ordering::Relaxed);
            }
            // The queue just went empty: wake any enqueuer blocked on
            // backpressure so it can refill while we apply this drain.
            shared.done.notify_all();
        }
        // Telemetry, on the writer thread (never the commit path): one
        // coalesce sample per drain, one dwell sample per drained batch.
        shared.coalesce.record_value(drained.len() as u64);
        let drain_instant = Instant::now();
        for (_, _, enqueued_at) in &drained {
            shared
                .dwell
                .record_nanos(drain_instant.duration_since(*enqueued_at).as_nanos() as u64);
        }
        let max_cts = drained.last().map(|(cts, _, _)| *cts).unwrap_or(0);
        // A lone batch is written as is; several are concatenated, in
        // order, into the merge buffer.
        let coalesced = if drained.len() == 1 {
            &mut drained[0].1
        } else {
            merged.recycle();
            for (_, batch, _) in &drained {
                merged.append(batch);
            }
            &mut merged
        };
        match write_with_retry(shared, coalesced) {
            Ok(()) => {
                shared.durable.fetch_max(max_cts, Ordering::AcqRel);
                // Pool the buffers before `writing` drops, so a committer
                // that waited for the drain finds them there.
                recycle_drained(shared, &mut drained);
                shared.state.lock().writing = false;
                shared.done.notify_all();
            }
            Err(e) => {
                let mut st = shared.state.lock();
                st.writing = false;
                st.error = Some(e.to_string());
                // Retain the failed batch for `try_recover` to replay
                // ahead of the queue.
                st.retained = Some((max_cts, std::mem::take(coalesced)));
                // Work enqueued during the failed write will not drain
                // unless recovery succeeds — keep the gauge honest.
                reconcile_dead_queue_gauge(shared, &mut st);
                shared.done.notify_all();
                return; // sticky failure: stop consuming work
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::BTreeBackend;

    fn batch(k: u8, v: u8) -> WriteBatch {
        let mut b = WriteBatch::new();
        b.put(vec![k], vec![v]);
        b
    }

    #[test]
    fn enqueued_batches_become_durable_in_order() {
        let backend = Arc::new(BTreeBackend::new());
        let writer = BatchWriter::spawn(backend.clone());
        writer.enqueue(10, batch(1, 1)).unwrap();
        writer.enqueue(20, batch(2, 2)).unwrap();
        writer.wait_durable(20).unwrap();
        assert!(writer.durable_cts() >= 20);
        assert_eq!(backend.get(&[1]).unwrap(), Some(vec![1]));
        assert_eq!(backend.get(&[2]).unwrap(), Some(vec![2]));
    }

    /// Written batches go back to the pool for the next commit; a buffer
    /// one huge commit grew is kept only while its next use needs it.
    #[test]
    fn the_pool_reuses_buffers_but_not_a_large_one() {
        let writer = BatchWriter::spawn(Arc::new(BTreeBackend::new()));
        let fill = |batch: &mut WriteBatch, keys: u32| {
            for k in 0..keys {
                batch.put(k.to_be_bytes(), [0; 8]);
            }
        };
        let mut steady = writer.take_buffer();
        fill(&mut steady, 100);
        writer.enqueue(1, steady).unwrap();
        writer.sync_barrier().unwrap();
        let pooled = writer.pooled_capacities();
        assert_eq!(pooled.len(), 1, "the written batch was pooled");
        let reused = writer.take_buffer();
        assert!(reused.is_empty() && reused.capacity() == pooled[0]);
        drop(reused);

        let mut big = writer.take_buffer();
        fill(&mut big, 100_000);
        writer.enqueue(2, big).unwrap();
        writer.sync_barrier().unwrap();
        let mut small = writer.take_buffer();
        assert!(small.capacity() >= 100_000, "the big buffer, recycled");
        fill(&mut small, 10);
        let need = small.byte_len();
        writer.enqueue(3, small).unwrap();
        writer.sync_barrier().unwrap();
        for capacity in writer.pooled_capacities() {
            assert!(
                capacity <= 2 * need || capacity < tsp_common::recycle::KEEP_BYTES,
                "pooled buffer of {capacity} bytes after a {need}-byte batch"
            );
        }
    }

    #[test]
    fn coalescing_preserves_last_write_wins() {
        // Park the writer inside `write_batch` on a sentinel batch so the
        // two out-of-order batches are guaranteed to share one drain — the
        // re-sort only happens within a drain, and an unparked writer could
        // race ahead, apply cts 30 alone and let the later-arriving cts 25
        // win instead.
        let backend = GatedBackend::new();
        let writer = BatchWriter::spawn(backend.clone() as Arc<dyn StorageBackend>);
        writer.enqueue(10, batch(1, 1)).unwrap();
        while writer.queued_len() > 0 {
            std::thread::yield_now(); // writer picked the sentinel up and is parked
        }
        // Enqueue out of cts order on purpose: the drain re-sorts.
        writer.enqueue(30, batch(7, 30)).unwrap();
        writer.enqueue(25, batch(7, 25)).unwrap();
        backend.release();
        writer.sync_barrier().unwrap();
        assert_eq!(backend.get(&[7]).unwrap(), Some(vec![30]));
    }

    #[test]
    fn wait_durable_on_idle_writer_returns_immediately() {
        let backend = Arc::new(BTreeBackend::new());
        let writer = BatchWriter::spawn(backend);
        // Nothing enqueued: the barrier must not block.
        writer.sync_barrier().unwrap();
        writer.wait_durable(0).unwrap();
    }

    #[test]
    fn drop_drains_the_queue() {
        let backend = Arc::new(BTreeBackend::new());
        {
            let writer = BatchWriter::spawn(backend.clone());
            for i in 0..50u8 {
                writer.enqueue(i as u64 + 1, batch(i, i)).unwrap();
            }
        } // drop joins after draining
        assert_eq!(backend.len(), 50);
    }

    /// A backend whose `write_batch` blocks until released — for exercising
    /// backpressure deterministically.
    struct GatedBackend {
        inner: BTreeBackend,
        gate: Mutex<bool>,
        open: Condvar,
    }

    impl GatedBackend {
        fn new() -> Arc<Self> {
            Arc::new(GatedBackend {
                inner: BTreeBackend::new(),
                gate: Mutex::new(false),
                open: Condvar::new(),
            })
        }

        fn release(&self) {
            *self.gate.lock() = true;
            self.open.notify_all();
        }
    }

    impl StorageBackend for GatedBackend {
        fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
            self.inner.get(key)
        }
        fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
            self.inner.put(key, value)
        }
        fn delete(&self, key: &[u8]) -> Result<()> {
            self.inner.delete(key)
        }
        fn write_batch(&self, batch: &WriteBatch) -> Result<()> {
            let mut open = self.gate.lock();
            while !*open {
                self.open.wait(&mut open);
            }
            drop(open);
            self.inner.write_batch(batch)
        }
        fn scan(&self, visit: &mut dyn FnMut(&[u8], &[u8]) -> bool) -> Result<()> {
            self.inner.scan(visit)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn sync(&self) -> Result<()> {
            self.inner.sync()
        }
        fn name(&self) -> &'static str {
            "gated-btree"
        }
    }

    #[test]
    fn enqueue_blocks_at_capacity_and_resumes_after_drain() {
        let backend = GatedBackend::new();
        let gauge = Arc::new(AtomicU64::new(0));
        let writer = BatchWriter::spawn_with(backend.clone(), 2, Some(Arc::clone(&gauge)));
        assert_eq!(writer.capacity(), 2);
        // First enqueue is drained immediately into the (blocked) write;
        // two more fill the bounded queue.
        writer.enqueue(1, batch(1, 1)).unwrap();
        while writer.queued_len() > 0 {
            std::thread::yield_now(); // wait for the writer thread to drain it
        }
        writer.enqueue(2, batch(2, 2)).unwrap();
        writer.enqueue(3, batch(3, 3)).unwrap();
        assert_eq!(writer.queued_len(), 2);
        assert_eq!(gauge.load(Ordering::Relaxed), 2);

        // The fourth enqueue must block until the backend is released.
        let blocked = {
            let writer = Arc::clone(&writer);
            std::thread::spawn(move || writer.enqueue(4, batch(4, 4)))
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!blocked.is_finished(), "enqueue should block at capacity");

        backend.release();
        blocked.join().unwrap().unwrap();
        writer.sync_barrier().unwrap();
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
        for k in 1..=4u8 {
            assert_eq!(backend.get(&[k]).unwrap(), Some(vec![k]));
        }
    }

    #[test]
    fn telemetry_tracks_dwell_and_coalescing() {
        let backend = GatedBackend::new();
        let writer = BatchWriter::spawn_with(backend.clone(), 64, None);
        // First batch drains alone into the parked write …
        writer.enqueue(1, batch(1, 1)).unwrap();
        while writer.queued_len() > 0 {
            std::thread::yield_now();
        }
        // … while two more queue up and must coalesce into one drain.
        writer.enqueue(2, batch(2, 2)).unwrap();
        writer.enqueue(3, batch(3, 3)).unwrap();
        backend.release();
        writer.sync_barrier().unwrap();
        assert_eq!(writer.queue_dwell().count(), 3);
        let coalesce = writer.coalesced_batch();
        assert_eq!(coalesce.count(), 2);
        assert_eq!(coalesce.sum_value(), 3);
        assert_eq!(coalesce.max_value(), 2);
        assert!(!writer.is_failed());
    }

    #[test]
    fn depth_gauge_tracks_enqueue_and_drain() {
        let backend = GatedBackend::new();
        let gauge = Arc::new(AtomicU64::new(0));
        let writer = BatchWriter::spawn_with(backend.clone(), 64, Some(Arc::clone(&gauge)));
        writer.enqueue(1, batch(1, 1)).unwrap();
        writer.enqueue(2, batch(2, 2)).unwrap();
        assert!(gauge.load(Ordering::Relaxed) >= 1);
        backend.release();
        writer.sync_barrier().unwrap();
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
    }

    /// A backend whose `write_batch` blocks until released and then fails —
    /// for queueing work behind a write that is about to sticky-fail.
    struct GatedFailingBackend {
        gate: Mutex<bool>,
        open: Condvar,
    }

    impl GatedFailingBackend {
        fn new() -> Arc<Self> {
            Arc::new(GatedFailingBackend {
                gate: Mutex::new(false),
                open: Condvar::new(),
            })
        }

        fn release(&self) {
            *self.gate.lock() = true;
            self.open.notify_all();
        }
    }

    impl StorageBackend for GatedFailingBackend {
        fn get(&self, _key: &[u8]) -> Result<Option<Vec<u8>>> {
            Ok(None)
        }
        fn put(&self, _key: &[u8], _value: &[u8]) -> Result<()> {
            Err(TspError::Io(std::io::Error::other("device failed")))
        }
        fn delete(&self, _key: &[u8]) -> Result<()> {
            Err(TspError::Io(std::io::Error::other("device failed")))
        }
        fn write_batch(&self, _batch: &WriteBatch) -> Result<()> {
            let mut open = self.gate.lock();
            while !*open {
                self.open.wait(&mut open);
            }
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
            "gated-failing"
        }
    }

    /// Sticky failure reconciles the gauge for the dead queue; a
    /// subsequent `kill_and_abandon_queue` must not subtract the same
    /// entries again (the double-subtract underflowed the `u64` gauge).
    #[test]
    fn gauge_does_not_underflow_on_failure_then_abandon() {
        let backend = GatedFailingBackend::new();
        let gauge = Arc::new(AtomicU64::new(0));
        let writer = BatchWriter::spawn_with(backend.clone(), 64, Some(Arc::clone(&gauge)));
        // First batch is drained into the parked (soon-failing) write …
        writer.enqueue(1, batch(1, 1)).unwrap();
        while writer.queued_len() > 0 {
            std::thread::yield_now();
        }
        // … and two more queue up behind it.
        writer.enqueue(2, batch(2, 2)).unwrap();
        writer.enqueue(3, batch(3, 3)).unwrap();
        assert_eq!(gauge.load(Ordering::Relaxed), 2);
        backend.release();
        // The failure is sticky: waiters see it, the gauge is reconciled.
        assert!(writer.sync_barrier().is_err());
        assert!(writer.is_failed());
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
        // Abandoning afterwards must not subtract the still-queued
        // entries a second time.
        writer.kill_and_abandon_queue();
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
        assert_eq!(writer.queued_len(), 2, "dead entries stay observable");
    }

    #[test]
    fn kill_and_abandon_loses_only_the_queued_suffix() {
        let backend = Arc::new(BTreeBackend::new());
        let writer = BatchWriter::spawn(backend.clone());
        writer.enqueue(1, batch(1, 1)).unwrap();
        writer.wait_durable(1).unwrap();
        // Stall nothing — just kill with (possibly) queued work.
        writer.enqueue(2, batch(2, 2)).unwrap();
        writer.kill_and_abandon_queue();
        assert_eq!(backend.get(&[1]).unwrap(), Some(vec![1]));
        // The second batch either made it before the kill or was dropped;
        // either way the writer rejects further work.
        assert!(writer.enqueue(3, batch(3, 3)).is_err());
    }

    /// Regression for the sticky-failure wakeup path: the transition must
    /// `notify_all` every class of parked waiter — a backpressured
    /// `enqueue`, a `wait_durable` and a `sync_barrier` — so none of them
    /// sleeps forever on a writer that will never make progress.
    #[test]
    fn failure_transition_wakes_every_parked_waiter() {
        let backend = GatedFailingBackend::new();
        let writer =
            BatchWriter::spawn_with_policy(backend.clone(), 1, None, RetryPolicy::no_retries());
        // Drain the first batch into the parked (about-to-fail) write, then
        // fill the capacity-1 queue.
        writer.enqueue(1, batch(1, 1)).unwrap();
        while writer.queued_len() > 0 {
            std::thread::yield_now();
        }
        writer.enqueue(2, batch(2, 2)).unwrap();

        let enq = {
            let writer = Arc::clone(&writer);
            std::thread::spawn(move || writer.enqueue(3, batch(3, 3)))
        };
        let waiter = {
            let writer = Arc::clone(&writer);
            std::thread::spawn(move || writer.wait_durable(2))
        };
        let barrier = {
            let writer = Arc::clone(&writer);
            std::thread::spawn(move || writer.sync_barrier())
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(!enq.is_finished(), "enqueue should be parked on capacity");
        assert!(!waiter.is_finished(), "wait_durable should be parked");
        assert!(!barrier.is_finished(), "sync_barrier should be parked");

        backend.release();
        // All three must observe the sticky failure promptly.
        assert!(enq.join().unwrap().is_err());
        assert!(waiter.join().unwrap().is_err());
        assert!(barrier.join().unwrap().is_err());
        assert!(writer.is_failed());
    }

    /// A backend that fails `write_batch` with a *transient* error the first
    /// `failures_left` times, then behaves normally.  Optionally gated so
    /// tests can queue work behind the failing write deterministically.
    struct FlakyBackend {
        inner: BTreeBackend,
        failures_left: AtomicU64,
        gate: Mutex<bool>,
        open: Condvar,
        gated: bool,
    }

    impl FlakyBackend {
        fn new(failures: u64) -> Arc<Self> {
            Arc::new(FlakyBackend {
                inner: BTreeBackend::new(),
                failures_left: AtomicU64::new(failures),
                gate: Mutex::new(false),
                open: Condvar::new(),
                gated: false,
            })
        }

        fn new_gated(failures: u64) -> Arc<Self> {
            Arc::new(FlakyBackend {
                inner: BTreeBackend::new(),
                failures_left: AtomicU64::new(failures),
                gate: Mutex::new(false),
                open: Condvar::new(),
                gated: true,
            })
        }

        fn release(&self) {
            *self.gate.lock() = true;
            self.open.notify_all();
        }
    }

    impl StorageBackend for FlakyBackend {
        fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
            self.inner.get(key)
        }
        fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
            self.inner.put(key, value)
        }
        fn delete(&self, key: &[u8]) -> Result<()> {
            self.inner.delete(key)
        }
        fn write_batch(&self, batch: &WriteBatch) -> Result<()> {
            if self.gated {
                let mut open = self.gate.lock();
                while !*open {
                    self.open.wait(&mut open);
                }
            }
            let left = self.failures_left.load(Ordering::Acquire);
            if left > 0 {
                self.failures_left.store(left - 1, Ordering::Release);
                return Err(TspError::transient_io("flaky device"));
            }
            self.inner.write_batch(batch)
        }
        fn scan(&self, visit: &mut dyn FnMut(&[u8], &[u8]) -> bool) -> Result<()> {
            self.inner.scan(visit)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn sync(&self) -> Result<()> {
            self.inner.sync()
        }
        fn name(&self) -> &'static str {
            "flaky-btree"
        }
    }

    #[test]
    fn transient_failures_retry_in_place_until_success() {
        let backend = FlakyBackend::new(3);
        let policy = RetryPolicy {
            max_attempts: 10,
            initial_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(100),
            deadline: Some(Duration::from_secs(5)),
        };
        let writer = BatchWriter::spawn_with_policy(backend.clone(), 64, None, policy);
        writer.enqueue(5, batch(9, 9)).unwrap();
        writer.wait_durable(5).unwrap();
        assert!(!writer.is_failed());
        assert!(writer.durable_cts() >= 5);
        assert_eq!(backend.get(&[9]).unwrap(), Some(vec![9]));
        assert_eq!(writer.persist_retries(), 3);
        assert_eq!(writer.recoveries(), 0);
    }

    #[test]
    fn exhausted_budget_goes_sticky_with_permanent_error_untouched_by_retries() {
        // Permanent failure: no retries happen even with budget remaining.
        let backend = GatedFailingBackend::new();
        let writer = BatchWriter::spawn_with(backend.clone(), 64, None);
        writer.enqueue(1, batch(1, 1)).unwrap();
        backend.release();
        assert!(writer.wait_durable(1).is_err());
        assert!(writer.is_failed());
        assert_eq!(writer.persist_retries(), 0);
    }

    #[test]
    fn try_recover_replays_retained_batch_and_queue() {
        let backend = FlakyBackend::new_gated(1);
        let gauge = Arc::new(AtomicU64::new(0));
        let writer = BatchWriter::spawn_with_policy(
            backend.clone(),
            64,
            Some(Arc::clone(&gauge)),
            RetryPolicy::no_retries(),
        );
        // First batch drains into the parked, about-to-fail write …
        writer.enqueue(1, batch(1, 1)).unwrap();
        while writer.queued_len() > 0 {
            std::thread::yield_now();
        }
        // … and two more queue up behind it.
        writer.enqueue(2, batch(2, 2)).unwrap();
        writer.enqueue(3, batch(3, 3)).unwrap();
        assert_eq!(gauge.load(Ordering::Relaxed), 2);
        backend.release();
        // One transient failure under a no-retries policy: sticky.
        assert!(writer.sync_barrier().is_err());
        assert!(writer.is_failed());
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
        assert!(writer.enqueue(4, batch(4, 4)).is_err());

        // The device healed (its single injected failure is spent): recover.
        assert!(writer.try_recover().unwrap());
        assert!(!writer.is_failed());
        assert_eq!(writer.recoveries(), 1);
        // The retained batch replayed and the queued suffix drains again.
        writer.enqueue(4, batch(4, 4)).unwrap();
        writer.sync_barrier().unwrap();
        assert!(writer.durable_cts() >= 4);
        for k in 1..=4u8 {
            assert_eq!(backend.get(&[k]).unwrap(), Some(vec![k]), "key {k}");
        }
        assert_eq!(gauge.load(Ordering::Relaxed), 0, "gauge reconciled back");
    }

    #[test]
    fn try_recover_is_noop_on_healthy_writer_and_fails_on_abandoned() {
        let backend = Arc::new(BTreeBackend::new());
        let writer = BatchWriter::spawn(backend.clone());
        assert!(!writer.try_recover().unwrap(), "healthy writer: no-op");
        writer.enqueue(1, batch(1, 1)).unwrap();
        writer.kill_and_abandon_queue();
        // An abandoned writer models a crash — its queue is lost, so there
        // is nothing sticky to recover (error is unset; abandoned is set).
        assert!(!writer.try_recover().unwrap());
        assert!(writer.enqueue(2, batch(2, 2)).is_err());
    }

    #[test]
    fn try_recover_on_failed_then_abandoned_writer_reports_permanent_error() {
        let backend = GatedFailingBackend::new();
        let writer =
            BatchWriter::spawn_with_policy(backend.clone(), 64, None, RetryPolicy::no_retries());
        writer.enqueue(1, batch(1, 1)).unwrap();
        backend.release();
        assert!(writer.wait_durable(1).is_err());
        writer.kill_and_abandon_queue();
        let err = writer.try_recover().unwrap_err();
        assert!(!err.is_transient(), "abandoned writers never heal");
    }

    #[test]
    fn wait_durable_timeout_bounds_the_wait() {
        let backend = GatedBackend::new();
        let writer = BatchWriter::spawn(backend.clone() as Arc<dyn StorageBackend>);
        // Idle writer: vacuously durable, no wait.
        assert!(writer.wait_durable_timeout(0, Duration::ZERO).unwrap());
        writer.enqueue(7, batch(1, 1)).unwrap();
        // Parked behind the gated write: the bounded wait must time out.
        assert!(
            !writer
                .wait_durable_timeout(7, Duration::from_millis(30))
                .unwrap(),
            "gated write cannot become durable within the timeout"
        );
        backend.release();
        assert!(writer
            .wait_durable_timeout(7, Duration::from_secs(10))
            .unwrap());
        assert!(writer.durable_cts() >= 7);
    }
}
