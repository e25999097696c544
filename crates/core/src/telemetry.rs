//! The engine's metrics registry: transaction counters, the labeled
//! abort-reason taxonomy, commit-pipeline stage timings, GC/persistence
//! gauges, and exposition.
//!
//! Every [`StateContext`](crate::context::StateContext) owns one
//! [`Telemetry`] registry, and every layer of the engine records into it:
//!
//! * **Transactions** (context, manager): begun / committed / aborted
//!   [`Counter`]s, bounded-admission waits, durability-wait timeouts.
//! * **Operations** (tables): per-slot striped read and write counters —
//!   the committed-read path's one recording, a relaxed add to its own
//!   slot's stripe (not a latch, never shared with another transaction).
//! * **Commit pipeline** (`manager.rs`): validate / apply / durable-handoff
//!   splits per write commit.
//! * **Abort taxonomy** ([`AbortReason`]): every abort classified by *why* —
//!   First-Committer-Wins conflict, SSI/BOCC certification failure, S2PL
//!   lock conflict, transaction-slot exhaustion, a failed apply, an expired
//!   admission wait or an expired lease.
//! * **GC** (`gc.rs`, `MvccTable::gc`): sweep and reclaim counters plus the
//!   *floor lag* — how far the oldest active snapshot trails the clock, the
//!   quantity that bounds reclaimable garbage.
//! * **Persistence** (`storage::BatchWriter` via the durability hub): the
//!   `persist_queue_depth` gauge lives here; queue-dwell and
//!   coalesced-batch-size histograms and each writer's sticky-failure state
//!   stay on the writers and join a snapshot through the hub's
//!   [`WriterScan`].
//!
//! The registry has one recording API, one [`snapshot`](Telemetry::snapshot)
//! and one [`reset`](Telemetry::reset).  Recording is deliberately boring: relaxed
//! atomic bumps into [`Histogram`]s and counters, no locks.  The overhead
//! budget and the rules for adding a metric live in the "Observability"
//! section of `docs/ARCHITECTURE.md`.
//!
//! Two exposition formats come for free from [`TelemetrySnapshot`]:
//! [`to_json`](TelemetrySnapshot::to_json) (the bench binaries'
//! `--metrics-json` flag) and Prometheus text format
//! ([`to_prometheus`](TelemetrySnapshot::to_prometheus), golden-tested), so
//! a future network layer can serve `/metrics` by calling one method.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tsp_common::{CachePadded, Histogram, TspError};

use crate::stats::{StripedCounter, TxStatsSnapshot};

/// Why a transaction aborted — the labeled taxonomy replacing the old
/// ad-hoc conflict counters.
///
/// Protocols map onto the taxonomy as follows: MVCC/SSI First-Committer-Wins
/// failures are [`FcwConflict`](Self::FcwConflict); BOCC backward validation
/// and SSI read-set certification failures are
/// [`Certification`](Self::Certification); S2PL wait-die victims are
/// [`LockConflict`](Self::LockConflict); `begin` failing to claim a
/// transaction slot is [`SlotExhaustion`](Self::SlotExhaustion); apply or
/// durable-handoff failures (version-array capacity, I/O errors, participant
/// panics) are [`FailedApply`](Self::FailedApply).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// First-Committer-Wins write-write conflict (MVCC, SSI write sets).
    FcwConflict,
    /// Commit-time certification failure (BOCC backward validation, SSI
    /// read-set certification).
    Certification,
    /// Lock conflict resolved by wait-die (S2PL).
    LockConflict,
    /// No free transaction slot at `begin`.
    SlotExhaustion,
    /// In-memory apply or durable hand-off failed (capacity pressure, I/O
    /// error, participant panic); the partial apply was undone.
    FailedApply,
    /// Bounded-wait admission expired: `begin` waited its configured
    /// deadline for a transaction slot and none freed up.  Distinct from
    /// [`SlotExhaustion`](Self::SlotExhaustion), which is the immediate
    /// refusal when no admission wait is configured.
    AdmissionTimeout,
    /// The transaction outlived its lease and a reaper force-aborted it
    /// (abandoned client, hung worker).  Recorded by
    /// `TransactionManager::reap_expired`.
    LeaseExpired,
}

impl AbortReason {
    /// Number of taxonomy entries (the size of per-reason counter arrays).
    pub const COUNT: usize = 7;

    /// Every reason, in stable exposition order.
    pub const ALL: [AbortReason; Self::COUNT] = [
        AbortReason::FcwConflict,
        AbortReason::Certification,
        AbortReason::LockConflict,
        AbortReason::SlotExhaustion,
        AbortReason::FailedApply,
        AbortReason::AdmissionTimeout,
        AbortReason::LeaseExpired,
    ];

    /// Stable index into per-reason counter arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            AbortReason::FcwConflict => 0,
            AbortReason::Certification => 1,
            AbortReason::LockConflict => 2,
            AbortReason::SlotExhaustion => 3,
            AbortReason::FailedApply => 4,
            AbortReason::AdmissionTimeout => 5,
            AbortReason::LeaseExpired => 6,
        }
    }

    /// The snake_case label used in JSON and Prometheus exposition.
    pub fn label(self) -> &'static str {
        match self {
            AbortReason::FcwConflict => "fcw_conflict",
            AbortReason::Certification => "certification",
            AbortReason::LockConflict => "lock_conflict",
            AbortReason::SlotExhaustion => "slot_exhaustion",
            AbortReason::FailedApply => "failed_apply",
            AbortReason::AdmissionTimeout => "admission_timeout",
            AbortReason::LeaseExpired => "lease_expired",
        }
    }

    /// Classifies an error into the taxonomy.
    ///
    /// Every error a commit path can surface maps to exactly one reason;
    /// errors that do not describe a concurrency-control abort (unknown ids,
    /// corruption, I/O) fall into [`FailedApply`](Self::FailedApply) — if
    /// they abort a transaction at all, it died applying.
    pub fn from_error(e: &TspError) -> AbortReason {
        match e {
            TspError::WriteConflict { .. } => AbortReason::FcwConflict,
            TspError::ValidationFailed { .. } => AbortReason::Certification,
            TspError::Deadlock { .. } => AbortReason::LockConflict,
            TspError::CapacityExhausted { .. } => AbortReason::SlotExhaustion,
            TspError::LeaseExpired { .. } => AbortReason::LeaseExpired,
            _ => AbortReason::FailedApply,
        }
    }
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A per-transaction event counter of the [`Telemetry`] registry.  Each
/// sits on its own cache line; record with [`Telemetry::bump`] /
/// [`Telemetry::add`], read with [`Telemetry::count`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Transactions begun.
    Begun,
    /// Transactions committed successfully.
    Committed,
    /// Transactions aborted for any reason (the per-reason taxonomy is
    /// recorded separately with [`Telemetry::record_abort`]).
    Aborted,
    /// Garbage-collection passes over version arrays.
    GcRuns,
    /// Versions reclaimed by garbage collection.
    GcReclaimed,
    /// `begin` calls that found no free slot but obtained one within the
    /// bounded admission wait.
    AdmissionWaits,
    /// Bounded durability waits that elapsed before the commit became
    /// durable.
    DurabilityTimeouts,
    /// Bytes of group redo records handed to persistence.  Each
    /// participant persists its own copy, holding the other participants'
    /// sections; every copy counts.
    RedoBytes,
    /// Torn group commits rolled forward from the redo log at recovery.
    RedoReplays,
    /// Expired transactions force-aborted by the lease reaper.
    LeaseReaps,
}

impl Counter {
    /// Number of counters (the size of the registry's counter array); new
    /// variants go last, so this stays "last variant + 1".
    pub const COUNT: usize = Counter::LeaseReaps as usize + 1;
}

/// The per-context metrics registry: transaction and GC counters, the
/// per-[`AbortReason`] taxonomy, striped per-operation counters,
/// commit-pipeline stage histograms and gauges.  Each
/// [`StateContext`](crate::context::StateContext) owns one; persistence
/// histograms live in each [`BatchWriter`](tsp_storage::BatchWriter) and
/// join at snapshot time through the durability hub's [`WriterScan`].
///
/// All recording is relaxed-atomic and lock-free.  Per-transaction counters
/// each sit on their own cache line ([`CachePadded`]); the per-operation
/// `reads`/`writes` counters are [`StripedCounter`]s indexed by the
/// transaction's slot, so two concurrent transactions never contend on a
/// metrics word — the committed-read path's only recording is one relaxed
/// add to its own slot's stripe.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Per-transaction event counters, indexed by [`Counter`].
    counters: [CachePadded<AtomicU64>; Counter::COUNT],
    /// Aborts per [`AbortReason`], indexed by [`AbortReason::index`].
    aborts: [CachePadded<AtomicU64>; AbortReason::COUNT],
    /// Read operations served (the stripe header on its own line, away
    /// from the histogram words the commit path writes).
    reads: CachePadded<StripedCounter>,
    /// Write operations buffered.
    writes: CachePadded<StripedCounter>,
    /// Gauge: batches queued in the asynchronous persistence writers.  The
    /// `Arc` is shared with every `BatchWriter` of the owning context's
    /// durability hub, which increments it on enqueue and decrements it on
    /// drain; [`reset`](Self::reset) leaves it alone (zeroing a live gauge
    /// would corrupt it).
    persist_queue_depth: Arc<AtomicU64>,
    /// Validation phase (FCW / BOCC / SSI certification) per commit.
    validate_nanos: Histogram,
    /// In-memory apply phase per commit.
    apply_nanos: Histogram,
    /// Durable hand-off phase (synchronous write or queue push) per commit.
    durable_handoff_nanos: Histogram,
    /// Time `begin` spent waiting for a transaction slot under bounded
    /// admission (only begins that actually waited record here).
    admission_wait_nanos: Histogram,
    /// Gauge: clock distance between `now` and the oldest active snapshot
    /// floor at the last GC sweep (logical-timestamp units).
    gc_floor_lag: AtomicU64,
    /// Gauge: age of the oldest active transaction in wall-clock
    /// nanoseconds (0 when no transaction is active or no lease clock is
    /// configured).  Refreshed at snapshot time.
    oldest_active_age_nanos: AtomicU64,
}

impl Telemetry {
    /// Creates an empty registry with the default stripe count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty registry whose per-operation stripes cover
    /// `capacity` transaction slots 1:1 — up to the 1024-stripe cap of
    /// [`StripedCounter::new`]; larger contexts wrap, so a pair of slots
    /// 1024 apart shares a stripe (a deliberate memory bound: stripes are
    /// cache-line padded).
    pub fn striped(capacity: usize) -> Self {
        Telemetry {
            reads: CachePadded::new(StripedCounter::new(capacity)),
            writes: CachePadded::new(StripedCounter::new(capacity)),
            ..Self::default()
        }
    }

    /// Increments a counter by one.
    #[inline]
    pub fn bump(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The current value of a counter.
    pub fn count(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Counts one read performed by the transaction occupying `slot`.
    #[inline]
    pub fn bump_read(&self, slot: usize) {
        self.reads.bump(slot);
    }

    /// Counts one buffered write performed by the transaction occupying
    /// `slot`.
    #[inline]
    pub fn bump_write(&self, slot: usize) {
        self.writes.bump(slot);
    }

    /// Records an abort classified by the taxonomy (the reason counter
    /// only — [`Counter::Aborted`] is bumped where the transaction actually
    /// finishes).
    #[inline]
    pub fn record_abort(&self, reason: AbortReason) {
        self.aborts[reason.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// The queue-depth gauge the durability hub shares with its writers.
    pub(crate) fn persist_queue_depth(&self) -> &Arc<AtomicU64> {
        &self.persist_queue_depth
    }

    /// Validation-phase timings (nanoseconds per commit).
    pub fn validate_nanos(&self) -> &Histogram {
        &self.validate_nanos
    }

    /// In-memory-apply-phase timings (nanoseconds per commit).
    pub fn apply_nanos(&self) -> &Histogram {
        &self.apply_nanos
    }

    /// Durable-handoff-phase timings (nanoseconds per commit).
    pub fn durable_handoff_nanos(&self) -> &Histogram {
        &self.durable_handoff_nanos
    }

    /// Bounded-admission wait timings (nanoseconds per begin that waited).
    pub fn admission_wait_nanos(&self) -> &Histogram {
        &self.admission_wait_nanos
    }

    /// Updates the GC floor-lag gauge (clock `now` minus the oldest active
    /// snapshot floor, in logical-timestamp units).
    pub fn set_gc_floor_lag(&self, lag: u64) {
        self.gc_floor_lag.store(lag, Ordering::Relaxed);
    }

    /// The GC floor-lag gauge.
    pub fn gc_floor_lag(&self) -> u64 {
        self.gc_floor_lag.load(Ordering::Relaxed)
    }

    /// Updates the oldest-active-transaction age gauge (wall nanoseconds).
    pub fn set_oldest_active_age_nanos(&self, age: u64) {
        self.oldest_active_age_nanos.store(age, Ordering::Relaxed);
    }

    /// The oldest-active-transaction age gauge (wall nanoseconds).
    pub fn oldest_active_age_nanos(&self) -> u64 {
        self.oldest_active_age_nanos.load(Ordering::Relaxed)
    }

    fn histograms(&self) -> [&Histogram; 4] {
        [
            &self.validate_nanos,
            &self.apply_nanos,
            &self.durable_handoff_nanos,
            &self.admission_wait_nanos,
        ]
    }

    fn words(&self) -> impl Iterator<Item = &AtomicU64> {
        self.counters.iter().chain(&self.aborts).map(|c| &**c)
    }

    /// Clears every counter, histogram and gauge except the live
    /// queue-depth gauge (between benchmark phases).
    pub fn reset(&self) {
        for c in self.words() {
            c.store(0, Ordering::Relaxed);
        }
        self.reads.reset();
        self.writes.reset();
        for h in self.histograms() {
            h.reset();
        }
        self.gc_floor_lag.store(0, Ordering::Relaxed);
        self.oldest_active_age_nanos.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy of every metric, joined with the writer-level
    /// aggregates a durability-hub scan collected.
    pub fn snapshot(&self, writers: &WriterScan) -> TelemetrySnapshot {
        let aborts = |r: AbortReason| self.aborts[r.index()].load(Ordering::Relaxed);
        TelemetrySnapshot {
            stats: TxStatsSnapshot {
                begun: self.count(Counter::Begun),
                committed: self.count(Counter::Committed),
                aborted: self.count(Counter::Aborted),
                write_conflicts: aborts(AbortReason::FcwConflict),
                validation_failures: aborts(AbortReason::Certification),
                deadlocks: aborts(AbortReason::LockConflict),
                slot_exhaustions: aborts(AbortReason::SlotExhaustion),
                failed_applies: aborts(AbortReason::FailedApply),
                admission_timeouts: aborts(AbortReason::AdmissionTimeout),
                lease_expirations: aborts(AbortReason::LeaseExpired),
                reads: self.reads.sum(),
                writes: self.writes.sum(),
                gc_runs: self.count(Counter::GcRuns),
                gc_reclaimed: self.count(Counter::GcReclaimed),
                admission_waits: self.count(Counter::AdmissionWaits),
                durability_timeouts: self.count(Counter::DurabilityTimeouts),
                persist_queue_depth: self.persist_queue_depth.load(Ordering::Relaxed),
            },
            validate_nanos: HistogramSummary::of(&self.validate_nanos),
            apply_nanos: HistogramSummary::of(&self.apply_nanos),
            durable_handoff_nanos: HistogramSummary::of(&self.durable_handoff_nanos),
            commit_batch_size: HistogramSummary::default(),
            admission_wait_nanos: HistogramSummary::of(&self.admission_wait_nanos),
            queue_dwell_nanos: HistogramSummary::of(&writers.queue_dwell),
            coalesced_batch_size: HistogramSummary::of(&writers.coalesced_batch),
            persist_writers: writers.writers,
            failed_writers: writers.failed,
            persist_retries: writers.retries,
            writer_recoveries: writers.recoveries,
            redo_bytes: self.count(Counter::RedoBytes),
            redo_replays: self.count(Counter::RedoReplays),
            lease_reaps: self.count(Counter::LeaseReaps),
            oldest_active_age_nanos: self.oldest_active_age_nanos(),
            gc_floor_lag: self.gc_floor_lag(),
        }
    }
}

/// A point-in-time summary of one [`Histogram`]: count, sum and the
/// percentiles the evaluation reports (p50/p99/p999), plus min/max.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 if empty).
    pub min: u64,
    /// Largest recorded value (0 if empty).
    pub max: u64,
    /// 50th percentile (0 if empty).
    pub p50: u64,
    /// 99th percentile (0 if empty).
    pub p99: u64,
    /// 99.9th percentile (0 if empty).
    pub p999: u64,
}

impl HistogramSummary {
    /// Summarizes a histogram.
    pub fn of(h: &Histogram) -> Self {
        HistogramSummary {
            count: h.count(),
            sum: h.sum_value(),
            min: h.min_value(),
            max: h.max_value(),
            p50: h.quantile_value(0.5).unwrap_or(0),
            p99: h.quantile_value(0.99).unwrap_or(0),
            p999: h.quantile_value(0.999).unwrap_or(0),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p99\":{},\"p999\":{}}}",
            self.count, self.sum, self.min, self.max, self.p50, self.p99, self.p999
        )
    }
}

/// Writer-level aggregates the durability hubs' writer scan collects at
/// snapshot time: the merged queue-dwell and coalesced-batch-size
/// histograms, attached/failed writer counts and the fault-tolerance
/// counters every writer carries.
#[derive(Debug, Default)]
pub struct WriterScan {
    /// Queue-dwell times merged across the scanned writers (ns).
    pub queue_dwell: Histogram,
    /// Coalesced-batch sizes merged across the scanned writers.
    pub coalesced_batch: Histogram,
    /// Attached asynchronous persistence writers.
    pub writers: u64,
    /// Writers currently wedged in the sticky-failed state.
    pub failed: u64,
    /// In-place `write_batch` retries (transient failures re-attempted).
    pub retries: u64,
    /// Successful writer recoveries (`BatchWriter::try_recover`).
    pub recoveries: u64,
}

/// A structured point-in-time copy of every metric a context exposes — taken by [`Telemetry::snapshot`] from the
/// registry plus the durability hub's [`WriterScan`].
///
/// Serialize with [`to_json`](Self::to_json) or
/// [`to_prometheus`](Self::to_prometheus).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Transaction, abort-taxonomy, operation, GC and admission counters.
    pub stats: TxStatsSnapshot,
    /// Commit validation phase (ns).
    pub validate_nanos: HistogramSummary,
    /// Commit in-memory apply phase (ns).
    pub apply_nanos: HistogramSummary,
    /// Commit durable hand-off phase (ns).
    pub durable_handoff_nanos: HistogramSummary,
    /// Always empty: the engine has no commit batches (every write commit
    /// takes its groups' locks itself).  The field stays only because the
    /// end-to-end benchmark (`e2e_bench/src/main.rs:201`) reads it, and
    /// reports a mean batch size of 1 when it is empty; it goes with the
    /// next change to that benchmark.  Not exported.
    pub commit_batch_size: HistogramSummary,
    /// Bounded-admission slot waits at `begin` (ns; only begins that
    /// actually waited).
    pub admission_wait_nanos: HistogramSummary,
    /// Time batches dwell in persistence queues before being drained (ns).
    pub queue_dwell_nanos: HistogramSummary,
    /// Enqueued batches coalesced per backend `write_batch`.
    pub coalesced_batch_size: HistogramSummary,
    /// Attached asynchronous persistence writers.
    pub persist_writers: u64,
    /// Writers wedged in the sticky-failed state (a wedged writer confirms
    /// no durability until recovered; non-zero here demands attention).
    pub failed_writers: u64,
    /// In-place `write_batch` retries performed by the writers (transient
    /// failures that healed without going sticky).
    pub persist_retries: u64,
    /// Sticky-failed writers successfully resurrected via `try_recover`.
    pub writer_recoveries: u64,
    /// Bytes of group redo records handed to persistence.
    pub redo_bytes: u64,
    /// Torn group commits rolled forward from the redo log at recovery.
    pub redo_replays: u64,
    /// Expired transactions force-aborted by the lease reaper.
    pub lease_reaps: u64,
    /// Age of the oldest active transaction in wall nanoseconds (0 when
    /// idle or when no lease clock is configured).
    pub oldest_active_age_nanos: u64,
    /// GC floor lag at the last sweep (logical-timestamp units).
    pub gc_floor_lag: u64,
}

impl TelemetrySnapshot {
    /// Aborts recorded for one reason.
    pub fn abort_count(&self, reason: AbortReason) -> u64 {
        self.stats.abort_reason(reason)
    }

    /// Serializes the snapshot as one JSON object (hand-rolled; the
    /// workspace carries no serialization dependency).
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        let aborts = AbortReason::ALL
            .iter()
            .map(|r| format!("\"{}\":{}", r.label(), self.abort_count(*r)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            concat!(
                "{{\"txns\":{{\"begun\":{},\"committed\":{},\"aborted\":{}}},",
                "\"ops\":{{\"reads\":{},\"writes\":{}}},",
                "\"aborts\":{{{}}},",
                "\"commit_pipeline\":{{",
                "\"validate_nanos\":{},",
                "\"apply_nanos\":{},",
                "\"durable_handoff_nanos\":{}}},",
                "\"admission\":{{\"waits\":{},\"durability_timeouts\":{},",
                "\"wait_nanos\":{}}},",
                "\"persistence\":{{\"queue_depth\":{},\"writers\":{},",
                "\"failed_writers\":{},",
                "\"retries\":{},",
                "\"recoveries\":{},",
                "\"redo_bytes\":{},",
                "\"redo_replays\":{},",
                "\"queue_dwell_nanos\":{},",
                "\"coalesced_batch_size\":{}}},",
                "\"lease\":{{\"reaps\":{},\"oldest_active_age_nanos\":{}}},",
                "\"gc\":{{\"runs\":{},\"reclaimed_versions\":{},\"floor_lag\":{}}}}}"
            ),
            s.begun,
            s.committed,
            s.aborted,
            s.reads,
            s.writes,
            aborts,
            self.validate_nanos.json(),
            self.apply_nanos.json(),
            self.durable_handoff_nanos.json(),
            s.admission_waits,
            s.durability_timeouts,
            self.admission_wait_nanos.json(),
            s.persist_queue_depth,
            self.persist_writers,
            self.failed_writers,
            self.persist_retries,
            self.writer_recoveries,
            self.redo_bytes,
            self.redo_replays,
            self.queue_dwell_nanos.json(),
            self.coalesced_batch_size.json(),
            self.lease_reaps,
            self.oldest_active_age_nanos,
            s.gc_runs,
            s.gc_reclaimed,
            self.gc_floor_lag,
        )
    }

    /// Serializes the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): counters as `_total`, histograms as summaries with
    /// `quantile` labels, gauges plain.  Durations are exported in
    /// nanoseconds (integer-exact, which keeps the format golden-testable).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        let s = &self.stats;
        for (name, help, value) in [
            ("tsp_txns_begun_total", "Transactions begun.", s.begun),
            (
                "tsp_txns_committed_total",
                "Transactions committed.",
                s.committed,
            ),
            ("tsp_txns_aborted_total", "Transactions aborted.", s.aborted),
            ("tsp_reads_total", "Read operations served.", s.reads),
            ("tsp_writes_total", "Write operations buffered.", s.writes),
            (
                "tsp_gc_runs_total",
                "Garbage-collection passes over version arrays.",
                s.gc_runs,
            ),
            (
                "tsp_gc_reclaimed_versions_total",
                "Versions reclaimed by garbage collection.",
                s.gc_reclaimed,
            ),
            (
                "tsp_admission_waits_total",
                "Begins that waited for (and won) a slot under bounded admission.",
                s.admission_waits,
            ),
            (
                "tsp_durability_timeouts_total",
                "Bounded durability waits that timed out.",
                s.durability_timeouts,
            ),
            (
                "tsp_persist_retries_total",
                "In-place write_batch retries of transient failures.",
                self.persist_retries,
            ),
            (
                "tsp_writer_recoveries_total",
                "Sticky-failed persistence writers successfully recovered.",
                self.writer_recoveries,
            ),
            (
                "tsp_redo_bytes_total",
                "Bytes of group redo records handed to persistence.",
                self.redo_bytes,
            ),
            (
                "tsp_redo_replays_total",
                "Torn group commits rolled forward from the redo log at recovery.",
                self.redo_replays,
            ),
            (
                "tsp_lease_reaps_total",
                "Expired transactions force-aborted by the lease reaper.",
                self.lease_reaps,
            ),
        ] {
            prom_counter(&mut out, name, help, value);
        }
        out.push_str("# HELP tsp_aborts_total Aborts by reason.\n");
        out.push_str("# TYPE tsp_aborts_total counter\n");
        for r in AbortReason::ALL {
            out.push_str(&format!(
                "tsp_aborts_total{{reason=\"{}\"}} {}\n",
                r.label(),
                self.abort_count(r)
            ));
        }
        for (name, help, summary) in [
            (
                "tsp_commit_validate_nanos",
                "Commit validation phase (ns).",
                &self.validate_nanos,
            ),
            (
                "tsp_commit_apply_nanos",
                "Commit in-memory apply phase (ns).",
                &self.apply_nanos,
            ),
            (
                "tsp_commit_durable_handoff_nanos",
                "Commit durable hand-off phase (ns).",
                &self.durable_handoff_nanos,
            ),
            (
                "tsp_admission_wait_nanos",
                "Bounded-admission slot wait at begin (ns).",
                &self.admission_wait_nanos,
            ),
            (
                "tsp_persist_queue_dwell_nanos",
                "Time batches dwell in persistence queues (ns).",
                &self.queue_dwell_nanos,
            ),
            (
                "tsp_persist_coalesced_batch_size",
                "Enqueued batches coalesced per backend write.",
                &self.coalesced_batch_size,
            ),
        ] {
            prom_summary(&mut out, name, help, summary);
        }
        for (name, help, value) in [
            (
                "tsp_persist_queue_depth",
                "Batches queued in asynchronous persistence writers.",
                s.persist_queue_depth,
            ),
            (
                "tsp_persist_writers",
                "Attached asynchronous persistence writers.",
                self.persist_writers,
            ),
            (
                "tsp_persist_failed_writers",
                "Writers in the sticky-failed state.",
                self.failed_writers,
            ),
            (
                "tsp_oldest_active_age_nanos",
                "Age of the oldest active transaction (wall nanoseconds).",
                self.oldest_active_age_nanos,
            ),
            (
                "tsp_gc_floor_lag",
                "Clock distance from the oldest active snapshot floor at the last GC sweep.",
                self.gc_floor_lag,
            ),
        ] {
            prom_gauge(&mut out, name, help, value);
        }
        out
    }
}

fn prom_counter(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
    ));
}

fn prom_gauge(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
    ));
}

fn prom_summary(out: &mut String, name: &str, help: &str, s: &HistogramSummary) {
    out.push_str(&format!(
        concat!(
            "# HELP {n} {h}\n# TYPE {n} summary\n",
            "{n}{{quantile=\"0.5\"}} {p50}\n",
            "{n}{{quantile=\"0.99\"}} {p99}\n",
            "{n}{{quantile=\"0.999\"}} {p999}\n",
            "{n}_sum {sum}\n{n}_count {count}\n"
        ),
        n = name,
        h = help,
        p50 = s.p50,
        p99 = s.p99,
        p999 = s.p999,
        sum = s.sum,
        count = s.count,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn abort_reason_classification_covers_the_error_hierarchy() {
        assert_eq!(
            AbortReason::from_error(&TspError::WriteConflict {
                txn: 1,
                detail: "k".into()
            }),
            AbortReason::FcwConflict
        );
        assert_eq!(
            AbortReason::from_error(&TspError::ValidationFailed { txn: 1 }),
            AbortReason::Certification
        );
        assert_eq!(
            AbortReason::from_error(&TspError::Deadlock { txn: 1 }),
            AbortReason::LockConflict
        );
        assert_eq!(
            AbortReason::from_error(&TspError::CapacityExhausted { what: "slots" }),
            AbortReason::SlotExhaustion
        );
        assert_eq!(
            AbortReason::from_error(&TspError::LeaseExpired { txn: 1 }),
            AbortReason::LeaseExpired
        );
        assert_eq!(
            AbortReason::from_error(&TspError::protocol("boom")),
            AbortReason::FailedApply
        );
        // Index/label round-trips stay stable (the exposition order).
        for (i, r) in AbortReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(format!("{r}"), r.label());
        }
    }

    #[test]
    fn counters_snapshot_and_reset() {
        let t = Telemetry::new();
        t.bump(Counter::Begun);
        t.bump(Counter::Begun);
        t.bump(Counter::Committed);
        t.bump(Counter::AdmissionWaits);
        t.bump(Counter::DurabilityTimeouts);
        t.add(Counter::GcReclaimed, 10);
        let snap = t.snapshot(&WriterScan::default()).stats;
        assert_eq!(snap.begun, 2);
        assert_eq!(snap.committed, 1);
        assert_eq!(snap.admission_waits, 1);
        assert_eq!(snap.durability_timeouts, 1);
        assert_eq!(snap.gc_reclaimed, 10);
        t.reset();
        assert_eq!(
            t.snapshot(&WriterScan::default()).stats,
            TxStatsSnapshot::default()
        );
    }

    #[test]
    fn striped_counters_aggregate_across_stripes() {
        let t = Telemetry::striped(130);
        // Distinct slots land on distinct stripes and all count.
        for slot in 0..130 {
            t.bump_read(slot);
            t.bump_write(slot);
            t.bump_write(slot);
        }
        let snap = t.snapshot(&WriterScan::default()).stats;
        assert_eq!(snap.reads, 130);
        assert_eq!(snap.writes, 260);
        // Slot indexes beyond the stripe count wrap instead of panicking.
        t.bump_read(1 << 20);
        assert_eq!(t.snapshot(&WriterScan::default()).stats.reads, 131);
        t.reset();
        assert_eq!(t.snapshot(&WriterScan::default()).stats.reads, 0);
    }

    #[test]
    fn abort_taxonomy_counts_and_legacy_views_agree() {
        let t = Telemetry::new();
        t.record_abort(AbortReason::FcwConflict);
        for r in AbortReason::ALL {
            t.record_abort(r);
        }
        let snap = t.snapshot(&WriterScan::default());
        let s = snap.stats;
        assert_eq!(s.write_conflicts, 2);
        assert_eq!(s.validation_failures, 1);
        assert_eq!(s.deadlocks, 1);
        assert_eq!(s.slot_exhaustions, 1);
        assert_eq!(s.failed_applies, 1);
        assert_eq!(s.admission_timeouts, 1);
        assert_eq!(s.lease_expirations, 1);
        for r in AbortReason::ALL {
            assert_eq!(snap.abort_count(r), s.abort_reason(r));
        }
        let doubled = Telemetry::new();
        for _ in 0..2 {
            doubled.record_abort(AbortReason::FcwConflict);
            for r in AbortReason::ALL {
                doubled.record_abort(r);
            }
        }
        let d = doubled.snapshot(&WriterScan::default()).stats;
        assert_eq!(d.write_conflicts, 4);
        assert_eq!(d.slot_exhaustions, 2);
    }

    #[test]
    fn concurrent_bumps_are_counted() {
        let t = Arc::new(Telemetry::new());
        let handles: Vec<_> = (0..4)
            .map(|slot| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        t.bump(Counter::Committed);
                        t.bump_read(slot);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = t.snapshot(&WriterScan::default()).stats;
        assert_eq!(snap.committed, 4000);
        assert_eq!(snap.reads, 4000);
    }

    #[test]
    fn concurrent_recording_is_consistent_with_snapshots() {
        // Recorders hammer the registry while a reader repeatedly snapshots;
        // every snapshot must be internally sane (count monotone, quantiles
        // present once non-empty) and the final state exact.
        let t = Arc::new(Telemetry::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        t.validate_nanos().record_nanos(100 + (w * 10 + i % 7));
                        t.apply_nanos().record_value(1 + i % 5);
                    }
                })
            })
            .collect();
        let reader = {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let summary = HistogramSummary::of(t.validate_nanos());
                    assert!(summary.count >= last, "count regressed");
                    if summary.count > 0 {
                        // All recorded values are >= 100ns, so any
                        // mid-flight quantile must be non-zero.  (Ordering
                        // *between* quantiles is not asserted: each one
                        // rescans the live buckets, so two quantile reads
                        // see two different distributions.)
                        assert!(summary.p50 > 0);
                        assert!(summary.p999 > 0);
                    }
                    last = summary.count;
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        assert_eq!(t.validate_nanos().count(), 40_000);
        assert_eq!(t.apply_nanos().count(), 40_000);
    }

    /// Golden test of the Prometheus text exposition: the snapshot is built
    /// as a struct literal (no histogram bucket math involved), so the
    /// output is fully deterministic and compared byte-for-byte.  If this
    /// fails because the format deliberately changed, update the golden —
    /// and treat it as the API break it is for anything scraping us.
    #[test]
    fn prometheus_exposition_matches_golden() {
        let snap = TelemetrySnapshot {
            stats: TxStatsSnapshot {
                begun: 10,
                committed: 7,
                aborted: 3,
                reads: 40,
                writes: 12,
                gc_runs: 2,
                gc_reclaimed: 5,
                admission_waits: 6,
                durability_timeouts: 1,
                persist_queue_depth: 1,
                write_conflicts: 1,
                deadlocks: 2,
                admission_timeouts: 4,
                lease_expirations: 3,
                ..Default::default()
            },
            validate_nanos: HistogramSummary {
                count: 7,
                sum: 700,
                min: 50,
                max: 200,
                p50: 100,
                p99: 200,
                p999: 200,
            },
            persist_writers: 2,
            failed_writers: 1,
            persist_retries: 3,
            writer_recoveries: 1,
            redo_bytes: 256,
            redo_replays: 2,
            lease_reaps: 3,
            oldest_active_age_nanos: 1500,
            gc_floor_lag: 4,
            ..Default::default()
        };
        let golden = "\
# HELP tsp_txns_begun_total Transactions begun.
# TYPE tsp_txns_begun_total counter
tsp_txns_begun_total 10
# HELP tsp_txns_committed_total Transactions committed.
# TYPE tsp_txns_committed_total counter
tsp_txns_committed_total 7
# HELP tsp_txns_aborted_total Transactions aborted.
# TYPE tsp_txns_aborted_total counter
tsp_txns_aborted_total 3
# HELP tsp_reads_total Read operations served.
# TYPE tsp_reads_total counter
tsp_reads_total 40
# HELP tsp_writes_total Write operations buffered.
# TYPE tsp_writes_total counter
tsp_writes_total 12
# HELP tsp_gc_runs_total Garbage-collection passes over version arrays.
# TYPE tsp_gc_runs_total counter
tsp_gc_runs_total 2
# HELP tsp_gc_reclaimed_versions_total Versions reclaimed by garbage collection.
# TYPE tsp_gc_reclaimed_versions_total counter
tsp_gc_reclaimed_versions_total 5
# HELP tsp_admission_waits_total Begins that waited for (and won) a slot under bounded admission.
# TYPE tsp_admission_waits_total counter
tsp_admission_waits_total 6
# HELP tsp_durability_timeouts_total Bounded durability waits that timed out.
# TYPE tsp_durability_timeouts_total counter
tsp_durability_timeouts_total 1
# HELP tsp_persist_retries_total In-place write_batch retries of transient failures.
# TYPE tsp_persist_retries_total counter
tsp_persist_retries_total 3
# HELP tsp_writer_recoveries_total Sticky-failed persistence writers successfully recovered.
# TYPE tsp_writer_recoveries_total counter
tsp_writer_recoveries_total 1
# HELP tsp_redo_bytes_total Bytes of group redo records handed to persistence.
# TYPE tsp_redo_bytes_total counter
tsp_redo_bytes_total 256
# HELP tsp_redo_replays_total Torn group commits rolled forward from the redo log at recovery.
# TYPE tsp_redo_replays_total counter
tsp_redo_replays_total 2
# HELP tsp_lease_reaps_total Expired transactions force-aborted by the lease reaper.
# TYPE tsp_lease_reaps_total counter
tsp_lease_reaps_total 3
# HELP tsp_aborts_total Aborts by reason.
# TYPE tsp_aborts_total counter
tsp_aborts_total{reason=\"fcw_conflict\"} 1
tsp_aborts_total{reason=\"certification\"} 0
tsp_aborts_total{reason=\"lock_conflict\"} 2
tsp_aborts_total{reason=\"slot_exhaustion\"} 0
tsp_aborts_total{reason=\"failed_apply\"} 0
tsp_aborts_total{reason=\"admission_timeout\"} 4
tsp_aborts_total{reason=\"lease_expired\"} 3
# HELP tsp_commit_validate_nanos Commit validation phase (ns).
# TYPE tsp_commit_validate_nanos summary
tsp_commit_validate_nanos{quantile=\"0.5\"} 100
tsp_commit_validate_nanos{quantile=\"0.99\"} 200
tsp_commit_validate_nanos{quantile=\"0.999\"} 200
tsp_commit_validate_nanos_sum 700
tsp_commit_validate_nanos_count 7
# HELP tsp_commit_apply_nanos Commit in-memory apply phase (ns).
# TYPE tsp_commit_apply_nanos summary
tsp_commit_apply_nanos{quantile=\"0.5\"} 0
tsp_commit_apply_nanos{quantile=\"0.99\"} 0
tsp_commit_apply_nanos{quantile=\"0.999\"} 0
tsp_commit_apply_nanos_sum 0
tsp_commit_apply_nanos_count 0
# HELP tsp_commit_durable_handoff_nanos Commit durable hand-off phase (ns).
# TYPE tsp_commit_durable_handoff_nanos summary
tsp_commit_durable_handoff_nanos{quantile=\"0.5\"} 0
tsp_commit_durable_handoff_nanos{quantile=\"0.99\"} 0
tsp_commit_durable_handoff_nanos{quantile=\"0.999\"} 0
tsp_commit_durable_handoff_nanos_sum 0
tsp_commit_durable_handoff_nanos_count 0
# HELP tsp_admission_wait_nanos Bounded-admission slot wait at begin (ns).
# TYPE tsp_admission_wait_nanos summary
tsp_admission_wait_nanos{quantile=\"0.5\"} 0
tsp_admission_wait_nanos{quantile=\"0.99\"} 0
tsp_admission_wait_nanos{quantile=\"0.999\"} 0
tsp_admission_wait_nanos_sum 0
tsp_admission_wait_nanos_count 0
# HELP tsp_persist_queue_dwell_nanos Time batches dwell in persistence queues (ns).
# TYPE tsp_persist_queue_dwell_nanos summary
tsp_persist_queue_dwell_nanos{quantile=\"0.5\"} 0
tsp_persist_queue_dwell_nanos{quantile=\"0.99\"} 0
tsp_persist_queue_dwell_nanos{quantile=\"0.999\"} 0
tsp_persist_queue_dwell_nanos_sum 0
tsp_persist_queue_dwell_nanos_count 0
# HELP tsp_persist_coalesced_batch_size Enqueued batches coalesced per backend write.
# TYPE tsp_persist_coalesced_batch_size summary
tsp_persist_coalesced_batch_size{quantile=\"0.5\"} 0
tsp_persist_coalesced_batch_size{quantile=\"0.99\"} 0
tsp_persist_coalesced_batch_size{quantile=\"0.999\"} 0
tsp_persist_coalesced_batch_size_sum 0
tsp_persist_coalesced_batch_size_count 0
# HELP tsp_persist_queue_depth Batches queued in asynchronous persistence writers.
# TYPE tsp_persist_queue_depth gauge
tsp_persist_queue_depth 1
# HELP tsp_persist_writers Attached asynchronous persistence writers.
# TYPE tsp_persist_writers gauge
tsp_persist_writers 2
# HELP tsp_persist_failed_writers Writers in the sticky-failed state.
# TYPE tsp_persist_failed_writers gauge
tsp_persist_failed_writers 1
# HELP tsp_oldest_active_age_nanos Age of the oldest active transaction (wall nanoseconds).
# TYPE tsp_oldest_active_age_nanos gauge
tsp_oldest_active_age_nanos 1500
# HELP tsp_gc_floor_lag Clock distance from the oldest active snapshot floor at the last GC sweep.
# TYPE tsp_gc_floor_lag gauge
tsp_gc_floor_lag 4
";
        assert_eq!(snap.to_prometheus(), golden);
    }

    #[test]
    fn json_shape_is_stable() {
        let telemetry = Telemetry::new();
        telemetry.validate_nanos().record_nanos(1_000);
        telemetry.bump(Counter::Begun);
        telemetry.bump(Counter::Begun);
        telemetry.bump(Counter::Committed);
        telemetry.bump(Counter::Aborted);
        telemetry.record_abort(AbortReason::FcwConflict);
        let snap = telemetry.snapshot(&WriterScan {
            writers: 1,
            failed: 0,
            retries: 4,
            recoveries: 2,
            ..WriterScan::default()
        });
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"begun\":2"));
        assert!(json.contains("\"fcw_conflict\":1"));
        assert!(json.contains("\"admission_timeout\":0"));
        assert!(json.contains("\"validate_nanos\":{\"count\":1"));
        assert!(json.contains("\"failed_writers\":0"));
        assert!(json.contains("\"retries\":4"));
        assert!(json.contains("\"recoveries\":2"));
        assert!(json.contains("\"redo_bytes\":0"));
        assert!(json.contains("\"redo_replays\":0"));
        assert!(json.contains("\"lease\":{\"reaps\":0,\"oldest_active_age_nanos\":0}"));
        assert!(json.contains("\"lease_expired\":0"));
        assert!(json.contains("\"admission\":{\"waits\":0"));
        assert_eq!(snap.abort_count(AbortReason::FcwConflict), 1);
        // Balanced braces — the cheapest structural check without a parser.
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' => d + 1,
            '}' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }
}
