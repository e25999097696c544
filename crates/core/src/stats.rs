//! Counter primitives and the plain-number counter view of a snapshot.
//!
//! The live counters belong to the per-context registry
//! ([`Telemetry`](crate::telemetry::Telemetry)); this module holds the two
//! pieces it is built from and reports through:
//!
//! * [`StripedCounter`] — the per-operation counter (`reads`, `writes`),
//!   bumped on *every* table access.  With a single shared word those were
//!   the last always-shared `fetch_add`s on the hot path, so each
//!   transaction bumps the stripe of its own slot (already cache-hot — the
//!   slot index is in the `Tx` handle) and snapshots sum the stripes.  Two
//!   concurrent transactions never contend on a counter word.
//! * [`TxStatsSnapshot`] — the counter section of a
//!   [`TelemetrySnapshot`](crate::telemetry::TelemetrySnapshot): begun /
//!   committed / aborted, the abort taxonomy, operation, GC and admission
//!   counts as plain numbers.

use std::sync::atomic::{AtomicU64, Ordering};
use tsp_common::CachePadded;

use crate::telemetry::AbortReason;

/// Default stripe count of [`StripedCounter::default`]; contexts size their
/// registry to the transaction-slot capacity via
/// [`Telemetry::striped`](crate::telemetry::Telemetry::striped).
const DEFAULT_STRIPES: usize = 64;

/// A sharded event counter: per-slot stripes bumped with relaxed atomics and
/// summed on read.  Writes index by transaction slot, so concurrent
/// transactions (distinct slots) never share a cache line.
#[derive(Debug)]
pub struct StripedCounter {
    /// Power-of-two stripe array; slot indexes wrap with a mask.
    stripes: Box<[CachePadded<AtomicU64>]>,
    mask: usize,
}

impl StripedCounter {
    /// Creates a counter with `min_stripes` stripes, rounded up to a power
    /// of two and capped at 1024 (stripes are cache-line padded; the cap
    /// bounds memory at 1024 lines per counter).  Beyond the cap, slot
    /// indexes wrap and distant slots share stripes.
    pub fn new(min_stripes: usize) -> Self {
        let n = min_stripes.clamp(1, 1024).next_power_of_two();
        StripedCounter {
            stripes: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            mask: n - 1,
        }
    }

    /// Increments the stripe selected by `slot` (a transaction's slot index).
    #[inline]
    pub fn bump(&self, slot: usize) {
        self.stripes[slot & self.mask].fetch_add(1, Ordering::Relaxed);
    }

    /// Sum over all stripes.
    pub fn sum(&self) -> u64 {
        self.stripes.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// Resets every stripe to zero.
    pub fn reset(&self) {
        for s in self.stripes.iter() {
            s.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for StripedCounter {
    fn default() -> Self {
        Self::new(DEFAULT_STRIPES)
    }
}

/// The counter section of a [`TelemetrySnapshot`](crate::telemetry::TelemetrySnapshot).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxStatsSnapshot {
    /// Transactions begun.
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
    /// First-Committer-Wins conflicts
    /// ([`AbortReason::FcwConflict`]).
    pub write_conflicts: u64,
    /// BOCC / SSI certification failures
    /// ([`AbortReason::Certification`]).
    pub validation_failures: u64,
    /// Wait-die lock-conflict victims
    /// ([`AbortReason::LockConflict`]).
    pub deadlocks: u64,
    /// `begin` refusals for want of a transaction slot
    /// ([`AbortReason::SlotExhaustion`]).
    pub slot_exhaustions: u64,
    /// Apply / durable-handoff failures
    /// ([`AbortReason::FailedApply`]).
    pub failed_applies: u64,
    /// Bounded admission waits that expired without a slot
    /// ([`AbortReason::AdmissionTimeout`]).
    pub admission_timeouts: u64,
    /// Expired transactions force-aborted by the lease reaper
    /// ([`AbortReason::LeaseExpired`]).
    pub lease_expirations: u64,
    /// Read operations.
    pub reads: u64,
    /// Write operations.
    pub writes: u64,
    /// GC passes.
    pub gc_runs: u64,
    /// Versions reclaimed.
    pub gc_reclaimed: u64,
    /// Begins that waited for (and won) a slot under bounded admission.
    pub admission_waits: u64,
    /// Bounded durability waits that timed out.
    pub durability_timeouts: u64,
    /// Batches queued in the asynchronous persistence writers at snapshot
    /// time (0 with synchronous persistence).
    pub persist_queue_depth: u64,
}

impl TxStatsSnapshot {
    /// Abort ratio over all finished transactions (0 when none finished).
    pub fn abort_ratio(&self) -> f64 {
        let finished = self.committed + self.aborted;
        if finished == 0 {
            0.0
        } else {
            self.aborted as f64 / finished as f64
        }
    }

    /// Aborts recorded for one taxonomy reason.
    pub fn abort_reason(&self, reason: AbortReason) -> u64 {
        match reason {
            AbortReason::FcwConflict => self.write_conflicts,
            AbortReason::Certification => self.validation_failures,
            AbortReason::LockConflict => self.deadlocks,
            AbortReason::SlotExhaustion => self.slot_exhaustions,
            AbortReason::FailedApply => self.failed_applies,
            AbortReason::AdmissionTimeout => self.admission_timeouts,
            AbortReason::LeaseExpired => self.lease_expirations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striped_counter_sums_and_resets() {
        let c = StripedCounter::new(3);
        c.bump(0);
        for _ in 0..10 {
            c.bump(2);
        }
        // Slots past the stripe count wrap instead of panicking.
        c.bump(1 << 20);
        assert_eq!(c.sum(), 12);
        c.reset();
        assert_eq!(c.sum(), 0);
    }

    #[test]
    fn abort_ratio() {
        let snap = TxStatsSnapshot {
            committed: 75,
            aborted: 25,
            ..Default::default()
        };
        assert!((snap.abort_ratio() - 0.25).abs() < 1e-9);
        assert_eq!(TxStatsSnapshot::default().abort_ratio(), 0.0);
    }
}
