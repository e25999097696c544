//! The global logical clock.
//!
//! "All timestamps are logical and generated by a global atomic counter."
//! (§4.1).  The same counter issues transaction ids (which double as begin
//! timestamps) and commit timestamps, so the total order of all timestamps
//! is simply the order in which they were drawn.
//!
//! # Memory ordering
//!
//! The counter is a scaling hotspot — every transaction and every commit
//! ticks it — so it uses the weakest correct orderings:
//!
//! * [`tick`](GlobalClock::tick) is a `Relaxed` read-modify-write.  RMWs are
//!   atomic and read the latest value in the location's modification order
//!   at *any* ordering, so uniqueness and strict monotonicity of issued
//!   timestamps need nothing stronger.  No cross-thread data visibility is
//!   ever derived from the counter itself: version visibility is published
//!   through each group's `LastCTS` (`Release`/`Acquire` in the context) and
//!   version installation through the per-object seqlock, so the clock
//!   carries no happens-before obligations.
//! * [`now`](GlobalClock::now) is a `Relaxed` load.  Per-location coherence
//!   guarantees it never runs backwards and never exceeds the true counter;
//!   callers that observed a tick via a happens-before chain (e.g. a
//!   published commit) are guaranteed `now() >=` that tick by coherence.
//!   The two uses are a *pinned snapshot for ungrouped states* (any
//!   committed-data visibility there flows through the version seqlock, and
//!   a conservatively old value only yields an older-but-consistent
//!   snapshot) and the *no-active-transactions fallback* of
//!   `OldestActiveVersion` (a conservatively old value reclaims less —
//!   always safe).

use std::sync::atomic::{AtomicU64, Ordering};
use tsp_common::{Timestamp, TxnId};

/// Global atomic timestamp counter.
///
/// Timestamp `0` is reserved as the [`tsp_common::NO_TS`] sentinel and
/// timestamp `1` as the *epoch* — the logical time at which recovered /
/// preloaded base-table data is considered committed.  The first transaction
/// therefore receives id 2.
#[derive(Debug)]
pub struct GlobalClock {
    counter: AtomicU64,
}

/// The logical time assigned to data that existed before any transaction ran
/// (preloaded or recovered base-table contents).
pub const EPOCH_TS: Timestamp = 1;

impl Default for GlobalClock {
    fn default() -> Self {
        Self::new()
    }
}

impl GlobalClock {
    /// Creates a clock whose next tick is `EPOCH_TS + 1`.
    pub fn new() -> Self {
        GlobalClock {
            counter: AtomicU64::new(EPOCH_TS),
        }
    }

    /// Creates a clock resuming from `last` (used by recovery so that new
    /// timestamps never collide with pre-crash ones).
    pub fn resume_from(last: Timestamp) -> Self {
        GlobalClock {
            counter: AtomicU64::new(last.max(EPOCH_TS)),
        }
    }

    /// Draws the next timestamp.
    #[inline]
    pub fn tick(&self) -> Timestamp {
        // Relaxed is sufficient: see the module docs.
        self.counter.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Draws a fresh transaction id (== its begin timestamp).
    #[inline]
    pub fn next_txn(&self) -> TxnId {
        TxnId(self.tick())
    }

    /// Draws a fresh commit timestamp.
    #[inline]
    pub fn next_commit_ts(&self) -> Timestamp {
        self.tick()
    }

    /// The most recently issued timestamp (no new tick).
    #[inline]
    pub fn now(&self) -> Timestamp {
        // Relaxed is sufficient: see the module docs.
        self.counter.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn timestamps_are_strictly_increasing() {
        let clock = GlobalClock::new();
        let a = clock.tick();
        let b = clock.tick();
        let c = clock.next_commit_ts();
        assert!(a > EPOCH_TS);
        assert!(b > a);
        assert!(c > b);
        assert_eq!(clock.now(), c);
    }

    #[test]
    fn txn_ids_start_after_epoch() {
        let clock = GlobalClock::new();
        let t = clock.next_txn();
        assert!(t.as_u64() > EPOCH_TS);
        assert!(!t.is_none());
    }

    #[test]
    fn resume_from_skips_past_old_timestamps() {
        let clock = GlobalClock::resume_from(1000);
        assert!(clock.tick() > 1000);
        // Resuming from 0 still respects the epoch.
        let clock = GlobalClock::resume_from(0);
        assert!(clock.tick() > EPOCH_TS);
    }

    #[test]
    fn concurrent_ticks_are_unique() {
        let clock = Arc::new(GlobalClock::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let clock = Arc::clone(&clock);
                std::thread::spawn(move || (0..1000).map(|_| clock.tick()).collect::<Vec<_>>())
            })
            .collect();
        let mut all = HashSet::new();
        for h in handles {
            for ts in h.join().unwrap() {
                assert!(all.insert(ts), "duplicate timestamp {ts}");
            }
        }
        assert_eq!(all.len(), 8000);
    }
}
