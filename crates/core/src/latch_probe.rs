//! Debug-build latch accounting for the latch-free read-path guarantee.
//!
//! The snapshot-isolation read fast path is required to acquire **no**
//! mutex or read-write latch: `MvccTable::read` of a committed value must
//! get by on atomic loads alone (seqlock-validated version headers, the
//! owner-tagged write-buffer probe and the lock-free object index).  That
//! property is easy to destroy silently — one innocent `self.something.lock()`
//! added to a helper reintroduces the §4.2 latching the rework removed.
//!
//! In debug builds every latch acquisition of the version/table layer and
//! every slow-path acquisition of a context slot's detail mutex calls
//! [`count_latch`]; tests drive the committed-read path and assert the
//! counter did not move (tests in `mvcc_table.rs`).  The counter is
//! per thread, so latches that tests running in parallel threads take are
//! not counted against the test doing the reads.  In release builds the
//! probe compiles to nothing.

#[cfg(debug_assertions)]
mod imp {
    use std::cell::Cell;

    thread_local! {
        static LATCH_ACQUISITIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// Records one latch (mutex / rwlock) acquisition by this thread.
    #[inline]
    pub fn count_latch() {
        LATCH_ACQUISITIONS.with(|n| n.set(n.get() + 1));
    }

    /// Total latch acquisitions recorded so far by this thread.
    #[inline]
    pub fn latch_count() -> u64 {
        LATCH_ACQUISITIONS.with(Cell::get)
    }
}

#[cfg(not(debug_assertions))]
mod imp {
    /// Records one latch acquisition (no-op in release builds).
    #[inline(always)]
    pub fn count_latch() {}

    /// Total latch acquisitions recorded (always 0 in release builds).
    #[inline(always)]
    pub fn latch_count() -> u64 {
        0
    }
}

pub use imp::{count_latch, latch_count};
