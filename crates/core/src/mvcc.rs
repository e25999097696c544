//! Multi-versioned value objects — the heart of the snapshot-isolation
//! design (§4.1, Fig. 3) with a **latch-free committed-read path**.
//!
//! Each key of a transactional table maps to one [`MvccObject`].  The object
//! holds version slots carrying the classic MVCC header `< [cts, dts],
//! value >` — the commit and deletion timestamps delimiting the version's
//! lifetime.  Slot occupancy is mirrored in a 64-bit
//! [`used_slots`](MvccObject::used_slots) bitmap, as in the paper's
//! `UsedSlots` bit vector (footnote 2).
//!
//! §4.2 prescribes a "lightweight locking strategy"; this implementation
//! goes one step further and removes the read latch entirely:
//!
//! * **Headers are per-slot atomics** (`cts`, `dts`), so readers scan them
//!   with plain atomic loads.
//! * **A per-object seqlock** (`seq`, odd while a writer mutates) guards
//!   against torn multi-header states: [`read_visible`](MvccObject::read_visible)
//!   re-checks `seq` after the scan and retries if a writer interfered.
//! * **Version storage grows in chunks that are never freed or moved**
//!   while the object lives, so readers may hold references across growth.
//! * Writers (install / delete-stamp / GC) serialise on a per-object mutex
//!   and mutate only inside odd `seq` windows.
//!
//! # Memory-ordering protocol
//!
//! The reader runs: `s1 = seq.load(Acquire)` (skip if odd) → header loads
//! (`Relaxed`) → `fence(Acquire)` → `s2 = seq.load(Relaxed)`; it accepts the
//! scan only if `s1 == s2` and even.  The writer runs: `seq.store(odd,
//! Relaxed)` → `fence(Release)` → mutations (`Relaxed` stores, plain value
//! writes) → `seq.store(even, Release)`.
//!
//! * The `Acquire` on `s1` pairs with the `Release` even-store of the window
//!   that produced the observed state: every header and value written in or
//!   before that window *happens-before* the reader's scan (writers are
//!   serialised by the mutex, so earlier windows are ordered through it).
//! * The `fence(Release)` after the odd-store pairs with the reader's
//!   `fence(Acquire)`: a reader that observed any in-window store must also
//!   observe `seq` odd (or changed) at `s2` and retries.  Headers are
//!   therefore never combined across windows (no "old `cts`, new `dts`").
//!
//! # Why cloning the value without a latch is safe
//!
//! The only non-atomic read is cloning the winning version's value *after*
//! validation.  Values of occupied slots are immutable; they are dropped or
//! overwritten only after the slot is reclaimed by GC.  Reclamation of a
//! version requires `dts <= oldest_active`, while a reader only clones a
//! version with `read_ts < dts` — so a reader and a reclaimer can only race
//! when the reader's snapshot floor is *not yet visible* to the GC's
//! `oldest_active` scan.  That race is closed with a Dekker-style
//! `SeqCst`-fence pair:
//!
//! * a transaction **announces** its snapshot floor (begin timestamp,
//!   lowered by every pinned `ReadCTS`) in its context slot and executes
//!   `fence(SeqCst)` *before* its first version scan
//!   ([`StateContext`](crate::context::StateContext) does this in `begin`
//!   and on every new pin), and
//! * the GC executes `fence(SeqCst)` *after* entering its write window and
//!   only then **re-reads** the floors (the `refresh` callback of
//!   [`gc_with`](MvccObject::gc_with) /
//!   [`install_with`](MvccObject::install_with), backed by
//!   `StateContext::oldest_active_fresh`), reclaiming only versions whose
//!   `dts` is at or below the re-read bound.
//!
//! For any reader/GC pair, the two fences order: either the GC observes the
//! reader's floor (and keeps every version that floor can still see), or the
//! reader observes the GC's odd `seq` (and retries, seeing the slot empty
//! afterwards).  A reader can therefore never clone a value that is being
//! dropped.  The plain-`Timestamp` variants ([`gc`](MvccObject::gc),
//! [`install`](MvccObject::install)) skip the re-read and are only sound
//! when every concurrent reader's snapshot is at or above the passed bound —
//! the single-writer unit-test setting; table code always uses the `_with`
//! variants.
//!
//! Version visibility itself is unchanged: a reader with snapshot `read_ts`
//! sees the version whose half-open lifetime `[cts, dts)` contains
//! `read_ts`.  Garbage collection is performed *on demand* — when a new
//! version must be installed and no slot is free — and only reclaims
//! versions no longer visible at `OldestActiveVersion`.

use crate::latch_probe;
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use tsp_common::{Result, Timestamp, TspError, INFINITY_TS, NO_TS};

/// Default number of version slots per object.
pub const DEFAULT_VERSION_SLOTS: usize = 8;

/// Hard upper bound on version slots (occupancy must fit the 64-bit bitmap).
pub const MAX_VERSION_SLOTS: usize = 64;

/// Upper bound on storage chunks: capacity doubles per chunk starting from
/// a minimum initial capacity of 1, so `1 + log2(64)` chunks suffice.
const MAX_CHUNKS: usize = 7;

/// One version of a value: the MVCC entry `< [cts, dts], value >`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Version<V> {
    /// Commit timestamp — the logical time from which the version is visible.
    pub cts: Timestamp,
    /// Deletion timestamp — the logical time from which it is no longer
    /// visible ([`INFINITY_TS`] while it is the live version).
    pub dts: Timestamp,
    /// The value payload.
    pub value: V,
}

impl<V> Version<V> {
    /// True if this is the live (not yet superseded or deleted) version.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.dts == INFINITY_TS
    }
}

/// One version slot: atomic lifetime headers plus the (writer-owned) value.
struct VersionSlot<V> {
    /// Commit timestamp; [`NO_TS`] while the slot is free.
    cts: AtomicU64,
    /// Deletion timestamp; [`INFINITY_TS`] while the version is live.
    dts: AtomicU64,
    /// The value.  Written only inside odd-`seq` windows by the single
    /// writer, on free or reclaimed slots; read (cloned) by readers only
    /// after seqlock validation plus the floor-announcement protocol above.
    value: UnsafeCell<Option<V>>,
}

impl<V> VersionSlot<V> {
    fn empty() -> Self {
        VersionSlot {
            cts: AtomicU64::new(NO_TS),
            dts: AtomicU64::new(NO_TS),
            value: UnsafeCell::new(None),
        }
    }
}

/// A multi-versioned object holding all versions of one key.
pub struct MvccObject<V> {
    /// Serialises writers (install, delete-stamp, GC).  Never taken by
    /// [`read_visible`](Self::read_visible).
    writer: Mutex<()>,
    /// Seqlock word: odd while a writer window is open.
    seq: AtomicU64,
    /// Occupancy bitmap (bit *i* set ⇔ slot *i* holds a version).
    used: AtomicU64,
    /// Index + 1 of the *live* version slot (`dts == INFINITY_TS`), 0 when
    /// none.  At most one version is ever live, so this single word lets
    /// the common read (snapshot at or after the newest commit) probe one
    /// slot instead of scanning the occupancy bitmap, and lets a writer
    /// terminate its predecessor without a scan.  Mutated only under the
    /// writer mutex inside seq windows; readers treat it as a seqlock-
    /// validated hint.
    live: AtomicU64,
    /// Total slots allocated across chunks (monotone, ≤ 64).
    allocated: AtomicUsize,
    /// Version storage.  Chunk `k` holds `chunk_cap(k)` slots; chunks are
    /// allocated on demand, published with `Release`, and never freed or
    /// moved until the object drops — readers hold references across growth.
    chunks: [AtomicPtr<VersionSlot<V>>; MAX_CHUNKS],
    /// Initial capacity (chunk 0 size); total capacity doubles per grow.
    capacity: usize,
}

// SAFETY: all shared mutable state is accessed through atomics or through
// the `UnsafeCell` values, whose cross-thread discipline (single writer
// inside seq windows; readers clone only validated, reclaim-protected
// versions) is documented in the module header.
unsafe impl<V: Send> Send for MvccObject<V> {}
unsafe impl<V: Send + Sync> Sync for MvccObject<V> {}

impl<V: Clone> Default for MvccObject<V> {
    fn default() -> Self {
        Self::new(DEFAULT_VERSION_SLOTS)
    }
}

/// Total slots after `k + 1` chunks for an object of initial capacity `c`.
fn total_after(c: usize, k: usize) -> usize {
    (c << k).min(MAX_VERSION_SLOTS)
}

/// Capacity of chunk `k` for an object of initial capacity `c` (0 when the
/// chunk is never needed).
fn chunk_cap(c: usize, k: usize) -> usize {
    if k == 0 {
        c
    } else {
        total_after(c, k) - total_after(c, k - 1)
    }
}

impl<V: Clone> MvccObject<V> {
    /// Creates an object with `capacity` initial version slots (clamped to
    /// `1..=`[`MAX_VERSION_SLOTS`]); the array grows on demand, doubling up
    /// to the 64-slot bitmap width.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.clamp(1, MAX_VERSION_SLOTS);
        let obj = MvccObject {
            writer: Mutex::new(()),
            seq: AtomicU64::new(0),
            used: AtomicU64::new(0),
            live: AtomicU64::new(0),
            allocated: AtomicUsize::new(0),
            chunks: Default::default(),
            capacity,
        };
        obj.alloc_chunk(0);
        obj
    }

    /// The configured *initial* slot capacity (the array may grow on demand
    /// up to [`MAX_VERSION_SLOTS`]).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current size of the version array (initial capacity plus any
    /// on-demand growth).
    pub fn allocated_slots(&self) -> usize {
        self.allocated.load(Ordering::Acquire)
    }

    /// The occupancy bitmap (bit *i* set ⇔ slot *i* holds a version).
    pub fn used_slots(&self) -> u64 {
        self.used.load(Ordering::Acquire)
    }

    /// Number of stored versions.
    pub fn version_count(&self) -> usize {
        self.used_slots().count_ones() as usize
    }

    /// True if no versions are stored.
    pub fn is_empty(&self) -> bool {
        self.used_slots() == 0
    }

    // ------------------------------------------------------------------
    // Storage layout
    // ------------------------------------------------------------------

    /// Allocates chunk `k` and returns the index of its first slot.
    /// Writer-exclusive (or construction).
    fn alloc_chunk(&self, k: usize) -> usize {
        let cap = chunk_cap(self.capacity, k);
        debug_assert!(
            cap > 0,
            "chunk {k} not needed for capacity {}",
            self.capacity
        );
        let chunk: Box<[VersionSlot<V>]> = (0..cap).map(|_| VersionSlot::empty()).collect();
        let first = self.allocated.load(Ordering::Relaxed);
        // Publish the fully initialised chunk before bumping `allocated`.
        self.chunks[k].store(
            Box::into_raw(chunk) as *mut VersionSlot<V>,
            Ordering::Release,
        );
        self.allocated.store(first + cap, Ordering::Release);
        first
    }

    /// Calls `f` with every allocated slot and its global index, in index
    /// order.  Chunks are immutable once published, so this is safe from
    /// both readers and the writer.
    fn for_each_slot(&self, mut f: impl FnMut(usize, &VersionSlot<V>)) {
        let mut base = 0;
        for k in 0..MAX_CHUNKS {
            let ptr = self.chunks[k].load(Ordering::Acquire);
            if ptr.is_null() {
                break;
            }
            let cap = chunk_cap(self.capacity, k);
            for i in 0..cap {
                // SAFETY: the chunk was published fully initialised with
                // `cap` slots and is never freed while `self` lives.
                f(base + i, unsafe { &*ptr.add(i) });
            }
            base += cap;
        }
    }

    /// The slot at global index `idx`, or `None` if the chunk holding it is
    /// not yet visible to this thread.
    ///
    /// `None` is only possible for latch-free readers: a `Relaxed` load of
    /// `used` may observe a bit set inside a concurrent install window
    /// without a happens-before edge to the grown chunk's publication, so
    /// the `Acquire` chunk load here can still legally return null.  Such a
    /// reader must simply skip the slot — having observed an in-window
    /// store, its seqlock validation is guaranteed to fail (the writer's
    /// `Release` window fence pairs with the reader's `Acquire` fence) and
    /// the retry's fresh `seq` load brings the chunk publication into view.
    /// Writer-side callers hold the writer mutex and always see their own
    /// chunks.
    fn slot(&self, idx: usize) -> Option<&VersionSlot<V>> {
        let mut base = 0;
        for k in 0..MAX_CHUNKS {
            let cap = chunk_cap(self.capacity, k);
            if idx < base + cap {
                let ptr = self.chunks[k].load(Ordering::Acquire);
                if ptr.is_null() {
                    return None;
                }
                // SAFETY: as in `for_each_slot`.
                return Some(unsafe { &*ptr.add(idx - base) });
            }
            base += cap;
        }
        None
    }

    // ------------------------------------------------------------------
    // Seqlock windows (writer side; callers hold `self.writer`)
    // ------------------------------------------------------------------

    /// Opens a write window: `seq` becomes odd, and the `Release` fence
    /// orders the odd-store before every in-window mutation (pairing with
    /// the reader's `Acquire` fence).
    fn enter_window(&self) -> u64 {
        let s = self.seq.load(Ordering::Relaxed);
        debug_assert_eq!(s & 1, 0, "window already open");
        self.seq.store(s + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        s
    }

    /// Closes the window opened at `s`: publishes all in-window mutations
    /// with the `Release` even-store.
    fn exit_window(&self, s: u64) {
        self.seq.store(s + 2, Ordering::Release);
    }

    // ------------------------------------------------------------------
    // Latch-free reads
    // ------------------------------------------------------------------

    /// Returns the value visible at `read_ts`, if any, **without acquiring
    /// any latch** — the committed-read fast path.
    ///
    /// Concurrency contract: the calling transaction must have announced a
    /// snapshot floor `<= read_ts` to the garbage collector's
    /// `oldest_active` scan before calling (the context does this in
    /// `begin`/pinning), or no concurrent GC/install may reclaim versions
    /// still visible at `read_ts` (the single-writer test setting).
    pub fn read_visible(&self, read_ts: Timestamp) -> Option<V> {
        let mut spins = 0u32;
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let mut hit: Option<&VersionSlot<V>> = None;
                // Fast path: probe the live-slot hint first.  A snapshot at
                // or after the newest commit — the common case — matches in
                // one slot probe; any torn or stale observation is rejected
                // by the seqlock validation below like every other scan.
                let live = self.live.load(Ordering::Relaxed);
                if live != 0 {
                    if let Some(slot) = self.slot(live as usize - 1) {
                        let cts = slot.cts.load(Ordering::Relaxed);
                        let dts = slot.dts.load(Ordering::Relaxed);
                        if cts != NO_TS && cts <= read_ts && read_ts < dts {
                            hit = Some(slot);
                        }
                    }
                }
                // Iterate only the *occupied* slots (usually one or two).
                let mut bits = if hit.is_some() {
                    0
                } else {
                    self.used.load(Ordering::Relaxed)
                };
                while bits != 0 {
                    let idx = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    // A not-yet-visible chunk means the bit came from an
                    // in-progress window; skip — validation below retries.
                    let Some(slot) = self.slot(idx) else { continue };
                    let cts = slot.cts.load(Ordering::Relaxed);
                    let dts = slot.dts.load(Ordering::Relaxed);
                    if cts != NO_TS && cts <= read_ts && read_ts < dts {
                        hit = Some(slot);
                        // At most one version is visible at any timestamp in
                        // a consistent state — and inconsistent scans are
                        // rejected by the validation below anyway.
                        break;
                    }
                }
                fence(Ordering::Acquire);
                if self.seq.load(Ordering::Relaxed) == s1 {
                    // SAFETY: the scan was validated as a consistent state
                    // (seq unchanged and even).  The winning version has
                    // `dts > read_ts >= announced floor`, so per the module
                    // protocol no reclaimer may drop or overwrite its value
                    // concurrently, and the `Acquire` load of `s1`
                    // happens-after the write that installed it.
                    return hit.and_then(|slot| unsafe { (*slot.value.get()).clone() });
                }
            }
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Like [`read_visible`](Self::read_visible) but serialised against
    /// writers via the object latch.  For callers that read at snapshots
    /// *not* covered by an announced floor (relaxed-isolation readers,
    /// diagnostics) and therefore may not use the latch-free path.
    pub fn read_visible_latched(&self, read_ts: Timestamp) -> Option<V> {
        let _g = self.writer.lock();
        latch_probe::count_latch();
        let used = self.used.load(Ordering::Relaxed);
        let mut hit = None;
        self.for_each_slot(|idx, slot| {
            if used & (1u64 << idx) == 0 {
                return;
            }
            let cts = slot.cts.load(Ordering::Relaxed);
            let dts = slot.dts.load(Ordering::Relaxed);
            if cts != NO_TS && cts <= read_ts && read_ts < dts {
                // SAFETY: the writer latch excludes every mutator.
                hit = unsafe { (*slot.value.get()).clone() };
            }
        });
        hit
    }

    /// Runs `f` over a seqlock-validated consistent view of `(used bitmap,
    /// header loader)` and returns its result.  Header-only: `f` must not
    /// touch values.
    fn validated_header_scan<R>(
        &self,
        mut f: impl FnMut(u64, &dyn Fn(usize) -> (Timestamp, Timestamp)) -> R,
    ) -> R {
        let mut spins = 0u32;
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let used = self.used.load(Ordering::Relaxed);
                let load = |idx: usize| {
                    // Not-yet-visible chunk (see `slot`): report the slot as
                    // free; the validation below forces a retry.
                    let Some(slot) = self.slot(idx) else {
                        return (NO_TS, NO_TS);
                    };
                    (
                        slot.cts.load(Ordering::Relaxed),
                        slot.dts.load(Ordering::Relaxed),
                    )
                };
                let result = f(used, &load);
                fence(Ordering::Acquire);
                if self.seq.load(Ordering::Relaxed) == s1 {
                    return result;
                }
            }
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Folds `fold` over the headers of all occupied slots, latch-free.
    fn fold_headers<R>(
        &self,
        init: R,
        mut fold: impl FnMut(R, Timestamp, Timestamp) -> R + Copy,
    ) -> R
    where
        R: Copy,
    {
        self.validated_header_scan(|used, load| {
            let mut acc = init;
            let mut bits = used;
            while bits != 0 {
                let idx = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (cts, dts) = load(idx);
                if cts != NO_TS {
                    acc = fold(acc, cts, dts);
                }
            }
            acc
        })
    }

    /// Commit timestamp of the newest version (committed or deleted), or
    /// [`NO_TS`] if the object is empty.  Used by the First-Committer-Wins
    /// check.  Latch-free.
    pub fn latest_cts(&self) -> Timestamp {
        self.fold_headers(NO_TS, |acc, cts, _| acc.max(cts))
    }

    /// The most recent deletion timestamp stamped on any version, or
    /// [`NO_TS`].  Together with [`latest_cts`](Self::latest_cts) this lets
    /// the FCW check detect deletes as conflicting writes.  Latch-free.
    pub fn latest_dts(&self) -> Timestamp {
        self.fold_headers(NO_TS, |acc, _, dts| {
            if dts == INFINITY_TS {
                acc
            } else {
                acc.max(dts)
            }
        })
    }

    /// Smallest commit timestamp stored, or [`NO_TS`] if empty.  Latch-free.
    pub fn min_cts(&self) -> Timestamp {
        let min = self.fold_headers(INFINITY_TS, |acc, cts, _| acc.min(cts));
        if min == INFINITY_TS {
            NO_TS
        } else {
            min
        }
    }

    /// True if a live (not superseded, not deleted) version exists.
    /// Latch-free.
    pub fn has_live_version(&self) -> bool {
        self.fold_headers(false, |acc, _, dts| acc || dts == INFINITY_TS)
    }

    /// Snapshot of all versions, newest first (diagnostics and tests).
    /// Takes the writer latch — values of non-visible versions are not
    /// protected by the floor protocol.
    pub fn versions(&self) -> Vec<Version<V>> {
        let _g = self.writer.lock();
        latch_probe::count_latch();
        let used = self.used.load(Ordering::Relaxed);
        let mut out = Vec::with_capacity(used.count_ones() as usize);
        self.for_each_slot(|idx, slot| {
            if used & (1u64 << idx) == 0 {
                return;
            }
            // SAFETY: the writer latch excludes every mutator.
            if let Some(value) = unsafe { (*slot.value.get()).clone() } {
                out.push(Version {
                    cts: slot.cts.load(Ordering::Relaxed),
                    dts: slot.dts.load(Ordering::Relaxed),
                    value,
                });
            }
        });
        out.sort_by_key(|v| std::cmp::Reverse(v.cts));
        out
    }

    // ------------------------------------------------------------------
    // Writes (install / delete / GC)
    // ------------------------------------------------------------------

    /// Installs a new version committed at `cts`, terminating the lifetime
    /// of the previously live version (if any).  When no slot is free the
    /// object's on-demand garbage collection runs first, reclaiming
    /// versions whose lifetime ended at or before the bound returned by
    /// `refresh` (re-evaluated inside the reclaim fence as described in the
    /// module docs); if nothing can be reclaimed the version array grows,
    /// up to the 64-slot width of the `UsedSlots` bitmap.  Only when all 64
    /// slots hold versions that are still needed does the install fail with
    /// a retryable [`TspError::CapacityExhausted`].
    ///
    /// `oldest_hint` is the caller's cheap (possibly cached) bound used to
    /// select reclaim candidates; `refresh` must return a *fresh*
    /// `OldestActiveVersion` scan.  Returns the number of versions
    /// reclaimed by the on-demand GC pass (0 if none ran).
    pub fn install_with(
        &self,
        value: V,
        cts: Timestamp,
        oldest_hint: Timestamp,
        refresh: impl FnMut() -> Timestamp,
    ) -> Result<usize> {
        debug_assert!(cts != NO_TS);
        let _g = self.writer.lock();
        latch_probe::count_latch();
        // Secure a free slot first (running the on-demand GC if needed) so a
        // failed install leaves the object completely untouched.
        let mut reclaimed = 0;
        let mut free = self.find_free_locked();
        if free.is_none() {
            reclaimed = self.gc_locked(oldest_hint, refresh);
            free = self.find_free_locked();
        }
        if free.is_none() {
            free = self.grow_locked();
        }
        let Some(idx) = free else {
            return Err(TspError::CapacityExhausted {
                what: "MVCC version slots",
            });
        };
        let s = self.enter_window();
        // Terminate the currently live version (the hint is exact: at most
        // one version is live and only this writer mutates it), then
        // publish the new one.
        let prev = self.live.load(Ordering::Relaxed);
        if prev != 0 {
            let pslot = self
                .slot(prev as usize - 1)
                .expect("writer sees its own chunks");
            debug_assert_eq!(pslot.dts.load(Ordering::Relaxed), INFINITY_TS);
            pslot.dts.store(cts, Ordering::Relaxed);
        }
        let slot = self.slot(idx).expect("writer sees its own chunks");
        // SAFETY: single writer (mutex held), slot is free, and no reader
        // clones a free slot's value (validated scans skip clear `used`
        // bits; a reclaimed slot was dropped under the floor protocol).
        unsafe {
            *slot.value.get() = Some(value);
        }
        slot.cts.store(cts, Ordering::Relaxed);
        slot.dts.store(INFINITY_TS, Ordering::Relaxed);
        self.used.store(
            self.used.load(Ordering::Relaxed) | (1u64 << idx),
            Ordering::Relaxed,
        );
        self.live.store(idx as u64 + 1, Ordering::Relaxed);
        self.exit_window(s);
        Ok(reclaimed)
    }

    /// [`install_with`](Self::install_with) with a constant reclaim bound.
    /// Sound only when every concurrent reader's snapshot is at or above
    /// `oldest_active` (single-writer tests, preloading); table code uses
    /// `install_with` with a fresh context scan.
    pub fn install(&self, value: V, cts: Timestamp, oldest_active: Timestamp) -> Result<usize> {
        self.install_with(value, cts, oldest_active, || oldest_active)
    }

    /// Marks the live version as deleted at `cts` (a committed delete).
    /// Returns `true` if a live version existed.
    pub fn mark_deleted(&self, cts: Timestamp) -> bool {
        let _g = self.writer.lock();
        latch_probe::count_latch();
        let live = self.live.load(Ordering::Relaxed);
        if live == 0 {
            return false;
        }
        let idx = live as usize - 1;
        let s = self.enter_window();
        let slot = self.slot(idx).expect("writer sees its own chunks");
        debug_assert_eq!(slot.dts.load(Ordering::Relaxed), INFINITY_TS);
        slot.dts.store(cts, Ordering::Relaxed);
        self.live.store(0, Ordering::Relaxed);
        self.exit_window(s);
        true
    }

    /// Undoes the effects of an install/delete committed at exactly `cts`
    /// whose commit was **never published**: the version installed at `cts`
    /// is unlinked and the version it superseded (the one whose lifetime was
    /// terminated at `cts`) becomes live again.  Returns `true` if anything
    /// was undone.
    ///
    /// This is the uninstall path of the commit protocol: a transaction
    /// whose `apply` fails mid-way (e.g. version-array capacity pressure in
    /// a later participant) has already installed versions that no reader
    /// can ever see — their `cts` exceeds every published `LastCTS` — but
    /// whose headers would spuriously trip First-Committer-Wins and SSI
    /// certification for every later transaction with an older snapshot
    /// floor.  The coordinator therefore undoes the applied participants.
    ///
    /// Safety: no latch-free reader can be cloning the removed value — a
    /// reader only clones a version with `cts <= read_ts`, and every
    /// snapshot in the system is bounded by a published `LastCTS < cts`
    /// (the commit was never published, and the caller still holds the
    /// group-commit lock, so no later commit can have published a larger
    /// timestamp that a reader could have pinned).
    pub fn undo_commit(&self, cts: Timestamp) -> bool {
        debug_assert!(cts != NO_TS);
        let _g = self.writer.lock();
        latch_probe::count_latch();
        let used = self.used.load(Ordering::Relaxed);
        let mut installed = None;
        let mut superseded = None;
        self.for_each_slot(|i, slot| {
            if used & (1u64 << i) == 0 {
                return;
            }
            if slot.cts.load(Ordering::Relaxed) == cts {
                installed = Some(i);
            }
            if slot.dts.load(Ordering::Relaxed) == cts {
                superseded = Some(i);
            }
        });
        if installed.is_none() && superseded.is_none() {
            return false;
        }
        let s = self.enter_window();
        if let Some(idx) = installed {
            let slot = self.slot(idx).expect("writer sees its own chunks");
            self.used.store(
                self.used.load(Ordering::Relaxed) & !(1u64 << idx),
                Ordering::Relaxed,
            );
            slot.cts.store(NO_TS, Ordering::Relaxed);
            slot.dts.store(NO_TS, Ordering::Relaxed);
            // SAFETY: single writer; no reader clones a version whose cts
            // was never covered by a published snapshot (see doc comment).
            unsafe {
                *slot.value.get() = None;
            }
        }
        if let Some(idx) = superseded {
            // Header-only: the previously live version becomes live again.
            self.slot(idx)
                .expect("writer sees its own chunks")
                .dts
                .store(INFINITY_TS, Ordering::Relaxed);
        }
        // The undone commit either installed the live version (put) or
        // terminated it (delete); in both cases the restored predecessor —
        // if any — is now the one live version.
        self.live.store(
            superseded.map(|i| i as u64 + 1).unwrap_or(0),
            Ordering::Relaxed,
        );
        self.exit_window(s);
        true
    }

    /// Runs garbage collection explicitly, reclaiming versions whose
    /// deletion timestamp is at or below the bound returned by `refresh`
    /// (re-evaluated inside the reclaim fence; `oldest_hint` pre-selects
    /// candidates cheaply).  Returns the number reclaimed.
    pub fn gc_with(&self, oldest_hint: Timestamp, refresh: impl FnMut() -> Timestamp) -> usize {
        let _g = self.writer.lock();
        latch_probe::count_latch();
        self.gc_locked(oldest_hint, refresh)
    }

    /// [`gc_with`](Self::gc_with) with a constant bound — same soundness
    /// caveat as [`install`](Self::install).
    pub fn gc(&self, oldest_active: Timestamp) -> usize {
        self.gc_with(oldest_active, || oldest_active)
    }

    /// Reclaim pass; caller holds the writer mutex.
    fn gc_locked(&self, oldest_hint: Timestamp, mut refresh: impl FnMut() -> Timestamp) -> usize {
        // Candidate pre-scan outside the window (writer-exclusive reads).
        let used = self.used.load(Ordering::Relaxed);
        let mut candidates = 0u64;
        self.for_each_slot(|i, slot| {
            if used & (1u64 << i) == 0 {
                return;
            }
            let dts = slot.dts.load(Ordering::Relaxed);
            if dts != INFINITY_TS && dts <= oldest_hint {
                candidates |= 1u64 << i;
            }
        });
        if candidates == 0 {
            return 0;
        }
        let s = self.enter_window();
        // Dekker pairing with reader floor announcements (module docs): the
        // odd `seq` store above is ordered before the floor re-read below,
        // so any reader whose floor the re-read misses must observe the odd
        // `seq` and retry (seeing the slot empty afterwards).
        fence(Ordering::SeqCst);
        let bound = refresh();
        let mut reclaimed = 0;
        let mut new_used = self.used.load(Ordering::Relaxed);
        self.for_each_slot(|i, slot| {
            if candidates & (1u64 << i) == 0 {
                return;
            }
            let dts = slot.dts.load(Ordering::Relaxed);
            if dts != INFINITY_TS && dts <= bound {
                // A version is dead once its lifetime ended at or before the
                // oldest snapshot any active or future transaction can hold.
                new_used &= !(1u64 << i);
                slot.cts.store(NO_TS, Ordering::Relaxed);
                slot.dts.store(NO_TS, Ordering::Relaxed);
                // SAFETY: single writer; no reader can be cloning this value
                // per the fence pairing above.
                unsafe {
                    *slot.value.get() = None;
                }
                reclaimed += 1;
            }
        });
        self.used.store(new_used, Ordering::Relaxed);
        self.exit_window(s);
        reclaimed
    }

    /// First free allocated slot, if any.  Caller holds the writer mutex.
    fn find_free_locked(&self) -> Option<usize> {
        let allocated = self.allocated.load(Ordering::Relaxed);
        let used = self.used.load(Ordering::Relaxed);
        let mask = if allocated >= 64 {
            u64::MAX
        } else {
            (1u64 << allocated) - 1
        };
        let free = !used & mask;
        if free == 0 {
            None
        } else {
            Some(free.trailing_zeros() as usize)
        }
    }

    /// Grows the version array by one chunk (doubling total capacity, never
    /// beyond the bitmap width); returns the first new slot index.  Caller
    /// holds the writer mutex.
    fn grow_locked(&self) -> Option<usize> {
        let allocated = self.allocated.load(Ordering::Relaxed);
        if allocated >= MAX_VERSION_SLOTS {
            return None;
        }
        let mut k = 0;
        let mut base = 0;
        while base < allocated {
            base += chunk_cap(self.capacity, k);
            k += 1;
        }
        Some(self.alloc_chunk(k))
    }
}

impl<V> Drop for MvccObject<V> {
    fn drop(&mut self) {
        let mut base = 0;
        for k in 0..MAX_CHUNKS {
            let ptr = *self.chunks[k].get_mut();
            if ptr.is_null() {
                break;
            }
            let cap = chunk_cap(self.capacity, k);
            // SAFETY: the chunk was allocated as a boxed slice of `cap`
            // slots in `alloc_chunk` and never freed since.
            drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, cap)) });
            base += cap;
        }
        let _ = base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_object_has_no_visible_versions() {
        let obj: MvccObject<u64> = MvccObject::new(4);
        assert!(obj.is_empty());
        assert_eq!(obj.read_visible(100), None);
        assert_eq!(obj.latest_cts(), NO_TS);
        assert_eq!(obj.min_cts(), NO_TS);
        assert!(!obj.has_live_version());
        assert_eq!(obj.version_count(), 0);
    }

    #[test]
    fn install_and_read_visibility_windows() {
        let obj = MvccObject::new(4);
        obj.install(10u64, 5, NO_TS).unwrap();
        obj.install(20u64, 9, NO_TS).unwrap();
        // Reader before the first commit sees nothing.
        assert_eq!(obj.read_visible(4), None);
        // Reader between commits sees the first version.
        assert_eq!(obj.read_visible(5), Some(10));
        assert_eq!(obj.read_visible(8), Some(10));
        // Reader at/after the second commit sees the second version.
        assert_eq!(obj.read_visible(9), Some(20));
        assert_eq!(obj.read_visible(1000), Some(20));
        assert_eq!(obj.latest_cts(), 9);
        assert_eq!(obj.min_cts(), 5);
        assert!(obj.has_live_version());
        assert_eq!(obj.version_count(), 2);
    }

    #[test]
    fn delete_ends_visibility() {
        let obj = MvccObject::new(4);
        obj.install(7u64, 3, NO_TS).unwrap();
        assert!(obj.mark_deleted(6));
        assert_eq!(obj.read_visible(5), Some(7));
        assert_eq!(obj.read_visible(6), None);
        assert!(!obj.has_live_version());
        assert_eq!(obj.latest_dts(), 6);
        // Deleting again reports no live version.
        assert!(!obj.mark_deleted(8));
    }

    #[test]
    fn latched_read_matches_latch_free_read() {
        let obj = MvccObject::new(4);
        obj.install(1u64, 2, NO_TS).unwrap();
        obj.install(2u64, 6, NO_TS).unwrap();
        for ts in [1, 2, 5, 6, 100] {
            assert_eq!(obj.read_visible(ts), obj.read_visible_latched(ts));
        }
    }

    #[test]
    fn bitmap_tracks_occupancy() {
        let obj = MvccObject::new(8);
        assert_eq!(obj.used_slots(), 0);
        obj.install(1u64, 2, NO_TS).unwrap();
        assert_eq!(obj.used_slots().count_ones(), 1);
        obj.install(2u64, 4, NO_TS).unwrap();
        obj.install(3u64, 6, NO_TS).unwrap();
        assert_eq!(obj.used_slots().count_ones(), 3);
        // GC with an oldest-active past all dts values reclaims superseded ones.
        let reclaimed = obj.gc(100);
        assert_eq!(reclaimed, 2);
        assert_eq!(obj.used_slots().count_ones(), 1);
        assert_eq!(obj.read_visible(100), Some(3));
    }

    #[test]
    fn gc_respects_oldest_active_snapshot() {
        let obj = MvccObject::new(8);
        obj.install(1u64, 2, NO_TS).unwrap();
        obj.install(2u64, 5, NO_TS).unwrap();
        obj.install(3u64, 9, NO_TS).unwrap();
        // An active reader at ts=4 still needs the version [2,5).
        assert_eq!(obj.gc(4), 0);
        assert_eq!(obj.read_visible(4), Some(1));
        // Once the oldest snapshot moves to 5, [2,5) can go but [5,9) stays.
        assert_eq!(obj.gc(5), 1);
        assert_eq!(obj.read_visible(5), Some(2));
        assert_eq!(obj.read_visible(9), Some(3));
    }

    #[test]
    fn gc_with_refreshed_bound_keeps_late_pins() {
        let obj = MvccObject::new(4);
        obj.install(1u64, 2, NO_TS).unwrap();
        obj.install(2u64, 8, NO_TS).unwrap();
        // The cheap hint claims everything up to ts=10 is reclaimable, but
        // the fresh rescan reports a reader pinned at 5: [2,8) must stay.
        assert_eq!(obj.gc_with(10, || 5), 0);
        assert_eq!(obj.read_visible(5), Some(1));
        // With the fresh bound also past the dts, the version goes.
        assert_eq!(obj.gc_with(10, || 10), 1);
        assert_eq!(obj.read_visible(10), Some(2));
    }

    #[test]
    fn on_demand_gc_when_slots_full() {
        let obj = MvccObject::new(2);
        obj.install(1u64, 2, NO_TS).unwrap();
        obj.install(2u64, 4, NO_TS).unwrap();
        // Slots full; oldest active snapshot is 10 so the [2,4) version can go.
        let reclaimed = obj.install(3u64, 11, 10).unwrap();
        assert_eq!(reclaimed, 1);
        assert_eq!(obj.read_visible(11), Some(3));
        // The [4,11) version must survive because it is still the snapshot of 10.
        assert_eq!(obj.read_visible(10), Some(2));
    }

    #[test]
    fn array_grows_when_gc_cannot_reclaim() {
        let obj = MvccObject::new(2);
        obj.install(1u64, 2, NO_TS).unwrap();
        obj.install(2u64, 4, NO_TS).unwrap();
        assert_eq!(obj.allocated_slots(), 2);
        // Oldest active snapshot is 1: nothing can be reclaimed, so the
        // array grows instead of failing.
        obj.install(3u64, 6, 1).unwrap();
        assert_eq!(obj.allocated_slots(), 4);
        assert_eq!(obj.version_count(), 3);
        // Every snapshot still sees its version.
        assert_eq!(obj.read_visible(3), Some(1));
        assert_eq!(obj.read_visible(5), Some(2));
        assert_eq!(obj.read_visible(10), Some(3));
    }

    #[test]
    fn capacity_exhausted_only_at_bitmap_width() {
        let obj = MvccObject::new(2);
        // Install 64 versions while an ancient snapshot (ts=1) pins them all.
        for i in 0..MAX_VERSION_SLOTS as u64 {
            obj.install(i, 2 + i, 1).unwrap();
        }
        assert_eq!(obj.allocated_slots(), MAX_VERSION_SLOTS);
        assert_eq!(obj.version_count(), MAX_VERSION_SLOTS);
        // The 65th needed version cannot be stored.
        let err = obj.install(999u64, 1000, 1).unwrap_err();
        assert!(matches!(err, TspError::CapacityExhausted { .. }));
        // The failed install must not have corrupted visibility: the latest
        // surviving version is still visible to new readers.
        assert_eq!(
            obj.read_visible(u64::MAX - 1),
            Some(MAX_VERSION_SLOTS as u64 - 1)
        );
        // Once the old snapshot moves on, GC frees the array again.
        assert!(obj.gc(2 + MAX_VERSION_SLOTS as u64) >= MAX_VERSION_SLOTS - 1);
        obj.install(1000u64, 2000, 2000).unwrap();
        assert_eq!(obj.read_visible(u64::MAX - 1), Some(1000));
    }

    #[test]
    fn undo_commit_unlinks_the_version_and_revives_the_predecessor() {
        let obj = MvccObject::new(4);
        obj.install(1u64, 5, NO_TS).unwrap();
        obj.install(2u64, 9, NO_TS).unwrap();
        assert_eq!(obj.latest_cts(), 9);
        // Undo the commit at 9: the object must look as if it never happened.
        assert!(obj.undo_commit(9));
        assert_eq!(obj.latest_cts(), 5);
        assert_eq!(obj.latest_dts(), NO_TS, "no terminated version remains");
        assert!(obj.has_live_version(), "the predecessor is live again");
        assert_eq!(obj.read_visible(100), Some(1));
        assert_eq!(obj.version_count(), 1);
        // Undoing an unknown cts is a no-op.
        assert!(!obj.undo_commit(42));
        // Undoing a delete restores the live version without freeing slots.
        obj.mark_deleted(12);
        assert_eq!(obj.read_visible(100), None);
        assert!(obj.undo_commit(12));
        assert_eq!(obj.read_visible(100), Some(1));
    }

    #[test]
    fn versions_are_reported_newest_first() {
        let obj = MvccObject::new(4);
        obj.install(10u64, 2, NO_TS).unwrap();
        obj.install(20u64, 7, NO_TS).unwrap();
        let vs = obj.versions();
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0].cts, 7);
        assert_eq!(vs[1].cts, 2);
        assert!(vs[0].is_live());
        assert!(!vs[1].is_live());
        assert_eq!(vs[1].dts, 7);
    }

    #[test]
    fn capacity_is_clamped() {
        let obj: MvccObject<u8> = MvccObject::new(0);
        assert_eq!(obj.capacity(), 1);
        let obj: MvccObject<u8> = MvccObject::new(1000);
        assert_eq!(obj.capacity(), MAX_VERSION_SLOTS);
        let obj: MvccObject<u8> = MvccObject::default();
        assert_eq!(obj.capacity(), DEFAULT_VERSION_SLOTS);
    }

    #[test]
    fn minimal_capacity_grows_through_all_chunks() {
        // capacity 1 exercises the deepest chunk chain: 1,1,2,4,8,16,32.
        let obj = MvccObject::new(1);
        for i in 0..MAX_VERSION_SLOTS as u64 {
            obj.install(i, 2 + i, 1).unwrap();
        }
        assert_eq!(obj.allocated_slots(), MAX_VERSION_SLOTS);
        // Every version remains readable at its own snapshot.
        for i in 0..MAX_VERSION_SLOTS as u64 {
            assert_eq!(obj.read_visible(2 + i), Some(i));
        }
    }

    #[test]
    fn concurrent_readers_and_installer() {
        use std::sync::Arc;
        let obj = Arc::new(MvccObject::new(16));
        obj.install(0u64, 2, NO_TS).unwrap();
        let writer = {
            let obj = Arc::clone(&obj);
            std::thread::spawn(move || {
                for i in 1..500u64 {
                    // Monotonically increasing cts; the oldest active snapshot
                    // trails just behind the previous commit, so on-demand GC
                    // always finds reclaimable versions.
                    let cts = 2 + i * 2;
                    obj.install(i, cts, cts - 1).unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let obj = Arc::clone(&obj);
                std::thread::spawn(move || {
                    for _ in 0..2000 {
                        // A very fresh snapshot must always see *some* version,
                        // and the value must be consistent with its timestamp.
                        let v = obj.read_visible(u64::MAX - 1);
                        assert!(v.is_some());
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(obj.read_visible(u64::MAX - 1), Some(499));
    }
}
