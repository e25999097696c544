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
//! * **Version storage grows in chunks, and then overflow levels, that are
//!   never freed or moved** while the object lives, so readers may hold
//!   references across growth.
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
//!
//! # Overflow levels
//!
//! The primary version array grows in chunks up to the 64-slot width of the
//! `UsedSlots` bitmap, and that bitmap stays the fast path.  A hot key whose
//! old versions are all pinned by a slow reader can need more: past 64
//! versions still needed, [`install_with`](MvccObject::install_with) links
//! an *overflow level* — 64 more slots with their own occupancy word — so a
//! slow reader costs memory, never a writer error.  Each level records the
//! global index of its first slot, so the live hint and every scan address
//! level slots like primary ones.  Levels form a list, newest first: the
//! live version of a hot key usually sits in the newest level, so a read at
//! the newest snapshot and the next install stay one hop away however many
//! versions a slow reader pins.  The levels follow the chunks' rules, which
//! is what keeps the latch-free clone sound:
//!
//! * a level is allocated fully initialised (its `base` and link to the
//!   older levels never change) and published as the new head with a
//!   `Release` store that readers pair with an `Acquire` load, so existing
//!   indices never move;
//! * its bits and headers change only inside writer windows and are read
//!   under the same seqlock validation as the primary array's — a reader
//!   that sees a bit set in a window without the level's publication fails
//!   validation exactly as for a not-yet-visible chunk;
//! * a level is never freed or moved until the object drops, and a value in
//!   it is dropped only by GC under the floor protocol above.  A slot's
//!   value is therefore never moved or freed while a reader may clone it;
//!   GC frees level slots for reuse, and installs fill the primary array
//!   first.
//!
//! While a reader pins them, every 64th install of a hot key still runs the
//! on-demand GC over all its versions before linking a level, so installs
//! cost time linear in the pinned versions, amortised over 64.
//!
//! # First-Committer-Wins through the live slot
//!
//! The FCW check (§4.2) and SSI certification need only the newest write of
//! a key: [`newest_write_ts`](MvccObject::newest_write_ts).  Versions are
//! installed in commit order, so the live version's `cts` is at least every
//! other `cts` and `dts` of the object, and the check is one header read
//! through the live hint under the seqlock — no fold over the headers, no
//! extra word on the object.  Only an object with no live version (its
//! newest write was a delete, or it is empty) folds its headers.

use crate::latch_probe;
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicPtr, AtomicU32, AtomicU64, Ordering};
use tsp_common::{Timestamp, INFINITY_TS, NO_TS};

/// Default number of version slots per object.
pub const DEFAULT_VERSION_SLOTS: usize = 8;

/// Slots of the primary version array: the width of the `UsedSlots`
/// bitmap.  Versions beyond it go to overflow levels of the same width.
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

    /// The `(cts, dts)` header (`Relaxed`; see the module protocol).
    fn header(&self) -> (Timestamp, Timestamp) {
        (
            self.cts.load(Ordering::Relaxed),
            self.dts.load(Ordering::Relaxed),
        )
    }

    /// True if the version's lifetime `[cts, dts)` contains `read_ts`.
    fn visible_at(&self, read_ts: Timestamp) -> bool {
        let (cts, dts) = self.header();
        cts != NO_TS && cts <= read_ts && read_ts < dts
    }
}

/// An overflow level: [`MAX_VERSION_SLOTS`] more slots with their own
/// occupancy word (see the module docs).  Levels form a list, newest
/// first; a level's fields other than `used` and the slots never change
/// after it is published.
struct OverflowLevel<V> {
    /// Global index of `slots[0]`.
    base: usize,
    used: AtomicU64,
    slots: [VersionSlot<V>; MAX_VERSION_SLOTS],
    /// The next older level (null for the first one).
    next: *mut OverflowLevel<V>,
}

/// A multi-versioned object holding all versions of one key.
pub struct MvccObject<V> {
    /// Serialises writers (install, delete-stamp, GC).  Never taken by
    /// [`read_visible`](Self::read_visible).
    writer: Mutex<()>,
    /// Seqlock word: odd while a writer window is open.
    seq: AtomicU64,
    /// Occupancy bitmap of the primary array (bit *i* set ⇔ slot *i* holds
    /// a version).
    used: AtomicU64,
    /// Index + 1 of the *live* version slot (`dts == INFINITY_TS`), 0 when
    /// none.  At most one version is ever live, so this single word lets
    /// the common read (snapshot at or after the newest commit) probe one
    /// slot instead of scanning the occupancy bitmap, lets a writer
    /// terminate its predecessor without a scan, and gives the newest
    /// write for First-Committer-Wins.  Mutated only under the writer mutex
    /// inside seq windows; readers treat it as a seqlock-validated hint.
    live: AtomicU64,
    /// Slots allocated across the primary array's chunks (monotone, ≤ 64).
    allocated: AtomicU32,
    /// Initial capacity (chunk 0 size); total capacity doubles per grow.
    capacity: u32,
    /// Version storage.  Chunk `k` holds `chunk_cap(k)` slots; chunks are
    /// allocated on demand, published with `Release`, and never freed or
    /// moved until the object drops — readers hold references across growth.
    chunks: [AtomicPtr<VersionSlot<V>>; MAX_CHUNKS],
    /// Newest overflow level (null until the primary array is full of
    /// versions still needed); published and kept like the chunks.
    overflow: AtomicPtr<OverflowLevel<V>>,
}

// SAFETY: all shared mutable state is accessed through atomics or through
// the `UnsafeCell` values, whose cross-thread discipline (single writer
// inside seq windows; readers clone only validated, reclaim-protected
// versions) is documented in the module header.  The chunks and overflow
// levels behind the raw pointers are owned by the object, published with
// `Release` before any reader can reach them, immutable in their links and
// `base`, and freed only in `drop`.
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

/// The occupancy bit of global slot `idx` within its 64-slot word.
fn bit(idx: usize) -> u64 {
    1u64 << (idx % MAX_VERSION_SLOTS)
}

impl<V: Clone> MvccObject<V> {
    /// Creates an object with `capacity` initial version slots (clamped to
    /// `1..=`[`MAX_VERSION_SLOTS`]); the array grows on demand, doubling up
    /// to the 64-slot bitmap width, and then by overflow levels.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.clamp(1, MAX_VERSION_SLOTS);
        let obj = MvccObject {
            writer: Mutex::new(()),
            seq: AtomicU64::new(0),
            used: AtomicU64::new(0),
            live: AtomicU64::new(0),
            allocated: AtomicU32::new(0),
            capacity: capacity as u32,
            chunks: Default::default(),
            overflow: AtomicPtr::new(std::ptr::null_mut()),
        };
        obj.alloc_chunk(0);
        obj
    }

    /// The configured *initial* slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// The current number of version slots: the primary array (initial
    /// capacity plus any on-demand growth) plus every overflow level.
    pub fn allocated_slots(&self) -> usize {
        self.allocated.load(Ordering::Acquire) as usize + self.levels().count() * MAX_VERSION_SLOTS
    }

    /// The primary array's occupancy bitmap (bit *i* set ⇔ slot *i* holds
    /// a version); overflow levels keep their own words.
    pub fn used_slots(&self) -> u64 {
        self.used.load(Ordering::Acquire)
    }

    /// Number of stored versions.
    pub fn version_count(&self) -> usize {
        self.levels()
            .map(|l| l.used.load(Ordering::Acquire).count_ones() as usize)
            .sum::<usize>()
            + self.used_slots().count_ones() as usize
    }

    /// True if no versions are stored.
    pub fn is_empty(&self) -> bool {
        self.used_slots() == 0 && self.levels().all(|l| l.used.load(Ordering::Acquire) == 0)
    }

    // ------------------------------------------------------------------
    // Storage layout
    // ------------------------------------------------------------------

    /// Allocates chunk `k` and returns the index of its first slot.
    /// Writer-exclusive (or construction).
    fn alloc_chunk(&self, k: usize) -> usize {
        let cap = chunk_cap(self.capacity(), k);
        debug_assert!(
            cap > 0,
            "chunk {k} not needed for capacity {}",
            self.capacity
        );
        let chunk: Box<[VersionSlot<V>]> = (0..cap).map(|_| VersionSlot::empty()).collect();
        let first = self.allocated.load(Ordering::Relaxed) as usize;
        // Publish the fully initialised chunk before bumping `allocated`.
        self.chunks[k].store(
            Box::into_raw(chunk) as *mut VersionSlot<V>,
            Ordering::Release,
        );
        self.allocated
            .store((first + cap) as u32, Ordering::Release);
        first
    }

    /// The overflow levels, newest first.  Levels are published fully
    /// initialised with `Release` and never freed while `self` lives, so
    /// this is safe from both readers and the writer.
    fn levels(&self) -> impl Iterator<Item = &OverflowLevel<V>> {
        // SAFETY: a non-null head was stored by `grow_locked` from a
        // `Box::into_raw` of a fully initialised level (the `Acquire` load
        // pairs with its `Release` store), and levels are freed only in
        // `drop`, which cannot run while `&self` is borrowed.
        let newest = unsafe { self.overflow.load(Ordering::Acquire).as_ref() };
        std::iter::successors(newest, |l| {
            // SAFETY: `next` was set before the level holding it was
            // published and never changes; it points to an older level,
            // kept like the newest one.
            unsafe { l.next.as_ref() }
        })
    }

    /// The overflow level holding global slot `idx` (≥ 64).  The live
    /// version usually sits in the newest level, found first.
    fn level_of(&self, idx: usize) -> Option<&OverflowLevel<V>> {
        self.levels().find(|l| l.base <= idx)
    }

    /// Calls `f(index, slot, used word)` for every occupied slot — the
    /// primary array first, then each overflow level — until `f` returns
    /// `Some`.  For a latch-free reader the bits and headers are only a
    /// candidate state that seqlock validation must confirm; a bit whose
    /// chunk is not yet visible is skipped (see [`slot`](Self::slot)).
    fn find_occupied<'a, R>(
        &'a self,
        mut f: impl FnMut(usize, &'a VersionSlot<V>, &'a AtomicU64) -> Option<R>,
    ) -> Option<R> {
        let mut bits = self.used.load(Ordering::Relaxed);
        while bits != 0 {
            let idx = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if let Some(r) = self.slot(idx).and_then(|slot| f(idx, slot, &self.used)) {
                return Some(r);
            }
        }
        for level in self.levels() {
            let mut bits = level.used.load(Ordering::Relaxed);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if let Some(r) = f(level.base + b, &level.slots[b], &level.used) {
                    return Some(r);
                }
            }
        }
        None
    }

    /// The slot at global index `idx` (primary array below
    /// [`MAX_VERSION_SLOTS`], an overflow level above), or
    /// `None` if the chunk or level holding it is not yet visible to this
    /// thread.
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
        if idx >= MAX_VERSION_SLOTS {
            // A reader that does not see the newest level yet finds an older
            // one here, and `get` reports the slot as not visible.
            let level = self.level_of(idx)?;
            return level.slots.get(idx - level.base);
        }
        let mut base = 0;
        for k in 0..MAX_CHUNKS {
            let cap = chunk_cap(self.capacity(), k);
            if idx < base + cap {
                let ptr = self.chunks[k].load(Ordering::Acquire);
                if ptr.is_null() {
                    return None;
                }
                // SAFETY: the chunk was published fully initialised with
                // `cap` slots and is never freed while `self` lives.
                return Some(unsafe { &*ptr.add(idx - base) });
            }
            base += cap;
        }
        None
    }

    /// The occupancy word holding global slot `idx`.  Writer-side only.
    fn used_word(&self, idx: usize) -> &AtomicU64 {
        if idx < MAX_VERSION_SLOTS {
            &self.used
        } else {
            &self.level_of(idx).expect("writer sees its own levels").used
        }
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

    /// Runs `scan` until it completes over a seqlock-validated consistent
    /// state (`seq` even and unchanged across it) and returns its result.
    /// `scan` may load headers, bitmaps, the live hint and level links, but
    /// must not touch values.
    fn validated<R>(&self, mut scan: impl FnMut() -> R) -> R {
        let mut spins = 0u32;
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let result = scan();
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

    /// Returns the value visible at `read_ts`, if any, **without acquiring
    /// any latch** — the committed-read fast path.
    ///
    /// Concurrency contract: the calling transaction must have announced a
    /// snapshot floor `<= read_ts` to the garbage collector's
    /// `oldest_active` scan before calling (the context does this in
    /// `begin`/pinning), or no concurrent GC/install may reclaim versions
    /// still visible at `read_ts` (the single-writer test setting).
    pub fn read_visible(&self, read_ts: Timestamp) -> Option<V> {
        let hit = self.validated(|| {
            // Fast path: probe the live-slot hint first.  A snapshot at or
            // after the newest commit — the common case — matches in one
            // slot probe; any torn or stale observation is rejected by the
            // seqlock validation like every other scan.
            let live = self.live.load(Ordering::Relaxed);
            if live != 0 {
                if let Some(slot) = self.slot(live as usize - 1) {
                    if slot.visible_at(read_ts) {
                        return Some(slot);
                    }
                }
            }
            // Otherwise visit the occupied slots (usually one or two).  At
            // most one version is visible at any timestamp in a consistent
            // state — and inconsistent scans are rejected anyway.
            self.find_occupied(|_, slot, _| slot.visible_at(read_ts).then_some(slot))
        });
        // SAFETY: the scan was validated as a consistent state (seq
        // unchanged and even).  The winning version has `dts > read_ts >=
        // announced floor`, so per the module protocol no reclaimer may
        // drop or overwrite its value concurrently, and the `Acquire` load
        // of the validated `seq` happens-after the write that installed it.
        hit.and_then(|slot| unsafe { (*slot.value.get()).clone() })
    }

    /// Like [`read_visible`](Self::read_visible) but serialised against
    /// writers via the object latch.  For callers that read at snapshots
    /// *not* covered by an announced floor (relaxed-isolation readers,
    /// diagnostics) and therefore may not use the latch-free path.
    pub fn read_visible_latched(&self, read_ts: Timestamp) -> Option<V> {
        let _g = self.writer.lock();
        latch_probe::count_latch();
        self.find_occupied(|_, slot, _| {
            // SAFETY: the writer latch excludes every mutator.
            slot.visible_at(read_ts)
                .then(|| unsafe { (*slot.value.get()).clone() })
        })
        .flatten()
    }

    /// The timestamp of the newest write to this object — its newest commit
    /// or deletion, whichever is later — or [`NO_TS`] if it holds no
    /// version.  The First-Committer-Wins check and SSI certification
    /// compare it with a snapshot.  Latch-free.
    ///
    /// Versions are installed in commit order, so a live version's `cts` is
    /// at least every other `cts` and `dts` of the object: with a live
    /// version this is one header read through the live hint.  Only an
    /// object without one (its newest write was a delete) folds the
    /// headers.
    pub fn newest_write_ts(&self) -> Timestamp {
        self.validated(|| {
            let live = self.live.load(Ordering::Relaxed);
            if live != 0 {
                // A not-yet-visible chunk fails validation and retries.
                return self
                    .slot(live as usize - 1)
                    .map_or(NO_TS, |slot| slot.cts.load(Ordering::Relaxed));
            }
            let mut newest = NO_TS;
            self.find_occupied(|_, slot, _| {
                let (cts, dts) = slot.header();
                if cts != NO_TS {
                    newest = newest.max(cts);
                    if dts != INFINITY_TS {
                        newest = newest.max(dts);
                    }
                }
                None::<()>
            });
            newest
        })
    }

    /// Snapshot of all versions, newest first (diagnostics and tests).
    /// Takes the writer latch — values of non-visible versions are not
    /// protected by the floor protocol.
    pub fn versions(&self) -> Vec<Version<V>> {
        let _g = self.writer.lock();
        latch_probe::count_latch();
        let mut out = Vec::new();
        self.find_occupied(|_, slot, _| {
            // SAFETY: the writer latch excludes every mutator.
            if let Some(value) = unsafe { (*slot.value.get()).clone() } {
                let (cts, dts) = slot.header();
                out.push(Version { cts, dts, value });
            }
            None::<()>
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
    /// module docs); if nothing can be reclaimed the primary array grows,
    /// up to the 64-slot width of the `UsedSlots` bitmap, and past that a
    /// new overflow level is linked.  A slow reader therefore costs memory,
    /// never an error.
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
    ) -> usize {
        debug_assert!(cts != NO_TS);
        let _g = self.writer.lock();
        latch_probe::count_latch();
        let mut reclaimed = 0;
        let idx = match self.find_free_locked() {
            Some(idx) => idx,
            None => {
                reclaimed = self.gc_locked(oldest_hint, refresh);
                self.find_free_locked()
                    .unwrap_or_else(|| self.grow_locked())
            }
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
            debug_assert!(
                pslot.cts.load(Ordering::Relaxed) <= cts,
                "versions are installed in commit order"
            );
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
        let word = self.used_word(idx);
        word.store(word.load(Ordering::Relaxed) | bit(idx), Ordering::Relaxed);
        self.live.store(idx as u64 + 1, Ordering::Relaxed);
        self.exit_window(s);
        reclaimed
    }

    /// [`install_with`](Self::install_with) with a constant reclaim bound.
    /// Sound only when every concurrent reader's snapshot is at or above
    /// `oldest_active` (single-writer tests, preloading); table code uses
    /// `install_with` with a fresh context scan.
    pub fn install(&self, value: V, cts: Timestamp, oldest_active: Timestamp) -> usize {
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
    /// whose `apply` fails mid-way (e.g. a panicking participant) has
    /// already installed versions that no reader can ever see — their
    /// `cts` exceeds every published `LastCTS` — but whose headers would
    /// spuriously trip First-Committer-Wins and SSI certification for every
    /// later transaction with an older snapshot floor.  The coordinator
    /// therefore undoes the applied participants.
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
        let mut installed = None;
        let mut superseded = None;
        self.find_occupied(|i, slot, _| {
            let (c, d) = slot.header();
            if c == cts {
                installed = Some(i);
            }
            if d == cts {
                superseded = Some(i);
            }
            None::<()>
        });
        if installed.is_none() && superseded.is_none() {
            return false;
        }
        let s = self.enter_window();
        if let Some(idx) = installed {
            let slot = self.slot(idx).expect("writer sees its own chunks");
            let word = self.used_word(idx);
            word.store(word.load(Ordering::Relaxed) & !bit(idx), Ordering::Relaxed);
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
        let dead = |slot: &VersionSlot<V>, bound: Timestamp| {
            let dts = slot.dts.load(Ordering::Relaxed);
            dts != INFINITY_TS && dts <= bound
        };
        if self
            .find_occupied(|_, slot, _| dead(slot, oldest_hint).then_some(()))
            .is_none()
        {
            return 0;
        }
        let s = self.enter_window();
        // Dekker pairing with reader floor announcements (module docs): the
        // odd `seq` store above is ordered before the floor re-read below,
        // so any reader whose floor the re-read misses must observe the odd
        // `seq` and retry (seeing the slot empty afterwards).
        fence(Ordering::SeqCst);
        // Only candidates of the hint are reclaimed, and only if the fresh
        // bound agrees.
        let bound = refresh().min(oldest_hint);
        let mut reclaimed = 0;
        self.find_occupied(|i, slot, word| {
            if dead(slot, bound) {
                // A version is dead once its lifetime ended at or before the
                // oldest snapshot any active or future transaction can hold.
                word.store(word.load(Ordering::Relaxed) & !bit(i), Ordering::Relaxed);
                slot.cts.store(NO_TS, Ordering::Relaxed);
                slot.dts.store(NO_TS, Ordering::Relaxed);
                // SAFETY: single writer; no reader can be cloning this value
                // per the fence pairing above.
                unsafe {
                    *slot.value.get() = None;
                }
                reclaimed += 1;
            }
            None::<()>
        });
        self.exit_window(s);
        reclaimed
    }

    /// First free allocated slot, if any: the primary array first, then
    /// the overflow levels.  Caller holds the writer mutex.
    fn find_free_locked(&self) -> Option<usize> {
        let allocated = self.allocated.load(Ordering::Relaxed) as usize;
        let mask = if allocated >= MAX_VERSION_SLOTS {
            u64::MAX
        } else {
            (1u64 << allocated) - 1
        };
        let free = !self.used.load(Ordering::Relaxed) & mask;
        if free != 0 {
            return Some(free.trailing_zeros() as usize);
        }
        self.levels().find_map(|level| {
            let free = !level.used.load(Ordering::Relaxed);
            (free != 0).then(|| level.base + free.trailing_zeros() as usize)
        })
    }

    /// Adds storage and returns its first slot index: the primary array
    /// grows by one chunk (doubling its capacity, never beyond the bitmap
    /// width); once it is full, a new overflow level is linked behind the
    /// last one.  Caller holds the writer mutex.
    fn grow_locked(&self) -> usize {
        let allocated = self.allocated.load(Ordering::Relaxed) as usize;
        if allocated < MAX_VERSION_SLOTS {
            let mut k = 0;
            let mut base = 0;
            while base < allocated {
                base += chunk_cap(self.capacity(), k);
                k += 1;
            }
            return self.alloc_chunk(k);
        }
        // Publish the fully initialised level as the new head, so the
        // indices of existing levels never change and the newest versions
        // (the live one above all) are found first.
        let base = self
            .levels()
            .next()
            .map_or(MAX_VERSION_SLOTS, |newest| newest.base + MAX_VERSION_SLOTS);
        let level = Box::into_raw(Box::new(OverflowLevel {
            base,
            used: AtomicU64::new(0),
            slots: std::array::from_fn(|_| VersionSlot::empty()),
            next: self.overflow.load(Ordering::Relaxed),
        }));
        self.overflow.store(level, Ordering::Release);
        base
    }
}

impl<V> Drop for MvccObject<V> {
    fn drop(&mut self) {
        let capacity = self.capacity as usize;
        for k in 0..MAX_CHUNKS {
            let ptr = *self.chunks[k].get_mut();
            if ptr.is_null() {
                break;
            }
            let cap = chunk_cap(capacity, k);
            // SAFETY: the chunk was allocated as a boxed slice of `cap`
            // slots in `alloc_chunk` and never freed since.
            drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, cap)) });
        }
        let mut level = *self.overflow.get_mut();
        while !level.is_null() {
            // SAFETY: each level was allocated with `Box::new` in
            // `grow_locked`, linked once and never freed since.
            level = unsafe { Box::from_raw(level) }.next;
        }
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
        assert_eq!(obj.newest_write_ts(), NO_TS);
        assert_eq!(obj.version_count(), 0);
    }

    #[test]
    fn install_and_read_visibility_windows() {
        let obj = MvccObject::new(4);
        obj.install(10u64, 5, NO_TS);
        obj.install(20u64, 9, NO_TS);
        // Reader before the first commit sees nothing.
        assert_eq!(obj.read_visible(4), None);
        // Reader between commits sees the first version.
        assert_eq!(obj.read_visible(5), Some(10));
        assert_eq!(obj.read_visible(8), Some(10));
        // Reader at/after the second commit sees the second version.
        assert_eq!(obj.read_visible(9), Some(20));
        assert_eq!(obj.read_visible(1000), Some(20));
        assert_eq!(obj.newest_write_ts(), 9);
        assert_eq!(obj.version_count(), 2);
    }

    #[test]
    fn delete_ends_visibility() {
        let obj = MvccObject::new(4);
        obj.install(7u64, 3, NO_TS);
        assert!(obj.mark_deleted(6));
        assert_eq!(obj.read_visible(5), Some(7));
        assert_eq!(obj.read_visible(6), None);
        // The delete is the newest write, found by the header fold.
        assert_eq!(obj.newest_write_ts(), 6);
        // Deleting again reports no live version.
        assert!(!obj.mark_deleted(8));
    }

    #[test]
    fn latched_read_matches_latch_free_read() {
        let obj = MvccObject::new(4);
        obj.install(1u64, 2, NO_TS);
        obj.install(2u64, 6, NO_TS);
        for ts in [1, 2, 5, 6, 100] {
            assert_eq!(obj.read_visible(ts), obj.read_visible_latched(ts));
        }
    }

    #[test]
    fn bitmap_tracks_occupancy() {
        let obj = MvccObject::new(8);
        assert_eq!(obj.used_slots(), 0);
        obj.install(1u64, 2, NO_TS);
        assert_eq!(obj.used_slots().count_ones(), 1);
        obj.install(2u64, 4, NO_TS);
        obj.install(3u64, 6, NO_TS);
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
        obj.install(1u64, 2, NO_TS);
        obj.install(2u64, 5, NO_TS);
        obj.install(3u64, 9, NO_TS);
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
        obj.install(1u64, 2, NO_TS);
        obj.install(2u64, 8, NO_TS);
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
        obj.install(1u64, 2, NO_TS);
        obj.install(2u64, 4, NO_TS);
        // Slots full; oldest active snapshot is 10 so the [2,4) version can go.
        let reclaimed = obj.install(3u64, 11, 10);
        assert_eq!(reclaimed, 1);
        assert_eq!(obj.read_visible(11), Some(3));
        // The [4,11) version must survive because it is still the snapshot of 10.
        assert_eq!(obj.read_visible(10), Some(2));
    }

    #[test]
    fn array_grows_when_gc_cannot_reclaim() {
        let obj = MvccObject::new(2);
        obj.install(1u64, 2, NO_TS);
        obj.install(2u64, 4, NO_TS);
        assert_eq!(obj.allocated_slots(), 2);
        // Oldest active snapshot is 1: nothing can be reclaimed, so the
        // array grows instead of failing.
        obj.install(3u64, 6, 1);
        assert_eq!(obj.allocated_slots(), 4);
        assert_eq!(obj.version_count(), 3);
        // Every snapshot still sees its version.
        assert_eq!(obj.read_visible(3), Some(1));
        assert_eq!(obj.read_visible(5), Some(2));
        assert_eq!(obj.read_visible(10), Some(3));
    }

    #[test]
    fn versions_past_the_bitmap_width_go_to_overflow_levels() {
        let obj = MvccObject::new(2);
        // An ancient snapshot (ts=1) pins every version: 200 installs fill
        // the primary array and then overflow levels, with no error.
        for i in 0..200u64 {
            obj.install(i, 2 + i, 1);
        }
        assert_eq!(obj.version_count(), 200);
        assert_eq!(obj.used_slots(), u64::MAX, "the primary array is full");
        assert_eq!(obj.allocated_slots(), 4 * MAX_VERSION_SLOTS);
        // Every version stays readable at its own snapshot, latch-free and
        // latched, and the newest write is the live version's.
        for i in 0..200u64 {
            assert_eq!(obj.read_visible(2 + i), Some(i));
        }
        assert_eq!(obj.read_visible_latched(150), Some(148));
        assert_eq!(obj.newest_write_ts(), 201);
        assert_eq!(obj.versions().len(), 200);
        // Once the snapshot moves on, GC reclaims everything but the live
        // version — from the levels too — and freed slots are reused
        // before any new storage is added.
        assert_eq!(obj.gc(1000), 199);
        assert_eq!(obj.version_count(), 1);
        assert_eq!(obj.read_visible(u64::MAX - 1), Some(199));
        for i in 0..100u64 {
            obj.install(1000 + i, 1000 + i, 1000);
        }
        assert_eq!(obj.allocated_slots(), 4 * MAX_VERSION_SLOTS);
        assert_eq!(obj.read_visible(u64::MAX - 1), Some(1099));
    }

    /// A live version in an overflow level with an empty primary array is
    /// still found by the live hint, the scans and `is_empty`.
    #[test]
    fn a_live_version_in_an_overflow_level_is_found() {
        let obj = MvccObject::new(1);
        for i in 0..=MAX_VERSION_SLOTS as u64 {
            obj.install(i, 2 + i, 1);
        }
        // Reclaim the primary array's 64 versions; the live one sits in
        // the first overflow level.
        assert_eq!(obj.gc(2 + MAX_VERSION_SLOTS as u64), MAX_VERSION_SLOTS);
        assert_eq!(obj.used_slots(), 0);
        assert!(!obj.is_empty());
        assert_eq!(obj.read_visible(u64::MAX - 1), Some(64));
        assert_eq!(obj.newest_write_ts(), 66);
        assert!(obj.mark_deleted(70));
        assert_eq!(obj.newest_write_ts(), 70);
        assert_eq!(obj.read_visible(69), Some(64));
        assert!(obj.undo_commit(70));
        assert_eq!(obj.read_visible(u64::MAX - 1), Some(64));
    }

    #[test]
    fn undo_commit_unlinks_the_version_and_revives_the_predecessor() {
        let obj = MvccObject::new(4);
        obj.install(1u64, 5, NO_TS);
        obj.install(2u64, 9, NO_TS);
        assert_eq!(obj.newest_write_ts(), 9);
        // Undo the commit at 9: the object must look as if it never happened.
        assert!(obj.undo_commit(9));
        assert_eq!(obj.newest_write_ts(), 5, "no terminated version remains");
        assert_eq!(obj.read_visible(100), Some(1), "the predecessor is live");
        assert_eq!(obj.version_count(), 1);
        // Undoing an unknown cts is a no-op.
        assert!(!obj.undo_commit(42));
        // Undoing a delete restores the live version without freeing slots.
        obj.mark_deleted(12);
        assert_eq!(obj.read_visible(100), None);
        assert_eq!(obj.newest_write_ts(), 12);
        assert!(obj.undo_commit(12));
        assert_eq!(obj.read_visible(100), Some(1));
        assert_eq!(obj.newest_write_ts(), 5);
    }

    #[test]
    fn versions_are_reported_newest_first() {
        let obj = MvccObject::new(4);
        obj.install(10u64, 2, NO_TS);
        obj.install(20u64, 7, NO_TS);
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
            obj.install(i, 2 + i, 1);
        }
        assert_eq!(obj.allocated_slots(), MAX_VERSION_SLOTS);
        // Every version remains readable at its own snapshot.
        for i in 0..MAX_VERSION_SLOTS as u64 {
            assert_eq!(obj.read_visible(2 + i), Some(i));
        }
    }

    /// Readers racing an installer that links overflow levels (every
    /// version stays pinned) see the newest version only move forward and
    /// the pinned one never change.
    #[test]
    fn concurrent_readers_across_overflow_levels() {
        let obj = MvccObject::new(1);
        obj.install(0u64, 2, 1);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 1..600u64 {
                    obj.install(i, 2 + i, 1);
                }
            });
            for _ in 0..2 {
                s.spawn(|| {
                    let mut last = 0;
                    for _ in 0..5_000 {
                        let v = obj.read_visible(u64::MAX - 1).expect("a live version");
                        assert!(v >= last, "newest read went back from {last} to {v}");
                        last = v;
                        assert_eq!(obj.read_visible(2), Some(0));
                        assert!(obj.newest_write_ts() >= 2 + last);
                    }
                });
            }
        });
        assert_eq!(obj.version_count(), 600);
        assert_eq!(obj.read_visible(u64::MAX - 1), Some(599));
    }

    #[test]
    fn concurrent_readers_and_installer() {
        use std::sync::Arc;
        let obj = Arc::new(MvccObject::new(16));
        obj.install(0u64, 2, NO_TS);
        let writer = {
            let obj = Arc::clone(&obj);
            std::thread::spawn(move || {
                for i in 1..500u64 {
                    // Monotonically increasing cts; the oldest active snapshot
                    // trails just behind the previous commit, so on-demand GC
                    // always finds reclaimable versions.
                    let cts = 2 + i * 2;
                    obj.install(i, cts, cts - 1);
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
