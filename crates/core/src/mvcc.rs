//! Multi-versioned value objects — the heart of the snapshot-isolation
//! design (§4.1, Fig. 3) with a **latch-free committed-read path**.
//!
//! Each key of a transactional table maps to one [`MvccObject`].  The object
//! holds version slots carrying the classic MVCC header `< [cts, dts],
//! value >` — the commit and deletion timestamps delimiting the version's
//! lifetime.  Slot occupancy is mirrored in 64-bit occupancy words, as in
//! the paper's `UsedSlots` bit vector (footnote 2).
//!
//! §4.2 prescribes a "lightweight locking strategy"; this implementation
//! goes one step further and removes the read latch entirely:
//!
//! * **Headers are per-slot atomics** (`cts`, `dts`), so readers scan them
//!   with plain atomic loads.
//! * **A per-object seqlock** (`seq`, odd while a writer mutates) guards
//!   against torn multi-header states: [`read_visible`](MvccObject::read_visible)
//!   re-checks `seq` after the scan and retries if a writer interfered.
//! * **Version storage is never freed or moved** while the object lives —
//!   two slots inside the object, then levels linked on demand — so
//!   readers may hold references across growth.
//! * Writers (install / delete-stamp / GC) serialise on a per-object
//!   one-byte latch and mutate only inside odd `seq` windows.  Every
//!   install opens one: it ends the previous live version's lifetime, so
//!   it is never merely additive.
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
//!   serialised by the latch, so earlier windows are ordered through it).
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
//! dropped.
//!
//! The pairing needs the announced floor to be at or below the snapshot the
//! reader scans.  A pinned `ReadCTS` can lie below the begin timestamp, so
//! the context pins **after** announcing: it loads `LastCTS`, announces it,
//! fences, reloads `LastCTS` and scans at the reloaded value (see "Pinning
//! a group" in [`crate::context`]).  A version the reloaded snapshot sees is
//! vacated only after a newer version of its key was published, and for
//! the on-demand GC, which runs under the key's group commit lock, a
//! reload after the fence would have seen that publish.  The plain-`Timestamp` variants ([`gc`](MvccObject::gc),
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
//! # Inline slots and levels
//!
//! The object keeps its first two slots inline: the live version and the
//! one it superseded, which is all a key needs while no reader holds an
//! old snapshot for long.  A key is then one allocation — its index node —
//! and the read, First-Committer-Wins and install paths reach the live
//! slot without a pointer hop.  Installs fill the inline slots first, so
//! the live version moves back inline once a slow reader has left.
//!
//! A key whose old versions are pinned by a slow reader needs more: when
//! no slot is free and the on-demand GC can reclaim nothing,
//! [`install_with`](MvccObject::install_with) links a *level* whose
//! capacity equals the slots the object already has — 2, 4, 8, 16, 32 —
//! and then [`LEVEL_SLOTS`] per level, so a slow reader costs memory
//! (at most twice the versions it pins), never a writer error.  Each level
//! has its own occupancy word, with bits indexed from the global index of
//! its first slot (its `base`), so the live hint and every scan address
//! level slots like inline ones.  Levels form a list, newest first: the
//! live version of a hot key usually sits in the newest level, so a read
//! at the newest snapshot and the next install stay one hop away however
//! many versions a slow reader pins.  What keeps the latch-free clone
//! sound:
//!
//! * a level is allocated fully initialised (its `base`, its slots and its
//!   link to the older levels never change) and published as the new head
//!   with a `Release` store that readers pair with an `Acquire` load, so
//!   existing indices never move;
//! * its bits and headers change only inside writer windows and are read
//!   under the same seqlock validation as the inline slots' — a reader
//!   that sees a bit or a live index set in a window without the level's
//!   publication finds no slot for it and fails validation;
//! * a level is never freed or moved until the object drops, and a value in
//!   it is dropped only by GC under the floor protocol above.  A slot's
//!   value is therefore never moved or freed while a reader may clone it;
//!   GC frees level slots for reuse.
//!
//! While a reader pins them, the install that finds every slot taken runs
//! the on-demand GC over all the key's versions before it links a level;
//! the level's free slots then serve as many installs, so installs cost
//! time linear in the pinned versions, amortised over the level's size.
//!
//! # Layout
//!
//! A committed read checks the seqlock word, the live hint, the inline
//! occupancy word and the level pointer before it clones a value, so the
//! object is `#[repr(C)]` with that header first — `seq`, `live`, the
//! writer latch, `used`, `levels` — and the inline slots after it, each
//! `#[repr(C)] { cts, dts, value }`.  For a `(u64, u64)` value the header
//! is 32 bytes and the object 112; in its index node, behind a 16-byte key
//! and link, the header ends at byte 48 and the node fills one 128-byte
//! line pair (`table/objmap.rs`).  Two choices keep it at 112 bytes:
//!
//! * the live hint is an `AtomicU32` — 2³² slots would be 160 GB of one
//!   key;
//! * the writer latch is one `AtomicBool`, taken with an `Acquire`
//!   compare-exchange and released by its guard's `Release` store, which
//!   orders each writer's window after the previous writer's as a mutex
//!   would.  Writers hold it for one install, delete stamp or reclaim pass,
//!   so a waiter spins, then yields, as a validating reader does.
//!
//! A level is one allocation: its header, then its slots.
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
use std::alloc::Layout;
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, Ordering};
use tsp_common::{Timestamp, INFINITY_TS, NO_TS};

/// Version slots kept inside the object: the live version and the one it
/// superseded.
const INLINE_SLOTS: usize = 2;

/// Slots of the largest level: the width of a level's occupancy word.
pub const LEVEL_SLOTS: usize = 64;

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
#[repr(C)]
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

/// A level of version slots beyond the inline ones (see the module docs):
/// this header, followed in the same allocation by its `len` slots.
/// Levels form a list, newest first; a level's fields other than `used`
/// and the slots' contents never change after it is published.
struct Level<V> {
    /// Global index of the first slot.
    base: usize,
    /// Occupancy word: bit *i* set ⇔ slot *i* holds a version.
    used: AtomicU64,
    /// Number of slots.
    len: usize,
    /// The next older level (null for the first one).
    next: *mut Level<V>,
    _slots: PhantomData<VersionSlot<V>>,
}

/// A run of slots that share an occupancy word: the inline slots or one
/// level.
struct Run<'a, V> {
    /// Global index of `slots[0]`.
    base: usize,
    used: &'a AtomicU64,
    slots: &'a [VersionSlot<V>],
}

/// An occupied or free slot found by its global index.
struct Loc<'a, V> {
    idx: usize,
    slot: &'a VersionSlot<V>,
    /// The occupancy word of the slot's run, and the slot's bit in it.
    used: &'a AtomicU64,
    bit: u64,
}

impl<V> Level<V> {
    /// The block of a level of `len` slots, and the offset of its first
    /// slot (the same for every `len`).
    fn layout(len: usize) -> (Layout, usize) {
        let slots = Layout::array::<VersionSlot<V>>(len).expect("a level has at most 64 slots");
        Layout::new::<Level<V>>()
            .extend(slots)
            .expect("a level of at most 64 slots fits in memory")
    }

    /// The first slot of the level whose block starts at `level`.
    fn slots(level: *const Level<V>) -> *mut VersionSlot<V> {
        level
            .cast::<u8>()
            .cast_mut()
            .wrapping_add(Self::layout(0).1)
            .cast()
    }

    /// Allocates a level of `len` free slots, as one block.
    fn alloc(base: usize, len: usize, next: *mut Level<V>) -> *mut Level<V> {
        let layout = Self::layout(len).0;
        // SAFETY: the layout holds the header, so it is not zero-sized.
        let block = unsafe { std::alloc::alloc(layout) };
        if block.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        let level = block.cast::<Level<V>>();
        // SAFETY: `block` is a fresh allocation of `layout`, which places
        // the header at offset 0 and `len` aligned slots after it.
        unsafe {
            level.write(Level {
                base,
                used: AtomicU64::new(0),
                len,
                next,
                _slots: PhantomData,
            });
            let slots = Self::slots(level);
            for i in 0..len {
                slots.add(i).write(VersionSlot::empty());
            }
        }
        level
    }

    /// The level's slots.
    ///
    /// # Safety
    ///
    /// `level` was returned by [`alloc`](Self::alloc) and stays allocated
    /// for `'a`.
    unsafe fn run<'a>(level: *const Level<V>) -> Run<'a, V> {
        // SAFETY: the caller's contract; the header and slots were
        // initialised by `alloc`, and the slots are reached through the
        // block's own pointer.
        unsafe {
            let header = &*level;
            Run {
                base: header.base,
                used: &header.used,
                slots: std::slice::from_raw_parts(Self::slots(level), header.len),
            }
        }
    }

    /// Drops the level's slots, frees its block and returns the next older
    /// level.
    ///
    /// # Safety
    ///
    /// `level` was returned by [`alloc`](Self::alloc), is freed only once,
    /// and nothing borrows it any more.
    unsafe fn free(level: *mut Level<V>) -> *mut Level<V> {
        // SAFETY: the caller's contract; `alloc` initialised `len` slots
        // after the header, and the header holds nothing to drop.
        unsafe {
            let (next, len) = ((*level).next, (*level).len);
            std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(Self::slots(level), len));
            std::alloc::dealloc(level.cast(), Self::layout(len).0);
            next
        }
    }
}

impl<'a, V> Run<'a, V> {
    /// The slot at offset `i` of this run (`None` past its end).
    fn loc(&self, i: usize) -> Option<Loc<'a, V>> {
        self.slots.get(i).map(|slot| Loc {
            idx: self.base + i,
            slot,
            used: self.used,
            bit: 1 << i,
        })
    }
}

/// The writer latch (see the module docs): one byte, taken with an
/// `Acquire` compare-exchange and released by [`LatchGuard`]'s `Release`
/// store.
struct WriterLatch(AtomicBool);

/// Holds the [`WriterLatch`] until dropped.
struct LatchGuard<'a>(&'a AtomicBool);

impl WriterLatch {
    fn lock(&self) -> LatchGuard<'_> {
        let mut spins = 0;
        while self
            .0
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            // Wait on plain loads, so waiters do not pull the line away
            // from the holder.
            while self.0.load(Ordering::Relaxed) {
                backoff(&mut spins);
            }
        }
        LatchGuard(&self.0)
    }
}

impl Drop for LatchGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// One round of waiting: a spin hint for the first 64 rounds, then a
/// yield, so a preempted writer gets the core back.
fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins > 64 {
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

/// The live hint for the slot at global index `idx`.
fn live_hint(idx: usize) -> u32 {
    u32::try_from(idx + 1).expect("2^32 slots would be 160 GB of one key")
}

/// A multi-versioned object holding all versions of one key.  Its header
/// comes first (see "Layout" in the module docs).
#[repr(C)]
pub struct MvccObject<V> {
    /// Seqlock word: odd while a writer window is open.
    seq: AtomicU64,
    /// Index + 1 of the *live* version slot (`dts == INFINITY_TS`), 0 when
    /// none.  At most one version is ever live, so this single word lets
    /// the common read (snapshot at or after the newest commit) probe one
    /// slot instead of scanning the occupancy words, lets a writer
    /// terminate its predecessor without a scan, and gives the newest
    /// write for First-Committer-Wins.  Mutated only under the writer latch
    /// inside seq windows; readers treat it as a seqlock-validated hint.
    live: AtomicU32,
    /// Serialises writers (install, delete-stamp, GC).  Never taken by
    /// [`read_visible`](Self::read_visible).
    writer: WriterLatch,
    /// Occupancy word of the inline slots (bit *i* set ⇔ slot *i* holds a
    /// version).
    used: AtomicU64,
    /// Newest level (null until the inline slots are full of versions
    /// still needed).
    levels: AtomicPtr<Level<V>>,
    /// The first slots, global indices `0..INLINE_SLOTS`.
    inline: [VersionSlot<V>; INLINE_SLOTS],
}

// SAFETY: all shared mutable state is accessed through atomics or through
// the `UnsafeCell` values, whose cross-thread discipline (single writer
// inside seq windows; readers clone only validated, reclaim-protected
// versions) is documented in the module header.  The levels behind the raw
// pointers are owned by the object, published with `Release` before any
// reader can reach them, immutable in their links, `base` and `len`, and
// freed only in `drop`; the writer latch is an atomic.  Values are dropped
// by whichever thread runs a reclaim or the drop (`V: Send`) and cloned
// from shared references by readers (`V: Sync`).
unsafe impl<V: Send> Send for MvccObject<V> {}
unsafe impl<V: Send + Sync> Sync for MvccObject<V> {}

impl<V: Clone> Default for MvccObject<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone> MvccObject<V> {
    /// Creates an object with no versions.  It allocates nothing: the
    /// first two versions live inside it, and levels are linked on demand.
    pub fn new() -> Self {
        MvccObject {
            seq: AtomicU64::new(0),
            live: AtomicU32::new(0),
            writer: WriterLatch(AtomicBool::new(false)),
            used: AtomicU64::new(0),
            levels: AtomicPtr::new(std::ptr::null_mut()),
            inline: std::array::from_fn(|_| VersionSlot::empty()),
        }
    }

    /// The current number of version slots: the inline ones plus every
    /// level's.
    pub fn allocated_slots(&self) -> usize {
        self.runs().map(|r| r.slots.len()).sum()
    }

    /// The inline slots' occupancy bits (bit *i* set ⇔ slot *i* holds a
    /// version); levels keep their own words.
    pub fn used_slots(&self) -> u64 {
        self.used.load(Ordering::Acquire)
    }

    /// Number of stored versions.
    pub fn version_count(&self) -> usize {
        self.runs()
            .map(|r| r.used.load(Ordering::Acquire).count_ones() as usize)
            .sum()
    }

    /// True if no versions are stored.
    pub fn is_empty(&self) -> bool {
        self.runs().all(|r| r.used.load(Ordering::Acquire) == 0)
    }

    // ------------------------------------------------------------------
    // Storage layout
    // ------------------------------------------------------------------

    /// The levels, newest first, as runs.  Levels are published fully
    /// initialised with `Release` and never freed while `self` lives, so
    /// this is safe from both readers and the writer.
    fn levels(&self) -> impl Iterator<Item = Run<'_, V>> {
        let newest = NonNull::new(self.levels.load(Ordering::Acquire));
        std::iter::successors(newest, |l| {
            // SAFETY: as below; `next` was set before the level holding it
            // was published and never changes, and points to an older
            // level, kept like the newest one.
            NonNull::new(unsafe { l.as_ref() }.next)
        })
        .map(|l| {
            // SAFETY: a non-null head was stored by `grow_locked` from
            // `Level::alloc` (the `Acquire` load pairs with its `Release`
            // store), and levels are freed only in `drop`, which cannot run
            // while `&self` is borrowed.
            unsafe { Level::run(l.as_ptr()) }
        })
    }

    /// The inline slots, as a run.
    fn inline_run(&self) -> Run<'_, V> {
        Run {
            base: 0,
            used: &self.used,
            slots: &self.inline,
        }
    }

    /// The inline slots, then every level, newest first.
    fn runs(&self) -> impl Iterator<Item = Run<'_, V>> {
        std::iter::once(self.inline_run()).chain(self.levels())
    }

    /// The slot at global index `idx`, or `None` if the level holding it is
    /// not yet visible to this thread.
    ///
    /// `None` is only possible for latch-free readers: a `Relaxed` load of
    /// the live hint may observe an index set inside a concurrent install
    /// window without a happens-before edge to the new level's
    /// publication, so the `Acquire` head load here can still return an
    /// older head.  Such a reader finds no level covering `idx` (an older
    /// level's slots end below the newer one's `base`) and simply skips the
    /// slot — having observed an in-window store, its seqlock validation is
    /// guaranteed to fail (the writer's `Release` window fence pairs with
    /// the reader's `Acquire` fence) and the retry's fresh `seq` load
    /// brings the publication into view.  Writer-side callers hold the
    /// writer latch and always see their own levels.
    fn locate(&self, idx: usize) -> Option<Loc<'_, V>> {
        if idx < INLINE_SLOTS {
            return self.inline_run().loc(idx);
        }
        let level = self.levels().find(|l| l.base <= idx)?;
        level.loc(idx - level.base)
    }

    /// Calls `f` for every occupied slot — the inline ones first, then each
    /// level, newest first — until `f` returns `Some`.  For a latch-free
    /// reader the bits and headers are only a candidate state that seqlock
    /// validation must confirm.
    fn find_occupied<'a, R>(&'a self, mut f: impl FnMut(Loc<'a, V>) -> Option<R>) -> Option<R> {
        for run in self.runs() {
            let mut bits = run.used.load(Ordering::Relaxed);
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if let Some(r) = run.loc(i).and_then(&mut f) {
                    return Some(r);
                }
            }
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

    /// Runs `scan` until it completes over a seqlock-validated consistent
    /// state (`seq` even and unchanged across it) and returns its result.
    /// `scan` may load headers, occupancy words, the live hint and level
    /// links, but must not touch values.
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
            backoff(&mut spins);
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
                if let Some(loc) = self.locate(live as usize - 1) {
                    if loc.slot.visible_at(read_ts) {
                        return Some(loc.slot);
                    }
                }
            }
            // Otherwise visit the occupied slots (usually one or two).  At
            // most one version is visible at any timestamp in a consistent
            // state — and inconsistent scans are rejected anyway.
            self.find_occupied(|loc| loc.slot.visible_at(read_ts).then_some(loc.slot))
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
        self.find_occupied(|loc| {
            // SAFETY: the writer latch excludes every mutator.
            loc.slot
                .visible_at(read_ts)
                .then(|| unsafe { (*loc.slot.value.get()).clone() })
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
                // A not-yet-visible level fails validation and retries.
                return self
                    .locate(live as usize - 1)
                    .map_or(NO_TS, |loc| loc.slot.cts.load(Ordering::Relaxed));
            }
            let mut newest = NO_TS;
            self.find_occupied(|loc| {
                let (cts, dts) = loc.slot.header();
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
        self.find_occupied(|loc| {
            // SAFETY: the writer latch excludes every mutator.
            if let Some(value) = unsafe { (*loc.slot.value.get()).clone() } {
                let (cts, dts) = loc.slot.header();
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
    /// module docs); if nothing can be reclaimed a new level is linked.  A
    /// slow reader therefore costs memory, never an error.
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
                .locate(prev as usize - 1)
                .expect("writer sees its own levels")
                .slot;
            debug_assert_eq!(pslot.dts.load(Ordering::Relaxed), INFINITY_TS);
            debug_assert!(
                pslot.cts.load(Ordering::Relaxed) <= cts,
                "versions are installed in commit order"
            );
            pslot.dts.store(cts, Ordering::Relaxed);
        }
        let loc = self.locate(idx).expect("writer sees its own levels");
        // SAFETY: single writer (latch held), slot is free, and no reader
        // clones a free slot's value (validated scans skip clear `used`
        // bits; a reclaimed slot was dropped under the floor protocol).
        unsafe {
            *loc.slot.value.get() = Some(value);
        }
        loc.slot.cts.store(cts, Ordering::Relaxed);
        loc.slot.dts.store(INFINITY_TS, Ordering::Relaxed);
        loc.used.store(
            loc.used.load(Ordering::Relaxed) | loc.bit,
            Ordering::Relaxed,
        );
        self.live.store(live_hint(idx), Ordering::Relaxed);
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
        let s = self.enter_window();
        let slot = self
            .locate(live as usize - 1)
            .expect("writer sees its own levels")
            .slot;
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
        self.find_occupied(|loc| {
            let (c, d) = loc.slot.header();
            if c == cts {
                installed = Some(loc.idx);
            }
            if d == cts {
                superseded = Some(loc.idx);
            }
            None::<()>
        });
        if installed.is_none() && superseded.is_none() {
            return false;
        }
        let s = self.enter_window();
        if let Some(idx) = installed {
            // SAFETY: single writer; no reader clones a version whose cts
            // was never covered by a published snapshot (see doc comment).
            unsafe { self.vacate(self.locate(idx).expect("writer sees its own levels")) };
        }
        if let Some(idx) = superseded {
            // Header-only: the previously live version becomes live again.
            self.locate(idx)
                .expect("writer sees its own levels")
                .slot
                .dts
                .store(INFINITY_TS, Ordering::Relaxed);
        }
        // The undone commit either installed the live version (put) or
        // terminated it (delete); in both cases the restored predecessor —
        // if any — is now the one live version.
        self.live
            .store(superseded.map_or(0, live_hint), Ordering::Relaxed);
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

    /// Reclaim pass; caller holds the writer latch.
    fn gc_locked(&self, oldest_hint: Timestamp, mut refresh: impl FnMut() -> Timestamp) -> usize {
        // Candidate pre-scan outside the window (writer-exclusive reads).
        let dead = |slot: &VersionSlot<V>, bound: Timestamp| {
            let dts = slot.dts.load(Ordering::Relaxed);
            dts != INFINITY_TS && dts <= bound
        };
        if self
            .find_occupied(|loc| dead(loc.slot, oldest_hint).then_some(()))
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
        self.find_occupied(|loc| {
            // A version is dead once its lifetime ended at or before the
            // oldest snapshot any active or future transaction can hold.
            if dead(loc.slot, bound) {
                // SAFETY: single writer inside the window; no reader can be
                // cloning this value per the fence pairing above.
                unsafe { self.vacate(loc) };
                reclaimed += 1;
            }
            None::<()>
        });
        self.exit_window(s);
        reclaimed
    }

    /// Frees an occupied slot: clears its bit and headers and drops its
    /// value.
    ///
    /// # Safety
    ///
    /// The caller holds the writer latch inside an open write window, and
    /// no latch-free reader may be cloning the slot's value (the floor
    /// protocol, or a version no published snapshot covers).
    unsafe fn vacate(&self, loc: Loc<'_, V>) {
        loc.used.store(
            loc.used.load(Ordering::Relaxed) & !loc.bit,
            Ordering::Relaxed,
        );
        loc.slot.cts.store(NO_TS, Ordering::Relaxed);
        loc.slot.dts.store(NO_TS, Ordering::Relaxed);
        // SAFETY: the caller's contract excludes every other access.
        unsafe {
            *loc.slot.value.get() = None;
        }
    }

    /// First free slot, if any: the inline slots first, then the levels,
    /// newest first.  Caller holds the writer latch.
    fn find_free_locked(&self) -> Option<usize> {
        self.runs().find_map(|run| {
            let free = !run.used.load(Ordering::Relaxed) & (u64::MAX >> (64 - run.slots.len()));
            (free != 0).then(|| run.base + free.trailing_zeros() as usize)
        })
    }

    /// Links a new level as the head of the list and returns the global
    /// index of its first slot.  Its capacity equals the slots the object
    /// already has, up to [`LEVEL_SLOTS`].  Caller holds the writer latch.
    fn grow_locked(&self) -> usize {
        let base = self.allocated_slots();
        let level = Level::alloc(
            base,
            base.min(LEVEL_SLOTS),
            self.levels.load(Ordering::Relaxed),
        );
        // Publish the fully initialised level as the new head, so the
        // indices of existing slots never change and the newest versions
        // (the live one above all) are found first.
        self.levels.store(level, Ordering::Release);
        base
    }
}

impl<V> Drop for MvccObject<V> {
    fn drop(&mut self) {
        let mut level = *self.levels.get_mut();
        while !level.is_null() {
            // SAFETY: each level was allocated by `Level::alloc` in
            // `grow_locked`, linked once and never freed since, and
            // `&mut self` excludes every reader.
            level = unsafe { Level::free(level) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_object_has_no_visible_versions() {
        let obj: MvccObject<u64> = MvccObject::new();
        assert!(obj.is_empty());
        assert_eq!(obj.read_visible(100), None);
        assert_eq!(obj.newest_write_ts(), NO_TS);
        assert_eq!(obj.version_count(), 0);
    }

    #[test]
    fn install_and_read_visibility_windows() {
        let obj = MvccObject::new();
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
        let obj = MvccObject::new();
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
        let obj = MvccObject::new();
        obj.install(1u64, 2, NO_TS);
        obj.install(2u64, 6, NO_TS);
        for ts in [1, 2, 5, 6, 100] {
            assert_eq!(obj.read_visible(ts), obj.read_visible_latched(ts));
        }
    }

    #[test]
    fn bitmap_tracks_occupancy() {
        let obj = MvccObject::new();
        assert_eq!(obj.used_slots(), 0);
        obj.install(1u64, 2, NO_TS);
        assert_eq!(obj.used_slots(), 0b01);
        obj.install(2u64, 4, NO_TS);
        assert_eq!(obj.used_slots(), 0b11, "the inline slots are full");
        // Nothing is reclaimable: the third version goes to a level.
        obj.install(3u64, 6, NO_TS);
        assert_eq!(obj.used_slots(), 0b11);
        assert_eq!(obj.version_count(), 3);
        // GC with an oldest-active past all dts values reclaims superseded
        // ones, and leaves the inline slots free.
        let reclaimed = obj.gc(100);
        assert_eq!(reclaimed, 2);
        assert_eq!(obj.used_slots(), 0);
        assert_eq!(obj.version_count(), 1);
        assert_eq!(obj.read_visible(100), Some(3));
        // The next install fills an inline slot again: the live version
        // moves back inline.
        obj.install(4u64, 101, 100);
        assert_eq!(obj.used_slots(), 0b01);
        assert_eq!(obj.version_count(), 2);
        assert_eq!(obj.read_visible(101), Some(4));
        assert_eq!(obj.read_visible(100), Some(3));
    }

    #[test]
    fn gc_respects_oldest_active_snapshot() {
        let obj = MvccObject::new();
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
        let obj = MvccObject::new();
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
        let obj = MvccObject::new();
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
        let obj = MvccObject::new();
        obj.install(1u64, 2, NO_TS);
        obj.install(2u64, 4, NO_TS);
        assert_eq!(obj.allocated_slots(), 2);
        // Oldest active snapshot is 1: nothing can be reclaimed, so a level
        // of two more slots is linked instead of failing.
        obj.install(3u64, 6, 1);
        assert_eq!(obj.allocated_slots(), 4);
        assert_eq!(obj.version_count(), 3);
        // Every snapshot still sees its version.
        assert_eq!(obj.read_visible(3), Some(1));
        assert_eq!(obj.read_visible(5), Some(2));
        assert_eq!(obj.read_visible(10), Some(3));
    }

    #[test]
    fn versions_past_the_level_width_go_to_more_levels() {
        let obj = MvccObject::new();
        // An ancient snapshot (ts=1) pins every version: 200 installs fill
        // the inline slots and then levels of 2, 4, .., 64, 64, 64 slots,
        // with no error.
        for i in 0..200u64 {
            obj.install(i, 2 + i, 1);
        }
        assert_eq!(obj.version_count(), 200);
        assert_eq!(obj.used_slots(), 0b11, "the inline slots are full");
        assert_eq!(obj.allocated_slots(), 4 * LEVEL_SLOTS);
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
        // before any new storage is added, the inline ones first.
        assert_eq!(obj.gc(1000), 199);
        assert_eq!(obj.version_count(), 1);
        assert_eq!(obj.read_visible(u64::MAX - 1), Some(199));
        for i in 0..100u64 {
            obj.install(1000 + i, 1000 + i, 1000);
        }
        assert_eq!(obj.allocated_slots(), 4 * LEVEL_SLOTS);
        assert_eq!(obj.read_visible(u64::MAX - 1), Some(1099));
        assert_ne!(obj.used_slots(), 0, "the live version is back inline");
    }

    /// A live version in a level with empty inline slots is still found by
    /// the live hint, the scans and `is_empty`.
    #[test]
    fn a_live_version_in_a_level_is_found() {
        let obj = MvccObject::new();
        for i in 0..=LEVEL_SLOTS as u64 {
            obj.install(i, 2 + i, 1);
        }
        // Reclaim the first 64 versions; the live one sits alone in the
        // first 64-slot level.
        assert_eq!(obj.gc(2 + LEVEL_SLOTS as u64), LEVEL_SLOTS);
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
        let obj = MvccObject::new();
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
        let obj = MvccObject::new();
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

    /// A key holding at most two versions is its object alone: no
    /// allocation beyond the index node the object sits in.
    #[test]
    fn the_first_two_versions_live_inside_the_object() {
        assert_eq!(std::mem::size_of::<MvccObject<(u64, u64)>>(), 112);
        let obj: MvccObject<u8> = MvccObject::default();
        assert_eq!(obj.allocated_slots(), 2);
        assert!(obj.levels().next().is_none());
        obj.install(1, 2, NO_TS);
        obj.install(2, 4, NO_TS);
        // Every later install reclaims the superseded version in place.
        for i in 3..100u8 {
            assert_eq!(obj.install(i, 2 * u64::from(i), 2 * u64::from(i) - 1), 1);
        }
        assert_eq!(obj.allocated_slots(), 2);
        assert!(obj.levels().next().is_none());
        assert_eq!(obj.read_visible(u64::MAX - 1), Some(99));
        assert_eq!(obj.read_visible(197), Some(98));
    }

    /// A reclaim drops the values it frees, and dropping the object drops
    /// every value it still holds, inline and in levels, exactly once.
    #[test]
    fn dropping_an_object_drops_each_held_value_once() {
        use std::sync::Arc;
        let token = Arc::new(());
        let obj = MvccObject::new();
        for i in 0..100u64 {
            obj.install(Arc::clone(&token), 2 + i, 1);
        }
        assert_eq!(obj.allocated_slots(), 2 * LEVEL_SLOTS);
        assert_eq!(Arc::strong_count(&token), 101);
        // Versions 0..=47 ended at or before 50.
        assert_eq!(obj.gc(50), 48);
        assert_eq!(Arc::strong_count(&token), 53);
        drop(obj);
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    fn levels_double_up_to_the_level_width_then_stay_there() {
        let obj = MvccObject::new();
        let mut sizes = vec![obj.allocated_slots()];
        for i in 0..4 * LEVEL_SLOTS as u64 {
            obj.install(i, 2 + i, 1);
            if obj.allocated_slots() != *sizes.last().unwrap() {
                sizes.push(obj.allocated_slots());
            }
        }
        assert_eq!(sizes, [2, 4, 8, 16, 32, 64, 128, 192, 256]);
        let level_sizes: Vec<usize> = obj.levels().map(|l| l.slots.len()).collect();
        assert_eq!(level_sizes, [64, 64, 64, 32, 16, 8, 4, 2], "newest first");
        // Every version remains readable at its own snapshot.
        for i in 0..4 * LEVEL_SLOTS as u64 {
            assert_eq!(obj.read_visible(2 + i), Some(i));
        }
    }

    /// Readers racing an installer that links levels (every
    /// version stays pinned) see the newest version only move forward and
    /// the pinned one never change.
    #[test]
    fn concurrent_readers_across_levels() {
        let obj = MvccObject::new();
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

    /// Threads that bump a plain counter under the writer latch lose no
    /// update.
    #[test]
    fn the_writer_latch_excludes_other_writers() {
        struct Shared {
            latch: WriterLatch,
            count: UnsafeCell<u64>,
        }
        // SAFETY: `count` is touched only while `latch` is held.
        unsafe impl Sync for Shared {}
        impl Shared {
            fn bump(&self) {
                let _g = self.latch.lock();
                // SAFETY: the latch is held.
                unsafe { *self.count.get() += 1 };
            }
        }
        let shared = Shared {
            latch: WriterLatch(AtomicBool::new(false)),
            count: UnsafeCell::new(0),
        };
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..20_000 {
                        shared.bump();
                    }
                });
            }
        });
        assert_eq!(shared.count.into_inner(), 80_000);
    }

    /// Readers validate while an installer and a collector take turns on
    /// the writer latch: every read finds a live version, and each version
    /// is reclaimed at most once.
    #[test]
    fn concurrent_readers_and_installer() {
        let obj = MvccObject::new();
        obj.install(0u64, 2, NO_TS);
        let done = AtomicBool::new(false);
        let reclaimed = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let mut reclaimed = 0;
                for i in 1..500u64 {
                    // Monotonically increasing cts; the oldest active
                    // snapshot trails just behind the previous commit, so
                    // on-demand GC always finds reclaimable versions.
                    let cts = 2 + i * 2;
                    reclaimed += obj.install(i, cts, cts - 1);
                }
                done.store(true, Ordering::Release);
                reclaimed
            });
            let collector = s.spawn(|| {
                let mut reclaimed = 0;
                while !done.load(Ordering::Acquire) {
                    // The installer's bound: just behind the newest commit.
                    let bound = obj.newest_write_ts() - 1;
                    reclaimed += obj.gc_with(bound, || bound);
                }
                reclaimed
            });
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..2000 {
                        // A very fresh snapshot must always see *some*
                        // version.
                        assert!(obj.read_visible(u64::MAX - 1).is_some());
                    }
                });
            }
            writer.join().unwrap() + collector.join().unwrap()
        });
        assert_eq!(obj.read_visible(u64::MAX - 1), Some(499));
        assert_eq!(reclaimed + obj.version_count(), 500);
    }
}
