//! Lock-free, insert-only object index: `K → MvccObject<V>`, with each
//! object stored inline in its chain node.
//!
//! The MVCC table historically resolved keys through 64 `RwLock<HashMap>`
//! shards — a shared read-latch acquisition on *every* committed read.  This
//! index removes it: version objects are **never removed** once created
//! (exactly the property the sharded map already relied on), so the index
//! can be a fixed-size bucket array of lock-free prepend-only chains:
//!
//! * **get** — one `Acquire` load of the bucket head plus a short chain
//!   walk; no latch, no CAS.  It returns `&T` borrowed from the map.
//! * **insert** — take a node slot from the map's arena and CAS the node
//!   in as the new head; on a race, re-walk (dropping the loser's
//!   unpublished node in place if the key appeared).
//! * A node's key and link are immutable after publication, and nodes are
//!   dropped only when the map drops, so a `&T` stays valid for as long as
//!   the map is borrowed, across any number of concurrent inserts.  Values
//!   are only ever shared (`&T`); `T` synchronises its own interior
//!   mutability.
//!
//! Storing the object in the node (rather than an `Arc` to it) saves a
//! dependent cache miss on every read and keeps refcount read-modify-writes
//! off validation, apply and garbage collection.  An `MvccObject` keeps its
//! first two versions inline, so the node is all a key needs until a slow
//! reader makes the object link a level (`mvcc.rs`).
//!
//! # One line pair per key
//!
//! A node is `#[repr(C)] { key, next, value }`, and an `MvccObject` puts
//! its seqlock header first, so the chain walk's key compare and link, and
//! everything a read checks before it clones a value, share the node's
//! first 48 bytes.  For a `u32` key and a `(u64, u64)` value the node is
//! exactly 128 bytes.
//!
//! Nodes come from an arena the map owns: chunks aligned to 128 bytes, with
//! nodes packed at `size_of::<Node>()`, so a 128-byte node fills one
//! aligned pair of cache lines, and a committed read, a First-Committer-Wins
//! check or an install touches the bucket word and that line pair.  The
//! first chunk holds 16 nodes and each later one twice as many as the
//! last, up to 4,096 (512 KiB of 128-byte nodes), so a fresh key costs an
//! arena slot, not an allocation, and the allocator's own per-block header
//! and rounding are paid once per chunk.  A short mutex guards the bump
//! pointer; lookups never take it.  Nodes never move and are dropped only
//! when the map drops; a node that loses the insert CAS is dropped in place
//! and its slot stays unused.
//!
//! The bucket count is fixed at construction (no resizing — resizing is
//! what forces latches back in).  Chains degrade gracefully: with the
//! default 2¹⁶ buckets chains stay ~1 deep up to ~64 Ki keys and a
//! million-key table averages ~15; size it via
//! [`MvccTableOptions::index_buckets`](crate::table::MvccTableOptions) for
//! larger (or many-small-table) deployments — chain hops are dependent
//! cache misses, the most expensive step of the whole read path.

use parking_lot::Mutex;
use std::alloc::Layout;
use std::hash::Hash;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use tsp_common::fx_hash;

/// Default number of buckets (a power of two).
///
/// 2¹⁶ buckets cost ~512 KiB of (lazily paged) bucket array per table, in
/// exchange for ~1-entry chains up to ~64 Ki keys: chain hops are dependent
/// cache misses, and a single extra hop costs the read path more than the
/// whole seqlock scan.  Deployments with many tiny tables can shrink this
/// via `MvccTableOptions::index_buckets`; key counts far beyond 64 Ki
/// should raise it (the index never resizes).
pub(crate) const DEFAULT_INDEX_BUCKETS: usize = 1 << 16;

/// Nodes in the arena's first chunk.
const FIRST_CHUNK_NODES: usize = 16;

/// Nodes in the arena's largest chunk.
const MAX_CHUNK_NODES: usize = 4096;

/// Alignment of every arena chunk: one pair of cache lines.
const CHUNK_ALIGN: usize = 128;

/// A chain node, key and link first (see the module docs).
#[repr(C)]
struct Node<K, T> {
    key: K,
    next: *mut Node<K, T>,
    value: T,
}

/// The chunks nodes are carved from (see the module docs).
struct Arena<N> {
    /// Every chunk with its capacity in nodes, oldest first.
    chunks: Vec<(NonNull<N>, usize)>,
    /// Nodes handed out from the last chunk.
    used: usize,
}

impl<N> Arena<N> {
    fn layout(nodes: usize) -> Layout {
        Layout::array::<N>(nodes)
            .and_then(|l| l.align_to(CHUNK_ALIGN))
            .expect("a chunk of at most 4,096 nodes fits in memory")
    }

    /// An uninitialised node slot, which stays allocated until the arena
    /// drops.
    fn alloc(&mut self) -> NonNull<N> {
        let cap = self.chunks.last().map_or(0, |&(_, nodes)| nodes);
        if self.used == cap {
            let nodes = (2 * cap).clamp(FIRST_CHUNK_NODES, MAX_CHUNK_NODES);
            let layout = Self::layout(nodes);
            // SAFETY: a node holds a link, so the layout is not zero-sized.
            let chunk = NonNull::new(unsafe { std::alloc::alloc(layout) })
                .unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
            self.chunks.push((chunk.cast(), nodes));
            self.used = 0;
        }
        let (chunk, _) = *self.chunks.last().expect("a chunk has room");
        // SAFETY: `used` is below the last chunk's capacity, so the slot
        // lies inside that chunk.
        let node = unsafe { chunk.add(self.used) };
        self.used += 1;
        node
    }
}

impl<N> Drop for Arena<N> {
    fn drop(&mut self) {
        for &(chunk, nodes) in &self.chunks {
            // SAFETY: allocated in `alloc` with this layout and freed only
            // here; the map dropped every node in it first.
            unsafe { std::alloc::dealloc(chunk.as_ptr().cast(), Self::layout(nodes)) };
        }
    }
}

/// Insert-only concurrent hash index with latch-free lookups.
pub(crate) struct ObjMap<K, T> {
    buckets: Box<[AtomicPtr<Node<K, T>>]>,
    mask: usize,
    len: AtomicUsize,
    arena: Mutex<Arena<Node<K, T>>>,
}

// SAFETY: nodes live in arena chunks the map owns, are published via
// Release CAS and dropped only in `drop(&mut self)`; a published node's
// `key` and `next` are never written again.  Other threads share `&K` and
// `&T` through `&self` (`Sync` bounds) and the map drops both wherever it
// is dropped (`Send` bounds).  The bucket array and `len` are atomics, and
// the arena's chunk list is behind its mutex.
unsafe impl<K: Send + Sync, T: Send + Sync> Send for ObjMap<K, T> {}
unsafe impl<K: Send + Sync, T: Send + Sync> Sync for ObjMap<K, T> {}

impl<K: Eq + Hash + Clone, T> ObjMap<K, T> {
    /// Creates an index with `buckets` rounded up to a power of two.
    pub fn new(buckets: usize) -> Self {
        let n = buckets.max(16).next_power_of_two();
        ObjMap {
            buckets: (0..n)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            mask: n - 1,
            len: AtomicUsize::new(0),
            arena: Mutex::new(Arena {
                chunks: Vec::new(),
                used: 0,
            }),
        }
    }

    fn bucket(&self, key: &K) -> &AtomicPtr<Node<K, T>> {
        // FxHash: the index hashes a small fixed-size key on *every*
        // committed read, where SipHash's DoS resistance buys nothing.  Its
        // `finish` already folds the top bits down, so masking is enough.
        &self.buckets[(fx_hash(key) as usize) & self.mask]
    }

    /// Walks the chain from `head` up to (excluding) `stop`, looking for
    /// `key`.  `head` must come from an `Acquire` load of one of this map's
    /// buckets.
    fn find_in(&self, head: *mut Node<K, T>, stop: *mut Node<K, T>, key: &K) -> Option<&T> {
        let mut cur = head;
        while cur != stop && !cur.is_null() {
            // SAFETY: nodes are published fully initialised (Release CAS /
            // Acquire load) and dropped only when the map drops, which
            // cannot happen while `&self` is borrowed.
            let node = unsafe { &*cur };
            if node.key == *key {
                return Some(&node.value);
            }
            cur = node.next;
        }
        None
    }

    /// Latch-free lookup.
    pub fn get(&self, key: &K) -> Option<&T> {
        let head = self.bucket(key).load(Ordering::Acquire);
        self.find_in(head, std::ptr::null_mut(), key)
    }

    /// Returns the value for `key`, inserting `make()` if absent.  Callers
    /// racing on the same key converge on the first published value.
    pub fn get_or_insert_with(&self, key: &K, make: impl FnOnce() -> T) -> &T {
        let bucket = self.bucket(key);
        let mut head = bucket.load(Ordering::Acquire);
        if let Some(found) = self.find_in(head, std::ptr::null_mut(), key) {
            return found;
        }
        let new = Node {
            key: key.clone(),
            next: head,
            value: make(),
        };
        let node = self.arena.lock().alloc().as_ptr();
        // SAFETY: a fresh arena slot, sized and aligned for a node.
        unsafe { node.write(new) };
        loop {
            match bucket.compare_exchange(head, node, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    self.len.fetch_add(1, Ordering::Relaxed);
                    // SAFETY: the node is now published and lives until the
                    // map drops.
                    return unsafe { &(*node).value };
                }
                Err(new_head) => {
                    // Someone prepended concurrently: if it was our key,
                    // discard our node and use theirs; otherwise re-link and
                    // retry.  Only the new prefix can contain the key.
                    if let Some(found) = self.find_in(new_head, head, key) {
                        // SAFETY: our node was never published; its slot
                        // stays unused.
                        unsafe { std::ptr::drop_in_place(node) };
                        return found;
                    }
                    head = new_head;
                    // SAFETY: unpublished — we still own it exclusively.
                    unsafe { (*node).next = head };
                }
            }
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Visits every `(key, value)` pair.  Concurrent inserts may or may not
    /// be observed (a chain prefix published after the bucket load is
    /// skipped) — the same guarantee the sharded map gave scans.
    pub fn for_each(&self, mut f: impl FnMut(&K, &T)) {
        if self.len.load(Ordering::Acquire) == 0 {
            return;
        }
        for bucket in self.buckets.iter() {
            let mut cur = bucket.load(Ordering::Acquire);
            while !cur.is_null() {
                // SAFETY: published nodes, as in `find_in`.
                let node = unsafe { &*cur };
                f(&node.key, &node.value);
                cur = node.next;
            }
        }
    }
}

impl<K, T> Drop for ObjMap<K, T> {
    /// Drops every published node in place; the arena then frees the
    /// chunks.
    fn drop(&mut self) {
        for bucket in self.buckets.iter_mut() {
            let mut cur = *bucket.get_mut();
            while !cur.is_null() {
                // SAFETY: exclusive access in drop; each published node was
                // written once into its slot and is dropped only here.
                unsafe {
                    let next = (*cur).next;
                    std::ptr::drop_in_place(cur);
                    cur = next;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvcc::MvccObject;
    use std::mem::{offset_of, size_of};

    /// A value that counts its drops in a shared table, by its `id`.
    struct Counted<'a> {
        id: usize,
        drops: &'a [AtomicUsize],
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.drops[self.id].fetch_add(1, Ordering::Relaxed);
        }
    }

    fn drop_counters(n: usize) -> Vec<AtomicUsize> {
        (0..n).map(|_| AtomicUsize::new(0)).collect()
    }

    #[test]
    fn insert_get_and_iterate() {
        let map: ObjMap<u32, String> = ObjMap::new(16);
        assert_eq!(map.get(&1), None);
        let a = map.get_or_insert_with(&1, || "a".into());
        let b = map.get_or_insert_with(&2, || "b".into());
        assert_eq!(a, "a");
        assert_eq!(b, "b");
        // Second insert of the same key returns the first value, in place.
        let a2 = map.get_or_insert_with(&1, || "other".into());
        assert!(std::ptr::eq(a, a2));
        assert!(std::ptr::eq(a, map.get(&1).unwrap()));
        assert_eq!(map.len(), 2);
        let mut seen: Vec<u32> = Vec::new();
        map.for_each(|k, _| seen.push(*k));
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn chains_handle_many_keys_per_bucket() {
        // Tiny bucket count forces long chains.
        let map: ObjMap<u64, u64> = ObjMap::new(1);
        for i in 0..500u64 {
            map.get_or_insert_with(&i, || i);
        }
        assert_eq!(map.len(), 500);
        for i in 0..500u64 {
            assert_eq!(*map.get(&i).unwrap(), i);
        }
        assert_eq!(map.get(&1000), None);
    }

    /// A meter's node — `u32` key, `MvccObject<(u64, u64)>` — is one
    /// 128-byte line pair, its header in the first 48 bytes, and every node
    /// of a map starts on a 128-byte boundary.
    #[test]
    fn every_node_is_one_aligned_line_pair() {
        type MeterNode = Node<u32, MvccObject<(u64, u64)>>;
        assert_eq!(size_of::<MeterNode>(), 128);
        assert_eq!(offset_of!(MeterNode, value), 16);
        let map: ObjMap<u32, MvccObject<(u64, u64)>> = ObjMap::new(1 << 10);
        for k in 0..10_000u32 {
            let obj: *const MvccObject<(u64, u64)> = map.get_or_insert_with(&k, MvccObject::new);
            let node = obj as usize - offset_of!(MeterNode, value);
            assert_eq!(node % 128, 0, "key {k}");
        }
    }

    #[test]
    fn a_dropped_map_drops_each_value_once() {
        const N: usize = 10_000;
        let drops = drop_counters(N);
        let map = ObjMap::new(64);
        for id in 0..N {
            map.get_or_insert_with(&id, || Counted { id, drops: &drops });
        }
        assert!(drops.iter().all(|d| d.load(Ordering::Relaxed) == 0));
        drop(map);
        assert!(drops.iter().all(|d| d.load(Ordering::Relaxed) == 1));
    }

    /// Racing inserts of the same keys converge on one value per key; each
    /// losing value is dropped at once and each winner when the map drops.
    #[test]
    fn concurrent_inserts_converge() {
        const THREADS: usize = 8;
        const ROUNDS: u64 = 2000;
        let drops = drop_counters(THREADS * ROUNDS as usize);
        let made = AtomicUsize::new(0);
        let map = ObjMap::new(64);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for i in 0..ROUNDS {
                        let key = i % 97; // heavy same-key racing
                        let v = map.get_or_insert_with(&key, || Counted {
                            id: made.fetch_add(1, Ordering::Relaxed),
                            drops: &drops,
                        });
                        // Whatever value won, every thread sees the same one.
                        assert!(std::ptr::eq(map.get(&key).unwrap(), v));
                    }
                });
            }
        });
        assert_eq!(map.len(), 97);
        let made = made.into_inner();
        let mut winners = vec![false; made];
        map.for_each(|_, v| winners[v.id] = true);
        for (id, won) in winners.iter().enumerate() {
            let expected = usize::from(!won);
            assert_eq!(drops[id].load(Ordering::Relaxed), expected, "value {id}");
        }
        drop(map);
        assert!(drops[..made].iter().all(|d| d.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn reference_survives_concurrent_inserts_into_its_bucket() {
        let map: ObjMap<u64, Vec<u64>> = ObjMap::new(16);
        let held = map.get_or_insert_with(&0, || vec![7; 64]);
        // Keys that share key 0's bucket, so every insert below prepends to
        // the chain `held` lives in.
        let same_bucket: Vec<u64> = (1..100_000u64)
            .filter(|k| std::ptr::eq(map.bucket(k), map.bucket(&0)))
            .take(4_000)
            .collect();
        assert!(same_bucket.len() >= 1_000);
        std::thread::scope(|s| {
            for chunk in same_bucket.chunks(same_bucket.len() / 4) {
                let map = &map;
                s.spawn(move || {
                    for k in chunk {
                        map.get_or_insert_with(k, || vec![*k; 8]);
                    }
                });
            }
            // Read through the held reference while the chain grows.
            s.spawn(|| {
                for _ in 0..10_000 {
                    assert!(held.iter().all(|v| *v == 7));
                }
            });
        });
        assert_eq!(map.len(), same_bucket.len() + 1);
        assert_eq!(held, &vec![7; 64]);
        assert!(std::ptr::eq(held, map.get(&0).unwrap()));
        for k in &same_bucket {
            assert_eq!(map.get(k).unwrap(), &vec![*k; 8]);
        }
    }
}
