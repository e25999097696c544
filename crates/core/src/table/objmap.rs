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
//! * **insert** — allocate a node and CAS it as the new head; on a race,
//!   re-walk (dropping the loser's unpublished node if the key appeared).
//! * A node's key and link are immutable after publication, and nodes are
//!   freed only when the map drops, so a `&T` stays valid for as long as
//!   the map is borrowed, across any number of concurrent inserts.  Values
//!   are only ever shared (`&T`); `T` synchronises its own interior
//!   mutability.
//!
//! Storing the object in the node (rather than an `Arc` to it) saves a
//! dependent cache miss on every read and keeps refcount read-modify-writes
//! off validation, apply and garbage collection.  An `MvccObject` keeps its
//! first two versions inline, so the node is a key's only allocation until
//! a slow reader makes the object link a level (`mvcc.rs`).
//!
//! The bucket count is fixed at construction (no resizing — resizing is
//! what forces latches back in).  Chains degrade gracefully: with the
//! default 2¹⁶ buckets chains stay ~1 deep up to ~64 Ki keys and a
//! million-key table averages ~15; size it via
//! [`MvccTableOptions::index_buckets`](crate::table::MvccTableOptions) for
//! larger (or many-small-table) deployments — chain hops are dependent
//! cache misses, the most expensive step of the whole read path.

use std::hash::Hash;
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

struct Node<K, T> {
    key: K,
    value: T,
    next: *mut Node<K, T>,
}

/// Insert-only concurrent hash index with latch-free lookups.
pub(crate) struct ObjMap<K, T> {
    buckets: Box<[AtomicPtr<Node<K, T>>]>,
    mask: usize,
    len: AtomicUsize,
}

// SAFETY: nodes are heap-allocated, published via Release CAS and freed
// only in `drop(&mut self)`; a published node's `key` and `next` are never
// written again.  Other threads share `&K` and `&T` through `&self`
// (`Sync` bounds) and the map drops both wherever it is dropped (`Send`
// bounds).  The bucket array and `len` are atomics.
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
            // Acquire load) and freed only when the map drops, which cannot
            // happen while `&self` is borrowed.
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
        let node = Box::into_raw(Box::new(Node {
            key: key.clone(),
            value: make(),
            next: head,
        }));
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
                        // SAFETY: our node was never published.
                        drop(unsafe { Box::from_raw(node) });
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
    fn drop(&mut self) {
        for bucket in self.buckets.iter_mut() {
            let mut cur = *bucket.get_mut();
            while !cur.is_null() {
                // SAFETY: exclusive access in drop; each node was allocated
                // with Box::new and never freed before.
                let node = unsafe { Box::from_raw(cur) };
                cur = node.next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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

    #[test]
    fn concurrent_inserts_converge() {
        let map: Arc<ObjMap<u64, u64>> = Arc::new(ObjMap::new(64));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    for i in 0..2000u64 {
                        let key = i % 97; // heavy same-key racing
                        let v = map.get_or_insert_with(&key, || key + t);
                        // Whatever value won, every thread sees the same one.
                        assert!(std::ptr::eq(map.get(&key).unwrap(), v));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(map.len(), 97);
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
