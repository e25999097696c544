//! Buffers that outlive one transaction.
//!
//! The commit path keeps its scratch buffers — write sets, read sets,
//! durable batches, redo sections, the persistence writer's queue — in the
//! transaction slot or the writer that owns the work, and clears them in
//! place between uses, so a warm engine reuses their capacity instead of
//! regrowing every buffer from empty in every transaction.
//!
//! One rule keeps a single large transaction from pinning memory: a buffer
//! keeps its allocation only while its capacity is at most twice what its
//! last use needed (the rule the LSM memtable applies to values it
//! overwrites in place), and is given up otherwise.  Below a small floor
//! the rule does not apply, so buffers of small transactions whose sizes
//! vary a little are never reallocated.

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;

/// Capacity, in entries, every recycled collection may keep whatever its
/// last use needed.
pub const KEEP_ENTRIES: usize = 64;

/// Capacity, in bytes, every recycled byte buffer may keep whatever its
/// last use needed.
pub const KEEP_BYTES: usize = 16 * 1024;

/// True if a buffer of `capacity` may be kept after a use that needed
/// `used`: at most twice the need, or within `floor`.
pub fn keeps(capacity: usize, used: usize, floor: usize) -> bool {
    capacity <= 2 * used.max(floor)
}

/// Clears `v` for its next use: in place while [`keeps`] allows, else by
/// giving the allocation up.  An empty `v` is left as is — it was judged
/// when its last use was cleared, and recycling it again must not read
/// "needed nothing" into that.
pub fn recycle_vec<T>(v: &mut Vec<T>, floor: usize) {
    if v.is_empty() {
        return;
    }
    if keeps(v.capacity(), v.len(), floor) {
        v.clear();
    } else {
        *v = Vec::new();
    }
}

/// [`recycle_vec`] for a hash map, with [`KEEP_ENTRIES`] as the floor.
pub fn recycle_map<K, V, S: BuildHasher + Default>(m: &mut HashMap<K, V, S>) {
    if m.is_empty() {
        return;
    }
    if keeps(m.capacity(), m.len(), KEEP_ENTRIES) {
        m.clear();
    } else {
        *m = HashMap::default();
    }
}

/// [`recycle_vec`] for a hash set, with [`KEEP_ENTRIES`] as the floor.
pub fn recycle_set<K, S: BuildHasher + Default>(s: &mut HashSet<K, S>) {
    if s.is_empty() {
        return;
    }
    if keeps(s.capacity(), s.len(), KEEP_ENTRIES) {
        s.clear();
    } else {
        *s = HashSet::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FxHashMap;

    #[test]
    fn a_buffer_is_kept_up_to_twice_its_need_or_the_floor() {
        assert!(keeps(128, 100, 64));
        assert!(keeps(128, 10, 64), "within the floor");
        assert!(!keeps(129, 10, 64));
        assert!(!keeps(4096, 100, 64));

        let mut v: Vec<u32> = (0..100).collect();
        let cap = v.capacity();
        recycle_vec(&mut v, KEEP_ENTRIES);
        assert!(v.is_empty());
        assert_eq!(v.capacity(), cap, "steady use keeps its buffer");
        v.extend(0..100_000);
        recycle_vec(&mut v, KEEP_ENTRIES);
        v.extend(0..10);
        recycle_vec(&mut v, KEEP_ENTRIES);
        assert_eq!(v.capacity(), 0, "a large buffer is given up");
        v.extend(0..1000);
        recycle_vec(&mut v, KEEP_ENTRIES);
        let cap = v.capacity();
        recycle_vec(&mut v, KEEP_ENTRIES);
        assert_eq!(v.capacity(), cap, "an emptied buffer is not judged again");

        let mut m: FxHashMap<u32, u32> = (0..100_000).map(|k| (k, k)).collect();
        recycle_map(&mut m);
        m.extend((0..10).map(|k| (k, k)));
        recycle_map(&mut m);
        assert!(m.is_empty() && m.capacity() < KEEP_ENTRIES);
    }
}
