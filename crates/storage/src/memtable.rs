//! Sharded, ordered in-memory backend.
//!
//! [`BTreeBackend`] keeps entries in `SHARDS` independent `BTreeMap`s, each
//! behind its own `parking_lot::RwLock`, so readers of different shards never
//! contend.  The shard of a key is derived from a stable hash of its bytes;
//! ordered scans merge the shards on demand.
//!
//! This backend is the default choice for volatile operator states (windows,
//! aggregates) where persistence is not required.

use crate::backend::{BatchOp, StorageBackend, WriteBatch};
use parking_lot::RwLock;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use tsp_common::Result;

/// Number of independent shards.  A power of two so the shard index is a
/// cheap mask.
const SHARDS: usize = 16;

fn shard_of(key: &[u8]) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) & (SHARDS - 1)
}

/// Sharded ordered in-memory key-value backend.
pub struct BTreeBackend {
    shards: Vec<RwLock<BTreeMap<Vec<u8>, Vec<u8>>>>,
    entries: AtomicUsize,
}

impl Default for BTreeBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl BTreeBackend {
    /// Creates an empty backend.
    pub fn new() -> Self {
        BTreeBackend {
            shards: (0..SHARDS).map(|_| RwLock::new(BTreeMap::new())).collect(),
            entries: AtomicUsize::new(0),
        }
    }

    /// Removes every entry.
    pub fn clear(&self) {
        for s in &self.shards {
            let mut g = s.write();
            self.entries.fetch_sub(g.len(), Ordering::Relaxed);
            g.clear();
        }
    }

    fn apply_op(&self, op: BatchOp<'_>) {
        match op {
            BatchOp::Put { key, value } => {
                let mut g = self.shards[shard_of(key)].write();
                if g.insert(key.to_vec(), value.to_vec()).is_none() {
                    self.entries.fetch_add(1, Ordering::Relaxed);
                }
            }
            BatchOp::Delete { key } => {
                let mut g = self.shards[shard_of(key)].write();
                if g.remove(key).is_some() {
                    self.entries.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }
}

impl StorageBackend for BTreeBackend {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.shards[shard_of(key)].read().get(key).cloned())
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let mut g = self.shards[shard_of(key)].write();
        if g.insert(key.to_vec(), value.to_vec()).is_none() {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        let mut g = self.shards[shard_of(key)].write();
        if g.remove(key).is_some() {
            self.entries.fetch_sub(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn write_batch(&self, batch: &WriteBatch) -> Result<()> {
        for op in batch.iter() {
            self.apply_op(op);
        }
        Ok(())
    }

    fn scan(&self, visit: &mut dyn FnMut(&[u8], &[u8]) -> bool) -> Result<()> {
        // Snapshot each shard (cheap for test/report sizes), then merge so the
        // visitor observes globally ascending key order.
        let mut snapshots: Vec<Vec<(Vec<u8>, Vec<u8>)>> = Vec::with_capacity(SHARDS);
        for s in &self.shards {
            snapshots.push(
                s.read()
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            );
        }
        let mut merged: Vec<(Vec<u8>, Vec<u8>)> = snapshots.into_iter().flatten().collect();
        merged.sort_by(|a, b| a.0.cmp(&b.0));
        for (k, v) in merged {
            if !visit(&k, &v) {
                break;
            }
        }
        Ok(())
    }

    fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }

    fn name(&self) -> &'static str {
        "btree-mem"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete_round_trip() {
        let b = BTreeBackend::new();
        assert!(b.is_empty());
        b.put(b"k1", b"v1").unwrap();
        b.put(b"k2", b"v2").unwrap();
        assert_eq!(b.get(b"k1").unwrap().as_deref(), Some(&b"v1"[..]));
        assert_eq!(b.get(b"missing").unwrap(), None);
        assert_eq!(b.len(), 2);
        b.delete(b"k1").unwrap();
        assert_eq!(b.get(b"k1").unwrap(), None);
        assert_eq!(b.len(), 1);
        // deleting again is a no-op
        b.delete(b"k1").unwrap();
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn overwrite_does_not_grow_len() {
        let b = BTreeBackend::new();
        b.put(b"k", b"v1").unwrap();
        b.put(b"k", b"v2").unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.get(b"k").unwrap().as_deref(), Some(&b"v2"[..]));
    }

    #[test]
    fn batch_is_applied_in_order() {
        let b = BTreeBackend::new();
        let mut batch = WriteBatch::new();
        batch.put(b"a", b"1");
        batch.put(b"a", b"2");
        batch.delete(b"zzz");
        b.write_batch(&batch).unwrap();
        assert_eq!(b.get(b"a").unwrap().as_deref(), Some(&b"2"[..]));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn scan_visits_in_ascending_key_order() {
        let b = BTreeBackend::new();
        for i in (0u32..100).rev() {
            b.put(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
        }
        let mut keys = Vec::new();
        b.scan(&mut |k, _| {
            keys.push(k.to_vec());
            true
        })
        .unwrap();
        assert_eq!(keys.len(), 100);
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn scan_early_stop() {
        let b = BTreeBackend::new();
        for i in 0u32..50 {
            b.put(&i.to_be_bytes(), b"x").unwrap();
        }
        let mut seen = 0;
        b.scan(&mut |_, _| {
            seen += 1;
            seen < 10
        })
        .unwrap();
        assert_eq!(seen, 10);
    }

    #[test]
    fn clear_resets() {
        let b = BTreeBackend::new();
        for i in 0u32..20 {
            b.put(&i.to_be_bytes(), b"x").unwrap();
        }
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.get(&3u32.to_be_bytes()).unwrap(), None);
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let b = Arc::new(BTreeBackend::new());
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    let key = (t * 1000 + i).to_be_bytes();
                    b.put(&key, &i.to_be_bytes()).unwrap();
                    assert!(b.get(&key).unwrap().is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.len(), 2000);
    }
}
