//! Sharded hash-map backend.
//!
//! [`HashBackend`] is the fastest point-access backend (no ordering
//! maintained), suitable for keyed operator states that never need range
//! scans.  Scans are still supported but visit keys in arbitrary order.

use crate::backend::{BatchOp, StorageBackend, WriteBatch};
use parking_lot::RwLock;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use tsp_common::Result;

/// Number of independent shards (power of two).
const SHARDS: usize = 32;

fn shard_of(key: &[u8]) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) & (SHARDS - 1)
}

/// Sharded unordered in-memory key-value backend.
pub struct HashBackend {
    shards: Vec<RwLock<HashMap<Vec<u8>, Vec<u8>>>>,
    entries: AtomicUsize,
}

impl Default for HashBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl HashBackend {
    /// Creates an empty backend.
    pub fn new() -> Self {
        HashBackend {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            entries: AtomicUsize::new(0),
        }
    }

    /// Creates a backend pre-sized for roughly `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        let per_shard = capacity / SHARDS + 1;
        HashBackend {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(HashMap::with_capacity(per_shard)))
                .collect(),
            entries: AtomicUsize::new(0),
        }
    }
}

impl StorageBackend for HashBackend {
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
            match op {
                BatchOp::Put { key, value } => self.put(key, value)?,
                BatchOp::Delete { key } => self.delete(key)?,
            }
        }
        Ok(())
    }

    fn scan(&self, visit: &mut dyn FnMut(&[u8], &[u8]) -> bool) -> Result<()> {
        'outer: for s in &self.shards {
            let snapshot: Vec<(Vec<u8>, Vec<u8>)> = s
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            for (k, v) in snapshot {
                if !visit(&k, &v) {
                    break 'outer;
                }
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
        "hash-mem"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_round_trip() {
        let b = HashBackend::new();
        b.put(b"alpha", b"1").unwrap();
        b.put(b"beta", b"2").unwrap();
        assert_eq!(b.get(b"alpha").unwrap().as_deref(), Some(&b"1"[..]));
        assert_eq!(b.len(), 2);
        b.delete(b"alpha").unwrap();
        assert_eq!(b.get(b"alpha").unwrap(), None);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn with_capacity_behaves_identically() {
        let b = HashBackend::with_capacity(1_000);
        for i in 0u32..100 {
            b.put(&i.to_be_bytes(), &i.to_be_bytes()).unwrap();
        }
        assert_eq!(b.len(), 100);
        assert_eq!(
            b.get(&42u32.to_be_bytes()).unwrap().unwrap(),
            42u32.to_be_bytes()
        );
    }

    #[test]
    fn batch_and_scan_cover_all_entries() {
        let b = HashBackend::new();
        let mut batch = WriteBatch::new();
        for i in 0u32..64 {
            batch.put(i.to_be_bytes(), b"v");
        }
        b.write_batch(&batch).unwrap();
        let mut count = 0;
        b.scan(&mut |_, _| {
            count += 1;
            true
        })
        .unwrap();
        assert_eq!(count, 64);
    }

    #[test]
    fn scan_early_stop() {
        let b = HashBackend::new();
        for i in 0u32..64 {
            b.put(&i.to_be_bytes(), b"v").unwrap();
        }
        let mut count = 0;
        b.scan(&mut |_, _| {
            count += 1;
            false
        })
        .unwrap();
        assert_eq!(count, 1);
    }

    #[test]
    fn concurrent_writers_distinct_keys() {
        use std::sync::Arc;
        let b = Arc::new(HashBackend::new());
        let handles: Vec<_> = (0..8u32)
            .map(|t| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for i in 0..250u32 {
                        b.put(&(t * 10_000 + i).to_be_bytes(), &t.to_be_bytes())
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.len(), 2000);
    }
}
