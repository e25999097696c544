//! Operation counters for storage backends.
//!
//! The evaluation's claims hinge on where time is spent at the storage layer
//! ("Due to the synchronous writing, the readers … contribute almost
//! exclusively to the total throughput", §5.2).  [`InstrumentedBackend`]
//! wraps any [`StorageBackend`] and counts every operation plus the bytes it
//! moved, so benches and EXPERIMENTS.md can report the read/write traffic
//! that reached the base table alongside throughput numbers.

use crate::backend::{BatchOp, StorageBackend, WriteBatch};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tsp_common::Result;

/// Monotonic operation counters shared by clones of a backend handle.
#[derive(Debug, Default)]
pub struct StorageStats {
    gets: AtomicU64,
    get_hits: AtomicU64,
    puts: AtomicU64,
    deletes: AtomicU64,
    batches: AtomicU64,
    batch_ops: AtomicU64,
    scans: AtomicU64,
    syncs: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl StorageStats {
    /// Point lookups issued.
    pub fn gets(&self) -> u64 {
        self.gets.load(Ordering::Relaxed)
    }
    /// Point lookups that found a value.
    pub fn get_hits(&self) -> u64 {
        self.get_hits.load(Ordering::Relaxed)
    }
    /// Single-key puts issued.
    pub fn puts(&self) -> u64 {
        self.puts.load(Ordering::Relaxed)
    }
    /// Single-key deletes issued.
    pub fn deletes(&self) -> u64 {
        self.deletes.load(Ordering::Relaxed)
    }
    /// Write batches issued.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }
    /// Operations contained in all write batches.
    pub fn batch_ops(&self) -> u64 {
        self.batch_ops.load(Ordering::Relaxed)
    }
    /// Full scans issued.
    pub fn scans(&self) -> u64 {
        self.scans.load(Ordering::Relaxed)
    }
    /// Explicit sync calls issued.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }
    /// Value bytes returned by point lookups.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }
    /// Key + value bytes submitted by puts and batches.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }
    /// Total write operations that reached the backend (puts + deletes +
    /// batch contents).
    pub fn total_writes(&self) -> u64 {
        self.puts() + self.deletes() + self.batch_ops()
    }
    /// Fraction of point lookups that found a value.
    pub fn hit_ratio(&self) -> f64 {
        let g = self.gets();
        if g == 0 {
            0.0
        } else {
            self.get_hits() as f64 / g as f64
        }
    }

    /// A point-in-time copy of every counter, for reports.
    pub fn snapshot(&self) -> StorageStatsSnapshot {
        StorageStatsSnapshot {
            gets: self.gets(),
            get_hits: self.get_hits(),
            puts: self.puts(),
            deletes: self.deletes(),
            batches: self.batches(),
            batch_ops: self.batch_ops(),
            scans: self.scans(),
            syncs: self.syncs(),
            bytes_read: self.bytes_read(),
            bytes_written: self.bytes_written(),
        }
    }
}

/// Plain-data copy of [`StorageStats`] counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageStatsSnapshot {
    /// Point lookups issued.
    pub gets: u64,
    /// Point lookups that found a value.
    pub get_hits: u64,
    /// Single-key puts issued.
    pub puts: u64,
    /// Single-key deletes issued.
    pub deletes: u64,
    /// Write batches issued.
    pub batches: u64,
    /// Operations contained in all write batches.
    pub batch_ops: u64,
    /// Full scans issued.
    pub scans: u64,
    /// Explicit sync calls issued.
    pub syncs: u64,
    /// Value bytes returned by point lookups.
    pub bytes_read: u64,
    /// Key + value bytes submitted by puts and batches.
    pub bytes_written: u64,
}

impl StorageStatsSnapshot {
    /// Difference between two snapshots (`self` taken after `earlier`).
    pub fn delta_since(&self, earlier: &StorageStatsSnapshot) -> StorageStatsSnapshot {
        StorageStatsSnapshot {
            gets: self.gets - earlier.gets,
            get_hits: self.get_hits - earlier.get_hits,
            puts: self.puts - earlier.puts,
            deletes: self.deletes - earlier.deletes,
            batches: self.batches - earlier.batches,
            batch_ops: self.batch_ops - earlier.batch_ops,
            scans: self.scans - earlier.scans,
            syncs: self.syncs - earlier.syncs,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
        }
    }
}

/// A [`StorageBackend`] decorator that counts every operation.
pub struct InstrumentedBackend<B: StorageBackend> {
    inner: B,
    stats: Arc<StorageStats>,
}

impl<B: StorageBackend> InstrumentedBackend<B> {
    /// Wraps `inner` with fresh counters.
    pub fn new(inner: B) -> Self {
        InstrumentedBackend {
            inner,
            stats: Arc::new(StorageStats::default()),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Shared statistics handle (remains valid after the backend is dropped).
    pub fn stats(&self) -> Arc<StorageStats> {
        Arc::clone(&self.stats)
    }
}

impl<B: StorageBackend> StorageBackend for InstrumentedBackend<B> {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        let found = self.inner.get(key)?;
        if let Some(v) = &found {
            self.stats.get_hits.fetch_add(1, Ordering::Relaxed);
            self.stats
                .bytes_read
                .fetch_add(v.len() as u64, Ordering::Relaxed);
        }
        Ok(found)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.stats.puts.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_written
            .fetch_add((key.len() + value.len()) as u64, Ordering::Relaxed);
        self.inner.put(key, value)
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        self.stats.deletes.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_written
            .fetch_add(key.len() as u64, Ordering::Relaxed);
        self.inner.delete(key)
    }

    fn write_batch(&self, batch: &WriteBatch) -> Result<()> {
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats
            .batch_ops
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let bytes: u64 = batch
            .iter()
            .map(|op| match op {
                BatchOp::Put { key, value } => (key.len() + value.len()) as u64,
                BatchOp::Delete { key } => key.len() as u64,
            })
            .sum();
        self.stats.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        self.inner.write_batch(batch)
    }

    fn scan(&self, visit: &mut dyn FnMut(&[u8], &[u8]) -> bool) -> Result<()> {
        self.stats.scans.fetch_add(1, Ordering::Relaxed);
        self.inner.scan(visit)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn sync(&self) -> Result<()> {
        self.stats.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }

    fn name(&self) -> &'static str {
        "instrumented"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::BTreeBackend;

    #[test]
    fn counts_every_operation_kind() {
        let backend = InstrumentedBackend::new(BTreeBackend::new());
        backend.put(b"a", b"12345").unwrap();
        backend.put(b"b", b"xy").unwrap();
        backend.delete(b"b").unwrap();
        assert_eq!(backend.get(b"a").unwrap().as_deref(), Some(&b"12345"[..]));
        assert_eq!(backend.get(b"b").unwrap(), None);
        let mut batch = WriteBatch::new();
        batch.put(b"c", b"1");
        batch.delete(b"a");
        backend.write_batch(&batch).unwrap();
        backend.scan(&mut |_, _| true).unwrap();
        backend.sync().unwrap();

        let s = backend.stats();
        assert_eq!(s.gets(), 2);
        assert_eq!(s.get_hits(), 1);
        assert_eq!(s.puts(), 2);
        assert_eq!(s.deletes(), 1);
        assert_eq!(s.batches(), 1);
        assert_eq!(s.batch_ops(), 2);
        assert_eq!(s.scans(), 1);
        assert_eq!(s.syncs(), 1);
        assert_eq!(s.total_writes(), 5);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(s.bytes_read(), 5);
        // puts: (1+5)+(1+2), delete: 1, batch: (1+1)+1
        assert_eq!(s.bytes_written(), 6 + 3 + 1 + 2 + 1);
        // Live keys after the batch: only "c" ("a" deleted by the batch, "b" earlier).
        assert_eq!(backend.len(), 1);
        assert_eq!(backend.name(), "instrumented");
        assert_eq!(backend.inner().name(), "btree-mem");
    }

    #[test]
    fn snapshot_and_delta() {
        let backend = InstrumentedBackend::new(BTreeBackend::new());
        backend.put(b"a", b"1").unwrap();
        let before = backend.stats().snapshot();
        backend.put(b"b", b"2").unwrap();
        backend.get(b"a").unwrap();
        let after = backend.stats().snapshot();
        let delta = after.delta_since(&before);
        assert_eq!(delta.puts, 1);
        assert_eq!(delta.gets, 1);
        assert_eq!(before.puts, 1);
    }

    #[test]
    fn empty_stats_ratios_are_zero() {
        let s = StorageStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.snapshot(), StorageStatsSnapshot::default());
    }
}
