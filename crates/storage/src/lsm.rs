//! The persistent LSM key-value store — the workspace's stand-in for the
//! RocksDB base table used in the paper's evaluation (§5.1).
//!
//! Architecture (a deliberately small log-structured merge design):
//!
//! * every write batch is appended to the [`Wal`] first (fsync-ed under
//!   [`SyncPolicy::Always`], the paper's configuration),
//! * then applied to an in-memory memtable (`BTreeMap` with tombstones);
//!   a delete leaves a tombstone only if some SSTable may hold the key (its
//!   Bloom filter says so) — otherwise there is nothing to shadow, and the
//!   delete just removes the memtable entry.  WAL replay applies the same
//!   rule against the SSTables it opened, so deletes of keys that never
//!   reached a run (group redo records truncated online) cost no memory.
//!   A put over a live value overwrites it in place when the value's
//!   buffer is at most twice the new length (the common case: a
//!   fixed-size row rewritten on every commit costs no allocation), and
//!   otherwise reallocates, so a value that shrank cannot pin a large
//!   buffer,
//! * when the memtable exceeds its byte budget it is flushed to an immutable
//!   [`SsTable`], the manifest is updated and the WAL truncated,
//! * when too many SSTables accumulate they are merged (full compaction,
//!   newest version of each key wins, tombstones of fully-merged runs are
//!   dropped),
//! * `open` recovers by loading the manifest, opening the live SSTables and
//!   replaying the WAL tail into a fresh memtable; a torn record at the end
//!   of the WAL is cut off before new records are appended.
//!
//! Reads consult memtable → newest SSTable → … → oldest SSTable and stop at
//! the first hit (a tombstone counts as a hit meaning "deleted").

use crate::backend::{BatchOp, StorageBackend, SyncPolicy, WriteBatch};
use crate::manifest::Manifest;
use crate::sstable::{SsTable, SsTableBuilder};
use crate::wal::Wal;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tsp_common::recycle::keeps;
use tsp_common::{Result, TspError};

/// Tuning options for an [`LsmStore`].
#[derive(Clone, Debug)]
pub struct LsmOptions {
    /// Durability policy for the WAL.
    pub sync: SyncPolicy,
    /// Flush the memtable once its payload bytes exceed this budget.
    pub memtable_budget_bytes: usize,
    /// Trigger a full compaction once this many SSTables are live.
    pub compaction_threshold: usize,
}

impl Default for LsmOptions {
    fn default() -> Self {
        LsmOptions {
            sync: SyncPolicy::Always,
            memtable_budget_bytes: 8 * 1024 * 1024,
            compaction_threshold: 6,
        }
    }
}

impl LsmOptions {
    /// Options matching the paper's evaluation: synchronous durable writes.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Options for fast, non-durable operation (tests, volatile states).
    pub fn no_sync() -> Self {
        LsmOptions {
            sync: SyncPolicy::Never,
            ..Self::default()
        }
    }

    /// Overrides the memtable flush budget.
    pub fn with_memtable_budget(mut self, bytes: usize) -> Self {
        self.memtable_budget_bytes = bytes;
        self
    }

    /// Overrides the compaction trigger.
    pub fn with_compaction_threshold(mut self, tables: usize) -> Self {
        self.compaction_threshold = tables;
        self
    }
}

/// Bytes a memtable entry costs beyond its key and value (map node and
/// vector headers, roughly), counted against the flush budget.
const MEM_ENTRY_OVERHEAD: usize = 32;

/// Memtable entry: `None` is a tombstone.
type MemEntry = Option<Vec<u8>>;

struct MemState {
    map: BTreeMap<Vec<u8>, MemEntry>,
    bytes: usize,
}

impl MemState {
    fn new() -> Self {
        MemState {
            map: BTreeMap::new(),
            bytes: 0,
        }
    }

    /// Applies one op, keeping `bytes` equal to the live footprint: a
    /// replaced value or a tombstoned one gives its bytes back, so keys
    /// overwritten or deleted in place (redo records truncated online) do
    /// not push the memtable towards a flush.  A delete of a key none of
    /// `tables` may hold removes the entry instead of leaving a tombstone.
    /// A put over a live value reuses its buffer when the buffer is at most
    /// twice the new length, and otherwise allocates one that fits.
    fn apply(&mut self, op: BatchOp<'_>, tables: &[Arc<SsTable>]) {
        let (key, value) = match op {
            BatchOp::Put { key, value } => (key, Some(value)),
            BatchOp::Delete { key } if !tables.iter().any(|t| t.may_contain(key)) => {
                if let Some(entry) = self.map.remove(key) {
                    self.bytes -= key.len() + entry.map_or(0, |v| v.len()) + MEM_ENTRY_OVERHEAD;
                }
                return;
            }
            BatchOp::Delete { key } => (key, None),
        };
        let value_len = value.map_or(0, <[u8]>::len);
        match self.map.get_mut(key) {
            Some(entry) => {
                self.bytes -= entry.as_ref().map_or(0, Vec::len);
                self.bytes += value_len;
                match (entry, value) {
                    (Some(old), Some(new)) if keeps(old.capacity(), new.len(), 0) => {
                        old.clear();
                        old.extend_from_slice(new);
                    }
                    (entry, value) => *entry = value.map(<[u8]>::to_vec),
                }
            }
            None => {
                self.bytes += key.len() + value_len + MEM_ENTRY_OVERHEAD;
                self.map.insert(key.to_vec(), value.map(<[u8]>::to_vec));
            }
        }
    }
}

/// Persistent, crash-recoverable key-value store.
pub struct LsmStore {
    dir: PathBuf,
    opts: LsmOptions,
    /// Serialises writers: WAL append order == memtable apply order.
    write_lock: Mutex<()>,
    wal: Mutex<Wal>,
    mem: RwLock<MemState>,
    tables: RwLock<Vec<Arc<SsTable>>>,
    manifest: Mutex<Manifest>,
}

impl LsmStore {
    const WAL_NAME: &'static str = "wal.log";

    /// Opens (or creates) a store in `dir`, recovering any previous contents.
    pub fn open(dir: impl AsRef<Path>, opts: LsmOptions) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let manifest = Manifest::open(&dir)?;

        // Open live SSTables, oldest first as recorded.
        let mut tables = Vec::new();
        for file_no in &manifest.data().tables {
            let path = Self::table_path(&dir, *file_no);
            tables.push(Arc::new(SsTable::open(&path)?));
        }

        // Replay the WAL tail into a fresh memtable.
        let wal_path = dir.join(Self::WAL_NAME);
        let mut mem = MemState::new();
        let wal = Wal::recover(&wal_path, opts.sync, |batch| {
            for op in batch.iter() {
                mem.apply(op, &tables);
            }
        })?;

        Ok(LsmStore {
            dir,
            opts,
            write_lock: Mutex::new(()),
            wal: Mutex::new(wal),
            mem: RwLock::new(mem),
            tables: RwLock::new(tables),
            manifest: Mutex::new(manifest),
        })
    }

    /// Directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of live SSTables (exposed for tests and the ablation benches).
    pub fn sstable_count(&self) -> usize {
        self.tables.read().len()
    }

    fn table_path(dir: &Path, file_no: u64) -> PathBuf {
        dir.join(format!("{file_no:08}.sst"))
    }

    fn apply_batch(&self, batch: &WriteBatch) -> Result<()> {
        // Hold the writer lock across WAL append + memtable apply so that
        // recovery order always matches in-memory order.
        let _guard = self.write_lock.lock();
        self.wal.lock().append(batch)?;
        let needs_flush = {
            // The run set only changes under `write_lock`, which we hold.
            let tables = self.tables.read();
            let mut mem = self.mem.write();
            for op in batch.iter() {
                mem.apply(op, &tables);
            }
            mem.bytes >= self.opts.memtable_budget_bytes
        };
        if needs_flush {
            self.flush_locked()?;
        }
        Ok(())
    }

    /// Flushes the memtable to a new SSTable.  Caller must hold `write_lock`.
    fn flush_locked(&self) -> Result<()> {
        let snapshot: Vec<(Vec<u8>, MemEntry)> = {
            let mem = self.mem.read();
            if mem.map.is_empty() {
                return Ok(());
            }
            mem.map
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        };

        let file_no = self.manifest.lock().allocate_file_no()?;
        let path = Self::table_path(&self.dir, file_no);
        let mut builder = SsTableBuilder::create(&path)?;
        for (k, v) in &snapshot {
            builder.add(k, v.as_deref())?;
        }
        let sst = builder.finish()?;

        {
            let mut manifest = self.manifest.lock();
            manifest.add_table(file_no)?;
        }
        self.tables.write().push(Arc::new(sst));
        {
            let mut mem = self.mem.write();
            mem.map.clear();
            mem.bytes = 0;
        }
        self.wal.lock().truncate()?;

        if self.tables.read().len() >= self.opts.compaction_threshold {
            self.compact_locked()?;
        }
        Ok(())
    }

    /// Full compaction: merge all SSTables into one.  Caller must hold
    /// `write_lock`.
    fn compact_locked(&self) -> Result<()> {
        let tables: Vec<Arc<SsTable>> = self.tables.read().clone();
        if tables.len() < 2 {
            return Ok(());
        }
        // Newest-wins merge: apply oldest → newest into a BTreeMap.
        let mut merged: BTreeMap<Vec<u8>, MemEntry> = BTreeMap::new();
        for t in &tables {
            for (k, v) in t.load_all()? {
                merged.insert(k, v);
            }
        }
        let file_no = self.manifest.lock().allocate_file_no()?;
        let path = Self::table_path(&self.dir, file_no);
        let mut builder = SsTableBuilder::create(&path)?;
        for (k, v) in &merged {
            // After a full compaction nothing older can exist, so tombstones
            // can be dropped entirely.
            if let Some(value) = v {
                builder.add(k, Some(value))?;
            }
        }
        let new_table = builder.finish()?;

        let old_paths: Vec<PathBuf> = tables.iter().map(|t| t.path().to_path_buf()).collect();
        {
            let mut manifest = self.manifest.lock();
            manifest.replace_tables(vec![file_no])?;
        }
        *self.tables.write() = vec![Arc::new(new_table)];
        for p in old_paths {
            let _ = fs::remove_file(p);
        }
        Ok(())
    }

    /// Forces a memtable flush (exposed for tests and crash-recovery tests).
    pub fn flush(&self) -> Result<()> {
        let _guard = self.write_lock.lock();
        self.flush_locked()
    }

    /// Forces a full compaction (exposed for tests / maintenance windows).
    pub fn compact(&self) -> Result<()> {
        let _guard = self.write_lock.lock();
        self.compact_locked()
    }

    fn get_internal(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        if let Some(entry) = self.mem.read().map.get(key) {
            return Ok(entry.clone());
        }
        self.get_from_tables(key)
    }

    /// Looks `key` up in the SSTables, newest first.
    fn get_from_tables(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let tables = self.tables.read().clone();
        for t in tables.iter().rev() {
            match t.get(key)? {
                Some(Some(v)) => return Ok(Some(v)),
                Some(None) => return Ok(None), // tombstone shadows older runs
                None => continue,
            }
        }
        Ok(None)
    }

    /// Merged snapshot of all live entries (memtable + SSTables, newest wins,
    /// tombstones removed).
    fn merged_snapshot(&self) -> Result<BTreeMap<Vec<u8>, Vec<u8>>> {
        let mut merged: BTreeMap<Vec<u8>, MemEntry> = BTreeMap::new();
        let tables = self.tables.read().clone();
        for t in tables.iter() {
            for (k, v) in t.load_all()? {
                merged.insert(k, v);
            }
        }
        for (k, v) in self.mem.read().map.iter() {
            merged.insert(k.clone(), v.clone());
        }
        Ok(merged
            .into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect())
    }
}

impl StorageBackend for LsmStore {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_internal(key)
    }

    /// Reads a memtable value in place, under the memtable's read lock.
    fn get_with(&self, key: &[u8], visit: &mut dyn FnMut(&[u8])) -> Result<bool> {
        if let Some(entry) = self.mem.read().map.get(key) {
            return Ok(entry.as_deref().map(visit).is_some());
        }
        Ok(self.get_from_tables(key)?.map(|v| visit(&v)).is_some())
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let mut b = WriteBatch::with_capacity(key.len() + value.len() + 9);
        b.put(key, value);
        self.apply_batch(&b)
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        let mut b = WriteBatch::with_capacity(key.len() + 5);
        b.delete(key);
        self.apply_batch(&b)
    }

    fn write_batch(&self, batch: &WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        self.apply_batch(batch)
    }

    fn scan(&self, visit: &mut dyn FnMut(&[u8], &[u8]) -> bool) -> Result<()> {
        for (k, v) in self.merged_snapshot()? {
            if !visit(&k, &v) {
                break;
            }
        }
        Ok(())
    }

    fn len(&self) -> usize {
        self.merged_snapshot().map(|m| m.len()).unwrap_or(0)
    }

    fn sync(&self) -> Result<()> {
        self.wal.lock().sync()
    }

    fn name(&self) -> &'static str {
        "lsm"
    }
}

/// Deletes an LSM store's directory (convenience for tests and benches).
pub fn destroy(dir: impl AsRef<Path>) -> Result<()> {
    let dir = dir.as_ref();
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(TspError::Io)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tsp-lsm-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_opts() -> LsmOptions {
        LsmOptions::no_sync()
            .with_memtable_budget(4 * 1024)
            .with_compaction_threshold(4)
    }

    #[test]
    fn put_get_delete() {
        let dir = tmpdir("basic");
        let store = LsmStore::open(&dir, LsmOptions::no_sync()).unwrap();
        store.put(b"k1", b"v1").unwrap();
        store.put(b"k2", b"v2").unwrap();
        assert_eq!(store.get(b"k1").unwrap().as_deref(), Some(&b"v1"[..]));
        assert_eq!(store.get(b"nope").unwrap(), None);
        store.delete(b"k1").unwrap();
        assert_eq!(store.get(b"k1").unwrap(), None);
        assert_eq!(store.len(), 1);
        assert_eq!(store.name(), "lsm");
        destroy(&dir).unwrap();
    }

    /// A torn record at the end of the WAL is cut off at reopen: a batch
    /// written after the restart stays replayable behind the intact ones.
    #[test]
    fn records_written_after_a_torn_tail_survive_the_next_reopen() {
        let dir = tmpdir("torn");
        {
            let store = LsmStore::open(&dir, LsmOptions::no_sync()).unwrap();
            store.put(b"first", b"1").unwrap();
            store.put(b"second", b"2").unwrap();
        }
        let wal = dir.join(LsmStore::WAL_NAME);
        let data = fs::read(&wal).unwrap();
        fs::write(&wal, &data[..data.len() - 3]).unwrap();
        {
            let store = LsmStore::open(&dir, LsmOptions::no_sync()).unwrap();
            assert_eq!(store.get(b"second").unwrap(), None, "torn batch dropped");
            store.put(b"third", b"3").unwrap();
        }
        let store = LsmStore::open(&dir, LsmOptions::no_sync()).unwrap();
        assert_eq!(store.get(b"first").unwrap().as_deref(), Some(&b"1"[..]));
        assert_eq!(store.get(b"second").unwrap(), None);
        assert_eq!(store.get(b"third").unwrap().as_deref(), Some(&b"3"[..]));
        drop(store);
        destroy(&dir).unwrap();
    }

    #[test]
    fn values_survive_flush_and_reopen() {
        let dir = tmpdir("reopen");
        {
            let store = LsmStore::open(&dir, small_opts()).unwrap();
            for i in 0u32..500 {
                store.put(&i.to_be_bytes(), &[i as u8; 20]).unwrap();
            }
            store.flush().unwrap();
            assert!(store.sstable_count() >= 1);
        }
        {
            let store = LsmStore::open(&dir, small_opts()).unwrap();
            for i in 0u32..500 {
                assert_eq!(
                    store.get(&i.to_be_bytes()).unwrap(),
                    Some(vec![i as u8; 20]),
                    "key {i} lost after reopen"
                );
            }
        }
        destroy(&dir).unwrap();
    }

    #[test]
    fn unflushed_writes_recovered_from_wal() {
        let dir = tmpdir("walrec");
        {
            let store = LsmStore::open(&dir, LsmOptions::no_sync()).unwrap();
            store.put(b"a", b"1").unwrap();
            store.put(b"b", b"2").unwrap();
            store.delete(b"a").unwrap();
            // No flush: all state lives in WAL + memtable only.
        }
        let store = LsmStore::open(&dir, LsmOptions::no_sync()).unwrap();
        assert_eq!(store.get(b"a").unwrap(), None);
        assert_eq!(store.get(b"b").unwrap().as_deref(), Some(&b"2"[..]));
        destroy(&dir).unwrap();
    }

    #[test]
    fn tombstone_shadows_older_sstable() {
        let dir = tmpdir("shadow");
        let store = LsmStore::open(&dir, small_opts()).unwrap();
        store.put(b"key", b"old").unwrap();
        store.flush().unwrap();
        store.delete(b"key").unwrap();
        store.flush().unwrap();
        assert_eq!(store.get(b"key").unwrap(), None);
        // After compaction the key must remain deleted.
        store.compact().unwrap();
        assert_eq!(store.get(b"key").unwrap(), None);
        assert_eq!(store.sstable_count(), 1);
        destroy(&dir).unwrap();
    }

    #[test]
    fn automatic_flush_and_compaction_keep_data_correct() {
        let dir = tmpdir("autoflush");
        let store = LsmStore::open(&dir, small_opts()).unwrap();
        // Enough data to trigger several flushes and at least one compaction.
        for round in 0u32..10 {
            for i in 0u32..200 {
                let key = i.to_be_bytes();
                let value = format!("r{round}-v{i}");
                store.put(&key, value.as_bytes()).unwrap();
            }
        }
        for i in 0u32..200 {
            let got = store.get(&i.to_be_bytes()).unwrap().unwrap();
            assert_eq!(got, format!("r9-v{i}").into_bytes());
        }
        assert_eq!(store.len(), 200);
        destroy(&dir).unwrap();
    }

    /// The flush budget counts live bytes: a large value put and then
    /// deleted under a fresh key leaves nothing behind, the pattern of
    /// redo records that are truncated online.
    #[test]
    fn deleted_values_give_their_bytes_back_to_the_budget() {
        let dir = tmpdir("livebytes");
        let store =
            LsmStore::open(&dir, LsmOptions::no_sync().with_memtable_budget(64 * 1024)).unwrap();
        let value = vec![7u8; 4096];
        for i in 0u32..500 {
            let key = format!("__tsp__/redo/{i:08}");
            let mut put = WriteBatch::new();
            put.put(&key, &value);
            store.write_batch(&put).unwrap();
            let mut delete = WriteBatch::new();
            delete.delete(&key);
            store.write_batch(&delete).unwrap();
        }
        // 500 × 4 KiB went through, and no run holds the keys, so not even
        // a tombstone is left.
        assert_eq!(store.sstable_count(), 0, "no flush was needed");
        assert!(store.mem.read().map.is_empty());
        // Overwriting a value in place also gives the old bytes back.
        for _ in 0..100 {
            store.put(b"hot", &value).unwrap();
        }
        assert_eq!(store.sstable_count(), 0);
        assert_eq!(store.get(b"hot").unwrap(), Some(value));
        assert_eq!(store.get(b"__tsp__/redo/00000001").unwrap(), None);
        destroy(&dir).unwrap();
    }

    /// Overwrites of one key keep `get` and the byte budget exact, reuse
    /// the value's buffer while it is at most twice the new length, and
    /// give it up for a much shorter value.
    #[test]
    fn overwrites_reuse_the_value_buffer_only_while_it_fits() {
        let dir = tmpdir("inplace");
        let store = LsmStore::open(&dir, LsmOptions::no_sync()).unwrap();
        // A run holds the key, so the delete below leaves a tombstone.
        store.put(b"key", b"old").unwrap();
        store.flush().unwrap();
        let capacity = |store: &LsmStore| {
            let mem = store.mem.read();
            mem.map[&b"key"[..]].as_ref().map_or(0, Vec::capacity)
        };
        let steps: [(&str, Option<&[u8]>); 6] = [
            ("first", Some(&[1; 24])),
            ("longer", Some(&[2; 64])),
            ("shorter", Some(&[3; 40])),
            ("much shorter", Some(&[4; 8])),
            ("tombstone", None),
            ("value again", Some(&[5; 12])),
        ];
        for (step, value) in steps {
            match value {
                Some(v) => store.put(b"key", v).unwrap(),
                None => store.delete(b"key").unwrap(),
            }
            assert_eq!(store.get(b"key").unwrap().as_deref(), value, "{step}");
            let live = b"key".len() + value.map_or(0, <[u8]>::len) + MEM_ENTRY_OVERHEAD;
            assert_eq!(store.mem.read().bytes, live, "{step}");
            match step {
                "shorter" => assert!(capacity(&store) >= 64, "the 64-byte buffer is reused"),
                "much shorter" => assert!(capacity(&store) <= 2 * 8, "the old buffer is given up"),
                _ => {}
            }
        }
        destroy(&dir).unwrap();
    }

    /// Deletes of keys no SSTable holds leave the memtable empty, live and
    /// after WAL replay; a key an SSTable holds stays shadowed by its
    /// tombstone for `get` and `scan`, also after reopen.
    #[test]
    fn deletes_leave_tombstones_only_over_keys_a_run_may_hold() {
        let dir = tmpdir("tombstones");
        {
            let store = LsmStore::open(&dir, LsmOptions::no_sync()).unwrap();
            for i in 0u32..50 {
                let mut b = WriteBatch::new();
                b.put(i.to_be_bytes(), b"fresh");
                b.delete(i.to_be_bytes());
                store.write_batch(&b).unwrap();
            }
            assert!(store.mem.read().map.is_empty());
            assert_eq!(store.mem.read().bytes, 0);
        }
        {
            let store = LsmStore::open(&dir, LsmOptions::no_sync()).unwrap();
            assert!(store.mem.read().map.is_empty(), "replay drops them too");
            store.put(b"flushed", b"old").unwrap();
            store.put(b"kept", b"v").unwrap();
            store.flush().unwrap();
            store.delete(b"flushed").unwrap();
            assert_eq!(
                store.mem.read().map.get(&b"flushed"[..]),
                Some(&None),
                "a key a run holds keeps its tombstone"
            );
            assert_eq!(store.get(b"flushed").unwrap(), None);
        }
        let store = LsmStore::open(&dir, LsmOptions::no_sync()).unwrap();
        assert_eq!(store.get(b"flushed").unwrap(), None);
        let mut seen = Vec::new();
        store
            .scan(&mut |k, v| {
                seen.push((k.to_vec(), v.to_vec()));
                true
            })
            .unwrap();
        assert_eq!(seen, vec![(b"kept".to_vec(), b"v".to_vec())]);
        destroy(&dir).unwrap();
    }

    #[test]
    fn write_batch_is_atomic_across_recovery() {
        let dir = tmpdir("batchatomic");
        {
            let store = LsmStore::open(&dir, LsmOptions::no_sync()).unwrap();
            let mut b = WriteBatch::new();
            b.put(b"x", b"1");
            b.put(b"y", b"2");
            store.write_batch(&b).unwrap();
        }
        let store = LsmStore::open(&dir, LsmOptions::no_sync()).unwrap();
        assert_eq!(store.get(b"x").unwrap().as_deref(), Some(&b"1"[..]));
        assert_eq!(store.get(b"y").unwrap().as_deref(), Some(&b"2"[..]));
        destroy(&dir).unwrap();
    }

    #[test]
    fn scan_is_ordered_and_merged() {
        let dir = tmpdir("scan");
        let store = LsmStore::open(&dir, small_opts()).unwrap();
        for i in (0u32..100).rev() {
            store.put(&i.to_be_bytes(), b"v1").unwrap();
        }
        store.flush().unwrap();
        // Overwrite a few in the memtable.
        for i in [3u32, 50, 99] {
            store.put(&i.to_be_bytes(), b"v2").unwrap();
        }
        store.delete(&0u32.to_be_bytes()).unwrap();
        let mut seen = Vec::new();
        store
            .scan(&mut |k, v| {
                seen.push((u32::from_be_bytes(k.try_into().unwrap()), v.to_vec()));
                true
            })
            .unwrap();
        assert_eq!(seen.len(), 99);
        assert_eq!(seen[0].0, 1);
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(
            seen.iter().find(|(k, _)| *k == 50).unwrap().1,
            b"v2".to_vec()
        );
        assert_eq!(
            seen.iter().find(|(k, _)| *k == 10).unwrap().1,
            b"v1".to_vec()
        );
        destroy(&dir).unwrap();
    }

    #[test]
    fn sync_policy_always_works() {
        let dir = tmpdir("sync");
        let store = LsmStore::open(&dir, LsmOptions::paper_default()).unwrap();
        store.put(b"durable", b"yes").unwrap();
        store.sync().unwrap();
        drop(store);
        let store = LsmStore::open(&dir, LsmOptions::paper_default()).unwrap();
        assert_eq!(store.get(b"durable").unwrap().as_deref(), Some(&b"yes"[..]));
        destroy(&dir).unwrap();
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let dir = tmpdir("concurrent");
        let store = Arc::new(LsmStore::open(&dir, small_opts()).unwrap());
        for i in 0u32..100 {
            store.put(&i.to_be_bytes(), b"init").unwrap();
        }
        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for round in 0u32..20 {
                    for i in 0u32..100 {
                        store
                            .put(&i.to_be_bytes(), format!("r{round}").as_bytes())
                            .unwrap();
                    }
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let i = 42u32;
                        let v = store.get(&i.to_be_bytes()).unwrap();
                        assert!(v.is_some());
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        destroy(&dir).unwrap();
    }

    #[test]
    fn destroy_removes_directory() {
        let dir = tmpdir("destroy");
        let store = LsmStore::open(&dir, LsmOptions::no_sync()).unwrap();
        store.put(b"k", b"v").unwrap();
        drop(store);
        assert!(dir.exists());
        destroy(&dir).unwrap();
        assert!(!dir.exists());
        // Destroying a non-existent dir is fine.
        destroy(&dir).unwrap();
    }
}
