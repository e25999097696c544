//! Checkpoints: full copies of a backend's live contents.
//!
//! Recovery (§4 "persistence … recoverability") in this workspace normally
//! replays the WAL and manifest of the [`crate::lsm::LsmStore`].  A
//! *checkpoint* complements that path: it exports every live entry of any
//! [`StorageBackend`] into a single immutable [`SsTable`] file plus a small
//! CRC-protected metadata file, which can be archived, copied to another
//! machine, and imported into a fresh backend.  Because the export runs
//! through the backend's ordinary `scan`, checkpointing a base table that is
//! only written through committed transactions yields a transaction-
//! consistent copy (the transactional layer never exposes uncommitted data to
//! the backend).

use crate::backend::{StorageBackend, WriteBatch};
use crate::checksum::crc32;
use crate::sstable::{SsTable, SsTableBuilder};
use std::fs;
use std::path::{Path, PathBuf};
use tsp_common::{Result, TspError};

const META_MAGIC: u64 = 0x5453_5043_4850_5431; // "TSPCHPT1"

/// Description of a completed checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// Directory the checkpoint lives in.
    pub dir: PathBuf,
    /// Number of entries exported.
    pub entries: u64,
    /// Name of the backend the checkpoint was taken from.
    pub source: String,
}

fn data_path(dir: &Path) -> PathBuf {
    dir.join("checkpoint.sst")
}

fn meta_path(dir: &Path) -> PathBuf {
    dir.join("checkpoint.meta")
}

/// Exports every live entry of `backend` into `dir` (created if absent).
///
/// Any previous checkpoint in `dir` is replaced only after the new one has
/// been written and fsynced completely, so an interrupted checkpoint never
/// destroys the previous good one.
pub fn create_checkpoint<B: StorageBackend + ?Sized>(
    backend: &B,
    dir: impl AsRef<Path>,
) -> Result<CheckpointInfo> {
    let dir = dir.as_ref().to_path_buf();
    fs::create_dir_all(&dir)?;
    let tmp_data = dir.join("checkpoint.sst.tmp");

    // Backends are only required to scan in ascending order when they are
    // ordered; buffer and sort so the SSTable builder's invariant always
    // holds.
    let mut rows: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    backend.scan(&mut |k, v| {
        rows.push((k.to_vec(), v.to_vec()));
        true
    })?;
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows.dedup_by(|a, b| a.0 == b.0);

    let mut builder = SsTableBuilder::create(&tmp_data)?;
    for (k, v) in &rows {
        builder.add(k, Some(v))?;
    }
    let entries = builder.len();
    builder.finish()?; // fsyncs the data file

    // Metadata: entry count + source backend name, CRC-protected.
    let mut meta = Vec::new();
    meta.extend_from_slice(&entries.to_be_bytes());
    let name = backend.name().as_bytes();
    meta.extend_from_slice(&(name.len() as u32).to_be_bytes());
    meta.extend_from_slice(name);
    let mut meta_file = Vec::new();
    meta_file.extend_from_slice(&META_MAGIC.to_be_bytes());
    meta_file.extend_from_slice(&crc32(&meta).to_be_bytes());
    meta_file.extend_from_slice(&meta);

    // Publish atomically: rename data first, then write metadata (a reader
    // treats a missing/invalid metadata file as "no checkpoint").
    fs::rename(&tmp_data, data_path(&dir))?;
    fs::write(meta_path(&dir), &meta_file)?;

    Ok(CheckpointInfo {
        dir,
        entries,
        source: backend.name().to_string(),
    })
}

/// Reads a checkpoint's metadata without touching its data file.
pub fn read_checkpoint_info(dir: impl AsRef<Path>) -> Result<CheckpointInfo> {
    let dir = dir.as_ref().to_path_buf();
    let bytes = fs::read(meta_path(&dir))?;
    if bytes.len() < 12 {
        return Err(TspError::corruption("checkpoint metadata truncated"));
    }
    let magic = u64::from_be_bytes(bytes[0..8].try_into().unwrap());
    if magic != META_MAGIC {
        return Err(TspError::corruption("checkpoint metadata has bad magic"));
    }
    let crc = u32::from_be_bytes(bytes[8..12].try_into().unwrap());
    let meta = &bytes[12..];
    if crc32(meta) != crc {
        return Err(TspError::corruption(
            "checkpoint metadata checksum mismatch",
        ));
    }
    if meta.len() < 12 {
        return Err(TspError::corruption("checkpoint metadata truncated"));
    }
    let entries = u64::from_be_bytes(meta[0..8].try_into().unwrap());
    let name_len = u32::from_be_bytes(meta[8..12].try_into().unwrap()) as usize;
    if meta.len() < 12 + name_len {
        return Err(TspError::corruption("checkpoint metadata truncated"));
    }
    let source = String::from_utf8_lossy(&meta[12..12 + name_len]).into_owned();
    Ok(CheckpointInfo {
        dir,
        entries,
        source,
    })
}

/// Imports the checkpoint in `dir` into `target`, overwriting existing keys.
///
/// Entries are applied in batches so persistent targets pay a bounded number
/// of durable writes.  Returns the number of imported entries.
pub fn restore_checkpoint<B: StorageBackend + ?Sized>(
    dir: impl AsRef<Path>,
    target: &B,
) -> Result<u64> {
    let dir = dir.as_ref();
    let info = read_checkpoint_info(dir)?;
    let sst = SsTable::open(data_path(dir))?;
    if sst.entry_count() != info.entries {
        return Err(TspError::corruption(format!(
            "checkpoint data holds {} entries but metadata promises {}",
            sst.entry_count(),
            info.entries
        )));
    }
    const BATCH: usize = 4096;
    let mut batch = WriteBatch::new();
    let mut imported = 0u64;
    let mut scan_err: Option<TspError> = None;
    sst.scan(&mut |k, v| {
        if let Some(v) = v {
            batch.put(k, v);
            imported += 1;
            if batch.len() >= BATCH {
                if let Err(e) = target.write_batch(&batch) {
                    scan_err = Some(e);
                    return false;
                }
                batch = WriteBatch::new();
            }
        }
        true
    })?;
    if let Some(e) = scan_err {
        return Err(e);
    }
    if !batch.is_empty() {
        target.write_batch(&batch)?;
    }
    Ok(imported)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsm::{destroy, LsmOptions, LsmStore};
    use crate::memtable::BTreeBackend;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tsp-checkpoint-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_round_trips_between_backends() {
        let dir = tmpdir("roundtrip");
        let source = BTreeBackend::new();
        for i in 0..500u32 {
            source
                .put(&i.to_be_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        let info = create_checkpoint(&source, &dir).unwrap();
        assert_eq!(info.entries, 500);
        assert_eq!(info.source, "btree-mem");
        assert_eq!(read_checkpoint_info(&dir).unwrap(), info);

        let target = BTreeBackend::new();
        assert_eq!(restore_checkpoint(&dir, &target).unwrap(), 500);
        for i in 0..500u32 {
            assert_eq!(
                target.get(&i.to_be_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes())
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_of_reverse_inserted_keys_is_sorted_and_complete() {
        let dir = tmpdir("reverse");
        let source = BTreeBackend::new();
        for i in (0..200u32).rev() {
            source.put(&i.to_be_bytes(), b"x").unwrap();
        }
        let info = create_checkpoint(&source, &dir).unwrap();
        assert_eq!(info.entries, 200);
        let target = BTreeBackend::new();
        assert_eq!(restore_checkpoint(&dir, &target).unwrap(), 200);
        assert_eq!(target.len(), 200);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_of_lsm_store_and_restore_into_fresh_store() {
        let base = tmpdir("lsm");
        let store_dir = base.join("store");
        let ckpt_dir = base.join("ckpt");
        let restored_dir = base.join("restored");
        let store = LsmStore::open(&store_dir, LsmOptions::no_sync()).unwrap();
        for i in 0..300u32 {
            store.put(&i.to_be_bytes(), &[i as u8; 8]).unwrap();
        }
        store.delete(&7u32.to_be_bytes()).unwrap();
        let info = create_checkpoint(&store, &ckpt_dir).unwrap();
        assert_eq!(info.entries, 299, "deleted keys are not exported");

        let restored = LsmStore::open(&restored_dir, LsmOptions::no_sync()).unwrap();
        assert_eq!(restore_checkpoint(&ckpt_dir, &restored).unwrap(), 299);
        assert_eq!(restored.get(&7u32.to_be_bytes()).unwrap(), None);
        assert_eq!(
            restored.get(&8u32.to_be_bytes()).unwrap(),
            Some(vec![8u8; 8])
        );
        destroy(&store_dir).unwrap();
        destroy(&restored_dir).unwrap();
        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn empty_backend_checkpoints_cleanly() {
        let dir = tmpdir("empty");
        let source = BTreeBackend::new();
        let info = create_checkpoint(&source, &dir).unwrap();
        assert_eq!(info.entries, 0);
        let target = BTreeBackend::new();
        assert_eq!(restore_checkpoint(&dir, &target).unwrap(), 0);
        assert!(target.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repeated_checkpoints_replace_the_previous_one() {
        let dir = tmpdir("replace");
        let source = BTreeBackend::new();
        source.put(b"a", b"1").unwrap();
        create_checkpoint(&source, &dir).unwrap();
        source.put(b"b", b"2").unwrap();
        let info = create_checkpoint(&source, &dir).unwrap();
        assert_eq!(info.entries, 2);
        let target = BTreeBackend::new();
        assert_eq!(restore_checkpoint(&dir, &target).unwrap(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_metadata_is_rejected() {
        let dir = tmpdir("corrupt");
        let source = BTreeBackend::new();
        source.put(b"a", b"1").unwrap();
        create_checkpoint(&source, &dir).unwrap();
        // Flip a byte in the metadata payload.
        let path = meta_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(read_checkpoint_info(&dir).is_err());
        assert!(restore_checkpoint(&dir, &BTreeBackend::new()).is_err());
        // Missing metadata entirely.
        fs::remove_file(&path).unwrap();
        assert!(read_checkpoint_info(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entry_count_mismatch_is_detected() {
        let dir = tmpdir("mismatch");
        let source = BTreeBackend::new();
        source.put(b"a", b"1").unwrap();
        source.put(b"b", b"2").unwrap();
        create_checkpoint(&source, &dir).unwrap();
        // Overwrite the data file with a checkpoint of a different backend
        // while keeping the old metadata.
        let other = BTreeBackend::new();
        other.put(b"only", b"one").unwrap();
        let other_dir = tmpdir("mismatch-other");
        create_checkpoint(&other, &other_dir).unwrap();
        fs::copy(data_path(&other_dir), data_path(&dir)).unwrap();
        assert!(restore_checkpoint(&dir, &BTreeBackend::new()).is_err());
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&other_dir).unwrap();
    }
}
