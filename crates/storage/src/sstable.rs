//! Immutable sorted runs (SSTables).
//!
//! When the LSM store's memtable exceeds its size budget it is flushed to an
//! SSTable: an immutable file holding the entries in ascending key order plus
//! a sparse index for point lookups.  Tombstones (deletes) are stored
//! explicitly so that a delete in a newer run shadows a put in an older run.
//!
//! ## On-disk format
//!
//! ```text
//! file    := entry*  index  footer
//! entry   := klen:u32  key[klen]  vlen:u32  value[vlen]
//!            (vlen == u32::MAX encodes a tombstone; no value bytes follow)
//! index   := count:u32  (klen:u32 key[klen] offset:u64)*   -- every Nth key
//! footer  := index_offset:u64  entry_count:u64  index_crc:u32  magic:u64
//! ```

use crate::bloom::Bloom;
use crate::checksum::crc32;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use tsp_common::{Result, TspError};

const MAGIC: u64 = 0x5453_5053_5354_4231; // "TSPSSTB1"
const TOMBSTONE_LEN: u32 = u32::MAX;
/// One sparse-index entry is written for every `INDEX_INTERVAL` data entries.
const INDEX_INTERVAL: usize = 16;
const FOOTER_LEN: u64 = 8 + 8 + 4 + 8;

/// Builder that writes a new SSTable from entries supplied in ascending key
/// order.
pub struct SsTableBuilder {
    path: PathBuf,
    writer: BufWriter<File>,
    index: Vec<(Vec<u8>, u64)>,
    offset: u64,
    count: u64,
    last_key: Option<Vec<u8>>,
}

impl SsTableBuilder {
    /// Creates a builder writing to `path` (truncates any existing file).
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        Ok(SsTableBuilder {
            path,
            writer: BufWriter::new(file),
            index: Vec::new(),
            offset: 0,
            count: 0,
            last_key: None,
        })
    }

    /// Appends an entry.  `value == None` writes a tombstone.  Keys must be
    /// strictly ascending.
    pub fn add(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        if let Some(last) = &self.last_key {
            if key <= last.as_slice() {
                return Err(TspError::corruption(
                    "SSTable entries must be added in strictly ascending key order",
                ));
            }
        }
        if (self.count as usize).is_multiple_of(INDEX_INTERVAL) {
            self.index.push((key.to_vec(), self.offset));
        }
        self.writer.write_all(&(key.len() as u32).to_be_bytes())?;
        self.writer.write_all(key)?;
        match value {
            Some(v) => {
                self.writer.write_all(&(v.len() as u32).to_be_bytes())?;
                self.writer.write_all(v)?;
                self.offset += 4 + key.len() as u64 + 4 + v.len() as u64;
            }
            None => {
                self.writer.write_all(&TOMBSTONE_LEN.to_be_bytes())?;
                self.offset += 4 + key.len() as u64 + 4;
            }
        }
        self.count += 1;
        self.last_key = Some(key.to_vec());
        Ok(())
    }

    /// Number of entries added so far.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True if nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Writes index and footer, fsyncs, and returns an opened [`SsTable`].
    pub fn finish(mut self) -> Result<SsTable> {
        let index_offset = self.offset;
        let mut index_buf = Vec::new();
        index_buf.extend_from_slice(&(self.index.len() as u32).to_be_bytes());
        for (key, off) in &self.index {
            index_buf.extend_from_slice(&(key.len() as u32).to_be_bytes());
            index_buf.extend_from_slice(key);
            index_buf.extend_from_slice(&off.to_be_bytes());
        }
        let index_crc = crc32(&index_buf);
        self.writer.write_all(&index_buf)?;
        self.writer.write_all(&index_offset.to_be_bytes())?;
        self.writer.write_all(&self.count.to_be_bytes())?;
        self.writer.write_all(&index_crc.to_be_bytes())?;
        self.writer.write_all(&MAGIC.to_be_bytes())?;
        self.writer.flush()?;
        self.writer.get_ref().sync_all()?;
        drop(self.writer);
        SsTable::open(&self.path)
    }
}

/// A read-only handle to an SSTable file.
///
/// The sparse index lives in memory; point lookups jump to the closest index
/// entry and scan at most `INDEX_INTERVAL` (16) entries forward.  The data
/// region is kept resident in memory (the working sets of the paper's
/// evaluation are a few tens of megabytes, and RocksDB's block cache plus the
/// OS page cache give the original system the same memory-speed reads —
/// "readers (mostly only accessing memory)", §5.2).  Falling back to
/// positioned file reads would only be needed for data sets far beyond the
/// reproduction's scale.
pub struct SsTable {
    path: PathBuf,
    /// The data region (everything before the sparse index), resident in
    /// memory for memory-speed point lookups.
    data: Vec<u8>,
    index: Vec<(Vec<u8>, u64)>,
    index_offset: u64,
    entry_count: u64,
    /// In-memory Bloom filter over all keys of the run, rebuilt on open.
    /// Negative point lookups short-circuit here without touching the data
    /// region — the same role RocksDB's per-SSTable filter blocks play.
    bloom: Bloom,
}

impl SsTable {
    /// Opens an existing SSTable, verifying footer magic and index checksum.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        if file_len < FOOTER_LEN {
            return Err(TspError::corruption(format!(
                "SSTable {} shorter than footer",
                path.display()
            )));
        }
        file.seek(SeekFrom::End(-(FOOTER_LEN as i64)))?;
        let mut footer = [0u8; FOOTER_LEN as usize];
        file.read_exact(&mut footer)?;
        let index_offset = u64::from_be_bytes(footer[0..8].try_into().unwrap());
        let entry_count = u64::from_be_bytes(footer[8..16].try_into().unwrap());
        let index_crc = u32::from_be_bytes(footer[16..20].try_into().unwrap());
        let magic = u64::from_be_bytes(footer[20..28].try_into().unwrap());
        if magic != MAGIC {
            return Err(TspError::corruption(format!(
                "SSTable {} has bad magic",
                path.display()
            )));
        }
        let index_len = file_len - FOOTER_LEN - index_offset;
        file.seek(SeekFrom::Start(index_offset))?;
        let mut index_buf = vec![0u8; index_len as usize];
        file.read_exact(&mut index_buf)?;
        if crc32(&index_buf) != index_crc {
            return Err(TspError::corruption(format!(
                "SSTable {} index checksum mismatch",
                path.display()
            )));
        }
        let mut index = Vec::new();
        let mut pos = 0usize;
        if index_buf.len() < 4 {
            return Err(TspError::corruption("SSTable index truncated"));
        }
        let n = u32::from_be_bytes(index_buf[0..4].try_into().unwrap()) as usize;
        pos += 4;
        for _ in 0..n {
            if pos + 4 > index_buf.len() {
                return Err(TspError::corruption("SSTable index entry truncated"));
            }
            let klen = u32::from_be_bytes(index_buf[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4;
            if pos + klen + 8 > index_buf.len() {
                return Err(TspError::corruption("SSTable index entry truncated"));
            }
            let key = index_buf[pos..pos + klen].to_vec();
            pos += klen;
            let off = u64::from_be_bytes(index_buf[pos..pos + 8].try_into().unwrap());
            pos += 8;
            index.push((key, off));
        }
        // Load the data region into memory (see the struct documentation).
        file.seek(SeekFrom::Start(0))?;
        let mut data = vec![0u8; index_offset as usize];
        file.read_exact(&mut data)?;
        // Build the per-run Bloom filter from the resident data region.
        let mut bloom = Bloom::new(entry_count as usize);
        let mut pos = 0usize;
        while pos < data.len() {
            let (key, _, next) = parse_entry(&data, pos)?;
            bloom.insert(key);
            pos = next;
        }
        Ok(SsTable {
            path,
            data,
            index,
            index_offset,
            entry_count,
            bloom,
        })
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of entries (including tombstones).
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// The run's Bloom filter (exposed for tests and diagnostics).
    pub fn bloom(&self) -> &Bloom {
        &self.bloom
    }

    /// False if this run certainly holds no entry (value or tombstone) for
    /// `key`; true if it may (an empty run holds nothing, and otherwise the
    /// Bloom filter decides, false positives included).
    pub fn may_contain(&self, key: &[u8]) -> bool {
        !self.index.is_empty() && self.bloom.may_contain(key)
    }

    /// Looks up `key`.
    ///
    /// Returns `None` if the key is not present in this run at all, and
    /// `Some(None)` if the run holds a tombstone for it (so callers can stop
    /// searching older runs).
    pub fn get(&self, key: &[u8]) -> Result<Option<Option<Vec<u8>>>> {
        if !self.may_contain(key) {
            return Ok(None);
        }
        // Find the last index entry with index_key <= key.
        let slot = match self.index.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
            Ok(i) => i,
            Err(0) => return Ok(None), // key sorts before the first entry
            Err(i) => i - 1,
        };
        let start = self.index[slot].1;
        let end = if slot + 1 < self.index.len() {
            self.index[slot + 1].1
        } else {
            self.index_offset
        };
        // Parse the block between two sparse-index entries (at most
        // INDEX_INTERVAL entries) directly from the resident data region.
        let block = &self.data[start as usize..end as usize];
        let mut pos = 0usize;
        while pos < block.len() {
            let (entry_key, value, next) = parse_entry(block, pos)?;
            match entry_key.cmp(key) {
                std::cmp::Ordering::Equal => return Ok(Some(value.map(|v| v.to_vec()))),
                std::cmp::Ordering::Greater => return Ok(None),
                std::cmp::Ordering::Less => pos = next,
            }
        }
        Ok(None)
    }

    /// Visits every entry in ascending key order.  Tombstones are reported
    /// with `value == None`.  Returning `false` stops the scan.
    pub fn scan(&self, visit: &mut EntryVisitor<'_>) -> Result<()> {
        let mut pos = 0usize;
        while pos < self.data.len() {
            let (key, value, next) = parse_entry(&self.data, pos)?;
            if !visit(key, value) {
                break;
            }
            pos = next;
        }
        Ok(())
    }

    /// Loads all entries into memory (used by compaction).
    pub fn load_all(&self) -> Result<Vec<OwnedEntry>> {
        let mut out = Vec::with_capacity(self.entry_count as usize);
        self.scan(&mut |k, v| {
            out.push((k.to_vec(), v.map(|v| v.to_vec())));
            true
        })?;
        Ok(out)
    }
}

/// Visitor over borrowed entries: key, optional value (`None` = tombstone).
pub type EntryVisitor<'a> = dyn FnMut(&[u8], Option<&[u8]>) -> bool + 'a;

/// An owned entry: key plus optional value (`None` = tombstone).
pub type OwnedEntry = (Vec<u8>, Option<Vec<u8>>);

/// A parsed borrowed entry plus the offset of the next entry.
type ParsedEntry<'a> = (&'a [u8], Option<&'a [u8]>, usize);

/// Parses one entry of the in-memory data region starting at `pos`.  Returns
/// the key slice, the optional value slice (`None` = tombstone) and the
/// offset of the next entry.
fn parse_entry(data: &[u8], pos: usize) -> Result<ParsedEntry<'_>> {
    let need = |end: usize| -> Result<()> {
        if end > data.len() {
            Err(TspError::corruption("SSTable entry truncated"))
        } else {
            Ok(())
        }
    };
    need(pos + 4)?;
    let klen = u32::from_be_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
    let key_start = pos + 4;
    need(key_start + klen + 4)?;
    let key = &data[key_start..key_start + klen];
    let vlen_pos = key_start + klen;
    let vlen = u32::from_be_bytes(data[vlen_pos..vlen_pos + 4].try_into().unwrap());
    if vlen == TOMBSTONE_LEN {
        Ok((key, None, vlen_pos + 4))
    } else {
        let value_start = vlen_pos + 4;
        need(value_start + vlen as usize)?;
        let value = &data[value_start..value_start + vlen as usize];
        Ok((key, Some(value), value_start + vlen as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tsp-sst-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn build(dir: &Path, entries: &[(u32, Option<&[u8]>)]) -> SsTable {
        let mut b = SsTableBuilder::create(dir.join("run.sst")).unwrap();
        for (k, v) in entries {
            b.add(&k.to_be_bytes(), *v).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn point_lookups_hit_and_miss() {
        let dir = tmpdir("point");
        let entries: Vec<(u32, Option<&[u8]>)> =
            (0..200).map(|i| (i * 2, Some(&b"payload"[..]))).collect();
        let sst = build(&dir, &entries);
        assert_eq!(sst.entry_count(), 200);
        // Present keys.
        assert_eq!(
            sst.get(&10u32.to_be_bytes()).unwrap(),
            Some(Some(b"payload".to_vec()))
        );
        assert_eq!(
            sst.get(&0u32.to_be_bytes()).unwrap(),
            Some(Some(b"payload".to_vec()))
        );
        assert_eq!(
            sst.get(&398u32.to_be_bytes()).unwrap(),
            Some(Some(b"payload".to_vec()))
        );
        // Absent keys: odd, before range, after range.
        assert_eq!(sst.get(&11u32.to_be_bytes()).unwrap(), None);
        assert_eq!(sst.get(&1_000_000u32.to_be_bytes()).unwrap(), None);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn tombstones_are_reported_distinctly() {
        let dir = tmpdir("tomb");
        let sst = build(
            &dir,
            &[(1, Some(&b"a"[..])), (2, None), (3, Some(&b"c"[..]))],
        );
        assert_eq!(sst.get(&2u32.to_be_bytes()).unwrap(), Some(None));
        assert_eq!(
            sst.get(&1u32.to_be_bytes()).unwrap(),
            Some(Some(b"a".to_vec()))
        );
        assert_eq!(sst.get(&4u32.to_be_bytes()).unwrap(), None);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn scan_returns_all_in_order() {
        let dir = tmpdir("scan");
        let entries: Vec<(u32, Option<&[u8]>)> = (0..100).map(|i| (i, Some(&b"v"[..]))).collect();
        let sst = build(&dir, &entries);
        let mut keys = Vec::new();
        sst.scan(&mut |k, v| {
            assert!(v.is_some());
            keys.push(u32::from_be_bytes(k.try_into().unwrap()));
            true
        })
        .unwrap();
        assert_eq!(keys, (0..100).collect::<Vec<_>>());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn out_of_order_add_is_rejected() {
        let dir = tmpdir("order");
        let mut b = SsTableBuilder::create(dir.join("run.sst")).unwrap();
        b.add(&5u32.to_be_bytes(), Some(b"x")).unwrap();
        assert!(b.add(&5u32.to_be_bytes(), Some(b"y")).is_err());
        assert!(b.add(&4u32.to_be_bytes(), Some(b"y")).is_err());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn open_rejects_bad_magic_and_short_files() {
        let dir = tmpdir("badmagic");
        let path = dir.join("x.sst");
        fs::write(&path, b"tiny").unwrap();
        assert!(SsTable::open(&path).is_err());
        fs::write(&path, vec![0u8; 64]).unwrap();
        assert!(SsTable::open(&path).is_err());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupted_index_is_detected() {
        let dir = tmpdir("badindex");
        let sst = build(&dir, &[(1, Some(&b"a"[..])), (2, Some(&b"b"[..]))]);
        let path = sst.path().to_path_buf();
        drop(sst);
        let mut data = fs::read(&path).unwrap();
        // Flip a byte inside the index region (right before the footer).
        let idx = data.len() - FOOTER_LEN as usize - 1;
        data[idx] ^= 0xFF;
        fs::write(&path, &data).unwrap();
        assert!(SsTable::open(&path).is_err());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn load_all_round_trips() {
        let dir = tmpdir("loadall");
        let sst = build(
            &dir,
            &[(1, Some(&b"a"[..])), (2, None), (7, Some(&b"z"[..]))],
        );
        let all = sst.load_all().unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[1], (2u32.to_be_bytes().to_vec(), None));
        assert_eq!(all[2], (7u32.to_be_bytes().to_vec(), Some(b"z".to_vec())));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn empty_table_round_trips() {
        let dir = tmpdir("empty");
        let b = SsTableBuilder::create(dir.join("run.sst")).unwrap();
        assert!(b.is_empty());
        let sst = b.finish().unwrap();
        assert_eq!(sst.entry_count(), 0);
        assert_eq!(sst.get(b"anything").unwrap(), None);
        let mut n = 0;
        sst.scan(&mut |_, _| {
            n += 1;
            true
        })
        .unwrap();
        assert_eq!(n, 0);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn variable_length_keys_and_values() {
        let dir = tmpdir("varlen");
        let mut b = SsTableBuilder::create(dir.join("run.sst")).unwrap();
        b.add(b"a", Some(&vec![7u8; 1000])).unwrap();
        b.add(b"ab", Some(b"")).unwrap();
        b.add(b"abc", None).unwrap();
        b.add(b"b", Some(b"tail")).unwrap();
        assert_eq!(b.len(), 4);
        let sst = b.finish().unwrap();
        assert_eq!(sst.get(b"a").unwrap(), Some(Some(vec![7u8; 1000])));
        assert_eq!(sst.get(b"ab").unwrap(), Some(Some(Vec::new())));
        assert_eq!(sst.get(b"abc").unwrap(), Some(None));
        assert_eq!(sst.get(b"b").unwrap(), Some(Some(b"tail".to_vec())));
        assert_eq!(sst.get(b"aa").unwrap(), None);
        fs::remove_dir_all(dir).unwrap();
    }
}
