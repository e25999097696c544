//! Write-ahead log.
//!
//! Every committed batch that reaches a persistent base table is first
//! appended to the WAL as one length-prefixed, CRC-protected record.  With
//! [`SyncPolicy::Always`] the record is fsync-ed before the write is
//! acknowledged — this is exactly the "sync option … to guarantee failure
//! atomicity" the paper's evaluation enables on RocksDB (§5.1), and the cost
//! that makes the single writer of the benchmark durable-write-bound.
//!
//! ## On-disk format
//!
//! ```text
//! record   := len:u32  crc:u32  payload[len]
//! payload  := op_count:u32  op*
//! op       := tag:u8 (0 = put, 1 = delete)
//!             klen:u32  key[klen]
//!             (vlen:u32  value[vlen])      -- put only
//! ```
//!
//! The payload is exactly a [`WriteBatch`]'s op count followed by its
//! encoded buffer (the batch is built in this op encoding), so
//! [`Wal::append`] writes `op_count ‖ rep` under a streaming CRC without
//! re-encoding a single op, and [`Wal::replay`] hands the payload back as a
//! batch after checking that it holds exactly `op_count` well-formed ops.
//!
//! Each record reaches the file in one vectored `write(2)` — header, op
//! count and the batch's buffer — with no copy and no intermediate buffer.
//!
//! Replay stops at the first truncated or corrupt record: that is the normal
//! shape of a crash tail, and everything before it is guaranteed intact by
//! the per-record CRC.  [`Wal::recover`] cuts such a tail off before the log
//! takes new records; appending after it would hide every later record
//! behind the torn one from the next replay.  For the same reason a failed
//! [`Wal::append`] truncates the log back to its last complete record.

use crate::backend::{SyncPolicy, WriteBatch};
use crate::checksum::{crc32, Crc32};
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, IoSlice, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use tsp_common::{Result, TspError};

/// Append-only write-ahead log over a single file.
pub struct Wal {
    path: PathBuf,
    file: File,
    sync: SyncPolicy,
    /// Bytes of complete records in the log.
    appended: u64,
}

impl Wal {
    /// Opens (or creates) the log at `path` for appending.
    pub fn open(path: impl AsRef<Path>, sync: SyncPolicy) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)?;
        let appended = file.metadata()?.len();
        Ok(Wal {
            path,
            file,
            sync,
            appended,
        })
    }

    /// Replays the log at `path` like [`replay`](Self::replay), then opens
    /// it for appending with a torn or corrupt tail cut off (and the cut
    /// synced), so records appended from here on follow the last intact
    /// one.
    pub fn recover(
        path: impl AsRef<Path>,
        sync: SyncPolicy,
        apply: impl FnMut(WriteBatch),
    ) -> Result<Self> {
        let (_, intact) = Self::replay_intact(path.as_ref(), apply)?;
        let mut wal = Self::open(path, sync)?;
        if wal.appended > intact {
            wal.file.set_len(intact)?;
            wal.file.sync_data()?;
            wal.appended = intact;
        }
        Ok(wal)
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes currently in the log.
    pub fn size(&self) -> u64 {
        self.appended
    }

    /// Appends `batch` as a single record, honouring the sync policy.  On
    /// failure the log is truncated back to its last complete record, so a
    /// retried append does not land behind a partial one.
    pub fn append(&mut self, batch: &WriteBatch) -> Result<()> {
        let count = (batch.len() as u32).to_be_bytes();
        let rep = batch.rep();
        let mut crc = Crc32::new();
        crc.update(&count);
        crc.update(rep);
        let payload_len = count.len() + rep.len();
        let mut header = [0; 12];
        header[..4].copy_from_slice(&(payload_len as u32).to_be_bytes());
        header[4..8].copy_from_slice(&crc.finish().to_be_bytes());
        header[8..].copy_from_slice(&count);
        if let Err(e) = self.write_record(&header, rep) {
            // Best effort: if the truncation fails too, the next `recover`
            // still cuts the partial record off.
            let _ = self.file.set_len(self.appended);
            return Err(e);
        }
        self.appended += (header.len() + rep.len()) as u64;
        Ok(())
    }

    /// Writes `header ‖ rep` with vectored writes, looping over short
    /// writes (one `write(2)` in the normal case), then syncs per policy.
    fn write_record(&mut self, header: &[u8], rep: &[u8]) -> Result<()> {
        let mut slices = [IoSlice::new(header), IoSlice::new(rep)];
        let mut pending = &mut slices[..];
        while !pending.is_empty() {
            match self.file.write_vectored(pending) {
                Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero).into()),
                Ok(n) => IoSlice::advance_slices(&mut pending, n),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        if self.sync == SyncPolicy::Always {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Forces all written data to disk regardless of the sync policy.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Truncates the log to zero length (after its contents have been made
    /// durable elsewhere, e.g. flushed to an SSTable).  The file is opened
    /// for appending, so the next record lands at the new end.
    pub fn truncate(&mut self) -> Result<()> {
        self.file.set_len(0)?;
        self.file.sync_data()?;
        self.appended = 0;
        Ok(())
    }

    /// Replays every intact record in `path`, invoking `apply` for each
    /// batch in append order.  Returns the number of batches recovered.
    ///
    /// A truncated or corrupt tail is tolerated (it is the expected result of
    /// a crash mid-append); corruption *before* the tail still surfaces as an
    /// error because the following records would be unreadable anyway.
    pub fn replay(path: impl AsRef<Path>, apply: impl FnMut(WriteBatch)) -> Result<usize> {
        Self::replay_intact(path.as_ref(), apply).map(|(batches, _)| batches)
    }

    /// [`replay`](Self::replay), also returning the length of the intact
    /// prefix: the end of the last record replayed.
    fn replay_intact(path: &Path, mut apply: impl FnMut(WriteBatch)) -> Result<(usize, u64)> {
        if !path.exists() {
            return Ok((0, 0));
        }
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut buf = Vec::with_capacity(len as usize);
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut buf)?;

        let mut pos = 0usize;
        let mut batches = 0usize;
        while pos + 8 <= buf.len() {
            let rec_len = u32::from_be_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
            let crc_expected = u32::from_be_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
            let start = pos + 8;
            let end = start + rec_len;
            if end > buf.len() {
                // Truncated tail — normal after a crash mid-append.
                break;
            }
            let payload = &buf[start..end];
            if crc32(payload) != crc_expected {
                // Corrupt tail — stop replay here.
                break;
            }
            let batch = Self::decode_batch(payload)?;
            apply(batch);
            batches += 1;
            pos = end;
        }
        Ok((batches, pos as u64))
    }

    fn decode_batch(payload: &[u8]) -> Result<WriteBatch> {
        let Some((count, rep)) = payload.split_first_chunk::<4>() else {
            return Err(TspError::corruption("WAL payload truncated (op count)"));
        };
        WriteBatch::decode(u32::from_be_bytes(*count) as usize, rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BatchOp;
    use crate::codec::Codec;
    use std::fs;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tsp-wal-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn batch(ops: &[(&[u8], Option<&[u8]>)]) -> WriteBatch {
        let mut b = WriteBatch::new();
        for (k, v) in ops {
            match v {
                Some(v) => b.put(k, v),
                None => b.delete(k),
            };
        }
        b
    }

    #[test]
    fn append_and_replay_round_trip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            wal.append(&batch(&[(b"k1", Some(b"v1")), (b"k2", Some(b"v2"))]))
                .unwrap();
            wal.append(&batch(&[(b"k1", None)])).unwrap();
            assert!(wal.size() > 0);
        }
        let mut recovered = Vec::new();
        let n = Wal::replay(&path, |b| recovered.push(b)).unwrap();
        assert_eq!(n, 2);
        assert_eq!(recovered[0].len(), 2);
        assert_eq!(
            recovered[0].iter().next(),
            Some(BatchOp::Put {
                key: b"k1",
                value: b"v1"
            })
        );
        assert_eq!(
            recovered[1].iter().next(),
            Some(BatchOp::Delete { key: b"k1" })
        );
        fs::remove_dir_all(dir).unwrap();
    }

    /// The on-disk record bytes are pinned: logs written before the batch
    /// became one encoded buffer must replay unchanged, and vice versa.
    #[test]
    fn record_bytes_are_pinned() {
        let dir = tmpdir("golden");
        let path = dir.join("wal.log");
        let mut b = WriteBatch::new();
        b.put(b"meter-7", (7u64, 42u64).encode())
            .put_with(&b"__tsp__/last_cts".to_vec(), &25u64)
            .delete(b"gone");
        {
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            wal.append(&b).unwrap();
            assert_eq!(wal.size(), 90);
        }
        let mut want = Vec::new();
        want.extend_from_slice(&82u32.to_be_bytes()); // payload length
        want.extend_from_slice(&0x732D_A12Bu32.to_be_bytes()); // CRC-32
        want.extend_from_slice(&3u32.to_be_bytes()); // op count
        want.push(0); // put "meter-7" -> (7, 42)
        want.extend_from_slice(&7u32.to_be_bytes());
        want.extend_from_slice(b"meter-7");
        want.extend_from_slice(&20u32.to_be_bytes());
        want.extend_from_slice(&8u32.to_be_bytes());
        want.extend_from_slice(&7u64.to_be_bytes());
        want.extend_from_slice(&42u64.to_be_bytes());
        want.push(0); // put "__tsp__/last_cts" -> 25
        want.extend_from_slice(&16u32.to_be_bytes());
        want.extend_from_slice(b"__tsp__/last_cts");
        want.extend_from_slice(&8u32.to_be_bytes());
        want.extend_from_slice(&25u64.to_be_bytes());
        want.push(1); // delete "gone"
        want.extend_from_slice(&4u32.to_be_bytes());
        want.extend_from_slice(b"gone");
        assert_eq!(fs::read(&path).unwrap(), want);

        let mut recovered = Vec::new();
        assert_eq!(Wal::replay(&path, |r| recovered.push(r)).unwrap(), 1);
        assert_eq!(recovered, vec![b.clone()]);
        let ops: Vec<_> = recovered[0].iter().collect();
        assert_eq!(
            ops,
            vec![
                BatchOp::Put {
                    key: b"meter-7",
                    value: &(7u64, 42u64).encode()
                },
                BatchOp::Put {
                    key: b"__tsp__/last_cts",
                    value: &25u64.encode()
                },
                BatchOp::Delete { key: b"gone" },
            ]
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn replay_missing_file_is_empty() {
        let dir = tmpdir("missing");
        let n = Wal::replay(dir.join("nope.log"), |_| panic!("should not be called")).unwrap();
        assert_eq!(n, 0);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn truncated_tail_is_tolerated() {
        let dir = tmpdir("trunc");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            wal.append(&batch(&[(b"a", Some(b"1"))])).unwrap();
            wal.append(&batch(&[(b"b", Some(b"2"))])).unwrap();
        }
        // Chop a few bytes off the end, simulating a crash mid-append.
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() - 3]).unwrap();
        let mut recovered = Vec::new();
        let n = Wal::replay(&path, |b| recovered.push(b)).unwrap();
        assert_eq!(n, 1);
        assert_eq!(recovered[0].iter().next().unwrap().key(), b"a");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn recover_cuts_the_torn_tail_before_appending() {
        let dir = tmpdir("recover");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            wal.append(&batch(&[(b"a", Some(b"1"))])).unwrap();
            wal.append(&batch(&[(b"b", Some(b"2"))])).unwrap();
        }
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() - 3]).unwrap();
        {
            let mut replayed = 0;
            let mut wal = Wal::recover(&path, SyncPolicy::Never, |_| replayed += 1).unwrap();
            assert_eq!(replayed, 1);
            assert_eq!(wal.size(), fs::metadata(&path).unwrap().len());
            wal.append(&batch(&[(b"c", Some(b"3"))])).unwrap();
        }
        let mut keys = Vec::new();
        let n = Wal::replay(&path, |b| {
            keys.push(b.iter().next().unwrap().key().to_vec())
        })
        .unwrap();
        assert_eq!(n, 2);
        assert_eq!(keys, vec![b"a".to_vec(), b"c".to_vec()]);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let dir = tmpdir("corrupt");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            wal.append(&batch(&[(b"a", Some(b"1"))])).unwrap();
            wal.append(&batch(&[(b"b", Some(b"2"))])).unwrap();
        }
        let mut data = fs::read(&path).unwrap();
        // Flip a payload byte of the second record; the first stays intact.
        let len = data.len();
        data[len - 1] ^= 0xFF;
        fs::write(&path, &data).unwrap();
        let n = Wal::replay(&path, |_| {}).unwrap();
        assert_eq!(n, 1);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn truncate_resets_and_log_remains_usable() {
        let dir = tmpdir("reset");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, SyncPolicy::Always).unwrap();
        wal.append(&batch(&[(b"a", Some(b"1"))])).unwrap();
        assert!(wal.size() > 0);
        wal.truncate().unwrap();
        assert_eq!(wal.size(), 0);
        wal.append(&batch(&[(b"z", Some(b"9"))])).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let mut keys = Vec::new();
        Wal::replay(&path, |b| {
            for op in b.iter() {
                keys.push(op.key().to_vec());
            }
        })
        .unwrap();
        assert_eq!(keys, vec![b"z".to_vec()]);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn reopen_appends_after_existing_records() {
        let dir = tmpdir("reopen");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            wal.append(&batch(&[(b"a", Some(b"1"))])).unwrap();
            wal.sync().unwrap();
        }
        {
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            wal.append(&batch(&[(b"b", Some(b"2"))])).unwrap();
            wal.sync().unwrap();
        }
        let n = Wal::replay(&path, |_| {}).unwrap();
        assert_eq!(n, 2);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn empty_batch_round_trips() {
        let dir = tmpdir("empty");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            wal.append(&WriteBatch::new()).unwrap();
        }
        let mut count = 0;
        Wal::replay(&path, |b| {
            assert!(b.is_empty());
            count += 1;
        })
        .unwrap();
        assert_eq!(count, 1);
        fs::remove_dir_all(dir).unwrap();
    }
}
