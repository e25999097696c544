//! The [`StorageBackend`] trait — the abstraction the paper's "table wrapper"
//! sits on top of.
//!
//! > "For the base table, any existing backend structure with a key-value
//! > mapping can be used.  Therefore, every state type can use a suitable
//! > underlying structure making our design extremely versatile." (§4.1)
//!
//! Backends operate on raw byte strings; typed access is layered on top via
//! [`crate::codec::Codec`].  Two backends ship with the workspace:
//!
//! * [`crate::memtable::BTreeBackend`] — sharded, ordered, purely in memory,
//! * [`crate::lsm::LsmStore`] — persistent WAL + LSM store, the stand-in for
//!   the RocksDB base table used in the paper's evaluation.

use crate::codec::{len_prefixed, Codec};
use std::sync::Arc;
use tsp_common::recycle::{recycle_vec, KEEP_BYTES};
use tsp_common::{Result, TspError};

const TAG_PUT: u8 = 0;
const TAG_DELETE: u8 = 1;

/// A borrowed view of one operation inside a [`WriteBatch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchOp<'a> {
    /// Insert or overwrite `key` with `value`.
    Put {
        /// Encoded key.
        key: &'a [u8],
        /// Encoded value.
        value: &'a [u8],
    },
    /// Remove `key` (a no-op if absent).
    Delete {
        /// Encoded key.
        key: &'a [u8],
    },
}

impl<'a> BatchOp<'a> {
    /// The key this operation touches.
    pub fn key(&self) -> &'a [u8] {
        match *self {
            BatchOp::Put { key, .. } | BatchOp::Delete { key } => key,
        }
    }
}

/// Appends one put in the WAL op encoding, the key and value written in
/// place by `key` and `value`.  Shared with [`crate::redo`], whose record
/// sections use the same op encoding.
pub(crate) fn encode_put(
    out: &mut Vec<u8>,
    key: impl FnOnce(&mut Vec<u8>),
    value: impl FnOnce(&mut Vec<u8>),
) {
    out.push(TAG_PUT);
    len_prefixed(out, key);
    len_prefixed(out, value);
}

/// Appends one delete in the WAL op encoding (see [`encode_put`]).
pub(crate) fn encode_delete(out: &mut Vec<u8>, key: impl FnOnce(&mut Vec<u8>)) {
    out.push(TAG_DELETE);
    len_prefixed(out, key);
}

/// Decodes one op of the WAL op encoding from `buf` at `*pos`, advancing
/// the cursor.  Inverse of [`encode_put`] / [`encode_delete`].
pub(crate) fn decode_op<'a>(buf: &'a [u8], pos: &mut usize) -> Result<BatchOp<'a>> {
    fn bytes<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
        let v = buf
            .get(*pos..*pos + n)
            .ok_or_else(|| TspError::corruption("batch op truncated"))?;
        *pos += n;
        Ok(v)
    }
    fn prefixed<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8]> {
        let len = bytes(buf, pos, 4)?.try_into().expect("a 4-byte slice");
        bytes(buf, pos, u32::from_be_bytes(len) as usize)
    }
    let tag = bytes(buf, pos, 1)?[0];
    let key = prefixed(buf, pos)?;
    match tag {
        TAG_PUT => Ok(BatchOp::Put {
            key,
            value: prefixed(buf, pos)?,
        }),
        TAG_DELETE => Ok(BatchOp::Delete { key }),
        other => Err(TspError::corruption(format!(
            "unknown batch op tag {other}"
        ))),
    }
}

/// An ordered group of operations applied together.
///
/// Backends apply a batch as a unit: the persistent [`crate::lsm::LsmStore`]
/// writes the whole batch as one WAL record, so after a crash either all or
/// none of the batch is recovered — the failure-atomicity the transactional
/// layer relies on when it propagates a commit to the base table.  The
/// transactional layer exploits this by folding its metadata — the `last_cts`
/// commit marker and, for multi-state group commits, the [`crate::redo`]
/// record — into the same batch as the data: marker, redo record and rows
/// are durable together or not at all.
///
/// ## Layout
///
/// A batch is an op count plus one contiguous buffer (`rep`) holding the
/// ops in the WAL op encoding ([`crate::wal`]):
///
/// ```text
/// rep  := op*
/// op   := tag:u8 (0 = put, 1 = delete)
///         klen:u32  key[klen]
///         (vlen:u32  value[vlen])      -- put only
/// ```
///
/// Typed keys and values are encoded straight into `rep`
/// ([`put_with`](Self::put_with)), the WAL stores `count ‖ rep` as the
/// record payload without re-encoding it, and coalescing batches is a
/// concatenation ([`append`](Self::append)).  [`iter`](Self::iter) yields
/// borrowed views into the buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WriteBatch {
    count: usize,
    rep: Vec<u8>,
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with room for `bytes` bytes of encoded ops.
    pub fn with_capacity(bytes: usize) -> Self {
        WriteBatch {
            count: 0,
            rep: Vec::with_capacity(bytes),
        }
    }

    /// Appends a put operation.
    pub fn put(&mut self, key: impl AsRef<[u8]>, value: impl AsRef<[u8]>) -> &mut Self {
        self.put_value_with(key, |out| out.extend_from_slice(value.as_ref()))
    }

    /// Appends a put whose value `write` appends in place (it must append
    /// exactly the value's bytes).
    pub fn put_value_with(
        &mut self,
        key: impl AsRef<[u8]>,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> &mut Self {
        encode_put(
            &mut self.rep,
            |out| out.extend_from_slice(key.as_ref()),
            write,
        );
        self.count += 1;
        self
    }

    /// Appends a put of a typed key and value, encoded in place through
    /// [`Codec::encode_into`].
    pub fn put_with<K: Codec, V: Codec>(&mut self, key: &K, value: &V) -> &mut Self {
        encode_put(
            &mut self.rep,
            |out| key.encode_into(out),
            |out| value.encode_into(out),
        );
        self.count += 1;
        self
    }

    /// Appends a delete operation.
    pub fn delete(&mut self, key: impl AsRef<[u8]>) -> &mut Self {
        encode_delete(&mut self.rep, |out| out.extend_from_slice(key.as_ref()));
        self.count += 1;
        self
    }

    /// Appends a delete of a typed key, encoded in place.
    pub fn delete_with<K: Codec>(&mut self, key: &K) -> &mut Self {
        encode_delete(&mut self.rep, |out| key.encode_into(out));
        self.count += 1;
        self
    }

    /// Appends every operation of `other`, in order (a buffer concatenation).
    pub fn append(&mut self, other: &WriteBatch) -> &mut Self {
        self.rep.extend_from_slice(&other.rep);
        self.count += other.count;
        self
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Size of the encoded operations in bytes.
    pub fn byte_len(&self) -> usize {
        self.rep.len()
    }

    /// Bytes the batch's buffer can hold before it reallocates.
    pub fn capacity(&self) -> usize {
        self.rep.capacity()
    }

    /// Empties the batch for its next use, keeping its buffer while the
    /// buffer is at most twice what this use needed (see
    /// [`tsp_common::recycle`]).
    pub fn recycle(&mut self) {
        self.count = 0;
        recycle_vec(&mut self.rep, KEEP_BYTES);
    }

    /// Iterates over the operations in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = BatchOp<'_>> {
        let mut pos = 0;
        (0..self.count).map(move |_| {
            decode_op(&self.rep, &mut pos).expect("a batch built through its API decodes")
        })
    }

    /// The encoded operations (the WAL record payload after the count).
    pub(crate) fn rep(&self) -> &[u8] {
        &self.rep
    }

    /// Rebuilds a batch from `count` ops in the WAL op encoding, verifying
    /// that `rep` holds exactly that many well-formed ops.
    pub(crate) fn decode(count: usize, rep: &[u8]) -> Result<WriteBatch> {
        let mut pos = 0;
        for _ in 0..count {
            decode_op(rep, &mut pos)?;
        }
        if pos != rep.len() {
            return Err(TspError::corruption(
                "trailing bytes after the last batch op",
            ));
        }
        Ok(WriteBatch {
            count,
            rep: rep.to_vec(),
        })
    }
}

/// Durability behaviour of a persistent backend.
///
/// Mirrors the paper's evaluation setting: "We kept the default configuration
/// and only set the sync option to true to guarantee failure atomicity."
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fsync after every committed batch — the paper's configuration.
    #[default]
    Always,
    /// Leave flushing to the OS page cache (fast, loses the tail on crash).
    Never,
}

/// A key-value storage backend usable as the base table of a transactional
/// state.
///
/// All methods take `&self`; backends are internally synchronised and shared
/// across operator threads behind an `Arc`.
///
/// # Error-classification contract
///
/// Every backend reports failures through `TspError` in a way that makes
/// `TspError::class()` meaningful: a condition that may heal on its own
/// (interrupted syscall, timeout, device busy) must surface as a *transient*
/// I/O error (`io::ErrorKind::Interrupted` / `TimedOut` / `WouldBlock` — see
/// `TspError::transient_io`); unrecoverable conditions (corruption, missing
/// files, permission errors) must surface as `TspError::Corruption` or a
/// permanent I/O kind.  The retrying [`crate::batch_writer::BatchWriter`]
/// relies on this split: transient `write_batch` failures are retried with
/// backoff, permanent ones make the writer sticky-failed immediately.
pub trait StorageBackend: Send + Sync + 'static {
    /// Returns the value stored under `key`, if any.
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>>;

    /// Looks `key` up and passes its value, if any, to `visit`, returning
    /// whether one was found.  Backends that can lend the value in place
    /// override this to save [`get`](Self::get)'s copy; the default goes
    /// through `get`.
    fn get_with(&self, key: &[u8], visit: &mut dyn FnMut(&[u8])) -> Result<bool> {
        Ok(self.get(key)?.map(|v| visit(&v)).is_some())
    }

    /// Inserts or overwrites `key`.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()>;

    /// Removes `key`; removing an absent key is not an error.
    fn delete(&self, key: &[u8]) -> Result<()>;

    /// Applies all operations of `batch` as a unit.
    fn write_batch(&self, batch: &WriteBatch) -> Result<()>;

    /// Calls `visit(key, value)` for every live entry.  Ordered backends
    /// visit keys in ascending byte order; hash backends in arbitrary order.
    /// Returning `false` from the visitor stops the scan early.
    fn scan(&self, visit: &mut dyn FnMut(&[u8], &[u8]) -> bool) -> Result<()>;

    /// Number of live entries.
    fn len(&self) -> usize;

    /// True if the backend holds no live entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forces buffered writes to durable storage (no-op for in-memory
    /// backends).
    fn sync(&self) -> Result<()>;

    /// Short human-readable backend name for reports and logs.
    fn name(&self) -> &'static str;
}

/// Blanket implementation so `Arc<B>` can be used wherever a backend is
/// expected (states share their base table with the recovery machinery).
impl<B: StorageBackend + ?Sized> StorageBackend for Arc<B> {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        (**self).get(key)
    }
    fn get_with(&self, key: &[u8], visit: &mut dyn FnMut(&[u8])) -> Result<bool> {
        (**self).get_with(key, visit)
    }
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        (**self).put(key, value)
    }
    fn delete(&self, key: &[u8]) -> Result<()> {
        (**self).delete(key)
    }
    fn write_batch(&self, batch: &WriteBatch) -> Result<()> {
        (**self).write_batch(batch)
    }
    fn scan(&self, visit: &mut dyn FnMut(&[u8], &[u8]) -> bool) -> Result<()> {
        (**self).scan(visit)
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn sync(&self) -> Result<()> {
        (**self).sync()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_batch_builder() {
        let mut b = WriteBatch::with_capacity(64);
        assert!(b.is_empty());
        b.put([1], [10]).delete(vec![2]);
        assert_eq!(b.len(), 2);
        let ops: Vec<_> = b.iter().collect();
        assert_eq!(
            ops[0],
            BatchOp::Put {
                key: &[1],
                value: &[10]
            }
        );
        assert_eq!(ops[1], BatchOp::Delete { key: &[2] });
        assert_eq!(ops[0].key(), &[1]);
        assert_eq!(ops[1].key(), &[2]);
    }

    #[test]
    fn typed_ops_encode_like_their_bytes() {
        let mut typed = WriteBatch::new();
        typed.put_with(&7u32, &(1u64, 2u64)).delete_with(&9u32);
        let mut raw = WriteBatch::new();
        raw.put(7u32.encode(), (1u64, 2u64).encode())
            .delete(9u32.encode());
        assert_eq!(typed, raw);
        let mut value = WriteBatch::new();
        value.put_value_with(7u32.encode(), |out| (1u64, 2u64).encode_into(out));
        value.delete(9u32.encode());
        assert_eq!(value, raw);
    }

    #[test]
    fn append_concatenates_in_order() {
        let mut a = WriteBatch::new();
        a.put(b"k", b"1");
        let mut b = WriteBatch::new();
        b.delete(b"k").put(b"j", b"2");
        a.append(&b);
        assert_eq!(a.len(), 3);
        let keys: Vec<_> = a.iter().map(|op| op.key()).collect();
        assert_eq!(keys, vec![&b"k"[..], b"k", b"j"]);
        assert_eq!(a.byte_len(), 2 * (1 + 4 + 1 + 4 + 1) + (1 + 4 + 1));
    }

    #[test]
    fn decode_rejects_malformed_reps() {
        let mut b = WriteBatch::new();
        b.put(b"key", b"value").delete(b"gone");
        assert_eq!(WriteBatch::decode(2, b.rep()).unwrap(), b);
        assert!(WriteBatch::decode(3, b.rep()).is_err(), "missing op");
        assert!(WriteBatch::decode(1, b.rep()).is_err(), "trailing op");
        let rep = b.rep();
        assert!(WriteBatch::decode(2, &rep[..rep.len() - 1]).is_err());
        let mut bad_tag = rep.to_vec();
        bad_tag[0] = 9;
        assert!(WriteBatch::decode(2, &bad_tag).is_err());
    }

    #[test]
    fn sync_policy_default_is_always() {
        assert_eq!(SyncPolicy::default(), SyncPolicy::Always);
    }
}
