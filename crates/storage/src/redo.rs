//! Group-wide redo log for exact torn-commit recovery.
//!
//! A multi-state group commit persists one batch *per participating state*,
//! and per-state batch writers drain independently — so a crash can tear the
//! group across backends: some states hold the commit, others lost it.  The
//! historical answer was to fence the recovered `LastCTS` to the minimum
//! marker the states agree on, silently orphaning the persisted half.  This
//! module removes that fence: every multi-state group commit additionally
//! writes a **redo record** — effective write sets of the participating
//! states, checksummed — under a reserved metadata key inside **each**
//! participant's own commit batch.  The record therefore
//!
//! * rides the exact same atomic batch (and, with the asynchronous pipeline,
//!   the same coalesced fsync) as the data it describes — durability costs no
//!   extra sync, and a batch is either entirely present (data + marker +
//!   record) or entirely absent;
//! * survives in every state that persisted the commit, so recovery can read
//!   the *lagging* states' missing batches out of any surviving copy and roll
//!   them forward to the maximum fully-logged commit timestamp.
//!
//! ## Which sections a copy holds
//!
//! A participant's copy carries the sections of **every other**
//! participant, not its own.  Its own section would be useless: if that
//! state lags at recovery, its batch — and the copy inside it — is gone,
//! while every state that did persist the commit holds the lagging state's
//! section.  Recovery therefore merges the sections of one `cts` across all
//! intact copies (`tsp_core::recovery::replay_torn_suffix`).
//!
//! Each participant's section is encoded once per commit, straight from its
//! typed ops ([`RedoSections`]); the per-participant copies are
//! concatenations of those bytes under a fresh header and CRC.
//!
//! ## Record format
//!
//! Stored under `__tsp__/redo/<cts:u64 big-endian>`:
//!
//! ```text
//! stored   := crc:u32  payload
//! payload  := cts:u64  state_count:u32  section*
//! section  := state_id:u32  op_count:u32  (op  undo)*
//! op       := tag:u8 (0 = put, 1 = delete)
//!             klen:u32  key[klen]
//!             (vlen:u32  value[vlen])      -- put only
//! undo     := tag:u8 (0 = not captured, 1 = key absent, 2 = pre-image)
//!             (ulen:u32  pre_image[ulen])  -- tag 2 only
//! ```
//!
//! The `op` encoding is byte-identical to a WAL record op
//! ([`crate::wal::Wal`] and [`WriteBatch`] share it).  Recovery only rolls
//! forward, so the engine writes the "not captured" undo tag for every op;
//! the in-place protocols (S2PL, BOCC) keep their pre-images in memory for
//! undoing a torn apply.  The layout is unchanged from when records carried
//! every section and those pre-images: a record with fewer sections, or
//! with undo tags 1 and 2, still decodes (the pre-images are skipped).
//!
//! ## Truncation
//!
//! Once every state of the group has durably stored a marker `>= w`, all
//! records with `cts <= w` are dead weight.  Records must only be deleted
//! at or below such a group-wide watermark — a record above it may still
//! be the only surviving copy of a torn suffix.  The transactional layer
//! applies the rule online: each table remembers the records it wrote and
//! deletes the dead ones in its next commit batch — with asynchronous
//! persistence once the writer of every state holding a copy has the
//! commit durable, with synchronous persistence at or below the group's
//! published `LastCTS` — see `tsp_core::table::common::persist_pending`.
//! Records a crashed run left behind are deleted by [`truncate_redo`] once
//! a checkpoint ([`crate::checkpoint::create_checkpoint`] of each state)
//! covers them.

use crate::backend::{decode_op, encode_delete, encode_put, BatchOp, StorageBackend, WriteBatch};
use crate::checksum::crc32;
use crate::codec::Codec;
use std::collections::BTreeMap;
use tsp_common::recycle::{recycle_vec, KEEP_BYTES, KEEP_ENTRIES};
use tsp_common::{Result, Timestamp, TspError};

/// Reserved key prefix of redo records inside a base table (below the
/// transactional layer's `__tsp__/` metadata namespace, so typed scans skip
/// them automatically).
pub const REDO_PREFIX: &[u8] = b"__tsp__/redo/";

const UNDO_NONE: u8 = 0;
const UNDO_ABSENT: u8 = 1;
const UNDO_VALUE: u8 = 2;

/// Length of a redo-record key: [`REDO_PREFIX`] and a big-endian `u64`.
pub const REDO_KEY_LEN: usize = REDO_PREFIX.len() + 8;

/// The storage key of the redo record for the group commit at `cts`.
pub fn redo_key(cts: Timestamp) -> [u8; REDO_KEY_LEN] {
    let mut k = [0; REDO_KEY_LEN];
    k[..REDO_PREFIX.len()].copy_from_slice(REDO_PREFIX);
    k[REDO_PREFIX.len()..].copy_from_slice(&cts.to_be_bytes());
    k
}

/// Extracts the commit timestamp from a redo-record key, if `key` is one.
pub fn parse_redo_key(key: &[u8]) -> Option<Timestamp> {
    let suffix = key.strip_prefix(REDO_PREFIX)?;
    Timestamp::decode(suffix).ok()
}

/// Appends the ops of one section, each followed by the "not captured"
/// undo tag, and counts them (see [`RedoSections::push`]).
pub struct SectionWriter<'a> {
    out: &'a mut Vec<u8>,
    ops: u32,
}

impl SectionWriter<'_> {
    /// Appends a put of a typed key and value, encoded in place.
    pub fn put_with<K: Codec, V: Codec>(&mut self, key: &K, value: &V) {
        encode_put(
            self.out,
            |out| key.encode_into(out),
            |out| value.encode_into(out),
        );
        self.end_op();
    }

    /// Appends a delete of a typed key, encoded in place.
    pub fn delete_with<K: Codec>(&mut self, key: &K) {
        encode_delete(self.out, |out| key.encode_into(out));
        self.end_op();
    }

    fn push(&mut self, op: BatchOp<'_>) {
        match op {
            BatchOp::Put { key, value } => encode_put(
                self.out,
                |out| out.extend_from_slice(key),
                |out| out.extend_from_slice(value),
            ),
            BatchOp::Delete { key } => encode_delete(self.out, |out| out.extend_from_slice(key)),
        }
        self.end_op();
    }

    fn end_op(&mut self) {
        self.out.push(UNDO_NONE);
        self.ops += 1;
    }
}

/// The sections of one group commit's redo record, each encoded exactly
/// once, from which every participant's stored copy is assembled
/// ([`encode_copy`](Self::encode_copy)).
#[derive(Debug, Default)]
pub struct RedoSections {
    cts: Timestamp,
    /// The encoded sections, back to back.
    buf: Vec<u8>,
    /// Each section's state id and byte range in `buf`.
    spans: Vec<(u32, std::ops::Range<usize>)>,
}

impl RedoSections {
    /// No sections yet, for the group commit at `cts`.
    pub fn new(cts: Timestamp) -> Self {
        RedoSections {
            cts,
            buf: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Empties the sections for the group commit at `cts`, keeping the
    /// buffers while they are at most twice what the last commit needed
    /// (see [`tsp_common::recycle`]).
    pub fn reset(&mut self, cts: Timestamp) {
        self.cts = cts;
        recycle_vec(&mut self.buf, KEEP_BYTES);
        recycle_vec(&mut self.spans, KEEP_ENTRIES);
    }

    /// Encodes `state`'s section: `write` appends the state's effective
    /// ops.  A section with no ops is dropped.
    pub fn push(&mut self, state: u32, write: impl FnOnce(&mut SectionWriter<'_>)) {
        let start = self.buf.len();
        self.buf.extend_from_slice(&state.to_be_bytes());
        self.buf.extend_from_slice(&[0; 4]);
        let mut w = SectionWriter {
            out: &mut self.buf,
            ops: 0,
        };
        write(&mut w);
        let ops = w.ops;
        if ops == 0 {
            self.buf.truncate(start);
            return;
        }
        self.buf[start + 4..start + 8].copy_from_slice(&ops.to_be_bytes());
        self.spans.push((state, start..self.buf.len()));
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if no state contributed a section.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The states with a section, in push order.
    pub fn states(&self) -> impl Iterator<Item = u32> + '_ {
        self.spans.iter().map(|(state, _)| *state)
    }

    /// Appends the stored record (CRC first) holding every section except
    /// `holder`'s own — the copy `holder`'s commit batch carries (see the
    /// module docs).  `None` keeps every section.
    pub fn encode_copy(&self, holder: Option<u32>, out: &mut Vec<u8>) {
        let kept = || self.spans.iter().filter(|(s, _)| Some(*s) != holder);
        let at = out.len();
        out.extend_from_slice(&[0; 4]);
        self.cts.encode_into(out);
        out.extend_from_slice(&(kept().count() as u32).to_be_bytes());
        for (_, span) in kept() {
            out.extend_from_slice(&self.buf[span.clone()]);
        }
        let crc = crc32(&out[at + 4..]);
        out[at..at + 4].copy_from_slice(&crc.to_be_bytes());
    }
}

/// One participating state's slice of a group commit, as decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateRedo {
    /// The state's registered id (`StateId::as_u32`).
    pub state: u32,
    /// The state's effective write set at the record's commit timestamp —
    /// the batch recovery replays into a lagging state.
    pub ops: WriteBatch,
}

/// One group commit's redo record, as decoded from one or more stored
/// copies: the sections of the participating states at one commit
/// timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RedoRecord {
    /// The group commit timestamp.
    pub cts: Timestamp,
    /// Per-state sections, in the coordinator's participant order.
    pub states: Vec<StateRedo>,
}

impl RedoRecord {
    /// The section for `state`, if the record holds one.
    pub fn section_for(&self, state: u32) -> Option<&StateRedo> {
        self.states.iter().find(|s| s.state == state)
    }

    /// Adds the sections of `other` — another copy of the same commit's
    /// record — that this one lacks.
    pub fn merge(&mut self, other: RedoRecord) {
        debug_assert_eq!(self.cts, other.cts);
        for section in other.states {
            if self.section_for(section.state).is_none() {
                self.states.push(section);
            }
        }
    }

    /// Serialises the record, CRC first (the stored byte layout), with
    /// every section.
    pub fn encode(&self) -> Vec<u8> {
        let mut sections = RedoSections::new(self.cts);
        for section in &self.states {
            sections.push(section.state, |w| {
                for op in section.ops.iter() {
                    w.push(op);
                }
            });
        }
        let mut out = Vec::with_capacity(sections.buf.len() + 16);
        sections.encode_copy(None, &mut out);
        out
    }

    /// Deserialises a stored record, verifying its checksum.  Captured
    /// pre-images (undo tags 1 and 2) are accepted and skipped.
    pub fn decode(bytes: &[u8]) -> Result<RedoRecord> {
        let Some((crc, payload)) = bytes.split_first_chunk::<4>() else {
            return Err(TspError::corruption("redo record truncated (crc)"));
        };
        if crc32(payload) != u32::from_be_bytes(*crc) {
            return Err(TspError::corruption("redo record checksum mismatch"));
        }
        let read_u32 = |pos: &mut usize| -> Result<u32> {
            let v = payload
                .get(*pos..*pos + 4)
                .ok_or_else(|| TspError::corruption("redo record truncated (u32)"))?;
            *pos += 4;
            Ok(u32::from_be_bytes(v.try_into().expect("a 4-byte slice")))
        };
        if payload.len() < 8 {
            return Err(TspError::corruption("redo record truncated (cts)"));
        }
        let cts = Timestamp::decode(&payload[0..8])?;
        let mut pos = 8usize;
        let state_count = read_u32(&mut pos)? as usize;
        let mut states = Vec::with_capacity(state_count.min(64));
        for _ in 0..state_count {
            let state = read_u32(&mut pos)?;
            let op_count = read_u32(&mut pos)? as usize;
            let mut ops = WriteBatch::new();
            for _ in 0..op_count {
                match decode_op(payload, &mut pos)? {
                    BatchOp::Put { key, value } => ops.put(key, value),
                    BatchOp::Delete { key } => ops.delete(key),
                };
                let tag = *payload
                    .get(pos)
                    .ok_or_else(|| TspError::corruption("redo record truncated (undo tag)"))?;
                pos += 1;
                match tag {
                    UNDO_NONE | UNDO_ABSENT => {}
                    UNDO_VALUE => {
                        let ulen = read_u32(&mut pos)? as usize;
                        if pos + ulen > payload.len() {
                            return Err(TspError::corruption("redo record truncated (pre-image)"));
                        }
                        pos += ulen;
                    }
                    other => {
                        return Err(TspError::corruption(format!(
                            "unknown redo undo tag {other}"
                        )));
                    }
                }
            }
            states.push(StateRedo { state, ops });
        }
        Ok(RedoRecord { cts, states })
    }
}

/// Reads every *intact* redo record stored in `backend`, keyed by commit
/// timestamp.
///
/// A record whose checksum or encoding fails verification is skipped, not an
/// error: recovery merges the scans of all group members, and another state's
/// copy of the same commit may still be intact (a torn write inside one
/// backend must not block recovering from a healthy one).
pub fn scan_redo(backend: &dyn StorageBackend) -> Result<BTreeMap<Timestamp, RedoRecord>> {
    let mut records = BTreeMap::new();
    backend.scan(&mut |k, v| {
        if let Some(cts) = parse_redo_key(k) {
            if let Ok(rec) = RedoRecord::decode(v) {
                if rec.cts == cts {
                    records.insert(cts, rec);
                }
            }
        }
        true
    })?;
    Ok(records)
}

/// Deletes every redo record with `cts <= watermark` from `backend` in one
/// batch.  Returns the number of records removed.
///
/// Safe only for a *group-wide* watermark: every state of the group must
/// already hold a durable commit marker `>= watermark` (the checkpoint
/// contract in the module docs); records above it may be the only surviving
/// copy of a torn suffix and must stay.
pub fn truncate_redo(backend: &dyn StorageBackend, watermark: Timestamp) -> Result<u64> {
    let mut stale = Vec::new();
    backend.scan(&mut |k, _| {
        if let Some(cts) = parse_redo_key(k) {
            if cts <= watermark {
                stale.push(k.to_vec());
            }
        }
        true
    })?;
    if stale.is_empty() {
        return Ok(0);
    }
    let mut batch = WriteBatch::new();
    let count = stale.len() as u64;
    for k in stale {
        batch.delete(k);
    }
    backend.write_batch(&batch)?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::BTreeBackend;

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

    fn sample_record(cts: Timestamp) -> RedoRecord {
        RedoRecord {
            cts,
            states: vec![
                StateRedo {
                    state: 1,
                    ops: batch(&[(b"a", Some(b"1")), (b"b", None)]),
                },
                StateRedo {
                    state: 2,
                    ops: batch(&[(b"c", Some(b"3"))]),
                },
            ],
        }
    }

    #[test]
    fn record_round_trips() {
        let rec = sample_record(42);
        let decoded = RedoRecord::decode(&rec.encode()).unwrap();
        assert_eq!(decoded, rec);
        assert_eq!(decoded.section_for(2).unwrap().ops.len(), 1);
        assert!(decoded.section_for(3).is_none());
    }

    #[test]
    fn each_copy_holds_the_other_sections_in_the_record_layout() {
        let mut sections = RedoSections::new(42);
        sections.push(1, |w| {
            w.put_with(&b"a".to_vec(), &b"1".to_vec());
            w.delete_with(&b"b".to_vec());
        });
        sections.push(3, |_| {}); // nothing to persist: no section
        sections.push(2, |w| w.put_with(&b"c".to_vec(), &b"3".to_vec()));
        assert_eq!(sections.len(), 2);
        assert_eq!(sections.states().collect::<Vec<_>>(), vec![1, 2]);

        let full = sample_record(42);
        let mut all = Vec::new();
        sections.encode_copy(None, &mut all);
        assert_eq!(all, full.encode());

        let mut copy = vec![0xEE];
        sections.encode_copy(Some(1), &mut copy);
        assert_eq!(copy[0], 0xEE, "appends after existing bytes");
        let decoded = RedoRecord::decode(&copy[1..]).unwrap();
        assert_eq!(decoded.states, vec![full.states[1].clone()]);

        // Merging the two copies restores the full record.
        let mut other = Vec::new();
        sections.encode_copy(Some(2), &mut other);
        let mut merged = RedoRecord::decode(&other).unwrap();
        merged.merge(decoded);
        assert_eq!(merged, full);
    }

    /// A record with captured pre-images (undo tags 1 and 2), as written
    /// when the in-place protocols shipped them, still decodes.
    #[test]
    fn records_with_undo_images_decode() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&9u64.to_be_bytes());
        payload.extend_from_slice(&1u32.to_be_bytes());
        payload.extend_from_slice(&4u32.to_be_bytes()); // state 4
        payload.extend_from_slice(&2u32.to_be_bytes()); // two ops
        encode_put(
            &mut payload,
            |o| o.extend_from_slice(b"k"),
            |o| o.extend_from_slice(b"new"),
        );
        payload.push(UNDO_VALUE);
        payload.extend_from_slice(&3u32.to_be_bytes());
        payload.extend_from_slice(b"old");
        encode_delete(&mut payload, |o| o.extend_from_slice(b"j"));
        payload.push(UNDO_ABSENT);
        let mut stored = crc32(&payload).to_be_bytes().to_vec();
        stored.extend_from_slice(&payload);

        let rec = RedoRecord::decode(&stored).unwrap();
        assert_eq!(rec.cts, 9);
        assert_eq!(
            rec.section_for(4).unwrap().ops,
            batch(&[(b"k", Some(b"new")), (b"j", None)])
        );
        // An unknown undo tag is corruption, not silently skipped.
        let tag_at = payload.len() - 1;
        payload[tag_at] = 7;
        let mut stored = crc32(&payload).to_be_bytes().to_vec();
        stored.extend_from_slice(&payload);
        assert!(RedoRecord::decode(&stored).is_err());
    }

    #[test]
    fn checksum_guards_the_payload() {
        let mut bytes = sample_record(7).encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(RedoRecord::decode(&bytes).is_err());
        assert!(RedoRecord::decode(&bytes[..3]).is_err());
    }

    #[test]
    fn redo_keys_round_trip_and_sort_by_cts() {
        assert_eq!(parse_redo_key(&redo_key(9)), Some(9));
        assert_eq!(parse_redo_key(b"__tsp__/last_cts"), None);
        assert!(redo_key(9) < redo_key(10), "big-endian keys sort by cts");
    }

    #[test]
    fn scan_skips_corrupt_copies_and_truncate_bounds_the_log() {
        let b = BTreeBackend::new();
        for cts in [5u64, 9, 12] {
            let rec = sample_record(cts);
            b.put(&redo_key(cts), &rec.encode()).unwrap();
        }
        // A corrupt copy is skipped, not fatal.
        b.put(&redo_key(10), b"garbage").unwrap();
        let records = scan_redo(&b).unwrap();
        assert_eq!(records.keys().copied().collect::<Vec<_>>(), vec![5, 9, 12]);

        assert_eq!(truncate_redo(&b, 9).unwrap(), 2);
        let records = scan_redo(&b).unwrap();
        assert_eq!(records.keys().copied().collect::<Vec<_>>(), vec![12]);
        assert_eq!(truncate_redo(&b, 9).unwrap(), 0, "idempotent");
        // The corrupt key at cts 10 was swept by the watermark? No — 10 > 9.
        // It is garbage-collected once the watermark passes it.
        assert_eq!(truncate_redo(&b, 12).unwrap(), 2);
        assert!(scan_redo(&b).unwrap().is_empty());
    }

    #[test]
    fn section_ops_keep_their_order() {
        let rec = RedoRecord::decode(&sample_record(3).encode()).unwrap();
        let keys: Vec<_> = rec.states[0].ops.iter().map(|op| op.key()).collect();
        assert_eq!(keys, vec![&b"a"[..], b"b"]);
    }
}
