//! Group-wide redo log for exact torn-commit recovery.
//!
//! A multi-state group commit persists one batch *per participating state*,
//! and per-state batch writers drain independently — so a crash can tear the
//! group across backends: some states hold the commit, others lost it.  The
//! historical answer was to fence the recovered `LastCTS` to the minimum
//! marker the states agree on, silently orphaning the persisted half.  This
//! module removes that fence: every multi-state group commit additionally
//! writes a **redo record** — the effective write sets of *all* participating
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
//! ([`crate::wal::Wal`] shares the codec).  The optional `undo` tail carries
//! the committed pre-image the in-place protocols (S2PL, BOCC) captured
//! before overwriting their single-version store — the per-commit undo
//! values that let them restore a pre-state after a torn multi-participant
//! apply; the multi-version protocols leave it empty (their version store
//! already knows how to unlink an unpublished commit).
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

use crate::backend::{BatchOp, StorageBackend, WriteBatch};
use crate::checksum::crc32;
use crate::codec::Codec;
use crate::wal::{decode_batch_op, encode_batch_op};
use std::collections::BTreeMap;
use tsp_common::{Result, Timestamp, TspError};

/// Reserved key prefix of redo records inside a base table (below the
/// transactional layer's `__tsp__/` metadata namespace, so typed scans skip
/// them automatically).
pub const REDO_PREFIX: &[u8] = b"__tsp__/redo/";

const UNDO_NONE: u8 = 0;
const UNDO_ABSENT: u8 = 1;
const UNDO_VALUE: u8 = 2;

/// The storage key of the redo record for the group commit at `cts`.
pub fn redo_key(cts: Timestamp) -> Vec<u8> {
    let mut k = REDO_PREFIX.to_vec();
    cts.encode_into(&mut k);
    k
}

/// Extracts the commit timestamp from a redo-record key, if `key` is one.
pub fn parse_redo_key(key: &[u8]) -> Option<Timestamp> {
    let suffix = key.strip_prefix(REDO_PREFIX)?;
    Timestamp::decode(suffix).ok()
}

/// One redone operation: the batch op plus the optional committed pre-image
/// of its key (see the module docs for the undo-tag semantics).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RedoOp {
    /// The operation the commit applied.
    pub op: BatchOp,
    /// `None` — pre-image not captured (multi-version stores);
    /// `Some(None)` — the key was absent before the commit;
    /// `Some(Some(v))` — the committed value the op replaced.
    pub undo: Option<Option<Vec<u8>>>,
}

impl RedoOp {
    /// A redo op without a captured pre-image.
    pub fn new(op: BatchOp) -> Self {
        RedoOp { op, undo: None }
    }
}

/// One participating state's slice of a group commit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateRedo {
    /// The state's registered id (`StateId::as_u32`).
    pub state: u32,
    /// The state's effective write set at the record's commit timestamp.
    pub ops: Vec<RedoOp>,
}

impl StateRedo {
    /// The state's redo ops as a write batch (roll-forward replay).
    pub fn to_batch(&self) -> WriteBatch {
        let mut batch = WriteBatch::with_capacity(self.ops.len());
        for r in &self.ops {
            match &r.op {
                BatchOp::Put { key, value } => {
                    batch.put(key.clone(), value.clone());
                }
                BatchOp::Delete { key } => {
                    batch.delete(key.clone());
                }
            }
        }
        batch
    }
}

/// One group commit's redo record: every participating state's effective
/// write set at a single commit timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RedoRecord {
    /// The group commit timestamp.
    pub cts: Timestamp,
    /// Per-state sections, in the coordinator's participant order.
    pub states: Vec<StateRedo>,
}

impl RedoRecord {
    /// The section for `state`, if it participated in this commit.
    pub fn section_for(&self, state: u32) -> Option<&StateRedo> {
        self.states.iter().find(|s| s.state == state)
    }

    /// Serialises the record, CRC first (the stored byte layout).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(64 * self.states.len() + 16);
        self.cts.encode_into(&mut payload);
        payload.extend_from_slice(&(self.states.len() as u32).to_be_bytes());
        for section in &self.states {
            payload.extend_from_slice(&section.state.to_be_bytes());
            payload.extend_from_slice(&(section.ops.len() as u32).to_be_bytes());
            for r in &section.ops {
                encode_batch_op(&r.op, &mut payload);
                match &r.undo {
                    None => payload.push(UNDO_NONE),
                    Some(None) => payload.push(UNDO_ABSENT),
                    Some(Some(v)) => {
                        payload.push(UNDO_VALUE);
                        payload.extend_from_slice(&(v.len() as u32).to_be_bytes());
                        payload.extend_from_slice(v);
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(payload.len() + 4);
        out.extend_from_slice(&crc32(&payload).to_be_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Deserialises a stored record, verifying its checksum.
    pub fn decode(bytes: &[u8]) -> Result<RedoRecord> {
        if bytes.len() < 4 {
            return Err(TspError::corruption("redo record truncated (crc)"));
        }
        let crc_expected = u32::from_be_bytes(bytes[0..4].try_into().unwrap());
        let payload = &bytes[4..];
        if crc32(payload) != crc_expected {
            return Err(TspError::corruption("redo record checksum mismatch"));
        }
        let read_u32 = |buf: &[u8], pos: &mut usize| -> Result<u32> {
            if *pos + 4 > buf.len() {
                return Err(TspError::corruption("redo record truncated (u32)"));
            }
            let v = u32::from_be_bytes(buf[*pos..*pos + 4].try_into().unwrap());
            *pos += 4;
            Ok(v)
        };
        let mut pos = 0usize;
        if payload.len() < 8 {
            return Err(TspError::corruption("redo record truncated (cts)"));
        }
        let cts = Timestamp::decode(&payload[0..8])?;
        pos += 8;
        let state_count = read_u32(payload, &mut pos)? as usize;
        let mut states = Vec::with_capacity(state_count);
        for _ in 0..state_count {
            let state = read_u32(payload, &mut pos)?;
            let op_count = read_u32(payload, &mut pos)? as usize;
            let mut ops = Vec::with_capacity(op_count);
            for _ in 0..op_count {
                let op = decode_batch_op(payload, &mut pos)?;
                if pos >= payload.len() {
                    return Err(TspError::corruption("redo record truncated (undo tag)"));
                }
                let tag = payload[pos];
                pos += 1;
                let undo = match tag {
                    UNDO_NONE => None,
                    UNDO_ABSENT => Some(None),
                    UNDO_VALUE => {
                        let ulen = read_u32(payload, &mut pos)? as usize;
                        if pos + ulen > payload.len() {
                            return Err(TspError::corruption("redo record truncated (pre-image)"));
                        }
                        let v = payload[pos..pos + ulen].to_vec();
                        pos += ulen;
                        Some(Some(v))
                    }
                    other => {
                        return Err(TspError::corruption(format!(
                            "unknown redo undo tag {other}"
                        )));
                    }
                };
                ops.push(RedoOp { op, undo });
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
    let mut batch = WriteBatch::with_capacity(stale.len());
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

    fn sample_record(cts: Timestamp) -> RedoRecord {
        RedoRecord {
            cts,
            states: vec![
                StateRedo {
                    state: 1,
                    ops: vec![
                        RedoOp::new(BatchOp::Put {
                            key: b"a".to_vec(),
                            value: b"1".to_vec(),
                        }),
                        RedoOp {
                            op: BatchOp::Delete { key: b"b".to_vec() },
                            undo: Some(Some(b"old".to_vec())),
                        },
                    ],
                },
                StateRedo {
                    state: 2,
                    ops: vec![RedoOp {
                        op: BatchOp::Put {
                            key: b"c".to_vec(),
                            value: b"3".to_vec(),
                        },
                        undo: Some(None),
                    }],
                },
            ],
        }
    }

    #[test]
    fn record_round_trips_with_undo_images() {
        let rec = sample_record(42);
        let decoded = RedoRecord::decode(&rec.encode()).unwrap();
        assert_eq!(decoded, rec);
        assert_eq!(decoded.section_for(2).unwrap().ops.len(), 1);
        assert!(decoded.section_for(3).is_none());
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
    fn to_batch_preserves_op_order() {
        let rec = sample_record(3);
        let batch = rec.states[0].to_batch();
        let ops = batch.into_ops();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].key(), b"a");
        assert_eq!(ops[1].key(), b"b");
    }
}
