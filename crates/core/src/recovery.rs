//! Recovery of transactional states after a crash or restart.
//!
//! The paper requires that "the results of successfully committed
//! transactions are still available after a system restart or crash" and
//! that the per-group `LastCTS` "needs to be persistent" (§4.1).  This module
//! restores that information:
//!
//! * every persistent table stores the commit timestamp of the last
//!   transaction applied to it under a reserved metadata key, written in the
//!   *same* atomic batch as the transaction's data (see
//!   [`crate::table::common::LAST_CTS_KEY`]) — durability therefore costs no
//!   extra fsync;
//! * uncommitted write sets are volatile by design, so nothing needs to be
//!   undone: after a restart only committed data exists in the base tables;
//! * multi-state group commits additionally fold a **group redo record**
//!   ([`tsp_storage::redo`]) into *every* participant's batch — the write
//!   sets of all the *other* participating states, checksummed, riding
//!   each batch's existing WAL record and fsync.  A crash that tears such
//!   a commit (some states' batches durable, others lost) therefore always
//!   leaves the lagging states' sections in the copies next to the
//!   surviving markers, and [`restore_group`] rolls the lagging states
//!   **forward** to the group's maximum logged commit: replay is exact,
//!   not a fence.  Since no copy holds its own state's section, recovery
//!   merges the sections of each commit across all intact copies.
//!
//! Earlier revisions of this module could only *detect* a torn group commit
//! and fence the group's visibility to the minimum stored timestamp,
//! hiding durable commits of the states that got their batches down.  With
//! the redo record that minimum rule is gone: `LastCTS` is restored to the
//! maximum stored timestamp, and any state behind a logged group commit is
//! repaired from the record before visibility resumes.
//!
//! Redo records do not accumulate: each table deletes the records it wrote
//! in a later commit batch once every state holding a copy durably applied
//! their commit (its writer's `DurableCTS` under asynchronous persistence,
//! the group's published `LastCTS` otherwise — see
//! [`crate::table::common::persist_pending`]).  A torn suffix is not
//! durable on every holder, so its records survive for [`restore_group`].  Records
//! left behind by a crashed run are truncated by a checkpoint
//! ([`tsp_storage::truncate_redo`] with the checkpoint watermark — see
//! `tsp_storage::checkpoint`); a stale tail of already-applied records below
//! every state's marker is ignored by recovery and harmless to replay.

use crate::clock::{GlobalClock, EPOCH_TS};
use crate::context::StateContext;
use crate::table::common::LAST_CTS_KEY;
use crate::telemetry::Counter;
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included};
use tsp_common::{GroupId, Result, StateId, Timestamp, TspError};
use tsp_storage::redo::{redo_key, scan_redo, RedoRecord};
use tsp_storage::{Codec, StorageBackend};

/// What recovery found for one group of states.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The group that was recovered.
    pub group: GroupId,
    /// The restored `LastCTS`: the maximum stored timestamp across the
    /// group's states, with any torn suffix rolled forward from the redo
    /// log first.
    pub last_cts: Timestamp,
    /// Per-state stored commit timestamps **as found on disk**, before any
    /// replay, in the order the backends were passed ([`None`] if a state
    /// never persisted a transaction).
    pub per_state: Vec<Option<Timestamp>>,
    /// True if the crash tore a multi-state group commit — some states'
    /// batches were durable, others not — and the torn suffix was rolled
    /// forward from the redo log.  Unlike earlier revisions, a tear no
    /// longer fences visibility: by the time this report is returned the
    /// lagging states have been repaired.
    pub torn_group_commit: bool,
    /// Number of group commits whose missing per-state batches were
    /// replayed from the redo log.
    pub replayed_commits: u64,
}

/// Reads the commit timestamp of the last transaction a persistent base
/// table has applied, if any.
pub fn recover_table_cts(backend: &dyn StorageBackend) -> Result<Option<Timestamp>> {
    match backend.get(LAST_CTS_KEY)? {
        None => Ok(None),
        Some(bytes) => Ok(Some(u64::decode(&bytes)?)),
    }
}

/// Restores the `LastCTS` of `group` from the persistent base tables of its
/// states (passed in the same order as the group's states) and returns a
/// [`RecoveryReport`].
///
/// The group's visibility horizon is restored to the **maximum** stored
/// timestamp.  When the per-state markers disagree, the gap is one of:
///
/// * single-state commits that legitimately advanced only some markers —
///   nothing to repair, the maximum is already consistent;
/// * a multi-state group commit torn by the crash — its redo record is
///   found next to every surviving marker (same atomic batch), and each
///   lagging state's missing ops are replayed into its backend, together
///   with the advanced marker and a copy of the record, as one atomic
///   batch.  Replay is idempotent: re-crashing mid-recovery just replays
///   the remaining suffix on the next restart.
///
/// Records are merged per commit from *all* the group's backends: each
/// copy holds the sections of the states other than its own, so the
/// sections of one `cts` are united across every intact copy.  Each copy
/// is CRC-guarded; a corrupt copy on one backend is skipped and the other
/// copies still supply the sections it held.
pub fn restore_group(
    ctx: &StateContext,
    group: GroupId,
    backends: &[&dyn StorageBackend],
) -> Result<RecoveryReport> {
    let states = ctx.group_states(group)?;
    if states.len() != backends.len() {
        return Err(TspError::config(format!(
            "restore_group: group {} has {} states but {} backends were passed",
            group.0,
            states.len(),
            backends.len()
        )));
    }
    let (per_state, replayed_commits) = replay_torn_suffix(&states, backends)?;
    let max = per_state
        .iter()
        .map(|c| c.unwrap_or(EPOCH_TS))
        .max()
        .unwrap_or(EPOCH_TS);

    ctx.restore_group_cts(group, max)?;
    ctx.telemetry().add(Counter::RedoReplays, replayed_commits);
    Ok(RecoveryReport {
        group,
        last_cts: max,
        per_state,
        torn_group_commit: replayed_commits > 0,
        replayed_commits,
    })
}

/// The replay core of [`restore_group`], also the recovery of a
/// partition's shards (see [`crate::partition`]): reads each state's
/// stored commit marker, merges the redo logs of every
/// backend, and rolls any lagging state forward through the logged group
/// commits in `(min, max]`.  A commit's sections are merged across every
/// intact copy of its record (no copy holds its own state's section).
///
/// Returns the per-state markers **as found on disk** (before replay, in
/// input order) and the number of group commits whose missing per-state
/// batches were replayed.  `states[i]` must be the state persisted in
/// `backends[i]` — redo record sections are matched by state id.
pub fn replay_torn_suffix(
    states: &[StateId],
    backends: &[&dyn StorageBackend],
) -> Result<(Vec<Option<Timestamp>>, u64)> {
    debug_assert_eq!(states.len(), backends.len());
    let mut per_state = Vec::with_capacity(backends.len());
    for b in backends {
        per_state.push(recover_table_cts(*b)?);
    }
    let markers: Vec<Timestamp> = per_state.iter().map(|c| c.unwrap_or(EPOCH_TS)).collect();
    let min = markers.iter().copied().min().unwrap_or(EPOCH_TS);
    let max = markers.iter().copied().max().unwrap_or(EPOCH_TS);

    let mut replayed_commits = 0u64;
    if min < max {
        // Merge the redo logs of every backend, section by section: a
        // state that lost its own batch recovers its section from any
        // participant that kept a copy.
        let mut records: BTreeMap<Timestamp, RedoRecord> = BTreeMap::new();
        for b in backends {
            for (cts, rec) in scan_redo(*b)? {
                let empty = RedoRecord {
                    cts,
                    states: Vec::new(),
                };
                records.entry(cts).or_insert(empty).merge(rec);
            }
        }
        // Ascending replay of the torn suffix: each lagging participant of
        // a logged group commit gets its section's ops, the advanced
        // marker and a copy of the merged record in one atomic batch, so a
        // crash during recovery is just a shorter tear.
        for (cts, rec) in records.range((Excluded(min), Included(max))) {
            let mut commit_was_torn = false;
            for (i, b) in backends.iter().enumerate() {
                if markers[i] >= *cts {
                    continue;
                }
                let Some(section) = rec.section_for(states[i].as_u32()) else {
                    continue;
                };
                let mut batch = section.ops.clone();
                batch.put(LAST_CTS_KEY, cts.encode());
                batch.put(redo_key(*cts), rec.encode());
                b.write_batch(&batch)?;
                commit_was_torn = true;
            }
            if commit_was_torn {
                replayed_commits += 1;
            }
        }
    }
    Ok((per_state, replayed_commits))
}

/// Builds a [`GlobalClock`] that resumes strictly after every timestamp any
/// of the given base tables has persisted, so post-recovery transactions can
/// never collide with pre-crash ones.
pub fn resume_clock(backends: &[&dyn StorageBackend]) -> Result<GlobalClock> {
    let mut max = EPOCH_TS;
    for b in backends {
        if let Some(cts) = recover_table_cts(*b)? {
            max = max.max(cts);
        }
    }
    Ok(GlobalClock::resume_from(max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::TransactionManager;
    use crate::table::MvccTable;
    use std::sync::Arc;
    use tsp_storage::checksum::crc32;
    use tsp_storage::redo::{RedoSections, StateRedo};
    use tsp_storage::{BTreeBackend, WriteBatch};

    fn committed_backend(values: &[(u32, u64)], cts: u64) -> Arc<BTreeBackend> {
        let b = Arc::new(BTreeBackend::new());
        for (k, v) in values {
            b.put(&k.encode(), &v.encode()).unwrap();
        }
        b.put(LAST_CTS_KEY, &cts.encode()).unwrap();
        b
    }

    fn puts(rows: &[(u32, u64)]) -> WriteBatch {
        let mut batch = WriteBatch::new();
        for (k, v) in rows {
            batch.put_with(k, v);
        }
        batch
    }

    /// The copy of the commit at `cts` that `holder`'s batch stores: the
    /// sections of every other state in `sections`.
    fn copy_for(cts: Timestamp, holder: StateId, sections: &[(StateId, &[(u32, u64)])]) -> Vec<u8> {
        let mut redo = RedoSections::new(cts);
        for (state, rows) in sections {
            redo.push(state.as_u32(), |w| {
                for (k, v) in *rows {
                    w.put_with(k, v);
                }
            });
        }
        let mut out = Vec::new();
        redo.encode_copy(Some(holder.as_u32()), &mut out);
        out
    }

    #[test]
    fn fresh_backend_has_no_cts() {
        let b = BTreeBackend::new();
        assert_eq!(recover_table_cts(&b).unwrap(), None);
    }

    #[test]
    fn restore_group_rolls_a_torn_suffix_forward_to_the_maximum() {
        let ctx = StateContext::new();
        let a = ctx.register_state("a");
        let b = ctx.register_state("b");
        let g = ctx.register_group(&[a, b]).unwrap();

        // Group commit 25 touched both states; state `a` lost its batch in
        // the crash, state `b` kept it — marker, data and redo record.
        let ba = committed_backend(&[(1, 10)], 20);
        let bb = committed_backend(&[(1, 11), (2, 22)], 25);
        let record = RedoRecord {
            cts: 25,
            states: vec![
                StateRedo {
                    state: a.as_u32(),
                    ops: puts(&[(2, 21)]),
                },
                StateRedo {
                    state: b.as_u32(),
                    ops: puts(&[(2, 22)]),
                },
            ],
        };
        bb.put(&redo_key(25), &record.encode()).unwrap();

        let report = restore_group(&ctx, g, &[&*ba, &*bb]).unwrap();
        assert_eq!(
            report.last_cts, 25,
            "visibility is rolled forward, not min-fenced"
        );
        assert!(report.torn_group_commit);
        assert_eq!(report.replayed_commits, 1);
        assert_eq!(report.per_state, vec![Some(20), Some(25)]);
        assert_eq!(ctx.last_cts(g).unwrap(), 25);
        // State `a` was repaired exactly: the missing op, the advanced
        // marker, and its own copy of the record.
        assert_eq!(recover_table_cts(&*ba).unwrap(), Some(25));
        assert_eq!(ba.get(&2u32.encode()).unwrap(), Some(21u64.encode()));
        assert_eq!(ba.get(&redo_key(25)).unwrap(), Some(record.encode()));
        assert_eq!(ctx.telemetry().count(Counter::RedoReplays), 1);
    }

    /// Each copy holds only the *other* states' sections, so a lagging
    /// state's section exists only in the survivors' copies, and the
    /// sections of one commit are merged across them.
    #[test]
    fn lagging_sections_are_found_in_the_survivors_copies_and_merged() {
        let ctx = StateContext::new();
        let a = ctx.register_state("a5");
        let b = ctx.register_state("b5");
        let c = ctx.register_state("c5");
        let g = ctx.register_group(&[a, b, c]).unwrap();

        // Commit 25 wrote all three states; `a` lost its batch.  Commit 30
        // wrote `b` and `c`; `c` lost its batch.
        let c25: [(StateId, &[(u32, u64)]); 3] =
            [(a, &[(1, 251)]), (b, &[(1, 252)]), (c, &[(1, 253)])];
        let c30: [(StateId, &[(u32, u64)]); 2] = [(b, &[(2, 302)]), (c, &[(2, 303)])];
        let ba = committed_backend(&[], 20);
        let bb = committed_backend(&[(1, 252), (2, 302)], 30);
        let bc = committed_backend(&[(1, 253)], 25);
        bb.put(&redo_key(25), &copy_for(25, b, &c25)).unwrap();
        bb.put(&redo_key(30), &copy_for(30, b, &c30)).unwrap();
        bc.put(&redo_key(25), &copy_for(25, c, &c25)).unwrap();
        for (store, own) in [(&bb, b), (&bc, c)] {
            let rec = RedoRecord::decode(&store.get(&redo_key(25)).unwrap().unwrap()).unwrap();
            assert!(rec.section_for(own.as_u32()).is_none(), "no own section");
        }

        let report = restore_group(&ctx, g, &[&*ba, &*bb, &*bc]).unwrap();
        assert_eq!(report.per_state, vec![Some(20), Some(30), Some(25)]);
        assert_eq!(report.last_cts, 30);
        assert_eq!(report.replayed_commits, 2);
        assert_eq!(ba.get(&1u32.encode()).unwrap(), Some(251u64.encode()));
        assert_eq!(recover_table_cts(&*ba).unwrap(), Some(25));
        assert_eq!(bc.get(&2u32.encode()).unwrap(), Some(303u64.encode()));
        assert_eq!(recover_table_cts(&*bc).unwrap(), Some(30));
        // `a`'s repaired copy is the merge of `b`'s copy ({a, c}) and
        // `c`'s copy ({a, b}): it holds every section.
        let merged = RedoRecord::decode(&ba.get(&redo_key(25)).unwrap().unwrap()).unwrap();
        for state in [a, b, c] {
            assert!(merged.section_for(state.as_u32()).is_some());
        }
    }

    /// A record written when every copy held every section, with the
    /// in-place protocols' pre-images as undo values, still replays.
    #[test]
    fn full_records_with_undo_images_still_replay() {
        let ctx = StateContext::new();
        let a = ctx.register_state("a6");
        let b = ctx.register_state("b6");
        let g = ctx.register_group(&[a, b]).unwrap();
        let ba = committed_backend(&[(1, 10)], 20);
        let bb = committed_backend(&[(1, 12)], 25);

        // payload := cts state_count (state op_count (op undo)*)*, with
        // undo 2 = a pre-image and undo 1 = the key was absent.
        let mut payload = Vec::new();
        payload.extend_from_slice(&25u64.to_be_bytes());
        payload.extend_from_slice(&2u32.to_be_bytes());
        for (state, value, pre_image) in [(a, 11u64, Some(10u64)), (b, 12, None)] {
            payload.extend_from_slice(&state.as_u32().to_be_bytes());
            payload.extend_from_slice(&1u32.to_be_bytes());
            payload.push(0); // put
            payload.extend_from_slice(&4u32.to_be_bytes());
            payload.extend_from_slice(&1u32.encode());
            payload.extend_from_slice(&8u32.to_be_bytes());
            payload.extend_from_slice(&value.encode());
            match pre_image {
                Some(v) => {
                    payload.push(2);
                    payload.extend_from_slice(&8u32.to_be_bytes());
                    payload.extend_from_slice(&v.encode());
                }
                None => payload.push(1),
            }
        }
        let mut stored = crc32(&payload).to_be_bytes().to_vec();
        stored.extend_from_slice(&payload);
        bb.put(&redo_key(25), &stored).unwrap();

        let report = restore_group(&ctx, g, &[&*ba, &*bb]).unwrap();
        assert_eq!(report.last_cts, 25);
        assert_eq!(report.replayed_commits, 1);
        assert_eq!(ba.get(&1u32.encode()).unwrap(), Some(11u64.encode()));
        assert_eq!(recover_table_cts(&*ba).unwrap(), Some(25));
    }

    #[test]
    fn marker_lag_without_a_record_is_single_state_commits_not_a_tear() {
        let ctx = StateContext::new();
        let a = ctx.register_state("a2");
        let b = ctx.register_state("b2");
        let g = ctx.register_group(&[a, b]).unwrap();

        // `b`'s marker leads because commits 21..=25 touched only `b`
        // (single-state batches write no redo record).  Nothing to repair.
        let ba = committed_backend(&[], 20);
        let bb = committed_backend(&[], 25);
        let report = restore_group(&ctx, g, &[&*ba, &*bb]).unwrap();
        assert_eq!(report.last_cts, 25);
        assert!(!report.torn_group_commit);
        assert_eq!(report.replayed_commits, 0);
        assert_eq!(recover_table_cts(&*ba).unwrap(), Some(20));

        // Agreement ⇒ trivially not torn.
        let bc = committed_backend(&[], 25);
        let bd = committed_backend(&[], 25);
        let report = restore_group(&ctx, g, &[&*bc, &*bd]).unwrap();
        assert_eq!(report.last_cts, 25);
        assert!(!report.torn_group_commit);
    }

    #[test]
    fn stale_redo_tail_below_every_marker_is_ignored() {
        let ctx = StateContext::new();
        let a = ctx.register_state("a3");
        let b = ctx.register_state("b3");
        let g = ctx.register_group(&[a, b]).unwrap();

        let ba = committed_backend(&[(1, 1)], 30);
        let bb = committed_backend(&[(1, 2)], 30);
        // A record from an already-fully-applied commit (checkpoint hasn't
        // truncated it yet) must not be replayed or disturb the report.
        let stale = RedoRecord {
            cts: 10,
            states: vec![StateRedo {
                state: a.as_u32(),
                ops: puts(&[(1, 999)]),
            }],
        };
        ba.put(&redo_key(10), &stale.encode()).unwrap();

        let report = restore_group(&ctx, g, &[&*ba, &*bb]).unwrap();
        assert_eq!(report.last_cts, 30);
        assert!(!report.torn_group_commit);
        assert_eq!(report.replayed_commits, 0);
        assert_eq!(
            ba.get(&1u32.encode()).unwrap(),
            Some(1u64.encode()),
            "stale record was not replayed"
        );
    }

    #[test]
    fn backend_count_mismatch_is_rejected() {
        let ctx = StateContext::new();
        let a = ctx.register_state("a4");
        let b = ctx.register_state("b4");
        let g = ctx.register_group(&[a, b]).unwrap();
        let ba = BTreeBackend::new();
        let err = restore_group(&ctx, g, &[&ba]).unwrap_err();
        assert!(matches!(err, TspError::Config { .. }));
    }

    #[test]
    fn resume_clock_skips_past_persisted_timestamps() {
        let ba = committed_backend(&[], 1000);
        let bb = committed_backend(&[], 500);
        let clock = resume_clock(&[&*ba, &*bb]).unwrap();
        assert!(clock.tick() > 1000);
        let empty = BTreeBackend::new();
        let clock = resume_clock(&[&empty]).unwrap();
        assert!(clock.tick() > EPOCH_TS);
    }

    #[test]
    fn end_to_end_restart_preserves_committed_data_only() {
        let backend_a = Arc::new(BTreeBackend::new());
        let backend_b = Arc::new(BTreeBackend::new());

        // --- First "process lifetime": commit one transaction, leave a
        // second one uncommitted, then "crash" (drop everything).
        {
            let ctx = Arc::new(StateContext::new());
            let mgr = TransactionManager::new(Arc::clone(&ctx));
            let a = MvccTable::<u32, u64>::persistent(&ctx, "a", backend_a.clone());
            let b = MvccTable::<u32, u64>::persistent(&ctx, "b", backend_b.clone());
            mgr.register(a.clone());
            mgr.register(b.clone());
            mgr.register_group(&[a.id(), b.id()]).unwrap();

            let committed = mgr.begin().unwrap();
            a.write(&committed, 1, 111).unwrap();
            b.write(&committed, 1, 222).unwrap();
            mgr.commit(&committed).unwrap();

            let in_flight = mgr.begin().unwrap();
            a.write(&in_flight, 2, 999).unwrap();
            // never committed — simulated crash
        }

        // --- Second lifetime: rebuild the context from the backends.
        let clock = resume_clock(&[&*backend_a, &*backend_b]).unwrap();
        let ctx = Arc::new(StateContext::with_clock(clock));
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let a = MvccTable::<u32, u64>::persistent(&ctx, "a", backend_a.clone());
        let b = MvccTable::<u32, u64>::persistent(&ctx, "b", backend_b.clone());
        mgr.register(a.clone());
        mgr.register(b.clone());
        let g = mgr.register_group(&[a.id(), b.id()]).unwrap();
        let report = restore_group(&ctx, g, &[&*backend_a, &*backend_b]).unwrap();
        assert!(!report.torn_group_commit);

        let r = mgr.begin_read_only().unwrap();
        assert_eq!(
            a.read(&r, &1).unwrap(),
            Some(111),
            "committed data survives"
        );
        assert_eq!(b.read(&r, &1).unwrap(), Some(222));
        assert_eq!(a.read(&r, &2).unwrap(), None, "uncommitted data is gone");
        mgr.commit(&r).unwrap();

        // New transactions keep working after recovery.
        let w = mgr.begin().unwrap();
        a.write(&w, 3, 333).unwrap();
        b.write(&w, 3, 444).unwrap();
        let cts = mgr.commit(&w).unwrap().unwrap();
        assert!(cts > report.last_cts);
    }
}
