//! Crash-recovery integration tests on the persistent LSM base tables.
//!
//! `tests/end_to_end.rs` covers the happy-path restart; these tests exercise
//! the harder corners: recovery from the WAL alone (no SSTable flush ever
//! happened), recovery after many flush/compaction cycles, the torn
//! multi-state group commit that recovery rolls forward *exactly* from the
//! group redo log (§4.1 "LastCTS … needs to be persistent"), and the
//! interplay between checkpoints and redo-log truncation.

use std::sync::Arc;
use tsp::core::prelude::*;
use tsp::core::table::{attach_group_redo, TxParticipant};
use tsp::storage::{
    create_checkpoint, lsm, restore_checkpoint, scan_redo, truncate_redo, LsmOptions, LsmStore,
};

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tsp-reclsm-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Pair {
    mgr: Arc<TransactionManager>,
    ctx: Arc<StateContext>,
    a: Arc<MvccTable<u32, u64>>,
    b: Arc<MvccTable<u32, u64>>,
    backend_a: Arc<LsmStore>,
    backend_b: Arc<LsmStore>,
    group: tsp::common::GroupId,
}

/// Opens (or re-opens) a two-state group backed by two LSM stores in `dir`.
fn open_pair(dir: &std::path::Path, opts: &LsmOptions, recover: bool) -> Pair {
    let backend_a = Arc::new(LsmStore::open(dir.join("state_a"), opts.clone()).unwrap());
    let backend_b = Arc::new(LsmStore::open(dir.join("state_b"), opts.clone()).unwrap());
    let ctx = if recover {
        let clock = resume_clock(&[&*backend_a, &*backend_b]).unwrap();
        Arc::new(StateContext::with_clock(clock))
    } else {
        Arc::new(StateContext::new())
    };
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let a = MvccTable::<u32, u64>::persistent(&ctx, "a", backend_a.clone());
    let b = MvccTable::<u32, u64>::persistent(&ctx, "b", backend_b.clone());
    mgr.register(a.clone());
    mgr.register(b.clone());
    let group = mgr.register_group(&[a.id(), b.id()]).unwrap();
    Pair {
        mgr,
        ctx,
        a,
        b,
        backend_a,
        backend_b,
        group,
    }
}

#[test]
fn wal_only_commits_survive_restart() {
    let dir = temp_dir("walonly");
    // Large memtable budget: nothing is ever flushed to an SSTable, so the
    // committed data lives exclusively in the WAL when the "crash" happens.
    let opts = LsmOptions::no_sync().with_memtable_budget(64 * 1024 * 1024);
    {
        let p = open_pair(&dir, &opts, false);
        for i in 0..50u32 {
            let tx = p.mgr.begin().unwrap();
            p.a.write(&tx, i, i as u64).unwrap();
            p.b.write(&tx, i, (i as u64) * 2).unwrap();
            p.mgr.commit(&tx).unwrap();
        }
        assert_eq!(
            p.backend_a.sstable_count(),
            0,
            "nothing may have been flushed"
        );
    }
    let p = open_pair(&dir, &opts, true);
    let report = restore_group(&p.ctx, p.group, &[&*p.backend_a, &*p.backend_b]).unwrap();
    assert!(!report.torn_group_commit);
    assert!(report.last_cts > 0);
    let q = p.mgr.begin_read_only().unwrap();
    for i in 0..50u32 {
        assert_eq!(p.a.read(&q, &i).unwrap(), Some(i as u64));
        assert_eq!(p.b.read(&q, &i).unwrap(), Some((i as u64) * 2));
    }
    p.mgr.commit(&q).unwrap();
    lsm::destroy(dir.join("state_a")).unwrap();
    lsm::destroy(dir.join("state_b")).unwrap();
}

#[test]
fn recovery_after_flushes_and_compactions() {
    let dir = temp_dir("compacted");
    // Tiny memtable and low compaction threshold force many flushes and at
    // least one compaction during the write phase.
    let opts = LsmOptions::no_sync()
        .with_memtable_budget(2 * 1024)
        .with_compaction_threshold(3);
    let rounds = 20u64;
    {
        let p = open_pair(&dir, &opts, false);
        for round in 0..rounds {
            let tx = p.mgr.begin().unwrap();
            // 20 fresh keys per round (grows the store past several memtable
            // budgets) plus a repeated overwrite of key 0 (newest must win
            // across flushes and compactions).
            for i in 0..20u32 {
                let key = round as u32 * 20 + i;
                p.a.write(&tx, key, round).unwrap();
                p.b.write(&tx, key, round + 1000).unwrap();
            }
            p.a.write(&tx, 0, round).unwrap();
            p.b.write(&tx, 0, round + 1000).unwrap();
            p.mgr.commit(&tx).unwrap();
        }
        assert!(
            p.backend_a.sstable_count() >= 1,
            "the write volume must have forced at least one flush"
        );
    }
    let p = open_pair(&dir, &opts, true);
    let report = restore_group(&p.ctx, p.group, &[&*p.backend_a, &*p.backend_b]).unwrap();
    assert!(!report.torn_group_commit);
    let q = p.mgr.begin_read_only().unwrap();
    for round in 0..rounds {
        let probe = round as u32 * 20 + 7;
        assert_eq!(p.a.read(&q, &probe).unwrap(), Some(round));
        assert_eq!(p.b.read(&q, &probe).unwrap(), Some(round + 1000));
    }
    assert_eq!(
        p.a.read(&q, &0).unwrap(),
        Some(rounds - 1),
        "newest overwrite wins"
    );
    p.mgr.commit(&q).unwrap();

    // The resumed clock hands out strictly newer commit timestamps.
    let w = p.mgr.begin().unwrap();
    p.a.write(&w, 0, 7777).unwrap();
    p.b.write(&w, 0, 8888).unwrap();
    let cts = p.mgr.commit(&w).unwrap().unwrap();
    assert!(cts > report.last_cts);
    lsm::destroy(dir.join("state_a")).unwrap();
    lsm::destroy(dir.join("state_b")).unwrap();
}

/// Drives a group commit half-way, exactly as the manager would: validate,
/// apply both states in memory, assemble the group redo record, persist
/// state A only — then "crash" before state B persists and before the group
/// publishes.  Returns the interrupted commit timestamp.
fn tear_group_commit(p: &Pair, key: u32, a_val: u64, b_val: u64) -> u64 {
    let w = p.ctx.begin(false).unwrap();
    p.a.write(&w, key, a_val).unwrap();
    p.b.write(&w, key, b_val).unwrap();
    p.a.validate(&w, true).unwrap();
    p.b.validate(&w, true).unwrap();
    let cts = p.ctx.clock().next_commit_ts();
    p.a.apply(&w, cts).unwrap();
    p.b.apply(&w, cts).unwrap();
    let participants: Vec<Arc<dyn TxParticipant>> =
        vec![p.a.clone().as_participant(), p.b.clone().as_participant()];
    attach_group_redo(&p.ctx, &w, cts, participants.iter());
    p.a.apply_durable(&w, cts).unwrap();
    // State B never persists; the process dies here.
    cts
}

#[test]
fn torn_group_commit_is_replayed_exactly_from_the_redo_log() {
    let dir = temp_dir("torn");
    let opts = LsmOptions::no_sync();
    let interrupted_cts;
    {
        let p = open_pair(&dir, &opts, false);
        // A clean group commit first.
        let tx = p.mgr.begin().unwrap();
        p.a.write(&tx, 1, 10).unwrap();
        p.b.write(&tx, 1, 20).unwrap();
        p.mgr.commit(&tx).unwrap();
        interrupted_cts = tear_group_commit(&p, 2, 200, 400);
    }
    let p = open_pair(&dir, &opts, true);
    let report = restore_group(&p.ctx, p.group, &[&*p.backend_a, &*p.backend_b]).unwrap();
    assert!(
        report.torn_group_commit,
        "the interrupted group commit must be detected"
    );
    assert_eq!(report.replayed_commits, 1);
    // Exact recovery: the horizon is the interrupted commit itself — state
    // A's durable batch carried the whole group's redo record, so state B
    // is rolled forward instead of A being fenced back.
    assert_eq!(report.last_cts, interrupted_cts);
    assert_eq!(report.per_state.len(), 2);
    assert_eq!(
        report.per_state[0].unwrap(),
        interrupted_cts,
        "state A persisted the interrupted transaction"
    );
    assert!(
        report.per_state[1].unwrap() < interrupted_cts,
        "state B's marker lagged before replay"
    );
    assert_eq!(
        recover_table_cts(&*p.backend_b).unwrap(),
        Some(interrupted_cts),
        "replay advanced state B's durable marker"
    );

    // Both halves of the interrupted commit are visible, byte-exact.
    let q = p.mgr.begin_read_only().unwrap();
    assert_eq!(p.a.read(&q, &1).unwrap(), Some(10));
    assert_eq!(p.b.read(&q, &1).unwrap(), Some(20));
    assert_eq!(p.a.read(&q, &2).unwrap(), Some(200));
    assert_eq!(p.b.read(&q, &2).unwrap(), Some(400));
    p.mgr.commit(&q).unwrap();

    // The system keeps accepting new group commits after recovery.
    let w = p.mgr.begin().unwrap();
    p.a.write(&w, 3, 1).unwrap();
    p.b.write(&w, 3, 2).unwrap();
    assert!(p.mgr.commit(&w).unwrap().unwrap() > interrupted_cts);
    lsm::destroy(dir.join("state_a")).unwrap();
    lsm::destroy(dir.join("state_b")).unwrap();
}

/// Regression: the minimum-fence rule is gone.  A marker lag with no redo
/// record behind it (single-state commits) restores the *maximum* marker —
/// earlier revisions fenced the whole group to the minimum.
#[test]
fn recovery_report_no_longer_min_fences() {
    let dir = temp_dir("nominfence");
    let opts = LsmOptions::no_sync();
    let a_only_cts;
    {
        let p = open_pair(&dir, &opts, false);
        let tx = p.mgr.begin().unwrap();
        p.a.write(&tx, 1, 1).unwrap();
        p.b.write(&tx, 1, 2).unwrap();
        p.mgr.commit(&tx).unwrap();
        // Single-state commits advance only A's marker — a legitimate,
        // benign lag, not a tear.
        let tx = p.mgr.begin().unwrap();
        p.a.write(&tx, 2, 22).unwrap();
        a_only_cts = p.mgr.commit(&tx).unwrap().unwrap();
    }
    let p = open_pair(&dir, &opts, true);
    let report = restore_group(&p.ctx, p.group, &[&*p.backend_a, &*p.backend_b]).unwrap();
    let max_marker = report.per_state.iter().flatten().copied().max().unwrap();
    let min_marker = report.per_state.iter().flatten().copied().min().unwrap();
    assert!(
        min_marker < max_marker,
        "the markers must actually disagree"
    );
    assert_eq!(
        report.last_cts, max_marker,
        "the restored horizon is the maximum marker, not the minimum"
    );
    assert_eq!(report.last_cts, a_only_cts);
    assert!(!report.torn_group_commit);
    assert_eq!(report.replayed_commits, 0);
    // The A-only commit stays visible after recovery.
    let q = p.mgr.begin_read_only().unwrap();
    assert_eq!(p.a.read(&q, &2).unwrap(), Some(22));
    p.mgr.commit(&q).unwrap();
    lsm::destroy(dir.join("state_a")).unwrap();
    lsm::destroy(dir.join("state_b")).unwrap();
}

/// Checkpoint + truncation interplay: once a checkpoint covers every state,
/// the redo log can be truncated at the checkpoint watermark; recovery after
/// the truncation still works, and records *above* the watermark survive to
/// repair later tears.
#[test]
fn checkpoint_truncation_keeps_later_redo_records_usable() {
    let dir = temp_dir("ckpttrunc");
    let opts = LsmOptions::no_sync();
    let watermark;
    let interrupted_cts;
    {
        let p = open_pair(&dir, &opts, false);
        for i in 0..5u32 {
            let tx = p.mgr.begin().unwrap();
            p.a.write(&tx, i, i as u64).unwrap();
            p.b.write(&tx, i, (i as u64) * 2).unwrap();
            p.mgr.commit(&tx).unwrap();
        }
        watermark = p.ctx.last_cts(p.group).unwrap();
        // Each commit deleted the records at or below the published
        // `LastCTS` online: only the newest group commit's record is left,
        // one copy per state.
        assert_eq!(
            scan_redo(&*p.backend_a)
                .unwrap()
                .into_keys()
                .collect::<Vec<_>>(),
            vec![watermark]
        );
        // Checkpoint both states at the watermark, then truncate the redo
        // tail the checkpoint made redundant.
        create_checkpoint(&*p.backend_a, dir.join("ckpt_a")).unwrap();
        create_checkpoint(&*p.backend_b, dir.join("ckpt_b")).unwrap();
        let removed_a = truncate_redo(&*p.backend_a, watermark).unwrap();
        let removed_b = truncate_redo(&*p.backend_b, watermark).unwrap();
        assert_eq!(
            removed_a + removed_b,
            2,
            "the newest group commit's record, one copy per state"
        );
        assert!(scan_redo(&*p.backend_a).unwrap().is_empty());
        // A tear *after* the truncation must still be repairable.
        interrupted_cts = tear_group_commit(&p, 100, 1000, 2000);
    }
    let p = open_pair(&dir, &opts, true);
    let report = restore_group(&p.ctx, p.group, &[&*p.backend_a, &*p.backend_b]).unwrap();
    assert!(report.torn_group_commit);
    assert_eq!(report.replayed_commits, 1);
    assert_eq!(report.last_cts, interrupted_cts);
    let q = p.mgr.begin_read_only().unwrap();
    for i in 0..5u32 {
        assert_eq!(p.a.read(&q, &i).unwrap(), Some(i as u64));
        assert_eq!(p.b.read(&q, &i).unwrap(), Some((i as u64) * 2));
    }
    assert_eq!(p.b.read(&q, &100).unwrap(), Some(2000));
    p.mgr.commit(&q).unwrap();
    lsm::destroy(dir.join("state_a")).unwrap();
    lsm::destroy(dir.join("state_b")).unwrap();
}

/// A checkpoint restored into a fresh backend carries the durable marker and
/// any not-yet-truncated redo records with it (they live under ordinary
/// keys), so group recovery over a restored backend behaves exactly like
/// recovery over the original.
#[test]
fn recovery_over_a_restored_checkpoint_replays_the_tear() {
    let dir = temp_dir("ckptrestore");
    let opts = LsmOptions::no_sync();
    let interrupted_cts;
    {
        let p = open_pair(&dir, &opts, false);
        let tx = p.mgr.begin().unwrap();
        p.a.write(&tx, 1, 11).unwrap();
        p.b.write(&tx, 1, 12).unwrap();
        p.mgr.commit(&tx).unwrap();
        interrupted_cts = tear_group_commit(&p, 2, 21, 22);
        // Archive state A *after* the tear: the checkpoint includes A's
        // marker and its copy of the redo record.
        create_checkpoint(&*p.backend_a, dir.join("ckpt_a")).unwrap();
    }
    // "Disk for state A died": rebuild it from the checkpoint instead of
    // its own WAL.
    lsm::destroy(dir.join("state_a")).unwrap();
    {
        let fresh = LsmStore::open(dir.join("state_a"), opts.clone()).unwrap();
        restore_checkpoint(dir.join("ckpt_a"), &fresh).unwrap();
    }
    let p = open_pair(&dir, &opts, true);
    let report = restore_group(&p.ctx, p.group, &[&*p.backend_a, &*p.backend_b]).unwrap();
    assert!(report.torn_group_commit);
    assert_eq!(report.last_cts, interrupted_cts);
    let q = p.mgr.begin_read_only().unwrap();
    assert_eq!(p.a.read(&q, &2).unwrap(), Some(21));
    assert_eq!(p.b.read(&q, &2).unwrap(), Some(22));
    p.mgr.commit(&q).unwrap();
    lsm::destroy(dir.join("state_a")).unwrap();
    lsm::destroy(dir.join("state_b")).unwrap();
}

/// A stale redo tail (records below every marker, checkpoint not yet taken)
/// is ignored by recovery and removable at any time; recovery is idempotent
/// across repeated restarts.
#[test]
fn stale_redo_tail_is_ignored_and_recovery_is_idempotent() {
    let dir = temp_dir("staletail");
    let opts = LsmOptions::no_sync();
    let interrupted_cts;
    {
        let p = open_pair(&dir, &opts, false);
        let tx = p.mgr.begin().unwrap();
        p.a.write(&tx, 1, 1).unwrap();
        p.b.write(&tx, 1, 1).unwrap();
        p.mgr.commit(&tx).unwrap();
        interrupted_cts = tear_group_commit(&p, 2, 2, 2);
    }
    // First restart repairs the tear…
    {
        let p = open_pair(&dir, &opts, true);
        let report = restore_group(&p.ctx, p.group, &[&*p.backend_a, &*p.backend_b]).unwrap();
        assert!(report.torn_group_commit);
        assert_eq!(report.last_cts, interrupted_cts);
    }
    // …the second finds a consistent group with a stale redo tail (the
    // repaired records are still on disk) and replays nothing.
    let p = open_pair(&dir, &opts, true);
    assert!(!scan_redo(&*p.backend_a).unwrap().is_empty());
    let report = restore_group(&p.ctx, p.group, &[&*p.backend_a, &*p.backend_b]).unwrap();
    assert!(!report.torn_group_commit);
    assert_eq!(report.replayed_commits, 0);
    assert_eq!(report.last_cts, interrupted_cts);
    // The tail is garbage now; truncating it changes nothing for readers.
    truncate_redo(&*p.backend_a, interrupted_cts).unwrap();
    truncate_redo(&*p.backend_b, interrupted_cts).unwrap();
    assert!(scan_redo(&*p.backend_b).unwrap().is_empty());
    let q = p.mgr.begin_read_only().unwrap();
    assert_eq!(p.a.read(&q, &2).unwrap(), Some(2));
    assert_eq!(p.b.read(&q, &2).unwrap(), Some(2));
    p.mgr.commit(&q).unwrap();
    lsm::destroy(dir.join("state_a")).unwrap();
    lsm::destroy(dir.join("state_b")).unwrap();
}
