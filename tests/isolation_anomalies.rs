//! Isolation-anomaly matrix for the snapshot-isolation protocol.
//!
//! Snapshot isolation (the paper's target isolation level, §4) makes a
//! precise set of promises.  These tests pin them down one anomaly at a
//! time, both for the default pinned-snapshot reads and for the relaxed
//! isolation levels of `tsp_core::isolation`:
//!
//! | anomaly                | SI        | read committed | read uncommitted |
//! |------------------------|-----------|----------------|------------------|
//! | dirty read             | prevented | prevented      | prevented¹       |
//! | non-repeatable read    | prevented | possible       | possible         |
//! | lost update            | prevented (First-Committer-Wins)              |
//! | read skew across states| prevented | —              | possible         |
//! | write skew             | possible (inherent to SI, documented)         |
//!
//! ¹ "read uncommitted" in this system means reading versions whose group
//!   commit has not been *published* yet; write sets of running transactions
//!   are always private, so classic dirty reads cannot happen at any level.
//!
//! The second half of the file pins the anomaly boundary *per protocol*,
//! using the litmus schedules from the SI-semantics literature (Raad et al.,
//! "On the Semantics of Snapshot Isolation"; Fekete et al.'s read-only
//! anomaly; the long-fork test separating SI from parallel SI).  Each
//! schedule is driven through `Protocol::ALL`, so a protocol added to the
//! factory is automatically placed on the matrix:
//!
//! | litmus            | MVCC-SI  | S2PL      | BOCC      | SSI       |
//! |-------------------|----------|-----------|-----------|-----------|
//! | write skew        | admitted | prevented | prevented | prevented |
//! | read-only anomaly | admitted | prevented | prevented | prevented |
//! | long fork         | prevented everywhere (SI snapshots are prefix-closed) |

use std::sync::Arc;
use tsp::common::TspError;
use tsp::core::prelude::*;

fn setup_one() -> (
    Arc<StateContext>,
    Arc<TransactionManager>,
    Arc<MvccTable<u32, i64>>,
) {
    let ctx = Arc::new(StateContext::new());
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let t = MvccTable::<u32, i64>::volatile(&ctx, "account");
    mgr.register(t.clone());
    mgr.register_group(&[t.id()]).unwrap();
    (ctx, mgr, t)
}

fn commit_value(mgr: &TransactionManager, t: &MvccTable<u32, i64>, k: u32, v: i64) {
    let tx = mgr.begin().unwrap();
    t.write(&tx, k, v).unwrap();
    mgr.commit(&tx).unwrap();
}

#[test]
fn dirty_reads_are_impossible_at_every_level() {
    let (ctx, mgr, t) = setup_one();
    commit_value(&mgr, &t, 1, 100);

    // A writer holds an uncommitted change.
    let writer = mgr.begin().unwrap();
    t.write(&writer, 1, -999).unwrap();

    for level in [
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::ReadCommitted,
        IsolationLevel::ReadUncommitted,
    ] {
        let reader = IsolatedReader::new(&ctx, t.clone(), level);
        let q = mgr.begin_read_only().unwrap();
        assert_eq!(
            reader.read(&q, &1).unwrap(),
            Some(100),
            "{level:?} must not expose the uncommitted write"
        );
        mgr.commit(&q).unwrap();
    }
    mgr.abort(&writer).unwrap();
}

#[test]
fn non_repeatable_reads_prevented_by_si_allowed_by_read_committed() {
    let (ctx, mgr, t) = setup_one();
    commit_value(&mgr, &t, 1, 1);

    let si = IsolatedReader::new(&ctx, t.clone(), IsolationLevel::SnapshotIsolation);
    let rc = IsolatedReader::new(&ctx, t.clone(), IsolationLevel::ReadCommitted);

    let q = mgr.begin_read_only().unwrap();
    let first_si = si.read(&q, &1).unwrap();
    let first_rc = rc.read(&q, &1).unwrap();

    commit_value(&mgr, &t, 1, 2);

    assert_eq!(si.read(&q, &1).unwrap(), first_si, "SI read must repeat");
    assert_ne!(
        rc.read(&q, &1).unwrap(),
        first_rc,
        "read committed is allowed (and here expected) to observe the new commit"
    );
    mgr.commit(&q).unwrap();
}

#[test]
fn lost_updates_are_prevented_by_first_committer_wins() {
    let (_ctx, mgr, t) = setup_one();
    commit_value(&mgr, &t, 1, 100);

    // Two concurrent read-modify-write transactions both try to add 10.
    let t1 = mgr.begin().unwrap();
    let t2 = mgr.begin().unwrap();
    let v1 = t.read(&t1, &1).unwrap().unwrap();
    let v2 = t.read(&t2, &1).unwrap().unwrap();
    t.write(&t1, 1, v1 + 10).unwrap();
    t.write(&t2, 1, v2 + 10).unwrap();

    mgr.commit(&t1).unwrap();
    let err = mgr.commit(&t2).unwrap_err();
    assert!(
        matches!(err, TspError::WriteConflict { .. }),
        "second committer must abort, got {err}"
    );

    // The surviving value reflects exactly one increment — no lost update.
    let q = mgr.begin_read_only().unwrap();
    assert_eq!(t.read(&q, &1).unwrap(), Some(110));
    mgr.commit(&q).unwrap();
}

/// A concurrent write is still caught when the key's newest write is a
/// delete, or a reinsert after a delete, under every protocol.  A blind
/// write by a transaction that began before the delete aborts under MVCC
/// and SSI (First-Committer-Wins) and BOCC (backward validation); S2PL has
/// no commit-time check and orders the blind write after the others, a
/// serial history.
#[test]
fn first_committer_wins_sees_deletes_and_reinserts_per_protocol() {
    for protocol in Protocol::ALL {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let t = protocol.create_table::<u32, i64>(&ctx, "t", None);
        mgr.register(Arc::clone(&t).as_participant());
        mgr.register_group(&[t.id()]).unwrap();
        let init = mgr.begin().unwrap();
        t.write(&init, 1, 1).unwrap();
        t.write(&init, 2, 2).unwrap();
        mgr.commit(&init).unwrap();

        let old1 = mgr.begin().unwrap();
        let old2 = mgr.begin().unwrap();
        // Key 1 is deleted; key 2 is deleted and then reinserted.
        let d = mgr.begin().unwrap();
        t.delete(&d, 1).unwrap();
        t.delete(&d, 2).unwrap();
        mgr.commit(&d).unwrap();
        let r = mgr.begin().unwrap();
        t.write(&r, 2, 20).unwrap();
        mgr.commit(&r).unwrap();

        t.write(&old1, 1, 100).unwrap();
        t.write(&old2, 2, 200).unwrap();
        for (key, old) in [(1, old1), (2, old2)] {
            match mgr.commit(&old) {
                Ok(_) => assert_eq!(protocol, Protocol::S2pl, "{protocol}: key {key}"),
                Err(e) => {
                    assert_ne!(protocol, Protocol::S2pl, "{protocol}: key {key}: {e}");
                    assert!(e.is_retryable(), "{protocol}: key {key}: {e}");
                }
            }
        }

        let q = mgr.begin_read_only().unwrap();
        let expected = if protocol == Protocol::S2pl {
            (Some(100), Some(200))
        } else {
            (None, Some(20))
        };
        assert_eq!(
            (t.read(&q, &1).unwrap(), t.read(&q, &2).unwrap()),
            expected,
            "{protocol}"
        );
        mgr.commit(&q).unwrap();
    }
}

#[test]
fn read_skew_across_two_states_is_prevented_by_the_consistency_protocol() {
    // Two states of one stream query: an invariant `a + b == 0` is maintained
    // by every writer transaction.  A snapshot reader must never observe a
    // violation, even when its reads interleave with a commit.
    let ctx = Arc::new(StateContext::new());
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let a = MvccTable::<u32, i64>::volatile(&ctx, "a");
    let b = MvccTable::<u32, i64>::volatile(&ctx, "b");
    mgr.register(a.clone());
    mgr.register(b.clone());
    mgr.register_group(&[a.id(), b.id()]).unwrap();

    let init = mgr.begin().unwrap();
    a.write(&init, 0, 500).unwrap();
    b.write(&init, 0, -500).unwrap();
    mgr.commit(&init).unwrap();

    // Reader pins its snapshot by reading state `a` …
    let reader = mgr.begin_read_only().unwrap();
    let read_a = a.read(&reader, &0).unwrap().unwrap();

    // … then a transfer commits against both states …
    let transfer = mgr.begin().unwrap();
    let cur_a = a.read(&transfer, &0).unwrap().unwrap();
    let cur_b = b.read(&transfer, &0).unwrap().unwrap();
    a.write(&transfer, 0, cur_a - 200).unwrap();
    b.write(&transfer, 0, cur_b + 200).unwrap();
    mgr.commit(&transfer).unwrap();

    // … and the reader finishes with state `b`: it must see the version
    // matching its pinned snapshot, keeping the invariant intact.
    let read_b = b.read(&reader, &0).unwrap().unwrap();
    assert_eq!(
        read_a + read_b,
        0,
        "read skew observed: {read_a} + {read_b}"
    );
    mgr.commit(&reader).unwrap();

    // A fresh reader sees the post-transfer pair, which also balances.
    let fresh = mgr.begin_read_only().unwrap();
    let fa = a.read(&fresh, &0).unwrap().unwrap();
    let fb = b.read(&fresh, &0).unwrap().unwrap();
    assert_eq!(fa, 300);
    assert_eq!(fb, -300);
    mgr.commit(&fresh).unwrap();
}

#[test]
fn write_skew_is_possible_under_si_as_documented() {
    // The classic on-call anomaly: two doctors may both go off duty because
    // each one's snapshot still shows the other on duty and their write sets
    // are disjoint.  Snapshot isolation permits this — the test documents the
    // boundary of the guarantee rather than a bug.  (The per-protocol
    // boundary, including SSI rejecting this schedule, is pinned down by
    // `write_skew_boundary_per_protocol` below.)
    let (_ctx, mgr, t) = setup_one();
    let init = mgr.begin().unwrap();
    t.write(&init, 1, 1).unwrap(); // doctor 1 on duty
    t.write(&init, 2, 1).unwrap(); // doctor 2 on duty
    mgr.commit(&init).unwrap();

    let t1 = mgr.begin().unwrap();
    let t2 = mgr.begin().unwrap();
    let on_duty_seen_by_1 =
        t.read(&t1, &1).unwrap().unwrap_or(0) + t.read(&t1, &2).unwrap().unwrap_or(0);
    let on_duty_seen_by_2 =
        t.read(&t2, &1).unwrap().unwrap_or(0) + t.read(&t2, &2).unwrap().unwrap_or(0);
    assert_eq!(on_duty_seen_by_1, 2);
    assert_eq!(on_duty_seen_by_2, 2);
    // Disjoint writes: each doctor signs out.
    t.write(&t1, 1, 0).unwrap();
    t.write(&t2, 2, 0).unwrap();
    mgr.commit(&t1).unwrap();
    mgr.commit(&t2).unwrap(); // no conflict — write sets are disjoint

    let q = mgr.begin_read_only().unwrap();
    let remaining = t.read(&q, &1).unwrap().unwrap() + t.read(&q, &2).unwrap().unwrap();
    assert_eq!(remaining, 0, "both signed out: the documented SI anomaly");
    mgr.commit(&q).unwrap();
}

#[test]
fn scans_are_snapshot_stable_no_phantoms_within_a_transaction() {
    let (_ctx, mgr, t) = setup_one();
    for k in 0..10u32 {
        commit_value(&mgr, &t, k, k as i64);
    }
    let q = mgr.begin_read_only().unwrap();
    let first = t.scan(&q).unwrap();
    assert_eq!(first.len(), 10);

    // Another transaction inserts new rows and deletes an old one.
    let w = mgr.begin().unwrap();
    t.write(&w, 100, 100).unwrap();
    t.delete(&w, 0).unwrap();
    mgr.commit(&w).unwrap();

    let second = t.scan(&q).unwrap();
    assert_eq!(
        second, first,
        "repeated scan must not see phantoms or losses"
    );
    mgr.commit(&q).unwrap();

    let fresh = mgr.begin_read_only().unwrap();
    let post = t.scan(&fresh).unwrap();
    assert_eq!(post.len(), 10); // 10 - 1 deleted + 1 inserted
    assert!(post.contains_key(&100));
    assert!(!post.contains_key(&0));
    mgr.commit(&fresh).unwrap();
}

#[test]
fn read_only_transactions_never_abort_under_churn() {
    let (_ctx, mgr, t) = setup_one();
    commit_value(&mgr, &t, 1, 0);
    let mgr_writer = Arc::clone(&mgr);
    let t_writer = Arc::clone(&t);
    let writer = std::thread::spawn(move || {
        for i in 0..500i64 {
            // Version-slot pressure under a dense snapshot churn is reported
            // as a retryable error; the writer retries like the TO_TABLE
            // operator would.
            loop {
                let tx = mgr_writer.begin().unwrap();
                t_writer.write(&tx, 1, i).unwrap();
                match mgr_writer.commit(&tx) {
                    Ok(_) => break,
                    Err(e) if e.is_retryable() => {
                        std::thread::yield_now();
                        continue;
                    }
                    Err(e) => panic!("unexpected writer failure: {e}"),
                }
            }
        }
    });
    let mut reads = 0u64;
    for _ in 0..500 {
        let q = mgr.begin_read_only().unwrap();
        let v = t.read(&q, &1).unwrap();
        assert!(v.is_some());
        mgr.commit(&q)
            .expect("read-only snapshot transactions never abort");
        reads += 1;
    }
    writer.join().unwrap();
    assert_eq!(reads, 500);
}

// ---------------------------------------------------------------------
// The anomaly boundary, per protocol
// ---------------------------------------------------------------------

fn setup_proto(protocol: Protocol) -> (Arc<TransactionManager>, TableHandle<u32, i64>) {
    let ctx = Arc::new(StateContext::new());
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let table = protocol.create_table::<u32, i64>(&ctx, "litmus", None);
    mgr.register(Arc::clone(&table).as_participant());
    mgr.register_group(&[table.id()]).unwrap();
    (mgr, table)
}

fn seed(mgr: &TransactionManager, t: &TableHandle<u32, i64>, rows: &[(u32, i64)]) {
    let tx = mgr.begin().unwrap();
    for &(k, v) in rows {
        t.write(&tx, k, v).unwrap();
    }
    mgr.commit(&tx).unwrap();
}

/// Reads the committed values of `keys` through a fresh transaction.
fn committed(mgr: &TransactionManager, t: &TableHandle<u32, i64>, keys: &[u32]) -> Vec<i64> {
    let q = mgr.begin_read_only().unwrap();
    let out = keys
        .iter()
        .map(|k| t.read(&q, k).unwrap().unwrap_or(0))
        .collect();
    let _ = mgr.commit(&q);
    out
}

/// Write skew (the on-call schedule): both transactions read both duty
/// flags, then each clears a *different* one.  A serializable execution
/// leaves at least one doctor on duty; plain SI signs both out.
///
/// Expected boundary: **admitted by MVCC-SI only** — SSI's read-set
/// validation, BOCC's backward validation and S2PL's shared locks all
/// reject the schedule.
#[test]
fn write_skew_boundary_per_protocol() {
    for protocol in Protocol::ALL {
        let (mgr, t) = setup_proto(protocol);
        seed(&mgr, &t, &[(1, 1), (2, 1)]);

        let t1 = mgr.begin().unwrap();
        let t2 = mgr.begin().unwrap();
        let seen1 = t.read(&t1, &1).unwrap().unwrap() + t.read(&t1, &2).unwrap().unwrap();
        let seen2 = t.read(&t2, &1).unwrap().unwrap() + t.read(&t2, &2).unwrap().unwrap();
        assert_eq!((seen1, seen2), (2, 2), "{protocol}: both snapshots full");

        // The younger transaction writes first so S2PL's wait-die resolves
        // the lock conflict immediately instead of timing out.
        let t2_failed = t.write(&t2, 2, 0).is_err() || {
            t.write(&t1, 1, 0).unwrap();
            mgr.commit(&t1).unwrap();
            mgr.commit(&t2).is_err()
        };
        if t2_failed {
            let _ = mgr.abort(&t2);
            // S2PL kills t2 at the write: the || short-circuits, so t1 may
            // never have committed — release its slot and locks either way
            // (aborting an already-finished t1 is a harmless error).
            let _ = mgr.abort(&t1);
            let final_sum: i64 = committed(&mgr, &t, &[1, 2]).iter().sum();
            assert!(
                final_sum >= 1,
                "{protocol}: serializable outcome must keep one doctor on duty"
            );
            assert_ne!(
                protocol,
                Protocol::Mvcc,
                "plain SI admits write skew; this schedule must not abort under it"
            );
        } else {
            let final_sum: i64 = committed(&mgr, &t, &[1, 2]).iter().sum();
            assert_eq!(final_sum, 0, "{protocol}: both committed → both off duty");
            assert_eq!(
                protocol,
                Protocol::Mvcc,
                "{protocol} admitted write skew — only plain MVCC-SI may"
            );
        }
    }
}

/// Write skew across *two tables in different topology groups*: the same
/// on-call schedule, but each duty flag lives in its own independently
/// locked and published group.  Certifying protocols must hold the *read*
/// groups' commit locks too (`TxParticipant::validation_requires_commit_lock`)
/// for this to stay rejected — a written-groups-only lock set would let the
/// two committers race past each other's validation.
#[test]
fn cross_group_write_skew_boundary_per_protocol() {
    for protocol in Protocol::ALL {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let a = protocol.create_table::<u32, i64>(&ctx, "duty_a", None);
        let b = protocol.create_table::<u32, i64>(&ctx, "duty_b", None);
        mgr.register(Arc::clone(&a).as_participant());
        mgr.register(Arc::clone(&b).as_participant());
        mgr.register_group(&[a.id()]).unwrap();
        mgr.register_group(&[b.id()]).unwrap();
        let init = mgr.begin().unwrap();
        a.write(&init, 0, 1).unwrap();
        b.write(&init, 0, 1).unwrap();
        mgr.commit(&init).unwrap();

        // t1 reads a / clears b; t2 reads b / clears a.
        let t1 = mgr.begin().unwrap();
        let t2 = mgr.begin().unwrap();
        assert_eq!(a.read(&t1, &0).unwrap(), Some(1), "{protocol}");
        assert_eq!(b.read(&t2, &0).unwrap(), Some(1), "{protocol}");
        // Younger writer first so S2PL wait-die resolves instantly.
        let t2_failed = a.write(&t2, 0, 0).is_err() || {
            b.write(&t1, 0, 0).unwrap();
            mgr.commit(&t1).unwrap();
            mgr.commit(&t2).is_err()
        };
        if t2_failed {
            let _ = mgr.abort(&t2);
            let _ = mgr.abort(&t1); // harmless if t1 already committed
        }
        let q = mgr.begin_read_only().unwrap();
        let on_duty = a.read(&q, &0).unwrap().unwrap_or(0) + b.read(&q, &0).unwrap().unwrap_or(0);
        mgr.commit(&q).unwrap();
        if protocol == Protocol::Mvcc {
            assert!(!t2_failed, "plain SI admits cross-group write skew");
            assert_eq!(on_duty, 0, "{protocol}: both committed");
        } else {
            assert!(t2_failed, "{protocol} must reject cross-group write skew");
            assert!(on_duty >= 1, "{protocol}: one doctor still on duty");
        }
    }
}

/// Fekete et al.'s read-only transaction anomaly.  Savings `x` and checking
/// `y` start at 0.  T2 (withdraw) reads both, T1 (deposit) commits `x = 20`,
/// a read-only T3 then observes `(x, y)`, and finally T2 commits
/// `y = -11` (10 withdrawn + 1 overdraft fee computed from its stale
/// snapshot).  The final state says "T2 before T1" (no fee otherwise), but
/// T3 observed "T1 before T2" — no serial order explains both, even though
/// T1/T2 alone would be serializable.
///
/// Expected boundary: **admitted by MVCC-SI only**.  Under SSI the
/// *read-write* transaction T2 fails certification (its read of `x` went
/// stale), so the read-only T3 — which never validates — can no longer
/// observe a non-serializable state.
#[test]
fn read_only_anomaly_boundary_per_protocol() {
    for protocol in Protocol::ALL {
        let (mgr, t) = setup_proto(protocol);
        seed(&mgr, &t, &[(1, 0), (2, 0)]);

        // T2 reads savings and checking.
        let t2 = mgr.begin().unwrap();
        let x2 = t.read(&t2, &1).unwrap().unwrap();
        let y2 = t.read(&t2, &2).unwrap().unwrap();

        // T1 deposits 20 into savings and commits.  (T1 is younger than T2,
        // so an S2PL conflict with T2's read lock kills T1 instantly.)
        let t1 = mgr.begin().unwrap();
        let t1_committed = t.write(&t1, 1, 20).is_ok() && mgr.commit(&t1).is_ok();
        if !t1_committed {
            let _ = mgr.abort(&t1);
        }

        // T3, read-only, observes both accounts.
        let t3 = mgr.begin_read_only().unwrap();
        let x3 = t.read(&t3, &1).unwrap().unwrap_or(0);
        let y3 = t.read(&t3, &2).unwrap().unwrap_or(0);
        mgr.commit(&t3)
            .expect("read-only observers never abort under any protocol here");

        // T2 withdraws 10 from checking, charging the fee its stale
        // snapshot justifies, and tries to commit.
        let fee = if x2 + y2 - 10 < 0 { 1 } else { 0 };
        let t2_committed = t.write(&t2, 2, y2 - 10 - fee).is_ok() && mgr.commit(&t2).is_ok();
        if !t2_committed {
            let _ = mgr.abort(&t2);
        }

        let final_xy = committed(&mgr, &t, &[1, 2]);
        let anomaly =
            t1_committed && t2_committed && (x3, y3) == (20, 0) && final_xy == vec![20, -11];
        assert_eq!(
            anomaly,
            protocol == Protocol::Mvcc,
            "{protocol}: read-only anomaly admitted iff plain MVCC-SI \
             (t1={t1_committed}, t2={t2_committed}, observed=({x3},{y3}), final={final_xy:?})"
        );
    }
}

/// The long-fork litmus (the schedule separating SI from *parallel* SI):
/// writer A commits `x = 1`, then writer B commits `y = 1`.  Because
/// snapshots are prefix-closed under every protocol here — a reader pinning
/// a snapshot that includes B's commit necessarily includes A's earlier one
/// — no observer may see `y = 1` without `x = 1`.  A system admitting long
/// forks could show one reader `{x=1, y=0}` and another `{x=0, y=1}`.
#[test]
fn long_fork_is_prevented_under_every_protocol() {
    for protocol in Protocol::ALL {
        let (mgr, t) = setup_proto(protocol);
        seed(&mgr, &t, &[(1, 0), (2, 0)]);

        // Writer A commits x = 1.
        let a = mgr.begin().unwrap();
        t.write(&a, 1, 1).unwrap();
        mgr.commit(&a).unwrap();

        // Reader R1 starts between the commits and reads x first.
        let r1 = mgr.begin_read_only().unwrap();
        let r1_x = t.read(&r1, &1).unwrap().unwrap();

        // Writer B commits y = 1 (disjoint key: no lock/validation overlap
        // with R1's snapshot of x under any protocol … except BOCC, whose
        // read-set validation may later abort R1; the observation itself is
        // what the litmus checks).
        let b = mgr.begin().unwrap();
        t.write(&b, 2, 1).unwrap();
        mgr.commit(&b).unwrap();

        let r1_y = t.read(&r1, &2).unwrap().unwrap();
        let _ = mgr.commit(&r1);

        // Reader R2 starts after both commits.
        let r2 = mgr.begin_read_only().unwrap();
        let r2_x = t.read(&r2, &1).unwrap().unwrap();
        let r2_y = t.read(&r2, &2).unwrap().unwrap();
        let _ = mgr.commit(&r2);

        // Prefix-closedness: whoever observes B's write observes A's too.
        for (who, x, y) in [("R1", r1_x, r1_y), ("R2", r2_x, r2_y)] {
            assert!(
                y == 0 || x == 1,
                "{protocol}: {who} observed the long fork (x={x}, y={y})"
            );
        }
        assert_eq!((r2_x, r2_y), (1, 1), "{protocol}: R2 sees both commits");
    }
}
