//! Protocol-conformance suite: one parameterized set of transactional
//! guarantees executed against **all three** concurrency-control protocols
//! through the `TransactionalTable` trait and the `Protocol` factory.
//!
//! This replaces the per-table copies of `read_only_transactions_cannot_write`
//! and friends that used to be triplicated across the MVCC, S2PL and BOCC
//! unit tests.  Where the protocols intentionally differ (how a write-write
//! conflict surfaces, what a pinned reader observes while a writer commits),
//! the expected outcome is matched per protocol so the difference itself is
//! pinned down by a test.

use std::sync::Arc;
use tsp::common::TspError;
use tsp::core::prelude::*;

fn setup(protocol: Protocol) -> (Arc<TransactionManager>, TableHandle<u32, String>) {
    let ctx = Arc::new(StateContext::new());
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let table = protocol.create_table::<u32, String>(&ctx, "conformance", None);
    mgr.register(Arc::clone(&table).as_participant());
    mgr.register_group(&[table.id()]).unwrap();
    (mgr, table)
}

#[test]
fn read_your_own_writes() {
    for protocol in Protocol::ALL {
        let (mgr, table) = setup(protocol);
        let tx = mgr.begin().unwrap();
        assert_eq!(table.read(&tx, &1).unwrap(), None, "{protocol}");
        table.write(&tx, 1, "mine".into()).unwrap();
        assert_eq!(
            table.read(&tx, &1).unwrap(),
            Some("mine".into()),
            "{protocol}: own write must be visible before commit"
        );
        table.delete(&tx, 1).unwrap();
        assert_eq!(
            table.read(&tx, &1).unwrap(),
            None,
            "{protocol}: own delete must be visible before commit"
        );
        mgr.commit(&tx).unwrap();
    }
}

#[test]
fn committed_writes_become_visible_to_later_transactions() {
    for protocol in Protocol::ALL {
        let (mgr, table) = setup(protocol);
        let w = mgr.begin().unwrap();
        table.write(&w, 5, "v1".into()).unwrap();
        mgr.commit(&w).unwrap();

        let r = mgr.begin_read_only().unwrap();
        assert_eq!(table.read(&r, &5).unwrap(), Some("v1".into()), "{protocol}");
        let scan = table.scan(&r).unwrap();
        assert_eq!(scan.get(&5), Some(&"v1".to_string()), "{protocol}");
        mgr.commit(&r).unwrap();
    }
}

#[test]
fn rollback_leaves_no_trace() {
    for protocol in Protocol::ALL {
        let (mgr, table) = setup(protocol);
        let w = mgr.begin().unwrap();
        table.write(&w, 9, "discarded".into()).unwrap();
        mgr.abort(&w).unwrap();

        let r = mgr.begin_read_only().unwrap();
        assert_eq!(table.read(&r, &9).unwrap(), None, "{protocol}");
        assert!(table.scan(&r).unwrap().is_empty(), "{protocol}");
        mgr.commit(&r).unwrap();
    }
}

#[test]
fn read_only_transactions_cannot_write() {
    for protocol in Protocol::ALL {
        let (mgr, table) = setup(protocol);
        let t = mgr.begin_read_only().unwrap();
        assert!(table.write(&t, 1, "x".into()).is_err(), "{protocol}");
        assert!(table.delete(&t, 1).is_err(), "{protocol}");
        mgr.commit(&t).unwrap();
    }
}

#[test]
fn delete_semantics_across_commits() {
    for protocol in Protocol::ALL {
        let (mgr, table) = setup(protocol);
        let w = mgr.begin().unwrap();
        table.write(&w, 3, "there".into()).unwrap();
        mgr.commit(&w).unwrap();

        let d = mgr.begin().unwrap();
        table.delete(&d, 3).unwrap();
        assert_eq!(table.read(&d, &3).unwrap(), None, "{protocol}");
        mgr.commit(&d).unwrap();

        let r = mgr.begin_read_only().unwrap();
        assert_eq!(table.read(&r, &3).unwrap(), None, "{protocol}");
        assert!(!table.scan(&r).unwrap().contains_key(&3), "{protocol}");
        mgr.commit(&r).unwrap();
    }
}

#[test]
fn scan_overlays_uncommitted_writes() {
    for protocol in Protocol::ALL {
        let (mgr, table) = setup(protocol);
        let w = mgr.begin().unwrap();
        table.write(&w, 1, "committed".into()).unwrap();
        mgr.commit(&w).unwrap();

        let t = mgr.begin().unwrap();
        table.write(&t, 2, "pending".into()).unwrap();
        table.delete(&t, 1).unwrap();
        let snap = table.scan(&t).unwrap();
        assert_eq!(snap.len(), 1, "{protocol}");
        assert_eq!(snap.get(&2), Some(&"pending".to_string()), "{protocol}");
        mgr.abort(&t).unwrap();
    }
}

/// Two concurrent writers of the same key: exactly one commits, and the
/// winner's value survives.  *Where* the loser fails differs by protocol —
/// S2PL kills the younger writer at lock acquisition (wait-die), MVCC (and
/// SSI, which delegates its write-set check to MVCC) fails
/// First-Committer-Wins validation, BOCC fails backward validation — but the
/// end state is identical.  The abort-reason taxonomy must attribute the
/// loser to exactly the protocol's conflict class.
#[test]
fn write_write_conflict_admits_exactly_one_winner() {
    for protocol in Protocol::ALL {
        let (mgr, table) = setup(protocol);
        let t1 = mgr.begin().unwrap();
        let t2 = mgr.begin().unwrap();

        table.write(&t1, 7, "t1".into()).unwrap();
        match table.write(&t2, 7, "t2".into()) {
            Ok(()) => {
                // Optimistic protocols buffer both writes; first committer wins.
                mgr.commit(&t1).unwrap();
                match mgr.commit(&t2) {
                    Ok(_) => panic!("{protocol}: both overlapping writers committed"),
                    Err(e) => assert!(
                        matches!(
                            e,
                            TspError::WriteConflict { .. } | TspError::ValidationFailed { .. }
                        ),
                        "{protocol}: unexpected conflict error {e}"
                    ),
                }
                let _ = mgr.abort(&t2);
            }
            Err(e) => {
                // S2PL: the younger writer dies at the exclusive lock.
                assert!(
                    matches!(e, TspError::Deadlock { .. }),
                    "{protocol}: unexpected write error {e}"
                );
                mgr.abort(&t2).unwrap();
                mgr.commit(&t1).unwrap();
            }
        }

        let expected = match protocol {
            Protocol::Mvcc | Protocol::Ssi => AbortReason::FcwConflict,
            Protocol::Bocc => AbortReason::Certification,
            Protocol::S2pl => AbortReason::LockConflict,
        };
        let snap = mgr.context().telemetry_snapshot().stats;
        for reason in AbortReason::ALL {
            let want = u64::from(reason == expected);
            assert_eq!(
                snap.abort_reason(reason),
                want,
                "{protocol}: {reason} count after a write-write conflict"
            );
        }

        let r = mgr.begin_read_only().unwrap();
        assert_eq!(
            table.read(&r, &7).unwrap().as_deref(),
            Some("t1"),
            "{protocol}: the first committer's value must survive"
        );
        mgr.commit(&r).unwrap();
    }
}

/// Snapshot visibility while a writer commits mid-transaction, pinned down
/// per protocol: MVCC readers keep their snapshot; S2PL kills the younger
/// writer behind the reader's shared lock; BOCC lets the reader observe the
/// newer value but fails its validation at commit.
#[test]
fn snapshot_visibility_during_concurrent_commit() {
    for protocol in Protocol::ALL {
        let (mgr, table) = setup(protocol);
        let init = mgr.begin().unwrap();
        table.write(&init, 1, "old".into()).unwrap();
        mgr.commit(&init).unwrap();

        let reader = mgr.begin_read_only().unwrap();
        assert_eq!(
            table.read(&reader, &1).unwrap(),
            Some("old".into()),
            "{protocol}"
        );

        let writer = mgr.begin().unwrap();
        match protocol {
            // SSI inherits the MVCC behaviour here: read-only transactions
            // are never validated, so the pinned reader commits untouched.
            Protocol::Mvcc | Protocol::Ssi => {
                table.write(&writer, 1, "new".into()).unwrap();
                mgr.commit(&writer).unwrap();
                // The pinned snapshot is immutable …
                assert_eq!(
                    table.read(&reader, &1).unwrap(),
                    Some("old".into()),
                    "{protocol}: snapshot must not move under the reader"
                );
                mgr.commit(&reader).unwrap();
                // … and a fresh transaction sees the new value.
                let fresh = mgr.begin_read_only().unwrap();
                assert_eq!(table.read(&fresh, &1).unwrap(), Some("new".into()));
                mgr.commit(&fresh).unwrap();
            }
            Protocol::S2pl => {
                // The younger writer conflicts with the reader's shared lock
                // and dies (wait-die) instead of making the snapshot move.
                let err = table.write(&writer, 1, "new".into()).unwrap_err();
                assert!(matches!(err, TspError::Deadlock { .. }), "S2PL: {err}");
                mgr.abort(&writer).unwrap();
                assert_eq!(table.read(&reader, &1).unwrap(), Some("old".into()));
                mgr.commit(&reader).unwrap();
            }
            Protocol::Bocc => {
                table.write(&writer, 1, "new".into()).unwrap();
                mgr.commit(&writer).unwrap();
                // The reader's validation must now fail: it read a key that a
                // later committer overwrote.
                let err = mgr.commit(&reader).unwrap_err();
                assert!(
                    matches!(err, TspError::ValidationFailed { .. }),
                    "BOCC: {err}"
                );
                assert!(err.is_retryable());
                // The taxonomy files the stale read under certification.
                assert_eq!(
                    mgr.context()
                        .telemetry_snapshot()
                        .abort_count(AbortReason::Certification),
                    1,
                    "BOCC: a failed backward validation is a certification abort"
                );
            }
        }
    }
}

/// The factory handle exposes the participant upcast and metadata uniformly.
#[test]
fn handles_expose_uniform_metadata() {
    for protocol in Protocol::ALL {
        let (_mgr, table) = setup(protocol);
        assert_eq!(table.name(), "conformance", "{protocol}");
        assert_eq!(table.id(), table.state_id(), "{protocol}");
        assert!(!table.is_persistent(), "{protocol}");
        let participant = Arc::clone(&table).as_participant();
        assert_eq!(participant.state_id(), table.id(), "{protocol}");
    }
}
