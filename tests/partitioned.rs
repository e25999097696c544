//! Cross-partition conformance litmus tests.
//!
//! A `PartitionedTable` shards the key space into shard tables, each in a
//! commit group of its own on one context, so reads across partitions
//! follow the paper's per-group rule: each group's snapshot is pinned at
//! the transaction's first access of it (see the module docs of
//! `tsp_core::partition`).  The literature calls the resulting guarantee
//! Non-Monotonic Snapshot Isolation (NMSI, PAPERS.md).  These tests pin the
//! promised boundary per protocol:
//!
//! | litmus (keys on two partitions) | MVCC-SI  | S2PL      | BOCC      | SSI       |
//! |---------------------------------|----------|-----------|-----------|-----------|
//! | write skew                      | admitted | prevented | prevented | prevented |
//! | lost update                     | prevented everywhere (per-partition FCW)  |
//! | long fork                       | admitted (per-group pins) — prevented within one partition |
//! | atomic commitment               | all-or-nothing everywhere                 |
//!
//! The same schedules confined to *one* partition must behave exactly
//! like one table (`tests/isolation_anomalies.rs`), because each partition
//! is one group with one pinned snapshot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tsp::core::prelude::*;

/// Two partitions split at key 100: keys < 100 live on partition 0,
/// keys >= 100 on partition 1.
const SPLIT: u32 = 100;

/// A two-partition table split at [`SPLIT`] on a fresh context of
/// `capacity` transaction slots.
fn table_on(
    protocol: Protocol,
    capacity: usize,
    name: &str,
    backend_for: impl FnMut(usize) -> Option<Arc<dyn tsp::storage::StorageBackend>>,
) -> (Arc<TransactionManager>, Arc<PartitionedTable<u32, i64>>) {
    let mgr = TransactionManager::new(Arc::new(StateContext::with_capacity(capacity)));
    let table = PartitionedTable::with_partitioner(
        &mgr,
        protocol,
        name,
        2,
        backend_for,
        Arc::new(RangePartitioner::new(vec![SPLIT])),
    );
    assert_eq!(table.partition_of(&(SPLIT - 1)), 0);
    assert_eq!(table.partition_of(&SPLIT), 1);
    (mgr, table)
}

fn setup(protocol: Protocol) -> (Arc<TransactionManager>, Arc<PartitionedTable<u32, i64>>) {
    table_on(protocol, tsp::core::MAX_ACTIVE_TXNS, "litmus", |_| None)
}

fn seed(mgr: &TransactionManager, t: &PartitionedTable<u32, i64>, rows: &[(u32, i64)]) {
    let tx = mgr.begin().unwrap();
    for &(k, v) in rows {
        t.write(&tx, k, v).unwrap();
    }
    mgr.commit(&tx).unwrap();
}

/// Reads the committed values of `keys` through a fresh transaction.
fn committed(mgr: &TransactionManager, t: &PartitionedTable<u32, i64>, keys: &[u32]) -> Vec<i64> {
    let q = mgr.begin_read_only().unwrap();
    let out = keys
        .iter()
        .map(|k| t.read(&q, k).unwrap().unwrap_or(0))
        .collect();
    let _ = mgr.commit(&q);
    out
}

/// The on-call write-skew schedule with one duty flag per partition: both
/// transactions read both flags, then each clears a different one.  The
/// certifying protocols must reject it even though validation and apply
/// span two commit groups — `validation_requires_commit_lock` makes the
/// commit take the read shard's group lock for SSI/BOCC to stay sound.
/// Plain MVCC-SI admits it, exactly as within one group.
#[test]
fn cross_partition_write_skew_boundary_per_protocol() {
    for protocol in Protocol::ALL {
        let (mgr, t) = setup(protocol);
        let (ka, kb) = (1u32, SPLIT + 1); // partition 0, partition 1
        seed(&mgr, &t, &[(ka, 1), (kb, 1)]);

        let t1 = mgr.begin().unwrap();
        let t2 = mgr.begin().unwrap();
        let seen1 = t.read(&t1, &ka).unwrap().unwrap() + t.read(&t1, &kb).unwrap().unwrap();
        let seen2 = t.read(&t2, &ka).unwrap().unwrap() + t.read(&t2, &kb).unwrap().unwrap();
        assert_eq!((seen1, seen2), (2, 2), "{protocol}: both snapshots full");

        // Younger writer first so S2PL wait-die resolves instantly.
        let t2_failed = t.write(&t2, kb, 0).is_err() || {
            t.write(&t1, ka, 0).unwrap();
            mgr.commit(&t1).unwrap();
            mgr.commit(&t2).is_err()
        };
        if t2_failed {
            let _ = mgr.abort(&t2);
            let _ = mgr.abort(&t1); // harmless if t1 already committed
            let on_duty: i64 = committed(&mgr, &t, &[ka, kb]).iter().sum();
            assert!(
                on_duty >= 1,
                "{protocol}: serializable outcome keeps one doctor on duty"
            );
            assert_ne!(
                protocol,
                Protocol::Mvcc,
                "plain SI admits cross-partition write skew; it must not abort"
            );
        } else {
            let on_duty: i64 = committed(&mgr, &t, &[ka, kb]).iter().sum();
            assert_eq!(on_duty, 0, "{protocol}: both committed → both off duty");
            assert_eq!(
                protocol,
                Protocol::Mvcc,
                "{protocol} admitted cross-partition write skew — only MVCC-SI may"
            );
        }
    }
}

/// Lost update spanning two partitions: two transactions read-modify-write
/// the *same* pair of counters, one on each partition.  Per-partition
/// First-Committer-Wins must abort the second committer under every
/// protocol, and the loser's writes must appear on *neither* partition
/// (atomic commitment).
#[test]
fn cross_partition_lost_update_prevented_under_every_protocol() {
    for protocol in Protocol::ALL {
        let (mgr, t) = setup(protocol);
        let (ka, kb) = (7u32, SPLIT + 7);
        seed(&mgr, &t, &[(ka, 100), (kb, 100)]);

        let t1 = mgr.begin().unwrap();
        let t2 = mgr.begin().unwrap();
        let a1 = t.read(&t1, &ka).unwrap().unwrap();
        let b1 = t.read(&t1, &kb).unwrap().unwrap();
        let a2 = t.read(&t2, &ka).unwrap().unwrap();
        let b2 = t.read(&t2, &kb).unwrap().unwrap();

        // Younger transaction writes first, so S2PL resolves the shared-lock
        // conflict by wait-die instead of blocking; release its locks right
        // away if it dies so the elder can proceed.
        let t2_write_failed =
            t.write(&t2, ka, a2 + 10).is_err() || t.write(&t2, kb, b2 + 10).is_err();
        if t2_write_failed {
            let _ = mgr.abort(&t2);
        }
        let t1_failed = t.write(&t1, ka, a1 + 10).is_err()
            || t.write(&t1, kb, b1 + 10).is_err()
            || mgr.commit(&t1).is_err();
        if t1_failed {
            let _ = mgr.abort(&t1);
        }
        let t2_failed = t2_write_failed || mgr.commit(&t2).is_err();
        if !t2_write_failed && t2_failed {
            let _ = mgr.abort(&t2);
        }
        assert_ne!(
            t1_failed, t2_failed,
            "{protocol}: exactly one of the two updaters must commit"
        );
        let final_vals = committed(&mgr, &t, &[ka, kb]);
        assert_eq!(
            final_vals,
            vec![110, 110],
            "{protocol}: exactly one increment must survive on each \
             partition (no lost update, no partial commit)"
        );
    }
}

/// The long fork across partitions — the anomaly per-group pins *admit*.
/// R1 pins partition 0's group before writer A commits there, then first
/// touches partition 1 after writer B committed: R1 observes B's write
/// but not A's, although A committed first.  Within one group this is
/// impossible (prefix-closed snapshots, pinned by
/// `tests/isolation_anomalies.rs`); across groups pinned at different
/// times it is the paper's rule.  Snapshot-based readers
/// (MVCC/BOCC/SSI — read-only transactions never validate) must all show
/// it; S2PL has no snapshots to relax, so the schedule derails into lock
/// conflicts instead and only the final state is asserted.
#[test]
fn cross_partition_long_fork_admitted_by_nmsi() {
    for protocol in Protocol::ALL {
        let (mgr, t) = setup(protocol);
        let (kx, ky) = (3u32, SPLIT + 3);
        seed(&mgr, &t, &[(kx, 0), (ky, 0)]);

        // R1 pins partition 0 (x = 0) before A commits there.
        let r1 = mgr.begin_read_only().unwrap();
        let r1_x = t.read(&r1, &kx).unwrap().unwrap();

        // A commits x = 1, then B commits y = 1.
        let a = mgr.begin().unwrap();
        let a_ok = t.write(&a, kx, 1).is_ok() && mgr.commit(&a).is_ok();
        if !a_ok {
            let _ = mgr.abort(&a);
        }
        let b = mgr.begin().unwrap();
        let b_ok = t.write(&b, ky, 1).is_ok() && mgr.commit(&b).is_ok();
        if !b_ok {
            let _ = mgr.abort(&b);
        }

        // R1's first touch of partition 1 pins its snapshot *now*.
        let r1_y = t.read(&r1, &ky).unwrap().unwrap();
        let _ = mgr.commit(&r1);

        if a_ok && b_ok {
            assert_eq!(
                (r1_x, r1_y),
                (0, 1),
                "{protocol}: partition groups are pinned independently — \
                 R1 must observe B's write without A's"
            );
        } else {
            // S2PL's read lock on x forces A into a wait-die conflict; the
            // fork is unobservable, not prevented-by-snapshot.
            assert_eq!(protocol, Protocol::S2pl, "{protocol}: writers must commit");
        }
        assert_eq!(
            committed(&mgr, &t, &[kx, ky]),
            vec![if a_ok { 1 } else { 0 }, if b_ok { 1 } else { 0 }],
            "{protocol}: final state reflects exactly the committed writers"
        );
    }
}

/// The same long-fork schedule confined to one partition must stay
/// prevented: each partition is one group with one pinned snapshot (R1's
/// pinned snapshot predates both commits).
#[test]
fn same_partition_long_fork_still_prevented() {
    for protocol in Protocol::ALL {
        let (mgr, t) = setup(protocol);
        let (kx, ky) = (3u32, 4u32); // both on partition 0
        seed(&mgr, &t, &[(kx, 0), (ky, 0)]);

        // A commits x = 1 first, so S2PL sees no read-lock conflict.
        let a = mgr.begin().unwrap();
        t.write(&a, kx, 1).unwrap();
        mgr.commit(&a).unwrap();

        let r1 = mgr.begin_read_only().unwrap();
        let r1_x = t.read(&r1, &kx).unwrap().unwrap();

        let b = mgr.begin().unwrap();
        t.write(&b, ky, 1).unwrap();
        mgr.commit(&b).unwrap();

        let r1_y = t.read(&r1, &ky).unwrap().unwrap();
        let _ = mgr.commit(&r1);

        assert!(
            r1_y == 0 || r1_x == 1,
            "{protocol}: long fork observed within one partition (x={r1_x}, y={r1_y})"
        );
    }
}

/// Cross-partition atomic commitment under every protocol: when a
/// cross-partition transaction loses validation on one partition, none of
/// its writes survive on any partition.
#[test]
fn cross_partition_commit_is_all_or_nothing_per_protocol() {
    for protocol in Protocol::ALL {
        let (mgr, t) = setup(protocol);
        let (ka, kb) = (11u32, SPLIT + 11);
        seed(&mgr, &t, &[(ka, 1), (kb, 1)]);

        let t1 = mgr.begin().unwrap();
        let t2 = mgr.begin().unwrap();
        // Both write both partitions; t2 (younger) writes first so S2PL
        // resolves by wait-die instead of blocking.
        let t2_failed = t.write(&t2, ka, 22).is_err() || t.write(&t2, kb, 22).is_err() || {
            let t1_failed = t.write(&t1, ka, 11).is_err()
                || t.write(&t1, kb, 11).is_err()
                || mgr.commit(&t1).is_err();
            if t1_failed {
                let _ = mgr.abort(&t1);
            }
            mgr.commit(&t2).is_err()
        };
        if t2_failed {
            let _ = mgr.abort(&t2);
        }
        let finals = committed(&mgr, &t, &[ka, kb]);
        assert!(
            finals == vec![11, 11] || finals == vec![22, 22],
            "{protocol}: partial cross-partition commit observed: {finals:?}"
        );
    }
}

/// The published `LastCTS` of each partition's commit group.
fn partition_last_cts(mgr: &TransactionManager, t: &PartitionedTable<u32, i64>) -> Vec<u64> {
    let ctx = mgr.context();
    (0..t.partitions())
        .map(|p| {
            let groups = ctx.groups_of_state(t.shard(p).id());
            assert_eq!(groups.len(), 1, "a shard is in exactly one group");
            ctx.last_cts(groups[0]).unwrap()
        })
        .collect()
}

/// Slot-churn stress: far more transactions than the context holds slots,
/// from several threads, mixing single- and cross-partition work.  Slots
/// (and the slot-local write sets and snapshot caches keyed by them) are
/// recycled thousands of times; any stale per-slot state would surface as
/// wrong reads, leaked slots or a wedged slot bitmap.
#[test]
fn slot_churn_reuses_slots_across_partitions() {
    let (mgr, table) = table_on(Protocol::Mvcc, 8, "churn", |_| None); // 8 slots
    seed(&mgr, &table, &[(0, 0), (SPLIT, 0)]);
    let seeded = partition_last_cts(&mgr, &table);

    let committed_txns = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..4)
        .map(|w| {
            let mgr = Arc::clone(&mgr);
            let table = Arc::clone(&table);
            let committed_txns = Arc::clone(&committed_txns);
            std::thread::spawn(move || {
                for i in 0..500u32 {
                    let Ok(tx) = mgr.begin() else {
                        continue; // slot table momentarily full
                    };
                    // Every 3rd transaction spans both partitions; the rest
                    // alternate single-partition homes.
                    let keys: &[u32] = match i % 3 {
                        0 => &[5, SPLIT + 5],
                        1 => &[10 + w],
                        _ => &[SPLIT + 10 + w],
                    };
                    let mut failed = false;
                    for &k in keys {
                        let cur = match table.read(&tx, &k) {
                            Ok(v) => v.unwrap_or(0),
                            Err(_) => {
                                failed = true;
                                break;
                            }
                        };
                        if table.write(&tx, k, cur + 1).is_err() {
                            failed = true;
                            break;
                        }
                    }
                    if failed || mgr.commit(&tx).is_err() {
                        let _ = mgr.abort(&tx);
                    } else {
                        committed_txns.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    assert!(
        committed_txns.load(Ordering::Relaxed) > 16,
        "churn made no progress beyond one slot generation"
    );
    // Every slot drained.
    assert_eq!(mgr.context().active_count(), 0, "slot leak");
    // The partitions saw real traffic: each group's LastCTS moved past the
    // seed commit.
    for (p, (now, seeded)) in partition_last_cts(&mgr, &table)
        .into_iter()
        .zip(seeded)
        .enumerate()
    {
        assert!(now > seeded, "partition {p} committed nothing");
    }
    // Reads after the churn still work (no wedged snapshots/GC floors).
    let q = mgr.begin_read_only().unwrap();
    assert!(table.read(&q, &5).unwrap().unwrap_or(0) > 0);
    assert!(table.read(&q, &(SPLIT + 5)).unwrap().unwrap_or(0) > 0);
    mgr.commit(&q).unwrap();
}

/// `commit_durable_timeout` on a partitioned table waits on the shard that
/// holds the data: with a device that takes 300 ms per batch, a 5 ms bound
/// must report `durable == false` and count the timeout, while the
/// unbounded `commit_durable` waits until the batch is on disk.
#[test]
fn partitioned_commit_durable_timeout_waits_on_the_partitions() {
    use std::time::{Duration, Instant};
    use tsp::storage::{BTreeBackend, FaultInjectingBackend, FaultPlan, StorageBackend};

    let spike = Duration::from_millis(300);
    let slow = FaultPlan {
        latency_spike: Some((1.0, spike)),
        ..FaultPlan::transient(0, 0.0)
    };
    let ctx = Arc::new(StateContext::new());
    ctx.enable_async_persistence();
    let mgr = TransactionManager::new(ctx);
    let table = PartitionedTable::<u32, i64>::with_partitioner(
        &mgr,
        Protocol::Mvcc,
        "slow",
        2,
        |_| {
            let inner: Arc<dyn StorageBackend> = Arc::new(BTreeBackend::new());
            Some(FaultInjectingBackend::wrap(inner, slow) as Arc<dyn StorageBackend>)
        },
        Arc::new(RangePartitioner::new(vec![SPLIT])),
    );

    let tx = mgr.begin().unwrap();
    table.write(&tx, 1, 10).unwrap();
    let started = Instant::now();
    let (cts, durable) = mgr
        .commit_durable_timeout(&tx, Duration::from_millis(5))
        .unwrap();
    assert!(cts.is_some());
    assert!(!durable, "a 300 ms write cannot be durable within 5 ms");
    assert!(started.elapsed() < spike, "the bounded wait overran");
    assert_eq!(
        mgr.context().telemetry_snapshot().stats.durability_timeouts,
        1
    );
    // Visible at once, durable once the slow batch lands.
    assert_eq!(committed(&mgr, &table, &[1]), vec![10]);
    mgr.flush().unwrap();

    let tx = mgr.begin().unwrap();
    table.write(&tx, 1, 11).unwrap();
    let started = Instant::now();
    assert!(mgr.commit_durable(&tx).unwrap().is_some());
    assert!(started.elapsed() >= spike, "commit_durable returned early");
}
