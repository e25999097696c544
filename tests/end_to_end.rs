//! Cross-crate integration tests: full pipelines from stream sources through
//! the linking operators into transactional states, under all three
//! concurrency-control protocols, including crash recovery.

use std::sync::Arc;
use tsp::core::prelude::*;
use tsp::storage::{LsmOptions, LsmStore, StorageBackend};
use tsp::stream::prelude::*;

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tsp-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A stream query writing two states through TO_TABLE must be atomic for
/// ad-hoc readers under every protocol.
#[test]
fn stream_to_two_states_is_atomic_under_all_protocols() {
    for protocol in ["mvcc", "s2pl", "bocc"] {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));

        // Build two states of the selected protocol behind a uniform closure
        // interface so one pipeline covers all three implementations.
        type Writer = Box<dyn Fn(&Tx, u32, u64) -> tsp::common::Result<()> + Send + Sync>;
        type Reader = Box<dyn Fn(&Tx, u32) -> tsp::common::Result<Option<u64>> + Send + Sync>;
        let mut writers: Vec<Writer> = Vec::new();
        let mut readers: Vec<Reader> = Vec::new();
        let mut ids = Vec::new();
        for i in 0..2 {
            match protocol {
                "mvcc" => {
                    let t = MvccTable::<u32, u64>::volatile(&ctx, format!("s{i}"));
                    mgr.register(t.clone());
                    ids.push(t.id());
                    let (tw, tr) = (Arc::clone(&t), t);
                    writers.push(Box::new(move |tx, k, v| tw.write(tx, k, v)));
                    readers.push(Box::new(move |tx, k| tr.read(tx, &k)));
                }
                "s2pl" => {
                    let t = S2plTable::<u32, u64>::volatile(&ctx, format!("s{i}"));
                    mgr.register(t.clone());
                    ids.push(t.id());
                    let (tw, tr) = (Arc::clone(&t), t);
                    writers.push(Box::new(move |tx, k, v| tw.write(tx, k, v)));
                    readers.push(Box::new(move |tx, k| tr.read(tx, &k)));
                }
                _ => {
                    let t = BoccTable::<u32, u64>::volatile(&ctx, format!("s{i}"));
                    mgr.register(t.clone());
                    ids.push(t.id());
                    let (tw, tr) = (Arc::clone(&t), t);
                    writers.push(Box::new(move |tx, k, v| tw.write(tx, k, v)));
                    readers.push(Box::new(move |tx, k| tr.read(tx, &k)));
                }
            }
        }
        mgr.register_group(&ids).unwrap();
        let coord = TxCoordinator::new(Arc::clone(&ctx));

        // One stream, both states written per transaction of 10 tuples.
        let topo = Topology::new();
        let data: Vec<(u32, u64)> = (0..100u32).map(|i| (i, i as u64 + 1)).collect();
        let branches = topo
            .source_vec(data)
            .punctuate_every(10, Arc::clone(&coord))
            .broadcast(2);
        for (branch, (writer, id)) in branches
            .into_iter()
            .zip(writers.into_iter().zip(ids.clone()))
        {
            branch
                .to_table(ToTable::new(
                    Arc::clone(&mgr),
                    Arc::clone(&coord),
                    id,
                    Boundaries::Punctuations,
                    move |tx: &Tx, (k, v): &(u32, u64)| writer(tx, *k, *v),
                ))
                .drain();
        }
        topo.run();

        // Every key must be present in both states with the same value.
        let q = mgr.begin_read_only().unwrap();
        for k in 0..100u32 {
            let a = readers[0](&q, k).unwrap();
            let b = readers[1](&q, k).unwrap();
            assert_eq!(a, Some(k as u64 + 1), "{protocol}: state 0 missing key {k}");
            assert_eq!(a, b, "{protocol}: states disagree on key {k}");
        }
        mgr.commit(&q).unwrap();
        assert_eq!(
            coord.live_count(),
            0,
            "{protocol}: leaked stream transactions"
        );
        assert_eq!(
            ctx.active_count(),
            0,
            "{protocol}: leaked transaction slots"
        );
    }
}

/// Concurrent ad-hoc readers never observe a torn multi-state commit while a
/// stream writer continuously moves value between two MVCC states.
#[test]
fn concurrent_adhoc_readers_see_consistent_snapshots() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let ctx = Arc::new(StateContext::new());
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let a = MvccTable::<u32, i64>::volatile(&ctx, "a");
    let b = MvccTable::<u32, i64>::volatile(&ctx, "b");
    mgr.register(a.clone());
    mgr.register(b.clone());
    mgr.register_group(&[a.id(), b.id()]).unwrap();

    // Invariant: a[k] + b[k] == 0 for every key, in every committed snapshot.
    let init = mgr.begin().unwrap();
    for k in 0..32u32 {
        a.write(&init, k, 0).unwrap();
        b.write(&init, k, 0).unwrap();
    }
    mgr.commit(&init).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    // Snapshots the readers have checked so far.
    let checked = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let mgr = Arc::clone(&mgr);
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            let stop = Arc::clone(&stop);
            let checked = Arc::clone(&checked);
            std::thread::spawn(move || {
                let mut checks = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let q = mgr.begin_read_only().unwrap();
                    for k in 0..32u32 {
                        let va = a.read(&q, &k).unwrap().unwrap_or(0);
                        let vb = b.read(&q, &k).unwrap().unwrap_or(0);
                        assert_eq!(va + vb, 0, "torn snapshot at key {k}");
                    }
                    mgr.commit(&q).unwrap();
                    checks += 1;
                    checked.fetch_add(1, Ordering::Relaxed);
                }
                checks
            })
        })
        .collect();

    // The writer moves amounts so that the per-key sum stays zero.  It
    // writes 199 rounds, and more until a reader has checked a snapshot, so
    // the readers overlap its commits however the threads are scheduled.
    let mut round = 0i64;
    while round < 199 || (checked.load(Ordering::Relaxed) == 0 && round < 100_000) {
        round += 1;
        let tx = mgr.begin().unwrap();
        for k in 0..32u32 {
            a.write(&tx, k, round).unwrap();
            b.write(&tx, k, -round).unwrap();
        }
        mgr.commit(&tx).unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let total_checks: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total_checks > 0, "readers never got to run");
}

/// Committed stream data survives a crash; in-flight data does not.
#[test]
fn crash_recovery_preserves_exactly_the_committed_prefix() {
    let dir = temp_dir("recovery");
    let committed_batches = 5u64;

    {
        let backend_a: Arc<dyn StorageBackend> =
            Arc::new(LsmStore::open(dir.join("a"), LsmOptions::paper_default()).unwrap());
        let backend_b: Arc<dyn StorageBackend> =
            Arc::new(LsmStore::open(dir.join("b"), LsmOptions::paper_default()).unwrap());
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let a = MvccTable::<u64, u64>::persistent(&ctx, "a", backend_a);
        let b = MvccTable::<u64, u64>::persistent(&ctx, "b", backend_b);
        mgr.register(a.clone());
        mgr.register(b.clone());
        mgr.register_group(&[a.id(), b.id()]).unwrap();

        for batch in 0..committed_batches {
            let tx = mgr.begin().unwrap();
            for i in 0..10u64 {
                a.write(&tx, batch * 10 + i, batch).unwrap();
                b.write(&tx, batch * 10 + i, batch).unwrap();
            }
            mgr.commit(&tx).unwrap();
        }
        // One more transaction stays uncommitted — the "crash" happens now.
        let in_flight = mgr.begin().unwrap();
        a.write(&in_flight, 9_999, 42).unwrap();
        b.write(&in_flight, 9_999, 42).unwrap();
        // drop everything without committing
    }

    // Restart.
    let backend_a: Arc<dyn StorageBackend> =
        Arc::new(LsmStore::open(dir.join("a"), LsmOptions::paper_default()).unwrap());
    let backend_b: Arc<dyn StorageBackend> =
        Arc::new(LsmStore::open(dir.join("b"), LsmOptions::paper_default()).unwrap());
    let clock = resume_clock(&[&*backend_a, &*backend_b]).unwrap();
    let ctx = Arc::new(StateContext::with_clock(clock));
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let a = MvccTable::<u64, u64>::persistent(&ctx, "a", Arc::clone(&backend_a));
    let b = MvccTable::<u64, u64>::persistent(&ctx, "b", Arc::clone(&backend_b));
    mgr.register(a.clone());
    mgr.register(b.clone());
    let group = mgr.register_group(&[a.id(), b.id()]).unwrap();
    let report = restore_group(&ctx, group, &[&*backend_a, &*backend_b]).unwrap();
    assert!(!report.torn_group_commit);

    let q = mgr.begin_read_only().unwrap();
    for batch in 0..committed_batches {
        for i in 0..10u64 {
            assert_eq!(a.read(&q, &(batch * 10 + i)).unwrap(), Some(batch));
            assert_eq!(b.read(&q, &(batch * 10 + i)).unwrap(), Some(batch));
        }
    }
    assert_eq!(
        a.read(&q, &9_999).unwrap(),
        None,
        "uncommitted write must be gone"
    );
    assert_eq!(b.read(&q, &9_999).unwrap(), None);
    mgr.commit(&q).unwrap();

    // The system keeps working after recovery.
    let tx = mgr.begin().unwrap();
    a.write(&tx, 500, 7).unwrap();
    b.write(&tx, 500, 7).unwrap();
    assert!(mgr.commit(&tx).unwrap().unwrap() > report.last_cts);

    let _ = std::fs::remove_dir_all(dir);
}

/// The full linking-operator chain: TO_TABLE → TO_STREAM → FROM.
#[test]
fn linking_operators_compose() {
    let ctx = Arc::new(StateContext::new());
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let totals = MvccTable::<u64, u64>::volatile(&ctx, "totals");
    mgr.register(totals.clone());
    mgr.register_group(&[totals.id()]).unwrap();
    let coord = TxCoordinator::new(Arc::clone(&ctx));

    let topo = Topology::new();
    let writer_table = Arc::clone(&totals);
    let query_table = Arc::clone(&totals);
    let per_commit_sums = topo
        .source_generate(90, |i| (i % 3, 1u64))
        .punctuate_every(30, Arc::clone(&coord))
        .to_table(ToTable::new(
            Arc::clone(&mgr),
            Arc::clone(&coord),
            totals.id(),
            Boundaries::Punctuations,
            move |tx: &Tx, (k, inc): &(u64, u64)| {
                let current = writer_table.read(tx, k)?.unwrap_or(0);
                writer_table.write(tx, *k, current + inc)
            },
        ))
        .to_stream(Arc::clone(&mgr), TriggerPolicy::OnCommit, move |tx| {
            Ok(vec![query_table.scan(tx)?.values().sum::<u64>()])
        })
        .collect();
    topo.run();

    // Three commits of 30 increments each; sums are multiples of 30 and
    // monotonically non-decreasing, ending at 90.
    let sums = per_commit_sums.take();
    assert_eq!(sums.len(), 3);
    assert!(sums.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(*sums.last().unwrap(), 90);
    assert!(sums.iter().all(|s| s % 30 == 0));

    // FROM (ad-hoc) sees the final state.
    let table_q = Arc::clone(&totals);
    let q = AdHocQuery::new(Arc::clone(&mgr), move |tx| {
        Ok(table_q.scan(tx)?.into_iter().collect::<Vec<_>>())
    });
    let rows = q.run().unwrap();
    assert_eq!(rows, vec![(0, 30), (1, 30), (2, 30)]);
}

/// The window → aggregate → TO_TABLE chain publishes operator state as a
/// queryable table (requirement ① of the paper's introduction).
#[test]
fn window_aggregate_state_is_queryable() {
    let ctx = Arc::new(StateContext::new());
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let window_state = MvccTable::<u64, u64>::volatile(&ctx, "window_sums");
    mgr.register(window_state.clone());
    mgr.register_group(&[window_state.id()]).unwrap();
    let coord = TxCoordinator::new(Arc::clone(&ctx));

    let topo = Topology::new();
    let table = Arc::clone(&window_state);
    topo.source_generate(100, |i| (i % 5, i))
        .tumbling_count_window(20)
        .aggregate_by_key(|(k, _): &(u64, u64)| *k, || 0u64, |acc, (_, v)| acc + v)
        .punctuate_every(5, Arc::clone(&coord))
        .to_table(ToTable::new(
            Arc::clone(&mgr),
            Arc::clone(&coord),
            window_state.id(),
            Boundaries::Punctuations,
            move |tx: &Tx, (k, sum): &(u64, u64)| table.write(tx, *k, *sum),
        ))
        .drain();
    topo.run();

    let q = mgr.begin_read_only().unwrap();
    let snapshot = window_state.scan(&q).unwrap();
    assert_eq!(snapshot.len(), 5, "one row per group key");
    // The last window covers i in 80..100; group k holds the sum of those i
    // with i % 5 == k.
    for k in 0..5u64 {
        let expected: u64 = (80..100u64).filter(|i| i % 5 == k).sum();
        assert_eq!(snapshot.get(&k), Some(&expected), "group {k}");
    }
    mgr.commit(&q).unwrap();
}
