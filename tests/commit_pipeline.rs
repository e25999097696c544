//! Integration tests of the two-stage commit pipeline: the group commit
//! locks (stage 1) and pipelined asynchronous persistence behind the
//! `DurableCTS` watermark (stage 2), plus the failed-apply uninstall path
//! the pipeline relies on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tsp::core::prelude::*;
use tsp::storage::{lsm, Codec, LsmOptions, LsmStore, StorageBackend, WriteBatch};

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tsp-pipeline-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A backend decorator whose batch writes start failing on demand — the
/// deterministic stand-in for "the machine died before this batch hit disk".
/// Everything applied before the switch flips is durable in `inner`;
/// everything after is lost, exactly like a crash of the persistence writer.
struct FailSwitchBackend {
    inner: Arc<LsmStore>,
    fail: AtomicBool,
}

impl FailSwitchBackend {
    fn new(inner: Arc<LsmStore>) -> Arc<Self> {
        Arc::new(FailSwitchBackend {
            inner,
            fail: AtomicBool::new(false),
        })
    }

    fn start_failing(&self) {
        self.set_failing(true);
    }

    fn set_failing(&self, fail: bool) {
        self.fail.store(fail, Ordering::Release);
    }

    fn check(&self) -> tsp::common::Result<()> {
        if self.fail.load(Ordering::Acquire) {
            return Err(tsp::common::TspError::Io(std::io::Error::other(
                "simulated crash of the persistence device",
            )));
        }
        Ok(())
    }
}

impl StorageBackend for FailSwitchBackend {
    fn get(&self, key: &[u8]) -> tsp::common::Result<Option<Vec<u8>>> {
        self.inner.get(key)
    }
    fn put(&self, key: &[u8], value: &[u8]) -> tsp::common::Result<()> {
        self.check()?;
        self.inner.put(key, value)
    }
    fn delete(&self, key: &[u8]) -> tsp::common::Result<()> {
        self.check()?;
        self.inner.delete(key)
    }
    fn write_batch(&self, batch: &WriteBatch) -> tsp::common::Result<()> {
        self.check()?;
        self.inner.write_batch(batch)
    }
    fn scan(&self, visit: &mut dyn FnMut(&[u8], &[u8]) -> bool) -> tsp::common::Result<()> {
        self.inner.scan(visit)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn sync(&self) -> tsp::common::Result<()> {
        self.check()?;
        self.inner.sync()
    }
    fn name(&self) -> &'static str {
        "fail-switch(lsm)"
    }
}

/// Satellite: killing the asynchronous persistence writer mid-stream loses
/// only a *suffix* of commits.  Recovery replays exactly up to `DurableCTS`
/// (the persisted `last_cts` marker): every commit at or below it is fully
/// present, nothing above it leaks — a prefix-consistent state with no torn
/// group commit.
#[test]
fn killed_async_writer_recovers_a_prefix_up_to_durable_cts() {
    let dir = temp_dir("killwriter");
    let opts = LsmOptions::no_sync();
    let mut committed: Vec<(u64, u32, u64)> = Vec::new(); // (cts, key, value)
    let durable_cut;
    {
        let store = Arc::new(LsmStore::open(dir.join("state"), opts.clone()).unwrap());
        let backend = FailSwitchBackend::new(Arc::clone(&store));
        let ctx = Arc::new(StateContext::new());
        ctx.enable_async_persistence();
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let table = MvccTable::<u32, u64>::persistent(&ctx, "state", backend.clone());
        mgr.register(table.clone());
        mgr.register_group(&[table.id()]).unwrap();
        assert_eq!(ctx.durability().writer_count(), 1);

        // Phase 1: ten commits, confirmed durable through the watermark.
        for i in 0..10u32 {
            let tx = mgr.begin().unwrap();
            table.write(&tx, i, i as u64 + 100).unwrap();
            let cts = mgr.commit(&tx).unwrap().unwrap();
            committed.push((cts, i, i as u64 + 100));
        }
        mgr.flush().unwrap();
        durable_cut = committed[9].0;
        assert!(
            ctx.durability().durable_cts().unwrap() >= durable_cut,
            "the watermark covers everything flushed"
        );

        // Phase 2: the persistence device "dies".  Further commits may stay
        // visible in memory but can never become durable; the writer goes
        // sticky-failed and the durability API reports it.
        backend.start_failing();
        let mut failed = false;
        for i in 10..20u32 {
            let tx = mgr.begin().unwrap();
            table.write(&tx, i, i as u64 + 100).unwrap();
            match mgr.commit(&tx) {
                Ok(Some(cts)) => committed.push((cts, i, i as u64 + 100)),
                Ok(None) => unreachable!("writer transactions carry a cts"),
                Err(_) => {
                    failed = true; // sticky writer failure surfaced at commit
                    break;
                }
            }
        }
        assert!(
            mgr.flush().is_err() || failed,
            "the lost suffix must be reported, not silently dropped"
        );
        // The process "crashes" here: everything still queued is abandoned.
    }

    // Restart from the raw store.
    let store = Arc::new(LsmStore::open(dir.join("state"), opts).unwrap());
    let clock = resume_clock(&[&*store]).unwrap();
    let ctx = Arc::new(StateContext::with_clock(clock));
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let table = MvccTable::<u32, u64>::persistent(&ctx, "state", store.clone());
    mgr.register(table.clone());
    let group = mgr.register_group(&[table.id()]).unwrap();
    let report = restore_group(&ctx, group, &[&*store]).unwrap();
    assert!(
        !report.torn_group_commit,
        "a single-state group can never recover torn"
    );
    let recovered = report.last_cts;
    assert!(
        recovered >= durable_cut,
        "everything flushed before the crash must be recovered"
    );

    // Prefix consistency: each commit is in the base table iff its cts is at
    // or below the recovered horizon.
    let q = mgr.begin_read_only().unwrap();
    for (cts, key, value) in &committed {
        let read = table.read(&q, key).unwrap();
        if *cts <= recovered {
            assert_eq!(read, Some(*value), "commit {cts} is inside the prefix");
        } else {
            assert_eq!(read, None, "commit {cts} was lost with the crash");
        }
    }
    mgr.commit(&q).unwrap();
    lsm::destroy(dir.join("state")).unwrap();
}

/// A two-state group whose backends drain independently: if the crash loses
/// more on one state than the other, recovery replays the lagging state's
/// missing batch from the group redo record carried by the surviving one —
/// the horizon is the maximum prefix, not a fence to the minimum.
#[test]
fn async_writers_torn_across_states_are_rolled_forward() {
    let dir = temp_dir("asynctorn");
    let opts = LsmOptions::no_sync();
    let last_cts;
    {
        let store_a = Arc::new(LsmStore::open(dir.join("a"), opts.clone()).unwrap());
        let store_b = Arc::new(LsmStore::open(dir.join("b"), opts.clone()).unwrap());
        let fail_b = FailSwitchBackend::new(Arc::clone(&store_b));
        let ctx = Arc::new(StateContext::new());
        ctx.enable_async_persistence();
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let a = MvccTable::<u32, u64>::persistent(&ctx, "a", store_a.clone());
        let b = MvccTable::<u32, u64>::persistent(&ctx, "b", fail_b.clone());
        mgr.register(a.clone());
        mgr.register(b.clone());
        mgr.register_group(&[a.id(), b.id()]).unwrap();

        let tx = mgr.begin().unwrap();
        a.write(&tx, 1, 1).unwrap();
        b.write(&tx, 1, 1).unwrap();
        mgr.commit(&tx).unwrap();
        mgr.flush().unwrap();

        // State B's device dies; the next group commit reaches only A.
        fail_b.start_failing();
        let tx = mgr.begin().unwrap();
        a.write(&tx, 2, 2).unwrap();
        b.write(&tx, 2, 2).unwrap();
        match mgr.commit(&tx) {
            Ok(Some(cts)) => last_cts = cts,
            Ok(None) => unreachable!(),
            Err(_) => last_cts = 0, // enqueue already saw the sticky failure
        }
        // Give A's writer time to drain its (healthy) queue.
        mgr.flush().err();
        let _ = ctx.durability().wait_durable(last_cts);
    }

    let store_a = Arc::new(LsmStore::open(dir.join("a"), opts.clone()).unwrap());
    let store_b = Arc::new(LsmStore::open(dir.join("b"), opts).unwrap());
    let ctx = Arc::new(StateContext::with_clock(
        resume_clock(&[&*store_a, &*store_b]).unwrap(),
    ));
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let a = MvccTable::<u32, u64>::persistent(&ctx, "a", store_a.clone());
    let b = MvccTable::<u32, u64>::persistent(&ctx, "b", store_b.clone());
    mgr.register(a.clone());
    mgr.register(b.clone());
    let group = mgr.register_group(&[a.id(), b.id()]).unwrap();
    let report = restore_group(&ctx, group, &[&*store_a, &*store_b]).unwrap();
    // Whether the second commit reached A depends on drain timing, but the
    // invariant is unconditional: after recovery both states expose the
    // *same* prefix — A's durable batch carried the whole group's redo
    // record, so if A holds commit 2, B was repaired to hold it too.
    assert_eq!(
        report.last_cts,
        report
            .per_state
            .iter()
            .map(|c| c.unwrap_or_default())
            .max()
            .unwrap(),
        "the horizon is the maximum stored prefix, never a min-fence"
    );
    let q = mgr.begin_read_only().unwrap();
    assert_eq!(a.read(&q, &1).unwrap(), Some(1));
    assert_eq!(b.read(&q, &1).unwrap(), Some(1));
    let a2 = a.read(&q, &2).unwrap();
    let b2 = b.read(&q, &2).unwrap();
    assert_eq!(a2, b2, "recovery leaves no torn suffix between the states");
    if report.per_state[0] != report.per_state[1] {
        assert!(
            report.torn_group_commit,
            "unequal prefixes must be repaired"
        );
        assert!(report.replayed_commits >= 1);
        assert_eq!(b2, Some(2), "the lagging state was rolled forward");
    }
    mgr.commit(&q).unwrap();
    lsm::destroy(dir.join("a")).unwrap();
    lsm::destroy(dir.join("b")).unwrap();
}

/// `commit_durable` blocks until the asynchronous writer has applied the
/// commit; `commit` alone only guarantees visibility.
#[test]
fn commit_durable_waits_for_the_watermark() {
    let dir = temp_dir("durablewait");
    let store = Arc::new(LsmStore::open(dir.join("s"), LsmOptions::no_sync()).unwrap());
    let ctx = Arc::new(StateContext::new());
    ctx.enable_async_persistence();
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let table = MvccTable::<u32, u64>::persistent(&ctx, "s", store.clone());
    mgr.register(table.clone());
    mgr.register_group(&[table.id()]).unwrap();

    let tx = mgr.begin().unwrap();
    table.write(&tx, 7, 77).unwrap();
    let cts = mgr.commit_durable(&tx).unwrap().unwrap();
    assert!(ctx.durability().durable_cts().unwrap() >= cts);
    // The durable marker in the base table has reached the commit.
    assert!(tsp::core::recovery::recover_table_cts(&*store).unwrap() >= Some(cts));

    // Read-only transactions never wait on durability.
    let q = mgr.begin_read_only().unwrap();
    assert_eq!(table.read(&q, &7).unwrap(), Some(77));
    assert_eq!(mgr.commit_durable(&q).unwrap(), None);
    drop(mgr);
    drop(ctx); // joins the writer
    lsm::destroy(dir.join("s")).unwrap();
}

/// Concurrency stress on one group's commit lock — 12 committers hammer
/// one group.  Every thread's last committed value must be visible
/// afterwards, the commit counters must add up, the group's `LastCTS` must
/// equal the largest commit timestamp any thread received, and no slot may
/// leak.
#[test]
fn many_committers_of_one_group_keep_counters_last_cts_and_slots_exact() {
    const THREADS: usize = 12;
    const ROUNDS: usize = 150;
    for protocol in [Protocol::Mvcc, Protocol::Ssi] {
        let ctx = Arc::new(StateContext::with_capacity(2 * THREADS + 4));
        let mgr = Arc::new(TransactionManager::new(Arc::clone(&ctx)));
        let table = protocol.create_table::<u64, u64>(&ctx, "hot", None);
        mgr.register(Arc::clone(&table).as_participant());
        let group = mgr.register_group(&[table.id()]).unwrap();

        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let mgr = Arc::clone(&mgr);
                let table = Arc::clone(&table);
                std::thread::spawn(move || {
                    let mut committed = 0u64;
                    let mut aborted = 0u64;
                    let mut max_cts = 0u64;
                    for round in 0..ROUNDS {
                        let tx = match mgr.begin() {
                            Ok(tx) => tx,
                            Err(_) => continue,
                        };
                        // A private key (never conflicts) and, every fourth
                        // round, the shared hot key (FCW/SSI conflicts).
                        let mut ok = table.write(&tx, 1000 + t as u64, round as u64).is_ok();
                        if ok && round % 4 == 0 {
                            ok = table.write(&tx, 1, (t * ROUNDS + round) as u64).is_ok();
                        }
                        if !ok {
                            let _ = mgr.abort(&tx);
                            aborted += 1;
                            continue;
                        }
                        match mgr.commit(&tx) {
                            Ok(Some(cts)) => {
                                committed += 1;
                                max_cts = max_cts.max(cts);
                            }
                            Ok(None) => unreachable!("writers carry a cts"),
                            Err(_) => aborted += 1,
                        }
                    }
                    (committed, aborted, max_cts)
                })
            })
            .collect();
        let mut committed = 0;
        let mut aborted = 0;
        let mut max_cts = 0;
        for h in handles {
            let (c, a, m) = h.join().unwrap();
            committed += c;
            aborted += a;
            max_cts = max_cts.max(m);
        }
        assert!(committed > 0, "{protocol}: some transactions must commit");
        let stats = ctx.telemetry_snapshot().stats;
        assert_eq!(stats.committed, committed, "{protocol}: commit counter");
        assert_eq!(stats.aborted, aborted, "{protocol}: abort counter");
        assert_eq!(
            ctx.last_cts(group).unwrap(),
            max_cts,
            "{protocol}: LastCTS equals the largest published commit"
        );
        // Every thread's private key holds its last committed round.
        let q = mgr.begin_read_only().unwrap();
        for t in 0..THREADS {
            let value = table.read(&q, &(1000 + t as u64)).unwrap();
            assert!(value.is_some(), "{protocol}: thread {t}'s key visible");
        }
        mgr.commit(&q).unwrap();
        assert_eq!(ctx.active_count(), 0, "{protocol}: no leaked slots");
    }
}

/// A group registered on the context alone, not through the manager, still
/// has a commit lock: 4 threads of read-increment-write commits on one
/// counter lose no increment, under First-Committer-Wins (MVCC) and under
/// read-set certification (SSI).  The final value equals the number of
/// commits that returned `Ok`.
#[test]
fn a_group_registered_on_the_context_loses_no_committed_increment() {
    const THREADS: usize = 4;
    const ROUNDS: u64 = 2_000;
    for protocol in [Protocol::Mvcc, Protocol::Ssi] {
        let ctx = Arc::new(StateContext::with_capacity(2 * THREADS + 4));
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let table = protocol.create_table::<u64, u64>(&ctx, "counter", None);
        mgr.register(Arc::clone(&table).as_participant());
        ctx.register_group(&[table.id()]).unwrap();

        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let mgr = Arc::clone(&mgr);
                let table = Arc::clone(&table);
                std::thread::spawn(move || {
                    let mut committed = 0u64;
                    for _ in 0..ROUNDS {
                        let tx = mgr.begin().unwrap();
                        let n = table.read(&tx, &0).unwrap().unwrap_or(0);
                        if table.write(&tx, 0, n + 1).is_err() {
                            let _ = mgr.abort(&tx);
                            continue;
                        }
                        if mgr.commit(&tx).is_ok() {
                            committed += 1;
                        }
                    }
                    committed
                })
            })
            .collect();
        let committed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let q = mgr.begin_read_only().unwrap();
        let value = table.read(&q, &0).unwrap().unwrap_or(0);
        mgr.commit(&q).unwrap();
        assert!(committed > 0, "{protocol}: some increments must commit");
        assert_eq!(
            value,
            committed,
            "{protocol}: {} of {committed} committed increments lost",
            committed.saturating_sub(value)
        );
    }
}

/// A value whose clone panics for [`Fragile::POISON`]: the deterministic
/// stand-in for a participant whose apply fails mid-commit (a panicking
/// user codec or clone), after earlier participants already applied.
#[derive(Debug, PartialEq, Eq)]
struct Fragile(u64);

impl Fragile {
    const POISON: u64 = 999;
}

impl Clone for Fragile {
    fn clone(&self) -> Self {
        assert_ne!(self.0, Self::POISON, "poisoned value cloned");
        Fragile(self.0)
    }
}

impl Codec for Fragile {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
    }

    fn decode(bytes: &[u8]) -> tsp::common::Result<Self> {
        u64::decode(bytes).map(Fragile)
    }
}

/// A failed apply must not leak installed-but-never-published versions,
/// commit-log records or in-place writes that spuriously abort an
/// unrelated, concurrent committer — and First-Committer-Wins must still
/// catch a real conflict afterwards.  Under every protocol, the second
/// participant's apply panics mid-loop, after the first one applied a put
/// and a delete.
#[test]
fn failed_apply_does_not_abort_unrelated_committer() {
    for protocol in Protocol::ALL {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        // `a` registers first (lower state id), so the manager applies `a`
        // before `b` — the failure on `b` strikes after `a`'s writes are
        // already applied.
        let a = protocol.create_table::<u32, u64>(&ctx, "a", None);
        let b = protocol.create_table::<u32, Fragile>(&ctx, "b", None);
        mgr.register(Arc::clone(&a).as_participant());
        mgr.register(Arc::clone(&b).as_participant());
        mgr.register_group(&[a.id(), b.id()]).unwrap();
        let init = mgr.begin().unwrap();
        a.write(&init, 1, 1).unwrap();
        a.write(&init, 2, 2).unwrap();
        b.write(&init, 0, Fragile(0)).unwrap();
        mgr.commit(&init).unwrap();

        // `u` and `old` begin *before* the doomed transaction commits, so
        // their snapshot floors are below the failed apply's commit
        // timestamp — without the uninstall path, the leaked version on a:1
        // or the leaked delete of a:2 would spuriously trip
        // First-Committer-Wins.
        let u = mgr.begin().unwrap();
        let old = mgr.begin().unwrap();

        let doomed = mgr.begin().unwrap();
        a.write(&doomed, 1, 11).unwrap();
        a.delete(&doomed, 2).unwrap();
        // `b` applies key 5 before the poisoned key 0 panics mid-loop.
        b.write(&doomed, 5, Fragile(5)).unwrap();
        b.write(&doomed, 0, Fragile(Fragile::POISON)).unwrap();
        let err = mgr.commit(&doomed).unwrap_err();
        assert!(
            err.to_string().contains("panicked"),
            "{protocol}: expected the apply failure, got {err}"
        );
        // Nothing the doomed transaction applied stayed visible.
        let q = mgr.begin_read_only().unwrap();
        assert_eq!(a.read(&q, &1).unwrap(), Some(1), "{protocol}");
        assert_eq!(a.read(&q, &2).unwrap(), Some(2), "{protocol}");
        assert_eq!(b.read(&q, &5).unwrap(), None, "{protocol}");
        mgr.commit(&q).unwrap();

        a.write(&u, 1, 22).unwrap();
        a.write(&u, 2, 33).unwrap();
        mgr.commit(&u)
            .unwrap_or_else(|e| panic!("{protocol}: unrelated committer spuriously aborted: {e}"));

        // `old` began before `u` committed: its blind write of a:1 is a
        // first-committer-wins conflict, except under S2PL, which has no
        // commit-time check and serializes it after `u`.
        a.write(&old, 1, 44).unwrap();
        let old_committed = mgr.commit(&old).is_ok();
        assert_eq!(
            old_committed,
            protocol == Protocol::S2pl,
            "{protocol}: the concurrent writer of a:1"
        );

        let q = mgr.begin_read_only().unwrap();
        let a1 = if old_committed { 44 } else { 22 };
        assert_eq!(a.read(&q, &1).unwrap(), Some(a1), "{protocol}");
        assert_eq!(a.read(&q, &2).unwrap(), Some(33), "{protocol}");
        assert_eq!(b.read(&q, &0).unwrap(), Some(Fragile(0)), "{protocol}");
        mgr.commit(&q).unwrap();
    }
}

/// Group redo records are deleted online once every state holding a copy
/// durably applied their commit: after a flush, the next group commit's
/// batches delete every earlier record, so each store keeps only the
/// newest one.  A persistent table of another group that was written once
/// and then left idle does not hold the deletion back.  A crash that then
/// tears a group commit still finds the torn commit's record and rolls the
/// lagging state forward exactly.
#[test]
fn redo_records_are_truncated_below_the_durable_watermark() {
    use tsp::storage::scan_redo;
    let dir = temp_dir("redotrunc");
    let opts = LsmOptions::no_sync();
    let torn_cts;
    {
        let store_a = Arc::new(LsmStore::open(dir.join("a"), opts.clone()).unwrap());
        let store_b = Arc::new(LsmStore::open(dir.join("b"), opts.clone()).unwrap());
        let store_idle = Arc::new(LsmStore::open(dir.join("idle"), opts.clone()).unwrap());
        let fail_b = FailSwitchBackend::new(Arc::clone(&store_b));
        let ctx = Arc::new(StateContext::new());
        ctx.enable_async_persistence();
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let a = MvccTable::<u32, u64>::persistent(&ctx, "a", store_a.clone());
        let b = MvccTable::<u32, u64>::persistent(&ctx, "b", fail_b.clone());
        let idle = MvccTable::<u32, u64>::persistent(&ctx, "idle", store_idle);
        mgr.register(a.clone());
        mgr.register(b.clone());
        mgr.register(idle.clone());
        mgr.register_group(&[a.id(), b.id()]).unwrap();
        mgr.register_group(&[idle.id()]).unwrap();
        // A lookup-style table: one write at setup, none afterwards, so its
        // writer's durable watermark stays at this commit.
        let tx = mgr.begin().unwrap();
        idle.write(&tx, 0, 0).unwrap();
        mgr.commit(&tx).unwrap();
        let commit_both = |k: u32| {
            let tx = mgr.begin().unwrap();
            a.write(&tx, k, u64::from(k)).unwrap();
            b.write(&tx, k, u64::from(k)).unwrap();
            mgr.commit(&tx)
        };

        // A flush every 20 commits: each batch after a flush deletes every
        // record the flush made durable, so no store ever holds more than
        // 20 records (without truncation it would hold one per commit).
        for k in 0..200 {
            commit_both(k).unwrap();
            if k % 20 == 19 {
                mgr.flush().unwrap();
            }
            for store in [&store_a, &store_b] {
                assert!(scan_redo(&**store).unwrap().len() <= 20, "commit {k}");
            }
        }
        let last = commit_both(200).unwrap().unwrap();
        mgr.flush().unwrap();
        for store in [&store_a, &store_b] {
            let live: Vec<u64> = scan_redo(&**store).unwrap().into_keys().collect();
            assert_eq!(live, vec![last], "only the record above the watermark");
        }

        // State B's device dies; the next group commit reaches only A.
        fail_b.start_failing();
        torn_cts = commit_both(201).ok().flatten();
        mgr.flush().err();
        if let Some(cts) = torn_cts {
            let _ = ctx.durability().wait_durable(cts);
        }
    }

    let store_a = Arc::new(LsmStore::open(dir.join("a"), opts.clone()).unwrap());
    let store_b = Arc::new(LsmStore::open(dir.join("b"), opts).unwrap());
    let ctx = Arc::new(StateContext::with_clock(
        resume_clock(&[&*store_a, &*store_b]).unwrap(),
    ));
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let a = MvccTable::<u32, u64>::persistent(&ctx, "a", store_a.clone());
    let b = MvccTable::<u32, u64>::persistent(&ctx, "b", store_b.clone());
    mgr.register(a.clone());
    mgr.register(b.clone());
    let group = mgr.register_group(&[a.id(), b.id()]).unwrap();
    let report = restore_group(&ctx, group, &[&*store_a, &*store_b]).unwrap();
    let q = mgr.begin_read_only().unwrap();
    for k in 0..=200u32 {
        assert_eq!(a.read(&q, &k).unwrap(), Some(u64::from(k)));
        assert_eq!(b.read(&q, &k).unwrap(), Some(u64::from(k)));
    }
    let (a_torn, b_torn) = (a.read(&q, &201).unwrap(), b.read(&q, &201).unwrap());
    assert_eq!(
        a_torn, b_torn,
        "recovery leaves no torn suffix between the states"
    );
    if report.per_state[0] != report.per_state[1] {
        assert_eq!(
            report.replayed_commits, 1,
            "the torn commit was rolled forward"
        );
        assert_eq!(b_torn, Some(201));
        assert_eq!(Some(report.last_cts), torn_cts);
    }
    mgr.commit(&q).unwrap();
    lsm::destroy(dir.join("a")).unwrap();
    lsm::destroy(dir.join("b")).unwrap();
    lsm::destroy(dir.join("idle")).unwrap();
}

/// A commit batch that fails to persist keeps the records it was to delete
/// tracked: the next batch that persists deletes them, so a transient
/// device failure leaves no stale record behind (synchronous persistence).
#[test]
fn a_failed_batch_keeps_its_redo_deletions_for_the_next_one() {
    use tsp::storage::scan_redo;
    let dir = temp_dir("redofail");
    let opts = LsmOptions::no_sync();
    let store_a = Arc::new(LsmStore::open(dir.join("a"), opts.clone()).unwrap());
    let store_b = Arc::new(LsmStore::open(dir.join("b"), opts).unwrap());
    let fail_a = FailSwitchBackend::new(Arc::clone(&store_a));
    let ctx = Arc::new(StateContext::new());
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let a = MvccTable::<u32, u64>::persistent(&ctx, "a", fail_a.clone());
    let b = MvccTable::<u32, u64>::persistent(&ctx, "b", store_b.clone());
    mgr.register(a.clone());
    mgr.register(b.clone());
    mgr.register_group(&[a.id(), b.id()]).unwrap();
    let commit_both = |k: u32| {
        let tx = mgr.begin().unwrap();
        a.write(&tx, k, u64::from(k)).unwrap();
        b.write(&tx, k, u64::from(k)).unwrap();
        mgr.commit(&tx)
    };
    for k in 0..3 {
        commit_both(k).unwrap();
    }
    // State A's device fails once: the commit aborts, and A's batch —
    // which would have deleted the previous record — is lost.
    fail_a.set_failing(true);
    assert!(commit_both(3).is_err());
    fail_a.set_failing(false);
    let mut last = 0;
    for k in 4..6 {
        last = commit_both(k).unwrap().unwrap();
    }
    let live: Vec<u64> = scan_redo(&*store_a).unwrap().into_keys().collect();
    assert_eq!(live, vec![last], "only the newest record is left on A");
    drop((a, b, mgr, ctx, fail_a));
    drop((store_a, store_b));
    lsm::destroy(dir.join("a")).unwrap();
    lsm::destroy(dir.join("b")).unwrap();
}

/// Partition shards truncate their redo records by the same rule: the
/// `DurableCTS` of every shard holding a copy bounds a record, although
/// each shard is in a commit group of its own.
#[test]
fn partition_shards_truncate_redo_records_below_their_watermark() {
    use tsp::storage::{scan_redo, BTreeBackend};
    let ctx = Arc::new(StateContext::new());
    ctx.enable_async_persistence();
    let mgr = TransactionManager::new(ctx);
    let backends: Vec<Arc<BTreeBackend>> = (0..4).map(|_| Arc::new(BTreeBackend::new())).collect();
    let shard = |t: usize| {
        let backends = backends.clone();
        move |p: usize| Some(Arc::clone(&backends[2 * t + p]) as Arc<dyn StorageBackend>)
    };
    let t1 = PartitionedTable::<u32, u64>::new(&mgr, Protocol::Mvcc, "kv1", 2, shard(0));
    let t2 = PartitionedTable::<u32, u64>::new(&mgr, Protocol::Mvcc, "kv2", 2, shard(1));
    let commit_all = |round: u64| {
        // Keys 0..16 cover both partitions; each commit writes both tables
        // on every partition, so every shard logs a redo record.
        let tx = mgr.begin().unwrap();
        for k in 0..16u32 {
            t1.write(&tx, k, round).unwrap();
            t2.write(&tx, k, round).unwrap();
        }
        mgr.commit(&tx).unwrap();
    };
    for round in 0..30 {
        commit_all(round);
    }
    mgr.flush().unwrap();
    commit_all(30);
    mgr.flush().unwrap();
    for b in &backends {
        assert_eq!(scan_redo(&**b).unwrap().len(), 1, "only the newest record");
    }
}

/// Each state's commit batch stores the group redo record with the *other*
/// states' sections only, and without pre-images, on every protocol.
#[test]
fn each_state_stores_only_the_other_states_redo_sections() {
    use tsp::storage::{redo_key, BTreeBackend, RedoRecord};
    for protocol in Protocol::ALL {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let backends: Vec<Arc<BTreeBackend>> =
            (0..3).map(|_| Arc::new(BTreeBackend::new())).collect();
        let tables: Vec<_> = backends
            .iter()
            .enumerate()
            .map(|(i, b)| protocol.create_table::<u32, u64>(&ctx, format!("s{i}"), Some(b.clone())))
            .collect();
        for t in &tables {
            mgr.register(Arc::clone(t).as_participant());
            // Committed rows, so the in-place protocols capture pre-images.
            t.preload([(1, 10), (2, 20)]).unwrap();
        }
        let ids: Vec<_> = tables.iter().map(|t| t.id()).collect();
        mgr.register_group(&ids).unwrap();
        let tx = mgr.begin().unwrap();
        for (i, t) in tables.iter().enumerate() {
            t.write(&tx, 1, 100 + i as u64).unwrap();
            t.delete(&tx, 2).unwrap();
        }
        let cts = mgr.commit(&tx).unwrap().unwrap();
        for (i, b) in backends.iter().enumerate() {
            let stored = b.get(&redo_key(cts)).unwrap().expect("a copy");
            let rec = RedoRecord::decode(&stored).unwrap();
            assert_eq!(rec.encode(), stored, "{protocol}: no undo values");
            let mut holders: Vec<_> = rec.states.iter().map(|s| s.state).collect();
            holders.sort_unstable();
            let others: Vec<_> = (0..3)
                .filter(|&j| j != i)
                .map(|j| ids[j].as_u32())
                .collect();
            assert_eq!(holders, others, "{protocol}: copy of state {i}");
            for section in &rec.states {
                let j = ids.iter().position(|id| id.as_u32() == section.state);
                let mut want = WriteBatch::new();
                want.put_with(&1u32, &(100 + j.unwrap() as u64))
                    .delete_with(&2u32);
                assert_eq!(section.ops, want, "{protocol}: section of state {j:?}");
            }
        }
    }
}
