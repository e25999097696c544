//! Seeded fault-injection ("chaos") suite for the fault-tolerant
//! persistence pipeline: transient faults are retried in place, permanent
//! or budget-exhausted faults wedge the writer sticky-failed, and
//! `try_recover` heals a wedged writer by replaying its retained queue.
//!
//! Every test draws its randomness from one seed — `TSP_CHAOS_SEED` when
//! set, a fixed default otherwise — so a CI failure reproduces locally by
//! exporting the seed the job printed.

use std::sync::Arc;
use std::time::Duration;
use tsp::core::prelude::*;
use tsp::core::recovery::recover_table_cts;
use tsp::storage::{BTreeBackend, FaultInjectingBackend, FaultPlan, RetryPolicy, StorageBackend};

fn chaos_seed() -> u64 {
    std::env::var("TSP_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FF_EE11)
}

/// Durable-or-error: under a steady drizzle of *transient* write faults,
/// in-place retries absorb every failure — all commits succeed, `flush`
/// confirms the watermark, and the injected-failure count shows the drizzle
/// actually happened (each one surfaced as a `persist_retries` bump, never
/// as a lost write).
#[test]
fn transient_fault_drizzle_is_absorbed_by_retries() {
    let seed = chaos_seed();
    println!("TSP_CHAOS_SEED={seed}");
    let inner: Arc<dyn StorageBackend> = Arc::new(BTreeBackend::new());
    let fault = FaultInjectingBackend::wrap(Arc::clone(&inner), FaultPlan::transient(seed, 0.2));
    let ctx = Arc::new(StateContext::new());
    ctx.enable_async_persistence();
    // Tight backoff keeps the test fast; the deep attempt budget makes
    // wedging impossible for any seed (the batch boundaries — and so the
    // fault draws each batch sees — depend on coalescing timing, so a
    // shallow budget could lose to an unlucky run of consecutive draws).
    ctx.durability().set_retry_policy(RetryPolicy {
        max_attempts: 64,
        initial_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_millis(1),
        ..RetryPolicy::default()
    });
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let table = MvccTable::<u32, u64>::persistent(&ctx, "chaos", fault.clone());
    mgr.register(table.clone());
    mgr.register_group(&[table.id()]).unwrap();

    let mut max_cts = 0;
    for i in 0..200u32 {
        let tx = mgr.begin().unwrap();
        table.write(&tx, i % 32, i as u64).unwrap();
        max_cts = mgr.commit(&tx).unwrap().unwrap();
        // Wait out the watermark so every commit is its own batch — without
        // this the writer coalesces the whole loop into a handful of batch
        // writes and the drizzle barely gets to draw.
        ctx.durability().wait_durable(max_cts).unwrap();
    }
    mgr.flush().unwrap();

    assert!(
        fault.injected_failures() > 0,
        "seed {seed}: the drizzle must inject at least one fault over 200 batch writes"
    );
    let snap = ctx.telemetry_snapshot();
    assert_eq!(snap.failed_writers, 0, "seed {seed}: no writer went sticky");
    assert!(
        snap.persist_retries >= fault.injected_failures(),
        "seed {seed}: every injected transient fault was retried \
         (injected {}, retried {})",
        fault.injected_failures(),
        snap.persist_retries
    );
    // Durable-or-error, durable side: the watermark and the persisted
    // `last_cts` marker both cover every commit.
    assert!(ctx.durability().durable_cts().unwrap() >= max_cts);
    assert!(recover_table_cts(&*inner).unwrap() >= Some(max_cts));
}

/// Self-healing: a one-shot fault under a no-retry policy wedges the writer
/// sticky-failed; `try_recover_writers` replays the retained batch, the
/// depth gauge returns to zero, and the pipeline keeps commit invariants —
/// every commit before and after the outage is durable and readable.
#[test]
fn sticky_failed_writer_heals_via_try_recover() {
    let inner: Arc<dyn StorageBackend> = Arc::new(BTreeBackend::new());
    // The first batch write fails (transiently, but the writer has no retry
    // budget); every later write succeeds, so recovery's replay goes through.
    let fault = FaultInjectingBackend::wrap(Arc::clone(&inner), FaultPlan::fail_nth(1, true));
    let ctx = Arc::new(StateContext::new());
    ctx.enable_async_persistence();
    ctx.durability().set_retry_policy(RetryPolicy::no_retries());
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let table = MvccTable::<u32, u64>::persistent(&ctx, "heal", fault.clone());
    mgr.register(table.clone());
    mgr.register_group(&[table.id()]).unwrap();

    let tx = mgr.begin().unwrap();
    table.write(&tx, 0, 100).unwrap();
    let cts0 = mgr.commit(&tx).unwrap().unwrap();
    mgr.flush()
        .expect_err("the injected fault wedges the writer");
    assert_eq!(ctx.telemetry_snapshot().failed_writers, 1);
    assert_eq!(
        ctx.durability().queue_depth(),
        0,
        "dead queue left the gauge"
    );

    assert_eq!(mgr.try_recover_writers().unwrap(), 1);
    mgr.flush().expect("recovered writer drains clean");
    assert!(ctx.durability().durable_cts().unwrap() >= cts0);

    // The healed writer keeps the commit-pipeline invariants for new work.
    let mut max_cts = cts0;
    for i in 1..6u32 {
        let tx = mgr.begin().unwrap();
        table.write(&tx, i, 100 + i as u64).unwrap();
        let (cts, durable) = mgr
            .commit_durable_timeout(&tx, Duration::from_secs(5))
            .unwrap();
        assert!(durable, "a healthy writer confirms within the timeout");
        max_cts = cts.unwrap();
    }
    let snap = ctx.telemetry_snapshot();
    assert_eq!(snap.failed_writers, 0);
    assert!(snap.writer_recoveries >= 1, "self-healing must be recorded");
    assert!(recover_table_cts(&*inner).unwrap() >= Some(max_cts));
    let q = mgr.begin_read_only().unwrap();
    for i in 0..6u32 {
        assert_eq!(table.read(&q, &i).unwrap(), Some(100 + i as u64));
    }
    mgr.commit(&q).unwrap();
}

/// Seeded chaos loop: random transient faults race a committing workload
/// and periodic recovery sweeps.  The durable-or-error invariant holds
/// throughout — a commit either becomes durable or its loss is reported;
/// after the final heal-and-flush, the persisted marker covers every
/// successfully flushed commit.
#[test]
fn chaos_loop_upholds_durable_or_error() {
    let seed = chaos_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    println!("TSP_CHAOS_SEED={}", chaos_seed());
    let inner: Arc<dyn StorageBackend> = Arc::new(BTreeBackend::new());
    let fault = FaultInjectingBackend::wrap(Arc::clone(&inner), FaultPlan::transient(seed, 0.3));
    let ctx = Arc::new(StateContext::new());
    ctx.enable_async_persistence();
    // A thin budget: bursts of faults *will* wedge the writer sometimes,
    // which is the point — recovery has to put it back together.
    ctx.durability().set_retry_policy(RetryPolicy {
        max_attempts: 2,
        initial_backoff: Duration::from_micros(20),
        max_backoff: Duration::from_micros(200),
        ..RetryPolicy::default()
    });
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let table = MvccTable::<u32, u64>::persistent(&ctx, "loop", fault.clone());
    mgr.register(table.clone());
    mgr.register_group(&[table.id()]).unwrap();

    let mut max_cts = 0;
    let mut reported_losses = 0u64;
    for round in 0..50u32 {
        let tx = mgr.begin().unwrap();
        if table.write(&tx, round % 16, round as u64).is_err() {
            // Enqueue saw a sticky writer; the loss is *reported*.
            let _ = mgr.abort(&tx);
            reported_losses += 1;
        } else {
            match mgr.commit(&tx) {
                Ok(Some(cts)) => {
                    max_cts = max_cts.max(cts);
                    // Drain per commit (one batch write each) so the fault
                    // plan actually gets to draw; a sticky failure here is
                    // reported by the sweep below.
                    let _ = ctx.durability().wait_durable(cts);
                }
                Ok(None) => unreachable!("writers carry a cts"),
                Err(_) => reported_losses += 1,
            }
        }
        if round % 10 == 9 {
            // Periodic sweep: heal whatever wedged since the last sweep.
            while mgr.try_recover_writers().is_err() {}
        }
    }
    // Final heal until the pipeline drains clean.
    for _ in 0..100 {
        if mgr.try_recover_writers().is_ok() && mgr.flush().is_ok() {
            break;
        }
    }
    mgr.flush().expect("the loop must end healed");
    assert!(ctx.durability().durable_cts().unwrap() >= max_cts);
    assert!(recover_table_cts(&*inner).unwrap() >= Some(max_cts));
    let snap = ctx.telemetry_snapshot();
    println!(
        "seed {seed:#x}: injected {} faults, retried {}, recovered {} writers, \
         {reported_losses} commits reported lost",
        fault.injected_failures(),
        snap.persist_retries,
        snap.writer_recoveries
    );
    assert!(
        snap.persist_retries > 0,
        "seed {seed:#x}: faults were retried"
    );
    assert_eq!(
        snap.failed_writers, 0,
        "seed {seed:#x}: nothing left wedged"
    );
}

/// Bounded admission: with all slots held, `begin` under an admission wait
/// parks instead of failing instantly, wins a slot once one frees up, and
/// the wait is counted.
#[test]
fn bounded_admission_wins_a_freed_slot() {
    let ctx = Arc::new(StateContext::with_capacity(1));
    ctx.set_admission_wait(Some(Duration::from_secs(5)));
    let mgr = Arc::new(TransactionManager::new(Arc::clone(&ctx)));
    let holder = mgr.begin().unwrap();

    let releaser = {
        let mgr = Arc::clone(&mgr);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            mgr.commit(&holder).unwrap();
        })
    };
    // The lone slot is taken; this begin must park until the holder commits.
    let tx = mgr.begin().expect("bounded admission wins the freed slot");
    releaser.join().unwrap();
    mgr.commit(&tx).unwrap();

    let stats = ctx.telemetry_snapshot().stats;
    assert_eq!(stats.admission_waits, 1);
    assert_eq!(stats.admission_timeouts, 0);
    let snap = ctx.telemetry_snapshot();
    assert_eq!(snap.admission_wait_nanos.count, 1);
    assert!(snap.admission_wait_nanos.max >= Duration::from_millis(1).as_nanos() as u64);
}

/// Bounded admission, expiry side: when no slot frees up within the
/// deadline the begin fails with `CapacityExhausted` and the abort is
/// recorded under the `admission_timeout` reason — distinct from the
/// instant-fail `slot_exhaustion` path, which stays the default.
#[test]
fn bounded_admission_times_out_and_is_counted() {
    let ctx = Arc::new(StateContext::with_capacity(1));
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let _holder = mgr.begin().unwrap();

    // Default mode: instant failure, recorded as slot exhaustion.
    let err = mgr.begin().expect_err("no admission wait configured");
    assert!(matches!(
        err,
        tsp::common::TspError::CapacityExhausted { .. }
    ));

    ctx.set_admission_wait(Some(Duration::from_millis(10)));
    let err = mgr.begin().expect_err("the holder never leaves");
    assert!(matches!(
        err,
        tsp::common::TspError::CapacityExhausted { .. }
    ));

    let stats = ctx.telemetry_snapshot().stats;
    assert_eq!(stats.admission_timeouts, 1);
    assert_eq!(stats.abort_reason(AbortReason::SlotExhaustion), 1);
    assert_eq!(stats.abort_reason(AbortReason::AdmissionTimeout), 1);
    assert_eq!(stats.admission_waits, 0, "a timed-out wait is not a win");
}

/// Bounded durability: a latency spike longer than the timeout makes
/// `commit_durable_timeout` return `durable == false` (and count it);
/// the commit stays visible and becomes durable once the spike passes.
#[test]
fn commit_durable_timeout_bounds_the_wait_under_latency_spikes() {
    let inner: Arc<dyn StorageBackend> = Arc::new(BTreeBackend::new());
    let plan = FaultPlan {
        seed: chaos_seed(),
        fail_rate: 0.0,
        fail_nth: None,
        transient: true,
        max_failures: None,
        latency_spike: Some((1.0, Duration::from_millis(150))),
        crash_after: None,
    };
    let fault = FaultInjectingBackend::wrap(Arc::clone(&inner), plan);
    let ctx = Arc::new(StateContext::new());
    ctx.enable_async_persistence();
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let table = MvccTable::<u32, u64>::persistent(&ctx, "slow", fault.clone());
    mgr.register(table.clone());
    mgr.register_group(&[table.id()]).unwrap();

    let tx = mgr.begin().unwrap();
    table.write(&tx, 9, 99).unwrap();
    let (cts, durable) = mgr
        .commit_durable_timeout(&tx, Duration::from_millis(10))
        .unwrap();
    let cts = cts.expect("writers carry a cts");
    assert!(!durable, "a 150ms spike cannot confirm within 10ms");

    // Visible immediately, durable eventually.
    let q = mgr.begin_read_only().unwrap();
    assert_eq!(table.read(&q, &9).unwrap(), Some(99));
    mgr.commit(&q).unwrap();
    assert!(ctx
        .wait_durable_timeout(cts, Duration::from_secs(5))
        .unwrap());

    let snap = ctx.telemetry_snapshot();
    assert_eq!(snap.stats.durability_timeouts, 1);
    assert_eq!(snap.failed_writers, 0, "slow is not failed");
}
