//! Concurrent continuous query + ad-hoc analytics — the paper's evaluation
//! scenario (§5.1) exercised through the full streaming stack instead of the
//! benchmark harness.
//!
//! One stream query continuously transfers "money" between two account
//! states (every transaction debits one state and credits the other, so the
//! *sum across both states is invariant*).  Concurrent ad-hoc queries read
//! both states; under snapshot isolation with the multi-state consistency
//! protocol they must always observe the invariant — never a torn commit.
//!
//! Run with: `cargo run --example adhoc_analytics`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tsp::core::prelude::*;
use tsp::stream::prelude::*;

const ACCOUNTS: u64 = 64;
const INITIAL_BALANCE: u64 = 1_000;
const TRANSFERS: u64 = 20_000;

fn main() -> tsp::common::Result<()> {
    let ctx = Arc::new(StateContext::new());
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let debit_state = MvccTable::<u64, u64>::volatile(&ctx, "accounts_region_a");
    let credit_state = MvccTable::<u64, u64>::volatile(&ctx, "accounts_region_b");
    mgr.register(debit_state.clone());
    mgr.register(credit_state.clone());
    mgr.register_group(&[debit_state.id(), credit_state.id()])?;

    // Preload: every account starts with the same balance in both regions.
    let tx = mgr.begin()?;
    for account in 0..ACCOUNTS {
        debit_state.write(&tx, account, INITIAL_BALANCE)?;
        credit_state.write(&tx, account, INITIAL_BALANCE)?;
    }
    mgr.commit(&tx)?;
    let expected_total = 2 * ACCOUNTS * INITIAL_BALANCE;

    // ------------------------------------------------------------------
    // Ad-hoc analysts: hammer both states with snapshot queries while the
    // stream is running and verify the invariant on every read.
    // ------------------------------------------------------------------
    let stop = Arc::new(AtomicBool::new(false));
    let checks = Arc::new(AtomicU64::new(0));
    let analysts: Vec<_> = (0..4)
        .map(|_| {
            let mgr = Arc::clone(&mgr);
            let a = Arc::clone(&debit_state);
            let b = Arc::clone(&credit_state);
            let stop = Arc::clone(&stop);
            let checks = Arc::clone(&checks);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let q = AdHocQuery::new(Arc::clone(&mgr), {
                        let a = Arc::clone(&a);
                        let b = Arc::clone(&b);
                        move |tx| {
                            let total_a: u64 = a.scan(tx)?.values().sum();
                            let total_b: u64 = b.scan(tx)?.values().sum();
                            Ok(total_a + total_b)
                        }
                    });
                    let total = q.run().expect("ad-hoc query");
                    assert_eq!(
                        total, expected_total,
                        "torn commit observed: snapshot saw an inconsistent total"
                    );
                    checks.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(200));
                }
            })
        })
        .collect();

    // ------------------------------------------------------------------
    // The continuous query: a stream of transfers, five per transaction.
    // ------------------------------------------------------------------
    let coord = TxCoordinator::new(Arc::clone(&ctx));
    let topo = Topology::new();
    let debit_writer = Arc::clone(&debit_state);
    let credit_writer = Arc::clone(&credit_state);

    topo.source_generate(TRANSFERS, |i| {
        // (from-account, to-account, amount)
        (i % ACCOUNTS, (i * 7 + 3) % ACCOUNTS, 1 + i % 5)
    })
    .punctuate_every(5, Arc::clone(&coord))
    .broadcast(2)
    .into_iter()
    .zip([
        // Branch 1 debits region A …
        ToTable::new(
            Arc::clone(&mgr),
            Arc::clone(&coord),
            debit_state.id(),
            Boundaries::Punctuations,
            move |tx: &Tx, (from, _to, amount): &(u64, u64, u64)| {
                let balance = debit_writer.read(tx, from)?.unwrap_or(0);
                debit_writer.write(tx, *from, balance.saturating_sub(*amount))
            },
        ),
        // … branch 2 credits region B within the same transaction.
        ToTable::new(
            Arc::clone(&mgr),
            Arc::clone(&coord),
            credit_state.id(),
            Boundaries::Punctuations,
            move |tx: &Tx, (_from, to, amount): &(u64, u64, u64)| {
                let balance = credit_writer.read(tx, to)?.unwrap_or(0);
                credit_writer.write(tx, *to, balance + *amount)
            },
        ),
    ])
    .for_each(|(branch, to_table)| branch.to_table(to_table).drain());

    let started = std::time::Instant::now();
    topo.run();
    let elapsed = started.elapsed();

    stop.store(true, Ordering::Relaxed);
    for a in analysts {
        a.join().expect("analyst thread");
    }

    let stats = ctx.telemetry_snapshot().stats;
    println!("=== ad-hoc analytics under a running stream ===");
    println!(
        "stream processed {TRANSFERS} transfers in {:.2} s ({:.0} transfers/s)",
        elapsed.as_secs_f64(),
        TRANSFERS as f64 / elapsed.as_secs_f64()
    );
    println!(
        "ad-hoc analysts ran {} consistency checks — every snapshot satisfied the invariant (total = {expected_total})",
        checks.load(Ordering::Relaxed)
    );
    println!(
        "transactions: {} committed, {} aborted, {} write conflicts",
        stats.committed, stats.aborted, stats.write_conflicts
    );
    Ok(())
}
