//! Ablation studies of the design choices called out in DESIGN.md.
//!
//! These experiments are not in the paper itself; they probe the knobs the
//! paper mentions but does not evaluate:
//!
//! 1. **Conflict-check timing** — §4.2: check write-write overlaps eagerly on
//!    every write vs. only at commit time (First-Committer-Wins).
//! 2. **Storage backend** — §5.1: in-memory vs. LSM without fsync vs. LSM
//!    with synchronous writes (the paper's setting).
//! 3. **Group size** — §4.3: overhead of the consistency protocol as the
//!    number of states written together grows.
//! 4. **TO_STREAM trigger policy** — §3: per-tuple vs. on-commit emission.
//! 5. **Dyn-dispatch overhead** — ROADMAP open item: the committed-read hot
//!    path through `Arc<dyn TransactionalTable>` (how every harness and
//!    operator holds tables since the PR 1 trait refactor) vs. the
//!    monomorphized call on the concrete `Arc<MvccTable>`, at θ = 0.
//!
//! Run with `cargo run --release -p tsp-bench --bin ablations [--quick]`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsp_core::prelude::*;
use tsp_core::MvccTableOptions;
use tsp_stream::prelude::*;
use tsp_workload::prelude::*;
use tsp_workload::zipf::{ZipfSampler, ZipfTable};

struct Budget {
    run: Duration,
    table_size: u64,
}

fn budget() -> Budget {
    let quick = std::env::args().any(|a| a == "--quick");
    if quick {
        Budget {
            run: Duration::from_millis(300),
            table_size: 5_000,
        }
    } else {
        Budget {
            run: Duration::from_secs(2),
            table_size: 100_000,
        }
    }
}

/// Ablation 1: eager vs. commit-time conflict checking with two conflicting
/// writers hammering a small hot set.
fn ablation_conflict_timing(budget: &Budget) {
    println!("\n--- Ablation 1: write-write conflict check timing (§4.2) ---");
    println!(
        "{:>10} {:>14} {:>14} {:>12}",
        "check", "commits/s", "conflicts/s", "abort ratio"
    );
    for (label, check) in [
        ("at-commit", ConflictCheck::AtCommit),
        ("eager", ConflictCheck::Eager),
    ] {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let table: TableHandle<u32, u64> = Protocol::Mvcc.create_table_with_options(
            &ctx,
            "hot",
            None,
            MvccTableOptions {
                conflict_check: check,
                ..Default::default()
            },
        );
        mgr.register(Arc::clone(&table).as_participant());
        mgr.register_group(&[table.id()]).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let started = Instant::now();
        let handles: Vec<_> = (0..2)
            .map(|w| {
                let mgr = Arc::clone(&mgr);
                let table = Arc::clone(&table);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || -> (u64, u64) {
                    let mut committed = 0;
                    let mut aborted = 0;
                    let mut k = w;
                    while !stop.load(Ordering::Relaxed) {
                        let Ok(tx) = mgr.begin() else { continue };
                        // Hot set of 8 keys shared by both writers.
                        let mut ok = true;
                        for i in 0..4u32 {
                            if table.write(&tx, (k + i as u64) as u32 % 8, k).is_err() {
                                ok = false;
                                break;
                            }
                        }
                        let res = if ok {
                            mgr.commit(&tx).map(|_| ())
                        } else {
                            Err(tsp_common::TspError::KeyNotFound)
                        };
                        match res {
                            Ok(()) => committed += 1,
                            Err(_) => {
                                let _ = mgr.abort(&tx);
                                aborted += 1;
                            }
                        }
                        k += 1;
                    }
                    (committed, aborted)
                })
            })
            .collect();
        std::thread::sleep(budget.run);
        stop.store(true, Ordering::Relaxed);
        let mut committed = 0;
        let mut aborted = 0;
        for h in handles {
            let (c, a) = h.join().unwrap();
            committed += c;
            aborted += a;
        }
        let secs = started.elapsed().as_secs_f64();
        println!(
            "{label:>10} {:>14.0} {:>14.0} {:>11.1}%",
            committed as f64 / secs,
            aborted as f64 / secs,
            aborted as f64 / (committed + aborted).max(1) as f64 * 100.0
        );
    }
}

/// Ablation 2: storage backend (the §5.1 sync setting vs. cheaper options).
fn ablation_storage(budget: &Budget) {
    println!("\n--- Ablation 2: base-table storage backend (§5.1) ---");
    println!(
        "{:>10} {:>14} {:>14} {:>12}",
        "storage", "total K tps", "writer tps", "reader K tps"
    );
    for storage in [
        StorageKind::InMemory,
        StorageKind::LsmNoSync,
        StorageKind::LsmSync,
    ] {
        let config = WorkloadConfig {
            protocol: Protocol::Mvcc,
            readers: 4,
            theta: 1.0,
            table_size: budget.table_size,
            duration: budget.run,
            storage,
            ..Default::default()
        };
        match run(&config) {
            Ok(r) => println!(
                "{:>10} {:>14.1} {:>14.1} {:>12.1}",
                storage.name(),
                r.throughput_ktps,
                r.writer_tps,
                r.reader_ktps
            ),
            Err(e) => println!("{:>10} failed: {e}", storage.name()),
        }
    }
}

/// Ablation 3: consistency-protocol overhead vs. number of states per group.
fn ablation_group_size(budget: &Budget) {
    println!("\n--- Ablation 3: multi-state consistency protocol overhead (§4.3) ---");
    println!(
        "{:>8} {:>16} {:>18}",
        "states", "commits/s", "writes/commit"
    );
    for group_size in [1usize, 2, 4, 8] {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let tables: Vec<TableHandle<u32, u64>> = (0..group_size)
            .map(|i| {
                let t: TableHandle<u32, u64> =
                    Protocol::Mvcc.create_table(&ctx, format!("s{i}"), None);
                mgr.register(Arc::clone(&t).as_participant());
                t
            })
            .collect();
        let ids: Vec<_> = tables.iter().map(|t| t.id()).collect();
        mgr.register_group(&ids).unwrap();

        let started = Instant::now();
        let mut commits = 0u64;
        let mut key = 0u32;
        while started.elapsed() < budget.run {
            let tx = mgr.begin().unwrap();
            for t in &tables {
                for _ in 0..4 {
                    t.write(&tx, key % 1024, commits).unwrap();
                    key = key.wrapping_add(1);
                }
            }
            mgr.commit(&tx).unwrap();
            commits += 1;
        }
        println!(
            "{group_size:>8} {:>16.0} {:>18}",
            commits as f64 / started.elapsed().as_secs_f64(),
            group_size * 4
        );
    }
}

/// Ablation 4: TO_STREAM trigger policy (per-tuple vs. on-commit).
fn ablation_trigger(budget: &Budget) {
    println!("\n--- Ablation 4: TO_STREAM trigger policy (§3) ---");
    println!(
        "{:>12} {:>14} {:>16} {:>14}",
        "trigger", "input tuples", "emitted tuples", "elapsed ms"
    );
    let tuples = (budget.table_size / 4).max(1_000);
    for (label, policy) in [
        ("on-commit", TriggerPolicy::OnCommit),
        ("every-tuple", TriggerPolicy::EveryTuple),
    ] {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let table: TableHandle<u64, u64> = Protocol::Mvcc.create_table(&ctx, "agg", None);
        mgr.register(Arc::clone(&table).as_participant());
        mgr.register_group(&[table.id()]).unwrap();
        let coord = TxCoordinator::new(Arc::clone(&ctx));

        let topo = Topology::new();
        let query_table = Arc::clone(&table);
        let started = Instant::now();
        let out = topo
            .source_generate(tuples, |i| (i % 64, i))
            .punctuate_every(100, Arc::clone(&coord))
            .to_table(ToTable::for_table(
                Arc::clone(&mgr),
                Arc::clone(&coord),
                Arc::clone(&table),
                Boundaries::Punctuations,
            ))
            .to_stream(Arc::clone(&mgr), policy, move |tx| {
                Ok(vec![query_table.scan(tx)?.len() as u64])
            })
            .collect();
        topo.run();
        let emitted = out.take().len();
        println!(
            "{label:>12} {tuples:>14} {emitted:>16} {:>14.1}",
            started.elapsed().as_secs_f64() * 1000.0
        );
    }
}

/// Ablation 5: `Arc<dyn TransactionalTable>` vs. monomorphized reads on the
/// committed-read fast path (uniform keys, single reader — pure call
/// overhead, no contention).  Quantifies the ROADMAP's dyn-dispatch open
/// item: if the ratio is ≈ 1.0, a generic fast path for single-protocol
/// deployments is not worth its complexity.
fn ablation_dyn_dispatch(budget: &Budget) {
    println!("\n--- Ablation 5: dyn-dispatch overhead on the read fast path ---");
    println!("{:>14} {:>14} {:>14}", "dispatch", "reads/s", "ratio");
    let table_size = budget.table_size.min(65_536);
    let ctx = Arc::new(StateContext::new());
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let concrete: Arc<MvccTable<u64, u64>> = MvccTable::volatile(&ctx, "dyn");
    mgr.register(concrete.clone());
    mgr.register_group(&[concrete.id()]).unwrap();
    concrete.preload((0..table_size).map(|k| (k, k))).unwrap();
    let dynamic: TableHandle<u64, u64> = concrete.clone();

    let zipf = ZipfTable::new(table_size, 0.0, true);
    let measure = |read: &dyn Fn(&Tx, &u64) -> Option<u64>| -> f64 {
        let mut sampler = ZipfSampler::new(Arc::clone(&zipf), 0xd15);
        let tx = mgr.begin_read_only().unwrap();
        // Warm the per-transaction pin cache so the loop is pure fast path.
        let _ = read(&tx, &0);
        let started = Instant::now();
        let mut reads = 0u64;
        while started.elapsed() < budget.run {
            for _ in 0..1024 {
                let key = sampler.next_key();
                std::hint::black_box(read(&tx, &key));
                reads += 1;
            }
        }
        let rate = reads as f64 / started.elapsed().as_secs_f64();
        mgr.commit(&tx).unwrap();
        rate
    };
    let mono = measure(&|tx, k| MvccTable::read(&concrete, tx, k).unwrap());
    let dyn_rate = measure(&|tx, k| dynamic.read(tx, k).unwrap());
    println!("{:>14} {:>14.0} {:>14}", "monomorphized", mono, "1.00");
    println!(
        "{:>14} {:>14.0} {:>14.2}",
        "dyn trait",
        dyn_rate,
        dyn_rate / mono
    );
}

fn main() {
    let budget = budget();
    println!(
        "Running ablations (duration per data point: {:.1} s; pass --quick for a fast smoke run)",
        budget.run.as_secs_f64()
    );
    ablation_conflict_timing(&budget);
    ablation_storage(&budget);
    ablation_group_size(&budget);
    ablation_trigger(&budget);
    ablation_dyn_dispatch(&budget);
    println!("\nAll ablations completed.");
}
