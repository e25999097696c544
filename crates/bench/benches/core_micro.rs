//! Micro-benchmarks of the transaction core: MVCC object operations, the
//! snapshot-isolated table's read/write/commit paths, and the state context.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use tsp_core::prelude::*;

fn bench_mvcc_object(c: &mut Criterion) {
    let mut group = c.benchmark_group("mvcc_object");
    group.bench_function("install_with_gc", |b| {
        let obj = MvccObject::<u64>::new();
        let mut cts = 2u64;
        b.iter(|| {
            obj.install(black_box(cts), cts, cts.saturating_sub(1));
            cts += 1;
        });
    });
    group.bench_function("read_visible_hot", |b| {
        let obj = MvccObject::<u64>::new();
        for i in 0..6u64 {
            obj.install(i, 2 + i, 0);
        }
        b.iter(|| black_box(obj.read_visible(black_box(5))));
    });
    group.finish();
}

fn bench_table_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("mvcc_table");
    let ctx = Arc::new(StateContext::new());
    let mgr = TransactionManager::new(Arc::clone(&ctx));
    let table = MvccTable::<u32, Vec<u8>>::volatile(&ctx, "bench");
    mgr.register(table.clone());
    mgr.register_group(&[table.id()]).unwrap();
    table
        .preload((0..10_000u32).map(|k| (k, vec![0u8; 20])))
        .unwrap();

    group.bench_function("read_only_tx_10_ops", |b| {
        let mut key = 0u32;
        b.iter(|| {
            let tx = mgr.begin_read_only().unwrap();
            for _ in 0..10 {
                key = (key.wrapping_mul(2654435761)).wrapping_add(1) % 10_000;
                black_box(table.read(&tx, &key).unwrap());
            }
            mgr.commit(&tx).unwrap();
        });
    });
    group.bench_function("write_tx_10_ops_commit", |b| {
        let mut key = 0u32;
        b.iter(|| {
            let tx = mgr.begin().unwrap();
            for _ in 0..10 {
                key = (key.wrapping_mul(2654435761)).wrapping_add(1) % 10_000;
                table.write(&tx, key, vec![1u8; 20]).unwrap();
            }
            mgr.commit(&tx).unwrap();
        });
    });
    group.finish();
}

fn bench_context(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_context");
    let ctx = StateContext::new();
    let state = ctx.register_state("s");
    ctx.register_group(&[state]).unwrap();
    group.bench_function("begin_finish", |b| {
        b.iter(|| {
            let tx = ctx.begin(false).unwrap();
            ctx.finish(black_box(&tx));
        });
    });
    group.bench_function("read_snapshot_pin", |b| {
        b.iter(|| {
            let tx = ctx.begin(true).unwrap();
            black_box(ctx.read_snapshot(&tx, state).unwrap());
            ctx.finish(&tx);
        });
    });
    group.bench_function("clock_tick", |b| {
        let clock = GlobalClock::new();
        b.iter(|| black_box(clock.tick()));
    });
    group.finish();
}

criterion_group!(benches, bench_mvcc_object, bench_table_paths, bench_context);
criterion_main!(benches);
