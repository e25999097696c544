//! Storage micro-bench: effect of the per-SSTable Bloom filters on point
//! lookups.
//!
//! The paper's readers "mostly only access memory" (§5.2) because RocksDB
//! serves them from its filter and block caches; this bench verifies that the
//! reproduction's storage stand-in has the same shape for the filter half:
//! negative lookups are answered by the Bloom filter without touching the
//! run.  (The engine keeps no block cache: committed reads are served from
//! the in-memory version objects above the backend.)

use criterion::{criterion_group, criterion_main, Criterion};
use tsp_storage::prelude::*;

fn build_store(dir: &std::path::Path) -> LsmStore {
    let store =
        LsmStore::open(dir, LsmOptions::no_sync().with_memtable_budget(256 * 1024)).unwrap();
    for i in 0..50_000u32 {
        store.put(&i.to_be_bytes(), &[7u8; 20]).unwrap();
    }
    store.flush().unwrap();
    store
}

fn bench_bloom(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("tsp-bench-bloom-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = build_store(&dir);
    let mut group = c.benchmark_group("storage_bloom_cache");

    group.bench_function("lsm_get_present", |b| {
        let mut key = 0u32;
        b.iter(|| {
            key = key.wrapping_add(9973) % 50_000;
            criterion::black_box(store.get(&key.to_be_bytes()).unwrap())
        });
    });

    group.bench_function("lsm_get_absent_bloom_filtered", |b| {
        let mut key = 1_000_000u32;
        b.iter(|| {
            key = key.wrapping_add(1);
            criterion::black_box(store.get(&key.to_be_bytes()).unwrap())
        });
    });

    group.finish();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_bloom);
criterion_main!(benches);
