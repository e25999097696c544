//! Micro-benchmarks of the storage substrate: WAL appends (with and without
//! fsync), LSM point operations, SSTable lookups, checksums and codecs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tsp_storage::backend::{StorageBackend, SyncPolicy, WriteBatch};
use tsp_storage::checksum::crc32;
use tsp_storage::lsm::{LsmOptions, LsmStore};
use tsp_storage::memtable::BTreeBackend;
use tsp_storage::sstable::SsTableBuilder;
use tsp_storage::wal::Wal;
use tsp_storage::Codec;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tsp-bench-storage-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bench_wal(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal");
    group.sample_size(20);
    let mut batch = WriteBatch::new();
    for i in 0..10u32 {
        batch.put(i.to_be_bytes(), vec![0xAB; 20]);
    }
    for (label, sync) in [
        ("append_nosync", SyncPolicy::Never),
        ("append_fsync", SyncPolicy::Always),
    ] {
        let dir = tmp(label);
        let mut wal = Wal::open(dir.join("wal.log"), sync).unwrap();
        group.bench_function(label, |b| {
            b.iter(|| wal.append(black_box(&batch)).unwrap());
        });
        drop(wal);
        let _ = std::fs::remove_dir_all(dir);
    }
    group.finish();
}

fn bench_lsm(c: &mut Criterion) {
    let mut group = c.benchmark_group("lsm");
    group.sample_size(30);
    let dir = tmp("lsm");
    let store = LsmStore::open(&dir, LsmOptions::no_sync()).unwrap();
    for i in 0..50_000u32 {
        store.put(&i.to_be_bytes(), &[0u8; 20]).unwrap();
    }
    store.flush().unwrap();
    group.bench_function("get_hit", |b| {
        let mut k = 0u32;
        b.iter(|| {
            k = (k.wrapping_mul(2654435761)).wrapping_add(1) % 50_000;
            black_box(store.get(&k.to_be_bytes()).unwrap());
        });
    });
    group.bench_function("get_miss", |b| {
        b.iter(|| black_box(store.get(&1_000_000u32.to_be_bytes()).unwrap()));
    });
    group.bench_function("put_nosync", |b| {
        let mut k = 0u32;
        b.iter(|| {
            k = k.wrapping_add(1);
            store.put(&k.to_be_bytes(), &[1u8; 20]).unwrap();
        });
    });
    drop(store);
    let _ = std::fs::remove_dir_all(dir);

    group.bench_function("btree_mem_get", |b| {
        let mem = BTreeBackend::new();
        for i in 0..50_000u32 {
            mem.put(&i.to_be_bytes(), &[0u8; 20]).unwrap();
        }
        let mut k = 0u32;
        b.iter(|| {
            k = (k.wrapping_mul(2654435761)).wrapping_add(1) % 50_000;
            black_box(mem.get(&k.to_be_bytes()).unwrap());
        });
    });
    group.finish();
}

fn bench_sstable(c: &mut Criterion) {
    let mut group = c.benchmark_group("sstable");
    let dir = tmp("sstable");
    let mut builder = SsTableBuilder::create(dir.join("run.sst")).unwrap();
    for i in 0..100_000u32 {
        builder.add(&i.to_be_bytes(), Some(&[0u8; 20])).unwrap();
    }
    let sst = builder.finish().unwrap();
    group.bench_function("point_lookup", |b| {
        let mut k = 0u32;
        b.iter(|| {
            k = (k.wrapping_mul(2654435761)).wrapping_add(1) % 100_000;
            black_box(sst.get(&k.to_be_bytes()).unwrap());
        });
    });
    drop(sst);
    let _ = std::fs::remove_dir_all(dir);
    group.finish();
}

fn bench_checksum_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("checksum_codec");
    let payload = vec![0x5Au8; 1024];
    group.bench_function("crc32_1k", |b| b.iter(|| black_box(crc32(&payload))));
    group.bench_function("u64_codec_roundtrip", |b| {
        b.iter(|| {
            let bytes = black_box(123_456_789u64).encode();
            black_box(u64::decode(&bytes).unwrap())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_wal,
    bench_lsm,
    bench_sstable,
    bench_checksum_codec
);
criterion_main!(benches);
