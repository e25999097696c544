//! Property-based tests (proptest) of the core invariants:
//!
//! * MVCC visibility is a pure function of commit order and snapshot choice,
//! * snapshot-isolated tables behave like a sequential model when
//!   transactions are applied one at a time,
//! * First-Committer-Wins never lets two overlapping writers both commit,
//! * the persistent LSM store is equivalent to a `BTreeMap` model under
//!   arbitrary operation sequences and survives reopen,
//! * WAL and SSTable encodings round-trip arbitrary byte strings,
//! * the Zipf sampler produces a valid distribution for any θ in the paper's
//!   sweep range.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use tsp::core::prelude::*;
use tsp::storage::{Codec, LsmOptions, LsmStore, StorageBackend, SyncPolicy, WriteBatch};
use tsp::workload::{ZipfSampler, ZipfTable};

// ---------------------------------------------------------------------
// MVCC object visibility
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Installing versions at increasing commit timestamps: a reader at any
    /// snapshot sees exactly the newest version committed at or before it.
    #[test]
    fn mvcc_object_visibility_matches_commit_history(
        cts_gaps in proptest::collection::vec(1u64..5, 1..12),
        probe_offset in 0u64..40,
    ) {
        let obj = MvccObject::<u64>::new();
        let mut history: Vec<(u64, u64)> = Vec::new(); // (cts, value)
        let mut cts = 1u64;
        for (i, gap) in cts_gaps.iter().enumerate() {
            cts += gap;
            obj.install(i as u64, cts, 0);
            history.push((cts, i as u64));
        }
        let probe = 1 + probe_offset;
        let expected = history
            .iter()
            .filter(|(c, _)| *c <= probe)
            .max_by_key(|(c, _)| *c)
            .map(|(_, v)| *v);
        prop_assert_eq!(obj.read_visible(probe), expected);
    }

    /// Garbage collection never changes what a *live* snapshot can see.
    #[test]
    fn mvcc_gc_preserves_visible_versions(
        n_versions in 2usize..10,
        oldest_active_offset in 0u64..30,
    ) {
        let obj = MvccObject::<u64>::new();
        for i in 0..n_versions {
            obj.install(i as u64, 2 + i as u64 * 2, 0);
        }
        let oldest_active = 2 + oldest_active_offset;
        let visible_before = obj.read_visible(oldest_active);
        let newest_before = obj.read_visible(u64::MAX - 1);
        obj.gc(oldest_active);
        prop_assert_eq!(obj.read_visible(oldest_active), visible_before);
        prop_assert_eq!(obj.read_visible(u64::MAX - 1), newest_before);
    }

    /// `newest_write_ts` — the live version's commit timestamp, and a
    /// header fold only for an object without one — equals the fold over
    /// every version header (the newest `cts`, or `dts` of a terminated
    /// version) after any sequence of installs, deletes, undone commits and
    /// GC passes, levels included.
    #[test]
    fn newest_write_ts_matches_the_header_fold(
        steps in proptest::collection::vec((0u8..4, 0u64..8), 1..200),
    ) {
        let obj = MvccObject::<u64>::new();
        let mut ts = 1u64;
        // Newest timestamp a reader may have pinned, and the newest commit
        // while it is still unpublished (the only one that may be undone).
        let mut published = 1u64;
        let mut unpublished: Option<u64> = None;
        for (kind, arg) in steps {
            match kind {
                0 | 1 => {
                    if let Some(cts) = unpublished {
                        published = cts;
                    }
                    ts += 1 + arg % 3;
                    if kind == 0 {
                        obj.install(ts, ts, published.saturating_sub(arg));
                    } else {
                        obj.mark_deleted(ts);
                    }
                    unpublished = Some(ts);
                }
                2 => {
                    if let Some(cts) = unpublished.take() {
                        obj.undo_commit(cts);
                    }
                }
                _ => {
                    obj.gc(published.saturating_sub(arg));
                }
            }
            let fold = obj
                .versions()
                .iter()
                .map(|v| if v.is_live() { v.cts } else { v.cts.max(v.dts) })
                .max()
                .unwrap_or(tsp::common::NO_TS);
            prop_assert_eq!(obj.newest_write_ts(), fold);
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot-isolated table vs. sequential model
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum TableOp {
    Put(u8, u16),
    Delete(u8),
    Abort(u8, u16),
}

fn table_op_strategy() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        (any::<u8>(), any::<u16>()).prop_map(|(k, v)| TableOp::Put(k % 16, v)),
        any::<u8>().prop_map(|k| TableOp::Delete(k % 16)),
        (any::<u8>(), any::<u16>()).prop_map(|(k, v)| TableOp::Abort(k % 16, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Applying a sequence of single-key transactions to an MVCC table gives
    /// the same final state as a plain map, and aborted transactions leave no
    /// trace.
    #[test]
    fn mvcc_table_matches_sequential_model(ops in proptest::collection::vec(table_op_strategy(), 1..40)) {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let table = MvccTable::<u8, u16>::volatile(&ctx, "model");
        mgr.register(table.clone());
        mgr.register_group(&[table.id()]).unwrap();

        let mut model: BTreeMap<u8, u16> = BTreeMap::new();
        for op in &ops {
            let tx = mgr.begin().unwrap();
            match op {
                TableOp::Put(k, v) => {
                    table.write(&tx, *k, *v).unwrap();
                    mgr.commit(&tx).unwrap();
                    model.insert(*k, *v);
                }
                TableOp::Delete(k) => {
                    table.delete(&tx, *k).unwrap();
                    mgr.commit(&tx).unwrap();
                    model.remove(k);
                }
                TableOp::Abort(k, v) => {
                    table.write(&tx, *k, *v).unwrap();
                    mgr.abort(&tx).unwrap();
                }
            }
        }
        let q = mgr.begin_read_only().unwrap();
        let snapshot = table.scan(&q).unwrap();
        let snapshot: BTreeMap<u8, u16> = snapshot.into_iter().collect();
        mgr.commit(&q).unwrap();
        prop_assert_eq!(snapshot, model);
    }

    /// Two transactions writing overlapping key sets: under First-Committer-
    /// Wins the second committer aborts iff the key sets overlap, and the
    /// surviving values all come from transactions that committed.
    #[test]
    fn first_committer_wins_never_loses_updates(
        keys_a in proptest::collection::btree_set(0u8..8, 1..5),
        keys_b in proptest::collection::btree_set(0u8..8, 1..5),
    ) {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let table = MvccTable::<u8, u32>::volatile(&ctx, "fcw");
        mgr.register(table.clone());
        mgr.register_group(&[table.id()]).unwrap();

        let t1 = mgr.begin().unwrap();
        let t2 = mgr.begin().unwrap();
        for k in &keys_a {
            table.write(&t1, *k, 100).unwrap();
        }
        for k in &keys_b {
            table.write(&t2, *k, 200).unwrap();
        }
        mgr.commit(&t1).unwrap();
        let overlap = keys_a.intersection(&keys_b).count() > 0;
        let second = mgr.commit(&t2);
        prop_assert_eq!(second.is_err(), overlap, "conflict iff write sets overlap");

        let q = mgr.begin_read_only().unwrap();
        for k in 0u8..8 {
            let v = table.read(&q, &k).unwrap();
            match (keys_a.contains(&k), keys_b.contains(&k) && !overlap) {
                (_, true) => prop_assert_eq!(v, Some(200)),
                (true, false) => prop_assert_eq!(v, Some(100)),
                (false, false) => {
                    // Key untouched by t1; it may hold 200 only if t2 committed.
                    if overlap { prop_assert_eq!(v, None); }
                }
            }
        }
        mgr.commit(&q).unwrap();
    }

    /// Snapshot stability: a reader pinned before a series of commits keeps
    /// seeing the original values no matter how many commits follow.
    #[test]
    fn snapshots_are_immutable(updates in proptest::collection::vec((0u8..8, any::<u32>()), 1..20)) {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let table = MvccTable::<u8, u32>::volatile(&ctx, "snap");
        mgr.register(table.clone());
        mgr.register_group(&[table.id()]).unwrap();

        let init = mgr.begin().unwrap();
        for k in 0u8..8 {
            table.write(&init, k, 1_000_000 + k as u32).unwrap();
        }
        mgr.commit(&init).unwrap();

        let pinned = mgr.begin_read_only().unwrap();
        let mut before = Vec::new();
        for k in 0u8..8 {
            before.push(table.read(&pinned, &k).unwrap());
        }
        for (k, v) in &updates {
            let tx = mgr.begin().unwrap();
            table.write(&tx, *k, *v).unwrap();
            mgr.commit(&tx).unwrap();
        }
        for k in 0u8..8 {
            prop_assert_eq!(table.read(&pinned, &k).unwrap(), before[k as usize]);
        }
        mgr.commit(&pinned).unwrap();
    }
}

// ---------------------------------------------------------------------
// Storage layer
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum KvOp {
    Put(u16, Vec<u8>),
    Delete(u16),
    Flush,
}

fn kv_op_strategy() -> impl Strategy<Value = KvOp> {
    prop_oneof![
        4 => (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..24))
            .prop_map(|(k, v)| KvOp::Put(k % 64, v)),
        2 => any::<u16>().prop_map(|k| KvOp::Delete(k % 64)),
        1 => Just(KvOp::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The LSM store behaves exactly like a BTreeMap model under arbitrary
    /// operation sequences, both live and after a crash-free reopen.
    #[test]
    fn lsm_store_equivalent_to_model(ops in proptest::collection::vec(kv_op_strategy(), 1..60)) {
        let dir = std::env::temp_dir().join(format!(
            "tsp-prop-lsm-{}-{}",
            std::process::id(),
            rand_suffix(&ops)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = LsmOptions {
            sync: SyncPolicy::Never,
            memtable_budget_bytes: 512,
            compaction_threshold: 3,
        };
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        {
            let store = LsmStore::open(&dir, opts.clone()).unwrap();
            for op in &ops {
                match op {
                    KvOp::Put(k, v) => {
                        store.put(&k.encode(), v).unwrap();
                        model.insert(k.encode(), v.clone());
                    }
                    KvOp::Delete(k) => {
                        store.delete(&k.encode()).unwrap();
                        model.remove(&k.encode());
                    }
                    KvOp::Flush => store.flush().unwrap(),
                }
            }
            // Live equivalence.
            let mut seen = BTreeMap::new();
            store.scan(&mut |k, v| { seen.insert(k.to_vec(), v.to_vec()); true }).unwrap();
            prop_assert_eq!(&seen, &model);
        }
        // Equivalence after reopen (recovery path).
        let store = LsmStore::open(&dir, opts).unwrap();
        for (k, v) in &model {
            let got = store.get(k).unwrap();
            prop_assert_eq!(got.as_deref(), Some(v.as_slice()));
        }
        prop_assert_eq!(store.len(), model.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Write batches survive the WAL round trip byte-for-byte.
    #[test]
    fn wal_round_trips_batches(
        entries in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..16),
             proptest::option::of(proptest::collection::vec(any::<u8>(), 0..32))),
            1..20
        )
    ) {
        let dir = std::env::temp_dir().join(format!(
            "tsp-prop-wal-{}-{}",
            std::process::id(),
            entries.len() * 31 + entries.iter().map(|(k, _)| k.len()).sum::<usize>()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut batch = WriteBatch::new();
        for (k, v) in &entries {
            match v {
                Some(v) => batch.put(k.clone(), v.clone()),
                None => batch.delete(k.clone()),
            };
        }
        {
            let mut wal = tsp::storage::wal::Wal::open(&path, SyncPolicy::Never).unwrap();
            wal.append(&batch).unwrap();
        }
        let mut recovered = Vec::new();
        tsp::storage::wal::Wal::replay(&path, |b| recovered.push(b)).unwrap();
        prop_assert_eq!(recovered.len(), 1);
        let got = recovered.remove(0);
        prop_assert_eq!(got.iter().collect::<Vec<_>>(), batch.iter().collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Codec round trip for the pair codec used by composite keys.
    #[test]
    fn pair_codec_round_trips(a in any::<u32>(), b in proptest::collection::vec(any::<u8>(), 0..32)) {
        let encoded = (a, b.clone()).encode();
        let decoded = <(u32, Vec<u8>)>::decode(&encoded).unwrap();
        prop_assert_eq!(decoded, (a, b));
    }
}

fn rand_suffix(ops: &[KvOp]) -> usize {
    // Deterministic per-case suffix so parallel proptest cases use distinct
    // directories without needing a random source.
    ops.iter()
        .map(|op| match op {
            KvOp::Put(k, v) => *k as usize * 31 + v.len(),
            KvOp::Delete(k) => *k as usize * 17,
            KvOp::Flush => 7,
        })
        .sum::<usize>()
        .wrapping_mul(2_654_435_761)
}

// ---------------------------------------------------------------------
// Workload generation
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Zipf sampling stays in range and is more skewed for larger θ.
    #[test]
    fn zipf_is_valid_for_paper_theta_range(theta in 0.0f64..3.0, n in 10u64..2_000) {
        let table = ZipfTable::new(n, theta, true);
        let mut sampler = ZipfSampler::new(Arc::clone(&table), 42);
        let hottest;
        const DRAWS: usize = 2_000;
        let hottest_key = {
            // rank 0 maps to a fixed key under scrambling; find it by sampling
            // the unscrambled table.
            let plain = ZipfTable::new(n, theta, false);
            let _ = plain;
            // With scrambling enabled, just track the most frequent key.
            let mut counts = std::collections::HashMap::new();
            for _ in 0..DRAWS {
                let k = sampler.next_key();
                prop_assert!(k < n);
                *counts.entry(k).or_insert(0usize) += 1;
            }
            let (&key, &count) = counts.iter().max_by_key(|(_, c)| **c).unwrap();
            hottest = count;
            key
        };
        let _ = hottest_key;
        // The hottest key's share must be at least the uniform share and at
        // most 100 %.
        let share = hottest as f64 / DRAWS as f64;
        prop_assert!(share <= 1.0);
        if theta >= 2.0 {
            prop_assert!(share >= 0.5, "θ={theta} share={share}");
        }
    }
}
