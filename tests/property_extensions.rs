//! Property-based tests (proptest) for the extension modules: Bloom filters,
//! range scans, posting lists / secondary indexes, the latency
//! histogram, session windows and the relaxed isolation levels.  Each test
//! checks the real implementation against a small, obviously-correct model.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tsp::core::index::PostingList;
use tsp::core::prelude::*;
use tsp::core::table::MvccTableOptions;
use tsp::storage::prelude::*;
use tsp::stream::prelude::*;
use tsp::workload::Histogram;

// ---------------------------------------------------------------------
// Bloom filter
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every inserted key must be reported as possibly present (no false
    /// negatives), regardless of how over- or under-sized the filter is.
    #[test]
    fn bloom_has_no_false_negatives(
        keys in proptest::collection::hash_set(proptest::collection::vec(any::<u8>(), 0..32), 0..300),
        bits_per_key in 1usize..20,
    ) {
        let mut bloom = Bloom::with_capacity(keys.len(), bits_per_key);
        for k in &keys {
            bloom.insert(k);
        }
        prop_assert_eq!(bloom.entries(), keys.len() as u64);
        for k in &keys {
            prop_assert!(bloom.may_contain(k), "false negative for {k:?}");
        }
    }

    /// At the default sizing the false-positive rate over a disjoint probe set
    /// stays far below 50 % (a loose bound that still catches broken hashing).
    #[test]
    fn bloom_false_positive_rate_is_bounded(n in 100u32..2_000) {
        let mut bloom = Bloom::new(n as usize);
        for i in 0..n {
            bloom.insert(&i.to_be_bytes());
        }
        let mut fp = 0u32;
        let probes = 2_000u32;
        for i in 10_000_000..10_000_000 + probes {
            if bloom.may_contain(&(i as u64).to_be_bytes()) {
                fp += 1;
            }
        }
        prop_assert!((fp as f64 / probes as f64) < 0.2, "fp rate {} too high", fp as f64 / probes as f64);
    }
}

// ---------------------------------------------------------------------
// Range scans
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `collect_range` over the ordered backend equals filtering a model map.
    #[test]
    fn range_scan_matches_model(
        entries in proptest::collection::btree_map(any::<u32>(), any::<u8>(), 0..200),
        lo in any::<u32>(),
        hi in any::<u32>(),
    ) {
        let backend = BTreeBackend::new();
        for (k, v) in &entries {
            backend.put(&k.to_be_bytes(), &[*v]).unwrap();
        }
        let range = KeyRange::half_open(lo.to_be_bytes().to_vec(), hi.to_be_bytes().to_vec());
        let got = collect_range(&backend, &range).unwrap();
        let expected: Vec<(Vec<u8>, Vec<u8>)> = entries
            .iter()
            .filter(|(k, _)| **k >= lo && **k < hi)
            .map(|(k, v)| (k.to_be_bytes().to_vec(), vec![*v]))
            .collect();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(
            count_range(&backend, &KeyRange::all()).unwrap(),
            entries.len()
        );
    }

    /// Prefix scans return exactly the keys with that prefix, in order.
    #[test]
    fn prefix_scan_matches_model(
        keys in proptest::collection::btree_set(proptest::collection::vec(any::<u8>(), 1..6), 0..100),
        prefix in proptest::collection::vec(any::<u8>(), 0..3),
    ) {
        let backend = BTreeBackend::new();
        for k in &keys {
            backend.put(k, b"v").unwrap();
        }
        let mut got = Vec::new();
        scan_prefix(&backend, &prefix, &mut |k, _| {
            got.push(k.to_vec());
            true
        })
        .unwrap();
        let expected: Vec<Vec<u8>> = keys
            .iter()
            .filter(|k| k.starts_with(&prefix))
            .cloned()
            .collect();
        prop_assert_eq!(got, expected);
    }
}

// ---------------------------------------------------------------------
// Posting lists / secondary index
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// PostingList behaves like a sorted set and its codec round-trips.
    #[test]
    fn posting_list_is_a_sorted_set(ops in proptest::collection::vec((any::<u32>(), proptest::bool::ANY), 0..200)) {
        let mut list: PostingList<u32> = PostingList::new();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for (key, insert) in ops {
            if insert {
                prop_assert_eq!(list.insert(key), model.insert(key));
            } else {
                prop_assert_eq!(list.remove(&key), model.remove(&key));
            }
        }
        prop_assert_eq!(list.keys().to_vec(), model.iter().copied().collect::<Vec<_>>());
        let decoded = PostingList::<u32>::decode(&list.encode()).unwrap();
        prop_assert_eq!(decoded.keys(), list.keys());
    }

    /// An IndexedTable driven by an arbitrary sequence of committed puts and
    /// deletes always agrees with a model map, and index/data never diverge.
    #[test]
    fn indexed_table_matches_model(
        ops in proptest::collection::vec((0u32..40, 0u64..5, proptest::bool::ANY), 1..60),
    ) {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let table = IndexedTable::<u32, u64, u64>::create(
            &mgr,
            "t",
            None,
            MvccTableOptions::default(),
            |v: &u64| v % 5,
        )
        .unwrap();
        let mut model: BTreeMap<u32, u64> = BTreeMap::new();
        for (key, value, is_put) in ops {
            let tx = mgr.begin().unwrap();
            if is_put {
                table.put(&tx, key, value).unwrap();
                model.insert(key, value);
            } else {
                table.delete(&tx, &key).unwrap();
                model.remove(&key);
            }
            mgr.commit(&tx).unwrap();
        }
        let q = mgr.begin_read_only().unwrap();
        prop_assert_eq!(table.check_consistency(&q).unwrap(), model.len());
        for (k, v) in &model {
            prop_assert_eq!(table.get(&q, k).unwrap(), Some(*v));
        }
        for zone in 0..5u64 {
            let mut expected: Vec<u32> = model
                .iter()
                .filter(|(_, v)| **v % 5 == zone)
                .map(|(k, _)| *k)
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(table.lookup_keys(&q, &zone).unwrap(), expected);
        }
        mgr.commit(&q).unwrap();
    }
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantiles stay within the histogram's relative-error bound of the exact
    /// quantiles, and count/min/max are exact.
    #[test]
    fn histogram_quantiles_are_accurate(mut values in proptest::collection::vec(1u64..10_000_000_000, 1..500)) {
        let h = Histogram::new();
        for v in &values {
            h.record_nanos(*v);
        }
        values.sort_unstable();
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min().as_nanos() as u64, values[0]);
        prop_assert_eq!(h.max().as_nanos() as u64, *values.last().unwrap());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let exact = values[((values.len() - 1) as f64 * q).round() as usize] as f64;
            let got = h.quantile(q).unwrap().as_nanos() as f64;
            // Bucketed resolution plus rank-rounding slack.
            prop_assert!(
                got >= values[0] as f64 * 0.95 && got <= *values.last().unwrap() as f64 * 1.05,
                "quantile {q} out of range: {got}"
            );
            if values.len() > 50 {
                prop_assert!(
                    (got - exact).abs() <= exact * 0.25 + 2.0,
                    "quantile {q}: got {got}, exact {exact}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Session windows
// ---------------------------------------------------------------------

/// Sequential model of session windowing over (timestamp, payload) pairs.
fn session_model(items: &[(u64, u32)], gap: u64) -> Vec<Vec<u32>> {
    let mut sessions: Vec<Vec<u32>> = Vec::new();
    let mut last_ts: Option<u64> = None;
    for (ts, value) in items {
        let new_session = match last_ts {
            Some(prev) => ts.saturating_sub(prev) > gap,
            None => true,
        };
        if new_session {
            sessions.push(Vec::new());
        }
        sessions.last_mut().unwrap().push(*value);
        last_ts = Some(*ts);
    }
    sessions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn session_window_matches_model(
        mut timestamps in proptest::collection::vec(0u64..1_000, 1..100),
        gap in 0u64..50,
    ) {
        timestamps.sort_unstable();
        let items: Vec<(u64, u32)> = timestamps
            .iter()
            .enumerate()
            .map(|(i, ts)| (*ts, i as u32))
            .collect();
        let expected = session_model(&items, gap);

        let topo = Topology::new();
        let sink = topo
            .source_with_timestamps(items.clone())
            .session_window(gap)
            .collect();
        topo.run();
        let got: Vec<Vec<u32>> = sink.take().into_iter().map(|w| w.items).collect();
        prop_assert_eq!(got, expected);
    }
}

// ---------------------------------------------------------------------
// Isolation levels
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After an arbitrary sequence of committed writes to one key, a
    /// read-committed reader sees the latest committed value at each point,
    /// while a snapshot reader opened at some earlier point keeps seeing the
    /// value that was current then.
    #[test]
    fn isolation_levels_agree_with_history(values in proptest::collection::vec(any::<u64>(), 1..30), pin_after in 0usize..30) {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let table = MvccTable::<u32, u64>::volatile(&ctx, "t");
        mgr.register(table.clone());
        mgr.register_group(&[table.id()]).unwrap();
        let rc = IsolatedReader::new(&ctx, table.clone(), IsolationLevel::ReadCommitted);

        let pin_after = pin_after.min(values.len() - 1);
        let mut pinned_reader = None;
        let mut pinned_expected = 0u64;
        for (i, v) in values.iter().enumerate() {
            let tx = mgr.begin().unwrap();
            table.write(&tx, 1, *v).unwrap();
            mgr.commit(&tx).unwrap();

            if i == pin_after {
                let q = mgr.begin_read_only().unwrap();
                // First read pins the snapshot at the current commit.
                prop_assert_eq!(table.read(&q, &1).unwrap(), Some(*v));
                pinned_reader = Some(q);
                pinned_expected = *v;
            }

            // Read-committed always observes the newest committed value.
            let q = mgr.begin_read_only().unwrap();
            prop_assert_eq!(rc.read(&q, &1).unwrap(), Some(*v));
            mgr.commit(&q).unwrap();
        }
        let q = pinned_reader.expect("pin_after is clamped into range");
        prop_assert_eq!(table.read(&q, &1).unwrap(), Some(pinned_expected));
        mgr.commit(&q).unwrap();
    }
}
