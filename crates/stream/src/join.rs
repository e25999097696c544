//! Join operators: stream ⋈ table lookups and stream ⋈ stream hash joins.
//!
//! The smart-metering scenario of Fig. 1 verifies incoming measurements
//! against a shared *Specification* state — a stream-table join expressed
//! through the queryable-state machinery: every element (or small batch)
//! looks up the table under snapshot isolation, so the join sees a consistent
//! specification version even while another query updates it.
//!
//! Two operators are provided:
//!
//! * [`Stream::lookup_join`] — enrich a keyed stream with the current value
//!   of a transactional table; each probe runs in a read-only snapshot
//!   transaction obtained from the [`TransactionManager`] (the `FROM`-style
//!   access path of §3).
//! * [`Stream::hash_join`] — symmetric windowed hash join of two streams: the
//!   last `window` elements of each side are retained and every arrival
//!   probes the opposite buffer.  Punctuations of the *left* input are
//!   forwarded; the join ends when both inputs have ended.

use crate::stream::{Data, Stream};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Arc;
use tsp_common::{Punctuation, PunctuationKind, StreamElement, Tuple};
use tsp_core::table::{KeyType, TableHandle, ValueType};
use tsp_core::TransactionManager;

impl<K, A> Stream<(K, A)>
where
    K: Data + Clone,
    A: Data,
{
    /// Enriches every `(key, payload)` element with the table value stored
    /// under `key`, dropping elements whose key has no committed value.
    ///
    /// The table may run any concurrency-control protocol (pass a handle
    /// from [`tsp_core::Protocol::create_table`], or any concrete table —
    /// `Arc<MvccTable<_, _>>` coerces to the handle).  Each probe runs in its
    /// own read-only transaction, so under MVCC a probe never observes a torn
    /// multi-state commit; elements arriving while an update commits see
    /// either the old or the new specification, never a mix.
    pub fn lookup_join<V>(
        self,
        mgr: Arc<TransactionManager>,
        table: TableHandle<K, V>,
    ) -> Stream<(K, A, V)>
    where
        K: KeyType,
        V: ValueType + Send,
    {
        self.lookup_join_with(mgr, table, |k, a, v| v.map(|v| (k, a, v)))
    }

    /// Like [`lookup_join`](Self::lookup_join) but with a custom combiner;
    /// returning `None` drops the element (e.g. "no specification → discard").
    pub fn lookup_join_with<V, O>(
        self,
        mgr: Arc<TransactionManager>,
        table: TableHandle<K, V>,
        combine: impl Fn(K, A, Option<V>) -> Option<O> + Send + 'static,
    ) -> Stream<O>
    where
        K: KeyType,
        V: ValueType + Send,
        O: Data,
    {
        self.fuse(move |el, out| match el {
            StreamElement::Data(t) => {
                let (k, a) = t.payload;
                // A read-only snapshot per probe: cheap (atomic slot
                // allocation) and always consistent.
                let value = match mgr.begin_read_only() {
                    Ok(q) => {
                        let v = table.read(&q, &k).ok().flatten();
                        let _ = mgr.commit(&q);
                        v
                    }
                    Err(_) => None,
                };
                match combine(k, a, value) {
                    Some(o) => out(StreamElement::Data(Tuple::new(t.timestamp, t.seq, o))),
                    None => true,
                }
            }
            StreamElement::Punctuation(p) => out(StreamElement::Punctuation(p)),
        })
    }
}

impl<T: Data> Stream<T> {
    /// Symmetric windowed hash join.
    ///
    /// Keeps the most recent `window` elements of each input per key and, on
    /// every arrival, emits one output per matching element currently
    /// buffered on the opposite side.  `key_left` / `key_right` extract the
    /// join keys; `combine` builds the output.
    ///
    /// Punctuations from the left input are forwarded so transaction
    /// boundaries survive the join; the right input's punctuations only
    /// contribute to termination.
    ///
    /// A boundary operator: each input that is a fused chain runs on its
    /// own thread into a channel, and the join selects over both channels
    /// on the thread of the chain behind it.
    pub fn hash_join<U, K, O>(
        self,
        right: Stream<U>,
        window: usize,
        key_left: impl Fn(&T) -> K + Send + 'static,
        key_right: impl Fn(&U) -> K + Send + 'static,
        combine: impl Fn(&T, &U) -> O + Send + 'static,
    ) -> Stream<O>
    where
        U: Data + Clone,
        T: Clone,
        K: Eq + Hash + Clone + Send + 'static,
        O: Data,
    {
        assert!(window >= 1, "join window must hold at least one element");
        let core = Arc::clone(&self.core);
        let left_rx = self.into_receiver();
        let right_rx = right.into_receiver();
        Stream::fused(core, move |out| {
            let mut left_buf: HashMap<K, VecDeque<T>> = HashMap::new();
            let mut right_buf: HashMap<K, VecDeque<U>> = HashMap::new();
            let mut left_order: VecDeque<K> = VecDeque::new();
            let mut right_order: VecDeque<K> = VecDeque::new();
            let mut left_open = true;
            let mut right_open = true;
            let mut seq = 0u64;
            let mut last_ts = 0;
            // Disabled inputs are swapped for a never-ready channel so the
            // select loop does not spin on a closed receiver.
            let never_left = crossbeam::channel::never::<StreamElement<T>>();
            let never_right = crossbeam::channel::never::<StreamElement<U>>();

            let evict = |order: &mut VecDeque<K>, window: usize| -> Option<K> {
                if order.len() > window {
                    order.pop_front()
                } else {
                    None
                }
            };

            while left_open || right_open {
                crossbeam::channel::select! {
                    recv(if left_open { &left_rx } else { &never_left }) -> msg => match msg {
                        Ok(StreamElement::Data(t)) => {
                            last_ts = t.timestamp;
                            let k = key_left(&t.payload);
                            if let Some(matches) = right_buf.get(&k) {
                                for r in matches {
                                    let o = combine(&t.payload, r);
                                    if !out(StreamElement::Data(Tuple::new(t.timestamp, seq, o))) {
                                        return;
                                    }
                                    seq += 1;
                                }
                            }
                            left_buf.entry(k.clone()).or_default().push_back(t.payload);
                            left_order.push_back(k);
                            if let Some(old) = evict(&mut left_order, window) {
                                if let Some(q) = left_buf.get_mut(&old) {
                                    q.pop_front();
                                    if q.is_empty() {
                                        left_buf.remove(&old);
                                    }
                                }
                            }
                        }
                        Ok(StreamElement::Punctuation(p)) => {
                            last_ts = last_ts.max(p.timestamp);
                            if p.kind == PunctuationKind::EndOfStream {
                                left_open = false;
                            } else if !out(StreamElement::Punctuation(p)) {
                                return;
                            }
                        }
                        Err(_) => left_open = false,
                    },
                    recv(if right_open { &right_rx } else { &never_right }) -> msg => match msg {
                        Ok(StreamElement::Data(t)) => {
                            last_ts = t.timestamp;
                            let k = key_right(&t.payload);
                            if let Some(matches) = left_buf.get(&k) {
                                for l in matches {
                                    let o = combine(l, &t.payload);
                                    if !out(StreamElement::Data(Tuple::new(t.timestamp, seq, o))) {
                                        return;
                                    }
                                    seq += 1;
                                }
                            }
                            right_buf.entry(k.clone()).or_default().push_back(t.payload);
                            right_order.push_back(k);
                            if let Some(old) = evict(&mut right_order, window) {
                                if let Some(q) = right_buf.get_mut(&old) {
                                    q.pop_front();
                                    if q.is_empty() {
                                        right_buf.remove(&old);
                                    }
                                }
                            }
                        }
                        Ok(StreamElement::Punctuation(p)) => {
                            last_ts = last_ts.max(p.timestamp);
                            if p.kind == PunctuationKind::EndOfStream {
                                right_open = false;
                            }
                        }
                        Err(_) => right_open = false,
                    },
                }
            }
            out(Punctuation::end_of_stream(last_ts).into());
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use tsp_core::prelude::*;

    fn table_setup() -> (Arc<TransactionManager>, TableHandle<u64, String>) {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        // Built through the runtime factory: the join layer only ever sees
        // the protocol-erased handle.
        let spec = tsp_core::Protocol::Mvcc.create_table::<u64, String>(&ctx, "spec", None);
        mgr.register(Arc::clone(&spec).as_participant());
        mgr.register_group(&[spec.id()]).unwrap();
        (mgr, spec)
    }

    #[test]
    fn lookup_join_enriches_with_committed_values() {
        let (mgr, spec) = table_setup();
        let tx = mgr.begin().unwrap();
        spec.write(&tx, 1, "limit=100".into()).unwrap();
        spec.write(&tx, 2, "limit=200".into()).unwrap();
        mgr.commit(&tx).unwrap();

        let topo = Topology::new();
        let sink = topo
            .source_vec(vec![(1u64, 40u64), (2, 150), (3, 999)])
            .lookup_join(Arc::clone(&mgr), Arc::clone(&spec))
            .collect();
        topo.run();
        let out = sink.take();
        assert_eq!(out.len(), 2, "key 3 has no spec and is dropped");
        assert_eq!(out[0], (1, 40, "limit=100".to_string()));
        assert_eq!(out[1], (2, 150, "limit=200".to_string()));
    }

    #[test]
    fn lookup_join_with_keeps_misses_when_asked() {
        let (mgr, spec) = table_setup();
        let tx = mgr.begin().unwrap();
        spec.write(&tx, 7, "known".into()).unwrap();
        mgr.commit(&tx).unwrap();

        let topo = Topology::new();
        let sink = topo
            .source_vec(vec![(7u64, "a"), (8, "b")])
            .lookup_join_with(Arc::clone(&mgr), Arc::clone(&spec), |k, a, v| {
                Some((k, a, v.unwrap_or_else(|| "<missing>".into())))
            })
            .collect();
        topo.run();
        assert_eq!(
            sink.take(),
            vec![
                (7, "a", "known".to_string()),
                (8, "b", "<missing>".to_string())
            ]
        );
    }

    #[test]
    fn lookup_join_forwards_punctuations() {
        let (mgr, spec) = table_setup();
        let topo = Topology::new();
        let elements = vec![
            StreamElement::Punctuation(Punctuation::bot(tsp_common::TxnId(1), 0)),
            StreamElement::data(0, 0, (1u64, 1u64)),
            StreamElement::Punctuation(Punctuation::commit(tsp_common::TxnId(1), 1)),
        ];
        let sink = topo
            .source_elements(elements)
            .lookup_join_with(mgr, spec, |k, a, v| Some((k, a, v.is_some())))
            .collect_elements();
        topo.run();
        let kinds: Vec<_> = sink
            .take()
            .iter()
            .filter_map(|e| e.as_punctuation().map(|p| p.kind))
            .collect();
        assert_eq!(
            kinds,
            vec![
                PunctuationKind::Bot,
                PunctuationKind::Commit,
                PunctuationKind::EndOfStream
            ]
        );
    }

    #[test]
    fn hash_join_matches_across_sides() {
        let topo = Topology::new();
        let left = topo.source_vec(vec![(1u32, "l1"), (2, "l2"), (3, "l3")]);
        let right = topo.source_vec(vec![(2u32, 20u64), (3, 30), (4, 40)]);
        let sink = left
            .hash_join(right, 16, |l| l.0, |r| r.0, |l, r| (l.0, l.1, r.1))
            .collect();
        topo.run();
        let mut out = sink.take();
        out.sort();
        assert_eq!(out, vec![(2, "l2", 20), (3, "l3", 30)]);
    }

    #[test]
    fn hash_join_window_evicts_old_entries() {
        let topo = Topology::new();
        // Left emits key 1 early; the right side's matching element arrives
        // after more than `window` other left elements, so the join buffer no
        // longer holds it.
        let left_items: Vec<(u32, u32)> = std::iter::once((1u32, 0u32))
            .chain((100..120).map(|i| (i, i)))
            .collect();
        let left = topo.source_vec(left_items);
        let right = topo.source_with_timestamps(vec![(1000u64, (1u32, 99u32))]);
        let sink = left
            .hash_join(right, 4, |l| l.0, |r| r.0, |l, r| (l.0, l.1, r.1))
            .collect();
        topo.run();
        // The (1, …) entry was evicted before the right element arrived in
        // almost every interleaving; with a tiny window the join result must
        // never exceed one row and usually is empty.
        assert!(sink.take().len() <= 1);
    }

    #[test]
    fn hash_join_forwards_left_punctuations() {
        let topo = Topology::new();
        let left_elements = vec![
            StreamElement::Punctuation(Punctuation::bot(tsp_common::TxnId(9), 0)),
            StreamElement::data(1, 0, (1u32, "x")),
            StreamElement::Punctuation(Punctuation::commit(tsp_common::TxnId(9), 2)),
        ];
        let left = topo.source_elements(left_elements);
        let right = topo.source_vec(vec![(1u32, 10u8)]);
        let sink = left
            .hash_join(right, 8, |l| l.0, |r| r.0, |l, r| (l.1, r.1))
            .collect_elements();
        topo.run();
        let out = sink.take();
        let kinds: Vec<_> = out
            .iter()
            .filter_map(|e| e.as_punctuation().map(|p| p.kind))
            .collect();
        assert!(kinds.contains(&PunctuationKind::Bot));
        assert!(kinds.contains(&PunctuationKind::Commit));
        assert!(kinds.contains(&PunctuationKind::EndOfStream));
        let data: Vec<_> = out.iter().filter_map(|e| e.as_data()).collect();
        assert_eq!(data.len(), 1);
        assert_eq!(data[0].payload, ("x", 10));
    }
}
