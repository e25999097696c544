//! Stream partitioning for parallel operator instances.
//!
//! The paper's evaluation drives a single continuous writer per query, but
//! the smart-metering scenario of Fig. 1 sketches many independent meters
//! whose readings could be processed by parallel operator instances (this is
//! how PipeFabric and every distributed engine scale stateful operators).
//! This module adds the routing primitives:
//!
//! * [`Stream::partition_by`] — hash-partition on a key so every element of
//!   one key is handled by the same downstream instance,
//! * [`Stream::round_robin`] — load-balance without key affinity,
//! * [`Stream::key_by`] — attach an explicit key to every element (a fused
//!   `map`).
//!
//! The two routers are boundary operators: the upstream chain runs on its
//! own thread and feeds one bounded channel per partition, and each
//! partition heads a chain — and a thread — of its own.
//!
//! Punctuations (transaction boundaries, window closes, end-of-stream) are
//! broadcast to *every* partition, so per-partition `TO_TABLE` operators all
//! observe the same transaction boundaries — the property the data-centric
//! transaction model relies on.

use crate::stream::{Data, Stream};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use tsp_common::StreamElement;

impl<T: Data> Stream<T> {
    /// Attaches the key computed by `key_of` to every data element.
    pub fn key_by<K: Data + Clone>(
        self,
        key_of: impl Fn(&T) -> K + Send + 'static,
    ) -> Stream<(K, T)> {
        self.map(move |t| {
            let k = key_of(&t);
            (k, t)
        })
    }

    /// Splits the stream into `n` partitions by hashing `key_of`.
    ///
    /// Every data element goes to exactly one partition (same key → same
    /// partition); punctuations are replicated to all partitions.
    pub fn partition_by<K: Hash>(
        self,
        n: usize,
        key_of: impl Fn(&T) -> K + Send + 'static,
    ) -> Vec<Stream<T>> {
        assert!(n >= 1, "partition_by requires at least one partition");
        self.route(n, move |t| {
            let mut h = DefaultHasher::new();
            key_of(t).hash(&mut h);
            (h.finish() as usize) % n
        })
    }

    /// Splits the stream into `n` partitions, assigning data elements in
    /// round-robin order.  Punctuations are replicated to all partitions.
    pub fn round_robin(self, n: usize) -> Vec<Stream<T>> {
        assert!(n >= 1, "round_robin requires at least one partition");
        let mut next = 0usize;
        self.route(n, move |_| {
            let p = next;
            next = (next + 1) % n;
            p
        })
    }

    /// Generic router: `route_of(element)` picks the partition for each data
    /// element; punctuations go everywhere.
    fn route(
        self,
        n: usize,
        mut route_of: impl FnMut(&T) -> usize + Send + 'static,
    ) -> Vec<Stream<T>> {
        let (senders, streams): (Vec<_>, Vec<_>) = (0..n).map(|_| self.channel()).unzip();
        self.spawn(move |el| match el {
            StreamElement::Data(t) => {
                let p = route_of(&t.payload).min(n - 1);
                senders[p].send(StreamElement::Data(t)).is_ok()
            }
            StreamElement::Punctuation(p) => senders
                .iter()
                .all(|s| s.send(StreamElement::Punctuation(p)).is_ok()),
        });
        streams
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use tsp_common::{Punctuation, PunctuationKind, TxnId};

    #[test]
    fn key_by_attaches_keys() {
        let topo = Topology::new();
        let sink = topo
            .source_vec(vec![1u32, 2, 3, 4])
            .key_by(|x| x % 2)
            .collect();
        topo.run();
        assert_eq!(sink.take(), vec![(1, 1), (0, 2), (1, 3), (0, 4)]);
    }

    #[test]
    fn partition_by_keeps_key_affinity_and_loses_nothing() {
        let topo = Topology::new();
        let parts = topo
            .source_vec((0..1000u64).collect())
            .partition_by(4, |x| x % 10);
        let sinks: Vec<_> = parts.into_iter().map(|p| p.collect()).collect();
        topo.run();
        let collected: Vec<Vec<u64>> = sinks.iter().map(|s| s.take()).collect();
        // Nothing lost, nothing duplicated.
        let total: usize = collected.iter().map(|c| c.len()).sum();
        assert_eq!(total, 1000);
        let mut all: Vec<u64> = collected.iter().flatten().copied().collect();
        all.sort();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
        // Key affinity: every key (mod 10) appears in exactly one partition.
        for key in 0..10u64 {
            let holders = collected
                .iter()
                .filter(|c| c.iter().any(|x| x % 10 == key))
                .count();
            assert_eq!(holders, 1, "key {key} spread over {holders} partitions");
        }
    }

    #[test]
    fn round_robin_balances_evenly() {
        let topo = Topology::new();
        let parts = topo.source_vec((0..100u32).collect()).round_robin(4);
        let sinks: Vec<_> = parts.into_iter().map(|p| p.collect()).collect();
        topo.run();
        for s in sinks {
            assert_eq!(s.take().len(), 25);
        }
    }

    #[test]
    fn punctuations_are_broadcast_to_every_partition() {
        let topo = Topology::new();
        let elements = vec![
            StreamElement::Punctuation(Punctuation::bot(TxnId(1), 0)),
            StreamElement::data(0, 0, 1u32),
            StreamElement::data(1, 1, 2u32),
            StreamElement::Punctuation(Punctuation::commit(TxnId(1), 2)),
        ];
        let parts = topo.source_elements(elements).partition_by(3, |x| *x);
        let sinks: Vec<_> = parts.into_iter().map(|p| p.collect_elements()).collect();
        topo.run();
        for s in sinks {
            let puncts: Vec<PunctuationKind> = s
                .take()
                .iter()
                .filter_map(|e| e.as_punctuation().map(|p| p.kind))
                .collect();
            assert!(puncts.contains(&PunctuationKind::Bot));
            assert!(puncts.contains(&PunctuationKind::Commit));
            assert!(puncts.contains(&PunctuationKind::EndOfStream));
        }
    }

    #[test]
    fn single_partition_is_a_passthrough() {
        let topo = Topology::new();
        let mut parts = topo.source_vec(vec![5u8, 6, 7]).partition_by(1, |_| 0u8);
        let sink = parts.remove(0).collect();
        topo.run();
        assert_eq!(sink.take(), vec![5, 6, 7]);
    }
}
