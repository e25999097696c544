//! The `TO_STREAM` linking operator (§3, Fig. 2).
//!
//! `TO_STREAM` "produces a stream of tuples from a table … Whenever a certain
//! condition on a table is fulfilled, TO_STREAM is executed and emits a new
//! (set of) tuple(s) to a stream."  The *trigger policy* decides when that
//! condition is evaluated: "possible policies are to consider each tuple
//! modification or to rely on transaction commits" (§3, transactional
//! semantics).
//!
//! The operator is placed downstream of the `TO_TABLE` operator(s) of the
//! same query, so by the time it observes a `COMMIT` punctuation the commit
//! has already been performed; the query closure then runs as a fresh
//! read-only snapshot transaction and its results are emitted as data tuples.
//! A batch that rolled back reaches it as `ROLLBACK` and fires nothing.
//!
//! Fused into the chain of its `TO_TABLE` operators (see [`crate::stream`]),
//! the query runs on the same thread right after the commit it reacts to,
//! before the next batch is produced: an `OnCommit` snapshot sees exactly
//! that commit and never a later one of the same chain.

use crate::stream::{Data, Stream};
use std::sync::Arc;
use tsp_common::{PunctuationKind, Result, StreamElement, Tuple};
use tsp_core::{TransactionManager, Tx};

/// When `TO_STREAM` evaluates its query and emits tuples.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TriggerPolicy {
    /// After every committed transaction (the default, consistent view).
    #[default]
    OnCommit,
    /// After every data tuple (fine-grained, higher overhead; reads may
    /// observe the still-uncommitted state of the surrounding transaction
    /// only through the query's own snapshot, never dirty data).
    EveryTuple,
    /// Only once, when the stream ends.
    OnEndOfStream,
}

impl<T: Data> Stream<T> {
    /// Attaches a `TO_STREAM` operator that evaluates `query` against a fresh
    /// read-only snapshot according to `trigger` and emits the returned rows.
    pub fn to_stream<U: Data>(
        self,
        mgr: Arc<TransactionManager>,
        trigger: TriggerPolicy,
        query: impl Fn(&Tx) -> Result<Vec<U>> + Send + 'static,
    ) -> Stream<U> {
        let mut seq = 0u64;
        self.fuse(move |el, out| {
            let fire = match &el {
                StreamElement::Data(_) => trigger == TriggerPolicy::EveryTuple,
                StreamElement::Punctuation(p) => match p.kind {
                    PunctuationKind::Commit => trigger == TriggerPolicy::OnCommit,
                    PunctuationKind::EndOfStream => trigger == TriggerPolicy::OnEndOfStream,
                    _ => false,
                },
            };
            if fire {
                let ts = el.timestamp();
                let Ok(tx) = mgr.begin_read_only() else {
                    return true;
                };
                let rows = query(&tx);
                let _ = mgr.commit(&tx);
                for row in rows.into_iter().flatten() {
                    if !out(StreamElement::Data(Tuple::new(ts, seq, row))) {
                        return false;
                    }
                    seq += 1;
                }
            }
            match el {
                StreamElement::Punctuation(p) if p.kind == PunctuationKind::EndOfStream => {
                    out(StreamElement::Punctuation(p))
                }
                _ => true,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_table::ToTable;
    use crate::topology::Topology;
    use crate::txn::{Boundaries, TxCoordinator};
    use tsp_core::{MvccTable, StateContext};

    fn setup() -> (
        Arc<TransactionManager>,
        Arc<MvccTable<u32, u64>>,
        Arc<TxCoordinator>,
    ) {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let table = MvccTable::<u32, u64>::volatile(&ctx, "t");
        mgr.register(table.clone());
        mgr.register_group(&[table.id()]).unwrap();
        let coord = TxCoordinator::new(ctx);
        (mgr, table, coord)
    }

    #[test]
    fn on_commit_trigger_sees_each_committed_batch() {
        let (mgr, table, coord) = setup();
        let topo = Topology::new();
        let data: Vec<(u32, u64)> = (0..6).map(|i| (i, (i + 1) as u64)).collect();
        let table_for_writer = Arc::clone(&table);
        let table_for_query = Arc::clone(&table);
        let sums = topo
            .source_vec(data)
            .punctuate_every(3, Arc::clone(&coord))
            .to_table(ToTable::new(
                Arc::clone(&mgr),
                Arc::clone(&coord),
                table.id(),
                Boundaries::Punctuations,
                move |tx: &Tx, (k, v): &(u32, u64)| table_for_writer.write(tx, *k, *v),
            ))
            .to_stream(Arc::clone(&mgr), TriggerPolicy::OnCommit, move |tx| {
                let snapshot = table_for_query.scan(tx)?;
                Ok(vec![snapshot.values().sum::<u64>()])
            })
            .collect();
        topo.run();
        // One emission per committed transaction.  The chain is fused, so
        // the query runs right after the commit that triggered it and before
        // the next batch is written: it sees exactly that commit.
        assert_eq!(sums.take(), vec![6, 21]);
    }

    #[test]
    fn end_of_stream_trigger_emits_once() {
        let (mgr, table, coord) = setup();
        let topo = Topology::new();
        let data: Vec<(u32, u64)> = (0..4).map(|i| (i, 10)).collect();
        let table_w = Arc::clone(&table);
        let table_q = Arc::clone(&table);
        let counts = topo
            .source_vec(data)
            .punctuate_every(2, Arc::clone(&coord))
            .to_table(ToTable::new(
                Arc::clone(&mgr),
                Arc::clone(&coord),
                table.id(),
                Boundaries::Punctuations,
                move |tx: &Tx, (k, v): &(u32, u64)| table_w.write(tx, *k, *v),
            ))
            .to_stream(Arc::clone(&mgr), TriggerPolicy::OnEndOfStream, move |tx| {
                Ok(vec![table_q.scan(tx)?.len() as u64])
            })
            .collect();
        topo.run();
        assert_eq!(counts.take(), vec![4]);
    }

    #[test]
    fn every_tuple_trigger_emits_per_data_element() {
        let (mgr, _table, _coord) = setup();
        let topo = Topology::new();
        let out = topo
            .source_vec(vec![1u32, 2, 3])
            .to_stream(Arc::clone(&mgr), TriggerPolicy::EveryTuple, |_tx| {
                Ok(vec![1u8])
            })
            .collect();
        topo.run();
        assert_eq!(out.take(), vec![1, 1, 1]);
    }

    #[test]
    fn on_commit_trigger_skips_rolled_back_batches() {
        let (mgr, table, coord) = setup();
        let topo = Topology::new();
        let table_w = Arc::clone(&table);
        let fired = topo
            .source_vec((0..4u32).map(|k| (k, 1u64)).collect())
            .punctuate_every(2, Arc::clone(&coord))
            .to_table(ToTable::new(
                Arc::clone(&mgr),
                Arc::clone(&coord),
                table.id(),
                Boundaries::Punctuations,
                move |tx: &Tx, (k, v): &(u32, u64)| {
                    if *k == 3 {
                        return Err(tsp_common::TspError::protocol("writer fails on key 3"));
                    }
                    table_w.write(tx, *k, *v)
                },
            ))
            .to_stream(Arc::clone(&mgr), TriggerPolicy::OnCommit, |_tx| {
                Ok(vec![()])
            })
            .collect();
        topo.run();
        // Batch {0, 1} committed; batch {2, 3} rolled back and must not fire.
        assert_eq!(fired.take().len(), 1);
        let r = mgr.begin_read_only().unwrap();
        assert_eq!(table.scan(&r).unwrap().len(), 2);
        mgr.commit(&r).unwrap();
    }

    #[test]
    fn figure_1_chain_runs_on_one_thread() {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let measurements = MvccTable::<u32, u64>::volatile(&ctx, "measurements");
        let local = MvccTable::<u32, u64>::volatile(&ctx, "local_state");
        mgr.register(measurements.clone());
        mgr.register(local.clone());
        mgr.register_group(&[measurements.id(), local.id()])
            .unwrap();
        let coord = TxCoordinator::new(Arc::clone(&ctx));
        let (m_w, l_w) = (Arc::clone(&measurements), Arc::clone(&local));
        let (m_q, l_q) = (Arc::clone(&measurements), Arc::clone(&local));
        let topo = Topology::new();
        let torn = topo
            .source_vec((0..100u32).map(|i| (i % 10, u64::from(i))).collect())
            .punctuate_every(10, Arc::clone(&coord))
            .to_table(ToTable::new(
                Arc::clone(&mgr),
                Arc::clone(&coord),
                measurements.id(),
                Boundaries::Punctuations,
                move |tx: &Tx, (k, v): &(u32, u64)| m_w.write(tx, *k, *v),
            ))
            .to_table(ToTable::new(
                Arc::clone(&mgr),
                Arc::clone(&coord),
                local.id(),
                Boundaries::Punctuations,
                move |tx: &Tx, (k, v): &(u32, u64)| l_w.write(tx, *k, *v),
            ))
            .to_stream(Arc::clone(&mgr), TriggerPolicy::OnCommit, move |tx| {
                Ok(vec![m_q.scan(tx)? != l_q.scan(tx)?])
            })
            .collect();
        assert_eq!(topo.operator_count(), 1, "six operators, one thread");
        topo.run();
        assert_eq!(torn.take(), vec![false; 10]);
        assert_eq!(ctx.active_count(), 0);
    }

    #[test]
    fn eos_punctuation_is_forwarded() {
        let (mgr, _table, _coord) = setup();
        let topo = Topology::new();
        let out = topo
            .source_vec(vec![1u32])
            .to_stream(Arc::clone(&mgr), TriggerPolicy::OnCommit, |_tx| {
                Ok(Vec::<u8>::new())
            })
            .collect_elements();
        topo.run();
        let elements = out.take();
        assert_eq!(elements.len(), 1);
        assert!(matches!(
            elements[0],
            StreamElement::Punctuation(p) if p.kind == PunctuationKind::EndOfStream
        ));
    }
}
