//! The `FROM` ad-hoc query operator (§3, Fig. 2).
//!
//! `FROM` "is required to either attach to a stream, i.e., read all tuples of
//! the stream starting at the point of attachment, or to read data of a
//! table".
//!
//! * Attaching to a stream is expressed with [`crate::stream::Stream::broadcast`]
//!   — one branch continues the pipeline, the other is the attached ad-hoc
//!   consumer.
//! * Reading a table is provided here: [`Topology::from_table`] runs a query
//!   closure once inside a read-only snapshot transaction and exposes the
//!   result rows as a finite stream, and [`AdHocQuery`] offers the same
//!   snapshot-read capability outside a topology (the form the benchmark's
//!   concurrent ad-hoc queries use).

use crate::stream::{Data, Stream};
use crate::topology::Topology;
use std::sync::Arc;
use tsp_common::{Punctuation, Result, StreamElement, Tuple};
use tsp_core::table::{KeyType, TableHandle, ValueType};
use tsp_core::{TransactionManager, Tx};

/// A reusable ad-hoc query: every [`run`](AdHocQuery::run) executes the query
/// closure in a fresh read-only snapshot transaction, retrying automatically
/// when the underlying protocol reports a retryable conflict (relevant for
/// the BOCC baseline, where even read-only queries can fail validation).
pub struct AdHocQuery<R> {
    mgr: Arc<TransactionManager>,
    query: QueryFn<R>,
    max_retries: usize,
}

/// Boxed query closure run by an [`AdHocQuery`].
type QueryFn<R> = Box<dyn Fn(&Tx) -> Result<R> + Send + Sync>;

impl<R> AdHocQuery<R> {
    /// Creates an ad-hoc query with the default retry budget (16 attempts).
    pub fn new(
        mgr: Arc<TransactionManager>,
        query: impl Fn(&Tx) -> Result<R> + Send + Sync + 'static,
    ) -> Self {
        AdHocQuery {
            mgr,
            query: Box::new(query),
            max_retries: 16,
        }
    }

    /// Overrides the retry budget.
    pub fn with_max_retries(mut self, retries: usize) -> Self {
        self.max_retries = retries.max(1);
        self
    }

    /// Executes the query once (with automatic retries on retryable
    /// conflicts) and returns its result.
    pub fn run(&self) -> Result<R> {
        let mut last_err = None;
        for _ in 0..self.max_retries {
            let tx = self.mgr.begin_read_only()?;
            match (self.query)(&tx) {
                Ok(result) => match self.mgr.commit(&tx) {
                    Ok(_) => return Ok(result),
                    Err(e) if e.is_retryable() => {
                        last_err = Some(e);
                        continue;
                    }
                    Err(e) => return Err(e),
                },
                Err(e) => {
                    let _ = self.mgr.abort(&tx);
                    if e.is_retryable() {
                        last_err = Some(e);
                        continue;
                    }
                    return Err(e);
                }
            }
        }
        Err(last_err.expect("retry loop only exits with an error"))
    }
}

impl Topology {
    /// Runs an ad-hoc table query as a source: `query` executes once in a
    /// read-only snapshot transaction when the topology starts, and each
    /// returned row becomes one data tuple, followed by `EndOfStream`.
    pub fn from_table<U: Data>(
        &self,
        mgr: Arc<TransactionManager>,
        query: impl Fn(&Tx) -> Result<Vec<U>> + Send + 'static,
    ) -> Stream<U> {
        self.source(move |out| {
            let Ok(txn) = mgr.begin_read_only() else {
                out(Punctuation::end_of_stream(0).into());
                return;
            };
            let rows = query(&txn).unwrap_or_default();
            let _ = mgr.commit(&txn);
            for (i, row) in rows.into_iter().enumerate() {
                if !out(StreamElement::Data(Tuple::new(0, i as u64, row))) {
                    return;
                }
            }
            out(Punctuation::end_of_stream(0).into());
        })
    }

    /// Runs a whole-table ad-hoc query over any transactional table as a
    /// source: the table is scanned once in a read-only snapshot transaction
    /// when the topology starts and each `(key, value)` row becomes one data
    /// tuple, followed by `EndOfStream`.
    ///
    /// Protocol-generic counterpart of [`Topology::from_table`]: the handle
    /// may wrap an MVCC, S2PL or BOCC table
    /// (see [`tsp_core::Protocol::create_table`]); the scan respects each
    /// protocol's consistency rules through
    /// [`tsp_core::TransactionalTable::scan`].
    pub fn from_table_rows<K, V>(
        &self,
        mgr: Arc<TransactionManager>,
        table: TableHandle<K, V>,
    ) -> Stream<(K, V)>
    where
        K: KeyType,
        V: ValueType,
    {
        self.from_table(mgr, move |tx| {
            Ok(table.scan(tx)?.into_iter().collect::<Vec<_>>())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_core::{BoccTable, MvccTable, StateContext};

    #[test]
    fn from_table_reads_a_snapshot() {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let table = MvccTable::<u32, u64>::volatile(&ctx, "t");
        mgr.register(table.clone());
        mgr.register_group(&[table.id()]).unwrap();
        // Seed some committed data.
        let w = mgr.begin().unwrap();
        for i in 0..5u32 {
            table.write(&w, i, (i * i) as u64).unwrap();
        }
        mgr.commit(&w).unwrap();

        let topo = Topology::new();
        let table_q = Arc::clone(&table);
        let sink = topo
            .from_table(Arc::clone(&mgr), move |tx| {
                Ok(table_q.scan(tx)?.into_iter().collect::<Vec<_>>())
            })
            .map(|(_, v)| v)
            .collect();
        topo.run();
        assert_eq!(sink.take(), vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn adhoc_query_runs_and_reruns() {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let table = MvccTable::<u32, u64>::volatile(&ctx, "t");
        mgr.register(table.clone());
        mgr.register_group(&[table.id()]).unwrap();

        let table_q = Arc::clone(&table);
        let q = AdHocQuery::new(Arc::clone(&mgr), move |tx| Ok(table_q.scan(tx)?.len()));
        assert_eq!(q.run().unwrap(), 0);

        let w = mgr.begin().unwrap();
        table.write(&w, 1, 1).unwrap();
        mgr.commit(&w).unwrap();
        assert_eq!(q.run().unwrap(), 1);
    }

    #[test]
    fn adhoc_query_retries_bocc_validation_failures() {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let table = BoccTable::<u32, u64>::volatile(&ctx, "t");
        mgr.register(table.clone());
        mgr.register_group(&[table.id()]).unwrap();
        let w = mgr.begin().unwrap();
        table.write(&w, 1, 1).unwrap();
        mgr.commit(&w).unwrap();

        // The query interleaves a conflicting write on its first attempt only.
        let attempts = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let table_q = Arc::clone(&table);
        let mgr_inner = Arc::clone(&mgr);
        let attempts_q = Arc::clone(&attempts);
        let q = AdHocQuery::new(Arc::clone(&mgr), move |tx| {
            let v = table_q.read(tx, &1)?;
            if attempts_q.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
                // Concurrent writer commits between the read and validation.
                let w = mgr_inner.begin()?;
                table_q.write(&w, 1, 99)?;
                mgr_inner.commit(&w)?;
            }
            Ok(v)
        });
        let result = q.run().unwrap();
        assert_eq!(result, Some(99), "second attempt sees the new value");
        assert_eq!(attempts.load(std::sync::atomic::Ordering::SeqCst), 2);
    }

    #[test]
    fn adhoc_query_gives_up_after_retry_budget() {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let q: AdHocQuery<()> = AdHocQuery::new(Arc::clone(&mgr), |_tx| {
            Err(tsp_common::TspError::ValidationFailed { txn: 0 })
        })
        .with_max_retries(3);
        assert!(q.run().is_err());
    }
}
