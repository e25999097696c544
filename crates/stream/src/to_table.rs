//! The `TO_TABLE` linking operator (§3, Fig. 2).
//!
//! `TO_TABLE` "inserts, deletes, or updates tuples from a stream in a table"
//! and is "the only way to modify a table in our model"; it "has to guarantee
//! atomicity based on the transaction boundaries".  The operator therefore:
//!
//! * materialises the transaction announced by a `BOT` punctuation (through
//!   the shared [`TxCoordinator`], so several `TO_TABLE` operators of the
//!   same query share one transaction),
//! * applies every data tuple to its table through the caller-supplied
//!   [`TableWriter`] within that transaction,
//! * on `COMMIT` flags its state as ready — the operator that flags last
//!   becomes the coordinator of the global commit (§4.3),
//! * on `ROLLBACK` (or a write error) flags abort, forcing a global rollback.
//!
//! Elements are forwarded downstream, so `TO_STREAM` operators placed after
//! a `TO_TABLE` observe the same boundaries *after* the commit has been
//! performed.  The one rewrite: the operator whose flag decides a rollback
//! forwards `ROLLBACK` in place of the batch's `COMMIT`.
//!
//! The operator is fused into its chain (see [`crate::stream`]): in the
//! Figure 1 chain both `TO_TABLE` operators and the `TO_STREAM` behind them
//! run on the source's thread, and the second `TO_TABLE` commits before the
//! next `BOT` is produced.

use crate::stream::{Data, Stream};
use crate::txn::{Boundaries, TxCoordinator};
use std::sync::Arc;
use tsp_common::{Punctuation, PunctuationKind, Result, StateId, StreamElement, TxnId};
use tsp_core::table::{KeyType, TableHandle, ValueType};
use tsp_core::{FlagOutcome, TransactionManager, Tx};

/// Applies one stream payload to a transactional table within a transaction.
///
/// Implementations decide whether the payload is an insert/update or a
/// delete (e.g. by inspecting a flag in the payload), mirroring the paper's
/// "whether a stream tuple is inserted or updated in a table depends on the
/// presence of a table tuple with the same key".
pub trait TableWriter<T>: Send + 'static {
    /// Applies `payload` to the table within `tx`.
    fn apply(&mut self, tx: &Tx, payload: &T) -> Result<()>;
}

impl<T, F> TableWriter<T> for F
where
    F: FnMut(&Tx, &T) -> Result<()> + Send + 'static,
{
    fn apply(&mut self, tx: &Tx, payload: &T) -> Result<()> {
        self(tx, payload)
    }
}

/// Configuration of a `TO_TABLE` operator.
pub struct ToTable<T> {
    mgr: Arc<TransactionManager>,
    coordinator: Arc<TxCoordinator>,
    state: StateId,
    boundaries: Boundaries,
    writer: Box<dyn TableWriter<T>>,
}

impl<T: Data> ToTable<T> {
    /// Creates a `TO_TABLE` configuration for `state`.
    pub fn new(
        mgr: Arc<TransactionManager>,
        coordinator: Arc<TxCoordinator>,
        state: StateId,
        boundaries: Boundaries,
        writer: impl TableWriter<T>,
    ) -> Self {
        ToTable {
            mgr,
            coordinator,
            state,
            boundaries,
            writer: Box::new(writer),
        }
    }
}

impl<K: KeyType, V: ValueType> ToTable<(K, V)> {
    /// Creates a `TO_TABLE` configuration that upserts `(key, value)` stream
    /// payloads into any transactional table, regardless of its
    /// concurrency-control protocol.
    ///
    /// This is the protocol-generic fast path for the common "stream of
    /// keyed tuples into a table" topology: pass a handle obtained from
    /// [`tsp_core::Protocol::create_table`] and the operator writes through
    /// the [`tsp_core::TransactionalTable`] interface.
    pub fn for_table(
        mgr: Arc<TransactionManager>,
        coordinator: Arc<TxCoordinator>,
        table: TableHandle<K, V>,
        boundaries: Boundaries,
    ) -> Self {
        let state = table.id();
        ToTable::new(
            mgr,
            coordinator,
            state,
            boundaries,
            move |tx: &Tx, (k, v): &(K, V)| table.write(tx, k.clone(), v.clone()),
        )
    }
}

/// A running `TO_TABLE` operator and the transaction it holds open.
///
/// Dropping it with a transaction still open — its chain stopped before
/// the transaction's boundary arrived — aborts that transaction.
struct ToTableOp<T: Data> {
    mgr: Arc<TransactionManager>,
    coordinator: Arc<TxCoordinator>,
    state: StateId,
    writer: Box<dyn TableWriter<T>>,
    open: Option<OpenTx>,
}

struct OpenTx {
    tx: Tx,
    /// The punctuation marker of a coordinator-shared transaction; `None`
    /// for the operator's own `EveryN`/`PerTuple` transactions.
    marker: Option<TxnId>,
    failed: bool,
    writes: usize,
}

impl<T: Data> ToTableOp<T> {
    /// Opens the shared transaction of `marker`, or an own one for `None`.
    fn begin(&mut self, marker: Option<TxnId>) {
        self.end(true);
        let tx = match marker {
            Some(m) => self.coordinator.tx_for(m),
            None => self.mgr.begin(),
        };
        self.open = tx.ok().map(|tx| OpenTx {
            tx,
            marker,
            failed: false,
            writes: 0,
        });
    }

    fn write(&mut self, payload: &T) {
        if let Some(open) = self.open.as_mut() {
            if !open.failed && self.writer.apply(&open.tx, payload).is_err() {
                open.failed = true;
            }
            open.writes += 1;
        }
    }

    /// Ends the open transaction (if any): commits it unless `abort` is set
    /// or a write failed.  A shared transaction is flagged, and the operator
    /// that flags last decides it (§4.3).  Returns `false` if this call
    /// decided a rollback.
    fn end(&mut self, abort: bool) -> bool {
        let Some(open) = self.open.take() else {
            return true;
        };
        let abort = abort || open.failed;
        let Some(marker) = open.marker else {
            if abort {
                let _ = self.mgr.abort(&open.tx);
                return false;
            }
            return self.mgr.commit(&open.tx).is_ok();
        };
        let outcome = if abort {
            self.mgr.flag_abort(&open.tx, self.state)
        } else {
            self.mgr.flag_commit(&open.tx, self.state)
        };
        match outcome {
            Ok(FlagOutcome::Pending) => true,
            // Committed, rolled back, or a concurrency-control error that
            // already rolled the transaction back: the marker is finished.
            decided => {
                self.coordinator.remove(marker);
                matches!(decided, Ok(FlagOutcome::Committed(_)))
            }
        }
    }
}

impl<T: Data> Drop for ToTableOp<T> {
    fn drop(&mut self) {
        self.end(true);
    }
}

impl<T: Data> Stream<T> {
    /// Attaches a `TO_TABLE` operator.  Elements are forwarded unchanged,
    /// except that the operator deciding the rollback of a punctuated
    /// transaction forwards `ROLLBACK` in place of its `COMMIT`, so a
    /// downstream `TO_STREAM` never fires for a batch that did not commit.
    pub fn to_table(self, config: ToTable<T>) -> Stream<T> {
        let ToTable {
            mgr,
            coordinator,
            state,
            boundaries,
            writer,
        } = config;
        // Announce this operator's state to the coordinator so that shared
        // transactions wait for it before electing a commit coordinator.
        if boundaries == Boundaries::Punctuations {
            coordinator.register_participant(state);
        }
        let batch = match boundaries {
            Boundaries::Punctuations => None,
            Boundaries::EveryN(n) => Some(n.max(1)),
            Boundaries::PerTuple => Some(1),
        };
        let mut op = ToTableOp {
            mgr,
            coordinator,
            state,
            writer,
            open: None,
        };
        self.fuse(move |el, out| {
            match (&el, batch) {
                (StreamElement::Data(t), None) => {
                    if op.open.is_none() {
                        // Data outside any announced transaction: open an
                        // implicit one so nothing is lost.
                        let marker = op.coordinator.next_marker();
                        op.begin(Some(marker));
                    }
                    op.write(&t.payload);
                }
                (StreamElement::Data(t), Some(batch)) => {
                    if op.open.is_none() {
                        op.begin(None);
                    }
                    op.write(&t.payload);
                    if op.open.as_ref().is_some_and(|o| o.writes >= batch) {
                        op.end(false);
                    }
                }
                (StreamElement::Punctuation(p), None) if p.kind == PunctuationKind::Bot => {
                    op.begin(Some(p.txn));
                }
                (StreamElement::Punctuation(p), None)
                    if matches!(p.kind, PunctuationKind::Commit | PunctuationKind::Rollback) =>
                {
                    let rollback = p.kind == PunctuationKind::Rollback;
                    if !op.end(rollback) && !rollback {
                        return out(Punctuation::rollback(p.txn, p.timestamp).into());
                    }
                }
                (StreamElement::Punctuation(p), _) if p.kind == PunctuationKind::EndOfStream => {
                    // Commit an implicit transaction that never saw an
                    // explicit boundary, or a partial batch.
                    op.end(false);
                }
                _ => {}
            }
            out(el)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use tsp_core::{MvccTable, StateContext};

    #[allow(clippy::type_complexity)]
    fn setup() -> (
        Arc<StateContext>,
        Arc<TransactionManager>,
        Arc<MvccTable<u32, u64>>,
        Arc<TxCoordinator>,
    ) {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let table = MvccTable::<u32, u64>::volatile(&ctx, "t");
        mgr.register(table.clone());
        mgr.register_group(&[table.id()]).unwrap();
        let coord = TxCoordinator::new(Arc::clone(&ctx));
        (ctx, mgr, table, coord)
    }

    fn writer_for(
        table: &Arc<MvccTable<u32, u64>>,
    ) -> impl FnMut(&Tx, &(u32, u64)) -> Result<()> + Send + 'static {
        let table = Arc::clone(table);
        move |tx, (k, v)| table.write(tx, *k, *v)
    }

    #[test]
    fn punctuated_transactions_commit_batches_atomically() {
        let (_ctx, mgr, table, coord) = setup();
        let topo = Topology::new();
        let data: Vec<(u32, u64)> = (0..10).map(|i| (i, i as u64 * 100)).collect();
        topo.source_vec(data)
            .punctuate_every(5, Arc::clone(&coord))
            .to_table(ToTable::new(
                Arc::clone(&mgr),
                Arc::clone(&coord),
                table.id(),
                Boundaries::Punctuations,
                writer_for(&table),
            ))
            .drain();
        topo.run();
        assert_eq!(coord.live_count(), 0, "all stream transactions finished");
        let r = mgr.begin_read_only().unwrap();
        for i in 0..10u32 {
            assert_eq!(table.read(&r, &i).unwrap(), Some(i as u64 * 100));
        }
        mgr.commit(&r).unwrap();
        // Two committed stream transactions plus the reader.
        assert_eq!(mgr.context().telemetry_snapshot().stats.committed, 3);
    }

    #[test]
    fn rollback_punctuation_discards_the_batch() {
        use tsp_common::Punctuation;
        let (_ctx, mgr, table, coord) = setup();
        let m1 = coord.next_marker();
        let m2 = coord.next_marker();
        let elements = vec![
            StreamElement::Punctuation(Punctuation::bot(m1, 0)),
            StreamElement::data(0, 0, (1u32, 11u64)),
            StreamElement::Punctuation(Punctuation::rollback(m1, 1)),
            StreamElement::Punctuation(Punctuation::bot(m2, 2)),
            StreamElement::data(2, 1, (2u32, 22u64)),
            StreamElement::Punctuation(Punctuation::commit(m2, 3)),
        ];
        let topo = Topology::new();
        topo.source_elements(elements)
            .to_table(ToTable::new(
                Arc::clone(&mgr),
                Arc::clone(&coord),
                table.id(),
                Boundaries::Punctuations,
                writer_for(&table),
            ))
            .drain();
        topo.run();
        let r = mgr.begin_read_only().unwrap();
        assert_eq!(table.read(&r, &1).unwrap(), None, "rolled-back write gone");
        assert_eq!(table.read(&r, &2).unwrap(), Some(22));
        mgr.commit(&r).unwrap();
        assert_eq!(mgr.context().telemetry_snapshot().stats.aborted, 1);
    }

    #[test]
    fn two_to_table_operators_share_one_transaction() {
        let ctx = Arc::new(StateContext::new());
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let a = MvccTable::<u32, u64>::volatile(&ctx, "a");
        let b = MvccTable::<u32, u64>::volatile(&ctx, "b");
        mgr.register(a.clone());
        mgr.register(b.clone());
        mgr.register_group(&[a.id(), b.id()]).unwrap();
        let coord = TxCoordinator::new(Arc::clone(&ctx));

        let topo = Topology::new();
        let data: Vec<(u32, u64)> = (0..6).map(|i| (i, i as u64)).collect();
        let branches = topo
            .source_vec(data)
            .punctuate_every(3, Arc::clone(&coord))
            .broadcast(2);
        let mut branches = branches.into_iter();
        branches
            .next()
            .unwrap()
            .to_table(ToTable::new(
                Arc::clone(&mgr),
                Arc::clone(&coord),
                a.id(),
                Boundaries::Punctuations,
                writer_for(&a),
            ))
            .drain();
        branches
            .next()
            .unwrap()
            .to_table(ToTable::new(
                Arc::clone(&mgr),
                Arc::clone(&coord),
                b.id(),
                Boundaries::Punctuations,
                writer_for(&b),
            ))
            .drain();
        topo.run();

        // Both states contain all six keys, written by the *same* two
        // transactions (2 stream transactions, not 4).
        let r = mgr.begin_read_only().unwrap();
        for i in 0..6u32 {
            assert_eq!(a.read(&r, &i).unwrap(), Some(i as u64));
            assert_eq!(b.read(&r, &i).unwrap(), Some(i as u64));
        }
        mgr.commit(&r).unwrap();
        let stats = ctx.telemetry_snapshot().stats;
        assert_eq!(stats.begun, 2 + 1, "two stream txs + one reader");
        assert_eq!(stats.committed, 2 + 1);
        assert_eq!(coord.live_count(), 0);
    }

    #[test]
    fn every_n_boundaries_auto_commit() {
        let (_ctx, mgr, table, coord) = setup();
        let topo = Topology::new();
        let data: Vec<(u32, u64)> = (0..7).map(|i| (i, 1)).collect();
        topo.source_vec(data)
            .to_table(ToTable::new(
                Arc::clone(&mgr),
                coord,
                table.id(),
                Boundaries::EveryN(3),
                writer_for(&table),
            ))
            .drain();
        topo.run();
        let r = mgr.begin_read_only().unwrap();
        assert_eq!(table.read(&r, &6).unwrap(), Some(1));
        mgr.commit(&r).unwrap();
        // ceil(7/3) = 3 stream transactions + 1 reader.
        assert_eq!(mgr.context().telemetry_snapshot().stats.committed, 4);
    }

    #[test]
    fn per_tuple_boundaries_auto_commit() {
        let (_ctx, mgr, table, coord) = setup();
        let topo = Topology::new();
        let data: Vec<(u32, u64)> = (0..4).map(|i| (i, 9)).collect();
        topo.source_vec(data)
            .to_table(ToTable::new(
                Arc::clone(&mgr),
                coord,
                table.id(),
                Boundaries::PerTuple,
                writer_for(&table),
            ))
            .drain();
        topo.run();
        let r = mgr.begin_read_only().unwrap();
        for i in 0..4u32 {
            assert_eq!(table.read(&r, &i).unwrap(), Some(9));
        }
        mgr.commit(&r).unwrap();
        assert_eq!(mgr.context().telemetry_snapshot().stats.committed, 5);
    }

    #[test]
    fn data_without_bot_gets_an_implicit_transaction() {
        let (_ctx, mgr, table, coord) = setup();
        let topo = Topology::new();
        // Raw data stream, no punctuations at all.
        let data: Vec<(u32, u64)> = vec![(1, 10), (2, 20)];
        topo.source_vec(data)
            .to_table(ToTable::new(
                Arc::clone(&mgr),
                Arc::clone(&coord),
                table.id(),
                Boundaries::Punctuations,
                writer_for(&table),
            ))
            .drain();
        topo.run();
        let r = mgr.begin_read_only().unwrap();
        assert_eq!(table.read(&r, &1).unwrap(), Some(10));
        assert_eq!(table.read(&r, &2).unwrap(), Some(20));
        mgr.commit(&r).unwrap();
        assert_eq!(coord.live_count(), 0);
    }

    #[test]
    fn a_chain_stopped_mid_transaction_aborts_it() {
        for boundaries in [Boundaries::Punctuations, Boundaries::EveryN(10)] {
            let (ctx, mgr, table, coord) = setup();
            let topo = Topology::new();
            let mut source = topo.source_vec((0..20u32).map(|k| (k, 1u64)).collect());
            if boundaries == Boundaries::Punctuations {
                source = source.punctuate_every(10, Arc::clone(&coord));
            }
            let outputs = source
                .to_table(ToTable::new(
                    Arc::clone(&mgr),
                    Arc::clone(&coord),
                    table.id(),
                    boundaries,
                    writer_for(&table),
                ))
                .broadcast(1);
            // Nothing consumes the broadcast, so the chain stops at the first
            // element it forwards, with its transaction open.
            drop(outputs);
            topo.run();
            assert_eq!(ctx.active_count(), 0, "{boundaries:?}");
            assert_eq!(coord.live_count(), 0, "{boundaries:?}");
            assert_eq!(ctx.telemetry_snapshot().stats.committed, 0);
        }
    }
}
