//! Data-centric transaction boundaries for streams.
//!
//! §3 of the paper distinguishes the *data-centric* approach — transaction
//! boundaries marked by dedicated stream elements (punctuations) — from the
//! traditional *query-centric* approach.  This module provides both:
//!
//! * [`Stream::punctuate_every`] inserts `BOT`/`COMMIT` punctuations around
//!   every `n` data tuples (a sub-stream per transaction), turning any stream
//!   into a sequence of transactions;
//! * [`Boundaries`] configures how a `TO_TABLE` operator derives transaction
//!   boundaries (punctuations, fixed batches, or auto-commit per tuple);
//! * [`TxCoordinator`] maps the *marker* transaction ids carried by
//!   punctuations to live [`Tx`] handles, so that several `TO_TABLE`
//!   operators of the same query share one transaction — the prerequisite
//!   for the multi-state consistency protocol of §4.3.

use crate::stream::{Data, Stream};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tsp_common::{Punctuation, PunctuationKind, Result, StateId, StreamElement, TxnId};
use tsp_core::{StateContext, Tx};

/// How a `TO_TABLE` operator delimits transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Boundaries {
    /// Follow `BOT` / `COMMIT` / `ROLLBACK` punctuations embedded in the
    /// stream (the data-centric approach; required for multi-state
    /// atomicity).
    Punctuations,
    /// Start a new transaction every `n` data tuples and commit it
    /// automatically (query-centric batching, single-state only).
    EveryN(usize),
    /// Every data tuple is its own transaction ("auto-commit").
    PerTuple,
}

/// Maps punctuation transaction markers to live [`Tx`] handles shared by all
/// operators of one stream query.
pub struct TxCoordinator {
    ctx: Arc<StateContext>,
    live: Mutex<HashMap<TxnId, Tx>>,
    /// Signalled whenever a live transaction finishes, so operators waiting
    /// to start the *next* stream transaction can proceed.
    finished: Condvar,
    /// States that must be written together atomically by this query.  They
    /// are registered as accessed the moment a transaction is materialised,
    /// so the consistency protocol's coordinator election (§4.3) waits for
    /// *every* participating operator even if some of them have not processed
    /// any data yet (the paper's "we track the states that must be written
    /// together atomically").
    participants: Mutex<Vec<StateId>>,
    /// Generator for marker ids handed out by [`next_marker`](Self::next_marker).
    next_marker: AtomicU64,
}

impl TxCoordinator {
    /// Creates a coordinator over the given state context.
    pub fn new(ctx: Arc<StateContext>) -> Arc<Self> {
        Arc::new(TxCoordinator {
            ctx,
            live: Mutex::new(HashMap::new()),
            finished: Condvar::new(),
            participants: Mutex::new(Vec::new()),
            next_marker: AtomicU64::new(1),
        })
    }

    /// Registers a state as a mandatory participant of every transaction this
    /// coordinator materialises.  Called by `TO_TABLE` when it is attached to
    /// the query.
    pub fn register_participant(&self, state: StateId) {
        let mut participants = self.participants.lock();
        if !participants.contains(&state) {
            participants.push(state);
        }
    }

    /// The registered participant states.
    pub fn participants(&self) -> Vec<StateId> {
        self.participants.lock().clone()
    }

    /// Draws a fresh marker id for use in stream punctuations.  Markers are
    /// purely logical labels; the real transaction id is assigned when the
    /// first operator materialises the transaction.
    pub fn next_marker(&self) -> TxnId {
        TxnId(self.next_marker.fetch_add(1, Ordering::Relaxed))
    }

    /// Returns the live transaction for `marker`, beginning one on first use
    /// (the paper's "beginning punctuation … assigns a timestamp and
    /// registers it in the context").
    ///
    /// Transactions delimited by punctuations on one stream are logically
    /// *sequential*: a new one only begins once the previous ones have
    /// finished, otherwise pipelined operators would start transaction *n+1*
    /// while transaction *n* is still committing and First-Committer-Wins
    /// would abort perfectly valid stream batches.  Within one fused chain
    /// the wait never blocks: the deciding `TO_TABLE` commits on the same
    /// thread before the next `BOT` arrives.  It orders `TO_TABLE`
    /// operators on forked branches (after a `broadcast` or a partition
    /// router).  The wait is bounded (5 s) as a safety net against
    /// misconfigured topologies.
    pub fn tx_for(&self, marker: TxnId) -> Result<Tx> {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut live = self.live.lock();
        loop {
            if let Some(tx) = live.get(&marker) {
                return Ok(tx.clone());
            }
            if live.is_empty() || std::time::Instant::now() >= deadline {
                let tx = self.ctx.begin(false)?;
                for state in self.participants.lock().iter() {
                    self.ctx.record_access(&tx, *state)?;
                }
                live.insert(marker, tx.clone());
                return Ok(tx);
            }
            self.finished
                .wait_for(&mut live, std::time::Duration::from_millis(5));
        }
    }

    /// Looks up the live transaction for `marker` without creating one.
    pub fn get(&self, marker: TxnId) -> Option<Tx> {
        self.live.lock().get(&marker).cloned()
    }

    /// Forgets the mapping for `marker` (after the transaction finished) and
    /// wakes operators waiting to start the next stream transaction.
    pub fn remove(&self, marker: TxnId) {
        self.live.lock().remove(&marker);
        self.finished.notify_all();
    }

    /// Number of transactions currently tracked.
    pub fn live_count(&self) -> usize {
        self.live.lock().len()
    }

    /// The underlying state context.
    pub fn context(&self) -> &Arc<StateContext> {
        &self.ctx
    }
}

impl<T: Data> Stream<T> {
    /// Wraps every `n` consecutive data tuples in `BOT … COMMIT`
    /// punctuations, assigning marker transaction ids from `coordinator`.
    /// The final (possibly partial) batch is committed before `EndOfStream`.
    pub fn punctuate_every(self, n: usize, coordinator: Arc<TxCoordinator>) -> Stream<T> {
        assert!(n >= 1, "transaction batch size must be at least 1");
        let mut open: Option<TxnId> = None;
        let mut count = 0usize;
        self.fuse(move |el, out| match el {
            StreamElement::Data(t) => {
                let ts = t.timestamp;
                let marker = match open {
                    Some(marker) => marker,
                    None => {
                        let marker = coordinator.next_marker();
                        if !out(StreamElement::Punctuation(Punctuation::bot(marker, ts))) {
                            return false;
                        }
                        open = Some(marker);
                        count = 0;
                        marker
                    }
                };
                if !out(StreamElement::Data(t)) {
                    return false;
                }
                count += 1;
                if count < n {
                    return true;
                }
                open = None;
                out(StreamElement::Punctuation(Punctuation::commit(marker, ts)))
            }
            StreamElement::Punctuation(p) => {
                if p.kind == PunctuationKind::EndOfStream {
                    if let Some(marker) = open.take() {
                        let commit = Punctuation::commit(marker, p.timestamp);
                        if !out(StreamElement::Punctuation(commit)) {
                            return false;
                        }
                    }
                }
                out(StreamElement::Punctuation(p))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn coordinator_shares_one_tx_per_marker() {
        let ctx = Arc::new(StateContext::new());
        let coord = TxCoordinator::new(Arc::clone(&ctx));
        let m1 = coord.next_marker();
        let m2 = coord.next_marker();
        assert_ne!(m1, m2);
        let tx_a = coord.tx_for(m1).unwrap();
        let tx_b = coord.tx_for(m1).unwrap();
        assert_eq!(tx_a.id(), tx_b.id(), "same marker → same transaction");
        assert_eq!(coord.live_count(), 1);
        assert!(coord.get(m1).is_some());
        coord.remove(m1);
        ctx.finish(&tx_a);
        assert!(coord.get(m1).is_none());
        // The next stream transaction gets a fresh handle.
        let tx_c = coord.tx_for(m2).unwrap();
        assert_ne!(tx_a.id(), tx_c.id());
        assert_eq!(coord.live_count(), 1);
        coord.remove(m2);
        ctx.finish(&tx_c);
        assert_eq!(coord.context().active_count(), 0);
    }

    #[test]
    fn stream_transactions_are_serialised() {
        use std::time::Duration;
        let ctx = Arc::new(StateContext::new());
        let coord = TxCoordinator::new(Arc::clone(&ctx));
        coord.register_participant(StateId(0));
        let m1 = coord.next_marker();
        let m2 = coord.next_marker();
        let tx1 = coord.tx_for(m1).unwrap();
        // Another operator asks for the *next* transaction while the first is
        // still live: it must wait until the first one is finished.
        let waiter = {
            let coord = Arc::clone(&coord);
            std::thread::spawn(move || coord.tx_for(m2).unwrap())
        };
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            coord.live_count(),
            1,
            "second transaction must not have begun yet"
        );
        coord.remove(m1);
        ctx.finish(&tx1);
        let tx2 = waiter.join().unwrap();
        assert!(tx2.begin_ts() > tx1.begin_ts());
        coord.remove(m2);
        ctx.finish(&tx2);
    }

    #[test]
    fn punctuate_every_wraps_batches() {
        let ctx = Arc::new(StateContext::new());
        let coord = TxCoordinator::new(ctx);
        let topo = Topology::new();
        let sink = topo
            .source_vec((1..=5u32).collect())
            .punctuate_every(2, coord)
            .collect_elements();
        topo.run();
        let out = sink.take();
        let kinds: Vec<String> = out
            .iter()
            .map(|el| match el {
                StreamElement::Data(t) => format!("d{}", t.payload),
                StreamElement::Punctuation(p) => format!("{}", p.kind),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "BOT", "d1", "d2", "COMMIT", "BOT", "d3", "d4", "COMMIT", "BOT", "d5", "COMMIT",
                "EOS"
            ]
        );
        // Matching BOT/COMMIT pairs carry the same marker.
        let bot = out[0].as_punctuation().unwrap();
        let commit = out[3].as_punctuation().unwrap();
        assert_eq!(bot.txn, commit.txn);
        let bot2 = out[4].as_punctuation().unwrap();
        assert_ne!(bot.txn, bot2.txn);
    }

    #[test]
    fn punctuate_every_one_is_per_tuple() {
        let ctx = Arc::new(StateContext::new());
        let coord = TxCoordinator::new(ctx);
        let topo = Topology::new();
        let sink = topo
            .source_vec(vec![7u32, 8])
            .punctuate_every(1, coord)
            .collect_elements();
        topo.run();
        let out = sink.take();
        // BOT d COMMIT BOT d COMMIT EOS
        assert_eq!(out.len(), 7);
    }
}
