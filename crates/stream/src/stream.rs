//! The [`Stream`] handle and the stateless operators built on it.
//!
//! A `Stream<T>` is one edge of the dataflow graph.  Linear operators
//! (`map`, `filter`, windows, `TO_TABLE`, `TO_STREAM`, …) do not start a
//! thread: each composes a push-style step onto the upstream producer, so a
//! whole chain from a source to its sink runs as direct calls on one thread.
//! That thread starts when the chain reaches a sink or a boundary operator
//! (`broadcast`, `merge`, the partition routers, `hash_join`); the edges a
//! boundary operator leaves are bounded channels, each the start of a new
//! chain.  Building a pipeline is still just method chaining:
//!
//! ```
//! use tsp_stream::prelude::*;
//!
//! let topo = Topology::new();
//! let sink = topo
//!     .source_vec(vec![1u64, 2, 3, 4, 5])
//!     .map(|x| x * 10)
//!     .filter(|x| *x >= 30)
//!     .collect();
//! assert_eq!(topo.operator_count(), 1, "one fused chain, one thread");
//! topo.run();
//! assert_eq!(sink.take(), vec![30, 40, 50]);
//! ```
//!
//! Punctuations flow through every operator unchanged (stateless operators
//! forward them, windows may react to them), which is what lets the
//! data-centric transaction boundaries of §3 reach the `TO_TABLE` operators
//! at the end of the pipeline.

use crate::topology::{Topology, TopologyCore};
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;
use std::sync::Arc;
use tsp_common::{Punctuation, PunctuationKind, StreamElement, Timestamp, Tuple};

/// The downstream half of a fused chain: takes one element, returns `false`
/// once nothing downstream wants more (the chain then stops).
pub(crate) type Emit<'a, T> = &'a mut dyn FnMut(StreamElement<T>) -> bool;

/// A not-yet-started chain: pushes every element it produces into the given
/// [`Emit`] on the calling thread.
type Producer<T> = Box<dyn FnOnce(Emit<'_, T>) + Send>;

enum Edge<T> {
    /// The output of a boundary operator.
    Channel(Receiver<StreamElement<T>>),
    /// A source plus the linear operators composed onto it so far.
    Fused(Producer<T>),
}

/// A typed edge of the dataflow graph.
#[must_use = "a stream does nothing until it reaches a sink"]
pub struct Stream<T> {
    edge: Edge<T>,
    pub(crate) core: Arc<TopologyCore>,
}

/// Payload type bound for stream elements.
pub trait Data: Send + 'static {}
impl<T: Send + 'static> Data for T {}

impl Topology {
    /// A source whose `body` runs once the topology is started, on the
    /// thread of the chain it heads.
    pub(crate) fn source<T: Data>(
        &self,
        body: impl FnOnce(Emit<'_, T>) + Send + 'static,
    ) -> Stream<T> {
        let core = Arc::clone(self.core());
        Stream::fused(Arc::clone(&core), move |out| {
            core.wait_for_start();
            body(out)
        })
    }

    /// A finite source emitting the given payloads (sequence numbers and
    /// timestamps are assigned in order), followed by `EndOfStream`.
    pub fn source_vec<T: Data>(&self, items: Vec<T>) -> Stream<T> {
        self.source_with_timestamps(items.into_iter().enumerate().map(|(i, x)| (i as u64, x)))
    }

    /// A finite source with explicit event-time timestamps.
    pub fn source_with_timestamps<T: Data>(
        &self,
        items: impl IntoIterator<Item = (Timestamp, T)> + Send + 'static,
    ) -> Stream<T> {
        self.source(move |out| {
            let mut last_ts = 0;
            for (seq, (ts, payload)) in items.into_iter().enumerate() {
                last_ts = ts;
                if !out(StreamElement::Data(Tuple::new(ts, seq as u64, payload))) {
                    return;
                }
            }
            out(Punctuation::end_of_stream(last_ts).into());
        })
    }

    /// A source emitting pre-built stream elements verbatim (used to inject
    /// explicit transaction punctuations); an `EndOfStream` is appended if the
    /// caller did not provide one.
    pub fn source_elements<T: Data>(&self, elements: Vec<StreamElement<T>>) -> Stream<T> {
        self.source(move |out| {
            let mut saw_eos = false;
            let mut last_ts = 0;
            for el in elements {
                last_ts = el.timestamp();
                if let StreamElement::Punctuation(p) = &el {
                    saw_eos |= p.kind == PunctuationKind::EndOfStream;
                }
                if !out(el) {
                    return;
                }
            }
            if !saw_eos {
                out(Punctuation::end_of_stream(last_ts).into());
            }
        })
    }

    /// A generator source: calls `next(i)` for `i in 0..count`, emitting the
    /// produced payloads with `i` as both sequence number and timestamp.
    pub fn source_generate<T: Data>(
        &self,
        count: u64,
        mut next: impl FnMut(u64) -> T + Send + 'static,
    ) -> Stream<T> {
        self.source(move |out| {
            for i in 0..count {
                if !out(StreamElement::Data(Tuple::new(i, i, next(i)))) {
                    return;
                }
            }
            out(Punctuation::end_of_stream(count).into());
        })
    }
}

impl<T: Data> Stream<T> {
    /// A stream whose elements `producer` pushes once its chain runs.
    pub(crate) fn fused(
        core: Arc<TopologyCore>,
        producer: impl FnOnce(Emit<'_, T>) + Send + 'static,
    ) -> Self {
        Stream {
            edge: Edge::Fused(Box::new(producer)),
            core,
        }
    }

    /// A new boundary channel on this stream's topology: the sender for the
    /// boundary operator and the stream that starts at its other end.
    pub(crate) fn channel<U: Data>(&self) -> (Sender<StreamElement<U>>, Stream<U>) {
        let (tx, rx) = crossbeam::channel::bounded(self.core.channel_capacity());
        let stream = Stream {
            edge: Edge::Channel(rx),
            core: Arc::clone(&self.core),
        };
        (tx, stream)
    }

    /// Runs the chain on the calling thread, pushing every element into
    /// `out` until the stream ends or `out` returns `false`.
    fn run(self, out: Emit<'_, T>) {
        match self.edge {
            Edge::Channel(rx) => {
                for el in rx.iter() {
                    if !out(el) {
                        return;
                    }
                }
            }
            Edge::Fused(producer) => producer(out),
        }
    }

    /// Composes a linear operator onto the chain.  `step(el, out)` handles
    /// one input element, pushing its outputs into `out`, and returns
    /// `false` to stop the chain.
    pub(crate) fn fuse<U: Data>(
        self,
        mut step: impl FnMut(StreamElement<T>, Emit<'_, U>) -> bool + Send + 'static,
    ) -> Stream<U> {
        let core = Arc::clone(&self.core);
        Stream::fused(core, move |out| self.run(&mut |el| step(el, out)))
    }

    /// Runs the chain on a new operator thread of the topology, handing
    /// every element to `sink` (a terminal, or a boundary operator feeding
    /// its channels) until `sink` returns `false`.
    pub(crate) fn spawn(self, mut sink: impl FnMut(StreamElement<T>) -> bool + Send + 'static) {
        let core = Arc::clone(&self.core);
        core.register(std::thread::spawn(move || self.run(&mut sink)));
    }

    /// The stream as a channel receiver, for boundary operators that
    /// select over several inputs: a fused chain gets its own thread.
    pub(crate) fn into_receiver(self) -> Receiver<StreamElement<T>> {
        match self.edge {
            Edge::Channel(rx) => rx,
            edge => {
                let (tx, out) = crossbeam::channel::bounded(self.core.channel_capacity());
                Stream {
                    edge,
                    core: self.core,
                }
                .spawn(move |el| tx.send(el).is_ok());
                out
            }
        }
    }

    /// Applies `f` to every data tuple; punctuations pass through.
    pub fn map<U: Data>(self, mut f: impl FnMut(T) -> U + Send + 'static) -> Stream<U> {
        self.fuse(move |el, out| out(el.map_data(&mut f)))
    }

    /// Keeps only data tuples for which `pred` returns true; punctuations
    /// pass through.
    pub fn filter(self, mut pred: impl FnMut(&T) -> bool + Send + 'static) -> Stream<T> {
        self.fuse(move |el, out| match &el {
            StreamElement::Data(t) if !pred(&t.payload) => true,
            _ => out(el),
        })
    }

    /// Applies `f` to every data tuple, emitting zero or more outputs per
    /// input; punctuations pass through.
    pub fn flat_map<U: Data>(self, mut f: impl FnMut(T) -> Vec<U> + Send + 'static) -> Stream<U> {
        self.fuse(move |el, out| match el {
            StreamElement::Data(t) => f(t.payload).into_iter().enumerate().all(|(i, o)| {
                out(StreamElement::Data(Tuple::new(
                    t.timestamp,
                    t.seq + i as u64,
                    o,
                )))
            }),
            StreamElement::Punctuation(p) => out(StreamElement::Punctuation(p)),
        })
    }

    /// Calls `f` for every data tuple as a side effect, forwarding all
    /// elements unchanged (useful for instrumentation).
    pub fn inspect(self, mut f: impl FnMut(&T) + Send + 'static) -> Stream<T> {
        self.fuse(move |el, out| {
            if let StreamElement::Data(t) = &el {
                f(&t.payload);
            }
            out(el)
        })
    }

    /// Duplicates the stream into `n` identical output streams.  A boundary
    /// operator: the upstream chain runs on its own thread and each output
    /// is a channel heading a chain of its own.
    pub fn broadcast(self, n: usize) -> Vec<Stream<T>>
    where
        T: Clone,
    {
        assert!(n >= 1, "broadcast requires at least one output");
        let (senders, streams): (Vec<_>, Vec<_>) = (0..n).map(|_| self.channel()).unzip();
        self.spawn(move |el| senders.iter().all(|tx| tx.send(el.clone()).is_ok()));
        streams
    }

    /// Merges this stream with `other` (arbitrary interleaving).  A single
    /// `EndOfStream` is emitted once both inputs have ended; the individual
    /// inputs' `EndOfStream` punctuations are swallowed.  A boundary
    /// operator: each input runs on its own thread.
    pub fn merge(self, other: Stream<T>) -> Stream<T> {
        let (tx, out) = self.channel();
        let remaining = Arc::new(std::sync::atomic::AtomicUsize::new(2));
        for input in [self, other] {
            let tx = tx.clone();
            let remaining = Arc::clone(&remaining);
            input.spawn(move |el| match el {
                StreamElement::Punctuation(p) if p.kind == PunctuationKind::EndOfStream => {
                    if remaining.fetch_sub(1, std::sync::atomic::Ordering::AcqRel) == 1 {
                        let _ = tx.send(p.into());
                    }
                    false
                }
                el => tx.send(el).is_ok(),
            });
        }
        out
    }

    /// Terminal operator collecting every data payload (punctuations are
    /// dropped).  The result is available after the topology has been joined.
    pub fn collect(self) -> Collected<T> {
        let out = Collected::new();
        let items = Arc::clone(&out.items);
        self.spawn(move |el| {
            if let StreamElement::Data(t) = el {
                items.lock().push(t.payload);
            }
            true
        });
        out
    }

    /// Terminal operator collecting every element including punctuations.
    pub fn collect_elements(self) -> Collected<StreamElement<T>> {
        let out = Collected::new();
        let items = Arc::clone(&out.items);
        self.spawn(move |el| {
            items.lock().push(el);
            true
        });
        out
    }

    /// Terminal operator invoking `f` for every data payload.
    pub fn for_each(self, mut f: impl FnMut(T) + Send + 'static) {
        self.spawn(move |el| {
            if let StreamElement::Data(t) = el {
                f(t.payload);
            }
            true
        });
    }

    /// Terminal operator that simply discards everything (keeps upstream
    /// operators draining).
    pub fn drain(self) {
        self.spawn(|_| true);
    }
}

/// Handle to the results of a [`Stream::collect`] sink.
pub struct Collected<T> {
    items: Arc<Mutex<Vec<T>>>,
}

impl<T> Clone for Collected<T> {
    fn clone(&self) -> Self {
        Collected {
            items: Arc::clone(&self.items),
        }
    }
}

impl<T> Collected<T> {
    fn new() -> Self {
        Collected {
            items: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Takes the collected items (call after `Topology::join`).
    pub fn take(&self) -> Vec<T> {
        std::mem::take(&mut *self.items.lock())
    }

    /// Number of items collected so far.
    pub fn len(&self) -> usize {
        self.items.lock().len()
    }

    /// True if nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_common::TxnId;

    #[test]
    fn map_filter_collect_pipeline() {
        let topo = Topology::new();
        let sink = topo
            .source_vec((1..=10u32).collect())
            .map(|x| x * 2)
            .filter(|x| x % 4 == 0)
            .collect();
        topo.run();
        assert_eq!(sink.take(), vec![4, 8, 12, 16, 20]);
    }

    #[test]
    fn flat_map_and_inspect() {
        let topo = Topology::new();
        let seen = Arc::new(Mutex::new(0u32));
        let seen2 = Arc::clone(&seen);
        let sink = topo
            .source_vec(vec![1u32, 2, 3])
            .inspect(move |_| *seen2.lock() += 1)
            .flat_map(|x| vec![x; x as usize])
            .collect();
        topo.run();
        assert_eq!(sink.take(), vec![1, 2, 2, 3, 3, 3]);
        assert_eq!(*seen.lock(), 3);
    }

    #[test]
    fn punctuations_pass_through_stateless_operators() {
        let topo = Topology::new();
        let elements = vec![
            StreamElement::Punctuation(Punctuation::bot(TxnId(1), 0)),
            StreamElement::data(0, 0, 5u32),
            StreamElement::Punctuation(Punctuation::commit(TxnId(1), 1)),
        ];
        let sink = topo
            .source_elements(elements)
            .map(|x| x + 1)
            .filter(|_| true)
            .collect_elements();
        topo.run();
        let out = sink.take();
        // BOT, data, COMMIT, EOS
        assert_eq!(out.len(), 4);
        assert!(matches!(
            out[0],
            StreamElement::Punctuation(Punctuation {
                kind: PunctuationKind::Bot,
                ..
            })
        ));
        assert_eq!(out[1].as_data().unwrap().payload, 6);
        assert!(matches!(
            out[3],
            StreamElement::Punctuation(Punctuation {
                kind: PunctuationKind::EndOfStream,
                ..
            })
        ));
    }

    #[test]
    fn broadcast_duplicates_every_element() {
        let topo = Topology::new();
        let branches = topo.source_vec(vec![1u8, 2, 3]).broadcast(3);
        let sinks: Vec<_> = branches.into_iter().map(|b| b.collect()).collect();
        topo.run();
        for s in sinks {
            assert_eq!(s.take(), vec![1, 2, 3]);
        }
    }

    #[test]
    fn merge_combines_two_sources() {
        let topo = Topology::new();
        let a = topo.source_vec(vec![1u32, 2, 3]);
        let b = topo.source_vec(vec![10u32, 20]);
        let sink = a.merge(b).collect();
        topo.run();
        let mut out = sink.take();
        out.sort();
        assert_eq!(out, vec![1, 2, 3, 10, 20]);
    }

    #[test]
    fn generator_source_and_for_each() {
        let topo = Topology::new();
        let sum = Arc::new(Mutex::new(0u64));
        let sum2 = Arc::clone(&sum);
        topo.source_generate(100, |i| i)
            .for_each(move |x| *sum2.lock() += x);
        topo.run();
        assert_eq!(*sum.lock(), 4950);
    }

    #[test]
    fn source_with_timestamps_preserves_event_time() {
        let topo = Topology::new();
        let sink = topo
            .source_with_timestamps(vec![(100u64, "a"), (200, "b")])
            .collect_elements();
        topo.run();
        let out = sink.take();
        assert_eq!(out[0].timestamp(), 100);
        assert_eq!(out[1].timestamp(), 200);
        // EOS carries the last timestamp.
        assert_eq!(out[2].timestamp(), 200);
    }

    #[test]
    fn drain_completes() {
        let topo = Topology::new();
        topo.source_vec((0..1000u32).collect()).map(|x| x).drain();
        topo.run();
    }

    #[test]
    fn boundary_operators_start_threads_only_at_their_edges() {
        // A linear chain, however long, is one thread.
        let topo = Topology::new();
        let _ = topo
            .source_vec(vec![1u32])
            .map(|x| x)
            .filter(|_| true)
            .inspect(|_| ())
            .collect();
        assert_eq!(topo.operator_count(), 1);
        topo.run();

        // broadcast: the upstream chain plus one per output.
        let topo = Topology::new();
        for b in topo.source_vec(vec![1u32]).map(|x| x).broadcast(3) {
            b.drain();
        }
        assert_eq!(topo.operator_count(), 1 + 3);
        topo.run();

        // merge: each input on its own thread, plus the chain behind it.
        let topo = Topology::new();
        let a = topo.source_vec(vec![1u32]).map(|x| x);
        a.merge(topo.source_vec(vec![2u32])).drain();
        assert_eq!(topo.operator_count(), 2 + 1);
        topo.run();

        // partition_by: the upstream chain plus one per partition.
        let topo = Topology::new();
        for p in topo.source_vec(vec![1u32]).partition_by(2, |x| *x) {
            p.drain();
        }
        assert_eq!(topo.operator_count(), 1 + 2);
        topo.run();

        // hash_join: each input on its own thread; the join heads the
        // chain behind it.
        let topo = Topology::new();
        let l = topo.source_vec(vec![1u32]);
        l.hash_join(topo.source_vec(vec![1u32]), 4, |x| *x, |y| *y, |x, y| x + y)
            .map(|x| x)
            .drain();
        assert_eq!(topo.operator_count(), 2 + 1);
        topo.run();
    }

    #[test]
    fn collected_len_and_empty() {
        let c: Collected<u32> = Collected::new();
        assert!(c.is_empty());
        c.items.lock().push(1);
        assert_eq!(c.len(), 1);
        let c2 = c.clone();
        assert_eq!(c2.take(), vec![1]);
        assert!(c.is_empty());
    }
}
