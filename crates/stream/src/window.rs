//! Window and aggregation operators.
//!
//! Stateful operators such as windows and aggregates are first-class citizens
//! of the paper's model (§3, "Unified tables for queryable states"); their
//! contents can optionally be published as a transactional table via
//! `TO_TABLE`.  This module provides the classic building blocks:
//!
//! * tumbling and sliding count windows,
//! * tumbling event-time windows,
//! * per-window aggregation and grouped (keyed) aggregation.
//!
//! Windows close either when their size condition is met or when a
//! `WindowClose` / `EndOfStream` punctuation arrives, so partially filled
//! windows are never silently dropped.

use crate::stream::{Data, Emit, Stream};
use std::collections::{BTreeMap, VecDeque};
use std::hash::Hash;
use tsp_common::{Punctuation, PunctuationKind, StreamElement, Timestamp, Tuple};

/// The contents of one closed window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Window<T> {
    /// Event-time timestamp of the first element in the window.
    pub start: Timestamp,
    /// Event-time timestamp of the last element in the window.
    pub end: Timestamp,
    /// The collected payloads, in arrival order.
    pub items: Vec<T>,
}

impl<T> Window<T> {
    /// Number of elements in the window.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the window holds no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Emits a closed window as one data tuple stamped with its end.
fn emit<T: Data>(out: Emit<'_, Window<T>>, seq: &mut u64, w: Window<T>) -> bool {
    *seq += 1;
    out(StreamElement::Data(Tuple::new(w.end, *seq - 1, w)))
}

/// Emits the open window, if any.
fn flush<T: Data>(
    current: &mut Option<Window<T>>,
    out: Emit<'_, Window<T>>,
    seq: &mut u64,
) -> bool {
    current.take().is_none_or(|w| emit(out, seq, w))
}

/// True for the punctuations that close an open window.
fn closes(p: &Punctuation) -> bool {
    matches!(
        p.kind,
        PunctuationKind::WindowClose | PunctuationKind::EndOfStream
    )
}

impl<T: Data> Stream<T> {
    /// Groups every `size` consecutive data tuples into one [`Window`].
    /// A trailing partial window is emitted when the stream ends.
    pub fn tumbling_count_window(self, size: usize) -> Stream<Window<T>> {
        assert!(size >= 1, "window size must be at least 1");
        let mut buf: Vec<T> = Vec::with_capacity(size);
        let (mut start, mut end, mut seq) = (0, 0, 0u64);
        self.fuse(move |el, out| match el {
            StreamElement::Data(t) => {
                if buf.is_empty() {
                    start = t.timestamp;
                }
                end = t.timestamp;
                buf.push(t.payload);
                if buf.len() < size {
                    return true;
                }
                let items = std::mem::take(&mut buf);
                emit(out, &mut seq, Window { start, end, items })
            }
            StreamElement::Punctuation(p) => {
                if closes(&p) && !buf.is_empty() {
                    let items = std::mem::take(&mut buf);
                    if !emit(out, &mut seq, Window { start, end, items }) {
                        return false;
                    }
                }
                out(StreamElement::Punctuation(p))
            }
        })
    }

    /// Sliding count window: emits a window of the last `size` elements every
    /// `slide` arrivals (once at least `size` elements have been seen).
    pub fn sliding_count_window(self, size: usize, slide: usize) -> Stream<Window<T>>
    where
        T: Clone,
    {
        assert!(size >= 1 && slide >= 1, "size and slide must be at least 1");
        let mut buf: VecDeque<(Timestamp, T)> = VecDeque::with_capacity(size + 1);
        let mut since_emit = 0usize;
        let mut seq = 0u64;
        self.fuse(move |el, out| match el {
            StreamElement::Data(t) => {
                buf.push_back((t.timestamp, t.payload));
                if buf.len() > size {
                    buf.pop_front();
                }
                since_emit += 1;
                if buf.len() < size || since_emit < slide {
                    return true;
                }
                since_emit = 0;
                let w = Window {
                    start: buf[0].0,
                    end: buf[buf.len() - 1].0,
                    items: buf.iter().map(|(_, v)| v.clone()).collect(),
                };
                emit(out, &mut seq, w)
            }
            StreamElement::Punctuation(p) => out(StreamElement::Punctuation(p)),
        })
    }

    /// Tumbling event-time window of fixed `width`: element with timestamp
    /// `ts` belongs to the window `[⌊ts/width⌋·width, ⌊ts/width⌋·width+width)`.
    /// A window is emitted when an element of a later window (or the end of
    /// the stream) arrives; input must be timestamp-ordered.
    pub fn tumbling_time_window(self, width: Timestamp) -> Stream<Window<T>> {
        assert!(width >= 1, "window width must be at least 1");
        let mut current: Option<Window<T>> = None;
        let mut seq = 0u64;
        self.fuse(move |el, out| match el {
            StreamElement::Data(t) => {
                let start = (t.timestamp / width) * width;
                if current.as_ref().is_some_and(|w| w.start != start)
                    && !flush(&mut current, out, &mut seq)
                {
                    return false;
                }
                current
                    .get_or_insert_with(|| Window {
                        start,
                        end: start + width - 1,
                        items: Vec::new(),
                    })
                    .items
                    .push(t.payload);
                true
            }
            StreamElement::Punctuation(p) => {
                if closes(&p) && !flush(&mut current, out, &mut seq) {
                    return false;
                }
                out(StreamElement::Punctuation(p))
            }
        })
    }

    /// Session window: consecutive elements whose event-time gap to the
    /// previous element is at most `gap` belong to the same session; a larger
    /// gap (or a `WindowClose` / `EndOfStream` punctuation) closes the
    /// session.  Input must be timestamp-ordered.
    ///
    /// Sessions are the natural windowing for the smart-meter scenario of
    /// Fig. 1: a burst of readings from one household forms one session, and
    /// the 30-minute local state corresponds to `gap = 30 min` in event time.
    pub fn session_window(self, gap: Timestamp) -> Stream<Window<T>> {
        let mut current: Option<Window<T>> = None;
        let mut seq = 0u64;
        self.fuse(move |el, out| match el {
            StreamElement::Data(t) => {
                if current
                    .as_ref()
                    .is_some_and(|w| t.timestamp.saturating_sub(w.end) > gap)
                    && !flush(&mut current, out, &mut seq)
                {
                    return false;
                }
                let w = current.get_or_insert_with(|| Window {
                    start: t.timestamp,
                    end: t.timestamp,
                    items: Vec::new(),
                });
                w.end = t.timestamp;
                w.items.push(t.payload);
                true
            }
            StreamElement::Punctuation(p) => {
                if closes(&p) && !flush(&mut current, out, &mut seq) {
                    return false;
                }
                out(StreamElement::Punctuation(p))
            }
        })
    }
}

impl<T: Data> Stream<Window<T>> {
    /// Applies `f` to each closed window, emitting one result per window.
    pub fn aggregate<U: Data>(
        self,
        mut f: impl FnMut(&Window<T>) -> U + Send + 'static,
    ) -> Stream<U> {
        self.map(move |w| f(&w))
    }

    /// Groups the elements of each window by `key_of` and folds every group
    /// with `fold`, emitting one `(key, aggregate)` pair per group per
    /// window.  Groups are emitted in ascending key order so results are
    /// deterministic.
    pub fn aggregate_by_key<K, A>(
        self,
        key_of: impl Fn(&T) -> K + Send + 'static,
        init: impl Fn() -> A + Send + 'static,
        fold: impl Fn(A, &T) -> A + Send + 'static,
    ) -> Stream<(K, A)>
    where
        K: Ord + Eq + Hash + Clone + Send + 'static,
        A: Data,
    {
        self.flat_map(move |w| {
            let mut groups: BTreeMap<K, A> = BTreeMap::new();
            for item in &w.items {
                let k = key_of(item);
                let acc = groups.remove(&k).unwrap_or_else(&init);
                groups.insert(k, fold(acc, item));
            }
            groups.into_iter().collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn tumbling_count_window_groups_and_flushes_tail() {
        let topo = Topology::new();
        let sink = topo
            .source_vec((1..=7u32).collect())
            .tumbling_count_window(3)
            .collect();
        topo.run();
        let windows = sink.take();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].items, vec![1, 2, 3]);
        assert_eq!(windows[1].items, vec![4, 5, 6]);
        assert_eq!(
            windows[2].items,
            vec![7],
            "partial tail window flushed at EOS"
        );
        assert_eq!(windows[0].len(), 3);
        assert!(!windows[0].is_empty());
    }

    #[test]
    fn sliding_count_window_overlaps() {
        let topo = Topology::new();
        let sink = topo
            .source_vec((1..=6u32).collect())
            .sliding_count_window(3, 1)
            .collect();
        topo.run();
        let windows = sink.take();
        assert_eq!(windows.len(), 4);
        assert_eq!(windows[0].items, vec![1, 2, 3]);
        assert_eq!(windows[1].items, vec![2, 3, 4]);
        assert_eq!(windows[3].items, vec![4, 5, 6]);
    }

    #[test]
    fn sliding_window_with_larger_slide() {
        let topo = Topology::new();
        let sink = topo
            .source_vec((1..=8u32).collect())
            .sliding_count_window(4, 2)
            .collect();
        topo.run();
        let windows = sink.take();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].items, vec![1, 2, 3, 4]);
        assert_eq!(windows[1].items, vec![3, 4, 5, 6]);
        assert_eq!(windows[2].items, vec![5, 6, 7, 8]);
    }

    #[test]
    fn tumbling_time_window_respects_event_time() {
        let topo = Topology::new();
        let items = vec![
            (0u64, 10u32),
            (5, 11),
            (9, 12),
            (10, 20),
            (19, 21),
            (30, 30),
        ];
        let sink = topo
            .source_with_timestamps(items)
            .tumbling_time_window(10)
            .collect();
        topo.run();
        let windows = sink.take();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].items, vec![10, 11, 12]);
        assert_eq!((windows[0].start, windows[0].end), (0, 9));
        assert_eq!(windows[1].items, vec![20, 21]);
        assert_eq!(windows[2].items, vec![30]);
        assert_eq!((windows[2].start, windows[2].end), (30, 39));
    }

    #[test]
    fn aggregate_sums_windows() {
        let topo = Topology::new();
        let sink = topo
            .source_vec((1..=9u64).collect())
            .tumbling_count_window(3)
            .aggregate(|w| w.items.iter().sum::<u64>())
            .collect();
        topo.run();
        assert_eq!(sink.take(), vec![6, 15, 24]);
    }

    #[test]
    fn aggregate_by_key_groups_within_window() {
        let topo = Topology::new();
        // (meter id, reading)
        let data = vec![(1u32, 10u64), (2, 5), (1, 20), (2, 7), (1, 30), (3, 1)];
        let sink = topo
            .source_vec(data)
            .tumbling_count_window(6)
            .aggregate_by_key(|(m, _)| *m, || 0u64, |acc, (_, r)| acc + r)
            .collect();
        topo.run();
        assert_eq!(sink.take(), vec![(1, 60), (2, 12), (3, 1)]);
    }

    #[test]
    fn session_window_splits_on_gap() {
        let topo = Topology::new();
        // Two bursts separated by a long quiet period.
        let items = vec![(0u64, 1u32), (2, 2), (4, 3), (100, 10), (101, 11)];
        let sink = topo
            .source_with_timestamps(items)
            .session_window(5)
            .collect();
        topo.run();
        let windows = sink.take();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].items, vec![1, 2, 3]);
        assert_eq!((windows[0].start, windows[0].end), (0, 4));
        assert_eq!(windows[1].items, vec![10, 11]);
        assert_eq!((windows[1].start, windows[1].end), (100, 101));
    }

    #[test]
    fn session_window_single_burst_flushes_at_eos() {
        let topo = Topology::new();
        let sink = topo
            .source_with_timestamps((0..10u64).map(|i| (i, i)))
            .session_window(1000)
            .collect();
        topo.run();
        let windows = sink.take();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].len(), 10);
    }

    #[test]
    fn session_window_zero_gap_isolates_distinct_timestamps() {
        let topo = Topology::new();
        let sink = topo
            .source_with_timestamps(vec![(0u64, 'a'), (0, 'b'), (5, 'c')])
            .session_window(0)
            .collect();
        topo.run();
        let windows = sink.take();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].items, vec!['a', 'b']);
        assert_eq!(windows[1].items, vec!['c']);
    }

    #[test]
    fn window_close_punctuation_flushes_early() {
        use tsp_common::Punctuation;
        let topo = Topology::new();
        let elements = vec![
            StreamElement::data(0, 0, 1u32),
            StreamElement::data(1, 1, 2u32),
            StreamElement::Punctuation(Punctuation::window_close(1)),
            StreamElement::data(2, 2, 3u32),
        ];
        let sink = topo
            .source_elements(elements)
            .tumbling_count_window(10)
            .collect();
        topo.run();
        let windows = sink.take();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].items, vec![1, 2]);
        assert_eq!(windows[1].items, vec![3]);
    }
}
