//! The load generator: the iterator the dataflow's source operator drains.
//!
//! Closed loop, it hands readings over as fast as the source's bounded
//! channel accepts them until the deadline.  Open loop, one tick is one
//! transaction's worth of readings at the target rate: the generator sleeps
//! until the tick is due and then releases its readings in one burst, so
//! pacing costs one wake-up per transaction rather than a spinning core.
//! Each reading's tuple timestamp is its due time; how late the generator
//! woke for each tick (including any stall while the channel was full) is
//! its lateness.
//!
//! The due time of each transaction's last reading is also written to
//! [`Stamps`], so the `TO_STREAM` trigger of transaction `j` can compute its
//! visibility latency without a marker row in the states.

use crate::engine::{Input, Reading};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-transaction stamp: nanoseconds since the pass's base instant at which
/// the transaction's last reading was due (open loop) or handed to the
/// dataflow (closed loop).
pub struct Stamps(Vec<AtomicU64>);

impl Stamps {
    pub fn new(transactions: usize) -> Stamps {
        Stamps((0..transactions).map(|_| AtomicU64::new(0)).collect())
    }

    pub fn get(&self, j: u64) -> Option<u64> {
        self.0.get(j as usize).map(|s| s.load(Ordering::Acquire))
    }

    fn set(&self, j: u64, ns: u64) {
        self.0[j as usize].store(ns, Ordering::Release);
    }
}

/// What the generator did, published when the source drops it.
#[derive(Default)]
pub struct FeedSummary {
    /// Readings handed to the dataflow.
    pub tuples: u64,
    /// When the first reading was handed over.
    pub first: Option<Instant>,
    /// Lateness of every open-loop tick (transaction), in ns.
    pub lateness_ns: Vec<u64>,
}

/// Shared between the generator and the thread waiting for it.
#[derive(Default)]
pub struct FeedReport {
    done: AtomicBool,
    summary: Mutex<FeedSummary>,
}

impl FeedReport {
    /// True once the generator emitted its last reading.
    pub fn done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    pub fn take(&self) -> FeedSummary {
        std::mem::take(&mut *self.summary.lock().expect("generator panicked"))
    }
}

enum Pace {
    Closed {
        deadline: Instant,
    },
    Open {
        tick: Duration,
        start: Option<Instant>,
    },
}

pub struct Feed {
    input: Arc<Input>,
    next: u64,
    limit: u64,
    batch: u64,
    base: Instant,
    pace: Pace,
    due_ns: u64,
    stamps: Arc<Stamps>,
    summary: FeedSummary,
    report: Arc<FeedReport>,
}

impl Feed {
    /// A generator of `seconds` worth of readings in transactions of
    /// `batch`: at `rate` tuples/s open loop, or closed loop without a rate.
    /// Returns the feed and the stamps sized for it.
    pub fn new(
        input: Arc<Input>,
        batch: u64,
        rate: Option<u64>,
        seconds: f64,
        base: Instant,
    ) -> (Feed, Arc<Stamps>, Arc<FeedReport>) {
        let (pace, limit) = match rate {
            Some(rate) => (
                Pace::Open {
                    tick: Duration::from_secs_f64(batch as f64 / rate as f64),
                    start: None,
                },
                (rate as f64 * seconds) as u64 / batch * batch,
            ),
            // Sized well above any rate a 2-vCPU host reaches; hitting the
            // cap ends the run early at a transaction boundary.
            None => (
                Pace::Closed {
                    deadline: base + Duration::from_secs_f64(seconds),
                },
                (2_000_000.0 * seconds) as u64 / batch * batch,
            ),
        };
        let stamps = Arc::new(Stamps::new((limit / batch) as usize));
        let report = Arc::new(FeedReport::default());
        let feed = Feed {
            input,
            next: 0,
            limit,
            batch,
            base,
            pace,
            due_ns: 0,
            stamps: Arc::clone(&stamps),
            summary: FeedSummary::default(),
            report: Arc::clone(&report),
        };
        (feed, stamps, report)
    }
}

impl Iterator for Feed {
    type Item = (u64, Reading);

    fn next(&mut self) -> Option<(u64, Reading)> {
        let i = self.next;
        if i >= self.limit {
            return None;
        }
        let pos = i % self.batch;
        match &mut self.pace {
            Pace::Closed { deadline } => {
                // Stop only between transactions, so every batch is full.
                if pos == 0 && Instant::now() >= *deadline {
                    return None;
                }
                if pos == self.batch - 1 {
                    self.due_ns = self.base.elapsed().as_nanos() as u64;
                }
            }
            Pace::Open { tick, start } => {
                if pos == 0 {
                    let start = *start.get_or_insert_with(Instant::now);
                    let due = start + *tick * (i / self.batch) as u32;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    self.summary
                        .lateness_ns
                        .push(due.elapsed().as_nanos() as u64);
                    self.due_ns = due.duration_since(self.base).as_nanos() as u64;
                }
            }
        }
        if i == 0 {
            self.summary.first = Some(Instant::now());
        }
        if pos == self.batch - 1 {
            self.stamps.set(i / self.batch, self.due_ns);
        }
        self.next += 1;
        Some((self.due_ns, self.input.reading(i)))
    }
}

impl Drop for Feed {
    fn drop(&mut self) {
        self.summary.tuples = self.next;
        if let Ok(mut summary) = self.report.summary.lock() {
            *summary = std::mem::take(&mut self.summary);
        }
        self.report.done.store(true, Ordering::Release);
    }
}
