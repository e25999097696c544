//! Measurement helpers: process counters read from `/proc`, exact
//! quantiles for the end-to-end figures, and the spans of the traced run.
//!
//! The traced run times calls into each layer's public functions from the
//! benchmark's own files: the `TO_TABLE` writer closures, the ad-hoc reader's
//! `begin_read_only` / `read` / `commit` calls, the `TO_STREAM` verify query
//! body, and [`TimedBackend`] around each `LsmStore`.  Nothing in the engine
//! is instrumented for the benchmark.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tsp_common::{Histogram, Result};
use tsp_storage::{InstrumentedBackend, LsmStore, StorageBackend, WriteBatch};

/// Clock ticks per second of `/proc/self/stat` CPU times (`USER_HZ`, fixed
/// at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of the whole process, all threads included
/// (exited ones too), from `/proc/self/stat`.
pub fn process_cpu() -> Result<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // The command name (field 2) may contain spaces; fields after it are
    // plain numbers.  utime and stime are fields 14 and 15.
    let after_name = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| tsp_common::TspError::corruption("unparsable /proc/self/stat"))?;
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| tsp_common::TspError::corruption("short /proc/self/stat"))
    };
    // `fields[0]` is field 3 (state), so field n sits at index n - 3.
    Ok(Duration::from_secs_f64((ticks(11)? + ticks(12)?) / USER_HZ))
}

/// Peak resident set size of the process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| tsp_common::TspError::corruption("no VmHWM in /proc/self/status"))
}

/// Exact `q`-quantile (nearest rank) of unsorted samples; 0 when empty.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of floating-point samples; 0 when empty.
pub fn median_f64(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// A latency histogram plus the exact total of what it recorded, so
/// per-transaction means (which add up, unlike medians) can be derived.
#[derive(Default)]
pub struct Span {
    hist: Histogram,
    total_ns: AtomicU64,
}

impl Span {
    /// Records one call that started at `start`.
    pub fn record_since(&self, start: Instant) {
        self.record(start.elapsed());
    }

    /// Records one call of duration `d`.
    pub fn record(&self, d: Duration) {
        self.hist.record(d);
        self.total_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Median in nanoseconds (0 if nothing was recorded).
    pub fn p50_ns(&self) -> f64 {
        self.hist.quantile_value(0.5).unwrap_or(0) as f64
    }

    /// 99th percentile in nanoseconds (0 if nothing was recorded).
    pub fn p99_ns(&self) -> f64 {
        self.hist.quantile_value(0.99).unwrap_or(0) as f64
    }

    /// Sum of all recorded durations in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.total_ns.load(Ordering::Relaxed) as f64
    }

    /// Forgets everything recorded so far.
    pub fn reset(&self) {
        self.hist.reset();
        self.total_ns.store(0, Ordering::Relaxed);
    }
}

/// The spans of one traced pass, shared by the operator closures, the
/// ad-hoc reader and the storage decorators.
#[derive(Default)]
pub struct Probes {
    /// `MvccTable::write` inside both `TO_TABLE` writers.
    pub table_write: Span,
    /// The read half of the *measurements* read-and-accumulate.
    pub table_rmw_read: Span,
    /// Everything the two writer closures spent, per call.
    pub writer_closure: Span,
    /// One ad-hoc point read (`MvccTable::read`).
    pub table_read: Span,
    /// `TransactionManager::begin_read_only` of the ad-hoc reader.
    pub begin_ro: Span,
    /// `TransactionManager::commit` of the ad-hoc reader's snapshot.
    pub commit_ro: Span,
    /// The `TO_STREAM` verify query body.
    pub verify: Span,
    /// `StorageBackend::write_batch` of every `LsmStore`.
    pub write_batch: Span,
}

/// A `StorageBackend` decorator around one `LsmStore`: the wrapped
/// [`InstrumentedBackend`] counts batches and bytes, this layer times
/// `write_batch` (WAL append plus fsync) into the shared probes.
pub struct TimedBackend {
    inner: InstrumentedBackend<LsmStore>,
    probes: std::sync::Arc<Probes>,
}

impl TimedBackend {
    /// Wraps `store`, recording into `probes`.
    pub fn new(store: LsmStore, probes: std::sync::Arc<Probes>) -> Self {
        TimedBackend {
            inner: InstrumentedBackend::new(store),
            probes,
        }
    }

    /// `(write batches, bytes written)` so far.
    pub fn counters(&self) -> (u64, u64) {
        let s = self.inner.stats();
        (s.batches(), s.bytes_written())
    }
}

impl StorageBackend for TimedBackend {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.inner.get(key)
    }
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.inner.put(key, value)
    }
    fn delete(&self, key: &[u8]) -> Result<()> {
        self.inner.delete(key)
    }
    fn write_batch(&self, batch: &WriteBatch) -> Result<()> {
        let start = Instant::now();
        let result = self.inner.write_batch(batch);
        self.probes.write_batch.record_since(start);
        result
    }
    fn scan(&self, visit: &mut dyn FnMut(&[u8], &[u8]) -> bool) -> Result<()> {
        self.inner.scan(visit)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
    fn name(&self) -> &'static str {
        "timed-lsm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let mut v = vec![5, 1, 4, 2, 3];
        assert_eq!(quantile(&mut v, 0.5), 3);
        assert_eq!(quantile(&mut v, 0.99), 5);
        assert_eq!(quantile(&mut [], 0.5), 0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn proc_counters_are_readable() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        process_cpu().unwrap();
    }
}
