//! Log-bucketed, lock-free histograms.
//!
//! [`Histogram`] is the workspace's one histogram type: values are bucketed
//! by their power-of-two magnitude with 64 linear sub-buckets per magnitude
//! (the layout HdrHistogram-style recorders use), trading a bounded relative
//! error (~ 1/64 per bucket) for fixed memory and lock-free recording.  It
//! lives in `tsp_common` so both the engine's telemetry layer
//! (`tsp_core::telemetry`) and the workload harness record into the same
//! type — and per-partition histograms can be [merged](Histogram::merge)
//! into roll-ups without losing quantile fidelity.
//!
//! Recording is a handful of `Relaxed` atomic RMWs; the type never takes a
//! lock, so it is safe to bump from latency-critical paths (the engine still
//! keeps it off the latch-free committed-read path entirely — see the
//! "Observability" section of `docs/ARCHITECTURE.md`).
//!
//! Values are plain `u64`s.  Most histograms in the system record
//! nanoseconds (hence the [`Duration`] helpers), but dimensionless
//! quantities — coalesced write-batch lengths — use the same buckets via
//! [`record_value`](Histogram::record_value).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-buckets per power-of-two magnitude (relative error ≈ 1/SUB_BUCKETS).
const SUB_BUCKETS: usize = 64;
/// Number of magnitudes covered (2^0 .. 2^39 ns ≈ 9 minutes — plenty).
const MAGNITUDES: usize = 40;
const BUCKETS: usize = SUB_BUCKETS * MAGNITUDES;

/// A fixed-memory, thread-safe log-bucketed histogram over `u64` values
/// (nanoseconds, batch sizes, queue depths — anything non-negative).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }
    }

    fn bucket_index(value: u64) -> usize {
        let v = value.max(1);
        let magnitude = (63 - v.leading_zeros()) as usize; // floor(log2 v)
        if magnitude >= MAGNITUDES {
            return BUCKETS - 1;
        }
        let sub = if magnitude == 0 {
            0
        } else {
            // Position within the magnitude, scaled to SUB_BUCKETS slots.
            (((v - (1 << magnitude)) * SUB_BUCKETS as u64) >> magnitude) as usize
        };
        magnitude * SUB_BUCKETS + sub.min(SUB_BUCKETS - 1)
    }

    /// Representative (upper-bound) value of bucket `idx`.
    fn bucket_value(idx: usize) -> u64 {
        let magnitude = idx / SUB_BUCKETS;
        let sub = (idx % SUB_BUCKETS) as u64;
        let base = 1u64 << magnitude;
        base + ((sub + 1) * base) / SUB_BUCKETS as u64
    }

    /// Records one duration.
    pub fn record(&self, d: Duration) {
        self.record_value(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one raw nanosecond value.
    pub fn record_nanos(&self, nanos: u64) {
        self.record_value(nanos);
    }

    /// Records one dimensionless value (batch size, queue depth, …).
    pub fn record_value(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (`0` if empty).
    pub fn sum_value(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value as a duration (0 if empty).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_value())
    }

    /// Smallest recorded value as a duration (0 if empty).
    pub fn min(&self) -> Duration {
        Duration::from_nanos(self.min_value())
    }

    /// Largest recorded raw value (0 if empty).
    pub fn max_value(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.max.load(Ordering::Relaxed)
        }
    }

    /// Smallest recorded raw value (0 if empty).
    pub fn min_value(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        }
    }

    /// Mean of all recorded values as a duration.
    pub fn mean(&self) -> Option<Duration> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        Some(Duration::from_nanos(self.sum.load(Ordering::Relaxed) / n))
    }

    /// The `q`-quantile (0.0 ..= 1.0) with the histogram's bucket resolution.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        self.quantile_value(q).map(Duration::from_nanos)
    }

    /// The `q`-quantile as a raw value (0.0 ..= 1.0).
    pub fn quantile_value(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                // Never report beyond the true observed maximum.
                return Some(Self::bucket_value(idx).min(self.max.load(Ordering::Relaxed)));
            }
        }
        Some(self.max_value())
    }

    /// Merges another histogram's counts into this one.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Clears all recorded data.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
    }

    /// One-line summary (`count / mean / p50 / p99 / max`) for reports.
    pub fn summary(&self) -> String {
        match self.mean() {
            None => "no samples".to_string(),
            Some(mean) => format!(
                "n={} mean={:.1}µs p50={:.1}µs p99={:.1}µs max={:.1}µs",
                self.count(),
                mean.as_secs_f64() * 1e6,
                self.quantile(0.5).unwrap_or_default().as_secs_f64() * 1e6,
                self.quantile(0.99).unwrap_or_default().as_secs_f64() * 1e6,
                self.max().as_secs_f64() * 1e6,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.mean().is_none());
        assert!(h.quantile(0.5).is_none());
        assert_eq!(h.max(), Duration::ZERO);
        assert_eq!(h.min(), Duration::ZERO);
        assert_eq!(h.sum_value(), 0);
        assert_eq!(h.summary(), "no samples");
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record_nanos(i * 1_000); // 1µs .. 10ms
        }
        assert_eq!(h.count(), 10_000);
        let p50 = h.quantile(0.5).unwrap().as_nanos() as f64;
        let expect = 5_000_000.0;
        assert!(
            (p50 - expect).abs() / expect < 0.05,
            "p50 off by more than 5%: {p50}"
        );
        let p99 = h.quantile(0.99).unwrap().as_nanos() as f64;
        assert!((p99 - 9_900_000.0).abs() / 9_900_000.0 < 0.05, "p99={p99}");
        assert!(h.quantile(1.0).unwrap() <= h.max());
        assert_eq!(h.min(), Duration::from_nanos(1_000));
        let mean = h.mean().unwrap().as_nanos() as f64;
        assert!((mean - 5_000_500.0 * 1.0).abs() / 5_000_000.0 < 0.01);
    }

    #[test]
    fn bucket_error_is_bounded() {
        // Every recorded value must land in a bucket whose representative
        // value is within ~2/64 of the original.
        for v in [
            1u64,
            7,
            63,
            64,
            65,
            1_000,
            123_456,
            9_999_999,
            u32::MAX as u64,
        ] {
            let h = Histogram::new();
            h.record_nanos(v);
            let q = h.quantile(1.0).unwrap().as_nanos() as u64;
            let err = (q as f64 - v as f64).abs() / v as f64;
            assert!(err <= 0.05, "value {v} reported as {q} (error {err})");
        }
    }

    #[test]
    fn concurrent_recording() {
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record_nanos((t + 1) * 1_000 + i % 100);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.count(), 80_000);
        assert!(h.quantile(0.5).is_some());
    }

    #[test]
    fn merge_and_reset() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.max() >= Duration::from_micros(990));
        assert!(a.min() <= Duration::from_micros(11));
        assert!(!a.summary().is_empty());
        a.reset();
        assert_eq!(a.count(), 0);
        assert!(a.quantile(0.9).is_none());
    }

    #[test]
    fn huge_values_saturate_into_last_bucket() {
        let h = Histogram::new();
        h.record_nanos(u64::MAX);
        h.record_nanos(u64::MAX / 2);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0).is_some());
    }

    #[test]
    fn dimensionless_values_round_trip() {
        // Batch sizes: small integers must report near-exactly.
        let h = Histogram::new();
        for size in [1u64, 2, 3, 4, 8, 64, 100] {
            h.record_value(size);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min_value(), 1);
        assert_eq!(h.max_value(), 100);
        assert_eq!(h.sum_value(), 182);
        let p100 = h.quantile_value(1.0).unwrap();
        assert!((100..=102).contains(&p100), "p100={p100}");
    }
}
