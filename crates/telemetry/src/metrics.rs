//! Lock-free metric primitives: [`Counter`], [`Gauge`] and the
//! log-bucketed latency [`Histogram`].
//!
//! Everything here is plain `std` atomics with `Relaxed` ordering — a
//! recording thread never waits, never allocates and never takes a lock,
//! so the hot path can be instrumented unconditionally. Readers take
//! [`HistogramSnapshot`]s, which are owned, mergeable values: snapshots
//! from many histograms (one per shard, say) sum bucket-wise into one
//! distribution, the same way per-shard `SearchStats` sum into one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of histogram buckets: one per possible bit-width of a `u64`
/// nanosecond value (0 gets its own bucket), so bucket `i >= 1` covers
/// `[2^(i-1), 2^i)` and any quantile estimate is off by at most one
/// power of two — a bounded *relative* error at every latency scale.
pub const BUCKET_COUNT: usize = 65;

/// Monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous level (entries resident, connections open, ...).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// New gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the level outright.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the level by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Lowers the level by `n`, saturating at zero (a racy double-release
    /// must not wrap the gauge to 2^64).
    pub fn sub(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket index of a value: its bit width, so bucket 0 holds exactly the
/// value 0 and bucket `i >= 1` holds `[2^(i-1), 2^i)`.
fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (the value a quantile estimate
/// reports for a sample that landed there).
fn bucket_ceiling(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKET_COUNT - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Lock-free log-bucketed histogram of `u64` samples (nanoseconds on
/// every latency path in this workspace).
///
/// Recording is three relaxed atomic RMWs plus a `fetch_max`; taking a
/// snapshot is 68 relaxed loads. A snapshot taken while writers are
/// active is a consistent-enough view for operations (each field is
/// atomically read, fields may be skewed by in-flight samples); once
/// writers quiesce it is exact.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKET_COUNT],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        if let Some(b) = self.buckets.get(bucket_index(v)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a duration as whole nanoseconds (saturating past ~584
    /// years).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records the elapsed time since `start`.
    pub fn record_since(&self, start: Instant) {
        self.record_duration(start.elapsed());
    }

    /// Owned copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| {
                self.buckets.get(i).map_or(0, |b| b.load(Ordering::Relaxed))
            }),
        }
    }
}

/// Owned, mergeable view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (mean = `sum / count`).
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
    buckets: [u64; BUCKET_COUNT],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; BUCKET_COUNT],
        }
    }
}

impl HistogramSnapshot {
    /// Folds `other` into `self` — *sums*, never overwrites: counts,
    /// sums and every bucket add element-wise; `max` keeps the larger.
    /// This is how per-shard distributions aggregate into one.
    pub fn merge_from(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
    }

    /// Estimated quantile `q` in `[0, 1]`: the ceiling of the bucket
    /// holding the rank-`ceil(q * count)` sample, clamped to the observed
    /// max. The estimate can overshoot the true quantile by at most one
    /// bucket (a factor of 2 in value) and never undershoots it.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += *b;
            if seen >= rank {
                return bucket_ceiling(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean sample, zero when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Bucket occupancy, for tests and renderers.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_width() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(10);
        g.add(3);
        g.sub(5);
        assert_eq!(g.get(), 8);
        g.sub(100);
        assert_eq!(g.get(), 0, "gauge saturates instead of wrapping");
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1_001_006);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.bucket(0), 1);
        assert_eq!(s.bucket(1), 1);
        assert_eq!(s.bucket(2), 2);
        assert_eq!(s.mean(), 166_834);
    }

    #[test]
    fn quantiles_clamp_to_observed_max() {
        let h = Histogram::new();
        h.record(700);
        let s = h.snapshot();
        assert_eq!(s.p50(), 700);
        assert_eq!(s.p99(), 700);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.max, s.p50(), s.mean()), (0, 0, 0, 0, 0));
    }
}
