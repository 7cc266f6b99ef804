//! Atomic metric primitives: counters, gauges, log-linear histograms,
//! and a name-keyed registry.
//!
//! Every update is a single atomic operation — no lock sits on any hot
//! path. The registry's maps are only locked when a handle is first
//! resolved; call sites that care cache the returned `Arc`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Linear sub-buckets per power-of-two range (log-linear histogram).
/// Eight sub-buckets bound the relative quantile error at 12.5%, so
/// nearby percentiles (p50 vs p99) land in distinct buckets instead of
/// saturating one coarse power-of-two bucket.
pub const SUB_BUCKETS: usize = 8;

const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Number of log-linear histogram buckets. Values below `SUB_BUCKETS`
/// get one bucket each; every power-of-two range `[2^k, 2^(k+1))` above
/// that is split into `SUB_BUCKETS` equal-width linear sub-buckets, up
/// to the full `u64` range.
pub const BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Raises the counter to `value` if it is below it (high-water-mark
    /// semantics).
    pub fn record_max(&self, value: u64) {
        self.value.fetch_max(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An atomic `f64` gauge (last-write-wins).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge starting at `0.0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed log-linear bucket histogram over `u64` values (typically
/// microseconds): each power-of-two range is split into
/// `SUB_BUCKETS` equal-width linear sub-buckets, bounding the relative
/// quantile error at `1/SUB_BUCKETS` (12.5%).
///
/// Quantiles are conservative upper bounds: `quantile_upper(0.95) ==
/// 1151` means "95% of observations were ≤ 1151".
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value falls into. Values below `SUB_BUCKETS`
    /// map to their own bucket; above that, the exponent picks the
    /// power-of-two range and the `SUB_BITS` bits below the leading one
    /// pick the linear sub-bucket within it.
    pub fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros();
        let sub = ((value >> (exp - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
        SUB_BUCKETS + (exp - SUB_BITS) as usize * SUB_BUCKETS + sub
    }

    /// Inclusive upper bound of a bucket, reported as the conservative
    /// quantile estimate.
    pub fn bucket_upper(index: usize) -> u64 {
        let index = index.min(BUCKETS - 1);
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let exp = (index - SUB_BUCKETS) as u32 / SUB_BUCKETS as u32 + SUB_BITS;
        let sub = ((index - SUB_BUCKETS) % SUB_BUCKETS) as u128;
        let width = 1u128 << (exp - SUB_BITS);
        let upper = (1u128 << exp) + (sub + 1) * width - 1;
        u64::try_from(upper).unwrap_or(u64::MAX)
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation (zero when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean observation (zero when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Per-bucket counts.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|bucket| bucket.load(Ordering::Relaxed))
            .collect()
    }

    /// Conservative upper bound of the `q`-quantile (`0.0 ..= 1.0`) over
    /// the current bucket counts. Zero when empty.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        self.snapshot().quantile_upper(q)
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self.bucket_counts(),
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Folds `other` into this snapshot. Every histogram shares the same
    /// fixed log-linear buckets, so merging is element-wise addition of
    /// the bucket counts; quantiles of the merged snapshot are exactly
    /// those of one histogram that had seen both sets of observations.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (merged, count) in self.counts.iter_mut().zip(&other.counts) {
            *merged += count;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Conservative upper bound of the `q`-quantile (`0.0 ..= 1.0`) over
    /// the bucket counts. Zero when empty.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = (q * total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Histogram::bucket_upper(i);
            }
        }
        Histogram::bucket_upper(BUCKETS - 1)
    }
}

/// Name-keyed registry of counters, gauges and histograms.
///
/// Handles are `Arc`-shared: resolving the same name twice returns the
/// same primitive, so concurrent updates from different call sites
/// accumulate into one value.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self
            .counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            return Arc::clone(c);
        }
        let mut map = self
            .counters
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self
            .gauges
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            return Arc::clone(g);
        }
        let mut map = self.gauges.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self
            .histograms
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            return Arc::clone(h);
        }
        let mut map = self
            .histograms
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// A sorted snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A sorted point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` per histogram, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_log_linear() {
        // Small values get exact buckets.
        for v in 0..16u64 {
            assert_eq!(Histogram::bucket_index(v), v as usize, "value {v}");
            assert_eq!(Histogram::bucket_upper(v as usize), v);
        }
        // 1024 opens the [2^10, 2^11) range: 8 sub-buckets of width 128.
        assert_eq!(Histogram::bucket_index(1024), 64);
        assert_eq!(Histogram::bucket_index(1151), 64);
        assert_eq!(Histogram::bucket_index(1152), 65);
        assert_eq!(Histogram::bucket_upper(64), 1151);
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(Histogram::bucket_upper(BUCKETS - 1), u64::MAX);
        for i in 0..BUCKETS - 1 {
            assert!(Histogram::bucket_upper(i) < Histogram::bucket_upper(i + 1));
        }
        // Every value lands in a bucket whose bounds contain it, with
        // relative error at most 1/SUB_BUCKETS.
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let idx = Histogram::bucket_index(v);
            let upper = Histogram::bucket_upper(idx);
            assert!(upper >= v, "upper({idx}) = {upper} < {v}");
            assert!(
                upper - v <= v / SUB_BUCKETS as u64 + 1,
                "bucket too coarse at {v}: upper {upper}"
            );
            v = v.saturating_mul(3) / 2 + 1;
        }
    }

    #[test]
    fn histogram_quantiles_are_ordered_upper_bounds() {
        let h = Histogram::new();
        for v in [10u64, 20, 50, 100, 400, 900, 2_000, 9_000, 40_000, 100_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.max(), 100_000);
        assert!(h.mean() > 0.0);
        let p50 = h.quantile_upper(0.50);
        let p95 = h.quantile_upper(0.95);
        let p99 = h.quantile_upper(0.99);
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 >= 100_000 >> 1);
    }

    #[test]
    fn merged_snapshots_match_one_histogram_over_both_streams() {
        let (a, b, both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [10u64, 20, 50, 100, 400] {
            a.observe(v);
            both.observe(v);
        }
        for v in [900u64, 2_000, 9_000, 40_000, 100_000] {
            b.observe(v);
            both.observe(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(merged.quantile_upper(q), both.quantile_upper(q), "q = {q}");
        }
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile_upper(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn counter_and_gauge_accumulate() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        c.record_max(3);
        assert_eq!(c.get(), 5);
        c.record_max(9);
        assert_eq!(c.get(), 9);
        let g = Gauge::new();
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn registry_shares_handles_by_name() {
        let r = MetricsRegistry::new();
        r.counter("a").add(2);
        r.counter("a").add(3);
        r.gauge("g").set(7.0);
        r.histogram("h").observe(42);
        assert_eq!(r.counter("a").get(), 5);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("a".to_string(), 5)]);
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.histograms[0].1.count, 1);
    }
}
