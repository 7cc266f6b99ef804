//! Serving metrics, backed by the workspace `obs` primitives.
//!
//! [`ServeMetrics`] used to carry its own bespoke power-of-two latency
//! histogram; it now composes `obs::{Counter, Gauge, Histogram}` so the
//! serving layer shares one histogram implementation with the rest of
//! the workspace. The shared histogram is log-linear (eight linear
//! sub-buckets per power-of-two range), so `BENCH_serve.json` reports
//! p50/p95/p99/p99.9 with at most 12.5% relative error instead of
//! saturating one coarse power-of-two bucket; percentile upper bounds
//! are additionally clamped to the observed maximum so a report can
//! never claim a percentile above its own `latency_max_us`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use obs::{Counter, Gauge, Histogram, HistogramSnapshot};
use serde::{Deserialize, Serialize};

/// Live engine counters. All updates are single atomic operations — no
/// lock sits on the request hot path. Snapshot with
/// [`ServeMetrics::report`].
///
/// In the sharded tier each shard owns one `ServeMetrics` that survives
/// engine restarts, and every request records its terminal outcome on
/// the metrics of the shard that *admitted* it — so per-shard
/// conservation (`submitted` equals `completed + failed + timed_out +
/// drained + in-flight`) holds even when the supervisor re-routes a
/// failed shard's queue to a sibling.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    submitted: Counter,
    rejected: Counter,
    failed: Counter,
    timed_out: Counter,
    drained: Counter,
    queue_high_water: Counter,
    queue_depth: Gauge,
    batch_sizes: Histogram,
    latency: Histogram,
    /// EWMA of micro-batch wall time in µs (α = 1/5), feeding the
    /// router's deadline-aware admission estimate.
    batch_ewma_us: AtomicU64,
}

impl ServeMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_submitted(&self) {
        self.submitted.inc();
    }

    pub(crate) fn record_rejected(&self) {
        self.rejected.inc();
        obs::counter_add("serve.rejected", 1);
    }

    pub(crate) fn record_failed(&self) {
        self.failed.inc();
    }

    pub(crate) fn record_timed_out(&self) {
        self.timed_out.inc();
    }

    pub(crate) fn record_queue_depth(&self, depth: usize) {
        self.queue_high_water.record_max(depth as u64);
        self.queue_depth.set(depth as f64);
        obs::gauge_set("serve.queue_depth", depth as f64);
    }

    pub(crate) fn record_drained(&self) {
        self.drained.inc();
    }

    pub(crate) fn record_batch(&self, samples: usize, wall: Duration) {
        self.batch_sizes.observe(samples as u64);
        let us = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
        let old = self.batch_ewma_us.load(Ordering::Relaxed);
        let new = if old == 0 { us } else { (old * 4 + us) / 5 };
        self.batch_ewma_us.store(new, Ordering::Relaxed);
    }

    pub(crate) fn record_completed(&self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.latency.observe(us);
    }

    /// Requests accepted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted.get()
    }

    /// Requests rejected with queue-full backpressure.
    pub fn rejected(&self) -> u64 {
        self.rejected.get()
    }

    /// Requests completed successfully.
    pub fn completed(&self) -> u64 {
        self.latency.count()
    }

    /// Requests that ended with a terminal error.
    pub fn failed(&self) -> u64 {
        self.failed.get()
    }

    /// Requests that sat past their deadline.
    pub fn timed_out(&self) -> u64 {
        self.timed_out.get()
    }

    /// Most recently observed queue depth.
    pub fn queue_depth(&self) -> f64 {
        self.queue_depth.get()
    }

    /// Requests drained with a terminal [`crate::ServeError::ShuttingDown`].
    pub fn drained(&self) -> u64 {
        self.drained.get()
    }

    /// Requests admitted but not yet terminally resolved. Derived from
    /// the counters, so it is exact once the shard quiesces (the drain
    /// step of a rolling swap polls it down to zero).
    pub fn in_flight(&self) -> u64 {
        let terminal = self.latency.count()
            + self.failed.get()
            + self.timed_out.get()
            + self.drained.get();
        self.submitted.get().saturating_sub(terminal)
    }

    /// EWMA of micro-batch wall time in µs (zero until the first batch).
    pub fn batch_ewma_us(&self) -> u64 {
        self.batch_ewma_us.load(Ordering::Relaxed)
    }

    /// Snapshot of the latency histogram (for cross-shard aggregation).
    pub fn latency_snapshot(&self) -> HistogramSnapshot {
        self.latency.snapshot()
    }

    /// Snapshots every counter into a serializable report.
    pub fn report(&self) -> MetricsReport {
        let batch = self.batch_sizes.snapshot();
        let mut report = MetricsReport {
            requests_submitted: self.submitted.get(),
            requests_rejected: self.rejected.get(),
            requests_failed: self.failed.get(),
            requests_timed_out: self.timed_out.get(),
            requests_drained: self.drained.get(),
            batches: batch.count,
            mean_batch_size: if batch.count == 0 {
                0.0
            } else {
                batch.sum as f64 / batch.count as f64
            },
            queue_depth_high_water: self.queue_high_water.get(),
            ..MetricsReport::default()
        };
        report.set_latency(&self.latency.snapshot());
        report
    }
}

/// A point-in-time, serializable snapshot of [`ServeMetrics`].
///
/// Percentiles are conservative upper bounds from the log-linear bucket
/// histogram (a p95 of `1151` means "95% of requests finished within
/// 1151 µs"), accurate to 12.5%.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Requests accepted into the queue.
    pub requests_submitted: u64,
    /// Requests rejected with [`crate::SubmitError::QueueFull`].
    pub requests_rejected: u64,
    /// Requests completed successfully.
    pub requests_completed: u64,
    /// Requests completed with an error.
    pub requests_failed: u64,
    /// Requests that sat past their deadline before execution.
    pub requests_timed_out: u64,
    /// Requests drained at shutdown with a terminal `ShuttingDown`.
    pub requests_drained: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Mean samples per executed batch.
    pub mean_batch_size: f64,
    /// Highest queue depth observed.
    pub queue_depth_high_water: u64,
    /// Mean submit-to-completion latency (µs).
    pub latency_mean_us: f64,
    /// Median latency upper bound (µs).
    pub latency_p50_us: u64,
    /// 95th-percentile latency upper bound (µs).
    pub latency_p95_us: u64,
    /// 99th-percentile latency upper bound (µs).
    pub latency_p99_us: u64,
    /// 99.9th-percentile latency upper bound (µs).
    pub latency_p999_us: u64,
    /// Worst observed latency (µs).
    pub latency_max_us: u64,
}

impl MetricsReport {
    /// Fills `requests_completed` and every latency field from a
    /// latency histogram snapshot (one shard's, or several shards'
    /// merged with [`HistogramSnapshot::merge`]).
    pub(crate) fn set_latency(&mut self, latency: &HistogramSnapshot) {
        self.requests_completed = latency.count;
        self.latency_mean_us = if latency.count == 0 {
            0.0
        } else {
            latency.sum as f64 / latency.count as f64
        };
        // Bucket upper bounds can exceed the worst value actually
        // observed (the max lands mid-bucket); clamping keeps the report
        // internally consistent — a percentile is never reported above
        // `latency_max_us`. (BENCH_serve.json once shipped p95 = 851967
        // µs next to max = 847723 µs.)
        let upper = |q: f64| latency.quantile_upper(q).min(latency.max);
        self.latency_p50_us = upper(0.50);
        self.latency_p95_us = upper(0.95);
        self.latency_p99_us = upper(0.99);
        self.latency_p999_us = upper(0.999);
        self.latency_max_us = latency.max;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_log_linear() {
        for v in 0..16u64 {
            assert_eq!(Histogram::bucket_index(v), v as usize, "value {v}");
        }
        assert_eq!(Histogram::bucket_index(1024), 64);
        assert_eq!(Histogram::bucket_index(u64::MAX), obs::BUCKETS - 1);
        for i in 0..obs::BUCKETS - 1 {
            assert!(Histogram::bucket_upper(i) < Histogram::bucket_upper(i + 1));
        }
    }

    #[test]
    fn log_linear_buckets_separate_nearby_tail_latencies() {
        // The old power-of-two buckets collapsed a smoke run's whole
        // latency spread (~130–260 ms) into one bucket, reporting
        // p50 == p95 == p99. Log-linear buckets must keep them apart.
        let m = ServeMetrics::new();
        for us in [130_000u64, 150_000, 170_000, 190_000, 210_000, 230_000, 250_000, 260_000] {
            m.record_completed(Duration::from_micros(us));
        }
        let report = m.report();
        assert!(
            report.latency_p50_us < report.latency_p99_us,
            "p50 {} must stay below p99 {}",
            report.latency_p50_us,
            report.latency_p99_us
        );
        // Conservative upper bounds stay within 12.5% of the true value.
        assert!(report.latency_p99_us >= 260_000);
        assert!(report.latency_p99_us <= 260_000 + 260_000 / 8 + 1);
    }

    #[test]
    fn report_orders_percentiles() {
        let m = ServeMetrics::new();
        for us in [10u64, 20, 50, 100, 400, 900, 2_000, 9_000, 40_000, 100_000] {
            m.record_completed(Duration::from_micros(us));
        }
        let report = m.report();
        assert_eq!(report.requests_completed, 10);
        assert!(report.latency_p50_us <= report.latency_p95_us);
        assert!(report.latency_p95_us <= report.latency_p99_us);
        assert!(report.latency_p99_us <= report.latency_p999_us);
        assert!(report.latency_p99_us >= 100_000 >> 1, "{report:?}");
        assert_eq!(report.latency_max_us, 100_000);
        assert!(report.latency_mean_us > 0.0);
    }

    /// Regression test for the p95 > max inconsistency that shipped in
    /// BENCH_serve.json (p95 = 851967 µs vs max = 847723 µs): every
    /// reported percentile upper bound must be clamped to the observed
    /// maximum.
    #[test]
    fn percentiles_never_exceed_observed_max() {
        let m = ServeMetrics::new();
        // 847723 lands mid-bucket: its raw bucket upper bound is 851967.
        for us in [122_000u64, 123_000, 130_000, 847_723] {
            m.record_completed(Duration::from_micros(us));
        }
        assert!(Histogram::bucket_upper(Histogram::bucket_index(847_723)) > 847_723);
        let report = m.report();
        assert_eq!(report.latency_max_us, 847_723);
        assert!(report.latency_p50_us <= report.latency_max_us);
        assert!(report.latency_p95_us <= report.latency_max_us, "{report:?}");
        assert!(report.latency_p99_us <= report.latency_max_us);
        assert!(report.latency_p999_us <= report.latency_max_us);
    }

    /// The exact mean (sum/count) and the log-linear histogram must tell
    /// the same story: reconstructing the mean from bucket upper bounds
    /// brackets the true mean within one sub-bucket of relative error.
    /// (The ISSUE-9 smoke report's mean of 254 ms sitting far above p50 =
    /// 123 ms was a genuinely skewed latency distribution, not histogram
    /// corruption — this test pins that the two views stay consistent.)
    #[test]
    fn mean_is_consistent_with_histogram_reconstruction() {
        let m = ServeMetrics::new();
        let values = [
            1_200u64, 3_500, 9_000, 42_000, 122_879, 130_000, 250_000, 254_000, 500_000, 847_000,
        ];
        for us in values {
            m.record_completed(Duration::from_micros(us));
        }
        let report = m.report();
        let snapshot = m.latency_snapshot();
        assert_eq!(snapshot.count, values.len() as u64);
        let mut upper_sum = 0.0f64;
        for (i, &count) in snapshot.counts.iter().enumerate() {
            if count > 0 {
                upper_sum += count as f64 * Histogram::bucket_upper(i) as f64;
            }
        }
        let reconstructed = upper_sum / snapshot.count as f64;
        // Bucket upper bounds are >= each observed value and within
        // 12.5% (one of eight linear sub-buckets) + 1 above it.
        assert!(
            reconstructed >= report.latency_mean_us,
            "reconstruction {reconstructed} below exact mean {}",
            report.latency_mean_us
        );
        let slack = report.latency_mean_us / 8.0 + 1.0;
        assert!(
            reconstructed <= report.latency_mean_us + slack,
            "reconstruction {reconstructed} exceeds mean {} + bucket error {slack}",
            report.latency_mean_us
        );
        // And the exact mean lies inside the observed range.
        assert!(report.latency_mean_us <= report.latency_max_us as f64);
        assert!(report.latency_mean_us >= values[0] as f64);
    }

    #[test]
    fn empty_report_is_all_zero() {
        let report = ServeMetrics::new().report();
        assert_eq!(report.requests_completed, 0);
        assert_eq!(report.latency_p50_us, 0);
        assert_eq!(report.mean_batch_size, 0.0);
    }

    #[test]
    fn counters_accumulate() {
        let m = ServeMetrics::new();
        m.record_submitted();
        m.record_submitted();
        m.record_rejected();
        m.record_failed();
        m.record_timed_out();
        m.record_drained();
        m.record_batch(4, Duration::from_micros(100));
        m.record_batch(2, Duration::from_micros(200));
        m.record_queue_depth(7);
        m.record_queue_depth(3);
        let report = m.report();
        assert_eq!(report.requests_submitted, 2);
        assert_eq!(report.requests_rejected, 1);
        assert_eq!(report.requests_failed, 1);
        assert_eq!(report.requests_timed_out, 1);
        assert_eq!(report.requests_drained, 1);
        assert_eq!(report.batches, 2);
        assert_eq!(report.mean_batch_size, 3.0);
        assert_eq!(report.queue_depth_high_water, 7);
        assert_eq!(m.queue_depth(), 3.0);
        // EWMA warms to the first batch, then blends 4:1.
        assert_eq!(m.batch_ewma_us(), (100 * 4 + 200) / 5);
        // submitted(2) minus terminal failed(1)+timed_out(1)+drained(1) — saturates at zero.
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn report_serializes() {
        let m = ServeMetrics::new();
        m.record_completed(Duration::from_micros(42));
        let json = serde_json::to_string(&m.report()).unwrap();
        assert!(json.contains("latency_p95_us"));
        let parsed: MetricsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, m.report());
    }
}
