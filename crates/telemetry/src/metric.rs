//! The metric primitives: lock-free [`Counter`] and [`Gauge`] handles and
//! the log₂ latency [`Histogram`], each cheap enough for the daemon's
//! request hot path.
//!
//! The discipline mirrors the `trace` crate's: every hot-path operation is
//! a handful of relaxed atomic read-modify-writes — no locks, no
//! allocation, no wall clock. Reading happens through point-in-time
//! snapshots ([`Counter::get`], [`Histogram::snapshot`]), so a reporter
//! racing a writer sees a consistent-enough view without ever stalling it.
//!
//! Latencies land in log₂-bucketed histograms (microsecond resolution,
//! [`BUCKETS`] = 28 buckets ≈ 2¼ minutes of range), so p50/p90/p99/p99.9
//! are answered from ~200 bytes of state per technique no matter how many
//! requests have been served — the usual production trade of a
//! bucket-width error bound for O(1) memory.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use serde::Value;

/// Number of log₂ latency buckets: bucket `i` covers `[2^i, 2^(i+1))` µs,
/// the last bucket catches everything beyond ~2¼ minutes.
pub const BUCKETS: usize = 28;

/// The bucket an observation of `micros` lands in.
fn bucket_of(micros: u64) -> usize {
    (63 - micros.max(1).leading_zeros() as usize).min(BUCKETS - 1)
}

/// The exclusive upper bound of bucket `i` in microseconds, or `None` for
/// the last (unbounded, `+Inf`) bucket — the `le` bound of the Prometheus
/// `_bucket` line.
pub fn bucket_upper_micros(bucket: usize) -> Option<u64> {
    if bucket + 1 >= BUCKETS {
        None
    } else {
        Some(1u64 << (bucket + 1))
    }
}

/// A monotone counter. Cloning shares the underlying cell: every holder of
/// a clone increments the same value.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (queue depth, inflight
/// requests, breaker state). Signed so transient over-decrements in racy
/// shutdown paths clamp instead of wrapping.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value outright.
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Adjusts the value by `delta` (negative to decrement).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Current value clamped at zero (for gauges that are logically
    /// unsigned, like queue depths).
    pub fn get_unsigned(&self) -> u64 {
        self.get().max(0) as u64
    }
}

/// A fixed-size log₂ histogram of microsecond latencies, recordable from
/// any thread without locking. Reading goes through [`Histogram::snapshot`].
#[derive(Debug, Default)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation: four relaxed atomic updates, no lock.
    pub fn record(&self, micros: u64) {
        self.counts[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// A point-in-time copy for rendering and percentile math.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        for (slot, counter) in counts.iter_mut().zip(&self.counts) {
            *slot = counter.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            count: self.count.load(Ordering::Relaxed),
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
            max_micros: self.max_micros.load(Ordering::Relaxed),
        }
    }
}

/// A plain-value histogram: the snapshot form of [`Histogram`], and the
/// single-threaded recorder used by clients (loadgen) that never share one
/// across threads. Supports merging, so fleet aggregation can sum
/// per-shard histograms bucket-wise without losing percentile fidelity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: [u64; BUCKETS],
    count: u64,
    sum_micros: u64,
    max_micros: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; BUCKETS],
            count: 0,
            sum_micros: 0,
            max_micros: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Reassembles a snapshot from its parts (the Prometheus parser's
    /// path: per-bucket counts, total count, sum and max).
    pub fn from_parts(
        counts: [u64; BUCKETS],
        count: u64,
        sum_micros: u64,
        max_micros: u64,
    ) -> HistogramSnapshot {
        HistogramSnapshot {
            counts,
            count,
            sum_micros,
            max_micros,
        }
    }

    /// Overwrites the observed maximum — used by the exposition parser,
    /// which recovers the max from a companion gauge series.
    pub fn set_max_micros(&mut self, micros: u64) {
        self.max_micros = micros;
    }

    /// Records one observation.
    pub fn record(&mut self, micros: u64) {
        self.counts[bucket_of(micros)] += 1;
        self.count += 1;
        self.sum_micros += micros;
        self.max_micros = self.max_micros.max(micros);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations in microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros
    }

    /// Largest observation in microseconds.
    pub fn max_micros(&self) -> u64 {
        self.max_micros
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Cumulative per-bucket counts — `cumulative()[i]` is the number of
    /// observations `< bucket i`'s upper bound, exactly the value a
    /// Prometheus `_bucket{le=...}` line carries. The last entry equals
    /// [`HistogramSnapshot::count`].
    pub fn cumulative(&self) -> [u64; BUCKETS] {
        let mut cumulative = [0u64; BUCKETS];
        let mut seen = 0u64;
        for (slot, &c) in cumulative.iter_mut().zip(&self.counts) {
            seen += c;
            *slot = seen;
        }
        cumulative
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_micros(&self) -> u64 {
        self.sum_micros.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate `q`-quantile in microseconds: the upper bound of the
    /// first bucket whose cumulative count reaches `q · total`, clamped to
    /// the maximum observed value. `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = bucket_upper_micros(i).unwrap_or(u64::MAX);
                return Some(upper.min(self.max_micros.max(1)));
            }
        }
        Some(self.max_micros)
    }

    /// The p99.9 quantile in microseconds — the tail bound corpus-scale
    /// campaigns gate on. `None` when empty.
    pub fn p999_micros(&self) -> Option<u64> {
        self.percentile(0.999)
    }

    /// Folds another histogram into this one, bucket-wise: counts and sums
    /// add, the max takes the larger — the fleet-aggregation primitive.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_micros += other.sum_micros;
        self.max_micros = self.max_micros.max(other.max_micros);
    }

    /// The legacy `/metrics` JSON shape: `count`, `mean_ms`, `p50_ms`,
    /// `p90_ms`, `p99_ms`, `max_ms` — byte-for-byte what the document has
    /// always carried (no p99.9 here; that lives in the richer
    /// [`HistogramSnapshot::summary_value`] and the Prometheus exposition).
    pub fn to_value(&self) -> Value {
        let ms = |micros: Option<u64>| Value::F64(micros.unwrap_or(0) as f64 / 1000.0);
        Value::Map(vec![
            ("count".to_string(), Value::U64(self.count)),
            (
                "mean_ms".to_string(),
                Value::F64(self.mean_micros() as f64 / 1000.0),
            ),
            ("p50_ms".to_string(), ms(self.percentile(0.50))),
            ("p90_ms".to_string(), ms(self.percentile(0.90))),
            ("p99_ms".to_string(), ms(self.percentile(0.99))),
            (
                "max_ms".to_string(),
                Value::F64(self.max_micros as f64 / 1000.0),
            ),
        ])
    }

    /// The extended summary used by new surfaces (`/cluster/metrics`):
    /// the legacy fields plus `p999_ms`.
    pub fn summary_value(&self) -> Value {
        let ms = |micros: Option<u64>| Value::F64(micros.unwrap_or(0) as f64 / 1000.0);
        Value::Map(vec![
            ("count".to_string(), Value::U64(self.count)),
            (
                "mean_ms".to_string(),
                Value::F64(self.mean_micros() as f64 / 1000.0),
            ),
            ("p50_ms".to_string(), ms(self.percentile(0.50))),
            ("p90_ms".to_string(), ms(self.percentile(0.90))),
            ("p99_ms".to_string(), ms(self.percentile(0.99))),
            ("p999_ms".to_string(), ms(self.p999_micros())),
            (
                "max_ms".to_string(),
                Value::F64(self.max_micros as f64 / 1000.0),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_share_through_clones() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        let g2 = g.clone();
        g.add(3);
        g2.add(-1);
        assert_eq!(g.get(), 2);
        g.add(-5);
        assert_eq!(g.get(), -3);
        assert_eq!(g.get_unsigned(), 0, "unsigned view clamps at zero");
    }

    #[test]
    fn atomic_histogram_snapshot_matches_plain_recording() {
        let atomic = Histogram::new();
        let mut plain = HistogramSnapshot::default();
        for micros in [100, 200, 300, 400, 500, 10_000, 20_000, 900_000] {
            atomic.record(micros);
            plain.record(micros);
        }
        assert_eq!(atomic.snapshot(), plain);
    }

    #[test]
    fn percentiles_are_ordered_and_bounded() {
        let mut h = HistogramSnapshot::default();
        for micros in [100, 200, 300, 400, 500, 10_000, 20_000, 900_000] {
            h.record(micros);
        }
        assert_eq!(h.count(), 8);
        let p50 = h.percentile(0.50).unwrap();
        let p90 = h.percentile(0.90).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        let p999 = h.p999_micros().unwrap();
        assert!(
            p50 <= p90 && p90 <= p99 && p99 <= p999,
            "{p50} {p90} {p99} {p999}"
        );
        assert!(p999 <= 900_000, "clamped to the observed max");
        assert!((256..=1024).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn empty_and_zero_observations() {
        let mut h = HistogramSnapshot::default();
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.p999_micros(), None);
        assert_eq!(h.mean_micros(), 0);
        h.record(0); // clamped into the first bucket
        assert_eq!(h.count(), 1);
        assert!(h.percentile(0.999).is_some());
    }

    #[test]
    fn single_sample_pins_every_percentile() {
        let mut h = HistogramSnapshot::default();
        h.record(1_000);
        for q in [0.0, 0.01, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.percentile(q), Some(1_000), "q = {q}");
        }
        assert_eq!(h.mean_micros(), 1_000);
    }

    #[test]
    fn bucket_bounds_are_powers_of_two_with_inf_tail() {
        assert_eq!(bucket_upper_micros(0), Some(2));
        assert_eq!(bucket_upper_micros(9), Some(1_024));
        assert_eq!(bucket_upper_micros(BUCKETS - 2), Some(1 << (BUCKETS - 1)));
        assert_eq!(
            bucket_upper_micros(BUCKETS - 1),
            None,
            "last bucket is +Inf"
        );
    }

    #[test]
    fn cumulative_counts_are_monotone_and_end_at_total() {
        let mut h = HistogramSnapshot::default();
        for micros in [1, 3, 3, 1_000, 5_000_000] {
            h.record(micros);
        }
        let cumulative = h.cumulative();
        for window in cumulative.windows(2) {
            assert!(window[0] <= window[1], "cumulative counts are monotone");
        }
        assert_eq!(cumulative[BUCKETS - 1], h.count());
        // The observation at 1 µs lands below the first bound (2 µs).
        assert_eq!(cumulative[0], 1);
    }

    #[test]
    fn p999_separates_a_thin_tail_p99_misses() {
        // 500 fast observations and 1 slow one: p99's rank (496) stays in
        // the fast cluster, p99.9's rank (501) must reach the tail.
        let mut h = HistogramSnapshot::default();
        for _ in 0..500 {
            h.record(100);
        }
        h.record(60_000_000);
        assert!(h.percentile(0.99).unwrap() <= 128);
        assert_eq!(h.p999_micros(), Some(60_000_000));
        assert_eq!(h.percentile(1.0), Some(60_000_000));
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let mut a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        let mut all = HistogramSnapshot::default();
        for micros in [10, 500, 90_000] {
            a.record(micros);
            all.record(micros);
        }
        for micros in [20, 20, 7_000_000] {
            b.record(micros);
            all.record(micros);
        }
        a.merge(&b);
        assert_eq!(a, all);
        assert_eq!(a.count(), 6);
        assert_eq!(a.max_micros(), 7_000_000);
    }

    #[test]
    fn exact_bucket_boundary_lands_in_upper_bucket() {
        let mut h = HistogramSnapshot::default();
        h.record(1_024);
        assert_eq!(h.percentile(0.5), Some(1_024));
        h.record(1_023);
        assert_eq!(h.percentile(0.5), Some(1_024));
        assert_eq!(h.percentile(1.0), Some(1_024));
    }
}
