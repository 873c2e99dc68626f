//! Latency histograms: lock-free log₂ buckets, plus the exact-sample
//! variant used by the deterministic simulator.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::metric::{thread_slot, PaddedU64, SHARDS};

/// Number of buckets in a [`Histogram`].
///
/// Bucket `0` holds the value `0`; bucket `i` (for `1 <= i < BUCKETS-1`)
/// holds values in `[2^(i-1), 2^i - 1]`; the last bucket is unbounded above.
/// With microsecond samples that spans sub-µs to ~146 years — every latency
/// this workspace can produce, at ≤ 2× relative resolution.
pub const BUCKETS: usize = 64;

/// One shard of a histogram: a full bucket array plus count/sum/min/max,
/// all plain relaxed atomics. `min`/`max` use `fetch_min`/`fetch_max`, so a
/// record is wait-free.
#[derive(Debug)]
struct HistShard {
    buckets: [AtomicU64; BUCKETS],
    count: PaddedU64,
    sum: PaddedU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistShard {
    fn new() -> Self {
        HistShard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: PaddedU64::default(),
            sum: PaddedU64::default(),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Maps a value to its bucket index. Total and monotone: every `u64` has
/// exactly one bucket.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive `[lower, upper]` value range of bucket `i` (`upper` is `None`
/// for the unbounded last bucket).
pub(crate) fn bucket_bounds(i: usize) -> (u64, Option<u64>) {
    match i {
        0 => (0, Some(0)),
        _ if i == BUCKETS - 1 => (1u64 << (BUCKETS - 2), None),
        _ => (1u64 << (i - 1), Some((1u64 << i) - 1)),
    }
}

/// A lock-free, zero-allocation latency histogram with log₂ buckets.
///
/// Recording is a handful of relaxed atomic operations on a per-thread
/// shard; reading aggregates the shards into a [`HistogramSnapshot`].
/// Cloning shares the underlying storage (a clone is a second handle).
#[derive(Clone)]
pub struct Histogram {
    shards: Arc<Vec<HistShard>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            shards: Arc::new((0..SHARDS).map(|_| HistShard::new()).collect()),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample (conventionally microseconds, but any unit works —
    /// the histogram is unit-agnostic).
    #[inline]
    pub fn record(&self, value: u64) {
        let shard = &self.shards[thread_slot()];
        shard.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        shard.count.0.fetch_add(1, Ordering::Relaxed);
        shard.sum.0.fetch_add(value, Ordering::Relaxed);
        shard.min.fetch_min(value, Ordering::Relaxed);
        shard.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Aggregates every shard into a point-in-time snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty();
        for shard in self.shards.iter() {
            let count = shard.count.0.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            snap.count += count;
            snap.sum = snap.sum.wrapping_add(shard.sum.0.load(Ordering::Relaxed));
            snap.min = snap.min.min(shard.min.load(Ordering::Relaxed));
            snap.max = snap.max.max(shard.max.load(Ordering::Relaxed));
            for (i, b) in shard.buckets.iter().enumerate() {
                snap.buckets[i] += b.load(Ordering::Relaxed);
            }
        }
        if snap.count == 0 {
            snap.min = 0;
        }
        snap
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.count.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count)
            .field("mean", &snap.mean())
            .field("p99", &snap.quantile(0.99))
            .finish()
    }
}

/// An owned, mergeable aggregate of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`BUCKETS`] for the bucket layout).
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all sample values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (the merge identity).
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Inclusive `[lower, upper]` bounds of bucket `i`; `upper` is `None`
    /// for the unbounded last bucket.
    pub fn bucket_bounds(i: usize) -> (u64, Option<u64>) {
        bucket_bounds(i)
    }

    /// The bucket a value falls into.
    pub fn bucket_of(value: u64) -> usize {
        bucket_index(value)
    }

    /// Merges `other` into `self`. Associative and commutative, with
    /// [`HistogramSnapshot::empty`] as identity — shards, threads, and
    /// processes can be combined in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        // min/max only mean anything when that side has samples: an empty
        // snapshot's min may be the `u64::MAX` sentinel or the normalized 0,
        // and neither must leak into the aggregate.
        if other.count > 0 {
            self.min = if self.count == 0 {
                other.min
            } else {
                self.min.min(other.min)
            };
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        // Wrapping, to match the recorder's atomic `fetch_add`: the sum of
        // extreme samples may exceed `u64`, and a wrapped aggregate must
        // merge to the same wrapped aggregate.
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// The interval between an `earlier` cumulative snapshot of the same
    /// histogram and this one: bucket-wise difference, so interval
    /// quantiles come straight from [`HistogramSnapshot::quantile`] on the
    /// result. Cumulative `min`/`max` cannot be de-accumulated, so the
    /// interval's are approximated by the bounds of its outermost nonempty
    /// buckets — the same ≤ 2× relative error the bucket layout already
    /// carries.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut delta = HistogramSnapshot::empty();
        let mut lo = None;
        let mut hi = None;
        for i in 0..BUCKETS {
            let n = self.buckets[i].saturating_sub(earlier.buckets[i]);
            delta.buckets[i] = n;
            if n > 0 {
                lo.get_or_insert(i);
                hi = Some(i);
            }
        }
        delta.count = self.count.saturating_sub(earlier.count);
        delta.sum = self.sum.wrapping_sub(earlier.sum);
        if let (Some(lo), Some(hi)) = (lo, hi) {
            delta.min = bucket_bounds(lo).0;
            delta.max = bucket_bounds(hi).1.unwrap_or(self.max);
        }
        delta
    }

    /// Normalizes the empty-snapshot `min` sentinel for exposition.
    pub(crate) fn min_for_display(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated quantile (`0.0 ..= 1.0`) by nearest rank over the buckets,
    /// linearly interpolated inside the selected bucket and clamped to the
    /// recorded `[min, max]`. Error is bounded by the bucket width (≤ 2×
    /// relative), and the first/last buckets answer exactly via min/max.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank, matching ExactHistogram::percentile.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lower, upper) = bucket_bounds(i);
                let upper = upper.unwrap_or(self.max.max(lower)) as f64;
                let lower = lower as f64;
                // Position of the rank inside this bucket, in (0, 1].
                let frac = (rank - seen) as f64 / n as f64;
                let est = lower + (upper - lower) * frac;
                return est.clamp(self.min as f64, self.max as f64);
            }
            seen += n;
        }
        self.max as f64
    }
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

/// An exact latency distribution: every sample kept, percentiles computed
/// by nearest rank over the sorted samples.
///
/// This is the measurement type the deterministic simulator uses (a few
/// hundred thousand samples per run, 8 bytes each), ported here so the
/// simulator and the live [`Histogram`] share one percentile definition:
/// `rank = ceil(p · n)`, clamped to `[1, n]`, 1-indexed into the sorted
/// samples. Not thread-safe by design — recording needs `&mut self`.
#[derive(Debug, Clone, Default)]
pub struct ExactHistogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl ExactHistogram {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let sum: u128 = self.samples.iter().map(|&v| v as u128).sum();
        sum as f64 / self.samples.len() as f64
    }

    /// Exact percentile (`0.0 ..= 1.0`) by the nearest-rank method (0 when
    /// empty).
    pub fn percentile(&mut self, p: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.samples.len() as f64).ceil() as usize).clamp(1, self.samples.len());
        self.samples[rank - 1]
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_total_and_monotone() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        let mut prev = 0;
        for shift in 0..64 {
            let i = bucket_index(1u64 << shift);
            assert!(i >= prev);
            prev = i;
        }
    }

    #[test]
    fn bounds_contain_their_values() {
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(v >= lo, "value {v} below bucket {i} lower bound {lo}");
            if let Some(hi) = hi {
                assert!(v <= hi, "value {v} above bucket {i} upper bound {hi}");
            }
        }
    }

    #[test]
    fn snapshot_aggregates_and_quantiles_bound_truth() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 1000);
        assert_eq!(snap.sum, 500_500);
        let p50 = snap.quantile(0.5);
        // Log2 buckets: the answer is within one bucket (2×) of the truth.
        assert!((250.0..=1000.0).contains(&p50), "p50 estimate {p50}");
        assert_eq!(snap.quantile(1.0), 1000.0);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.99), 0.0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap.min_for_display(), 0);
    }

    #[test]
    fn merge_identity_and_commutativity() {
        let a = {
            let h = Histogram::new();
            for v in [1u64, 5, 9, 1000] {
                h.record(v);
            }
            h.snapshot()
        };
        let b = {
            let h = Histogram::new();
            for v in [2u64, 4, 1 << 30] {
                h.record(v);
            }
            h.snapshot()
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let mut with_id = a.clone();
        with_id.merge(&HistogramSnapshot::empty());
        assert_eq!(with_id, a);
    }

    #[test]
    fn exact_percentiles_match_seed_semantics() {
        let mut e = ExactHistogram::new();
        for v in [5u64, 1, 3, 2, 4] {
            e.record(v);
        }
        assert_eq!(e.count(), 5);
        assert!((e.mean() - 3.0).abs() < 1e-9);
        assert_eq!(e.percentile(0.5), 3);
        assert_eq!(e.percentile(0.0), 1);
        assert_eq!(e.percentile(1.0), 5);
        assert_eq!(e.max(), 5);
        // Recording after a percentile re-sorts.
        e.record(0);
        assert_eq!(e.percentile(0.0), 0);
    }
}
