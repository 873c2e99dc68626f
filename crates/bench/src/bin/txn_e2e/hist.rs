//! Fixed-size latency histogram of the driver.
//!
//! Latencies are nanoseconds. Values below [`LINEAR`] have a bucket each;
//! above, every power of two is split into [`SUB`] equal buckets, so a
//! bucket is at most 1/64 = 1.6 % wide and a value read back from it is at
//! most 0.8 % off. The driver's memory is therefore constant however many
//! transactions a run measures, and recording costs one index computation
//! and one increment.

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
const LINEAR: u64 = 2 * SUB as u64;
/// Octaves above the linear region: covers up to 2^40 ns (18 minutes).
const OCTAVES: usize = 40 - (SUB_BITS as usize + 1);
const BUCKETS: usize = LINEAR as usize + OCTAVES * SUB;

/// One thread's latency distribution; merged across threads at the end.
pub struct LatencyHist {
    buckets: Box<[u64]>,
    count: u64,
}

fn bucket_of(ns: u64) -> usize {
    if ns < LINEAR {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    let sub = ((ns >> (exp - SUB_BITS)) as usize) & (SUB - 1);
    let idx = LINEAR as usize + (exp - SUB_BITS - 1) as usize * SUB + sub;
    idx.min(BUCKETS - 1)
}

/// Inclusive lower and exclusive upper bound of a bucket.
fn bounds_of(idx: usize) -> (f64, f64) {
    if idx < LINEAR as usize {
        return (idx as f64, idx as f64 + 1.0);
    }
    let above = idx - LINEAR as usize;
    let exp = (above / SUB) as u32 + SUB_BITS + 1;
    let width = (1u64 << (exp - SUB_BITS)) as f64;
    let lower = (1u64 << exp) as f64 + (above % SUB) as f64 * width;
    (lower, lower + width)
}

impl LatencyHist {
    pub fn new() -> Self {
        LatencyHist {
            buckets: vec![0; BUCKETS].into_boxed_slice(),
            count: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.count += 1;
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Quantile by nearest rank, interpolated by rank inside the bucket, in
    /// nanoseconds. Interpolation keeps the estimate continuous in the
    /// counts: it does not jump from bucket edge to bucket edge between
    /// runs.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n > 0 && seen + n >= rank {
                let (lower, upper) = bounds_of(idx);
                let inside = (rank - seen) as f64 - 0.5;
                return lower + (upper - lower) * inside / n as f64;
            }
            seen += n;
        }
        unreachable!("rank is within the recorded count")
    }

    /// Samples strictly above the bucket holding quantile `q` — a lower
    /// bound on how many samples the percentile has beyond it.
    pub fn samples_beyond(&self, q: f64) -> u64 {
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count.max(1));
        let mut seen = 0u64;
        for &n in self.buckets.iter() {
            seen += n;
            if seen >= rank {
                break;
            }
        }
        self.count - seen.min(self.count)
    }
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_range_and_bound_the_error() {
        let mut previous = 0;
        for ns in (0..4096u64).chain((12..40).flat_map(|e| {
            let base = 1u64 << e;
            [base - 1, base, base + 1, base + base / 3]
        })) {
            let idx = bucket_of(ns);
            let (lower, upper) = bounds_of(idx);
            assert!(
                lower <= ns as f64 && (ns as f64) < upper,
                "{ns} outside bucket {idx} [{lower}, {upper})"
            );
            if ns >= LINEAR {
                assert!((upper - lower) / lower <= 1.0 / SUB as f64 + 1e-12);
            }
            assert!(
                idx >= previous || ns < 4096,
                "bucket index must be monotone"
            );
            previous = idx;
        }
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let mut h = LatencyHist::new();
        for ns in 1..=100_000u64 {
            h.record(ns);
        }
        assert_eq!(h.count(), 100_000);
        for (q, exact) in [(0.5, 50_000.0), (0.99, 99_000.0)] {
            let got = h.quantile_ns(q);
            assert!((got - exact).abs() / exact < 0.01, "q{q}: {got} vs {exact}");
        }
        let beyond = h.samples_beyond(0.99);
        assert!((1..=1_000).contains(&beyond), "beyond p99: {beyond}");
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (LatencyHist::new(), LatencyHist::new());
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile_ns(1.0) > 990_000.0);
    }
}
