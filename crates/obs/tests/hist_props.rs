//! Property tests of the histogram contract: bucket boundaries contain
//! their values, merge is associative/commutative with an identity, and
//! exact percentiles match the nearest-rank definition.

use proptest::collection::vec;
use proptest::prelude::*;
use wsi_obs::{ExactHistogram, Histogram, HistogramSnapshot, Registry, BUCKETS};

fn fill(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every value lands in exactly one bucket, and that bucket's bounds
    /// contain it (boundaries are total over `u64` with no gaps/overlaps).
    #[test]
    fn bucket_bounds_contain_recorded_values(v in any::<u64>()) {
        let snap = fill(&[v]);
        let populated: Vec<usize> = (0..BUCKETS).filter(|&i| snap.buckets[i] > 0).collect();
        prop_assert_eq!(populated.len(), 1, "exactly one bucket populated");
        let (lo, hi) = HistogramSnapshot::bucket_bounds(populated[0]);
        prop_assert!(v >= lo, "{} below lower bound {}", v, lo);
        if let Some(hi) = hi {
            prop_assert!(v <= hi, "{} above upper bound {}", v, hi);
        }
    }

    /// Bucket upper bounds chain with no gaps: bucket i+1 starts exactly
    /// one past bucket i's upper bound.
    #[test]
    fn bucket_bounds_chain_without_gaps(i in 0usize..63) {
        let (_, hi) = HistogramSnapshot::bucket_bounds(i);
        let (next_lo, _) = HistogramSnapshot::bucket_bounds(i + 1);
        let hi = hi.expect("only the last bucket is unbounded");
        prop_assert_eq!(next_lo, hi + 1);
    }

    /// Merging snapshots is associative and commutative, with the empty
    /// snapshot as identity — the algebra that makes sharded aggregation
    /// order-independent.
    #[test]
    fn merge_is_associative_commutative_with_identity(
        a in vec(any::<u64>(), 0..20),
        b in vec(any::<u64>(), 0..20),
        c in vec(any::<u64>(), 0..20),
    ) {
        let (sa, sb, sc) = (fill(&a), fill(&b), fill(&c));

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);

        // a ⊕ b == b ⊕ a
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(ab, ba);

        // a ⊕ ∅ == a
        let mut with_id = sa.clone();
        with_id.merge(&HistogramSnapshot::empty());
        prop_assert_eq!(with_id, sa);

        // Merge of everything equals recording everything into one.
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(left, fill(&all));
    }

    /// `ExactHistogram::percentile` is the nearest-rank percentile over the
    /// sorted samples — the definition `wsi-sim`'s `LatencyStats` promises.
    #[test]
    fn exact_percentile_is_nearest_rank(
        values in vec(any::<u64>(), 1..50),
        p_thousandths in 0u64..=1000,
    ) {
        let p = p_thousandths as f64 / 1000.0;
        let mut e = ExactHistogram::new();
        for &v in &values {
            e.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        prop_assert_eq!(e.percentile(p), sorted[rank - 1]);
    }

    /// The bucketed estimate of a quantile is within the true value's
    /// bucket: never below the bucket's lower bound nor above its upper.
    #[test]
    fn bucketed_quantile_brackets_exact(values in vec(1u64..1_000_000, 1..50)) {
        let snap = fill(&values);
        let mut e = ExactHistogram::new();
        for &v in &values {
            e.record(v);
        }
        for p in [0.5, 0.9, 0.99, 1.0] {
            let truth = e.percentile(p);
            let est = snap.quantile(p);
            let (lo, hi) = HistogramSnapshot::bucket_bounds(
                (0..BUCKETS)
                    .find(|&i| {
                        let (l, h) = HistogramSnapshot::bucket_bounds(i);
                        truth >= l && h.is_none_or(|h| truth <= h)
                    })
                    .expect("bounds are total"),
            );
            prop_assert!(est >= lo as f64, "p{p}: estimate {est} below bucket [{lo}, {hi:?}]");
            if let Some(hi) = hi {
                prop_assert!(est <= hi as f64, "p{p}: estimate {est} above bucket [{lo}, {hi}]");
            }
        }
    }

    /// `Snapshot::quantile` (the registry-level lookup, including p999)
    /// brackets the exact nearest-rank percentile within one bucket — the
    /// same guarantee as the underlying histogram, reachable by name with
    /// no per-call-site bucket math.
    #[test]
    fn registry_snapshot_quantile_brackets_exact(values in vec(1u64..1_000_000, 1..80)) {
        let registry = Registry::new();
        let h = registry.histogram("txn_us");
        let mut e = ExactHistogram::new();
        for &v in &values {
            h.record(v);
            e.record(v);
        }
        let snap = registry.snapshot();
        prop_assert!(snap.quantile("absent", 0.5).is_none());
        for p in [0.5, 0.99, 0.999] {
            let truth = e.percentile(p);
            let est = snap.quantile("txn_us", p).expect("registered histogram");
            let (lo, hi) = HistogramSnapshot::bucket_bounds(HistogramSnapshot::bucket_of(truth));
            prop_assert!(est >= lo as f64, "p{p}: {est} below bucket [{lo}, {hi:?}]");
            if let Some(hi) = hi {
                prop_assert!(est <= hi as f64, "p{p}: {est} above bucket [{lo}, {hi}]");
            }
        }
    }

    /// Interval deltas reconstruct exactly: recording A then B, the delta
    /// between the cumulative snapshots equals a histogram that saw only B
    /// (buckets, count; min/max within bucket resolution) — the identity
    /// a per-interval percentile relies on.
    #[test]
    fn delta_since_recovers_the_interval(
        a in vec(1u64..1_000_000, 0..40),
        b in vec(1u64..1_000_000, 1..40),
    ) {
        let h = Histogram::new();
        for &v in &a {
            h.record(v);
        }
        let before = h.snapshot();
        for &v in &b {
            h.record(v);
        }
        let after = h.snapshot();
        let delta = after.delta_since(&before);
        let only_b = fill(&b);
        prop_assert_eq!(&delta.buckets, &only_b.buckets);
        prop_assert_eq!(delta.count, only_b.count);
        prop_assert_eq!(delta.sum, only_b.sum);
        // min/max are bucket-resolution approximations of the interval.
        let true_min = *b.iter().min().unwrap();
        let true_max = *b.iter().max().unwrap();
        let (min_lo, min_hi) = HistogramSnapshot::bucket_bounds(HistogramSnapshot::bucket_of(true_min));
        prop_assert!(delta.min >= min_lo && min_hi.is_none_or(|hi| delta.min <= hi));
        let (max_lo, max_hi) = HistogramSnapshot::bucket_bounds(HistogramSnapshot::bucket_of(true_max));
        prop_assert!(delta.max >= max_lo && max_hi.is_none_or(|hi| delta.max <= hi));
        // Interval quantiles bracket the interval's exact percentile within
        // one bucket (min/max clamping differs from a fresh histogram's by
        // at most the bucket width, so assert the bucket, not equality).
        let mut e = ExactHistogram::new();
        for &v in &b {
            e.record(v);
        }
        for p in [0.5, 0.999] {
            let truth = e.percentile(p);
            let est = delta.quantile(p);
            let (lo, hi) = HistogramSnapshot::bucket_bounds(HistogramSnapshot::bucket_of(truth));
            prop_assert!(est >= lo as f64, "p{p}: {est} below bucket [{lo}, {hi:?}]");
            if let Some(hi) = hi {
                prop_assert!(est <= hi as f64, "p{p}: {est} above bucket [{lo}, {hi}]");
            }
        }
    }
}
