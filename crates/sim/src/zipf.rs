//! YCSB's skewed key generators (Cooper et al., SoCC'10).
//!
//! The paper's concurrency experiments (§6.5) use YCSB's *zipfian*
//! distribution — "some items are extremely popular" — and *zipfianLatest*,
//! where "the popular items … are among the recently inserted data". These
//! generators reproduce YCSB's exact constructions: Gray et al.'s rejection-
//! free zipfian sampler and the latest variant that mirrors the zipfian
//! onto the tail of a growing key space.

use crate::rng::SimRng;

/// The YCSB default skew parameter.
pub const YCSB_ZIPFIAN_CONSTANT: f64 = 0.99;

/// Zipfian generator over `[0, items)`: rank 0 is the most popular.
///
/// Uses the Gray et al. "Quickly generating billion-record synthetic
/// databases" algorithm, as in YCSB: O(n) precomputation of `zeta(n)`, O(1)
/// per sample. Supports growing the item count incrementally (needed by
/// [`LatestGenerator`]), extending `zeta` rather than recomputing it.
#[derive(Debug, Clone)]
pub struct Zipfian {
    items: u64,
    zeta2theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

fn zeta_range(from: u64, to: u64, theta: f64, base: f64) -> f64 {
    let mut sum = base;
    for i in from..to {
        sum += 1.0 / ((i + 1) as f64).powf(theta);
    }
    sum
}

impl Zipfian {
    /// Creates a generator over `[0, items)` with the YCSB constant 0.99.
    ///
    /// # Panics
    ///
    /// Panics if `items == 0`.
    pub fn new(items: u64) -> Self {
        assert!(items > 0, "zipfian needs at least one item");
        let theta = YCSB_ZIPFIAN_CONSTANT;
        let zeta2theta = zeta_range(0, 2.min(items), theta, 0.0);
        let zetan = zeta_range(0, items, theta, 0.0);
        let mut z = Zipfian {
            items,
            zeta2theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: 0.0,
        };
        z.recompute_eta();
        z
    }

    fn recompute_eta(&mut self) {
        self.eta = (1.0 - (2.0 / self.items as f64).powf(1.0 - YCSB_ZIPFIAN_CONSTANT))
            / (1.0 - self.zeta2theta / self.zetan);
    }

    /// Number of items currently covered.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Grows the item space to `items`, extending `zeta` incrementally.
    ///
    /// Shrinking is not supported (YCSB never removes items); calls with a
    /// smaller count are ignored.
    pub fn grow(&mut self, items: u64) {
        if items <= self.items {
            return;
        }
        self.zetan = zeta_range(self.items, items, YCSB_ZIPFIAN_CONSTANT, self.zetan);
        self.items = items;
        self.recompute_eta();
    }

    /// Draws a rank in `[0, items)`; rank 0 is the hottest.
    pub fn next(&mut self, rng: &mut SimRng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(YCSB_ZIPFIAN_CONSTANT) {
            return 1;
        }
        let rank = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.items - 1)
    }
}

/// The "latest" distribution: zipfian-skewed toward the most recently
/// inserted key (YCSB's `SkewedLatestGenerator`). Key `max - 1` is the
/// hottest; inserts move the hot spot.
#[derive(Debug, Clone)]
pub struct LatestGenerator {
    zipf: Zipfian,
}

impl LatestGenerator {
    /// Creates a generator over the current key space `[0, items)`.
    pub fn new(items: u64) -> Self {
        LatestGenerator {
            zipf: Zipfian::new(items),
        }
    }

    /// Records that the key space grew to `items` (after inserts).
    pub fn grow(&mut self, items: u64) {
        self.zipf.grow(items);
    }

    /// Current key-space size.
    pub fn items(&self) -> u64 {
        self.zipf.items()
    }

    /// Draws a key in `[0, items)`, skewed toward `items - 1`.
    pub fn next(&mut self, rng: &mut SimRng) -> u64 {
        let items = self.zipf.items();
        items - 1 - self.zipf.next(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frequencies(samples: &[u64], items: u64) -> Vec<u64> {
        let mut counts = vec![0u64; items as usize];
        for &s in samples {
            counts[s as usize] += 1;
        }
        counts
    }

    #[test]
    fn zipfian_rank_zero_is_hottest() {
        let mut z = Zipfian::new(1000);
        let mut rng = SimRng::new(1);
        let samples: Vec<u64> = (0..50_000).map(|_| z.next(&mut rng)).collect();
        let counts = frequencies(&samples, 1000);
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[10]);
        assert!(
            counts[0] > samples.len() as u64 / 20,
            "rank 0 should take >5%"
        );
        assert!(samples.iter().all(|&s| s < 1000));
    }

    #[test]
    fn grow_matches_fresh_generator() {
        let mut grown = Zipfian::new(100);
        grown.grow(1000);
        let fresh = Zipfian::new(1000);
        assert!((grown.zetan - fresh.zetan).abs() < 1e-9);
        assert!((grown.eta - fresh.eta).abs() < 1e-9);
        assert_eq!(grown.items(), 1000);
        // Shrinking is a no-op.
        grown.grow(10);
        assert_eq!(grown.items(), 1000);
    }

    #[test]
    fn latest_prefers_recent_keys() {
        let mut l = LatestGenerator::new(1000);
        let mut rng = SimRng::new(4);
        let samples: Vec<u64> = (0..20_000).map(|_| l.next(&mut rng)).collect();
        let newest_hits = samples.iter().filter(|&&k| k == 999).count();
        let oldest_hits = samples.iter().filter(|&&k| k < 100).count();
        assert!(
            newest_hits > 1000,
            "newest key must dominate: {newest_hits}"
        );
        assert!(newest_hits > oldest_hits);
    }

    #[test]
    fn latest_follows_inserts() {
        let mut l = LatestGenerator::new(100);
        let mut rng = SimRng::new(5);
        l.grow(200);
        let samples: Vec<u64> = (0..5_000).map(|_| l.next(&mut rng)).collect();
        assert!(samples.iter().all(|&k| k < 200));
        let hot = samples.iter().filter(|&&k| k >= 190).count();
        assert!(hot > 2_000, "hot spot must move to the new tail: {hot}");
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_items_rejected() {
        let _ = Zipfian::new(0);
    }
}
