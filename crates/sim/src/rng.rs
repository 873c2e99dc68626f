//! Seeded randomness for simulations.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::time::SimTime;

/// A deterministic random source for one simulation (or one simulated
/// component).
///
/// Thin wrapper over a seeded [`SmallRng`] with the draws the workloads
/// need. Use [`SimRng::fork`] to derive independent streams for independent
/// components so that adding draws to one does not perturb another — the
/// standard trick for keeping parameter sweeps comparable across runs.
#[derive(Debug, Clone)]
pub struct SimRng {
    rng: SmallRng,
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            rng: SmallRng::seed_from_u64(seed),
            seed,
        }
    }

    /// Derives an independent stream labelled `stream`.
    pub fn fork(&self, stream: u64) -> SimRng {
        // SplitMix64-style mixing keeps forked seeds well-separated even for
        // consecutive stream ids.
        let mut z = self.seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        SimRng::new(z ^ (z >> 31))
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.rng.gen_range(0..n)
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.gen_range(lo..=hi)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Exponentially distributed duration with the given mean — the standard
    /// inter-arrival model for open-loop traffic.
    pub fn exponential(&mut self, mean: SimTime) -> SimTime {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        SimTime((-u.ln() * mean.as_us() as f64).round() as u64)
    }

    /// Duration uniformly jittered within `±fraction` of `base` (service
    /// time noise).
    pub fn jittered(&mut self, base: SimTime, fraction: f64) -> SimTime {
        let f = fraction.clamp(0.0, 1.0);
        let spread = base.as_us() as f64 * f;
        let delta = self.rng.gen_range(-spread..=spread);
        SimTime(((base.as_us() as f64) + delta).max(0.0).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        let a = SimRng::new(7);
        let mut parent = SimRng::new(7);
        parent.below(10); // consume from the parent
        let f1 = a.fork(3);
        let f2 = parent.fork(3);
        let mut f1 = f1;
        let mut f2 = f2;
        assert_eq!(f1.below(1 << 30), f2.below(1 << 30));
    }

    #[test]
    fn forks_differ_across_streams() {
        let root = SimRng::new(7);
        let mut s1 = root.fork(1);
        let mut s2 = root.fork(2);
        let a: Vec<u64> = (0..10).map(|_| s1.below(1 << 20)).collect();
        let b: Vec<u64> = (0..10).map(|_| s2.below(1 << 20)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut rng = SimRng::new(42);
        let mean = SimTime::from_ms(10);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.exponential(mean).as_us()).sum();
        let observed = total as f64 / n as f64;
        assert!((observed - 10_000.0).abs() < 300.0, "mean {observed}");
    }

    #[test]
    fn jitter_stays_in_band() {
        let mut rng = SimRng::new(1);
        let base = SimTime(1_000);
        for _ in 0..1000 {
            let v = rng.jittered(base, 0.2).as_us();
            assert!((800..=1200).contains(&v), "{v}");
        }
    }

    #[test]
    fn bounds_respected() {
        let mut rng = SimRng::new(1);
        for _ in 0..1000 {
            assert!(rng.below(5) < 5);
            let x = rng.between(3, 7);
            assert!((3..=7).contains(&x));
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
