//! Transactional YCSB-like workload generation (§6.1).
//!
//! "We modified YCSB to add support for transactions, which touch multiple
//! rows. We defined two types of transactions: *read-only*, where all
//! operations are only read, and *complex*, which consists of 50% read
//! and 50% write operations. Each transaction operates on n rows, where n is
//! a uniform random number between 0 and 20. Based on these types of
//! transactions, we define a *complex* workload, consisting of only complex
//! transactions, and a *mixed* workload consisting of 50% read-only and
//! 50% complex transactions."
//!
//! Rows are selected with one of three distributions (§6.4–6.5): uniform,
//! zipfian ("some items are extremely popular"), or zipfianLatest ("the
//! popular items … are among the recently inserted data"). ZipfianLatest
//! workloads also *insert* new rows so the hot spot keeps moving.
//!
//! # Example
//!
//! ```
//! use wsi_workload::{WorkloadSpec, WorkloadGenerator, KeyDistribution, Mix};
//! use wsi_sim::SimRng;
//!
//! let spec = WorkloadSpec {
//!     rows: 10_000,
//!     distribution: KeyDistribution::Zipfian,
//!     mix: Mix::Mixed,
//!     ..WorkloadSpec::paper_default()
//! };
//! let mut gen = WorkloadGenerator::new(spec, SimRng::new(42));
//! let txn = gen.next_txn();
//! assert!(txn.reads.len() + txn.writes.len() <= 20);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

use wsi_sim::{LatestGenerator, SimRng, Zipfian};

/// How rows are selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDistribution {
    /// Uniform over the key space — "evenly distributes the load on all the
    /// data servers … the abort rate will be close to zero" (§6.4).
    Uniform,
    /// YCSB zipfian — "some items are extremely popular" (§6.5). Popularity
    /// rank maps directly to row id, so hot rows are block-adjacent and the
    /// data servers' block caches capture them (the effect §6.5 reports:
    /// "random reads are most likely to be serviced from the data already
    /// loaded into data servers"); the cluster's hashed routing still
    /// spreads them over servers.
    Zipfian,
    /// YCSB latest — hot keys are the most recently inserted (§6.5).
    ZipfianLatest,
}

/// Transaction type mix of the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Only complex transactions (used to stress the status oracle, §6.3).
    Complex,
    /// 50% read-only, 50% complex (the §6.5 concurrency experiments).
    Mixed,
}

/// The kind of a generated transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnKind {
    /// All operations are reads; never aborts under either isolation level.
    ReadOnly,
    /// 50% reads, 50% writes.
    Complex,
}

/// One generated transaction: the rows it reads and writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnTemplate {
    /// The transaction type.
    pub kind: TxnKind,
    /// Rows read (deduplicated).
    pub reads: Vec<u64>,
    /// Rows written (deduplicated; disjoint handling is up to the engine —
    /// a row both read and written appears in both sets).
    pub writes: Vec<u64>,
    /// Rows in `writes` that are fresh inserts (zipfianLatest only).
    pub inserts: u64,
}

impl TxnTemplate {
    /// Returns `true` if the transaction has no writes.
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }

    /// Total operation count.
    pub fn ops(&self) -> usize {
        self.reads.len() + self.writes.len()
    }
}

/// Workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Key-space size (the paper uses 20 M rows for the conflict
    /// experiments).
    pub rows: u64,
    /// Row-selection distribution.
    pub distribution: KeyDistribution,
    /// Transaction-type mix.
    pub mix: Mix,
    /// Upper bound of the per-transaction row count (`n ∈ U[0, max]`).
    pub max_txn_rows: u64,
    /// Under [`KeyDistribution::ZipfianLatest`], the probability that a
    /// write targets a *new* row, growing the key space — 0.20 by default,
    /// matching YCSB workload D's insert share once only half the ops are
    /// writes (≈10% of all operations).
    pub insert_fraction: f64,
}

impl WorkloadSpec {
    /// The paper's parameters: 20 M rows, `n ∈ U[0, 20]`.
    pub fn paper_default() -> Self {
        WorkloadSpec {
            rows: 20_000_000,
            distribution: KeyDistribution::Uniform,
            mix: Mix::Complex,
            max_txn_rows: 20,
            insert_fraction: 0.20,
        }
    }
}

enum KeyGen {
    Uniform,
    Zipfian(Zipfian),
    Latest(LatestGenerator),
}

/// Deterministic transaction generator for one client (or one shared
/// stream).
pub struct WorkloadGenerator {
    spec: WorkloadSpec,
    rng: SimRng,
    keys: KeyGen,
    /// Current key-space size (grows under zipfianLatest inserts).
    rows: u64,
}

impl WorkloadGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if `spec.rows == 0`.
    pub fn new(spec: WorkloadSpec, rng: SimRng) -> Self {
        assert!(spec.rows > 0, "workload needs a non-empty key space");
        let keys = match spec.distribution {
            KeyDistribution::Uniform => KeyGen::Uniform,
            KeyDistribution::Zipfian => KeyGen::Zipfian(Zipfian::new(spec.rows)),
            KeyDistribution::ZipfianLatest => KeyGen::Latest(LatestGenerator::new(spec.rows)),
        };
        WorkloadGenerator {
            rows: spec.rows,
            spec,
            rng,
            keys,
        }
    }

    /// Current key-space size (grows with inserts).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    fn next_key(&mut self) -> u64 {
        match &mut self.keys {
            KeyGen::Uniform => self.rng.below(self.rows),
            KeyGen::Zipfian(z) => z.next(&mut self.rng),
            KeyGen::Latest(l) => l.next(&mut self.rng),
        }
    }

    fn insert_key(&mut self) -> u64 {
        let key = self.rows;
        self.rows += 1;
        if let KeyGen::Latest(l) = &mut self.keys {
            l.grow(self.rows);
        }
        key
    }

    /// Generates the next transaction.
    pub fn next_txn(&mut self) -> TxnTemplate {
        let kind = match self.spec.mix {
            Mix::Complex => TxnKind::Complex,
            Mix::Mixed => {
                if self.rng.chance(0.5) {
                    TxnKind::ReadOnly
                } else {
                    TxnKind::Complex
                }
            }
        };
        let n = self.rng.between(0, self.spec.max_txn_rows);
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        let mut inserts = 0;
        for _ in 0..n {
            let is_write = kind == TxnKind::Complex && self.rng.chance(0.5);
            if is_write {
                let key = if self.spec.distribution == KeyDistribution::ZipfianLatest
                    && self.rng.chance(self.spec.insert_fraction)
                {
                    inserts += 1;
                    self.insert_key()
                } else {
                    self.next_key()
                };
                if !writes.contains(&key) {
                    writes.push(key);
                }
            } else {
                let key = self.next_key();
                if !reads.contains(&key) {
                    reads.push(key);
                }
            }
        }
        TxnTemplate {
            kind,
            reads,
            writes,
            inserts,
        }
    }
}

impl std::fmt::Debug for WorkloadGenerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadGenerator")
            .field("spec", &self.spec)
            .field("rows", &self.rows)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(distribution: KeyDistribution, mix: Mix) -> WorkloadSpec {
        WorkloadSpec {
            rows: 10_000,
            distribution,
            mix,
            ..WorkloadSpec::paper_default()
        }
    }

    #[test]
    fn complex_mix_is_all_complex() {
        let mut g =
            WorkloadGenerator::new(spec(KeyDistribution::Uniform, Mix::Complex), SimRng::new(1));
        for _ in 0..200 {
            assert_eq!(g.next_txn().kind, TxnKind::Complex);
        }
    }

    #[test]
    fn mixed_mix_is_roughly_half_read_only() {
        let mut g =
            WorkloadGenerator::new(spec(KeyDistribution::Uniform, Mix::Mixed), SimRng::new(2));
        let ro = (0..10_000)
            .filter(|_| g.next_txn().kind == TxnKind::ReadOnly)
            .count();
        assert!((4_500..5_500).contains(&ro), "read-only share {ro}/10000");
    }

    #[test]
    fn read_only_txns_never_write() {
        let mut g =
            WorkloadGenerator::new(spec(KeyDistribution::Zipfian, Mix::Mixed), SimRng::new(3));
        for _ in 0..2_000 {
            let t = g.next_txn();
            if t.kind == TxnKind::ReadOnly {
                assert!(t.writes.is_empty());
                assert!(t.is_read_only());
            }
        }
    }

    #[test]
    fn row_count_bounded_by_spec() {
        let mut g =
            WorkloadGenerator::new(spec(KeyDistribution::Uniform, Mix::Complex), SimRng::new(4));
        let mut saw_zero = false;
        let mut saw_large = false;
        for _ in 0..2_000 {
            let t = g.next_txn();
            assert!(t.ops() <= 20);
            saw_zero |= t.ops() == 0;
            saw_large |= t.ops() >= 18;
        }
        assert!(saw_zero, "n=0 transactions must occur");
        assert!(saw_large, "large transactions must occur");
    }

    #[test]
    fn complex_ops_are_roughly_half_writes() {
        let mut g =
            WorkloadGenerator::new(spec(KeyDistribution::Uniform, Mix::Complex), SimRng::new(5));
        let (mut reads, mut writes) = (0usize, 0usize);
        for _ in 0..5_000 {
            let t = g.next_txn();
            reads += t.reads.len();
            writes += t.writes.len();
        }
        let share = writes as f64 / (reads + writes) as f64;
        assert!((0.45..0.55).contains(&share), "write share {share}");
    }

    #[test]
    fn keys_stay_in_range() {
        for dist in [
            KeyDistribution::Uniform,
            KeyDistribution::Zipfian,
            KeyDistribution::ZipfianLatest,
        ] {
            let mut g = WorkloadGenerator::new(spec(dist, Mix::Complex), SimRng::new(6));
            for _ in 0..2_000 {
                let t = g.next_txn();
                let bound = g.rows();
                for &k in t.reads.iter().chain(&t.writes) {
                    assert!(k < bound, "{k} out of range under {dist:?}");
                }
            }
        }
    }

    #[test]
    fn zipfian_concentrates_traffic() {
        let mut g =
            WorkloadGenerator::new(spec(KeyDistribution::Zipfian, Mix::Complex), SimRng::new(7));
        let mut counts = std::collections::HashMap::new();
        for _ in 0..5_000 {
            for k in g.next_txn().reads {
                *counts.entry(k).or_insert(0u64) += 1;
            }
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max > 100, "hottest key only {max} hits");
    }

    #[test]
    fn latest_inserts_grow_key_space_and_attract_traffic() {
        let s = WorkloadSpec {
            insert_fraction: 0.2,
            ..spec(KeyDistribution::ZipfianLatest, Mix::Complex)
        };
        let mut g = WorkloadGenerator::new(s, SimRng::new(8));
        for _ in 0..5_000 {
            g.next_txn();
        }
        assert!(g.rows() > 10_000, "inserts must grow the key space");
        // Fresh traffic should hit the new tail.
        let tail_start = g.rows() - 500;
        let mut tail_hits = 0;
        for _ in 0..1_000 {
            let t = g.next_txn();
            tail_hits += t
                .reads
                .iter()
                .chain(&t.writes)
                .filter(|&&k| k >= tail_start)
                .count();
        }
        assert!(tail_hits > 100, "tail hits {tail_hits}");
    }

    #[test]
    fn uniform_never_inserts() {
        let mut g =
            WorkloadGenerator::new(spec(KeyDistribution::Uniform, Mix::Complex), SimRng::new(9));
        for _ in 0..1_000 {
            assert_eq!(g.next_txn().inserts, 0);
        }
        assert_eq!(g.rows(), 10_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let mk =
            || WorkloadGenerator::new(spec(KeyDistribution::Zipfian, Mix::Mixed), SimRng::new(10));
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..100 {
            assert_eq!(a.next_txn(), b.next_txn());
        }
    }
}
