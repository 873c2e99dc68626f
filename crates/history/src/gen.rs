//! Random history generation, for fuzzing isolation levels.
//!
//! The benches and property tests across this workspace need plausible
//! concurrent histories; this module is the shared generator. Histories are
//! produced by simulating a population of in-flight transactions that
//! interleave reads, writes, and commits — the same shape the paper's
//! workloads produce, scaled down to the handful of items the analysis
//! tooling can exhaustively check.

use wsi_core::{CommitOutcome, IsolationLevel};

use crate::accept;
use crate::ops::{History, Op, TxnId};

/// Configuration for [`generate`].
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Number of transactions.
    pub txns: u32,
    /// Number of distinct items (small keeps conflicts frequent).
    pub items: u32,
    /// Maximum concurrently live transactions.
    pub max_live: usize,
    /// Probability (×1000) that a live transaction performs another
    /// operation rather than committing.
    pub continue_per_mille: u32,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            txns: 10,
            items: 4,
            max_live: 4,
            continue_per_mille: 600,
        }
    }
}

/// A tiny deterministic PRNG (xorshift*), so the crate needs no `rand`
/// dependency and generated histories are stable across platforms.
#[derive(Debug, Clone)]
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Generates a random interleaved history.
///
/// Every transaction commits in the generated text — feed the result through
/// [`accept::replay`] to find out what an isolation level would actually do
/// with it, or through [`filter_accepted`] to rewrite refused commits into
/// aborts.
///
/// # Example
///
/// ```
/// use wsi_history::gen::{generate, GenConfig};
///
/// let h = generate(GenConfig::default(), 42);
/// assert_eq!(h.committed().len(), 10);
/// assert_eq!(generate(GenConfig::default(), 42), h); // deterministic
/// ```
pub fn generate(config: GenConfig, seed: u64) -> History {
    let mut rng = XorShift::new(seed);
    let mut ops = Vec::new();
    let mut live: Vec<u32> = Vec::new();
    let mut next_txn = 1u32;
    while next_txn <= config.txns || !live.is_empty() {
        let can_start = next_txn <= config.txns && live.len() < config.max_live;
        if can_start && (live.is_empty() || rng.below(3) == 0) {
            live.push(next_txn);
            next_txn += 1;
            continue;
        }
        if live.is_empty() {
            continue;
        }
        let pick = rng.below(live.len() as u64) as usize;
        let txn = TxnId(live[pick]);
        if rng.below(1000) < u64::from(config.continue_per_mille) {
            let item = format!("i{}", rng.below(u64::from(config.items)));
            if rng.below(2) == 0 {
                ops.push(Op::Read(txn, item));
            } else {
                ops.push(Op::Write(txn, item));
            }
        } else {
            ops.push(Op::Commit(txn));
            live.remove(pick);
        }
    }
    History::new(ops)
}

/// Rewrites a history so it is *exactly* what `level` would execute: every
/// commit the level's oracle refuses becomes an abort.
///
/// The result is an authentic execution of the level — useful for
/// generating counterexample corpora (run under [`IsolationLevel::Snapshot`]
/// and keep the non-serializable outputs) or regression seeds.
pub fn filter_accepted(history: &History, level: IsolationLevel) -> History {
    let replay = accept::replay(history, level);
    let ops = history
        .ops()
        .iter()
        .map(|op| match op {
            Op::Commit(t) => {
                let refused = matches!(
                    replay.txns.get(t).and_then(|r| r.outcome),
                    Some(CommitOutcome::Aborted(_))
                );
                if refused {
                    Op::Abort(*t)
                } else {
                    op.clone()
                }
            }
            other => other.clone(),
        })
        .collect();
    History::new(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{anomaly, dsg};

    #[test]
    fn generates_requested_transaction_count() {
        for seed in 0..20 {
            let h = generate(GenConfig::default(), seed);
            assert_eq!(h.committed().len(), 10, "seed {seed}");
        }
    }

    #[test]
    fn respects_live_bound() {
        let cfg = GenConfig {
            max_live: 2,
            txns: 30,
            ..GenConfig::default()
        };
        let h = generate(cfg, 7);
        // Walk the ops counting live transactions.
        let mut live = std::collections::HashSet::new();
        let mut seen = std::collections::HashSet::new();
        for op in h.ops() {
            let t = op.txn();
            if seen.insert(t) {
                live.insert(t);
            }
            assert!(live.len() <= 2, "live bound violated");
            if matches!(op, Op::Commit(_)) {
                live.remove(&t);
            }
        }
    }

    #[test]
    fn filtered_wsi_and_ssi_histories_are_always_serializable() {
        for level in [
            IsolationLevel::WriteSnapshot,
            IsolationLevel::SerializableSnapshot,
        ] {
            for seed in 0..200 {
                let raw = generate(GenConfig::default(), seed);
                let executed = filter_accepted(&raw, level);
                assert!(
                    dsg::is_serializable(&executed),
                    "{level:?} seed {seed}: {executed}"
                );
            }
        }
    }

    #[test]
    fn filtered_si_histories_can_exhibit_write_skew() {
        let mut found = false;
        for seed in 0..500 {
            let raw = generate(GenConfig::default(), seed);
            let executed = filter_accepted(&raw, IsolationLevel::Snapshot);
            if anomaly::has_write_skew(&executed) {
                found = true;
                break;
            }
        }
        assert!(found, "500 seeds should produce at least one write skew");
    }

    #[test]
    fn filter_only_touches_refused_commits() {
        let raw = generate(GenConfig::default(), 3);
        let filtered = filter_accepted(&raw, IsolationLevel::WriteSnapshot);
        assert_eq!(raw.ops().len(), filtered.ops().len());
        for (a, b) in raw.ops().iter().zip(filtered.ops()) {
            match (a, b) {
                (Op::Commit(x), Op::Abort(y)) => assert_eq!(x, y),
                (a, b) => assert_eq!(a, b),
            }
        }
    }
}
