//! Property tests of the status-oracle core.
//!
//! Invariants checked over randomized schedules:
//!
//! * **Algorithm 3 is conservative**: a memory-bounded oracle never admits a
//!   commit the exact (unbounded) oracle refuses, at any capacity.
//! * **First-committer-wins**: of two conflicting requests, whichever
//!   reaches the oracle first commits.
//! * **Read-only requests never abort** and never consume commit
//!   timestamps.

use proptest::prelude::*;
use writesnap::core::{CommitRequest, IsolationLevel, RowId, StatusOracleCore, Timestamp};

/// A random transactional schedule over a small row space: each entry is
/// (begin-slack, read rows, write rows); transactions are begun in order and
/// committed after `slack` later begins, giving overlapping lifetimes.
#[derive(Debug, Clone)]
struct Schedule {
    txns: Vec<(usize, Vec<u64>, Vec<u64>)>,
}

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    prop::collection::vec(
        (
            0usize..3,
            prop::collection::vec(0u64..12, 0..4),
            prop::collection::vec(0u64..12, 0..4),
        ),
        1..20,
    )
    .prop_map(|txns| Schedule { txns })
}

fn rows(ids: &[u64]) -> Vec<RowId> {
    ids.iter().map(|&i| RowId(i)).collect()
}

/// Runs a schedule: transaction `i` begins at step `i` and commits once
/// `slack_i` further transactions have begun, so lifetimes overlap. Returns
/// each transaction's `(start_ts, committed)` in schedule order. Decisions
/// are submitted in a deterministic order (begin order among the due).
fn run_schedule(oracle: &mut StatusOracleCore, schedule: &Schedule) -> Vec<(Timestamp, bool)> {
    let mut pending: Vec<usize> = Vec::new();
    let mut starts: Vec<Timestamp> = Vec::with_capacity(schedule.txns.len());
    let mut outcomes: Vec<(Timestamp, bool)> = vec![(Timestamp::ZERO, false); schedule.txns.len()];
    let decide = |oracle: &mut StatusOracleCore,
                  outcomes: &mut Vec<(Timestamp, bool)>,
                  starts: &[Timestamp],
                  i: usize| {
        let (_, reads, writes) = &schedule.txns[i];
        let outcome = oracle.commit(CommitRequest::new(starts[i], rows(reads), rows(writes)));
        outcomes[i] = (starts[i], outcome.is_committed());
    };
    for idx in 0..schedule.txns.len() {
        starts.push(oracle.begin());
        pending.push(idx);
        let due: Vec<usize> = pending
            .iter()
            .copied()
            .filter(|&j| idx - j >= schedule.txns[j].0)
            .collect();
        pending.retain(|j| !due.contains(j));
        for j in due {
            decide(oracle, &mut outcomes, &starts, j);
        }
    }
    for j in std::mem::take(&mut pending) {
        decide(oracle, &mut outcomes, &starts, j);
    }
    outcomes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Algorithm 3 (bounded `lastCommit`) only ever *adds* aborts.
    #[test]
    fn bounded_oracle_is_conservative(
        schedule in schedule_strategy(),
        capacity in 1usize..8,
        level_wsi in any::<bool>(),
    ) {
        let level = if level_wsi {
            IsolationLevel::WriteSnapshot
        } else {
            IsolationLevel::Snapshot
        };
        let mut exact = StatusOracleCore::unbounded(level);
        let mut bounded = StatusOracleCore::bounded(level, capacity);
        let exact_outcomes = run_schedule(&mut exact, &schedule);
        let bounded_outcomes = run_schedule(&mut bounded, &schedule);
        // Once a decision diverges, the two oracles issue different
        // timestamp sequences and later decisions are incomparable; the
        // conservativeness contract binds the *first* divergence: it must be
        // exact = commit, bounded = abort — never the other way around.
        for (i, (&(_, e), &(_, b))) in
            exact_outcomes.iter().zip(&bounded_outcomes).enumerate()
        {
            if e != b {
                prop_assert!(
                    e && !b,
                    "txn {i}: bounded committed what the exact oracle refused"
                );
                break;
            }
        }
    }

    /// Read-only commits always succeed and never move the timestamp
    /// counter.
    #[test]
    fn read_only_commits_are_free(reads in prop::collection::vec(0u64..100, 0..10)) {
        for level in [IsolationLevel::Snapshot, IsolationLevel::WriteSnapshot] {
            let mut oracle = StatusOracleCore::unbounded(level);
            let seed = oracle.begin();
            prop_assert!(oracle
                .commit(CommitRequest::new(seed, vec![], rows(&[1, 2, 3])))
                .is_committed());
            let before = oracle.last_issued_ts();
            let ts = oracle.begin();
            let outcome = oracle.commit(CommitRequest::new(ts, rows(&reads), vec![]));
            prop_assert!(outcome.is_committed());
            prop_assert_eq!(oracle.last_issued_ts(), before.next()); // only the begin
        }
    }

    /// First-committer-wins (§2.2: "the algorithm commits the transaction
    /// for which the commit request is received sooner").
    #[test]
    fn first_committer_wins(row in 0u64..4, order in any::<bool>()) {
        let mut oracle = StatusOracleCore::unbounded(IsolationLevel::Snapshot);
        let a = oracle.begin();
        let b = oracle.begin();
        let (first, second) = if order { (a, b) } else { (b, a) };
        let win = oracle.commit(CommitRequest::new(first, vec![], rows(&[row])));
        let lose = oracle.commit(CommitRequest::new(second, vec![], rows(&[row])));
        prop_assert!(win.is_committed());
        prop_assert!(lose.is_aborted());
    }

    /// Timestamps issued by an oracle are unique and strictly increasing,
    /// interleaving begins and commits arbitrarily.
    #[test]
    fn timestamps_strictly_increase(schedule in schedule_strategy()) {
        let mut oracle = StatusOracleCore::unbounded(IsolationLevel::WriteSnapshot);
        let mut last = Timestamp::ZERO;
        for (_, reads, writes) in &schedule.txns {
            let ts = oracle.begin();
            prop_assert!(ts > last);
            last = ts;
            if let Some(cts) = oracle
                .commit(CommitRequest::new(ts, rows(reads), rows(writes)))
                .commit_ts()
            {
                if !writes.is_empty() {
                    prop_assert!(cts > last);
                    last = cts;
                }
            }
        }
    }
}
