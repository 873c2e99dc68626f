//! Algorithm 3 against the exact decisions it bounds, on interleaved
//! histories.
//!
//! A history keeps up to [`MAX_OPEN`] transactions open at once and ends
//! them in random order, so a commit probes rows that transactions
//! concurrent with it wrote. The corpus reaches write-write aborts under SI,
//! read-write aborts under WSI, and `T_max` aborts in the bounded
//! model (Algorithm 3), which must add only those to what the exact table
//! decides. (`tests/oracle_properties.rs` holds the bounded model to the
//! exact one only up to their first divergence; here every decision is
//! checked.)

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::collections::HashMap;
use wsi_core::{
    AbortReason, CommitOutcome, CommitRequest, IsolationLevel, RowId, StatusOracleCore, Timestamp,
};

/// Row universe: small enough that transactions collide constantly.
const UNIVERSE: u64 = 24;

/// Transactions a history keeps open at once.
const MAX_OPEN: usize = 4;

/// One generated transaction of a history.
#[derive(Debug, Clone)]
struct Spec {
    read_rows: Vec<u64>,
    write_rows: Vec<u64>,
    /// Client-requested abort instead of a commit attempt.
    client_abort: bool,
}

impl Spec {
    /// Up to 10 rows per side: the paper's transactions are 10 rows. About
    /// one transaction in ten ends in a client-requested abort.
    fn generate(rng: &mut SmallRng) -> Self {
        let rows = |rng: &mut SmallRng| {
            let n = rng.gen_range(0..=10);
            (0..n).map(|_| rng.gen_range(0..UNIVERSE)).collect()
        };
        let read_rows = rows(rng);
        let write_rows = rows(rng);
        Spec {
            read_rows,
            write_rows,
            client_abort: rng.gen_range(0..10) == 0,
        }
    }

    fn request(&self, start_ts: Timestamp) -> CommitRequest {
        let rows = |rows: &[u64]| rows.iter().map(|&r| RowId(r)).collect();
        CommitRequest::new(start_ts, rows(&self.read_rows), rows(&self.write_rows))
    }
}

/// One step of a history: transaction `i` begins, or ends as its spec says.
#[derive(Debug, Clone, Copy)]
enum Step {
    Begin(usize),
    End(usize),
}

/// Transactions and the interleaving of their begins and ends.
#[derive(Debug, Clone)]
struct History {
    specs: Vec<Spec>,
    steps: Vec<Step>,
}

impl History {
    /// 1–39 transactions begun in order; while fewer than [`MAX_OPEN`] are
    /// open a coin picks between beginning the next and ending a random
    /// open one.
    fn generate(seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(1..40);
        let specs: Vec<Spec> = (0..n).map(|_| Spec::generate(&mut rng)).collect();
        let mut steps = Vec::with_capacity(2 * n);
        let mut open = Vec::new();
        let mut next = 0;
        while next < n || !open.is_empty() {
            let room = open.is_empty() || (open.len() < MAX_OPEN && rng.gen_bool(0.5));
            if next < n && room {
                steps.push(Step::Begin(next));
                open.push(next);
                next += 1;
            } else {
                let i = open.swap_remove(rng.gen_range(0..open.len()));
                steps.push(Step::End(i));
            }
        }
        History { specs, steps }
    }
}

/// Plays `history` through `oracle`. Returns, in the order the
/// transactions ended, each one's spec index, start timestamp and outcome
/// (a client abort as [`AbortReason::ClientRequested`]).
fn play(
    oracle: &mut StatusOracleCore,
    history: &History,
) -> Vec<(usize, Timestamp, CommitOutcome)> {
    let mut starts = vec![Timestamp::ZERO; history.specs.len()];
    let mut decisions = Vec::with_capacity(history.specs.len());
    for &step in &history.steps {
        match step {
            Step::Begin(i) => starts[i] = oracle.begin(),
            Step::End(i) => {
                let spec = &history.specs[i];
                let outcome = if spec.client_abort {
                    oracle.abort(starts[i]);
                    CommitOutcome::Aborted(AbortReason::ClientRequested)
                } else {
                    oracle.commit(spec.request(starts[i]))
                };
                decisions.push((i, starts[i], outcome));
            }
        }
    }
    decisions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Algorithm 3 against the exact table it bounds: every commit the
    /// bounded model admits is conflict-free in an exact map of the commits
    /// it made, and every conflict abort names a real conflict — the bound
    /// adds only `T_max` aborts.
    #[test]
    fn bounded_model_adds_only_tmax_aborts(
        seed in any::<u64>(),
        capacity in 1usize..12,
        wsi in any::<bool>(),
    ) {
        let level = if wsi {
            IsolationLevel::WriteSnapshot
        } else {
            IsolationLevel::Snapshot
        };
        let history = History::generate(seed);
        let mut latest: HashMap<u64, Timestamp> = HashMap::new();
        let decisions = play(&mut StatusOracleCore::bounded(level, capacity), &history);
        for (i, start_ts, outcome) in decisions {
            let spec = &history.specs[i];
            let checked = if wsi { &spec.read_rows } else { &spec.write_rows };
            // Read-only transactions are never checked (§5.1).
            let conflict = !spec.write_rows.is_empty()
                && checked
                    .iter()
                    .any(|r| latest.get(r).is_some_and(|&ts| ts > start_ts));
            match outcome {
                CommitOutcome::Committed(commit_ts) => {
                    prop_assert!(!conflict, "admitted a conflicting commit: {spec:?}");
                    for &row in &spec.write_rows {
                        latest.insert(row, commit_ts);
                    }
                }
                CommitOutcome::Aborted(
                    AbortReason::TmaxExceeded { .. } | AbortReason::ClientRequested,
                ) => {}
                CommitOutcome::Aborted(reason) => {
                    prop_assert!(conflict, "{reason:?} without a conflict: {spec:?}");
                }
            }
        }
    }
}

/// The histories really overlap: over a fixed corpus they reach
/// write-write aborts under SI, read-write aborts under WSI, and `T_max`
/// aborts in the bounded model.
#[test]
fn the_histories_reach_every_abort_kind() {
    let (mut ww, mut rw, mut tmax) = (0, 0, 0);
    for seed in 0..256 {
        let history = History::generate(seed);
        let si = play(
            &mut StatusOracleCore::unbounded(IsolationLevel::Snapshot),
            &history,
        );
        ww += si
            .iter()
            .filter(|(.., out)| {
                matches!(
                    out.abort_reason(),
                    Some(AbortReason::WriteWriteConflict { .. })
                )
            })
            .count();
        let bounded = play(
            &mut StatusOracleCore::bounded(IsolationLevel::WriteSnapshot, 2),
            &history,
        );
        tmax += bounded
            .iter()
            .filter(|(.., out)| {
                matches!(out.abort_reason(), Some(AbortReason::TmaxExceeded { .. }))
            })
            .count();
        let wsi = play(
            &mut StatusOracleCore::unbounded(IsolationLevel::WriteSnapshot),
            &history,
        );
        rw += wsi
            .iter()
            .filter(|(.., out)| {
                matches!(
                    out.abort_reason(),
                    Some(AbortReason::ReadWriteConflict { .. })
                )
            })
            .count();
    }
    assert!(
        ww > 0 && rw > 0 && tmax > 0,
        "ww {ww}, rw {rw}, T_max {tmax}"
    );
}
