//! Equivalence of the [`ConcurrentOracle`] with its model, the
//! single-threaded [`StatusOracleCore`], on interleaved histories.
//!
//! The concurrent oracle is supposed to be a *refactoring* of the decision
//! logic, not a new algorithm: driven single-threaded, it must make exactly
//! the decisions Algorithms 1 and 2 make. These property tests drive the same
//! randomized history through the model and the implementation and assert
//! identical commit/abort outcomes, identical final `lastCommit` state, and
//! identical activity statistics — for SI and WSI. The model takes a
//! [`CommitRequest`]; the implementation takes the request's two row sets
//! as slices.
//!
//! A history keeps up to [`MAX_OPEN`] transactions open at once and ends
//! them in random order, so a commit probes rows that transactions
//! concurrent with it wrote. The corpus reaches write-write aborts under SI,
//! read-write aborts under WSI, and `T_max` aborts in the bounded
//! model (Algorithm 3), which must add only those to what the exact table
//! decides.
//!
//! On the same histories, an oracle that forgets its `lastCommit` rows at
//! random watermarks no higher than the oldest open start decides exactly
//! as one that forgets nothing — the argument the store's watermark pruning
//! rests on — and one that forgets a timestamp past it is caught.

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use wsi_core::{
    AbortReason, CommitOutcome, CommitRequest, ConcurrentOracle, IsolationLevel, RowId,
    SharedTimestampSource, StatusOracleCore, Timestamp,
};
use wsi_obs::Journal;

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

/// The calls a history makes of an oracle.
trait Oracle {
    fn begin(&mut self) -> Timestamp;
    fn commit(&mut self, req: CommitRequest) -> CommitOutcome;
    fn abort(&mut self, start_ts: Timestamp);
}

impl Oracle for StatusOracleCore {
    fn begin(&mut self) -> Timestamp {
        StatusOracleCore::begin(self)
    }
    fn commit(&mut self, req: CommitRequest) -> CommitOutcome {
        StatusOracleCore::commit(self, req)
    }
    fn abort(&mut self, start_ts: Timestamp) {
        StatusOracleCore::abort(self, start_ts);
    }
}

impl Oracle for ConcurrentOracle {
    fn begin(&mut self) -> Timestamp {
        ConcurrentOracle::begin(self)
    }
    fn commit(&mut self, req: CommitRequest) -> CommitOutcome {
        ConcurrentOracle::commit(self, req.start_ts, &req.read_rows, &req.write_rows)
    }
    fn abort(&mut self, _start_ts: Timestamp) {
        ConcurrentOracle::abort(self);
    }
}

/// A [`ConcurrentOracle`] that, before a call, may forget its `lastCommit`
/// rows through the watermark `forget_at(oldest, pick)`, where `oldest` is
/// the oldest open start (the next start when none is open) and `pick` is
/// the call's entry of `picks` (no forgetting when it is `None`).
struct Forgetful<F> {
    oracle: ConcurrentOracle,
    open: BTreeSet<Timestamp>,
    picks: Vec<Option<u64>>,
    calls: usize,
    forget_at: F,
}

impl<F: Fn(Timestamp, u64) -> Timestamp> Forgetful<F> {
    fn new(oracle: ConcurrentOracle, picks: Vec<Option<u64>>, forget_at: F) -> Self {
        Forgetful {
            oracle,
            open: BTreeSet::new(),
            picks,
            calls: 0,
            forget_at,
        }
    }

    fn maybe_forget(&mut self) {
        if let Some(&Some(pick)) = self.picks.get(self.calls) {
            let oldest = self.open.first().copied();
            let oldest = oldest.unwrap_or_else(|| self.oracle.last_issued_ts().next());
            self.oracle.forget_through((self.forget_at)(oldest, pick));
        }
        self.calls += 1;
    }
}

impl<F: Fn(Timestamp, u64) -> Timestamp> Oracle for Forgetful<F> {
    fn begin(&mut self) -> Timestamp {
        self.maybe_forget();
        let start_ts = self.oracle.begin();
        self.open.insert(start_ts);
        start_ts
    }
    fn commit(&mut self, req: CommitRequest) -> CommitOutcome {
        self.maybe_forget();
        self.open.remove(&req.start_ts);
        Oracle::commit(&mut self.oracle, req)
    }
    fn abort(&mut self, start_ts: Timestamp) {
        self.maybe_forget();
        self.open.remove(&start_ts);
        self.oracle.abort();
    }
}

/// Plays `history` through `oracle`. Returns, in the order the
/// transactions ended, each one's spec index, start timestamp and outcome
/// (a client abort as [`AbortReason::ClientRequested`]).
fn play(oracle: &mut impl Oracle, history: &History) -> Vec<(usize, Timestamp, CommitOutcome)> {
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

/// Drives `history` through the model and the implementation, asserting
/// decision-by-decision and final-state equality.
fn assert_lockstep(mut model: StatusOracleCore, mut oracle: ConcurrentOracle, history: &History) {
    let expect = play(&mut model, history);
    let got = play(&mut oracle, history);
    for (want, got) in expect.iter().zip(&got) {
        assert_eq!(
            want, got,
            "decision diverged for {:?}",
            history.specs[want.0]
        );
    }
    // Final conflict state: every row in the universe probes identically.
    for row in 0..UNIVERSE {
        assert_eq!(
            model.probe_row(RowId(row)),
            oracle.probe_row(RowId(row)),
            "lastCommit diverged at row {row}"
        );
    }
    assert_eq!(model.resident_rows(), oracle.resident_rows());
    assert_eq!(model.last_issued_ts(), oracle.last_issued_ts());
    assert_eq!(model.stats(), oracle.stats(), "activity counters diverged");
}

fn fresh(level: IsolationLevel) -> ConcurrentOracle {
    ConcurrentOracle::unbounded(
        level,
        Arc::new(SharedTimestampSource::new()),
        Journal::with_capacity(8),
    )
}

/// The two levels a [`ConcurrentOracle`] certifies by itself.
const LEVELS: [IsolationLevel; 2] = [IsolationLevel::Snapshot, IsolationLevel::WriteSnapshot];

/// Whether `history`'s oracle-driven forgetting through `forget_at` changes
/// any decision or counter of an oracle at `level`.
fn forgetting_changes_something(
    level: IsolationLevel,
    history: &History,
    picks: Vec<Option<u64>>,
    forget_at: impl Fn(Timestamp, u64) -> Timestamp,
) -> bool {
    let mut exact = fresh(level);
    let mut forgetful = Forgetful::new(fresh(level), picks, forget_at);
    let changed = play(&mut exact, history) != play(&mut forgetful, history)
        || exact.stats() != forgetful.oracle.stats();
    assert!(forgetful.oracle.resident_rows() <= exact.resident_rows());
    changed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Algorithm 1 (SI): implementation ≡ model.
    #[test]
    fn si_unbounded_equivalence(seed in any::<u64>()) {
        let level = IsolationLevel::Snapshot;
        let history = History::generate(seed);
        assert_lockstep(StatusOracleCore::unbounded(level), fresh(level), &history);
    }

    /// Algorithm 2 (WSI): implementation ≡ model.
    #[test]
    fn wsi_unbounded_equivalence(seed in any::<u64>()) {
        let level = IsolationLevel::WriteSnapshot;
        let history = History::generate(seed);
        assert_lockstep(StatusOracleCore::unbounded(level), fresh(level), &history);
    }

    /// Forgetting every row at or below a watermark no higher than the
    /// oldest open start — the store's pruning rule — changes no decision
    /// and no counter, at either level.
    #[test]
    fn forgetting_below_the_oldest_start_changes_no_decision(
        seed in any::<u64>(),
        picks in prop::collection::vec(prop::option::of(any::<u64>()), 0..80),
    ) {
        for level in LEVELS {
            let history = History::generate(seed);
            let changed = forgetting_changes_something(
                level,
                &history,
                picks.clone(),
                |oldest, pick| Timestamp(pick % (oldest.raw() + 1)),
            );
            prop_assert!(!changed, "{level}: {history:?}");
        }
    }

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

/// The planted bug the forgetting property must catch: a watermark one
/// timestamp past the oldest open start drops a commit that start can
/// still conflict with.
#[test]
fn forgetting_one_past_the_oldest_start_is_caught() {
    for level in LEVELS {
        let caught = (0..64).any(|seed| {
            let history = History::generate(seed);
            let picks = vec![Some(0); 2 * history.specs.len()];
            forgetting_changes_something(level, &history, picks, |oldest, _| oldest.next())
        });
        assert!(
            caught,
            "{level}: forgetting past the oldest start went unnoticed"
        );
    }
}
