//! Equivalence of the sharded [`ConcurrentOracle`] with its model, the
//! single-threaded [`StatusOracleCore`].
//!
//! The concurrent oracle is supposed to be a *refactoring* of the decision
//! logic, not a new algorithm: driven single-threaded, it must make exactly
//! the decisions Algorithms 1–3 make. These property tests drive the same
//! randomized transaction history through the model and the implementation
//! in lockstep and assert identical commit/abort outcomes, identical final
//! `lastCommit` state, and identical activity statistics — for SI and WSI,
//! with 1 shard and with many (up to `Db`'s 16), unbounded and bounded.
//!
//! The one case where exact lockstep is impossible by construction is the
//! bounded (Algorithm 3) table with *many* shards: capacity is divided
//! across shards, so eviction order differs from a single bounded table and
//! `T_max` diverges (it may only be more pessimistic for some probes, less
//! for others — both tables are correct, they just bound different
//! histories). For that configuration the test checks the safety invariant
//! directly against an unbounded model: every commit the bounded oracle
//! *admits* must be conflict-free in the model; it may abort more often
//! (pessimistic `T_max` aborts), never less.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use wsi_core::{
    AbortReason, CommitRequest, ConcurrentOracle, IsolationLevel, Probe, RowId, RowRange,
    SharedTimestampSource, StatusOracleCore, Timestamp,
};

/// Row universe: small enough that transactions collide constantly.
const UNIVERSE: u64 = 24;

/// Shard counts driven in lockstep: the single table, and the sharded
/// layouts up to `Db`'s 16.
const SHARDS: [usize; 3] = [1, 8, 16];

/// One generated transaction in the history.
#[derive(Debug, Clone)]
struct Spec {
    read_rows: Vec<u64>,
    write_rows: Vec<u64>,
    /// WSI-only §5.2 predicate ranges `[start, end)`.
    ranges: Vec<(u64, u64)>,
    /// Client-requested abort instead of a commit attempt.
    client_abort: bool,
}

/// Up to 10 rows per side: the paper's transactions are 10 rows, and most
/// of `Db`'s requests span more shards than a handful.
fn rows_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..UNIVERSE, 0..=10)
}

fn spec_strategy(with_ranges: bool) -> impl Strategy<Value = Spec> {
    let ranges = if with_ranges {
        prop::collection::vec((0u64..UNIVERSE, 1u64..6), 0..2)
            .prop_map(|v| v.into_iter().map(|(s, w)| (s, s + w)).collect())
            .boxed()
    } else {
        Just(Vec::new()).boxed()
    };
    // ~10% of transactions end in a client-requested abort.
    let client_abort = (0u64..10).prop_map(|x| x == 0);
    (rows_strategy(), rows_strategy(), ranges, client_abort).prop_map(
        |(read_rows, write_rows, ranges, client_abort)| Spec {
            read_rows,
            write_rows,
            ranges,
            client_abort,
        },
    )
}

fn history(with_ranges: bool) -> impl Strategy<Value = Vec<Spec>> {
    prop::collection::vec(spec_strategy(with_ranges), 1..40)
}

fn to_request(start_ts: Timestamp, spec: &Spec) -> CommitRequest {
    let read_rows = spec.read_rows.iter().map(|&r| RowId(r)).collect();
    let write_rows = spec.write_rows.iter().map(|&r| RowId(r)).collect();
    let mut req = CommitRequest::new(start_ts, read_rows, write_rows);
    if !spec.ranges.is_empty() {
        req = req.with_read_ranges(
            spec.ranges
                .iter()
                .map(|&(s, e)| RowRange::new(s, e))
                .collect(),
        );
    }
    req
}

/// Drives `history` through the model and the implementation in lockstep,
/// asserting outcome-by-outcome and final-state equality.
fn assert_lockstep(mut model: StatusOracleCore, oracle: ConcurrentOracle, history: &[Spec]) {
    for spec in history {
        let start_ts = model.begin();
        assert_eq!(
            start_ts,
            oracle.begin(),
            "start timestamps must stay in lockstep"
        );
        if spec.client_abort {
            model.abort(start_ts);
            oracle.abort();
            continue;
        }
        assert_eq!(
            model.commit(to_request(start_ts, spec)),
            oracle.commit(to_request(start_ts, spec)),
            "decision diverged for {spec:?}"
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
    assert_eq!(model.t_max(), oracle.t_max());
    assert_eq!(model.resident_rows(), oracle.resident_rows());
    assert_eq!(model.last_issued_ts(), oracle.last_issued_ts());
    assert_eq!(model.stats(), oracle.stats(), "activity counters diverged");
}

fn fresh_ts() -> Arc<SharedTimestampSource> {
    Arc::new(SharedTimestampSource::new())
}

/// A safety check of the bounded multi-shard oracle against an exact
/// unbounded model: every admitted commit must be conflict-free in the
/// model; extra aborts are allowed only as pessimistic `T_max` aborts.
fn assert_bounded_safe(oracle: ConcurrentOracle, level: IsolationLevel, history: &[Spec]) {
    // Exact model of lastCommit with no eviction.
    let mut model: HashMap<u64, Timestamp> = HashMap::new();
    for spec in history {
        let start_ts = oracle.begin();
        if spec.client_abort {
            oracle.abort();
            continue;
        }
        let req = to_request(start_ts, spec);
        let checked: &[u64] = if level == IsolationLevel::Snapshot {
            &spec.write_rows
        } else {
            &spec.read_rows
        };
        let model_conflict = checked
            .iter()
            .any(|r| model.get(r).is_some_and(|&ts| ts > start_ts));
        let out = oracle.commit(req);
        if let Some(commit_ts) = out.commit_ts() {
            prop_assert!(
                !model_conflict,
                "bounded oracle admitted a conflicting commit: {spec:?}"
            );
            for &row in &spec.write_rows {
                model.insert(row, commit_ts);
            }
        } else {
            // Aborts beyond the model's are allowed only as pessimistic
            // T_max aborts; genuine conflict reasons must be real.
            match out.abort_reason() {
                Some(AbortReason::TmaxExceeded { .. }) => {}
                Some(_) => prop_assert!(
                    model_conflict,
                    "conflict abort without a model conflict: {spec:?}"
                ),
                None => unreachable!(),
            }
        }
    }
    // Wherever a row is still resident, its timestamp is the model's.
    for (&row, &ts) in &model {
        if let Probe::Resident(got) = oracle.probe_row(RowId(row)) {
            prop_assert_eq!(got, ts, "resident row {} diverged from model", row);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Algorithm 1 (SI): implementation ≡ model, at every shard count.
    #[test]
    fn si_unbounded_equivalence(history in history(false)) {
        let level = IsolationLevel::Snapshot;
        for shards in SHARDS {
            assert_lockstep(
                StatusOracleCore::unbounded(level),
                ConcurrentOracle::unbounded(level, shards, fresh_ts()),
                &history,
            );
        }
    }

    /// Algorithm 2 (WSI) including §5.2 range predicates (which exercise
    /// the all-shard sweep): implementation ≡ model, at every shard count.
    #[test]
    fn wsi_unbounded_equivalence(history in history(true)) {
        let level = IsolationLevel::WriteSnapshot;
        for shards in SHARDS {
            assert_lockstep(
                StatusOracleCore::unbounded(level),
                ConcurrentOracle::unbounded(level, shards, fresh_ts()),
                &history,
            );
        }
    }

    /// Algorithm 3 (bounded, `T_max`): with a single shard the concurrent
    /// oracle holds literally the same bounded table, so it must stay in
    /// exact lockstep — eviction order, `T_max`, and all.
    #[test]
    fn bounded_single_shard_equivalence(
        history in history(true),
        capacity in 1usize..12,
    ) {
        for level in [IsolationLevel::Snapshot, IsolationLevel::WriteSnapshot] {
            assert_lockstep(
                StatusOracleCore::bounded(level, capacity),
                ConcurrentOracle::bounded(level, 1, capacity, fresh_ts()),
                &history,
            );
        }
    }

    /// Algorithm 3 with many shards: eviction order differs from a single
    /// bounded table, so instead of lockstep we check the safety invariant
    /// against an exact unbounded model — every commit the bounded
    /// concurrent oracle admits is conflict-free, and the recorded
    /// timestamps match the model wherever rows are still resident.
    #[test]
    fn bounded_sharded_is_safe(
        history in history(false),
        capacity in 1usize..12,
        level_wsi in any::<bool>(),
    ) {
        let level = if level_wsi {
            IsolationLevel::WriteSnapshot
        } else {
            IsolationLevel::Snapshot
        };
        for shards in SHARDS {
            assert_bounded_safe(
                ConcurrentOracle::bounded(level, shards, capacity, fresh_ts()),
                level,
                &history,
            );
        }
    }
}
