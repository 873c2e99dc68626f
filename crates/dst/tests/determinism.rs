//! Same seed ⇒ same history, byte for byte.
//!
//! The regression guard for every nondeterminism fix behind the harness:
//! ordered (`BTreeMap`/`BTreeSet`) read and write sets on the commit path,
//! seeded retry backoff instead of wall-clock entropy, and the forked
//! [`wsi_sim::SimRng`] streams in the scheduler itself. If any engine path consulted iteration order of a
//! hash map, wall-clock time, or OS randomness, the replayed history would
//! eventually diverge from the first run.

use wsi_core::IsolationLevel;
use wsi_dst::{run, FaultPlan, RunConfig, RunReport, LEVELS};
use wsi_store::{Event, EventData};

const STEPS: u64 = 400;

#[test]
fn same_seed_replays_the_identical_history() {
    for level in LEVELS {
        for plan_name in ["none", "quorum-loss", "reclamation-storm", "everything"] {
            for seed in [3u64, 0xFEED_FACE] {
                let config = || {
                    RunConfig::new(level, seed).steps(STEPS).plan(
                        plan_name,
                        FaultPlan::by_name(plan_name, STEPS).expect("preset"),
                    )
                };
                let first = run(&config());
                let second = run(&config());
                assert_eq!(
                    first.history.to_string(),
                    second.history.to_string(),
                    "history diverged: {} / {} / seed {seed:#x}",
                    level.short_name(),
                    plan_name,
                );
                assert_eq!(first.observed, second.observed, "observed values diverged");
                assert_eq!(first.delta, second.delta, "engine counters diverged");
                assert_eq!(first.census, second.census, "WAL contents diverged");
                assert_eq!(first.resurrected, second.resurrected);
            }
        }
    }
}

/// A run that crashes inside a checkpoint the tick wrote replays byte for
/// byte too: the tick, the checkpoint it writes and the crash armed on it
/// are functions of the seed.
#[test]
fn a_crash_mid_tick_checkpoint_replays_identically() {
    const TICK_STEPS: u64 = 3_000;
    let config = || {
        RunConfig::new(IsolationLevel::WriteSnapshot, 0xC0FFEE)
            .steps(TICK_STEPS)
            .keys(64)
            .plan(
                "crash-mid-tick-checkpoint",
                FaultPlan::crash_mid_tick_checkpoint(TICK_STEPS),
            )
    };
    let first = run(&config());
    let second = run(&config());
    assert_eq!(first.incarnations, 2, "the crash fired");
    assert_eq!(first.history.to_string(), second.history.to_string());
    assert_eq!(first.observed, second.observed);
    assert_eq!(first.delta, second.delta);
    assert_eq!(first.census, second.census);
    assert_eq!(first.untruncated_recoveries, second.untruncated_recoveries);
}

/// The flight recorder is part of the determinism contract: a replayed
/// seed must produce the identical journal event sequence — same seqnos,
/// same owning transactions, same payloads (conflict rows, culprit commit
/// timestamps, WAL ack counts). Only `Event::ts_us` is wall-clock, and
/// [`Event::replay_key`] excludes exactly that field. Without this, the
/// journal tail dumped on an oracle violation could differ between the
/// failing run and its replay, which would defeat the point.
#[test]
fn same_seed_replays_the_identical_journal() {
    let keys = |r: &RunReport| r.journal.iter().map(Event::replay_key).collect::<Vec<_>>();
    for level in LEVELS {
        for plan_name in ["none", "quorum-loss", "reclamation-storm", "everything"] {
            let config = || {
                RunConfig::new(level, 0x70AD).steps(STEPS).plan(
                    plan_name,
                    FaultPlan::by_name(plan_name, STEPS).expect("preset"),
                )
            };
            let first = run(&config());
            let second = run(&config());
            assert!(
                !first.journal.is_empty(),
                "journal always on: {} / {plan_name}",
                level.short_name(),
            );
            assert_eq!(
                first.journal_dropped,
                0,
                "default run scale fits the ring: {} / {plan_name}",
                level.short_name(),
            );
            // The journal covers the whole lifecycle, not just commits.
            assert!(first
                .journal
                .iter()
                .any(|e| matches!(e.data, EventData::Begin)));
            assert!(first
                .journal
                .iter()
                .any(|e| matches!(e.data, EventData::WalFlush { .. })));
            assert_eq!(
                keys(&first),
                keys(&second),
                "journal diverged: {} / {plan_name}",
                level.short_name(),
            );
        }
    }
}

/// The converse sanity check: the seed actually steers the run. (Equal
/// histories for different seeds would mean the scheduler ignores its
/// randomness and the matrix sweeps one schedule fifteen times.)
#[test]
fn different_seeds_diverge() {
    let config = |seed| RunConfig::new(IsolationLevel::WriteSnapshot, seed).steps(STEPS);
    let a = run(&config(1));
    let b = run(&config(2));
    assert_ne!(a.history.to_string(), b.history.to_string());
}

/// Replay stability must also hold under contention, where the abort and
/// retry interleavings are densest — histories here are dominated by
/// conflict decisions, so any decision-order nondeterminism shows up.
#[test]
fn contended_runs_replay_exactly() {
    for level in LEVELS {
        let config = || RunConfig::new(level, 0xAB07).steps(300).keys(2).clients(8);
        let first = run(&config());
        let second = run(&config());
        assert_eq!(first.history.to_string(), second.history.to_string());
        assert_eq!(first.delta, second.delta);
    }
}
