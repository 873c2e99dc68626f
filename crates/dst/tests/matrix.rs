//! The fault matrix: every engine × every fault plan × several seeds.
//!
//! Each cell is a full deterministic run with both oracles armed
//! (visibility + serializability, counter/WAL/history reconciliation);
//! a panic here prints the seed and a copy-pasteable repro command.
//! `replay_seed_from_env` is the receiving end of that command.

use wsi_core::IsolationLevel;
use wsi_dst::{run, FaultPlan, RunConfig, LEVELS};
use wsi_history::dsg;

const STEPS: u64 = 400;
const SEEDS: [u64; 3] = [0x0001, 0xC0FFEE, 0xDEAD_BEEF_0BAD_F00D];

fn matrix_for(level: IsolationLevel) {
    for plan_name in FaultPlan::PRESETS {
        let plan = FaultPlan::by_name(plan_name, STEPS).expect("preset");
        for seed in SEEDS {
            let config = RunConfig::new(level, seed)
                .steps(STEPS)
                .plan(plan_name, plan.clone());
            let report = run(&config);
            assert!(
                report.delta.commits > 0,
                "a run should commit something ({})",
                config.repro()
            );
        }
    }
}

#[test]
fn fault_matrix_si() {
    matrix_for(IsolationLevel::Snapshot);
}

#[test]
fn fault_matrix_wsi() {
    matrix_for(IsolationLevel::WriteSnapshot);
}

#[test]
fn fault_matrix_ssi() {
    matrix_for(IsolationLevel::SerializableSnapshot);
}

/// The reclamation-storm preset must exercise the hot-chain lifecycle end
/// to end: on a contended corpus (few keys, many clients) the storm's
/// forced sweeps unlink superseded versions of the hot chains, retire them
/// and free them, with the books balanced at the end. (Its sweeps come
/// every sixteenth of the run, before a chain grows to the length that
/// arms insert-time pruning.)
#[test]
fn reclamation_storm_retires_and_frees_hot_chain_versions() {
    for seed in SEEDS {
        let config = RunConfig::new(IsolationLevel::WriteSnapshot, seed)
            .steps(STEPS)
            .keys(2)
            .clients(8)
            .plan("reclamation-storm", FaultPlan::reclamation_storm(STEPS));
        let rec = run(&config).reclamation;
        assert!(rec.freed > 0, "the storm frees what it retires");
        assert_eq!(rec.retired, rec.freed + rec.limbo);
    }
}

/// Quorum loss makes commits fail *after* their record reached a minority
/// bookie; crashing before the heal lets recovery resurrect them. The
/// harness must account for the resurrection (the history records the
/// commit at the crash point) — and the oracles must still all pass.
#[test]
fn crash_during_quorum_loss_resurrects_commits() {
    let mut resurrected_somewhere = 0u64;
    for seed in SEEDS {
        let config = RunConfig::new(IsolationLevel::WriteSnapshot, seed)
            .steps(STEPS)
            .plan(
                "crash-during-quorum-loss",
                FaultPlan::crash_during_quorum_loss(STEPS),
            );
        let report = run(&config);
        assert_eq!(report.incarnations, 2);
        resurrected_somewhere += report.resurrected;
    }
    assert!(
        resurrected_somewhere > 0,
        "a quarter-run quorum-loss window must strand at least one commit"
    );
}

/// The two checkpoint crash plans must really crash inside a checkpoint:
/// recover from one whose truncation never ran, and from one that reached
/// only the bookie left standing — a log that still holds the records the
/// checkpoint stands in for. Recovery reproduces the history either way
/// (the matrix checks that); here, that the crash met such a log at all.
#[test]
fn checkpoint_crash_plans_recover_from_an_untruncated_checkpoint() {
    for plan_name in ["crash-before-truncation", "crash-mid-checkpoint"] {
        let mut untruncated = 0u64;
        for seed in SEEDS {
            let plan = FaultPlan::by_name(plan_name, STEPS).expect("preset");
            let config = RunConfig::new(IsolationLevel::WriteSnapshot, seed)
                .steps(STEPS)
                .plan(plan_name, plan);
            let report = run(&config);
            assert_eq!(report.incarnations, 2);
            untruncated += report.untruncated_recoveries;
        }
        assert!(
            untruncated > 0,
            "{plan_name}: no crash recovered from an untruncated checkpoint"
        );
    }
}

/// Steps of a run long enough for a tick checkpoint after its midpoint;
/// 64 keys keep aborts rare, so write commits come fast.
const TICK_STEPS: u64 = 3_000;

/// The tick-checkpoint crash plan must really crash inside a checkpoint the
/// commit path's tick wrote — no `gc` runs — and recover from the bookie
/// it reached, untruncated. The oracles, inside `run`, check the history
/// and the census of every record the log holds across the crash.
#[test]
fn the_tick_checkpoint_crash_plan_crashes_inside_a_tick_checkpoint() {
    for level in LEVELS {
        let config = RunConfig::new(level, SEEDS[1])
            .steps(TICK_STEPS)
            .keys(64)
            .plan(
                "crash-mid-tick-checkpoint",
                FaultPlan::crash_mid_tick_checkpoint(TICK_STEPS),
            );
        let report = run(&config);
        assert_eq!(report.incarnations, 2, "{}", config.repro());
        assert_eq!(report.untruncated_recoveries, 1, "{}", config.repro());
        assert!(report.delta.commits > 0, "{}", config.repro());
    }
}

/// The SI column of the matrix is the control: over a contended corpus the
/// DSG oracle must catch snapshot isolation admitting non-serializable
/// histories (write skew), the separation the paper is built on. WSI over
/// the same corpus stays serializable — that is asserted inside `run`.
#[test]
fn si_corpus_exhibits_nonserializable_histories() {
    let mut cycles = 0u32;
    for seed in 0..16u64 {
        let config = RunConfig::new(IsolationLevel::Snapshot, 0x51_0000 + seed)
            .steps(200)
            .keys(2)
            .clients(8);
        let report = run(&config);
        if !dsg::is_serializable(&report.history) {
            cycles += 1;
        }
    }
    assert!(
        cycles > 0,
        "snapshot isolation should exhibit write skew somewhere in 16 contended runs"
    );
}

/// Receiving end of the repro command printed on any oracle failure:
/// `DST_SEED=… DST_ENGINE=… DST_PLAN=… DST_STEPS=… cargo test -p wsi-dst
/// --test matrix -- replay_seed_from_env --exact --nocapture`.
/// A no-op when the environment is unset.
#[test]
fn replay_seed_from_env() {
    let Ok(seed) = std::env::var("DST_SEED") else {
        return;
    };
    let seed = seed.trim_start_matches("0x");
    let seed = u64::from_str_radix(seed, 16)
        .or_else(|_| seed.parse::<u64>())
        .expect("DST_SEED must be hex (0x…) or decimal");
    let engine = std::env::var("DST_ENGINE").expect("DST_ENGINE must be si|wsi|ssi");
    let level = LEVELS
        .into_iter()
        .find(|level| level.short_name() == engine)
        .expect("DST_ENGINE must be si|wsi|ssi");
    let steps: u64 = std::env::var("DST_STEPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(STEPS);
    let plan_name = std::env::var("DST_PLAN").unwrap_or_else(|_| "none".to_string());
    let plan = FaultPlan::by_name(&plan_name, steps)
        .unwrap_or_else(|| panic!("unknown DST_PLAN {plan_name:?} (see FaultPlan::PRESETS)"));
    let config = RunConfig::new(level, seed)
        .steps(steps)
        .plan(&plan_name, plan);
    let report = run(&config);
    println!(
        "replayed seed 0x{seed:016x} on {}: {} ops, serializable={}, incarnations={}, \
         resurrected={}",
        level.short_name(),
        report.history.ops().len(),
        dsg::is_serializable(&report.history),
        report.incarnations,
        report.resurrected,
    );
}
