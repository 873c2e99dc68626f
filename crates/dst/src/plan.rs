//! The fault-plan DSL: *what* breaks, and *when*.
//!
//! A [`FaultPlan`] is a list of `(step, fault)` pairs applied by the
//! harness at the top of the named scheduler steps, before any client
//! runs. Plans compose with [`FaultPlan::merged`], and the named
//! constructors cover the matrix the test suite sweeps: quorum loss with a
//! later heal, a clean crash, a crash *during* quorum loss (the
//! resurrection path, where a minority bookie re-surfaces a commit record
//! whose client was told the commit failed), a reclamation storm that
//! races GC and reclamation sweeps against live snapshots, and crashes
//! around a checkpoint: between its flush and its truncation, and while it
//! reaches only a minority of bookies — the latter also for a checkpoint
//! the commit path's tick writes, with no `gc` at all.

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Marks WAL bookie `idx` failed: it rejects stores and is unreadable
    /// to recovery until recovered.
    FailBookie(usize),
    /// Heals WAL bookie `idx`. If the engine's retained flush buffer holds
    /// records whose quorum was lost, the harness retries the flush after
    /// this fault and resolves any limbo transactions it drains.
    RecoverBookie(usize),
    /// Crash the process and recover: drop the engine (in-flight
    /// transactions die, the WAL's unflushed buffer is lost), rebuild a
    /// fresh healthy ledger from the surviving bookies' gap-free prefix,
    /// and replay it through the engine's recovery path. Clears any bookie
    /// failures — the simulated restart replaces the ensemble.
    CrashRecover,
    /// Runs a garbage-collection sweep (version pruning below the
    /// watermark) while clients hold live snapshots.
    Gc,
    /// Frees the arena store's retired versions the registry watermark
    /// has passed.
    Maintain,
    /// Runs a GC sweep — which writes a checkpoint when one is due and
    /// truncates the log behind it once it is durable — then crashes as if
    /// between that checkpoint's flush and its truncation: recovery reads
    /// the log from before the sweep plus what the sweep's round appended.
    CrashBeforeTruncation,
    /// Arms a crash inside the next checkpoint a write commit's tick
    /// writes, with no `gc` anywhere. Each armed commit first sets bookies
    /// 0 and 1 to fail after one more flush, so the commit's own round
    /// reaches all three bookies and a checkpoint its tick writes only
    /// bookie 2. The run crashes there and recovers from that bookie's
    /// untruncated log; a commit whose tick wrote nothing disarms them.
    CrashMidTickCheckpoint,
}

/// A schedule of faults, keyed by scheduler step.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    schedule: Vec<(u64, Fault)>,
}

impl FaultPlan {
    /// The empty plan: no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds `fault` at `step`. Faults sharing a step apply in insertion
    /// order.
    #[must_use]
    pub fn at(mut self, step: u64, fault: Fault) -> Self {
        self.schedule.push((step, fault));
        self
    }

    /// Concatenates another plan's schedule onto this one.
    #[must_use]
    pub fn merged(mut self, other: FaultPlan) -> Self {
        self.schedule.extend(other.schedule);
        self
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.schedule.len()
    }

    /// Returns `true` if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }

    /// Faults due at `step`, in insertion order.
    pub fn due(&self, step: u64) -> impl Iterator<Item = Fault> + '_ {
        self.schedule
            .iter()
            .filter(move |(s, _)| *s == step)
            .map(|(_, f)| *f)
    }

    /// Loses the WAL write quorum (bookies 0 and 1 of the default
    /// 3-replica, quorum-2 ensemble) a quarter of the way through a
    /// `steps`-long run and heals it at the midpoint. Commits attempted in
    /// the window fail after their records were appended — the
    /// compensating-abort path.
    pub fn quorum_loss(steps: u64) -> Self {
        FaultPlan::none()
            .at(steps / 4, Fault::FailBookie(0))
            .at(steps / 4, Fault::FailBookie(1))
            .at(steps / 2, Fault::RecoverBookie(0))
            .at(steps / 2, Fault::RecoverBookie(1))
    }

    /// A clean crash-and-recover at the midpoint of a `steps`-long run.
    pub fn crash(steps: u64) -> Self {
        FaultPlan::none().at(steps / 2, Fault::CrashRecover)
    }

    /// Loses the quorum a quarter of the way in, then crashes at the
    /// midpoint *without healing first*: commit records stranded on the
    /// minority bookie may be resurrected by recovery even though their
    /// clients saw a failure — the "recovering more than promised is safe"
    /// case the oracles must account for.
    pub fn crash_during_quorum_loss(steps: u64) -> Self {
        FaultPlan::none()
            .at(steps / 4, Fault::FailBookie(0))
            .at(steps / 4, Fault::FailBookie(1))
            .at(steps / 2, Fault::CrashRecover)
    }

    /// GC and reclamation sweeps every sixteenth of the run, racing them
    /// against whatever snapshots the scheduler has live.
    pub fn reclamation_storm(steps: u64) -> Self {
        let period = (steps / 16).max(1);
        let mut plan = FaultPlan::none();
        let mut step = period;
        while step < steps {
            plan = plan.at(step, Fault::Gc).at(step, Fault::Maintain);
            step += period;
        }
        plan
    }

    /// A first checkpoint a quarter of the way in (the first `gc` always
    /// writes one), and at the midpoint — a quarter-run of log later, so
    /// the next is due — a crash between a checkpoint's flush and its
    /// truncation.
    pub fn crash_before_truncation(steps: u64) -> Self {
        FaultPlan::none()
            .at(steps / 4, Fault::Gc)
            .at(steps / 2, Fault::CrashBeforeTruncation)
    }

    /// A first checkpoint a quarter of the way in; at the midpoint the
    /// quorum is lost, the next checkpoint reaches only the surviving
    /// bookie, and the process crashes mid-checkpoint. Recovery reads that
    /// bookie, unacknowledged checkpoint included.
    pub fn crash_mid_checkpoint(steps: u64) -> Self {
        FaultPlan::none()
            .at(steps / 4, Fault::Gc)
            .at(steps / 2, Fault::FailBookie(0))
            .at(steps / 2, Fault::FailBookie(1))
            .at(steps / 2, Fault::Gc)
            .at(steps / 2, Fault::CrashRecover)
    }

    /// At the midpoint, arms a crash inside the next checkpoint a write
    /// commit's tick writes ([`Fault::CrashMidTickCheckpoint`]). A tick
    /// comes every 256 write commits, so the crash fires only in a run long
    /// enough to reach one after the midpoint.
    pub fn crash_mid_tick_checkpoint(steps: u64) -> Self {
        FaultPlan::none().at(steps / 2, Fault::CrashMidTickCheckpoint)
    }

    /// Everything at once: a reclamation storm over a quorum-loss window
    /// and a late crash.
    pub fn everything(steps: u64) -> Self {
        FaultPlan::quorum_loss(steps)
            .merged(FaultPlan::reclamation_storm(steps))
            .at(3 * steps / 4, Fault::CrashRecover)
    }

    /// The named presets swept by the fault-matrix test, in matrix order.
    /// `crash-mid-tick-checkpoint` is not among them: the matrix's runs
    /// are too short to reach a tick after their midpoint, so it has a
    /// test of its own.
    pub const PRESETS: [&'static str; 8] = [
        "none",
        "quorum-loss",
        "crash",
        "crash-during-quorum-loss",
        "reclamation-storm",
        "crash-before-truncation",
        "crash-mid-checkpoint",
        "everything",
    ];

    /// Resolves a preset by its [`FaultPlan::PRESETS`] name, or
    /// `crash-mid-tick-checkpoint` — the reverse direction of the
    /// `DST_PLAN=` repro command printed on failure.
    pub fn by_name(name: &str, steps: u64) -> Option<FaultPlan> {
        match name {
            "none" => Some(FaultPlan::none()),
            "quorum-loss" => Some(FaultPlan::quorum_loss(steps)),
            "crash" => Some(FaultPlan::crash(steps)),
            "crash-during-quorum-loss" => Some(FaultPlan::crash_during_quorum_loss(steps)),
            "reclamation-storm" => Some(FaultPlan::reclamation_storm(steps)),
            "crash-before-truncation" => Some(FaultPlan::crash_before_truncation(steps)),
            "crash-mid-checkpoint" => Some(FaultPlan::crash_mid_checkpoint(steps)),
            "crash-mid-tick-checkpoint" => Some(FaultPlan::crash_mid_tick_checkpoint(steps)),
            "everything" => Some(FaultPlan::everything(steps)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_preserves_insertion_order_within_a_step() {
        let plan = FaultPlan::none()
            .at(5, Fault::FailBookie(0))
            .at(3, Fault::Gc)
            .at(5, Fault::FailBookie(1));
        let at5: Vec<Fault> = plan.due(5).collect();
        assert_eq!(at5, vec![Fault::FailBookie(0), Fault::FailBookie(1)]);
        assert_eq!(plan.due(3).count(), 1);
        assert_eq!(plan.due(4).count(), 0);
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn every_preset_name_resolves() {
        for name in FaultPlan::PRESETS {
            assert!(FaultPlan::by_name(name, 100).is_some(), "{name}");
        }
        assert!(FaultPlan::by_name("crash-mid-tick-checkpoint", 100).is_some());
        assert!(FaultPlan::by_name("no-such-plan", 100).is_none());
    }

    #[test]
    fn presets_fit_inside_the_run() {
        for steps in [16u64, 100, 400] {
            for plan in [
                FaultPlan::quorum_loss(steps),
                FaultPlan::crash(steps),
                FaultPlan::crash_during_quorum_loss(steps),
                FaultPlan::reclamation_storm(steps),
                FaultPlan::crash_before_truncation(steps),
                FaultPlan::crash_mid_checkpoint(steps),
                FaultPlan::crash_mid_tick_checkpoint(steps),
                FaultPlan::everything(steps),
            ] {
                assert!(!plan.is_empty());
                assert!(plan.schedule.iter().all(|(s, _)| *s < steps));
            }
        }
    }
}
