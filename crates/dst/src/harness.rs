//! The seeded scheduler: one `u64` in, one checked history out.
//!
//! A run drives `clients` logical clients over a durable engine, one
//! operation per scheduler step, every choice (which client runs, which
//! key, read or write, when to commit) drawn from forked
//! [`SimRng`] streams of the master seed. Concurrency is *logical*:
//! transactions from different clients interleave arbitrarily between
//! their first operation and their commit, which is the only interleaving
//! the isolation algorithms can see — conflict detection keys on snapshot
//! windows, not instruction timing. Thread-level interleavings of the
//! lock-free internals are covered separately by the loom protocol models
//! (`wsi-store/tests/loom_protocols.rs`); keeping the harness
//! single-threaded is what makes byte-identical replay possible. The whole
//! run still executes under [`loom::model_seeded`], so any instrumented
//! yield points crossed are themselves a function of the seed.
//!
//! Two bookkeeping rules keep the recorded history faithful to the engine:
//!
//! * **Begin is the first operation.** A client begins its transaction and
//!   performs its first read/write within one scheduler step, so the
//!   history position of the first operation *is* the snapshot point —
//!   exactly what [`wsi_history::dsg::reads_from`] assumes.
//! * **Quorum-lost commits resolve late.** A commit that fails with a WAL
//!   error was removed from the store but its record may survive on a
//!   minority bookie. The transaction enters *limbo* and is recorded only
//!   when the run learns its fate: a successful re-flush makes the
//!   compensating abort durable (recorded `a`), while a crash resurrects
//!   any limbo commit whose record survived without its abort (recorded
//!   `c` at the crash point — correct, because no transaction straddles a
//!   crash and recovery replays it before any post-crash snapshot).

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use wsi_core::IsolationLevel;
use wsi_history::{History, Op, TxnId};
use wsi_sim::SimRng;
use wsi_store::{Db, Error, Event, ReclamationStats, StoreRecord, Transaction};
use wsi_wal::{Ledger, LedgerConfig};

use crate::clock::VirtualClock;
use crate::engine::{self, EngineCounters};
use crate::oracle::{self, WalCensus};
use crate::plan::{Fault, FaultPlan};

/// First read of each item by each transaction: the writer whose value was
/// observed (`None` = the initial, unwritten state). Values encode their
/// writer's transaction id, so this is reconstructed from real bytes.
pub type Observed = BTreeMap<(TxnId, String), Option<TxnId>>;

/// Everything a deterministic run needs to be reproduced.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The isolation level the engine runs at, and the run is checked at.
    pub level: IsolationLevel,
    /// Master seed; the run is a pure function of it (and this config).
    pub seed: u64,
    /// Scheduler steps (one client operation each, after faults).
    pub steps: u64,
    /// Logical clients.
    pub clients: usize,
    /// Key-space size (`k0..k{keys-1}`); small values force conflicts.
    pub keys: u64,
    /// Name of the fault plan, for the repro command.
    pub plan_name: String,
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Deliberately broken reads: serve each read from a fresh snapshot of
    /// the latest committed state instead of the transaction's own
    /// snapshot. Exists to prove the visibility oracle has teeth.
    pub planted_visibility_bug: bool,
}

impl RunConfig {
    /// A default run: 400 steps, 6 clients, 8 keys, no faults.
    pub fn new(level: IsolationLevel, seed: u64) -> Self {
        RunConfig {
            level,
            seed,
            steps: 400,
            clients: 6,
            keys: 8,
            plan_name: "none".to_string(),
            plan: FaultPlan::none(),
            planted_visibility_bug: false,
        }
    }

    /// Sets the number of scheduler steps.
    #[must_use]
    pub fn steps(mut self, steps: u64) -> Self {
        self.steps = steps;
        self
    }

    /// Sets the number of logical clients.
    #[must_use]
    pub fn clients(mut self, clients: usize) -> Self {
        assert!(clients > 0, "at least one client");
        self.clients = clients;
        self
    }

    /// Sets the key-space size.
    #[must_use]
    pub fn keys(mut self, keys: u64) -> Self {
        assert!(keys > 0, "at least one key");
        self.keys = keys;
        self
    }

    /// Installs a fault plan under a name used by the repro command
    /// (prefer the [`FaultPlan::PRESETS`] names so `DST_PLAN=` resolves).
    #[must_use]
    pub fn plan(mut self, name: &str, plan: FaultPlan) -> Self {
        self.plan_name = name.to_string();
        self.plan = plan;
        self
    }

    /// Enables the deliberately broken read path (see the field docs).
    #[must_use]
    pub fn plant_visibility_bug(mut self) -> Self {
        self.planted_visibility_bug = true;
        self
    }

    /// The copy-pasteable command that replays exactly this run.
    pub fn repro(&self) -> String {
        format!(
            "DST_SEED=0x{:016x} DST_ENGINE={} DST_PLAN={} DST_STEPS={} \
             cargo test -p wsi-dst --test matrix -- replay_seed_from_env --exact --nocapture",
            self.seed,
            self.level.short_name(),
            self.plan_name,
            self.steps,
        )
    }
}

/// The outcome of a run, as consumed by the oracles and the tests.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The seed that produced this report.
    pub seed: u64,
    /// The level exercised.
    pub level: IsolationLevel,
    /// The recorded history, in Berenson et al. notation.
    pub history: History,
    /// Observed reads-from relation (see [`Observed`]).
    pub observed: Observed,
    /// Engine incarnations (1 + number of crash faults executed).
    pub incarnations: u64,
    /// Quorum-lost commits resurrected by a crash recovery.
    pub resurrected: u64,
    /// Crash recoveries from a log that still held records its newest
    /// checkpoint stands in for: the crash came between the checkpoint's
    /// flush and its truncation, or before it reached quorum.
    pub untruncated_recoveries: u64,
    /// Counter movement over the final engine incarnation.
    pub delta: EngineCounters,
    /// WAL record movement over the final engine incarnation.
    pub delta_census: WalCensus,
    /// Census of the entire surviving log at the end of the run.
    pub census: WalCensus,
    /// Final reclamation accounting.
    pub reclamation: ReclamationStats,
    /// Flight-recorder events of the **final engine incarnation** (earlier
    /// incarnations' journals die with their engines at a crash fault).
    /// `Event::ts_us` is wall-clock and excluded from determinism claims;
    /// everything else is a pure function of the seed.
    pub journal: Vec<Event>,
    /// Events the final incarnation's journal overwrote (ring wrap). Zero
    /// at default run scales; nonzero means `journal` is a suffix.
    pub journal_dropped: u64,
}

impl RunReport {
    /// The last `n` journal events, rendered one per line — what the
    /// oracles dump alongside the repro command on a violation.
    pub fn journal_tail(&self, n: usize) -> String {
        let skip = self.journal.len().saturating_sub(n);
        self.journal[skip..]
            .iter()
            .map(Event::render)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Runs a configuration and checks every oracle, panicking (with a repro
/// command) on any violation.
pub fn run(config: &RunConfig) -> RunReport {
    let mut report = None;
    loom::model_seeded(config.seed, || {
        report = Some(execute(config));
    });
    let report = report.expect("model_seeded runs the closure");
    oracle::verify(&report, config);
    report
}

struct ActiveTxn {
    id: TxnId,
    txn: Transaction,
    ops_done: u64,
    ops_target: u64,
}

struct Sim<'a> {
    config: &'a RunConfig,
    repro: String,
    /// Scheduler stream: which client runs each step.
    sched: SimRng,
    /// Workload stream: keys, op kinds, transaction lengths, rollbacks.
    work: SimRng,
    clock: VirtualClock,
    engine: Db,
    ops: Vec<Op>,
    observed: Observed,
    clients: Vec<Option<ActiveTxn>>,
    next_txn: u32,
    /// Quorum-lost commits awaiting their fate: `(txn, raw start_ts)`.
    limbo: Vec<(TxnId, u64)>,
    failed_bookies: BTreeSet<usize>,
    /// A [`Fault::CrashMidTickCheckpoint`] waits for a tick's checkpoint.
    tick_crash_armed: bool,
    incarnations: u64,
    resurrected: u64,
    untruncated_recoveries: u64,
    base_counters: EngineCounters,
    base_census: WalCensus,
}

fn execute(config: &RunConfig) -> RunReport {
    let engine = engine::open(config.level);
    let base_counters = EngineCounters::of(&engine);
    let rng = SimRng::new(config.seed);
    let mut sim = Sim {
        config,
        repro: config.repro(),
        sched: rng.fork(0xD57),
        work: rng.fork(0x10AD),
        clock: VirtualClock::new(),
        engine,
        ops: Vec::new(),
        observed: Observed::new(),
        clients: (0..config.clients).map(|_| None).collect(),
        next_txn: 1,
        limbo: Vec::new(),
        failed_bookies: BTreeSet::new(),
        tick_crash_armed: false,
        incarnations: 1,
        resurrected: 0,
        untruncated_recoveries: 0,
        base_counters,
        base_census: WalCensus::default(),
    };

    for step in 0..config.steps {
        sim.clock.tick();
        let due: Vec<Fault> = config.plan.due(step).collect();
        for fault in due {
            sim.apply_fault(fault);
        }
        let client = sim.sched.below(config.clients as u64) as usize;
        sim.step_client(client);
    }
    sim.drain();
    sim.finish_report()
}

impl Sim<'_> {
    fn step_client(&mut self, c: usize) {
        match self.clients[c].take() {
            None => {
                // Begin and first operation in one step: the history
                // position of the first op is the snapshot point.
                let id = TxnId(self.next_txn);
                self.next_txn += 1;
                let txn = self.engine.begin();
                let mut active = ActiveTxn {
                    id,
                    txn,
                    ops_done: 0,
                    ops_target: self.work.between(1, 4),
                };
                self.do_op(&mut active);
                self.clients[c] = Some(active);
            }
            Some(mut active) => {
                if active.ops_done >= active.ops_target {
                    self.finish(active);
                } else {
                    self.do_op(&mut active);
                    self.clients[c] = Some(active);
                }
            }
        }
    }

    fn do_op(&mut self, active: &mut ActiveTxn) {
        let key = format!("k{}", self.work.below(self.config.keys));
        if self.work.chance(0.5) {
            let value = if self.config.planted_visibility_bug {
                // The bug under test: read the latest committed state
                // through a throwaway snapshot instead of the
                // transaction's own.
                let mut probe = self.engine.begin();
                let v = probe.get(key.as_bytes());
                probe.rollback();
                v
            } else {
                active.txn.get(key.as_bytes())
            };
            let writer = value.map(|v| self.parse_writer(&v));
            self.ops.push(Op::Read(active.id, key.clone()));
            // First read wins: `reads_from` prescribes one observation per
            // (txn, item), fixed at the first read.
            self.observed.entry((active.id, key)).or_insert(writer);
        } else {
            active
                .txn
                .put(key.as_bytes(), active.id.0.to_string().as_bytes());
            self.ops.push(Op::Write(active.id, key));
        }
        active.ops_done += 1;
    }

    fn parse_writer(&self, value: &Bytes) -> TxnId {
        std::str::from_utf8(value)
            .ok()
            .and_then(|s| s.parse::<u32>().ok())
            .map(TxnId)
            .unwrap_or_else(|| {
                panic!(
                    "value corruption: {value:?} does not encode a writer id\n  reproduce: {}",
                    self.repro
                )
            })
    }

    fn finish(&mut self, active: ActiveTxn) {
        let ActiveTxn { id, txn, .. } = active;
        if self.work.chance(0.08) {
            txn.rollback();
            self.ops.push(Op::Abort(id));
            return;
        }
        let start_ts = txn.start_ts().raw();
        // Armed, with the ensemble healthy: the commit's own flush round
        // reaches all three bookies, any later round only bookie 2.
        let armed = self.tick_crash_armed && self.failed_bookies.is_empty();
        if armed {
            self.engine.fail_wal_bookie_after(0, 1);
            self.engine.fail_wal_bookie_after(1, 1);
        }
        match txn.commit() {
            Ok(_) => self.ops.push(Op::Commit(id)),
            Err(Error::Aborted(_)) => self.ops.push(Op::Abort(id)),
            // Quorum lost between decision and persistence: the store
            // rolled the writes back, but the record may survive on a
            // minority bookie. Fate unknown until a flush or a crash.
            Err(Error::Wal(_)) => self.limbo.push((id, start_ts)),
            Err(e) => panic!("unexpected engine error: {e}\n  reproduce: {}", self.repro),
        }
        if armed {
            self.crash_if_a_tick_checkpointed();
        }
    }

    fn apply_fault(&mut self, fault: Fault) {
        match fault {
            Fault::FailBookie(idx) => {
                self.engine.fail_wal_bookie(idx);
                self.failed_bookies.insert(idx);
            }
            Fault::RecoverBookie(idx) => {
                self.engine.recover_wal_bookie(idx);
                self.failed_bookies.remove(&idx);
                self.retry_limbo_flush();
            }
            Fault::CrashRecover => {
                let wal = self.engine.wal_snapshot().expect("engines run durable");
                self.crash_recover(wal.base(), wal.recover());
            }
            Fault::CrashBeforeTruncation => {
                // The log as a crash between the checkpoint's flush and
                // its truncation leaves it: everything before the `gc`,
                // then whatever the `gc`'s round appended.
                let before = self.engine.wal_snapshot().expect("engines run durable");
                let _ = self.engine.gc();
                let after = self.engine.wal_snapshot().expect("engines run durable");
                let mut payloads = before.recover();
                let end = before.base() + payloads.len() as u64;
                let appended = after.recover().into_iter();
                payloads.extend(appended.skip(end.saturating_sub(after.base()) as usize));
                self.crash_recover(before.base(), payloads);
            }
            Fault::CrashMidTickCheckpoint => self.tick_crash_armed = true,
            Fault::Gc => {
                let _ = self.engine.gc();
                self.check_reclamation("after gc");
            }
            Fault::Maintain => {
                self.engine.maintain();
                self.check_reclamation("after maintain");
            }
        }
    }

    /// After an armed commit: if its tick wrote a checkpoint, that round
    /// missed its quorum and its records wait in the retained buffer — crash
    /// now and recover from bookie 2, the checkpoint included and nothing
    /// truncated behind it. Otherwise disarm bookies 0 and 1, which
    /// accepted only the commit's own round.
    fn crash_if_a_tick_checkpointed(&mut self) {
        let wal = self.engine.wal_snapshot().expect("engines run durable");
        if wal.pending_records() > 0 {
            // Bookies 0 and 1 failed at the checkpoint's store: the log
            // recovery reads is bookie 2's.
            self.tick_crash_armed = false;
            self.crash_recover(wal.base(), wal.recover());
        } else {
            self.engine.recover_wal_bookie(0);
            self.engine.recover_wal_bookie(1);
        }
    }

    /// After a bookie heals, retry the retained flush buffer: success makes
    /// every limbo transaction's compensating abort durable, settling them
    /// all as aborted.
    fn retry_limbo_flush(&mut self) {
        if !self.limbo.is_empty() && self.engine.flush_wal().is_ok() {
            for (id, _) in std::mem::take(&mut self.limbo) {
                self.ops.push(Op::Abort(id));
            }
        }
    }

    /// Drops the engine (in-flight transactions and the unflushed WAL
    /// buffer die with it), settles limbo against the surviving records —
    /// `payloads`, the log's gap-free run from sequence number `base` — and
    /// replays them into a fresh engine on a healthy replacement ensemble
    /// that continues the log's sequence numbers.
    fn crash_recover(&mut self, base: u64, payloads: Vec<Bytes>) {
        for slot in &mut self.clients {
            if let Some(active) = slot.take() {
                // The client never saw a commit; the handle just dies.
                self.ops.push(Op::Abort(active.id));
                drop(active.txn);
            }
        }

        let records = oracle::decode_all(&payloads, &self.repro);
        let newest_cut = records.iter().rev().find_map(|r| match r {
            StoreRecord::Checkpoint(c) => Some(c.cut),
            _ => None,
        });
        if newest_cut.is_some_and(|cut| cut > base) {
            self.untruncated_recoveries += 1;
        }
        let (census, sets) = oracle::census(base, records, &self.repro);

        // Limbo fates: a commit record that survived without its
        // compensating abort is replayed by recovery — the transaction is
        // retroactively committed, and becomes visible only after this
        // point, which is exactly where we record it.
        for (id, start_ts) in std::mem::take(&mut self.limbo) {
            if sets.committed.contains(&start_ts) && !sets.aborted.contains(&start_ts) {
                self.ops.push(Op::Commit(id));
                self.resurrected += 1;
            } else {
                self.ops.push(Op::Abort(id));
            }
        }

        let mut fresh = Ledger::open_at(LedgerConfig::default_replicated(), base);
        for payload in &payloads {
            fresh.append(payload.clone(), self.clock.now_us());
        }
        fresh
            .flush(self.clock.now_us())
            .expect("replacement ensemble is healthy");
        self.engine = engine::recover(self.config.level, fresh)
            .unwrap_or_else(|e| panic!("recovery failed: {e}\n  reproduce: {}", self.repro));
        self.failed_bookies.clear();
        self.incarnations += 1;
        self.base_counters = EngineCounters::of(&self.engine);
        self.base_census = census;
    }

    fn check_reclamation(&self, context: &str) {
        let rec = self.engine.reclamation();
        if rec.retired != rec.freed + rec.limbo {
            panic!(
                "reconciliation violation {context}: retired {} != freed {} + limbo {}\n  \
                 reproduce: {}",
                rec.retired, rec.freed, rec.limbo, self.repro
            );
        }
    }

    /// End of run: finish every in-flight transaction, heal the ensemble,
    /// flush, and settle any remaining limbo as aborted (their compensating
    /// aborts just became durable).
    fn drain(&mut self) {
        for c in 0..self.clients.len() {
            if let Some(active) = self.clients[c].take() {
                self.finish(active);
            }
        }
        for idx in std::mem::take(&mut self.failed_bookies) {
            self.engine.recover_wal_bookie(idx);
        }
        self.engine
            .flush_wal()
            .expect("flush succeeds once every bookie is healthy");
        for (id, _) in std::mem::take(&mut self.limbo) {
            self.ops.push(Op::Abort(id));
        }
    }

    fn finish_report(self) -> RunReport {
        self.check_reclamation("at end of run");
        let final_counters = EngineCounters::of(&self.engine);
        let wal = self.engine.wal_snapshot().expect("engines run durable");
        let records = oracle::decode_all(&wal.recover(), &self.repro);
        let (census, _) = oracle::census(wal.base(), records, &self.repro);
        let (journal, journal_dropped) = match self.engine.journal() {
            Some(journal) => (journal.snapshot(), journal.dropped()),
            None => (Vec::new(), 0),
        };
        let history = History::new(self.ops);
        RunReport {
            seed: self.config.seed,
            level: self.config.level,
            history,
            observed: self.observed,
            incarnations: self.incarnations,
            resurrected: self.resurrected,
            untruncated_recoveries: self.untruncated_recoveries,
            delta: final_counters.since(&self.base_counters),
            delta_census: census.since(&self.base_census),
            census,
            reclamation: self.engine.reclamation(),
            journal,
            journal_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_per_engine() {
        for level in engine::LEVELS {
            let report = run(&RunConfig::new(level, 0x5EED).steps(120));
            assert!(report.delta.begins > 0, "{level}");
            assert!(report.delta.commits > 0, "{level}");
            assert_eq!(report.incarnations, 1);
        }
    }

    #[test]
    fn repro_command_round_trips_through_the_env_names() {
        let config = RunConfig::new(IsolationLevel::SerializableSnapshot, 0xBEEF)
            .plan("crash", FaultPlan::crash(400));
        let repro = config.repro();
        assert!(repro.contains("DST_SEED=0x000000000000beef"));
        assert!(repro.contains("DST_ENGINE=ssi"));
        assert!(repro.contains("DST_PLAN=crash"));
        assert!(repro.contains("DST_STEPS=400"));
    }
}
