//! A uniform handle over the three engines under test.
//!
//! The harness drives classic snapshot isolation and write-snapshot
//! isolation through [`wsi_store::Db`] and the serializable-SI variant
//! through [`wsi_store::ssi_db::SsiDb`]. This module folds them behind one
//! enum so the scheduler, fault injector, and oracles are written once.
//! All engines run **durable** on the default 3-replica / quorum-2 ledger
//! in synchronous mode: every commit is acknowledged only after a quorum
//! flush, which is the contract the fault plans attack.

use wsi_core::{IsolationLevel, Timestamp};
use wsi_store::ssi_db::{SsiDb, SsiTransaction};
use wsi_store::{Db, DbOptions, Error, GcStats, Journal, ReclamationStats, Result, Transaction};
use wsi_wal::{Ledger, LedgerConfig};

/// Which engine a run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Classic snapshot isolation (write-write conflict detection).
    Si,
    /// Write-snapshot isolation (read-write conflict detection).
    Wsi,
    /// Serializable SI (dangerous-structure detection).
    Ssi,
}

impl EngineKind {
    /// All engine kinds, in matrix order.
    pub const ALL: [EngineKind; 3] = [EngineKind::Si, EngineKind::Wsi, EngineKind::Ssi];

    /// Short label for repro commands and reports.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Si => "si",
            EngineKind::Wsi => "wsi",
            EngineKind::Ssi => "ssi",
        }
    }

    /// Parses a [`EngineKind::label`] back into a kind.
    pub fn from_label(label: &str) -> Option<EngineKind> {
        match label {
            "si" => Some(EngineKind::Si),
            "wsi" => Some(EngineKind::Wsi),
            "ssi" => Some(EngineKind::Ssi),
            _ => None,
        }
    }

    /// Whether the engine guarantees serializable histories. SI does not —
    /// the DSG oracle only *records* its verdict; for the other two a
    /// cycle is a bug.
    pub fn claims_serializability(self) -> bool {
        !matches!(self, EngineKind::Si)
    }
}

/// Abort/commit accounting unified across the two stat shapes.
///
/// The engines book a quorum-loss overturn differently: `Db` decides the
/// commit before the flush and treats the overturn as a third fate —
/// `commits` is reported net of overturns and **no abort counter moves**,
/// so the overturn count is only recoverable from the WAL's
/// commit/compensating-abort record pairs. `SsiDb` runs the flush inside
/// [`wsi_core::SsiOracle::commit_durable`] and books the failure under
/// `wal_overturned` (an abort bucket). The reconciliation oracle consumes
/// exactly this asymmetry; see [`crate::oracle`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Transactions begun.
    pub begins: u64,
    /// Commits as decided by the oracle (see type docs for the quorum-loss
    /// asymmetry).
    pub commits: u64,
    /// Read-only commits.
    pub read_only_commits: u64,
    /// All aborts, including client rollbacks.
    pub total_aborts: u64,
    /// Client-requested rollbacks (never reach the WAL).
    pub client_aborts: u64,
    /// Commits overturned by a WAL quorum loss, as counted by the engine.
    /// Zero for `Db`, whose stats fold these into `commits`.
    pub wal_overturned: u64,
}

impl EngineCounters {
    /// Componentwise difference against a baseline taken earlier in the
    /// same engine incarnation.
    pub fn since(&self, base: &EngineCounters) -> EngineCounters {
        EngineCounters {
            begins: self.begins - base.begins,
            commits: self.commits - base.commits,
            read_only_commits: self.read_only_commits - base.read_only_commits,
            total_aborts: self.total_aborts - base.total_aborts,
            client_aborts: self.client_aborts - base.client_aborts,
            wal_overturned: self.wal_overturned - base.wal_overturned,
        }
    }
}

/// One engine incarnation (replaced wholesale by a crash fault).
pub(crate) enum Engine {
    Db(Db),
    Ssi(SsiDb),
}

impl Engine {
    /// Opens a fresh durable engine.
    pub(crate) fn open(kind: EngineKind) -> Engine {
        let wal = LedgerConfig::default_replicated();
        match kind {
            EngineKind::Si => Engine::Db(Db::open(
                DbOptions::new(IsolationLevel::Snapshot).durable(wal),
            )),
            EngineKind::Wsi => Engine::Db(Db::open(
                DbOptions::new(IsolationLevel::WriteSnapshot).durable(wal),
            )),
            EngineKind::Ssi => Engine::Ssi(SsiDb::open_durable(wal)),
        }
    }

    /// Replays a recovered ledger into a fresh engine of the same kind.
    pub(crate) fn recover(kind: EngineKind, ledger: Ledger) -> Result<Engine> {
        let wal = LedgerConfig::default_replicated();
        match kind {
            EngineKind::Si => Db::recover(
                DbOptions::new(IsolationLevel::Snapshot).durable(wal),
                ledger,
            )
            .map(Engine::Db),
            EngineKind::Wsi => Db::recover(
                DbOptions::new(IsolationLevel::WriteSnapshot).durable(wal),
                ledger,
            )
            .map(Engine::Db),
            EngineKind::Ssi => SsiDb::recover(ledger).map(Engine::Ssi),
        }
    }

    pub(crate) fn begin(&self) -> Txn {
        match self {
            Engine::Db(db) => Txn::Db(db.begin()),
            Engine::Ssi(db) => Txn::Ssi(db.begin()),
        }
    }

    pub(crate) fn fail_bookie(&self, idx: usize) {
        match self {
            Engine::Db(db) => db.fail_wal_bookie(idx),
            Engine::Ssi(db) => db.fail_wal_bookie(idx),
        }
    }

    pub(crate) fn recover_bookie(&self, idx: usize) {
        match self {
            Engine::Db(db) => db.recover_wal_bookie(idx),
            Engine::Ssi(db) => db.recover_wal_bookie(idx),
        }
    }

    pub(crate) fn flush_wal(&self) -> Result<()> {
        match self {
            Engine::Db(db) => db.flush_wal(),
            Engine::Ssi(db) => db.flush_wal(),
        }
    }

    pub(crate) fn wal_snapshot(&self) -> Option<Ledger> {
        match self {
            Engine::Db(db) => db.wal_snapshot(),
            Engine::Ssi(db) => db.wal_snapshot(),
        }
    }

    pub(crate) fn gc(&self) -> GcStats {
        match self {
            Engine::Db(db) => db.gc(),
            Engine::Ssi(db) => db.gc(),
        }
    }

    pub(crate) fn maintain(&self) {
        match self {
            Engine::Db(db) => db.maintain(),
            Engine::Ssi(db) => db.maintain(),
        }
    }

    pub(crate) fn reclamation(&self) -> ReclamationStats {
        match self {
            Engine::Db(db) => db.reclamation(),
            Engine::Ssi(db) => db.reclamation(),
        }
    }

    /// The engine's flight-recorder journal. `Db` opens one because the
    /// default options enable observability; `SsiDb`'s is unconditional.
    pub(crate) fn journal(&self) -> Option<&Journal> {
        match self {
            Engine::Db(db) => db.journal(),
            Engine::Ssi(db) => Some(db.journal()),
        }
    }

    pub(crate) fn counters(&self) -> EngineCounters {
        match self {
            Engine::Db(db) => {
                let o = db.stats().oracle;
                EngineCounters {
                    begins: o.begins,
                    commits: o.commits,
                    read_only_commits: o.read_only_commits,
                    total_aborts: o.total_aborts(),
                    client_aborts: o.client_aborts,
                    wal_overturned: 0,
                }
            }
            Engine::Ssi(db) => {
                let s = db.stats();
                EngineCounters {
                    begins: s.begins,
                    commits: s.commits,
                    read_only_commits: s.read_only_commits,
                    total_aborts: s.total_aborts(),
                    client_aborts: s.client_aborts,
                    wal_overturned: s.wal_aborts,
                }
            }
        }
    }
}

/// One in-flight transaction handle (owns its engine `Arc`, so it survives
/// fault application order).
pub(crate) enum Txn {
    Db(Transaction),
    Ssi(SsiTransaction),
}

impl Txn {
    pub(crate) fn start_ts(&self) -> Timestamp {
        match self {
            Txn::Db(t) => t.start_ts(),
            Txn::Ssi(t) => t.start_ts(),
        }
    }

    pub(crate) fn get(&mut self, key: &[u8]) -> Option<bytes::Bytes> {
        match self {
            Txn::Db(t) => t.get(key),
            Txn::Ssi(t) => t.get(key),
        }
    }

    pub(crate) fn put(&mut self, key: &[u8], value: &[u8]) {
        match self {
            Txn::Db(t) => t.put(key, value),
            Txn::Ssi(t) => t.put(key, value),
        }
    }

    pub(crate) fn commit(self) -> std::result::Result<Timestamp, Error> {
        match self {
            Txn::Db(t) => t.commit(),
            Txn::Ssi(t) => t.commit(),
        }
    }

    pub(crate) fn rollback(self) {
        match self {
            Txn::Db(t) => t.rollback(),
            Txn::Ssi(t) => t.rollback(),
        }
    }
}
