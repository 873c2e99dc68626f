//! The engine under test: [`wsi_store::Db`] at one of its three levels.
//!
//! Snapshot isolation, write-snapshot isolation and serializable SI are one
//! engine differing only in what is certified at commit, so the scheduler,
//! fault injector, and oracles hold a plain `Db`. Every run is **durable**
//! on the default 3-replica / quorum-2 ledger in synchronous mode: every
//! commit is acknowledged only after a quorum flush, which is the contract
//! the fault plans attack.

use wsi_core::IsolationLevel;
use wsi_store::{Db, DbOptions, Result};
use wsi_wal::{Ledger, LedgerConfig};

/// The three levels a run can exercise, in matrix order.
pub const LEVELS: [IsolationLevel; 3] = [
    IsolationLevel::Snapshot,
    IsolationLevel::WriteSnapshot,
    IsolationLevel::SerializableSnapshot,
];

fn options(level: IsolationLevel) -> DbOptions {
    DbOptions::new(level).durable(LedgerConfig::default_replicated())
}

/// Opens a fresh durable engine at `level`.
pub(crate) fn open(level: IsolationLevel) -> Db {
    Db::open(options(level))
}

/// Replays a recovered ledger into a fresh engine at `level`.
pub(crate) fn recover(level: IsolationLevel, ledger: Ledger) -> Result<Db> {
    Db::recover(options(level), ledger)
}

/// Abort/commit accounting over one engine incarnation.
///
/// A quorum-loss overturn is a third fate: `Db` decides the commit before
/// the flush, so `commits` is reported net of overturns and **no abort
/// counter moves** — the overturn count is only recoverable from the WAL's
/// commit/compensating-abort record pairs, which is what the reconciliation
/// oracle pairs these counters with; see [`crate::oracle`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Transactions begun.
    pub begins: u64,
    /// Commits as decided by the oracle, net of overturns.
    pub commits: u64,
    /// Read-only commits.
    pub read_only_commits: u64,
    /// All aborts, including client rollbacks.
    pub total_aborts: u64,
    /// Client-requested rollbacks (never reach the WAL).
    pub client_aborts: u64,
}

impl EngineCounters {
    /// The engine's counters now.
    pub(crate) fn of(db: &Db) -> EngineCounters {
        let o = db.stats().oracle;
        EngineCounters {
            begins: o.begins,
            commits: o.commits,
            read_only_commits: o.read_only_commits,
            total_aborts: o.total_aborts(),
            client_aborts: o.client_aborts,
        }
    }

    /// Componentwise difference against a baseline taken earlier in the
    /// same engine incarnation.
    pub fn since(&self, base: &EngineCounters) -> EngineCounters {
        EngineCounters {
            begins: self.begins - base.begins,
            commits: self.commits - base.commits,
            read_only_commits: self.read_only_commits - base.read_only_commits,
            total_aborts: self.total_aborts - base.total_aborts,
            client_aborts: self.client_aborts - base.client_aborts,
        }
    }
}
