//! Errors, commit outcomes and transaction fates.

use std::fmt;

use crate::{row::RowId, ts::Timestamp};

/// Convenient alias for results in this workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Why the status oracle refused to commit a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// Snapshot isolation: a concurrent committed transaction already wrote
    /// one of this transaction's *written* rows (write-write conflict,
    /// Algorithm 1 line 2).
    WriteWriteConflict {
        /// The row on which the conflict was detected.
        row: RowId,
        /// The conflicting committed transaction's commit timestamp.
        committed_at: Timestamp,
    },
    /// Write-snapshot isolation: a concurrent committed transaction wrote one
    /// of this transaction's *read* rows (read-write conflict, Algorithm 2
    /// line 2).
    ReadWriteConflict {
        /// The row on which the conflict was detected.
        row: RowId,
        /// The conflicting committed transaction's commit timestamp.
        committed_at: Timestamp,
    },
    /// Memory-bounded oracle (Algorithm 3 line 8): the row was not resident
    /// in `lastCommit` and the transaction's start timestamp predates
    /// `T_max`, so a conflict cannot be ruled out. Pessimistic — the
    /// transaction might have been conflict-free.
    TmaxExceeded {
        /// The transaction's start timestamp.
        start_ts: Timestamp,
        /// The oracle's `T_max` at the time of the check.
        t_max: Timestamp,
    },
    /// Serializable snapshot isolation: committing would complete a
    /// dangerous structure — a pivot with an rw-antidependency both in and
    /// out among concurrent transactions ([`crate::ssi::SsiWindow`]). Each
    /// edge is named by its committed partner's commit timestamp; `None` is
    /// an edge the structure that fired does not have at the victim (the
    /// pivot is then the one partner named, already committed).
    DangerousStructure {
        /// Commit stamp of the partner that read what the victim overwrites
        /// (`partner →rw victim`).
        in_commit_ts: Option<Timestamp>,
        /// Commit timestamp of the partner that overwrote what the victim
        /// read (`victim →rw partner`).
        out_commit_ts: Option<Timestamp>,
    },
    /// The client requested the abort (an application-level rollback).
    ClientRequested,
}

impl AbortReason {
    /// This reason in the flight recorder's culprit-attributed encoding
    /// ([`wsi_obs::Cause`]): conflict reasons carry the committed culprit's
    /// commit timestamp as the journal's join key.
    pub fn journal_cause(&self) -> wsi_obs::Cause {
        match *self {
            AbortReason::WriteWriteConflict { row, committed_at } => wsi_obs::Cause::WriteWrite {
                row: row.raw(),
                committed_at: committed_at.raw(),
            },
            AbortReason::ReadWriteConflict { row, committed_at } => wsi_obs::Cause::ReadWrite {
                row: row.raw(),
                committed_at: committed_at.raw(),
            },
            AbortReason::TmaxExceeded { t_max, .. } => wsi_obs::Cause::Tmax { t_max: t_max.raw() },
            AbortReason::DangerousStructure {
                in_commit_ts,
                out_commit_ts,
            } => wsi_obs::Cause::Pivot {
                in_commit_ts: in_commit_ts.map_or(0, Timestamp::raw),
                out_commit_ts: out_commit_ts.map_or(0, Timestamp::raw),
            },
            AbortReason::ClientRequested => wsi_obs::Cause::Client,
        }
    }

    /// The commit timestamp this reason blames, when it names one (the
    /// per-row conflict verdict payload: the culprit's commit timestamp
    /// for WW/RW conflicts, the eviction bound for `T_max` aborts, the
    /// out-edge partner of a dangerous structure — its in-edge partner when
    /// there is no out edge).
    pub fn conflict_ts(&self) -> Option<Timestamp> {
        match *self {
            AbortReason::WriteWriteConflict { committed_at, .. }
            | AbortReason::ReadWriteConflict { committed_at, .. } => Some(committed_at),
            AbortReason::TmaxExceeded { t_max, .. } => Some(t_max),
            AbortReason::DangerousStructure {
                in_commit_ts,
                out_commit_ts,
            } => out_commit_ts.or(in_commit_ts),
            AbortReason::ClientRequested => None,
        }
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::WriteWriteConflict { row, committed_at } => {
                write!(
                    f,
                    "write-write conflict on {row} (committed at {committed_at})"
                )
            }
            AbortReason::ReadWriteConflict { row, committed_at } => {
                write!(
                    f,
                    "read-write conflict on {row} (committed at {committed_at})"
                )
            }
            AbortReason::TmaxExceeded { start_ts, t_max } => write!(
                f,
                "conflict state evicted: start {start_ts} predates T_max {t_max}"
            ),
            AbortReason::DangerousStructure {
                in_commit_ts,
                out_commit_ts,
            } => {
                write!(f, "dangerous structure")?;
                if let Some(ts) = in_commit_ts {
                    write!(f, ", rw edge in from the commit at {ts}")?;
                }
                if let Some(ts) = out_commit_ts {
                    write!(f, ", rw edge out to the commit at {ts}")?;
                }
                Ok(())
            }
            AbortReason::ClientRequested => write!(f, "abort requested by client"),
        }
    }
}

/// The status oracle's decision on a commit request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The transaction committed with the given commit timestamp.
    Committed(Timestamp),
    /// The transaction aborted.
    Aborted(AbortReason),
}

impl CommitOutcome {
    /// Returns `true` if the outcome is a commit.
    #[inline]
    pub fn is_committed(&self) -> bool {
        matches!(self, CommitOutcome::Committed(_))
    }

    /// Returns `true` if the outcome is an abort.
    #[inline]
    pub fn is_aborted(&self) -> bool {
        matches!(self, CommitOutcome::Aborted(_))
    }

    /// Returns the commit timestamp, if committed.
    #[inline]
    pub fn commit_ts(&self) -> Option<Timestamp> {
        match self {
            CommitOutcome::Committed(ts) => Some(*ts),
            CommitOutcome::Aborted(_) => None,
        }
    }

    /// Returns the abort reason, if aborted.
    #[inline]
    pub fn abort_reason(&self) -> Option<AbortReason> {
        match self {
            CommitOutcome::Committed(_) => None,
            CommitOutcome::Aborted(r) => Some(*r),
        }
    }

    /// Converts the outcome into a `Result`, mapping aborts to
    /// [`Error::Aborted`].
    pub fn into_result(self) -> Result<Timestamp> {
        match self {
            CommitOutcome::Committed(ts) => Ok(ts),
            CommitOutcome::Aborted(reason) => Err(Error::Aborted(reason)),
        }
    }
}

/// A transaction's fate, as a snapshot reader resolves it.
///
/// A reader skips a version whose writer is "(i) not committed yet, (ii)
/// aborted, or (iii) committed with a commit timestamp larger than the start
/// timestamp" (§2.2). The embedded store's registry of open transactions
/// answers with this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// The transaction has neither committed nor aborted (in flight, or
    /// unknown to the resolver).
    Pending,
    /// The transaction committed at the given timestamp.
    Committed(Timestamp),
    /// The transaction aborted.
    Aborted,
}

/// Errors surfaced by the core state machine and its embedders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The transaction aborted at commit time.
    Aborted(AbortReason),
    /// An operation referenced a transaction the oracle does not know
    /// (already garbage-collected, never begun, or double-committed).
    UnknownTransaction(Timestamp),
    /// An operation was attempted on a transaction that already finished.
    TransactionFinished(Timestamp),
    /// The underlying write-ahead log rejected a write (e.g. all replicas
    /// failed); the commit decision must not be exposed.
    WalUnavailable(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Aborted(reason) => write!(f, "transaction aborted: {reason}"),
            Error::UnknownTransaction(ts) => write!(f, "unknown transaction {ts}"),
            Error::TransactionFinished(ts) => {
                write!(f, "transaction {ts} has already committed or aborted")
            }
            Error::WalUnavailable(msg) => write!(f, "write-ahead log unavailable: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        let c = CommitOutcome::Committed(Timestamp(9));
        assert!(c.is_committed());
        assert!(!c.is_aborted());
        assert_eq!(c.commit_ts(), Some(Timestamp(9)));
        assert_eq!(c.abort_reason(), None);
        assert_eq!(c.into_result(), Ok(Timestamp(9)));

        let a = CommitOutcome::Aborted(AbortReason::ClientRequested);
        assert!(a.is_aborted());
        assert_eq!(a.commit_ts(), None);
        assert_eq!(
            a.into_result(),
            Err(Error::Aborted(AbortReason::ClientRequested))
        );
    }

    #[test]
    fn display_messages_name_the_row() {
        let r = AbortReason::ReadWriteConflict {
            row: RowId(5),
            committed_at: Timestamp(12),
        };
        let s = r.to_string();
        assert!(s.contains("row:5"));
        assert!(s.contains("ts:12"));
        assert!(s.contains("read-write"));
    }

    #[test]
    fn dangerous_structure_blames_a_partner_never_the_victim() {
        let both = AbortReason::DangerousStructure {
            in_commit_ts: Some(Timestamp(7)),
            out_commit_ts: Some(Timestamp(9)),
        };
        assert_eq!(both.conflict_ts(), Some(Timestamp(9)), "out edge first");
        let in_only = AbortReason::DangerousStructure {
            in_commit_ts: Some(Timestamp(7)),
            out_commit_ts: None,
        };
        assert_eq!(in_only.conflict_ts(), Some(Timestamp(7)));
        assert_eq!(
            in_only.journal_cause(),
            wsi_obs::Cause::Pivot {
                in_commit_ts: 7,
                out_commit_ts: 0
            }
        );
        let s = both.to_string();
        assert!(s.contains("dangerous structure") && s.contains("ts:7") && s.contains("ts:9"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::UnknownTransaction(Timestamp(1)));
    }
}
