//! The commit table: transaction start-to-commit timestamp mapping.
//!
//! Line 6 of Algorithms 1–2 "maintains the mapping between the transaction
//! start and commit timestamps. This data could be used later to process
//! queries about the transaction statuses" (§2.2). Readers use exactly such
//! queries to decide whether a data version written with start timestamp
//! `T_s(w)` is visible in their snapshot: skip it if the writer is (i) not
//! committed, (ii) aborted, or (iii) committed with `T_c(w)` greater than the
//! reader's start timestamp.

use std::collections::{HashMap, HashSet};

use crate::ts::Timestamp;

/// A transaction's status as recorded by the commit table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// The transaction has neither committed nor aborted (in flight, or
    /// unknown to this replica of the table).
    Pending,
    /// The transaction committed at the given timestamp.
    Committed(Timestamp),
    /// The transaction aborted.
    Aborted,
}

impl TxnStatus {
    /// Returns the commit timestamp, if committed.
    #[inline]
    pub fn commit_ts(self) -> Option<Timestamp> {
        match self {
            TxnStatus::Committed(ts) => Some(ts),
            _ => None,
        }
    }
}

/// Mapping from transaction start timestamps to their fate.
///
/// The status oracle holds the authoritative copy; the paper's two deployment
/// options replicate it either into the data store ("written back into the
/// database") or onto the clients (§2.2 — the configuration the paper
/// evaluates). [`CommitTable::clone`] gives a consistent point-in-time client
/// replica for tests and simulations.
///
/// # Example
///
/// ```
/// use wsi_core::{CommitTable, Timestamp, TxnStatus};
///
/// let mut table = CommitTable::new();
/// table.record_commit(Timestamp(3), Timestamp(7));
/// table.record_abort(Timestamp(4));
///
/// assert_eq!(table.status(Timestamp(3)), TxnStatus::Committed(Timestamp(7)));
/// assert_eq!(table.status(Timestamp(4)), TxnStatus::Aborted);
/// assert_eq!(table.status(Timestamp(5)), TxnStatus::Pending);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CommitTable {
    commits: HashMap<Timestamp, Timestamp>,
    aborts: HashSet<Timestamp>,
}

impl CommitTable {
    /// Creates an empty commit table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the transaction that started at `start_ts` committed at
    /// `commit_ts`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the transaction already has a recorded fate
    /// or if `commit_ts <= start_ts`; the oracle issues commit timestamps
    /// after start timestamps from one counter, so either indicates a logic
    /// error in the embedding layer.
    pub fn record_commit(&mut self, start_ts: Timestamp, commit_ts: Timestamp) {
        debug_assert!(commit_ts > start_ts, "commit ts must follow start ts");
        debug_assert!(!self.aborts.contains(&start_ts), "txn already aborted");
        let prev = self.commits.insert(start_ts, commit_ts);
        debug_assert!(prev.is_none(), "txn already committed");
    }

    /// Records that the transaction that started at `start_ts` aborted.
    pub fn record_abort(&mut self, start_ts: Timestamp) {
        debug_assert!(
            !self.commits.contains_key(&start_ts),
            "txn already committed"
        );
        self.aborts.insert(start_ts);
    }

    /// Queries the status of the transaction that started at `start_ts`.
    pub fn status(&self, start_ts: Timestamp) -> TxnStatus {
        if let Some(&commit_ts) = self.commits.get(&start_ts) {
            TxnStatus::Committed(commit_ts)
        } else if self.aborts.contains(&start_ts) {
            TxnStatus::Aborted
        } else {
            TxnStatus::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_transitions() {
        let mut t = CommitTable::new();
        assert_eq!(t.status(Timestamp(1)), TxnStatus::Pending);
        t.record_commit(Timestamp(1), Timestamp(2));
        assert_eq!(t.status(Timestamp(1)), TxnStatus::Committed(Timestamp(2)));
        t.record_abort(Timestamp(3));
        assert_eq!(t.status(Timestamp(3)), TxnStatus::Aborted);
    }

    #[test]
    fn clone_is_a_point_in_time_replica() {
        let mut t = CommitTable::new();
        t.record_commit(Timestamp(1), Timestamp(2));
        let replica = t.clone();
        t.record_commit(Timestamp(3), Timestamp(4));
        assert_eq!(replica.status(Timestamp(3)), TxnStatus::Pending);
        assert_eq!(
            replica.status(Timestamp(1)),
            TxnStatus::Committed(Timestamp(2))
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "commit ts must follow start ts")]
    fn commit_before_start_rejected() {
        let mut t = CommitTable::new();
        t.record_commit(Timestamp(5), Timestamp(5));
    }
}
