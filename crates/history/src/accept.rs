//! Replaying histories against the real conflict-detection algorithms.
//!
//! Rather than re-encoding the paper's acceptance rules, a history is fed
//! through [`wsi_core::StatusOracleCore`] — the same state machine the
//! cluster simulation runs and the model the embedded store's oracle is
//! tested against — at any of the three isolation levels. A transaction
//! *begins* at its first operation, accumulates read/write sets from its
//! `r`/`w` operations, and submits a commit request at its `c` operation.
//! The history is *accepted* by an isolation level iff every transaction
//! the history commits is committed by the oracle.

use std::collections::BTreeMap;

use wsi_core::{
    hash_row_key, CommitOutcome, CommitRequest, IsolationLevel, RowId, StatusOracleCore, Timestamp,
};

use crate::ops::{History, Op, TxnId};

/// Per-transaction result of a replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// The start timestamp the oracle issued.
    pub start_ts: Timestamp,
    /// The oracle's decision, or `None` if the history never
    /// commits/aborts the transaction (left in flight).
    pub outcome: Option<CommitOutcome>,
}

/// Full replay report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// The isolation level replayed under.
    pub level: IsolationLevel,
    /// Per-transaction outcomes.
    pub txns: BTreeMap<TxnId, ReplayOutcome>,
}

impl Replay {
    /// `true` iff every history-committed transaction was committed by the
    /// oracle.
    pub fn accepted(&self, history: &History) -> bool {
        history.committed().iter().all(|t| {
            matches!(
                self.txns.get(t).and_then(|r| r.outcome),
                Some(CommitOutcome::Committed(_))
            )
        })
    }
}

struct TxnState {
    start_ts: Timestamp,
    reads: Vec<RowId>,
    writes: Vec<RowId>,
}

/// Replays `history` under `level`, returning every oracle decision.
pub fn replay(history: &History, level: IsolationLevel) -> Replay {
    let mut oracle = StatusOracleCore::unbounded(level);
    let mut live: BTreeMap<TxnId, TxnState> = BTreeMap::new();
    let mut report: BTreeMap<TxnId, ReplayOutcome> = BTreeMap::new();

    for op in history.ops() {
        let txn = op.txn();
        let state = live.entry(txn).or_insert_with(|| {
            let start_ts = oracle.begin();
            report.insert(
                txn,
                ReplayOutcome {
                    start_ts,
                    outcome: None,
                },
            );
            TxnState {
                start_ts,
                reads: Vec::new(),
                writes: Vec::new(),
            }
        });
        match op {
            Op::Read(_, item) => {
                let row = hash_row_key(item.as_bytes());
                if !state.reads.contains(&row) {
                    state.reads.push(row);
                }
            }
            Op::Write(_, item) => {
                let row = hash_row_key(item.as_bytes());
                if !state.writes.contains(&row) {
                    state.writes.push(row);
                }
            }
            Op::Commit(_) => {
                let state = live.remove(&txn).expect("entry just ensured");
                let outcome = oracle.commit(CommitRequest::new(
                    state.start_ts,
                    state.reads,
                    state.writes,
                ));
                report.get_mut(&txn).expect("registered at begin").outcome = Some(outcome);
            }
            Op::Abort(_) => {
                let state = live.remove(&txn).expect("entry just ensured");
                oracle.abort(state.start_ts);
                report.get_mut(&txn).expect("registered at begin").outcome = Some(
                    CommitOutcome::Aborted(wsi_core::AbortReason::ClientRequested),
                );
            }
        }
    }
    Replay {
        level,
        txns: report,
    }
}

/// Returns `true` iff `level` admits `history` (all history-committed
/// transactions commit).
///
/// # Example
///
/// ```
/// use wsi_core::IsolationLevel;
/// use wsi_history::{accept, History};
///
/// // History 4: SI aborts the blind writer; WSI admits both.
/// let h4: History = "r1[x] w2[x] w1[x] c1 c2".parse().unwrap();
/// assert!(!accept::accepts(&h4, IsolationLevel::Snapshot));
/// assert!(accept::accepts(&h4, IsolationLevel::WriteSnapshot));
/// // History 6: WSI refuses (an unnecessary rw-conflict abort); SSI admits,
/// // since a single rw-antidependency is not a dangerous structure.
/// let h6: History = "r1[x] r2[z] w2[x] w1[y] c2 c1".parse().unwrap();
/// assert!(!accept::accepts(&h6, IsolationLevel::WriteSnapshot));
/// assert!(accept::accepts(&h6, IsolationLevel::SerializableSnapshot));
/// ```
pub fn accepts(history: &History, level: IsolationLevel) -> bool {
    replay(history, level).accepted(history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;
    use IsolationLevel::{SerializableSnapshot, Snapshot, WriteSnapshot};

    /// Whether SI, WSI and SSI, in that order, admit `h`.
    fn verdicts(h: &History) -> [bool; 3] {
        [Snapshot, WriteSnapshot, SerializableSnapshot].map(|level| accepts(h, level))
    }

    #[test]
    fn h1_only_si_admits() {
        assert_eq!(verdicts(&examples::h1()), [true, false, false]);
    }

    #[test]
    fn h2_write_skew_only_si_admits() {
        assert_eq!(verdicts(&examples::h2()), [true, false, false]);
    }

    #[test]
    fn h3_lost_update_rejected_by_all() {
        assert_eq!(verdicts(&examples::h3()), [false, false, false]);
    }

    #[test]
    fn h4_blind_write_only_wsi_admits() {
        // H4's writers race on x; t1 commits first, so t2's commit hits the
        // first-committer-wins WW check — SSI keeps SI's rule where WSI
        // replaces it (WSI admits H4, §4.3).
        assert_eq!(verdicts(&examples::h4()), [false, true, false]);
    }

    #[test]
    fn serial_histories_accepted_by_all() {
        assert_eq!(verdicts(&examples::h5()), [true; 3]);
        assert_eq!(verdicts(&examples::h7()), [true; 3]);
    }

    #[test]
    fn h6_serializable_but_wsi_rejects() {
        // §4.3: read-write conflict avoidance is not *necessary* — H6 is
        // serializable yet WSI (unnecessarily) prevents it; SI allows it,
        // and so does SSI: an out-edge alone is not dangerous (§7.1).
        assert_eq!(verdicts(&examples::h6()), [true, false, true]);
    }

    #[test]
    fn explicit_abort_is_not_an_acceptance_failure() {
        let h: History = "r1[x] w1[x] a1 r2[x] w2[x] c2".parse().unwrap();
        assert_eq!(verdicts(&h), [true; 3]);
    }

    #[test]
    fn read_only_txns_always_accepted() {
        // A read-only transaction whose read set is overwritten mid-flight
        // still commits under every level (§4.1 condition 3; under SSI its
        // out-edge leads to a writer with no out-conflict of its own).
        let h: History = "r1[x] r2[x] w2[x] c2 r1[x] c1".parse().unwrap();
        assert_eq!(verdicts(&h), [true; 3]);
    }

    #[test]
    fn replay_reports_start_order() {
        let h = examples::h1();
        let r = replay(&h, Snapshot);
        let t1 = &r.txns[&TxnId(1)];
        let t2 = &r.txns[&TxnId(2)];
        assert!(t1.start_ts < t2.start_ts);
        assert!(r.accepted(&h));
    }

    #[test]
    fn in_flight_txn_has_no_outcome() {
        let h: History = "r1[x] w2[y] c2".parse().unwrap();
        let r = replay(&h, WriteSnapshot);
        assert_eq!(r.txns[&TxnId(1)].outcome, None);
        assert!(r.accepted(&h)); // only txn2 commits in the history
    }
}
