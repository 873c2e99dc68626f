//! Serializable snapshot isolation (SSI) — the §7.1 comparator.
//!
//! Cahill, Röhm, and Fekete ("Serializable isolation for snapshot
//! databases", TODS 2009) make snapshot isolation serializable by detecting
//! the *dangerous structure* that every non-serializable SI execution must
//! contain: a pivot transaction with both an incoming and an outgoing
//! rw-antidependency among concurrent transactions. The paper positions
//! write-snapshot isolation against exactly this approach: SSI's pattern
//! check has lower overhead compared to that of the full dependency
//! graph, but "allows for false positives, which further lowers the
//! concurrency level due to unnecessary aborts" (§7.1).
//!
//! SSI is implemented in the same centralized, commit-time validated
//! setting as the other two levels, so the three can be compared on
//! identical schedules, in two pieces:
//!
//! * [`SsiWindow`] is the dangerous-structure detector on its own: it
//!   tracks, for a sliding window of recently committed transactions, their
//!   read/write sets and conflict flags; on commit of `T` it finds
//!   rw-antidependencies between `T` and overlapping committed transactions
//!   in both directions, and refuses `T` if the commit would complete a
//!   dangerous structure — either `T` itself becomes a pivot, or an
//!   already-committed transaction would.
//! * The SI base it runs behind: the write-write check of a `lastCommit`
//!   oracle. [`crate::StatusOracleCore`] at
//!   [`crate::IsolationLevel::SerializableSnapshot`] holds a window and runs
//!   both checks itself; `wsi-store`'s `Db` calls its own window after the
//!   write-write check of its key entries, with its decision lock still
//!   held.
//!
//! Compared to write-snapshot isolation: SSI admits some histories WSI
//! rejects (the paper's History 6 — an out-edge alone is not dangerous) but
//! pays two set intersections per commit instead of one probe per read row,
//! keeps whole read/write *sets* of recent transactions resident rather
//! than one timestamp per row, and still aborts serializable executions
//! whenever a pivot is not actually on a cycle.

use std::collections::{BTreeSet, VecDeque};

use crate::{error::AbortReason, row::RowId, ts::Timestamp};

/// A committed transaction retained in the SSI detection window.
#[derive(Debug, Clone)]
struct WindowEntry {
    commit_ts: Timestamp,
    /// Ordered sets: probe order (and the edge partners reported when a
    /// dangerous structure fires) must be a pure function of the request,
    /// never of hasher seeding — seed-reproducible runs depend on it.
    reads: BTreeSet<RowId>,
    writes: BTreeSet<RowId>,
    /// Some concurrent transaction has an rw-antidependency *into* this one
    /// (someone read data this transaction overwrote).
    in_conflict: bool,
    /// This transaction has an rw-antidependency *out* to a concurrent one
    /// (it read data someone else overwrote).
    out_conflict: bool,
}

/// The dangerous-structure detector: the read/write sets and conflict flags
/// of recently committed transactions, in commit order.
///
/// Validation is commit-time only. The caller serializes commits through
/// `&mut self`, asks [`SsiWindow::admit`] whether a transaction may commit,
/// issues its commit timestamp, and hands that to [`Admitted::record`] — all
/// without another commit intervening, which the borrow enforces. Entries
/// must be recorded in increasing commit-timestamp order.
///
/// ```
/// use wsi_core::{ssi::SsiWindow, RowId, Timestamp};
///
/// let (x, y) = (RowId(1), RowId(2));
/// let mut w = SsiWindow::new();
/// // Write skew: both started at 1 and 2 having read {x, y}.
/// let t1 = w.admit(Timestamp(1), &[x, y], &[x]).expect("nothing committed yet");
/// t1.record(Timestamp(3));
/// // t2 read x, which t1 overwrote, and overwrites y, which t1 read.
/// assert!(w.admit(Timestamp(2), &[x, y], &[y]).is_err());
/// ```
#[derive(Debug, Default)]
pub struct SsiWindow {
    entries: VecDeque<WindowEntry>,
    /// Entries the last [`SsiWindow::prune`] left behind.
    len_at_prune: usize,
}

/// A transaction [`SsiWindow::admit`] found safe to commit, holding the
/// window until its commit timestamp is known.
#[derive(Debug)]
pub struct Admitted<'a> {
    window: &'a mut SsiWindow,
    reads: BTreeSet<RowId>,
    writes: BTreeSet<RowId>,
    /// Window positions of `U →rw T` partners (`U` read what `T` overwrites).
    in_partners: Vec<usize>,
    /// Window positions of `T →rw U` partners (`U` overwrote what `T` read).
    out_partners: Vec<usize>,
}

impl SsiWindow {
    /// Creates an empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decides whether a transaction that started at `start_ts`, read
    /// `reads` and writes `writes` may commit now.
    ///
    /// A read-only transaction (`writes` empty) is checked too: a snapshot
    /// read can close a cycle as the third transaction — Fekete, O'Neil &
    /// O'Neil's read-only anomaly — by handing an in-conflict to a committed
    /// transaction that already carries an out-conflict. (The `ssi_checker`
    /// property test finds such schedules within a few hundred random seeds
    /// if reads are skipped.) With no writes it has no in-edge and cannot
    /// itself be the pivot, so only rule 2 can fire.
    ///
    /// # Errors
    ///
    /// [`AbortReason::DangerousStructure`] naming the committed edge
    /// partners, when the commit would complete a dangerous structure.
    pub fn admit(
        &mut self,
        start_ts: Timestamp,
        reads: &[RowId],
        writes: &[RowId],
    ) -> Result<Admitted<'_>, AbortReason> {
        let reads: BTreeSet<RowId> = reads.iter().copied().collect();
        let writes: BTreeSet<RowId> = writes.iter().copied().collect();
        // T's partners among committed, temporally overlapping transactions:
        // out: T →rw U (U overwrote something T read, committing during T's
        //      lifetime);
        // in:  U →rw T (U read something T overwrites; U was concurrent).
        let mut out_partners: Vec<usize> = Vec::new();
        let mut in_partners: Vec<usize> = Vec::new();
        for (idx, u) in self.entries.iter().enumerate() {
            // Concurrency between T and a committed U: T started before U
            // committed (T commits after every committed U by construction,
            // so the other half of lifetime overlap always holds). A U that
            // committed before T began produces ordinary WR dependencies,
            // not antidependencies.
            if u.commit_ts < start_ts {
                continue;
            }
            if u.writes.iter().any(|r| reads.contains(r)) {
                out_partners.push(idx);
            }
            if u.reads.iter().any(|r| writes.contains(r)) {
                in_partners.push(idx);
            }
        }
        let stamp = |idx: &usize| self.entries[*idx].commit_ts;
        // Rule 1: T itself is a pivot — both edges go to committed partners.
        let mut dangerous = match (in_partners.first(), out_partners.first()) {
            (Some(i), Some(o)) => Some((Some(stamp(i)), Some(stamp(o)))),
            _ => None,
        };
        // Rule 2: committing T would turn an already-committed transaction
        // into a pivot (it cannot be aborted anymore, so T must be).
        // T →rw U gives U an in-conflict; dangerous if U already has an
        // out-conflict.
        if dangerous.is_none() {
            let pivot = out_partners.iter().find(|i| self.entries[**i].out_conflict);
            dangerous = pivot.map(|o| (None, Some(stamp(o))));
        }
        // U →rw T gives U an out-conflict; dangerous if U already has an
        // in-conflict.
        if dangerous.is_none() {
            let pivot = in_partners.iter().find(|i| self.entries[**i].in_conflict);
            dangerous = pivot.map(|i| (Some(stamp(i)), None));
        }
        if let Some((in_commit_ts, out_commit_ts)) = dangerous {
            return Err(AbortReason::DangerousStructure {
                in_commit_ts,
                out_commit_ts,
            });
        }
        Ok(Admitted {
            window: self,
            reads,
            writes,
            in_partners,
            out_partners,
        })
    }

    /// Forgets the entry recorded at `commit_ts`, if it is still in the
    /// window: the commit was overturned before anyone could observe it.
    /// Conflict flags it set on its partners stay set — a flag without its
    /// edge can only refuse a later commit, never admit one.
    pub fn remove(&mut self, commit_ts: Timestamp) {
        if let Ok(idx) = self
            .entries
            .binary_search_by_key(&commit_ts, |e| e.commit_ts)
        {
            self.entries.remove(idx);
        }
    }

    /// Drops entries no in-flight transaction can conflict with: a committed
    /// transaction only matters while some active transaction started before
    /// its commit. `min_active` is a lower bound on the start timestamp of
    /// every active and future transaction; a stale (smaller) bound merely
    /// prunes less.
    pub fn prune(&mut self, min_active: Timestamp) {
        while self
            .entries
            .front()
            .is_some_and(|e| e.commit_ts < min_active)
        {
            self.entries.pop_front();
        }
        self.len_at_prune = self.entries.len();
    }

    /// Committed transactions currently in the window (memory footprint
    /// metric: SSI must keep whole read/write sets here, where SI/WSI keep
    /// one timestamp per row).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the window holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries recorded since the last [`SsiWindow::prune`]: the caller's
    /// cue that another prune is due.
    pub fn grown_since_prune(&self) -> usize {
        self.entries.len().saturating_sub(self.len_at_prune)
    }
}

impl Admitted<'_> {
    /// Commits the admitted transaction at `commit_ts`: flags its partners
    /// and appends its own entry, so later commits are checked against it.
    ///
    /// A read-only transaction is recorded too — its reads must stay
    /// probeable, since a writer committing later may acquire an in-conflict
    /// from it — under a stamp issued from the same counter as commit
    /// timestamps, so the concurrency test (`commit_ts < start_ts`) sees its
    /// true commit position. One that read nothing has nothing to record and
    /// may simply drop this value.
    pub fn record(self, commit_ts: Timestamp) {
        let entries = &mut self.window.entries;
        debug_assert!(entries.back().is_none_or(|e| e.commit_ts < commit_ts));
        for &idx in &self.out_partners {
            entries[idx].in_conflict = true;
        }
        for &idx in &self.in_partners {
            entries[idx].out_conflict = true;
        }
        entries.push_back(WindowEntry {
            commit_ts,
            reads: self.reads,
            writes: self.writes,
            // T's own flags, persisted for future commits against it.
            in_conflict: !self.in_partners.is_empty(),
            out_conflict: !self.out_partners.is_empty(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CommitRequest, IsolationLevel, StatusOracleCore};

    fn ssi_oracle() -> StatusOracleCore {
        StatusOracleCore::unbounded(IsolationLevel::SerializableSnapshot)
    }

    fn rows(ids: &[u64]) -> Vec<RowId> {
        ids.iter().map(|&i| RowId(i)).collect()
    }

    #[test]
    fn write_skew_is_refused() {
        // History 2: both read {x, y}; t1 writes x, t2 writes y.
        let mut o = ssi_oracle();
        let t1 = o.begin();
        let t2 = o.begin();
        assert!(o
            .commit(CommitRequest::new(t1, rows(&[1, 2]), rows(&[1])))
            .is_committed());
        let out = o.commit(CommitRequest::new(t2, rows(&[1, 2]), rows(&[2])));
        assert!(out.is_aborted(), "t2 is a pivot: t1 →rw t2 →rw t1");
        assert_eq!(o.stats().pivot_aborts, 1);
    }

    #[test]
    fn history6_is_admitted_unlike_wsi() {
        // H6: t2 commits first writing x; t1 read x and writes y. WSI
        // aborts t1; SSI sees only an out-conflict on t1 — no danger.
        let mut o = ssi_oracle();
        let t1 = o.begin();
        let t2 = o.begin();
        assert!(o
            .commit(CommitRequest::new(t2, rows(&[3]), rows(&[1])))
            .is_committed());
        assert!(o
            .commit(CommitRequest::new(t1, rows(&[1]), rows(&[2])))
            .is_committed());
        assert_eq!(o.stats().pivot_aborts, 0);
    }

    #[test]
    fn lost_update_is_refused_by_the_si_base() {
        let mut o = ssi_oracle();
        let t1 = o.begin();
        let t2 = o.begin();
        assert!(o
            .commit(CommitRequest::new(t1, rows(&[1]), rows(&[1])))
            .is_committed());
        let out = o.commit(CommitRequest::new(t2, rows(&[1]), rows(&[1])));
        assert!(matches!(
            out.abort_reason(),
            Some(AbortReason::WriteWriteConflict { .. })
        ));
    }

    #[test]
    fn read_only_commit_is_free_without_a_dangerous_partner() {
        let mut o = ssi_oracle();
        let r = o.begin();
        let w = o.begin();
        assert!(o
            .commit(CommitRequest::new(w, vec![], rows(&[1])))
            .is_committed());
        // w has no out-conflict, so r's out-edge to it is harmless.
        assert!(o
            .commit(CommitRequest::new(r, rows(&[1]), vec![]))
            .is_committed());
        assert_eq!(o.stats().read_only_commits, 1);
    }

    #[test]
    fn read_only_anomaly_is_refused() {
        // Fekete/O'Neil/O'Neil: T2 reads {x,y}; T1 reads+writes y and
        // commits; read-only T3 then observes (x0, y1); T2 finally writes
        // x. Serial orders: T2 must precede T1 (T2 →rw T1), T3 must follow
        // T1 (wr) yet precede T2 (T3 →rw T2) — a cycle closed by T3.
        let x = RowId(1);
        let y = RowId(2);
        let mut o = ssi_oracle();
        let t2 = o.begin();
        let t1 = o.begin();
        assert!(o
            .commit(CommitRequest::new(t1, vec![y], vec![y]))
            .is_committed());
        let t3 = o.begin();
        // T3 →rw T2 will hand T2 an in-conflict at T2's commit; T2 already
        // owes T1 an out-conflict. One of T3/T2 must abort; with T3
        // committing first, the oracle refuses T2 (rule 1: T2 is a pivot).
        assert!(o
            .commit(CommitRequest::new(t3, vec![x, y], vec![]))
            .is_committed());
        let out = o.commit(CommitRequest::new(t2, vec![x, y], vec![x]));
        assert!(out.is_aborted(), "read-only T3 closed the cycle");
    }

    #[test]
    fn read_only_txn_aborts_rather_than_making_a_pivot() {
        // Same anomaly with the read-only transaction committing LAST: the
        // pivot (T2) is already committed and cannot be aborted, so the
        // read-only transaction must be.
        let x = RowId(1);
        let y = RowId(2);
        let mut o = ssi_oracle();
        let t2 = o.begin();
        let t1 = o.begin();
        assert!(o
            .commit(CommitRequest::new(t1, vec![y], vec![y]))
            .is_committed());
        let t3 = o.begin();
        assert!(o
            .commit(CommitRequest::new(t2, vec![x, y], vec![x]))
            .is_committed());
        let out = o.commit(CommitRequest::new(t3, vec![x, y], vec![]));
        assert!(
            out.is_aborted(),
            "T3 →rw T2 would make committed T2 a pivot"
        );
        assert_eq!(o.stats().pivot_aborts, 1);
    }

    #[test]
    fn three_txn_dangerous_structure_aborts_the_completing_txn() {
        // V →rw U exists (U committed with in-conflict); then U →rw T would
        // make U a pivot: T must abort instead (rule 2).
        let mut o = ssi_oracle();
        let v = o.begin();
        let u = o.begin();
        let t = o.begin();
        // U commits writing row 1, which V has read (V →rw U forms when V…
        // actually V must commit for the window to know its reads; order:
        // U commits first, then V commits reading 1 → V gets out-conflict,
        // U gets in-conflict.
        let cu = o.commit(CommitRequest::new(u, rows(&[2]), rows(&[1])));
        assert!(o
            .commit(CommitRequest::new(v, rows(&[1]), rows(&[9])))
            .is_committed());
        // Now T writes row 2, which U read: U →rw T would give U an
        // out-conflict on top of its in-conflict → dangerous, T aborts,
        // naming the committed pivot U as its in-edge partner.
        let out = o.commit(CommitRequest::new(t, rows(&[8]), rows(&[2])));
        assert_eq!(
            out.abort_reason(),
            Some(AbortReason::DangerousStructure {
                in_commit_ts: cu.commit_ts(),
                out_commit_ts: None,
            })
        );
        assert_eq!(o.stats().pivot_aborts, 1);
    }

    #[test]
    fn false_positive_pivot_without_cycle() {
        // T1 →rw T2 and T0 →rw T1 without any cycle: still aborted — the
        // §7.1 "false positives" cost of the pattern check.
        let mut o = ssi_oracle();
        let t0 = o.begin();
        let t1 = o.begin();
        let t2 = o.begin();
        // T2 commits writing x (row 1), which T1 reads → T1 →rw T2.
        let c2 = o.commit(CommitRequest::new(t2, vec![], rows(&[1])));
        // T0 commits reading y (row 2), which T1 will write → T0 →rw T1.
        let c0 = o.commit(CommitRequest::new(t0, rows(&[2]), rows(&[7])));
        // T1: reads x (out-conflict to T2), writes y (in-conflict from T0):
        // pivot — aborted, although the history is serializable
        // (T0, T1, T2 in that serial order explains every read). Both edge
        // partners are named by commit timestamp, never T1's own start.
        let out = o.commit(CommitRequest::new(t1, rows(&[1]), rows(&[2])));
        assert!(c0.is_committed() && c2.is_committed());
        assert_eq!(
            out.abort_reason(),
            Some(AbortReason::DangerousStructure {
                in_commit_ts: c0.commit_ts(),
                out_commit_ts: c2.commit_ts(),
            })
        );
    }

    #[test]
    fn window_prunes_once_no_active_txn_overlaps() {
        let mut o = ssi_oracle();
        for i in 0..50 {
            let t = o.begin();
            assert!(o
                .commit(CommitRequest::new(t, rows(&[i]), rows(&[i])))
                .is_committed());
        }
        // No active transactions: everything prunable.
        assert_eq!(o.window_len(), 0);
        // With an old reader pinned, the window retains overlapping commits.
        let _pin = o.begin();
        for i in 100..110 {
            let t = o.begin();
            assert!(o
                .commit(CommitRequest::new(t, rows(&[i]), rows(&[i])))
                .is_committed());
        }
        assert_eq!(o.window_len(), 10);
    }

    #[test]
    fn disjoint_transactions_all_commit() {
        let mut o = ssi_oracle();
        let txns: Vec<Timestamp> = (0..10).map(|_| o.begin()).collect();
        for (i, ts) in txns.into_iter().enumerate() {
            let i = i as u64;
            assert!(o
                .commit(CommitRequest::new(ts, rows(&[i * 2]), rows(&[i * 2 + 1])))
                .is_committed());
        }
        assert_eq!(o.stats().total_aborts(), 0);
    }
}
