//! The status-oracle state machine: Algorithms 1, 2, and 3, and SSI.
//!
//! [`StatusOracleCore`] is the single-threaded core shared by every
//! embedding in this workspace. It issues start timestamps, decides commit
//! requests by running the paper's conflict-detection algorithms against a
//! [`LastCommit`] table.
//!
//! One state machine serves every isolation level because the levels differ
//! only in what is certified at commit. Algorithms 1 and 2 differ in exactly
//! one place: which row set is checked against `lastCommit` — the *write*
//! set under snapshot isolation (write-write conflicts) or the *read* set
//! under write-snapshot isolation (read-write conflicts). Both record the
//! write set after a successful commit. Serializable snapshot isolation runs
//! the snapshot-isolation check and then the dangerous-structure check of an
//! [`SsiWindow`]. Constructing the oracle with a bounded table turns any of
//! them into its memory-bounded Algorithm 3 variant with `T_max`
//! pessimistic aborts.

use std::collections::BTreeSet;

use crate::{
    error::{AbortReason, CommitOutcome},
    lastcommit::{LastCommit, Probe},
    policy::IsolationLevel,
    row::RowId,
    ssi::SsiWindow,
    ts::{Timestamp, TimestampSource},
};

/// A commit request, as sent by a client to the status oracle.
///
/// Under snapshot isolation only `write_rows` matters and clients may leave
/// `read_rows` empty (Algorithm 1); under write-snapshot isolation both sets
/// are submitted (Algorithm 2). Read-only transactions submit both sets
/// empty and always commit without any oracle computation (§5.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRequest {
    /// The transaction's start timestamp, as issued by [`StatusOracleCore::begin`].
    pub start_ts: Timestamp,
    /// Identifiers of all rows the transaction read (`R_r`).
    pub read_rows: Vec<RowId>,
    /// Identifiers of all rows the transaction modified (`R_w`).
    pub write_rows: Vec<RowId>,
}

impl CommitRequest {
    /// Creates a commit request, sorting and deduplicating both row sets.
    ///
    /// Clients naturally produce duplicates (a transaction that reads the
    /// same row twice reports it twice); probing or recording a row more
    /// than once is wasted work that also inflates the oracle's
    /// `rows_checked`/`rows_recorded` counters, distorting the §6.3
    /// read-to-write load comparison.
    pub fn new(start_ts: Timestamp, mut read_rows: Vec<RowId>, mut write_rows: Vec<RowId>) -> Self {
        read_rows.sort_unstable();
        read_rows.dedup();
        write_rows.sort_unstable();
        write_rows.dedup();
        CommitRequest {
            start_ts,
            read_rows,
            write_rows,
        }
    }

    /// Creates a read-only commit request (both sets empty).
    pub fn read_only(start_ts: Timestamp) -> Self {
        CommitRequest::new(start_ts, Vec::new(), Vec::new())
    }

    /// Returns `true` if the transaction performed no writes.
    ///
    /// Read-only transactions are exempt from conflict checking and never
    /// abort (§4.1, condition 3 of the read-write conflict definition).
    #[inline]
    pub fn is_read_only(&self) -> bool {
        self.write_rows.is_empty()
    }
}

/// Counters describing the oracle's activity, used by benchmarks and by the
/// simulator's CPU cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Transactions started.
    pub begins: u64,
    /// Write transactions committed.
    pub commits: u64,
    /// Read-only transactions committed (fast path, no conflict check).
    pub read_only_commits: u64,
    /// Aborts due to a write-write conflict.
    pub ww_aborts: u64,
    /// Aborts due to a read-write conflict.
    pub rw_aborts: u64,
    /// Pessimistic aborts due to `T_max` (Algorithm 3 only).
    pub tmax_aborts: u64,
    /// Aborts by the dangerous-structure rule (serializable snapshot
    /// isolation only).
    pub pivot_aborts: u64,
    /// Aborts explicitly requested by clients.
    pub client_aborts: u64,
    /// `lastCommit` probes performed (memory items loaded for checking).
    pub rows_checked: u64,
    /// `lastCommit` records written (memory items loaded for updating).
    pub rows_recorded: u64,
    /// `lastCommit` rows evicted into `T_max` (Algorithm 3 only; always 0
    /// for unbounded tables).
    pub evictions: u64,
}

impl OracleStats {
    /// Total aborts of write transactions for any reason.
    pub fn total_aborts(&self) -> u64 {
        self.ww_aborts + self.rw_aborts + self.tmax_aborts + self.pivot_aborts + self.client_aborts
    }

    /// Abort rate over decided write transactions (0 when none decided).
    pub fn abort_rate(&self) -> f64 {
        let decided = self.commits + self.total_aborts();
        if decided == 0 {
            0.0
        } else {
            self.total_aborts() as f64 / decided as f64
        }
    }
}

/// Lock-free counters backing [`OracleStats`].
///
/// Each field is a sharded [`wsi_obs::Counter`]; `Clone` produces a handle
/// onto the **same** counters, so an embedder can keep a clone outside the
/// oracle's critical section and read statistics without taking what
/// serializes the oracle itself (the decision lock of `wsi-store`'s `Db`,
/// the event loop in `wsi-oracle`). [`OracleCounters::view`] folds the counters into a
/// plain [`OracleStats`] value at any time, with no synchronization beyond
/// relaxed atomic loads.
#[derive(Debug, Clone, Default)]
pub struct OracleCounters {
    /// Transactions started.
    pub begins: wsi_obs::Counter,
    /// Write transactions decided committed (including later-overturned).
    pub commits: wsi_obs::Counter,
    /// Commits overturned because durability failed before publication:
    /// the embedder flips a decided commit to aborted before any reader
    /// could observe it. The [`OracleStats`] `commits` view subtracts these; keeping decide and
    /// overturn as separate monotonic counters keeps every counter
    /// append-only, which exposition formats (Prometheus) require of
    /// counters.
    pub commits_overturned: wsi_obs::Counter,
    /// Read-only transactions committed on the no-computation fast path.
    pub read_only_commits: wsi_obs::Counter,
    /// Aborts due to a write-write conflict.
    pub ww_aborts: wsi_obs::Counter,
    /// Aborts due to a read-write conflict.
    pub rw_aborts: wsi_obs::Counter,
    /// Pessimistic aborts due to `T_max` (Algorithm 3 only).
    pub tmax_aborts: wsi_obs::Counter,
    /// Aborts by the dangerous-structure rule (serializable snapshot
    /// isolation only).
    pub pivot_aborts: wsi_obs::Counter,
    /// Aborts explicitly requested by clients.
    pub client_aborts: wsi_obs::Counter,
    /// `lastCommit` probes performed (memory items loaded for checking).
    pub rows_checked: wsi_obs::Counter,
    /// `lastCommit` records written (memory items loaded for updating).
    pub rows_recorded: wsi_obs::Counter,
    /// `lastCommit` rows evicted into `T_max` (Algorithm 3 only).
    pub evictions: wsi_obs::Counter,
}

impl OracleCounters {
    /// Folds the live counters into a plain [`OracleStats`] value.
    ///
    /// `commits` is reported net of overturned commits, matching the
    /// pre-counter semantics where an overturn decremented the commit count.
    pub fn view(&self) -> OracleStats {
        OracleStats {
            begins: self.begins.get(),
            commits: self
                .commits
                .get()
                .saturating_sub(self.commits_overturned.get()),
            read_only_commits: self.read_only_commits.get(),
            ww_aborts: self.ww_aborts.get(),
            rw_aborts: self.rw_aborts.get(),
            tmax_aborts: self.tmax_aborts.get(),
            pivot_aborts: self.pivot_aborts.get(),
            client_aborts: self.client_aborts.get(),
            rows_checked: self.rows_checked.get(),
            rows_recorded: self.rows_recorded.get(),
            evictions: self.evictions.get(),
        }
    }

    /// Registers every counter in `registry` under `oracle_*` names so the
    /// oracle shows up in metric exposition alongside the embedder's own
    /// series.
    pub fn register_in(&self, registry: &wsi_obs::Registry) {
        let entries: [(&str, &wsi_obs::Counter); 12] = [
            ("oracle_begins_total", &self.begins),
            ("oracle_commits_total", &self.commits),
            ("oracle_commits_overturned_total", &self.commits_overturned),
            ("oracle_read_only_commits_total", &self.read_only_commits),
            ("oracle_ww_aborts_total", &self.ww_aborts),
            ("oracle_rw_aborts_total", &self.rw_aborts),
            ("oracle_tmax_aborts_total", &self.tmax_aborts),
            ("oracle_pivot_aborts_total", &self.pivot_aborts),
            ("oracle_client_aborts_total", &self.client_aborts),
            ("oracle_rows_checked_total", &self.rows_checked),
            ("oracle_rows_recorded_total", &self.rows_recorded),
            ("oracle_lastcommit_evictions_total", &self.evictions),
        ];
        for (name, counter) in entries {
            registry.register_counter(name, counter);
        }
    }

    /// Counts a conflict or client abort under its reason.
    pub fn count_abort(&self, reason: AbortReason) {
        match reason {
            AbortReason::WriteWriteConflict { .. } => self.ww_aborts.inc(),
            AbortReason::ReadWriteConflict { .. } => self.rw_aborts.inc(),
            AbortReason::TmaxExceeded { .. } => self.tmax_aborts.inc(),
            AbortReason::DangerousStructure { .. } => self.pivot_aborts.inc(),
            AbortReason::ClientRequested => self.client_aborts.inc(),
        }
    }
}

/// The per-row conflict predicate (lines 2–9 of Algorithms 1–3): given the
/// probe result for one checked row, decide whether a transaction that
/// started at `start_ts` may proceed. [`StatusOracleCore`] and `wsi-store`'s
/// `Db`, which probes its own key entries, both decide through it, so the
/// model and the store cannot drift apart.
///
/// # Errors
///
/// The row's abort reason: a conflict at `level`, or Algorithm 3's
/// pessimistic `T_max` abort.
pub fn check_row_probe(
    level: IsolationLevel,
    row: RowId,
    probe: Probe,
    start_ts: Timestamp,
) -> std::result::Result<(), AbortReason> {
    match probe {
        Probe::Resident(last) if last > start_ts => Err(match level {
            IsolationLevel::Snapshot | IsolationLevel::SerializableSnapshot => {
                AbortReason::WriteWriteConflict {
                    row,
                    committed_at: last,
                }
            }
            IsolationLevel::WriteSnapshot => AbortReason::ReadWriteConflict {
                row,
                committed_at: last,
            },
        }),
        Probe::Resident(_) | Probe::NeverWritten => Ok(()),
        Probe::MaybeEvicted { t_max } if t_max > start_ts => {
            // Algorithm 3, line 8: the row's state was evicted and a
            // conflict cannot be ruled out — abort pessimistically.
            Err(AbortReason::TmaxExceeded { start_ts, t_max })
        }
        Probe::MaybeEvicted { .. } => Ok(()),
    }
}

/// The status oracle's deterministic, single-threaded state machine.
///
/// Embedders serialize access (the event loop in `wsi-oracle`); the paper's
/// implementation likewise "executes the conflict detection algorithm in a
/// critical section" (§6.3). It is also the reference the store is tested
/// against: `wsi-store` decides with the same [`check_row_probe`] over
/// `lastCommit` words kept in its key entries, with its own [`SsiWindow`]
/// beside them under serializable snapshot isolation.
///
/// # Example: write skew is admitted by SI and refused by WSI and SSI
///
/// ```
/// use wsi_core::{CommitRequest, IsolationLevel, RowId, StatusOracleCore};
///
/// let (x, y) = (RowId(1), RowId(2));
/// for (level, expect_both_commit) in [
///     (IsolationLevel::Snapshot, true),
///     (IsolationLevel::WriteSnapshot, false),
///     (IsolationLevel::SerializableSnapshot, false),
/// ] {
///     let mut o = StatusOracleCore::unbounded(level);
///     let t1 = o.begin();
///     let t2 = o.begin();
///     // History 2: r1[x] r1[y] r2[x] r2[y] w1[x] w2[y] c1 c2.
///     let c1 = o.commit(CommitRequest::new(t1, vec![x, y], vec![x]));
///     let c2 = o.commit(CommitRequest::new(t2, vec![x, y], vec![y]));
///     assert!(c1.is_committed());
///     assert_eq!(c2.is_committed(), expect_both_commit);
/// }
/// ```
#[derive(Debug)]
pub struct StatusOracleCore {
    level: IsolationLevel,
    ts: TimestampSource,
    last_commit: LastCommit,
    counters: OracleCounters,
    /// What only serializable snapshot isolation needs; `None` at the other
    /// levels.
    ssi: Option<SsiState>,
}

/// The dangerous-structure half of an SSI decision, and the start
/// timestamps of in-flight transactions that bound its window.
#[derive(Debug, Default)]
struct SsiState {
    window: SsiWindow,
    active: BTreeSet<Timestamp>,
}

impl SsiState {
    /// Admits a request the SI check passed, records it under a stamp drawn
    /// from `ts`, and prunes the window below the oldest in-flight start (or
    /// past the last issued timestamp when none is in flight). A read-only
    /// request takes a stamp only when it read something: its reads must
    /// stay probeable for later writers, and without reads there is nothing
    /// to record. Returns the stamp, if one was drawn.
    fn certify(
        &mut self,
        req: &CommitRequest,
        ts: &mut TimestampSource,
    ) -> std::result::Result<Option<Timestamp>, AbortReason> {
        let admitted = self
            .window
            .admit(req.start_ts, &req.read_rows, &req.write_rows)?;
        if req.is_read_only() && req.read_rows.is_empty() {
            return Ok(None);
        }
        let stamp = ts.next();
        admitted.record(stamp);
        let oldest = self.active.first().copied();
        self.window
            .prune(oldest.unwrap_or_else(|| ts.last_issued().next()));
        Ok(Some(stamp))
    }
}

impl StatusOracleCore {
    /// Creates an oracle with an unbounded `lastCommit` table
    /// (Algorithm 1 for [`IsolationLevel::Snapshot`], Algorithm 2 for
    /// [`IsolationLevel::WriteSnapshot`]).
    pub fn unbounded(level: IsolationLevel) -> Self {
        Self::with_table(level, LastCommit::unbounded())
    }

    /// Creates an oracle whose `lastCommit` table retains at most `capacity`
    /// rows, evicting with `T_max` tracking (Algorithm 3).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn bounded(level: IsolationLevel, capacity: usize) -> Self {
        Self::with_table(level, LastCommit::bounded(capacity))
    }

    fn with_table(level: IsolationLevel, last_commit: LastCommit) -> Self {
        StatusOracleCore {
            level,
            ts: TimestampSource::new(),
            last_commit,
            counters: OracleCounters::default(),
            ssi: (level == IsolationLevel::SerializableSnapshot).then(SsiState::default),
        }
    }

    /// The isolation level this oracle enforces.
    #[inline]
    pub fn level(&self) -> IsolationLevel {
        self.level
    }

    /// Issues a start timestamp for a new transaction.
    pub fn begin(&mut self) -> Timestamp {
        self.counters.begins.inc();
        let start_ts = self.ts.next();
        if let Some(ssi) = &mut self.ssi {
            ssi.active.insert(start_ts);
        }
        start_ts
    }

    /// Decides a commit request (Algorithms 1–3, then SSI's
    /// dangerous-structure check at that level).
    ///
    /// Read-only requests commit without a commit timestamp: the paper
    /// shows a read-only transaction is equivalent to one shifted to its
    /// start point (Figure 3), so the returned outcome carries its start
    /// timestamp. Under SI and WSI they need no conflict check (§5.1); under
    /// SSI a snapshot read can still close a cycle, so they pass the
    /// dangerous-structure check.
    ///
    /// For write transactions the configured row set is probed against
    /// `lastCommit`; on success a fresh commit timestamp is issued and the
    /// write set is recorded. A conflict aborts the transaction.
    pub fn commit(&mut self, req: CommitRequest) -> CommitOutcome {
        if let Some(ssi) = &mut self.ssi {
            ssi.active.remove(&req.start_ts);
        }
        if let Err(reason) = self.check(&req) {
            return self.register_abort(reason);
        }
        let stamp = match &mut self.ssi {
            None => None,
            Some(ssi) => match ssi.certify(&req, &mut self.ts) {
                Ok(stamp) => stamp,
                Err(reason) => return self.register_abort(reason),
            },
        };
        if req.is_read_only() {
            self.counters.read_only_commits.inc();
            return CommitOutcome::Committed(req.start_ts);
        }
        let commit_ts = stamp.unwrap_or_else(|| self.ts.next());
        for &row in &req.write_rows {
            self.counters.rows_recorded.inc();
            let evicted = self.last_commit.record(row, commit_ts);
            self.counters.evictions.add(evicted as u64);
        }
        self.counters.commits.inc();
        CommitOutcome::Committed(commit_ts)
    }

    /// The `lastCommit` conflict check of Algorithms 1–3. Read-only
    /// requests trivially pass.
    fn check(&mut self, req: &CommitRequest) -> std::result::Result<(), AbortReason> {
        if req.is_read_only() {
            return Ok(());
        }
        for &row in self.level.checked_rows(&req.read_rows, &req.write_rows) {
            self.counters.rows_checked.inc();
            check_row_probe(self.level, row, self.last_commit.probe(row), req.start_ts)?;
        }
        Ok(())
    }

    /// Registers a client-requested abort (application rollback, client
    /// crash detected by recovery, etc.).
    pub fn abort(&mut self, start_ts: Timestamp) {
        if let Some(ssi) = &mut self.ssi {
            ssi.active.remove(&start_ts);
        }
        self.counters.client_aborts.inc();
    }

    fn register_abort(&mut self, reason: AbortReason) -> CommitOutcome {
        self.counters.count_abort(reason);
        CommitOutcome::Aborted(reason)
    }

    /// Committed transactions in the SSI window (0 at the other levels).
    #[cfg(test)]
    pub(crate) fn window_len(&self) -> usize {
        self.ssi.as_ref().map_or(0, |ssi| ssi.window.len())
    }

    /// Current `T_max` (always [`Timestamp::ZERO`] for unbounded oracles).
    pub fn t_max(&self) -> Timestamp {
        self.last_commit.t_max()
    }

    /// The most recently issued timestamp.
    pub fn last_issued_ts(&self) -> Timestamp {
        self.ts.last_issued()
    }

    /// Activity counters, folded into a plain value.
    pub fn stats(&self) -> OracleStats {
        self.counters.view()
    }

    /// A shared handle onto the live counters.
    ///
    /// The returned handle reads (and could bump) the same atomics the
    /// oracle updates, so embedders that serialize the oracle behind a lock
    /// can observe statistics without acquiring it.
    pub fn counters(&self) -> OracleCounters {
        self.counters.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(ids: &[u64]) -> Vec<RowId> {
        ids.iter().map(|&i| RowId(i)).collect()
    }

    #[test]
    fn si_first_committer_wins_on_ww_conflict() {
        // Algorithm 1 "commits the transaction for which the commit request
        // is received sooner".
        let mut o = StatusOracleCore::unbounded(IsolationLevel::Snapshot);
        let t1 = o.begin();
        let t2 = o.begin();
        assert!(o
            .commit(CommitRequest::new(t1, vec![], rows(&[7])))
            .is_committed());
        let out = o.commit(CommitRequest::new(t2, vec![], rows(&[7])));
        assert_eq!(
            out.abort_reason(),
            Some(AbortReason::WriteWriteConflict {
                row: RowId(7),
                committed_at: Timestamp(3),
            })
        );
    }

    #[test]
    fn si_allows_disjoint_writes() {
        let mut o = StatusOracleCore::unbounded(IsolationLevel::Snapshot);
        let t1 = o.begin();
        let t2 = o.begin();
        assert!(o
            .commit(CommitRequest::new(t1, rows(&[1]), rows(&[2])))
            .is_committed());
        // Write skew: t2 read row 2 (now stale) but writes only row 1.
        assert!(o
            .commit(CommitRequest::new(t2, rows(&[2]), rows(&[1])))
            .is_committed());
    }

    #[test]
    fn wsi_aborts_on_rw_conflict() {
        let mut o = StatusOracleCore::unbounded(IsolationLevel::WriteSnapshot);
        let t1 = o.begin();
        let t2 = o.begin();
        assert!(o
            .commit(CommitRequest::new(t1, rows(&[1]), rows(&[2])))
            .is_committed());
        let out = o.commit(CommitRequest::new(t2, rows(&[2]), rows(&[1])));
        assert!(matches!(
            out.abort_reason(),
            Some(AbortReason::ReadWriteConflict { row: RowId(2), .. })
        ));
    }

    #[test]
    fn wsi_allows_blind_write_overlap() {
        // History 4: r1[x] w2[x] w1[x] c1 c2 — SI aborts one, WSI commits
        // both because neither writes into the other's read set in the
        // rw-temporal window.
        let mut o = StatusOracleCore::unbounded(IsolationLevel::WriteSnapshot);
        let t1 = o.begin();
        let t2 = o.begin();
        // t1 read x before any commit; t2 blind-writes x.
        assert!(o
            .commit(CommitRequest::new(t1, rows(&[1]), rows(&[1])))
            .is_committed());
        // t2 has an empty read set: nothing to conflict on.
        assert!(o
            .commit(CommitRequest::new(t2, vec![], rows(&[1])))
            .is_committed());
    }

    #[test]
    fn si_aborts_blind_write_overlap() {
        let mut o = StatusOracleCore::unbounded(IsolationLevel::Snapshot);
        let t1 = o.begin();
        let t2 = o.begin();
        assert!(o
            .commit(CommitRequest::new(t1, rows(&[1]), rows(&[1])))
            .is_committed());
        assert!(o
            .commit(CommitRequest::new(t2, vec![], rows(&[1])))
            .is_aborted());
    }

    #[test]
    fn read_only_txns_never_abort_and_cost_nothing() {
        for level in [IsolationLevel::Snapshot, IsolationLevel::WriteSnapshot] {
            let mut o = StatusOracleCore::unbounded(level);
            let t1 = o.begin();
            let t2 = o.begin();
            // A write transaction commits, modifying a row t2 read.
            assert!(o
                .commit(CommitRequest::new(t1, vec![], rows(&[1])))
                .is_committed());
            // t2 is read-only over that same row: still commits, and the
            // oracle performed no conflict probes for it.
            let before = o.stats().rows_checked;
            let out = o.commit(CommitRequest::new(t2, rows(&[1]), vec![]));
            assert!(out.is_committed());
            assert_eq!(o.stats().rows_checked, before);
            assert_eq!(o.stats().read_only_commits, 1);
        }
    }

    #[test]
    fn non_overlapping_transactions_commit_sequentially() {
        let mut o = StatusOracleCore::unbounded(IsolationLevel::WriteSnapshot);
        for _ in 0..100 {
            let t = o.begin();
            assert!(o
                .commit(CommitRequest::new(t, rows(&[1]), rows(&[1])))
                .is_committed());
        }
        assert_eq!(o.stats().commits, 100);
        assert_eq!(o.stats().total_aborts(), 0);
    }

    #[test]
    fn commit_timestamps_are_issued_in_decision_order() {
        let mut o = StatusOracleCore::unbounded(IsolationLevel::WriteSnapshot);
        let t1 = o.begin();
        let t2 = o.begin();
        let c2 = o
            .commit(CommitRequest::new(t2, vec![], rows(&[2])))
            .commit_ts()
            .unwrap();
        let c1 = o
            .commit(CommitRequest::new(t1, vec![], rows(&[1])))
            .commit_ts()
            .unwrap();
        assert!(c2 < c1, "first decided commit gets the smaller timestamp");
        assert!(c2 > t2 && c1 > t1);
    }

    #[test]
    fn bounded_oracle_tmax_aborts_old_transactions() {
        let mut o = StatusOracleCore::bounded(IsolationLevel::WriteSnapshot, 2);
        let old = o.begin();
        // Enough commits to evict everything the old txn might care about.
        for i in 10..20u64 {
            let t = o.begin();
            assert!(o
                .commit(CommitRequest::new(t, vec![], rows(&[i])))
                .is_committed());
        }
        assert!(o.t_max() > Timestamp::ZERO);
        // `old` reads a row nobody ever wrote; resident info is gone, so the
        // oracle must pessimistically abort (Algorithm 3 line 8).
        let out = o.commit(CommitRequest::new(old, rows(&[999]), rows(&[1000])));
        assert!(matches!(
            out.abort_reason(),
            Some(AbortReason::TmaxExceeded { .. })
        ));
        assert_eq!(o.stats().tmax_aborts, 1);
    }

    #[test]
    fn bounded_oracle_commits_recent_transactions() {
        let mut o = StatusOracleCore::bounded(IsolationLevel::WriteSnapshot, 4);
        for i in 0..100u64 {
            let t = o.begin();
            // Recent transaction: starts after all evictions that could
            // matter, so T_max < start and it commits.
            assert!(o
                .commit(CommitRequest::new(t, rows(&[i]), rows(&[i])))
                .is_committed());
        }
        assert_eq!(o.stats().tmax_aborts, 0);
    }

    #[test]
    fn bounded_never_admits_what_unbounded_refuses() {
        // Deterministic interleaving check; the proptest version lives in
        // tests/ and randomizes schedules.
        let mut u = StatusOracleCore::unbounded(IsolationLevel::WriteSnapshot);
        let mut b = StatusOracleCore::bounded(IsolationLevel::WriteSnapshot, 2);
        let schedule: Vec<(u64, u64)> = (0..50).map(|i| (i % 7, (i * 3) % 7)).collect();
        let mut pending_u = Vec::new();
        let mut pending_b = Vec::new();
        for (i, &(r, w)) in schedule.iter().enumerate() {
            pending_u.push((u.begin(), r, w));
            pending_b.push((b.begin(), r, w));
            if i % 3 == 2 {
                for ((ts_u, r, w), (ts_b, _, _)) in pending_u.drain(..).zip(pending_b.drain(..)) {
                    let out_u = u.commit(CommitRequest::new(ts_u, rows(&[r]), rows(&[w])));
                    let out_b = b.commit(CommitRequest::new(ts_b, rows(&[r]), rows(&[w])));
                    if out_u.is_aborted() {
                        assert!(out_b.is_aborted(), "bounded admitted a refused commit");
                    }
                }
            }
        }
    }

    #[test]
    fn abort_rate_stat() {
        let mut o = StatusOracleCore::unbounded(IsolationLevel::Snapshot);
        let t1 = o.begin();
        let t2 = o.begin();
        assert!(o
            .commit(CommitRequest::new(t1, vec![], rows(&[1])))
            .is_committed());
        assert!(o
            .commit(CommitRequest::new(t2, vec![], rows(&[1])))
            .is_aborted());
        assert!((o.stats().abort_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn client_abort_is_recorded() {
        let mut o = StatusOracleCore::unbounded(IsolationLevel::WriteSnapshot);
        let t = o.begin();
        o.abort(t);
        assert_eq!(o.stats().client_aborts, 1);
    }
}
