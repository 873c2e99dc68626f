//! The concurrent status oracle: the paper's one decision lock, shared by
//! threads.
//!
//! The paper sizes the status oracle's critical section at "a few memory
//! operations" (§6.3) and decides every commit inside it.
//! [`ConcurrentOracle`] keeps that shape for a multi-threaded embedder: one
//! exact `lastCommit` table behind one spin lock, the *decision lock*. A
//! decision takes the lock and runs exactly the per-row predicates of
//! [`StatusOracleCore`](crate::StatusOracleCore). The commit timestamp is
//! drawn from the embedder's shared atomic [`SharedTimestampSource`] *while
//! the lock is held*, so decision order equals timestamp order and per-row
//! `lastCommit` timestamps stay monotonic.
//!
//! * The table is bounded by forgetting, not by Algorithm 3's eviction: the
//!   embedder passes a watermark at or below every live and future start
//!   timestamp to [`ConcurrentOracle::forget_through`], which drops the rows
//!   at or below it (see [`LastCommit::forget_through`]). No decision
//!   changes and no `T_max` abort can occur.
//! * It certifies point rows, taken as two slices: a start timestamp, the
//!   rows read and the rows written, each row once (a repeat is probed,
//!   recorded and counted again). An embedder covers a scanned range with
//!   point rows.
//!
//! Partitioning `lastCommit` by hash, as PostgreSQL's SSI partitions its
//! conflict-tracking structures (Ports & Grittner, VLDB 2012), would let
//! decisions over disjoint rows run in parallel. On the one- and two-client
//! workloads of the end-to-end benchmark one lock decides as fast
//! (EXPERIMENTS.md, "One decision lock").
//!
//! The decision path comes in two shapes: [`ConcurrentOracle::commit`] for
//! self-contained use, and the [`ConcurrentOracle::lock`] /
//! [`DecisionGuard`] pair for embedders (like `wsi-store`) that interleave
//! their own publication steps — recording the commit, WAL queueing —
//! between the conflict check and the oracle bookkeeping while the lock
//! stays held.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use spin::{Mutex, MutexGuard};
use wsi_obs::{Counter, EventData, Histogram, Journal, Registry};

use crate::{
    error::{AbortReason, CommitOutcome},
    lastcommit::{LastCommit, Probe},
    oracle::{check_row_probe, OracleCounters, OracleStats},
    policy::IsolationLevel,
    row::RowId,
    ts::{SharedTimestampSource, Timestamp},
};

/// A concurrent status oracle: same decisions as
/// [`StatusOracleCore`](crate::StatusOracleCore), taken by many threads.
///
/// Internally `&self` everywhere — share it behind an `Arc` and call
/// [`ConcurrentOracle::commit`] from as many threads as desired. Decisions
/// are mutually exclusive: each holds the decision lock.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use wsi_core::{ConcurrentOracle, IsolationLevel, RowId, SharedTimestampSource};
/// use wsi_obs::Journal;
///
/// let ts = Arc::new(SharedTimestampSource::new());
/// let o = ConcurrentOracle::unbounded(IsolationLevel::WriteSnapshot, ts, Journal::new());
/// let t1 = o.begin();
/// let t2 = o.begin();
/// // Lost update: both read and write row 1; the second must abort.
/// assert!(o.commit(t1, &[RowId(1)], &[RowId(1)]).is_committed());
/// assert!(o.commit(t2, &[RowId(1)], &[RowId(1)]).is_aborted());
/// ```
#[derive(Debug)]
pub struct ConcurrentOracle {
    level: IsolationLevel,
    ts: Arc<SharedTimestampSource>,
    /// The decision lock and the table it guards.
    last_commit: Mutex<LastCommit>,
    /// The highest watermark [`ConcurrentOracle::forget_through`] has swept
    /// the table at. Relaxed: it publishes no data, the sweep's effects are
    /// ordered by the decision lock.
    forgotten_through: AtomicU64,
    counters: OracleCounters,
    /// Decision-lock acquisitions that found the lock held.
    contention: Counter,
    /// The wait of each contended acquisition, in microseconds.
    lock_wait_us: Histogram,
    /// Flight recorder for per-row conflict-check verdicts (the embedder
    /// records the coarser lifecycle events itself).
    journal: Journal,
}

impl ConcurrentOracle {
    /// Creates an unbounded concurrent oracle (Algorithm 1 or 2 by `level`)
    /// drawing timestamps from the embedder's shared counter. Every row a
    /// [`DecisionGuard::check`] probes records a [`EventData::CheckRow`]
    /// verdict in `journal`, carrying the culprit's commit timestamp when
    /// the row conflicted.
    pub fn unbounded(
        level: IsolationLevel,
        ts: Arc<SharedTimestampSource>,
        journal: Journal,
    ) -> Self {
        ConcurrentOracle {
            level,
            ts,
            last_commit: Mutex::new(LastCommit::unbounded()),
            forgotten_through: AtomicU64::new(0),
            counters: OracleCounters::default(),
            contention: Counter::new(),
            lock_wait_us: Histogram::new(),
            journal,
        }
    }

    /// The isolation level this oracle enforces.
    #[inline]
    pub fn level(&self) -> IsolationLevel {
        self.level
    }

    /// Registers the activity counters (see
    /// [`OracleCounters::register_in`]) and the decision lock's two series
    /// in `registry`: `oracle_shard_contention_total`, the contended
    /// acquisitions, and `oracle_shard_lock_wait_us`, the wait of each.
    pub fn register_in(&self, registry: &Registry) {
        self.counters.register_in(registry);
        registry.register_counter("oracle_shard_contention_total", &self.contention);
        registry.register_histogram("oracle_shard_lock_wait_us", &self.lock_wait_us);
    }

    /// Issues a start timestamp for a new transaction (lock-free).
    pub fn begin(&self) -> Timestamp {
        self.counters.begins.inc();
        self.ts.next()
    }

    /// Decides the commit of a transaction that started at `start_ts`, read
    /// `reads` and wrote `writes`: the concurrent counterpart of
    /// [`StatusOracleCore::commit`](crate::StatusOracleCore::commit), same
    /// semantics.
    pub fn commit(&self, start_ts: Timestamp, reads: &[RowId], writes: &[RowId]) -> CommitOutcome {
        if writes.is_empty() {
            // §5.1: read-only transactions commit without any computation.
            self.counters.read_only_commits.inc();
            return CommitOutcome::Committed(start_ts);
        }
        let mut guard = self.lock();
        match guard.check(start_ts, reads, writes) {
            Ok(()) => {
                // Drawn while the lock is held: see `finish_commit_at`.
                let commit_ts = self.ts.next();
                guard.finish_commit_at(writes, commit_ts);
                CommitOutcome::Committed(commit_ts)
            }
            Err(reason) => {
                drop(guard);
                self.abort_checked(reason);
                CommitOutcome::Aborted(reason)
            }
        }
    }

    /// Takes the decision lock and returns a guard for running the
    /// decision steps piecemeal. An uncontended acquisition reads no clock;
    /// a contended one counts itself and records its wait.
    #[inline]
    pub fn lock(&self) -> DecisionGuard<'_> {
        let table = match self.last_commit.try_lock() {
            Some(table) => table,
            None => {
                self.contention.inc();
                let began = Instant::now();
                let table = self.last_commit.lock();
                self.lock_wait_us.record(began.elapsed().as_micros() as u64);
                table
            }
        };
        DecisionGuard {
            oracle: self,
            table,
        }
    }

    /// Counts a conflict abort decided externally via
    /// [`DecisionGuard::check`], keeping statistics consistent with the
    /// [`ConcurrentOracle::commit`] path.
    pub fn abort_checked(&self, reason: AbortReason) {
        match reason {
            AbortReason::WriteWriteConflict { .. } => self.counters.ww_aborts.inc(),
            AbortReason::ReadWriteConflict { .. } => self.counters.rw_aborts.inc(),
            AbortReason::TmaxExceeded { .. } => self.counters.tmax_aborts.inc(),
            AbortReason::DangerousStructure { .. } => self.counters.pivot_aborts.inc(),
            AbortReason::ClientRequested => self.counters.client_aborts.inc(),
        }
    }

    /// Counts a client-requested abort.
    pub fn abort(&self) {
        self.counters.client_aborts.inc();
    }

    /// Overturns a decided-but-unpublished commit whose durability step
    /// failed: the embedder flips the transaction's fate from committed to
    /// aborted before any reader could observe it, and must guarantee the
    /// commit was never published — this oracle keeps no commit table. The
    /// recorded `lastCommit` rows stay: a stale entry can only cause
    /// spurious aborts of concurrent transactions, never admit a
    /// conflicting commit, and commits decided after this one were already
    /// checked against it.
    pub fn abort_after_decide(&self) {
        self.counters.commits_overturned.inc();
    }

    /// Forgets the `lastCommit` rows committed at or below `watermark`,
    /// which must be at or below every live and future start timestamp;
    /// returns the rows forgotten (see [`LastCommit::forget_through`]).
    /// Changes no decision. A watermark no higher than one already swept
    /// returns at once, without the lock, so a reader that pins the
    /// watermark costs no scans; a row recorded at or below it in the
    /// meantime goes on a later sweep.
    pub fn forget_through(&self, watermark: Timestamp) -> usize {
        if self
            .forgotten_through
            .fetch_max(watermark.raw(), Ordering::Relaxed)
            >= watermark.raw()
        {
            return 0;
        }
        self.last_commit.lock().forget_through(watermark)
    }

    /// Rows resident in `lastCommit`.
    pub fn resident_rows(&self) -> usize {
        self.last_commit.lock().len()
    }

    /// Probes `lastCommit` for one row without counting it as a conflict
    /// check (diagnostic/test access).
    pub fn probe_row(&self, row: RowId) -> Probe {
        self.last_commit.lock().probe(row)
    }

    /// The most recently issued timestamp on the shared counter.
    pub fn last_issued_ts(&self) -> Timestamp {
        self.ts.last_issued()
    }

    /// Activity counters, folded into a plain value.
    pub fn stats(&self) -> OracleStats {
        self.counters.view()
    }

    /// A shared handle onto the live counters (see
    /// [`OracleCounters`]); readable without taking the decision lock.
    pub fn counters(&self) -> OracleCounters {
        self.counters.clone()
    }

    /// Re-applies a committed transaction during WAL recovery. Replay is
    /// single-threaded and in WAL order, so same-row records arrive in
    /// commit order, which is all per-row monotonicity needs.
    pub fn replay_commit(&self, commit_ts: Timestamp, rows: &[RowId]) {
        self.ts.advance_to(commit_ts);
        let mut table = self.last_commit.lock();
        for &row in rows {
            table.record(row, commit_ts);
        }
    }

    /// Re-applies an aborted transaction during WAL recovery.
    pub fn replay_abort(&self, start_ts: Timestamp) {
        self.ts.advance_to(start_ts);
    }

    /// Advances the shared timestamp counter past `bound` (recovery of a
    /// §6.2 reservation record).
    pub fn advance_timestamps(&self, bound: Timestamp) {
        self.ts.advance_to(bound);
    }
}

/// The held decision lock of one commit decision, returned by
/// [`ConcurrentOracle::lock`].
///
/// While this guard lives no other transaction can decide — the
/// single-threaded oracle's critical section. Embedders run
/// [`DecisionGuard::check`], interleave their own publication steps, then
/// [`DecisionGuard::finish_commit_at`] (or drop the guard and register an
/// abort on the oracle).
pub struct DecisionGuard<'a> {
    oracle: &'a ConcurrentOracle,
    table: MutexGuard<'a, LastCommit>,
}

impl DecisionGuard<'_> {
    /// Runs the conflict check of Algorithms 1 and 2 for a transaction that
    /// started at `start_ts`, read `reads` and writes `writes`, without
    /// mutating state; same predicates, same outcome as the `lastCommit`
    /// check inside
    /// [`StatusOracleCore::commit`](crate::StatusOracleCore::commit). Rows
    /// are probed in slice order; a read-only transaction passes unchecked.
    #[inline]
    pub fn check(
        &self,
        start_ts: Timestamp,
        reads: &[RowId],
        writes: &[RowId],
    ) -> Result<(), AbortReason> {
        if writes.is_empty() {
            return Ok(());
        }
        let level = self.oracle.level;
        // Counters are batched into one atomic add per loop (including the
        // early-abort exits) so the observable counts stay identical to
        // `StatusOracleCore`'s per-row increments at a fraction of the
        // traffic.
        let mut checked = 0u64;
        for &row in level.checked_rows(reads, writes) {
            checked += 1;
            let verdict = check_row_probe(level, row, self.table.probe(row), start_ts);
            self.oracle.journal.record(
                start_ts.raw(),
                EventData::CheckRow {
                    row: row.raw(),
                    conflict: verdict
                        .as_ref()
                        .err()
                        .and_then(AbortReason::conflict_ts)
                        .map(Timestamp::raw),
                },
            );
            if let Err(reason) = verdict {
                self.oracle.counters.rows_checked.add(checked);
                return Err(reason);
            }
        }
        if checked > 0 {
            self.oracle.counters.rows_checked.add(checked);
        }
        Ok(())
    }

    /// Records `writes` at a checked commit whose commit timestamp the
    /// embedder already issued — necessarily from the same shared counter,
    /// and necessarily while this guard was continuously held, or per-row
    /// timestamp monotonicity breaks.
    #[inline]
    pub fn finish_commit_at(&mut self, writes: &[RowId], commit_ts: Timestamp) {
        for &row in writes {
            self.table.record(row, commit_ts);
        }
        if !writes.is_empty() {
            self.oracle.counters.rows_recorded.add(writes.len() as u64);
        }
        self.oracle.counters.commits.inc();
    }

    /// Registers a conflict abort for the transaction this guard was taken
    /// for; convenience forwarding to [`ConcurrentOracle::abort_checked`]
    /// so embedders can record the abort before releasing the lock.
    pub fn abort_checked(&self, reason: AbortReason) {
        self.oracle.abort_checked(reason);
    }
}

impl std::fmt::Debug for DecisionGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecisionGuard").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsi_obs::Event;

    fn rows(ids: &[u64]) -> Vec<RowId> {
        ids.iter().map(|&i| RowId(i)).collect()
    }

    fn oracle(level: IsolationLevel) -> ConcurrentOracle {
        ConcurrentOracle::unbounded(
            level,
            Arc::new(SharedTimestampSource::new()),
            Journal::new(),
        )
    }

    #[test]
    fn wsi_rw_conflict_detected() {
        let o = oracle(IsolationLevel::WriteSnapshot);
        let t1 = o.begin();
        let t2 = o.begin();
        assert!(o.commit(t1, &rows(&[1]), &rows(&[2])).is_committed());
        let out = o.commit(t2, &rows(&[2]), &rows(&[1]));
        assert!(matches!(
            out.abort_reason(),
            Some(AbortReason::ReadWriteConflict { row: RowId(2), .. })
        ));
    }

    #[test]
    fn si_first_committer_wins() {
        let o = oracle(IsolationLevel::Snapshot);
        let t1 = o.begin();
        let t2 = o.begin();
        assert!(o.commit(t1, &[], &rows(&[7])).is_committed());
        assert!(o.commit(t2, &[], &rows(&[7])).is_aborted());
        assert_eq!(o.stats().ww_aborts, 1);
    }

    #[test]
    fn read_only_commits_without_probes() {
        let o = oracle(IsolationLevel::WriteSnapshot);
        let t = o.begin();
        let out = o.commit(t, &rows(&[1, 2, 3]), &[]);
        assert_eq!(out.commit_ts(), Some(t));
        assert_eq!(o.stats().rows_checked, 0);
        assert_eq!(o.stats().read_only_commits, 1);
    }

    #[test]
    fn forgetting_sweeps_once_per_watermark() {
        let o = oracle(IsolationLevel::WriteSnapshot);
        let commits: Vec<Timestamp> = (0..100u64)
            .map(|i| {
                let t = o.begin();
                let out = o.commit(t, &[], &rows(&[i]));
                out.commit_ts().expect("disjoint rows")
            })
            .collect();
        assert_eq!(o.forget_through(commits[89]), 90);
        assert_eq!(o.resident_rows(), 10);
        assert_eq!(o.probe_row(RowId(89)), Probe::NeverWritten);
        assert_eq!(o.probe_row(RowId(90)), Probe::Resident(commits[90]));
        // A row recorded at or below a watermark already swept stays until
        // the watermark moves.
        o.replay_commit(commits[0], &rows(&[500]));
        assert_eq!(o.forget_through(commits[89]), 0);
        assert_eq!(o.forget_through(commits[50]), 0);
        assert_eq!(o.resident_rows(), 11);
        assert_eq!(o.forget_through(commits[90]), 2);
        assert_eq!(o.resident_rows(), 9);
    }

    #[test]
    fn overturn_and_client_abort_bookkeeping() {
        let o = oracle(IsolationLevel::WriteSnapshot);
        let t = o.begin();
        let writes = rows(&[1]);
        let mut g = o.lock();
        assert!(g.check(t, &[], &writes).is_ok());
        g.finish_commit_at(&writes, o.ts.next());
        drop(g);
        assert_eq!(o.stats().commits, 1);
        o.abort_after_decide();
        assert_eq!(o.stats().commits, 0);

        o.begin();
        o.abort();
        assert_eq!(o.stats().client_aborts, 1);
    }

    #[test]
    fn replay_reconstructs_conflict_state() {
        let o = oracle(IsolationLevel::WriteSnapshot);
        o.replay_commit(Timestamp(3), &rows(&[7]));
        assert!(o.last_issued_ts() >= Timestamp(3));
        // A transaction that read row 7 before the recovered commit aborts.
        assert!(o
            .commit(Timestamp(2), &rows(&[7]), &rows(&[8]))
            .is_aborted());
    }

    #[test]
    fn journal_records_per_row_verdicts_with_culprit() {
        let journal = Journal::new();
        let o = ConcurrentOracle::unbounded(
            IsolationLevel::WriteSnapshot,
            Arc::new(SharedTimestampSource::new()),
            journal.clone(),
        );
        let t1 = o.begin();
        let t2 = o.begin();
        let first = o.commit(t1, &rows(&[1]), &rows(&[2]));
        let commit_ts = first.commit_ts().expect("no conflict");
        assert!(o.commit(t2, &rows(&[2]), &rows(&[1])).is_aborted());
        // t1's check of row 1 passed; t2's check of row 2 names t1's commit
        // timestamp as the culprit.
        assert_eq!(
            journal.events_for(t1.raw()),
            vec![Event {
                seqno: journal.events_for(t1.raw())[0].seqno,
                ts_us: journal.events_for(t1.raw())[0].ts_us,
                txn: t1.raw(),
                data: EventData::CheckRow {
                    row: 1,
                    conflict: None
                },
            }]
        );
        let t2_events = journal.events_for(t2.raw());
        assert_eq!(t2_events.len(), 1);
        assert_eq!(
            t2_events[0].data,
            EventData::CheckRow {
                row: 2,
                conflict: Some(commit_ts.raw()),
            }
        );
    }

    #[test]
    fn disjoint_commits_race_without_deadlock() {
        // 8 threads deciding under the one lock must neither deadlock nor
        // lose bookkeeping.
        let o = Arc::new(oracle(IsolationLevel::WriteSnapshot));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let o = Arc::clone(&o);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let start = o.begin();
                        // Two-row write sets, private per thread (no
                        // conflicts expected).
                        let ab = rows(&[t * 1_000 + i, t * 1_000 + 500 + i]);
                        assert!(o.commit(start, &ab, &ab).is_committed());
                    }
                });
            }
        });
        let stats = o.stats();
        assert_eq!(stats.commits, 1_600);
        assert_eq!(stats.total_aborts(), 0);
        assert_eq!(o.resident_rows(), 3_200);
    }
}
