//! The sharded concurrent status oracle: parallel commit decisions.
//!
//! The paper sizes the status oracle's critical section at "a few memory
//! operations" (§6.3) — small, but still *one* critical section, so commit
//! decisions serialize no matter how many cores the embedder has.
//! PostgreSQL's SSI implementation (Ports & Grittner, *Serializable Snapshot
//! Isolation in PostgreSQL*, VLDB 2012) shows the standard cure: partition
//! the conflict-tracking structures by hash so transactions that touch
//! disjoint data never contend.
//!
//! This module applies that cure to the `lastCommit` table:
//!
//! * [`ShardedLastCommit`] splits the table into N power-of-two shards, each
//!   its own lock and its own exact map. It is bounded by forgetting, not by
//!   Algorithm 3's eviction: the embedder passes a watermark at or below
//!   every live and future start timestamp to
//!   [`ConcurrentOracle::forget_through`], which drops each shard's rows at
//!   or below it (see [`LastCommit::forget_through`]). No decision changes
//!   and no `T_max` abort can occur.
//! * [`ConcurrentOracle`] decides a commit by computing the transaction's
//!   *shard set* — a bitmask with one bit per shard of its checked and
//!   written rows — and locking those shards lowest bit first, the canonical
//!   ascending order that makes the protocol deadlock-free. It then runs
//!   exactly the same per-row predicates as
//!   [`StatusOracleCore`](crate::StatusOracleCore). The commit timestamp is
//!   drawn from the embedder's shared atomic [`SharedTimestampSource`]
//!   *while the shards are held*, so for any two spatially-overlapping
//!   transactions (which necessarily share a shard) decision order equals
//!   timestamp order and per-row `lastCommit` timestamps stay monotonic.
//!   Transactions with disjoint shard sets cannot conflict, so their
//!   decisions may interleave freely.
//! * It certifies point rows only. A §5.2 range cannot be attributed to a
//!   shard, so under WSI, the one level that checks ranges, a request
//!   carrying read ranges is refused ([`ConcurrentOracle::lock_for`]
//!   panics): an unchecked range would be a hole in serializability. An
//!   embedder covers a range with point rows; the sequential
//!   [`StatusOracleCore`](crate::StatusOracleCore) keeps §5.2 ranges. Under
//!   SI and SSI ranges are ignored, as the sequential oracle ignores them.
//!
//! The decision path is exposed in two shapes: [`ConcurrentOracle::commit`]
//! for self-contained use, and the [`ConcurrentOracle::lock_for`] /
//! [`DecisionGuard`] pair for embedders (like `wsi-store`) that must
//! interleave their own publication steps — recording the commit, WAL
//! queueing — between the conflict check and the oracle bookkeeping while
//! the shards stay held.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use spin::{Mutex, MutexGuard};
use wsi_obs::{Counter, EventData, Histogram, HistogramSnapshot, Journal, Registry};

use crate::{
    error::{AbortReason, CommitOutcome},
    lastcommit::{LastCommit, Probe},
    oracle::{check_row_probe, CommitRequest, OracleCounters, OracleStats},
    policy::IsolationLevel,
    row::RowId,
    ts::{SharedTimestampSource, Timestamp},
};

/// Fibonacci multiplicative-hash constant (2^64 / φ): spreads both
/// sequential row identifiers (synthetic workloads) and already-hashed ones
/// (byte-string keys) evenly across power-of-two shard counts.
const FIB_HASH: u64 = 0x9E37_79B9_7F4A_7C15;

/// A `lastCommit` table partitioned into independently-locked shards.
///
/// Rows are assigned to shards by a Fibonacci multiplicative hash of the row
/// identifier; the shard count is rounded up to a power of two so the
/// assignment is a multiply and a shift, and is at most 64 so a decision's
/// shard set fits one `u64` mask.
#[derive(Debug)]
pub struct ShardedLastCommit {
    shards: Vec<Mutex<LastCommit>>,
    /// `64 - log2(shard count)`; meaningless (unused) when there is 1 shard.
    shift: u32,
    /// The highest watermark [`ShardedLastCommit::forget_through`] has
    /// swept the shards at. Relaxed: it publishes no data, the sweep's
    /// effects are ordered by the shard locks.
    forgotten_through: AtomicU64,
}

impl ShardedLastCommit {
    /// Creates an unbounded sharded table (Algorithms 1 and 2). The shard
    /// count is rounded up to a power of two, minimum 1.
    ///
    /// # Panics
    ///
    /// Panics if the rounded shard count exceeds 64.
    pub fn unbounded(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        assert!(
            n <= 64,
            "{shards} lastCommit shards round to {n}; a decision's shard mask holds at most 64"
        );
        ShardedLastCommit {
            shards: (0..n)
                .map(|_| Mutex::new(LastCommit::unbounded()))
                .collect(),
            shift: 64 - (n as u64).trailing_zeros(),
            forgotten_through: AtomicU64::new(0),
        }
    }

    /// Number of shards (always a power of two).
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a row belongs to. Deterministic: the same row always maps
    /// to the same shard, so a decision need lock only its rows' shards.
    #[inline]
    pub fn shard_of(&self, row: RowId) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            (row.raw().wrapping_mul(FIB_HASH) >> self.shift) as usize
        }
    }

    /// Probes one row, locking only its shard.
    pub fn probe(&self, row: RowId) -> Probe {
        self.shards[self.shard_of(row)].lock().probe(row)
    }

    /// Forgets every row committed at or below `watermark`, one shard at a
    /// time under that shard's lock; returns the rows forgotten. A watermark
    /// no higher than one already swept returns at once, so a reader that
    /// pins the watermark costs no scans.
    ///
    /// `watermark` must be at or below every live and future start
    /// timestamp (see [`LastCommit::forget_through`]). A commit recorded
    /// while the sweep runs may keep a row at or below it; that row goes on
    /// a later sweep.
    pub fn forget_through(&self, watermark: Timestamp) -> usize {
        if self
            .forgotten_through
            .fetch_max(watermark.raw(), Ordering::Relaxed)
            >= watermark.raw()
        {
            return 0;
        }
        self.shards
            .iter()
            .map(|s| s.lock().forget_through(watermark))
            .sum()
    }

    /// Total rows resident across all shards.
    pub fn resident_rows(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    #[inline]
    pub(crate) fn shard(&self, idx: usize) -> &Mutex<LastCommit> {
        &self.shards[idx]
    }
}

/// Lock-free metrics of the sharded oracle's decision path, registered
/// under `oracle_shard_*` names.
#[derive(Debug)]
pub struct ShardObs {
    /// Shard-lock acquisitions that found the lock already held, per shard.
    per_shard_contention: Vec<Counter>,
    /// Same, aggregated over all shards.
    contention: Counter,
    /// Time spent acquiring a decision's full shard set, in microseconds.
    lock_wait_us: Histogram,
    /// Shards locked per commit decision.
    shards_per_decision: Histogram,
}

impl ShardObs {
    fn new(shards: usize) -> Self {
        ShardObs {
            per_shard_contention: (0..shards).map(|_| Counter::new()).collect(),
            contention: Counter::new(),
            lock_wait_us: Histogram::new(),
            shards_per_decision: Histogram::new(),
        }
    }

    /// Registers every series in `registry`: the aggregate counters and
    /// histograms under fixed `oracle_shard_*` names, plus one contention
    /// counter per shard (`oracle_shard_<i>_contention_total`).
    pub fn register_in(&self, registry: &Registry) {
        registry.register_counter("oracle_shard_contention_total", &self.contention);
        registry.register_histogram("oracle_shard_lock_wait_us", &self.lock_wait_us);
        registry.register_histogram("oracle_shards_per_decision", &self.shards_per_decision);
        for (i, counter) in self.per_shard_contention.iter().enumerate() {
            registry.register_counter(&format!("oracle_shard_{i}_contention_total"), counter);
        }
    }

    /// Total contended shard-lock acquisitions.
    pub fn contention_total(&self) -> u64 {
        self.contention.get()
    }

    /// Contended acquisitions of shard `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a valid shard index.
    pub fn shard_contention(&self, i: usize) -> u64 {
        self.per_shard_contention[i].get()
    }

    /// Snapshot of the shard-set acquisition latency histogram.
    pub fn lock_wait_snapshot(&self) -> HistogramSnapshot {
        self.lock_wait_us.snapshot()
    }

    /// Snapshot of the shards-locked-per-decision histogram.
    pub fn shards_per_decision_snapshot(&self) -> HistogramSnapshot {
        self.shards_per_decision.snapshot()
    }
}

/// A concurrent status oracle: same decisions as
/// [`StatusOracleCore`](crate::StatusOracleCore), made in parallel.
///
/// Internally `&self` everywhere — share it behind an `Arc` and call
/// [`ConcurrentOracle::commit`] from as many threads as desired. Decisions
/// for transactions with overlapping row sets are mutually exclusive (they
/// share a `lastCommit` shard); decisions for disjoint transactions proceed
/// concurrently, which is the entire point.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use wsi_core::{CommitRequest, ConcurrentOracle, IsolationLevel, RowId, SharedTimestampSource};
/// use wsi_obs::Journal;
///
/// let ts = Arc::new(SharedTimestampSource::new());
/// let o = ConcurrentOracle::unbounded(IsolationLevel::WriteSnapshot, 16, ts, Journal::new());
/// let t1 = o.begin();
/// let t2 = o.begin();
/// // Lost update: both read and write row 1; the second must abort.
/// assert!(o
///     .commit(CommitRequest::new(t1, vec![RowId(1)], vec![RowId(1)]))
///     .is_committed());
/// assert!(o
///     .commit(CommitRequest::new(t2, vec![RowId(1)], vec![RowId(1)]))
///     .is_aborted());
/// ```
#[derive(Debug)]
pub struct ConcurrentOracle {
    level: IsolationLevel,
    ts: Arc<SharedTimestampSource>,
    last_commit: ShardedLastCommit,
    counters: OracleCounters,
    obs: ShardObs,
    /// Flight recorder for per-row conflict-check verdicts (the embedder
    /// records the coarser lifecycle events itself).
    journal: Journal,
}

impl ConcurrentOracle {
    /// Creates an unbounded concurrent oracle (Algorithm 1 or 2 by `level`)
    /// with `shards` `lastCommit` shards (rounded up to a power of two),
    /// drawing timestamps from the embedder's shared counter. Every row a
    /// [`DecisionGuard::check`] probes records a [`EventData::CheckRow`]
    /// verdict in `journal`, carrying the culprit's commit timestamp when
    /// the row conflicted.
    pub fn unbounded(
        level: IsolationLevel,
        shards: usize,
        ts: Arc<SharedTimestampSource>,
        journal: Journal,
    ) -> Self {
        let last_commit = ShardedLastCommit::unbounded(shards);
        ConcurrentOracle {
            level,
            ts,
            obs: ShardObs::new(last_commit.shard_count()),
            last_commit,
            counters: OracleCounters::default(),
            journal,
        }
    }

    /// The isolation level this oracle enforces.
    #[inline]
    pub fn level(&self) -> IsolationLevel {
        self.level
    }

    /// Number of `lastCommit` shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.last_commit.shard_count()
    }

    /// The sharded decision-path metrics.
    pub fn shard_obs(&self) -> &ShardObs {
        &self.obs
    }

    /// Issues a start timestamp for a new transaction (lock-free).
    pub fn begin(&self) -> Timestamp {
        self.counters.begins.inc();
        self.ts.next()
    }

    /// Decides a commit request: the concurrent counterpart of
    /// [`StatusOracleCore::commit`](crate::StatusOracleCore::commit), same
    /// semantics, holding only the shards the transaction touches.
    pub fn commit(&self, req: CommitRequest) -> CommitOutcome {
        if req.is_read_only() {
            // §5.1: read-only transactions commit without any computation.
            self.counters.read_only_commits.inc();
            return CommitOutcome::Committed(req.start_ts);
        }
        let mut guard = self.lock_for(&req);
        match guard.check(&req) {
            Ok(()) => {
                // Drawn while the shards are held: see `finish_commit_at`.
                let commit_ts = self.ts.next();
                guard.finish_commit_at(&req, commit_ts);
                CommitOutcome::Committed(commit_ts)
            }
            Err(reason) => {
                drop(guard);
                self.abort_checked(reason);
                CommitOutcome::Aborted(reason)
            }
        }
    }

    /// Locks the transaction's shard set in canonical (ascending) order and
    /// returns a guard for running the decision steps piecemeal.
    ///
    /// The shard set is a bitmask: bit `i` is set when shard `i` holds one of
    /// the checked rows (writes under SI, reads under WSI) or the written
    /// rows. Shards are locked lowest set bit first, so every acquirer takes
    /// its set in the same ascending order and lock acquisition is
    /// deadlock-free, with nothing to sort.
    ///
    /// # Panics
    ///
    /// Panics if a WSI request carries §5.2 read ranges: this oracle
    /// certifies point rows only, and a range it did not check would be
    /// admitted unchecked. The other levels ignore ranges, as
    /// [`StatusOracleCore`](crate::StatusOracleCore) does.
    #[inline]
    pub fn lock_for(&self, req: &CommitRequest) -> DecisionGuard<'_> {
        assert!(
            self.level != IsolationLevel::WriteSnapshot || req.read_ranges.is_empty(),
            "the concurrent oracle certifies rows, not §5.2 read ranges"
        );
        let mask = self
            .level
            .checked_rows(req)
            .iter()
            .chain(&req.write_rows)
            .fold(0u64, |mask, &row| {
                mask | 1 << self.last_commit.shard_of(row)
            });
        let began = Instant::now();
        let mut guards = Vec::with_capacity(mask.count_ones() as usize);
        let mut rest = mask;
        while rest != 0 {
            guards.push(self.lock_shard(rest.trailing_zeros() as usize));
            rest &= rest - 1;
        }
        self.obs
            .lock_wait_us
            .record(began.elapsed().as_micros() as u64);
        self.obs.shards_per_decision.record(guards.len() as u64);
        DecisionGuard {
            oracle: self,
            mask,
            guards,
        }
    }

    /// Acquires one shard lock, counting the acquisition as contended when
    /// the uncontended fast path fails.
    #[inline]
    fn lock_shard(&self, i: usize) -> MutexGuard<'_, LastCommit> {
        let shard = self.last_commit.shard(i);
        match shard.try_lock() {
            Some(guard) => guard,
            None => {
                self.obs.contention.inc();
                self.obs.per_shard_contention[i].inc();
                shard.lock()
            }
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
    /// returns the rows forgotten (see
    /// [`ShardedLastCommit::forget_through`]). Changes no decision.
    pub fn forget_through(&self, watermark: Timestamp) -> usize {
        self.last_commit.forget_through(watermark)
    }

    /// Total rows resident in `lastCommit` across shards.
    pub fn resident_rows(&self) -> usize {
        self.last_commit.resident_rows()
    }

    /// Probes `lastCommit` for one row without counting it as a conflict
    /// check (diagnostic/test access).
    pub fn probe_row(&self, row: RowId) -> Probe {
        self.last_commit.probe(row)
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
    /// [`OracleCounters`]); readable without touching any shard lock.
    pub fn counters(&self) -> OracleCounters {
        self.counters.clone()
    }

    /// Re-applies a committed transaction during WAL recovery. Replay is
    /// single-threaded and in WAL order; rows are recorded shard by shard
    /// (same-row records arrive in commit order, which is all per-row
    /// monotonicity needs).
    pub fn replay_commit(&self, commit_ts: Timestamp, rows: &[RowId]) {
        self.ts.advance_to(commit_ts);
        for &row in rows {
            self.last_commit
                .shard(self.last_commit.shard_of(row))
                .lock()
                .record(row, commit_ts);
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

/// The held shard set of one commit decision, returned by
/// [`ConcurrentOracle::lock_for`].
///
/// While this guard lives, no other transaction that spatially overlaps the
/// request can decide — exactly the mutual exclusion the single-threaded
/// oracle's critical section provided, scoped down to the touched shards.
/// Embedders run [`DecisionGuard::check`], interleave their own publication
/// steps, then [`DecisionGuard::finish_commit_at`] (or drop the guard and
/// register an abort on the oracle).
pub struct DecisionGuard<'a> {
    oracle: &'a ConcurrentOracle,
    /// The locked shards: bit `i` is set when shard `i` is held.
    mask: u64,
    /// One guard per set bit of `mask`, lowest shard first.
    guards: Vec<MutexGuard<'a, LastCommit>>,
}

impl DecisionGuard<'_> {
    /// Runs the conflict check of Algorithms 1–3 against the locked shards
    /// without mutating state; same predicates, same outcome as the
    /// `lastCommit` check inside
    /// [`StatusOracleCore::commit`](crate::StatusOracleCore::commit).
    #[inline]
    pub fn check(&self, req: &CommitRequest) -> Result<(), AbortReason> {
        if req.is_read_only() {
            return Ok(());
        }
        let level = self.oracle.level;
        // Counters are batched into one atomic add per loop (including the
        // early-abort exits) so the observable counts stay identical to
        // `StatusOracleCore`'s per-row increments at a fraction of the
        // traffic.
        let mut checked = 0u64;
        for &row in level.checked_rows(req) {
            checked += 1;
            let probe = self.guards[self.slot(row)].probe(row);
            let verdict = check_row_probe(level, row, probe, req.start_ts);
            self.oracle.journal.record(
                req.start_ts.raw(),
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

    /// Registers a checked commit whose commit timestamp the embedder
    /// already issued — necessarily from the same shared counter, and
    /// necessarily while this guard was continuously held, or per-row
    /// timestamp monotonicity breaks.
    #[inline]
    pub fn finish_commit_at(&mut self, req: &CommitRequest, commit_ts: Timestamp) {
        for &row in &req.write_rows {
            let slot = self.slot(row);
            self.guards[slot].record(row, commit_ts);
        }
        if !req.write_rows.is_empty() {
            self.oracle
                .counters
                .rows_recorded
                .add(req.write_rows.len() as u64);
        }
        self.oracle.counters.commits.inc();
    }

    /// Registers a conflict abort for the request this guard was taken for;
    /// convenience forwarding to [`ConcurrentOracle::abort_checked`] so
    /// embedders can record the abort before releasing the shards.
    pub fn abort_checked(&self, reason: AbortReason) {
        self.oracle.abort_checked(reason);
    }

    /// Position in `guards` of the guard holding `row`'s shard: the number
    /// of locked shards below it.
    #[inline]
    fn slot(&self, row: RowId) -> usize {
        let below = (1u64 << self.oracle.last_commit.shard_of(row)) - 1;
        (self.mask & below).count_ones() as usize
    }
}

impl std::fmt::Debug for DecisionGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecisionGuard")
            .field("mask", &format_args!("{:#x}", self.mask))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsi_obs::Event;

    fn rows(ids: &[u64]) -> Vec<RowId> {
        ids.iter().map(|&i| RowId(i)).collect()
    }

    fn oracle(level: IsolationLevel, shards: usize) -> ConcurrentOracle {
        ConcurrentOracle::unbounded(
            level,
            shards,
            Arc::new(SharedTimestampSource::new()),
            Journal::new(),
        )
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        for (req, got) in [(0, 1), (1, 1), (3, 4), (8, 8), (9, 16)] {
            assert_eq!(ShardedLastCommit::unbounded(req).shard_count(), got);
        }
    }

    #[test]
    fn shard_mapping_is_deterministic_and_in_range() {
        let t = ShardedLastCommit::unbounded(16);
        for i in 0..10_000u64 {
            let s = t.shard_of(RowId(i));
            assert!(s < 16);
            assert_eq!(s, t.shard_of(RowId(i)));
        }
        // Sequential ids should spread over all shards, not clump.
        let mut seen = [false; 16];
        for i in 0..1_000u64 {
            seen[t.shard_of(RowId(i))] = true;
        }
        assert!(seen.iter().all(|&s| s), "all shards populated");
    }

    #[test]
    fn wsi_rw_conflict_detected_across_shard_layouts() {
        for shards in [1, 4, 16] {
            let o = oracle(IsolationLevel::WriteSnapshot, shards);
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
    }

    #[test]
    fn si_first_committer_wins_across_shard_layouts() {
        for shards in [1, 8] {
            let o = oracle(IsolationLevel::Snapshot, shards);
            let t1 = o.begin();
            let t2 = o.begin();
            assert!(o
                .commit(CommitRequest::new(t1, vec![], rows(&[7])))
                .is_committed());
            assert!(o
                .commit(CommitRequest::new(t2, vec![], rows(&[7])))
                .is_aborted());
            assert_eq!(o.stats().ww_aborts, 1);
        }
    }

    #[test]
    fn read_only_commits_without_probes() {
        let o = oracle(IsolationLevel::WriteSnapshot, 8);
        let t = o.begin();
        let out = o.commit(CommitRequest::new(t, rows(&[1, 2, 3]), vec![]));
        assert_eq!(out.commit_ts(), Some(t));
        assert_eq!(o.stats().rows_checked, 0);
        assert_eq!(o.stats().read_only_commits, 1);
    }

    #[test]
    #[should_panic(expected = "certifies rows, not §5.2 read ranges")]
    fn a_request_with_read_ranges_is_refused() {
        let o = oracle(IsolationLevel::WriteSnapshot, 8);
        let scanner = o.begin();
        let req = CommitRequest::new(scanner, vec![], rows(&[2000]))
            .with_read_ranges(vec![crate::RowRange::new(0, 1000)]);
        let _ = o.lock_for(&req);
    }

    #[test]
    fn snapshot_requests_ignore_read_ranges_as_the_model_does() {
        let o = oracle(IsolationLevel::Snapshot, 8);
        let scanner = o.begin();
        let writer = o.begin();
        assert!(o
            .commit(CommitRequest::new(writer, vec![], rows(&[5])))
            .is_committed());
        let req = CommitRequest::new(scanner, vec![], rows(&[2000]))
            .with_read_ranges(vec![crate::RowRange::new(0, 1000)]);
        assert!(o.commit(req).is_committed());
    }

    #[test]
    fn sixty_four_shards_fill_the_mask() {
        let o = oracle(IsolationLevel::WriteSnapshot, 64);
        assert_eq!(o.shard_count(), 64);
        let top = (0..)
            .map(RowId)
            .find(|&row| o.last_commit.shard_of(row) == 63)
            .expect("some row maps to shard 63");
        let reader = o.begin();
        let writer = o.begin();
        // A request whose one row sits in the last shard: bit 63, one guard.
        let req = CommitRequest::new(writer, vec![top], vec![top]);
        let mut g = o.lock_for(&req);
        assert_eq!((g.mask, g.guards.len()), (1 << 63, 1));
        assert!(g.check(&req).is_ok());
        let committed = o.ts.next();
        g.finish_commit_at(&req, committed);
        drop(g);
        assert_eq!(o.probe_row(top), Probe::Resident(committed));
        let out = o.commit(CommitRequest::new(reader, vec![top], rows(&[1])));
        assert_eq!(
            out.abort_reason(),
            Some(AbortReason::ReadWriteConflict {
                row: top,
                committed_at: committed,
            })
        );
    }

    #[test]
    #[should_panic(
        expected = "65 lastCommit shards round to 128; a decision's shard mask holds at most 64"
    )]
    fn more_than_sixty_four_shards_are_refused() {
        let _ = ShardedLastCommit::unbounded(65);
    }

    #[test]
    fn forgetting_sweeps_every_shard_once_per_watermark() {
        let o = oracle(IsolationLevel::WriteSnapshot, 8);
        let commits: Vec<Timestamp> = (0..100u64)
            .map(|i| {
                let t = o.begin();
                let out = o.commit(CommitRequest::new(t, vec![], rows(&[i])));
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
        let o = oracle(IsolationLevel::WriteSnapshot, 4);
        let t = o.begin();
        let req = CommitRequest::new(t, vec![], rows(&[1]));
        let mut g = o.lock_for(&req);
        assert!(g.check(&req).is_ok());
        g.finish_commit_at(&req, o.ts.next());
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
        let o = oracle(IsolationLevel::WriteSnapshot, 8);
        o.replay_commit(Timestamp(3), &rows(&[7]));
        assert!(o.last_issued_ts() >= Timestamp(3));
        // A transaction that read row 7 before the recovered commit aborts.
        let out = o.commit(CommitRequest::new(Timestamp(2), rows(&[7]), rows(&[8])));
        assert!(out.is_aborted());
    }

    #[test]
    fn journal_records_per_row_verdicts_with_culprit() {
        let journal = Journal::new();
        let o = ConcurrentOracle::unbounded(
            IsolationLevel::WriteSnapshot,
            4,
            Arc::new(SharedTimestampSource::new()),
            journal.clone(),
        );
        let t1 = o.begin();
        let t2 = o.begin();
        let first = o.commit(CommitRequest::new(t1, rows(&[1]), rows(&[2])));
        let commit_ts = first.commit_ts().expect("no conflict");
        assert!(o
            .commit(CommitRequest::new(t2, rows(&[2]), rows(&[1])))
            .is_aborted());
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
        // 8 threads over overlapping shard sets; ascending acquisition must
        // neither deadlock nor lose bookkeeping.
        let o = Arc::new(oracle(IsolationLevel::WriteSnapshot, 8));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let o = Arc::clone(&o);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let start = o.begin();
                        // Two-row write sets straddling shard boundaries,
                        // private per thread (no conflicts expected).
                        let a = t * 1_000 + i;
                        let b = t * 1_000 + 500 + i;
                        assert!(o
                            .commit(CommitRequest::new(start, rows(&[a, b]), rows(&[a, b])))
                            .is_committed());
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
