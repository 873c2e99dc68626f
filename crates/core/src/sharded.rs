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
//!   its own lock and its own map. The bounded (Algorithm 3) variant keeps a
//!   per-shard `T_max`; the global `T_max` is the maximum over shards, which
//!   is sound because a row maps deterministically to one shard — any
//!   eviction that could affect a row happened in that row's own shard, and
//!   the per-shard bound already covers it.
//! * [`ConcurrentOracle`] decides a commit by computing the transaction's
//!   *shard set* (the shards of its checked and written rows), locking those
//!   shards in ascending order — the canonical order that makes the protocol
//!   deadlock-free — and then running exactly the same per-row predicates as
//!   [`StatusOracleCore`](crate::StatusOracleCore). The commit timestamp is
//!   drawn from the embedder's shared atomic [`SharedTimestampSource`]
//!   *while the shards are held*, so for any two spatially-overlapping
//!   transactions (which necessarily share a shard) decision order equals
//!   timestamp order and per-row `lastCommit` timestamps stay monotonic.
//!   Transactions with disjoint shard sets cannot conflict, so their
//!   decisions may interleave freely.
//! * §5.2 range probes cannot be attributed to a shard (a hash-sharded range
//!   spans all of them), so a request carrying read ranges falls back to an
//!   ordered **all-shard sweep**: every shard is locked, in order, and the
//!   range is probed in each, combining the answers pessimistically.
//!
//! The decision path is exposed in two shapes: [`ConcurrentOracle::commit`]
//! for self-contained use, and the [`ConcurrentOracle::lock_for`] /
//! [`DecisionGuard`] pair for embedders (like `wsi-store`) that must
//! interleave their own publication steps — commit-index insertion, WAL
//! queueing — between the conflict check and the oracle bookkeeping while
//! the shards stay held.

use std::sync::Arc;
use std::time::Instant;

use spin::{Mutex, MutexGuard};
use wsi_obs::{Counter, EventData, Histogram, HistogramSnapshot, Journal, Registry};

use crate::{
    error::{AbortReason, CommitOutcome},
    lastcommit::{BoundedLastCommit, Probe, UnboundedLastCommit},
    oracle::{
        check_range_probe, check_row_probe, CommitRequest, OracleCounters, OracleStats, Table,
    },
    policy::IsolationLevel,
    row::{RowId, RowRange},
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
/// assignment is a multiply and a shift. For the bounded variant the total
/// capacity is divided evenly across shards and each shard tracks its own
/// `T_max`; [`ShardedLastCommit::t_max`] reports the maximum, which is the
/// correct global pessimistic bound (see the module docs).
#[derive(Debug)]
pub struct ShardedLastCommit {
    shards: Vec<Mutex<Table>>,
    /// `64 - log2(shard count)`; meaningless (unused) when there is 1 shard.
    shift: u32,
}

impl ShardedLastCommit {
    /// Creates an unbounded sharded table (Algorithms 1 and 2). The shard
    /// count is rounded up to a power of two, minimum 1.
    pub fn unbounded(shards: usize) -> Self {
        Self::build(shards, None)
    }

    /// Creates a bounded sharded table (Algorithm 3) retaining at most
    /// ≈`capacity` resident rows in total, split evenly across shards (at
    /// least one row per shard). The shard count is rounded up to a power of
    /// two, minimum 1.
    pub fn bounded(shards: usize, capacity: usize) -> Self {
        Self::build(shards, Some(capacity))
    }

    fn build(shards: usize, capacity: Option<usize>) -> Self {
        let n = shards.max(1).next_power_of_two();
        let make = || match capacity {
            None => Table::Unbounded(UnboundedLastCommit::new()),
            Some(cap) => Table::Bounded(BoundedLastCommit::with_capacity((cap / n).max(1))),
        };
        ShardedLastCommit {
            shards: (0..n).map(|_| Mutex::new(make())).collect(),
            shift: 64 - (n as u64).trailing_zeros(),
        }
    }

    /// Number of shards (always a power of two).
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a row belongs to. Deterministic: the same row always maps
    /// to the same shard, which is what makes per-shard `T_max` sound.
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

    /// Global `T_max`: the maximum per-shard `T_max` (always
    /// [`Timestamp::ZERO`] for unbounded tables).
    pub fn t_max(&self) -> Timestamp {
        self.shards
            .iter()
            .map(|s| s.lock().t_max())
            .max()
            .unwrap_or(Timestamp::ZERO)
    }

    /// Total rows resident across all shards.
    pub fn resident_rows(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    #[inline]
    pub(crate) fn shard(&self, idx: usize) -> &Mutex<Table> {
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
    /// Decisions that fell back to the all-shard sweep (§5.2 range probes).
    full_sweeps: Counter,
}

impl ShardObs {
    fn new(shards: usize) -> Self {
        ShardObs {
            per_shard_contention: (0..shards).map(|_| Counter::new()).collect(),
            contention: Counter::new(),
            lock_wait_us: Histogram::new(),
            shards_per_decision: Histogram::new(),
            full_sweeps: Counter::new(),
        }
    }

    /// Registers every series in `registry`: the aggregate counters and
    /// histograms under fixed `oracle_shard_*` names, plus one contention
    /// counter per shard (`oracle_shard_<i>_contention_total`).
    pub fn register_in(&self, registry: &Registry) {
        registry.register_counter("oracle_shard_contention_total", &self.contention);
        registry.register_counter("oracle_shard_full_sweeps_total", &self.full_sweeps);
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

    /// Decisions that swept all shards (§5.2 range fallback).
    pub fn full_sweeps(&self) -> u64 {
        self.full_sweeps.get()
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
///
/// let ts = Arc::new(SharedTimestampSource::new());
/// let o = ConcurrentOracle::unbounded(IsolationLevel::WriteSnapshot, 16, ts);
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
    /// When false, the decision path skips clock reads and histogram
    /// records, leaving only the plain activity counters.
    obs_enabled: bool,
    /// Flight recorder for per-row conflict-check verdicts (the embedder
    /// records the coarser lifecycle events itself).
    journal: Option<Journal>,
}

impl ConcurrentOracle {
    /// Creates an unbounded concurrent oracle (Algorithm 1 or 2 by `level`)
    /// with `shards` `lastCommit` shards (rounded up to a power of two),
    /// drawing timestamps from the embedder's shared counter.
    pub fn unbounded(level: IsolationLevel, shards: usize, ts: Arc<SharedTimestampSource>) -> Self {
        Self::build(level, ShardedLastCommit::unbounded(shards), ts)
    }

    /// Creates a bounded (Algorithm 3) concurrent oracle whose `lastCommit`
    /// shards together retain ≈`capacity` rows, with per-shard `T_max`.
    pub fn bounded(
        level: IsolationLevel,
        shards: usize,
        capacity: usize,
        ts: Arc<SharedTimestampSource>,
    ) -> Self {
        Self::build(level, ShardedLastCommit::bounded(shards, capacity), ts)
    }

    fn build(
        level: IsolationLevel,
        last_commit: ShardedLastCommit,
        ts: Arc<SharedTimestampSource>,
    ) -> Self {
        let shards = last_commit.shard_count();
        ConcurrentOracle {
            level,
            ts,
            last_commit,
            counters: OracleCounters::default(),
            obs: ShardObs::new(shards),
            obs_enabled: true,
            journal: None,
        }
    }

    /// Enables or disables the decision-path observability (clock reads and
    /// histogram records; the activity counters always run).
    #[must_use]
    pub fn with_obs_enabled(mut self, enabled: bool) -> Self {
        self.obs_enabled = enabled;
        self
    }

    /// Attaches a flight recorder: every row a [`DecisionGuard::check`]
    /// probes records a [`EventData::CheckRow`] verdict, carrying the
    /// culprit's commit timestamp when the row conflicted.
    #[must_use]
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// The attached flight recorder, if any.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
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
            Ok(()) => CommitOutcome::Committed(guard.commit_unchecked(&req)),
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
    /// The shard set is the union of the checked rows' shards (writes under
    /// SI, reads under WSI) and the written rows' shards. A request carrying
    /// §5.2 read ranges under WSI locks **all** shards, in order. Because
    /// every acquirer sorts its set the same way, lock acquisition is
    /// deadlock-free.
    #[inline]
    pub fn lock_for(&self, req: &CommitRequest) -> DecisionGuard<'_> {
        if self.level == IsolationLevel::WriteSnapshot && !req.read_ranges.is_empty() {
            return self.lock_sweep();
        }
        // The shard set, built without touching the heap in the common case:
        // a typical OLTP request maps to a handful of shards, so a linear
        // scan over a fixed array beats allocating, sorting, and
        // deduplicating a `Vec` — the decision path's fixed cost is what the
        // single-thread parity criterion measures. This pass already hashes
        // every request row, so it also records each row's guard slot; the
        // check and record loops then never hash or scan again.
        let check_rows = self.level.checked_rows(req);
        if check_rows.len() + req.write_rows.len() > INLINE_ROWS {
            return self.lock_spilled_for(req);
        }
        let mut ids = [0usize; INLINE_SHARDS];
        let mut len = 0usize;
        let mut row_slots = [0u8; INLINE_ROWS];
        for (k, &row) in check_rows.iter().chain(req.write_rows.iter()).enumerate() {
            let sid = self.last_commit.shard_of(row);
            let slot = match ids[..len].iter().position(|&id| id == sid) {
                Some(slot) => slot,
                None => {
                    if len == INLINE_SHARDS {
                        // Rare: the request spans more distinct shards than
                        // the inline set holds; redo the set on the heap.
                        return self.lock_spilled_for(req);
                    }
                    ids[len] = sid;
                    len += 1;
                    len - 1
                }
            };
            row_slots[k] = slot as u8;
        }
        let began = self.obs_enabled.then(Instant::now);
        // Slots are in first-appearance order; impose the canonical ascending
        // shard order on acquisition via a sorted permutation of the slots.
        let mut order: [u8; INLINE_SHARDS] = [0, 1, 2, 3];
        order[..len].sort_unstable_by_key(|&slot| ids[slot as usize]);
        let mut guards: [Option<MutexGuard<'_, Table>>; INLINE_SHARDS] = [None, None, None, None];
        for &slot in &order[..len] {
            guards[slot as usize] = Some(self.lock_shard(ids[slot as usize]));
        }
        if let Some(began) = began {
            self.obs
                .lock_wait_us
                .record(began.elapsed().as_micros() as u64);
            self.obs.shards_per_decision.record(len as u64);
        }
        DecisionGuard {
            oracle: self,
            set: GuardSet::Inline {
                len,
                ids,
                guards,
                row_slots,
            },
        }
    }

    /// The §5.2 all-shard sweep: a request carrying read ranges locks every
    /// shard, in order.
    #[cold]
    fn lock_sweep(&self) -> DecisionGuard<'_> {
        self.obs.full_sweeps.inc();
        self.lock_spilled((0..self.last_commit.shard_count()).collect())
    }

    /// Heap fallback for requests spanning more than [`INLINE_SHARDS`]
    /// distinct shards or carrying more than [`INLINE_ROWS`] rows: rebuild
    /// the whole shard set on the heap.
    #[cold]
    fn lock_spilled_for(&self, req: &CommitRequest) -> DecisionGuard<'_> {
        let check_rows = self.level.checked_rows(req);
        let mut ids: Vec<usize> = check_rows
            .iter()
            .chain(req.write_rows.iter())
            .map(|&row| self.last_commit.shard_of(row))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        self.lock_spilled(ids)
    }

    /// Locks an already-sorted, deduplicated shard set on the heap.
    fn lock_spilled(&self, ids: Vec<usize>) -> DecisionGuard<'_> {
        let began = self.obs_enabled.then(Instant::now);
        let guards: Vec<MutexGuard<'_, Table>> = ids.iter().map(|&i| self.lock_shard(i)).collect();
        if let Some(began) = began {
            self.obs
                .lock_wait_us
                .record(began.elapsed().as_micros() as u64);
            self.obs.shards_per_decision.record(ids.len() as u64);
        }
        DecisionGuard {
            oracle: self,
            set: GuardSet::Heap { ids, guards },
        }
    }

    /// Acquires one shard lock, counting the acquisition as contended when
    /// the uncontended fast path fails.
    #[inline]
    fn lock_shard(&self, i: usize) -> MutexGuard<'_, Table> {
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
    /// failed; semantics as
    /// [`StatusOracleCore::abort_after_decide`](crate::StatusOracleCore::abort_after_decide)
    /// — the recorded `lastCommit` rows stay (they can only cause spurious
    /// aborts, never admit a conflicting commit). The transaction's fate is
    /// the embedder's to publish: this oracle keeps no commit table.
    pub fn abort_after_decide(&self) {
        self.counters.commits_overturned.inc();
    }

    /// Global `T_max` (maximum over shards; [`Timestamp::ZERO`] when
    /// unbounded or nothing has been evicted).
    pub fn t_max(&self) -> Timestamp {
        self.last_commit.t_max()
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
            let evicted = self
                .last_commit
                .shard(self.last_commit.shard_of(row))
                .lock()
                .record(row, commit_ts);
            self.counters.evictions.add(evicted as u64);
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
    set: GuardSet<'a>,
}

/// How many shard guards a decision holds inline before spilling to the
/// heap. Typical OLTP requests touch at most a handful of shards; keeping
/// the inline set small keeps the guard cheap to build and move, and the
/// rare wider request just pays one allocation.
const INLINE_SHARDS: usize = 4;

/// How many request rows the inline guard pre-resolves to guard slots.
/// Requests with more rows than this use the heap path.
const INLINE_ROWS: usize = 8;

/// Storage for one decision's locked shards, either inline (common case) or
/// heap-spilled (sweeps, wide requests).
///
/// The inline variant additionally remembers, for every row of the request
/// the guard was built for (checked rows then written rows, in request
/// order), which guard slot holds that row's shard — so the check and
/// record loops index straight into `guards` without re-hashing anything.
enum GuardSet<'a> {
    Inline {
        len: usize,
        /// Shard id per slot, in first-appearance order (NOT sorted; the
        /// canonical ascending order is imposed only while acquiring).
        ids: [usize; INLINE_SHARDS],
        guards: [Option<MutexGuard<'a, Table>>; INLINE_SHARDS],
        /// Guard slot of each request row: checked rows first, then written
        /// rows, in request order.
        row_slots: [u8; INLINE_ROWS],
    },
    Heap {
        /// Locked shard indices, ascending.
        ids: Vec<usize>,
        /// Guards for `ids`, same order.
        guards: Vec<MutexGuard<'a, Table>>,
    },
}

impl GuardSet<'_> {
    /// Locked shard indices (first-appearance order for the inline variant,
    /// ascending for the heap variant).
    #[inline]
    fn ids(&self) -> &[usize] {
        match self {
            GuardSet::Inline { len, ids, .. } => &ids[..*len],
            GuardSet::Heap { ids, .. } => ids,
        }
    }

    /// The locked table at position `idx` (an index into [`GuardSet::ids`]).
    #[inline]
    fn table(&self, idx: usize) -> &Table {
        match self {
            GuardSet::Inline { guards, .. } => guards[idx].as_ref().expect("guard slot is filled"),
            GuardSet::Heap { guards, .. } => &guards[idx],
        }
    }

    /// Mutable access to the locked table at position `idx`.
    #[inline]
    fn table_mut(&mut self, idx: usize) -> &mut Table {
        match self {
            GuardSet::Inline { guards, .. } => guards[idx].as_mut().expect("guard slot is filled"),
            GuardSet::Heap { guards, .. } => &mut guards[idx],
        }
    }
}

impl DecisionGuard<'_> {
    /// Runs the conflict check of Algorithms 1–3 against the locked shards
    /// without mutating state; same predicates, same outcome as
    /// [`StatusOracleCore::check`](crate::StatusOracleCore::check).
    #[inline]
    pub fn check(&self, req: &CommitRequest) -> Result<(), AbortReason> {
        if req.is_read_only() {
            return Ok(());
        }
        let level = self.oracle.level;
        let check_rows = level.checked_rows(req);
        // Counters are batched into one atomic add per loop (including the
        // early-abort exits) so the observable counts stay identical to
        // `StatusOracleCore`'s per-row increments at a fraction of the
        // traffic.
        let mut checked = 0u64;
        let journal = self.oracle.journal.as_ref();
        let record_verdict = |row: RowId, verdict: &Result<(), AbortReason>| {
            if let Some(journal) = journal {
                journal.record(
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
            }
        };
        if let GuardSet::Inline {
            guards, row_slots, ..
        } = &self.set
        {
            // The fast path: `lock_for` already resolved every row to its
            // guard slot (checked rows occupy the leading slots), so this
            // loop does no hashing and no shard-set scan. The mask is free
            // (slots are < INLINE_SHARDS by construction) and lets the
            // compiler drop the bounds check.
            for (k, &row) in check_rows.iter().enumerate() {
                checked += 1;
                let table = guards[row_slots[k] as usize & (INLINE_SHARDS - 1)]
                    .as_ref()
                    .expect("row's slot is locked");
                let verdict = check_row_probe(level, row, table.probe(row), req.start_ts);
                record_verdict(row, &verdict);
                if let Err(reason) = verdict {
                    self.oracle.counters.rows_checked.add(checked);
                    return Err(reason);
                }
            }
        } else {
            for &row in check_rows {
                checked += 1;
                let probe = self.set.table(self.table_index(row)).probe(row);
                let verdict = check_row_probe(level, row, probe, req.start_ts);
                record_verdict(row, &verdict);
                if let Err(reason) = verdict {
                    self.oracle.counters.rows_checked.add(checked);
                    return Err(reason);
                }
            }
        }
        if checked > 0 {
            self.oracle.counters.rows_checked.add(checked);
        }
        if level == IsolationLevel::WriteSnapshot && !req.read_ranges.is_empty() {
            let mut ranges = 0u64;
            for &range in &req.read_ranges {
                ranges += 1;
                if let Err(reason) =
                    check_range_probe(range, self.probe_range_all(range), req.start_ts)
                {
                    self.oracle.counters.ranges_checked.add(ranges);
                    return Err(reason);
                }
            }
            self.oracle.counters.ranges_checked.add(ranges);
        }
        Ok(())
    }

    /// Commits a request that [`DecisionGuard::check`] already admitted:
    /// issues the commit timestamp from the shared counter (while the shards
    /// are still held) and completes the bookkeeping.
    #[inline]
    pub fn commit_unchecked(&mut self, req: &CommitRequest) -> Timestamp {
        let commit_ts = self.oracle.ts.next();
        self.finish_commit_at(req, commit_ts);
        commit_ts
    }

    /// Registers a checked commit whose commit timestamp the embedder
    /// already issued — necessarily from the same shared counter, and
    /// necessarily while this guard was continuously held, or per-row
    /// timestamp monotonicity breaks.
    #[inline]
    pub fn finish_commit_at(&mut self, req: &CommitRequest, commit_ts: Timestamp) {
        let mut evictions = 0u64;
        if let GuardSet::Inline {
            guards, row_slots, ..
        } = &mut self.set
        {
            // Written rows' slots follow the checked rows' in `row_slots`
            // (both recorded by `lock_for` from this same request).
            let offset = self.oracle.level.checked_rows(req).len();
            for (k, &row) in req.write_rows.iter().enumerate() {
                let table = guards[row_slots[offset + k] as usize & (INLINE_SHARDS - 1)]
                    .as_mut()
                    .expect("row's slot is locked");
                evictions += table.record(row, commit_ts) as u64;
            }
        } else {
            for &row in &req.write_rows {
                let idx = self.table_index(row);
                evictions += self.set.table_mut(idx).record(row, commit_ts) as u64;
            }
        }
        if !req.write_rows.is_empty() {
            self.oracle
                .counters
                .rows_recorded
                .add(req.write_rows.len() as u64);
        }
        if evictions > 0 {
            self.oracle.counters.evictions.add(evictions);
        }
        self.oracle.counters.commits.inc();
    }

    /// Registers a conflict abort for the request this guard was taken for;
    /// convenience forwarding to [`ConcurrentOracle::abort_checked`] so
    /// embedders can record the abort before releasing the shards.
    pub fn abort_checked(&self, reason: AbortReason) {
        self.oracle.abort_checked(reason);
    }

    /// Position in the locked set of the shard holding `row`.
    #[inline]
    fn table_index(&self, row: RowId) -> usize {
        match &self.set {
            GuardSet::Inline { len, ids, .. } => {
                if *len == 1 {
                    // Single-shard decisions skip the hash entirely.
                    return 0;
                }
                let sid = self.oracle.last_commit.shard_of(row);
                ids[..*len]
                    .iter()
                    .position(|&id| id == sid)
                    .expect("row's shard must be in the locked set")
            }
            GuardSet::Heap { ids, .. } => {
                let sid = self.oracle.last_commit.shard_of(row);
                ids.binary_search(&sid)
                    .expect("row's shard must be in the locked set")
            }
        }
    }

    /// Probes a §5.2 range across every shard (all of them are locked in
    /// sweep mode), combining the per-shard answers pessimistically.
    fn probe_range_all(&self, range: RowRange) -> Probe {
        let n = self.set.ids().len();
        debug_assert_eq!(
            n,
            self.oracle.last_commit.shard_count(),
            "range probes require the all-shard sweep"
        );
        let mut acc = Probe::NeverWritten;
        for idx in 0..n {
            acc = combine_probes(acc, self.set.table(idx).probe_range(range));
        }
        acc
    }
}

impl std::fmt::Debug for DecisionGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecisionGuard")
            .field("shards", &self.set.ids())
            .finish_non_exhaustive()
    }
}

/// Combines two shard-local probe answers into the answer a single table
/// covering both shards would have given: resident timestamps take the
/// maximum, and any eviction uncertainty poisons the result pessimistically
/// (mirroring [`BoundedLastCommit`]'s own `probe_range`).
fn combine_probes(a: Probe, b: Probe) -> Probe {
    match (a, b) {
        (Probe::NeverWritten, x) | (x, Probe::NeverWritten) => x,
        (Probe::Resident(x), Probe::Resident(y)) => Probe::Resident(x.max(y)),
        (Probe::MaybeEvicted { t_max }, Probe::Resident(x))
        | (Probe::Resident(x), Probe::MaybeEvicted { t_max }) => Probe::MaybeEvicted {
            t_max: t_max.max(x),
        },
        (Probe::MaybeEvicted { t_max: x }, Probe::MaybeEvicted { t_max: y }) => {
            Probe::MaybeEvicted { t_max: x.max(y) }
        }
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
        ConcurrentOracle::unbounded(level, shards, Arc::new(SharedTimestampSource::new()))
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
    fn range_probe_sweeps_all_shards() {
        let o = oracle(IsolationLevel::WriteSnapshot, 8);
        let scanner = o.begin();
        let writer = o.begin();
        assert!(o
            .commit(CommitRequest::new(writer, vec![], rows(&[500])))
            .is_committed());
        let req = CommitRequest::new(scanner, vec![], rows(&[2000]))
            .with_read_ranges(vec![RowRange::new(0, 1000)]);
        assert!(o.commit(req).is_aborted());
        assert_eq!(o.shard_obs().full_sweeps(), 1);
    }

    #[test]
    fn bounded_tracks_per_shard_t_max() {
        let ts = Arc::new(SharedTimestampSource::new());
        let o = ConcurrentOracle::bounded(IsolationLevel::WriteSnapshot, 4, 4, ts);
        let old = o.begin();
        for i in 0..64u64 {
            let t = o.begin();
            assert!(o
                .commit(CommitRequest::new(t, vec![], rows(&[i])))
                .is_committed());
        }
        assert!(o.t_max() > Timestamp::ZERO);
        // The old transaction probes a row that may have been evicted; the
        // per-shard T_max must force the pessimistic abort.
        let out = o.commit(CommitRequest::new(old, rows(&[999]), rows(&[1000])));
        assert!(matches!(
            out.abort_reason(),
            Some(AbortReason::TmaxExceeded { .. })
        ));
    }

    #[test]
    fn overturn_and_client_abort_bookkeeping() {
        let o = oracle(IsolationLevel::WriteSnapshot, 4);
        let t = o.begin();
        let req = CommitRequest::new(t, vec![], rows(&[1]));
        let mut g = o.lock_for(&req);
        assert!(g.check(&req).is_ok());
        let _decided = g.commit_unchecked(&req);
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
        )
        .with_journal(journal.clone());
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
        // 8 threads over overlapping shard sets; sorted acquisition must
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
