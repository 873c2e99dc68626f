//! The group-commit pipeline: WAL persistence decoupled from the commit
//! critical section.
//!
//! Appending and flushing the WAL inside the commit critical section would
//! serialize every commit behind a replication round-trip — the coupling
//! the paper's BookKeeper deployment avoids (§6.3 keeps the critical section
//! to "a few memory operations"; Appendix A pipelines the log writes). This
//! module keeps the two apart for the embedded store:
//!
//! * The commit decision scope — the `Db`'s decision lock — covers only
//!   conflict detection and commit-timestamp assignment. Decided commits are *queued* here in
//!   global commit-timestamp order: the timestamp is issued inside the
//!   pipeline's own lock, which also orders the queue, so commit records
//!   reach the log in commit-timestamp order.
//! * A **leader** — the first waiter to find the ledger free — takes the
//!   ledger out of the pipeline, drains the queue, appends and flushes the
//!   batch entirely outside every lock, flips the commits visible by setting
//!   each committer's fate in its registry entry, then posts the outcomes
//!   and hands the ledger back: append, flush, flip, nothing else — it is
//!   the round every gated `begin` and every other committer waits on.
//!   Waiters whose commits rode along simply pick up their outcome (classic
//!   group commit).
//! * A commit is **published** — its registry entry set to committed — and
//!   acknowledged only after its batch reached the write quorum. A flush
//!   failure overturns the decision (counted as
//!   [`OracleCounters::commits_overturned`]) before any reader could have
//!   observed it, appends compensating abort records, and surfaces
//!   [`WalError`] to the owner. The `lastCommit` words the decision wrote
//!   stay: a stale word can only abort a later reader of the key, never
//!   admit a conflicting commit.
//! * The **owner** of a commit, once it holds its `Ok` outcome, stamps the
//!   commit timestamp onto its own versions — after the round, outside it,
//!   and before it deregisters, exactly as a commit without a WAL does.
//!   Nobody waits for the stamp: until it lands, readers resolve the
//!   version through the owner's registry entry.
//! * A **checkpoint** ([`CommitPipeline::checkpoint`]) is one more record
//!   of a round. The pipeline keeps a [`LogBook`] of the log: the census of
//!   everything appended and, at the end of every successful flush, a
//!   *mark* — the sequence number a cut may fall at, the newest commit
//!   timestamp before it, and the census before it. A checkpoint at
//!   snapshot `S` cuts at the last mark whose commits are all below `S`;
//!   the round that carries it truncates the ledger there once its flush
//!   reached quorum. A failed flush abandons the truncation and leaves the
//!   log whole.
//!
//! Publishing after the critical section opens one hazard: a transaction
//! beginning *after* a commit was decided must observe it (snapshots must be
//! stable). [`CommitPipeline::push_sync`] therefore issues the commit
//! timestamp inside the pipeline's own lock, and
//! [`CommitPipeline::wait_snapshot_stable`] makes a new snapshot wait until
//! every decided-but-unpublished commit below it is resolved. The fast path
//! of that gate is a single atomic load, so begins stay lock-free whenever
//! no commit is in flight.
//!
//! # Waiting
//!
//! Everything a thread waits for here — an outcome, the ledger coming back,
//! the gate opening — changes at exactly one point: the end of a flush
//! round, under the pipeline lock. A round without a slowed flush lasts
//! about a microsecond, a futex sleep and wake several times that, so
//! [`CommitPipeline::wait_round`] — the one way to wait — spins a bounded
//! while on the round generation with no lock held and parks on the
//! condition variable only if the round outlasts the spin. The generation is
//! read under the lock before the spin and re-checked under the lock before
//! parking, and it is bumped under the same lock, so a waiter either sees
//! the bump or is counted in `parked` by the time the leader looks: no
//! wake-up is lost, and the leader pays the wake-up syscall only when
//! somebody sleeps.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex, MutexGuard};
use wsi_core::{ssi::SsiWindow, OracleCounters, SharedTimestampSource, Timestamp, TxnStatus};
use wsi_obs::{EventData, Journal};
use wsi_wal::{Ledger, SeqNo, WalError};

use crate::db::WriteBatch;
use crate::obs::{StoreObs, WaitCounters};
use crate::record::{self, WalCensus};
use crate::registry::ActiveTxnRegistry;

/// Iterations a waiter spins on the round generation before it parks. Not a
/// tuning knob, only a bound with slack on both sides: at ≈ 15 ns a turn it
/// is ≈ 15 µs — several zero-delay flush rounds as a waiter sees them
/// (≈ 3–4 µs from decision to generation bump), and about half of the futex
/// sleep + wake it avoids (≈ 27 µs on the measuring host; EXPERIMENTS.md has
/// the sweep). A slowed flush outlasts it and the waiter parks.
const SPIN_BEFORE_PARK: u32 = 1_000;

/// Shared references a leader needs to publish (or overturn) commit
/// outcomes after a flush. Assembled fresh per call by the `Db` layer.
pub(crate) struct PublishCtx<'a> {
    pub(crate) registry: &'a ActiveTxnRegistry,
    pub(crate) counters: &'a OracleCounters,
    /// The SSI window, under that level: an overturned commit's entry is
    /// taken back out of it.
    pub(crate) window: Option<&'a Mutex<SsiWindow>>,
}

/// A decided commit awaiting persistence.
struct PendingCommit {
    start_ts: Timestamp,
    commit_ts: Timestamp,
    batch: WriteBatch,
}

/// An encoded checkpoint awaiting append, and the sequence number its
/// round truncates the ledger before.
pub(crate) struct PendingCheckpoint {
    pub(crate) payload: Bytes,
    pub(crate) cut: SeqNo,
}

/// Everything a leader flushes in one round. Taking the `Ledger` *out* of
/// the pipeline gives the leader exclusive ownership, so all encoding and
/// the (possibly slow, replicated) flush happen with no lock held.
struct FlushWork {
    ledger: Ledger,
    commits: Vec<PendingCommit>,
    aborts: Vec<Timestamp>,
    reservations: Vec<Timestamp>,
    checkpoint: Option<PendingCheckpoint>,
}

/// A point the log may be cut at: the end of a successful flush.
#[derive(Debug, Clone, Copy)]
struct Mark {
    /// Sequence number one past the flush's last record.
    end: SeqNo,
    /// The newest commit record before `end`.
    last_commit: Timestamp,
    /// Census of every record before `end`.
    census: WalCensus,
}

/// What the pipeline knows of its log, for checkpoints. Changed only at the
/// end of a round (or a recovery), under the pipeline lock.
#[derive(Debug, Default)]
pub(crate) struct LogBook {
    /// Census of every record appended — those a checkpoint stands in for
    /// included.
    census: WalCensus,
    /// The newest commit record appended.
    last_commit: Timestamp,
    /// Flush ends above the ledger's base, oldest first.
    marks: VecDeque<Mark>,
    /// The ledger's truncation base.
    base: SeqNo,
    /// Payload bytes appended since the newest checkpoint, checkpoints
    /// excluded.
    logged: u64,
    /// Payload bytes of the newest checkpoint (0 before the first).
    checkpoint_bytes: u64,
}

impl LogBook {
    /// The book of a recovered log: its census and newest commit, the
    /// size of its checkpoint and of the records logged after it, and —
    /// when the log is entirely durable — a mark at its end.
    pub(crate) fn recovered(
        ledger: &Ledger,
        census: WalCensus,
        last_commit: Timestamp,
        checkpoint_bytes: u64,
        logged: u64,
    ) -> LogBook {
        let end = ledger.durable_upto().map_or(ledger.base(), |d| d + 1);
        LogBook {
            census,
            last_commit,
            marks: (ledger.pending_records() == 0)
                .then_some(Mark {
                    end,
                    last_commit,
                    census,
                })
                .into_iter()
                .collect(),
            base: ledger.base(),
            logged,
            checkpoint_bytes,
        }
    }
}

/// Where a checkpoint at some snapshot cuts the log, and the census of
/// what it stands in for.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cut {
    pub(crate) seq: SeqNo,
    pub(crate) census: WalCensus,
}

struct PipeInner {
    /// `None` while a leader owns the ledger for a flush round.
    ledger: Option<Ledger>,
    /// Decided commits not yet picked up by a leader, in commit-ts order.
    queue: VecDeque<PendingCommit>,
    /// The oldest commit timestamp the leader is flushing, for the duration
    /// of its round — all the begin gate needs of the round: its commits
    /// are in commit-ts order and all older than the queue's.
    inflight: Option<Timestamp>,
    /// Conflict-abort records awaiting append (never flush-critical).
    aborts: Vec<Timestamp>,
    /// Timestamp-reservation bounds awaiting append (§6.2).
    reservations: Vec<Timestamp>,
    /// A checkpoint awaiting append.
    checkpoint: Option<PendingCheckpoint>,
    /// The log's census, flush marks and sizes.
    book: LogBook,
    /// Outcomes of flushed commits, keyed by raw commit timestamp;
    /// each owner removes its own entry.
    outcomes: HashMap<u64, Option<WalError>>,
    /// Waiters asleep on `cv`, counted by [`CommitPipeline::wait_round`];
    /// a round's end wakes them only if there are any.
    parked: usize,
}

/// The commit pipeline for one database. Present iff the database has a
/// WAL.
pub(crate) struct CommitPipeline {
    inner: Mutex<PipeInner>,
    cv: Condvar,
    /// The round generation: bumped, under `inner`'s lock, at the end of
    /// every flush round — the only point at which anything a waiter waits
    /// for changes. Waiters spin on it without the lock.
    round: AtomicU64,
    /// Count of decided-but-unresolved commits. The begin gate's
    /// lock-free fast path: incremented (inside the pipeline's critical
    /// section) *before* the commit timestamp is issued and decremented only
    /// after the outcome is published, both `SeqCst` — so a begin that
    /// issues start `S` and then loads `0` is guaranteed no unresolved
    /// commit with `commit_ts < S` exists.
    sync_pending: AtomicU64,
    /// Leader/follower, group-size and wait metrics, and the journal.
    obs: Arc<StoreObs>,
}

impl CommitPipeline {
    pub(crate) fn new(ledger: Ledger, obs: Arc<StoreObs>) -> Self {
        CommitPipeline {
            inner: Mutex::new(PipeInner {
                ledger: Some(ledger),
                queue: VecDeque::new(),
                inflight: None,
                aborts: Vec::new(),
                reservations: Vec::new(),
                checkpoint: None,
                book: LogBook::default(),
                outcomes: HashMap::new(),
                parked: 0,
            }),
            cv: Condvar::new(),
            round: AtomicU64::new(0),
            sync_pending: AtomicU64::new(0),
            obs,
        }
    }

    /// The flight-recorder journal.
    fn journal(&self) -> &Journal {
        &self.obs.journal
    }

    /// Issues the commit timestamp and enqueues a decided commit, as one
    /// atomic step with respect to the begin gate.
    ///
    /// Issuing the timestamp *inside* the pipeline's critical section is
    /// what makes [`CommitPipeline::wait_snapshot_stable`] sound: a begin
    /// that observes `S > commit_ts` must have entered this critical section
    /// after the commit was queued, so the gate cannot miss it. The same
    /// lock orders the queue, so commit records reach the log in
    /// commit-timestamp order — the invariant [`crate::Db::recover`]
    /// replays under. The caller
    /// holds the decision lock across this call and records the returned
    /// timestamp in its key entries; the pipeline lock nests *inside* that scope, never the
    /// reverse.
    pub(crate) fn push_sync(
        &self,
        ts: &SharedTimestampSource,
        start_ts: Timestamp,
        batch: WriteBatch,
    ) -> Timestamp {
        let mut inner = self.inner.lock();
        self.sync_pending.fetch_add(1, Ordering::SeqCst);
        let commit_ts = ts.next();
        inner.queue.push_back(PendingCommit {
            start_ts,
            commit_ts,
            batch,
        });
        commit_ts
    }

    /// Enqueues a conflict-abort record. Fire-and-forget: an unrecovered
    /// abort record leaves the transaction pending, which is equally
    /// invisible.
    pub(crate) fn push_abort(&self, start_ts: Timestamp) {
        self.inner.lock().aborts.push(start_ts);
    }

    /// Enqueues a timestamp-reservation record (§6.2).
    pub(crate) fn push_reservation(&self, upto: Timestamp) {
        self.inner.lock().reservations.push(upto);
    }

    /// Waits, starting from the locked state `inner`, for the flush round in
    /// progress to end, and returns the lock re-taken. The caller found its
    /// condition false under `inner` and re-evaluates it on return (a park
    /// can also end spuriously).
    ///
    /// Spin-then-park: the generation read here, still under the lock, is
    /// the one the caller's condition was evaluated against. The spin holds
    /// no lock. Parking happens only if the generation is unchanged once the
    /// lock is held again — and since a round's end bumps it under that
    /// lock, the round that would satisfy the caller has then not ended, and
    /// will find this waiter counted in `parked` when it does.
    fn wait_round<'a>(
        &'a self,
        inner: MutexGuard<'a, PipeInner>,
        counters: Option<&WaitCounters>,
    ) -> MutexGuard<'a, PipeInner> {
        let round = self.round.load(Ordering::Relaxed);
        drop(inner);
        if let Some(counters) = counters {
            counters.waits.inc();
        }
        for _ in 0..SPIN_BEFORE_PARK {
            if self.round.load(Ordering::Acquire) != round {
                break;
            }
            std::hint::spin_loop();
        }
        let mut inner = self.inner.lock();
        if self.round.load(Ordering::Relaxed) == round {
            if let Some(counters) = counters {
                counters.parks.inc();
            }
            inner.parked += 1;
            self.cv.wait(&mut inner);
            inner.parked -= 1;
        }
        inner
    }

    /// Waits out any flush round in progress: returns the lock with the
    /// ledger present.
    fn lock_with_ledger(&self) -> MutexGuard<'_, PipeInner> {
        let mut inner = self.inner.lock();
        while inner.ledger.is_none() {
            inner = self.wait_round(inner, None);
        }
        inner
    }

    /// The begin gate: returns once no decided-but-unpublished commit with
    /// `commit_ts < start_ts` remains. Lock-free whenever no commit is in
    /// flight (the common case); see the field docs on
    /// `sync_pending` for the ordering argument.
    pub(crate) fn wait_snapshot_stable(&self, start_ts: Timestamp) {
        if self.sync_pending.load(Ordering::SeqCst) == 0 {
            return;
        }
        let obs = &self.obs;
        let mut waiting_since = None;
        let mut inner = self.inner.lock();
        loop {
            let oldest = inner
                .inflight
                .or_else(|| inner.queue.front().map(|p| p.commit_ts));
            match oldest {
                Some(c) if c < start_ts => {
                    // The clock is read only by a begin that really waits.
                    waiting_since.get_or_insert_with(Instant::now);
                    inner = self.wait_round(inner, Some(&obs.gate_wait));
                }
                _ => break,
            }
        }
        drop(inner);
        if let Some(since) = waiting_since {
            obs.begin_gate_wait_us
                .record(since.elapsed().as_micros() as u64);
        }
    }

    /// Waits for the durability outcome of a commit queued via
    /// [`CommitPipeline::push_sync`], becoming the group-commit leader if
    /// the ledger is free. On success the commit (and every commit that rode
    /// the same batch) is published; on quorum loss it is overturned and the
    /// error returned — the owner rolls back its versions.
    pub(crate) fn sync_commit(
        &self,
        commit_ts: Timestamp,
        ctx: &PublishCtx<'_>,
    ) -> Result<(), WalError> {
        let obs = &self.obs;
        let mut led = false;
        let mut inner = self.inner.lock();
        loop {
            if let Some(outcome) = inner.outcomes.remove(&commit_ts.raw()) {
                if !led {
                    // Our commit rode another thread's flush round — the
                    // group-commit win the paper's batching factor measures.
                    obs.follower_commits.inc();
                }
                return outcome.map_or(Ok(()), Err);
            }
            if inner.ledger.is_some() {
                // No outcome and a free ledger: our commit is still queued,
                // and this round resolves it.
                let work = Self::take_work(&mut inner);
                drop(inner);
                led = true;
                self.sync_flush_round(work, ctx);
                inner = self.inner.lock();
            } else {
                inner = self.wait_round(inner, Some(&obs.commit_wait));
            }
        }
    }

    /// Whether a checkpoint is due: the log written since the newest one
    /// is at least as large as that checkpoint. The `Db` asks every tick
    /// (256 write commits) and at every `gc`, so checkpoint bytes never
    /// exceed logged bytes, and the retained log stays under about twice
    /// the live state plus one tick interval — a bound with no constant.
    ///
    /// When none is due, every mark but the newest goes: the next
    /// checkpoint's snapshot is drawn later, above every commit before it,
    /// so an older mark can never be its cut. (A checkpoint whose snapshot
    /// is already drawn then finds no mark below it, and skips.)
    pub(crate) fn checkpoint_due(&self) -> bool {
        let mut inner = self.inner.lock();
        let book = &mut inner.book;
        let due = book.logged > 0 && book.logged >= book.checkpoint_bytes;
        if !due {
            let stale = book.marks.len().saturating_sub(1);
            book.marks.drain(..stale);
        }
        due
    }

    /// Where a checkpoint at the gate-stable snapshot `snapshot` cuts the
    /// log: the end of the last flush whose commits are all below it, so no
    /// commit at or above it is cut off. `None` when that is no further
    /// than the log's base. Every commit below `snapshot` is resolved, so
    /// later flushes carry only commits above it. The marks before the cut
    /// go: a later snapshot cuts no earlier.
    pub(crate) fn cut_for(&self, snapshot: Timestamp) -> Option<Cut> {
        let mut inner = self.inner.lock();
        let book = &mut inner.book;
        let at = book.marks.iter().rposition(|m| m.last_commit < snapshot)?;
        book.marks.drain(..at);
        let mark = book.marks[0];
        (mark.end > book.base).then_some(Cut {
            seq: mark.end,
            census: mark.census,
        })
    }

    /// Appends `checkpoint` in the next round and flushes it: that round
    /// truncates the ledger before its cut once the flush reached quorum.
    /// A checkpoint already waiting is kept, and this one dropped.
    ///
    /// # Errors
    ///
    /// The round's quorum loss: the checkpoint is abandoned (it may still
    /// reach the log with a later flush, valid but untruncated).
    pub(crate) fn checkpoint(
        &self,
        checkpoint: PendingCheckpoint,
        ctx: &PublishCtx<'_>,
    ) -> Result<(), WalError> {
        self.inner.lock().checkpoint.get_or_insert(checkpoint);
        self.flush_all(ctx)
    }

    /// Drains and force-flushes everything queued or buffered; the explicit
    /// `flush_wal` tail.
    pub(crate) fn flush_all(&self, ctx: &PublishCtx<'_>) -> Result<(), WalError> {
        let mut inner = self.lock_with_ledger();
        let nothing_queued = inner.queue.is_empty()
            && inner.aborts.is_empty()
            && inner.reservations.is_empty()
            && inner.checkpoint.is_none();
        let ledger = inner.ledger.as_ref().expect("locked with the ledger");
        if nothing_queued && ledger.pending_records() == 0 {
            return Ok(());
        }
        let work = Self::take_work(&mut inner);
        drop(inner);
        self.sync_flush_round(work, ctx).map_or(Ok(()), Err)
    }

    /// The flush marks the book holds.
    #[cfg(test)]
    pub(crate) fn marks(&self) -> usize {
        self.inner.lock().book.marks.len()
    }

    /// A point-in-time clone of the ledger (waits out any flush round in
    /// progress). Records still queued in the pipeline are *not* included —
    /// exactly matching what survives a crash at this instant.
    pub(crate) fn ledger_snapshot(&self) -> Ledger {
        let inner = self.lock_with_ledger();
        inner.ledger.clone().expect("locked with the ledger")
    }

    /// Books the recovered log this pipeline was opened on (recovery-time
    /// only; no flush can be in progress): see [`LogBook::recovered`].
    pub(crate) fn book_recovered(
        &self,
        census: WalCensus,
        last_commit: Timestamp,
        checkpoint_bytes: u64,
        logged: u64,
    ) {
        let inner = &mut *self.inner.lock();
        let ledger = inner.ledger.as_ref().expect("no round during recovery");
        inner.book = LogBook::recovered(ledger, census, last_commit, checkpoint_bytes, logged);
    }

    /// Runs `f` against the live ledger (waits out any flush round in
    /// progress). Failure-injection hook for tests and simulations.
    pub(crate) fn with_ledger_mut(&self, f: impl FnOnce(&mut Ledger)) {
        let mut inner = self.lock_with_ledger();
        f(inner.ledger.as_mut().expect("locked with the ledger"));
    }

    /// Takes exclusive ownership of the ledger plus everything queued.
    /// Caller must have checked `ledger.is_some()`: the ledger is out for
    /// exactly as long as `inflight` is set, so leaders exclude each other
    /// through it.
    fn take_work(inner: &mut PipeInner) -> FlushWork {
        let ledger = inner.ledger.take().expect("leader takes a present ledger");
        debug_assert!(inner.inflight.is_none(), "one round at a time");
        let commits: Vec<PendingCommit> = inner.queue.drain(..).collect();
        inner.inflight = commits.first().map(|c| c.commit_ts);
        FlushWork {
            ledger,
            commits,
            aborts: std::mem::take(&mut inner.aborts),
            reservations: std::mem::take(&mut inner.reservations),
            checkpoint: inner.checkpoint.take(),
        }
    }

    /// One leader round, called with **no** lock held: encode, append and
    /// flush outside all locks; on success flip every commit visible in its
    /// registry entry, in commit order, and truncate behind a checkpoint the
    /// round carried — on quorum loss overturn the commits instead; then,
    /// under the lock, hand the ledger back, post the outcomes, book the
    /// round, bump the round generation and wake whoever parked. Returns
    /// the round's error, if any.
    ///
    /// That is all a round does, because gated begins and every other
    /// committer wait for its end. Stamping the commit timestamp onto the
    /// versions is each owner's job once it has picked up its outcome.
    fn sync_flush_round(&self, work: FlushWork, ctx: &PublishCtx<'_>) -> Option<WalError> {
        let FlushWork {
            mut ledger,
            commits,
            aborts,
            reservations,
            checkpoint,
        } = work;
        self.obs.leader_rounds.inc();
        self.obs.sync_group_size.record(commits.len() as u64);
        let mut logged = 0u64;
        let mut append = |ledger: &mut Ledger, payload: Bytes| {
            logged += payload.len() as u64;
            ledger.append(payload, 0);
        };
        for &upto in &reservations {
            append(&mut ledger, record::encode_ts_reserve(upto));
        }
        for &start_ts in &aborts {
            append(&mut ledger, record::encode_abort(start_ts));
        }
        for c in &commits {
            append(
                &mut ledger,
                record::encode_commit(c.start_ts, c.commit_ts, &c.batch),
            );
        }
        // A checkpoint cut behind the base (a racing one truncated further)
        // would send recovery looking for records that are gone.
        let checkpoint = checkpoint.filter(|c| c.cut >= ledger.base());
        if let Some(c) = &checkpoint {
            ledger.append(c.payload.clone(), 0);
        }
        let records = commits.len() as u64;
        let err = ledger.flush(0).err();
        self.journal().record(
            0,
            EventData::WalFlush {
                records,
                acked: if err.is_none() { records } else { 0 },
            },
        );
        let mut census = WalCensus {
            commits: records,
            aborts: aborts.len() as u64,
            overturned: 0,
        };
        match &err {
            None => {
                // Publish in commit order: the visibility flip. From here the
                // commits are durable *and* observable; the owners' snapshots
                // were gated until now.
                for c in &commits {
                    ctx.registry
                        .settle(c.start_ts, TxnStatus::Committed(c.commit_ts));
                    self.journal().record(
                        c.start_ts.raw(),
                        EventData::Publish {
                            commit_ts: c.commit_ts.raw(),
                        },
                    );
                }
                // The checkpoint is durable: the records before its cut
                // are redundant.
                if let Some(c) = &checkpoint {
                    ledger.truncate_before(c.cut);
                    self.obs.checkpoints.inc();
                }
            }
            Some(_) => {
                // Quorum lost: overturn every decision in this round before
                // any of it becomes visible. The commit records may survive
                // on a minority of bookies, so compensating abort records —
                // appended to the retained buffer — overrule them at
                // recovery. Owners remove their own invisible versions.
                if let Some(window) = ctx.window {
                    let mut window = window.lock();
                    for c in &commits {
                        window.remove(c.commit_ts);
                    }
                }
                for c in &commits {
                    ctx.counters.commits_overturned.inc();
                    ctx.registry.settle(c.start_ts, TxnStatus::Aborted);
                    append(&mut ledger, record::encode_abort(c.start_ts));
                    self.journal().record(
                        c.start_ts.raw(),
                        EventData::Overturn {
                            commit_ts: c.commit_ts.raw(),
                        },
                    );
                }
                census.aborts += records;
                census.overturned = records;
            }
        }
        let end = ledger.durable_upto().map(|d| d + 1);
        let mut inner = self.inner.lock();
        inner.ledger = Some(ledger);
        inner.inflight = None;
        for c in &commits {
            inner.outcomes.insert(c.commit_ts.raw(), err.clone());
        }
        let book = &mut inner.book;
        book.census = book.census.plus(&census);
        if let Some(c) = commits.last() {
            book.last_commit = c.commit_ts;
        }
        book.logged += logged;
        if let (None, Some(end)) = (&err, end) {
            let mark = Mark {
                end,
                last_commit: book.last_commit,
                census: book.census,
            };
            // A round without commits moves the newest mark forward: any
            // snapshot above its commits prefers the later end.
            match book.marks.back_mut() {
                Some(back) if back.last_commit == mark.last_commit => *back = mark,
                _ => book.marks.push_back(mark),
            }
            if let Some(c) = &checkpoint {
                book.base = book.base.max(c.cut);
                while book.marks.front().is_some_and(|m| m.end <= book.base) {
                    book.marks.pop_front();
                }
                book.checkpoint_bytes = c.payload.len() as u64;
                book.logged = 0;
            }
        }
        self.sync_pending
            .fetch_sub(commits.len() as u64, Ordering::SeqCst);
        // Bumped under the lock (see `wait_round`); `Release` pairs with the
        // spinners' `Acquire` loads.
        self.round.fetch_add(1, Ordering::Release);
        let sleepers = inner.parked > 0;
        drop(inner);
        if sleepers {
            self.cv.notify_all();
        }
        err
    }
}

impl std::fmt::Debug for CommitPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitPipeline")
            .field("sync_pending", &self.sync_pending.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}
