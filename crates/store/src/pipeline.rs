//! The group-commit pipeline: WAL persistence decoupled from the commit
//! critical section.
//!
//! Appending and flushing the WAL inside the commit critical section would
//! serialize every commit behind a replication round-trip — the coupling
//! the paper's BookKeeper deployment avoids (§6.3 keeps the critical section
//! to "a few memory operations"; Appendix A pipelines the log writes). This
//! module keeps the two apart for the embedded store:
//!
//! * The commit decision scope — the touched `lastCommit` shards of the
//!   [`ConcurrentOracle`] — covers only conflict detection and
//!   commit-timestamp assignment. Decided commits are *queued* here in
//!   global commit-timestamp order: the timestamp is issued inside the
//!   pipeline's own lock, which also orders the queue, so commit records
//!   reach the log in commit-timestamp order.
//! * A **leader** — the first waiter to find the ledger free — takes the
//!   ledger out of the pipeline, drains the queue, encodes and flushes the
//!   batch entirely outside every lock, then publishes the outcomes and
//!   hands the ledger back. Waiters whose commits rode along simply pick up
//!   their outcome (classic group commit).
//! * A commit is **published** — made visible in the commit index and
//!   stamped into the version store — and acknowledged only after its batch
//!   reached the write quorum. A flush failure overturns the decision
//!   ([`ConcurrentOracle::abort_after_decide`]) before any reader could have
//!   observed it, appends compensating abort records, and surfaces
//!   [`WalError`] to the owner.
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

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use wsi_core::{ssi::SsiWindow, ConcurrentOracle, SharedTimestampSource, Timestamp};
use wsi_obs::{EventData, Journal};
use wsi_wal::{Ledger, WalError};

use crate::arena::ArenaStore;
use crate::commit_index::CommitIndex;
use crate::db::WriteBatch;
use crate::obs::StoreObs;
use crate::record;

/// Shared references a leader needs to publish (or overturn) commit
/// outcomes after a flush. Assembled fresh per call by the `Db` layer.
pub(crate) struct PublishCtx<'a> {
    pub(crate) mvcc: &'a ArenaStore,
    pub(crate) index: &'a CommitIndex,
    pub(crate) oracle: &'a ConcurrentOracle,
    /// The SSI window, under that level: an overturned commit's entry is
    /// taken back out of it.
    pub(crate) window: Option<&'a Mutex<SsiWindow>>,
}

/// A decided commit awaiting persistence.
#[derive(Clone)]
struct PendingCommit {
    start_ts: Timestamp,
    commit_ts: Timestamp,
    batch: WriteBatch,
}

/// Everything a leader flushes in one round. Taking the `Ledger` *out* of
/// the pipeline gives the leader exclusive ownership, so all encoding and
/// the (possibly slow, replicated) flush happen with no lock held.
struct FlushWork {
    ledger: Ledger,
    commits: Vec<PendingCommit>,
    aborts: Vec<Timestamp>,
    reservations: Vec<Timestamp>,
}

struct PipeInner {
    /// `None` while a leader owns the ledger for a flush round.
    ledger: Option<Ledger>,
    /// Decided commits not yet picked up by a leader, in commit-ts order.
    queue: VecDeque<PendingCommit>,
    /// Commits currently being flushed by the leader, in commit-ts order;
    /// populated for the duration of a flush round. The begin gate scans
    /// it; leaders exclude each other through the taken ledger.
    inflight: VecDeque<PendingCommit>,
    /// Conflict-abort records awaiting append (never flush-critical).
    aborts: Vec<Timestamp>,
    /// Timestamp-reservation bounds awaiting append (§6.2).
    reservations: Vec<Timestamp>,
    /// Outcomes of flushed commits, keyed by raw commit timestamp;
    /// each owner removes its own entry.
    outcomes: HashMap<u64, Option<WalError>>,
}

/// The commit pipeline for one database. Present iff the database has a
/// WAL.
pub(crate) struct CommitPipeline {
    inner: Mutex<PipeInner>,
    cv: Condvar,
    /// Count of decided-but-unresolved commits. The begin gate's
    /// lock-free fast path: incremented (inside the pipeline's critical
    /// section) *before* the commit timestamp is issued and decremented only
    /// after the outcome is published, both `SeqCst` — so a begin that
    /// issues start `S` and then loads `0` is guaranteed no unresolved
    /// commit with `commit_ts < S` exists.
    sync_pending: AtomicU64,
    /// Leader/follower and group-size metrics; `None` when observability is
    /// disabled.
    obs: Option<Arc<StoreObs>>,
}

impl CommitPipeline {
    pub(crate) fn new(ledger: Ledger, obs: Option<Arc<StoreObs>>) -> Self {
        CommitPipeline {
            inner: Mutex::new(PipeInner {
                ledger: Some(ledger),
                queue: VecDeque::new(),
                inflight: VecDeque::new(),
                aborts: Vec::new(),
                reservations: Vec::new(),
                outcomes: HashMap::new(),
            }),
            cv: Condvar::new(),
            sync_pending: AtomicU64::new(0),
            obs,
        }
    }

    /// The flight-recorder journal, when the observability layer is on.
    fn journal(&self) -> Option<&Journal> {
        self.obs.as_deref().map(|obs| &obs.journal)
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
    /// holds its decision scope (the request's shard locks) across this
    /// call and completes the oracle bookkeeping with the returned
    /// timestamp; the pipeline lock nests *inside* that scope, never the
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

    /// The begin gate: returns once no decided-but-unpublished commit with
    /// `commit_ts < start_ts` remains. Lock-free whenever no commit is in
    /// flight (the common case); see the field docs on
    /// `sync_pending` for the ordering argument.
    pub(crate) fn wait_snapshot_stable(&self, start_ts: Timestamp) {
        if self.sync_pending.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        loop {
            let oldest = inner
                .inflight
                .front()
                .or_else(|| inner.queue.front())
                .map(|p| p.commit_ts);
            match oldest {
                Some(c) if c < start_ts => self.cv.wait(&mut inner),
                _ => return,
            }
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
        now_us: u64,
    ) -> Result<(), WalError> {
        let mut led = false;
        loop {
            let work = {
                let mut inner = self.inner.lock();
                loop {
                    if let Some(outcome) = inner.outcomes.remove(&commit_ts.raw()) {
                        if !led {
                            // Our commit rode another thread's flush round —
                            // the group-commit win the paper's batching
                            // factor measures.
                            if let Some(obs) = &self.obs {
                                obs.follower_commits.inc();
                            }
                        }
                        return outcome.map_or(Ok(()), Err);
                    }
                    if inner.ledger.is_some() && inner.inflight.is_empty() {
                        break Self::take_work(&mut inner);
                    }
                    self.cv.wait(&mut inner);
                }
            };
            led = true;
            self.sync_flush_round(work, ctx, now_us);
            // Loop to pick up our own outcome (this round resolved it).
        }
    }

    /// Drains and force-flushes everything queued or buffered; the explicit
    /// `flush_wal` tail.
    pub(crate) fn flush_all(&self, ctx: &PublishCtx<'_>, now_us: u64) -> Result<(), WalError> {
        let work = {
            let mut inner = self.inner.lock();
            loop {
                if inner.ledger.is_some() && inner.inflight.is_empty() {
                    let nothing_queued = inner.queue.is_empty()
                        && inner.aborts.is_empty()
                        && inner.reservations.is_empty();
                    let ledger = inner.ledger.as_ref().expect("checked is_some");
                    if nothing_queued && ledger.pending_records() == 0 {
                        return Ok(());
                    }
                    break Self::take_work(&mut inner);
                }
                self.cv.wait(&mut inner);
            }
        };
        self.sync_flush_round(work, ctx, now_us).map_or(Ok(()), Err)
    }

    /// A point-in-time clone of the ledger (waits out any flush round in
    /// progress). Records still queued in the pipeline are *not* included —
    /// exactly matching what survives a crash at this instant.
    pub(crate) fn ledger_snapshot(&self) -> Ledger {
        let mut inner = self.inner.lock();
        loop {
            if let Some(ledger) = inner.ledger.as_ref() {
                return ledger.clone();
            }
            self.cv.wait(&mut inner);
        }
    }

    /// Installs a recovered ledger (recovery-time only; no flush can be in
    /// progress).
    pub(crate) fn replace_ledger(&self, ledger: Ledger) {
        self.inner.lock().ledger = Some(ledger);
    }

    /// Runs `f` against the live ledger (waits out any flush round in
    /// progress). Failure-injection hook for tests and simulations.
    pub(crate) fn with_ledger_mut(&self, f: impl FnOnce(&mut Ledger)) {
        let mut inner = self.inner.lock();
        loop {
            if let Some(ledger) = inner.ledger.as_mut() {
                f(ledger);
                return;
            }
            self.cv.wait(&mut inner);
        }
    }

    /// Takes exclusive ownership of the ledger plus everything queued.
    /// Caller must have checked `ledger.is_some() && inflight.is_empty()`.
    fn take_work(inner: &mut PipeInner) -> FlushWork {
        let ledger = inner.ledger.take().expect("leader takes a present ledger");
        let commits: Vec<PendingCommit> = inner.queue.drain(..).collect();
        inner.inflight.extend(commits.iter().cloned());
        FlushWork {
            ledger,
            commits,
            aborts: std::mem::take(&mut inner.aborts),
            reservations: std::mem::take(&mut inner.reservations),
        }
    }

    /// One leader round: encode + flush outside all locks, publish (or
    /// overturn) each commit, hand the ledger back, resolve waiters.
    /// Returns the round's error, if any. Called with **no** lock held.
    fn sync_flush_round(
        &self,
        work: FlushWork,
        ctx: &PublishCtx<'_>,
        now_us: u64,
    ) -> Option<WalError> {
        let FlushWork {
            mut ledger,
            commits,
            aborts,
            reservations,
        } = work;
        if let Some(obs) = &self.obs {
            obs.leader_rounds.inc();
            obs.sync_group_size.record(commits.len() as u64);
        }
        for upto in reservations {
            ledger.append(record::encode_ts_reserve(upto), now_us);
        }
        for start_ts in aborts {
            ledger.append(record::encode_abort(start_ts), now_us);
        }
        for c in &commits {
            ledger.append(
                record::encode_commit(c.start_ts, c.commit_ts, &c.batch),
                now_us,
            );
        }
        let records = commits.len() as u64;
        let err = ledger.flush(now_us).err();
        if let Some(journal) = self.journal() {
            journal.record(
                0,
                EventData::WalFlush {
                    records,
                    acked: if err.is_none() { records } else { 0 },
                },
            );
        }
        match &err {
            None => {
                // Publish in commit order: the visibility flip. From here the
                // commits are durable *and* observable; the owners' snapshots
                // were gated until now.
                for c in &commits {
                    ctx.index.record_commit(c.start_ts, c.commit_ts);
                    ctx.mvcc
                        .stamp_commit(c.start_ts, c.commit_ts, c.batch.iter().map(|(k, _)| k));
                    if let Some(journal) = self.journal() {
                        journal.record(
                            c.start_ts.raw(),
                            EventData::Publish {
                                commit_ts: c.commit_ts.raw(),
                            },
                        );
                    }
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
                    ctx.oracle.abort_after_decide();
                    ctx.index.record_abort(c.start_ts);
                    ledger.append(record::encode_abort(c.start_ts), now_us);
                    if let Some(journal) = self.journal() {
                        journal.record(
                            c.start_ts.raw(),
                            EventData::Overturn {
                                commit_ts: c.commit_ts.raw(),
                            },
                        );
                    }
                }
            }
        }
        let mut inner = self.inner.lock();
        inner.ledger = Some(ledger);
        inner.inflight.clear();
        for c in &commits {
            inner.outcomes.insert(c.commit_ts.raw(), err.clone());
        }
        self.sync_pending
            .fetch_sub(commits.len() as u64, Ordering::SeqCst);
        drop(inner);
        self.cv.notify_all();
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
