//! The embedded transactional database handle.
//!
//! # Concurrency architecture
//!
//! The paper costs the status oracle's critical section at "a few memory
//! operations" (§6.3). The embedded store keeps to that number: its one
//! global commit critical section holds the decision and nothing else:
//!
//! * Commit decisions take one spin lock, the decision lock, held for the
//!   conflict check, the commit timestamp and recording it — the paper's
//!   one critical section. `lastCommit(r)` is a word in each key's own
//!   entry, which the transaction found when it read or wrote the key, and
//!   each verdict is [`wsi_core::check_row_probe`], the model's predicate.
//! * `begin` never takes the decision lock: start timestamps come from a
//!   shared atomic counter under the lock of the
//!   [`registry::ActiveTxnRegistry`], with §6.2 batched reservation records
//!   amortizing WAL writes for the counter.
//! * With a WAL ([`DbOptions::durable`]), append + flush run in the
//!   [`pipeline::CommitPipeline`] *after* the decision lock is released —
//!   group-commit with a leader/follower protocol. A commit becomes visible
//!   and is acknowledged only once its batch is durable; a quorum loss
//!   overturns the decision before any reader could observe it (counted in
//!   `oracle_commits_overturned_total`; the `lastCommit` words it wrote
//!   stay). Without a WAL a commit is published at decide time.
//! * Read-only commits and rollbacks touch no lock at all beyond the
//!   registry's.
//! * A [`Db::run`] whose first [`ESCALATE_AFTER`] attempts all aborted
//!   takes the store's one serial token for the next: until it returns,
//!   every other write commit waits before its decision, so that attempt
//!   meets no concurrent writer and cannot abort on a conflict. With the
//!   token free, a write commit pays one atomic load for it.
//! * [`IsolationLevel::SerializableSnapshot`] is the same engine with one
//!   more certifier: after the write-write check passes, the
//!   commit is put to the dangerous-structure window
//!   ([`wsi_core::ssi::SsiWindow`]) behind one mutex, held until the commit
//!   timestamp is issued so entries stay in commit order. Its read-only
//!   commits visit the window too (they can abort: the read-only anomaly);
//!   under the other two levels both paths pay one `is_none()` branch.
//!
//! The lock hierarchy is strict and acyclic: the decision lock, then the
//! SSI window, may be held while taking the registry lock or the pipeline's
//! queue lock, never the reverse. See `DESIGN.md` for the
//! full protocol argument.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard};
use spin::{Mutex as SpinMutex, MutexGuard as SpinMutexGuard};
use wsi_core::{
    check_row_probe, hash_row_key, ssi::SsiWindow, AbortReason, IsolationLevel, OracleCounters,
    OracleStats, Probe, RowId, SharedTimestampSource, Timestamp, TxnStatus,
};
use wsi_obs::{AbortExplanation, Cause, Counter, EventData, Histogram, Journal, Registry};
use wsi_wal::{Ledger, LedgerConfig, LedgerObs, LedgerStats};

use crate::{
    arena::{ArenaStore, KeyId},
    error::{Error, Result},
    mvcc::{GcStats, ReclamationStats, VersionStamps},
    obs::StoreObs,
    pipeline::{CommitPipeline, PendingCheckpoint, PublishCtx},
    record::{self, Checkpoint, CheckpointWriter, LogSuffix, StoreRecord},
    registry::{ActiveTxnRegistry, OwnLine},
    snapshot::Snapshot,
    txn::{ReadKey, ReadSet, Transaction},
};

/// A transaction's write set, shared by reference between the version
/// store, the WAL record encoder, and the commit pipeline — the seed
/// materialized this list three times per commit.
pub(crate) type WriteBatch = Arc<Vec<(Bytes, Option<Bytes>)>>;

/// Timestamps reserved per §6.2 reservation record. One WAL record covers
/// this many begins; recovery resumes past the last persisted bound.
const TS_RESERVE_BATCH: u64 = 4096;

/// Base unit of the `run` retry backoff.
const BACKOFF_BASE_US: u64 = 20;

/// Backoff ceiling doubles at most this many times (20 µs → 1.28 ms).
const BACKOFF_MAX_SHIFT: usize = 6;

/// Failed attempts after which [`Db::run`] takes the store's serial token
/// for its next attempt (see [`Db::run`]).
pub const ESCALATE_AFTER: usize = 8;

/// [`SerialToken::holder`] while the run that took the token has not begun
/// the attempt it took it for.
const UNBEGUN: u64 = u64::MAX;

/// The tick's period in write commits: every this many, the committer
/// computes the registry watermark and paces the collector with it — the
/// store notes it and deals its sweep and limbo backlogs out as per-commit
/// shares over the next this many commits (see [`Db::gc`]), and the SSI
/// window is pruned below it; the window also whenever a read-only commit
/// finds it grown by this many entries since its last prune (read-only
/// entries do not tick the commit counter).
const TICK_EVERY: u64 = 256;

/// Configuration of an embedded [`Db`].
#[derive(Debug, Clone)]
pub struct DbOptions {
    /// What is certified at commit: no write-write conflict
    /// ([`IsolationLevel::Snapshot`]), no read-write conflict
    /// ([`IsolationLevel::WriteSnapshot`], serializable), or no write-write
    /// conflict and no dangerous structure
    /// ([`IsolationLevel::SerializableSnapshot`], serializable).
    pub isolation: IsolationLevel,
    /// The write-ahead log's replication shape, or `None` for no
    /// WAL at all: a crash loses everything — fastest; right for caches and
    /// for simulations that model durability elsewhere. With a WAL, every
    /// commit waits for its batch to reach a write quorum before it is
    /// acknowledged *or made visible to readers*; the flush happens outside
    /// the commit critical section (group commit with a leader), so
    /// concurrent committers share replication round-trips.
    pub wal: Option<LedgerConfig>,
}

impl DbOptions {
    /// Sensible defaults: the requested isolation level, no WAL. Conflict
    /// state needs no setting: it is one word in each key's entry.
    pub fn new(isolation: IsolationLevel) -> Self {
        DbOptions {
            isolation,
            wal: None,
        }
    }

    /// Attaches a write-ahead log of the given shape (see
    /// [`DbOptions::wal`]).
    pub fn durable(mut self, wal: LedgerConfig) -> Self {
        self.wal = Some(wal);
        self
    }
}

/// The outcome profile of the most recent [`Db::run`] call: how many commit
/// attempts it took and why the intermediate attempts aborted. Before this
/// report existed, the retry loop silently discarded every intermediate
/// [`AbortReason`]; now the last one survives (each attempt's abort is also
/// in the journal as a `Retry` event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnReport {
    /// Commit attempts made (1 for a first-try success).
    pub attempts: u32,
    /// The abort reason of the most recent failed attempt; `None` when the
    /// first attempt committed. Present even when a later retry succeeded.
    pub last_abort: Option<AbortReason>,
}

impl TxnReport {
    /// The first attempt committed: the outcome of almost every `run`.
    const CLEAN: TxnReport = TxnReport {
        attempts: 1,
        last_abort: None,
    };
}

/// Aggregate database statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbStats {
    /// Oracle activity counters (commits, aborts by reason, probes).
    pub oracle: OracleStats,
    /// Transactions currently in flight.
    pub active_transactions: usize,
    /// Keys with at least one stored version.
    pub keys: usize,
    /// Total stored versions.
    pub versions: usize,
    /// WAL write-path counters; all zero without a WAL.
    pub wal: LedgerStats,
}

/// The decision lock: held for a write commit's conflict check, its commit
/// timestamp and recording it in the key entries — the paper's one
/// critical section (§6.3) — and for nothing else. A test-and-set spin lock
/// (loom model 3).
struct DecisionLock {
    lock: SpinMutex<()>,
    /// Acquisitions that found the lock held.
    contention: Counter,
    /// The wait of each contended acquisition, in microseconds.
    wait_us: Histogram,
}

impl DecisionLock {
    /// A free lock whose series are registered in `registry` under the
    /// names `txn_e2e` reads (they predate the single lock).
    fn new(registry: &Registry) -> Self {
        let lock = DecisionLock {
            lock: SpinMutex::new(()),
            contention: Counter::new(),
            wait_us: Histogram::new(),
        };
        registry.register_counter("oracle_shard_contention_total", &lock.contention);
        registry.register_histogram("oracle_shard_lock_wait_us", &lock.wait_us);
        lock
    }

    /// Takes the lock. An uncontended acquisition reads no clock; a
    /// contended one counts itself and records its wait.
    #[inline]
    fn lock(&self) -> SpinMutexGuard<'_, ()> {
        self.lock.try_lock().unwrap_or_else(|| {
            self.contention.inc();
            let began = Instant::now();
            let guard = self.lock.lock();
            self.wait_us.record(began.elapsed().as_micros() as u64);
            guard
        })
    }
}

/// The store's one serial token, Ports & Grittner's safe retry: a
/// [`Db::run`] whose attempts kept aborting holds it for the attempts it
/// has left, and while it is held every other write commit waits before its
/// decision (DESIGN.md §5).
#[derive(Default)]
struct SerialToken {
    /// The holder's start timestamp (raw), [`UNBEGUN`] before it begins,
    /// `0` while the token is free. Write commits load it under the
    /// decision lock.
    holder: AtomicU64,
    /// Locked while the token is held: what a waiting commit blocks on.
    lock: Mutex<()>,
}

impl SerialToken {
    /// Whether the write commit of the transaction begun at `start_ts` may
    /// decide: nobody holds the token, or that transaction does. Caller
    /// holds the decision lock.
    #[inline]
    fn admits(&self, start_ts: Timestamp) -> bool {
        let holder = self.holder.load(Ordering::Relaxed);
        holder == 0 || holder == start_ts.raw()
    }
}

/// The serial token, taken by one [`Db::run`]; released when the run
/// returns, however it returns: with the body's value, its error or a
/// panic.
struct Escalated<'a> {
    inner: &'a DbInner,
    _held: MutexGuard<'a, ()>,
}

impl Escalated<'_> {
    /// Hands the token to the run's `attempt`th attempt, begun at
    /// `start_ts`; journals the escalation at the first attempt it holds.
    fn hold_for(&self, start_ts: Timestamp, attempt: u32) {
        let serial = &self.inner.serial;
        if serial.holder.swap(start_ts.raw(), Ordering::Relaxed) == UNBEGUN {
            self.inner.journal().record(
                start_ts.raw(),
                EventData::Escalate {
                    attempt: attempt as u64,
                },
            );
        }
    }
}

impl Drop for Escalated<'_> {
    /// Frees the token; the lock guard, dropped after this, wakes the
    /// commits that wait for it.
    fn drop(&mut self) {
        self.inner.serial.holder.store(0, Ordering::Relaxed);
    }
}

pub(crate) struct DbInner {
    pub(crate) options: DbOptions,
    pub(crate) mvcc: ArenaStore,
    decision: DecisionLock,
    serial: SerialToken,
    /// The shared timestamp counter: lock-free starts, commits drawn under
    /// the decision lock.
    pub(crate) ts: Arc<SharedTimestampSource>,
    /// In-flight transactions and their fates: the GC low-water mark, and
    /// the resolver of versions not yet stamped.
    pub(crate) registry: ActiveTxnRegistry,
    /// Present whenever the database has a WAL.
    pub(crate) pipeline: Option<CommitPipeline>,
    /// Set while one thread writes a checkpoint. A checkpoint stays due
    /// until its round books it, so without this the next tick (256 write
    /// commits later, sooner than one is written) would build a second,
    /// which the pipeline drops.
    checkpointing: AtomicBool,
    /// The decision counters, exported as the `oracle_*` series: every
    /// path bumps them directly, and [`Db::stats`] reads them without
    /// taking any lock.
    pub(crate) counters: OracleCounters,
    /// WAL observability handles (present iff `pipeline` is).
    pub(crate) wal_obs: Option<LedgerObs>,
    /// Metric registry + histograms + journal.
    pub(crate) obs: Arc<StoreObs>,
    /// Write commits counted toward the tick (see [`TICK_EVERY`]). Every
    /// committer bumps it, so it must not share a line with the read-mostly
    /// fields around it, wherever the compiler sorts them.
    ticks: OwnLine<AtomicU64>,
    /// Whether the most recent [`Db::run`] outcome was [`TxnReport::CLEAN`]
    /// — almost every one is, and then this flag is the whole report, so
    /// the hot path takes no lock: one load, and a store only when the
    /// previous outcome was of the other kind.
    last_report_clean: AtomicBool,
    /// The most recent outcome that was not clean (`None` before the
    /// first); current while `last_report_clean` is false, and written
    /// together with that flag under this lock.
    last_report: Mutex<Option<TxnReport>>,
    epoch: Instant,
    /// The dangerous-structure detector, present iff the level is
    /// [`IsolationLevel::SerializableSnapshot`]. Locked after the decision
    /// lock and before the registry or the pipeline. Empty after
    /// recovery: commit records carry no read sets, and no transaction
    /// concurrent with a pre-crash commit can still be in flight, so a
    /// replayed entry could never fire.
    window: Option<Mutex<SsiWindow>>,
}

impl DbInner {
    pub(crate) fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn publish_ctx(&self) -> PublishCtx<'_> {
        PublishCtx {
            registry: &self.registry,
            counters: &self.counters,
            window: self.window.as_ref(),
        }
    }

    /// The flight-recorder journal.
    pub(crate) fn journal(&self) -> &Journal {
        &self.obs.journal
    }
}

/// An embedded, thread-safe, multi-version transactional key-value store.
///
/// `Db` is a cheap handle (an `Arc` internally); clone it into as many
/// threads as needed. Transactions are optimistic: reads never block, writes
/// buffer locally, and conflicts surface at [`Transaction::commit`] as
/// [`Error::Aborted`], after which the transaction's effects are fully
/// rolled back and the caller may retry.
///
/// # Example
///
/// ```
/// use wsi_core::IsolationLevel;
/// use wsi_store::{Db, DbOptions};
///
/// let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
///
/// let mut t = db.begin();
/// t.put(b"k", b"v1");
/// t.commit().unwrap();
///
/// let mut r = db.begin();
/// assert_eq!(r.get(b"k").as_deref(), Some(&b"v1"[..]));
/// ```
#[derive(Clone)]
pub struct Db {
    pub(crate) inner: Arc<DbInner>,
}

impl Db {
    /// Opens an empty database.
    pub fn open(options: DbOptions) -> Db {
        let ledger = options.wal.map(Ledger::open);
        Db::with_ledger(options, ledger)
    }

    /// Opens an empty database that logs to `ledger`, if it has a WAL.
    fn with_ledger(options: DbOptions, ledger: Option<Ledger>) -> Db {
        let ts = Arc::new(SharedTimestampSource::new());
        // One journal shared by every layer: the Db layer records per-row
        // verdicts and the lifecycle events, the pipeline the WAL
        // flush/publish/overturn events, the arena GC sweeps and frees.
        let obs = Arc::new(StoreObs::new());
        let counters = OracleCounters::default();
        let wal_obs = ledger.as_ref().map(|ledger| ledger.obs().clone());
        let pipeline = ledger.map(|ledger| CommitPipeline::new(ledger, Arc::clone(&obs)));
        let mvcc = ArenaStore::new(Arc::clone(&ts), obs.journal.clone());
        let registry = ActiveTxnRegistry::new();
        // Each layer keeps its own books; the registry exports them all.
        counters.register_in(&obs.registry);
        let decision = DecisionLock::new(&obs.registry);
        if let Some(wal_obs) = &wal_obs {
            wal_obs.register_in(&obs.registry);
        }
        mvcc.obs().register_in(&obs.registry);
        let window = (options.isolation == IsolationLevel::SerializableSnapshot)
            .then(|| Mutex::new(SsiWindow::new()));
        Db {
            inner: Arc::new(DbInner {
                options,
                mvcc,
                decision,
                serial: SerialToken::default(),
                ts,
                registry,
                pipeline,
                checkpointing: AtomicBool::new(false),
                counters,
                wal_obs,
                obs,
                ticks: OwnLine(AtomicU64::new(0)),
                last_report_clean: AtomicBool::new(false),
                last_report: Mutex::new(None),
                epoch: Instant::now(),
                window,
            }),
        }
    }

    /// Rebuilds a database from a recovered write-ahead log.
    ///
    /// `ledger` is the surviving replicated log (see [`Db::wal_snapshot`]).
    /// Recovery is *checkpoint + log suffix* ([`LogSuffix`]): the newest
    /// checkpoint's versions are installed, stamped, then the records from
    /// its cut on are replayed. Commit records reach the log in
    /// commit-timestamp order: the timestamp is issued under the pipeline
    /// lock that also orders the queue. Replay runs in two passes: the
    /// first collects compensating `Abort` records (written when a batch
    /// lost its quorum after the commits were decided), the second replays
    /// commits in that order — skipping overturned ones, whose records may
    /// survive on a minority of bookies even though they were never
    /// acknowledged, and those below the checkpoint's snapshot, which it
    /// holds — plus the aborts and timestamp reservations, which only burn
    /// timestamps. Every replayed commit is stamped as it is installed, so
    /// no fate outlives recovery. No `lastCommit` word is written: every
    /// start drawn after recovery exceeds every replayed commit timestamp,
    /// so a replayed commit could fail no check (DESIGN.md §5). In-flight
    /// transactions are (correctly) forgotten: their writes never reached
    /// the log.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if a log record fails to decode — except
    /// on the *final* recovered record, where a decode failure is treated as
    /// a torn tail (the process died mid-append) and the record is dropped:
    /// a record that never finished persisting belongs to a transaction that
    /// was never acknowledged (or is a checkpoint that was never relied
    /// on), so forgetting it is the correct outcome. A corrupt record with
    /// valid records after it is real damage and still fails recovery, as
    /// does a log truncated past its newest checkpoint.
    pub fn recover(options: DbOptions, ledger: Ledger) -> Result<Db> {
        let payloads = ledger.recover();
        let mut records = Vec::with_capacity(payloads.len());
        for (i, payload) in payloads.iter().enumerate() {
            match record::decode(payload) {
                Ok(rec) => records.push(rec),
                Err(_) if i + 1 == payloads.len() => break,
                Err(e) => return Err(e),
            }
        }
        // What the checkpoint rule reads: the newest checkpoint's size and
        // the bytes logged after it.
        let bytes = |payloads: &[Bytes]| payloads.iter().map(|p| p.len() as u64).sum::<u64>();
        let (checkpoint_bytes, logged) = match records
            .iter()
            .rposition(|rec| matches!(rec, StoreRecord::Checkpoint(_)))
        {
            Some(i) => (
                payloads[i].len() as u64,
                bytes(&payloads[i + 1..records.len()]),
            ),
            None => (0, bytes(&payloads[..records.len()])),
        };
        let log = LogSuffix::new(ledger.base(), records)?;
        let census = log.census();
        // The recovered log is the new database's: its counts continue.
        let ledger = options.wal.map(|_| ledger);
        let db = Db::with_ledger(options, ledger);
        let floor = match &log.checkpoint {
            Some(checkpoint) => {
                db.install(checkpoint);
                checkpoint.snapshot
            }
            None => Timestamp::ZERO,
        };
        let overturned: HashSet<u64> = log
            .records
            .iter()
            .filter_map(|rec| match rec {
                StoreRecord::Abort { start_ts } => Some(start_ts.raw()),
                _ => None,
            })
            .collect();
        let mut last_commit = Timestamp::ZERO;
        for rec in log.records {
            match rec {
                StoreRecord::Commit {
                    start_ts,
                    commit_ts,
                    writes,
                } => {
                    last_commit = commit_ts;
                    db.inner.ts.advance_to(commit_ts);
                    if overturned.contains(&start_ts.raw()) || commit_ts < floor {
                        // Never acknowledged (the compensating abort is
                        // replayed on its own record), or already in the
                        // checkpoint. Only the timestamp must stay burned.
                        continue;
                    }
                    let rows: Vec<RowId> = writes.iter().map(|(k, _)| hash_row_key(k)).collect();
                    db.inner.mvcc.insert_versions(start_ts, &rows, &writes);
                    db.inner
                        .mvcc
                        .stamp_commit(start_ts, commit_ts, &rows, &writes);
                }
                // Overturned commits were never installed above, and
                // refused ones never reached the store.
                StoreRecord::Abort { start_ts } => {
                    db.inner.ts.advance_to(start_ts);
                }
                StoreRecord::TsReserve { upto } => {
                    db.inner.ts.note_reserved(upto);
                }
                // `LogSuffix` keeps only the newest checkpoint, apart.
                StoreRecord::Checkpoint(_) => {}
            }
        }
        if let Some(pipeline) = &db.inner.pipeline {
            pipeline.book_recovered(census, last_commit, checkpoint_bytes, logged);
        }
        Ok(db)
    }

    /// Installs a checkpoint's versions, stamped, and burns its timestamps:
    /// the snapshot and the reservation bound.
    fn install(&self, checkpoint: &Checkpoint) {
        for e in &checkpoint.entries {
            let rows = [hash_row_key(&e.key)];
            let writes = [(e.key.clone(), e.value.clone())];
            self.inner
                .mvcc
                .insert_versions(e.writer_start, &rows, &writes);
            self.inner
                .mvcc
                .stamp_commit(e.writer_start, e.commit_ts, &rows, &writes);
        }
        self.inner.ts.note_reserved(checkpoint.reserved);
        self.inner.ts.advance_to(checkpoint.snapshot);
    }

    /// Begins a transaction reading from the current snapshot.
    pub fn begin(&self) -> Transaction {
        Transaction::new(Arc::clone(&self.inner), self.begin_ts())
    }

    /// Takes a read-only [`Snapshot`] of the current state: shared-reference
    /// reads, no conflict tracking, never aborts.
    ///
    /// Under [`IsolationLevel::SerializableSnapshot`] that makes it a plain
    /// SI read, outside the serializability guarantee: its reads never reach
    /// the dangerous-structure window, so it can observe a state no serial
    /// order of the committed transactions produces (the read-only anomaly
    /// a read-only [`Transaction`] is aborted for).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::new(Arc::clone(&self.inner), self.begin_ts())
    }

    /// Issues a start timestamp without taking the decision lock: an atomic
    /// fetch-add under the registry lock, a
    /// reservation record every [`TS_RESERVE_BATCH`] begins, and — only
    /// while a durable commit is decided-but-unpublished — the pipeline's
    /// snapshot-stability gate.
    fn begin_ts(&self) -> Timestamp {
        self.inner.counters.begins.inc();
        let start_ts = self.inner.registry.register(&self.inner.ts);
        // No journal event here: `Begin` is journaled on the transaction's
        // first buffered write (see `Transaction::put`). Under SI/WSI a
        // transaction that never writes can never conflict, never aborts,
        // and its commit event already carries the start timestamp — so the
        // read-only fast path stays a single journal event. (SSI can abort a
        // read-only transaction; its abort event names the culprit by itself.)
        if let Some(pipeline) = &self.inner.pipeline {
            if let Some(upto) = self.inner.ts.reserve(TS_RESERVE_BATCH) {
                pipeline.push_reservation(upto);
            }
            pipeline.wait_snapshot_stable(start_ts);
        }
        start_ts
    }

    /// Runs `body` in a transaction, retrying on conflict aborts with
    /// capped exponential backoff (full jitter), so herds of writers on the
    /// same rows spread out instead of re-colliding in lockstep.
    ///
    /// The body may be invoked multiple times (write buffers are fresh each
    /// attempt), so it must be idempotent apart from its transactional
    /// effects. Non-conflict errors — including errors returned by `body`
    /// itself — abort the loop. At most `max_retries` retries are attempted
    /// before the last conflict error is returned.
    ///
    /// A retried transaction must not fail again for the same cause, where
    /// backoff alone cannot promise it: while the victim sleeps, its rival
    /// runs alone. So after [`ESCALATE_AFTER`] failed attempts, if a retry
    /// remains, the run takes the store's one serial token — waiting while
    /// another run holds it — and keeps it until it returns. While it is
    /// held, every other write commit waits before its decision, and the
    /// commits decided before it publish before the holder's snapshot is
    /// taken; so the escalated attempt meets no concurrent writer. Its body
    /// must not wait for another write commit of this database, its own
    /// included: that commit would wait for the token.
    ///
    /// # Example
    ///
    /// ```
    /// use wsi_core::IsolationLevel;
    /// use wsi_store::{Db, DbOptions};
    ///
    /// let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    /// db.run(16, |t| {
    ///     let n: u64 = t
    ///         .get(b"counter")
    ///         .map(|v| String::from_utf8_lossy(&v).parse().unwrap())
    ///         .unwrap_or(0);
    ///     t.put(b"counter", (n + 1).to_string().as_bytes());
    ///     Ok(())
    /// })
    /// .unwrap();
    /// ```
    ///
    /// # Errors
    ///
    /// Whatever `body` returns, [`Error::Aborted`] once retries are
    /// exhausted, or any non-retryable commit failure. An escalated attempt
    /// cannot abort on a write-write or read-write conflict or an SSI
    /// dangerous structure; only a WAL quorum loss ([`Error::Wal`]) fails
    /// its commit. So with `max_retries ≥ ESCALATE_AFTER`, a conflict abort
    /// is never returned.
    pub fn run<T>(
        &self,
        max_retries: usize,
        mut body: impl FnMut(&mut Transaction) -> Result<T>,
    ) -> Result<T> {
        let mut retries = 0u32;
        let mut last_abort: Option<AbortReason> = None;
        let mut serial: Option<Escalated<'_>> = None;
        loop {
            if serial.is_none() && retries as usize >= ESCALATE_AFTER {
                serial = Some(self.escalate());
            }
            let mut txn = self.begin();
            let start_ts = txn.start_ts();
            if let Some(serial) = &serial {
                serial.hold_for(start_ts, retries + 1);
            }
            let value = match body(&mut txn) {
                Ok(v) => v,
                Err(e) => {
                    txn.rollback();
                    self.store_txn_report(retries + 1, last_abort);
                    return Err(e);
                }
            };
            match txn.commit() {
                Ok(_) => {
                    self.store_txn_report(retries + 1, last_abort);
                    return Ok(value);
                }
                Err(Error::Aborted(reason)) if (retries as usize) < max_retries => {
                    // The intermediate attempt's reason used to vanish here;
                    // keep the last one for `last_txn_report` and journal the
                    // retry against the failed attempt's event stream.
                    retries += 1;
                    last_abort = Some(reason);
                    self.inner.journal().record(
                        start_ts.raw(),
                        EventData::Retry {
                            attempt: retries as u64,
                        },
                    );
                    // A real sleep, on purpose: with 50 µs of timer slack a
                    // 0–40 µs draw sleeps about 100 µs, and while the victim
                    // sleeps the other clients run alone. Every shorter
                    // wait tried (spin-then-yield over the same draw, or no
                    // sleep at all) cut p99 but retried so much more that
                    // `attempts_per_txn` broke its bound (EXPERIMENTS.md,
                    // "Why the retry sleep stays").
                    let pause = backoff_us(retries as usize, self.inner.now_us());
                    if pause > 0 {
                        std::thread::sleep(Duration::from_micros(pause));
                    }
                }
                Err(e) => {
                    if let Error::Aborted(reason) = &e {
                        last_abort = Some(*reason);
                    }
                    self.store_txn_report(retries + 1, last_abort);
                    return Err(e);
                }
            }
        }
    }

    /// Takes the serial token, waiting while another run holds it, then
    /// takes and drops the decision lock once: every write commit that
    /// passed the token check before has decided, and every later one finds
    /// the token held and waits. The caller begins after this, so the
    /// snapshot-stability gate waits for the decided commits to publish.
    fn escalate(&self) -> Escalated<'_> {
        let inner = &*self.inner;
        let held = inner.serial.lock.lock();
        inner.serial.holder.store(UNBEGUN, Ordering::Relaxed);
        drop(inner.decision.lock());
        inner.obs.escalations.inc();
        Escalated { inner, _held: held }
    }

    /// Takes the decision lock for the write commit of the transaction
    /// begun at `start_ts`. A commit that finds the serial token held by
    /// another transaction drops the lock, blocks until the token is
    /// released and tries again; it waits holding no decision lock, so the
    /// holder's commit is never behind it.
    fn decision_lock(&self, start_ts: Timestamp) -> SpinMutexGuard<'_, ()> {
        loop {
            let decision = self.inner.decision.lock();
            if self.inner.serial.admits(start_ts) {
                return decision;
            }
            drop(decision);
            drop(self.inner.serial.lock.lock());
        }
    }

    fn store_txn_report(&self, attempts: u32, last_abort: Option<AbortReason>) {
        let report = TxnReport {
            attempts,
            last_abort,
        };
        let clean = &self.inner.last_report_clean;
        if report == TxnReport::CLEAN {
            if !clean.load(Ordering::Relaxed) {
                clean.store(true, Ordering::Release);
            }
        } else {
            let mut detailed = self.inner.last_report.lock();
            *detailed = Some(report);
            clean.store(false, Ordering::Release);
        }
    }

    /// The outcome profile of the most recent [`Db::run`] call on this
    /// database — commit attempts made and the last intermediate
    /// [`AbortReason`] — or `None` before the first `run`. The retry loop
    /// used to discard the reasons of retried attempts entirely; this
    /// surfaces the last one even when a later retry committed.
    pub fn last_txn_report(&self) -> Option<TxnReport> {
        if self.inner.last_report_clean.load(Ordering::Acquire) {
            return Some(TxnReport::CLEAN);
        }
        *self.inner.last_report.lock()
    }

    /// The isolation level this database enforces.
    pub fn isolation(&self) -> IsolationLevel {
        self.inner.options.isolation
    }

    /// Commits a transaction's buffered effects. Called by
    /// [`Transaction::commit`].
    pub(crate) fn commit_txn(
        &self,
        start_ts: Timestamp,
        reads: ReadSet,
        writes: BTreeMap<Bytes, Option<Bytes>>,
        began_us: u64,
    ) -> Result<Timestamp> {
        let obs = &self.inner.obs;
        if writes.is_empty() {
            if let Some(window) = self.inner.window.as_ref() {
                if let Err(reason) = self.admit_read_only(window, start_ts, &reads) {
                    self.inner.counters.count_abort(reason);
                    if let Some(pipeline) = &self.inner.pipeline {
                        pipeline.push_abort(start_ts);
                    }
                    self.inner.registry.deregister(start_ts);
                    obs.journal
                        .record(start_ts.raw(), EventData::Abort(reason.journal_cause()));
                    return Err(Error::Aborted(reason));
                }
            }
            // Read-only fast path (§5.1): no conflict check, no WAL record,
            // no fate to record, no lock; never aborts. Equivalent to a
            // transaction shifted to its start point (Figure 3), hence the
            // start timestamp as commit timestamp.
            self.inner.counters.read_only_commits.inc();
            self.inner.registry.deregister(start_ts);
            obs.journal
                .record(start_ts.raw(), EventData::ReadOnlyCommit);
            return Ok(start_ts);
        }

        // Apply the writes as invisible versions before entering the
        // critical section (the Omid scheme: data reaches the store tagged
        // with the start timestamp; visibility is flipped
        // by the fate in the registry entry). One Arc'd batch serves the
        // version store, the WAL encoder, and the rollback path; the
        // entries the insert found or created serve the conflict check.
        let batch: WriteBatch = Arc::new(writes.into_iter().collect::<Vec<_>>());
        let write_rows: Vec<RowId> = batch.iter().map(|(k, _)| hash_row_key(k)).collect();
        let write_keys = self
            .inner
            .mvcc
            .insert_versions(start_ts, &write_rows, &batch);
        let pipeline = self.inner.pipeline.as_ref();

        // The decision scope: conflict check + commit-timestamp assignment +
        // recording it, under the decision lock. No WAL I/O in here.
        let decide_began_us = self.inner.now_us();
        let decision: Result<Timestamp> = {
            let _decision = self.decision_lock(start_ts);
            // SSI: the write-write check above is its SI base; the window,
            // locked only once that passed, holds the rest. It stays locked
            // until the commit timestamp is issued so its entries are in
            // commit order.
            let mut window = None;
            let verdict = match (
                self.check(start_ts, &reads, &write_rows, &write_keys),
                &self.inner.window,
            ) {
                (Ok(()), Some(w)) => window
                    .insert(w.lock())
                    .admit(start_ts, &reads.rows(), &write_rows)
                    .map(Some),
                (verdict, _) => verdict.map(|()| None),
            };
            match verdict {
                Ok(admitted) => {
                    let commit_ts = match pipeline {
                        // Queued unpublished; the timestamp is issued inside
                        // the pipeline's critical section so new snapshots
                        // gate on it (visibility waits for durability).
                        Some(pipeline) => {
                            pipeline.push_sync(&self.inner.ts, start_ts, Arc::clone(&batch))
                        }
                        // No WAL: published immediately; the timestamp is
                        // issued inside the registry lock so no reader can
                        // observe it before the fate is set.
                        None => self.inner.registry.commit(start_ts, &self.inner.ts),
                    };
                    if let Some(admitted) = admitted {
                        admitted.record(commit_ts);
                    }
                    for &key in &write_keys {
                        self.inner.mvcc.record_commit(key, commit_ts);
                    }
                    let counters = &self.inner.counters;
                    counters.rows_recorded.add(write_keys.len() as u64);
                    counters.commits.inc();
                    Ok(commit_ts)
                }
                Err(reason) => {
                    self.inner.counters.count_abort(reason);
                    self.inner.registry.settle(start_ts, TxnStatus::Aborted);
                    if let Some(pipeline) = pipeline {
                        pipeline.push_abort(start_ts);
                    }
                    Err(Error::Aborted(reason))
                }
            }
        };

        obs.conflict_check_us
            .record(self.inner.now_us().saturating_sub(decide_began_us));

        // With a WAL, wait for the group-commit outcome (possibly leading the
        // flush ourselves): the commit is visible once that returns `Ok`.
        let decision = decision.and_then(|commit_ts| {
            if let Some(pipeline) = pipeline {
                let wait_began_us = self.inner.now_us();
                let outcome = pipeline.sync_commit(commit_ts, &self.inner.publish_ctx());
                obs.wal_wait_us
                    .record(self.inner.now_us().saturating_sub(wait_began_us));
                outcome?;
            }
            Ok(commit_ts)
        });

        // Deregistration comes last on either path, so the GC watermark
        // cannot pass a commit's pending or still unstamped versions, and
        // the store frees no node the apply, stamp or cleanup walks.
        let result = match decision {
            Ok(commit_ts) => {
                // Stamp commit timestamps onto the versions (§2.2's "written
                // back into the database" option), so readers skip the
                // registry lookup. Correctness rests on it too: deregistering
                // drops the fate, so from then on the stamp is what carries
                // the commit — a live unstamped version belongs to a
                // registered writer. The owner stamps on its own time, with
                // or without a WAL; no begin and no other committer waits
                // for it.
                self.inner
                    .mvcc
                    .stamp_commit(start_ts, commit_ts, &write_rows, &batch);
                // This commit's share of the collection the last tick dealt
                // out, while registration still covers the sweep's
                // lock-free prefetch walks.
                self.inner.mvcc.collect_share(&self.inner.registry);
                self.inner.registry.deregister(start_ts);
                self.tick();
                Ok(commit_ts)
            }
            Err(e) => {
                // Refused by the conflict check, or overturned by a quorum
                // loss before publication: the versions are still tagged
                // pending — remove them, outside the critical section.
                self.inner
                    .mvcc
                    .remove_versions(start_ts, &write_rows, &batch);
                self.inner.registry.deregister(start_ts);
                Err(e)
            }
        };

        match &result {
            Ok(commit_ts) => obs.journal.record(
                start_ts.raw(),
                EventData::Commit {
                    commit_ts: commit_ts.raw(),
                },
            ),
            Err(Error::Aborted(reason)) => {
                obs.journal
                    .record(start_ts.raw(), EventData::Abort(reason.journal_cause()));
            }
            // A quorum-loss overturn is recorded by the pipeline leader (as
            // an `Overturn` event, possibly for several riders of the failed
            // batch), not here.
            Err(_) => {}
        }

        if result.is_ok() {
            let end_us = self.inner.now_us();
            obs.commit_us.record(end_us.saturating_sub(decide_began_us));
            obs.txn_us.record(end_us.saturating_sub(began_us));
        }
        result
    }

    /// Algorithm 1's or 2's check of a write transaction that started at
    /// `start_ts`: the keys it wrote (`write_rows` and the entries
    /// `write_keys`) under SI and SSI, or those it read under WSI, each
    /// against the `lastCommit` word of its entry — probed in that order,
    /// the first conflict ending the check. A key read while it had no
    /// entry is looked up again: a writer creates the entry before its own
    /// decision, so one that committed since is found (DESIGN.md §5).
    /// Caller holds the decision lock.
    fn check(
        &self,
        start_ts: Timestamp,
        reads: &ReadSet,
        write_rows: &[RowId],
        write_keys: &[KeyId],
    ) -> std::result::Result<(), AbortReason> {
        let level = self.inner.options.isolation;
        let mvcc = &self.inner.mvcc;
        // Counted in one atomic add, early-abort exits included.
        let mut checked = 0u64;
        let mut probe = |row: RowId, key: Option<KeyId>| {
            checked += 1;
            let last = key.map_or(Probe::NeverWritten, |key| mvcc.last_commit(key));
            let verdict = check_row_probe(level, row, last, start_ts);
            self.inner.obs.journal.record(
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
            verdict
        };
        let verdict = match level {
            IsolationLevel::Snapshot | IsolationLevel::SerializableSnapshot => write_rows
                .iter()
                .zip(write_keys)
                .try_for_each(|(&row, &key)| probe(row, Some(key))),
            IsolationLevel::WriteSnapshot => reads.iter().try_for_each(|(row, read)| {
                let key = match read {
                    ReadKey::Entry(key) => Some(*key),
                    ReadKey::Absent(key) => mvcc.key_id(key, row),
                };
                probe(row, key)
            }),
        };
        if checked > 0 {
            self.inner.counters.rows_checked.add(checked);
        }
        verdict
    }

    /// The read-only commit under SSI: a snapshot read can complete a
    /// dangerous structure as its third transaction (Fekete's read-only
    /// anomaly), so the reads go to the window like a writer's — rule 2 may
    /// refuse them — and stay there, stamped from the shared counter, for
    /// later writers to be checked against. The caller-visible commit
    /// timestamp remains the start timestamp.
    fn admit_read_only(
        &self,
        window: &Mutex<SsiWindow>,
        start_ts: Timestamp,
        reads: &ReadSet,
    ) -> std::result::Result<(), AbortReason> {
        if reads.is_empty() {
            return Ok(());
        }
        let read_rows = reads.rows();
        let mut window = window.lock();
        let admitted = window.admit(start_ts, &read_rows, &[])?;
        admitted.record(self.inner.ts.next());
        // Read-only entries do not tick the commit counter that prunes the
        // window for writers, so they watch its growth themselves.
        let overdue = window.grown_since_prune() as u64 >= TICK_EVERY;
        drop(window);
        if overdue {
            self.prune_window(self.inner.registry.watermark(&self.inner.ts));
        }
        Ok(())
    }

    /// Drops the SSI window's entries below `watermark`, a lower bound on
    /// every active and future snapshot: no transaction that could still
    /// commit is concurrent with them.
    fn prune_window(&self, watermark: Timestamp) {
        if let Some(window) = &self.inner.window {
            window.lock().prune(watermark);
        }
    }

    /// Rolls back an unfinished transaction. Called by
    /// [`Transaction::rollback`] and on drop.
    ///
    /// Deregisters only: its buffered writes never reached the store, so
    /// no reader can ask for its fate, and it never wrote a `lastCommit`
    /// word, so the conflict check has nothing to learn from it.
    pub(crate) fn rollback_txn(&self, start_ts: Timestamp, wrote: bool) {
        self.inner.counters.client_aborts.inc();
        self.inner.registry.deregister(start_ts);
        // A transaction's journal stream starts at its first write (see
        // `Transaction::put`); rolling back a transaction that never wrote
        // is a non-event for conflict forensics.
        if wrote {
            self.inner
                .journal()
                .record(start_ts.raw(), EventData::Abort(Cause::Client));
        }
    }

    /// Flushes any WAL records still queued: abort and reservation records
    /// are never flush-critical, so they may trail the last acknowledged
    /// commit.
    ///
    /// # Errors
    ///
    /// Propagates a quorum loss from the ledger.
    pub fn flush_wal(&self) -> Result<()> {
        let Some(pipeline) = &self.inner.pipeline else {
            return Ok(());
        };
        pipeline.flush_all(&self.inner.publish_ctx())?;
        Ok(())
    }

    /// Returns a point-in-time clone of the write-ahead log, emulating the
    /// surviving replicated storage after a crash of this process. Feed it
    /// to [`Db::recover`]. Records still queued in the pipeline are not
    /// included — they would not have survived the crash either.
    pub fn wal_snapshot(&self) -> Option<Ledger> {
        self.inner
            .pipeline
            .as_ref()
            .map(|pipeline| pipeline.ledger_snapshot())
    }

    /// Injects a failure into bookie `idx` of the live WAL — the
    /// failure-injection hook that lets tests and simulations exercise
    /// quorum loss on a running database. No-op without a WAL.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the configured replica count.
    pub fn fail_wal_bookie(&self, idx: usize) {
        if let Some(pipeline) = &self.inner.pipeline {
            pipeline.with_ledger_mut(|ledger| ledger.fail_bookie(idx));
        }
    }

    /// Fails bookie `idx` of the live WAL once it has accepted `flushes`
    /// more flush rounds: a failure between two rounds one call makes, such
    /// as a write commit's own and the checkpoint its tick writes.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the configured replica count.
    pub fn fail_wal_bookie_after(&self, idx: usize, flushes: u64) {
        if let Some(pipeline) = &self.inner.pipeline {
            pipeline.with_ledger_mut(|ledger| ledger.fail_bookie_after(idx, flushes));
        }
    }

    /// Recovers bookie `idx` of the live WAL (inverse of
    /// [`Db::fail_wal_bookie`]); its pre-failure entries are intact.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the configured replica count.
    pub fn recover_wal_bookie(&self, idx: usize) {
        if let Some(pipeline) = &self.inner.pipeline {
            pipeline.with_ledger_mut(|ledger| ledger.recover_bookie(idx));
        }
    }

    /// Garbage-collects versions below the low-water mark (the minimum start
    /// timestamp among active transactions), and drops the SSI window's
    /// entries below it.
    /// Then frees every retired version no transaction can still reach, the
    /// sweep's own included. On a durable database it last writes a
    /// checkpoint — every key's newest committed version below a
    /// gate-stable snapshot — when the log written since the newest one is
    /// at least as large as it, and truncates the log behind it once it is
    /// durable: the log follows the live data.
    ///
    /// Nothing waits for this call: every 256 write commits a tick deals
    /// the keys written and the versions retired since the last one out as
    /// per-commit shares, which each write commit sweeps and frees before
    /// it deregisters, and on a durable database writes the checkpoint that
    /// is due. So chains, limbo and the log stay bounded with no `gc` at
    /// all. `gc` is the explicit "collect now": it sweeps every queued key,
    /// both worklist generations, at a fresh watermark, and checkpoints if
    /// one is due. Its [`GcStats`] count its own sweep only, not what the
    /// shares collected before it.
    ///
    /// The watermark is computed under the registry lock, so no begin can
    /// issue a smaller snapshot concurrently — the mark is a true lower
    /// bound for all current and future readers.
    pub fn gc(&self) -> GcStats {
        // The sweep registers like a reader: its chain prefetch walks
        // without the entry lock.
        let (watermark, stats) = self.registered(|_| {
            let watermark = self.inner.registry.watermark(&self.inner.ts);
            let stats = self.inner.mvcc.gc(watermark, &self.inner.registry);
            (watermark, stats)
        });
        self.prune_window(watermark);
        self.maintain();
        if let Some(pipeline) = &self.inner.pipeline {
            self.checkpoint(pipeline);
        }
        stats
    }

    /// Writes a checkpoint if one is due — the log written since the newest
    /// one is at least as large as it — and truncates the log behind it
    /// once it is durable.
    ///
    /// The checkpoint is taken at a snapshot `S` registered like a reader's
    /// and gated like a begin, so every commit below `S` is resolved. Its
    /// cut is the end of the last flush whose commits are all below `S`;
    /// the reservation bound is read after the cut is, so it covers every
    /// reservation record the cut drops. It is encoded as the scan of the
    /// key order visits each key, under the order's read lock (which holds
    /// off only key creation), and appended through the pipeline
    /// like any other record. A quorum loss abandons it and leaves the log
    /// whole; the next due tick (or `gc`) tries again. While another
    /// thread writes one, this returns at once.
    fn checkpoint(&self, pipeline: &CommitPipeline) {
        if self.inner.checkpointing.swap(true, Ordering::Acquire) {
            return;
        }
        self.write_checkpoint_if_due(pipeline);
        self.inner.checkpointing.store(false, Ordering::Release);
    }

    fn write_checkpoint_if_due(&self, pipeline: &CommitPipeline) {
        if !pipeline.checkpoint_due() {
            return;
        }
        let checkpoint = self.registered(|start_ts| {
            pipeline.wait_snapshot_stable(start_ts);
            let cut = pipeline.cut_for(start_ts)?;
            let reserved = self.inner.ts.reserved();
            let mut writer = CheckpointWriter::new(cut.seq, start_ts, reserved, cut.census);
            self.inner.mvcc.checkpoint_entries(
                start_ts,
                &self.inner.registry,
                |key, ws, cts, value| writer.push(key, ws, cts, value),
            );
            Some(PendingCheckpoint {
                payload: writer.finish(),
                cut: cut.seq,
            })
        });
        if let Some(checkpoint) = checkpoint {
            // A quorum loss abandons the checkpoint; the owners of any
            // commits its round carried are told through their outcomes.
            let _ = pipeline.checkpoint(checkpoint, &self.inner.publish_ctx());
        }
    }

    /// Every [`TICK_EVERY`] write commits, computes the registry watermark
    /// `W` and paces the collector with it: the store notes `W` for
    /// insert-time pruning and the commit shares and deals its backlogs
    /// out, and the SSI window drops its entries below it. `W` is a true
    /// lower bound on every active and future snapshot, so all of it is
    /// sound (if stale, conservative). The tick takes no decision lock.
    ///
    /// On a durable database the tick then writes a checkpoint if one is
    /// due, from the committing thread, which has already deregistered: so
    /// the log stays under about twice the live state plus one tick
    /// interval whether or not anyone calls [`Db::gc`].
    fn tick(&self) {
        if self.inner.ticks.0.fetch_add(1, Ordering::Relaxed) % TICK_EVERY == TICK_EVERY - 1 {
            let watermark = self.inner.registry.watermark(&self.inner.ts);
            self.inner.mvcc.deal_shares(watermark, TICK_EVERY as usize);
            self.prune_window(watermark);
            if let Some(pipeline) = &self.inner.pipeline {
                self.checkpoint(pipeline);
            }
        }
    }

    /// Aggregate statistics.
    ///
    /// Reads the decision counters and the WAL's observability counters
    /// directly, without acquiring the decision lock; the one lock
    /// it takes is the GC worklist's spin lock, for one length read — safe
    /// to poll from a monitoring thread without perturbing committers.
    pub fn stats(&self) -> DbStats {
        let wal = self
            .inner
            .wal_obs
            .as_ref()
            .map_or_else(LedgerStats::default, LedgerObs::stats);
        // Yields both totals and sets the footprint gauges, so the
        // exposition and `DbStats` agree. Reads the store's incremental
        // counts; no chain is walked.
        let (keys, versions) = self.inner.mvcc.footprint();
        DbStats {
            oracle: self.inner.counters.view(),
            active_transactions: self.inner.registry.count(),
            keys,
            versions,
            wal,
        }
    }

    /// Frees every retired version the registry watermark has passed, in
    /// one batch. The write path already does this in per-commit shares of
    /// what each tick (every 256 write commits) found retired; exposing it
    /// directly lets stress harnesses race reclamation against live
    /// snapshots at chosen points rather than waiting for the shares.
    pub fn maintain(&self) {
        self.inner
            .mvcc
            .maintain(self.inner.registry.watermark(&self.inner.ts));
    }

    /// Runs `f` registered in the active-transaction registry at the start
    /// timestamp it is passed, so the version store frees no node `f` can
    /// still reach.
    fn registered<T>(&self, f: impl FnOnce(Timestamp) -> T) -> T {
        let start_ts = self.inner.registry.register(&self.inner.ts);
        let out = f(start_ts);
        self.inner.registry.deregister(start_ts);
        out
    }

    /// Reclamation accounting of the version store. Reads the same counters
    /// as the exported `store_versions_*` series, so the identity
    /// `retired == freed + limbo` is exact at any quiescent point.
    pub fn reclamation(&self) -> ReclamationStats {
        self.inner.mvcc.reclamation()
    }

    /// Dumps every stored version's `(writer_start, committed_at)` raw
    /// timestamp stamps, keyed and ordered by key — a diagnostic accessor
    /// letting tests assert that a post-crash WAL replay re-derives exactly
    /// the eager commit stamps the live database had.
    pub fn version_stamps(&self) -> VersionStamps {
        self.registered(|_| self.inner.mvcc.dump_stamps())
    }

    /// The store's metric registry, its footprint gauges set first. Series
    /// from every layer — `oracle_*`, `wal_*`, `store_*` — are registered
    /// here.
    pub fn obs_registry(&self) -> &wsi_obs::Registry {
        self.inner.mvcc.footprint();
        &self.inner.obs.registry
    }

    /// A point-in-time snapshot of every registered metric, the footprint
    /// gauges set first. Always `Some`.
    pub fn obs_snapshot(&self) -> Option<wsi_obs::Snapshot> {
        Some(self.obs_registry().snapshot())
    }

    /// Renders every registered metric in Prometheus text exposition
    /// format, the footprint gauges set first.
    pub fn render_prometheus(&self) -> String {
        self.obs_registry().snapshot().render_prometheus()
    }

    /// The flight-recorder journal; always `Some`. Every layer records into
    /// it: begins, per-row conflict-check verdicts, commit/abort outcomes
    /// with culprit attribution, WAL flush/publish/overturn, and GC sweeps
    /// and reclamation.
    pub fn journal(&self) -> Option<&Journal> {
        Some(self.inner.journal())
    }

    /// Forensic report for an aborted transaction: the abort's cause, the
    /// committed transactions it blames (resolved through their `Commit`
    /// events), and the joined causal timeline of victim and culprits —
    /// `None` when the journal holds no abort for `start_ts` (e.g. already
    /// overwritten by ring wrap).
    pub fn explain_abort(&self, start_ts: Timestamp) -> Option<AbortExplanation> {
        self.inner.journal().explain_abort(start_ts.raw())
    }
}

/// Full-jitter backoff: uniform in `[0, base << min(attempt, cap))`,
/// scrambled from the clock with an xorshift step so concurrent retriers
/// decorrelate without a PRNG dependency.
fn backoff_us(attempt: usize, seed: u64) -> u64 {
    let ceiling = BACKOFF_BASE_US << attempt.min(BACKOFF_MAX_SHIFT);
    let mut x = seed | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x % ceiling
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("isolation", &self.inner.options.isolation)
            .field("durable", &self.inner.pipeline.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_then_caps() {
        for attempt in 1..=20 {
            let ceiling = BACKOFF_BASE_US << attempt.min(BACKOFF_MAX_SHIFT);
            for seed in [1, 7, 12345, u64::MAX] {
                assert!(backoff_us(attempt, seed) < ceiling);
            }
        }
        // The cap: attempt 20 draws from the same range as attempt 6.
        assert_eq!(
            BACKOFF_BASE_US << 20usize.min(BACKOFF_MAX_SHIFT),
            BACKOFF_BASE_US << 6
        );
    }

    #[test]
    fn ssi_window_stays_bounded_through_a_read_only_burst() {
        // Read-only commits leave window entries but never tick the commit
        // counter; the window's own growth must trigger its pruning.
        let db = Db::open(DbOptions::new(IsolationLevel::SerializableSnapshot));
        let window_len = || db.inner.window.as_ref().expect("ssi").lock().len() as u64;
        let mut seed = db.begin();
        seed.put(b"k", b"v");
        seed.commit().unwrap();
        for _ in 0..4 * TICK_EVERY {
            let mut reader = db.begin();
            let _ = reader.get(b"k");
            reader.commit().unwrap();
            // No transaction is live here, so nothing pins an entry.
            assert!(window_len() <= TICK_EVERY);
        }
        db.gc();
        assert_eq!(window_len(), 0, "gc prunes the window too");
        assert!(Db::open(DbOptions::new(IsolationLevel::WriteSnapshot))
            .inner
            .window
            .is_none());
    }

    /// A read that found no entry, then a writer that creates the key and
    /// commits (or is refused) before the reader's decision.
    #[test]
    fn a_read_of_an_absent_key_meets_the_keys_creator() {
        let level = |isolation| DbOptions::new(isolation);
        for (options, creator_commits, reader_aborts) in [
            (level(IsolationLevel::WriteSnapshot), true, true),
            (level(IsolationLevel::WriteSnapshot), false, false),
            (level(IsolationLevel::Snapshot), true, false),
        ] {
            let db = Db::open(options);
            let mut reader = db.begin();
            assert_eq!(reader.get(b"new"), None);
            reader.put(b"out", b"v");
            let mut creator = db.begin();
            let _ = creator.get(b"x");
            creator.put(b"new", b"v");
            if !creator_commits {
                // Refused: `x` was rewritten after the creator read it. Its
                // insert created the entry of `new` all the same.
                let mut rewrite = db.begin();
                rewrite.put(b"x", b"v");
                rewrite.commit().unwrap();
            }
            let created = creator.commit();
            assert_eq!(created.is_ok(), creator_commits);
            let row = hash_row_key(b"new");
            assert!(db.inner.mvcc.key_id(b"new", row).is_some());
            match (reader.commit(), created) {
                (Err(Error::Aborted(reason)), Ok(commit_ts)) if reader_aborts => assert_eq!(
                    reason,
                    AbortReason::ReadWriteConflict {
                        row,
                        committed_at: commit_ts
                    }
                ),
                (outcome, _) => assert!(outcome.is_ok() && !reader_aborts, "{outcome:?}"),
            }
        }
    }

    #[test]
    fn a_reader_held_across_ticks_still_meets_a_rewrite() {
        let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
        let write = |key: &[u8]| {
            let mut t = db.begin();
            t.put(key, b"v");
            t.commit().unwrap()
        };
        write(b"k");
        let mut reader = db.begin();
        let _ = reader.get(b"k");
        reader.put(b"out", b"v");
        let rewritten = write(b"k");
        let ticks = db.inner.ticks.0.load(Ordering::Relaxed) / TICK_EVERY;
        for i in 0..4 * TICK_EVERY {
            write(format!("k{i}").as_bytes());
        }
        db.gc();
        assert!(db.inner.ticks.0.load(Ordering::Relaxed) / TICK_EVERY >= ticks + 4);
        assert_eq!(
            reader.commit(),
            Err(Error::Aborted(AbortReason::ReadWriteConflict {
                row: hash_row_key(b"k"),
                committed_at: rewritten
            }))
        );
    }

    #[test]
    fn no_transaction_after_recovery_meets_a_replayed_commit() {
        for isolation in [IsolationLevel::Snapshot, IsolationLevel::WriteSnapshot] {
            let options = DbOptions::new(isolation).durable(LedgerConfig::local_sync());
            let db = Db::open(options.clone());
            let keys: Vec<Vec<u8>> = (0..8u8).map(|i| vec![b'k', i]).collect();
            // Two rounds of every key, a checkpoint between them: recovery
            // installs the first and replays the second.
            for round in 0..2 {
                for key in &keys {
                    let mut t = db.begin();
                    t.put(key, b"v");
                    t.commit().unwrap();
                }
                if round == 0 {
                    db.gc();
                }
            }
            let db = Db::recover(options, db.wal_snapshot().expect("durable")).unwrap();
            for key in &keys {
                let id = db
                    .inner
                    .mvcc
                    .key_id(key, hash_row_key(key))
                    .expect("recovered");
                assert_eq!(db.inner.mvcc.last_commit(id), Probe::NeverWritten);
            }
            // Every start is above every replayed commit: a transaction
            // that reads and writes every key commits.
            let mut t = db.begin();
            for key in &keys {
                assert!(t.get(key).is_some());
                t.put(key, b"w");
            }
            assert!(t.commit().is_ok(), "{isolation}: refused after recovery");
        }
    }

    #[test]
    fn limbo_holds_only_what_a_live_transaction_can_reach() {
        let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
        let reclamation = || db.reclamation();
        // One tick's worth of write commits to a hot key, every sixteenth
        // beside a reader of the key that is then refused: its abort,
        // chain migration, insert-time pruning and the commit shares all
        // retire versions. The last commit of the round runs the tick,
        // which deals what is in limbo out to the next round's commits.
        // Returns the lifetime retire count at the round's end.
        let round = || {
            let retired = reclamation().retired;
            for i in 0..TICK_EVERY {
                let mut loser = (i % 16 == 0).then(|| db.begin());
                if let Some(loser) = &mut loser {
                    let _ = loser.get(b"hot");
                    loser.put(b"hot", b"lost");
                }
                let mut t = db.begin();
                t.put(b"hot", b"v");
                t.commit().unwrap();
                if let Some(loser) = loser {
                    assert!(loser.commit().is_err(), "read what a commit overwrote");
                }
            }
            let now = reclamation().retired;
            assert!(now > retired, "the round retired versions");
            now
        };
        // No transaction outlives its round: after round k + 1 nothing
        // that round k retired is left (limbo frees in tag order).
        let mut retired = round();
        for _ in 0..3 {
            let next = round();
            assert!(
                reclamation().freed >= retired,
                "round k's retirements outlived round k + 1"
            );
            retired = next;
        }
        // A transaction held open holds back every tag drawn after its
        // start, through every tick.
        let held = db.begin();
        round();
        let mut limbo = reclamation().limbo;
        for _ in 0..3 {
            round();
            assert!(reclamation().limbo > limbo, "limbo only grows");
            limbo = reclamation().limbo;
        }
        // Once it ends, the round after the next tick frees all of it ...
        drop(held);
        let retired = round();
        round();
        assert!(reclamation().freed >= retired);
        // ... and `gc` empties limbo.
        let held = db.snapshot();
        round();
        assert!(reclamation().limbo > 0);
        drop(held);
        db.gc();
        let rec = reclamation();
        assert_eq!((rec.limbo, rec.retired), (0, rec.freed));
    }

    #[test]
    fn collection_keeps_up_without_gc() {
        // A key space wider than a tick's writes, and one hot key that
        // every commit rewrites.
        for (keys, ticks) in [(1_000, 64), (1, 8)] {
            collects_without_gc(keys, ticks);
        }
    }

    /// Runs `ticks` ticks of write commits of up to four keys drawn from
    /// `keys`, then holds a snapshot across a few more, with no `gc`.
    fn collects_without_gc(keys: u64, ticks: u64) {
        const WRITES: u64 = 4;
        let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
        let visited = || db.obs_snapshot().expect("obs on").counters["store_gc_keys_visited_total"];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        // One write commit of `WRITES` keys drawn from `keys`.
        let mut commit = || {
            let mut t = db.begin();
            for _ in 0..WRITES {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                t.put(format!("k{:04}", x % keys).as_bytes(), b"v");
            }
            t.commit().unwrap();
        };
        // No `gc`: versions and limbo stay within what the last two ticks
        // wrote and retired — for a hot key, two ticks of its versions and
        // the one visible — and once a commit has returned the registry
        // holds no entry.
        let mut retired_at_tick = [0u64; 2];
        for _ in 0..ticks {
            for _ in 0..TICK_EVERY {
                commit();
                let rec = db.reclamation();
                assert!(db.stats().versions as u64 <= keys + 2 * TICK_EVERY * WRITES.min(keys));
                assert_eq!(db.inner.registry.count(), 0);
                assert!(
                    rec.limbo <= rec.retired - retired_at_tick[0],
                    "limbo {} > two ticks' retirements {}",
                    rec.limbo,
                    rec.retired - retired_at_tick[0]
                );
            }
            retired_at_tick = [retired_at_tick[1], db.reclamation().retired];
        }
        // A held snapshot pins the watermark: once a tick has noted it and
        // the round after has swept what was dealt, ticks deal no sweep
        // share, and commits visit no key.
        let held = db.snapshot();
        for _ in 0..2 * TICK_EVERY {
            commit();
        }
        let before = visited();
        for _ in 0..4 * TICK_EVERY {
            commit();
        }
        assert_eq!(visited(), before, "a held snapshot costs no commit a sweep");
        drop(held);
        for _ in 0..2 * TICK_EVERY {
            commit();
        }
        assert!(visited() > before, "the shares resume once it ends");
    }

    /// The payloads of a durable database's retained log, the newest
    /// checkpoint's size among them, and the largest other record's.
    fn retained(db: &Db) -> (u64, u64, u64) {
        let payloads = db.wal_snapshot().expect("durable").recover();
        let is_checkpoint = |p: &Bytes| matches!(record::decode(p), Ok(StoreRecord::Checkpoint(_)));
        let checkpoint = payloads
            .iter()
            .rev()
            .find(|p| is_checkpoint(p))
            .map_or(0, |p| p.len() as u64);
        let record = payloads
            .iter()
            .filter(|p| !is_checkpoint(p))
            .map(|p| p.len() as u64)
            .max()
            .unwrap_or(0);
        (
            payloads.iter().map(|p| p.len() as u64).sum(),
            checkpoint,
            record,
        )
    }

    /// Nobody calls `gc`: the tick writes every checkpoint. The log holds
    /// at most the newest checkpoint, a log as large since it and one tick
    /// interval of records, and the pipeline at most one tick interval of
    /// flush marks.
    #[test]
    fn a_durable_log_stays_bounded_with_no_gc() {
        let db = Db::open(
            DbOptions::new(IsolationLevel::WriteSnapshot).durable(LedgerConfig::local_sync()),
        );
        let pipeline = db.inner.pipeline.as_ref().expect("durable");
        for i in 0..64 * TICK_EVERY {
            let mut t = db.begin();
            t.put(format!("k{:04}", i * 7 % 1024).as_bytes(), &[b'v'; 32]);
            t.commit().unwrap();
            let marks = pipeline.marks();
            assert!(
                marks <= TICK_EVERY as usize + 1,
                "commit {i}: {marks} marks"
            );
            // The log peaks just before a tick checkpoints; reading it
            // decodes the whole log, so only around ticks and now and then.
            if (i + 2) % TICK_EVERY > 1 && i % 16 != 0 {
                continue;
            }
            let (bytes, checkpoint, record) = retained(&db);
            assert!(
                bytes <= 2 * checkpoint + TICK_EVERY * record,
                "commit {i}: {bytes} B retained, checkpoint {checkpoint} B, records ≤ {record} B"
            );
        }
        let checkpoints = db.inner.obs.checkpoints.get();
        assert!(checkpoints >= 8, "{checkpoints} checkpoints in 64 ticks");
        let logged = db.stats().wal.payload_bytes;
        let (bytes, _, _) = retained(&db);
        assert!(logged > 10 * bytes, "{logged} B logged, {bytes} B retained");
    }

    #[test]
    fn a_durable_logs_retained_bytes_stay_under_the_checkpoint_bound() {
        let db = Db::open(
            DbOptions::new(IsolationLevel::WriteSnapshot).durable(LedgerConfig::local_sync()),
        );
        let logged = || db.stats().wal.payload_bytes;
        for round in 0..60u64 {
            let before = logged();
            for i in 0..300u64 {
                let mut t = db.begin();
                t.put(
                    format!("k{:03}", (i * 7 + round) % 200).as_bytes(),
                    &[b'v'; 32],
                );
                t.commit().unwrap();
            }
            let round_bytes = logged() - before;
            db.gc();
            let (bytes, checkpoint, _) = retained(&db);
            // Never more than the newest checkpoint, a log as large since
            // it, and the round that brought the next one due.
            assert!(checkpoint > 0, "round {round}: a checkpoint is retained");
            assert!(
                bytes <= 2 * checkpoint + round_bytes,
                "round {round}: {bytes} B retained, checkpoint {checkpoint} B, round {round_bytes} B"
            );
        }
        // Without truncation the log would hold everything ever logged.
        let (bytes, _, _) = retained(&db);
        assert!(
            logged() > 20 * bytes,
            "{} B logged, {bytes} B retained",
            logged()
        );
    }

    #[test]
    fn a_checkpoint_cut_keeps_every_commit_at_or_above_its_snapshot() {
        let db = Db::open(
            DbOptions::new(IsolationLevel::WriteSnapshot).durable(LedgerConfig::local_sync()),
        );
        let commit = |key: &[u8]| {
            let mut t = db.begin();
            t.put(key, b"v");
            t.commit().unwrap()
        };
        for i in 0..5u8 {
            commit(&[i]);
        }
        // A gate-stable snapshot, then commits above it that reach the log
        // before the cut is chosen.
        let snapshot = db.begin().start_ts();
        let above: Vec<Timestamp> = (5..9u8).map(|i| commit(&[i])).collect();
        let pipeline = db.inner.pipeline.as_ref().expect("durable");
        let cut = pipeline.cut_for(snapshot).expect("commits below to cut");
        let ledger = db.wal_snapshot().expect("durable");
        let records: Vec<StoreRecord> = ledger
            .recover()
            .iter()
            .map(|p| record::decode(p).unwrap())
            .collect();
        let commit_ts_at = |seq: u64| match &records[seq as usize] {
            StoreRecord::Commit { commit_ts, .. } => Some(*commit_ts),
            _ => None,
        };
        let (below, kept): (Vec<u64>, Vec<u64>) = (0..records.len() as u64)
            .filter(|&seq| commit_ts_at(seq).is_some())
            .partition(|&seq| seq < cut.seq);
        assert!(below.iter().all(|&seq| commit_ts_at(seq) < Some(snapshot)));
        assert_eq!(
            kept.iter()
                .filter_map(|&seq| commit_ts_at(seq))
                .collect::<Vec<_>>(),
            above,
            "every commit above the snapshot stays"
        );
        assert_eq!(
            cut.census.commits, 5,
            "the census counts what the cut drops"
        );
    }

    const LEVELS: [IsolationLevel; 3] = [
        IsolationLevel::Snapshot,
        IsolationLevel::WriteSnapshot,
        IsolationLevel::SerializableSnapshot,
    ];

    /// Commits a write of `key` in a transaction of its own.
    fn write(db: &Db, key: &[u8], value: &[u8]) -> Timestamp {
        let mut t = db.begin();
        t.put(key, value);
        t.commit().unwrap()
    }

    /// One attempt of a contended run, its `calls`th: reads and writes `k`.
    /// The first [`ESCALATE_AFTER`] attempts also commit a rival write of
    /// `k` before they return, which aborts them at every level. Returns
    /// whether this attempt is the escalated one.
    fn contended(db: &Db, t: &mut Transaction, calls: &mut usize) -> bool {
        *calls += 1;
        let _ = t.get(b"k");
        t.put(b"k", calls.to_string().as_bytes());
        if *calls <= ESCALATE_AFTER {
            write(db, b"k", b"rival");
        }
        *calls > ESCALATE_AFTER
    }

    /// Whether nobody holds the serial token.
    fn released(db: &Db) -> bool {
        let serial = &db.inner.serial;
        serial.holder.load(Ordering::Relaxed) == 0 && serial.lock.try_lock().is_some()
    }

    /// While the token is held, a write commit waits before its decision:
    /// its version is in the store, but no commit is counted. It decides
    /// once the holder has committed and released the token.
    #[test]
    fn a_write_commit_waits_for_the_serial_token_and_commits_after_its_holder() {
        for level in LEVELS {
            let db = Db::open(DbOptions::new(level));
            write(&db, b"k", b"0");
            let token = db.escalate();
            let mut holder = db.begin();
            token.hold_for(holder.start_ts(), ESCALATE_AFTER as u32 + 1);
            let _ = holder.get(b"k");
            holder.put(b"k", b"holder");
            let versions = db.stats().versions;
            let commits = db.stats().oracle.commits;
            std::thread::scope(|s| {
                let rival = s.spawn(|| write(&db, b"other", b"rival"));
                while db.stats().versions == versions {
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_millis(20));
                assert!(!rival.is_finished(), "{level}: the rival waits");
                assert_eq!(db.stats().oracle.commits, commits, "{level}: undecided");
                let held = holder.commit().expect("the holder commits");
                drop(token);
                let rival = rival.join().expect("the rival commits");
                assert!(held < rival, "{level}: the rival decided after the holder");
            });
            assert!(released(&db));
        }
    }

    /// A run whose first [`ESCALATE_AFTER`] attempts each meet a
    /// conflicting commit takes the token for the next, if a retry remains,
    /// and that attempt commits.
    #[test]
    fn an_escalated_attempt_commits() {
        for level in LEVELS {
            let db = Db::open(DbOptions::new(level));
            let mut calls = 0;
            let refused = db.run(ESCALATE_AFTER - 1, |t| {
                contended(&db, t, &mut calls);
                Ok(())
            });
            assert!(matches!(refused, Err(Error::Aborted(_))), "{level}");
            assert_eq!(db.inner.obs.escalations.get(), 0, "no retry was left");
            let mut calls = 0;
            db.run(ESCALATE_AFTER, |t| {
                contended(&db, t, &mut calls);
                Ok(())
            })
            .expect("the escalated attempt commits");
            let attempts = ESCALATE_AFTER as u32 + 1;
            assert_eq!(db.last_txn_report().map(|r| r.attempts), Some(attempts));
            assert_eq!(db.inner.obs.escalations.get(), 1, "{level}");
            assert!(released(&db));
            let mut r = db.begin();
            assert_eq!(r.get(b"k").as_deref(), Some(&b"9"[..]), "{level}");
        }
    }

    /// The token goes with the run however it returns: with the body's
    /// error, or by a panic out of the body.
    #[test]
    fn a_failing_body_releases_the_serial_token() {
        for level in LEVELS {
            let db = Db::open(DbOptions::new(level));
            let own = Error::Corrupt("the body's own error".into());
            let mut calls = 0;
            let failed = db.run(ESCALATE_AFTER, |t| {
                if contended(&db, t, &mut calls) {
                    return Err(own.clone());
                }
                Ok(())
            });
            assert_eq!(failed, Err(own.clone()), "{level}");
            assert!(released(&db), "{level}: released after an error");
            let mut calls = 0;
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                db.run(ESCALATE_AFTER, |t| {
                    assert!(!contended(&db, t, &mut calls), "the body panics");
                    Ok(())
                })
            }));
            assert!(panicked.is_err(), "{level}");
            assert!(released(&db), "{level}: released after a panic");
            assert_eq!(db.inner.obs.escalations.get(), 2, "{level}");
            write(&db, b"k", b"after");
        }
    }
}
