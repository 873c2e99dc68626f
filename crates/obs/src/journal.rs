//! The flight recorder: an always-on, lock-free causal event journal.
//!
//! Aggregate counters answer *how many* aborts happened; they cannot answer
//! "why did transaction 4217 abort, who was the culprit, and what was the
//! timeline?". The journal closes that gap: every transaction lifecycle
//! event — begin, per-row conflict-check verdict, WAL flush, publish, GC and
//! reclamation, and abort with its full reason **plus culprit
//! attribution** — is written into a fixed-capacity ring of per-shard
//! seqlock slots, cheap enough to leave on in production and replayable into
//! a forensic timeline after the fact.
//!
//! # Memory model
//!
//! * **Per-shard rings.** Events are written into one of [`JOURNAL_SHARDS`]
//!   rings chosen by the caller's thread slot (the same assignment the
//!   sharded counters use), so concurrent writers on different threads never
//!   contend on a slot or bounce a head pointer's cache line.
//! * **Seqlock slots.** A slot is eight atomic words: a stamp plus the
//!   event's fields. A writer claims a ring index with one `fetch_add` on
//!   the shard head, stamps the slot *odd* (writing), stores the payload,
//!   then stamps it *even* encoding the claimed index. Readers accept a slot
//!   only if the stamp reads even, encodes the index being scanned, and is
//!   unchanged after the payload loads — torn or overwritten slots are
//!   silently dropped, never misread. All of this is safe Rust: every word
//!   is an [`AtomicU64`], so there is no undefined behaviour to manage, only
//!   staleness.
//! * **Lamport stamps.** An event's `seqno` is derived from the ring index
//!   the writer already claimed — `index + 1 + stamp_base` — so the common
//!   path pays exactly one atomic RMW and touches no shared cache line.
//!   Commit-class events (commit, publish, overturn) push their stamp into
//!   one shared high-water mark, and events that *name* a commit (a
//!   conflict verdict, an abort cause) bump the shard's `stamp_base` past
//!   that mark before stamping: the culprit's commit always carries a
//!   smaller stamp than the verdict citing it. [`Journal::snapshot`] merges
//!   the rings by stamp (ties — causally concurrent events — broken by
//!   transaction id). Within a shard stamps are unique and strictly
//!   increasing whenever the shard has a single writer thread, the common
//!   deployment. An earlier design used a single global `fetch_add` per
//!   event for a total order; the coherence traffic on that one line cost
//!   more than the rest of the event write combined, and the total order
//!   bought nothing the causal order does not — cross-shard ordering is
//!   only ever *consumed* across a commit edge. Wall-clock timestamps
//!   (`ts_us`) are attached for human consumption only — replay comparison
//!   and ordering never consult them.
//! * **Drop-oldest.** When a ring wraps, the oldest events are overwritten;
//!   [`Journal::dropped`] reports how many. Nothing blocks, nothing
//!   allocates, and a reader can always reconstruct the most recent
//!   `capacity × shards` events.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::metric::thread_slot;

/// Number of independent event rings. Smaller than the counter shard count:
/// each ring is hundreds of kilobytes, and four rings already de-contend
/// the stamp words on the core counts this workspace targets.
pub(crate) const JOURNAL_SHARDS: usize = 4;

/// Default per-shard ring capacity (events). 4096 × 4 shards × 64 bytes per
/// slot ≈ 1 MiB resident for a 16k-event window. Kept modest on purpose:
/// the rings are written on every transaction, and a larger window streams
/// more cache lines through the writers' L1/L2, evicting the store's hot
/// data — when the size was chosen (journal on against journal off over
/// three transaction shapes), the eviction pressure, not the slot stores,
/// dominated past it.
pub(crate) const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// Atomic words per slot: stamp, seqno, ts_us, txn, kind, a, b, c.
const SLOT_WORDS: usize = 8;

/// What caused an abort, with enough payload to attribute the culprit.
///
/// `committed_at` / `*_commit_ts` fields carry the **commit timestamp of the
/// committed transaction that caused the conflict** — the join key
/// [`Journal::explain_abort`] uses to find the culprit's own events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// First-committer-wins write-write conflict (SI): `row` was committed
    /// at `committed_at` after the victim's snapshot.
    WriteWrite {
        /// Conflicted row identifier.
        row: u64,
        /// Commit timestamp of the culprit writer.
        committed_at: u64,
    },
    /// Read-write conflict (WSI): a row the victim read was committed at
    /// `committed_at` inside the victim's lifetime.
    ReadWrite {
        /// Conflicted row identifier.
        row: u64,
        /// Commit timestamp of the culprit writer.
        committed_at: u64,
    },
    /// Bounded-table pessimistic abort (Algorithm 3): the victim began
    /// before `t_max`, so evicted state could hide a conflict.
    Tmax {
        /// The table's eviction bound at decision time.
        t_max: u64,
    },
    /// Client-requested rollback.
    Client,
    /// A decided commit overturned because the WAL lost its write quorum.
    QuorumLoss,
    /// SSI dangerous structure: the victim is the pivot of consecutive
    /// rw-antidependencies. The payload names the commit timestamps of the
    /// two edge partners (0 when the partner is the still-active reader of
    /// an in-edge, which has no commit timestamp yet).
    Pivot {
        /// Commit timestamp of the in-edge partner (`T_in -rw-> victim`).
        in_commit_ts: u64,
        /// Commit timestamp of the out-edge partner (`victim -rw-> T_out`).
        out_commit_ts: u64,
    },
}

impl Cause {
    /// Commit timestamps of the committed transactions this cause blames
    /// (the `explain_abort` join keys). Zero entries mean "no culprit"
    /// (client rollbacks, `T_max`, quorum loss).
    pub fn culprit_commit_ts(&self) -> Vec<u64> {
        match *self {
            Cause::WriteWrite { committed_at, .. } | Cause::ReadWrite { committed_at, .. } => {
                vec![committed_at]
            }
            Cause::Pivot {
                in_commit_ts,
                out_commit_ts,
            } => [in_commit_ts, out_commit_ts]
                .into_iter()
                .filter(|&t| t != 0)
                .collect(),
            Cause::Tmax { .. } | Cause::Client | Cause::QuorumLoss => Vec::new(),
        }
    }

    /// Short label for rendering.
    pub fn label(&self) -> &'static str {
        match self {
            Cause::WriteWrite { .. } => "write-write conflict",
            Cause::ReadWrite { .. } => "read-write conflict",
            Cause::Tmax { .. } => "t_max exceeded",
            Cause::Client => "client rollback",
            Cause::QuorumLoss => "wal quorum loss",
            Cause::Pivot { .. } => "ssi dangerous structure",
        }
    }
}

/// One structured lifecycle event. `txn` is the start timestamp (raw) of
/// the transaction the event belongs to, or 0 for engine-wide events
/// (WAL flushes, GC, reclamation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventData {
    /// Transaction began (its snapshot was fixed).
    Begin,
    /// One row's conflict-check verdict inside a commit decision.
    /// `conflict` carries the culprit's commit timestamp when the row
    /// failed the check; `None` means the row passed.
    CheckRow {
        /// Row identifier checked.
        row: u64,
        /// `Some(commit_ts)` when this row conflicted, `None` if it passed.
        conflict: Option<u64>,
    },
    /// Commit decided (the oracle admitted the transaction).
    Commit {
        /// Commit timestamp issued.
        commit_ts: u64,
    },
    /// Read-only commit (never conflict-checked, §5.1).
    ReadOnlyCommit,
    /// The transaction aborted, with full cause and culprit payload.
    Abort(Cause),
    /// A WAL flush completed: `records` appended, acknowledged by `acked`
    /// replicas (the quorum ack).
    WalFlush {
        /// Records in the flushed group.
        records: u64,
        /// Replicas that acknowledged the flush.
        acked: u64,
    },
    /// The transaction's versions became visible to snapshots.
    Publish {
        /// Commit timestamp stamped onto the versions.
        commit_ts: u64,
    },
    /// A decided commit was overturned after a WAL quorum loss (the
    /// engine-side twin of an [`Cause::QuorumLoss`] abort).
    Overturn {
        /// Commit timestamp that was decided and then rolled back.
        commit_ts: u64,
    },
    /// A GC sweep removed superseded/aborted versions.
    GcSweep {
        /// Versions removed.
        versions: u64,
        /// Keys removed entirely.
        keys: u64,
    },
    /// Retired versions were freed: the registry watermark passed their
    /// retire tags.
    Reclaim {
        /// The watermark the versions were freed at.
        watermark: u64,
        /// Versions freed.
        freed: u64,
    },
    /// One retry attempt of a retrying workload wrapper gave up on this
    /// attempt (the adjacent [`EventData::Abort`] event carries the cause).
    Retry {
        /// 1-based attempt index that failed.
        attempt: u64,
    },
    /// A retrying workload wrapper took the store's serial token for this
    /// attempt, after the attempts before it had all failed: no other
    /// write commit decides until it returns.
    Escalate {
        /// 1-based index of the attempt that holds the token.
        attempt: u64,
    },
}

impl EventData {
    /// Packs into (kind-word, a, b, c). The kind word's low byte is the
    /// variant, bits 8.. the sub-code (conflict flag / cause code).
    fn encode(self) -> (u64, u64, u64, u64) {
        match self {
            EventData::Begin => (0, 0, 0, 0),
            EventData::CheckRow { row, conflict } => match conflict {
                None => (1, row, 0, 0),
                Some(ts) => (1 | (1 << 8), row, ts, 0),
            },
            EventData::Commit { commit_ts } => (2, commit_ts, 0, 0),
            EventData::ReadOnlyCommit => (3, 0, 0, 0),
            EventData::Abort(cause) => {
                let (code, a, b) = match cause {
                    Cause::WriteWrite { row, committed_at } => (1u64, row, committed_at),
                    Cause::ReadWrite { row, committed_at } => (2, row, committed_at),
                    Cause::Tmax { t_max } => (3, t_max, 0),
                    Cause::Client => (4, 0, 0),
                    Cause::QuorumLoss => (5, 0, 0),
                    Cause::Pivot {
                        in_commit_ts,
                        out_commit_ts,
                    } => (6, in_commit_ts, out_commit_ts),
                };
                (4 | (code << 8), a, b, 0)
            }
            EventData::WalFlush { records, acked } => (5, records, acked, 0),
            EventData::Publish { commit_ts } => (6, commit_ts, 0, 0),
            EventData::Overturn { commit_ts } => (7, commit_ts, 0, 0),
            EventData::GcSweep { versions, keys } => (8, versions, keys, 0),
            EventData::Reclaim { watermark, freed } => (9, watermark, freed, 0),
            EventData::Retry { attempt } => (10, attempt, 0, 0),
            EventData::Escalate { attempt } => (15, attempt, 0, 0),
        }
    }

    /// Unpacks an encoded (kind-word, a, b, c). `None` for unknown kinds
    /// (a torn slot that slipped past the stamp check cannot panic a
    /// reader). No current kind uses the spare word `c`.
    fn decode(kind: u64, a: u64, b: u64, _c: u64) -> Option<EventData> {
        let sub = kind >> 8;
        Some(match kind & 0xFF {
            0 => EventData::Begin,
            1 => EventData::CheckRow {
                row: a,
                conflict: (sub == 1).then_some(b),
            },
            2 => EventData::Commit { commit_ts: a },
            3 => EventData::ReadOnlyCommit,
            4 => EventData::Abort(match sub {
                1 => Cause::WriteWrite {
                    row: a,
                    committed_at: b,
                },
                2 => Cause::ReadWrite {
                    row: a,
                    committed_at: b,
                },
                3 => Cause::Tmax { t_max: a },
                4 => Cause::Client,
                5 => Cause::QuorumLoss,
                6 => Cause::Pivot {
                    in_commit_ts: a,
                    out_commit_ts: b,
                },
                _ => return None,
            }),
            5 => EventData::WalFlush {
                records: a,
                acked: b,
            },
            6 => EventData::Publish { commit_ts: a },
            7 => EventData::Overturn { commit_ts: a },
            8 => EventData::GcSweep {
                versions: a,
                keys: b,
            },
            9 => EventData::Reclaim {
                watermark: a,
                freed: b,
            },
            10 => EventData::Retry { attempt: a },
            // 11 to 14 are retired (the simulated region server's read/write
            // events, the epoch-batched oracle's seal/publish events) and
            // must not be reused: an old dump would misdecode.
            15 => EventData::Escalate { attempt: a },
            _ => return None,
        })
    }

    /// Whether this event pushes its stamp into the commit high-water mark.
    /// Commit-class events are the only ones other transactions' events can
    /// causally depend on: a conflict verdict or abort names a *committed*
    /// transaction, never an aborted or in-flight one.
    fn publishes(&self) -> bool {
        matches!(
            self,
            EventData::Commit { .. } | EventData::Publish { .. } | EventData::Overturn { .. }
        )
    }

    /// Whether this event *names* another transaction's commit — a conflict
    /// verdict, an abort cause, an overturned commit. Only these must stamp
    /// above the commit high-water mark (so the culprit's commit sorts
    /// before the verdict that cites it); everything else keeps the
    /// hint-free fast path.
    fn observes(&self) -> bool {
        matches!(
            self,
            EventData::CheckRow {
                conflict: Some(_),
                ..
            } | EventData::Abort(_)
                | EventData::Overturn { .. }
        )
    }

    /// Short name for exposition (Chrome trace event names, rendered
    /// timelines).
    pub fn name(&self) -> &'static str {
        match self {
            EventData::Begin => "begin",
            EventData::CheckRow { .. } => "check_row",
            EventData::Commit { .. } => "commit",
            EventData::ReadOnlyCommit => "read_only_commit",
            EventData::Abort(_) => "abort",
            EventData::WalFlush { .. } => "wal_flush",
            EventData::Publish { .. } => "publish",
            EventData::Overturn { .. } => "overturn",
            EventData::GcSweep { .. } => "gc_sweep",
            EventData::Reclaim { .. } => "reclaim",
            EventData::Retry { .. } => "retry",
            EventData::Escalate { .. } => "escalate",
        }
    }
}

/// One recorded journal event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Lamport stamp: unique and strictly increasing within a shard, and
    /// every event stamps higher than any commit it could have observed.
    /// Equal stamps on different shards are causally concurrent; ties are
    /// broken by `txn` when merging.
    pub seqno: u64,
    /// Microseconds since the journal was created, **coarse**: the clock is
    /// sampled once every `TS_REFRESH_INTERVAL` events, so nearby events
    /// share a stamp (order them by `seqno`, never by time). Human
    /// consumption only; excluded from [`Event::replay_key`].
    pub ts_us: u64,
    /// Owning transaction's start timestamp (raw), or 0 for engine-wide
    /// events.
    pub txn: u64,
    /// The structured payload.
    pub data: EventData,
}

impl Event {
    /// Everything about the event except wall-clock time: the identity a
    /// deterministic replay must reproduce exactly.
    pub fn replay_key(&self) -> (u64, u64, EventData) {
        (self.seqno, self.txn, self.data)
    }

    /// One human-readable line.
    pub fn render(&self) -> String {
        let body = match self.data {
            EventData::Begin => "begin".to_string(),
            EventData::CheckRow { row, conflict } => match conflict {
                None => format!("check row {row}: ok"),
                Some(ts) => format!("check row {row}: CONFLICT with commit@{ts}"),
            },
            EventData::Commit { commit_ts } => format!("commit @{commit_ts}"),
            EventData::ReadOnlyCommit => "read-only commit".to_string(),
            EventData::Abort(cause) => match cause {
                Cause::WriteWrite { row, committed_at } => {
                    format!("ABORT write-write: row {row} committed@{committed_at}")
                }
                Cause::ReadWrite { row, committed_at } => {
                    format!("ABORT read-write: row {row} committed@{committed_at}")
                }
                Cause::Tmax { t_max } => format!("ABORT t_max exceeded (t_max={t_max})"),
                Cause::Client => "abort (client rollback)".to_string(),
                Cause::QuorumLoss => "ABORT wal quorum loss".to_string(),
                Cause::Pivot {
                    in_commit_ts,
                    out_commit_ts,
                } => format!(
                    "ABORT ssi pivot: in-edge commit@{in_commit_ts}, \
                     out-edge commit@{out_commit_ts}"
                ),
            },
            EventData::WalFlush { records, acked } => {
                format!("wal flush: {records} records, {acked} acks")
            }
            EventData::Publish { commit_ts } => format!("publish @{commit_ts}"),
            EventData::Overturn { commit_ts } => format!("OVERTURN commit @{commit_ts}"),
            EventData::GcSweep { versions, keys } => {
                format!("gc sweep: {versions} versions, {keys} keys")
            }
            EventData::Reclaim { watermark, freed } => {
                format!("reclaim below {watermark} ({freed} freed)")
            }
            EventData::Retry { attempt } => format!("retry: attempt {attempt} failed"),
            EventData::Escalate { attempt } => {
                format!("escalate: attempt {attempt} holds the serial token")
            }
        };
        if self.txn == 0 {
            format!("[{:>8}] {:>10}us            {body}", self.seqno, self.ts_us)
        } else {
            format!(
                "[{:>8}] {:>10}us txn {:<6} {body}",
                self.seqno, self.ts_us, self.txn
            )
        }
    }
}

/// One ring of seqlock slots. Cache-line aligned: a bare `Shard` is small
/// enough that two shards would otherwise pack into one line and turn each
/// thread's `head` bump into an invalidation of its neighbour's ring
/// pointer.
#[repr(align(64))]
struct Shard {
    /// Next ring index to claim (monotonic; slot = index % capacity).
    head: AtomicU64,
    /// Lamport stamp base: `seqno = index + 1 + stamp_base`. Bumped (rarely)
    /// when another shard's published commit stamp overtakes this shard, so
    /// the common path derives its stamp from the `head` bump it already
    /// paid for instead of a second atomic RMW.
    stamp_base: AtomicU64,
    /// Cached wall-clock, refreshed every [`TS_REFRESH_INTERVAL`] events
    /// written to this shard.
    coarse_ts_us: AtomicU64,
    /// `capacity × SLOT_WORDS` atomic words.
    slots: Vec<AtomicU64>,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            head: AtomicU64::new(0),
            stamp_base: AtomicU64::new(0),
            coarse_ts_us: AtomicU64::new(0),
            slots: (0..capacity * SLOT_WORDS)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    fn capacity(&self) -> u64 {
        (self.slots.len() / SLOT_WORDS) as u64
    }

    /// Writes one event under the seqlock protocol. The wall clock is
    /// sampled once per [`TS_REFRESH_INTERVAL`] events on this shard and
    /// cached — `ts_us` is coarse by design (see [`Event::ts_us`]).
    fn write(&self, idx: u64, epoch: &Instant, seqno: u64, txn: u64, data: EventData) {
        let (kind, a, b, c) = data.encode();
        let ts_us = if idx.is_multiple_of(TS_REFRESH_INTERVAL) {
            let now = epoch.elapsed().as_micros() as u64;
            self.coarse_ts_us.store(now, Ordering::Relaxed);
            now
        } else {
            self.coarse_ts_us.load(Ordering::Relaxed)
        };
        let base = (idx % self.capacity()) as usize * SLOT_WORDS;
        let slot: &[AtomicU64; SLOT_WORDS] = self.slots[base..base + SLOT_WORDS]
            .try_into()
            .expect("slot window is exactly SLOT_WORDS");
        // Odd stamp: writing. Encodes the claimed index so a racing reader
        // of an older generation can tell the slot moved on.
        slot[0].store(idx * 2 + 1, Ordering::Release);
        slot[1].store(seqno, Ordering::Relaxed);
        slot[2].store(ts_us, Ordering::Relaxed);
        slot[3].store(txn, Ordering::Relaxed);
        slot[4].store(kind, Ordering::Relaxed);
        slot[5].store(a, Ordering::Relaxed);
        slot[6].store(b, Ordering::Relaxed);
        slot[7].store(c, Ordering::Relaxed);
        // Even stamp: done, still encoding the index.
        slot[0].store(idx * 2 + 2, Ordering::Release);
    }

    /// Reads the live window, dropping torn and overwritten slots.
    fn read_into(&self, out: &mut Vec<Event>) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.capacity();
        let first = head.saturating_sub(cap);
        for idx in first..head {
            let base = (idx % cap) as usize * SLOT_WORDS;
            let stamp = &self.slots[base];
            let want = idx * 2 + 2;
            if stamp.load(Ordering::Acquire) != want {
                continue; // being written, or already overwritten
            }
            let seqno = self.slots[base + 1].load(Ordering::Relaxed);
            let ts_us = self.slots[base + 2].load(Ordering::Relaxed);
            let txn = self.slots[base + 3].load(Ordering::Relaxed);
            let kind = self.slots[base + 4].load(Ordering::Relaxed);
            let a = self.slots[base + 5].load(Ordering::Relaxed);
            let b = self.slots[base + 6].load(Ordering::Relaxed);
            let c = self.slots[base + 7].load(Ordering::Relaxed);
            if stamp.load(Ordering::Acquire) != want {
                continue; // overwritten mid-read: drop the torn payload
            }
            if let Some(data) = EventData::decode(kind, a, b, c) {
                out.push(Event {
                    seqno,
                    ts_us,
                    txn,
                    data,
                });
            }
        }
    }
}

/// The commit high-water mark on its own cache line. Commit-class events
/// `fetch_max` their stamp into it; every other event only *loads* it, so
/// the line stays in shared state in every core's cache and the common
/// path pays a local read instead of a coherence miss. The padding keeps
/// those rare writes from invalidating the read-mostly fields around it.
#[repr(align(64))]
struct Published {
    /// Largest stamp any commit-class event has carried.
    stamp: AtomicU64,
}

/// How many events share one wall-clock sample. `ts_us` is exposition-only
/// (excluded from [`Event::replay_key`]), so microsecond-exact stamps are
/// not worth a vDSO clock read per event.
const TS_REFRESH_INTERVAL: u64 = 64;

struct JournalInner {
    shards: Vec<Shard>,
    /// Commit-stamp high-water mark, cache-line isolated.
    published: Published,
    /// Wall-clock epoch for `ts_us` (exposition only).
    epoch: Instant,
}

/// The flight recorder. Cloning shares the same rings (like [`Counter`]).
///
/// [`Counter`]: crate::Counter
///
/// # Example
///
/// ```
/// use wsi_obs::{Cause, EventData, Journal};
///
/// let j = Journal::new();
/// j.record(7, EventData::Begin);
/// j.record(7, EventData::Abort(Cause::WriteWrite { row: 3, committed_at: 6 }));
/// let events = j.events_for(7);
/// assert_eq!(events.len(), 2);
/// assert!(matches!(events[1].data, EventData::Abort(_)));
/// ```
#[derive(Clone)]
pub struct Journal {
    inner: Arc<JournalInner>,
}

impl Journal {
    /// A journal whose rings hold the default 4096 events each; see
    /// [`Journal::with_capacity`].
    pub fn new() -> Journal {
        Journal::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A journal whose rings hold `per_shard` events each (rounded up to at
    /// least 8).
    pub fn with_capacity(per_shard: usize) -> Journal {
        let cap = per_shard.max(8);
        Journal {
            inner: Arc::new(JournalInner {
                shards: (0..JOURNAL_SHARDS).map(|_| Shard::new(cap)).collect(),
                published: Published {
                    stamp: AtomicU64::new(0),
                },
                epoch: Instant::now(),
            }),
        }
    }

    /// Records one event. Lock-free, and on the common path entirely
    /// shard-local: one `fetch_add` on the shard head (the Lamport stamp
    /// derives from it), the slot stores, and nothing else. Events that
    /// *name* another transaction's commit additionally read the commit
    /// high-water mark and catch the shard's stamp base up past it, and
    /// commit-class events `fetch_max` their own stamp into that mark —
    /// see the module docs on Lamport stamps.
    pub fn record(&self, txn: u64, data: EventData) {
        let shard = &self.inner.shards[thread_slot() % JOURNAL_SHARDS];
        let idx = shard.head.fetch_add(1, Ordering::Relaxed);
        let mut seqno = idx + 1 + shard.stamp_base.load(Ordering::Relaxed);
        if data.observes() {
            let hint = self.inner.published.stamp.load(Ordering::Relaxed);
            if seqno <= hint {
                shard.stamp_base.fetch_max(hint - idx, Ordering::Relaxed);
                seqno = idx + 1 + shard.stamp_base.load(Ordering::Relaxed);
            }
        }
        if data.publishes() {
            self.inner
                .published
                .stamp
                .fetch_max(seqno, Ordering::Relaxed);
        }
        shard.write(idx, &self.inner.epoch, seqno, txn, data);
    }

    /// Total events ever recorded (including any since overwritten).
    pub fn recorded(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| s.head.load(Ordering::Relaxed))
            .sum()
    }

    /// Events lost to ring wrap (drop-oldest), summed over shards.
    pub fn dropped(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| s.head.load(Ordering::Relaxed).saturating_sub(s.capacity()))
            .sum()
    }

    /// All live events, merged across shards in causal (`seqno`) order,
    /// with ties — causally concurrent events on different shards — broken
    /// by transaction id for a deterministic merge. Concurrent writers may
    /// tear a handful of slots; those are dropped, never misread.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for shard in &self.inner.shards {
            shard.read_into(&mut out);
        }
        out.sort_unstable_by_key(|e| (e.seqno, e.txn));
        out
    }

    /// Live events belonging to `txn`, in order.
    pub fn events_for(&self, txn: u64) -> Vec<Event> {
        let mut out = self.snapshot();
        out.retain(|e| e.txn == txn);
        out
    }

    /// Joins the victim's and culprit's event streams into one causal
    /// timeline. `None` if no abort event for `txn` is live in the rings.
    pub fn explain_abort(&self, txn: u64) -> Option<AbortExplanation> {
        let events = self.snapshot();
        let cause = events
            .iter()
            .rev()
            .find_map(|e| match (e.txn == txn, e.data) {
                (true, EventData::Abort(cause)) => Some(cause),
                _ => None,
            })?;
        // Join: each culprit commit timestamp names the committed
        // transaction whose commit/publish events carry it.
        let culprit_ts = cause.culprit_commit_ts();
        let mut culprits: Vec<u64> = Vec::new();
        for &ts in &culprit_ts {
            if let Some(c) = events.iter().find_map(|e| match e.data {
                EventData::Commit { commit_ts } if commit_ts == ts && e.txn != 0 => Some(e.txn),
                _ => None,
            }) {
                if !culprits.contains(&c) {
                    culprits.push(c);
                }
            }
        }
        let timeline: Vec<Event> = events
            .into_iter()
            .filter(|e| e.txn == txn || culprits.contains(&e.txn))
            .collect();
        Some(AbortExplanation {
            victim: txn,
            cause,
            culprits,
            timeline,
        })
    }
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new()
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// The forensic report [`Journal::explain_abort`] produces: the abort's
/// cause, the committed transactions it blames, and the merged causal
/// timeline of victim and culprits.
#[derive(Debug, Clone)]
pub struct AbortExplanation {
    /// The aborted transaction (start timestamp, raw).
    pub victim: u64,
    /// Why it aborted, with culprit payload.
    pub cause: Cause,
    /// Start timestamps of the committed transactions attributed as
    /// culprits (resolved from the cause's commit timestamps; empty when
    /// the cause names no committed culprit or its events aged out of the
    /// ring).
    pub culprits: Vec<u64>,
    /// Victim and culprit events merged in global causal (`seqno`) order.
    pub timeline: Vec<Event>,
}

impl AbortExplanation {
    /// The full report as human-readable text.
    pub fn render(&self) -> String {
        let mut s = format!(
            "abort forensics for txn {}: {}\n",
            self.victim,
            self.cause.label()
        );
        if self.culprits.is_empty() {
            s.push_str("culprits: none attributed\n");
        } else {
            s.push_str(&format!("culprits: {:?}\n", self.culprits));
        }
        s.push_str("timeline:\n");
        for e in &self.timeline {
            let marker = if e.txn == self.victim {
                "victim "
            } else if self.culprits.contains(&e.txn) {
                "culprit"
            } else {
                "       "
            };
            s.push_str(&format!("  {marker} {}\n", e.render()));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_the_slots() {
        let j = Journal::new();
        let samples = [
            (0, EventData::Begin),
            (
                7,
                EventData::CheckRow {
                    row: 42,
                    conflict: None,
                },
            ),
            (
                7,
                EventData::CheckRow {
                    row: 43,
                    conflict: Some(99),
                },
            ),
            (7, EventData::Commit { commit_ts: 100 }),
            (8, EventData::ReadOnlyCommit),
            (
                9,
                EventData::Abort(Cause::WriteWrite {
                    row: 1,
                    committed_at: 55,
                }),
            ),
            (
                9,
                EventData::Abort(Cause::ReadWrite {
                    row: 2,
                    committed_at: 56,
                }),
            ),
            (9, EventData::Abort(Cause::Tmax { t_max: 12 })),
            (9, EventData::Abort(Cause::Client)),
            (9, EventData::Abort(Cause::QuorumLoss)),
            (
                9,
                EventData::Abort(Cause::Pivot {
                    in_commit_ts: 3,
                    out_commit_ts: 4,
                }),
            ),
            (
                0,
                EventData::WalFlush {
                    records: 5,
                    acked: 3,
                },
            ),
            (7, EventData::Publish { commit_ts: 100 }),
            (7, EventData::Overturn { commit_ts: 100 }),
            (
                0,
                EventData::GcSweep {
                    versions: 10,
                    keys: 2,
                },
            ),
            (
                0,
                EventData::Reclaim {
                    watermark: 4,
                    freed: 9,
                },
            ),
            (9, EventData::Retry { attempt: 2 }),
            (9, EventData::Escalate { attempt: 9 }),
        ];
        for &(txn, data) in &samples {
            j.record(txn, data);
        }
        let events = j.snapshot();
        assert_eq!(events.len(), samples.len());
        for (event, &(txn, data)) in events.iter().zip(&samples) {
            assert_eq!(event.txn, txn);
            assert_eq!(event.data, data);
        }
        // Lamport stamps from a single thread land on one shard: unique,
        // strictly increasing, starting at 1.
        for (i, event) in events.iter().enumerate() {
            assert_eq!(event.seqno, i as u64 + 1);
        }
        assert_eq!(j.dropped(), 0);
        assert_eq!(j.recorded(), samples.len() as u64);
        // Retired and never-assigned kind codes decode to nothing.
        for kind in [13, 14, 16, 0xFF] {
            assert_eq!(EventData::decode(kind, 3, 8, 2), None);
        }
    }

    #[test]
    fn ring_wrap_drops_oldest_and_counts_them() {
        let j = Journal::with_capacity(8);
        // A single thread writes to one shard: capacity 8 keeps the last 8.
        for i in 0..100u64 {
            j.record(i, EventData::Begin);
        }
        let events = j.snapshot();
        assert_eq!(events.len(), 8);
        assert_eq!(events.first().unwrap().txn, 92);
        assert_eq!(events.last().unwrap().txn, 99);
        assert_eq!(j.dropped(), 92);
        assert_eq!(j.recorded(), 100);
    }

    #[test]
    fn explain_abort_joins_victim_and_culprit() {
        let j = Journal::new();
        j.record(10, EventData::Begin);
        j.record(11, EventData::Begin);
        j.record(
            10,
            EventData::CheckRow {
                row: 1,
                conflict: None,
            },
        );
        j.record(10, EventData::Commit { commit_ts: 20 });
        j.record(10, EventData::Publish { commit_ts: 20 });
        j.record(
            11,
            EventData::CheckRow {
                row: 1,
                conflict: Some(20),
            },
        );
        j.record(
            11,
            EventData::Abort(Cause::ReadWrite {
                row: 1,
                committed_at: 20,
            }),
        );
        let explanation = j.explain_abort(11).expect("abort event is live");
        assert_eq!(explanation.victim, 11);
        assert_eq!(explanation.culprits, vec![10]);
        assert!(matches!(
            explanation.cause,
            Cause::ReadWrite {
                row: 1,
                committed_at: 20
            }
        ));
        // Timeline carries both streams in seqno order.
        assert_eq!(explanation.timeline.len(), 7);
        assert!(explanation
            .timeline
            .windows(2)
            .all(|w| w[0].seqno < w[1].seqno));
        let text = explanation.render();
        assert!(text.contains("read-write conflict"));
        assert!(text.contains("victim"));
        assert!(text.contains("culprit"));
        // No abort recorded for txn 10.
        assert!(j.explain_abort(10).is_none());
    }

    #[test]
    fn explain_abort_resolves_both_pivot_edges() {
        let j = Journal::new();
        j.record(1, EventData::Begin);
        j.record(2, EventData::Begin);
        j.record(3, EventData::Begin);
        j.record(1, EventData::Commit { commit_ts: 4 });
        j.record(2, EventData::Commit { commit_ts: 5 });
        j.record(
            3,
            EventData::Abort(Cause::Pivot {
                in_commit_ts: 4,
                out_commit_ts: 5,
            }),
        );
        let explanation = j.explain_abort(3).unwrap();
        assert_eq!(explanation.culprits, vec![1, 2]);
        assert_eq!(explanation.timeline.len(), 6);
    }

    #[test]
    fn concurrent_writers_never_produce_garbage() {
        let j = Journal::with_capacity(64);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let j = j.clone();
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        j.record(t + 1, EventData::Commit { commit_ts: i });
                    }
                });
            }
        });
        // Whatever survives the wrap decodes cleanly and comes out in merge
        // order. Equal stamps on different shards are concurrent events, so
        // strictness holds only for the full (seqno, txn) key.
        let events = j.snapshot();
        assert!(!events.is_empty());
        for event in &events {
            assert!((1..=8).contains(&event.txn));
            assert!(matches!(event.data, EventData::Commit { .. }));
        }
        assert!(events
            .windows(2)
            .all(|w| (w[0].seqno, w[0].txn) < (w[1].seqno, w[1].txn)));
        assert_eq!(j.recorded(), 80_000);
    }
}
