//! Store-level observability: the metric registry and flight recorder shared
//! by every layer of an embedded [`crate::Db`].
//!
//! One [`StoreObs`] is created per database, always, and holds:
//!
//! * a [`wsi_obs::Registry`] in which `Db::open` registers the store's own
//!   series and the books each layer keeps itself — the decision
//!   counters ([`wsi_core::OracleCounters`]), the arena's [`ArenaObs`], the
//!   active-transaction registry's contention counter and the WAL's
//!   [`wsi_wal::LedgerObs`] — so one exposition call covers the whole stack;
//! * per-phase latency histograms for the transaction lifecycle
//!   (conflict check → WAL wait → visible);
//! * the [`wsi_obs::Journal`], which records every transaction's lifecycle
//!   events and exports them as a Chrome trace.
//!
//! Everything here is lock-free on the hot path: counters and histograms
//! are sharded relaxed atomics, and the journal is a ring of atomic slots.

use wsi_obs::{Counter, Gauge, Histogram, Journal, Registry};

/// How often one kind of pipeline waiter had to wait for a flush round to
/// end, and how often the round outlasted its spin so that it slept.
/// `parks ≤ waits`; both stay zero with a single client or without a WAL.
#[derive(Debug)]
pub(crate) struct WaitCounters {
    /// Waits entered (each is one spin on the round generation).
    pub(crate) waits: Counter,
    /// Waits that ended in a park on the pipeline's condition variable — a
    /// futex sleep and wake, several times a zero-delay flush round.
    pub(crate) parks: Counter,
}

impl WaitCounters {
    fn new() -> Self {
        WaitCounters {
            waits: Counter::new(),
            parks: Counter::new(),
        }
    }
}

/// Shared observability state of one database.
#[derive(Debug)]
pub(crate) struct StoreObs {
    /// The store's metric registry; see [`crate::Db::obs_registry`].
    pub(crate) registry: Registry,
    /// Wall-clock latency of the whole commit call for committed write
    /// transactions, begin → visible, in microseconds.
    pub(crate) txn_us: Histogram,
    /// Time spent inside the commit decision scope, decision lock held
    /// (conflict check + commit-timestamp assignment + recording it).
    pub(crate) conflict_check_us: Histogram,
    /// Sync-mode wait for the group-commit outcome (WAL append + quorum
    /// ack), measured from decide to resolution.
    pub(crate) wal_wait_us: Histogram,
    /// Waits and parks of committers inside that wait: the ledger was out
    /// with another leader and no outcome was posted yet
    /// (`store_commit_waits_total`, `store_commit_parks_total`).
    pub(crate) commit_wait: WaitCounters,
    /// Waits and parks of begins at the snapshot-stability gate: a decided
    /// commit below the new snapshot was not yet published
    /// (`store_gate_waits_total`, `store_gate_parks_total`).
    pub(crate) gate_wait: WaitCounters,
    /// How long a begin that had to wait at the gate waited, all its rounds
    /// together; begins that pass the gate without waiting read no clock
    /// and record nothing, so `count ≤ store_gate_waits_total`.
    pub(crate) begin_gate_wait_us: Histogram,
    /// Wall-clock latency of `commit_txn` for committed write transactions.
    pub(crate) commit_us: Histogram,
    /// Group-commit flush rounds led by some committer.
    pub(crate) leader_rounds: Counter,
    /// Sync commits resolved by another thread's flush round (the waiter
    /// never took the ledger — the group-commit win).
    pub(crate) follower_commits: Counter,
    /// Commits persisted per sync flush round.
    pub(crate) sync_group_size: Histogram,
    /// Checkpoints whose own round reached quorum and truncated the log,
    /// written by the tick or by `gc`. One abandoned by a quorum loss may
    /// still reach the log with a later flush; it truncates nothing and is
    /// not counted.
    pub(crate) checkpoints: Counter,
    /// [`crate::Db::run`] calls that took the serial token after
    /// [`crate::ESCALATE_AFTER`] failed attempts.
    pub(crate) escalations: Counter,
    /// The flight recorder: a ring journal of lifecycle events (see
    /// [`wsi_obs::Journal`]), one per database, shared by every layer.
    pub(crate) journal: Journal,
}

impl StoreObs {
    pub(crate) fn new() -> Self {
        let obs = StoreObs {
            registry: Registry::new(),
            txn_us: Histogram::new(),
            conflict_check_us: Histogram::new(),
            wal_wait_us: Histogram::new(),
            commit_wait: WaitCounters::new(),
            gate_wait: WaitCounters::new(),
            begin_gate_wait_us: Histogram::new(),
            commit_us: Histogram::new(),
            leader_rounds: Counter::new(),
            follower_commits: Counter::new(),
            sync_group_size: Histogram::new(),
            checkpoints: Counter::new(),
            escalations: Counter::new(),
            journal: Journal::new(),
        };
        let r = &obs.registry;
        r.register_histogram("store_txn_us", &obs.txn_us);
        r.register_histogram("store_conflict_check_us", &obs.conflict_check_us);
        r.register_histogram("store_wal_wait_us", &obs.wal_wait_us);
        r.register_counter("store_commit_waits_total", &obs.commit_wait.waits);
        r.register_counter("store_commit_parks_total", &obs.commit_wait.parks);
        r.register_counter("store_gate_waits_total", &obs.gate_wait.waits);
        r.register_counter("store_gate_parks_total", &obs.gate_wait.parks);
        r.register_histogram("store_begin_gate_wait_us", &obs.begin_gate_wait_us);
        r.register_histogram("store_commit_us", &obs.commit_us);
        r.register_counter("store_leader_rounds_total", &obs.leader_rounds);
        r.register_counter("store_follower_commits_total", &obs.follower_commits);
        r.register_histogram("store_sync_group_size", &obs.sync_group_size);
        r.register_counter("store_checkpoints_total", &obs.checkpoints);
        r.register_counter("store_escalations_total", &obs.escalations);
        obs
    }
}

/// The version store's books: reclamation counts, footprint gauges, GC and
/// chain-layout series, each kept once. `Db::open` registers them, and
/// [`crate::Db::reclamation`] reads the same counters, so the exported
/// series cannot drift from it.
///
/// The gauges are set in one place, `ArenaStore::footprint`, which every
/// reader of them (`Db::stats`, `Db::obs_registry` and the exports built
/// on it) calls first. The `obs_reconcile` integration
/// test holds `store_versions_retired_total == store_versions_freed_total +
/// store_limbo_versions`, `keys_visited ≥ versions dropped`,
/// `worklist_len == 0` after a `gc` at quiescence with no active snapshot,
/// and `slots ≥ keys`.
#[derive(Debug, Default)]
pub(crate) struct ArenaObs {
    /// Versions unlinked and retired to the limbo list (lifetime total).
    pub(crate) retired: Counter,
    /// Retired versions the registry watermark passed and whose slots were
    /// recycled (lifetime total).
    pub(crate) freed: Counter,
    /// Versions currently in limbo (retired − freed).
    pub(crate) limbo: Gauge,
    /// Arena chunks allocated, over every slot size class (each holds a
    /// fixed number of slots of its class).
    pub(crate) chunks: Gauge,
    /// Keys with at least one published version: the store's incremental
    /// count.
    pub(crate) keys: Gauge,
    /// Published versions resident: the store's incremental count.
    pub(crate) versions: Gauge,
    /// Versions unlinked by insert-time chain pruning (between GC sweeps).
    pub(crate) inline_pruned: Counter,
    /// Worklist sweeps performed by `Db::gc` (the commit shares' sweeps
    /// are not counted).
    pub(crate) gc_sweeps: Counter,
    /// Key entries examined by `Db::gc` sweeps and the commit shares
    /// (lifetime total): the keys written, plus the keys a sweep had to
    /// re-queue.
    pub(crate) gc_keys_visited: Counter,
    /// Keys queued in both worklist generations. After a `gc` it is what
    /// that sweep re-queued because it could not leave them clean — a
    /// pending writer, or versions a pinned snapshot holds the watermark
    /// below: what the GC is being made to keep.
    pub(crate) gc_worklist_len: Gauge,
    /// Chain-head table slots allocated over all retained generations.
    pub(crate) head_table_slots: Gauge,
    /// Chain-head table generations built beyond the first (lifetime
    /// total).
    pub(crate) head_table_grows: Counter,
    /// log₂ histogram of chain length observed at each publish (the length
    /// *after* the insert) — shows how hot the hot keys run and whether
    /// pruning keeps chains short.
    pub(crate) chain_len: Histogram,
}

impl ArenaObs {
    /// Registers every exported series under its name.
    pub(crate) fn register_in(&self, registry: &Registry) {
        registry.register_counter("store_versions_retired_total", &self.retired);
        registry.register_counter("store_versions_freed_total", &self.freed);
        registry.register_gauge("store_limbo_versions", &self.limbo);
        registry.register_gauge("store_arena_chunks", &self.chunks);
        registry.register_gauge("store_arena_keys", &self.keys);
        registry.register_gauge("store_arena_versions", &self.versions);
        registry.register_counter("store_arena_inline_pruned_total", &self.inline_pruned);
        registry.register_counter("store_arena_gc_sweeps_total", &self.gc_sweeps);
        registry.register_counter("store_gc_keys_visited_total", &self.gc_keys_visited);
        registry.register_gauge("store_gc_worklist_len", &self.gc_worklist_len);
        registry.register_gauge("store_head_table_slots", &self.head_table_slots);
        registry.register_counter("store_head_table_grows_total", &self.head_table_grows);
        registry.register_histogram("store_chain_len", &self.chain_len);
        // No chain migrates since one node kind is left; the series stays,
        // at 0, while `txn_e2e` still reports it.
        registry.register_counter("store_chain_migrations_total", &Counter::new());
    }
}
