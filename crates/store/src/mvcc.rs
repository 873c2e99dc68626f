//! The multi-version storage layer: a region-partitioned version store.
//!
//! "Multi-version databases maintain multiple versions for the data and add
//! the new data as a new version instead of rewriting the old data. This
//! enables the transactions to read from an arbitrary snapshot of the
//! database" (§4). This module is that substrate: an ordered map from keys
//! to *version chains*, where each version is tagged with the **start
//! timestamp of its writer** (the Omid scheme — uncommitted data goes into
//! the main store, invisible until the writer's commit is published in the
//! commit table).
//!
//! # Sharding
//!
//! The paper's deployment spreads the data plane over 25 HBase region
//! servers while the status oracle stays centralized (§6, §A). The embedded
//! analogue: the key space is partitioned into N **shards** (a Fibonacci
//! hash of the key, same spreading function as the sharded oracle's
//! `lastCommit` table), each with its own readers-writer lock, its own
//! version chains, its own recent-commit cache, and its own GC watermark.
//! Transactions over disjoint shards never contend; a commit applying to
//! multiple shards visits them one at a time in **canonical ascending shard
//! order** — the same deadlock-free protocol as `wsi_core::sharded` — and
//! never holds two shard locks at once.
//!
//! Holding only one shard lock at a time is sound because nothing in this
//! layer requires cross-shard atomicity: versions are invisible until the
//! writer's commit is published in the commit index (a single linearization
//! point), commit-timestamp stamping is a read-path optimization, and abort
//! cleanup removes versions that were never visible. Snapshot reads are
//! timestamp-based and monotone, so a scan that visits shards sequentially
//! observes exactly the state its `reader_start` defines in every shard.
//!
//! # Visibility
//!
//! Visibility is resolved in three tiers, cheapest first:
//!
//! 1. the version's cached `committed_at` stamp — filled in **eagerly at
//!    commit publish time** (and re-derived identically by WAL replay and by
//!    the GC), so steady-state reads are one shard-local binary search;
//! 2. the shard's **recent-commit cache** — a small direct-mapped
//!    `writer_start → commit_ts` table populated under the same write lock
//!    as the stamps, covering versions whose stamping pass has not reached
//!    this shard yet;
//! 3. the caller-supplied [`VersionResolver`] (the commit index) — the §2.2
//!    commit-table detour, now the slow path.
//!
//! A version is readable in a snapshot `T_s` if its writer committed with
//! `T_c < T_s` (§2.2).

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;
use wsi_core::{hash_row_key, Timestamp, TxnStatus};

use crate::arena::ArenaStore;
use crate::obs::{ArenaObs, StoreShardObs};

/// Resolves the fate of the transaction that wrote a version.
///
/// Implemented by the transaction manager's commit index; injected so this
/// layer stays independent of concurrency-control policy.
pub trait VersionResolver {
    /// Status of the transaction that started at `writer_start`.
    fn resolve(&self, writer_start: Timestamp) -> TxnStatus;
}

impl<F: Fn(Timestamp) -> TxnStatus> VersionResolver for F {
    fn resolve(&self, writer_start: Timestamp) -> TxnStatus {
        self(writer_start)
    }
}

/// Fibonacci multiplicative-hash constant (2^64 / φ), the same spreading
/// function as the sharded oracle's `lastCommit` table.
pub(crate) const FIB_HASH: u64 = 0x9E37_79B9_7F4A_7C15;

/// Chains longer than this are pruned against the store's GC watermark
/// before inserting, bounding both memory and the `Vec::insert` memmove on
/// hot keys (see [`VersionChain::insert`]). Shared by both layouts.
pub(crate) const PRUNE_CHAIN_LEN: usize = 32;

/// Slots in each shard's direct-mapped recent-commit cache.
const RECENT_COMMITS: usize = 128;

/// One version of a key's value.
#[derive(Debug, Clone)]
pub(crate) struct Version {
    /// Start timestamp of the writing transaction (the version tag).
    pub writer_start: Timestamp,
    /// `None` encodes a tombstone (the transaction deleted the key).
    pub value: Option<Bytes>,
    /// Commit timestamp, once known and stamped (eagerly by the committer at
    /// publish time, by WAL replay, or by the GC). `None` means "consult the
    /// recent-commit cache, then the commit table".
    pub committed_at: Option<Timestamp>,
}

/// All versions of one key, ordered by ascending `writer_start`.
#[derive(Debug, Clone, Default)]
pub(crate) struct VersionChain {
    pub versions: Vec<Version>,
}

impl VersionChain {
    /// Inserts a version, keeping the chain sorted by writer start.
    ///
    /// Writers are concurrent, so insertion is not always at the tail;
    /// binary-search for the slot. A mid-chain `Vec::insert` shifts the
    /// tail, which on a hot key with a long chain turns every concurrent
    /// writer into an O(n) memmove — so chains longer than
    /// [`PRUNE_CHAIN_LEN`] are first pruned against the shard's GC
    /// `watermark`: stamped versions strictly older than the newest stamped
    /// commit below the watermark are invisible to every current and future
    /// snapshot (the GC's own keep rule) and can be dropped inline. Returns
    /// the number of versions pruned.
    fn insert(&mut self, version: Version, watermark: Timestamp, prune_len: usize) -> u64 {
        let pruned = if self.versions.len() >= prune_len {
            self.prune_stamped_below(watermark)
        } else {
            0
        };
        match self
            .versions
            .binary_search_by_key(&version.writer_start, |v| v.writer_start)
        {
            Ok(i) => self.versions[i] = version, // same txn overwrote its own write
            Err(i) => self.versions.insert(i, version),
        }
        pruned
    }

    /// Drops stamped versions superseded below `watermark`: among versions
    /// with `committed_at < watermark`, the newest is retained (it is the
    /// visible version for the oldest possible snapshot) and the rest are
    /// removed. Unstamped versions (pending, or not yet stamped) are always
    /// kept — classifying them needs the resolver, which is the full GC's
    /// job. Returns how many versions were dropped.
    fn prune_stamped_below(&mut self, watermark: Timestamp) -> u64 {
        let keep_bound = self
            .versions
            .iter()
            .filter_map(|v| v.committed_at)
            .filter(|&ts| ts < watermark)
            .max();
        let Some(bound) = keep_bound else {
            return 0;
        };
        let before = self.versions.len();
        self.versions
            .retain(|v| v.committed_at.is_none_or(|ts| ts >= bound));
        (before - self.versions.len()) as u64
    }

    fn remove(&mut self, writer_start: Timestamp) -> bool {
        match self
            .versions
            .binary_search_by_key(&writer_start, |v| v.writer_start)
        {
            Ok(i) => {
                self.versions.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Finds the value visible in snapshot `reader_start`: among versions
    /// whose writer committed with `T_c < reader_start`, the one with the
    /// largest commit timestamp.
    fn read<R: VersionResolver + ?Sized>(
        &self,
        reader_start: Timestamp,
        recent: &RecentCommits,
        resolver: &R,
    ) -> Option<&Version> {
        let mut best: Option<(&Version, Timestamp)> = None;
        // Newest writers are at the tail, but writer-start order is not
        // commit order, so every version must be considered.
        for v in &self.versions {
            let commit_ts = match v.committed_at {
                Some(ts) => Some(ts),
                None => match recent.lookup(v.writer_start) {
                    Some(ts) => Some(ts),
                    None => resolver.resolve(v.writer_start).commit_ts(),
                },
            };
            let Some(commit_ts) = commit_ts else {
                continue; // pending or aborted writer
            };
            if commit_ts < reader_start && best.is_none_or(|(_, b)| commit_ts > b) {
                best = Some((v, commit_ts));
            }
        }
        best.map(|(v, _)| v)
    }
}

/// A small direct-mapped `writer_start → commit_ts` cache of recent commits
/// that touched a shard.
///
/// Mutated only under the shard's write lock and read under its read lock,
/// so plain (non-atomic) slots are race-free. Populated exclusively at
/// commit *publish* time ([`MvccStore::stamp_commit`]) — never at version
/// insert — so an entry can only exist for a commit that is already visible
/// in the commit index; a decided-but-overturned sync commit
/// (`abort_after_decide`) is never cached because it is never stamped.
#[derive(Debug, Clone)]
struct RecentCommits {
    /// `(writer_start, commit_ts)` raw pairs; start 0 marks an empty slot
    /// (timestamp 0 is never issued to a transaction).
    slots: Vec<(u64, u64)>,
}

impl Default for RecentCommits {
    fn default() -> Self {
        RecentCommits {
            slots: vec![(0, 0); RECENT_COMMITS],
        }
    }
}

impl RecentCommits {
    #[inline]
    fn slot_of(start: Timestamp) -> usize {
        (start.raw().wrapping_mul(FIB_HASH) >> 32) as usize & (RECENT_COMMITS - 1)
    }

    #[inline]
    fn record(&mut self, start: Timestamp, commit: Timestamp) {
        self.slots[Self::slot_of(start)] = (start.raw(), commit.raw());
    }

    #[inline]
    fn lookup(&self, start: Timestamp) -> Option<Timestamp> {
        let (s, c) = self.slots[Self::slot_of(start)];
        (s == start.raw()).then_some(Timestamp(c))
    }
}

/// The locked interior of one shard: its slice of the key space plus its
/// recent-commit cache.
#[derive(Debug, Default)]
struct ShardData {
    map: BTreeMap<Bytes, VersionChain>,
    recent: RecentCommits,
}

/// One region of the partitioned key space.
#[derive(Debug, Default)]
struct Shard {
    data: RwLock<ShardData>,
    /// The GC low-water mark last propagated to this shard (raw timestamp);
    /// consulted by insert-time chain pruning. Monotone non-decreasing.
    watermark: AtomicU64,
}

impl Shard {
    fn raise_watermark(&self, ts: Timestamp) {
        self.watermark.fetch_max(ts.raw(), Ordering::Relaxed);
    }

    fn watermark(&self) -> Timestamp {
        Timestamp(self.watermark.load(Ordering::Relaxed))
    }
}

/// Result of a snapshot read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotRead {
    /// A committed value is visible.
    Value(Bytes),
    /// The key is visibly deleted (tombstone) or has never been written in
    /// this snapshot.
    Absent,
}

impl SnapshotRead {
    /// Converts into `Option`, mapping `Absent` to `None`.
    pub fn into_option(self) -> Option<Bytes> {
        match self {
            SnapshotRead::Value(v) => Some(v),
            SnapshotRead::Absent => None,
        }
    }
}

/// Per-key version stamps: `(key, [(writer_start, committed_at)])` as raw
/// timestamps, in key order. Returned by [`MvccStore::dump_stamps`].
pub type VersionStamps = Vec<(Bytes, Vec<(u64, Option<u64>)>)>;

/// Counters describing GC activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Versions dropped because a newer committed version is below the
    /// watermark.
    pub versions_dropped: u64,
    /// Versions whose `committed_at` stamp was filled in.
    pub versions_stamped: u64,
    /// Versions of aborted transactions removed.
    pub aborted_removed: u64,
    /// Keys whose chains became empty and were removed.
    pub keys_removed: u64,
}

impl GcStats {
    fn merge(&mut self, other: GcStats) {
        self.versions_dropped += other.versions_dropped;
        self.versions_stamped += other.versions_stamped;
        self.aborted_removed += other.aborted_removed;
        self.keys_removed += other.keys_removed;
    }
}

/// The locked layout of the multi-version key space, partitioned into
/// independently locked shards (the PR 4 design, kept selectable behind
/// [`MvccStore`] so equivalence tests can gate the lock-free layout
/// against it).
///
/// [`LockedStore::new`] builds the single-lock compatibility layout (one
/// shard — exactly the pre-sharding store); [`LockedStore::with_shards`]
/// builds the partitioned layout. Snapshot reads and scans take a shard's
/// shared lock (the dominant operation mix — the paper's workloads are
/// ≥50 % reads); commit application, abort cleanup, and GC take exclusive
/// shard locks briefly, visiting multi-shard sets in ascending order.
#[derive(Debug)]
pub(crate) struct LockedStore {
    shards: Vec<Shard>,
    /// `64 - log2(shard count)`; unused when there is one shard.
    shift: u32,
    /// Chain length arming insert-time pruning.
    prune_len: usize,
    /// Per-shard lock metrics; `None` outside an instrumented `Db`.
    obs: Option<Arc<StoreShardObs>>,
}

impl Default for LockedStore {
    fn default() -> Self {
        Self::with_shards(1)
    }
}

impl LockedStore {
    /// Creates an empty single-shard store (the single-lock layout).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store partitioned into `shards` regions (rounded up
    /// to a power of two, minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        Self::with_config(shards, PRUNE_CHAIN_LEN)
    }

    /// Creates an empty store with an explicit insert-time prune bound
    /// (clamped to ≥ 2; the bench's chain-depth sweep varies it).
    pub fn with_config(shards: usize, prune_len: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        LockedStore {
            shards: (0..n).map(|_| Shard::default()).collect(),
            shift: 64 - (n as u64).trailing_zeros(),
            prune_len: prune_len.max(2),
            obs: None,
        }
    }

    /// Attaches per-shard lock/contention metrics (built by `Db::open`).
    pub(crate) fn attach_obs(&mut self, obs: Arc<StoreShardObs>) {
        self.obs = Some(obs);
    }

    /// Number of shards (always a power of two).
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key belongs to. Deterministic: the same key always maps
    /// to the same shard, which is what makes per-shard watermarks sound.
    #[inline]
    fn shard_of(&self, key: &[u8]) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            (hash_row_key(key).raw().wrapping_mul(FIB_HASH) >> self.shift) as usize
        }
    }

    /// Acquires a shard's read lock, counting the acquisition as contended
    /// when the non-blocking fast path fails. No clock reads on this path:
    /// snapshot reads stay as close to a bare `RwLock::read` as possible.
    #[inline]
    fn read_shard(&self, i: usize) -> parking_lot::RwLockReadGuard<'_, ShardData> {
        match self.shards[i].data.try_read() {
            Some(guard) => guard,
            None => {
                if let Some(obs) = &self.obs {
                    obs.note_contended(i);
                }
                self.shards[i].data.read()
            }
        }
    }

    /// Acquires a shard's write lock, counting contention and (when
    /// instrumented) recording the acquisition wait.
    #[inline]
    fn write_shard(&self, i: usize) -> parking_lot::RwLockWriteGuard<'_, ShardData> {
        match self.shards[i].data.try_write() {
            Some(guard) => guard,
            None => {
                let began = self
                    .obs
                    .as_ref()
                    .map(|obs| (obs, std::time::Instant::now()));
                let guard = self.shards[i].data.write();
                if let Some((obs, began)) = began {
                    obs.note_contended(i);
                    obs.note_lock_wait(began.elapsed().as_micros() as u64);
                }
                guard
            }
        }
    }

    /// Groups `keys` (any iterator of borrowable keys with payloads) by
    /// shard and yields the groups in ascending shard order — the canonical
    /// acquisition order shared with `wsi_core::sharded`. At most one shard
    /// lock is ever held at a time (see the module docs for why that is
    /// enough).
    fn by_shard<T>(&self, items: Vec<(usize, T)>) -> Vec<(usize, Vec<T>)> {
        let mut items = items;
        items.sort_by_key(|(shard, _)| *shard);
        let mut groups: Vec<(usize, Vec<T>)> = Vec::new();
        for (shard, item) in items {
            match groups.last_mut() {
                Some((s, group)) if *s == shard => group.push(item),
                _ => groups.push((shard, vec![item])),
            }
        }
        groups
    }

    /// Inserts an (invisible) version for `key`, tagged with its writer's
    /// start timestamp. `value = None` writes a tombstone.
    pub fn insert_version(&self, key: Bytes, writer_start: Timestamp, value: Option<Bytes>) {
        let shard = self.shard_of(&key);
        let watermark = self.shards[shard].watermark();
        let mut data = self.write_shard(shard);
        let pruned = data.map.entry(key).or_default().insert(
            Version {
                writer_start,
                value,
                committed_at: None,
            },
            watermark,
            self.prune_len,
        );
        drop(data);
        self.note_pruned(pruned);
    }

    /// Inserts a batch of versions (commit apply), visiting the touched
    /// shards in ascending order, one write lock at a time.
    pub fn insert_versions<I>(&self, writer_start: Timestamp, writes: I)
    where
        I: IntoIterator<Item = (Bytes, Option<Bytes>)>,
    {
        if self.shards.len() == 1 {
            let watermark = self.shards[0].watermark();
            let mut data = self.write_shard(0);
            let mut pruned = 0;
            for (key, value) in writes {
                pruned += data.map.entry(key).or_default().insert(
                    Version {
                        writer_start,
                        value,
                        committed_at: None,
                    },
                    watermark,
                    self.prune_len,
                );
            }
            drop(data);
            self.note_pruned(pruned);
            return;
        }
        let tagged: Vec<(usize, (Bytes, Option<Bytes>))> = writes
            .into_iter()
            .map(|(key, value)| (self.shard_of(&key), (key, value)))
            .collect();
        let mut pruned = 0;
        for (shard, group) in self.by_shard(tagged) {
            let watermark = self.shards[shard].watermark();
            let mut data = self.write_shard(shard);
            for (key, value) in group {
                pruned += data.map.entry(key).or_default().insert(
                    Version {
                        writer_start,
                        value,
                        committed_at: None,
                    },
                    watermark,
                    self.prune_len,
                );
            }
        }
        self.note_pruned(pruned);
    }

    /// Stamps the commit timestamp onto a writer's versions — the eager
    /// variant of the §2.2 "written back into the database" option — and
    /// records the commit in each touched shard's recent-commit cache.
    ///
    /// Called only after the commit is published (commit index for
    /// immediate-publish modes, post-quorum for `Durability::Sync`) or
    /// replayed from the WAL, so a stamp can never name an uncommitted
    /// transaction. Versions already removed by abort cleanup are silently
    /// skipped: stamping is keyed by `(key, writer_start)` and a missing
    /// version is a no-op, so the abort path cannot be stamped.
    pub fn stamp_commit<'a, I>(&self, writer_start: Timestamp, commit_ts: Timestamp, keys: I)
    where
        I: IntoIterator<Item = &'a Bytes>,
    {
        let tagged: Vec<(usize, &Bytes)> = keys
            .into_iter()
            .map(|key| (self.shard_of(key), key))
            .collect();
        for (shard, group) in self.by_shard(tagged) {
            let mut data = self.write_shard(shard);
            data.recent.record(writer_start, commit_ts);
            for key in group {
                if let Some(chain) = data.map.get_mut(key) {
                    if let Ok(i) = chain
                        .versions
                        .binary_search_by_key(&writer_start, |v| v.writer_start)
                    {
                        chain.versions[i].committed_at = Some(commit_ts);
                    }
                }
            }
        }
    }

    /// Removes a writer's versions (abort cleanup), visiting shards in
    /// ascending order.
    pub fn remove_versions<'a, I>(&self, writer_start: Timestamp, keys: I)
    where
        I: IntoIterator<Item = &'a Bytes>,
    {
        let tagged: Vec<(usize, &Bytes)> = keys
            .into_iter()
            .map(|key| (self.shard_of(key), key))
            .collect();
        for (shard, group) in self.by_shard(tagged) {
            let mut data = self.write_shard(shard);
            for key in group {
                if let Some(chain) = data.map.get_mut(key) {
                    chain.remove(writer_start);
                    if chain.versions.is_empty() {
                        data.map.remove(key);
                    }
                }
            }
        }
    }

    /// Reads `key` in the snapshot `reader_start`, holding only the key's
    /// shard lock. Hot-key reads resolve through the version stamp or the
    /// shard's recent-commit cache — a single binary search plus a cache
    /// probe, no commit-table detour.
    pub fn read<R: VersionResolver + ?Sized>(
        &self,
        key: &[u8],
        reader_start: Timestamp,
        resolver: &R,
    ) -> SnapshotRead {
        let data = self.read_shard(self.shard_of(key));
        match data
            .map
            .get(key)
            .and_then(|c| c.read(reader_start, &data.recent, resolver))
        {
            Some(v) => match &v.value {
                Some(bytes) => SnapshotRead::Value(bytes.clone()),
                None => SnapshotRead::Absent, // tombstone
            },
            None => SnapshotRead::Absent,
        }
    }

    /// Scans `[start, end)` in the snapshot, returning visible key/value
    /// pairs in key order. Tombstoned keys are omitted.
    ///
    /// Shards are visited one read lock at a time; because visibility is
    /// decided purely by `commit_ts < reader_start` and publication is
    /// monotone, the merged result equals what a single-lock scan at the
    /// same snapshot would return.
    pub fn scan<R: VersionResolver + ?Sized>(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        reader_start: Timestamp,
        resolver: &R,
        limit: usize,
    ) -> Vec<(Bytes, Bytes)> {
        let upper = match end {
            Some(e) => Bound::Excluded(e),
            None => Bound::Unbounded,
        };
        let mut out = Vec::new();
        for i in 0..self.shards.len() {
            let data = self.read_shard(i);
            let mut taken = 0usize;
            for (key, chain) in data.map.range::<[u8], _>((Bound::Included(start), upper)) {
                // Each shard contributes at most `limit` pairs: the merged
                // prefix of length `limit` can only contain keys that are
                // within the first `limit` of their own shard.
                if taken >= limit {
                    break;
                }
                if let Some(v) = chain.read(reader_start, &data.recent, resolver) {
                    if let Some(bytes) = &v.value {
                        out.push((key.clone(), bytes.clone()));
                        taken += 1;
                    }
                }
            }
        }
        if self.shards.len() > 1 {
            out.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        }
        out.truncate(limit);
        out
    }

    /// Number of keys with at least one version.
    pub fn key_count(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.read_shard(i).map.len())
            .sum()
    }

    /// Total number of stored versions (for GC tests and memory accounting).
    pub fn version_count(&self) -> usize {
        (0..self.shards.len())
            .map(|i| {
                self.read_shard(i)
                    .map
                    .values()
                    .map(|c| c.versions.len())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Per-shard `(keys, versions)` footprint, refreshing the registered
    /// per-shard gauges when instrumented.
    pub fn shard_footprint(&self) -> Vec<(usize, usize)> {
        let footprint: Vec<(usize, usize)> = (0..self.shards.len())
            .map(|i| {
                let data = self.read_shard(i);
                (
                    data.map.len(),
                    data.map.values().map(|c| c.versions.len()).sum(),
                )
            })
            .collect();
        if let Some(obs) = &self.obs {
            obs.set_footprint(&footprint);
        }
        footprint
    }

    /// Raises every shard's GC watermark to at least `watermark` without
    /// sweeping. Feeds insert-time chain pruning between full GC runs; the
    /// caller must guarantee `watermark` is ≤ the minimum start timestamp of
    /// any active or future snapshot.
    pub fn note_watermark(&self, watermark: Timestamp) {
        for shard in &self.shards {
            shard.raise_watermark(watermark);
        }
    }

    /// Dumps every version's `(writer_start, committed_at)` stamps, keyed by
    /// key, in key order. Diagnostic accessor: lets tests assert that WAL
    /// replay re-derives exactly the stamps the live database had.
    pub fn dump_stamps(&self) -> VersionStamps {
        let mut out: VersionStamps = Vec::new();
        for i in 0..self.shards.len() {
            let data = self.read_shard(i);
            for (key, chain) in data.map.iter() {
                out.push((
                    key.clone(),
                    chain
                        .versions
                        .iter()
                        .map(|v| (v.writer_start.raw(), v.committed_at.map(Timestamp::raw)))
                        .collect(),
                ));
            }
        }
        out.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        out
    }

    /// Garbage-collects versions no active or future snapshot can read,
    /// sweeping shards one at a time in ascending order.
    ///
    /// `watermark` must be ≤ the minimum start timestamp of any active
    /// transaction. For each key the newest committed version with
    /// `T_c < watermark` is retained (it is the visible version for the
    /// oldest possible snapshot); committed versions older than it are
    /// dropped, aborted versions are dropped, and surviving committed
    /// versions get their `committed_at` stamp so the commit table can be
    /// pruned afterwards. Each swept shard's watermark is raised, arming
    /// insert-time pruning for subsequent writes.
    pub fn gc<R: VersionResolver + ?Sized>(&self, watermark: Timestamp, resolver: &R) -> GcStats {
        let mut stats = GcStats::default();
        for (i, shard) in self.shards.iter().enumerate() {
            let mut data = self.write_shard(i);
            stats.merge(Self::gc_shard(&mut data.map, watermark, resolver));
            drop(data);
            shard.raise_watermark(watermark);
        }
        if let Some(obs) = &self.obs {
            obs.note_gc_sweep();
        }
        stats
    }

    /// The GC sweep over one shard's key space.
    fn gc_shard<R: VersionResolver + ?Sized>(
        map: &mut BTreeMap<Bytes, VersionChain>,
        watermark: Timestamp,
        resolver: &R,
    ) -> GcStats {
        let mut stats = GcStats::default();
        map.retain(|_, chain| {
            // Pass 1: resolve and stamp; collect fates.
            let mut newest_old_commit: Option<Timestamp> = None;
            let mut fates: Vec<Option<Timestamp>> = Vec::with_capacity(chain.versions.len());
            let mut aborted: Vec<bool> = Vec::with_capacity(chain.versions.len());
            for v in &mut chain.versions {
                let status = match v.committed_at {
                    Some(ts) => TxnStatus::Committed(ts),
                    None => resolver.resolve(v.writer_start),
                };
                match status {
                    TxnStatus::Committed(ts) => {
                        if v.committed_at.is_none() {
                            v.committed_at = Some(ts);
                            stats.versions_stamped += 1;
                        }
                        fates.push(Some(ts));
                        aborted.push(false);
                        if ts < watermark && newest_old_commit.is_none_or(|b| ts > b) {
                            newest_old_commit = Some(ts);
                        }
                    }
                    TxnStatus::Aborted => {
                        fates.push(None);
                        aborted.push(true);
                    }
                    TxnStatus::Pending => {
                        fates.push(None);
                        aborted.push(false);
                    }
                }
            }
            // Pass 2: retain pending versions, committed versions at or above
            // the per-key keep bound, and drop the rest.
            let mut i = 0;
            chain.versions.retain(|_| {
                let keep = if aborted[i] {
                    stats.aborted_removed += 1;
                    false
                } else {
                    match fates[i] {
                        None => true, // pending: must keep
                        Some(ts) => {
                            let keep = newest_old_commit.is_none_or(|bound| ts >= bound);
                            if !keep {
                                stats.versions_dropped += 1;
                            }
                            keep
                        }
                    }
                };
                i += 1;
                keep
            });
            if chain.versions.is_empty() {
                stats.keys_removed += 1;
                false
            } else {
                true
            }
        });
        stats
    }

    fn note_pruned(&self, pruned: u64) {
        if pruned > 0 {
            if let Some(obs) = &self.obs {
                obs.note_inline_pruned(pruned);
            }
        }
    }
}

/// Reclamation accounting for the arena layout (see [`MvccStore::reclamation`]).
///
/// The invariant `retired == freed + limbo` holds at every quiescent point:
/// every unlinked version is first *retired* (epoch-tagged onto the limbo
/// list) and later *freed* (slot recycled) once its grace period expires.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclamationStats {
    /// Current global reclamation epoch.
    pub epoch: u64,
    /// Versions ever retired to the limbo list.
    pub retired: u64,
    /// Versions whose slots have been recycled.
    pub freed: u64,
    /// Versions currently waiting out their grace period (`retired - freed`).
    pub limbo: u64,
    /// Arena chunks allocated (single-version and packed-node chunks).
    pub chunks: u64,
    /// Chains migrated from single-version nodes into packed multi-version
    /// nodes (adaptive layout; lifetime total).
    pub migrations: u64,
    /// Packed multi-version nodes retired whole (each also counts once in
    /// `retired`).
    pub packed_retired: u64,
}

/// Which data-plane layout an [`MvccStore`] (and a `Db`) uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StoreLayout {
    /// Per-shard `RwLock` + `BTreeMap` chains (the PR 4 design). Selected
    /// implicitly by `DbOptions::store_shards`.
    Locked,
    /// Lock-free chunked arena + CAS chain heads + epoch-based reclamation
    /// (see `crate::arena`). The default.
    #[default]
    Arena,
}

/// The concurrent multi-version key space, in one of two selectable
/// layouts with identical observable semantics:
///
/// * [`MvccStore::new`] / [`MvccStore::with_shards`] — the **locked**
///   layout: key space partitioned into independently `RwLock`ed shards.
/// * [`MvccStore::arena`] — the **lock-free** layout: chunked version
///   arena, CAS-installed chain heads, epoch-based reclamation. Snapshot
///   reads take no lock at all; GC is an incremental non-blocking sweep
///   over the keys written since the last one.
///
/// The equivalence proptests in `tests/store_equivalence.rs` drive all
/// four configurations (locked-1 / locked-16 / flat arena / adaptive
/// arena) through identical histories and assert identical reads, scans,
/// stamps, and GC stats.
#[derive(Debug)]
pub struct MvccStore {
    inner: StoreImpl,
}

#[derive(Debug)]
enum StoreImpl {
    Locked(LockedStore),
    // Boxed: the arena carries inline counters and epoch state, so the
    // variant would otherwise dwarf `Locked` (clippy: large_enum_variant).
    Arena(Box<ArenaStore>),
}

impl Default for MvccStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MvccStore {
    /// Creates an empty single-shard locked store (the single-lock layout).
    pub fn new() -> Self {
        MvccStore {
            inner: StoreImpl::Locked(LockedStore::new()),
        }
    }

    /// Creates an empty locked store partitioned into `shards` regions
    /// (rounded up to a power of two, minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        MvccStore {
            inner: StoreImpl::Locked(LockedStore::with_shards(shards)),
        }
    }

    /// Creates an empty lock-free arena store in the default (adaptive)
    /// configuration: hot chains migrate into packed multi-version nodes.
    pub fn arena() -> Self {
        MvccStore {
            inner: StoreImpl::Arena(Box::default()),
        }
    }

    /// Creates an empty lock-free arena store that never migrates chains —
    /// the flat one-version-per-node layout, kept selectable for
    /// equivalence tests and benchmarks.
    pub fn arena_flat() -> Self {
        MvccStore {
            inner: StoreImpl::Arena(Box::new(ArenaStore::with_config(false, PRUNE_CHAIN_LEN))),
        }
    }

    /// Creates a store from explicit configuration: the layout, the locked
    /// layout's shard count, whether the arena layout adapts hot chains
    /// into packed nodes, and the insert-time prune bound (`Db::open`'s
    /// single construction path).
    pub fn configured(
        layout: StoreLayout,
        shards: usize,
        arena_adaptive: bool,
        prune_len: usize,
    ) -> Self {
        match layout {
            StoreLayout::Locked => MvccStore {
                inner: StoreImpl::Locked(LockedStore::with_config(shards, prune_len)),
            },
            StoreLayout::Arena => MvccStore {
                inner: StoreImpl::Arena(Box::new(ArenaStore::with_config(
                    arena_adaptive,
                    prune_len,
                ))),
            },
        }
    }

    /// Whether this store uses the lock-free arena layout.
    pub fn is_arena(&self) -> bool {
        matches!(self.inner, StoreImpl::Arena(_))
    }

    /// Number of shards (always a power of two; the arena layout is a
    /// single logical region).
    #[inline]
    pub fn shard_count(&self) -> usize {
        match &self.inner {
            StoreImpl::Locked(s) => s.shard_count(),
            StoreImpl::Arena(_) => 1,
        }
    }

    /// Attaches per-shard lock/contention metrics (locked layout only).
    pub(crate) fn attach_obs(&mut self, obs: Arc<StoreShardObs>) {
        if let StoreImpl::Locked(s) = &mut self.inner {
            s.attach_obs(obs);
        }
    }

    /// Attaches epoch/reclamation metrics (arena layout only).
    pub(crate) fn attach_arena_obs(&mut self, obs: Arc<ArenaObs>) {
        if let StoreImpl::Arena(s) = &mut self.inner {
            s.attach_obs(obs);
        }
    }

    /// Inserts an (invisible) version for `key`, tagged with its writer's
    /// start timestamp. `value = None` writes a tombstone.
    pub fn insert_version(&self, key: Bytes, writer_start: Timestamp, value: Option<Bytes>) {
        match &self.inner {
            StoreImpl::Locked(s) => s.insert_version(key, writer_start, value),
            StoreImpl::Arena(s) => s.insert_version(key, writer_start, value),
        }
    }

    /// Inserts a batch of versions (commit apply).
    pub fn insert_versions<I>(&self, writer_start: Timestamp, writes: I)
    where
        I: IntoIterator<Item = (Bytes, Option<Bytes>)>,
    {
        match &self.inner {
            StoreImpl::Locked(s) => s.insert_versions(writer_start, writes),
            StoreImpl::Arena(s) => s.insert_versions(writer_start, writes),
        }
    }

    /// Stamps the commit timestamp onto a writer's versions — the eager
    /// variant of the §2.2 "written back into the database" option. Called
    /// only after the commit is published (or replayed from the WAL), so a
    /// stamp can never name an uncommitted transaction; versions already
    /// removed by abort cleanup are silently skipped.
    pub fn stamp_commit<'a, I>(&self, writer_start: Timestamp, commit_ts: Timestamp, keys: I)
    where
        I: IntoIterator<Item = &'a Bytes>,
    {
        match &self.inner {
            StoreImpl::Locked(s) => s.stamp_commit(writer_start, commit_ts, keys),
            StoreImpl::Arena(s) => s.stamp_commit(writer_start, commit_ts, keys),
        }
    }

    /// Removes a writer's versions (abort cleanup).
    pub fn remove_versions<'a, I>(&self, writer_start: Timestamp, keys: I)
    where
        I: IntoIterator<Item = &'a Bytes>,
    {
        match &self.inner {
            StoreImpl::Locked(s) => s.remove_versions(writer_start, keys),
            StoreImpl::Arena(s) => s.remove_versions(writer_start, keys),
        }
    }

    /// Reads `key` in the snapshot `reader_start`.
    pub fn read<R: VersionResolver + ?Sized>(
        &self,
        key: &[u8],
        reader_start: Timestamp,
        resolver: &R,
    ) -> SnapshotRead {
        match &self.inner {
            StoreImpl::Locked(s) => s.read(key, reader_start, resolver),
            StoreImpl::Arena(s) => s.read(key, reader_start, resolver),
        }
    }

    /// Scans `[start, end)` in the snapshot, returning visible key/value
    /// pairs in key order. Tombstoned keys are omitted.
    pub fn scan<R: VersionResolver + ?Sized>(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        reader_start: Timestamp,
        resolver: &R,
        limit: usize,
    ) -> Vec<(Bytes, Bytes)> {
        match &self.inner {
            StoreImpl::Locked(s) => s.scan(start, end, reader_start, resolver, limit),
            StoreImpl::Arena(s) => s.scan(start, end, reader_start, resolver, limit),
        }
    }

    /// Number of keys with at least one version.
    pub fn key_count(&self) -> usize {
        match &self.inner {
            StoreImpl::Locked(s) => s.key_count(),
            StoreImpl::Arena(s) => s.key_count(),
        }
    }

    /// Total number of stored versions (for GC tests and memory accounting).
    pub fn version_count(&self) -> usize {
        match &self.inner {
            StoreImpl::Locked(s) => s.version_count(),
            StoreImpl::Arena(s) => s.version_count(),
        }
    }

    /// Per-shard `(keys, versions)` footprint, refreshing the registered
    /// gauges when instrumented. The arena layout reports one entry, from
    /// counts it maintains at publish and unlink rather than a walk;
    /// [`MvccStore::key_count`] and [`MvccStore::version_count`] stay full
    /// walks on every layout, as the cross-check.
    pub fn shard_footprint(&self) -> Vec<(usize, usize)> {
        match &self.inner {
            StoreImpl::Locked(s) => s.shard_footprint(),
            StoreImpl::Arena(s) => vec![s.footprint()],
        }
    }

    /// Raises the GC watermark without sweeping; feeds insert-time chain
    /// pruning between full GC runs. The caller must guarantee `watermark`
    /// is ≤ the minimum start timestamp of any active or future snapshot.
    pub fn note_watermark(&self, watermark: Timestamp) {
        match &self.inner {
            StoreImpl::Locked(s) => s.note_watermark(watermark),
            StoreImpl::Arena(s) => s.note_watermark(watermark),
        }
    }

    /// Dumps every version's `(writer_start, committed_at)` stamps, keyed by
    /// key, in key order. Diagnostic accessor: lets tests assert that WAL
    /// replay re-derives exactly the stamps the live database had.
    pub fn dump_stamps(&self) -> VersionStamps {
        match &self.inner {
            StoreImpl::Locked(s) => s.dump_stamps(),
            StoreImpl::Arena(s) => s.dump_stamps(),
        }
    }

    /// Garbage-collects versions no active or future snapshot can read.
    ///
    /// `watermark` must be ≤ the minimum start timestamp of any active
    /// transaction. Both layouts apply the same keep rule (and report the
    /// same [`GcStats`] for the same quiescent history); the locked layout
    /// sweeps shard-by-shard under exclusive locks, while the arena layout
    /// visits only the keys written since its last sweep, key-by-key
    /// without ever blocking readers, retiring unlinked versions through
    /// epoch-based reclamation.
    pub fn gc<R: VersionResolver + ?Sized>(&self, watermark: Timestamp, resolver: &R) -> GcStats {
        match &self.inner {
            StoreImpl::Locked(s) => s.gc(watermark, resolver),
            StoreImpl::Arena(s) => s.gc(watermark, resolver),
        }
    }

    /// Background maintenance tick: advances the reclamation epoch and
    /// frees matured limbo entries (arena layout; no-op for locked).
    pub fn maintain(&self) {
        if let StoreImpl::Arena(s) = &self.inner {
            s.maintain();
        }
    }

    /// Reclamation accounting; `None` for the locked layout (which frees
    /// versions eagerly under its shard locks and has no limbo list).
    pub fn reclamation(&self) -> Option<ReclamationStats> {
        match &self.inner {
            StoreImpl::Locked(_) => None,
            StoreImpl::Arena(s) => Some(s.reclamation()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// A resolver backed by a closure table for tests.
    fn table(entries: &[(u64, TxnStatus)]) -> impl VersionResolver + '_ {
        move |ts: Timestamp| {
            entries
                .iter()
                .find(|(s, _)| Timestamp(*s) == ts)
                .map(|(_, st)| *st)
                .unwrap_or(TxnStatus::Pending)
        }
    }

    /// Every test layout: single-lock, partitioned, flat arena, and
    /// adaptive arena.
    fn layouts() -> [MvccStore; 4] {
        [
            MvccStore::new(),
            MvccStore::with_shards(8),
            MvccStore::arena_flat(),
            MvccStore::arena(),
        ]
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        for (req, got) in [(0, 1), (1, 1), (3, 4), (8, 8), (9, 16)] {
            assert_eq!(MvccStore::with_shards(req).shard_count(), got);
        }
    }

    #[test]
    fn uncommitted_versions_are_invisible() {
        for store in layouts() {
            store.insert_version(b("k"), Timestamp(1), Some(b("v")));
            let r = table(&[]);
            assert_eq!(store.read(b"k", Timestamp(100), &r), SnapshotRead::Absent);
        }
    }

    #[test]
    fn committed_version_visible_after_commit_ts() {
        for store in layouts() {
            store.insert_version(b("k"), Timestamp(1), Some(b("v")));
            let r = table(&[(1, TxnStatus::Committed(Timestamp(2)))]);
            assert_eq!(
                store.read(b"k", Timestamp(3), &r),
                SnapshotRead::Value(b("v"))
            );
            // Snapshot at exactly the commit timestamp: not visible (strict <).
            assert_eq!(store.read(b"k", Timestamp(2), &r), SnapshotRead::Absent);
        }
    }

    #[test]
    fn reader_picks_version_by_commit_order_not_start_order() {
        // Writer A starts first (ts 1) but commits last (ts 6); writer B
        // starts second (ts 2), commits first (ts 3). A snapshot at 10 must
        // see A's value because commit order decides.
        for store in layouts() {
            store.insert_version(b("k"), Timestamp(1), Some(b("from-A")));
            store.insert_version(b("k"), Timestamp(2), Some(b("from-B")));
            let r = table(&[
                (1, TxnStatus::Committed(Timestamp(6))),
                (2, TxnStatus::Committed(Timestamp(3))),
            ]);
            assert_eq!(
                store.read(b"k", Timestamp(10), &r),
                SnapshotRead::Value(b("from-A"))
            );
            // A snapshot between the commits sees B's value.
            assert_eq!(
                store.read(b"k", Timestamp(5), &r),
                SnapshotRead::Value(b("from-B"))
            );
        }
    }

    #[test]
    fn aborted_versions_are_skipped() {
        for store in layouts() {
            store.insert_version(b("k"), Timestamp(1), Some(b("old")));
            store.insert_version(b("k"), Timestamp(3), Some(b("doomed")));
            let r = table(&[
                (1, TxnStatus::Committed(Timestamp(2))),
                (3, TxnStatus::Aborted),
            ]);
            assert_eq!(
                store.read(b"k", Timestamp(10), &r),
                SnapshotRead::Value(b("old"))
            );
        }
    }

    #[test]
    fn tombstone_hides_key() {
        for store in layouts() {
            store.insert_version(b("k"), Timestamp(1), Some(b("v")));
            store.insert_version(b("k"), Timestamp(3), None);
            let r = table(&[
                (1, TxnStatus::Committed(Timestamp(2))),
                (3, TxnStatus::Committed(Timestamp(4))),
            ]);
            assert_eq!(store.read(b"k", Timestamp(10), &r), SnapshotRead::Absent);
            // Older snapshot still sees the value: time travel works.
            assert_eq!(
                store.read(b"k", Timestamp(3), &r),
                SnapshotRead::Value(b("v"))
            );
        }
    }

    #[test]
    fn remove_versions_cleans_up_abort() {
        for store in layouts() {
            store.insert_version(b("k"), Timestamp(1), Some(b("v")));
            store.remove_versions(Timestamp(1), [&b("k")]);
            assert_eq!(store.key_count(), 0);
        }
    }

    #[test]
    fn scan_returns_visible_keys_in_order() {
        for store in layouts() {
            for (i, key) in ["a", "b", "c", "d"].iter().enumerate() {
                store.insert_version(b(key), Timestamp(i as u64 + 1), Some(b("v")));
            }
            let r = table(&[
                (1, TxnStatus::Committed(Timestamp(10))),
                (2, TxnStatus::Aborted),
                (3, TxnStatus::Committed(Timestamp(11))),
                (4, TxnStatus::Pending),
            ]);
            let hits = store.scan(b"a", None, Timestamp(20), &r, usize::MAX);
            let keys: Vec<_> = hits.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(keys, vec![b("a"), b("c")]);
        }
    }

    #[test]
    fn scan_respects_bounds_and_limit() {
        for store in layouts() {
            for key in ["a", "b", "c", "d"] {
                store.insert_version(b(key), Timestamp(1), Some(b("v")));
            }
            let r = table(&[(1, TxnStatus::Committed(Timestamp(2)))]);
            let hits = store.scan(b"b", Some(b"d"), Timestamp(10), &r, usize::MAX);
            assert_eq!(hits.len(), 2);
            let hits = store.scan(b"a", None, Timestamp(10), &r, 3);
            assert_eq!(hits.len(), 3);
            assert_eq!(
                hits.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
                vec![b("a"), b("b"), b("c")],
                "limited scan keeps the smallest keys across shards"
            );
        }
    }

    #[test]
    fn stamped_commit_resolves_without_table() {
        for store in layouts() {
            store.insert_version(b("k"), Timestamp(1), Some(b("v")));
            store.stamp_commit(Timestamp(1), Timestamp(2), [&b("k")]);
            // Resolver claims Pending: the stamp must win.
            let r = table(&[]);
            assert_eq!(
                store.read(b"k", Timestamp(5), &r),
                SnapshotRead::Value(b("v"))
            );
        }
    }

    #[test]
    fn recent_commit_cache_resolves_sibling_unstamped_versions() {
        // Two keys in the same (only) shard; stamp only key "a", then ask
        // for "b": the shard's recent-commit cache must resolve the same
        // writer without the resolver.
        let store = MvccStore::new();
        store.insert_version(b("a"), Timestamp(1), Some(b("va")));
        store.insert_version(b("b"), Timestamp(1), Some(b("vb")));
        store.stamp_commit(Timestamp(1), Timestamp(2), [&b("a")]);
        let r = table(&[]); // resolver would answer Pending
        assert_eq!(
            store.read(b"b", Timestamp(5), &r),
            SnapshotRead::Value(b("vb"))
        );
    }

    #[test]
    fn stamping_a_removed_version_is_a_no_op() {
        // The abort path: versions removed before any stamp can land. A
        // late stamp for the same (key, writer) must not resurrect or
        // mis-stamp anything.
        for store in layouts() {
            store.insert_version(b("k"), Timestamp(3), Some(b("doomed")));
            store.remove_versions(Timestamp(3), [&b("k")]);
            store.stamp_commit(Timestamp(3), Timestamp(4), [&b("k")]);
            let r = table(&[]);
            assert_eq!(store.read(b"k", Timestamp(10), &r), SnapshotRead::Absent);
            assert_eq!(store.version_count(), 0);
            // And the stamps dump shows no resurrected version.
            assert!(store.dump_stamps().is_empty());
        }
    }

    #[test]
    fn gc_drops_superseded_and_aborted_versions() {
        for store in layouts() {
            store.insert_version(b("k"), Timestamp(1), Some(b("v1")));
            store.insert_version(b("k"), Timestamp(3), Some(b("v2")));
            store.insert_version(b("k"), Timestamp(5), Some(b("dead")));
            store.insert_version(b("k"), Timestamp(7), Some(b("pending")));
            let r = table(&[
                (1, TxnStatus::Committed(Timestamp(2))),
                (3, TxnStatus::Committed(Timestamp(4))),
                (5, TxnStatus::Aborted),
            ]);
            let stats = store.gc(Timestamp(100), &r);
            assert_eq!(stats.versions_dropped, 1); // v1 superseded by v2
            assert_eq!(stats.aborted_removed, 1); // dead
            assert_eq!(store.version_count(), 2); // v2 + pending
                                                  // v2 still readable, now via its stamp.
            assert_eq!(
                store.read(b"k", Timestamp(100), &|_ts: Timestamp| TxnStatus::Pending),
                SnapshotRead::Value(b("v2"))
            );
        }
    }

    #[test]
    fn gc_keeps_versions_above_watermark() {
        for store in layouts() {
            store.insert_version(b("k"), Timestamp(1), Some(b("v1")));
            store.insert_version(b("k"), Timestamp(3), Some(b("v2")));
            let r = table(&[
                (1, TxnStatus::Committed(Timestamp(2))),
                (3, TxnStatus::Committed(Timestamp(4))),
            ]);
            // Watermark 3: an active snapshot at 3 must still read v1.
            let stats = store.gc(Timestamp(3), &r);
            assert_eq!(stats.versions_dropped, 0);
            assert_eq!(
                store.read(b"k", Timestamp(3), &r),
                SnapshotRead::Value(b("v1"))
            );
        }
    }

    #[test]
    fn gc_removes_empty_keys() {
        for store in layouts() {
            store.insert_version(b("k"), Timestamp(1), Some(b("v")));
            let r = table(&[(1, TxnStatus::Aborted)]);
            let stats = store.gc(Timestamp(100), &r);
            assert_eq!(stats.keys_removed, 1);
            assert_eq!(store.key_count(), 0);
        }
    }

    #[test]
    fn gc_keeps_newest_tombstone_below_watermark() {
        // A tombstone that is the newest committed version below the
        // watermark must be kept: it proves the key is deleted for old
        // snapshots still above its commit.
        for store in layouts() {
            store.insert_version(b("k"), Timestamp(1), Some(b("v")));
            store.insert_version(b("k"), Timestamp(3), None);
            let r = table(&[
                (1, TxnStatus::Committed(Timestamp(2))),
                (3, TxnStatus::Committed(Timestamp(4))),
            ]);
            store.gc(Timestamp(100), &r);
            assert_eq!(store.version_count(), 1);
            assert_eq!(store.read(b"k", Timestamp(100), &r), SnapshotRead::Absent);
        }
    }

    #[test]
    fn insert_prunes_long_chains_below_the_watermark() {
        // A hot key written by thousands of already-stamped writers: with
        // the watermark raised past them, the chain must stay bounded by
        // insert-time pruning alone (no explicit GC sweep).
        for store in [
            MvccStore::new(),
            MvccStore::arena_flat(),
            MvccStore::arena(),
        ] {
            for i in 1..=4_000u64 {
                let start = 2 * i - 1;
                let commit = 2 * i;
                store.insert_version(b("hot"), Timestamp(start), Some(b("v")));
                store.stamp_commit(Timestamp(start), Timestamp(commit), [&b("hot")]);
                store.note_watermark(Timestamp(commit + 1));
            }
            assert!(
                store.version_count() <= PRUNE_CHAIN_LEN + 1,
                "chain stayed bounded: {} versions",
                store.version_count()
            );
            // The newest committed version is still the visible one.
            let r = table(&[]);
            assert_eq!(
                store.read(b"hot", Timestamp(u64::MAX), &r),
                SnapshotRead::Value(b("v"))
            );
        }
    }

    #[test]
    fn insert_pruning_never_drops_unstamped_or_kept_versions() {
        // Mixed chain: stamped-old (prunable), stamped-new (keep bound),
        // unstamped pending (must keep). Grow past the threshold and check
        // the survivors.
        for store in [
            MvccStore::new(),
            MvccStore::arena_flat(),
            MvccStore::arena(),
        ] {
            // An unstamped pending version from writer 1.
            store.insert_version(b("k"), Timestamp(1), Some(b("pending")));
            for i in 2..=(PRUNE_CHAIN_LEN as u64 + 8) {
                store.insert_version(b("k"), Timestamp(10 * i), Some(b("v")));
                store.stamp_commit(Timestamp(10 * i), Timestamp(10 * i + 1), [&b("k")]);
            }
            store.note_watermark(Timestamp(u64::MAX));
            // Next insert triggers the prune.
            store.insert_version(b("k"), Timestamp(3), Some(b("pending2")));
            let stamps = store.dump_stamps();
            let chain = &stamps[0].1;
            // Both unstamped versions survive; exactly one stamped version
            // (the newest below the watermark) survives.
            assert!(chain.contains(&(1, None)));
            assert!(chain.contains(&(3, None)));
            assert_eq!(chain.iter().filter(|(_, c)| c.is_some()).count(), 1);
            let newest = (PRUNE_CHAIN_LEN as u64 + 8) * 10;
            assert!(chain.contains(&(newest, Some(newest + 1))));
        }
    }

    #[test]
    fn all_layouts_agree_on_a_mixed_workload() {
        let single = MvccStore::new();
        let sharded = MvccStore::with_shards(8);
        let arena_flat = MvccStore::arena_flat();
        let arena = MvccStore::arena();
        let entries: Vec<(u64, TxnStatus)> = (0..50u64)
            .map(|i| {
                let fate = match i % 3 {
                    0 => TxnStatus::Committed(Timestamp(1000 + i)),
                    1 => TxnStatus::Aborted,
                    _ => TxnStatus::Pending,
                };
                (i + 1, fate)
            })
            .collect();
        for store in [&single, &sharded, &arena_flat, &arena] {
            for i in 0..50u64 {
                let key = b(&format!("key-{:03}", i * 7 % 40));
                let value = (i % 5 != 4).then(|| b(&format!("v{i}")));
                store.insert_version(key, Timestamp(i + 1), value);
            }
        }
        let r = table(&entries);
        for snap in [
            Timestamp(1),
            Timestamp(1010),
            Timestamp(1025),
            Timestamp(2000),
        ] {
            for i in 0..40u64 {
                let key = format!("key-{i:03}");
                let expect = single.read(key.as_bytes(), snap, &r);
                for other in [&sharded, &arena_flat, &arena] {
                    assert_eq!(
                        expect,
                        other.read(key.as_bytes(), snap, &r),
                        "key {key} at snapshot {snap:?}"
                    );
                }
            }
            for other in [&sharded, &arena_flat, &arena] {
                assert_eq!(
                    single.scan(b"", None, snap, &r, usize::MAX),
                    other.scan(b"", None, snap, &r, usize::MAX)
                );
                assert_eq!(
                    single.scan(b"key-010", Some(b"key-030"), snap, &r, 7),
                    other.scan(b"key-010", Some(b"key-030"), snap, &r, 7)
                );
            }
        }
        let s1 = single.gc(Timestamp(1015), &r);
        for other in [&sharded, &arena_flat, &arena] {
            assert_eq!(
                s1,
                other.gc(Timestamp(1015), &r),
                "GC stats agree across layouts"
            );
            assert_eq!(
                single.scan(b"", None, Timestamp(2000), &r, usize::MAX),
                other.scan(b"", None, Timestamp(2000), &r, usize::MAX)
            );
        }
        // Arena GC actually reclaims: everything unlinked is either freed
        // already or waiting out its grace period, never both.
        for store in [&arena_flat, &arena] {
            let rec = store.reclamation().expect("arena reports reclamation");
            assert_eq!(rec.retired, rec.freed + rec.limbo);
            assert!(rec.retired > 0, "the sweep retired the dropped versions");
        }
    }
}
