//! The multi-version storage layer's shared vocabulary.
//!
//! "Multi-version databases maintain multiple versions for the data and add
//! the new data as a new version instead of rewriting the old data. This
//! enables the transactions to read from an arbitrary snapshot of the
//! database" (§4). The store that does this is `crate::arena`'s
//! `ArenaStore`: an ordered key index over per-key *version chains*,
//! where each version is tagged with the **start timestamp of its writer**
//! (the Omid scheme — uncommitted data goes into the main store, invisible
//! until the writer's commit is published in its registry entry). Readers
//! take no lock: they probe the chain-head table and walk the chain;
//! writers publish with one CAS; unlinked versions are freed once the
//! active-transaction registry's watermark passes them (see the `arena`
//! module docs and DESIGN.md §6).
//!
//! This module holds what `Db` and the store share: the
//! `VersionResolver` seam, the helper that turns a read into one `Bytes`,
//! and the GC and reclamation accounting types. Its unit tests state the
//! store's observable contract.
//!
//! # Visibility
//!
//! A version is readable in a snapshot `T_s` if its writer committed with
//! `T_c < T_s` (§2.2). The commit timestamp is resolved in two tiers,
//! cheapest first:
//!
//! 1. the version's own `committed_at` stamp — filled in **eagerly at
//!    commit publish time** (and re-derived identically by WAL replay and by
//!    the GC), so steady-state reads never leave the chain;
//! 2. the caller-supplied `VersionResolver` — the writer's entry in the
//!    active-transaction registry, for a version whose stamp has not landed
//!    yet; a reader that finds no entry re-reads the stamp (`arena::Version::fate`).
//!
//! Nothing here needs cross-key atomicity: versions are invisible until the
//! writer's commit is published in its registry entry (a single
//! linearization point), and abort cleanup removes versions that were never
//! visible.

use std::cell::RefCell;

use bytes::Bytes;
use wsi_core::{Timestamp, TxnStatus};

/// Resolves the fate of the transaction that wrote a version.
///
/// Implemented by the active-transaction registry; injected so this layer
/// stays independent of concurrency-control policy.
pub(crate) trait VersionResolver {
    /// Status of the transaction that started at `writer_start`.
    fn resolve(&self, writer_start: Timestamp) -> TxnStatus;
}

/// A resolver keyed by writer start alone, for tests without a registry.
impl<F: Fn(Timestamp) -> TxnStatus> VersionResolver for F {
    fn resolve(&self, writer_start: Timestamp) -> TxnStatus {
        self(writer_start)
    }
}

/// Runs `read`, which fills a buffer and says whether the key has a value,
/// and returns that value as one [`Bytes`]. The read fills this thread's
/// scratch buffer, reused from read to read, so the `Bytes` is the read's
/// one allocation.
pub(crate) fn read_bytes(read: impl FnOnce(&mut Vec<u8>) -> bool) -> Option<Bytes> {
    thread_local! {
        static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    }
    SCRATCH.with_borrow_mut(|buf| {
        buf.clear();
        read(buf).then(|| Bytes::copy_from_slice(buf))
    })
}

/// Result of a snapshot read, as the store's tests state it.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SnapshotRead {
    /// A committed value is visible.
    Value(Bytes),
    /// The key is visibly deleted (tombstone) or has never been written in
    /// this snapshot.
    Absent,
}

/// Per-key version stamps: `(key, [(writer_start, committed_at)])` as raw
/// timestamps, in key order. Returned by [`crate::Db::version_stamps`].
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

/// Reclamation accounting of the version store (see
/// [`crate::Db::reclamation`]).
///
/// The invariant `retired == freed + limbo` holds at every quiescent point:
/// every unlinked version is first *retired* (tagged onto the limbo list)
/// and later *freed* (slot recycled) once the registry watermark passes its
/// tag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclamationStats {
    /// Versions ever retired to the limbo list.
    pub retired: u64,
    /// Versions whose slots have been recycled.
    pub freed: u64,
    /// Versions retired but not yet below the watermark (`retired - freed`).
    pub limbo: u64,
    /// Arena chunks allocated, over every slot size class.
    pub chunks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{ArenaStore, PRUNE_CHAIN_LEN};

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

    #[test]
    fn uncommitted_versions_are_invisible() {
        let store = ArenaStore::standalone();
        store.insert_version(b("k"), Timestamp(1), Some(b("v")));
        let r = table(&[]);
        assert_eq!(
            store.read_key(b"k", Timestamp(100), &r),
            SnapshotRead::Absent
        );
    }

    #[test]
    fn committed_version_visible_after_commit_ts() {
        let store = ArenaStore::standalone();
        store.insert_version(b("k"), Timestamp(1), Some(b("v")));
        let r = table(&[(1, TxnStatus::Committed(Timestamp(2)))]);
        assert_eq!(
            store.read_key(b"k", Timestamp(3), &r),
            SnapshotRead::Value(b("v"))
        );
        // Snapshot at exactly the commit timestamp: not visible (strict <).
        assert_eq!(store.read_key(b"k", Timestamp(2), &r), SnapshotRead::Absent);
    }

    #[test]
    fn reader_picks_version_by_commit_order_not_start_order() {
        // Writer A starts first (ts 1) but commits last (ts 6); writer B
        // starts second (ts 2), commits first (ts 3). A snapshot at 10 must
        // see A's value because commit order decides.
        let store = ArenaStore::standalone();
        store.insert_version(b("k"), Timestamp(1), Some(b("from-A")));
        store.insert_version(b("k"), Timestamp(2), Some(b("from-B")));
        let r = table(&[
            (1, TxnStatus::Committed(Timestamp(6))),
            (2, TxnStatus::Committed(Timestamp(3))),
        ]);
        assert_eq!(
            store.read_key(b"k", Timestamp(10), &r),
            SnapshotRead::Value(b("from-A"))
        );
        // A snapshot between the commits sees B's value.
        assert_eq!(
            store.read_key(b"k", Timestamp(5), &r),
            SnapshotRead::Value(b("from-B"))
        );
    }

    #[test]
    fn aborted_versions_are_skipped() {
        let store = ArenaStore::standalone();
        store.insert_version(b("k"), Timestamp(1), Some(b("old")));
        store.insert_version(b("k"), Timestamp(3), Some(b("doomed")));
        let r = table(&[
            (1, TxnStatus::Committed(Timestamp(2))),
            (3, TxnStatus::Aborted),
        ]);
        assert_eq!(
            store.read_key(b"k", Timestamp(10), &r),
            SnapshotRead::Value(b("old"))
        );
    }

    #[test]
    fn tombstone_hides_key() {
        let store = ArenaStore::standalone();
        store.insert_version(b("k"), Timestamp(1), Some(b("v")));
        store.insert_version(b("k"), Timestamp(3), None);
        let r = table(&[
            (1, TxnStatus::Committed(Timestamp(2))),
            (3, TxnStatus::Committed(Timestamp(4))),
        ]);
        assert_eq!(
            store.read_key(b"k", Timestamp(10), &r),
            SnapshotRead::Absent
        );
        // Older snapshot still sees the value: time travel works.
        assert_eq!(
            store.read_key(b"k", Timestamp(3), &r),
            SnapshotRead::Value(b("v"))
        );
    }

    #[test]
    fn remove_versions_cleans_up_abort() {
        let store = ArenaStore::standalone();
        store.insert_version(b("k"), Timestamp(1), Some(b("v")));
        store.remove_keys(Timestamp(1), [&b("k")]);
        assert_eq!(store.key_count(), 0);
    }

    #[test]
    fn scan_returns_visible_keys_in_order() {
        let store = ArenaStore::standalone();
        for (i, key) in ["a", "b", "c", "d"].iter().enumerate() {
            store.insert_version(b(key), Timestamp(i as u64 + 1), Some(b("v")));
        }
        let r = table(&[
            (1, TxnStatus::Committed(Timestamp(10))),
            (2, TxnStatus::Aborted),
            (3, TxnStatus::Committed(Timestamp(11))),
            (4, TxnStatus::Pending),
        ]);
        let hits = store.scan_pairs(b"a", None, Timestamp(20), &r, usize::MAX);
        let keys: Vec<_> = hits.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![b("a"), b("c")]);
    }

    #[test]
    fn scan_respects_bounds_and_limit() {
        let store = ArenaStore::standalone();
        for key in ["a", "b", "c", "d"] {
            store.insert_version(b(key), Timestamp(1), Some(b("v")));
        }
        let r = table(&[(1, TxnStatus::Committed(Timestamp(2)))]);
        let hits = store.scan_pairs(b"b", Some(b"d"), Timestamp(10), &r, usize::MAX);
        assert_eq!(hits.len(), 2);
        let hits = store.scan_pairs(b"a", None, Timestamp(10), &r, 3);
        assert_eq!(hits.len(), 3);
        assert_eq!(
            hits.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            vec![b("a"), b("b"), b("c")],
            "limited scan keeps the smallest keys"
        );
    }

    #[test]
    fn stamped_commit_resolves_without_table() {
        let store = ArenaStore::standalone();
        store.insert_version(b("k"), Timestamp(1), Some(b("v")));
        store.stamp_keys(Timestamp(1), Timestamp(2), [&b("k")]);
        // Resolver claims Pending: the stamp must win.
        let r = table(&[]);
        assert_eq!(
            store.read_key(b"k", Timestamp(5), &r),
            SnapshotRead::Value(b("v"))
        );
    }

    #[test]
    fn stamping_a_removed_version_is_a_no_op() {
        // The abort path: versions removed before any stamp can land. A
        // late stamp for the same (key, writer) must not resurrect or
        // mis-stamp anything.
        let store = ArenaStore::standalone();
        store.insert_version(b("k"), Timestamp(3), Some(b("doomed")));
        store.remove_keys(Timestamp(3), [&b("k")]);
        store.stamp_keys(Timestamp(3), Timestamp(4), [&b("k")]);
        let r = table(&[]);
        assert_eq!(
            store.read_key(b"k", Timestamp(10), &r),
            SnapshotRead::Absent
        );
        assert_eq!(store.version_count(), 0);
        // And the stamps dump shows no resurrected version.
        assert!(store.dump_stamps().is_empty());
    }

    #[test]
    fn gc_drops_superseded_and_aborted_versions() {
        let store = ArenaStore::standalone();
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
            store.read_key(b"k", Timestamp(100), &|_ts: Timestamp| TxnStatus::Pending),
            SnapshotRead::Value(b("v2"))
        );
    }

    #[test]
    fn gc_keeps_versions_above_watermark() {
        let store = ArenaStore::standalone();
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
            store.read_key(b"k", Timestamp(3), &r),
            SnapshotRead::Value(b("v1"))
        );
    }

    #[test]
    fn gc_removes_empty_keys() {
        let store = ArenaStore::standalone();
        store.insert_version(b("k"), Timestamp(1), Some(b("v")));
        let r = table(&[(1, TxnStatus::Aborted)]);
        let stats = store.gc(Timestamp(100), &r);
        assert_eq!(stats.keys_removed, 1);
        assert_eq!(store.key_count(), 0);
    }

    #[test]
    fn gc_keeps_newest_tombstone_below_watermark() {
        // A tombstone that is the newest committed version below the
        // watermark must be kept: it proves the key is deleted for old
        // snapshots still above its commit.
        let store = ArenaStore::standalone();
        store.insert_version(b("k"), Timestamp(1), Some(b("v")));
        store.insert_version(b("k"), Timestamp(3), None);
        let r = table(&[
            (1, TxnStatus::Committed(Timestamp(2))),
            (3, TxnStatus::Committed(Timestamp(4))),
        ]);
        store.gc(Timestamp(100), &r);
        assert_eq!(store.version_count(), 1);
        assert_eq!(
            store.read_key(b"k", Timestamp(100), &r),
            SnapshotRead::Absent
        );
    }

    #[test]
    fn insert_prunes_long_chains_below_the_watermark() {
        // A hot key written by thousands of already-stamped writers: with
        // the watermark raised past them, the chain must stay bounded by
        // insert-time pruning alone (no explicit GC sweep).
        let store = ArenaStore::standalone();
        for i in 1..=4_000u64 {
            let start = 2 * i - 1;
            let commit = 2 * i;
            store.insert_version(b("hot"), Timestamp(start), Some(b("v")));
            store.stamp_keys(Timestamp(start), Timestamp(commit), [&b("hot")]);
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
            store.read_key(b"hot", Timestamp(u64::MAX), &r),
            SnapshotRead::Value(b("v"))
        );
    }

    #[test]
    fn insert_pruning_never_drops_unstamped_or_kept_versions() {
        // Mixed chain: stamped-old (prunable), stamped-new (keep bound),
        // unstamped pending (must keep). Grow past the threshold and check
        // the survivors.
        let store = ArenaStore::standalone();
        // An unstamped pending version from writer 1.
        store.insert_version(b("k"), Timestamp(1), Some(b("pending")));
        for i in 2..=(PRUNE_CHAIN_LEN as u64 + 8) {
            store.insert_version(b("k"), Timestamp(10 * i), Some(b("v")));
            store.stamp_keys(Timestamp(10 * i), Timestamp(10 * i + 1), [&b("k")]);
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

    #[test]
    fn a_mixed_workload_matches_the_visibility_rule() {
        // 50 writers over 40 keys — a third committed (at 1000 + i), a third
        // aborted, a third pending, every fifth write a tombstone — with
        // reads, scans and the GC's counts checked against the §2.2 rule
        // itself, evaluated by brute force over the write list.
        let fate = |i: u64| match i % 3 {
            0 => TxnStatus::Committed(Timestamp(1000 + i)),
            1 => TxnStatus::Aborted,
            _ => TxnStatus::Pending,
        };
        let key_of = |i: u64| format!("key-{:03}", i * 7 % 40);
        let value_of = |i: u64| (i % 5 != 4).then(|| b(&format!("v{i}")));
        let store = ArenaStore::standalone();
        for i in 0..50u64 {
            store.insert_version(b(&key_of(i)), Timestamp(i + 1), value_of(i));
        }
        let r = |ts: Timestamp| fate(ts.raw() - 1);
        // Commit timestamps of a key's committed writers, with the writer.
        let commits = |key: &str| -> Vec<(u64, u64)> {
            (0..50u64)
                .filter(|&i| key_of(i) == key)
                .filter_map(|i| match fate(i) {
                    TxnStatus::Committed(ts) => Some((ts.raw(), i)),
                    _ => None,
                })
                .collect()
        };
        let keys: Vec<String> = (0..40).map(|k| format!("key-{k:03}")).collect();
        let check_snapshot = |snap: u64| {
            let mut visible: Vec<(Bytes, Bytes)> = Vec::new();
            for key in &keys {
                let newest = commits(key).into_iter().filter(|(ts, _)| *ts < snap).max();
                let expect = newest.and_then(|(_, i)| value_of(i));
                assert_eq!(
                    store.read_key(key.as_bytes(), Timestamp(snap), &r),
                    expect
                        .clone()
                        .map_or(SnapshotRead::Absent, SnapshotRead::Value),
                    "key {key} at snapshot {snap}"
                );
                visible.extend(expect.map(|v| (b(key), v)));
            }
            assert_eq!(
                store.scan_pairs(b"", None, Timestamp(snap), &r, usize::MAX),
                visible
            );
            let bounded: Vec<_> = visible
                .iter()
                .filter(|(k, _)| (&b"key-010"[..]..&b"key-030"[..]).contains(&&k[..]))
                .take(7)
                .cloned()
                .collect();
            assert_eq!(
                store.scan_pairs(b"key-010", Some(b"key-030"), Timestamp(snap), &r, 7),
                bounded
            );
        };
        for snap in [1, 1010, 1025, 2000] {
            check_snapshot(snap);
        }
        // GC at 1015: aborted versions go, every commit is stamped, commits
        // older than a key's newest one below the watermark are dropped, and
        // a key left with no version is removed.
        let mut expect = GcStats::default();
        for key in &keys {
            let writers: Vec<u64> = (0..50u64).filter(|&i| key_of(i) == *key).collect();
            let commits = commits(key);
            let bound = commits
                .iter()
                .map(|(ts, _)| *ts)
                .filter(|&ts| ts < 1015)
                .max();
            let dropped = commits.iter().filter(|(ts, _)| Some(*ts) < bound).count();
            let aborted = writers
                .iter()
                .filter(|&&i| fate(i) == TxnStatus::Aborted)
                .count();
            expect.versions_stamped += commits.len() as u64;
            expect.versions_dropped += dropped as u64;
            expect.aborted_removed += aborted as u64;
            expect.keys_removed += u64::from(!writers.is_empty() && aborted == writers.len());
        }
        assert_eq!(store.gc(Timestamp(1015), &r), expect);
        assert!(expect.aborted_removed > 0 && expect.keys_removed > 0);
        // Snapshots at or above the watermark read what they read before.
        check_snapshot(1015);
        check_snapshot(2000);
        // Everything the sweep unlinked is freed already or waiting for the
        // watermark, never both.
        let rec = store.reclamation();
        assert_eq!(rec.retired, rec.freed + rec.limbo);
        assert_eq!(
            rec.retired,
            expect.versions_dropped + expect.aborted_removed
        );
    }
}
