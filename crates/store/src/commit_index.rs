//! The published commit index: the embedded store's commit table (§2.2),
//! the one place a transaction's fate is kept.
//!
//! The status oracle decides commits under its `lastCommit` shard locks and
//! keeps no per-transaction state; readers must not contend on those locks
//! for every version they resolve. This table is read under a cheap shared
//! lock and pruned by [`crate::Db::gc`]. What guarantees a transaction that
//! begins after a commit observes it depends on the durability mode:
//! immediately-published commits issue their commit timestamp *inside* this
//! index's write lock ([`CommitIndex::record_commit_with`]), while
//! sync-durable commits are published post-flush behind the pipeline's
//! snapshot-stability gate.
//!
//! This corresponds to the paper's client-side replication of commit
//! timestamps (§2.2: "to avoid additional calls into the status oracle
//! server … they could be … replicated on the clients") — in an embedded
//! store every thread is a client, so the shared replica is the only copy.

use parking_lot::RwLock;
use wsi_core::{CommitTable, Timestamp, TxnStatus};

use crate::mvcc::VersionResolver;

/// Thread-safe transaction-status lookup for snapshot reads.
#[derive(Debug, Default)]
pub(crate) struct CommitIndex {
    inner: RwLock<CommitTable>,
}

impl CommitIndex {
    /// Creates an empty index.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Publishes a commit. Without a WAL this happens at decide time (see
    /// [`CommitIndex::record_commit_with`]); with one, the group-commit
    /// leader calls it only after the commit's batch reached its write
    /// quorum — the visibility flip waits for durability.
    pub(crate) fn record_commit(&self, start_ts: Timestamp, commit_ts: Timestamp) {
        self.inner.write().record_commit(start_ts, commit_ts);
    }

    /// Publishes a commit whose timestamp is allocated *inside* the index's
    /// write critical section.
    ///
    /// With lock-free begins, a reader's snapshot timestamp does not
    /// serialize with any commit decision, so "issue `commit_ts`, then
    /// publish" leaves a window where a snapshot `S > commit_ts` exists
    /// but resolves the commit as pending — a non-repeatable read. Running
    /// `alloc` under the same write lock readers resolve through closes it:
    /// any snapshot that observes `S > commit_ts` was issued after this
    /// critical section began and therefore reads after it publishes.
    pub(crate) fn record_commit_with(
        &self,
        start_ts: Timestamp,
        alloc: impl FnOnce() -> Timestamp,
    ) -> Timestamp {
        let mut table = self.inner.write();
        let commit_ts = alloc();
        table.record_commit(start_ts, commit_ts);
        commit_ts
    }

    /// Publishes an abort.
    pub(crate) fn record_abort(&self, start_ts: Timestamp) {
        self.inner.write().record_abort(start_ts);
    }

    /// Queries a transaction's status.
    pub(crate) fn status(&self, start_ts: Timestamp) -> TxnStatus {
        self.inner.read().status(start_ts)
    }

    /// Drops the entries no reader can need once `watermark`, a registry
    /// watermark, is computed: commits with `commit_ts < watermark` and
    /// aborts with `start_ts < watermark`. No GC pass has to come first. A
    /// commit below the watermark has an owner that stamped its versions,
    /// then deregistered, so the stamps carry it; a reader that found a
    /// version unstamped re-reads the stamp when the index does not answer
    /// `Committed` (`arena::fate`). Aborted versions are removed before the
    /// owner deregisters.
    pub(crate) fn prune_below(&self, watermark: Timestamp) {
        self.inner.write().prune_committed_below(watermark);
    }

    /// Number of commit entries currently held.
    #[cfg(test)]
    pub(crate) fn committed_count(&self) -> usize {
        self.inner.read().committed_count()
    }
}

impl VersionResolver for CommitIndex {
    fn resolve(&self, writer_start: Timestamp) -> TxnStatus {
        self.status(writer_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_resolve() {
        let idx = CommitIndex::new();
        idx.record_commit(Timestamp(1), Timestamp(2));
        idx.record_abort(Timestamp(3));
        assert_eq!(idx.status(Timestamp(1)), TxnStatus::Committed(Timestamp(2)));
        assert_eq!(idx.status(Timestamp(3)), TxnStatus::Aborted);
        assert_eq!(idx.status(Timestamp(9)), TxnStatus::Pending);
        assert_eq!(
            idx.resolve(Timestamp(1)),
            TxnStatus::Committed(Timestamp(2))
        );
    }

    #[test]
    fn prune_keeps_straddling_commits() {
        let idx = CommitIndex::new();
        idx.record_commit(Timestamp(1), Timestamp(2)); // fully below
        idx.record_commit(Timestamp(3), Timestamp(12)); // straddles watermark
        idx.record_commit(Timestamp(10), Timestamp(11)); // fully above
        idx.record_abort(Timestamp(4));
        idx.record_abort(Timestamp(14));
        idx.prune_below(Timestamp(10));
        assert_eq!(idx.status(Timestamp(1)), TxnStatus::Pending); // pruned
        assert_eq!(
            idx.status(Timestamp(3)),
            TxnStatus::Committed(Timestamp(12))
        );
        assert_eq!(
            idx.status(Timestamp(10)),
            TxnStatus::Committed(Timestamp(11))
        );
        assert_eq!(idx.status(Timestamp(4)), TxnStatus::Pending); // pruned
        assert_eq!(idx.status(Timestamp(14)), TxnStatus::Aborted);
    }

    proptest::proptest! {
        /// `prune_below` against its three-line specification: a commit
        /// survives iff it committed at or above the watermark, an abort
        /// iff it started at or above it — whatever the mix of fully-below,
        /// straddling and fully-above transactions.
        #[test]
        fn prune_matches_the_keep_rule(
            spans in proptest::collection::vec((1u64..40, 1u64..25), 0..40),
            aborted in proptest::collection::vec(proptest::arbitrary::any::<bool>(), 40..41),
            watermark in 0u64..900,
        ) {
            let idx = CommitIndex::new();
            let mut next_start = 0;
            let mut fates = Vec::new();
            for (i, (gap, length)) in spans.iter().enumerate() {
                next_start += gap; // distinct, ascending starts
                let start = Timestamp(next_start);
                if aborted[i] {
                    idx.record_abort(start);
                    fates.push((start, TxnStatus::Aborted));
                } else {
                    let commit = Timestamp(next_start + length);
                    idx.record_commit(start, commit);
                    fates.push((start, TxnStatus::Committed(commit)));
                }
            }
            idx.prune_below(Timestamp(watermark));
            for (start, fate) in fates {
                let keep = match fate {
                    TxnStatus::Committed(commit) => commit.raw() >= watermark,
                    _ => start.raw() >= watermark,
                };
                let expected = if keep { fate } else { TxnStatus::Pending };
                proptest::prop_assert_eq!(idx.status(start), expected, "txn {:?}", start);
            }
        }
    }

    /// One round of the benchmark's sync workload prunes 28 000 commits;
    /// the pass used to compare every commit against a list of every stale
    /// one. At 100 000 commits that is 10¹⁰ comparisons — minutes in a
    /// debug build — against one pass now.
    #[test]
    fn pruning_a_hundred_thousand_commits_is_linear() {
        let idx = CommitIndex::new();
        for i in 0..100_000u64 {
            idx.record_commit(Timestamp(2 * i + 1), Timestamp(2 * i + 2));
        }
        let began = std::time::Instant::now();
        idx.prune_below(Timestamp(150_001));
        let took = began.elapsed();
        assert_eq!(idx.committed_count(), 25_000);
        assert!(
            took < std::time::Duration::from_secs(1),
            "prune_below took {took:?}"
        );
    }
}
