//! Isolation levels and the overlap predicates that define conflicts.
//!
//! Section 2 of the paper defines a *write-write* conflict between `txn_i`
//! and `txn_j` as spatial overlap (both write row `r`) plus temporal overlap
//! (`T_s(i) < T_c(j) ∧ T_s(j) < T_c(i)`). Section 4.1 defines a *read-write*
//! conflict as rw-spatial overlap (`txn_j` writes a row `txn_i` read) plus
//! rw-temporal overlap (`T_s(i) < T_c(j) < T_c(i)`, i.e. `txn_j` commits
//! during `txn_i`'s lifetime). These predicates are exposed here both for
//! the oracle's incremental checks and for the `wsi-history` crate, which
//! evaluates them over whole histories.

use crate::{row::RowId, ts::Timestamp};

/// The isolation level enforced by a status oracle or transaction manager.
///
/// Every level gives every transaction a consistent read snapshot determined
/// by its start timestamp; they differ only in what is certified at commit
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsolationLevel {
    /// Classic snapshot isolation: abort on write-write conflicts
    /// (Algorithm 1). Permits write skew; not serializable.
    Snapshot,
    /// Write-snapshot isolation: abort on read-write conflicts
    /// (Algorithm 2). Serializable (paper, Theorem 1).
    WriteSnapshot,
    /// Serializable snapshot isolation (Cahill, Röhm & Fekete; the paper's
    /// §7.1 comparator): snapshot isolation plus an abort whenever a commit
    /// would complete a dangerous structure of rw-antidependencies.
    ///
    /// [`crate::StatusOracleCore`] certifies this level in full: the
    /// write-write check of [`IsolationLevel::Snapshot`], then the
    /// dangerous-structure check of a [`crate::ssi::SsiWindow`].
    /// `wsi-store`'s `Db` certifies the SI base against its key entries and
    /// runs its own window beside it, under its decision lock.
    SerializableSnapshot,
}

impl IsolationLevel {
    /// Returns `true` for levels that are serializable.
    ///
    /// Snapshot isolation admits non-serializable histories such as write
    /// skew (paper, History 2); write-snapshot isolation is proved
    /// serializable by shifting every write transaction to its commit point
    /// and every read-only transaction to its start point (paper, §4.2);
    /// serializable snapshot isolation breaks every dependency cycle at its
    /// pivot.
    pub fn is_serializable(self) -> bool {
        match self {
            IsolationLevel::Snapshot => false,
            IsolationLevel::WriteSnapshot | IsolationLevel::SerializableSnapshot => true,
        }
    }

    /// A short human-readable name ("si" / "wsi" / "ssi"), used in
    /// benchmark output.
    pub fn short_name(self) -> &'static str {
        match self {
            IsolationLevel::Snapshot => "si",
            IsolationLevel::WriteSnapshot => "wsi",
            IsolationLevel::SerializableSnapshot => "ssi",
        }
    }

    /// The rows this level probes against `lastCommit`, given a
    /// transaction's `reads` and `writes` — the one place Algorithms 1 and 2
    /// differ: the write set under snapshot isolation (and under
    /// serializable snapshot isolation, whose `lastCommit` check is its SI
    /// base), the read set under write-snapshot isolation.
    #[inline]
    pub fn checked_rows<'a>(self, reads: &'a [RowId], writes: &'a [RowId]) -> &'a [RowId] {
        match self {
            IsolationLevel::Snapshot | IsolationLevel::SerializableSnapshot => writes,
            IsolationLevel::WriteSnapshot => reads,
        }
    }
}

impl std::fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsolationLevel::Snapshot => write!(f, "snapshot isolation"),
            IsolationLevel::WriteSnapshot => write!(f, "write-snapshot isolation"),
            IsolationLevel::SerializableSnapshot => {
                write!(f, "serializable snapshot isolation")
            }
        }
    }
}

/// Temporal-overlap predicate of snapshot isolation (§2):
/// `T_s(i) < T_c(j) ∧ T_s(j) < T_c(i)` — the transactions' `[start, commit]`
/// intervals intersect.
///
/// # Example
///
/// ```
/// use wsi_core::{temporal_overlap, Timestamp};
///
/// // [1,4] and [2,5] overlap; [1,2] and [3,4] do not.
/// assert!(temporal_overlap(
///     Timestamp(1), Timestamp(4),
///     Timestamp(2), Timestamp(5),
/// ));
/// assert!(!temporal_overlap(
///     Timestamp(1), Timestamp(2),
///     Timestamp(3), Timestamp(4),
/// ));
/// ```
#[inline]
pub fn temporal_overlap(
    start_i: Timestamp,
    commit_i: Timestamp,
    start_j: Timestamp,
    commit_j: Timestamp,
) -> bool {
    start_i < commit_j && start_j < commit_i
}

/// rw-temporal-overlap predicate of write-snapshot isolation (§4.1):
/// `T_s(i) < T_c(j) < T_c(i)` — `txn_j` commits during `txn_i`'s lifetime.
///
/// Note the asymmetry: unlike [`temporal_overlap`], this predicate is *not*
/// symmetric in `i` and `j`. In the paper's Figure 2, `txn_n` and `txn_c''`
/// have (symmetric) temporal overlap but no rw-temporal overlap, because
/// `txn_c''` commits after `txn_n` does.
#[inline]
pub fn rw_temporal_overlap(start_i: Timestamp, commit_i: Timestamp, commit_j: Timestamp) -> bool {
    start_i < commit_j && commit_j < commit_i
}

/// Spatial-overlap predicate of snapshot isolation (§2): both transactions
/// write some common row.
///
/// The row sets are given as slices of sorted-or-unsorted row identifiers;
/// complexity is O(|a|·|b|) which is fine for the short row lists of OLTP
/// transactions. The incremental `lastCommit` check in
/// [`crate::StatusOracleCore`] replaces this for the oracle's hot path.
pub fn spatial_overlap(writes_i: &[crate::RowId], writes_j: &[crate::RowId]) -> bool {
    writes_i.iter().any(|r| writes_j.contains(r))
}

/// rw-spatial-overlap predicate of write-snapshot isolation (§4.1): `txn_j`
/// writes into a row that `txn_i` reads.
pub fn rw_spatial_overlap(reads_i: &[crate::RowId], writes_j: &[crate::RowId]) -> bool {
    reads_i.iter().any(|r| writes_j.contains(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RowId;

    const fn ts(v: u64) -> Timestamp {
        Timestamp(v)
    }

    #[test]
    fn temporal_overlap_is_symmetric() {
        for (si, ci, sj, cj) in [(1, 4, 2, 5), (1, 10, 2, 3), (5, 6, 1, 9)] {
            assert_eq!(
                temporal_overlap(ts(si), ts(ci), ts(sj), ts(cj)),
                temporal_overlap(ts(sj), ts(cj), ts(si), ts(ci)),
            );
        }
    }

    #[test]
    fn disjoint_intervals_do_not_overlap() {
        assert!(!temporal_overlap(ts(1), ts(2), ts(3), ts(4)));
        assert!(!temporal_overlap(ts(3), ts(4), ts(1), ts(2)));
    }

    #[test]
    fn nested_intervals_overlap() {
        assert!(temporal_overlap(ts(1), ts(10), ts(3), ts(4)));
    }

    #[test]
    fn rw_temporal_requires_commit_inside_lifetime() {
        // txn_i = [2, 8]; txn_j commits at 5: inside.
        assert!(rw_temporal_overlap(ts(2), ts(8), ts(5)));
        // txn_j commits at 9: after txn_i's commit — the Figure 2 txn_c' case.
        assert!(!rw_temporal_overlap(ts(2), ts(8), ts(9)));
        // txn_j commits at 1: before txn_i started — the Figure 2 txn_c'' case
        // (from txn_i's perspective; txn_i read the committed value).
        assert!(!rw_temporal_overlap(ts(2), ts(8), ts(1)));
    }

    #[test]
    fn rw_temporal_is_strict_at_endpoints() {
        assert!(!rw_temporal_overlap(ts(2), ts(8), ts(2)));
        assert!(!rw_temporal_overlap(ts(2), ts(8), ts(8)));
    }

    #[test]
    fn spatial_predicates() {
        let a = [RowId(1), RowId(2)];
        let b = [RowId(2), RowId(3)];
        let c = [RowId(4)];
        assert!(spatial_overlap(&a, &b));
        assert!(!spatial_overlap(&a, &c));
        assert!(rw_spatial_overlap(&a, &b));
        assert!(!rw_spatial_overlap(&c, &a));
        assert!(!rw_spatial_overlap(&[], &a));
        assert!(!rw_spatial_overlap(&a, &[]));
    }

    #[test]
    fn level_properties() {
        assert!(!IsolationLevel::Snapshot.is_serializable());
        assert!(IsolationLevel::WriteSnapshot.is_serializable());
        assert_eq!(IsolationLevel::Snapshot.short_name(), "si");
        assert_eq!(IsolationLevel::WriteSnapshot.short_name(), "wsi");
        assert!(IsolationLevel::SerializableSnapshot.is_serializable());
        assert_eq!(IsolationLevel::SerializableSnapshot.short_name(), "ssi");
        assert_eq!(
            IsolationLevel::WriteSnapshot.to_string(),
            "write-snapshot isolation"
        );
    }
}
