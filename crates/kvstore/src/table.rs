//! Functional multi-version row storage.

use std::collections::BTreeMap;

use bytes::Bytes;
use wsi_core::Timestamp;

/// Fate of a version's writer, as known to the reader's commit-table
/// replica (§2.2: commit timestamps are "replicated on the clients" in the
/// configuration the paper evaluates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionFate {
    /// Writer committed at this timestamp.
    Committed(Timestamp),
    /// Writer is in flight or unknown.
    Pending,
    /// Writer aborted.
    Aborted,
}

/// Resolves a writer's start timestamp to its fate.
pub trait VersionLookup {
    /// Fate of the transaction that started at `writer_start`.
    fn lookup(&self, writer_start: Timestamp) -> VersionFate;
}

impl<F: Fn(Timestamp) -> VersionFate> VersionLookup for F {
    fn lookup(&self, writer_start: Timestamp) -> VersionFate {
        self(writer_start)
    }
}

/// Multi-version storage for one region's rows.
///
/// Each row holds its versions tagged by the writer's start timestamp, as
/// in the lock-free scheme: "the uncommitted data are written directly into
/// the main database with a version equals to the transaction start
/// timestamp" (§2.1/§2.2).
#[derive(Debug, Clone, Default)]
pub struct RegionStore {
    rows: BTreeMap<u64, Vec<(Timestamp, Bytes)>>,
}

impl RegionStore {
    /// Creates empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a version of `row` tagged with the writer's start timestamp.
    pub fn put(&mut self, row: u64, writer_start: Timestamp, value: Bytes) {
        let versions = self.rows.entry(row).or_default();
        match versions.binary_search_by_key(&writer_start, |&(ts, _)| ts) {
            Ok(i) => versions[i] = (writer_start, value),
            Err(i) => versions.insert(i, (writer_start, value)),
        }
    }

    /// Removes the version `row@writer_start` (abort cleanup).
    pub fn remove(&mut self, row: u64, writer_start: Timestamp) {
        if let Some(versions) = self.rows.get_mut(&row) {
            if let Ok(i) = versions.binary_search_by_key(&writer_start, |&(ts, _)| ts) {
                versions.remove(i);
            }
            if versions.is_empty() {
                self.rows.remove(&row);
            }
        }
    }

    /// Snapshot read: "the reading transaction skips a particular version if
    /// the transaction that has written it is (i) not committed yet, (ii)
    /// aborted, or (iii) committed with a commit timestamp larger than the
    /// start timestamp" (§2.2). Among visible versions, the one with the
    /// largest commit timestamp wins.
    pub fn get<L: VersionLookup + ?Sized>(
        &self,
        row: u64,
        reader_start: Timestamp,
        lookup: &L,
    ) -> Option<&Bytes> {
        let versions = self.rows.get(&row)?;
        let mut best: Option<(Timestamp, &Bytes)> = None;
        for (writer_start, value) in versions {
            if let VersionFate::Committed(commit_ts) = lookup.lookup(*writer_start) {
                if commit_ts < reader_start && best.is_none_or(|(b, _)| commit_ts > b) {
                    best = Some((commit_ts, value));
                }
            }
        }
        best.map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(entries: &[(u64, u64)]) -> impl VersionLookup + '_ {
        move |start: Timestamp| {
            entries
                .iter()
                .find(|&&(s, _)| Timestamp(s) == start)
                .map(|&(_, c)| VersionFate::Committed(Timestamp(c)))
                .unwrap_or(VersionFate::Pending)
        }
    }

    #[test]
    fn put_get_visibility() {
        let mut s = RegionStore::new();
        s.put(7, Timestamp(1), Bytes::from_static(b"v1"));
        let lk = committed(&[(1, 2)]);
        assert_eq!(s.get(7, Timestamp(3), &lk).unwrap(), "v1");
        assert!(s.get(7, Timestamp(2), &lk).is_none()); // strict <
        assert!(s.get(8, Timestamp(9), &lk).is_none()); // missing row
    }

    #[test]
    fn pending_versions_invisible() {
        let mut s = RegionStore::new();
        s.put(1, Timestamp(1), Bytes::from_static(b"v"));
        let lk = committed(&[]);
        assert!(s.get(1, Timestamp(100), &lk).is_none());
    }

    #[test]
    fn commit_order_decides_among_versions() {
        let mut s = RegionStore::new();
        s.put(1, Timestamp(1), Bytes::from_static(b"slow")); // commits at 6
        s.put(1, Timestamp(2), Bytes::from_static(b"fast")); // commits at 3
        let lk = committed(&[(1, 6), (2, 3)]);
        assert_eq!(s.get(1, Timestamp(10), &lk).unwrap(), "slow");
        assert_eq!(s.get(1, Timestamp(5), &lk).unwrap(), "fast");
    }

    #[test]
    fn remove_cleans_up() {
        let mut s = RegionStore::new();
        s.put(1, Timestamp(1), Bytes::from_static(b"v"));
        s.put(1, Timestamp(2), Bytes::from_static(b"w"));
        s.remove(1, Timestamp(1));
        assert_eq!(s.rows[&1].len(), 1);
        s.remove(1, Timestamp(2));
        assert!(s.rows.is_empty());
        // Removing a non-existent version is a no-op.
        s.remove(1, Timestamp(9));
    }

    #[test]
    fn same_writer_overwrites_own_version() {
        let mut s = RegionStore::new();
        s.put(1, Timestamp(1), Bytes::from_static(b"a"));
        s.put(1, Timestamp(1), Bytes::from_static(b"b"));
        assert_eq!(s.rows[&1].len(), 1);
        let lk = committed(&[(1, 2)]);
        assert_eq!(s.get(1, Timestamp(5), &lk).unwrap(), "b");
    }
}
