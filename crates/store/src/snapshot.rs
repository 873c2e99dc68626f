//! Read-only snapshots.

use std::sync::Arc;

use bytes::Bytes;

use crate::db::DbInner;
use crate::mvcc::read_bytes;
use wsi_core::{hash_row_key, Timestamp};

/// A read-only view of the database at a fixed point in time.
///
/// Cheaper than a [`crate::Transaction`] used read-only: no read-set
/// tracking (read-only transactions are never conflict-checked, §4.1
/// condition 3, so recording reads would be wasted work) and shared `&self`
/// reads, so one snapshot can serve many reader threads.
///
/// The snapshot pins the garbage collector's low-water mark while alive:
/// versions it can see are not collected. Drop it when done.
///
/// # Example
///
/// ```
/// use wsi_core::IsolationLevel;
/// use wsi_store::{Db, DbOptions};
///
/// let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
/// let mut t = db.begin();
/// t.put(b"k", b"v1");
/// t.commit().unwrap();
///
/// let snap = db.snapshot();
/// let mut t2 = db.begin();
/// t2.put(b"k", b"v2");
/// t2.commit().unwrap();
///
/// assert_eq!(snap.get(b"k").as_deref(), Some(&b"v1"[..])); // stable view
/// ```
pub struct Snapshot {
    db: Arc<DbInner>,
    start_ts: Timestamp,
    released: bool,
}

impl Snapshot {
    pub(crate) fn new(db: Arc<DbInner>, start_ts: Timestamp) -> Self {
        Snapshot {
            db,
            start_ts,
            released: false,
        }
    }

    /// The snapshot's timestamp.
    pub fn start_ts(&self) -> Timestamp {
        self.start_ts
    }

    /// Reads a key into `buf`, replacing its contents, and returns whether
    /// the key has a value (`buf` is left empty when it has none). The
    /// value is copied out of the store's words: the read takes no lock
    /// and writes no shared memory, so readers of one key on many threads
    /// do not contend.
    pub fn get_into(&self, key: &[u8], buf: &mut Vec<u8>) -> bool {
        buf.clear();
        self.db
            .mvcc
            .read(
                key,
                hash_row_key(key),
                self.start_ts,
                &self.db.registry,
                buf,
            )
            .1
    }

    /// Reads a key: [`Self::get_into`], with the value returned as one
    /// `Bytes` this call allocates.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        read_bytes(|buf| self.get_into(key, buf))
    }

    /// Scans `[start, end)` (unbounded end if `None`), up to `limit` pairs.
    pub fn scan(&self, start: &[u8], end: Option<&[u8]>, limit: usize) -> Vec<(Bytes, Bytes)> {
        self.db
            .mvcc
            .scan_pairs(start, end, self.start_ts, &self.db.registry, limit)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        if !self.released {
            self.released = true;
            // Equivalent to a read-only commit (§5.1): free, never aborts,
            // and — like `begin` — touches no lock beyond the registry's.
            self.db.counters.read_only_commits.inc();
            self.db.registry.deregister(self.start_ts);
        }
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("start_ts", &self.start_ts)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Db, DbOptions};
    use wsi_core::IsolationLevel;

    fn db() -> Db {
        Db::open(DbOptions::new(IsolationLevel::WriteSnapshot))
    }

    #[test]
    fn snapshot_is_stable_and_shared() {
        let db = db();
        let mut t = db.begin();
        t.put(b"a", b"1");
        t.put(b"b", b"2");
        t.commit().unwrap();
        let snap = std::sync::Arc::new(db.snapshot());
        let mut t2 = db.begin();
        t2.put(b"a", b"999");
        t2.commit().unwrap();

        let handles: Vec<_> = (0..4)
            .map(|_| {
                let snap = std::sync::Arc::clone(&snap);
                std::thread::spawn(move || {
                    assert_eq!(snap.get(b"a").unwrap().as_ref(), b"1");
                    assert_eq!(snap.scan(b"a", None, 10).len(), 2);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn snapshot_pins_gc_watermark() {
        let db = db();
        let mut t = db.begin();
        t.put(b"k", b"old");
        t.commit().unwrap();
        let snap = db.snapshot();
        let mut t2 = db.begin();
        t2.put(b"k", b"new");
        t2.commit().unwrap();
        db.gc();
        assert_eq!(snap.get(b"k").unwrap().as_ref(), b"old");
        drop(snap);
        let stats = db.gc();
        assert_eq!(stats.versions_dropped, 1, "old version collectable now");
    }

    #[test]
    fn dropping_snapshot_counts_as_read_only_commit() {
        let db = db();
        let before = db.stats().oracle.read_only_commits;
        let snap = db.snapshot();
        drop(snap);
        assert_eq!(db.stats().oracle.read_only_commits, before + 1);
        assert_eq!(db.stats().active_transactions, 0);
    }
}
