//! A single log-storage replica ("bookie", in BookKeeper terminology).

use std::collections::VecDeque;

use bytes::Bytes;

/// Identifier of a bookie within a ledger's ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BookieId(pub usize);

/// One stored entry: the ledger-wide sequence numbers of its first record
/// and one past its last, and the framed payload.
#[derive(Debug, Clone)]
struct Entry {
    first_seq: u64,
    end_seq: u64,
    payload: Bytes,
}

/// One storage replica: an append-only sequence of entries plus a failure
/// flag for fault-injection tests.
///
/// Entries are addressed by the ledger-wide sequence number of their first
/// record; a bookie stores whichever entries the ledger successfully wrote
/// to it, which after failures may be a strict subset of the log. The front
/// of the sequence can be dropped once the log is truncated behind a
/// checkpoint ([`Bookie::truncate_before`]).
#[derive(Debug, Clone, Default)]
pub struct Bookie {
    /// Entries in append order: `first_seq` never decreases, and neither
    /// does `end_seq` (a retried batch re-sends the same first record with
    /// more behind it).
    entries: VecDeque<Entry>,
    failed: bool,
    /// Stores still accepted before the bookie fails (see
    /// [`Bookie::fail_after`]).
    fail_after: Option<u64>,
}

impl Bookie {
    /// Creates an empty, healthy bookie.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to store an entry of `records` records starting at
    /// `first_seq`. Returns `false` (dropping the write) if the bookie is
    /// failed.
    pub fn store(&mut self, first_seq: u64, records: u64, payload: Bytes) -> bool {
        match &mut self.fail_after {
            Some(0) => {
                self.failed = true;
                self.fail_after = None;
            }
            Some(left) => *left -= 1,
            None => {}
        }
        if self.failed {
            return false;
        }
        self.entries.push_back(Entry {
            first_seq,
            end_seq: first_seq + records,
            payload,
        });
        true
    }

    /// Drops every entry whose records all lie below `seq`: amortized O(1)
    /// per dropped entry. An entry straddling `seq` stays whole; readers
    /// skip its records below the ledger's base.
    pub fn truncate_before(&mut self, seq: u64) {
        while self.entries.front().is_some_and(|e| e.end_seq <= seq) {
            self.entries.pop_front();
        }
    }

    /// Marks the bookie as failed: subsequent writes are dropped and reads
    /// during recovery see nothing.
    pub fn fail(&mut self) {
        self.failed = true;
        self.fail_after = None;
    }

    /// Fails the bookie once it has accepted `stores` more entries: a crash
    /// at a chosen point of the write stream, say between two flushes one
    /// call makes.
    pub fn fail_after(&mut self, stores: u64) {
        self.fail_after = Some(stores);
    }

    /// Brings the bookie back. Its previously stored entries are intact
    /// (crash, not disk loss); it simply missed everything written while it
    /// was down. A pending [`Bookie::fail_after`] is dropped.
    pub fn recover(&mut self) {
        self.failed = false;
        self.fail_after = None;
    }

    /// Returns `true` if the bookie is currently failed.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Entries stored on this bookie as `(first_seq, payload)`, oldest
    /// first. Returns `None` while failed (an unreachable replica cannot
    /// serve recovery).
    pub fn read_all(&self) -> Option<impl Iterator<Item = (u64, &Bytes)> + '_> {
        (!self.failed).then(|| self.entries.iter().map(|e| (e.first_seq, &e.payload)))
    }

    /// Number of entries stored (even while failed; for test assertions).
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_read_back() {
        let mut b = Bookie::new();
        assert!(b.store(0, 1, Bytes::from_static(b"a")));
        assert!(b.store(1, 1, Bytes::from_static(b"b")));
        let entries: Vec<_> = b.read_all().unwrap().collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0], (0, &Bytes::from_static(b"a")));
    }

    #[test]
    fn failed_bookie_drops_writes_and_hides_reads() {
        let mut b = Bookie::new();
        assert!(b.store(0, 1, Bytes::from_static(b"a")));
        b.fail();
        assert!(!b.store(1, 1, Bytes::from_static(b"b")));
        assert!(b.read_all().is_none());
        b.recover();
        // Pre-failure data survives; the failed-window write is lost.
        assert_eq!(b.read_all().unwrap().count(), 1);
    }

    #[test]
    fn fail_after_accepts_that_many_stores_then_fails() {
        let mut b = Bookie::new();
        b.fail_after(1);
        assert!(b.store(0, 1, Bytes::from_static(b"a")));
        assert!(!b.is_failed());
        assert!(!b.store(1, 1, Bytes::from_static(b"b")));
        assert!(b.is_failed());
        b.recover();
        assert!(b.store(1, 1, Bytes::from_static(b"b")));
        assert_eq!(b.read_all().unwrap().count(), 2);
    }

    #[test]
    fn truncation_drops_only_fully_covered_entries() {
        let mut b = Bookie::new();
        b.store(0, 2, Bytes::from_static(b"ab"));
        b.store(2, 3, Bytes::from_static(b"cde"));
        b.store(5, 1, Bytes::from_static(b"f"));
        b.truncate_before(4);
        let firsts: Vec<u64> = b.read_all().unwrap().map(|(s, _)| s).collect();
        assert_eq!(firsts, [2, 5], "the straddling entry stays whole");
        b.truncate_before(6);
        assert_eq!(b.entry_count(), 0);
    }
}
