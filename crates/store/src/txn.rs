//! Client-side transaction handle.

use std::collections::btree_map::{self, BTreeMap};
use std::ops::Bound;
use std::sync::Arc;

use bytes::Bytes;
use wsi_core::{hash_row_key, IsolationLevel, RowId, Timestamp};
use wsi_obs::EventData;

use crate::{
    arena::KeyId,
    db::DbInner,
    error::{Error, Result},
    mvcc::read_bytes,
};

/// A key a transaction read from the store, as its commit checks it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ReadKey {
    /// The entry the read found.
    Entry(KeyId),
    /// A key that had no entry when read: the check looks it up again.
    Absent(Box<[u8]>),
}

impl ReadKey {
    fn new(key: &[u8], found: Option<KeyId>) -> Self {
        found.map_or_else(|| ReadKey::Absent(key.into()), ReadKey::Entry)
    }

    /// Whether this is `key`, whose lookup found `found`. An absent key
    /// that has an entry now keeps the entry.
    fn absorb(&mut self, key: &[u8], found: Option<KeyId>) -> bool {
        match self {
            ReadKey::Entry(id) => found == Some(*id),
            ReadKey::Absent(absent) if **absent == *key => {
                if let Some(id) = found {
                    *self = ReadKey::Entry(id);
                }
                true
            }
            ReadKey::Absent(_) => false,
        }
    }
}

/// The keys a transaction read from the store, by row identifier.
///
/// Ordered by row, so the commit's checks are a pure function of the keys
/// read — never of hasher seeding — which deterministic replay (wsi-dst)
/// depends on. A second key of a row already held (two keys whose 64-bit
/// identifiers collide) goes to `collided`, so every key read is checked.
#[derive(Debug, Default)]
pub(crate) struct ReadSet {
    rows: BTreeMap<RowId, ReadKey>,
    collided: Vec<(RowId, ReadKey)>,
}

impl ReadSet {
    /// Records a read of `key`, whose identifier is `row` and whose lookup
    /// found `found`.
    fn insert(&mut self, row: RowId, key: &[u8], found: Option<KeyId>) {
        match self.rows.entry(row) {
            btree_map::Entry::Vacant(vacant) => {
                vacant.insert(ReadKey::new(key, found));
            }
            btree_map::Entry::Occupied(mut held) => {
                let known = held.get_mut().absorb(key, found)
                    || self
                        .collided
                        .iter_mut()
                        .any(|(r, read)| *r == row && read.absorb(key, found));
                if !known {
                    self.collided.push((row, ReadKey::new(key, found)));
                }
            }
        }
    }

    /// Every key read, with its row: in row order, then the collided ones.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (RowId, &ReadKey)> {
        self.rows
            .iter()
            .map(|(&row, read)| (row, read))
            .chain(self.collided.iter().map(|(row, read)| (*row, read)))
    }

    /// The distinct rows read, in order: what the SSI window tracks.
    pub(crate) fn rows(&self) -> Vec<RowId> {
        self.rows.keys().copied().collect()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// An optimistic transaction over a [`crate::Db`].
///
/// Reads come from the snapshot fixed at [`crate::Db::begin`] (plus the
/// transaction's own buffered writes); writes buffer locally and only reach
/// the store at [`Transaction::commit`]. Dropping an unfinished transaction
/// rolls it back.
///
/// The read set — every key whose *stored* state the transaction observed,
/// by its row identifier and the entry the read found — is tracked
/// automatically and checked at commit, as write-snapshot isolation
/// requires (§5: "the set of identifiers of the read rows … computed based
/// on the rows that are actually read by the transaction, whether these
/// rows were originally specified by their primary keys or by a search
/// condition"). Under [`IsolationLevel::Snapshot`], which checks writes
/// only, no read is recorded.
pub struct Transaction {
    db: Arc<DbInner>,
    start_ts: Timestamp,
    /// Buffered writes; `None` marks a deletion.
    writes: BTreeMap<Bytes, Option<Bytes>>,
    reads: ReadSet,
    finished: bool,
    /// When the transaction began, in the database's monotonic microsecond
    /// clock; feeds the begin-to-visible latency histogram.
    began_us: u64,
}

impl Transaction {
    pub(crate) fn new(db: Arc<DbInner>, start_ts: Timestamp) -> Self {
        let began_us = db.now_us();
        Transaction {
            db,
            start_ts,
            writes: BTreeMap::new(),
            reads: ReadSet::default(),
            finished: false,
            began_us,
        }
    }

    /// The transaction's start timestamp (its snapshot).
    pub fn start_ts(&self) -> Timestamp {
        self.start_ts
    }

    /// Returns `true` if the transaction has buffered no writes (and would
    /// take the read-only commit path, which never aborts under SI and WSI).
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }

    /// Reads a key in the transaction's snapshot into `buf`, replacing its
    /// contents, and returns whether the key has a value (`buf` is left
    /// empty when it has none). The value is copied out of the store's
    /// words: the read takes no lock and writes no shared memory.
    ///
    /// Own buffered writes win over stored state (read-your-writes). Under
    /// WSI and SSI a lookup that goes to the store — even one that finds
    /// nothing — is recorded in the read set: observing a key's absence is
    /// observing its state.
    pub fn get_into(&mut self, key: &[u8], buf: &mut Vec<u8>) -> bool {
        buf.clear();
        if let Some(buffered) = self.writes.get(key) {
            buf.extend_from_slice(buffered.as_deref().unwrap_or_default());
            return buffered.is_some();
        }
        self.read_store(key, buf)
    }

    /// Reads `key` from the store into `buf` and records the read.
    fn read_store(&mut self, key: &[u8], buf: &mut Vec<u8>) -> bool {
        let row = hash_row_key(key);
        let (found, visible) = self
            .db
            .mvcc
            .read(key, row, self.start_ts, &self.db.registry, buf);
        if self.records_reads() {
            self.reads.insert(row, key, found);
        }
        visible
    }

    /// Whether reads join the read set: WSI's check and SSI's window read
    /// it, SI's check reads only the writes.
    fn records_reads(&self) -> bool {
        self.db.options.isolation != IsolationLevel::Snapshot
    }

    /// Reads a key in the transaction's snapshot: [`Self::get_into`], with
    /// the value returned as one `Bytes` this call allocates. A key this
    /// transaction wrote returns its buffered `Bytes`, uncopied.
    pub fn get(&mut self, key: &[u8]) -> Option<Bytes> {
        if let Some(buffered) = self.writes.get(key) {
            return buffered.clone();
        }
        read_bytes(|buf| self.read_store(key, buf))
    }

    /// Buffers a write of `value` to `key`.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.journal_begin_on_first_write();
        self.writes.insert(
            Bytes::copy_from_slice(key),
            Some(Bytes::copy_from_slice(value)),
        );
    }

    /// Buffers a deletion of `key` (a tombstone version on commit).
    pub fn delete(&mut self, key: &[u8]) {
        self.journal_begin_on_first_write();
        self.writes.insert(Bytes::copy_from_slice(key), None);
    }

    /// Journals `Begin` the first time the transaction buffers a write. A
    /// transaction that never writes can never conflict under SI/WSI, so
    /// its journal stream collapses to the single commit event — keeping
    /// the read-only fast path at one ring write.
    fn journal_begin_on_first_write(&self) {
        if self.writes.is_empty() {
            self.db
                .journal()
                .record(self.start_ts.raw(), EventData::Begin);
        }
    }

    /// Scans `[start, end)` (unbounded end if `None`) in the snapshot,
    /// merging buffered writes, returning at most `limit` pairs in key
    /// order. An empty or inverted range returns nothing.
    ///
    /// Under WSI and SSI every key *returned from the store* joins the read
    /// set — up to `limit` plus the number of buffered writes in range,
    /// since the limit applies to the merged result. Keys that are absent in the snapshot
    /// leave no trace (the conflict check tracks keys, not ranges), so
    /// phantom rows inserted by concurrent transactions are not
    /// conflict-checked — the same row-granularity caveat as the paper's
    /// implementation, and the open hole of ROADMAP item 2.
    pub fn scan(&mut self, start: &[u8], end: Option<&[u8]>, limit: usize) -> Vec<(Bytes, Bytes)> {
        // `BTreeMap::range` panics on an inverted range, for which the store
        // returns nothing either.
        let inverted = end.is_some_and(|e| e <= start);
        let buffered: Vec<(&Bytes, &Option<Bytes>)> = if inverted {
            Vec::new()
        } else {
            let upper = end.map_or(Bound::Unbounded, |e| {
                Bound::Excluded(Bytes::copy_from_slice(e))
            });
            self.writes
                .range((Bound::Included(Bytes::copy_from_slice(start)), upper))
                .collect()
        };
        // `limit` applies after the overlay. Each buffered entry displaces
        // at most one stored row (a deletion hides it, an overwrite replaces
        // it), so that many rows beyond `limit` fill the result.
        let stored = self.db.mvcc.scan(
            start,
            end,
            self.start_ts,
            &self.db.registry,
            limit.saturating_add(buffered.len()),
        );
        let records = self.records_reads();
        let stored = stored.into_iter().map(|(id, key, value)| {
            if records {
                self.reads.insert(hash_row_key(&key), &key, Some(id));
            }
            (key, value)
        });
        if buffered.is_empty() {
            return stored.collect();
        }
        let mut merged: BTreeMap<Bytes, Bytes> = stored.collect();
        for (key, value) in buffered {
            match value {
                Some(v) => {
                    merged.insert(key.clone(), v.clone());
                }
                None => {
                    merged.remove(key);
                }
            }
        }
        merged.into_iter().take(limit).collect()
    }

    /// Commits the transaction.
    ///
    /// Read-only transactions always succeed under SI and WSI (§4.1/§5.1);
    /// under SSI one that would complete a dangerous structure is refused.
    /// Write transactions are validated by the configured isolation level;
    /// on conflict every buffered effect is rolled back and
    /// [`Error::Aborted`] is returned.
    ///
    /// Returns the commit timestamp (for read-only transactions, the start
    /// timestamp — they are equivalent to a transaction shifted to its start
    /// point, paper Figure 3).
    ///
    /// # Errors
    ///
    /// [`Error::Aborted`] on conflict; [`Error::Wal`] if durability was
    /// requested and the log lost its write quorum (the transaction is
    /// rolled back, not half-committed).
    pub fn commit(mut self) -> Result<Timestamp> {
        if self.finished {
            return Err(Error::TransactionFinished);
        }
        self.finished = true;
        let writes = std::mem::take(&mut self.writes);
        let reads = std::mem::take(&mut self.reads);
        let db = crate::Db {
            inner: Arc::clone(&self.db),
        };
        db.commit_txn(self.start_ts, reads, writes, self.began_us)
    }

    /// Rolls back the transaction, discarding buffered writes.
    pub fn rollback(mut self) {
        self.rollback_in_place();
    }

    fn rollback_in_place(&mut self) {
        if !self.finished {
            self.finished = true;
            let db = crate::Db {
                inner: Arc::clone(&self.db),
            };
            db.rollback_txn(self.start_ts, !self.writes.is_empty());
        }
    }

    /// Number of distinct rows currently in the read set: always `0` under
    /// [`IsolationLevel::Snapshot`], which records no reads.
    pub fn read_set_len(&self) -> usize {
        self.reads.rows.len()
    }

    /// Number of keys currently in the write buffer.
    pub fn write_set_len(&self) -> usize {
        self.writes.len()
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        self.rollback_in_place();
    }
}

impl std::fmt::Debug for Transaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("start_ts", &self.start_ts)
            .field("reads", &self.reads.rows.len())
            .field("writes", &self.writes.len())
            .field("finished", &self.finished)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Db, DbOptions};

    #[test]
    fn only_the_levels_that_check_reads_record_them() {
        use IsolationLevel::*;
        for (isolation, recorded) in [
            (Snapshot, 0),
            (WriteSnapshot, 200),
            (SerializableSnapshot, 200),
        ] {
            let db = Db::open(DbOptions::new(isolation));
            let mut t = db.begin();
            for i in 0..100u32 {
                t.put(&i.to_be_bytes(), b"v");
            }
            t.commit().unwrap();
            // Keys 0..100 exist, 100..200 are absent.
            let mut t = db.begin();
            let mut buf = Vec::new();
            for i in 0..200u32 {
                assert_eq!(t.get_into(&i.to_be_bytes(), &mut buf), i < 100);
            }
            assert_eq!(t.scan(b"", None, usize::MAX).len(), 100);
            assert_eq!(t.read_set_len(), recorded, "{isolation:?}");
            t.commit().unwrap();
        }
    }

    #[test]
    fn a_row_read_under_two_keys_keeps_both() {
        let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
        let mut t = db.begin();
        t.put(b"a", b"v");
        t.put(b"b", b"v");
        t.commit().unwrap();
        let id = |key: &[u8]| db.inner.mvcc.key_id(key, hash_row_key(key));
        // Keys whose identifiers collide, as one row.
        let row = RowId(7);
        let mut reads = ReadSet::default();
        reads.insert(row, b"a", id(b"a"));
        reads.insert(row, b"c", None);
        reads.insert(row, b"b", id(b"b"));
        reads.insert(row, b"a", id(b"a"));
        reads.insert(row, b"c", None);
        let held: Vec<_> = reads.iter().collect();
        let absent = ReadKey::Absent(b"c"[..].into());
        let (a, b) = (
            ReadKey::Entry(id(b"a").unwrap()),
            ReadKey::Entry(id(b"b").unwrap()),
        );
        assert_eq!(held, [(row, &a), (row, &absent), (row, &b)]);
        assert_eq!(reads.rows(), [row]);
        // An absent key read again once it has an entry keeps the entry.
        let mut t = db.begin();
        t.put(b"c", b"v");
        t.commit().unwrap();
        reads.insert(row, b"c", id(b"c"));
        let c = ReadKey::Entry(id(b"c").unwrap());
        assert_eq!(reads.iter().nth(1), Some((row, &c)));
    }
}
