//! An embedded store running Cahill-style serializable snapshot isolation.
//!
//! [`SsiDb`] pairs the same multi-version storage (the lock-free arena
//! layout) and commit index as [`crate::Db`] with
//! [`wsi_core::ssi::SsiOracle`] instead of the write-snapshot-isolation
//! oracle — the §7.1 comparator as a usable engine. Useful for workloads
//! dominated by History-6-shaped patterns (transactions whose reads are
//! overwritten by writers that commit first), which SSI admits and WSI
//! aborts; see EXPERIMENTS.md E1 for the abort-rate comparison on zipfian
//! workloads, where the balance tips the other way.
//!
//! # Durability
//!
//! [`SsiDb::open_durable`] attaches a replicated write-ahead ledger. The
//! dangerous-structure decision is *split around* persistence via
//! [`SsiOracle::commit_durable`]: the oracle checks the request, issues the
//! commit timestamp, and only mutates its conflict-flag/`lastCommit` state
//! after the commit record has reached a write quorum. A quorum loss
//! overturns the decision before any reader or future committer could
//! observe it, with a compensating abort record queued for the two-pass
//! recovery — the same WAL-before-exposure discipline as [`crate::Db`]'s
//! sync pipeline, minus the group-commit machinery: the ledger flush runs
//! while the oracle mutex is held. That costs commit concurrency (this
//! engine is the comparator, not the headline), never correctness.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use wsi_core::ssi::{SsiOracle, SsiStats};
use wsi_core::{hash_row_key, CommitRequest, RowId, Timestamp};
use wsi_obs::{AbortExplanation, EventData, Journal};
use wsi_wal::{Ledger, LedgerConfig};

use crate::{
    arena::ArenaStore,
    commit_index::CommitIndex,
    error::{Error, Result},
    mvcc::{GcStats, ReclamationStats},
    record::{self, StoreRecord},
};

struct SsiInner {
    mvcc: ArenaStore,
    index: CommitIndex,
    oracle: Mutex<SsiOracle>,
    /// The write-ahead ledger, present iff opened durable. Appended and
    /// flushed while the oracle mutex is held (see the module docs).
    ledger: Option<Mutex<Ledger>>,
    /// Logical microsecond clock for ledger appends: a counter, not the
    /// wall clock, so durable runs stay deterministic under wsi-dst.
    clock: AtomicU64,
    /// The flight recorder, always on for this engine (the comparator is
    /// exactly where abort forensics matter: SSI's pivot aborts carry the
    /// dangerous structure's edge partners). The oracle holds a clone and
    /// records every decision; this handle serves reads without taking the
    /// oracle mutex.
    journal: Journal,
}

impl SsiInner {
    fn tick_us(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }
}

/// An embedded, thread-safe transactional store under serializable snapshot
/// isolation.
///
/// # Example
///
/// ```
/// use wsi_store::ssi_db::SsiDb;
///
/// let db = SsiDb::open();
/// let mut t = db.begin();
/// t.put(b"k", b"v");
/// t.commit().unwrap();
///
/// let mut r = db.begin();
/// assert_eq!(r.get(b"k").as_deref(), Some(&b"v"[..]));
/// ```
#[derive(Clone)]
pub struct SsiDb {
    inner: Arc<SsiInner>,
}

impl SsiDb {
    /// Opens an empty in-memory store (no WAL; a crash loses everything).
    pub fn open() -> Self {
        Self::with_ledger(None)
    }

    /// Opens an empty store with a replicated write-ahead ledger: commits
    /// become visible only after their record reaches a write quorum.
    pub fn open_durable(config: LedgerConfig) -> Self {
        Self::with_ledger(Some(Ledger::open(config)))
    }

    fn with_ledger(ledger: Option<Ledger>) -> Self {
        let journal = Journal::new();
        let mut oracle = SsiOracle::new();
        oracle.attach_journal(journal.clone());
        SsiDb {
            inner: Arc::new(SsiInner {
                mvcc: ArenaStore::new(),
                index: CommitIndex::new(),
                oracle: Mutex::new(oracle),
                ledger: ledger.map(Mutex::new),
                clock: AtomicU64::new(0),
                journal,
            }),
        }
    }

    /// The flight-recorder journal: every begin, per-row WW verdict,
    /// commit, and abort (including pivot aborts carrying the dangerous
    /// structure's in/out rw-edge partners) recorded by the SSI oracle.
    pub fn journal(&self) -> &Journal {
        &self.inner.journal
    }

    /// Forensic report for an aborted transaction — cause, culprit
    /// transactions (the committed rw-edge partners of a pivot abort, or
    /// the first committer of a WW conflict), and the joined causal
    /// timeline. `None` when no abort event for `start_ts` survives in the
    /// ring.
    pub fn explain_abort(&self, start_ts: Timestamp) -> Option<AbortExplanation> {
        self.inner.journal.explain_abort(start_ts.raw())
    }

    /// Rebuilds a database from a recovered write-ahead ledger (see
    /// [`SsiDb::wal_snapshot`]); the ledger stays attached as the live log.
    ///
    /// Replay mirrors [`crate::Db::recover`]: two passes (collect
    /// compensating aborts, then replay commits skipping overturned ones),
    /// tolerating a torn final record — a record that never finished
    /// persisting belongs to a transaction that was never acknowledged.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] for a non-final undecodable record.
    pub fn recover(ledger: Ledger) -> Result<SsiDb> {
        let payloads = ledger.recover();
        let mut records = Vec::with_capacity(payloads.len());
        let mut overturned: HashSet<u64> = HashSet::new();
        for (i, payload) in payloads.iter().enumerate() {
            let rec = match record::decode(payload) {
                Ok(rec) => rec,
                Err(_) if i + 1 == payloads.len() => break,
                Err(e) => return Err(e),
            };
            if let StoreRecord::Abort { start_ts } = rec {
                overturned.insert(start_ts.raw());
            }
            records.push(rec);
        }
        let db = Self::with_ledger(Some(ledger));
        let mut oracle = db.inner.oracle.lock();
        for rec in records {
            match rec {
                StoreRecord::Commit {
                    start_ts,
                    commit_ts,
                    writes,
                } => {
                    if overturned.contains(&start_ts.raw()) {
                        oracle.advance_timestamps(commit_ts);
                        continue;
                    }
                    let rows: Vec<RowId> = writes.iter().map(|(k, _)| hash_row_key(k)).collect();
                    let keys: Vec<Bytes> = writes.iter().map(|(k, _)| k.clone()).collect();
                    db.inner.mvcc.insert_versions(start_ts, writes);
                    db.inner.mvcc.stamp_commit(start_ts, commit_ts, keys.iter());
                    db.inner.index.record_commit(start_ts, commit_ts);
                    oracle.replay_commit(start_ts, commit_ts, &rows);
                }
                StoreRecord::Abort { start_ts } => {
                    db.inner.index.record_abort(start_ts);
                    oracle.replay_abort(start_ts);
                }
                StoreRecord::TsReserve { upto } => {
                    oracle.advance_timestamps(upto);
                }
            }
        }
        drop(oracle);
        Ok(db)
    }

    /// Begins a transaction at the current snapshot.
    pub fn begin(&self) -> SsiTransaction {
        let start_ts = self.inner.oracle.lock().begin();
        SsiTransaction {
            db: Arc::clone(&self.inner),
            start_ts,
            writes: BTreeMap::new(),
            read_rows: BTreeSet::new(),
            finished: false,
        }
    }

    /// Oracle counters (commit/abort breakdown, window size is a method on
    /// the oracle itself).
    pub fn stats(&self) -> SsiStats {
        self.inner.oracle.lock().stats()
    }

    /// Garbage-collects versions below the oracle's low-water mark (the
    /// smallest active start timestamp) and prunes the commit index.
    pub fn gc(&self) -> GcStats {
        let watermark = self.inner.oracle.lock().watermark();
        let stats = self.inner.mvcc.gc(watermark, &self.inner.index);
        self.inner.index.prune_below(watermark);
        stats
    }

    /// Advances the arena's reclamation epoch and frees matured limbo
    /// entries (the amortized maintenance tick [`crate::Db`] runs on its
    /// commit path).
    pub fn maintain(&self) {
        self.inner.mvcc.maintain();
    }

    /// Epoch-reclamation accounting of the arena store.
    pub fn reclamation(&self) -> ReclamationStats {
        self.inner.mvcc.reclamation()
    }

    /// Flushes any retained WAL records (e.g. compensating aborts queued
    /// while the quorum was lost). No-op without a ledger.
    ///
    /// # Errors
    ///
    /// Propagates a quorum loss from the ledger.
    pub fn flush_wal(&self) -> Result<()> {
        if let Some(ledger) = &self.inner.ledger {
            let mut ledger = ledger.lock();
            if ledger.pending_records() > 0 {
                let now = self.inner.tick_us();
                ledger.flush(now).map_err(Error::Wal)?;
            }
        }
        Ok(())
    }

    /// A point-in-time clone of the write-ahead ledger (the surviving
    /// replicated storage after a crash); feed it to [`SsiDb::recover`].
    pub fn wal_snapshot(&self) -> Option<Ledger> {
        self.inner.ledger.as_ref().map(|l| l.lock().clone())
    }

    /// Injects a failure into bookie `idx` of the live WAL. No-op without a
    /// ledger.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the configured replica count.
    pub fn fail_wal_bookie(&self, idx: usize) {
        if let Some(ledger) = &self.inner.ledger {
            ledger.lock().fail_bookie(idx);
        }
    }

    /// Recovers bookie `idx` of the live WAL (inverse of
    /// [`SsiDb::fail_wal_bookie`]).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the configured replica count.
    pub fn recover_wal_bookie(&self, idx: usize) {
        if let Some(ledger) = &self.inner.ledger {
            ledger.lock().recover_bookie(idx);
        }
    }
}

impl std::fmt::Debug for SsiDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsiDb").finish_non_exhaustive()
    }
}

/// A transaction over an [`SsiDb`].
pub struct SsiTransaction {
    db: Arc<SsiInner>,
    start_ts: Timestamp,
    writes: BTreeMap<Bytes, Option<Bytes>>,
    /// Ordered for the same reason as [`crate::Transaction`]'s read set:
    /// the commit request must be a pure function of the keys read.
    read_rows: BTreeSet<RowId>,
    finished: bool,
}

impl SsiTransaction {
    /// The transaction's snapshot timestamp.
    pub fn start_ts(&self) -> Timestamp {
        self.start_ts
    }

    /// Reads a key (own writes win; store lookups join the read set — SSI
    /// needs the read set to find incoming antidependencies).
    pub fn get(&mut self, key: &[u8]) -> Option<Bytes> {
        if let Some(buffered) = self.writes.get(key) {
            return buffered.clone();
        }
        self.read_rows.insert(hash_row_key(key));
        self.db
            .mvcc
            .read(key, self.start_ts, &self.db.index)
            .into_option()
    }

    /// Buffers a write.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.writes.insert(
            Bytes::copy_from_slice(key),
            Some(Bytes::copy_from_slice(value)),
        );
    }

    /// Buffers a deletion.
    pub fn delete(&mut self, key: &[u8]) {
        self.writes.insert(Bytes::copy_from_slice(key), None);
    }

    /// Commits; on a write-write conflict or dangerous structure the
    /// transaction rolls back and [`Error::Aborted`] is returned.
    ///
    /// # Errors
    ///
    /// [`Error::Aborted`] on conflict; [`Error::Wal`] if the store is
    /// durable and the log lost its write quorum (the commit is overturned
    /// before any reader could observe it).
    pub fn commit(mut self) -> Result<Timestamp> {
        if self.finished {
            return Err(Error::TransactionFinished);
        }
        self.finished = true;
        let writes = std::mem::take(&mut self.writes);
        if writes.is_empty() {
            // Read-only commits carry their read set: under SSI a snapshot
            // read can close a cycle as the third transaction (see
            // `SsiOracle`'s read-only-anomaly handling), so even read-only
            // transactions can be refused.
            let read_rows: Vec<RowId> = std::mem::take(&mut self.read_rows).into_iter().collect();
            let req = CommitRequest::new(self.start_ts, read_rows, Vec::new());
            let outcome = self.db.oracle.lock().commit(req);
            return match outcome {
                wsi_core::CommitOutcome::Committed(cts) => Ok(cts),
                wsi_core::CommitOutcome::Aborted(reason) => {
                    self.db.index.record_abort(self.start_ts);
                    // Logged like every other decided abort, so the WAL
                    // abort-record count reconciles with the oracle's
                    // non-client abort counters.
                    self.append_abort_record();
                    Err(Error::Aborted(reason))
                }
            };
        }
        let keys: Vec<Bytes> = writes.keys().cloned().collect();
        let write_rows: Vec<RowId> = keys.iter().map(|k| hash_row_key(k)).collect();
        let batch: Vec<(Bytes, Option<Bytes>)> = writes.into_iter().collect();
        self.db.mvcc.insert_versions(
            self.start_ts,
            batch.iter().map(|(k, v)| (k.clone(), v.clone())),
        );
        let read_rows: Vec<RowId> = std::mem::take(&mut self.read_rows).into_iter().collect();
        let req = CommitRequest::new(self.start_ts, read_rows, write_rows);
        let start_ts = self.start_ts;
        let decision = {
            let mut oracle = self.db.oracle.lock();
            let decision = oracle.commit_durable(req, |commit_ts| {
                let Some(ledger) = &self.db.ledger else {
                    return Ok(());
                };
                let mut ledger = ledger.lock();
                let payload = record::encode(&StoreRecord::Commit {
                    start_ts,
                    commit_ts,
                    writes: batch.clone(),
                });
                let now = self.db.clock.fetch_add(1, Ordering::Relaxed);
                ledger.append(payload, now);
                let result = ledger.flush(now).map(|_| ());
                self.db.journal.record(
                    0,
                    EventData::WalFlush {
                        records: 1,
                        acked: if result.is_ok() { 1 } else { 0 },
                    },
                );
                result
            });
            match &decision {
                Ok(wsi_core::CommitOutcome::Committed(cts)) => {
                    self.db.index.record_commit(start_ts, *cts);
                }
                Ok(wsi_core::CommitOutcome::Aborted(_)) => {
                    self.db.index.record_abort(start_ts);
                    // Conflict aborts are logged too (reconciliation:
                    // refused decisions == WAL abort records), though
                    // nothing depends on them for correctness.
                    self.append_abort_record();
                }
                Err(_) => {
                    // Quorum lost between decision and persistence: the
                    // commit record may survive on a minority of bookies, so
                    // queue the compensating abort the two-pass recovery
                    // keys on. It flushes once a quorum returns.
                    self.db.index.record_abort(start_ts);
                    self.append_abort_record();
                }
            }
            decision
        };
        match decision {
            Ok(wsi_core::CommitOutcome::Committed(cts)) => {
                self.db.mvcc.stamp_commit(start_ts, cts, keys.iter());
                self.db.journal.record(
                    start_ts.raw(),
                    EventData::Publish {
                        commit_ts: cts.raw(),
                    },
                );
                Ok(cts)
            }
            Ok(wsi_core::CommitOutcome::Aborted(reason)) => {
                self.db.mvcc.remove_versions(start_ts, keys.iter());
                Err(Error::Aborted(reason))
            }
            Err(e) => {
                self.db.mvcc.remove_versions(start_ts, keys.iter());
                Err(Error::Wal(e))
            }
        }
    }

    /// Appends an abort record for this transaction (flush is best-effort:
    /// abort records only matter when *commit* records might exist, and
    /// those always flushed first).
    fn append_abort_record(&self) {
        if let Some(ledger) = &self.db.ledger {
            let mut ledger = ledger.lock();
            let payload = record::encode(&StoreRecord::Abort {
                start_ts: self.start_ts,
            });
            let now = self.db.clock.fetch_add(1, Ordering::Relaxed);
            ledger.append(payload, now);
            let _ = ledger.flush(now);
        }
    }

    /// Rolls back, discarding buffered writes.
    pub fn rollback(mut self) {
        self.rollback_in_place();
    }

    fn rollback_in_place(&mut self) {
        if !self.finished {
            self.finished = true;
            let mut oracle = self.db.oracle.lock();
            oracle.abort(self.start_ts);
            self.db.index.record_abort(self.start_ts);
        }
    }
}

impl Drop for SsiTransaction {
    fn drop(&mut self) {
        self.rollback_in_place();
    }
}

impl std::fmt::Debug for SsiTransaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsiTransaction")
            .field("start_ts", &self.start_ts)
            .field("writes", &self.writes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_commit_and_read() {
        let db = SsiDb::open();
        let mut t = db.begin();
        t.put(b"k", b"v1");
        t.commit().unwrap();
        let mut r = db.begin();
        assert_eq!(r.get(b"k").unwrap().as_ref(), b"v1");
    }

    #[test]
    fn write_skew_is_prevented() {
        let db = SsiDb::open();
        let mut seed = db.begin();
        seed.put(b"x", b"1");
        seed.put(b"y", b"1");
        seed.commit().unwrap();

        let mut t1 = db.begin();
        let mut t2 = db.begin();
        let _ = t1.get(b"x");
        let _ = t1.get(b"y");
        let _ = t2.get(b"x");
        let _ = t2.get(b"y");
        t1.put(b"x", b"0");
        t2.put(b"y", b"0");
        t1.commit().unwrap();
        assert!(t2.commit().is_err(), "the pivot must abort");
    }

    #[test]
    fn history6_pattern_is_admitted() {
        // The case where SSI beats WSI: the reader-writer commits last.
        let db = SsiDb::open();
        let mut seed = db.begin();
        seed.put(b"x", b"0");
        seed.commit().unwrap();

        let mut t1 = db.begin();
        let _ = t1.get(b"x"); // t1 reads x
        let mut t2 = db.begin();
        t2.put(b"x", b"new"); // t2 blind-writes x and commits first
        t2.commit().unwrap();
        t1.put(b"y", b"derived");
        t1.commit()
            .expect("single out-edge is not a dangerous structure");
    }

    #[test]
    fn aborted_writes_are_invisible() {
        let db = SsiDb::open();
        let mut seed = db.begin();
        seed.put(b"x", b"1");
        seed.put(b"y", b"1");
        seed.commit().unwrap();
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        let _ = t1.get(b"x");
        let _ = t1.get(b"y");
        let _ = t2.get(b"x");
        let _ = t2.get(b"y");
        t1.put(b"x", b"t1");
        t2.put(b"y", b"t2");
        t1.commit().unwrap();
        assert!(t2.commit().is_err());
        let mut r = db.begin();
        assert_eq!(
            r.get(b"y").unwrap().as_ref(),
            b"1",
            "t2's write must vanish"
        );
    }

    #[test]
    fn read_only_commit_survives_an_overwritten_read() {
        let db = SsiDb::open();
        let mut seed = db.begin();
        seed.put(b"k", b"v");
        seed.commit().unwrap();
        let mut ro = db.begin();
        let _ = ro.get(b"k");
        let mut w = db.begin();
        w.put(b"k", b"w");
        w.commit().unwrap();
        ro.commit().expect("read-only commits freely");
    }

    #[test]
    fn threads_with_retries_converge() {
        let db = SsiDb::open();
        let mut seed = db.begin();
        seed.put(b"counter", b"0");
        seed.commit().unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        loop {
                            let mut t = db.begin();
                            let n: u64 = String::from_utf8(t.get(b"counter").unwrap().to_vec())
                                .unwrap()
                                .parse()
                                .unwrap();
                            t.put(b"counter", (n + 1).to_string().as_bytes());
                            if t.commit().is_ok() {
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut check = db.begin();
        let n: u64 = String::from_utf8(check.get(b"counter").unwrap().to_vec())
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(n, 200);
    }

    #[test]
    fn durable_commits_survive_crash_and_recover() {
        let db = SsiDb::open_durable(LedgerConfig::local_sync());
        for i in 0..10u64 {
            let mut t = db.begin();
            t.put(format!("k{i}").as_bytes(), i.to_string().as_bytes());
            t.commit().unwrap();
        }
        let ledger = db.wal_snapshot().expect("durable");
        drop(db);
        let recovered = SsiDb::recover(ledger).unwrap();
        for i in 0..10u64 {
            let mut r = recovered.begin();
            assert_eq!(
                r.get(format!("k{i}").as_bytes()).unwrap().as_ref(),
                i.to_string().as_bytes()
            );
        }
        // The recovered store keeps working, including SSI detection.
        let mut t = recovered.begin();
        t.put(b"k0", b"new");
        t.commit().unwrap();
    }

    #[test]
    fn quorum_loss_overturns_the_commit_before_visibility() {
        let db = SsiDb::open_durable(LedgerConfig::default_replicated());
        let mut seed = db.begin();
        seed.put(b"x", b"base");
        seed.commit().unwrap();

        db.fail_wal_bookie(0);
        db.fail_wal_bookie(1);
        let mut t = db.begin();
        t.put(b"x", b"lost");
        let err = t.commit();
        assert!(matches!(err, Err(Error::Wal(_))), "{err:?}");
        assert_eq!(db.stats().wal_aborts, 1);

        // Never visible live…
        let mut r = db.begin();
        assert_eq!(r.get(b"x").unwrap().as_ref(), b"base");

        // …and never visible after recovery either, even though the commit
        // record may survive on the minority bookie: the compensating abort
        // flushes once the quorum returns, and the two-pass replay skips
        // the overturned commit.
        db.recover_wal_bookie(0);
        db.flush_wal().expect("quorum restored");
        let recovered = SsiDb::recover(db.wal_snapshot().unwrap()).unwrap();
        let mut r = recovered.begin();
        assert_eq!(r.get(b"x").unwrap().as_ref(), b"base");

        // A fresh write on the recovered store succeeds.
        let mut t = recovered.begin();
        t.put(b"x", b"after");
        t.commit().unwrap();
    }

    #[test]
    fn gc_retires_superseded_versions() {
        let db = SsiDb::open();
        for round in 0..5u64 {
            let mut t = db.begin();
            t.put(b"hot", round.to_string().as_bytes());
            t.commit().unwrap();
        }
        let stats = db.gc();
        assert!(stats.versions_dropped > 0, "{stats:?}");
        db.maintain();
        let rec = db.reclamation();
        assert_eq!(rec.retired, rec.freed + rec.limbo);
        let mut r = db.begin();
        assert_eq!(r.get(b"hot").unwrap().as_ref(), b"4");
    }
}
