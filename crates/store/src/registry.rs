//! Registry of in-flight transactions, and the store's one record of a
//! transaction's fate.
//!
//! The seed design tracked active transactions in a `BTreeMap` inside the
//! manager's critical section, which put every `begin` — a pure
//! timestamp-issue operation the paper costs at "a few memory operations"
//! (§6.3) — behind the same mutex as conflict detection. This registry
//! removes `begin` from that critical section: a start timestamp is drawn
//! from the shared lock-free counter and recorded under the registry's own
//! lock, which committers take only to set a fate.
//!
//! Each entry carries its transaction's fate (pending, committed at a
//! timestamp, or aborted), and the registry is the [`VersionResolver`] of
//! versions not stamped yet: a live unstamped version belongs to a
//! registered writer (DESIGN.md §6), so the live set is the commit table,
//! with the stamp — §2.2's "written back into the database", PostgreSQL's
//! hint bit — as its fast path. A reader that finds no entry re-reads the
//! stamp (`arena::Version::fate`).
//!
//! Its watermark — the oldest registered start, a lower bound on every
//! current and future snapshot — has two consumers. The garbage collector
//! keeps what a snapshot at or above it can read (and the SSI window
//! forgets, on the same tick, what no such snapshot can conflict with). The version store frees an unlinked
//! chain node once the watermark passes the tag drawn after its unlink: a
//! chain walk runs inside a registered transaction, snapshot or sweep, so
//! one that could still stand on the node holds the watermark at or below
//! the tag (DESIGN.md §6). [`ActiveTxnRegistry::watermark`] reads the set
//! under the registry lock, which closes the seed's GC race — a begin can
//! no longer slip between the watermark read and the sweep, because start
//! timestamps are issued while that lock is held.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use wsi_core::{SharedTimestampSource, Timestamp, TxnStatus};

use crate::mvcc::VersionResolver;

/// A value on a cache line of its own, so the threads writing it never
/// invalidate a line other threads read for something else.
#[derive(Debug)]
#[repr(align(64))]
pub(crate) struct OwnLine<T>(pub(crate) T);

/// Map of active transactions: start timestamp → fate.
#[derive(Debug)]
pub(crate) struct ActiveTxnRegistry {
    /// Every `begin` on every thread writes the lock and the map's root, so
    /// wherever the embedding struct places the registry they must not
    /// share a line with fields every commit reads: when a begin-bumped
    /// cursor did, `txn_e2e`'s `zipf_complex_2t` lost 4 % throughput and
    /// 6 % p50 (EXPERIMENTS.md, "Why there is one commit-decision backend").
    live: OwnLine<Mutex<BTreeMap<u64, TxnStatus>>>,
}

impl ActiveTxnRegistry {
    pub(crate) fn new() -> Self {
        ActiveTxnRegistry {
            live: OwnLine(Mutex::new(BTreeMap::new())),
        }
    }

    /// Issues a start timestamp and registers it as active and pending.
    ///
    /// The timestamp is issued *while the registry lock is held* so that
    /// [`ActiveTxnRegistry::watermark`], which takes the same lock, can
    /// never observe a timestamp as issued-but-unregistered: any begin
    /// still mid-registration blocks the watermark until its timestamp is
    /// in the set.
    pub(crate) fn register(&self, ts: &SharedTimestampSource) -> Timestamp {
        let mut live = self.live.0.lock();
        let start_ts = ts.next();
        live.insert(start_ts.raw(), TxnStatus::Pending);
        start_ts
    }

    /// Issues a commit timestamp for a registered transaction and records
    /// the commit, both under the registry lock: any snapshot that observes
    /// `S > commit_ts` drew `S` after this critical section began, and
    /// looks the fate up under the same lock, so it reads the commit.
    pub(crate) fn commit(&self, start_ts: Timestamp, ts: &SharedTimestampSource) -> Timestamp {
        let mut live = self.live.0.lock();
        let commit_ts = ts.next();
        let prev = live.insert(start_ts.raw(), TxnStatus::Committed(commit_ts));
        debug_assert_eq!(prev, Some(TxnStatus::Pending), "fate settled twice");
        commit_ts
    }

    /// Records the fate of a registered transaction decided elsewhere: a
    /// refused commit, or a durable one's outcome once its batch is flushed.
    pub(crate) fn settle(&self, start_ts: Timestamp, fate: TxnStatus) {
        let prev = self.live.0.lock().insert(start_ts.raw(), fate);
        debug_assert_eq!(prev, Some(TxnStatus::Pending), "fate settled twice");
    }

    /// Removes a finished transaction, and its fate with it: the owner has
    /// stamped or removed its versions by now.
    pub(crate) fn deregister(&self, start_ts: Timestamp) {
        let removed = self.live.0.lock().remove(&start_ts.raw());
        debug_assert!(removed.is_some(), "transaction deregistered twice");
    }

    /// Number of in-flight transactions.
    pub(crate) fn count(&self) -> usize {
        self.live.0.lock().len()
    }

    /// The GC low-water mark: the minimum active start timestamp, or one
    /// past the last issued timestamp when nothing is in flight.
    ///
    /// Holds the registry lock for the duration of the computation; see
    /// [`ActiveTxnRegistry::register`] for why this makes the result a true
    /// lower bound on every current *and future* snapshot.
    pub(crate) fn watermark(&self, ts: &SharedTimestampSource) -> Timestamp {
        let live = self.live.0.lock();
        live.first_key_value()
            .map(|(&start, _)| Timestamp(start))
            .unwrap_or_else(|| ts.last_issued().next())
    }
}

impl VersionResolver for ActiveTxnRegistry {
    /// The fate of the writer registered at `writer_start`, or `Pending`
    /// once it has deregistered — by then it has stamped what it
    /// committed, which the caller re-reads.
    fn resolve(&self, writer_start: Timestamp) -> TxnStatus {
        self.live
            .0
            .lock()
            .get(&writer_start.raw())
            .copied()
            .unwrap_or(TxnStatus::Pending)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn register_deregister_roundtrip() {
        let ts = SharedTimestampSource::new();
        let reg = ActiveTxnRegistry::new();
        let a = reg.register(&ts);
        let b = reg.register(&ts);
        assert!(b > a, "timestamps stay strictly monotonic");
        assert_eq!(reg.count(), 2);
        assert_eq!(reg.watermark(&ts), a);
        reg.deregister(a);
        assert_eq!(reg.watermark(&ts), b);
        reg.deregister(b);
        assert_eq!(reg.count(), 0);
        assert_eq!(reg.watermark(&ts), ts.last_issued().next());
    }

    #[test]
    fn watermark_is_the_oldest_live_start() {
        let ts = SharedTimestampSource::new();
        let reg = ActiveTxnRegistry::new();
        let starts: Vec<_> = (0..8).map(|_| reg.register(&ts)).collect();
        // Younger transactions finishing first leave the oldest in place.
        for &t in &starts[1..4] {
            reg.deregister(t);
        }
        assert_eq!(reg.watermark(&ts), starts[0]);
        reg.deregister(starts[0]);
        assert_eq!(reg.watermark(&ts), starts[4]);
        for &t in &starts[4..] {
            reg.deregister(t);
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Register,
        /// Commit, abort or deregister the `n`-th live transaction (modulo
        /// the live count); commit and abort skip one already settled.
        Commit(usize),
        Abort(usize),
        Deregister(usize),
    }

    fn op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        prop_oneof![
            Just(Op::Register),
            (0..8usize).prop_map(Op::Commit),
            (0..8usize).prop_map(Op::Abort),
            (0..8usize).prop_map(Op::Deregister),
        ]
    }

    proptest::proptest! {
        /// The registry against a model map: after every step of any
        /// register / commit / abort / deregister sequence, a registered
        /// writer answers its fate, every writer that has deregistered
        /// answers `Pending`, and the count and watermark follow the live
        /// set.
        #[test]
        fn a_registered_writer_answers_its_fate_and_no_other_does(
            ops in proptest::collection::vec(op(), 1..80)
        ) {
            let ts = SharedTimestampSource::new();
            let reg = ActiveTxnRegistry::new();
            let mut live: BTreeMap<Timestamp, TxnStatus> = BTreeMap::new();
            let mut issued = Vec::new();
            for op in ops {
                let nth = |n: usize| live.keys().nth(n % live.len().max(1)).copied();
                match op {
                    Op::Register => {
                        let txn = reg.register(&ts);
                        issued.push(txn);
                        live.insert(txn, TxnStatus::Pending);
                    }
                    Op::Commit(n) | Op::Abort(n) => {
                        let Some(start) = nth(n) else { continue };
                        if live[&start] != TxnStatus::Pending {
                            continue;
                        }
                        let fate = if let Op::Commit(_) = op {
                            TxnStatus::Committed(reg.commit(start, &ts))
                        } else {
                            reg.settle(start, TxnStatus::Aborted);
                            TxnStatus::Aborted
                        };
                        live.insert(start, fate);
                    }
                    Op::Deregister(n) => {
                        let Some(start) = nth(n) else { continue };
                        reg.deregister(start);
                        live.remove(&start);
                    }
                }
                for &start in &issued {
                    let expected = live.get(&start).copied().unwrap_or(TxnStatus::Pending);
                    proptest::prop_assert_eq!(reg.resolve(start), expected, "txn {:?}", start);
                }
                proptest::prop_assert_eq!(reg.count(), live.len());
                let oldest = live.keys().next().copied();
                proptest::prop_assert_eq!(
                    reg.watermark(&ts),
                    oldest.unwrap_or_else(|| ts.last_issued().next())
                );
            }
        }
    }

    #[test]
    fn concurrent_begins_never_lower_an_observed_watermark() {
        let ts = Arc::new(SharedTimestampSource::new());
        let reg = Arc::new(ActiveTxnRegistry::new());
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let ts = Arc::clone(&ts);
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let t = reg.register(&ts);
                        reg.deregister(t);
                    }
                })
            })
            .collect();
        // The watermark must never move backwards while begins race it.
        let mut last = Timestamp::ZERO;
        for _ in 0..200 {
            let w = reg.watermark(&ts);
            assert!(w >= last, "watermark regressed: {w:?} < {last:?}");
            last = w;
        }
        for h in workers {
            h.join().unwrap();
        }
    }
}
