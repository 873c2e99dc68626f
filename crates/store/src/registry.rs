//! Lock-striped registry of in-flight transactions.
//!
//! The seed design tracked active transactions in a `BTreeMap` inside the
//! manager's critical section, which put every `begin` — a pure
//! timestamp-issue operation the paper costs at "a few memory operations"
//! (§6.3) — behind the same mutex as conflict detection. This registry
//! removes `begin` from that critical section entirely: a start timestamp is
//! drawn from the shared lock-free counter and recorded under one of
//! [`SHARDS`] independent shard locks, so concurrent begins contend only
//! 1/[`SHARDS`] of the time and never with committers.
//!
//! Its watermark — the oldest registered start, a lower bound on every
//! current and future snapshot — has two consumers. The garbage collector
//! keeps what a snapshot at or above it can read (and the oracle's
//! `lastCommit` rows and the SSI window forget, on the same tick, what no
//! such snapshot can conflict with). The version store frees an unlinked
//! chain node once the watermark passes the tag drawn after its unlink: a
//! chain walk runs inside a registered transaction, snapshot or sweep, so
//! one that could still stand on the node holds the watermark at or below
//! the tag (DESIGN.md §6). [`ActiveTxnRegistry::watermark`] locks *all*
//! shards, which closes the seed's GC race — a begin can no longer slip
//! between the watermark read and the sweep, because timestamps are issued
//! while a shard lock is held.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;
use wsi_core::{SharedTimestampSource, Timestamp};

/// Number of independent shard locks.
pub(crate) const SHARDS: usize = 16;

/// A value on a cache line of its own, so the threads writing it never
/// invalidate a line other threads read for something else.
#[derive(Debug)]
#[repr(align(64))]
pub(crate) struct OwnLine<T>(pub(crate) T);

/// Striped set of active start timestamps.
#[derive(Debug)]
pub(crate) struct ActiveTxnRegistry {
    shards: Vec<Mutex<BTreeSet<u64>>>,
    /// Round-robin shard cursor. Every `begin` on every thread bumps it, so
    /// wherever the embedding struct places the registry it must not share
    /// a line with fields every commit reads: when it did, `txn_e2e`'s
    /// `zipf_complex_2t` lost 4 % throughput and 6 % p50 (EXPERIMENTS.md,
    /// "Why there is one commit-decision backend").
    next_shard: OwnLine<AtomicUsize>,
    /// Counts `register` calls that found their shard lock held (begin-path
    /// contention); `None` when observability is disabled.
    contention: Option<wsi_obs::Counter>,
}

impl ActiveTxnRegistry {
    pub(crate) fn new(contention: Option<wsi_obs::Counter>) -> Self {
        ActiveTxnRegistry {
            shards: (0..SHARDS).map(|_| Mutex::new(BTreeSet::new())).collect(),
            next_shard: OwnLine(AtomicUsize::new(0)),
            contention,
        }
    }

    /// Issues a start timestamp and registers it as active, returning the
    /// timestamp and the shard that holds it (needed to deregister).
    ///
    /// The timestamp is issued *while the shard lock is held* so that
    /// [`ActiveTxnRegistry::watermark`], which locks every shard, can never
    /// observe a timestamp as issued-but-unregistered: any begin still
    /// mid-registration blocks the watermark until its timestamp is in the
    /// set.
    pub(crate) fn register(&self, ts: &SharedTimestampSource) -> (Timestamp, usize) {
        let shard = self.next_shard.0.fetch_add(1, Ordering::Relaxed) % SHARDS;
        let mut set = match self.shards[shard].try_lock() {
            Some(guard) => guard,
            None => {
                if let Some(contention) = &self.contention {
                    contention.inc();
                }
                self.shards[shard].lock()
            }
        };
        let start_ts = ts.next();
        set.insert(start_ts.raw());
        (start_ts, shard)
    }

    /// Removes a finished transaction.
    pub(crate) fn deregister(&self, start_ts: Timestamp, shard: usize) {
        let removed = self.shards[shard].lock().remove(&start_ts.raw());
        debug_assert!(removed, "transaction deregistered twice");
    }

    /// Number of in-flight transactions.
    pub(crate) fn count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// The GC low-water mark: the minimum active start timestamp, or one
    /// past the last issued timestamp when nothing is in flight.
    ///
    /// Holds every shard lock (acquired in fixed index order) for the
    /// duration of the computation; see [`ActiveTxnRegistry::register`] for
    /// why this makes the result a true lower bound on every current *and
    /// future* snapshot.
    pub(crate) fn watermark(&self, ts: &SharedTimestampSource) -> Timestamp {
        let guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        guards
            .iter()
            .filter_map(|g| g.first().copied())
            .min()
            .map(Timestamp)
            .unwrap_or_else(|| ts.last_issued().next())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn register_deregister_roundtrip() {
        let ts = SharedTimestampSource::new();
        let reg = ActiveTxnRegistry::new(None);
        let (a, sa) = reg.register(&ts);
        let (b, sb) = reg.register(&ts);
        assert!(b > a, "timestamps stay strictly monotonic");
        assert_eq!(reg.count(), 2);
        assert_eq!(reg.watermark(&ts), a);
        reg.deregister(a, sa);
        assert_eq!(reg.watermark(&ts), b);
        reg.deregister(b, sb);
        assert_eq!(reg.count(), 0);
        assert_eq!(reg.watermark(&ts), ts.last_issued().next());
    }

    #[test]
    fn watermark_is_min_across_shards() {
        let ts = SharedTimestampSource::new();
        let reg = ActiveTxnRegistry::new(None);
        // More registrations than shards, so every shard holds something.
        let handles: Vec<_> = (0..3 * SHARDS).map(|_| reg.register(&ts)).collect();
        let min = handles.iter().map(|(t, _)| *t).min().unwrap();
        assert_eq!(reg.watermark(&ts), min);
        for (t, s) in handles {
            reg.deregister(t, s);
        }
    }

    #[test]
    fn concurrent_begins_never_lower_an_observed_watermark() {
        let ts = Arc::new(SharedTimestampSource::new());
        let reg = Arc::new(ActiveTxnRegistry::new(None));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let ts = Arc::clone(&ts);
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let (t, s) = reg.register(&ts);
                        reg.deregister(t, s);
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
