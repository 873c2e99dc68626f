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
//! The registry exists for exactly one consumer: the garbage collector's
//! low-water mark. [`ActiveTxnRegistry::watermark`] locks *all* shards, which
//! closes the seed's GC race — a begin can no longer slip between the
//! watermark read and the sweep, because timestamps are issued while a shard
//! lock is held.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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

/// Number of epoch-participant slots (power of two). Bounds the number of
/// *simultaneously pinned* store operations, not threads: a pin lives for
/// one store call, so this is comfortably above any realistic concurrency
/// on the hosts this workspace targets.
pub(crate) const EPOCH_SLOTS: usize = 64;

thread_local! {
    /// This thread's preferred participant slot index, assigned once from a
    /// process-wide counter so the first `EPOCH_SLOTS` threads probe
    /// disjoint slots and the pin CAS succeeds first try.
    static EPOCH_SLOT_HINT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Feeds [`EPOCH_SLOT_HINT`]; shared across stores (it is only a hint).
static NEXT_SLOT_HINT: AtomicUsize = AtomicUsize::new(0);

/// Epoch-based reclamation: a global epoch plus per-thread participant
/// slots — the grace-period tracker of the arena store's limbo list.
///
/// The protocol (mirrored by the loom model in `tests/loom_protocols.rs`):
///
/// * **Pin** (every arena-store operation that dereferences version slots):
///   claim a vacant slot by CAS, publish the current global epoch into it,
///   then re-read the global epoch and re-publish until the slot matches —
///   closing the race where an advance lands between the epoch read and the
///   slot publish.
/// * **Advance** (`try_advance`, called from GC/maintenance): the global
///   epoch may move from `E` to `E+1` only while **every** occupied slot is
///   pinned at exactly `E`. A participant still pinned at an older epoch
///   blocks the advance.
/// * **Free rule**: a version retired at epoch `E` is reclaimed only once
///   the global epoch is `≥ E+2`. Reaching `E+2` required an advance out of
///   `E+1`, which required every pin taken at epoch `≤ E` — the only pins
///   that can still hold a reference to the retired version, since it was
///   unlinked before retirement — to have been released. See DESIGN.md §6.
#[derive(Debug)]
pub(crate) struct EpochParticipants {
    /// The global epoch. Starts at 1; `0` marks a vacant participant slot.
    global: AtomicU64,
    /// One participant slot per cache line, so two threads publishing their
    /// pins never invalidate each other's line.
    slots: Vec<OwnLine<AtomicU64>>,
}

impl Default for EpochParticipants {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochParticipants {
    pub(crate) fn new() -> Self {
        EpochParticipants {
            global: AtomicU64::new(1),
            slots: (0..EPOCH_SLOTS)
                .map(|_| OwnLine(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// The current global epoch.
    pub(crate) fn global(&self) -> u64 {
        self.global.load(Ordering::SeqCst)
    }

    /// Pins the calling thread at the current epoch for the lifetime of the
    /// returned guard. Cost when uncontended: one TLS read, one CAS into the
    /// thread's own slot, one re-check load.
    pub(crate) fn pin(&self) -> EpochPin<'_> {
        let hint = EPOCH_SLOT_HINT.with(|h| {
            let v = h.get();
            if v != usize::MAX {
                v
            } else {
                let v = NEXT_SLOT_HINT.fetch_add(1, Ordering::Relaxed);
                h.set(v);
                v
            }
        });
        let mut i = hint & (EPOCH_SLOTS - 1);
        loop {
            let e = self.global.load(Ordering::SeqCst);
            if self.slots[i]
                .0
                .compare_exchange(0, e, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                // Re-sync: if an advance slipped between the epoch load and
                // the slot publish, move the pin forward until the slot and
                // the global epoch agree. The advancer that missed our store
                // could not have freed anything we can reach: it either saw
                // the slot vacant (we had not yet published — so we cannot
                // have loaded any chain pointer yet either) or saw it pinned
                // and refused to advance.
                loop {
                    let g = self.global.load(Ordering::SeqCst);
                    if g == self.slots[i].0.load(Ordering::Relaxed) {
                        break;
                    }
                    self.slots[i].0.store(g, Ordering::SeqCst);
                }
                return EpochPin {
                    participants: self,
                    slot: i,
                };
            }
            // Slot taken (another thread, or a nested pin): probe onward.
            i = (i + 1) & (EPOCH_SLOTS - 1);
        }
    }

    /// Advances the global epoch by one if every occupied participant slot
    /// is pinned at the current epoch. Returns whether the epoch moved.
    pub(crate) fn try_advance(&self) -> bool {
        let g = self.global.load(Ordering::SeqCst);
        for slot in &self.slots {
            let v = slot.0.load(Ordering::SeqCst);
            if v != 0 && v != g {
                return false;
            }
        }
        self.global
            .compare_exchange(g, g + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }
}

/// RAII pin on [`EpochParticipants`]; vacates the slot on drop.
#[derive(Debug)]
pub(crate) struct EpochPin<'a> {
    participants: &'a EpochParticipants,
    slot: usize,
}

impl EpochPin<'_> {
    /// The participant slot this pin occupies: distinct for concurrently
    /// pinned threads, so it doubles as a contention-free shard selector.
    pub(crate) fn slot(&self) -> usize {
        self.slot
    }
}

impl Drop for EpochPin<'_> {
    fn drop(&mut self) {
        self.participants.slots[self.slot]
            .0
            .store(0, Ordering::SeqCst);
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

    #[test]
    fn epoch_advances_only_when_participants_caught_up() {
        let ep = EpochParticipants::new();
        assert_eq!(ep.global(), 1);
        assert!(ep.try_advance(), "no pins: advance freely");
        assert_eq!(ep.global(), 2);

        let pin = ep.pin();
        // The pinned participant sits at epoch 2, so one advance (to 3) is
        // allowed, but the next is blocked until the pin drops.
        assert!(ep.try_advance());
        assert_eq!(ep.global(), 3);
        assert!(!ep.try_advance(), "stale pin blocks the second advance");
        assert_eq!(ep.global(), 3);
        drop(pin);
        assert!(ep.try_advance());
        assert_eq!(ep.global(), 4);
    }

    #[test]
    fn nested_pins_claim_distinct_slots() {
        let ep = EpochParticipants::new();
        let a = ep.pin();
        let b = ep.pin();
        assert_ne!(a.slot, b.slot);
        drop(a);
        drop(b);
        assert!(ep.try_advance(), "both slots vacated");
    }

    #[test]
    fn concurrent_pins_never_lose_the_advance_guarantee() {
        let ep = Arc::new(EpochParticipants::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let pinners: Vec<_> = (0..4)
            .map(|_| {
                let ep = Arc::clone(&ep);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let pin = ep.pin();
                        // While pinned, the global epoch can be at most one
                        // ahead of the pin (the advance out of our epoch is
                        // allowed; the next one must wait for us).
                        let pinned = ep.slots[pin.slot].0.load(Ordering::SeqCst);
                        let g = ep.global();
                        assert!(
                            g >= pinned && g <= pinned + 1,
                            "global {g} ran away from pin {pinned}"
                        );
                        drop(pin);
                    }
                })
            })
            .collect();
        for _ in 0..1_000 {
            ep.try_advance();
        }
        stop.store(true, Ordering::Relaxed);
        for h in pinners {
            h.join().unwrap();
        }
    }
}
