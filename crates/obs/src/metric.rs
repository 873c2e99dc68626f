//! Scalar metrics: sharded counters and gauges.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of independent cells a [`Counter`] or [`crate::Histogram`] is
/// sharded over. Each cell lives on its own cache line, so threads mapped to
/// different slots never contend on an increment.
pub(crate) const SHARDS: usize = 16;

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Stable per-thread shard index, assigned round-robin on first use.
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// The shard this thread records into.
#[inline]
pub(crate) fn thread_slot() -> usize {
    THREAD_SLOT.with(|s| *s)
}

/// One cache-line-padded atomic cell.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct PaddedU64(pub(crate) AtomicU64);

/// A monotonically increasing counter, sharded per thread.
///
/// Cloning is cheap and *shares* the underlying cells — a clone is a second
/// handle onto the same counter, which is how one counter can be registered
/// in a [`crate::Registry`] while the hot path holds its own handle.
#[derive(Clone, Default)]
pub struct Counter {
    cells: Arc<[PaddedU64; SHARDS]>,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[thread_slot()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` (used only for the rare decision-overturn paths; the
    /// exposed value stays non-negative as long as every `sub` undoes an
    /// earlier `add`).
    #[inline]
    pub fn sub(&self, n: u64) {
        self.cells[thread_slot()].0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Aggregated value across all shards.
    pub fn get(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }

    /// Overwrites the aggregate value — a recovery-time operation used to
    /// resume counters from persisted state; never called on the hot path.
    pub fn set(&self, value: u64) {
        for (i, cell) in self.cells.iter().enumerate() {
            cell.0
                .store(if i == 0 { value } else { 0 }, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A settable scalar (point-in-time value, not a rate).
///
/// Cloning shares the underlying cell, like [`Counter`].
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Reads the value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.sub(2);
        assert_eq!(c.get(), 40);
    }

    #[test]
    fn clones_share_the_counter() {
        let c = Counter::new();
        let shared = c.clone();
        shared.add(5);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn set_overwrites_every_shard() {
        let c = Counter::new();
        c.add(100);
        c.set(7);
        assert_eq!(c.get(), 7);
    }

    #[test]
    fn gauge_set_get() {
        let g = Gauge::new();
        g.set(9);
        assert_eq!(g.get(), 9);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn concurrent_increments_all_land() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }
}
