//! Timestamps and timestamp allocation.
//!
//! Both isolation levels assign each transaction two timestamps drawn from a
//! single monotonic counter: a *start* timestamp `T_s` taken before the first
//! read, and a *commit* timestamp `T_c` taken at commit. Because starts and
//! commits share one counter, comparing any two timestamps totally orders the
//! corresponding events, which is what the temporal-overlap predicates in
//! [`crate::policy`] rely on.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A logical timestamp drawn from the (status/timestamp) oracle's counter.
///
/// Timestamps are unique across all start and commit events, strictly
/// increasing in allocation order, and never reused. `Timestamp(0)` is
/// reserved as the "beginning of time": no transaction ever receives it, so
/// it can safely serve as the initial `lastCommit` value and as `T_max`
/// before any eviction has happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The reserved "beginning of time" timestamp.
    pub const ZERO: Timestamp = Timestamp(0);

    /// The largest representable timestamp; useful as an "infinity" sentinel.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Returns the raw counter value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Returns the next timestamp in sequence.
    ///
    /// # Panics
    ///
    /// Panics if `self` is [`Timestamp::MAX`]; a 64-bit counter allocated at
    /// even 10^9 timestamps per second would take centuries to reach it.
    #[inline]
    #[must_use]
    pub fn next(self) -> Timestamp {
        Timestamp(self.0.checked_add(1).expect("timestamp counter overflow"))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts:{}", self.0)
    }
}

impl From<u64> for Timestamp {
    fn from(raw: u64) -> Self {
        Timestamp(raw)
    }
}

/// A monotonic source of fresh timestamps.
///
/// This is the single-threaded core of the paper's *timestamp oracle*: the
/// in-memory counter of [`StatusOracleCore`](crate::StatusOracleCore). The
/// paper's implementation also persists a high-water mark to the write-ahead
/// log (§6.2: "the timestamp oracle could reserve thousands of timestamps per
/// each write into the write-ahead log"); `wsi-oracle` models what those
/// writes cost, and the embedded store's [`SharedTimestampSource`] reserves
/// them.
///
/// # Example
///
/// ```
/// use wsi_core::TimestampSource;
///
/// let mut src = TimestampSource::new();
/// let a = src.next();
/// let b = src.next();
/// assert!(b > a);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimestampSource {
    last: Timestamp,
}

impl TimestampSource {
    /// Creates a source whose first issued timestamp is `Timestamp(1)`.
    pub fn new() -> Self {
        TimestampSource {
            last: Timestamp::ZERO,
        }
    }

    /// Issues the next timestamp.
    ///
    /// Named `next` to match the paper's `TimestampOracle.next()` (Algorithm
    /// 1 line 6); this is not an iterator — it never ends and cannot fail.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Timestamp {
        self.last = self.last.next();
        self.last
    }

    /// Returns the most recently issued timestamp, or [`Timestamp::ZERO`] if
    /// none has been issued yet.
    #[inline]
    pub fn last_issued(&self) -> Timestamp {
        self.last
    }
}

/// A lock-free, shareable source of fresh timestamps.
///
/// The concurrent counterpart of [`TimestampSource`]: one atomic counter
/// shared by every thread of an embedding, so issuing a start timestamp is a
/// single `fetch_add` instead of a trip through the status oracle's critical
/// section. The paper's measurements (§6.3) show the conflict check itself is
/// a few memory operations; keeping timestamp allocation off that lock is
/// what lets `begin` scale with core count.
///
/// The type also models the paper's §6.2 *batched timestamp reservation*:
/// rather than persisting every issued timestamp, an embedder reserves a
/// block of timestamps with one write-ahead-log record ("the timestamp
/// oracle could reserve thousands of timestamps per each write into the
/// write-ahead log") and, on recovery, resumes past the reserved bound so no
/// timestamp is ever reissued. [`SharedTimestampSource::reserve`] decides
/// when a new reservation record is owed; persisting it is the embedder's
/// job.
///
/// All operations use sequentially consistent ordering: the correctness of
/// concurrent embedders (e.g. the snapshot-visibility gate in `wsi-store`)
/// relies on the counter's modification order being consistent with each
/// thread's surrounding atomic operations.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use wsi_core::SharedTimestampSource;
///
/// let src = Arc::new(SharedTimestampSource::new());
/// let a = src.next();
/// let b = src.next();
/// assert!(b > a);
/// ```
#[derive(Debug, Default)]
pub struct SharedTimestampSource {
    last: AtomicU64,
    /// Highest timestamp covered by a (persisted or pending) reservation.
    reserved: AtomicU64,
}

impl SharedTimestampSource {
    /// Creates a source whose first issued timestamp is `Timestamp(1)`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a source that resumes after `last`, e.g. from a recovered
    /// persistent high-water mark.
    pub fn resuming_after(last: Timestamp) -> Self {
        SharedTimestampSource {
            last: AtomicU64::new(last.raw()),
            reserved: AtomicU64::new(last.raw()),
        }
    }

    /// Issues the next timestamp (an atomic fetch-add; never blocks).
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&self) -> Timestamp {
        let prev = self.last.fetch_add(1, Ordering::SeqCst);
        assert_ne!(prev, u64::MAX, "timestamp counter overflow");
        Timestamp(prev + 1)
    }

    /// Returns the most recently issued timestamp, or [`Timestamp::ZERO`] if
    /// none has been issued yet.
    #[inline]
    pub fn last_issued(&self) -> Timestamp {
        Timestamp(self.last.load(Ordering::SeqCst))
    }

    /// Advances the counter so that every timestamp up to and including
    /// `bound` counts as issued (recovery). Never moves backwards.
    pub fn advance_to(&self, bound: Timestamp) {
        self.last.fetch_max(bound.raw(), Ordering::SeqCst);
    }

    /// Claims a new reservation block of `batch` timestamps if the counter
    /// has caught up with the reserved bound (§6.2).
    ///
    /// Returns `Some(upto)` when the caller won the race to extend the
    /// reservation and therefore owes a durable reservation record covering
    /// timestamps up to and including `upto`; returns `None` when the
    /// current reservation still has headroom (or another thread just
    /// extended it). Concurrent winners are possible and harmless: recovery
    /// merges reservation records by maximum.
    pub fn reserve(&self, batch: u64) -> Option<Timestamp> {
        let issued = self.last.load(Ordering::SeqCst);
        if issued < self.reserved.load(Ordering::SeqCst) {
            return None;
        }
        let upto = issued.saturating_add(batch);
        if self.reserved.fetch_max(upto, Ordering::SeqCst) < upto {
            Some(Timestamp(upto))
        } else {
            None
        }
    }

    /// The reservation bound: every timestamp a (persisted or pending)
    /// reservation covers. A checkpoint carries it, so that the
    /// reservation records it lets the log drop stay in force.
    pub fn reserved(&self) -> Timestamp {
        Timestamp(self.reserved.load(Ordering::SeqCst))
    }

    /// Registers a recovered reservation bound: timestamps up to `upto` may
    /// have been issued before the crash and must never be reissued.
    pub fn note_reserved(&self, upto: Timestamp) {
        self.reserved.fetch_max(upto.raw(), Ordering::SeqCst);
        self.advance_to(upto);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_are_strictly_increasing() {
        let mut src = TimestampSource::new();
        let mut prev = Timestamp::ZERO;
        for _ in 0..1000 {
            let t = src.next();
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn zero_is_never_issued() {
        let mut src = TimestampSource::new();
        for _ in 0..100 {
            assert_ne!(src.next(), Timestamp::ZERO);
        }
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(Timestamp(7).to_string(), "ts:7");
    }

    #[test]
    fn next_is_plus_one() {
        assert_eq!(Timestamp(7).next(), Timestamp(8));
    }

    #[test]
    #[should_panic(expected = "timestamp counter overflow")]
    fn next_panics_at_max() {
        let _ = Timestamp::MAX.next();
    }

    #[test]
    fn shared_source_is_unique_and_monotonic_across_threads() {
        use std::sync::Arc;
        let src = Arc::new(SharedTimestampSource::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let src = Arc::clone(&src);
                std::thread::spawn(move || (0..1000).map(|_| src.next().raw()).collect::<Vec<_>>())
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "timestamps must be unique");
        assert_eq!(src.last_issued(), Timestamp(4000));
    }

    #[test]
    fn shared_source_resumes_and_advances() {
        let src = SharedTimestampSource::resuming_after(Timestamp(41));
        assert_eq!(src.next(), Timestamp(42));
        src.advance_to(Timestamp(10)); // never backwards
        assert_eq!(src.last_issued(), Timestamp(42));
        src.advance_to(Timestamp(100));
        assert_eq!(src.next(), Timestamp(101));
    }

    #[test]
    fn shared_source_reservation_blocks() {
        let src = SharedTimestampSource::new();
        // Fresh source: the first issue exhausts the (empty) reservation.
        src.next();
        assert_eq!(src.reserved(), Timestamp::ZERO);
        let upto = src.reserve(1000).expect("reservation due");
        assert_eq!(upto, Timestamp(1001));
        assert_eq!(src.reserved(), upto);
        // Headroom remains: no new record owed.
        for _ in 0..500 {
            src.next();
        }
        assert!(src.reserve(1000).is_none());
        // Recovery resumes past the reserved bound.
        let recovered = SharedTimestampSource::new();
        recovered.note_reserved(upto);
        assert!(recovered.next() > upto);
    }
}
