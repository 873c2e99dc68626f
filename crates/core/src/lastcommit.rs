//! The `lastCommit` table: per-row latest commit timestamps.
//!
//! Line 2 of Algorithms 1–3 consults `lastCommit(r)`, the commit timestamp
//! of the latest committed transaction that modified row `r`. Checking only
//! the *latest* writer is sufficient by induction (paper §2.2): every earlier
//! writer of `r` committed with a smaller timestamp, so if the latest does
//! not violate the temporal condition, none does.
//!
//! [`LastCommit`] is that table: one flat open-addressing hash table (the
//! private `RowTable`), so a probe or a record loads one memory item per
//! row — the paper's unit of oracle cost (§6.3). Unbounded, it is exact
//! (Algorithms 1 and 2) and holds every row ever written. Bounded, it keeps at most `NR`
//! resident rows, evicting the oldest and folding their timestamps into
//! `T_max` (Algorithm 3, paper Appendix A); lookups of evicted rows return
//! `T_max`-based pessimistic answers, so eviction can cause extra aborts but
//! never admits a commit the unbounded table would have refused.
//!
//! The table keeps no order: it answers for single rows only.

use std::collections::VecDeque;

use crate::{row::RowId, ts::Timestamp};

/// Result of probing the `lastCommit` table for a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The row is resident with the given latest commit timestamp.
    Resident(Timestamp),
    /// The row has never been written (and the table has never evicted, or
    /// can prove the row was not evicted — only the unbounded table can).
    NeverWritten,
    /// The row is not resident and may have been evicted; the caller must
    /// compare the transaction's start timestamp against `T_max`
    /// (Algorithm 3 lines 6–9).
    MaybeEvicted {
        /// Maximum commit timestamp among all evicted entries.
        t_max: Timestamp,
    },
}

/// Multiplier of the home-slot hash: an odd constant with well-mixed top
/// bits, so both sequential row identifiers (synthetic workloads) and
/// already-hashed ones (byte-string keys) spread over the whole table.
const SLOT_HASH: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Smallest table: 8 slots, 6 rows.
const MIN_BITS: u32 = 3;

/// One slot of a [`RowTable`]: 16 bytes, four to a cache line.
#[derive(Debug, Clone, Copy)]
struct Slot {
    row: RowId,
    ts: Timestamp,
}

/// An empty slot carries [`Timestamp::MAX`], which no row can: the
/// timestamp counters panic before issuing it.
const EMPTY: Slot = Slot {
    row: RowId(0),
    ts: Timestamp::MAX,
};

impl Slot {
    #[inline]
    fn is_empty(self) -> bool {
        self.ts == EMPTY.ts
    }
}

/// `row → timestamp` in a power-of-two array with linear probing: a row
/// lives in the first free slot at or after its home slot, so a lookup is
/// one multiply and, at the ¾ load bound, 1.5 slot compares on average in
/// adjacent memory. Deletion shifts the rest of the run back over the hole
/// and leaves no tombstone.
#[derive(Debug, Clone)]
struct RowTable {
    slots: Box<[Slot]>,
    /// `64 - log2(slots.len())`: the home slot is the top bits of the hash.
    shift: u32,
    len: usize,
}

impl RowTable {
    /// A table that holds `rows` rows without growing.
    fn with_capacity(rows: usize) -> Self {
        Self::with_bits(Self::bits_for(rows))
    }

    /// `log2` of the smallest array that holds `rows` rows within the load
    /// bound.
    fn bits_for(rows: usize) -> u32 {
        let mut bits = MIN_BITS;
        while Self::overfull(rows, 1 << bits) {
            bits += 1;
        }
        bits
    }

    /// An empty table of `1 << bits` slots.
    fn with_bits(bits: u32) -> Self {
        RowTable {
            slots: vec![EMPTY; 1 << bits].into_boxed_slice(),
            shift: 64 - bits,
            len: 0,
        }
    }

    /// The load bound: a table is never more than three quarters full.
    fn overfull(rows: usize, slots: usize) -> bool {
        rows > slots / 4 * 3
    }

    #[inline]
    fn home(&self, row: RowId) -> usize {
        (row.raw().wrapping_mul(SLOT_HASH) >> self.shift) as usize
    }

    /// The slot holding `row`, or else the empty slot that ends its run —
    /// where an insert would put it.
    #[inline]
    fn find(&self, row: RowId) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(row);
        loop {
            let slot = self.slots[i];
            if slot.is_empty() {
                return Err(i);
            }
            if slot.row == row {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    fn get(&self, row: RowId) -> Option<Timestamp> {
        self.find(row).ok().map(|i| self.slots[i].ts)
    }

    /// Sets `row`'s timestamp; returns whether the row is new to the table.
    #[inline]
    fn insert(&mut self, row: RowId, ts: Timestamp) -> bool {
        assert!(ts != EMPTY.ts, "Timestamp::MAX marks an empty slot");
        match self.find(row) {
            Ok(i) => {
                self.slots[i].ts = ts;
                false
            }
            Err(mut i) => {
                if Self::overfull(self.len + 1, self.slots.len()) {
                    self.grow();
                    i = self.find(row).expect_err("row was absent before growth");
                }
                self.slots[i] = Slot { row, ts };
                self.len += 1;
                true
            }
        }
    }

    /// The resident rows, in array order.
    fn occupied(&self) -> impl Iterator<Item = Slot> + '_ {
        self.slots.iter().copied().filter(|slot| !slot.is_empty())
    }

    /// Doubles the array and re-places every row.
    #[cold]
    fn grow(&mut self) {
        let mut table = Self::with_bits(64 - self.shift + 1);
        for slot in self.occupied() {
            let i = table.find(slot.row).expect_err("rows are distinct");
            table.slots[i] = slot;
            table.len += 1;
        }
        *self = table;
    }

    /// Removes `row` if present, closing the gap by backward shift: each
    /// later row of the run moves into the hole unless that would put it
    /// before its home slot, so every row stays reachable from its home
    /// with no empty slot in between.
    fn remove(&mut self, row: RowId) {
        let Ok(mut hole) = self.find(row) else {
            return;
        };
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let slot = self.slots[i];
            if slot.is_empty() {
                break;
            }
            // Distances are taken modulo the array: runs wrap its end.
            let from_home = i.wrapping_sub(self.home(slot.row)) & mask;
            let from_hole = i.wrapping_sub(hole) & mask;
            if from_home >= from_hole {
                self.slots[hole] = slot;
                hole = i;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
    }
}

/// The `lastCommit` table of Algorithms 1–3.
///
/// Unbounded ([`LastCommit::unbounded`], Algorithms 1 and 2) it is exact: a
/// hash table that doubles when three quarters full, so it holds 21–43 bytes
/// per resident row.
///
/// Bounded ([`LastCommit::bounded`], Algorithm 3) it keeps the `NR` most
/// recently *committed-to* rows. Eviction is in commit order: a FIFO of
/// `(commit_ts, row)` records is maintained alongside the hash table, with
/// lazy deletion — a queue entry is discarded if the table has since been
/// updated with a newer timestamp for that row. `T_max` is the maximum
/// commit timestamp of any entry actually evicted. The hash table is sized
/// once, for `NR + 1` rows, and never grows. The paper sizes this for 1 GB
/// of memory holding 32 M rows (≈32 bytes per entry), which at 80 K TPS and
/// 8 rows per transaction keeps the last ~50 seconds of commits resident —
/// far longer than any transaction lives, so `T_max` aborts are vanishingly
/// rare in practice (Appendix A).
///
/// An unbounded table's `T_max` is [`Timestamp::ZERO`] forever, which is
/// all that separates the two in [`LastCommit::probe`].
///
/// # Example
///
/// ```
/// use wsi_core::{LastCommit, RowId, Timestamp};
///
/// let mut t = LastCommit::bounded(2);
/// t.record(RowId(1), Timestamp(10));
/// t.record(RowId(2), Timestamp(11));
/// t.record(RowId(3), Timestamp(12)); // evicts row 1
/// assert_eq!(t.t_max(), Timestamp(10));
/// ```
#[derive(Debug, Clone)]
pub struct LastCommit {
    table: RowTable,
    /// Algorithm 3's bound; `None` for an unbounded table.
    bound: Option<Bound>,
}

/// The eviction state of a bounded [`LastCommit`].
#[derive(Debug, Clone)]
struct Bound {
    /// FIFO of (commit_ts, row) insertions, oldest first; lazily pruned.
    queue: VecDeque<(Timestamp, RowId)>,
    /// The paper's `NR`.
    capacity: usize,
    t_max: Timestamp,
}

impl LastCommit {
    /// Creates an empty exact table (Algorithms 1 and 2).
    pub fn unbounded() -> Self {
        LastCommit {
            table: RowTable::with_capacity(0),
            bound: None,
        }
    }

    /// Creates a table retaining at most `capacity` resident rows
    /// (Algorithm 3).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — the oracle needs at least one resident
    /// row to make progress.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "lastCommit capacity must be positive");
        LastCommit {
            // One row over: a fresh row is inserted before the oldest goes.
            table: RowTable::with_capacity(capacity + 1),
            bound: Some(Bound {
                queue: VecDeque::with_capacity(capacity),
                capacity,
                t_max: Timestamp::ZERO,
            }),
        }
    }

    /// The maximum commit timestamp among all evicted entries
    /// ([`Timestamp::ZERO`] if nothing has been evicted yet, and always for
    /// an unbounded table).
    #[inline]
    pub fn t_max(&self) -> Timestamp {
        self.bound.as_ref().map_or(Timestamp::ZERO, |b| b.t_max)
    }

    /// Looks up the latest commit timestamp recorded for `row`.
    #[inline]
    pub fn probe(&self, row: RowId) -> Probe {
        match (self.table.get(row), self.t_max()) {
            (Some(ts), _) => Probe::Resident(ts),
            (None, Timestamp::ZERO) => Probe::NeverWritten,
            (None, t_max) => Probe::MaybeEvicted { t_max },
        }
    }

    /// Records that `row` was modified by a transaction committing at `ts`.
    ///
    /// Timestamps passed to successive calls for the same row must be
    /// increasing (the oracle issues them from a monotonic counter while
    /// holding its critical section).
    ///
    /// Returns the number of resident rows evicted to make room (always 0
    /// for unbounded tables; 0 or 1 for bounded ones). Eviction is the event
    /// that advances `T_max` and so the event observability cares about.
    #[inline]
    pub fn record(&mut self, row: RowId, ts: Timestamp) -> usize {
        let fresh = self.table.insert(row, ts);
        let Some(bound) = &mut self.bound else {
            return 0;
        };
        bound.queue.push_back((ts, row));
        let evicted = if fresh && self.table.len > bound.capacity {
            bound.evict_one(&mut self.table)
        } else {
            0
        };
        // Bound the lazy queue: amortized compaction when it grows far past
        // the table (many re-records of hot rows).
        if bound.queue.len() > 2 * bound.capacity + 16 {
            let table = &self.table;
            bound
                .queue
                .retain(|&(qts, qrow)| table.get(qrow) == Some(qts));
        }
        evicted
    }

    /// Number of resident rows.
    pub fn len(&self) -> usize {
        self.table.len
    }

    /// Returns `true` if no rows are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for LastCommit {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl Bound {
    /// Evicts the resident row committed to longest ago from `table`,
    /// folding its timestamp into `T_max`.
    fn evict_one(&mut self, table: &mut RowTable) -> usize {
        while let Some((ts, row)) = self.queue.pop_front() {
            // Lazy deletion: only evict if this queue entry still describes
            // the row's current timestamp; otherwise a newer `record` call
            // superseded it and a newer queue entry exists for the row.
            if table.get(row) == Some(ts) {
                table.remove(row);
                if ts > self.t_max {
                    self.t_max = ts;
                }
                return 1;
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::hash_row_key;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Slots compared to find a resident row: 1 when it sits in its home.
    fn probe_len(t: &RowTable, row: RowId) -> usize {
        let at = t.find(row).expect("row is resident");
        (at.wrapping_sub(t.home(row)) & (t.slots.len() - 1)) + 1
    }

    /// Every resident row is found from its home slot (no empty slot cuts
    /// its run), `len` counts them, and the load bound holds.
    fn assert_well_formed(t: &RowTable) {
        let resident: Vec<RowId> = t.occupied().map(|slot| slot.row).collect();
        assert_eq!(resident.len(), t.len);
        assert!(!RowTable::overfull(t.len, t.slots.len()));
        for row in resident {
            assert!(t.find(row).is_ok(), "{row} is cut off from its home slot");
        }
    }

    /// `n` distinct rows whose home is `slot` in a table of `t`'s size.
    fn rows_homed_at(t: &RowTable, slot: usize, n: usize) -> Vec<RowId> {
        (0..)
            .map(RowId)
            .filter(|&r| t.home(r) == slot)
            .take(n)
            .collect()
    }

    #[test]
    fn a_run_wraps_the_array_end_and_survives_deletion_inside_it() {
        let mut t = RowTable::with_capacity(0);
        let last = t.slots.len() - 1;
        // Three rows homed at the last slot occupy it and slots 0 and 1; a
        // row homed at slot 0 is pushed behind them, to slot 2.
        let tail = rows_homed_at(&t, last, 3);
        let zero = rows_homed_at(&t, 0, 1)[0];
        for (i, &row) in tail.iter().chain([&zero]).enumerate() {
            assert!(t.insert(row, Timestamp(i as u64)));
        }
        assert_eq!(probe_len(&t, tail[2]), 3);
        assert_eq!(probe_len(&t, zero), 3);
        // Removing the first of the run shifts the rest back across the
        // array end — but never a row to before its own home.
        t.remove(tail[0]);
        assert_well_formed(&t);
        assert_eq!(t.get(tail[0]), None);
        assert_eq!(probe_len(&t, tail[1]), 1);
        assert_eq!(probe_len(&t, tail[2]), 2);
        assert_eq!(probe_len(&t, zero), 2);
        assert_eq!(t.get(zero), Some(Timestamp(3)));
        // Removing from the middle of the run keeps its tail findable.
        t.remove(tail[2]);
        assert_well_formed(&t);
        assert_eq!(probe_len(&t, zero), 1);
        assert_eq!(t.len, 2);
    }

    #[test]
    fn the_table_doubles_at_three_quarters_and_keeps_every_row() {
        let mut t = RowTable::with_capacity(0);
        assert_eq!(t.slots.len(), 8);
        for i in 0..6 {
            t.insert(RowId(i), Timestamp(i));
        }
        assert_eq!(t.slots.len(), 8, "six of eight slots is within the bound");
        t.insert(RowId(3), Timestamp(30));
        assert_eq!(t.slots.len(), 8, "a re-record adds no row");
        t.insert(RowId(6), Timestamp(6));
        assert_eq!(t.slots.len(), 16, "the seventh row doubles the table");
        assert_well_formed(&t);
        assert_eq!(t.get(RowId(3)), Some(Timestamp(30)));
        for i in [0, 1, 2, 4, 5, 6] {
            assert_eq!(t.get(RowId(i)), Some(Timestamp(i)));
        }
        // A table sized for its rows up front never grows.
        let mut sized = RowTable::with_capacity(1000);
        let slots = sized.slots.len();
        for i in 0..1000 {
            sized.insert(RowId(i), Timestamp(i));
        }
        assert_eq!(sized.slots.len(), slots);
    }

    #[test]
    fn extreme_rows_and_the_zero_timestamp_are_ordinary_entries() {
        let mut t = LastCommit::unbounded();
        // `RowId(0)` is what an empty slot's row field holds.
        assert_eq!(t.probe(RowId(0)), Probe::NeverWritten);
        t.record(RowId(0), Timestamp::ZERO);
        t.record(RowId(u64::MAX), Timestamp(7));
        assert_eq!(t.probe(RowId(0)), Probe::Resident(Timestamp::ZERO));
        assert_eq!(t.probe(RowId(u64::MAX)), Probe::Resident(Timestamp(7)));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "marks an empty slot")]
    fn the_empty_marker_cannot_be_recorded() {
        LastCommit::unbounded().record(RowId(1), Timestamp::MAX);
    }

    #[test]
    fn sequential_and_hashed_rows_spread_over_the_whole_table() {
        // A home slot that clumped either kind of id would push the mean
        // probe length into the thousands.
        let sequential = |n: u64| RowId(n);
        let hashed = |n: u64| hash_row_key(format!("user{n:012}").as_bytes());
        for (name, id) in [
            ("sequential", &sequential as &dyn Fn(u64) -> RowId),
            ("hashed", &hashed),
        ] {
            let mut t = RowTable::with_capacity(0);
            for n in 0..500_000u64 {
                t.insert(id(n), Timestamp(n));
            }
            let lens: Vec<usize> = t.occupied().map(|slot| probe_len(&t, slot.row)).collect();
            let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
            let max = lens.into_iter().max().unwrap_or(0);
            assert!(
                mean <= 2.0 && max <= 32,
                "{name} ids: mean probe {mean:.2}, longest {max}"
            );
        }
    }

    /// One step of a random table history. Rows come from a small universe
    /// so that histories re-record, collide and delete inside runs.
    #[derive(Debug, Clone)]
    enum Op {
        Record(u64, u64),
        Remove(u64),
        Probe(u64),
    }

    /// Dense small rows, the two extremes, and rows spread over all of
    /// `u64`.
    fn row() -> impl Strategy<Value = u64> {
        prop_oneof![
            6 => 0u64..48,
            1 => Just(u64::MAX),
            2 => (0u64..16).prop_map(|i| i.wrapping_mul(0x1111_1111_1111_1111)),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            5 => (row(), 0u64..1000).prop_map(|(r, ts)| Op::Record(r, ts)),
            3 => row().prop_map(Op::Remove),
            2 => row().prop_map(Op::Probe),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `RowTable` against an ordered map, through growth (8 → 64
        /// slots) and deletions.
        #[test]
        fn row_table_agrees_with_an_ordered_map(ops in prop::collection::vec(op(), 1..200)) {
            let mut table = RowTable::with_capacity(0);
            let mut model: BTreeMap<RowId, Timestamp> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Record(r, ts) => {
                        let fresh = table.insert(RowId(r), Timestamp(ts));
                        prop_assert_eq!(fresh, model.insert(RowId(r), Timestamp(ts)).is_none());
                    }
                    Op::Remove(r) => {
                        table.remove(RowId(r));
                        model.remove(&RowId(r));
                    }
                    Op::Probe(r) => {
                        prop_assert_eq!(table.get(RowId(r)), model.get(&RowId(r)).copied());
                    }
                }
                assert_well_formed(&table);
                prop_assert_eq!(table.len, model.len());
            }
            for (&row, &ts) in &model {
                prop_assert_eq!(table.get(row), Some(ts));
            }
        }

        /// A bounded `LastCommit` against Algorithm 3 stated directly: with
        /// increasing commit timestamps, the row evicted is the resident
        /// row committed to longest ago, and `T_max` is the newest
        /// timestamp evicted.
        #[test]
        fn bounded_table_evicts_the_least_recently_committed_row(
            capacity in 1usize..12,
            rows in prop::collection::vec(row(), 1..200),
        ) {
            let mut table = LastCommit::bounded(capacity);
            let mut model: BTreeMap<RowId, Timestamp> = BTreeMap::new();
            let mut t_max = Timestamp::ZERO;
            for (i, r) in rows.into_iter().enumerate() {
                let ts = Timestamp(i as u64 + 1);
                let mut evicted = 0;
                if model.insert(RowId(r), ts).is_none() && model.len() > capacity {
                    let (&oldest, &at) = model.iter().min_by_key(|(_, &ts)| ts).expect("non-empty");
                    model.remove(&oldest);
                    t_max = t_max.max(at);
                    evicted = 1;
                }
                prop_assert_eq!(table.record(RowId(r), ts), evicted);
                prop_assert_eq!(table.t_max(), t_max);
                prop_assert_eq!(table.len(), model.len());
                assert_well_formed(&table.table);
                for probe in [0, 1, 47, u64::MAX].map(RowId) {
                    let expect = match model.get(&probe) {
                        Some(&ts) => Probe::Resident(ts),
                        None if t_max == Timestamp::ZERO => Probe::NeverWritten,
                        None => Probe::MaybeEvicted { t_max },
                    };
                    prop_assert_eq!(table.probe(probe), expect);
                }
            }
        }
    }

    #[test]
    fn unbounded_probe_and_record() {
        let mut t = LastCommit::unbounded();
        assert_eq!(t.probe(RowId(1)), Probe::NeverWritten);
        t.record(RowId(1), Timestamp(5));
        assert_eq!(t.probe(RowId(1)), Probe::Resident(Timestamp(5)));
        t.record(RowId(1), Timestamp(9));
        assert_eq!(t.probe(RowId(1)), Probe::Resident(Timestamp(9)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn bounded_behaves_exactly_until_full() {
        let mut t = LastCommit::bounded(8);
        for i in 0..8 {
            t.record(RowId(i), Timestamp(i + 1));
        }
        assert_eq!(t.t_max(), Timestamp::ZERO);
        for i in 0..8 {
            assert_eq!(t.probe(RowId(i)), Probe::Resident(Timestamp(i + 1)));
        }
        assert_eq!(t.probe(RowId(99)), Probe::NeverWritten);
    }

    #[test]
    fn bounded_evicts_oldest_and_tracks_t_max() {
        let mut t = LastCommit::bounded(2);
        t.record(RowId(1), Timestamp(10));
        t.record(RowId(2), Timestamp(11));
        t.record(RowId(3), Timestamp(12));
        assert_eq!(t.len(), 2);
        assert_eq!(t.t_max(), Timestamp(10));
        assert_eq!(
            t.probe(RowId(1)),
            Probe::MaybeEvicted {
                t_max: Timestamp(10)
            }
        );
        assert_eq!(t.probe(RowId(2)), Probe::Resident(Timestamp(11)));
        // A never-written row is indistinguishable from an evicted one once
        // eviction has happened: the table must answer pessimistically.
        assert_eq!(
            t.probe(RowId(99)),
            Probe::MaybeEvicted {
                t_max: Timestamp(10)
            }
        );
    }

    #[test]
    fn rerecording_hot_row_does_not_evict_it() {
        let mut t = LastCommit::bounded(2);
        t.record(RowId(1), Timestamp(1));
        t.record(RowId(2), Timestamp(2));
        // Re-record row 1 many times; the stale queue entries must not cause
        // row 1 (the hottest row) to be evicted ahead of row 2.
        for i in 3..50 {
            t.record(RowId(1), Timestamp(i));
        }
        t.record(RowId(3), Timestamp(50)); // forces one eviction
        assert_eq!(
            t.probe(RowId(2)),
            Probe::MaybeEvicted {
                t_max: Timestamp(2)
            }
        );
        assert_eq!(t.probe(RowId(1)), Probe::Resident(Timestamp(49)));
        assert_eq!(t.probe(RowId(3)), Probe::Resident(Timestamp(50)));
    }

    #[test]
    fn queue_compaction_keeps_len_bounded() {
        let mut t = LastCommit::bounded(4);
        for i in 0..10_000u64 {
            t.record(RowId(i % 4), Timestamp(i + 1));
        }
        assert_eq!(t.len(), 4);
        let bound = t.bound.as_ref().expect("bounded");
        assert!(bound.queue.len() <= 2 * bound.capacity + 16 + 1);
        // No eviction ever needed: working set fits.
        assert_eq!(t.t_max(), Timestamp::ZERO);
    }

    #[test]
    fn t_max_is_monotonic() {
        let mut t = LastCommit::bounded(1);
        let mut prev = Timestamp::ZERO;
        for i in 1..100 {
            t.record(RowId(i), Timestamp(i));
            assert!(t.t_max() >= prev);
            prev = t.t_max();
        }
        assert_eq!(t.t_max(), Timestamp(98));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = LastCommit::bounded(0);
    }
}
