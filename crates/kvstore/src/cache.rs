//! LRU row cache.
//!
//! HBase serves reads from an in-heap row cache; a miss loads an entire
//! HFile row from HDFS — the source of the paper's 38.8 ms random-read
//! latency, "the cost of loading an entire row from HDFS" (§6.2). The
//! model caches rows, not blocks (see [`crate::ServerConfig::paper_default`]),
//! so zipfian hot rows stay resident: every key here is a row identifier.

use std::collections::HashMap;

/// An LRU set of row identifiers with O(log n) operations.
///
/// Recency is tracked with a logical clock: `last_used` per row plus an
/// ordered index from `(last_used, row)` for eviction.
#[derive(Debug, Clone)]
pub struct RowCache {
    capacity: usize,
    clock: u64,
    last_used: HashMap<u64, u64>,
    by_age: std::collections::BTreeSet<(u64, u64)>,
    hits: u64,
    misses: u64,
}

impl RowCache {
    /// Creates a cache holding at most `capacity` rows.
    ///
    /// A zero capacity is allowed and models a cacheless server (every read
    /// misses).
    pub fn new(capacity: usize) -> Self {
        RowCache {
            capacity,
            clock: 0,
            last_used: HashMap::new(),
            by_age: std::collections::BTreeSet::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Touches `row`, returning `true` on a hit. On a miss the row is
    /// admitted (evicting the least recently used if full).
    pub fn access(&mut self, row: u64) -> bool {
        self.clock += 1;
        if let Some(&prev) = self.last_used.get(&row) {
            self.by_age.remove(&(prev, row));
            self.by_age.insert((self.clock, row));
            self.last_used.insert(row, self.clock);
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.capacity == 0 {
            return false;
        }
        if self.last_used.len() >= self.capacity {
            if let Some(&(age, victim)) = self.by_age.iter().next() {
                self.by_age.remove(&(age, victim));
                self.last_used.remove(&victim);
            }
        }
        self.last_used.insert(row, self.clock);
        self.by_age.insert((self.clock, row));
        false
    }

    /// Admits `row` without counting a hit or miss — used to pre-warm the
    /// cache to its steady-state contents before measurement starts.
    pub fn warm(&mut self, row: u64) {
        if self.capacity == 0 || self.last_used.contains_key(&row) {
            return;
        }
        self.clock += 1;
        if self.last_used.len() >= self.capacity {
            if let Some(&(age, victim)) = self.by_age.iter().next() {
                self.by_age.remove(&(age, victim));
                self.last_used.remove(&victim);
            }
        }
        self.last_used.insert(row, self.clock);
        self.by_age.insert((self.clock, row));
    }

    /// Rows currently resident.
    pub fn len(&self) -> usize {
        self.last_used.len()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.last_used.is_empty()
    }

    /// Lifetime hit rate (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_admit() {
        let mut c = RowCache::new(2);
        assert!(!c.access(1));
        assert!(c.access(1));
        assert_eq!((c.hits, c.misses), (1, 1));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = RowCache::new(2);
        c.access(1);
        c.access(2);
        c.access(1); // 2 is now LRU
        c.access(3); // evicts 2
        assert!(c.access(1));
        assert!(!c.access(2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn warm_admits_without_counting() {
        let mut c = RowCache::new(4);
        c.warm(1);
        c.warm(1); // idempotent
        assert_eq!((c.hits, c.misses), (0, 0));
        assert!(c.access(1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut c = RowCache::new(0);
        assert!(!c.access(1));
        assert!(!c.access(1));
        assert!(c.is_empty());
    }

    #[test]
    fn skewed_access_gets_high_hit_rate() {
        // 90% of accesses to 10 hot rows, cache of 16: hot set stays
        // resident despite a cold scan mixing in.
        let mut c = RowCache::new(16);
        let mut cold = 1000u64;
        for i in 0..10_000u64 {
            if i % 10 == 9 {
                cold += 1;
                c.access(cold);
            } else {
                c.access(i % 10);
            }
        }
        assert!(c.hit_rate() > 0.85, "hit rate {}", c.hit_rate());
    }
}
