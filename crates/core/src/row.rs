//! Row identifiers.
//!
//! The status oracle works on fixed-size *row identifiers*, not raw keys
//! (§2.2: "the list of identifiers of modified rows is submitted to a
//! centralized status oracle"). Clients hash their byte-string row keys down
//! to 64 bits before submitting them. A hash collision can only merge two
//! distinct rows into one identifier, which makes conflict detection *more*
//! conservative — a spurious abort at worst, never an isolation violation —
//! so 64-bit identifiers are safe at any realistic table size.

use std::fmt;

/// A 64-bit row identifier as used by the status oracle.
///
/// For synthetic workloads (YCSB-style) the identifier is simply the row
/// number. For byte-string keys use [`hash_row_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RowId(pub u64);

impl RowId {
    /// Returns the raw 64-bit identifier.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row:{}", self.0)
    }
}

impl From<u64> for RowId {
    fn from(raw: u64) -> Self {
        RowId(raw)
    }
}

/// Hashes an arbitrary byte-string row key to a [`RowId`].
///
/// Uses the FNV-1a construction: deterministic across processes and runs
/// (unlike `std`'s randomly-seeded `DefaultHasher`), cheap, and with good
/// avalanche behaviour on short keys. Determinism matters because the
/// embedded store persists conflict-relevant state through the WAL and must
/// map keys to the same identifiers after recovery in a fresh process.
///
/// # Example
///
/// ```
/// use wsi_core::hash_row_key;
///
/// let a = hash_row_key(b"account/alice");
/// let b = hash_row_key(b"account/bob");
/// assert_ne!(a, b);
/// assert_eq!(a, hash_row_key(b"account/alice"));
/// ```
pub fn hash_row_key(key: &[u8]) -> RowId {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    RowId(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash_row_key(b"row-17"), hash_row_key(b"row-17"));
    }

    #[test]
    fn hash_distinguishes_nearby_keys() {
        let ids: HashSet<RowId> = (0..10_000u64)
            .map(|i| hash_row_key(format!("user{i}").as_bytes()))
            .collect();
        assert_eq!(ids.len(), 10_000, "no collisions expected at this scale");
    }

    #[test]
    fn empty_key_hashes_to_offset_basis() {
        assert_eq!(hash_row_key(b""), RowId(0xcbf2_9ce4_8422_2325));
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(RowId(3).to_string(), "row:3");
    }
}
