//! Offline stand-in for the `bytes` crate (see `stubs/README.md`).
//!
//! [`Bytes`] is a cheaply cloneable, immutable byte buffer: an `Arc<[u8]>`
//! plus a sub-range, so `clone` and [`Bytes::slice`] are O(1) refcount
//! bumps — the property the store's version chains and the WAL's payload
//! buffers rely on. [`BytesMut`] is a thin `Vec<u8>` builder that freezes
//! into a `Bytes`.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable immutable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wraps a static byte slice without copying.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        // One copy into the Arc; `bytes` keeps 'static semantics either way.
        Bytes::copy_from_slice(bytes)
    }

    /// Copies `bytes` into a new buffer.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        let data: Arc<[u8]> = Arc::from(bytes);
        Bytes {
            start: 0,
            end: data.len(),
            data,
        }
    }

    /// Wraps `owner`'s bytes, keeping it alive as long as the buffer. An
    /// `Arc<[u8]>` owner becomes the backing allocation without a copy;
    /// any other owner is copied once.
    pub fn from_owner<T: AsRef<[u8]> + Send + 'static>(owner: T) -> Self {
        let mut owner = Some(owner);
        let data: Arc<[u8]> =
            match (&mut owner as &mut dyn std::any::Any).downcast_mut::<Option<Arc<[u8]>>>() {
                Some(shared) => shared.take().expect("the owner is taken once"),
                None => Arc::from(owner.as_ref().expect("the owner is still here").as_ref()),
            };
        Bytes {
            start: 0,
            end: data.len(),
            data,
        }
    }

    /// Bytes in the buffer.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-buffer sharing the same backing allocation (O(1)).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "slice {start}..{end} out of bounds for Bytes of length {}",
            self.len()
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + start,
            end: self.start + end,
        }
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let data: Arc<[u8]> = Arc::from(v);
        Bytes {
            start: 0,
            end: data.len(),
            data,
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_ref() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<str> for Bytes {
    fn eq(&self, other: &str) -> bool {
        self.as_ref() == other.as_bytes()
    }
}

impl PartialEq<&str> for Bytes {
    fn eq(&self, other: &&str) -> bool {
        self.as_ref() == other.as_bytes()
    }
}

impl PartialEq<Bytes> for str {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_bytes() == other.as_ref()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl std::iter::FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty builder with `capacity` bytes pre-reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

/// The write half of the `bytes` buffer traits — the subset the WAL's
/// record encoder uses.
pub trait BufMut {
    /// Appends a byte slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian u32.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a big-endian u32.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian u64.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_allocation() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(s.as_ref(), &[2, 3, 4]);
        assert_eq!(s.len(), 3);
        let s2 = s.slice(1..);
        assert_eq!(s2.as_ref(), &[3, 4]);
    }

    #[test]
    fn from_owner_adopts_an_arc_without_copying() {
        let shared: Arc<[u8]> = Arc::from(&b"key"[..]);
        let b = Bytes::from_owner(Arc::clone(&shared));
        assert_eq!(b.as_ref(), b"key");
        assert_eq!(Arc::strong_count(&shared), 2, "the buffer holds the Arc");
        assert_eq!(Bytes::from_owner(vec![1u8, 2]).as_ref(), &[1, 2]);
    }

    #[test]
    fn builder_roundtrip() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(7);
        m.put_u32_le(0x0403_0201);
        m.put_u64_le(1);
        m.put_slice(b"xy");
        let b = m.freeze();
        assert_eq!(b.len(), 15);
        assert_eq!(&b[..5], &[7, 1, 2, 3, 4]);
        assert_eq!(&b[13..], b"xy");
    }

    #[test]
    fn ordering_and_equality_compare_contents() {
        let a = Bytes::from_static(b"abc");
        let b = Bytes::from(vec![b'a', b'b', b'c']);
        assert_eq!(a, b);
        assert!(Bytes::from_static(b"abd") > a);
        let mut map = std::collections::BTreeMap::new();
        map.insert(a.clone(), 1);
        assert_eq!(map.range(Bytes::from_static(b"a")..).count(), 1);
    }
}
