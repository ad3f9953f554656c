//! Minimal cheap-clone byte buffers for shuffle payloads.
//!
//! The workspace builds offline with no external crates, so this module
//! provides the small slice of the `bytes` crate API the data path needs:
//! [`Bytes`] (an immutable, reference-counted view of a byte range) and
//! [`BytesMut`] (a growable write buffer that freezes into [`Bytes`]).
//! Clones of a `Bytes` share one allocation, which is what makes the
//! Cache Worker's peek-and-re-serve recovery path cheap.
//!
//! A `Bytes` made from a `Vec<u8>` keeps that vector's allocation:
//! `Bytes::from(Vec)` and [`BytesMut::freeze`] move the vector behind an
//! `Arc` and copy no byte. An encoded shuffle payload and a payload read
//! back from the spill log therefore each live in the one buffer they
//! were written into.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Backing storage of a [`Bytes`]: either a reference-counted vector
/// (clones bump the refcount) or a borrowed `'static` slice (clones copy
/// the pointer; nothing is ever allocated or freed).
#[derive(Clone)]
enum Repr {
    Shared(Arc<Vec<u8>>),
    Static(&'static [u8]),
}

impl Repr {
    #[inline]
    fn as_slice(&self) -> &[u8] {
        match self {
            Repr::Shared(a) => a,
            Repr::Static(s) => s,
        }
    }
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Static(&[])
    }
}

/// An immutable, cheaply clonable view of a byte range.
///
/// `Deref<[u8]>` exposes the range; [`Bytes::slice`] narrows it without a
/// copy. Equality and hashing consider only the bytes in view, matching
/// the upstream `bytes::Bytes` semantics.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Repr,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wraps a static byte slice with no copy and no allocation: the
    /// buffer borrows the slice for `'static`, and clones/sub-slices
    /// share it the same way refcounted buffers do.
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes {
            data: Repr::Static(data),
            start: 0,
            end: data.len(),
        }
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes in view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether no bytes are in view.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Copies the bytes in view into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }

    /// Returns a sub-view over `range` of the bytes in view (sharing the
    /// same allocation).
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice out of bounds"
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data.as_slice()[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes the vector's allocation; no byte is copied.
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Repr::Shared(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::from(v.to_vec())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

/// A growable write buffer; freeze into [`Bytes`] when done.
#[derive(Clone, Debug, Default)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
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

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32_le(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64_le(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    pub fn put_f64_le(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a byte slice.
    pub fn put_slice(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_all_widths() {
        let mut w = BytesMut::with_capacity(64);
        w.put_u8(7);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_i64_le(-42);
        w.put_f64_le(1.25);
        w.put_slice(b"tail");
        let b = w.freeze();
        let mut want = vec![7];
        want.extend(0xDEAD_BEEFu32.to_le_bytes());
        want.extend((-42i64).to_le_bytes());
        want.extend(1.25f64.to_le_bytes());
        want.extend(b"tail");
        assert_eq!(b, want);
        assert_eq!(b.slice(21..25), Bytes::from_static(b"tail"));
    }

    #[test]
    fn clones_and_slices_share_storage() {
        let a = Bytes::from(vec![1, 2, 3, 4]);
        let b = a.slice(1..4);
        assert!(std::ptr::eq(&a[1], &b[0]), "a slice shares the allocation");
        assert_eq!(a.len(), 4);
        assert_ne!(a, b, "equality is over the bytes in view");
        assert_eq!(b, a.clone().slice(1..4));
    }

    #[test]
    fn from_vec_and_freeze_keep_the_allocation() {
        let v = vec![9u8; 1000];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert!(std::ptr::eq(ptr, b.as_ptr()), "Bytes::from(Vec) copied");
        let mut w = BytesMut::with_capacity(4);
        w.put_u32_le(7);
        let ptr = w.buf.as_ptr();
        assert!(std::ptr::eq(ptr, w.freeze().as_ptr()), "freeze copied");
    }

    #[test]
    fn equality_and_indexing() {
        let a = Bytes::from_static(b"abc");
        let b = Bytes::from(b"abc".to_vec());
        assert_eq!(a, b);
        assert_eq!(a[0], b'a');
        assert_eq!(a.to_vec(), b"abc");
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slicing_past_the_end_panics() {
        Bytes::from(vec![1]).slice(0..4);
    }

    #[test]
    fn static_buffers_borrow_not_copy() {
        static DATA: [u8; 5] = *b"hello";
        let a = Bytes::from_static(&DATA);
        let b = a.slice(1..4);
        assert_eq!(&b[..], b"ell");
        assert!(
            std::ptr::eq(&a[0], &DATA[0]),
            "from_static must expose the static storage itself"
        );
        assert!(std::ptr::eq(&b[0], &DATA[1]), "slices share it too");
    }
}
