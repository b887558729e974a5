//! Refcounted file payloads for the zero-copy fetch/store path.
//!
//! Whole-file contents used to travel the system as `Vec<u8>`, cloned at
//! every hop: per encode, per retry attempt, per cache insert, per open.
//! [`Payload`] wraps the bytes in an `Arc` so every hop after the first is
//! a refcount bump, and a slice window (`off`/`len`) makes sub-views free.
//! No external dependencies: the type is a thin shim over an `Arc` of the
//! owned `Vec` (constructing from an owned `Vec` moves the allocation;
//! `Arc<[u8]>` would copy it).
//!
//! The shared allocation also memoizes the buffer's [`payload_digest`]:
//! the bytes are immutable while shared, so the codec's encode and decode
//! checks and the volume's Merkle leaf all reuse one pass over them. The
//! memo covers full views only and is cleared by [`Payload::make_mut`], the
//! one way to change the bytes, so it can never disagree with them.
//!
//! The module also keeps thread-local counts of every byte genuinely
//! copied through payload APIs — the quantity the PR 3 benchmark harness
//! and the zero-copy regression tests assert on — and of every byte fed
//! to [`payload_digest`]. Copies made outside this module at the two
//! unavoidable boundaries (server file system, caller hand-off) are
//! reported via [`note_copy`].

use std::cell::Cell;
use std::sync::{Arc, OnceLock};

thread_local! {
    static BYTES_COPIED: Cell<u64> = const { Cell::new(0) };
    static BYTES_DIGESTED: Cell<u64> = const { Cell::new(0) };
}

/// Records `n` payload bytes copied (used by [`Payload`] internals and by
/// the server/file-system boundary, where a copy is inherent).
pub fn note_copy(n: usize) {
    BYTES_COPIED.with(|c| c.set(c.get() + n as u64));
}

/// Total payload bytes copied on this thread since the last reset.
pub fn bytes_copied() -> u64 {
    BYTES_COPIED.with(Cell::get)
}

/// Resets the thread's copied-bytes counter and returns the old value.
pub fn reset_bytes_copied() -> u64 {
    BYTES_COPIED.with(|c| c.replace(0))
}

/// Total bytes hashed by [`payload_digest`] on this thread since the last
/// reset.
pub fn bytes_digested() -> u64 {
    BYTES_DIGESTED.with(Cell::get)
}

/// Resets the thread's digested-bytes counter and returns the old value.
pub fn reset_bytes_digested() -> u64 {
    BYTES_DIGESTED.with(|c| c.replace(0))
}

/// The shared allocation: the bytes plus their memoized digest.
#[derive(Default)]
struct Buf {
    bytes: Vec<u8>,
    digest: OnceLock<u64>,
}

/// An immutable, refcounted byte buffer with a slice window. Cloning is
/// O(1); slicing shares the underlying allocation.
#[derive(Clone, Default)]
pub struct Payload {
    buf: Arc<Buf>,
    off: usize,
    len: usize,
}

impl Payload {
    /// An empty payload (no allocation shared, nothing copied).
    pub fn empty() -> Payload {
        Payload::default()
    }

    /// Wraps an owned buffer without copying it.
    pub fn from_vec(v: Vec<u8>) -> Payload {
        let len = v.len();
        Payload {
            buf: Arc::new(Buf {
                bytes: v,
                digest: OnceLock::new(),
            }),
            off: 0,
            len,
        }
    }

    /// Copies a borrowed slice into a fresh payload (counted).
    pub fn from_slice(s: &[u8]) -> Payload {
        note_copy(s.len());
        Payload::from_vec(s.to_vec())
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf.bytes[self.off..self.off + self.len]
    }

    /// True when the view covers the whole shared buffer.
    fn is_whole(&self) -> bool {
        self.off == 0 && self.len == self.buf.bytes.len()
    }

    /// [`payload_digest`] of the viewed bytes. A full view hashes the
    /// shared buffer at most once across all its clones; a slice hashes
    /// its own bytes on every call.
    pub fn digest(&self) -> u64 {
        if self.is_whole() {
            *self
                .buf
                .digest
                .get_or_init(|| payload_digest(&self.buf.bytes))
        } else {
            payload_digest(self.as_slice())
        }
    }

    /// Length of the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-view sharing the same allocation (no copy).
    ///
    /// # Panics
    /// Panics if the range exceeds the current view.
    pub fn slice(&self, start: usize, end: usize) -> Payload {
        assert!(start <= end && end <= self.len, "slice out of range");
        Payload {
            buf: Arc::clone(&self.buf),
            off: self.off + start,
            len: end - start,
        }
    }

    /// Copies the view out into an owned `Vec` (counted).
    pub fn to_vec(&self) -> Vec<u8> {
        note_copy(self.len);
        self.as_slice().to_vec()
    }

    /// Converts into an owned `Vec`, free when this is the only reference
    /// to a full-view buffer, a counted copy otherwise.
    pub fn into_vec(self) -> Vec<u8> {
        if self.is_whole() {
            match Arc::try_unwrap(self.buf) {
                Ok(buf) => return buf.bytes,
                Err(buf) => {
                    note_copy(self.len);
                    return buf.bytes.clone();
                }
            }
        }
        self.to_vec()
    }

    /// Mutable access for in-place edits (append under an open handle).
    /// Free when this payload is the sole, full-view owner; otherwise the
    /// buffer is copied out first (counted). Either way the digest memo is
    /// cleared: the caller is about to change the bytes.
    pub fn make_mut(&mut self) -> &mut Vec<u8> {
        if !self.is_whole() || Arc::get_mut(&mut self.buf).is_none() {
            note_copy(self.len);
            *self = Payload::from_vec(self.as_slice().to_vec());
        }
        let buf = Arc::get_mut(&mut self.buf).expect("uniquely owned after copy-out");
        buf.digest.take();
        self.len = buf.bytes.len();
        &mut buf.bytes
    }

    /// Runs `f` on the owned buffer and refreshes the view length.
    pub fn edit(&mut self, f: impl FnOnce(&mut Vec<u8>)) {
        let v = self.make_mut();
        f(v);
        self.len = v.len();
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Contents are file bodies; print the size, not megabytes of hex.
        write!(f, "Payload({} bytes)", self.len)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::from_vec(v)
    }
}

impl From<&[u8]> for Payload {
    fn from(s: &[u8]) -> Payload {
        Payload::from_slice(s)
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(s: &[u8; N]) -> Payload {
        Payload::from_slice(s)
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// FNV-1a 64 over the payload bytes. The sealed message head carries this
/// digest so the out-of-band bulk payload (the simulation's analogue of an
/// RPC2 side-effect bulk transfer) is integrity-bound to the authenticated
/// channel: tampering with the rider is detected at decode.
pub fn payload_digest(bytes: &[u8]) -> u64 {
    BYTES_DIGESTED.with(|c| c.set(c.get() + bytes.len() as u64));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_does_not_count_a_copy() {
        reset_bytes_copied();
        let p = Payload::from_vec(vec![1, 2, 3]);
        assert_eq!(bytes_copied(), 0);
        assert_eq!(p.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn clone_and_slice_are_free() {
        let p = Payload::from_vec((0..100).collect());
        reset_bytes_copied();
        let q = p.clone();
        let r = q.slice(10, 20);
        assert_eq!(bytes_copied(), 0);
        assert_eq!(r.len(), 10);
        assert_eq!(r.as_slice(), &p.as_slice()[10..20]);
    }

    #[test]
    fn to_vec_and_from_slice_are_counted() {
        reset_bytes_copied();
        let p = Payload::from_slice(&[0u8; 64]);
        assert_eq!(bytes_copied(), 64);
        let _ = p.to_vec();
        assert_eq!(bytes_copied(), 128);
    }

    #[test]
    fn into_vec_is_free_for_sole_owner() {
        let p = Payload::from_vec(vec![7; 32]);
        reset_bytes_copied();
        let v = p.into_vec();
        assert_eq!(bytes_copied(), 0);
        assert_eq!(v, vec![7; 32]);

        let p = Payload::from_vec(vec![7; 32]);
        let _held = p.clone();
        let v = p.into_vec();
        assert_eq!(bytes_copied(), 32); // shared: must copy out
        assert_eq!(v, vec![7; 32]);
    }

    #[test]
    fn make_mut_edits_in_place_when_unique() {
        let mut p = Payload::from_vec(vec![1, 2]);
        reset_bytes_copied();
        p.edit(|v| v.push(3));
        assert_eq!(bytes_copied(), 0);
        assert_eq!(p.as_slice(), &[1, 2, 3]);

        let shared = p.clone();
        p.edit(|v| v.push(4));
        assert_eq!(bytes_copied(), 3); // copy-on-write of the 3 shared bytes
        assert_eq!(p.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(shared.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn equality_by_bytes() {
        let a = Payload::from_vec(vec![1, 2, 3]);
        let b = Payload::from_vec(vec![0, 1, 2, 3]).slice(1, 4);
        assert_eq!(a, b);
        assert_eq!(a, vec![1, 2, 3]);
        assert_eq!(a, b"\x01\x02\x03");
        assert_ne!(a, Payload::empty());
    }

    #[test]
    fn memoized_digest_equals_payload_digest() {
        let check = |p: &Payload| assert_eq!(p.digest(), payload_digest(p.as_slice()), "{p:?}");
        check(&Payload::empty());
        let full = Payload::from_vec((0..=255).collect());
        check(&full);
        check(&full.slice(3, 200));
        check(&full.slice(7, 7));

        // Edited in place (unique owner) after the memo was filled.
        let mut unique = Payload::from_vec(vec![1, 2, 3]);
        check(&unique);
        unique.edit(|v| v.push(4));
        check(&unique);
        assert_eq!(unique.digest(), payload_digest(&[1, 2, 3, 4]));

        // Edited copy-on-write while a clone shares the memoized buffer:
        // the edited copy gets a fresh memo, the clone keeps the old one.
        let shared = unique.clone();
        unique.edit(|v| v[0] = 9);
        check(&unique);
        check(&shared);
        assert_ne!(unique.digest(), shared.digest());

        // An edited slice is copied out into a full view of its own.
        let mut sliced = full.slice(10, 20);
        sliced.edit(|v| v.push(0));
        check(&sliced);

        // Round-trip through an owned Vec, both free and copied.
        let back = Payload::from_vec(Payload::from_vec(vec![5; 64]).into_vec());
        check(&back);
        let held = back.clone();
        check(&Payload::from_vec(back.into_vec()));
        check(&held);
    }

    #[test]
    fn clones_share_one_digest_pass() {
        let p = Payload::from_vec(vec![3; 1000]);
        let clones: Vec<Payload> = (0..5).map(|_| p.clone()).collect();
        reset_bytes_digested();
        let d = p.digest();
        for c in &clones {
            assert_eq!(c.digest(), d);
        }
        assert_eq!(p.digest(), d);
        assert_eq!(bytes_digested(), 1000);

        // Slices do not memoize: each call hashes the slice's own bytes.
        reset_bytes_digested();
        let s = p.slice(0, 100);
        s.digest();
        s.digest();
        assert_eq!(bytes_digested(), 200);
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        assert_eq!(payload_digest(b"abc"), payload_digest(b"abc"));
        assert_ne!(payload_digest(b"abc"), payload_digest(b"abd"));
        assert_ne!(payload_digest(b""), payload_digest(b"\0"));
    }
}
