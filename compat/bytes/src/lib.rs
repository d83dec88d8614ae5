//! Minimal in-tree substitute for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small slice of the `bytes` API it actually uses: a
//! cheaply-clonable immutable byte buffer ([`Bytes`]), a growable encode
//! buffer ([`BytesMut`]), and the little-endian cursor traits
//! ([`Buf`]/[`BufMut`]) the wire codec relies on. Semantics match the
//! real crate for this subset; anything else is intentionally absent.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply clonable, immutable, contiguous slice of memory.
///
/// The buffer is a `Vec` behind an `Arc`, so [`Bytes::from`] a `Vec`
/// takes the vector over without copying it, as the real crate does.
#[derive(Clone, Default)]
pub struct Bytes(Arc<Vec<u8>>);

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// A buffer borrowing nothing: copies the static slice once.
    pub fn from_static(slice: &'static [u8]) -> Self {
        Bytes::copy_from_slice(slice)
    }

    /// Copies `data` into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes(Arc::new(data.to_vec()))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The contents as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Copies the contents into a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

/// The real crate's form: a `b"..."` byte-string literal, with `\n`,
/// `\r`, `\t`, `\0`, `\\` and `\"` escaped, other printable ASCII as
/// itself, and every other byte as `\xNN`.
impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("b\"")?;
        for &b in self.as_slice() {
            match b {
                b'\n' => f.write_str("\\n")?,
                b'\r' => f.write_str("\\r")?,
                b'\t' => f.write_str("\\t")?,
                b'\0' => f.write_str("\\0")?,
                b'\\' | b'"' => write!(f, "\\{}", char::from(b))?,
                0x20..=0x7e => write!(f, "{}", char::from(b))?,
                _ => write!(f, "\\x{b:02x}")?,
            }
        }
        f.write_str("\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self.0[..] == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        &self.0[..] == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &self.0[..] == other.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(Arc::new(v))
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(s: &'static [u8; N]) -> Self {
        Bytes::from_static(s)
    }
}

/// Takes the vector back without copying when no clone shares it.
impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        Arc::try_unwrap(b.0).unwrap_or_else(|shared| shared.to_vec())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

/// A growable byte buffer used on the encode path.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut(Vec::new())
    }

    /// An empty buffer with `cap` bytes pre-allocated.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut(Vec::with_capacity(cap))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.0.extend_from_slice(data);
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(b: BytesMut) -> Vec<u8> {
        b.0
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(v: Vec<u8>) -> BytesMut {
        BytesMut(v)
    }
}

/// Little-endian write access, as used by the wire encoder.
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a `u32`, little-endian.
    fn put_u32_le(&mut self, v: u32);
    /// Appends an `i32`, little-endian.
    fn put_i32_le(&mut self, v: i32);
    /// Appends a `u64`, little-endian.
    fn put_u64_le(&mut self, v: u64);
    /// Appends a slice verbatim.
    fn put_slice(&mut self, data: &[u8]);
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn put_u32_le(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn put_i32_le(&mut self, v: i32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64_le(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn put_slice(&mut self, data: &[u8]) {
        self.0.extend_from_slice(data);
    }
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_i32_le(&mut self, v: i32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_slice(&mut self, data: &[u8]) {
        self.extend_from_slice(data);
    }
}

/// Little-endian read access over an advancing slice, as used by the
/// wire decoder. Reads panic when the slice is too short — callers
/// bounds-check first, exactly like the real crate.
pub trait Buf {
    /// Reads one byte and advances.
    fn get_u8(&mut self) -> u8;
    /// Reads a little-endian `u32` and advances.
    fn get_u32_le(&mut self) -> u32;
    /// Reads a little-endian `i32` and advances.
    fn get_i32_le(&mut self) -> i32;
    /// Reads a little-endian `u64` and advances.
    fn get_u64_le(&mut self) -> u64;
    /// Bytes left to read.
    fn remaining(&self) -> usize;
}

impl Buf for &[u8] {
    fn get_u8(&mut self) -> u8 {
        let v = self[0];
        *self = &self[1..];
        v
    }
    fn get_u32_le(&mut self) -> u32 {
        let (head, rest) = self.split_at(4);
        *self = rest;
        u32::from_le_bytes(head.try_into().expect("4 bytes"))
    }
    fn get_i32_le(&mut self) -> i32 {
        let (head, rest) = self.split_at(4);
        *self = rest;
        i32::from_le_bytes(head.try_into().expect("4 bytes"))
    }
    fn get_u64_le(&mut self) -> u64 {
        let (head, rest) = self.split_at(8);
        *self = rest;
        u64::from_le_bytes(head.try_into().expect("8 bytes"))
    }
    fn remaining(&self) -> usize {
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_le_integers() {
        let mut buf = BytesMut::with_capacity(32);
        buf.put_u8(7);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_i32_le(-5);
        buf.put_u64_le(u64::MAX - 1);
        buf.put_slice(b"xyz");
        let mut r: &[u8] = &buf;
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_i32_le(), -5);
        assert_eq!(r.get_u64_le(), u64::MAX - 1);
        assert_eq!(r, b"xyz");
    }

    #[test]
    fn from_vec_keeps_the_allocation() {
        let v = vec![7u8; 1024];
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at);
        let shared = b.clone();
        assert_eq!(shared.as_ptr(), at);
        // Shared: converting back copies; sole owner: it does not.
        let copied = Vec::from(shared);
        assert_ne!(copied.as_ptr(), at);
        let owned = Vec::from(b);
        assert_eq!(owned.as_ptr(), at);
    }

    #[test]
    fn debug_is_an_escaped_byte_string() {
        let b = Bytes::from_static(b"file0\n\0\t\r\"q\\ ~\x7f\x80\xff\x01");
        assert_eq!(
            format!("{b:?}"),
            r#"b"file0\n\0\t\r\"q\\ ~\x7f\x80\xff\x01""#
        );
        assert_eq!(format!("{:?}", Bytes::new()), r#"b"""#);
    }

    #[test]
    fn bytes_equality_and_clone_share_storage() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a, vec![1u8, 2, 3]);
        assert_eq!(&a[..], &[1, 2, 3]);
        assert_eq!(Bytes::from_static(b"hi").to_vec(), b"hi".to_vec());
    }
}
