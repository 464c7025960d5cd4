//! One bounds-checked reader for every untrusted byte, and its write twin.
//!
//! A table file's header, tail and footer, the raw heads of its column blobs
//! and codec sections, a shard `MANIFEST`, and every wire payload are parsed
//! through [`Reader`]. A read never panics and never looks past the input:
//! it fails with a [`ReadError`], which this crate reports as
//! [`StorageError::Corrupt`] and the engine as its own `Corrupt`.
//!
//! The rule that keeps a crafted count from becoming a huge allocation lives
//! here once: [`Reader::count`] refuses any element count the remaining
//! bytes cannot hold, so a caller may size a `Vec` by what it returns.
//!
//! The same layouts are written through [`Writer`], implemented for
//! `Vec<u8>`: one method per field kind `Reader` reads, so a layout's
//! writer and parser are the same list of fields. Entropy-coded streams and
//! the wire BATCH's varints are not fields and are written by their codecs.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use crate::StorageError;
use std::fmt;

/// Why a [`Reader`] refused its input: it ended early, a count claimed more
/// than it holds, a string was not UTF-8, or bytes were left over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError(String);

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ReadError {}

impl From<ReadError> for StorageError {
    fn from(e: ReadError) -> Self {
        StorageError::Corrupt(e.0)
    }
}

/// A cursor over untrusted little-endian bytes. Every read checks what is
/// left first; nothing is allocated on behalf of the input except by
/// [`Reader::u64s`], after its bytes are known to be there.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The bytes not yet consumed, without consuming them.
    pub fn rest(&self) -> &'a [u8] {
        self.buf
    }

    /// Consume the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        let (head, rest) = self.buf.split_at_checked(n).ok_or_else(|| self.short(n))?;
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        let (head, rest) = self.buf.split_first_chunk::<N>().ok_or_else(|| self.short(N))?;
        self.buf = rest;
        Ok(*head)
    }

    fn short(&self, n: usize) -> ReadError {
        ReadError(format!("input truncated: {n} bytes wanted, {} left", self.buf.len()))
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ReadError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, ReadError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, ReadError> {
        let len = self.u32()?;
        std::str::from_utf8(self.take(len as usize)?)
            .map_err(|_| ReadError("invalid UTF-8 in a string".into()))
    }

    /// Check an element count `n` read from the input, whose elements take
    /// at least `min_elem_bytes` each: a count the remaining bytes cannot
    /// hold is refused, so the caller may allocate for what comes back.
    pub fn count(&self, n: u64, min_elem_bytes: usize) -> Result<usize, ReadError> {
        usize::try_from(n)
            .ok()
            .filter(|n| n.checked_mul(min_elem_bytes).is_some_and(|b| b <= self.remaining()))
            .ok_or_else(|| {
                ReadError(format!(
                    "count {n} of {min_elem_bytes}-byte elements overruns the {} bytes left",
                    self.remaining()
                ))
            })
    }

    /// Read a `u32` count, then that many little-endian `u32`s (what
    /// [`Writer::u32s`] writes).
    pub fn u32s(&mut self) -> Result<Vec<u32>, ReadError> {
        let n = self.u32()?;
        let n = self.count(n.into(), 4)?;
        let (words, _) = self.take(n * 4)?.as_chunks::<4>();
        Ok(words.iter().map(|w| u32::from_le_bytes(*w)).collect())
    }

    /// Read `n` little-endian `u64` words: one length check, then one copy.
    pub fn u64s(&mut self, n: usize) -> Result<Vec<u64>, ReadError> {
        let n = self.count(n as u64, 8)?;
        let (words, _) = self.take(n * 8)?.as_chunks::<8>();
        Ok(words.iter().map(|w| u64::from_le_bytes(*w)).collect())
    }

    /// Succeed only if every byte was consumed.
    pub fn finish(self) -> Result<(), ReadError> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(ReadError(format!("{n} trailing bytes"))),
        }
    }
}

/// Appends little-endian fields: the write twin of [`Reader`], field for
/// field.
pub trait Writer {
    /// Append one byte.
    fn u8(&mut self, v: u8);
    /// Append a little-endian `u16`.
    fn u16(&mut self, v: u16);
    /// Append a little-endian `u32`.
    fn u32(&mut self, v: u32);
    /// Append a little-endian `u64`.
    fn u64(&mut self, v: u64);
    /// Append a little-endian `i64`.
    fn i64(&mut self, v: i64);
    /// Append bytes as they are (read back with [`Reader::take`]).
    fn bytes(&mut self, b: &[u8]);
    /// Append a `u32` length, then the string's UTF-8 bytes.
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }
    /// Append a `u32` count, then each value as a little-endian `u32`.
    fn u32s(&mut self, vs: &[u32]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u32(v);
        }
    }
}

impl Writer for Vec<u8> {
    #[inline]
    fn u8(&mut self, v: u8) {
        self.push(v);
    }
    #[inline]
    fn u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn i64(&mut self, v: i64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn bytes(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_alloc;

    #[test]
    fn reads_little_endian_fields_in_order() {
        let mut bytes = vec![7u8];
        bytes.extend_from_slice(&0x0102u16.to_le_bytes());
        bytes.extend_from_slice(&0x0304_0506u32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&(-5i64).to_le_bytes());
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(b"abc");
        bytes.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.u32(), Ok(0x0304_0506));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.i64(), Ok(-5));
        assert_eq!(r.str(), Ok("abc"));
        assert_eq!(r.remaining(), 16);
        assert_eq!(r.u64s(2), Ok(vec![1, 2]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn every_read_past_the_end_is_an_error_and_consumes_nothing() {
        let bytes = [1u8, 2, 3];
        let mut r = Reader::new(&bytes);
        assert!(r.u32().is_err());
        assert!(r.u64().is_err());
        assert!(r.take(4).is_err());
        assert!(r.u64s(1).is_err());
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.u16(), Ok(0x0201));
        assert!(r.clone().finish().is_err());
        assert_eq!(r.take(1), Ok(&[3u8][..]));
        assert!(r.u8().is_err());
        let mut bad = Reader::new(&[1, 0, 0, 0, 0xff]);
        assert!(bad.str().is_err());
    }

    #[test]
    fn count_refuses_what_the_rest_cannot_hold_without_allocating() {
        let bytes = [0u8; 12];
        let r = Reader::new(&bytes);
        assert_eq!(r.count(3, 4), Ok(3));
        assert_eq!(r.count(12, 1), Ok(12));
        assert!(r.count(4, 4).is_err());
        assert!(r.count(u64::MAX, 1).is_err());
        assert!(r.count(u64::MAX / 2, 2).is_err());
        test_alloc::reset_largest();
        assert!(Reader::new(&bytes).u64s(usize::MAX / 8 + 1).is_err());
        assert!(Reader::new(&bytes).u64s(2).is_err());
        assert!(test_alloc::largest() <= 1024, "{} bytes", test_alloc::largest());
    }

    /// One field of each kind the [`Writer`] writes.
    #[derive(Debug, Clone, PartialEq)]
    enum Field {
        U8(u8),
        U16(u16),
        U32(u32),
        U64(u64),
        I64(i64),
        Str(String),
        Bytes(Vec<u8>),
        U32s(Vec<u32>),
    }

    impl Field {
        fn write(&self, w: &mut Vec<u8>) {
            match self {
                Field::U8(v) => w.u8(*v),
                Field::U16(v) => w.u16(*v),
                Field::U32(v) => w.u32(*v),
                Field::U64(v) => w.u64(*v),
                Field::I64(v) => w.i64(*v),
                Field::Str(s) => w.str(s),
                Field::Bytes(b) => w.bytes(b),
                Field::U32s(vs) => w.u32s(vs),
            }
        }

        /// Read a field of this one's kind (a `Bytes` knows its length).
        fn read_like(&self, r: &mut Reader) -> Result<Field, ReadError> {
            Ok(match self {
                Field::U8(_) => Field::U8(r.u8()?),
                Field::U16(_) => Field::U16(r.u16()?),
                Field::U32(_) => Field::U32(r.u32()?),
                Field::U64(_) => Field::U64(r.u64()?),
                Field::I64(_) => Field::I64(r.i64()?),
                Field::Str(_) => Field::Str(r.str()?.to_string()),
                Field::Bytes(b) => Field::Bytes(r.take(b.len())?.to_vec()),
                Field::U32s(_) => Field::U32s(r.u32s()?),
            })
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn field() -> impl Strategy<Value = Field> {
            prop_oneof![
                any::<u8>().prop_map(Field::U8),
                (0..=u16::MAX).prop_map(Field::U16),
                (0..=u32::MAX).prop_map(Field::U32),
                any::<u64>().prop_map(Field::U64),
                (i64::MIN..=i64::MAX).prop_map(Field::I64),
                "[a-z0-9 éß€]{0,12}".prop_map(Field::Str),
                proptest::collection::vec(any::<u8>(), 0..24).prop_map(Field::Bytes),
                proptest::collection::vec(0..=u32::MAX, 0..24).prop_map(Field::U32s),
            ]
        }

        proptest! {
            #[test]
            fn prop_written_fields_read_back_in_order(
                fields in proptest::collection::vec(field(), 0..16),
            ) {
                let mut bytes = Vec::new();
                for f in &fields {
                    f.write(&mut bytes);
                }
                let mut r = Reader::new(&bytes);
                for f in &fields {
                    prop_assert_eq!(f.read_like(&mut r), Ok(f.clone()));
                }
                prop_assert_eq!(r.finish(), Ok(()));
            }

            #[test]
            fn prop_a_raised_u32s_count_is_refused_before_allocating(
                vs in proptest::collection::vec(0..=u32::MAX, 256..1024),
            ) {
                let mut bytes = Vec::new();
                bytes.u32(vs.len() as u32 + 1);
                for &v in &vs {
                    bytes.u32(v);
                }
                test_alloc::reset_largest();
                let outcome = Reader::new(&bytes).u32s();
                // Honouring the count would take over 1 KiB.
                let largest = test_alloc::largest();
                prop_assert!(largest <= 1024, "{} bytes", largest);
                let refused = matches!(&outcome, Err(e) if e.to_string().contains("overruns"));
                prop_assert!(refused, "{:?}", outcome);
            }
        }
    }
}
