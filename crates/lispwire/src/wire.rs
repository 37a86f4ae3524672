//! The one big-endian writer every encoder in this crate writes through,
//! and the bounds-checked reader its decoders read with.
//!
//! Encoding is the product direction: a [`Writer`] appends each layer
//! into one buffer and back-patches length and checksum fields once the
//! layer's body is in place, so a LISP-encapsulated packet is a single
//! allocation. Decoding exists only as the test oracle of `encode`
//! (`Packet::decode`); a [`Reader`] turns every short read into
//! [`WireError::Truncated`] instead of a panic.

use crate::error::{WireError, WireResult};
use crate::ipv4::Ipv4Address;

/// An append-only big-endian byte writer with back-patching.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A writer whose buffer holds `n` bytes without reallocating.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            buf: Vec::with_capacity(n),
        }
    }

    /// Run `emit` on a fresh writer and return what it wrote.
    pub(crate) fn collect(emit: impl FnOnce(&mut Self)) -> Vec<u8> {
        let mut w = Self::default();
        emit(&mut w);
        w.buf
    }

    /// The written bytes.
    pub(crate) fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far: the offset the next write lands at.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// The bytes written from offset `start` on.
    pub(crate) fn since(&self, start: usize) -> &[u8] {
        &self.buf[start..]
    }

    pub(crate) fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    pub(crate) fn u16(&mut self, v: u16) -> &mut Self {
        self.bytes(&v.to_be_bytes())
    }

    pub(crate) fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_be_bytes())
    }

    pub(crate) fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_be_bytes())
    }

    pub(crate) fn addr(&mut self, a: Ipv4Address) -> &mut Self {
        self.bytes(&a.0)
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(b);
        self
    }

    /// Overwrite the `u16` placeholder at `at` (a checksum field).
    pub(crate) fn patch_u16(&mut self, at: usize, v: u16) {
        self.buf[at..at + 2].copy_from_slice(&v.to_be_bytes());
    }

    /// Fill the `u16` length placeholder at `at` with the number of
    /// bytes written since `from`. Like the fields it fills, the count
    /// wraps past 65,535.
    pub(crate) fn patch_len(&mut self, at: usize, from: usize) {
        self.patch_u16(at, (self.len() - from) as u16);
    }

    /// Write `body` behind a `u16` prefix holding its length.
    pub(crate) fn len_prefixed(&mut self, body: impl FnOnce(&mut Self)) {
        let at = self.len();
        self.u16(0);
        body(self);
        self.patch_len(at, at + 2);
    }
}

/// A bounds-checked big-endian cursor over a byte slice.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { rest: buf }
    }

    /// The next `n` bytes.
    pub(crate) fn bytes(&mut self, n: usize) -> WireResult<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(WireError::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes, by value.
    pub(crate) fn array<const N: usize>(&mut self) -> WireResult<[u8; N]> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(WireError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    /// Everything not yet read.
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        core::mem::take(&mut self.rest)
    }

    pub(crate) fn u8(&mut self) -> WireResult<u8> {
        self.array().map(|[b]| b)
    }

    pub(crate) fn u16(&mut self) -> WireResult<u16> {
        self.array().map(u16::from_be_bytes)
    }

    pub(crate) fn u32(&mut self) -> WireResult<u32> {
        self.array().map(u32::from_be_bytes)
    }

    pub(crate) fn u64(&mut self) -> WireResult<u64> {
        self.array().map(u64::from_be_bytes)
    }

    pub(crate) fn addr(&mut self) -> WireResult<Ipv4Address> {
        self.array().map(Ipv4Address)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_is_big_endian_and_back_patches() {
        let mut w = Writer::default();
        w.u8(1).u16(0x0203).u32(0x0405_0607).u16(0);
        w.u64(0x0809_0a0b_0c0d_0e0f)
            .addr(Ipv4Address::new(10, 0, 0, 1));
        w.patch_len(7, 0);
        let bytes = w.into_vec();
        assert_eq!(
            bytes,
            [1, 2, 3, 4, 5, 6, 7, 0, 21, 8, 9, 10, 11, 12, 13, 14, 15, 10, 0, 0, 1]
        );
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u16(), Ok(0x0203));
        assert_eq!(r.u32(), Ok(0x0405_0607));
        assert_eq!(r.u16(), Ok(21));
        assert_eq!(r.u64(), Ok(0x0809_0a0b_0c0d_0e0f));
        assert_eq!(r.addr(), Ok(Ipv4Address::new(10, 0, 0, 1)));
        assert_eq!(r.rest(), &[] as &[u8]);
    }

    #[test]
    fn reader_reports_short_reads_as_truncated() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(WireError::Truncated));
        assert_eq!(r.bytes(4), Err(WireError::Truncated));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.rest(), &[3]);
        assert_eq!(r.u8(), Err(WireError::Truncated));
    }
}
