//! Byte codec for fixed-layout records (built on `bytes`).
//!
//! The disk experiments serialize per-period point runs and summary
//! fragments onto pages. The codec is deliberately minimal: little-endian
//! scalars with explicit lengths — no self-description, the page index
//! knows what lives where.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use ppq_geo::Point;

/// Writer over a growable buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: BytesMut,
}

impl Encoder {
    pub fn new() -> Encoder {
        Encoder {
            buf: BytesMut::new(),
        }
    }

    pub fn with_capacity(cap: usize) -> Encoder {
        Encoder {
            buf: BytesMut::with_capacity(cap),
        }
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    pub fn put_f32(&mut self, v: f32) {
        self.buf.put_f32_le(v);
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    pub fn put_point(&mut self, p: &Point) {
        self.put_f64(p.x);
        self.put_f64(p.y);
    }

    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.buf.put_slice(b);
    }

    /// Append raw bytes with no length prefix (the caller's framing
    /// carries the length — e.g. a manifest header).
    pub fn put_bytes_raw(&mut self, b: &[u8]) {
        self.buf.put_slice(b);
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Reader over an immutable buffer.
#[derive(Debug)]
pub struct Decoder {
    buf: Bytes,
}

impl Decoder {
    pub fn new(buf: Bytes) -> Decoder {
        Decoder { buf }
    }

    pub fn from_slice(b: &[u8]) -> Decoder {
        Decoder {
            buf: Bytes::copy_from_slice(b),
        }
    }

    pub fn u16(&mut self) -> u16 {
        self.buf.get_u16_le()
    }

    pub fn u32(&mut self) -> u32 {
        self.buf.get_u32_le()
    }

    pub fn u64(&mut self) -> u64 {
        self.buf.get_u64_le()
    }

    pub fn f32(&mut self) -> f32 {
        self.buf.get_f32_le()
    }

    pub fn f64(&mut self) -> f64 {
        self.buf.get_f64_le()
    }

    pub fn point(&mut self) -> Point {
        let x = self.f64();
        let y = self.f64();
        Point::new(x, y)
    }

    pub fn bytes(&mut self) -> Bytes {
        let len = self.u32() as usize;
        self.buf.split_to(len)
    }

    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    // --- Checked accessors ------------------------------------------------
    //
    // The panicking accessors above are right for trusted, self-produced
    // buffers (pages already CRC-verified). Decoders of *external* input
    // (`core::summary_io`, the repository manifest) use these instead:
    // every early-EOF returns `None` so the caller can surface a typed
    // corruption error instead of a panic.

    fn try_take<const N: usize>(&mut self) -> Option<[u8; N]> {
        if self.buf.len() < N {
            return None;
        }
        let head = self.buf.split_to(N);
        Some(head[..].try_into().unwrap())
    }

    pub fn try_u16(&mut self) -> Option<u16> {
        self.try_take::<2>().map(u16::from_le_bytes)
    }

    pub fn try_u32(&mut self) -> Option<u32> {
        self.try_take::<4>().map(u32::from_le_bytes)
    }

    pub fn try_u64(&mut self) -> Option<u64> {
        self.try_take::<8>().map(u64::from_le_bytes)
    }

    pub fn try_f32(&mut self) -> Option<f32> {
        self.try_take::<4>().map(f32::from_le_bytes)
    }

    pub fn try_f64(&mut self) -> Option<f64> {
        self.try_take::<8>().map(f64::from_le_bytes)
    }

    pub fn try_point(&mut self) -> Option<Point> {
        let x = self.try_f64()?;
        let y = self.try_f64()?;
        Some(Point::new(x, y))
    }

    /// Length-prefixed bytes; `None` when the prefix or the payload runs
    /// past the end of the buffer.
    pub fn try_bytes(&mut self) -> Option<Bytes> {
        let len = self.try_u32()? as usize;
        if self.buf.len() < len {
            return None;
        }
        Some(self.buf.split_to(len))
    }

    /// The bytes that remain, without consuming them.
    pub fn remaining_slice(&self) -> &[u8] {
        &self.buf[..]
    }

    /// Consume `n` bytes; `None`, consuming nothing, when fewer remain.
    pub fn try_skip(&mut self, n: usize) -> Option<()> {
        if self.buf.len() < n {
            return None;
        }
        self.buf.split_to(n);
        Some(())
    }

    /// Take everything that remains (zero-copy view).
    pub fn rest(&mut self) -> Bytes {
        let n = self.buf.len();
        self.buf.split_to(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Encoder::new();
        e.put_u16(513);
        e.put_u32(7);
        e.put_u64(u64::MAX - 3);
        e.put_f32(2.5);
        e.put_f64(-1.5e-9);
        let mut d = Decoder::new(e.finish());
        assert_eq!(d.u16(), 513);
        assert_eq!(d.u32(), 7);
        assert_eq!(d.u64(), u64::MAX - 3);
        assert_eq!(d.f32(), 2.5);
        assert_eq!(d.f64(), -1.5e-9);
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn point_roundtrip() {
        let mut e = Encoder::new();
        e.put_point(&Point::new(-8.61, 41.15));
        let mut d = Decoder::new(e.finish());
        assert_eq!(d.point(), Point::new(-8.61, 41.15));
    }

    #[test]
    fn length_prefixed_bytes() {
        let mut e = Encoder::new();
        e.put_bytes(b"hello");
        e.put_bytes(b"");
        e.put_u32(42);
        let mut d = Decoder::new(e.finish());
        assert_eq!(&d.bytes()[..], b"hello");
        assert_eq!(d.bytes().len(), 0);
        assert_eq!(d.u32(), 42);
    }

    #[test]
    fn checked_accessors_report_eof() {
        let mut e = Encoder::new();
        e.put_u32(9);
        e.put_bytes(b"abc");
        let mut d = Decoder::new(e.finish());
        assert_eq!(d.try_u32(), Some(9));
        assert_eq!(&d.try_bytes().unwrap()[..], b"abc");
        assert_eq!(d.try_u32(), None);
        // A length prefix larger than the remaining buffer is caught.
        let mut e = Encoder::new();
        e.put_u32(1_000_000);
        e.put_u32(0xAB);
        let mut d = Decoder::new(e.finish());
        assert!(d.try_bytes().is_none());
        // Underflow mid-scalar too.
        let mut d = Decoder::from_slice(&[1, 2, 3]);
        assert_eq!(d.try_u32(), None);
        assert_eq!(d.try_u16(), Some(u16::from_le_bytes([1, 2])));
    }

    #[test]
    fn len_tracks_writes() {
        let mut e = Encoder::new();
        assert!(e.is_empty());
        e.put_u32(1);
        assert_eq!(e.len(), 4);
        e.put_point(&Point::ORIGIN);
        assert_eq!(e.len(), 20);
    }
}
