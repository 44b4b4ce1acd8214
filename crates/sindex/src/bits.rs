//! LSB-first bit packing over `u64` words: the one module that reads and
//! writes values narrower than a byte.
//!
//! Bit `p` of a stream is bit `p % 64` of word `p / 64`. Written out as
//! little-endian words and cut to `ceil(len / 8)` bytes, that is the byte
//! layout of docs/FORMAT.md §1: the first value's lowest bit lands in bit
//! 0 of byte 0, and the last byte is zero-padded.
//!
//! * [`BitVec`] — a growable stream of values up to 64 bits wide, read
//!   back at any position, and its checked byte image. The summary stores
//!   its codeword indices and CQC codes in one.
//! * Word helpers over `&[u64]` — set, read and select bits, with select
//!   sampled every [`SAMPLE`]-th bit — on which the sealed dictionary's
//!   Elias–Fano keys, list boundaries and ID column run.

/// One select sample per this many bits of the kind sampled (zeros or
/// set bits).
pub const SAMPLE: usize = 64;

/// A growable LSB-first bit stream. Its words are exactly
/// `ceil(len / 64)`, and every bit past `len` is clear.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    /// Number of bits.
    len: usize,
}

impl BitVec {
    /// An empty stream with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> BitVec {
        BitVec {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Append the low `width ≤ 64` bits of `value`.
    #[inline]
    pub fn push(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64, "width {width} too large");
        let pos = self.len;
        self.len += width as usize;
        self.words.resize(self.len.div_ceil(64), 0);
        write_bits(&mut self.words, pos, width, value);
    }

    /// Read `width ≤ 64` bits at bit `pos`; they must lie in the stream.
    #[inline]
    pub fn get(&self, pos: usize, width: u32) -> u64 {
        debug_assert!(pos + width as usize <= self.len);
        read_bits(&self.words, pos, width)
    }

    /// The words, `ceil(len / 64)` of them.
    pub fn into_words(self) -> Vec<u64> {
        self.words
    }

    /// The byte image: the words little-endian, cut to `ceil(len / 8)`
    /// bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out: Vec<u8> = self.words.iter().flat_map(|w| w.to_le_bytes()).collect();
        out.truncate(self.len.div_ceil(8));
        out
    }

    /// Decode the byte image of a stream of `len` bits. It must be exactly
    /// `ceil(len / 8)` bytes with every bit past `len` clear, so a stream
    /// has one image and damage to its length or padding is refused.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Result<BitVec, &'static str> {
        if bytes.len() != len.div_ceil(8) {
            return Err("bit stream is not ceil(len / 8) bytes");
        }
        let words: Vec<u64> = bytes
            .chunks(8)
            .map(|chunk| {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                u64::from_le_bytes(word)
            })
            .collect();
        if !clear_past(&words, len) {
            return Err("bits set past the end of a bit stream");
        }
        Ok(BitVec { words, len })
    }
}

/// Whether no bit at or past `len` is set in `words`, which are
/// `ceil(len / 64)`: the padding check of every decoded bit stream.
pub(crate) fn clear_past(words: &[u64], len: usize) -> bool {
    len.is_multiple_of(64) || words.last().is_none_or(|&w| w >> (len % 64) == 0)
}

#[inline]
pub(crate) fn set_bit(words: &mut [u64], pos: usize) {
    words[pos / 64] |= 1u64 << (pos % 64);
}

/// Write the low `width ≤ 64` bits of `value` at bit `pos`, where they
/// are still clear.
fn write_bits(words: &mut [u64], pos: usize, width: u32, value: u64) {
    if width == 0 {
        return;
    }
    let value = value & (u64::MAX >> (64 - width));
    let (w, off) = (pos / 64, (pos % 64) as u32);
    words[w] |= value << off;
    if off + width > 64 {
        words[w + 1] |= value >> (64 - off);
    }
}

/// Read `width ≤ 64` bits at bit `pos`.
#[inline]
pub(crate) fn read_bits(words: &[u64], pos: usize, width: u32) -> u64 {
    if width == 0 {
        return 0;
    }
    let (w, off) = (pos / 64, (pos % 64) as u32);
    let mut v = words[w] >> off;
    if off + width > 64 {
        v |= words[w + 1] << (64 - off);
    }
    v & (u64::MAX >> (64 - width))
}

/// Position of set bit number `r` (from 0) of `x`; `r < x.count_ones()`.
#[inline]
fn select_in_word(mut x: u64, mut r: u32) -> u32 {
    let mut pos = 0;
    for width in [32u32, 16, 8] {
        let low = (x & ((1u64 << width) - 1)).count_ones();
        if r >= low {
            r -= low;
            x >>= width;
            pos += width;
        }
    }
    for _ in 0..r {
        x &= x - 1;
    }
    pos + x.trailing_zeros()
}

/// Position of the first set bit of `words` at or after bit `from`; one
/// must exist.
#[inline]
pub(crate) fn next_one(words: &[u64], from: usize) -> usize {
    let mut w = from / 64;
    let mut x = words[w] & (u64::MAX << (from % 64));
    while x == 0 {
        w += 1;
        x = words[w];
    }
    w * 64 + x.trailing_zeros() as usize
}

/// Position of the bit of rank `rank` among the bits of `words` equal to
/// `one`, scanning from bit `from`, before which `before ≤ rank` such
/// bits lie. The bit must exist.
#[inline]
pub(crate) fn select_from(
    words: &[u64],
    one: bool,
    from: usize,
    before: usize,
    rank: usize,
) -> usize {
    let flip = if one { 0 } else { u64::MAX };
    let mut w = from / 64;
    let mut x = (words[w] ^ flip) & (u64::MAX << (from % 64));
    let mut need = rank - before;
    loop {
        let c = x.count_ones() as usize;
        if need < c {
            return w * 64 + select_in_word(x, need as u32) as usize;
        }
        need -= c;
        w += 1;
        x = words[w] ^ flip;
    }
}

/// Positions of bit number `k · SAMPLE` among the first `len` bits of
/// `words` equal to `one`, for every such `k`.
pub(crate) fn samples(words: &[u64], len: usize, one: bool) -> Box<[u32]> {
    let mut out = Vec::new();
    let mut rank = 0usize;
    for (w, &word) in words.iter().enumerate() {
        let mut x = if one { word } else { !word };
        let valid = len - w * 64;
        if valid < 64 {
            x &= (1u64 << valid) - 1;
        }
        let c = x.count_ones() as usize;
        let mut next = rank.next_multiple_of(SAMPLE);
        while next < rank + c {
            out.push((w * 64 + select_in_word(x, (next - rank) as u32) as usize) as u32);
            next += SAMPLE;
        }
        rank += c;
    }
    out.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One bit at a time, LSB-first within each byte: the oracle for
    /// [`BitVec`]'s byte image.
    #[derive(Default)]
    struct BitWriter {
        buf: Vec<u8>,
        len_bits: usize,
    }

    impl BitWriter {
        fn write(&mut self, value: u64, width: u32) {
            for k in 0..width {
                let pos = self.len_bits + k as usize;
                if pos / 8 == self.buf.len() {
                    self.buf.push(0);
                }
                self.buf[pos / 8] |= ((value >> k & 1) as u8) << (pos % 8);
            }
            self.len_bits += width as usize;
        }
    }

    #[test]
    fn select_in_word_finds_every_bit() {
        for x in [1u64, 0x8000_0000_0000_0001, u64::MAX, 0xF0F0_0F0F_1234_5678] {
            let want: Vec<u32> = (0..64).filter(|b| x >> b & 1 == 1).collect();
            for (r, &b) in want.iter().enumerate() {
                assert_eq!(select_in_word(x, r as u32), b, "x {x:#x} r {r}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Values of every width 0..=64, packed back to back: the byte
        /// image is the per-bit writer's, `get` reads every value back,
        /// and the image decodes to the same stream — but not with a byte
        /// more or with a padding bit set.
        #[test]
        fn equals_the_per_bit_oracle(values in prop::collection::vec((0u32..65, any::<u64>()), 0..80)) {
            let mut bits = BitVec::with_capacity(0);
            let mut oracle = BitWriter::default();
            for &(width, value) in &values {
                bits.push(value, width);
                oracle.write(value, width);
            }
            let len = oracle.len_bits;
            let bytes = bits.to_bytes();
            prop_assert_eq!(&bytes, &oracle.buf);
            let mut pos = 0;
            for &(width, value) in &values {
                let mask = if width == 0 { 0 } else { u64::MAX >> (64 - width) };
                prop_assert_eq!(bits.get(pos, width), value & mask, "at bit {}", pos);
                pos += width as usize;
            }
            prop_assert_eq!(BitVec::from_bytes(&bytes, len), Ok(bits.clone()));
            let mut longer = bytes.clone();
            longer.push(0);
            prop_assert!(BitVec::from_bytes(&longer, len).is_err());
            if !len.is_multiple_of(8) {
                let mut padded = bytes;
                *padded.last_mut().unwrap() |= 0x80;
                prop_assert!(BitVec::from_bytes(&padded, len).is_err());
            }
        }
    }
}
