//! The sealed posting dictionary: an immutable, succinct map from
//! ascending `u64` keys to ascending `u32` ID lists, built once when a TPI
//! period closes (the compact-structure approach of de Bernardo et al.,
//! "A new method to index and store spatio-temporal data").
//!
//! Three parts, each one flat word buffer:
//!
//! * **Keys**, Elias–Fano coded: the low `l = ⌊log₂(U/n)⌋` bits of every
//!   key packed side by side, and the high bits in unary — key `i` sets
//!   bit `(key >> l) + i` of a bitvector of `n + (U >> l) + 1` bits. About
//!   `2 + l` bits per key.
//! * **List boundaries**: one bit per ID, set where a list starts, so
//!   list `i` starts at the `i`-th set bit — select replaces an offset
//!   array.
//! * **IDs**: one fixed-width column at the width of the largest ID.
//!
//! Every [`SAMPLE`]-th zero of the high bitvector and every
//! [`SAMPLE`]-th set bit of the boundary bitvector is sampled, so a seek
//! or a list lookup scans a few words at most. A [`Cursor`] moves forward
//! and seeks from whichever is later, its own position or the sample, so
//! a walk over nearby keys rarely touches a sample.
//!
//! This departs from the paper's §5.1 list codec (delta + Huffman): at
//! the paper's `g_c` a list holds about one ID, so keys and boundaries
//! are the index, and a fixed-width column is as small as coded gaps
//! while reading in O(1).

use crate::posting::KeyCursor;

/// One select sample per this many zeros (high bits) or set bits (list
/// boundaries).
pub const SAMPLE: usize = 64;

/// A sealed posting dictionary. Every buffer is allocated at its exact
/// length, so [`SealedDict::size_bytes`] is what the dictionary holds.
#[derive(Clone, Debug, Default)]
pub struct SealedDict {
    /// Number of keys (= lists).
    len: usize,
    /// Number of IDs over all lists.
    n_ids: usize,
    /// Width `l` of a key's low part.
    low_bits: u32,
    /// Width of one ID in the column.
    id_bits: u32,
    /// The largest key: a seek past it ends the cursor at once.
    last_key: u64,
    /// Low parts, `low_bits` each.
    lows: Box<[u64]>,
    /// High parts in unary.
    highs: Box<[u64]>,
    /// `high_zeros[k]` is the position of zero number `k · SAMPLE` of
    /// `highs`.
    high_zeros: Box<[u32]>,
    /// One bit per ID, set at the first ID of every list.
    starts: Box<[u64]>,
    /// `start_ones[k]` is the position of set bit number `k · SAMPLE` of
    /// `starts`.
    start_ones: Box<[u32]>,
    /// The ID column, `id_bits` each.
    ids: Box<[u64]>,
}

impl SealedDict {
    /// Build from `(key, id)` postings sorted ascending and distinct: each
    /// run of one key is that key's list.
    pub fn from_postings(postings: &[(u64, u32)]) -> SealedDict {
        assert!(
            postings.windows(2).all(|w| w[0] < w[1]),
            "postings must be sorted and distinct"
        );
        let Some(&(last_key, _)) = postings.last() else {
            return SealedDict::default();
        };
        let n_ids = postings.len();
        let len = postings.chunk_by(|a, b| a.0 == b.0).count();
        // l = ⌊log₂(U / n)⌋ over the universe U = last_key + 1 (≥ n, as
        // keys are distinct), in u128 so U = 2⁶⁴ cannot overflow; at most
        // 63, so the high part of a key is never shifted out whole.
        let low_bits = ((u128::from(last_key) + 1) / len as u128).ilog2().min(63);
        let high_len = len + (last_key >> low_bits) as usize + 1;
        assert!(
            high_len <= u32::MAX as usize && n_ids <= u32::MAX as usize,
            "sealed dictionary exceeds the u32 sample domain"
        );
        let max_id = postings.iter().map(|p| p.1).max().unwrap_or(0);
        let id_bits = (u32::BITS - max_id.leading_zeros()).max(1);

        let mut lows = vec![0u64; (len * low_bits as usize).div_ceil(64)];
        let mut highs = vec![0u64; high_len.div_ceil(64)];
        let mut starts = vec![0u64; n_ids.div_ceil(64)];
        let mut ids = vec![0u64; (n_ids * id_bits as usize).div_ceil(64)];
        let low_mask = (1u64 << low_bits) - 1;
        let mut i = 0usize;
        for (j, &(key, id)) in postings.iter().enumerate() {
            if j == 0 || postings[j - 1].0 != key {
                write_bits(&mut lows, i * low_bits as usize, low_bits, key & low_mask);
                set_bit(&mut highs, (key >> low_bits) as usize + i);
                set_bit(&mut starts, j);
                i += 1;
            }
            write_bits(&mut ids, j * id_bits as usize, id_bits, u64::from(id));
        }
        SealedDict {
            len,
            n_ids,
            low_bits,
            id_bits,
            last_key,
            high_zeros: samples(&highs, high_len, false),
            start_ones: samples(&starts, n_ids, true),
            lows: lows.into(),
            highs: highs.into(),
            starts: starts.into(),
            ids: ids.into(),
        }
    }

    /// Number of keys (= lists).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of IDs over all lists.
    #[inline]
    pub fn num_ids(&self) -> usize {
        self.n_ids
    }

    /// A cursor before the first key.
    #[inline]
    pub fn cursor(&self) -> Cursor<'_> {
        Cursor {
            dict: self,
            i: 0,
            pos: 0,
        }
    }

    /// A cursor over the keys in `lo..hi` (`hi - lo ≤ 2³²`), which it
    /// reports as `u32` offsets from `lo`, with their indices in the
    /// whole dictionary.
    #[inline]
    pub fn window(&self, lo: u64, hi: u64) -> Window<'_> {
        debug_assert!(lo <= hi && hi - lo <= 1 << 32);
        Window {
            cursor: self.cursor(),
            lo,
            hi,
        }
    }

    /// Index of `key`'s list, if the dictionary holds it.
    pub fn find(&self, key: u64) -> Option<usize> {
        self.cursor()
            .seek(key)
            .filter(|&(_, k)| k == key)
            .map(|(i, _)| i)
    }

    /// Append the ascending IDs of list `i` (`i < len`) to `out`.
    pub fn list_into(&self, i: usize, out: &mut Vec<u32>) {
        let k = i / SAMPLE;
        let start = select_from(
            &self.starts,
            true,
            self.start_ones[k] as usize,
            k * SAMPLE,
            i,
        );
        let end = if i + 1 == self.len {
            self.n_ids
        } else {
            next_one(&self.starts, start + 1)
        };
        let w = self.id_bits;
        out.extend((start..end).map(|j| read_bits(&self.ids, j * w as usize, w) as u32));
    }

    /// Bytes held: the length of every buffer times its word size, select
    /// samples included.
    pub fn size_bytes(&self) -> usize {
        let words = self.lows.len() + self.highs.len() + self.starts.len() + self.ids.len();
        let samples = self.high_zeros.len() + self.start_ones.len();
        words * size_of::<u64>() + samples * size_of::<u32>()
    }
}

/// A forward cursor over a [`SealedDict`]'s keys. As an iterator it
/// yields `(index, key)` in ascending order; [`Cursor::seek`] skips ahead.
#[derive(Clone, Debug)]
pub struct Cursor<'a> {
    dict: &'a SealedDict,
    /// Index of the next key.
    i: usize,
    /// Where the next key's bit in `highs` is looked for: no set bit
    /// lies in `pos..` before it, and `pos - i` zeros lie before `pos`.
    pos: usize,
}

impl Iterator for Cursor<'_> {
    type Item = (usize, u64);

    #[inline]
    fn next(&mut self) -> Option<(usize, u64)> {
        let d = self.dict;
        if self.i == d.len {
            return None;
        }
        let q = next_one(&d.highs, self.pos);
        let low = read_bits(&d.lows, self.i * d.low_bits as usize, d.low_bits);
        let key = ((q - self.i) as u64) << d.low_bits | low;
        self.pos = q + 1;
        self.i += 1;
        Some((self.i - 1, key))
    }
}

impl Cursor<'_> {
    /// Skip to the first key not below `key`, consume it and return it.
    /// The cursor only moves forward: a key it has passed is not found.
    pub fn seek(&mut self, key: u64) -> Option<(usize, u64)> {
        let d = self.dict;
        if self.i == d.len {
            return None;
        }
        if key > d.last_key {
            self.i = d.len;
            return None;
        }
        let h = (key >> d.low_bits) as usize;
        let zeros = self.pos - self.i;
        if h > zeros {
            // Jump to the start of bucket `h`, just past zero number
            // `h - 1`: scan for it from here or from its sample,
            // whichever is later.
            let rank = h - 1;
            let k = rank / SAMPLE;
            let (from, before) = if zeros >= k * SAMPLE {
                (self.pos, zeros)
            } else {
                (d.high_zeros[k] as usize, k * SAMPLE)
            };
            self.pos = select_from(&d.highs, false, from, before, rank) + 1;
            self.i = self.pos - h;
        }
        // `key ≤ last_key`, so some key not below it is still ahead.
        self.find(|&(_, k)| k >= key)
    }
}

/// A [`Cursor`] restricted to one key range, reporting keys as offsets
/// from its start — how a TPI region's `(t, cell)` slice of a period's
/// dictionary is walked.
#[derive(Clone, Debug)]
pub struct Window<'a> {
    cursor: Cursor<'a>,
    lo: u64,
    hi: u64,
}

impl Window<'_> {
    #[inline]
    fn clip(&self, entry: Option<(usize, u64)>) -> Option<(usize, u32)> {
        entry
            .filter(|&(_, k)| k < self.hi)
            .map(|(i, k)| (i, (k - self.lo) as u32))
    }
}

impl KeyCursor for Window<'_> {
    #[inline]
    fn seek(&mut self, key: u32) -> Option<(usize, u32)> {
        let entry = self.cursor.seek(self.lo + u64::from(key));
        self.clip(entry)
    }

    #[inline]
    fn next(&mut self) -> Option<(usize, u32)> {
        // Every key already consumed is at least `lo`, so the next key not
        // below `lo` is the next key — or the window's first, on a fresh
        // cursor.
        let entry = self.cursor.seek(self.lo);
        self.clip(entry)
    }
}

#[inline]
fn set_bit(words: &mut [u64], pos: usize) {
    words[pos / 64] |= 1u64 << (pos % 64);
}

/// Write the low `width` bits of `value` at bit `pos` (LSB-first).
fn write_bits(words: &mut [u64], pos: usize, width: u32, value: u64) {
    if width == 0 {
        return;
    }
    let (w, off) = (pos / 64, (pos % 64) as u32);
    words[w] |= value << off;
    if off + width > 64 {
        words[w + 1] |= value >> (64 - off);
    }
}

/// Read `width < 64` bits at bit `pos` (LSB-first).
#[inline]
fn read_bits(words: &[u64], pos: usize, width: u32) -> u64 {
    if width == 0 {
        return 0;
    }
    let (w, off) = (pos / 64, (pos % 64) as u32);
    let mut v = words[w] >> off;
    if off + width > 64 {
        v |= words[w + 1] << (64 - off);
    }
    v & ((1u64 << width) - 1)
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
fn next_one(words: &[u64], from: usize) -> usize {
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
fn select_from(words: &[u64], one: bool, from: usize, before: usize, rank: usize) -> usize {
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
fn samples(words: &[u64], len: usize, one: bool) -> Box<[u32]> {
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

    fn lists(d: &SealedDict) -> Vec<(u64, Vec<u32>)> {
        d.cursor()
            .map(|(i, key)| {
                let mut ids = Vec::new();
                d.list_into(i, &mut ids);
                (key, ids)
            })
            .collect()
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

    #[test]
    fn lists_roundtrip_and_seek_skips_ahead() {
        let postings = vec![(3u64, 7u32), (3, 9), (40, 0), (41, u32::MAX), (1 << 40, 5)];
        let d = SealedDict::from_postings(&postings);
        assert_eq!(
            lists(&d),
            vec![
                (3, vec![7, 9]),
                (40, vec![0]),
                (41, vec![u32::MAX]),
                (1 << 40, vec![5])
            ]
        );
        assert_eq!(d.find(41), Some(2));
        assert_eq!(d.find(42), None);
        let mut c = d.cursor();
        assert_eq!(c.seek(4), Some((1, 40)));
        assert_eq!(c.seek(4), Some((2, 41)), "a passed key is not found again");
        assert_eq!(c.seek(1 << 40), Some((3, 1 << 40)));
        assert_eq!(c.next(), None);
    }

    /// `size_bytes` counts every buffer at its Elias–Fano length,
    /// computed here from the counts independently of the builder.
    #[test]
    fn size_is_the_buffers_lengths() {
        let postings: Vec<(u64, u32)> = (0..1000u64)
            .flat_map(|k| {
                let ids = if k % 10 == 0 { 2 } else { 1 };
                (0..ids).map(move |j| (k * 37, (k as u32) * 3 + j))
            })
            .collect();
        let d = SealedDict::from_postings(&postings);
        let (n, n_ids, last) = (1000usize, 1100usize, 999 * 37u64);
        let l = ((last + 1) / n as u64).ilog2() as usize; // 5
        let high_bits = n + (last >> l) as usize + 1;
        let zeros = high_bits - n;
        let id_bits = 12; // the largest id is 2997
        let words = (n * l).div_ceil(64)
            + high_bits.div_ceil(64)
            + n_ids.div_ceil(64)
            + (n_ids * id_bits).div_ceil(64);
        let samples = zeros.div_ceil(SAMPLE) + n.div_ceil(SAMPLE);
        assert_eq!(d.size_bytes(), 8 * words + 4 * samples);
        assert_eq!(SealedDict::from_postings(&[]).size_bytes(), 0);
    }
}
