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
//! A dictionary built by [`SealedDict::from_lists`] has no ID column: it
//! maps each key to the position range of its list
//! ([`SealedDict::list_range`]) in an ID stream kept elsewhere — a
//! repository's page segment. Its key and boundary words serialize
//! ([`SealedDict::write_keys`]) and decode with every structural
//! invariant checked ([`SealedDict::read_keys`]).
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

pub use crate::bits::SAMPLE;
use crate::bits::{clear_past, next_one, read_bits, samples, select_from, set_bit, BitVec};
use crate::posting::KeyCursor;

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
        let runs = || postings.chunk_by(|a, b| a.0 == b.0);
        let lists = runs().map(|run| (run[0].0, run.len()));
        let mut dict = SealedDict::from_runs(runs().count(), postings.len(), last_key, lists);
        let max_id = postings.iter().map(|p| p.1).max().unwrap_or(0);
        let id_bits = (u32::BITS - max_id.leading_zeros()).max(1);
        let mut ids = BitVec::with_capacity(dict.n_ids * id_bits as usize);
        for &(_, id) in postings {
            ids.push(u64::from(id), id_bits);
        }
        dict.id_bits = id_bits;
        dict.ids = ids.into_words().into();
        dict
    }

    /// Build a dictionary without an ID column from `(key, list length)`
    /// pairs, keys ascending and distinct, lengths at least 1. List `i`
    /// is positions [`SealedDict::list_range`]`(i)` of an ID stream kept
    /// elsewhere, the lists back to back in key order.
    pub fn from_lists(lists: &[(u64, u32)]) -> SealedDict {
        assert!(
            lists.windows(2).all(|w| w[0].0 < w[1].0) && lists.iter().all(|l| l.1 > 0),
            "lists must be non-empty, their keys sorted and distinct"
        );
        let Some(&(last_key, _)) = lists.last() else {
            return SealedDict::default();
        };
        let n_ids = lists.iter().map(|l| l.1 as usize).sum();
        let runs = lists.iter().map(|&(key, n)| (key, n as usize));
        SealedDict::from_runs(lists.len(), n_ids, last_key, runs)
    }

    /// The ID-less dictionary of `len ≥ 1` lists holding `n_ids` IDs in
    /// all, given as ascending `(key, length)` pairs up to `last_key`.
    fn from_runs(
        len: usize,
        n_ids: usize,
        last_key: u64,
        lists: impl Iterator<Item = (u64, usize)>,
    ) -> SealedDict {
        let (low_bits, high_len) = shape(len, last_key);
        assert!(
            high_len <= u32::MAX as usize && n_ids <= u32::MAX as usize,
            "sealed dictionary exceeds the u32 sample domain"
        );
        let mut lows = BitVec::with_capacity(len * low_bits as usize);
        let mut highs = vec![0u64; high_len.div_ceil(64)];
        let mut starts = vec![0u64; n_ids.div_ceil(64)];
        let mut at = 0usize;
        for (i, (key, n)) in lists.enumerate() {
            lows.push(key, low_bits);
            set_bit(&mut highs, (key >> low_bits) as usize + i);
            set_bit(&mut starts, at);
            at += n;
        }
        SealedDict::assemble(len, n_ids, last_key, lows.into_words(), highs, starts)
    }

    /// The ID-less dictionary over the given key and boundary words, with
    /// its select samples.
    fn assemble(
        len: usize,
        n_ids: usize,
        last_key: u64,
        lows: Vec<u64>,
        highs: Vec<u64>,
        starts: Vec<u64>,
    ) -> SealedDict {
        let (low_bits, high_len) = shape(len, last_key);
        SealedDict {
            len,
            n_ids,
            low_bits,
            id_bits: 0,
            last_key,
            high_zeros: samples(&highs, high_len, false),
            start_ones: samples(&starts, n_ids, true),
            lows: lows.into(),
            highs: highs.into(),
            starts: starts.into(),
            ids: Box::default(),
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

    /// The largest key, if any.
    #[inline]
    pub fn last_key(&self) -> Option<u64> {
        (self.len > 0).then_some(self.last_key)
    }

    /// Positions of list `i` (`i < len`) in the ID stream: in the ID
    /// column, or in the stream kept elsewhere that an ID-less dictionary
    /// indexes.
    #[inline]
    pub fn list_range(&self, i: usize) -> std::ops::Range<usize> {
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
        start..end
    }

    /// Append the ascending IDs of list `i` (`i < len`) to `out`. The
    /// dictionary must carry its ID column ([`SealedDict::from_postings`]).
    pub fn list_into(&self, i: usize, out: &mut Vec<u32>) {
        debug_assert!(self.id_bits > 0, "list_into on a dictionary without IDs");
        let w = self.id_bits;
        out.extend(
            self.list_range(i)
                .map(|j| read_bits(&self.ids, j * w as usize, w) as u32),
        );
    }

    /// Append the key and boundary words to `out`: the `u32` key count,
    /// the `u32` ID count, the `u64` largest key (0 when empty), then the
    /// low parts, the high bits and the list starts as little-endian
    /// `u64` words, each at the length [`SealedDict::from_lists`] gives
    /// it. Neither the ID column nor the select samples are written.
    pub fn write_keys(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len as u32).to_le_bytes());
        out.extend_from_slice(&(self.n_ids as u32).to_le_bytes());
        out.extend_from_slice(&self.last_key.to_le_bytes());
        for word in self.lows.iter().chain(&*self.highs).chain(&*self.starts) {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }

    /// Decode what [`SealedDict::write_keys`] wrote at the start of
    /// `bytes`: the ID-less dictionary and the number of bytes it took.
    /// Every count is checked against the bytes and every word against
    /// the counts (no bit set past a bitvector's end, one high bit and one
    /// start bit per key, the first list starting at 0, keys strictly
    /// ascending up to the recorded largest), so no lookup on the result
    /// can run off a buffer.
    pub fn read_keys(bytes: &[u8]) -> Result<(SealedDict, usize), &'static str> {
        let truncated = "truncated key section";
        let le32 = |at: usize| -> Result<usize, &'static str> {
            let b = bytes.get(at..at + 4).ok_or(truncated)?;
            Ok(u32::from_le_bytes(b.try_into().unwrap()) as usize)
        };
        let (len, n_ids) = (le32(0)?, le32(4)?);
        let last_key = bytes.get(8..16).ok_or(truncated)?;
        let last_key = u64::from_le_bytes(last_key.try_into().unwrap());
        if len == 0 {
            return match (n_ids, last_key) {
                (0, 0) => Ok((SealedDict::default(), 16)),
                _ => Err("empty key section with ids or keys"),
            };
        }
        if n_ids < len {
            return Err("fewer ids than lists");
        }
        if last_key < len as u64 - 1 {
            return Err("too few key values for distinct keys");
        }
        let (low_bits, high_len) = shape(len, last_key);
        if high_len > u32::MAX as usize {
            return Err("key universe exceeds the u32 sample domain");
        }
        let bits = [len * low_bits as usize, high_len, n_ids];
        let used = 16 + bits.iter().map(|b| b.div_ceil(64) * 8).sum::<usize>();
        if bytes.len() < used {
            return Err(truncated);
        }
        let mut words = bytes[16..used]
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()));
        let [lows, highs, starts] =
            bits.map(|bits| words.by_ref().take(bits.div_ceil(64)).collect::<Vec<u64>>());
        if !(clear_past(&lows, bits[0])
            && clear_past(&highs, bits[1])
            && clear_past(&starts, bits[2]))
        {
            return Err("bits set past the end of a key bitvector");
        }
        let ones = |words: &[u64]| words.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        if ones(&highs) != len || ones(&starts) != len || starts[0] & 1 == 0 {
            return Err("key or list-start count does not match its bitvector");
        }
        let dict = SealedDict::assemble(len, n_ids, last_key, lows, highs, starts);
        let mut prev = None;
        for (_, key) in dict.cursor() {
            if prev.is_some_and(|p| p >= key) {
                return Err("keys not strictly ascending");
            }
            prev = Some(key);
        }
        if prev != Some(last_key) {
            return Err("largest key does not match its record");
        }
        Ok((dict, used))
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

/// The low-part width `l = ⌊log₂(U/n)⌋` and the high bitvector's length
/// `n + (last_key >> l) + 1` of `n ≥ 1` distinct keys up to `last_key`,
/// over the universe `U = last_key + 1` (≥ n). In `u128`, so U = 2⁶⁴
/// cannot overflow; `l` is at most 63, so the high part of a key is never
/// shifted out whole.
fn shape(len: usize, last_key: u64) -> (u32, usize) {
    let low_bits = ((u128::from(last_key) + 1) / len as u128).ilog2().min(63);
    (low_bits, len + (last_key >> low_bits) as usize + 1)
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

    /// An ID-less dictionary's list ranges tile its ID stream in key
    /// order, and its key section decodes to the same keys, ranges and
    /// size. A cut section is refused, and so is a key count or a largest
    /// key pushed up or down.
    #[test]
    fn key_section_roundtrips_and_refuses_damage() {
        let lists: Vec<(u64, u32)> = (0..300u64)
            .map(|k| (k * k + 3, 1 + (k % 3) as u32))
            .collect();
        let d = SealedDict::from_lists(&lists);
        let mut at = 0;
        for (i, &(key, n)) in lists.iter().enumerate() {
            assert_eq!(d.find(key), Some(i));
            assert_eq!(d.list_range(i), at..at + n as usize);
            at += n as usize;
        }
        assert_eq!(d.num_ids(), at);
        let mut bytes = Vec::new();
        d.write_keys(&mut bytes);
        let used = bytes.len();
        bytes.extend_from_slice(b"next");
        let (back, n) = SealedDict::read_keys(&bytes).unwrap();
        assert_eq!(n, used);
        assert!(back.cursor().eq(d.cursor()));
        assert!((0..lists.len()).all(|i| back.list_range(i) == d.list_range(i)));
        assert_eq!(back.size_bytes(), d.size_bytes());
        for cut in 0..used {
            assert!(SealedDict::read_keys(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for (field, width) in [(0usize, 4usize), (8, 8)] {
            for step in [1u64, u64::MAX] {
                let mut bad = bytes.clone();
                let mut v = [0u8; 8];
                v[..width].copy_from_slice(&bad[field..field + width]);
                let pushed = u64::from_le_bytes(v).wrapping_add(step);
                bad[field..field + width].copy_from_slice(&pushed.to_le_bytes()[..width]);
                assert!(SealedDict::read_keys(&bad).is_err(), "field {field} {step}");
            }
        }
        let mut empty = Vec::new();
        SealedDict::default().write_keys(&mut empty);
        assert_eq!(SealedDict::read_keys(&empty).unwrap().1, 16);
        assert!(SealedDict::read_keys(&[1, 0, 0, 0, 1, 0, 0, 0]).is_err());
    }
}
