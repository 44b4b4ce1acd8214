//! The posting dictionary: sorted `u32` keys → trajectory-ID lists held
//! back to back in one byte arena.
//!
//! This is the one container behind every cell → IDs mapping of the index
//! (a PI region's timestep, a [`crate::GridIndex`]). A dictionary is born
//! *raw*: its arena holds the delta-varint bytes of [`crate::idlist`], so
//! an open TPI period can merge further insertions cheaply. [`seal`]
//! Huffman-packs the arenas of a group of dictionaries (a whole period)
//! under **one** canonical code built from the group's byte histogram —
//! the code is owned by the group's owner, never by a list — and keeps
//! the group raw when packing would not be smaller.

use crate::huffman::Huffman;
use crate::idlist::{decode_ids, encode_ids};

/// A sorted posting dictionary. Keys live apart from the payload so the
/// binary searches stay cache-dense.
#[derive(Clone, Debug, Default)]
pub struct PostingDict {
    /// Occupied keys, ascending and distinct.
    keys: Box<[u32]>,
    /// `ends[i]` is where list `i` ends in `arena` (it starts where list
    /// `i - 1` ends): a byte offset while raw, a bit offset once packed.
    ends: Box<[u32]>,
    arena: Box<[u8]>,
    packed: bool,
}

// The header is paid once per (region, timestep): no code table in here.
const _: () = assert!(std::mem::size_of::<PostingDict>() <= 64);

fn end_offset(len: usize) -> u32 {
    u32::try_from(len).expect("posting arena exceeds the u32 offset domain")
}

impl PostingDict {
    /// Build a raw dictionary from `(key, id)` postings in any order
    /// (sorted and deduplicated in place).
    pub fn from_pairs(pairs: &mut Vec<(u32, u32)>) -> PostingDict {
        pairs.sort_unstable();
        pairs.dedup();
        let n_keys = pairs.chunk_by(|a, b| a.0 == b.0).count();
        let mut keys = Vec::with_capacity(n_keys);
        let mut ends = Vec::with_capacity(n_keys);
        let mut arena = Vec::with_capacity(pairs.len() * 2);
        for group in pairs.chunk_by(|a, b| a.0 == b.0) {
            encode_ids(group.iter().map(|&(_, id)| id), &mut arena);
            keys.push(group[0].0);
            ends.push(end_offset(arena.len()));
        }
        PostingDict {
            keys: keys.into(),
            ends: ends.into(),
            arena: arena.into(),
            packed: false,
        }
    }

    /// The union of two raw dictionaries: lists under a key both hold are
    /// merged, every other list is copied byte for byte.
    pub fn merge(&self, other: &PostingDict) -> PostingDict {
        assert!(
            !self.packed && !other.packed,
            "sealed dictionaries are immutable"
        );
        let cap = self.keys.len() + other.keys.len();
        let mut keys = Vec::with_capacity(cap);
        let mut ends = Vec::with_capacity(cap);
        let mut arena = Vec::with_capacity(self.arena.len() + other.arena.len());
        let (mut i, mut j) = (0usize, 0usize);
        let (mut a, mut b, mut both) = (Vec::new(), Vec::new(), Vec::new());
        while i < self.keys.len() || j < other.keys.len() {
            let ord = match (self.keys.get(i), other.keys.get(j)) {
                (Some(x), Some(y)) => x.cmp(y),
                (Some(_), None) => std::cmp::Ordering::Less,
                _ => std::cmp::Ordering::Greater,
            };
            match ord {
                std::cmp::Ordering::Less => {
                    keys.push(self.keys[i]);
                    arena.extend_from_slice(&self.arena[self.span(i)]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    keys.push(other.keys[j]);
                    arena.extend_from_slice(&other.arena[other.span(j)]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    a.clear();
                    b.clear();
                    both.clear();
                    decode_ids(&self.arena[self.span(i)], &mut a);
                    decode_ids(&other.arena[other.span(j)], &mut b);
                    crate::posting::union_into(&a, &b, &mut both);
                    keys.push(self.keys[i]);
                    encode_ids(both.iter().copied(), &mut arena);
                    i += 1;
                    j += 1;
                }
            }
            ends.push(end_offset(arena.len()));
        }
        PostingDict {
            keys: keys.into(),
            ends: ends.into(),
            arena: arena.into(),
            packed: false,
        }
    }

    /// Occupied keys, ascending.
    #[inline]
    pub fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// Number of lists.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// List `i`'s extent in the arena, in the unit of `ends`.
    #[inline]
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        start..self.ends[i] as usize
    }

    /// Append the ascending IDs of list `i` (an index into
    /// [`PostingDict::keys`]) to `out`. `code` is whatever [`seal`]
    /// returned for this dictionary's group (`None` before sealing);
    /// `scratch` receives the Huffman-decoded bytes of a packed list.
    pub fn list_into(
        &self,
        i: usize,
        code: Option<&Huffman>,
        scratch: &mut Vec<u8>,
        out: &mut Vec<u32>,
    ) {
        let span = self.span(i);
        match code {
            None => {
                assert!(!self.packed, "packed dictionary read without its code");
                decode_ids(&self.arena[span], out);
            }
            Some(code) => {
                assert!(self.packed, "raw dictionary read with a code");
                scratch.clear();
                code.decode_into(&self.arena, span.start, span.end, scratch);
                decode_ids(scratch, out);
            }
        }
    }

    /// Append the IDs stored under `key`, if any, to `out`.
    pub fn get_into(
        &self,
        key: u32,
        code: Option<&Huffman>,
        scratch: &mut Vec<u8>,
        out: &mut Vec<u32>,
    ) {
        if let Ok(i) = self.keys.binary_search(&key) {
            self.list_into(i, code, scratch, out);
        }
    }

    /// Encoded size: keys, offsets and payload. A sealed group's code
    /// table is charged once, by its owner.
    pub fn size_bytes(&self) -> usize {
        4 * self.keys.len() + 4 * self.ends.len() + self.arena.len()
    }

    /// Bytes the arena would take packed under `code`.
    fn packed_len(&self, code: &Huffman) -> usize {
        code.encoded_bits(&self.arena).div_ceil(8)
    }

    /// Re-encode the raw arena as one bit stream under `code`.
    fn pack(&mut self, code: &Huffman) {
        let mut bits = Vec::with_capacity(self.packed_len(code));
        let (mut start, mut bitpos) = (0usize, 0usize);
        for end in self.ends.iter_mut() {
            code.encode_append(&self.arena[start..*end as usize], &mut bits, &mut bitpos);
            start = *end as usize;
            *end = end_offset(bitpos);
        }
        self.arena = bits.into();
        self.packed = true;
    }
}

/// Seal a group of raw dictionaries: build one canonical code from the
/// byte histogram of all their arenas and, when the packed arenas plus
/// the code table are smaller than the raw arenas, pack every dictionary
/// under it and return the code. `None` means the group stays raw.
pub fn seal(dicts: &mut [&mut PostingDict]) -> Option<Huffman> {
    let mut hist = [0u64; 256];
    let mut raw = 0usize;
    for d in dicts.iter() {
        assert!(!d.packed, "dictionary sealed twice");
        raw += d.arena.len();
        for &b in d.arena.iter() {
            hist[b as usize] += 1;
        }
    }
    // Every code word takes at least a bit and the table lists every used
    // symbol: when even that floor is not below the raw size (a period of
    // a few short lists), skip building the code.
    let symbols = hist.iter().filter(|&&f| f > 0).count();
    if Huffman::table_bytes_for(symbols) + raw.div_ceil(8) >= raw {
        return None;
    }
    let code = Huffman::for_histogram(&hist)?;
    let packed: usize = dicts.iter().map(|d| d.packed_len(&code)).sum();
    if packed + code.table_bytes() >= raw {
        return None;
    }
    for d in dicts.iter_mut() {
        d.pack(&code);
    }
    Some(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lists_of(d: &PostingDict, code: Option<&Huffman>) -> Vec<(u32, Vec<u32>)> {
        let mut scratch = Vec::new();
        (0..d.len())
            .map(|i| {
                let mut ids = Vec::new();
                d.list_into(i, code, &mut scratch, &mut ids);
                (d.keys()[i], ids)
            })
            .collect()
    }

    #[test]
    fn pairs_group_sort_and_dedup() {
        let mut pairs = vec![(9, 4), (2, 70000), (9, 1), (2, 3), (9, 4), (5, u32::MAX)];
        let d = PostingDict::from_pairs(&mut pairs);
        assert_eq!(
            lists_of(&d, None),
            vec![(2, vec![3, 70000]), (5, vec![u32::MAX]), (9, vec![1, 4])]
        );
        assert_eq!(d.size_bytes(), 3 * 4 + 3 * 4 + (1 + 3) + 5 + (1 + 1));
    }

    #[test]
    fn merge_unions_colliding_keys() {
        let a = PostingDict::from_pairs(&mut vec![(1, 10), (4, 7), (4, 9)]);
        let b = PostingDict::from_pairs(&mut vec![(0, 2), (4, 8), (4, 9), (6, 1)]);
        assert_eq!(
            lists_of(&a.merge(&b), None),
            vec![
                (0, vec![2]),
                (1, vec![10]),
                (4, vec![7, 8, 9]),
                (6, vec![1])
            ]
        );
        assert_eq!(
            lists_of(&a.merge(&PostingDict::default()), None),
            lists_of(&a, None)
        );
    }

    #[test]
    fn seal_packs_only_when_smaller() {
        // Two one-id lists: no table can pay for itself.
        let mut tiny = PostingDict::from_pairs(&mut vec![(1, 300), (2, 301)]);
        let before = lists_of(&tiny, None);
        assert!(seal(&mut [&mut tiny]).is_none());
        assert_eq!(lists_of(&tiny, None), before);

        // Dense runs across two dictionaries: one shared code, both packed.
        let mut a = PostingDict::from_pairs(&mut (0..4000).map(|i| (i / 500, i)).collect());
        let mut b = PostingDict::from_pairs(&mut (0..4000).map(|i| (i / 100, i * 2)).collect());
        let (want_a, want_b) = (lists_of(&a, None), lists_of(&b, None));
        let raw = a.size_bytes() + b.size_bytes();
        let code = seal(&mut [&mut a, &mut b]).expect("dense runs pack");
        assert!(a.size_bytes() + b.size_bytes() + code.table_bytes() < raw);
        assert_eq!(lists_of(&a, Some(&code)), want_a);
        assert_eq!(lists_of(&b, Some(&code)), want_b);
    }
}
