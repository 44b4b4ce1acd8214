//! The raw posting dictionary: sorted `u32` keys → trajectory-ID lists
//! held back to back in one byte arena of delta-varint bytes
//! ([`crate::idlist`]).
//!
//! This is the form a TPI period's `(region, timestep)` slices take while
//! the period is open: an insertion round into a timestep that already
//! holds postings merges two dictionaries cheaply. When the period seals,
//! its dictionaries are rewritten once into one
//! [`crate::sealed::SealedDict`].

use crate::idlist::{decode_ids, encode_ids};

/// A sorted posting dictionary. Keys live apart from the payload so the
/// binary searches stay cache-dense.
#[derive(Clone, Debug, Default)]
pub struct PostingDict {
    /// Occupied keys, ascending and distinct.
    keys: Box<[u32]>,
    /// `ends[i]` is the byte offset where list `i` ends in `arena` (it
    /// starts where list `i - 1` ends).
    ends: Box<[u32]>,
    arena: Box<[u8]>,
}

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
        }
    }

    /// The union of two dictionaries: lists under a key both hold are
    /// merged, every other list is copied byte for byte.
    pub fn merge(&self, other: &PostingDict) -> PostingDict {
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

    /// List `i`'s byte extent in the arena.
    #[inline]
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        start..self.ends[i] as usize
    }

    /// Append the ascending IDs of list `i` (an index into
    /// [`PostingDict::keys`]) to `out`.
    pub fn list_into(&self, i: usize, out: &mut Vec<u32>) {
        decode_ids(&self.arena[self.span(i)], out);
    }

    /// Encoded size: keys, offsets and payload.
    pub fn size_bytes(&self) -> usize {
        4 * self.keys.len() + 4 * self.ends.len() + self.arena.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lists_of(d: &PostingDict) -> Vec<(u32, Vec<u32>)> {
        (0..d.len())
            .map(|i| {
                let mut ids = Vec::new();
                d.list_into(i, &mut ids);
                (d.keys()[i], ids)
            })
            .collect()
    }

    #[test]
    fn pairs_group_sort_and_dedup() {
        let mut pairs = vec![(9, 4), (2, 70000), (9, 1), (2, 3), (9, 4), (5, u32::MAX)];
        let d = PostingDict::from_pairs(&mut pairs);
        assert_eq!(
            lists_of(&d),
            vec![(2, vec![3, 70000]), (5, vec![u32::MAX]), (9, vec![1, 4])]
        );
        assert_eq!(d.size_bytes(), 3 * 4 + 3 * 4 + (1 + 3) + 5 + (1 + 1));
    }

    #[test]
    fn merge_unions_colliding_keys() {
        let a = PostingDict::from_pairs(&mut vec![(1, 10), (4, 7), (4, 9)]);
        let b = PostingDict::from_pairs(&mut vec![(0, 2), (4, 8), (4, 9), (6, 1)]);
        assert_eq!(
            lists_of(&a.merge(&b)),
            vec![
                (0, vec![2]),
                (1, vec![10]),
                (4, vec![7, 8, 9]),
                (6, vec![1])
            ]
        );
        assert_eq!(lists_of(&a.merge(&PostingDict::default())), lists_of(&a));
    }
}
