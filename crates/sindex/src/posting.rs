//! Sorted posting-list primitives for the query path.
//!
//! Every ID list in the index (grid cells, PI cells, TPI periods) is a
//! sorted, deduplicated `u32` posting list. The seed evaluated queries by
//! concatenating decompressed lists and running `sort_unstable` +
//! `dedup` per query; the primitives here replace that with classic
//! information-retrieval machinery — two-pointer sorted intersections and
//! a generation-free, reusable bitset union — so a query allocates
//! nothing once its [`QueryScratch`] is warm and never re-sorts data that
//! is already sorted.
//!
//! All functions produce output in ascending ID order, bit-identical to
//! the `sort + dedup` they replace.

/// Number of common elements between two sorted, deduplicated lists
/// (two-pointer merge — no per-element binary search).
pub fn intersect_count(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Append the intersection of two sorted, deduplicated lists to `out`.
pub fn intersect_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Append the union of two sorted, deduplicated lists to `out`.
pub fn union_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Leave the union of `lists` (each sorted and deduplicated) in `out`,
/// ascending, using `tmp` as ping-pong scratch. Both buffers are cleared
/// on entry; nothing is allocated once they are warm.
///
/// Built for cross-shard merges, where the inputs are pairwise disjoint
/// (each shard owns a distinct id subset) but interleaved in id space;
/// general overlapping inputs are handled too. The fold is a sequence of
/// two-pointer [`union_into`] passes, so the output is bit-identical to
/// `concat + sort + dedup` without re-sorting already-sorted data.
pub fn union_many_into(lists: &[&[u32]], tmp: &mut Vec<u32>, out: &mut Vec<u32>) {
    union_fold_into(lists.len(), |i| lists[i], tmp, out)
}

/// [`union_many_into`] over an indexed accessor instead of a slice of
/// slices, so callers whose lists live inside larger structures (e.g.
/// one answer level of per-shard query outcomes) can merge without
/// materialising a `Vec<&[u32]>` per call.
pub fn union_fold_into<'a>(
    n: usize,
    list: impl Fn(usize) -> &'a [u32],
    tmp: &mut Vec<u32>,
    out: &mut Vec<u32>,
) {
    out.clear();
    match n {
        0 => {}
        1 => out.extend_from_slice(list(0)),
        2 => union_into(list(0), list(1), out),
        _ => {
            tmp.clear();
            union_into(list(0), list(1), tmp);
            // Each pass reads the accumulator in `tmp` and writes `out`;
            // all but the final pass swap the roles back, so the loop
            // lands the complete union in `out`.
            for i in 2..n {
                out.clear();
                union_into(tmp, list(i), out);
                if i + 1 < n {
                    std::mem::swap(tmp, out);
                }
            }
        }
    }
}

/// A forward cursor over ascending, distinct `u32` keys, each reported
/// with its index in the dictionary it walks. Both forms of a posting
/// dictionary implement it — the raw per-slice key array
/// ([`SliceCursor`]) and a window of a sealed period
/// ([`crate::sealed::Window`]) — so [`walk_cells_in_range`] is one walk
/// over either.
pub trait KeyCursor {
    /// Skip to the first key not below `key`, consume it and return it.
    /// Cursors only move forward.
    fn seek(&mut self, key: u32) -> Option<(usize, u32)>;
    /// Consume and return the next key.
    fn next(&mut self) -> Option<(usize, u32)>;
}

/// Anything [`walk_cells_in_range`] can walk: a [`KeyCursor`], or a
/// sorted key slice.
pub trait IntoKeyCursor {
    type Cursor: KeyCursor;
    fn into_cursor(self) -> Self::Cursor;
}

impl<C: KeyCursor> IntoKeyCursor for C {
    type Cursor = C;
    #[inline]
    fn into_cursor(self) -> C {
        self
    }
}

impl<'a> IntoKeyCursor for &'a [u32] {
    type Cursor = SliceCursor<'a>;
    #[inline]
    fn into_cursor(self) -> SliceCursor<'a> {
        SliceCursor { keys: self, at: 0 }
    }
}

/// A [`KeyCursor`] over a sorted key slice; seeks gallop forward from the
/// cursor, so a short hop costs a comparison or two.
#[derive(Clone, Debug)]
pub struct SliceCursor<'a> {
    keys: &'a [u32],
    /// Index of the next key.
    at: usize,
}

impl KeyCursor for SliceCursor<'_> {
    fn seek(&mut self, key: u32) -> Option<(usize, u32)> {
        let rest = &self.keys[self.at..];
        let mut bound = 1;
        while bound < rest.len() && rest[bound - 1] < key {
            bound *= 2;
        }
        let lo = bound / 2;
        self.at += lo + rest[lo..bound.min(rest.len())].partition_point(|&k| k < key);
        self.next()
    }

    #[inline]
    fn next(&mut self) -> Option<(usize, u32)> {
        let key = *self.keys.get(self.at)?;
        self.at += 1;
        Some((self.at - 1, key))
    }
}

/// Visit every entry of a sorted posting dictionary whose cell lies in
/// the inclusive cell-coordinate range `(lo_x, lo_y) ..= (hi_x, hi_y)`,
/// in ascending cell order.
///
/// `keys` walks occupied flat cell indices over `grid`. The walk seeks to
/// the range's first cell and then steps key by key, seeking again only
/// where a key falls left or right of the range's columns — to the range
/// on its own row, or on the next row. So a narrow range costs a seek
/// per occupied row and a wide one about a pass over the keys it spans.
/// `visit` receives the entry's index plus its cell coordinates; the
/// caller applies any finer test (e.g. disc distance) and fetches its
/// payload.
pub fn walk_cells_in_range(
    grid: &ppq_geo::GridSpec,
    keys: impl IntoKeyCursor,
    (lo_x, lo_y, hi_x, hi_y): (u32, u32, u32, u32),
    mut visit: impl FnMut(usize, u32, u32),
) {
    if lo_x > hi_x || lo_y > hi_y {
        return;
    }
    let mut keys = keys.into_cursor();
    let cols = grid.cols() as usize;
    let last = grid.flat(hi_x, hi_y);
    // `row` is the first cell of row `cy`: a key's column is its offset
    // from there, so only a key on a later row costs a division.
    let (mut cy, mut row) = (lo_y, grid.flat(0, lo_y));
    let mut entry = keys.seek(grid.flat(lo_x, lo_y) as u32);
    while let Some((i, cell)) = entry {
        let cell = cell as usize;
        if cell > last {
            break;
        }
        if cell >= row + cols {
            cy = (cell / cols) as u32;
            row = cy as usize * cols;
        }
        let cx = (cell - row) as u32;
        entry = if cx < lo_x {
            keys.seek((row + lo_x as usize) as u32)
        } else if cx > hi_x {
            // `cell ≤ last`, so this is not the range's last row.
            keys.seek((row + cols + lo_x as usize) as u32)
        } else {
            visit(i, cx, cy);
            keys.next()
        };
    }
}

/// A reusable sparse bitset over trajectory IDs for multi-list unions.
///
/// Inserting marks a bit; [`IdBitSet::drain_sorted_into`] emits the set
/// IDs in ascending order and resets only the words that were touched, so
/// clearing costs O(touched), not O(universe). The backing word array is
/// retained across queries — after the first query at a given ID range,
/// union-deduplication allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct IdBitSet {
    words: Vec<u64>,
    /// Indices of words with at least one bit set, in insertion order.
    touched: Vec<u32>,
}

impl IdBitSet {
    pub fn new() -> IdBitSet {
        IdBitSet::default()
    }

    /// Mark `id` as present.
    #[inline]
    pub fn insert(&mut self, id: u32) {
        let w = (id >> 6) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let word = &mut self.words[w];
        if *word == 0 {
            self.touched.push(w as u32);
        }
        *word |= 1u64 << (id & 63);
    }

    /// Mark every ID in `ids`.
    #[inline]
    pub fn insert_all(&mut self, ids: &[u32]) {
        for &id in ids {
            self.insert(id);
        }
    }

    /// Number of distinct IDs currently set.
    pub fn len(&self) -> usize {
        self.touched
            .iter()
            .map(|&w| self.words[w as usize].count_ones() as usize)
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Append the set IDs to `out` in ascending order, then clear the set
    /// for reuse.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<u32>) {
        self.touched.sort_unstable();
        for &w in &self.touched {
            let mut word = self.words[w as usize];
            self.words[w as usize] = 0;
            let base = w << 6;
            while word != 0 {
                out.push(base + word.trailing_zeros());
                word &= word - 1;
            }
        }
        self.touched.clear();
    }

    /// Clear without emitting.
    pub fn clear(&mut self) {
        for &w in &self.touched {
            self.words[w as usize] = 0;
        }
        self.touched.clear();
    }
}

/// Reusable per-query buffers shared by every index level: a raw-ID
/// staging list, the union bitset and an auxiliary list.
///
/// Mirrors the role `KMeansWorkspace` plays on the build path: create one
/// (per thread, for batched queries), reuse it across queries, and the
/// steady-state query path performs no heap allocation.
#[derive(Clone, Debug, Default)]
pub struct QueryScratch {
    /// Raw IDs staged before deduplication.
    pub ids: Vec<u32>,
    /// Union-dedup bitset.
    pub set: IdBitSet,
    /// Auxiliary staging (e.g. candidate region indices in the PI).
    pub aux: Vec<u32>,
}

impl QueryScratch {
    pub fn new() -> QueryScratch {
        QueryScratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_union(lists: &[&[u32]]) -> Vec<u32> {
        let mut all: Vec<u32> = lists.iter().flat_map(|l| l.iter().copied()).collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    #[test]
    fn intersect_matches_naive() {
        let a = vec![1, 3, 5, 9, 100, 2000];
        let b = vec![2, 3, 9, 100, 101, 3000];
        assert_eq!(intersect_count(&a, &b), 3);
        let mut out = Vec::new();
        intersect_into(&a, &b, &mut out);
        assert_eq!(out, vec![3, 9, 100]);
        assert_eq!(intersect_count(&a, &[]), 0);
        assert_eq!(intersect_count(&[], &b), 0);
    }

    #[test]
    fn union_matches_naive() {
        let a = vec![1, 5, 9];
        let b = vec![2, 5, 10, 11];
        let mut out = Vec::new();
        union_into(&a, &b, &mut out);
        assert_eq!(out, naive_union(&[&a, &b]));
    }

    #[test]
    fn union_many_matches_naive() {
        let lists: Vec<Vec<u32>> = vec![
            vec![1, 5, 9],
            vec![2, 5, 10, 11],
            vec![],
            vec![0, 9, 12],
            vec![3],
        ];
        let refs: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();
        let (mut tmp, mut out) = (Vec::new(), Vec::new());
        // Every prefix of the list set, covering the 0/1/2/fold arms.
        for n in 0..=refs.len() {
            union_many_into(&refs[..n], &mut tmp, &mut out);
            assert_eq!(out, naive_union(&refs[..n]), "prefix {n}");
        }
        // Disjoint shard-style inputs: strided id classes.
        let shards: Vec<Vec<u32>> = (0..4u32)
            .map(|s| (0..100u32).map(|i| i * 4 + s).collect())
            .collect();
        let refs: Vec<&[u32]> = shards.iter().map(Vec::as_slice).collect();
        union_many_into(&refs, &mut tmp, &mut out);
        assert_eq!(out, (0..400u32).collect::<Vec<_>>());
    }

    #[test]
    fn bitset_drains_sorted_and_resets() {
        let mut set = IdBitSet::new();
        // Insert out of order, across distant words, with duplicates.
        for &id in &[900_000u32, 3, 64, 65, 3, 127, 900_000, 0] {
            set.insert(id);
        }
        assert_eq!(set.len(), 6);
        let mut out = Vec::new();
        set.drain_sorted_into(&mut out);
        assert_eq!(out, vec![0, 3, 64, 65, 127, 900_000]);
        // Reusable: empty after drain, next round unaffected.
        assert!(set.is_empty());
        set.insert_all(&[7, 5]);
        out.clear();
        set.drain_sorted_into(&mut out);
        assert_eq!(out, vec![5, 7]);
    }

    #[test]
    fn bitset_union_equals_naive_on_random_lists() {
        // Deterministic pseudo-random lists (splitmix-style).
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        let lists: Vec<Vec<u32>> = (0..8)
            .map(|_| {
                let mut l: Vec<u32> = (0..200).map(|_| next() % 10_000).collect();
                l.sort_unstable();
                l.dedup();
                l
            })
            .collect();
        let refs: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();
        let mut set = IdBitSet::new();
        for l in &refs {
            set.insert_all(l);
        }
        let mut out = Vec::new();
        set.drain_sorted_into(&mut out);
        assert_eq!(out, naive_union(&refs));
    }

    #[test]
    fn bitset_clear_without_emit() {
        let mut set = IdBitSet::new();
        set.insert_all(&[1, 2, 3]);
        set.clear();
        assert!(set.is_empty());
        let mut out = Vec::new();
        set.drain_sorted_into(&mut out);
        assert!(out.is_empty());
    }
}
