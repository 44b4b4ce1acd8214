//! Property tests: overlap removal must partition exactly, ID-list
//! compression must be lossless, Huffman must roundtrip any byte soup, a
//! raw posting dictionary must hold the same lists inserted and merged, a
//! sealed dictionary must answer like a `BTreeMap`, and the cell-range
//! walk must visit exactly the keys in range over either form.

use ppq_geo::{BBox, GridSpec, Point};
use ppq_sindex::huffman::{byte_histogram, Huffman};
use ppq_sindex::posting::{walk_cells_in_range, KeyCursor};
use ppq_sindex::sealed::SAMPLE;
use ppq_sindex::{remove_overlap, CompressedIdList, PostingDict, SealedDict};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn arb_bbox() -> impl Strategy<Value = BBox> {
    (
        -100.0f64..100.0,
        -100.0f64..100.0,
        0.5f64..60.0,
        0.5f64..60.0,
    )
        .prop_map(|(x, y, w, h)| BBox::from_extents(x, y, x + w, y + h))
}

/// One posting list's ids, in the shapes an index meets: nothing, a single
/// id, a dense run, scattered ids, the top of the id domain.
fn arb_ids() -> impl Strategy<Value = Vec<u32>> {
    (
        0u32..5,
        0u32..1_000_000,
        1u32..200,
        prop::collection::vec(0u32..1_000_000, 0..40),
    )
        .prop_map(|(shape, base, run, scattered)| match shape {
            0 => vec![],
            1 => vec![base],
            2 => (base..base + run).collect(),
            3 => scattered,
            _ => vec![base, u32::MAX - run, u32::MAX],
        })
}

/// One insertion round: lists under keys from a small domain, so that
/// keys repeat within a round and collide across rounds.
fn arb_round() -> impl Strategy<Value = Vec<(u32, Vec<u32>)>> {
    prop::collection::vec((0u32..24, arb_ids()), 0..30)
}

fn pairs_of(round: &[(u32, Vec<u32>)]) -> Vec<(u32, u32)> {
    round
        .iter()
        .flat_map(|(key, ids)| ids.iter().map(move |&id| (*key, id)))
        .collect()
}

type Model = BTreeMap<u32, BTreeSet<u32>>;

fn model_of(rounds: &[&[(u32, Vec<u32>)]]) -> Model {
    let mut model = Model::new();
    for (key, id) in rounds.iter().flat_map(|r| pairs_of(r)) {
        model.entry(key).or_default().insert(id);
    }
    model
}

/// The delta + LEB128 bytes of one list, written out independently of the
/// codec under test.
fn gap_bytes(ids: &BTreeSet<u32>) -> Vec<u8> {
    let mut out = Vec::new();
    let mut prev = 0u32;
    for &id in ids {
        let mut gap = id - prev;
        prev = id;
        while gap >= 0x80 {
            out.push(gap as u8 | 0x80);
            gap >>= 7;
        }
        out.push(gap as u8);
    }
    out
}

fn lists_of(dict: &PostingDict) -> Model {
    (0..dict.len())
        .map(|i| {
            let mut ids = Vec::new();
            dict.list_into(i, &mut ids);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "list not ascending");
            (dict.keys()[i], ids.into_iter().collect())
        })
        .collect()
}

type SealedModel = BTreeMap<u64, BTreeSet<u32>>;

/// A sealed period's lists in the shapes an index meets: keys dense in a
/// small universe, sparse in a larger one, straddling `u32::MAX` or
/// spread over the whole `u64` range; ids at width 1, at width 32, or
/// anywhere below a million. The length range reaches past several
/// select samples.
fn arb_sealed() -> impl Strategy<Value = SealedModel> {
    (
        0u32..4,
        0u32..3,
        prop::collection::vec((any::<u64>(), 1u32..4, any::<u32>()), 0..400),
    )
        .prop_map(|(key_shape, id_shape, entries)| {
            let mut model = SealedModel::new();
            for (k, n, r) in entries {
                let key = match key_shape {
                    0 => k % 64,
                    1 => k % 50_000,
                    2 => u64::from(u32::MAX) - 1000 + k % (1 << 34),
                    _ => k >> 1,
                };
                let ids = model.entry(key).or_default();
                for j in 0..n {
                    ids.insert(match id_shape {
                        0 => r.wrapping_add(j) % 2,
                        1 => u32::MAX - r.wrapping_add(j) % 3,
                        _ => r.wrapping_add(j * 7919) % 1_000_000,
                    });
                }
            }
            model
        })
}

fn postings_of(model: &SealedModel) -> Vec<(u64, u32)> {
    model
        .iter()
        .flat_map(|(&key, ids)| ids.iter().map(move |&id| (key, id)))
        .collect()
}

/// Every check of a sealed dictionary against its model: iteration,
/// lists, lookups of present and absent keys, forward seeks from a fresh
/// cursor and along one cursor, and the size from the Elias–Fano counts.
fn check_sealed(dict: &SealedDict, model: &SealedModel) {
    let keys: Vec<u64> = model.keys().copied().collect();
    prop_assert_eq!(dict.len(), keys.len());
    prop_assert_eq!(
        dict.num_ids(),
        model.values().map(BTreeSet::len).sum::<usize>()
    );
    let walked: Vec<(usize, u64)> = dict.cursor().collect();
    prop_assert_eq!(walked, keys.iter().copied().enumerate().collect::<Vec<_>>());
    for (i, ids) in model.values().enumerate() {
        let mut got = Vec::new();
        dict.list_into(i, &mut got);
        prop_assert_eq!(got, ids.iter().copied().collect::<Vec<_>>());
    }

    // Probes at, just below and just above every key, plus both ends.
    let mut probes: Vec<u64> = keys
        .iter()
        .flat_map(|&k| [k.saturating_sub(1), k, k.saturating_add(1)])
        .chain([0, u64::MAX])
        .collect();
    probes.sort_unstable();
    probes.dedup();
    let first_at_or_after = |from: usize, probe: u64| {
        (from..keys.len())
            .find(|&j| keys[j] >= probe)
            .map(|j| (j, keys[j]))
    };
    for &probe in &probes {
        let want = keys.binary_search(&probe).ok();
        prop_assert_eq!(dict.find(probe), want, "find {}", probe);
        prop_assert_eq!(dict.cursor().seek(probe), first_at_or_after(0, probe));
    }

    // One cursor moving forward: every third probe is a seek, the others
    // step with `next`; the model tracks the next unconsumed index.
    let mut cursor = dict.cursor();
    let mut at = 0usize;
    for (n, &probe) in probes.iter().enumerate() {
        let want = if n % 3 == 0 {
            first_at_or_after(at, probe)
        } else {
            keys.get(at).map(|&k| (at, k))
        };
        let got = if n % 3 == 0 {
            cursor.seek(probe)
        } else {
            cursor.next()
        };
        prop_assert_eq!(got, want, "step {} probe {}", n, probe);
        at = want.map_or(keys.len(), |(j, _)| j + 1);
    }

    // The buffers at their Elias–Fano lengths, samples included.
    let (n, n_ids) = (keys.len(), dict.num_ids());
    let expect = match keys.last() {
        None => 0,
        Some(&last) => {
            let l = ((u128::from(last) + 1) / n as u128).ilog2().min(63) as usize;
            let high_bits = n + (last >> l) as usize + 1;
            let max_id = model
                .values()
                .flat_map(|ids| ids.iter())
                .max()
                .copied()
                .unwrap_or(0);
            let id_bits = (32 - max_id.leading_zeros()).max(1) as usize;
            let words = (n * l).div_ceil(64)
                + high_bits.div_ceil(64)
                + n_ids.div_ceil(64)
                + (n_ids * id_bits).div_ceil(64);
            let samples = (high_bits - n).div_ceil(SAMPLE) + n.div_ceil(SAMPLE);
            8 * words + 4 * samples
        }
    };
    prop_assert_eq!(dict.size_bytes(), expect);
}

/// What `walk_cells_in_range` must visit: every occupied cell in range,
/// ascending, as `(index, cx, cy)`.
fn cells_in_range(
    grid: &GridSpec,
    cells: &[u32],
    (lo_x, lo_y, hi_x, hi_y): (u32, u32, u32, u32),
) -> Vec<(usize, u32, u32)> {
    cells
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let (cx, cy) = grid.unflat(c as usize);
            (i, cx, cy)
        })
        .filter(|&(_, cx, cy)| cx >= lo_x && cx <= hi_x && cy >= lo_y && cy <= hi_y)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lists inserted in two rounds (colliding keys merge) decode to their
    /// sorted, deduplicated input, and `size_bytes` is a key and an
    /// offset per list plus the gap bytes.
    #[test]
    fn raw_dictionary_holds_its_lists_inserted_and_merged(first in arb_round(),
                                                           second in arb_round()) {
        let raw = PostingDict::from_pairs(&mut pairs_of(&first))
            .merge(&PostingDict::from_pairs(&mut pairs_of(&second)));
        let model = model_of(&[&first, &second]);
        prop_assert_eq!(raw.keys().to_vec(), model.keys().copied().collect::<Vec<_>>());
        prop_assert_eq!(&lists_of(&raw), &model);
        let arena: usize = model.values().map(|ids| gap_bytes(ids).len()).sum();
        prop_assert_eq!(raw.size_bytes(), 8 * model.len() + arena);
    }

    /// A sealed dictionary answers every lookup, seek and step like the
    /// `BTreeMap` it was built from, at its Elias–Fano size.
    #[test]
    fn sealed_dictionary_matches_a_btreemap(model in arb_sealed()) {
        check_sealed(&SealedDict::from_postings(&postings_of(&model)), &model);
    }

    /// The cell-range walk visits exactly the occupied cells in range, in
    /// order, over a raw key slice and over a window of a sealed
    /// dictionary whose keys also sit on both sides of the window (from
    /// ranges of a few cells to ranges wider than the whole grid).
    #[test]
    fn walk_visits_exactly_the_cells_in_range(cols in 1u32..40,
                                              rows in 1u32..40,
                                              occupied in prop::collection::vec(any::<u32>(), 0..300),
                                              corners in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
                                              wide in any::<bool>(),
                                              base in any::<u64>()) {
        let grid = GridSpec::with_shape(Point::ORIGIN, 1.0, cols, rows);
        let n_cells = cols * rows;
        let mut cells: Vec<u32> = occupied.iter().map(|c| c % n_cells).collect();
        cells.sort_unstable();
        cells.dedup();
        let (a, b, c, d) = corners;
        let range = if wide {
            (0, 0, cols - 1, rows - 1)
        } else {
            // Unordered corners: an inverted range must visit nothing.
            (a % cols, b % rows, c % cols, d % rows)
        };
        let want = cells_in_range(&grid, &cells, range);
        let mut got = Vec::new();
        walk_cells_in_range(&grid, cells.as_slice(), range, |i, cx, cy| got.push((i, cx, cy)));
        prop_assert_eq!(&got, &want);

        // The same cells as one (region, t) window of a period: a key just
        // before the window and one at its end must stay outside it.
        let lo = base % (1 << 40) + 1;
        let hi = lo + u64::from(n_cells);
        let mut postings = vec![(lo - 1, 7u32)];
        postings.extend(cells.iter().map(|&c| (lo + u64::from(c), c)));
        postings.push((hi, 9));
        let dict = SealedDict::from_postings(&postings);
        let mut got = Vec::new();
        walk_cells_in_range(&grid, dict.window(lo, hi), range, |i, cx, cy| got.push((i - 1, cx, cy)));
        prop_assert_eq!(&got, &want);
        // Window cursors report offsets, then stop at the window's end.
        let mut window = dict.window(lo, hi);
        let offsets: Vec<u32> = std::iter::from_fn(|| window.next().map(|(_, k)| k)).collect();
        prop_assert_eq!(offsets, cells);
    }

    /// After removal, sample points are covered iff they were in the rect
    /// but not in any obstacle — and never covered twice.
    #[test]
    fn overlap_removal_partitions(rect in arb_bbox(),
                                  obstacles in prop::collection::vec(arb_bbox(), 0..6)) {
        let pieces = remove_overlap(&rect, &obstacles);
        // Pieces stay inside the original rect and are pairwise disjoint.
        for p in &pieces {
            prop_assert!(rect.contains_box(p));
        }
        for (i, a) in pieces.iter().enumerate() {
            for b in pieces.iter().skip(i + 1) {
                if let Some(inter) = a.intersection(b) {
                    prop_assert!(inter.area() < 1e-9);
                }
            }
        }
        // Grid-sample the rect interior.
        for i in 0..12 {
            for j in 0..12 {
                let p = Point::new(
                    rect.min.x + rect.width() * (i as f64 + 0.5) / 12.0,
                    rect.min.y + rect.height() * (j as f64 + 0.5) / 12.0,
                );
                let in_obstacle = obstacles.iter().any(|o| o.contains(&p));
                let cover = pieces.iter().filter(|r| r.contains(&p)).count();
                if in_obstacle {
                    // Points strictly inside an obstacle must be uncovered
                    // (boundary points may sit on shared piece edges).
                    let strictly_inside = obstacles.iter().any(|o| {
                        p.x > o.min.x && p.x < o.max.x && p.y > o.min.y && p.y < o.max.y
                    });
                    if strictly_inside {
                        prop_assert_eq!(cover, 0, "covered obstacle point {:?}", p);
                    }
                } else {
                    prop_assert!(cover >= 1, "lost point {:?}", p);
                }
            }
        }
    }

    /// Compression is lossless for arbitrary ID sets.
    #[test]
    fn idlist_roundtrip(ids in prop::collection::vec(0u32..1_000_000, 0..300)) {
        let c = CompressedIdList::compress(&ids);
        let mut expect = ids.clone();
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(c.decompress(), expect);
    }

    /// Huffman roundtrips arbitrary non-empty payloads.
    #[test]
    fn huffman_roundtrip(data in prop::collection::vec(any::<u8>(), 1..600)) {
        let h = Huffman::from_frequencies(&byte_histogram(&data));
        let (bits, len) = h.encode(&data);
        prop_assert_eq!(h.decode(&bits, len, data.len()), data);
    }
}

/// Edge shapes the generator reaches only by chance: no keys, one key at
/// either end of the `u64` range with an id at width 1 or 32, and a
/// universe far above `u32::MAX` with keys on both sides of it.
#[test]
fn sealed_dictionary_edge_shapes() {
    let shapes: Vec<Vec<(u64, Vec<u32>)>> = vec![
        vec![],
        vec![(0, vec![0])],
        vec![(u64::MAX, vec![u32::MAX])],
        vec![(5, vec![0, 1])],
        vec![
            (3, vec![1]),
            (u64::from(u32::MAX), vec![0, u32::MAX]),
            (u64::from(u32::MAX) + 1, vec![2]),
            (1 << 50, vec![u32::MAX]),
        ],
    ];
    for shape in shapes {
        let model: SealedModel = shape
            .into_iter()
            .map(|(k, ids)| (k, ids.into_iter().collect()))
            .collect();
        check_sealed(&SealedDict::from_postings(&postings_of(&model)), &model);
    }
}
