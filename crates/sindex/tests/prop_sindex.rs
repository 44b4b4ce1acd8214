//! Property tests: overlap removal must partition exactly, ID-list
//! compression must be lossless, Huffman must roundtrip any byte soup, and
//! a posting dictionary must hold the same lists raw, merged and sealed.

use ppq_geo::{BBox, Point};
use ppq_sindex::dict::seal;
use ppq_sindex::huffman::{byte_histogram, Huffman};
use ppq_sindex::{remove_overlap, CompressedIdList, PostingDict};
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

fn lists_of(dict: &PostingDict, code: Option<&Huffman>) -> Model {
    let mut scratch = Vec::new();
    (0..dict.len())
        .map(|i| {
            let mut ids = Vec::new();
            dict.list_into(i, code, &mut scratch, &mut ids);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "list not ascending");
            (dict.keys()[i], ids.into_iter().collect())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lists inserted in two rounds (colliding keys merge) decode to their
    /// sorted, deduplicated input before and after sealing, whether or not
    /// the group packs, and `size_bytes` is the sum of the encoded parts.
    #[test]
    fn dictionary_holds_its_lists_raw_merged_and_sealed(first in arb_round(),
                                                        second in arb_round(),
                                                        other in arb_round()) {
        let raw = PostingDict::from_pairs(&mut pairs_of(&first))
            .merge(&PostingDict::from_pairs(&mut pairs_of(&second)));
        let mut neighbour = PostingDict::from_pairs(&mut pairs_of(&other));
        let model = model_of(&[&first, &second]);
        let neighbour_model = model_of(&[&other]);
        prop_assert_eq!(raw.keys().to_vec(), model.keys().copied().collect::<Vec<_>>());
        prop_assert_eq!(&lists_of(&raw, None), &model);

        // Raw: a key and an offset per list, then the gap bytes.
        let arena = |m: &Model| m.values().flat_map(gap_bytes).collect::<Vec<u8>>();
        prop_assert_eq!(raw.size_bytes(), 8 * model.len() + arena(&model).len());

        // Sealed with a neighbour: one code for the group, or none.
        let mut sealed = raw.clone();
        let code = seal(&mut [&mut sealed, &mut neighbour]);
        prop_assert_eq!(&lists_of(&sealed, code.as_ref()), &model);
        prop_assert_eq!(&lists_of(&neighbour, code.as_ref()), &neighbour_model);
        let raw_total = arena(&model).len() + arena(&neighbour_model).len();
        match &code {
            None => prop_assert_eq!(sealed.size_bytes(), raw.size_bytes()),
            Some(code) => {
                let packed = |m: &Model| code.encoded_bits(&arena(m)).div_ceil(8);
                prop_assert_eq!(sealed.size_bytes(), 8 * model.len() + packed(&model));
                prop_assert!(
                    packed(&model) + packed(&neighbour_model) + code.table_bytes() < raw_total,
                    "packed although not smaller"
                );
            }
        }
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
