//! The directory segment (version 2) and the stitched directory: a chain
//! of a base and a delta generation addresses every block, chains that do
//! not partition time are refused, and a damaged segment is a typed
//! corruption error, never a panic.

use ppq_geo::{BBox, GridSpec, Point};
use ppq_repo::dir::{decode_dir_segment, DirEncoder, Directory, DiskPeriod, DiskRegion};
use ppq_repo::RepoError;

/// Encoded size of one region in a fragment.
const REGION_BYTES: usize = 64;

fn region(x: f64) -> DiskRegion {
    DiskRegion {
        bbox: BBox::from_extents(x, 0.0, x + 4.0, 4.0),
        grid: GridSpec::with_shape(Point::new(x, 0.0), 1.0, 4, 4),
    }
}

/// Two periods; the second, open one gains a region in the delta.
fn periods(delta: bool) -> Vec<DiskPeriod> {
    let mut open = vec![region(10.0)];
    if delta {
        open.push(region(20.0));
    }
    vec![
        DiskPeriod {
            t_start: 0,
            t_end: 2,
            regions: vec![region(0.0)],
        },
        DiskPeriod {
            t_start: 3,
            t_end: if delta { 6 } else { 4 },
            regions: open,
        },
    ]
}

/// `(period, region, t, cell, n_ids)`: base blocks at t ≤ 4, delta blocks
/// at t 5–6; 7 ids each, two 16-byte page payloads each.
const BASE: [(u32, u32, u32, u32, u32); 4] = [
    (0, 0, 1, 2, 3),
    (0, 0, 1, 9, 1),
    (0, 0, 2, 5, 2),
    (1, 0, 4, 0, 1),
];
const DELTA: [(u32, u32, u32, u32, u32); 3] = [(1, 0, 5, 15, 2), (1, 1, 5, 3, 1), (1, 1, 6, 3, 4)];

fn encode(
    first: usize,
    periods: &[DiskPeriod],
    t_hi: Option<u32>,
    blocks: &[(u32, u32, u32, u32, u32)],
) -> Vec<u8> {
    let mut enc = DirEncoder::new(first, periods, t_hi);
    for &(p, r, t, c, n) in blocks {
        enc.push(p, r, t, c, n);
    }
    enc.finish()
}

fn chain() -> (Vec<u8>, Vec<u8>) {
    let delta = periods(true);
    (
        encode(0, &periods(false), None, &BASE),
        encode(1, &delta[1..], Some(4), &DELTA),
    )
}

fn stitch(segments: &[(&[u8], u64)]) -> Result<Directory, String> {
    let decoded = segments
        .iter()
        .map(|&(bytes, pages)| Ok((decode_dir_segment(bytes).map_err(|e| e.to_string())?, pages)))
        .collect::<Result<Vec<_>, String>>()?;
    Directory::stitch(16, decoded).map_err(|(g, what)| format!("generation {g}: {what}"))
}

#[test]
fn stitched_chain_addresses_every_block() {
    let (base, delta) = chain();
    let dir = stitch(&[(&base, 2), (&delta, 2)]).unwrap();
    assert_eq!(dir.num_blocks(), 7);
    assert_eq!(
        (dir.periods()[1].t_end, dir.periods()[1].regions.len()),
        (6, 2)
    );
    let mut seen = Vec::new();
    dir.try_for_each_block(|p, r, t, c, m| {
        seen.push((p, r, t, c, m.n_ids, m.seg, m.page, m.offset));
        Ok::<_, ()>(())
    })
    .unwrap();
    // Each generation's ids from 0, 4 bytes each, 16 bytes per page; the
    // open period's region 0 before region 1, across both generations.
    assert_eq!(
        seen,
        [
            (0, 0, 1, 2, 3, 0, 0, 0),
            (0, 0, 1, 9, 1, 0, 0, 12),
            (0, 0, 2, 5, 2, 0, 1, 0),
            (1, 0, 4, 0, 1, 0, 1, 8),
            (1, 0, 5, 15, 2, 1, 0, 0),
            (1, 1, 5, 3, 1, 1, 0, 8),
            (1, 1, 6, 3, 4, 1, 0, 12),
        ]
    );
    let (cells, metas, bounds) = dir.group(0, 0, 1).unwrap();
    let mut walked = Vec::new();
    ppq_sindex::posting::walk_cells_in_range(&region(0.0).grid, cells, (0, 0, 3, 3), |i, _, _| {
        walked.push(metas[i].offset)
    });
    assert_eq!(walked, [0, 12]);
    // Cells 2 and 9 on a 4-wide grid are (2,0) and (1,2).
    let b = (bounds.min_cx, bounds.min_cy, bounds.max_cx, bounds.max_cy);
    assert_eq!(b, (1, 0, 2, 2));
    let block = |p: usize, r: usize, t: u32, cell: u32| {
        let grid = &dir.periods()[p].regions[r].grid;
        let fragment = dir.fragment(p, t)?;
        Some(fragment.meta(fragment.slice(r, t, grid)?.find(cell)?))
    };
    assert_eq!(block(1, 1, 6, 3).unwrap().n_ids, 4);
    assert!(block(1, 1, 4, 3).is_none(), "region 1 was added at t 5");
    assert!(block(0, 0, 2, 6).is_none());
    assert!(dir.group(0, 0, 0).is_none());
    assert_eq!(dir.period_of(5).unwrap().0, 1);
    // Each segment's newest fragment keys the open period from its own
    // window on.
    for (segment, t_lo, t_end, lists) in [(&base, 3, 4, 1), (&delta, 5, 6, 3)] {
        let last = decode_dir_segment(segment)
            .unwrap()
            .fragments
            .pop()
            .unwrap();
        assert_eq!(
            (last.period, last.t_lo, last.extent.t_end),
            (1, t_lo, t_end)
        );
        assert_eq!(last.keys.dict().len(), lists);
    }
    assert!(dir.period_of(7).is_none());
}

#[test]
fn stitching_refuses_chains_that_do_not_partition_time() {
    let (base, delta) = chain();
    let table = periods(true);
    // A delta restarting inside the base's window, one skipping a period,
    // one whose region table drops a committed region, and lists the page
    // segment cannot hold.
    let early = encode(1, &table[1..], Some(3), &DELTA);
    let gap = encode(3, &table[1..], Some(4), &[]);
    let mut moved = table[1..].to_vec();
    moved[0].regions.remove(0);
    let shrunk = encode(1, &moved, Some(4), &[]);
    for bad in [&early, &gap, &shrunk] {
        assert!(stitch(&[(&base, 2), (bad, 2)])
            .unwrap_err()
            .starts_with("generation 1"));
    }
    assert!(stitch(&[(&base, 2), (&delta, 1)]).is_err());
    assert!(stitch(&[(&base, 3)]).is_err());
    assert!(stitch(&[(&base, 2), (&delta, 2)]).is_ok());
}

/// Every cut of a segment and every count field pushed up or down is a
/// typed corruption error.
#[test]
fn decode_refuses_damage() {
    let (base, delta) = chain();
    for good in [&base, &delta] {
        decode_dir_segment(good).unwrap();
        for cut in 0..good.len() {
            let cut = &good[..cut];
            assert!(matches!(
                decode_dir_segment(cut),
                Err(RepoError::Corrupt(_))
            ));
        }
    }
    // Header: fragment count at 8, id count at 12. The first fragment:
    // region count at 36, then its regions, then its key section's key
    // count, id count and largest key.
    let regions = u32::from_le_bytes(delta[36..40].try_into().unwrap()) as usize;
    let keys = 40 + REGION_BYTES * regions;
    for (at, width) in [
        (8, 4),
        (12, 8),
        (36, 4),
        (keys, 4),
        (keys + 4, 4),
        (keys + 8, 8),
    ] {
        for step in [1u64, u64::MAX] {
            let mut bad = delta.clone();
            let mut v = [0u8; 8];
            v[..width].copy_from_slice(&bad[at..at + width]);
            let pushed = u64::from_le_bytes(v).wrapping_add(step).to_le_bytes();
            bad[at..at + width].copy_from_slice(&pushed[..width]);
            let decoded = decode_dir_segment(&bad);
            assert!(
                matches!(decoded, Err(RepoError::Corrupt(_))),
                "field at {at} pushed by {step}"
            );
        }
    }
    // A fragment keying every timestep from 0 to u32::MAX: its span does
    // not fit the key space's u32. The first fragment's t_end is at 28.
    let mut whole_clock = base.clone();
    whole_clock[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
    let refused = decode_dir_segment(&whole_clock);
    assert!(matches!(refused, Err(RepoError::Corrupt(m)) if m.contains("span")));
    let mut v1 = delta.clone();
    v1[4] = 1;
    let refused = decode_dir_segment(&v1);
    assert!(matches!(refused, Err(RepoError::Corrupt(m)) if m.contains("version 1")));
}
