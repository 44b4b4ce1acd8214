//! The per-shard *directory segment*, and the resident [`Directory`] a
//! chain of them opens into.
//!
//! A generation's page segment holds its TPI blocks' IDs back to back in
//! `(period, region, t, cell)` order. Its directory segment holds what a
//! query needs to find them without touching data pages: one *fragment*
//! per period that overlaps the generation's timestep window, made of
//!
//! * the period's extent and region table (rectangle and grid per
//!   region) as they stood at that generation — enough to run the same
//!   region/cell selection as the in-memory `Pi`;
//! * the window's block keys as a [`SealedPostings`] without its ID
//!   column, keyed like a sealed in-memory period from the fragment's
//!   first timestep `t_lo`. That key order is the page stream's order, so
//!   list `i` is a block whose IDs start `(id_base + list_range(i).start)
//!   · 4` bytes into the stream, `id_base` counting the IDs of the
//!   segment's earlier fragments.
//!
//! Generations partition time: a delta's fragments start just past the
//! horizon of the chain before it, so no block key is ever superseded
//! (only the region table of the period a delta extends is recorded
//! again). [`Directory::stitch`] turns a chain's fragments into one
//! [`Directory`], checking each generation once against its page segment;
//! the disk query path walks a fragment's keys with the same sealed slice
//! walk as the in-memory index, which is what keeps the answers
//! identical.

use crate::layout::RepoError;
use ppq_geo::{BBox, GridSpec};
use ppq_sindex::posting::KeyCursor;
use ppq_sindex::sealed::Window;
use ppq_sindex::SealedDict;
use ppq_storage::codec::{Decoder, Encoder};
use ppq_tpi::{SealedPostings, SealedSlice};

const DIR_MAGIC: u32 = 0x5050_5144; // "PPQD"
const DIR_VERSION: u32 = 2;

/// Encoded size of one region: rectangle, grid origin, cell side, shape.
const REGION_BYTES: usize = 16 * 3 + 8 + 4 + 4;

/// Encoded size of the smallest fragment: its header and an empty key
/// section.
const MIN_FRAGMENT_BYTES: usize = 4 * 5 + 16;

/// A region's query-relevant geometry (the in-memory `Region` minus its
/// payload).
#[derive(Clone, Debug)]
pub struct DiskRegion {
    pub bbox: BBox,
    pub grid: GridSpec,
}

/// One period's structure.
#[derive(Clone, Debug)]
pub struct DiskPeriod {
    pub t_start: u32,
    pub t_end: u32,
    pub regions: Vec<DiskRegion>,
}

impl DiskPeriod {
    /// Whether this period is `earlier` grown in place: the same start, an
    /// end not before its end, and its regions, bit for bit, as a prefix.
    pub fn extends(&self, earlier: &DiskPeriod) -> bool {
        let bits = |r: &DiskRegion| {
            let (min, max, origin) = (r.bbox.min, r.bbox.max, r.grid.origin());
            let at = [
                min.x,
                min.y,
                max.x,
                max.y,
                origin.x,
                origin.y,
                r.grid.cell_size(),
            ];
            (at.map(f64::to_bits), r.grid.cols(), r.grid.rows())
        };
        self.t_start == earlier.t_start
            && self.t_end >= earlier.t_end
            && earlier.regions.len() <= self.regions.len()
            && earlier
                .regions
                .iter()
                .zip(&self.regions)
                .all(|(a, b)| bits(a) == bits(b))
    }
}

/// Where one block's IDs live on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockMeta {
    /// Which attached page segment holds the block — the index of the
    /// owning *generation* in the shard's open-segment list.
    pub seg: u32,
    /// Page holding the block's first byte.
    pub page: u64,
    /// Byte offset of the block within that page's *payload* area.
    pub offset: u32,
    /// Number of u32 trajectory IDs in the block.
    pub n_ids: u32,
}

/// Inclusive occupied cell-coordinate bounds of one `(period, region, t)`
/// group, as [`Directory::group`] computes them.
#[derive(Clone, Copy, Debug)]
pub struct GroupBounds {
    pub min_cx: u32,
    pub min_cy: u32,
    pub max_cx: u32,
    pub max_cy: u32,
}

/// One group's block addresses, indexed by the list indices its key
/// window reports.
#[derive(Clone, Debug, Default)]
pub struct GroupMetas {
    first: usize,
    metas: Vec<BlockMeta>,
}

impl std::ops::Index<usize> for GroupMetas {
    type Output = BlockMeta;

    fn index(&self, i: usize) -> &BlockMeta {
        &self.metas[i - self.first]
    }
}

/// Builds one generation's directory segment from its blocks, fed in the
/// order the page stream holds them.
pub struct DirEncoder<'a> {
    /// The periods the generation records: the shard's table from index
    /// `first` on.
    periods: &'a [DiskPeriod],
    first: usize,
    fragments: Vec<PendingFragment>,
    n_ids: u64,
}

struct PendingFragment {
    t_lo: u32,
    span: u32,
    base: Box<[u64]>,
    lists: Vec<(u64, u32)>,
}

impl<'a> DirEncoder<'a> {
    /// The directory of a generation whose blocks all lie past `t_hi`
    /// (none for a base): one fragment for each of `periods`, the shard's
    /// period table from index `first` on, every one of which ends past
    /// `t_hi`.
    pub fn new(first: usize, periods: &'a [DiskPeriod], t_hi: Option<u32>) -> DirEncoder<'a> {
        let fragments = periods
            .iter()
            .map(|p| {
                let t_lo = t_hi.map_or(p.t_start, |h| p.t_start.max(h.saturating_add(1)));
                assert!(t_lo <= p.t_end, "period ends inside the committed horizon");
                let span = (p.t_end - t_lo).checked_add(1);
                let span = span.expect("period span exceeds u32");
                let cells = p.regions.iter().map(|r| r.grid.len() as u64);
                PendingFragment {
                    t_lo,
                    span,
                    base: SealedPostings::key_bases(cells, span)
                        .expect("period key space exceeds u64"),
                    lists: Vec::new(),
                }
            })
            .collect();
        DirEncoder {
            periods,
            first,
            fragments,
            n_ids: 0,
        }
    }

    /// Record the next block of the page stream.
    pub fn push(&mut self, period: u32, region: u32, t: u32, cell: u32, n_ids: u32) {
        let at = period as usize - self.first;
        let f = &mut self.fragments[at];
        let cells = self.periods[at].regions[region as usize].grid.len() as u64;
        let dt = t.checked_sub(f.t_lo).filter(|&dt| dt < f.span);
        let dt = dt.expect("block outside its generation's window");
        f.lists.push((
            f.base[region as usize] + u64::from(dt) * cells + u64::from(cell),
            n_ids,
        ));
        self.n_ids += u64::from(n_ids);
    }

    /// The segment's bytes.
    pub fn finish(self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32(DIR_MAGIC);
        e.put_u32(DIR_VERSION);
        e.put_u32(self.fragments.len() as u32);
        e.put_u64(self.n_ids);
        let mut keys = Vec::new();
        for (i, (f, p)) in self.fragments.iter().zip(self.periods).enumerate() {
            e.put_u32((self.first + i) as u32);
            e.put_u32(p.t_start);
            e.put_u32(p.t_end);
            e.put_u32(f.t_lo);
            e.put_u32(p.regions.len() as u32);
            for r in &p.regions {
                e.put_point(&r.bbox.min);
                e.put_point(&r.bbox.max);
                e.put_point(&r.grid.origin());
                e.put_f64(r.grid.cell_size());
                e.put_u32(r.grid.cols());
                e.put_u32(r.grid.rows());
            }
            keys.clear();
            SealedDict::from_lists(&f.lists).write_keys(&mut keys);
            e.put_bytes_raw(&keys);
        }
        e.finish().to_vec()
    }
}

/// One fragment of a directory segment, as decoded.
pub struct SegmentFragment {
    /// Index of the fragment's period in the shard's table.
    pub period: u32,
    /// The period's extent and regions at the fragment's generation.
    pub extent: DiskPeriod,
    /// First timestep keyed.
    pub t_lo: u32,
    pub keys: SealedPostings,
}

/// A decoded directory segment: its fragments in page-stream order and
/// the number of IDs their lists hold.
pub struct DirSegment {
    pub fragments: Vec<SegmentFragment>,
    pub n_ids: u64,
}

/// Checked decode of a directory segment. The bytes were already CRC-
/// and length-verified against the manifest; the structural checks here
/// guard against a buggy or version-skewed writer, so every malformed
/// input is a typed [`RepoError::Corrupt`], never a panic.
pub fn decode_dir_segment(bytes: &[u8]) -> Result<DirSegment, RepoError> {
    let corrupt = |what: &str| RepoError::Corrupt(format!("dir segment: {what}"));
    let mut d = Decoder::from_slice(bytes);
    if d.try_u32() != Some(DIR_MAGIC) {
        return Err(corrupt("bad magic"));
    }
    match d.try_u32() {
        Some(DIR_VERSION) => {}
        Some(v) => return Err(corrupt(&format!("unsupported version {v}"))),
        None => return Err(corrupt("truncated")),
    }
    let n_fragments = d.try_u32().ok_or_else(|| corrupt("truncated"))? as usize;
    let n_ids = d.try_u64().ok_or_else(|| corrupt("truncated"))?;
    if n_fragments.saturating_mul(MIN_FRAGMENT_BYTES) > d.remaining() {
        return Err(corrupt("fragment count"));
    }
    let mut fragments: Vec<SegmentFragment> = Vec::with_capacity(n_fragments);
    let mut listed = 0u64;
    for _ in 0..n_fragments {
        let mut field = || d.try_u32().ok_or_else(|| corrupt("truncated fragment"));
        let (period, t_start, t_end, t_lo) = (field()?, field()?, field()?, field()?);
        let n_regions = field()? as usize;
        if let Some(prev) = fragments.last() {
            if prev.period.checked_add(1) != Some(period) {
                return Err(corrupt("fragments not in consecutive period order"));
            }
            if t_start <= prev.extent.t_end {
                return Err(corrupt("periods overlap"));
            }
        }
        if !(t_start <= t_lo && t_lo <= t_end) {
            return Err(corrupt("fragment window outside its period"));
        }
        let span = (t_end - t_lo)
            .checked_add(1)
            .ok_or_else(|| corrupt("period span exceeds u32"))?;
        if n_regions.saturating_mul(REGION_BYTES) > d.remaining() {
            return Err(corrupt("region count"));
        }
        let mut regions = Vec::with_capacity(n_regions);
        for _ in 0..n_regions {
            let region = (|| {
                let (min, max, origin) = (d.try_point()?, d.try_point()?, d.try_point()?);
                Some((min, max, origin, d.try_f64()?, d.try_u32()?, d.try_u32()?))
            })();
            let (min, max, origin, cell, cols, rows) = region.ok_or_else(|| corrupt("region"))?;
            if !(cell.is_finite() && cell > 0.0) || cols == 0 || rows == 0 {
                return Err(corrupt("degenerate region grid"));
            }
            if u64::from(cols) * u64::from(rows) > u64::from(u32::MAX) {
                return Err(corrupt("region grid exceeds the u32 cell domain"));
            }
            regions.push(DiskRegion {
                bbox: BBox::new(min, max),
                grid: GridSpec::with_shape(origin, cell, cols, rows),
            });
        }
        let (dict, used) = SealedDict::read_keys(d.remaining_slice()).map_err(corrupt)?;
        d.try_skip(used).expect("read_keys stays inside the slice");
        let base = SealedPostings::key_bases(regions.iter().map(|r| r.grid.len() as u64), span)
            .ok_or_else(|| corrupt("key space exceeds u64"))?;
        if dict.last_key().is_some_and(|k| k >= base[base.len() - 1]) {
            return Err(corrupt("key outside the fragment's key space"));
        }
        listed += dict.num_ids() as u64;
        fragments.push(SegmentFragment {
            period,
            extent: DiskPeriod {
                t_start,
                t_end,
                regions,
            },
            t_lo,
            keys: SealedPostings::new(base, t_lo, span, dict),
        });
    }
    if d.remaining() != 0 {
        return Err(corrupt("trailing bytes"));
    }
    if listed != n_ids {
        return Err(corrupt(&format!(
            "fragments list {listed} ids, the header {n_ids}"
        )));
    }
    Ok(DirSegment { fragments, n_ids })
}

/// One generation's keys for part of one period, with the page geometry
/// its blocks are addressed in.
#[derive(Clone, Debug)]
pub struct Fragment {
    /// First timestep keyed.
    t_lo: u32,
    /// The generation's index in the chain, which is its page segment's.
    seg: u32,
    /// IDs before the fragment's first in its generation's page stream.
    id_base: u64,
    payload_capacity: u64,
    keys: SealedPostings,
}

impl Fragment {
    /// Region `ri`'s slice at `t`, `grid` being the region's grid; `None`
    /// when the fragment keys no such region or timestep.
    #[inline]
    pub fn slice(&self, ri: usize, t: u32, grid: &GridSpec) -> Option<SealedSlice<'_>> {
        self.keys.slice(ri, t, grid.len() as u64)
    }

    /// Where list `i`'s block lives: its IDs' byte span in the page
    /// stream, split into page and in-page offset.
    #[inline]
    pub fn meta(&self, i: usize) -> BlockMeta {
        let ids = self.keys.dict().list_range(i);
        let byte = (self.id_base + ids.start as u64) * 4;
        BlockMeta {
            seg: self.seg,
            page: byte / self.payload_capacity,
            offset: (byte % self.payload_capacity) as u32,
            n_ids: ids.len() as u32,
        }
    }
}

/// The resident directory of one shard: the stitched period table and,
/// per period, the fragments every generation wrote of it, oldest first.
#[derive(Clone, Debug, Default)]
pub struct Directory {
    periods: Vec<DiskPeriod>,
    fragments: Vec<Vec<Fragment>>,
}

impl Directory {
    /// Stitch a chain's directory segments, oldest first, each with its
    /// page segment's page count, on pages of `payload_capacity` payload
    /// bytes. The generations must partition time: in chain order a
    /// fragment starts just past the horizon so far and either extends
    /// the last period (same start, its committed regions a bit-identical
    /// prefix) or adds the next one; and each generation's lists must
    /// fill its page segment exactly. A violation is reported with the
    /// index of the generation that failed.
    pub fn stitch(
        payload_capacity: usize,
        generations: impl IntoIterator<Item = (DirSegment, u64)>,
    ) -> Result<Directory, (usize, String)> {
        let capacity = payload_capacity as u64;
        let mut dir = Directory::default();
        let mut horizon: Option<u32> = None;
        for (seg, (segment, num_pages)) in generations.into_iter().enumerate() {
            let fail = |what: String| Err((seg, what));
            let bytes = segment.n_ids * 4;
            if bytes.div_ceil(capacity) != num_pages {
                return fail(format!(
                    "directory lists {} ids ({bytes} B), the page segment has {num_pages} pages",
                    segment.n_ids
                ));
            }
            let mut id_base = 0u64;
            for f in segment.fragments {
                let p = f.period as usize;
                let lo = match horizon {
                    None => Some(f.extent.t_start),
                    Some(h) => h.checked_add(1).map(|next| next.max(f.extent.t_start)),
                };
                if lo != Some(f.t_lo) {
                    return fail(format!(
                        "period {p}: fragment starts at t {}, after horizon {horizon:?}",
                        f.t_lo
                    ));
                }
                if p == dir.periods.len() && horizon.is_none_or(|h| f.extent.t_start > h) {
                    dir.fragments.push(Vec::new());
                } else if p + 1 == dir.periods.len() {
                    if !f.extent.extends(&dir.periods[p]) {
                        return fail(format!("period {p}: fragment does not extend the period"));
                    }
                    dir.periods.pop();
                } else {
                    return fail(format!("period {p}: fragment out of sequence"));
                }
                horizon = Some(f.extent.t_end);
                dir.periods.push(f.extent);
                let n_ids = f.keys.dict().num_ids() as u64;
                dir.fragments[p].push(Fragment {
                    t_lo: f.t_lo,
                    seg: seg as u32,
                    id_base,
                    payload_capacity: capacity,
                    keys: f.keys,
                });
                id_base += n_ids;
            }
        }
        Ok(dir)
    }

    #[inline]
    pub fn periods(&self) -> &[DiskPeriod] {
        &self.periods
    }

    /// The period covering `t`, with its index (binary search; mirrors
    /// `Tpi::period_of`).
    pub fn period_of(&self, t: u32) -> Option<(usize, &DiskPeriod)> {
        let idx = self.periods.partition_point(|p| p.t_end < t);
        self.periods
            .get(idx)
            .filter(|p| p.t_start <= t && t <= p.t_end)
            .map(|p| (idx, p))
    }

    /// The fragment of period `period` that keys timestep `t`.
    #[inline]
    pub fn fragment(&self, period: usize, t: u32) -> Option<&Fragment> {
        let fragments = self.fragments.get(period)?;
        let at = fragments.partition_point(|f| f.t_lo <= t).checked_sub(1)?;
        Some(&fragments[at])
    }

    /// One `(period, region, t)` group: its key window (for
    /// `sindex::posting::walk_cells_in_range`), an owned table of its
    /// block addresses indexed by the window's list indices, and its
    /// occupied cell bounds; `None` when the group holds no block. Both
    /// the table and the bounds are computed per call: the query path
    /// walks [`Fragment::slice`] and addresses only the blocks it visits.
    pub fn group(
        &self,
        period: u32,
        region: u32,
        t: u32,
    ) -> Option<(Window<'_>, GroupMetas, GroupBounds)> {
        let grid = &self
            .periods
            .get(period as usize)?
            .regions
            .get(region as usize)?
            .grid;
        let fragment = self.fragment(period as usize, t)?;
        let slice = fragment.slice(region as usize, t, grid)?;
        let mut metas = GroupMetas::default();
        let mut bounds: Option<GroupBounds> = None;
        let mut keys = slice.keys();
        while let Some((i, cell)) = keys.next() {
            if metas.metas.is_empty() {
                metas.first = i;
            }
            metas.metas.push(fragment.meta(i));
            let (cx, cy) = grid.unflat(cell as usize);
            let b = bounds.get_or_insert(GroupBounds {
                min_cx: cx,
                min_cy: cy,
                max_cx: cx,
                max_cy: cy,
            });
            b.min_cx = b.min_cx.min(cx);
            b.min_cy = b.min_cy.min(cy);
            b.max_cx = b.max_cx.max(cx);
            b.max_cy = b.max_cy.max(cy);
        }
        Some((slice.keys(), metas, bounds?))
    }

    /// Visit every block in `(period, region, t, cell)` order — the
    /// order a compaction writes them in — stopping at the first error.
    pub fn try_for_each_block<E>(
        &self,
        mut visit: impl FnMut(u32, u32, u32, u32, BlockMeta) -> Result<(), E>,
    ) -> Result<(), E> {
        for (p, (period, fragments)) in self.periods.iter().zip(&self.fragments).enumerate() {
            for (ri, region) in period.regions.iter().enumerate() {
                let cells = region.grid.len() as u64;
                for fragment in fragments.iter().filter(|f| ri < f.keys.regions()) {
                    for (i, t, cell) in fragment.keys.region_keys(ri, cells, 0) {
                        visit(p as u32, ri as u32, t, cell, fragment.meta(i))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of blocks addressed.
    pub fn num_blocks(&self) -> usize {
        self.fragments
            .iter()
            .flatten()
            .map(|f| f.keys.dict().len())
            .sum()
    }

    /// Resident bytes: the period and region tables, the fragment lists
    /// and every fragment's key bases and dictionary.
    pub fn size_bytes(&self) -> usize {
        let regions: usize = self.periods.iter().map(|p| p.regions.len()).sum();
        let fragments = self.fragments.iter().flatten();
        let keys: usize = fragments.clone().map(|f| f.keys.size_bytes()).sum();
        self.periods.len() * (size_of::<DiskPeriod>() + size_of::<Vec<Fragment>>())
            + regions * size_of::<DiskRegion>()
            + fragments.count() * size_of::<Fragment>()
            + keys
    }
}
