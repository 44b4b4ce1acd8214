//! The partition index PI (paper Algorithm 3) and the TRD/ADR machinery
//! (Definition 5.1, Eqs. 12–14).
//!
//! Query-path layout: the PI keeps a coarse locator grid over its region
//! rectangles, so a rectangle query touches only the regions whose boxes
//! the locator proposes and, within each, only the posting keys of the
//! covered rows (one [`walk_cells_in_range`] per region), instead of the
//! seed's scan over every region and every covered cell.
//!
//! Lifecycle: while its period is open, each region keeps one raw
//! [`PostingDict`] per timestep, so insertions merge cheaply.
//! [`Pi::seal`] rewrites every region's dictionaries in one pass into a
//! single [`SealedDict`] for the whole period, keyed by `(region,
//! timestep, cell)`; after that the PI is immutable. A query reaches a
//! `(region, timestep)` slice of either form through one `SliceRef`, and
//! the same walk runs over both.

use ppq_geo::{BBox, GridSpec, Point};
use ppq_quantize::{bounded_kmeans, KMeansConfig};
use ppq_sindex::posting::walk_cells_in_range;
use ppq_sindex::sealed::Window;
use ppq_sindex::{remove_overlap, PostingDict, QueryScratch, SealedDict};

/// Parameters of PI construction.
#[derive(Clone, Debug)]
pub struct PiConfig {
    /// Partition threshold `ε_s` (Eq. 7 with `ε_p` replaced by `ε_s`).
    pub eps_s: f64,
    /// Grid cell side `g_c`.
    pub gc: f64,
    /// Bounded k-means knobs.
    pub kmeans: KMeansConfig,
}

impl Default for PiConfig {
    fn default() -> Self {
        // Paper defaults: ε_s = 0.1 (degrees), g_c = 100 m.
        PiConfig {
            eps_s: 0.1,
            gc: 100.0 / 111_320.0,
            kmeans: KMeansConfig::default(),
        }
    }
}

/// A timestep's points split into (covered, uncovered) by the current
/// regions.
pub type CoverageSplit = (Vec<(u32, Point)>, Vec<(u32, Point)>);

/// One timestep's occupied cells in an open period: the raw posting
/// dictionary keyed by flat cell index.
#[derive(Clone, Debug)]
struct SlicePostings {
    t: u32,
    dict: PostingDict,
}

/// Encoded size of a raw slice header: timestep and list count.
const SLICE_HEADER_BYTES: usize = 4 + 4;

/// Encoded size of a region header: bounding box, grid and bookkeeping.
const REGION_HEADER_BYTES: usize = 4 * 8 + 4 * 8 + 8;

/// Encoded size of a PI header.
const PI_HEADER_BYTES: usize = 16;

/// One non-overlapping rectangle with its grid and per-timestep ID lists.
#[derive(Clone, Debug)]
pub struct Region {
    bbox: BBox,
    grid: GridSpec,
    /// Density `d(R, t_build)` measured when the region was created — the
    /// reference value of Eq. 13.
    built_density: f64,
    /// One raw posting dictionary per populated timestep, ascending;
    /// empty once the PI is sealed.
    slices: Vec<SlicePostings>,
    points_indexed: usize,
}

impl Region {
    fn new(bbox: BBox, gc: f64) -> Region {
        let grid = GridSpec::covering(&bbox, gc);
        // Posting keys are u32 flat cell indices; a grid that exceeds
        // that domain would silently alias cells after truncation.
        assert!(
            grid.len() <= u32::MAX as usize,
            "region grid has {} cells, exceeding the u32 posting-key domain \
             (grow gc or shrink the region)",
            grid.len()
        );
        Region {
            bbox,
            grid,
            built_density: 0.0,
            slices: Vec::new(),
            points_indexed: 0,
        }
    }

    #[inline]
    pub fn bbox(&self) -> &BBox {
        &self.bbox
    }

    /// The region's `g_c` grid (used by the disk layout and by reference
    /// evaluators that reconstruct the seed's per-cell scan).
    #[inline]
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// TRD of this region for an arbitrary point population (Definition
    /// 5.1). Degenerate (zero-area) regions fall back to the raw count so
    /// the ratio of Eq. 13 stays meaningful.
    pub fn density_of(&self, count: usize) -> f64 {
        let area = self.bbox.area();
        if area > 0.0 {
            count as f64 / area
        } else {
            count as f64
        }
    }

    #[inline]
    pub fn built_density(&self) -> f64 {
        self.built_density
    }

    #[inline]
    pub fn points_indexed(&self) -> usize {
        self.points_indexed
    }

    /// Index `(cell, id)` postings at `t` (sorted and deduplicated in
    /// place).
    fn insert_slice(&mut self, t: u32, pairs: &mut Vec<(u32, u32)>) {
        self.points_indexed += pairs.len();
        let incoming = PostingDict::from_pairs(pairs);
        let i = self.slices.partition_point(|s| s.t < t);
        // First population of a timestep is the common case; a second
        // insertion round into the same timestep merges the dictionaries.
        match self.slices.get_mut(i).filter(|s| s.t == t) {
            Some(slice) => slice.dict = slice.dict.merge(&incoming),
            None => self.slices.insert(i, SlicePostings { t, dict: incoming }),
        }
    }

    /// Encoded size: region + grid header, then every raw slice's header,
    /// keys, offsets and payload (none once sealed).
    pub fn size_bytes(&self) -> usize {
        REGION_HEADER_BYTES
            + self
                .slices
                .iter()
                .map(|s| SLICE_HEADER_BYTES + s.dict.size_bytes())
                .sum::<usize>()
    }
}

/// A sealed run of a period's timesteps: one [`SealedDict`] over the
/// composite key `base[r] + (t − t_start)·cells_r + cell`, so ascending
/// key order is region, then timestep, then cell — [`Pi::for_each_block`]'s
/// order. A sealed PI holds one over its whole period; a repository
/// directory holds one without its ID column for each generation's part
/// of a period, and both reach a `(region, timestep)` slice through
/// [`SealedPostings::slice`].
#[derive(Clone, Debug)]
pub struct SealedPostings {
    /// Region `r`'s keys lie in `base[r]..base[r + 1]`.
    base: Box<[u64]>,
    /// Timesteps `t_start..t_start + span` are keyed.
    t_start: u32,
    span: u32,
    dict: SealedDict,
}

impl SealedPostings {
    /// The key bases of regions with `cells` grid cells each over `span`
    /// timesteps: one more than there are regions, the last the size of
    /// the key space. `None` when the key space exceeds `u64`.
    pub fn key_bases(cells: impl IntoIterator<Item = u64>, span: u32) -> Option<Box<[u64]>> {
        let mut base = vec![0u64];
        let mut next = 0u64;
        for c in cells {
            next = next.checked_add(u64::from(span).checked_mul(c)?)?;
            base.push(next);
        }
        Some(base.into())
    }

    /// `dict` keyed from `base` ([`SealedPostings::key_bases`]) over the
    /// timesteps `t_start..t_start + span`.
    pub fn new(base: Box<[u64]>, t_start: u32, span: u32, dict: SealedDict) -> SealedPostings {
        debug_assert!(!base.is_empty() && dict.last_key().is_none_or(|k| k < base[base.len() - 1]));
        SealedPostings {
            base,
            t_start,
            span,
            dict,
        }
    }

    #[inline]
    pub fn dict(&self) -> &SealedDict {
        &self.dict
    }

    /// Number of regions keyed.
    #[inline]
    pub fn regions(&self) -> usize {
        self.base.len() - 1
    }

    /// Region `ri`'s slice at `t`, its grid having `cells` cells; `None`
    /// when `t` lies outside the span or `ri` outside the keyed regions.
    #[inline]
    pub fn slice(&self, ri: usize, t: u32, cells: u64) -> Option<SealedSlice<'_>> {
        let dt = t.checked_sub(self.t_start).filter(|&dt| dt < self.span)?;
        if ri >= self.regions() {
            return None;
        }
        let lo = self.base[ri] + u64::from(dt) * cells;
        Some(SealedSlice {
            dict: &self.dict,
            lo,
            hi: lo + cells,
        })
    }

    /// Region `ri`'s keys, its grid having `cells` cells, as ascending
    /// `(list index, t, cell)`, skipping the first `skip` timesteps.
    pub fn region_keys(
        &self,
        ri: usize,
        cells: u64,
        skip: u64,
    ) -> impl Iterator<Item = (usize, u32, u32)> + '_ {
        let (start, end) = (self.base[ri], self.base[ri + 1]);
        let mut cursor = self.dict.cursor();
        let first = cursor.seek(start + skip.min(u64::from(self.span)) * cells);
        std::iter::successors(first, move |_| cursor.next())
            .take_while(move |&(_, key)| key < end)
            .map(move |(i, key)| {
                let offset = key - start;
                let t = self.t_start + (offset / cells) as u32;
                (i, t, (offset % cells) as u32)
            })
    }

    /// Bytes held: the key bases and the dictionary.
    pub fn size_bytes(&self) -> usize {
        self.base.len() * size_of::<u64>() + self.dict.size_bytes()
    }
}

/// One `(region, timestep)` slice of a [`SealedPostings`]: the keys
/// `lo..hi` of its dictionary, seen as the cells of the region's grid.
#[derive(Clone, Copy, Debug)]
pub struct SealedSlice<'a> {
    dict: &'a SealedDict,
    lo: u64,
    hi: u64,
}

impl<'a> SealedSlice<'a> {
    /// The slice's keys as cell offsets, with their list indices in the
    /// whole dictionary.
    #[inline]
    pub fn keys(self) -> Window<'a> {
        self.dict.window(self.lo, self.hi)
    }

    /// The sealed `(region, timestep)` walk: [`walk_cells_in_range`] over
    /// the slice's keys, `visit` receiving the dictionary's list indices.
    /// The in-memory sealed period and the repository's directory both
    /// answer a rectangle through it.
    #[inline]
    pub fn walk(
        self,
        grid: &GridSpec,
        range: (u32, u32, u32, u32),
        visit: impl FnMut(usize, u32, u32),
    ) {
        walk_cells_in_range(grid, self.keys(), range, visit)
    }

    /// The list index of `cell`, if occupied.
    #[inline]
    pub fn find(self, cell: u32) -> Option<usize> {
        self.dict.find(self.lo + u64::from(cell))
    }
}

/// One `(region, timestep)` slice's postings, in either form.
#[derive(Clone, Copy)]
enum SliceRef<'a> {
    Raw(&'a PostingDict),
    Sealed(SealedSlice<'a>),
}

impl SliceRef<'_> {
    /// [`walk_cells_in_range`] over this slice; `visit` receives list
    /// indices for [`SliceRef::list_into`].
    #[inline]
    fn walk(
        self,
        grid: &GridSpec,
        range: (u32, u32, u32, u32),
        visit: impl FnMut(usize, u32, u32),
    ) {
        match self {
            SliceRef::Raw(dict) => walk_cells_in_range(grid, dict.keys(), range, visit),
            SliceRef::Sealed(slice) => slice.walk(grid, range, visit),
        }
    }

    /// The list index of `cell`, if occupied.
    #[inline]
    fn find(self, cell: u32) -> Option<usize> {
        match self {
            SliceRef::Raw(dict) => dict.keys().binary_search(&cell).ok(),
            SliceRef::Sealed(slice) => slice.find(cell),
        }
    }

    #[inline]
    fn list_into(self, i: usize, out: &mut Vec<u32>) {
        match self {
            SliceRef::Raw(dict) => dict.list_into(i, out),
            SliceRef::Sealed(slice) => slice.dict.list_into(i, out),
        }
    }
}

/// A coarse uniform grid over the PI's region rectangles: each cell lists
/// the regions (ascending index) whose bbox intersects it, so point
/// location and rectangle queries probe a handful of candidates instead
/// of scanning every region.
#[derive(Clone, Debug)]
struct RegionLocator {
    grid: GridSpec,
    /// Flat locator cell `c` lists `regions[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    /// Ascending region indices intersecting each cell, cell after cell.
    regions: Vec<u32>,
}

impl RegionLocator {
    /// Build over the current region set; `None` when there are no
    /// regions (every lookup then trivially misses).
    fn build(regions: &[Region]) -> Option<RegionLocator> {
        let mut union = BBox::EMPTY;
        for r in regions {
            union = union.union(&r.bbox);
        }
        if union.is_empty() || union.area() <= 0.0 {
            return None;
        }
        // Aim for ~4 locator cells per region, clamped so the cell table
        // stays small no matter how the extents are shaped.
        let target = (4 * regions.len()).clamp(64, 1 << 14) as f64;
        let mut cell = (union.area() / target).sqrt();
        loop {
            let cols = (union.width() / cell).ceil().max(1.0);
            let rows = (union.height() / cell).ceil().max(1.0);
            if cols * rows <= 4.0 * target {
                break;
            }
            cell *= 2.0;
        }
        if !(cell.is_finite() && cell > 0.0) {
            return None;
        }
        let grid = GridSpec::covering(&union, cell);
        // Two passes over the covered cells: count, then fill. Regions are
        // visited in ascending index order, so each cell's run is born
        // sorted.
        let covered = |visit: &mut dyn FnMut(usize, u32)| {
            for (ri, r) in regions.iter().enumerate() {
                if let Some((lo_x, lo_y, hi_x, hi_y)) = grid.cell_range_in_rect(&r.bbox) {
                    for cy in lo_y..=hi_y {
                        for cx in lo_x..=hi_x {
                            visit(grid.flat(cx, cy), ri as u32);
                        }
                    }
                }
            }
        };
        let mut starts = vec![0u32; grid.len() + 1];
        covered(&mut |c, _| starts[c + 1] += 1);
        for c in 0..grid.len() {
            starts[c + 1] += starts[c];
        }
        let mut next = starts.clone();
        let mut listed = vec![0u32; starts[grid.len()] as usize];
        covered(&mut |c, ri| {
            listed[next[c] as usize] = ri;
            next[c] += 1;
        });
        Some(RegionLocator {
            grid,
            starts,
            regions: listed,
        })
    }

    /// Candidate regions of flat locator cell `c` (ascending).
    #[inline]
    fn cell(&self, c: usize) -> &[u32] {
        &self.regions[self.starts[c] as usize..self.starts[c + 1] as usize]
    }

    /// Candidate regions for a point (ascending; a superset filter).
    #[inline]
    fn candidates_at(&self, p: &Point) -> &[u32] {
        match self.grid.locate(p) {
            Some((cx, cy)) => self.cell(self.grid.flat(cx, cy)),
            None => &[],
        }
    }
}

/// A partition index: disjoint regions, each with a grid (Algorithm 3).
#[derive(Clone, Debug)]
pub struct Pi {
    regions: Vec<Region>,
    cfg: PiConfig,
    /// Timestep the PI was (re)built at (`t_s`).
    built_at: u32,
    locator: Option<RegionLocator>,
    /// Set by [`Pi::seal`]: every region's postings, in one succinct
    /// dictionary. A sealed PI takes no further insertions.
    sealed: Option<SealedPostings>,
}

impl Pi {
    /// Algorithm 3: partition the points at timestep `t` with bound
    /// `ε_s`, cover each partition with its MBR, remove overlaps, and grid
    /// every resulting rectangle.
    pub fn build(t: u32, points: &[(u32, Point)], cfg: &PiConfig) -> Pi {
        let mut pi = Pi {
            regions: Vec::new(),
            cfg: cfg.clone(),
            built_at: t,
            locator: None,
            sealed: None,
        };
        if !points.is_empty() {
            pi.add_regions_for(t, points);
        }
        pi
    }

    /// Create regions covering `points` that avoid every existing region,
    /// then index the points. Shared by the initial build and "Insertion".
    fn add_regions_for(&mut self, t: u32, points: &[(u32, Point)]) {
        assert!(!self.is_sealed(), "insertion into a sealed PI");
        let positions: Vec<Point> = points.iter().map(|(_, p)| *p).collect();
        let res = bounded_kmeans(&positions, self.cfg.eps_s, &self.cfg.kmeans);
        // Group member points per partition, take MBRs.
        let mut mbrs: Vec<BBox> = vec![BBox::EMPTY; res.centroids.len()];
        for (i, &a) in res.assign.iter().enumerate() {
            mbrs[a as usize].expand(&positions[i]);
        }
        let mut existing: Vec<BBox> = self.regions.iter().map(|r| r.bbox).collect();
        let mut new_regions: Vec<Region> = Vec::new();
        for mbr in mbrs.into_iter().filter(|m| !m.is_empty()) {
            // Give zero-extent MBRs (single point / collinear) a hair of
            // area so the grid and TRD are well-defined.
            let mbr = if mbr.area() == 0.0 {
                mbr.inflate(self.cfg.gc * 0.5)
            } else {
                mbr
            };
            for piece in remove_overlap(&mbr, &existing) {
                if piece.area() <= 0.0 {
                    continue;
                }
                existing.push(piece);
                new_regions.push(Region::new(piece, self.cfg.gc));
            }
        }
        // Route the points into the new regions (points already covered by
        // pre-existing regions are the caller's responsibility).
        let start = self.regions.len();
        self.regions.extend(new_regions);
        self.index_points(t, points, |pi, p| pi.locate_region_from(start, p));
        // First population defines the reference density.
        for r in &mut self.regions[start..] {
            r.built_density = r.density_of(r.points_indexed);
        }
        // Drop regions that ended up with no points (overlap-removal
        // slivers not containing any member).
        self.regions
            .retain(|r| r.points_indexed > 0 || r.built_density > 0.0);
        // Region set changed: rebuild the locator grid.
        self.locator = RegionLocator::build(&self.regions);
    }

    fn locate_region_from(&self, start: usize, p: &Point) -> Option<usize> {
        self.regions
            .iter()
            .enumerate()
            .skip(start)
            .find(|(_, r)| r.bbox.contains(p))
            .map(|(i, _)| i)
    }

    /// Index of the region containing `p`, if covered.
    ///
    /// Accelerated by the locator grid; the result (the lowest-index
    /// containing region) is identical to a linear scan.
    pub fn locate_region(&self, p: &Point) -> Option<usize> {
        match &self.locator {
            Some(loc) => loc
                .candidates_at(p)
                .iter()
                .find(|&&ri| self.regions[ri as usize].bbox.contains(p))
                .map(|&ri| ri as usize),
            None => self.regions.iter().position(|r| r.bbox.contains(p)),
        }
    }

    #[inline]
    pub fn covers(&self, p: &Point) -> bool {
        self.locate_region(p).is_some()
    }

    #[inline]
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    #[inline]
    pub fn built_at(&self) -> u32 {
        self.built_at
    }

    /// Split a timestep's points into (covered, uncovered) w.r.t. the
    /// current regions (Algorithm 4 line 5).
    pub fn split_coverage(&self, points: &[(u32, Point)]) -> CoverageSplit {
        let mut covered = Vec::with_capacity(points.len());
        let mut uncovered = Vec::new();
        for &(id, p) in points {
            if self.covers(&p) {
                covered.push((id, p));
            } else {
                uncovered.push((id, p));
            }
        }
        (covered, uncovered)
    }

    /// Insert a timestep's covered points into the existing regions.
    pub fn insert_covered(&mut self, t: u32, covered: &[(u32, Point)]) {
        assert!(!self.is_sealed(), "insertion into a sealed PI");
        self.index_points(t, covered, Pi::locate_region);
    }

    /// Index `points` at `t`, each in the region `locate` names (points it
    /// places nowhere are dropped): one dictionary insertion per region.
    fn index_points(
        &mut self,
        t: u32,
        points: &[(u32, Point)],
        locate: impl Fn(&Pi, &Point) -> Option<usize>,
    ) {
        let mut postings: Vec<(u32, u32, u32)> = points
            .iter()
            .filter_map(|(id, p)| {
                let ri = locate(self, p)?;
                let grid = &self.regions[ri].grid;
                let (cx, cy) = grid.locate_clamped(p);
                Some((ri as u32, grid.flat(cx, cy) as u32, *id))
            })
            .collect();
        postings.sort_unstable();
        let mut pairs = Vec::new();
        for group in postings.chunk_by(|a, b| a.0 == b.0) {
            pairs.clear();
            pairs.extend(group.iter().map(|&(_, cell, id)| (cell, id)));
            self.regions[group[0].0 as usize].insert_slice(t, &mut pairs);
        }
    }

    /// "Insertion" (Algorithm 4 line 11): build regions for the uncovered
    /// points and append them to this PI.
    pub fn append_insertion(&mut self, t: u32, uncovered: &[(u32, Point)]) {
        if !uncovered.is_empty() {
            self.add_regions_for(t, uncovered);
        }
    }

    /// ADR of the current regions against a new point population
    /// (Eqs. 12–14): the fraction of regions whose TRD dropped by more
    /// than `ε_c` relative to their build-time TRD.
    pub fn adr(&self, points_now: &[(u32, Point)], eps_c: f64) -> f64 {
        if self.regions.is_empty() {
            return 0.0;
        }
        let mut counts = vec![0usize; self.regions.len()];
        for (_, p) in points_now {
            if let Some(ri) = self.locate_region(p) {
                counts[ri] += 1;
            }
        }
        let mut dropped = 0usize;
        for (r, &c) in self.regions.iter().zip(&counts) {
            let d_old = r.built_density;
            if d_old <= 0.0 {
                continue;
            }
            let d_new = r.density_of(c);
            let h1 = (d_new - d_old) / d_old; // Eq. 13
            if h1 < 0.0 && h1.abs() > eps_c {
                dropped += 1; // Eq. 14
            }
        }
        dropped as f64 / self.regions.len() as f64 // Eq. 12
    }

    /// STRQ primitive: IDs in the `g_c` cell containing `p` at time `t`.
    pub fn query(&self, t: u32, p: &Point) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_into(t, p, &mut out);
        out
    }

    /// [`Pi::query`] appending into `out`.
    pub fn query_into(&self, t: u32, p: &Point, out: &mut Vec<u32>) {
        let Some(ri) = self.locate_region(p) else {
            return;
        };
        let Some(slice) = self.slice(ri, t) else {
            return;
        };
        let grid = &self.regions[ri].grid;
        let (cx, cy) = grid.locate_clamped(p);
        if let Some(i) = slice.find(grid.flat(cx, cy) as u32) {
            slice.list_into(i, out);
        }
    }

    /// Region `ri`'s postings at `t`, if the PI holds any.
    #[inline]
    fn slice(&self, ri: usize, t: u32) -> Option<SliceRef<'_>> {
        let region = &self.regions[ri];
        match &self.sealed {
            Some(sealed) => sealed
                .slice(ri, t, region.grid.len() as u64)
                .map(SliceRef::Sealed),
            None => {
                let i = region.slices.partition_point(|s| s.t < t);
                let slice = region.slices.get(i).filter(|s| s.t == t)?;
                Some(SliceRef::Raw(&slice.dict))
            }
        }
    }

    /// Walk the posting keys of every row the `probe` rectangle covers in
    /// region `ri` at `t`; postings whose cell passes `keep` are decoded
    /// into `scratch.set` (deduplicating across cells and regions).
    fn covered_postings(
        &self,
        ri: usize,
        t: u32,
        probe: &BBox,
        scratch: &mut QueryScratch,
        keep: impl Fn(u32, u32) -> bool,
    ) {
        let Some(slice) = self.slice(ri, t) else {
            return;
        };
        let grid = &self.regions[ri].grid;
        let Some(range) = grid.cell_range_in_rect(probe) else {
            return;
        };
        slice.walk(grid, range, |i, cx, cy| {
            if keep(cx, cy) {
                scratch.ids.clear();
                slice.list_into(i, &mut scratch.ids);
                scratch.set.insert_all(&scratch.ids);
            }
        });
    }

    /// Stage the ascending indices of regions whose bbox intersects
    /// `probe` into `scratch.aux` (using the locator when available).
    fn candidate_regions(&self, probe: &BBox, scratch: &mut QueryScratch) {
        scratch.aux.clear();
        match &self.locator {
            Some(loc) => {
                let Some((lo_x, lo_y, hi_x, hi_y)) = loc.grid.cell_range_in_rect(probe) else {
                    return;
                };
                if lo_x == hi_x && lo_y == hi_y {
                    // Fast path for the common one-locator-cell probe: the
                    // cell's candidate list is already sorted and unique.
                    scratch
                        .aux
                        .extend_from_slice(loc.cell(loc.grid.flat(lo_x, lo_y)));
                } else {
                    debug_assert!(scratch.set.is_empty());
                    for cy in lo_y..=hi_y {
                        for cx in lo_x..=hi_x {
                            for &ri in loc.cell(loc.grid.flat(cx, cy)) {
                                scratch.set.insert(ri);
                            }
                        }
                    }
                    scratch.set.drain_sorted_into(&mut scratch.aux);
                }
                scratch
                    .aux
                    .retain(|&ri| self.regions[ri as usize].bbox.intersects(probe));
            }
            None => {
                for (ri, region) in self.regions.iter().enumerate() {
                    if region.bbox.intersects(probe) {
                        scratch.aux.push(ri as u32);
                    }
                }
            }
        }
    }

    /// IDs in every cell intersecting `rect` at time `t` — the primitive
    /// behind cell-bbox STRQ and local search over an inflated cell.
    pub fn query_rect(&self, t: u32, rect: &BBox) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_rect_into(t, rect, &mut QueryScratch::new(), &mut out);
        out
    }

    /// [`Pi::query_rect`] appending the sorted, deduplicated result into
    /// `out` through a reusable scratch — allocation-free once warm.
    pub fn query_rect_into(
        &self,
        t: u32,
        rect: &BBox,
        scratch: &mut QueryScratch,
        out: &mut Vec<u32>,
    ) {
        self.candidate_regions(rect, scratch);
        let aux = std::mem::take(&mut scratch.aux);
        for &ri in &aux {
            self.covered_postings(ri as usize, t, rect, scratch, |_, _| true);
        }
        scratch.aux = aux;
        scratch.set.drain_sorted_into(out);
    }

    /// Local-search primitive: union of IDs in all cells within radius `r`
    /// of `p` at time `t`, across every region the disc touches.
    pub fn query_disc(&self, t: u32, p: &Point, r: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_disc_into(t, p, r, &mut QueryScratch::new(), &mut out);
        out
    }

    /// [`Pi::query_disc`] appending the sorted, deduplicated result into
    /// `out` through a reusable scratch.
    pub fn query_disc_into(
        &self,
        t: u32,
        p: &Point,
        r: f64,
        scratch: &mut QueryScratch,
        out: &mut Vec<u32>,
    ) {
        let probe = BBox::from_extents(p.x - r, p.y - r, p.x + r, p.y + r);
        self.candidate_regions(&probe, scratch);
        let aux = std::mem::take(&mut scratch.aux);
        let r2 = r * r;
        for &ri in &aux {
            let grid = &self.regions[ri as usize].grid;
            self.covered_postings(ri as usize, t, &probe, scratch, |cx, cy| {
                grid.cell_dist2(cx, cy, p) <= r2
            });
        }
        scratch.aux = aux;
        scratch.set.drain_sorted_into(out);
    }

    /// Close the PI: rewrite every region's raw dictionaries, in one pass,
    /// into one [`SealedDict`] for the whole period and drop them.
    /// Idempotent; a sealed PI rejects insertions.
    pub fn seal(&mut self) {
        if self.is_sealed() {
            return;
        }
        let t_start = self.built_at;
        let span = self
            .regions
            .iter()
            .filter_map(|r| r.slices.last())
            .map(|s| s.t - t_start + 1)
            .max()
            .unwrap_or(0);
        let base =
            SealedPostings::key_bases(self.regions.iter().map(|r| r.grid.len() as u64), span)
                .expect("period key space exceeds u64");
        let mut postings: Vec<(u64, u32)> = Vec::with_capacity(self.points_indexed());
        let mut ids = Vec::new();
        for (region, &region_base) in self.regions.iter_mut().zip(&base) {
            let cells = region.grid.len() as u64;
            for slice in std::mem::take(&mut region.slices) {
                let start = region_base + u64::from(slice.t - t_start) * cells;
                for (i, &cell) in slice.dict.keys().iter().enumerate() {
                    ids.clear();
                    slice.dict.list_into(i, &mut ids);
                    let key = start + u64::from(cell);
                    postings.extend(ids.iter().map(|&id| (key, id)));
                }
            }
        }
        let dict = SealedDict::from_postings(&postings);
        self.sealed = Some(SealedPostings::new(base, t_start, span, dict));
    }

    #[inline]
    pub fn is_sealed(&self) -> bool {
        self.sealed.is_some()
    }

    /// Encoded size: every region (header, raw slices while open), the
    /// sealed dictionary with its region key bases, and the PI header.
    pub fn size_bytes(&self) -> usize {
        self.regions.iter().map(Region::size_bytes).sum::<usize>()
            + self.sealed.as_ref().map_or(0, SealedPostings::size_bytes)
            + PI_HEADER_BYTES
    }

    pub fn points_indexed(&self) -> usize {
        self.regions.iter().map(Region::points_indexed).sum()
    }

    /// Locate the (region index, flat grid cell) of a point, if covered.
    /// Used by the disk layout to address blocks without touching data.
    pub fn locate_cell(&self, p: &Point) -> Option<(u32, u32)> {
        let ri = self.locate_region(p)?;
        let grid = &self.regions[ri].grid;
        let (cx, cy) = grid.locate_clamped(p);
        Some((ri as u32, grid.flat(cx, cy) as u32))
    }

    /// Visit every `(region, timestep, cell, ids)` block in the block
    /// directory's order — region, then timestep, then cell, ascending —
    /// decoding each list into one reused buffer. With `min_exclusive_t`
    /// set, only blocks strictly past that timestep are visited.
    pub fn for_each_block(
        &self,
        min_exclusive_t: Option<u32>,
        mut visit: impl FnMut(u32, u32, u32, &[u32]),
    ) {
        let mut ids = Vec::new();
        for (ri, region) in self.regions.iter().enumerate() {
            let Some(sealed) = &self.sealed else {
                let first = min_exclusive_t
                    .map_or(0, |t_hi| region.slices.partition_point(|s| s.t <= t_hi));
                for slice in &region.slices[first..] {
                    for (i, &cell) in slice.dict.keys().iter().enumerate() {
                        ids.clear();
                        slice.dict.list_into(i, &mut ids);
                        visit(ri as u32, slice.t, cell, &ids);
                    }
                }
                continue;
            };
            let skip = min_exclusive_t.map_or(0, |t_hi| {
                (u64::from(t_hi) + 1).saturating_sub(u64::from(sealed.t_start))
            });
            for (i, t, cell) in sealed.region_keys(ri, region.grid.len() as u64, skip) {
                ids.clear();
                sealed.dict.list_into(i, &mut ids);
                visit(ri as u32, t, cell, &ids);
            }
        }
    }

    /// Every `(region, timestep, cell, ids)` block, materialised in
    /// [`Pi::for_each_block`] order — the on-disk layout of the period
    /// ("the trajectory points within a time period can be written into
    /// several pages", §5.1).
    pub fn export_blocks(&self) -> Vec<(u32, u32, u32, Vec<u32>)> {
        let mut out = Vec::new();
        self.for_each_block(None, |region, t, cell, ids| {
            out.push((region, t, cell, ids.to_vec()))
        });
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn cluster(center: Point, n: usize, spread: f64) -> Vec<(u32, Point)> {
        (0..n)
            .map(|i| {
                let a = i as f64 * 2.399963; // golden-angle spiral
                let r = spread * (i as f64 / n as f64).sqrt();
                (
                    i as u32,
                    Point::new(center.x + r * a.cos(), center.y + r * a.sin()),
                )
            })
            .collect()
    }

    fn cfg() -> PiConfig {
        PiConfig {
            eps_s: 2.0,
            gc: 0.5,
            kmeans: KMeansConfig::default(),
        }
    }

    #[test]
    fn build_produces_disjoint_regions() {
        let mut pts = cluster(Point::new(0.0, 0.0), 100, 1.5);
        pts.extend(
            cluster(Point::new(20.0, 0.0), 100, 1.5)
                .into_iter()
                .map(|(i, p)| (i + 100, p)),
        );
        let pi = Pi::build(0, &pts, &cfg());
        assert!(pi.regions().len() >= 2);
        for (i, a) in pi.regions().iter().enumerate() {
            for b in pi.regions().iter().skip(i + 1) {
                if let Some(inter) = a.bbox().intersection(b.bbox()) {
                    assert!(inter.area() < 1e-9, "regions overlap materially");
                }
            }
        }
        assert_eq!(pi.points_indexed(), 200);
    }

    #[test]
    fn query_finds_cohabitants() {
        let pts = vec![
            (1u32, Point::new(0.1, 0.1)),
            (2, Point::new(0.2, 0.2)),
            (3, Point::new(5.0, 5.0)),
        ];
        let pi = Pi::build(7, &pts, &cfg());
        let hits = pi.query(7, &Point::new(0.15, 0.15));
        assert!(hits.contains(&1) && hits.contains(&2), "hits {hits:?}");
        assert!(!hits.contains(&3));
        // Wrong timestep: nothing.
        assert!(pi.query(8, &Point::new(0.15, 0.15)).is_empty());
    }

    #[test]
    fn disc_query_spans_regions() {
        let mut pts = cluster(Point::new(0.0, 0.0), 50, 1.0);
        pts.extend(
            cluster(Point::new(4.0, 0.0), 50, 1.0)
                .into_iter()
                .map(|(i, p)| (i + 50, p)),
        );
        let pi = Pi::build(0, &pts, &cfg());
        let all = pi.query_disc(0, &Point::new(2.0, 0.0), 5.0);
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn coverage_split() {
        let pts = cluster(Point::new(0.0, 0.0), 60, 1.0);
        let pi = Pi::build(0, &pts, &cfg());
        let new_pts = vec![
            (900u32, Point::new(0.0, 0.0)),
            (901, Point::new(100.0, 100.0)),
        ];
        let (covered, uncovered) = pi.split_coverage(&new_pts);
        assert_eq!(covered.len(), 1);
        assert_eq!(uncovered.len(), 1);
        assert_eq!(uncovered[0].0, 901);
    }

    #[test]
    fn adr_zero_when_population_stable() {
        let pts = cluster(Point::new(0.0, 0.0), 80, 1.0);
        let pi = Pi::build(0, &pts, &cfg());
        assert_eq!(pi.adr(&pts, 0.5), 0.0);
    }

    #[test]
    fn adr_high_when_population_leaves() {
        let pts = cluster(Point::new(0.0, 0.0), 80, 1.0);
        let pi = Pi::build(0, &pts, &cfg());
        // Everyone moved far away.
        let moved: Vec<(u32, Point)> = pts
            .iter()
            .map(|(i, p)| (*i, Point::new(p.x + 50.0, p.y)))
            .collect();
        let adr = pi.adr(&moved, 0.5);
        assert!(adr > 0.9, "adr {adr}");
    }

    #[test]
    fn insertion_extends_coverage() {
        let pts = cluster(Point::new(0.0, 0.0), 60, 1.0);
        let mut pi = Pi::build(0, &pts, &cfg());
        let far = cluster(Point::new(30.0, 30.0), 20, 1.0);
        assert!(!pi.covers(&Point::new(30.0, 30.0)));
        pi.append_insertion(1, &far);
        assert!(pi.covers(&Point::new(30.0, 30.0)));
        let hits = pi.query_disc(1, &Point::new(30.0, 30.0), 2.0);
        assert!(!hits.is_empty());
    }

    #[test]
    fn insert_covered_accumulates_timesteps() {
        let pts = cluster(Point::new(0.0, 0.0), 40, 1.0);
        let mut pi = Pi::build(0, &pts, &cfg());
        let later: Vec<(u32, Point)> = pts.iter().map(|(i, p)| (*i + 500, *p)).collect();
        pi.insert_covered(1, &later);
        let t0 = pi.query_disc(0, &Point::new(0.0, 0.0), 2.0);
        let t1 = pi.query_disc(1, &Point::new(0.0, 0.0), 2.0);
        assert_eq!(t0.len(), 40);
        assert_eq!(t1.len(), 40);
        assert!(t1.iter().all(|&id| id >= 500));
    }

    #[test]
    fn empty_build() {
        let pi = Pi::build(0, &[], &cfg());
        assert!(pi.regions().is_empty());
        assert!(pi.query(0, &Point::ORIGIN).is_empty());
        assert_eq!(pi.adr(&[], 0.5), 0.0);
    }

    /// The seed's query algorithm, reconstructed from `export_blocks`:
    /// per-cell hash probes over every region, concatenate, sort, dedup.
    pub(crate) struct SeedIndex {
        /// (region, cell, t) → ids.
        cells: std::collections::HashMap<(u32, u32, u32), Vec<u32>>,
        regions: Vec<(BBox, GridSpec)>,
    }

    impl SeedIndex {
        pub(crate) fn of(pi: &Pi) -> SeedIndex {
            SeedIndex {
                cells: pi
                    .export_blocks()
                    .into_iter()
                    .map(|(ri, t, cell, ids)| ((ri, cell, t), ids))
                    .collect(),
                regions: pi
                    .regions()
                    .iter()
                    .map(|r| (*r.bbox(), r.grid().clone()))
                    .collect(),
            }
        }

        pub(crate) fn query_rect(&self, t: u32, rect: &BBox) -> Vec<u32> {
            let mut out = Vec::new();
            for (ri, (bbox, grid)) in self.regions.iter().enumerate() {
                if !bbox.intersects(rect) {
                    continue;
                }
                for (cx, cy) in grid.cells_in_rect(rect) {
                    if let Some(ids) = self.cells.get(&(ri as u32, grid.flat(cx, cy) as u32, t)) {
                        out.extend(ids);
                    }
                }
            }
            out.sort_unstable();
            out.dedup();
            out
        }

        pub(crate) fn query(&self, t: u32, p: &Point) -> Vec<u32> {
            let Some(ri) = self.regions.iter().position(|(bbox, _)| bbox.contains(p)) else {
                return Vec::new();
            };
            let grid = &self.regions[ri].1;
            let (cx, cy) = grid.locate_clamped(p);
            let cell = grid.flat(cx, cy) as u32;
            self.cells
                .get(&(ri as u32, cell, t))
                .cloned()
                .unwrap_or_default()
        }

        pub(crate) fn query_disc(&self, t: u32, p: &Point, r: f64) -> Vec<u32> {
            let probe = BBox::from_extents(p.x - r, p.y - r, p.x + r, p.y + r);
            let mut out = Vec::new();
            for (ri, (bbox, grid)) in self.regions.iter().enumerate() {
                if !bbox.intersects(&probe) {
                    continue;
                }
                for (cx, cy) in grid.cells_in_disc(p, r) {
                    if let Some(ids) = self.cells.get(&(ri as u32, grid.flat(cx, cy) as u32, t)) {
                        out.extend(ids);
                    }
                }
            }
            out.sort_unstable();
            out.dedup();
            out
        }
    }

    #[test]
    fn optimized_queries_match_seed_reference() {
        // Multi-region, multi-timestep PI with insertions.
        let mut pts = cluster(Point::new(0.0, 0.0), 120, 1.5);
        pts.extend(
            cluster(Point::new(15.0, 3.0), 120, 1.5)
                .into_iter()
                .map(|(i, p)| (i + 200, p)),
        );
        let mut pi = Pi::build(0, &pts, &cfg());
        let later: Vec<(u32, Point)> = pts.iter().map(|&(i, p)| (i + 400, p)).collect();
        pi.insert_covered(1, &later);
        pi.append_insertion(1, &cluster(Point::new(-20.0, -20.0), 40, 1.0));
        let seed = SeedIndex::of(&pi);
        let blocks = pi.export_blocks();

        // The same answers from the raw slices and from the sealed period.
        let open = pi.clone();
        pi.seal();
        assert!(pi.is_sealed() && !open.is_sealed());
        assert_eq!(pi.export_blocks(), blocks);
        let mut scratch = QueryScratch::new();
        for pi in [&open, &pi] {
            for t in 0..3u32 {
                for i in 0..40 {
                    let p = Point::new((i as f64 * 1.3) - 22.0, (i as f64 * 0.9) - 21.0);
                    let r = 0.3 + (i % 7) as f64;
                    let rect = BBox::from_extents(p.x - r, p.y - r, p.x + r * 1.5, p.y + r * 0.5);

                    assert_eq!(pi.query_rect(t, &rect), seed.query_rect(t, &rect));
                    assert_eq!(pi.query_disc(t, &p, r), seed.query_disc(t, &p, r));
                    assert_eq!(pi.query(t, &p), seed.query(t, &p), "t {t} p {p:?}");

                    // The scratch-based form must agree with the fresh form.
                    let mut out = Vec::new();
                    pi.query_rect_into(t, &rect, &mut scratch, &mut out);
                    assert_eq!(out, pi.query_rect(t, &rect));
                }
            }
        }
        // Blocks past a timestep, as a delta generation reads them.
        for t_hi in [0, 1, 5] {
            let mut past = Vec::new();
            pi.for_each_block(Some(t_hi), |r, t, cell, ids| {
                past.push((r, t, cell, ids.to_vec()))
            });
            let mut want = blocks.clone();
            want.retain(|b| b.1 > t_hi);
            assert_eq!(past, want, "past {t_hi}");
        }
    }

    /// A sealed PI's size is its region headers, the region key bases,
    /// the one dictionary over `(region, t, cell)` keys and its header.
    #[test]
    fn sealed_size_counts_headers_bases_and_the_dictionary() {
        let mut pts = cluster(Point::new(0.0, 0.0), 120, 1.5);
        pts.extend(
            cluster(Point::new(15.0, 3.0), 120, 1.5)
                .into_iter()
                .map(|(i, p)| (i + 200, p)),
        );
        let mut pi = Pi::build(3, &pts, &cfg());
        pi.insert_covered(5, &pts);
        let regions = pi.regions().len();
        let slices: usize = pi.regions().iter().map(|r| r.slices.len()).sum();
        let raw: usize = pi
            .regions()
            .iter()
            .flat_map(|r| &r.slices)
            .map(|s| s.dict.size_bytes())
            .sum();
        assert_eq!(pi.size_bytes(), 72 * regions + 8 * slices + raw + 16);

        // Keys by hand: span 3 (t = 3, 4, 5), region after region.
        let mut base = 0u64;
        let mut postings = Vec::new();
        let blocks = pi.export_blocks();
        for (ri, region) in pi.regions().iter().enumerate() {
            let cells = region.grid().len() as u64;
            for (_, t, cell, ids) in blocks.iter().filter(|b| b.0 == ri as u32) {
                let key = base + u64::from(t - 3) * cells + u64::from(*cell);
                postings.extend(ids.iter().map(|&id| (key, id)));
            }
            base += 3 * cells;
        }
        pi.seal();
        let dict = SealedDict::from_postings(&postings);
        assert_eq!(
            pi.size_bytes(),
            72 * regions + 8 * (regions + 1) + dict.size_bytes() + 16
        );
    }

    #[test]
    fn locate_region_matches_linear_scan() {
        let mut pts = cluster(Point::new(0.0, 0.0), 100, 2.0);
        pts.extend(
            cluster(Point::new(9.0, -4.0), 80, 2.5)
                .into_iter()
                .map(|(i, p)| (i + 100, p)),
        );
        let pi = Pi::build(0, &pts, &cfg());
        assert!(pi.regions().len() >= 2);
        for i in 0..500 {
            let p = Point::new((i % 31) as f64 * 0.5 - 4.0, (i % 17) as f64 * 0.6 - 7.0);
            let linear = pi.regions().iter().position(|r| r.bbox().contains(&p));
            assert_eq!(pi.locate_region(&p), linear, "point {p:?}");
        }
    }
}
