//! Per-rectangle grid index (paper Algorithm 3, line 11).
//!
//! Each non-overlapping rectangle `R_j` of a PI is cut into cells of side
//! `g_c`; every trajectory point maps to one cell and its trajectory ID is
//! stored in that cell's compressed list. Queries locate the cell of
//! `(x, y)` (or all cells within the local-search radius) and return the
//! union of the stored ID lists.
//!
//! Storage is a sealed [`PostingDict`]: occupied cells sorted by flat cell
//! index over one arena of ID lists, packed under the index's own code
//! when that is smaller, so a query probes by binary search and a
//! rectangle/disc query walks sorted row intervals instead of hashing
//! every covered cell. The bounding box of the occupied cells is
//! precomputed at build time; probes that miss it return without touching
//! any posting.

use crate::dict::{seal, PostingDict};
use crate::huffman::Huffman;
use crate::posting::QueryScratch;
use ppq_geo::{BBox, GridSpec, Point};

/// A grid index over one rectangle.
#[derive(Clone, Debug)]
pub struct GridIndex {
    region: BBox,
    grid: GridSpec,
    /// Occupied flat cell index → IDs.
    cells: PostingDict,
    /// The code `cells` is packed under (`None`: kept raw).
    code: Option<Box<Huffman>>,
    /// Geometric union of the occupied cells — the candidate-pruning box.
    content_bounds: BBox,
    points_indexed: usize,
}

impl GridIndex {
    /// Build over `region` with cell side `gc`. Points outside the region
    /// are ignored (the caller routes points to the right rectangle).
    pub fn build(region: BBox, gc: f64, points: &[(u32, Point)]) -> GridIndex {
        assert!(!region.is_empty());
        let grid = GridSpec::covering(&region, gc);
        // Posting keys are u32 flat cell indices; a grid beyond that
        // domain would silently alias cells after truncation.
        assert!(
            grid.len() <= u32::MAX as usize,
            "grid has {} cells, exceeding the u32 posting-key domain",
            grid.len()
        );
        let mut pairs: Vec<(u32, u32)> = points
            .iter()
            .filter(|(_, p)| region.contains(p))
            .map(|(id, p)| {
                let (cx, cy) = grid.locate_clamped(p);
                (grid.flat(cx, cy) as u32, *id)
            })
            .collect();
        let points_indexed = pairs.len();
        let mut cells = PostingDict::from_pairs(&mut pairs);
        let mut content_bounds = BBox::EMPTY;
        for &cell in cells.keys() {
            let (cx, cy) = grid.unflat(cell as usize);
            content_bounds = content_bounds.union(&grid.cell_bbox(cx, cy));
        }
        let code = seal(&mut [&mut cells]).map(Box::new);
        GridIndex {
            region,
            grid,
            cells,
            code,
            content_bounds,
            points_indexed,
        }
    }

    #[inline]
    pub fn region(&self) -> &BBox {
        &self.region
    }

    #[inline]
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// Bounding box of the occupied cells (⊆ [`GridIndex::region`]); empty
    /// when no point was indexed. Probes outside it cannot hit anything.
    #[inline]
    pub fn content_bounds(&self) -> &BBox {
        &self.content_bounds
    }

    /// Number of points this index covers (`N_{R_i}` in Definition 5.1).
    #[inline]
    pub fn points_indexed(&self) -> usize {
        self.points_indexed
    }

    /// Trajectory-region density (paper Definition 5.1):
    /// `d(R) = N_R / |R|`.
    pub fn density(&self) -> f64 {
        let area = self.region.area();
        if area > 0.0 {
            self.points_indexed as f64 / area
        } else {
            self.points_indexed as f64
        }
    }

    #[inline]
    pub fn covers(&self, p: &Point) -> bool {
        self.region.contains(p)
    }

    /// IDs stored in the cell containing `p` (empty when `p` is outside
    /// the region or the cell holds nothing).
    pub fn query_cell(&self, p: &Point) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_cell_into(p, &mut QueryScratch::new(), &mut out);
        out
    }

    /// [`GridIndex::query_cell`] appending into `out` through a reusable
    /// scratch — allocation-free once the scratch is warm.
    pub fn query_cell_into(&self, p: &Point, scratch: &mut QueryScratch, out: &mut Vec<u32>) {
        if !self.region.contains(p) || !self.content_bounds.contains(p) {
            return;
        }
        let (cx, cy) = self.grid.locate_clamped(p);
        self.cells.get_into(
            self.grid.flat(cx, cy) as u32,
            self.code.as_deref(),
            &mut scratch.bytes,
            out,
        );
    }

    /// Union of IDs in every cell intersecting the disc of radius `r`
    /// around `p` — the paper's local search (§5.2). The result is sorted
    /// and deduplicated.
    pub fn query_disc(&self, p: &Point, r: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_disc_into(p, r, &mut QueryScratch::new(), &mut out);
        out
    }

    /// [`GridIndex::query_disc`] appending into `out` (sorted, deduplicated)
    /// through a reusable scratch.
    pub fn query_disc_into(
        &self,
        p: &Point,
        r: f64,
        scratch: &mut QueryScratch,
        out: &mut Vec<u32>,
    ) {
        // Candidate pruning: clip the disc's bounding square against the
        // precomputed occupied-cell bounds before touching the grid.
        let probe = BBox::from_extents(p.x - r, p.y - r, p.x + r, p.y + r);
        if !probe.intersects(&self.content_bounds) {
            return;
        }
        let Some((lo_x, lo_y, hi_x, hi_y)) = self.grid.cell_range_in_rect(&probe) else {
            return;
        };
        let r2 = r * r;
        crate::posting::walk_cells_in_range(
            &self.grid,
            self.cells.keys(),
            (lo_x, lo_y, hi_x, hi_y),
            |i, cx, cy| {
                if self.grid.cell_dist2(cx, cy, p) <= r2 {
                    scratch.ids.clear();
                    self.cells.list_into(
                        i,
                        self.code.as_deref(),
                        &mut scratch.bytes,
                        &mut scratch.ids,
                    );
                    scratch.set.insert_all(&scratch.ids);
                }
            },
        );
        scratch.set.drain_sorted_into(out);
    }

    /// Number of occupied cells.
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    /// Stored size: region + grid header, the posting dictionary and its
    /// code table.
    pub fn size_bytes(&self) -> usize {
        let header = 4 * 8 + 4 * 8; // region extents + grid spec
        header + self.cells.size_bytes() + self.code.as_ref().map_or(0, |c| c.table_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> GridIndex {
        let region = BBox::from_extents(0.0, 0.0, 10.0, 10.0);
        let points = vec![
            (1u32, Point::new(0.5, 0.5)),
            (2, Point::new(0.6, 0.4)),
            (3, Point::new(5.5, 5.5)),
            (4, Point::new(9.9, 9.9)),
            (5, Point::new(20.0, 20.0)), // outside: ignored
        ];
        GridIndex::build(region, 1.0, &points)
    }

    #[test]
    fn build_counts_only_inside_points() {
        let g = setup();
        assert_eq!(g.points_indexed(), 4);
        assert_eq!(g.occupied_cells(), 3);
    }

    #[test]
    fn query_cell_returns_cohabitants() {
        let g = setup();
        assert_eq!(g.query_cell(&Point::new(0.1, 0.1)), vec![1, 2]);
        assert_eq!(g.query_cell(&Point::new(5.2, 5.8)), vec![3]);
        assert!(g.query_cell(&Point::new(3.0, 3.0)).is_empty());
        assert!(g.query_cell(&Point::new(50.0, 50.0)).is_empty());
    }

    #[test]
    fn disc_query_unions_cells() {
        let g = setup();
        // Radius that spans from near (0.5, 0.5) out to (5.5, 5.5).
        let ids = g.query_disc(&Point::new(3.0, 3.0), 4.0);
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn density_definition() {
        let g = setup();
        assert!((g.density() - 4.0 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn content_bounds_prune_is_conservative() {
        let g = setup();
        // All occupied cells live in [0,1]², [5,6]², [9,10]² — the content
        // box is their union and every stored point is inside it.
        let cb = g.content_bounds();
        for p in [
            Point::new(0.5, 0.5),
            Point::new(5.5, 5.5),
            Point::new(9.9, 9.9),
        ] {
            assert!(cb.contains(&p));
        }
        // A probe well away from any content returns empty fast.
        assert!(g.query_disc(&Point::new(-30.0, -30.0), 5.0).is_empty());
    }

    #[test]
    fn scratch_reuse_matches_fresh_queries() {
        let g = setup();
        let mut scratch = QueryScratch::new();
        for (p, r) in [
            (Point::new(3.0, 3.0), 4.0),
            (Point::new(0.5, 0.5), 0.2),
            (Point::new(9.0, 9.0), 2.0),
        ] {
            let mut out = Vec::new();
            g.query_disc_into(&p, r, &mut scratch, &mut out);
            assert_eq!(out, g.query_disc(&p, r));
        }
    }

    #[test]
    fn wide_and_sparse_probe_paths_agree() {
        // Enough points that a small disc takes the sparse path while a
        // huge disc takes the posting-scan path; both must agree with a
        // brute-force union.
        let region = BBox::from_extents(0.0, 0.0, 10.0, 10.0);
        let pts: Vec<(u32, Point)> = (0..300)
            .map(|i| {
                (
                    i % 90,
                    Point::new((i % 17) as f64 * 0.6, (i % 23) as f64 * 0.43),
                )
            })
            .collect();
        let g = GridIndex::build(region, 0.5, &pts);
        for r in [0.4, 1.7, 4.0, 50.0] {
            let center = Point::new(4.0, 4.0);
            let got = g.query_disc(&center, r);
            let mut want: Vec<u32> = pts
                .iter()
                .filter(|(_, p)| {
                    region.contains(p) && {
                        let (cx, cy) = g.grid().locate_clamped(p);
                        g.grid().cell_dist2(cx, cy, &center) <= r * r
                    }
                })
                .map(|(id, _)| *id)
                .collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(got, want, "radius {r}");
        }
    }

    #[test]
    fn size_grows_with_content() {
        let region = BBox::from_extents(0.0, 0.0, 10.0, 10.0);
        let few = GridIndex::build(region, 1.0, &[(1, Point::new(1.0, 1.0))]);
        let pts: Vec<(u32, Point)> = (0..500)
            .map(|i| (i, Point::new((i % 100) as f64 / 10.0, (i / 100) as f64)))
            .collect();
        let many = GridIndex::build(region, 1.0, &pts);
        assert!(many.size_bytes() > few.size_bytes());
    }
}
