//! Uniform grids: the shared machinery behind the PI grid index (`g_c`),
//! the CQC cell lattice (`g_s`), and the codebook nearest-neighbour hash.

use crate::bbox::BBox;
use crate::point::Point;
use std::borrow::Cow;

/// A uniform grid laid over a rectangle.
///
/// Cells are half-open: cell `(i, j)` covers
/// `[origin.x + i·cell, origin.x + (i+1)·cell) × [origin.y + j·cell, …)`,
/// except that points on the top/right boundary of the covered area are
/// clamped into the last row/column so the grid covers its whole `BBox`.
#[derive(Clone, Debug, PartialEq)]
pub struct GridSpec {
    origin: Point,
    cell: f64,
    cols: u32,
    rows: u32,
}

/// Holders of a grid take `impl Into<Cow<GridSpec>>`, so a caller can lend
/// a long-lived grid instead of handing over a copy.
impl From<GridSpec> for Cow<'_, GridSpec> {
    fn from(grid: GridSpec) -> Self {
        Cow::Owned(grid)
    }
}

impl<'a> From<&'a GridSpec> for Cow<'a, GridSpec> {
    fn from(grid: &'a GridSpec) -> Self {
        Cow::Borrowed(grid)
    }
}

impl GridSpec {
    /// Grid covering `bbox` with square cells of side `cell`.
    ///
    /// The number of rows/columns is `ceil(extent / cell)` with a minimum of
    /// one, so degenerate (zero-extent) boxes still produce a usable 1×1
    /// grid.
    pub fn covering(bbox: &BBox, cell: f64) -> GridSpec {
        assert!(cell > 0.0, "cell size must be positive, got {cell}");
        assert!(!bbox.is_empty(), "cannot grid an empty bbox");
        let cols = ((bbox.width() / cell).ceil() as u32).max(1);
        let rows = ((bbox.height() / cell).ceil() as u32).max(1);
        GridSpec {
            origin: bbox.min,
            cell,
            cols,
            rows,
        }
    }

    /// Grid with explicit shape, anchored at `origin`.
    pub fn with_shape(origin: Point, cell: f64, cols: u32, rows: u32) -> GridSpec {
        assert!(cell > 0.0 && cols > 0 && rows > 0);
        GridSpec {
            origin,
            cell,
            cols,
            rows,
        }
    }

    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    #[inline]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    #[inline]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    #[inline]
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// Total number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        false // by construction cols, rows >= 1
    }

    /// The area the grid covers (may slightly exceed the source bbox because
    /// of the ceil in [`GridSpec::covering`]).
    pub fn coverage(&self) -> BBox {
        BBox::from_extents(
            self.origin.x,
            self.origin.y,
            self.origin.x + self.cols as f64 * self.cell,
            self.origin.y + self.rows as f64 * self.cell,
        )
    }

    /// Cell coordinates of `p`, or `None` when `p` is outside the coverage.
    #[inline]
    pub fn locate(&self, p: &Point) -> Option<(u32, u32)> {
        let fx = (p.x - self.origin.x) / self.cell;
        let fy = (p.y - self.origin.y) / self.cell;
        if fx < 0.0 || fy < 0.0 {
            return None;
        }
        let (cx, cy) = (fx as u32, fy as u32);
        // Points exactly on the far boundary belong to the last cell.
        let cx = if cx == self.cols && fx <= self.cols as f64 {
            self.cols - 1
        } else {
            cx
        };
        let cy = if cy == self.rows && fy <= self.rows as f64 {
            self.rows - 1
        } else {
            cy
        };
        (cx < self.cols && cy < self.rows).then_some((cx, cy))
    }

    /// Like [`GridSpec::locate`] but clamps outside points into the nearest
    /// boundary cell. Used by CQC where inputs are guaranteed in-range up to
    /// floating-point jitter.
    #[inline]
    pub fn locate_clamped(&self, p: &Point) -> (u32, u32) {
        let fx = ((p.x - self.origin.x) / self.cell).floor();
        let fy = ((p.y - self.origin.y) / self.cell).floor();
        let cx = fx.clamp(0.0, (self.cols - 1) as f64) as u32;
        let cy = fy.clamp(0.0, (self.rows - 1) as f64) as u32;
        (cx, cy)
    }

    /// Flat index of a cell (row-major).
    #[inline]
    pub fn flat(&self, cx: u32, cy: u32) -> usize {
        debug_assert!(cx < self.cols && cy < self.rows);
        cy as usize * self.cols as usize + cx as usize
    }

    /// Inverse of [`GridSpec::flat`].
    #[inline]
    pub fn unflat(&self, idx: usize) -> (u32, u32) {
        debug_assert!(idx < self.len());
        (
            (idx % self.cols as usize) as u32,
            (idx / self.cols as usize) as u32,
        )
    }

    /// Geometric bounds of a cell.
    pub fn cell_bbox(&self, cx: u32, cy: u32) -> BBox {
        let min = Point::new(
            self.origin.x + cx as f64 * self.cell,
            self.origin.y + cy as f64 * self.cell,
        );
        BBox::new(min, Point::new(min.x + self.cell, min.y + self.cell))
    }

    /// Centre point of a cell.
    #[inline]
    pub fn cell_center(&self, cx: u32, cy: u32) -> Point {
        Point::new(
            self.origin.x + (cx as f64 + 0.5) * self.cell,
            self.origin.y + (cy as f64 + 0.5) * self.cell,
        )
    }

    /// The inclusive cell-coordinate range `(lo_x, lo_y, hi_x, hi_y)` of
    /// cells whose bbox intersects `rect` (closed-interval semantics,
    /// matching [`BBox::intersects`]), or `None` when no cell intersects.
    ///
    /// This is the query-path primitive: callers intersect the range with
    /// their own occupancy information instead of materialising one
    /// `(cx, cy)` pair per covered cell.
    pub fn cell_range_in_rect(&self, rect: &BBox) -> Option<(u32, u32, u32, u32)> {
        if rect.is_empty() {
            return None;
        }
        let lo_x = ((rect.min.x - self.origin.x) / self.cell).floor().max(0.0) as i64;
        let lo_y = ((rect.min.y - self.origin.y) / self.cell).floor().max(0.0) as i64;
        let hi_x =
            (((rect.max.x - self.origin.x) / self.cell).floor() as i64).min(self.cols as i64 - 1);
        let hi_y =
            (((rect.max.y - self.origin.y) / self.cell).floor() as i64).min(self.rows as i64 - 1);
        if lo_x > hi_x || lo_y > hi_y || hi_x < 0 || hi_y < 0 {
            return None;
        }
        Some((lo_x as u32, lo_y as u32, hi_x as u32, hi_y as u32))
    }

    /// All cells whose bbox intersects `rect` (closed-interval semantics,
    /// matching [`BBox::intersects`]).
    pub fn cells_in_rect(&self, rect: &BBox) -> Vec<(u32, u32)> {
        let Some((lo_x, lo_y, hi_x, hi_y)) = self.cell_range_in_rect(rect) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for cy in lo_y..=hi_y {
            for cx in lo_x..=hi_x {
                out.push((cx, cy));
            }
        }
        out
    }

    /// Squared distance from `p` to the rectangle of cell `(cx, cy)` —
    /// zero when `p` is inside the cell.
    #[inline]
    pub fn cell_dist2(&self, cx: u32, cy: u32, p: &Point) -> f64 {
        let bb = self.cell_bbox(cx, cy);
        let dx = (bb.min.x - p.x).max(0.0).max(p.x - bb.max.x);
        let dy = (bb.min.y - p.y).max(0.0).max(p.y - bb.max.y);
        dx * dx + dy * dy
    }

    /// All cells whose bbox intersects the disc of radius `r` around `p`.
    ///
    /// This is the paper's *local search* primitive (§5.2): scan the grid
    /// cells covered by the circle of radius `(√2/2)·g_s` around the query.
    pub fn cells_in_disc(&self, p: &Point, r: f64) -> Vec<(u32, u32)> {
        assert!(r >= 0.0);
        let probe = BBox::from_extents(p.x - r, p.y - r, p.x + r, p.y + r);
        let Some((lo_x, lo_y, hi_x, hi_y)) = self.cell_range_in_rect(&probe) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for cy in lo_y..=hi_y {
            for cx in lo_x..=hi_x {
                if self.cell_dist2(cx, cy, p) <= r * r {
                    out.push((cx, cy));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GridSpec {
        GridSpec::covering(&BBox::from_extents(0.0, 0.0, 10.0, 5.0), 1.0)
    }

    #[test]
    fn shape_from_bbox() {
        let g = grid();
        assert_eq!(g.cols(), 10);
        assert_eq!(g.rows(), 5);
        assert_eq!(g.len(), 50);
    }

    #[test]
    fn non_divisible_extent_rounds_up() {
        let g = GridSpec::covering(&BBox::from_extents(0.0, 0.0, 1.0, 1.0), 0.3);
        assert_eq!(g.cols(), 4);
        assert_eq!(g.rows(), 4);
        assert!(g
            .coverage()
            .contains_box(&BBox::from_extents(0.0, 0.0, 1.0, 1.0)));
    }

    #[test]
    fn locate_interior_and_boundary() {
        let g = grid();
        assert_eq!(g.locate(&Point::new(0.5, 0.5)), Some((0, 0)));
        assert_eq!(g.locate(&Point::new(9.99, 4.99)), Some((9, 4)));
        // right/top boundary clamps into last cells
        assert_eq!(g.locate(&Point::new(10.0, 5.0)), Some((9, 4)));
        assert_eq!(g.locate(&Point::new(-0.1, 0.0)), None);
        assert_eq!(g.locate(&Point::new(10.1, 0.0)), None);
    }

    #[test]
    fn locate_clamped_pulls_outside_points_in() {
        let g = grid();
        assert_eq!(g.locate_clamped(&Point::new(-5.0, 100.0)), (0, 4));
        assert_eq!(g.locate_clamped(&Point::new(3.5, 2.5)), (3, 2));
    }

    #[test]
    fn flat_roundtrip() {
        let g = grid();
        for idx in 0..g.len() {
            let (cx, cy) = g.unflat(idx);
            assert_eq!(g.flat(cx, cy), idx);
        }
    }

    #[test]
    fn cell_geometry() {
        let g = grid();
        let bb = g.cell_bbox(3, 2);
        assert_eq!(bb, BBox::from_extents(3.0, 2.0, 4.0, 3.0));
        assert_eq!(g.cell_center(3, 2), Point::new(3.5, 2.5));
    }

    #[test]
    fn rect_query_covers_intersecting_cells() {
        let g = grid();
        let cells = g.cells_in_rect(&BBox::from_extents(1.5, 1.5, 3.5, 2.5));
        // x cells 1..=3, y cells 1..=2 → 3×2 cells.
        assert_eq!(cells.len(), 6);
        assert!(cells.contains(&(1, 1)));
        assert!(cells.contains(&(3, 2)));
        // Clipped at the grid edge.
        let edge = g.cells_in_rect(&BBox::from_extents(9.5, 4.5, 20.0, 20.0));
        assert_eq!(edge, vec![(9, 4)]);
        // Fully outside.
        assert!(g
            .cells_in_rect(&BBox::from_extents(20.0, 20.0, 30.0, 30.0))
            .is_empty());
    }

    #[test]
    fn disc_zero_radius_is_single_cell() {
        let g = grid();
        let cells = g.cells_in_disc(&Point::new(3.5, 2.5), 0.0);
        assert_eq!(cells, vec![(3, 2)]);
    }

    #[test]
    fn disc_radius_reaches_neighbors() {
        let g = grid();
        // Point at a cell corner with radius covering the four cells that
        // share the corner.
        let cells = g.cells_in_disc(&Point::new(3.0, 2.0), 0.5);
        assert_eq!(cells.len(), 4);
        assert!(cells.contains(&(2, 1)));
        assert!(cells.contains(&(3, 1)));
        assert!(cells.contains(&(2, 2)));
        assert!(cells.contains(&(3, 2)));
    }

    #[test]
    fn disc_clipped_at_grid_edge() {
        let g = grid();
        let cells = g.cells_in_disc(&Point::new(0.0, 0.0), 1.5);
        for (cx, cy) in &cells {
            assert!(*cx < g.cols() && *cy < g.rows());
        }
        assert!(cells.contains(&(0, 0)));
        assert!(cells.contains(&(1, 0)));
        assert!(cells.contains(&(0, 1)));
    }
}
