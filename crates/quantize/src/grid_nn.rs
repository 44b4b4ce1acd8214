//! Grid-hash accelerated nearest-codeword search.
//!
//! The incremental quantizer must, for every incoming error vector, find
//! the nearest codeword *if one lies within `ε₁`*. Hashing codewords into a
//! uniform grid of cell side `ε₁` means any codeword within `ε₁` of a query
//! lies in the query's cell or one of its 8 neighbours, so each probe
//! inspects a constant number of cells. Beyond-`ε₁` lookups (needed for
//! exact nearest) fall back to an expanding ring search.

use ppq_geo::Point;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Minimal Fx-style integer hasher for the cell keys. The probe does nine
/// map lookups per query point, and the default SipHash dominates that
/// cost by an order of magnitude; cell coordinates are short fixed-width
/// integers, where a multiply-rotate hash is both fast and well mixed.
/// (Local implementation: the offline build cannot pull `rustc-hash`.)
#[derive(Clone, Copy, Default)]
pub struct CellHasher {
    state: u64,
}

impl Hasher for CellHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        // Fx-style combine: xor, multiply by a high-entropy odd constant,
        // rotate to spread low-bit patterns into the table index bits.
        self.state = (self.state ^ v)
            .wrapping_mul(0x517CC1B727220A95)
            .rotate_left(26);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
}

type CellMap = HashMap<(i64, i64), Vec<u32>, BuildHasherDefault<CellHasher>>;

/// Spatial hash over codeword positions with cell side = the bound `eps`.
#[derive(Clone, Debug)]
pub struct GridNN {
    eps: f64,
    cells: CellMap,
    points: Vec<Point>,
}

impl GridNN {
    /// `eps` is both the grid cell side and the radius the fast probe
    /// guarantees to cover.
    pub fn new(eps: f64) -> Self {
        assert!(
            eps > 0.0 && eps.is_finite(),
            "eps must be positive, got {eps}"
        );
        GridNN {
            eps,
            cells: CellMap::default(),
            points: Vec::new(),
        }
    }

    #[inline]
    fn key(&self, p: &Point) -> (i64, i64) {
        (
            (p.x / self.eps).floor() as i64,
            (p.y / self.eps).floor() as i64,
        )
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Insert a point with an external id (the codeword index).
    pub fn insert(&mut self, id: u32, p: Point) {
        debug_assert_eq!(
            id as usize,
            self.points.len(),
            "ids must be dense and in order"
        );
        let key = self.key(&p);
        self.cells.entry(key).or_default().push(id);
        self.points.push(p);
    }

    /// Nearest neighbour within `eps` of `q`, if any. This is the O(1) hot
    /// path: only the 3×3 cell neighbourhood is probed.
    pub fn nearest_within_eps(&self, q: &Point) -> Option<(u32, f64)> {
        let (kx, ky) = self.key(q);
        let mut best: Option<(u32, f64)> = None;
        for dy in -1..=1 {
            for dx in -1..=1 {
                if let Some(ids) = self.cells.get(&(kx + dx, ky + dy)) {
                    for &id in ids {
                        let d2 = q.dist2(&self.points[id as usize]);
                        if best.is_none_or(|(_, b)| d2 < b) {
                            best = Some((id, d2));
                        }
                    }
                }
            }
        }
        match best {
            Some((id, d2)) if d2.sqrt() <= self.eps => Some((id, d2.sqrt())),
            _ => None,
        }
    }

    /// Exact nearest neighbour with no radius bound, via expanding ring
    /// search. Used when a caller needs the best codeword even if it is
    /// farther than `eps` (e.g. MAE accounting for budgeted codebooks).
    pub fn nearest(&self, q: &Point) -> Option<(u32, f64)> {
        if self.points.is_empty() {
            return None;
        }
        let (kx, ky) = self.key(q);
        let mut best: Option<(u32, f64)> = None;
        let mut ring = 0i64;
        loop {
            for dy in -ring..=ring {
                for dx in -ring..=ring {
                    // Only the new boundary ring.
                    if dx.abs() != ring && dy.abs() != ring {
                        continue;
                    }
                    if let Some(ids) = self.cells.get(&(kx + dx, ky + dy)) {
                        for &id in ids {
                            let d2 = q.dist2(&self.points[id as usize]);
                            if best.is_none_or(|(_, b)| d2 < b) {
                                best = Some((id, d2));
                            }
                        }
                    }
                }
            }
            // Every point in ring s > r is at least (s-1)·eps from q, so once
            // the best distance is ≤ (ring-1)·eps no later ring can improve.
            if let Some((_, b2)) = best {
                let safe = (ring as f64 - 1.0).max(0.0) * self.eps;
                if b2.sqrt() <= safe {
                    break;
                }
            }
            ring += 1;
            // Far-from-data queries would otherwise scan O((d/eps)^2) empty
            // cells; fall back to the exhaustive scan instead.
            if ring > 64 && best.is_none() {
                let (id, d2) = self
                    .points
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (i as u32, q.dist2(p)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .expect("points is non-empty");
                best = Some((id, d2));
                break;
            }
        }
        best.map(|(id, d2)| (id, d2.sqrt()))
    }

    /// Rebuild from a list of points (ids are positions).
    pub fn from_points(eps: f64, pts: &[Point]) -> Self {
        let mut g = GridNN::new(eps);
        for (i, p) in pts.iter().enumerate() {
            g.insert(i as u32, *p);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_eps_hit_and_miss() {
        let mut g = GridNN::new(1.0);
        g.insert(0, Point::new(0.0, 0.0));
        g.insert(1, Point::new(5.0, 5.0));
        let (id, d) = g.nearest_within_eps(&Point::new(0.5, 0.0)).unwrap();
        assert_eq!(id, 0);
        assert!((d - 0.5).abs() < 1e-12);
        assert!(g.nearest_within_eps(&Point::new(2.5, 0.0)).is_none());
    }

    #[test]
    fn boundary_distance_exactly_eps_counts() {
        let mut g = GridNN::new(1.0);
        g.insert(0, Point::new(0.0, 0.0));
        let hit = g.nearest_within_eps(&Point::new(1.0, 0.0));
        assert!(hit.is_some());
        assert_eq!(hit.unwrap().0, 0);
    }

    #[test]
    fn unbounded_nearest_finds_far_point() {
        let mut g = GridNN::new(0.5);
        g.insert(0, Point::new(100.0, 100.0));
        g.insert(1, Point::new(-40.0, 3.0));
        let (id, _) = g.nearest(&Point::new(0.0, 0.0)).unwrap();
        assert_eq!(id, 1);
    }

    #[test]
    fn unbounded_nearest_empty_is_none() {
        let g = GridNN::new(1.0);
        assert!(g.nearest(&Point::ORIGIN).is_none());
    }

    #[test]
    fn matches_exhaustive_search() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let pts: Vec<Point> = (0..400)
            .map(|_| Point::new(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)))
            .collect();
        let g = GridNN::from_points(0.8, &pts);
        for _ in 0..200 {
            let q = Point::new(rng.gen_range(-12.0..12.0), rng.gen_range(-12.0..12.0));
            let (gid, gd) = g.nearest(&q).unwrap();
            let (eid, ed) = pts
                .iter()
                .enumerate()
                .map(|(i, p)| (i as u32, q.dist(p)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            assert!(
                (gd - ed).abs() < 1e-9,
                "grid gave {gid}@{gd}, exhaustive gave {eid}@{ed} for {q:?}"
            );
        }
    }
}
