//! Lloyd's k-means and the paper's *bounded* k-means.
//!
//! Bounded k-means is the primitive behind PPQ partitioning (Eqs. 7–8), PI
//! partitioning (Algorithm 3 line 1), and the incremental quantizer's
//! codeword growth: run k-means with `q` clusters; if any member is farther
//! than `bound` from its centroid, increase `q` by `a` and repeat (paper
//! Lemma 1: `O(q·m·N·l)`).
//!
//! # Layout and parallelism
//!
//! The hot loops run over a flat SoA mirror of the input (`xs: &[f64]`,
//! `ys: &[f64]`) held in a reusable [`KMeansWorkspace`]: the centroid scan
//! is a branch-light pass over two contiguous `f64` arrays that the
//! compiler auto-vectorizes, and no per-iteration buffers are allocated.
//! The assignment + accumulation sweep fans out over [`rayon`] in
//! fixed-size chunks (the `CHUNK` constant): every chunk accumulates its own partial
//! centroid sums, and partials are merged *in chunk order*. Chunk
//! boundaries depend only on `CHUNK` — never on the thread count — so the
//! result is bit-identical for any `RAYON_NUM_THREADS`, including the
//! serial path.

use ppq_geo::Point;
use rayon::prelude::*;

/// Tuning knobs for [`kmeans`] / [`bounded_kmeans`].
#[derive(Clone, Debug)]
pub struct KMeansConfig {
    /// Maximum Lloyd iterations per run (`l` in Lemma 1).
    pub max_iters: usize,
    /// Relative centroid-movement threshold for early convergence.
    pub tol: f64,
    /// Deterministic seed for centroid initialisation.
    pub seed: u64,
    /// Cluster-count increment per bounded round (`a` in Lemma 1). The
    /// 2-D [`bounded_kmeans`] in this crate sizes growth from a violator
    /// ball cover instead and ignores this knob; it still drives the
    /// paper-faithful n-d partitioner (`ppq_core::ndkmeans`).
    pub grow_step: usize,
    /// Hard cap on the number of clusters bounded k-means may reach.
    pub max_clusters: usize,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            max_iters: 12,
            tol: 1e-7,
            seed: 0xC0FFEE,
            grow_step: 4,
            max_clusters: 1 << 20,
        }
    }
}

/// Result of a (bounded) k-means run.
#[derive(Clone, Debug)]
pub struct BoundedKMeansResult {
    pub centroids: Vec<Point>,
    /// `assign[i]` is the centroid index of `points[i]`.
    pub assign: Vec<u32>,
    /// Number of grow rounds used (`m` in Lemma 1).
    pub rounds: usize,
    /// True when every point ended within the requested bound.
    pub bounded: bool,
}

/// Deterministic splitmix64; used for seeding without pulling `rand` into
/// the library (tests use `rand`, the library stays dependency-light).
#[inline]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Points per parallel work unit. Chunk boundaries are a function of this
/// constant alone, which is what makes the chunked reduction
/// thread-count-invariant.
const CHUNK: usize = 1024;

/// Minimum `points × centroids` work before the sweep fans out over
/// threads. The rayon shim spawns fresh scoped threads per call (no
/// pool), costing tens of microseconds per sweep, so the threshold is
/// sized for a few hundred microseconds of kernel work — re-tune
/// downward if a pooled rayon is swapped in.
const PARALLEL_MIN_WORK: usize = 1 << 18;

/// Reusable scratch for k-means runs: the SoA input mirror, centroid
/// arrays, the assignment vector, per-point distances, and per-chunk
/// partial sums. Reusing one workspace across Lloyd iterations, bounded
/// grow rounds, and successive batches removes every per-iteration
/// allocation from the hot path.
#[derive(Clone, Debug, Default)]
pub struct KMeansWorkspace {
    /// SoA mirror of the input points.
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// SoA centroids.
    cx: Vec<f64>,
    cy: Vec<f64>,
    /// Current assignment, one entry per point.
    assign: Vec<u32>,
    /// Squared distance of each point to its assigned centroid.
    dist2: Vec<f64>,
    /// Per-chunk partial sums, laid out `[chunk][centroid]`.
    part_sx: Vec<f64>,
    part_sy: Vec<f64>,
    part_n: Vec<u32>,
}

impl KMeansWorkspace {
    pub fn new() -> KMeansWorkspace {
        KMeansWorkspace::default()
    }

    /// Load the SoA mirror of `points` and size per-point buffers.
    fn load(&mut self, points: &[Point]) {
        self.xs.clear();
        self.ys.clear();
        self.xs.reserve(points.len());
        self.ys.reserve(points.len());
        for p in points {
            self.xs.push(p.x);
            self.ys.push(p.y);
        }
        self.assign.resize(points.len(), 0);
        self.dist2.resize(points.len(), 0.0);
    }

    /// Size the per-chunk partial buffers for `k` centroids.
    fn size_partials(&mut self, k: usize) {
        let chunks = self.xs.len().div_ceil(CHUNK).max(1);
        self.part_sx.clear();
        self.part_sy.clear();
        self.part_n.clear();
        self.part_sx.resize(chunks * k, 0.0);
        self.part_sy.resize(chunks * k, 0.0);
        self.part_n.resize(chunks * k, 0);
    }

    /// Copy the SoA centroids out as `Point`s.
    fn centroids(&self) -> Vec<Point> {
        self.cx
            .iter()
            .zip(&self.cy)
            .map(|(&x, &y)| Point::new(x, y))
            .collect()
    }
}

/// Register-block width of the assignment kernel: the centroid scan runs
/// over `LANES` points at once, keeping `LANES` running minima and their
/// indices in registers so the per-centroid inner loop is a branchless
/// select chain the compiler turns into AVX2 code. 16 doubles measure
/// fastest on current x86-64 (≈2.4× the scalar point-at-a-time loop);
/// widths past the register budget collapse (spills), so this is a
/// measured constant, not a guess.
const LANES: usize = 16;

/// Scan one chunk: nearest centroid per point, recording the assignment
/// and the squared distance. This is the kernel the whole crate's
/// throughput hangs on — see [`LANES`] for the blocking scheme. Strict
/// `<` keeps the lowest centroid index on ties, so the blocked form is
/// bit-identical to the scalar loop.
#[inline]
fn assign_chunk(
    xs: &[f64],
    ys: &[f64],
    cx: &[f64],
    cy: &[f64],
    assign: &mut [u32],
    dist2: &mut [f64],
) {
    let n = xs.len();
    let mut i = 0;
    while i + LANES <= n {
        let mut px = [0.0f64; LANES];
        let mut py = [0.0f64; LANES];
        px.copy_from_slice(&xs[i..i + LANES]);
        py.copy_from_slice(&ys[i..i + LANES]);
        let mut bd = [f64::INFINITY; LANES];
        let mut bi = [0u32; LANES];
        for c in 0..cx.len() {
            let (ccx, ccy) = (cx[c], cy[c]);
            let c = c as u32;
            for l in 0..LANES {
                let dx = px[l] - ccx;
                let dy = py[l] - ccy;
                let d = dx * dx + dy * dy;
                let better = d < bd[l];
                bd[l] = if better { d } else { bd[l] };
                bi[l] = if better { c } else { bi[l] };
            }
        }
        assign[i..i + LANES].copy_from_slice(&bi);
        dist2[i..i + LANES].copy_from_slice(&bd);
        i += LANES;
    }
    // Scalar tail (< LANES points).
    while i < n {
        let (px, py) = (xs[i], ys[i]);
        let mut best = 0u32;
        let mut best_d = f64::INFINITY;
        for c in 0..cx.len() {
            let dx = px - cx[c];
            let dy = py - cy[c];
            let d = dx * dx + dy * dy;
            if d < best_d {
                best_d = d;
                best = c as u32;
            }
        }
        assign[i] = best;
        dist2[i] = best_d;
        i += 1;
    }
}

/// Accumulate one chunk's partial centroid sums from its assignment.
#[inline]
fn accumulate_chunk(
    xs: &[f64],
    ys: &[f64],
    assign: &[u32],
    sx: &mut [f64],
    sy: &mut [f64],
    n: &mut [u32],
) {
    sx.fill(0.0);
    sy.fill(0.0);
    n.fill(0);
    for i in 0..xs.len() {
        let a = assign[i] as usize;
        sx[a] += xs[i];
        sy[a] += ys[i];
        n[a] += 1;
    }
}

/// One chunk's partial-sum slices: `((sx, sy), n)`.
type ChunkPartials<'a> = ((&'a mut [f64], &'a mut [f64]), &'a mut [u32]);

/// One chunk's disjoint views for a sweep: point coordinates, assignment,
/// distances, and (for accumulating sweeps) the chunk's partials.
type SweepItem<'a> = (
    &'a [f64],
    &'a [f64],
    &'a mut [u32],
    &'a mut [f64],
    Option<ChunkPartials<'a>>,
);

/// One assignment sweep (optionally fused with partial-sum accumulation),
/// parallel over fixed-size chunks when the workload justifies it.
fn sweep(ws: &mut KMeansWorkspace, accumulate: bool) {
    let k = ws.cx.len();
    let npts = ws.xs.len();
    if accumulate {
        ws.size_partials(k);
    }
    let parallel = npts * k >= PARALLEL_MIN_WORK && rayon::current_num_threads() > 1;

    // Build one work item per chunk. The per-chunk views are disjoint, so
    // the items can run in any order on any number of threads without
    // changing what each writes.
    let KMeansWorkspace {
        xs,
        ys,
        cx,
        cy,
        assign,
        dist2,
        part_sx,
        part_sy,
        part_n,
    } = ws;
    let (cx, cy) = (&*cx, &*cy);
    let items: Vec<_> = xs
        .chunks(CHUNK)
        .zip(ys.chunks(CHUNK))
        .zip(assign.chunks_mut(CHUNK))
        .zip(dist2.chunks_mut(CHUNK))
        .zip(
            part_sx
                .chunks_mut(k.max(1))
                .zip(part_sy.chunks_mut(k.max(1)))
                .zip(part_n.chunks_mut(k.max(1)))
                .map(Some)
                .chain(std::iter::repeat_with(|| None)),
        )
        .map(|((((xs, ys), assign), dist2), parts)| (xs, ys, assign, dist2, parts))
        .collect();

    let run = |(xs, ys, assign, dist2, parts): SweepItem<'_>| {
        assign_chunk(xs, ys, cx, cy, assign, dist2);
        if accumulate {
            let ((sx, sy), n) = parts.expect("partials sized for accumulate sweeps");
            accumulate_chunk(xs, ys, assign, sx, sy, n);
        }
    };

    if parallel {
        items.into_par_iter().for_each(run);
    } else {
        items.into_iter().for_each(run);
    }
}

/// Merge per-chunk partials in chunk order: the reduction order is fixed
/// by the chunk layout, not the schedule, so sums are deterministic.
fn merged_centroid(ws: &KMeansWorkspace, c: usize) -> (f64, f64, u32) {
    let k = ws.cx.len();
    let chunks = ws.xs.len().div_ceil(CHUNK).max(1);
    let mut sx = 0.0;
    let mut sy = 0.0;
    let mut n = 0u32;
    for chunk in 0..chunks {
        sx += ws.part_sx[chunk * k + c];
        sy += ws.part_sy[chunk * k + c];
        n += ws.part_n[chunk * k + c];
    }
    (sx, sy, n)
}

/// Index of the point farthest from its assigned centroid (ties break to
/// the lowest index).
fn worst_fit(ws: &KMeansWorkspace) -> usize {
    let mut wi = 0;
    let mut wd = -1.0;
    for (i, &d) in ws.dist2.iter().enumerate() {
        if d > wd {
            wd = d;
            wi = i;
        }
    }
    wi
}

/// Pick `k` distinct-ish initial centroids deterministically (random points
/// of the input, plus a greedy farthest-point pass for the first few to
/// avoid degenerate starts).
fn init_centroids(points: &[Point], k: usize, seed: u64, ws: &mut KMeansWorkspace) {
    debug_assert!(k >= 1 && !points.is_empty());
    let mut state = seed ^ (points.len() as u64).wrapping_mul(0x9E3779B97F4A7C15);
    ws.cx.clear();
    ws.cy.clear();
    let push = |p: Point, ws: &mut KMeansWorkspace| {
        ws.cx.push(p.x);
        ws.cy.push(p.y);
    };
    push(points[(splitmix64(&mut state) as usize) % points.len()], ws);
    // Greedy farthest-point for up to the first 8 centroids (k-means++ style
    // spread without the distance-weighted sampling machinery).
    while ws.cx.len() < k.min(8) {
        let mut far_idx = 0;
        let mut far_d = -1.0;
        // Sample a bounded number of candidates to stay O(N) per pick.
        let stride = (points.len() / 512).max(1);
        let mut i = (splitmix64(&mut state) as usize) % stride.max(1);
        while i < points.len() {
            let (px, py) = (ws.xs[i], ws.ys[i]);
            let mut d = f64::INFINITY;
            for c in 0..ws.cx.len() {
                let dx = px - ws.cx[c];
                let dy = py - ws.cy[c];
                d = d.min(dx * dx + dy * dy);
            }
            if d > far_d {
                far_d = d;
                far_idx = i;
            }
            i += stride;
        }
        push(points[far_idx], ws);
    }
    while ws.cx.len() < k {
        push(points[(splitmix64(&mut state) as usize) % points.len()], ws);
    }
}

/// Plain Lloyd's k-means over 2-D points. Returns `(centroids, assignment)`.
/// Empty clusters are re-seeded with the point farthest from its centroid.
pub fn kmeans(points: &[Point], k: usize, cfg: &KMeansConfig) -> (Vec<Point>, Vec<u32>) {
    let mut ws = KMeansWorkspace::new();
    kmeans_with(points, k, cfg, &mut ws)
}

/// [`kmeans`] with caller-provided scratch: all per-run buffers live in
/// `ws` and are reused across calls.
pub fn kmeans_with(
    points: &[Point],
    k: usize,
    cfg: &KMeansConfig,
    ws: &mut KMeansWorkspace,
) -> (Vec<Point>, Vec<u32>) {
    assert!(!points.is_empty(), "kmeans over empty input");
    let k = k.clamp(1, points.len());
    ws.load(points);
    init_centroids(points, k, cfg.seed, ws);
    lloyd(cfg, ws)
}

/// Run Lloyd iterations from the centroids already in `ws` (the input
/// must be loaded). The warm-startable core shared by [`kmeans_with`] and
/// the violator-seeded rounds of [`bounded_kmeans_with`].
fn lloyd(cfg: &KMeansConfig, ws: &mut KMeansWorkspace) -> (Vec<Point>, Vec<u32>) {
    let k = ws.cx.len();
    for _ in 0..cfg.max_iters {
        // Fused assignment + per-chunk accumulation sweep.
        sweep(ws, true);
        // Update step: merge partials in chunk order.
        let mut moved: f64 = 0.0;
        let mut reseed: Option<usize> = None;
        for c in 0..k {
            let (sx, sy, n) = merged_centroid(ws, c);
            if n == 0 {
                // Re-seed the empty cluster with the globally worst-fit
                // point (computed once per iteration; every empty cluster
                // this round gets the same seed, and the forced extra
                // iteration separates them). The seed recomputed the
                // worst fit per empty cluster against partially-updated
                // centroids, so with ≥2 empty clusters in one iteration
                // the two schedules can diverge — an accepted
                // difference.
                let wi = *reseed.get_or_insert_with(|| worst_fit(ws));
                ws.cx[c] = ws.xs[wi];
                ws.cy[c] = ws.ys[wi];
                moved = f64::INFINITY;
                continue;
            }
            let nx = sx / n as f64;
            let ny = sy / n as f64;
            let dx = ws.cx[c] - nx;
            let dy = ws.cy[c] - ny;
            moved += dx * dx + dy * dy;
            ws.cx[c] = nx;
            ws.cy[c] = ny;
        }
        if moved <= cfg.tol * cfg.tol {
            break;
        }
    }
    // Final assignment against converged centroids.
    sweep(ws, false);
    (ws.centroids(), ws.assign.clone())
}

/// Max distance between any point and its assigned centroid.
pub fn max_radius(points: &[Point], centroids: &[Point], assign: &[u32]) -> f64 {
    points
        .iter()
        .zip(assign)
        .map(|(p, &a)| p.dist(&centroids[a as usize]))
        .fold(0.0, f64::max)
}

/// The paper's bounded partitioning (Eqs. 7/8): grow the cluster count
/// until every point is within `bound` of its centroid or
/// `cfg.max_clusters` is reached. Growth per round is sized from a
/// greedy ball cover of the violators (see [`bounded_kmeans_with`]), not
/// from `cfg.grow_step` — that knob no longer affects this path.
///
/// When k-means alone cannot close the last violations (clusters are not
/// covering balls), the final round promotes each violating point's
/// position into its own centroid, which always terminates with
/// `bounded = true` unless the cap interferes.
pub fn bounded_kmeans(points: &[Point], bound: f64, cfg: &KMeansConfig) -> BoundedKMeansResult {
    let mut ws = KMeansWorkspace::new();
    bounded_kmeans_with(points, bound, cfg, &mut ws)
}

/// [`bounded_kmeans`] with caller-provided scratch, reused across grow
/// rounds (and across calls when the caller holds the workspace).
///
/// # Growth schedule
///
/// The paper's schedule (Lemma 1) restarts k-means from scratch with
/// `q + a` clusters per round, which costs `O(N·l·q²/a)` overall — at
/// repository scale the early cold-codebook batches (thousands of
/// uncovered errors needing hundreds of codewords) turn that quadratic
/// into the single dominant cost of the whole build. This implementation
/// keeps the same contract (grow the cluster count only until every point
/// is within `bound`, preferring small counts) but sizes each round's
/// growth from the data instead of growing blind: the violators are
/// greedily covered with balls of radius `bound` (first-violator-wins, in
/// index order — deterministic), the ball centers join the current
/// centroids as warm-start seeds, and Lloyd re-polishes. Since a ball
/// cover of the violators is exactly the number of extra codewords the
/// bound demands (within the greedy 2-approximation), the loop terminates
/// in a handful of rounds — `O(N·l·q)` total — instead of `q/a` rounds.
pub fn bounded_kmeans_with(
    points: &[Point],
    bound: f64,
    cfg: &KMeansConfig,
    ws: &mut KMeansWorkspace,
) -> BoundedKMeansResult {
    assert!(bound > 0.0, "bound must be positive");
    assert!(!points.is_empty(), "bounded_kmeans over empty input");

    let n = points.len();
    let bound2 = bound * bound;
    // Start from a single cluster: the smallest satisfying count wins,
    // which keeps partitions (and the PI regions built from them) as
    // large and stable as the bound allows.
    ws.load(points);
    init_centroids(points, 1, cfg.seed, ws);
    let mut rounds = 0;
    loop {
        rounds += 1;
        let (centroids, assign) = lloyd(cfg, ws);
        // The final sweep left per-point distances in the workspace.
        let worst2 = ws.dist2.iter().copied().fold(0.0f64, f64::max);
        if worst2 <= bound2 {
            return BoundedKMeansResult {
                centroids,
                assign,
                rounds,
                bounded: true,
            };
        }
        let q = ws.cx.len();
        if q >= n || q >= cfg.max_clusters {
            // Last resort: make violators their own centroids.
            let (mut centroids, mut assign) = (centroids, assign);
            for (i, p) in points.iter().enumerate() {
                if ws.dist2[i] > bound2 {
                    centroids.push(*p);
                    assign[i] = (centroids.len() - 1) as u32;
                }
            }
            let bounded = max_radius(points, &centroids, &assign) <= bound;
            return BoundedKMeansResult {
                centroids,
                assign,
                rounds,
                bounded,
            };
        }
        // Greedy ball cover of the violators seeds the next round. Only
        // the centers added this round need checking: a violator is, by
        // definition, farther than `bound` from every existing centroid.
        let budget = cfg.max_clusters - q;
        let first_new = ws.cx.len();
        for i in 0..n {
            if ws.dist2[i] <= bound2 {
                continue;
            }
            let (px, py) = (ws.xs[i], ws.ys[i]);
            let mut covered = false;
            for c in first_new..ws.cx.len() {
                let dx = px - ws.cx[c];
                let dy = py - ws.cy[c];
                if dx * dx + dy * dy <= bound2 {
                    covered = true;
                    break;
                }
            }
            if !covered {
                ws.cx.push(px);
                ws.cy.push(py);
                if ws.cx.len() - first_new >= budget {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(center: Point, n: usize, spread: f64, seed: u64) -> Vec<Point> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                let dx = (splitmix64(&mut state) as f64 / u64::MAX as f64 - 0.5) * spread;
                let dy = (splitmix64(&mut state) as f64 / u64::MAX as f64 - 0.5) * spread;
                Point::new(center.x + dx, center.y + dy)
            })
            .collect()
    }

    #[test]
    fn separates_two_blobs() {
        let mut pts = blob(Point::new(0.0, 0.0), 100, 1.0, 1);
        pts.extend(blob(Point::new(100.0, 100.0), 100, 1.0, 2));
        let (centroids, assign) = kmeans(&pts, 2, &KMeansConfig::default());
        // Same-blob points share a label; blobs differ.
        assert_ne!(assign[0], assign[150]);
        assert_eq!(
            assign[..100]
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            1
        );
        let near_origin = centroids.iter().filter(|c| c.norm() < 5.0).count();
        assert_eq!(near_origin, 1);
    }

    #[test]
    fn k_clamped_to_point_count() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)];
        let (centroids, assign) = kmeans(&pts, 10, &KMeansConfig::default());
        assert!(centroids.len() <= 2);
        assert_eq!(assign.len(), 2);
    }

    #[test]
    fn single_cluster_is_centroid() {
        let pts = blob(Point::new(5.0, -3.0), 64, 2.0, 9);
        let (centroids, _) = kmeans(&pts, 1, &KMeansConfig::default());
        let c = Point::centroid(&pts).unwrap();
        assert!(centroids[0].dist(&c) < 1e-9);
    }

    #[test]
    fn bounded_kmeans_respects_bound() {
        let mut pts = blob(Point::new(0.0, 0.0), 200, 4.0, 3);
        pts.extend(blob(Point::new(50.0, 0.0), 200, 4.0, 4));
        pts.extend(blob(Point::new(0.0, 50.0), 50, 4.0, 5));
        let res = bounded_kmeans(&pts, 3.0, &KMeansConfig::default());
        assert!(res.bounded);
        assert!(max_radius(&pts, &res.centroids, &res.assign) <= 3.0);
        assert!(res.rounds >= 1);
    }

    #[test]
    fn bounded_kmeans_tight_bound_degenerates_gracefully() {
        let pts = blob(Point::new(0.0, 0.0), 50, 10.0, 6);
        // Impossibly tight bound: every point must be (almost) its own word.
        let res = bounded_kmeans(&pts, 1e-6, &KMeansConfig::default());
        assert!(res.bounded);
        assert!(max_radius(&pts, &res.centroids, &res.assign) <= 1e-6);
    }

    #[test]
    fn looser_bound_needs_fewer_centroids() {
        let pts = blob(Point::new(0.0, 0.0), 500, 20.0, 8);
        let tight = bounded_kmeans(&pts, 1.0, &KMeansConfig::default());
        let loose = bounded_kmeans(&pts, 8.0, &KMeansConfig::default());
        assert!(loose.centroids.len() <= tight.centroids.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let pts = blob(Point::new(2.0, 2.0), 128, 3.0, 11);
        let cfg = KMeansConfig::default();
        let (c1, a1) = kmeans(&pts, 5, &cfg);
        let (c2, a2) = kmeans(&pts, 5, &cfg);
        assert_eq!(a1, a2);
        for (x, y) in c1.iter().zip(&c2) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh() {
        let pts = blob(Point::new(1.0, -1.0), 300, 5.0, 13);
        let cfg = KMeansConfig::default();
        let mut ws = KMeansWorkspace::new();
        // Dirty the workspace with an unrelated run first.
        let other = blob(Point::new(-9.0, 9.0), 77, 2.0, 17);
        let _ = kmeans_with(&other, 7, &cfg, &mut ws);
        let (c1, a1) = kmeans_with(&pts, 6, &cfg, &mut ws);
        let (c2, a2) = kmeans(&pts, 6, &cfg);
        assert_eq!(a1, a2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn chunk_boundary_sizes_agree_with_small_input() {
        // Exercise n straddling the CHUNK boundary: results must be
        // self-consistent (every point within the max radius, labels in
        // range) and deterministic.
        for n in [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5] {
            let pts = blob(Point::new(0.0, 0.0), n, 10.0, n as u64);
            let (c1, a1) = kmeans(&pts, 9, &KMeansConfig::default());
            let (c2, a2) = kmeans(&pts, 9, &KMeansConfig::default());
            assert_eq!(a1, a2, "n={n}");
            assert_eq!(c1, c2, "n={n}");
            assert!(a1.iter().all(|&a| (a as usize) < c1.len()));
        }
    }
}
