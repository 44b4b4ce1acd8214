//! Product Quantization baseline (Jégou et al., TPAMI 2011), restated for
//! 2-D trajectory points as in the paper's evaluation (§6.1).
//!
//! The point space is split into its two natural sub-dimensions (x and y);
//! each gets an independent scalar codebook. A point's code is the pair of
//! sub-codeword indices, so PQ pays *two* index streams per point — exactly
//! the extra-index cost the paper calls out when comparing compression
//! ratios (§6.4).
//!
//! # Performance shape
//!
//! The two sub-dimension fits are independent, so [`ProductQuantizer::fit`]
//! runs them on both sides of a [`rayon::join`]; within one axis the 1-D
//! Lloyd sweep is chunked exactly like the 2-D k-means (fixed `CHUNK_1D`
//! boundaries, per-chunk partials merged in chunk order) so results are
//! bit-identical at any thread count. [`ProductQuantizer::fit_bounded`]
//! reuses one [`PqWorkspace`] across its doubling rounds: the axis
//! extraction happens once and no per-round buffers are allocated.

use crate::codebook::index_bits_for;
use ppq_geo::Point;
use rayon::prelude::*;

/// A fitted product quantizer over one batch of points.
#[derive(Clone, Debug)]
pub struct ProductQuantizer {
    pub x_words: Vec<f64>,
    pub y_words: Vec<f64>,
    pub x_codes: Vec<u32>,
    pub y_codes: Vec<u32>,
}

/// Values per parallel work unit in the 1-D sweep; fixed so chunked
/// reductions are thread-count-invariant.
const CHUNK_1D: usize = 2048;

/// Minimum `values × centroids` work before a 1-D sweep fans out. Sized
/// for a pool worker's wake-up cost; see `PARALLEL_MIN_WORK` in
/// `kmeans.rs`.
const PARALLEL_MIN_WORK_1D: usize = 1 << 18;

/// Reusable scratch for one scalar (1-D) k-means axis.
#[derive(Clone, Debug, Default)]
pub struct Scalar1dWorkspace {
    cents: Vec<f64>,
    assign: Vec<u32>,
    /// |value − assigned centroid| per value.
    dist: Vec<f64>,
    /// Per-chunk partial sums/counts, laid out `[chunk][centroid]`.
    part_s: Vec<f64>,
    part_n: Vec<u32>,
}

/// Reusable scratch for a full product-quantizer fit: the two axis
/// extractions plus one scalar workspace per axis.
#[derive(Clone, Debug, Default)]
pub struct PqWorkspace {
    xs: Vec<f64>,
    ys: Vec<f64>,
    wx: Scalar1dWorkspace,
    wy: Scalar1dWorkspace,
}

impl PqWorkspace {
    pub fn new() -> PqWorkspace {
        PqWorkspace::default()
    }

    fn load(&mut self, points: &[Point]) {
        self.xs.clear();
        self.ys.clear();
        self.xs.reserve(points.len());
        self.ys.reserve(points.len());
        for p in points {
            self.xs.push(p.x);
            self.ys.push(p.y);
        }
    }
}

/// Register-block width of the 1-D assignment kernel (same measured
/// blocking as the 2-D kernel in `kmeans.rs`).
const LANES_1D: usize = 16;

/// Assign every value in one chunk to its nearest centroid, recording the
/// absolute deviation, and accumulate the chunk's partial sums. The
/// assignment runs register-blocked: `LANES_1D` running minima and their
/// indices stay in registers while the centroid array streams through,
/// giving a branchless select chain the compiler vectorizes. Strict `<`
/// keeps the lowest centroid index on ties — bit-identical to the scalar
/// loop.
#[inline]
fn sweep_chunk_1d(
    values: &[f64],
    cents: &[f64],
    assign: &mut [u32],
    dist: &mut [f64],
    part_s: &mut [f64],
    part_n: &mut [u32],
) {
    let n = values.len();
    let mut i = 0;
    while i + LANES_1D <= n {
        let mut vs = [0.0f64; LANES_1D];
        vs.copy_from_slice(&values[i..i + LANES_1D]);
        let mut bd = [f64::INFINITY; LANES_1D];
        let mut bi = [0u32; LANES_1D];
        for (c, &cc) in cents.iter().enumerate() {
            let c = c as u32;
            for l in 0..LANES_1D {
                let d = (vs[l] - cc).abs();
                let better = d < bd[l];
                bd[l] = if better { d } else { bd[l] };
                bi[l] = if better { c } else { bi[l] };
            }
        }
        assign[i..i + LANES_1D].copy_from_slice(&bi);
        dist[i..i + LANES_1D].copy_from_slice(&bd);
        i += LANES_1D;
    }
    while i < n {
        let v = values[i];
        let mut best = 0u32;
        let mut bd = f64::INFINITY;
        for (c, &cc) in cents.iter().enumerate() {
            let d = (v - cc).abs();
            if d < bd {
                bd = d;
                best = c as u32;
            }
        }
        assign[i] = best;
        dist[i] = bd;
        i += 1;
    }
    part_s.fill(0.0);
    part_n.fill(0);
    for i in 0..n {
        let a = assign[i] as usize;
        part_s[a] += values[i];
        part_n[a] += 1;
    }
}

/// One chunk's disjoint views for a 1-D sweep: values, assignment,
/// deviations, and the chunk's partial sums/counts.
type Sweep1dItem<'a> = (
    &'a [f64],
    &'a mut [u32],
    &'a mut [f64],
    &'a mut [f64],
    &'a mut [u32],
);

/// One full assignment sweep over an axis, parallel over fixed-size chunks
/// when the workload justifies it.
fn sweep_1d(values: &[f64], ws: &mut Scalar1dWorkspace) {
    let k = ws.cents.len();
    let chunks = values.len().div_ceil(CHUNK_1D).max(1);
    ws.assign.resize(values.len(), 0);
    ws.dist.resize(values.len(), 0.0);
    ws.part_s.clear();
    ws.part_n.clear();
    ws.part_s.resize(chunks * k, 0.0);
    ws.part_n.resize(chunks * k, 0);

    let Scalar1dWorkspace {
        cents,
        assign,
        dist,
        part_s,
        part_n,
    } = ws;
    let cents = &*cents;
    let items: Vec<_> = values
        .chunks(CHUNK_1D)
        .zip(assign.chunks_mut(CHUNK_1D))
        .zip(dist.chunks_mut(CHUNK_1D))
        .zip(part_s.chunks_mut(k).zip(part_n.chunks_mut(k)))
        .map(|(((vs, asg), ds), (ps, pn))| (vs, asg, ds, ps, pn))
        .collect();
    let run = |(vs, asg, ds, ps, pn): Sweep1dItem<'_>| {
        sweep_chunk_1d(vs, cents, asg, ds, ps, pn);
    };
    if values.len() * k >= PARALLEL_MIN_WORK_1D && rayon::current_num_threads() > 1 {
        items.into_par_iter().for_each(run);
    } else {
        items.into_iter().for_each(run);
    }
}

/// Merge one centroid's per-chunk partials in chunk order (deterministic
/// reduction order regardless of the parallel schedule).
fn merged_1d(ws: &Scalar1dWorkspace, n_values: usize, c: usize) -> (f64, u32) {
    let k = ws.cents.len();
    let chunks = n_values.div_ceil(CHUNK_1D).max(1);
    let mut s = 0.0;
    let mut n = 0u32;
    for chunk in 0..chunks {
        s += ws.part_s[chunk * k + c];
        n += ws.part_n[chunk * k + c];
    }
    (s, n)
}

/// 1-D Lloyd's k-means (exact assignment via sort + binary search would be
/// possible, but the 1-D Lloyd loop is simple and fast enough for the
/// codebook sizes the experiments use).
pub fn kmeans_1d(values: &[f64], k: usize, iters: usize) -> (Vec<f64>, Vec<u32>) {
    let mut ws = Scalar1dWorkspace::default();
    kmeans_1d_with(values, k, iters, &mut ws);
    (ws.cents.clone(), ws.assign.clone())
}

/// [`kmeans_1d`] into caller-provided scratch; the fitted centroids and
/// assignment are left in `ws`.
pub fn kmeans_1d_with(values: &[f64], k: usize, iters: usize, ws: &mut Scalar1dWorkspace) {
    assert!(!values.is_empty());
    let k = k.clamp(1, values.len());
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
    // Uniform init across the range; stable and deterministic.
    ws.cents.clear();
    ws.cents.extend((0..k).map(|i| {
        if k == 1 {
            (lo + hi) * 0.5
        } else {
            lo + (hi - lo) * i as f64 / (k - 1) as f64
        }
    }));
    for _ in 0..iters {
        sweep_1d(values, ws);
        let mut moved = 0.0;
        let mut reseed: Option<usize> = None;
        for c in 0..k {
            let (s, n) = merged_1d(ws, values.len(), c);
            if n > 0 {
                let nc = s / n as f64;
                moved += (nc - ws.cents[c]).abs();
                ws.cents[c] = nc;
            } else {
                // Re-seed an empty cluster at the worst-fit value so the
                // codebook cannot waste capacity (needed for the bounded
                // fit to converge).
                let wi = *reseed.get_or_insert_with(|| {
                    let mut wi = 0;
                    let mut wd = -1.0;
                    for (i, &d) in ws.dist.iter().enumerate() {
                        if d > wd {
                            wd = d;
                            wi = i;
                        }
                    }
                    wi
                });
                ws.cents[c] = values[wi];
                moved = f64::INFINITY;
            }
        }
        if moved < 1e-12 {
            break;
        }
    }
    // Final assignment.
    sweep_1d(values, ws);
}

impl ProductQuantizer {
    /// Fit with a per-sub-dimension codebook size (`words_per_dim`
    /// codewords on x and on y).
    pub fn fit(points: &[Point], words_per_dim: usize) -> Self {
        let mut ws = PqWorkspace::new();
        Self::fit_with(points, words_per_dim, &mut ws)
    }

    /// [`ProductQuantizer::fit`] with caller-provided scratch. The two
    /// axes fit concurrently; each side's sweep is itself chunk-parallel.
    pub fn fit_with(points: &[Point], words_per_dim: usize, ws: &mut PqWorkspace) -> Self {
        assert!(!points.is_empty());
        ws.load(points);
        Self::fit_loaded(words_per_dim, words_per_dim, ws)
    }

    /// Fit both axes from an already-loaded workspace.
    fn fit_loaded(x_words: usize, y_words: usize, ws: &mut PqWorkspace) -> Self {
        let PqWorkspace { xs, ys, wx, wy } = ws;
        rayon::join(
            || kmeans_1d_with(xs, x_words, 16, wx),
            || kmeans_1d_with(ys, y_words, 16, wy),
        );
        ProductQuantizer {
            x_words: wx.cents.clone(),
            y_words: wy.cents.clone(),
            x_codes: wx.assign.clone(),
            y_codes: wy.assign.clone(),
        }
    }

    /// Fit with a total index budget of `bits` per point, split between the
    /// two sub-dimensions (x gets the extra bit when `bits` is odd).
    pub fn fit_bits(points: &[Point], bits: u32) -> Self {
        assert!(bits >= 2, "need at least 1 bit per sub-dimension");
        let bx = bits.div_ceil(2);
        let by = bits / 2;
        let mut ws = PqWorkspace::new();
        ws.load(points);
        Self::fit_loaded(1usize << bx, 1usize << by, &mut ws)
    }

    /// Grow the per-dimension codebooks until the max 2-D reconstruction
    /// error is within `eps` (used by the deviation-budget experiments,
    /// Tables 5–6). Each round multiplies the sub-codebook size by 2.
    ///
    /// One [`PqWorkspace`] carries all rounds: the axis extraction happens
    /// once and the Lloyd scratch is recycled from round to round.
    pub fn fit_bounded(points: &[Point], eps: f64) -> Self {
        assert!(eps > 0.0);
        let mut ws = PqWorkspace::new();
        ws.load(points);
        let mut k = 2usize;
        loop {
            let pq = Self::fit_loaded(k, k, &mut ws);
            if pq.max_error(points) <= eps {
                return pq;
            }
            if k >= points.len() {
                // Exact fallback: one scalar codeword per distinct value on
                // each axis — zero quantization error by construction.
                return Self::exact(points);
            }
            k *= 2;
        }
    }

    /// Degenerate PQ with one codeword per distinct scalar value.
    fn exact(points: &[Point]) -> Self {
        let assign_axis = |values: &[f64]| {
            let mut words: Vec<f64> = values.to_vec();
            words.sort_by(|a, b| a.partial_cmp(b).unwrap());
            words.dedup();
            let codes = values
                .iter()
                .map(|v| words.partition_point(|w| w < v) as u32)
                .collect::<Vec<u32>>();
            (words, codes)
        };
        let xs: Vec<f64> = points.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.y).collect();
        let (x_words, x_codes) = assign_axis(&xs);
        let (y_words, y_codes) = assign_axis(&ys);
        ProductQuantizer {
            x_words,
            y_words,
            x_codes,
            y_codes,
        }
    }

    /// Reconstruction of input `i`.
    #[inline]
    pub fn reconstruct(&self, i: usize) -> Point {
        Point::new(
            self.x_words[self.x_codes[i] as usize],
            self.y_words[self.y_codes[i] as usize],
        )
    }

    pub fn max_error(&self, points: &[Point]) -> f64 {
        points
            .iter()
            .enumerate()
            .map(|(i, p)| p.dist(&self.reconstruct(i)))
            .fold(0.0, f64::max)
    }

    pub fn mean_error(&self, points: &[Point]) -> f64 {
        if points.is_empty() {
            return 0.0;
        }
        points
            .iter()
            .enumerate()
            .map(|(i, p)| p.dist(&self.reconstruct(i)))
            .sum::<f64>()
            / points.len() as f64
    }

    /// Number of stored codewords, counted in 2-D codeword equivalents
    /// (two scalar words = one 2-D word's storage).
    pub fn codeword_equivalents(&self) -> usize {
        (self.x_words.len() + self.y_words.len()).div_ceil(2)
    }

    /// Index bits per point: PQ stores two sub-indices.
    pub fn index_bits_per_point(&self) -> u32 {
        index_bits_for(self.x_words.len()) + index_bits_for(self.y_words.len())
    }

    /// Codebook bytes: scalar words are one f64 each.
    pub fn codebook_bytes(&self) -> usize {
        (self.x_words.len() + self.y_words.len()) * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect()
    }

    #[test]
    fn kmeans_1d_two_clusters() {
        let vals = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2];
        let (cents, assign) = kmeans_1d(&vals, 2, 20);
        assert_eq!(assign[0], assign[1]);
        assert_eq!(assign[3], assign[5]);
        assert_ne!(assign[0], assign[3]);
        let mut sorted = cents.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((sorted[0] - 0.1).abs() < 1e-9);
        assert!((sorted[1] - 10.1).abs() < 1e-9);
    }

    #[test]
    fn more_words_less_error() {
        let pts = points(500, 1);
        let small = ProductQuantizer::fit(&pts, 4);
        let large = ProductQuantizer::fit(&pts, 32);
        assert!(large.mean_error(&pts) < small.mean_error(&pts));
    }

    #[test]
    fn bounded_fit_respects_eps() {
        let pts = points(300, 2);
        let pq = ProductQuantizer::fit_bounded(&pts, 0.5);
        assert!(pq.max_error(&pts) <= 0.5 + 1e-12);
    }

    #[test]
    fn bits_split() {
        let pts = points(100, 3);
        let pq = ProductQuantizer::fit_bits(&pts, 5);
        assert_eq!(pq.x_words.len(), 8); // ceil(5/2) = 3 bits
        assert_eq!(pq.y_words.len(), 4); // floor(5/2) = 2 bits
        assert_eq!(pq.index_bits_per_point(), 5);
    }

    #[test]
    fn pq_pays_double_index_cost() {
        let pts = points(100, 4);
        let pq = ProductQuantizer::fit(&pts, 16);
        // 16 words per dim -> 4 bits per dim -> 8 bits per point.
        assert_eq!(pq.index_bits_per_point(), 8);
    }

    #[test]
    fn workspace_reuse_matches_fresh() {
        let pts = points(700, 5);
        let mut ws = PqWorkspace::new();
        // Dirty the workspace with an unrelated fit first.
        let _ = ProductQuantizer::fit_with(&points(123, 6), 8, &mut ws);
        let reused = ProductQuantizer::fit_with(&pts, 16, &mut ws);
        let fresh = ProductQuantizer::fit(&pts, 16);
        assert_eq!(reused.x_words, fresh.x_words);
        assert_eq!(reused.y_words, fresh.y_words);
        assert_eq!(reused.x_codes, fresh.x_codes);
        assert_eq!(reused.y_codes, fresh.y_codes);
    }
}
