//! Seeded workload generator: one `u64` drives the dataset seed, the
//! query anchors and the arrival schedule.
//!
//! The logic is copied from `crates/load` (Poisson arrivals, Zipf
//! trajectory popularity over a shuffled rank→id map, hot-cell spatial
//! skew) so the benchmark keeps producing the same inputs when that crate
//! changes or disappears. It owns its random number generator for the
//! same reason. Generation is single-threaded from one stream, so a
//! `(anchors, spec)` pair yields byte-identical schedules at any
//! `RAYON_NUM_THREADS`; [`fingerprint`] is the printed comparison form.

/// SplitMix64 (Steele, Lea, Flood): tiny, seedable, good enough for
/// workload generation, and frozen here.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for
    /// every `n` this benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An independent stream for sub-task `k` of this seed.
    pub fn derive(seed: u64, k: u64) -> u64 {
        Rng(seed ^ k.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
    }
}

/// Inverse-CDF sampler over ranks `0..n`: rank `k` has probability
/// proportional to `(k+1+q)^-s` (Zipf–Mandelbrot; `q = 0` is Zipf). The
/// offset flattens the head and leaves the tail's slope: with `s = 1`,
/// `q = 30` and 5200 ranks the first rank draws 0.6 % of the samples and
/// the first fifth of the ranks 69 %.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, q: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty rank set");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += ((k + 1) as f64 + q).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        // The last cumulative weight must cover u arbitrarily close to 1.
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// What the generator needs to know about the dataset: per-trajectory
/// start time and positions. Implemented for the system's dataset type
/// in `sut.rs`; tests use a fake.
pub trait Anchors {
    fn num_trajectories(&self) -> usize;
    fn start(&self, traj: usize) -> u32;
    fn len(&self, traj: usize) -> usize;
    fn at(&self, traj: usize, offset: usize) -> (f64, f64);
    /// `(min_x, min_y, max_x, max_y)` over every point.
    fn extent(&self) -> (f64, f64, f64, f64);
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Strq,
    Tpq,
}

/// One generated query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Query {
    /// Scheduled send time, nanoseconds from the start of the phase
    /// (zero throughout for closed-loop schedules).
    pub at_ns: u64,
    pub kind: Kind,
    pub t: u32,
    pub x: f64,
    pub y: f64,
    /// TPQ horizon (zero for STRQ).
    pub horizon: u32,
}

#[derive(Clone, Debug)]
pub struct ScheduleSpec {
    pub seed: u64,
    pub ops: usize,
    /// Share of STRQ; the rest are TPQ.
    pub strq_frac: f64,
    /// Exponent and offset of trajectory popularity (see [`Zipf`]).
    pub zipf_s: f64,
    pub zipf_q: f64,
    /// Share of queries whose anchor is redrawn inside a hot cell.
    pub hot_frac: f64,
    pub hot_cells: usize,
    /// Hot-cell grid resolution, cells per side of the extent.
    pub grid_cells: u32,
    pub tpq_horizon: u32,
    /// `Some(rate)`: Poisson arrivals at `rate` per second (open loop).
    /// `None`: no arrival times (closed loop).
    pub rate_per_s: Option<f64>,
    /// Only anchor on positions with timestep `< t_limit` (the live
    /// workload queries what has been ingested so far).
    pub t_limit: u32,
}

/// Generate `spec.ops` queries. Anchor trajectory by Zipf rank through a
/// seeded Fisher–Yates rank→id shuffle; anchor position is the
/// trajectory's own point, or with probability `hot_frac` a uniform point
/// in one of `hot_cells` cells seeded from the most popular trajectories'
/// first points (so hot cells sit on real data).
pub fn schedule(data: &impl Anchors, spec: &ScheduleSpec) -> Vec<Query> {
    let n = data.num_trajectories();
    assert!(n > 0 && spec.ops > 0, "empty schedule");
    let mut rng = Rng::new(spec.seed);
    let zipf = Zipf::new(n, spec.zipf_s, spec.zipf_q);
    let mut rank_to_id: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        rank_to_id.swap(i, rng.below(i + 1));
    }

    let (min_x, min_y, max_x, max_y) = data.extent();
    let cells = spec.grid_cells.max(1) as f64;
    let cell = ((max_x - min_x).max(max_y - min_y) / cells).max(1e-9);
    let cell_of = |x: f64, y: f64| -> (i64, i64) {
        (
            ((x - min_x) / cell).floor() as i64,
            ((y - min_y) / cell).floor() as i64,
        )
    };
    let mut hot: Vec<(i64, i64)> = Vec::new();
    for &id in &rank_to_id {
        if hot.len() >= spec.hot_cells {
            break;
        }
        let (x, y) = data.at(id, 0);
        let c = cell_of(x, y);
        if !hot.contains(&c) {
            hot.push(c);
        }
    }

    let mut out = Vec::with_capacity(spec.ops);
    let mut clock_s = 0.0f64;
    while out.len() < spec.ops {
        let kind = if rng.unit() < spec.strq_frac {
            Kind::Strq
        } else {
            Kind::Tpq
        };
        let id = rank_to_id[zipf.sample(&mut rng)];
        let off = rng.below(data.len(id));
        let t = data.start(id) + off as u32;
        let redraw_hot = !hot.is_empty() && rng.unit() < spec.hot_frac;
        let (x, y) = if redraw_hot {
            let (cx, cy) = hot[rng.below(hot.len())];
            (
                min_x + (cx as f64 + rng.unit()) * cell,
                min_y + (cy as f64 + rng.unit()) * cell,
            )
        } else {
            data.at(id, off)
        };
        if t >= spec.t_limit {
            continue;
        }
        let at_ns = match spec.rate_per_s {
            Some(rate) => {
                // Exponential inter-arrival: Poisson process at `rate`.
                clock_s += -(1.0 - rng.unit()).ln() / rate;
                (clock_s * 1e9).round() as u64
            }
            None => 0,
        };
        out.push(Query {
            at_ns,
            kind,
            t,
            x,
            y,
            horizon: if kind == Kind::Tpq {
                spec.tpq_horizon
            } else {
                0
            },
        });
    }
    out
}

/// Canonical bytes of a schedule: little-endian fields, `f64` as IEEE
/// bits, so "byte-identical" means bit-identical anchors and instants.
pub fn to_bytes(queries: &[Query]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + queries.len() * 33);
    out.extend_from_slice(&(queries.len() as u64).to_le_bytes());
    for q in queries {
        out.extend_from_slice(&q.at_ns.to_le_bytes());
        out.push(match q.kind {
            Kind::Strq => 0,
            Kind::Tpq => 1,
        });
        out.extend_from_slice(&q.t.to_le_bytes());
        out.extend_from_slice(&q.x.to_bits().to_le_bytes());
        out.extend_from_slice(&q.y.to_bits().to_le_bytes());
        out.extend_from_slice(&q.horizon.to_le_bytes());
    }
    out
}

/// FNV-1a over arbitrary bytes; the digest form for schedules and
/// answers.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn fingerprint(queries: &[Query]) -> u64 {
    fnv1a(FNV_OFFSET, &to_bytes(queries))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 40 straight-line trajectories on a 1×1 extent.
    struct Fake;
    impl Anchors for Fake {
        fn num_trajectories(&self) -> usize {
            40
        }
        fn start(&self, traj: usize) -> u32 {
            (traj % 7) as u32
        }
        fn len(&self, traj: usize) -> usize {
            30 + traj
        }
        fn at(&self, traj: usize, offset: usize) -> (f64, f64) {
            (traj as f64 / 40.0, offset as f64 / 80.0)
        }
        fn extent(&self) -> (f64, f64, f64, f64) {
            (0.0, 0.0, 1.0, 1.0)
        }
    }

    fn spec(seed: u64) -> ScheduleSpec {
        ScheduleSpec {
            seed,
            ops: 5000,
            strq_frac: 0.77,
            zipf_s: 1.0,
            zipf_q: 0.0,
            hot_frac: 0.5,
            hot_cells: 8,
            grid_cells: 32,
            tpq_horizon: 10,
            rate_per_s: Some(4000.0),
            t_limit: u32::MAX,
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_differs() {
        let a = schedule(&Fake, &spec(7));
        let b = schedule(&Fake, &spec(7));
        let c = schedule(&Fake, &spec(8));
        assert_eq!(to_bytes(&a), to_bytes(&b));
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(to_bytes(&a), to_bytes(&c));
    }

    #[test]
    fn fingerprint_is_pinned() {
        // A change to the generator changes every later result; make it
        // a deliberate act.
        assert_eq!(
            fingerprint(&schedule(&Fake, &spec(7))),
            0xae45_4eec_eaf8_d275
        );
    }

    #[test]
    fn arrivals_sorted_rate_and_mix_close() {
        let s = schedule(&Fake, &spec(1));
        assert_eq!(s.len(), 5000);
        assert!(s.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        let rate = s.len() as f64 / (s.last().unwrap().at_ns as f64 / 1e9);
        assert!((rate - 4000.0).abs() / 4000.0 < 0.1, "rate {rate}");
        let strq = s.iter().filter(|q| q.kind == Kind::Strq).count() as f64 / 5000.0;
        assert!((strq - 0.77).abs() < 0.03, "strq share {strq}");
        assert!(s.iter().all(|q| (q.kind == Kind::Tpq) == (q.horizon == 10)));
    }

    #[test]
    fn closed_loop_has_no_arrival_times_and_t_limit_filters() {
        let mut sp = spec(3);
        sp.rate_per_s = None;
        sp.t_limit = 20;
        let s = schedule(&Fake, &sp);
        assert_eq!(s.len(), 5000);
        assert!(s.iter().all(|q| q.at_ns == 0 && q.t < 20));
    }

    #[test]
    fn zipf_head_beats_tail() {
        let z = Zipf::new(100, 1.0, 0.0);
        let mut rng = Rng::new(0xC0FFEE);
        let mut counts = [0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > 20 * counts[99].max(1));
        let head: f64 = counts[0] as f64 / 100_000.0;
        assert!((head - 1.0 / 5.187).abs() < 0.01, "rank-0 mass {head}");
        // Offset 30: the head is flat, the tail still falls. Rank 0 has
        // (1/31) / (H(130) - H(30)) of the mass.
        let flat = Zipf::new(100, 1.0, 30.0);
        let mut counts = [0u32; 100];
        for _ in 0..100_000 {
            counts[flat.sample(&mut rng)] += 1;
        }
        let head: f64 = counts[0] as f64 / 100_000.0;
        assert!((head - 0.0221).abs() < 0.003, "rank-0 mass {head}");
        assert!(counts[0] > 3 * counts[99]);
    }
}
