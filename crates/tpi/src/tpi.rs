//! The temporal partition-based index TPI (paper Algorithm 4).

use crate::pi::{Pi, PiConfig};
use ppq_geo::Point;
use ppq_traj::Dataset;
use std::sync::Arc;

/// TPI parameters (paper Table 1 / §6.1 defaults).
#[derive(Clone, Debug)]
pub struct TpiConfig {
    pub pi: PiConfig,
    /// TRD dropping-rate threshold `ε_c` (default 0.5).
    pub eps_c: f64,
    /// ADR threshold `ε_d` (default 0.5).
    pub eps_d: f64,
}

impl Default for TpiConfig {
    fn default() -> Self {
        TpiConfig {
            pi: PiConfig::default(),
            eps_c: 0.5,
            eps_d: 0.5,
        }
    }
}

/// Build statistics reported by Tables 7–8.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TpiStats {
    /// Number of time periods (= number of "Re-build"s, the first build
    /// included).
    pub periods: usize,
    /// Number of "Insertion" operations.
    pub insertions: usize,
    /// Timesteps processed.
    pub timesteps: usize,
}

/// One period: `[t_start, t_end]` plus its PI (with insertions appended).
#[derive(Clone, Debug)]
pub struct Period {
    pub t_start: u32,
    pub t_end: u32,
    pub pi: Pi,
}

/// The temporal partition-based index.
///
/// The index grows with the stream: [`Tpi::push_slice`] is one step of
/// Algorithm 4, and only the last period is ever mutable. A period is
/// sealed ([`Pi::seal`]) the moment a re-build closes it and is never
/// touched again, so periods are shared: cloning a `Tpi` bumps one `Arc`
/// per period, and a clone that goes on to seal or extend its open period
/// copies that one period only.
#[derive(Clone, Debug)]
pub struct Tpi {
    periods: Vec<Arc<Period>>,
    stats: TpiStats,
    cfg: TpiConfig,
}

impl Tpi {
    /// An empty index that will grow by [`Tpi::push_slice`].
    pub fn new(cfg: TpiConfig) -> Tpi {
        Tpi {
            periods: Vec::new(),
            stats: TpiStats::default(),
            cfg,
        }
    }

    /// One step of Algorithm 4: index the points at timestep `t`, which
    /// must be past every timestep pushed so far.
    ///
    /// Works for raw, reconstructed, or CQC-corrected points — the paper
    /// notes TPI "can actually be applied for any of `T`, `T̄'` and `T̂`".
    pub fn push_slice(&mut self, t: u32, points: &[(u32, Point)]) {
        self.stats.timesteps += 1;
        if let Some(last) = self.periods.last_mut() {
            let period = Arc::make_mut(last);
            assert!(!period.pi.is_sealed(), "push_slice into a sealed TPI");
            debug_assert!(t > period.t_end, "slices must be time-ordered");
            let (covered, uncovered) = period.pi.split_coverage(points);
            // ADR over the covered set w.r.t. the period's regions
            // (Algorithm 4 line 6 computes ADR(t_s, t_e, ε_c) on the
            // covered points).
            if period.pi.adr(&covered, self.cfg.eps_c) > self.cfg.eps_d {
                // Re-build: the period is closed for good; a fresh PI
                // starts below.
                period.pi.seal();
            } else {
                period.pi.insert_covered(t, &covered);
                if !uncovered.is_empty() {
                    period.pi.append_insertion(t, &uncovered);
                    self.stats.insertions += 1;
                }
                period.t_end = t;
                return;
            }
        }
        self.periods.push(Arc::new(Period {
            t_start: t,
            t_end: t,
            pi: Pi::build(t, points, &self.cfg.pi),
        }));
        self.stats.periods += 1;
    }

    /// Seal the open period: the index is complete and immutable.
    pub fn seal(&mut self) {
        if let Some(last) = self.periods.last_mut() {
            if !last.pi.is_sealed() {
                Arc::make_mut(last).pi.seal();
            }
        }
    }

    /// Algorithm 4 over an ordered stream of time slices: a fold of
    /// [`Tpi::push_slice`] over `(t, points-at-t)` items with strictly
    /// increasing timesteps, sealed at the end.
    pub fn build_from_slices<I>(slices: I, cfg: &TpiConfig) -> Tpi
    where
        I: IntoIterator<Item = (u32, Vec<(u32, Point)>)>,
    {
        let mut tpi = Tpi::new(cfg.clone());
        for (t, points) in slices {
            tpi.push_slice(t, &points);
        }
        tpi.seal();
        tpi
    }

    /// Convenience: build over a dataset's raw points.
    pub fn build(dataset: &Dataset, cfg: &TpiConfig) -> Tpi {
        Self::build_from_slices(dataset.time_slices().map(|s| (s.t, s.points.to_vec())), cfg)
    }

    #[inline]
    pub fn stats(&self) -> &TpiStats {
        &self.stats
    }

    /// The periods in time order; all but the last are sealed and shared
    /// with every clone of this index.
    #[inline]
    pub fn periods(&self) -> &[Arc<Period>] {
        &self.periods
    }

    /// The period covering timestep `t` (binary search).
    pub fn period_of(&self, t: u32) -> Option<&Period> {
        let idx = self.periods.partition_point(|p| p.t_end < t);
        self.periods
            .get(idx)
            .map(Arc::as_ref)
            .filter(|p| p.t_start <= t && t <= p.t_end)
    }

    /// STRQ: trajectory IDs in the `g_c` cell of `p` at time `t`.
    pub fn query(&self, t: u32, p: &Point) -> Vec<u32> {
        self.period_of(t)
            .map(|period| period.pi.query(t, p))
            .unwrap_or_default()
    }

    /// [`Tpi::query`] appending into `out`.
    pub fn query_into(&self, t: u32, p: &Point, out: &mut Vec<u32>) {
        if let Some(period) = self.period_of(t) {
            period.pi.query_into(t, p, out);
        }
    }

    /// Local-search STRQ: IDs within radius `r` of `p` at time `t`.
    pub fn query_disc(&self, t: u32, p: &Point, r: f64) -> Vec<u32> {
        self.period_of(t)
            .map(|period| period.pi.query_disc(t, p, r))
            .unwrap_or_default()
    }

    /// [`Tpi::query_disc`] appending into `out` through a reusable scratch.
    pub fn query_disc_into(
        &self,
        t: u32,
        p: &Point,
        r: f64,
        scratch: &mut ppq_sindex::QueryScratch,
        out: &mut Vec<u32>,
    ) {
        if let Some(period) = self.period_of(t) {
            period.pi.query_disc_into(t, p, r, scratch, out);
        }
    }

    /// Rectangle STRQ: IDs in cells intersecting `rect` at time `t`.
    pub fn query_rect(&self, t: u32, rect: &ppq_geo::BBox) -> Vec<u32> {
        self.period_of(t)
            .map(|period| period.pi.query_rect(t, rect))
            .unwrap_or_default()
    }

    /// [`Tpi::query_rect`] appending the sorted, deduplicated IDs into
    /// `out` through a reusable scratch — the allocation-free primitive
    /// behind batched STRQ/TPQ evaluation.
    pub fn query_rect_into(
        &self,
        t: u32,
        rect: &ppq_geo::BBox,
        scratch: &mut ppq_sindex::QueryScratch,
        out: &mut Vec<u32>,
    ) {
        if let Some(period) = self.period_of(t) {
            period.pi.query_rect_into(t, rect, scratch, out);
        }
    }

    /// Total index size (what Tables 7–9 call "Index Size").
    pub fn size_bytes(&self) -> usize {
        self.periods.iter().map(|p| p.pi.size_bytes() + 8).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppq_quantize::KMeansConfig;

    fn cfg(eps_c: f64, eps_d: f64) -> TpiConfig {
        TpiConfig {
            pi: PiConfig {
                eps_s: 2.0,
                gc: 0.5,
                kmeans: KMeansConfig::default(),
            },
            eps_c,
            eps_d,
        }
    }

    /// Stream where the population stays put for `stable` steps, then
    /// jumps far away for another `stable` steps.
    fn jumpy_stream(stable: u32) -> Vec<(u32, Vec<(u32, Point)>)> {
        let mut slices = Vec::new();
        for t in 0..(2 * stable) {
            let offset = if t < stable { 0.0 } else { 100.0 };
            let pts: Vec<(u32, Point)> = (0..40)
                .map(|i| {
                    let a = i as f64 * 0.7;
                    (i, Point::new(offset + a.cos(), a.sin()))
                })
                .collect();
            slices.push((t, pts));
        }
        slices
    }

    #[test]
    fn stable_population_is_one_period() {
        let slices = jumpy_stream(5);
        let tpi = Tpi::build_from_slices(slices.into_iter().take(5), &cfg(0.5, 0.5));
        assert_eq!(tpi.stats().periods, 1);
        assert_eq!(tpi.periods()[0].t_start, 0);
        assert_eq!(tpi.periods()[0].t_end, 4);
    }

    #[test]
    fn population_jump_triggers_rebuild() {
        let tpi = Tpi::build_from_slices(jumpy_stream(5), &cfg(0.5, 0.5));
        assert_eq!(tpi.stats().periods, 2, "jump must start a new period");
        assert_eq!(tpi.periods()[1].t_start, 5);
    }

    #[test]
    fn queries_route_to_correct_period() {
        let tpi = Tpi::build_from_slices(jumpy_stream(5), &cfg(0.5, 0.5));
        // Before the jump the population is near the origin.
        let before = tpi.query_disc(2, &Point::new(0.0, 0.0), 2.0);
        assert!(!before.is_empty());
        // After the jump it is near x = 100.
        let after = tpi.query_disc(7, &Point::new(100.0, 0.0), 2.0);
        assert!(!after.is_empty());
        // And the old location is empty at the new time.
        assert!(tpi.query_disc(7, &Point::new(0.0, 0.0), 2.0).is_empty());
    }

    #[test]
    fn higher_eps_d_reduces_rebuilds() {
        // Drifting population: a fraction leaves every step.
        let mut slices = Vec::new();
        for t in 0..20u32 {
            let pts: Vec<(u32, Point)> = (0..60)
                .map(|i| {
                    let drift = t as f64 * 0.8;
                    let a = i as f64 * 0.4;
                    (i, Point::new(drift + a.cos() * 2.0, a.sin() * 2.0))
                })
                .collect();
            slices.push((t, pts));
        }
        let strict = Tpi::build_from_slices(slices.clone(), &cfg(0.5, 0.05));
        let lax = Tpi::build_from_slices(slices, &cfg(0.5, 0.9));
        assert!(
            strict.stats().periods >= lax.stats().periods,
            "strict {} vs lax {}",
            strict.stats().periods,
            lax.stats().periods
        );
    }

    #[test]
    fn uncovered_points_become_insertions() {
        let mut slices = jumpy_stream(3);
        // Keep population stable but add a new far-away cohort at t=1.
        slices.truncate(3);
        slices[1]
            .1
            .extend((100..120).map(|i| (i, Point::new(50.0, 50.0 + i as f64 * 0.01))));
        slices[2]
            .1
            .extend((100..120).map(|i| (i, Point::new(50.0, 50.0 + i as f64 * 0.01))));
        let tpi = Tpi::build_from_slices(slices, &cfg(0.5, 0.9));
        assert_eq!(tpi.stats().periods, 1);
        assert!(tpi.stats().insertions >= 1);
        let hits = tpi.query_disc(1, &Point::new(50.0, 50.1), 1.0);
        assert!(!hits.is_empty());
    }

    #[test]
    fn period_lookup_gaps() {
        let tpi = Tpi::build_from_slices(jumpy_stream(3), &cfg(0.5, 0.5));
        assert!(tpi.period_of(100).is_none());
        assert!(tpi.query(100, &Point::ORIGIN).is_empty());
    }

    /// A population of `n` ids on a ring that drifts `drift` per step and
    /// jumps far away every `jump_every` steps; a few ids sit out each
    /// step so cells, regions and insertions vary.
    fn wandering_stream(
        seed: u64,
        steps: u32,
        n: u32,
        jump_every: u32,
        drift: f64,
    ) -> Vec<(u32, Vec<(u32, Point)>)> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..steps)
            .map(|t| {
                let centre = (t / jump_every) as f64 * 60.0 + t as f64 * drift;
                let points = (0..n)
                    .filter_map(|i| {
                        let (sits_out, wobble) = (next() % 8 == 0, (next() % 100) as f64 * 0.01);
                        let a = i as f64 * 0.7;
                        let p = Point::new(centre + a.cos() * (1.0 + wobble), a.sin() * 2.0);
                        (!sits_out).then_some((i, p))
                    })
                    .collect();
                (t, points)
            })
            .collect()
    }

    /// One period's extent and exported blocks.
    type PeriodContents = (u32, u32, Vec<(u32, u32, u32, Vec<u32>)>);

    /// What a TPI holds, period by period.
    fn contents(tpi: &Tpi) -> Vec<PeriodContents> {
        tpi.periods()
            .iter()
            .map(|p| (p.t_start, p.t_end, p.pi.export_blocks()))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// A TPI grown slice by slice, cloned along the way, is at every
        /// clone the TPI a batch build over the same prefix gives — same
        /// blocks, size, statistics and answers (checked against the
        /// seed's per-cell scan) — and the clone shares every sealed
        /// period with the index it was taken from.
        #[test]
        fn grown_and_cloned_equals_batch_over_the_prefix(
            seed in proptest::prelude::any::<u64>(),
            steps in 3u32..14,
            n in 8u32..40,
            jump_every in 2u32..7,
            drift in 0.0f64..1.2,
            cuts in proptest::collection::vec(0usize..14, 1..4),
        ) {
            let cfg = cfg(0.5, 0.5);
            let slices = wandering_stream(seed, steps, n, jump_every, drift);
            let mut grown = Tpi::new(cfg.clone());
            let mut snapshots: Vec<(usize, Tpi)> = Vec::new();
            for (i, (t, points)) in slices.iter().enumerate() {
                grown.push_slice(*t, points);
                if cuts.contains(&i) {
                    let mut snapshot = grown.clone();
                    snapshot.seal();
                    let sealed = grown.periods().len() - 1;
                    for (a, b) in snapshot.periods()[..sealed].iter().zip(grown.periods()) {
                        proptest::prop_assert!(Arc::ptr_eq(a, b), "sealed period copied");
                    }
                    proptest::prop_assert!(!Arc::ptr_eq(
                        &snapshot.periods()[sealed],
                        &grown.periods()[sealed]
                    ));
                    snapshots.push((i, snapshot));
                }
            }
            grown.seal();
            snapshots.push((slices.len() - 1, grown));
            // Checked once the stream has moved on: growth after a clone
            // must not reach back into it.
            for (i, snapshot) in &snapshots {
                let batch = Tpi::build_from_slices(slices[..=*i].iter().cloned(), &cfg);
                proptest::prop_assert_eq!(contents(snapshot), contents(&batch));
                proptest::prop_assert_eq!(snapshot.size_bytes(), batch.size_bytes());
                proptest::prop_assert_eq!(snapshot.stats(), batch.stats());
                for period in snapshot.periods() {
                    let seed_index = crate::pi::tests::SeedIndex::of(&period.pi);
                    for (t, points) in &slices[..=*i] {
                        if *t < period.t_start || *t > period.t_end {
                            continue;
                        }
                        for (k, (_, p)) in points.iter().enumerate().step_by(5) {
                            let r = 0.3 + (k % 4) as f64;
                            let rect = ppq_geo::BBox::from_extents(p.x - r, p.y - 0.4, p.x + 0.2, p.y + r);
                            let want = seed_index.query_rect(*t, &rect);
                            proptest::prop_assert_eq!(&snapshot.query_rect(*t, &rect), &want);
                            proptest::prop_assert_eq!(&batch.query_rect(*t, &rect), &want);
                            let want = seed_index.query_disc(*t, p, r);
                            proptest::prop_assert_eq!(&snapshot.query_disc(*t, p, r), &want);
                            proptest::prop_assert_eq!(&batch.query_disc(*t, p, r), &want);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "sealed TPI")]
    fn sealed_index_rejects_further_slices() {
        let mut tpi = Tpi::build_from_slices(jumpy_stream(2), &cfg(0.5, 0.5));
        tpi.push_slice(99, &[(0, Point::ORIGIN)]);
    }

    #[test]
    fn empty_stream() {
        let tpi = Tpi::build_from_slices(std::iter::empty(), &cfg(0.5, 0.5));
        assert_eq!(tpi.stats(), &TpiStats::default());
        assert_eq!(tpi.size_bytes(), 0);
    }
}
