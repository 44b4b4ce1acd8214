//! Product / Residual Quantization baselines (paper §6.1).
//!
//! Both quantize **raw coordinates** per timestep ("we learn C
//! independently for every timestamp") and are extended with the PPQ
//! indexing approach for fair query evaluation, exactly as the paper did.
//! Three budget regimes cover the experiments: fixed bits per point
//! (Table 4), per-step codeword parity with PPQ (Table 2), and
//! deviation-bounded growth (Tables 5–6, Figure 9).

use crate::common::BaselineSummary;
use ppq_geo::Point;
use ppq_quantize::{ProductQuantizer, ResidualQuantizer};
use ppq_tpi::TpiConfig;
use ppq_traj::Dataset;
use std::time::Instant;

/// Codebook sizing for the per-timestep baselines.
#[derive(Clone, Debug)]
pub enum PerStepBudget {
    /// Fixed index bits per point (Table 4's 5–9 bits).
    Bits(u32),
    /// Match a per-timestep codeword count, e.g. PPQ's `V_t` (Table 2).
    /// Missing timesteps fall back to the last value.
    Words(Vec<(u32, u32)>),
    /// Grow until the max deviation is within `ε` (Tables 5–6).
    Bounded(f64),
}

impl PerStepBudget {
    fn words_at(&self, t: u32, n_points: usize) -> Option<usize> {
        match self {
            PerStepBudget::Bits(_) | PerStepBudget::Bounded(_) => None,
            PerStepBudget::Words(v) => {
                let w = v
                    .iter()
                    .find(|(ts, _)| *ts == t)
                    .map(|(_, w)| *w)
                    .unwrap_or_else(|| v.last().map(|(_, w)| *w).unwrap_or(1));
                Some((w as usize).clamp(1, n_points.max(1)))
            }
        }
    }
}

/// Build the Product Quantization baseline.
pub fn build_pq(
    dataset: &Dataset,
    budget: &PerStepBudget,
    tpi_cfg: Option<&TpiConfig>,
) -> BaselineSummary {
    let t0 = Instant::now();
    let starts: Vec<u32> = dataset.trajectories().iter().map(|t| t.start).collect();
    let mut recon: Vec<Vec<Point>> = dataset
        .trajectories()
        .iter()
        .map(|t| vec![Point::ORIGIN; t.len()])
        .collect();
    let mut summary_bytes = 0usize;
    let mut codewords = 0usize;
    for slice in dataset.time_slices() {
        if slice.points.is_empty() {
            continue;
        }
        let positions: Vec<Point> = slice.points.iter().map(|(_, p)| *p).collect();
        let pq = match budget {
            PerStepBudget::Bits(b) => ProductQuantizer::fit_bits(&positions, *b),
            PerStepBudget::Bounded(eps) => ProductQuantizer::fit_bounded(&positions, *eps),
            PerStepBudget::Words(_) => {
                let w = budget.words_at(slice.t, positions.len()).unwrap();
                ProductQuantizer::fit(&positions, w)
            }
        };
        for (i, &(id, _)) in slice.points.iter().enumerate() {
            let off = (slice.t - starts[id as usize]) as usize;
            recon[id as usize][off] = pq.reconstruct(i);
        }
        summary_bytes += pq.codebook_bytes()
            + (positions.len() * pq.index_bits_per_point() as usize).div_ceil(8);
        codewords += pq.codeword_equivalents();
    }
    let build_time = t0.elapsed();
    BaselineSummary::assemble(
        "Product Quantization",
        dataset,
        recon,
        summary_bytes,
        codewords,
        build_time,
        tpi_cfg,
    )
}

/// Build the Residual Quantization baseline (two stages, as in the
/// original formulation).
pub fn build_rq(
    dataset: &Dataset,
    budget: &PerStepBudget,
    tpi_cfg: Option<&TpiConfig>,
) -> BaselineSummary {
    let t0 = Instant::now();
    let starts: Vec<u32> = dataset.trajectories().iter().map(|t| t.start).collect();
    let mut recon: Vec<Vec<Point>> = dataset
        .trajectories()
        .iter()
        .map(|t| vec![Point::ORIGIN; t.len()])
        .collect();
    let mut summary_bytes = 0usize;
    let mut codewords = 0usize;
    for slice in dataset.time_slices() {
        if slice.points.is_empty() {
            continue;
        }
        let positions: Vec<Point> = slice.points.iter().map(|(_, p)| *p).collect();
        let rq = match budget {
            PerStepBudget::Bits(b) => ResidualQuantizer::fit_bits(&positions, *b),
            PerStepBudget::Bounded(eps) => ResidualQuantizer::fit_bounded(&positions, *eps),
            PerStepBudget::Words(_) => {
                let w = budget.words_at(slice.t, positions.len()).unwrap();
                // Split the parity budget across the two stages.
                ResidualQuantizer::fit(&positions, (w / 2).max(1), 2)
            }
        };
        for (i, &(id, _)) in slice.points.iter().enumerate() {
            let off = (slice.t - starts[id as usize]) as usize;
            recon[id as usize][off] = rq.reconstruct(i);
        }
        summary_bytes += rq.codebook_bytes()
            + (positions.len() * rq.index_bits_per_point() as usize).div_ceil(8);
        codewords += rq.total_codewords();
    }
    let build_time = t0.elapsed();
    BaselineSummary::assemble(
        "Residual Quantization",
        dataset,
        recon,
        summary_bytes,
        codewords,
        build_time,
        tpi_cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppq_traj::synth::{porto_like, PortoConfig};

    fn data() -> Dataset {
        porto_like(&PortoConfig {
            trajectories: 20,
            mean_len: 40,
            min_len: 30,
            start_spread: 5,
            seed: 9,
        })
    }

    #[test]
    fn pq_bounded_respects_eps() {
        let d = data();
        let b = build_pq(&d, &PerStepBudget::Bounded(0.001), None);
        assert!(b.max_error(&d) <= 0.001 + 1e-12);
        assert!(b.codewords > 0);
        assert!(b.summary_bytes > 0);
    }

    #[test]
    fn rq_bounded_respects_eps() {
        let d = data();
        let b = build_rq(&d, &PerStepBudget::Bounded(0.001), None);
        assert!(b.max_error(&d) <= 0.001 + 1e-12);
    }

    #[test]
    fn more_bits_less_error() {
        let d = data();
        let coarse = build_pq(&d, &PerStepBudget::Bits(4), None);
        let fine = build_pq(&d, &PerStepBudget::Bits(10), None);
        assert!(fine.mae_meters(&d) < coarse.mae_meters(&d));
        let coarse_rq = build_rq(&d, &PerStepBudget::Bits(4), None);
        let fine_rq = build_rq(&d, &PerStepBudget::Bits(10), None);
        assert!(fine_rq.mae_meters(&d) < coarse_rq.mae_meters(&d));
    }

    #[test]
    fn words_parity_budget() {
        let d = data();
        let words: Vec<(u32, u32)> = (0..60).map(|t| (t, 8)).collect();
        let b = build_pq(&d, &PerStepBudget::Words(words), None);
        assert!(b.mae_meters(&d).is_finite());
    }

    #[test]
    fn queryable_with_index() {
        use ppq_core::query::{precision_recall, QueryEngine};
        let d = data();
        let cfg = TpiConfig::default();
        let b = build_pq(&d, &PerStepBudget::Bits(10), Some(&cfg));
        let engine = QueryEngine::new(&b, &d, cfg.pi.gc);
        let mut r_sum = 0.0;
        let mut n = 0.0;
        for (_, t, p) in d.iter_points().step_by(151) {
            let out = engine.strq(t, &p);
            let (_, rec) = precision_recall(&out.candidates, &out.truth);
            r_sum += rec;
            n += 1.0;
        }
        // The measured-max-error search radius makes candidate recall 1.
        assert!((r_sum / n - 1.0).abs() < 1e-12, "recall {}", r_sum / n);
    }
}
