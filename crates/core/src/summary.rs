//! The PPQ-trajectory summary: everything needed to reproduce any
//! trajectory point, plus honest size accounting.
//!
//! Per the paper, the summary is `({P_j[t]}, C, {b_i^t}, CQC)` (§5): the
//! per-partition prediction coefficients per timestep, the codebook, the
//! per-point codeword indices, and the per-point CQC codes. On top of the
//! paper's list we also charge the per-point partition memberships
//! (run-length encoded — assignments are sticky under incremental
//! partitioning) since the decoder needs them to pick `P_j[t]`; §6.4's
//! discussion of PPQ's compression ratio confirms the original accounting
//! includes "additional space for multiple partitions".

use crate::config::{ColdStart, PpqConfig};
use ppq_cqc::{CqcCode, CqcTemplate};
use ppq_geo::{coords, Point};
use ppq_predict::{History, Predictor};
use ppq_quantize::codebook::index_bits_for;
use ppq_quantize::Codebook;
use ppq_tpi::Tpi;
use ppq_traj::{Dataset, TrajId};
use std::sync::Arc;
use std::time::Duration;

/// Global (error-bounded) or per-timestep (budgeted) codebooks.
#[derive(Clone, Debug)]
pub enum CodebookStore {
    /// One growing codebook shared by all timesteps (the paper's mode).
    Global(Codebook),
    /// One codebook per timestep (`learn C independently for every
    /// timestamp`, §6.2.1); indexed by `t - min_t`.
    PerStep(Vec<Vec<Point>>),
}

impl CodebookStore {
    /// The codeword for index `b` at timestep offset `t_off`.
    pub fn word(&self, t_off: usize, b: u32) -> Point {
        match self {
            CodebookStore::Global(cb) => cb.word(b),
            CodebookStore::PerStep(steps) => steps[t_off][b as usize],
        }
    }

    /// Total number of codewords stored.
    pub fn total_words(&self) -> usize {
        match self {
            CodebookStore::Global(cb) => cb.len(),
            CodebookStore::PerStep(steps) => steps.iter().map(Vec::len).sum(),
        }
    }

    /// Bits per stored codeword index.
    pub fn index_bits(&self) -> u32 {
        match self {
            CodebookStore::Global(cb) => cb.index_bits(),
            CodebookStore::PerStep(steps) => steps
                .iter()
                .map(|s| index_bits_for(s.len()))
                .max()
                .unwrap_or(1),
        }
    }

    pub fn size_bytes(&self) -> usize {
        self.total_words() * 2 * std::mem::size_of::<f64>()
    }
}

/// Build-time metrics consumed by the experiment harnesses.
#[derive(Clone, Debug, Default)]
pub struct BuildStats {
    /// Wall-clock time of the whole summary build.
    pub total: Duration,
    /// Time spent in the incremental temporal partitioning (Figure 7).
    pub partitioning: Duration,
    /// Time spent fitting prediction coefficients.
    pub fitting: Duration,
    /// Time spent quantizing errors.
    pub quantizing: Duration,
    /// Time spent building the TPI.
    pub indexing: Duration,
    /// `q` after each timestep (Figure 8's series), as `(t, q)`.
    pub partitions_per_step: Vec<(u32, u32)>,
    /// Number of *distinct* codewords referenced at each timestep —
    /// defines the per-step budget parity for the baselines (§6.2.1).
    pub codewords_per_step: Vec<(u32, u32)>,
    /// Merge / re-partition counters accumulated over the run.
    pub merges: usize,
    pub repartitions: usize,
}

/// Byte-level breakdown of the summary (drives Figure 9 / Table 6).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SummaryBreakdown {
    pub codebook: usize,
    pub code_indices: usize,
    pub coefficients: usize,
    pub partition_runs: usize,
    pub cqc_codes: usize,
    pub cqc_template: usize,
}

impl SummaryBreakdown {
    pub fn total(&self) -> usize {
        self.codebook
            + self.code_indices
            + self.coefficients
            + self.partition_runs
            + self.cqc_codes
            + self.cqc_template
    }
}

/// One trajectory's output series, one entry per point.
///
/// A stream extends a record with `Arc::make_mut`, so a record some
/// summary still holds is copied once before it grows, and a record whose
/// trajectory has ended is shared by every later summary.
#[derive(Clone, Debug, Default)]
pub(crate) struct TrajRecord {
    /// Codeword indices.
    pub(crate) codes: Vec<u32>,
    /// Partition labels.
    pub(crate) labels: Vec<u32>,
    /// CQC codes (empty when `use_cqc` is off).
    pub(crate) cqc_codes: Vec<CqcCode>,
    /// Materialized final reconstructions (a query-time cache, rebuilt
    /// from the summary on demand — not charged to the summary size).
    pub(crate) recon: Vec<Point>,
}

/// The built summary.
#[derive(Clone, Debug)]
pub struct PpqSummary {
    pub(crate) config: PpqConfig,
    pub(crate) codebook: CodebookStore,
    /// `coeffs[t_off][label]` — prediction coefficients per partition per
    /// timestep. A row is fixed once written and shared by every summary
    /// taken after it.
    pub(crate) coeffs: Vec<Arc<[Predictor]>>,
    pub(crate) min_t: u32,
    /// Per-trajectory start timestep (mirrors the dataset).
    pub(crate) starts: Vec<u32>,
    /// Per-trajectory output series, indexed by id.
    pub(crate) trajs: Vec<Arc<TrajRecord>>,
    pub(crate) template: Option<CqcTemplate>,
    pub(crate) tpi: Option<Tpi>,
    pub(crate) stats: BuildStats,
}

impl PpqSummary {
    #[inline]
    pub fn config(&self) -> &PpqConfig {
        &self.config
    }

    #[inline]
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    #[inline]
    pub fn tpi(&self) -> Option<&Tpi> {
        self.tpi.as_ref()
    }

    #[inline]
    pub fn template(&self) -> Option<&CqcTemplate> {
        self.template.as_ref()
    }

    pub fn num_trajectories(&self) -> usize {
        self.trajs.len()
    }

    pub fn num_points(&self) -> usize {
        self.trajs.iter().map(|r| r.codes.len()).sum()
    }

    /// Total codewords in the store (Table 6's "Number of codewords").
    pub fn codebook_len(&self) -> usize {
        self.codebook.total_words()
    }

    /// Final reconstructed position of trajectory `id` at timestep `t`
    /// (CQC-corrected when enabled). `None` when inactive at `t`.
    pub fn reconstruct(&self, id: TrajId, t: u32) -> Option<Point> {
        let traj = &self.trajs.get(id as usize)?.recon;
        let start = self.starts[id as usize];
        if t < start {
            return None;
        }
        traj.get((t - start) as usize).copied()
    }

    /// Reconstructed sub-trajectory over `[from, to]` — the TPQ payload.
    pub fn reconstruct_range(&self, id: TrajId, from: u32, to: u32) -> Vec<(u32, Point)> {
        self.reconstruct_range_iter(id, from, to).collect()
    }

    /// Iterator form of [`PpqSummary::reconstruct_range`]: one slice
    /// lookup for the whole range instead of a bounds-checked
    /// [`PpqSummary::reconstruct`] call per timestep — the hot TPQ path.
    pub fn reconstruct_range_iter(
        &self,
        id: TrajId,
        from: u32,
        to: u32,
    ) -> impl Iterator<Item = (u32, Point)> + '_ {
        let slice: &[Point] = match self.trajs.get(id as usize).map(|r| &r.recon) {
            Some(traj) if from <= to => {
                let start = self.starts[id as usize];
                let lo = from.max(start);
                let lo_off = (lo - start) as usize;
                let hi_off = (to - start.min(to)) as usize; // to - start, clamped
                if lo > to || lo_off >= traj.len() {
                    &[]
                } else {
                    let end = hi_off.min(traj.len() - 1);
                    &traj[lo_off..=end]
                }
            }
            _ => &[],
        };
        let base = self.starts.get(id as usize).copied().unwrap_or(0).max(from);
        slice
            .iter()
            .enumerate()
            .map(move |(off, p)| (base + off as u32, *p))
    }

    /// (Re)build the TPI over the materialized reconstructed stream —
    /// exactly what a fresh build would have indexed. Used when a summary
    /// decoded without an index (or assembled by re-sharding) needs to be
    /// written back out as a repository generation.
    pub fn rebuild_index(&mut self) {
        let slices = recon_slices(self.min_t, self.coeffs.len(), &self.starts, &self.trajs);
        self.tpi = Some(Tpi::build_from_slices(slices, &self.config.tpi));
    }

    /// Re-derive a trajectory's reconstructions *from the summary alone*
    /// (coefficients, codebook, indices, CQC) — the decoder a consumer of
    /// the serialized summary would run. Used by tests to prove the
    /// materialized cache equals what the summary encodes.
    pub fn replay(&self, id: TrajId) -> Vec<Point> {
        let idx = id as usize;
        let start = self.starts[idx];
        let traj = &self.trajs[idx];
        let n = traj.codes.len();
        let k = self.config.k;
        let mut history = History::new(k.max(1));
        let mut out = Vec::with_capacity(n);
        for off in 0..n {
            let t_off = (start - self.min_t) as usize + off;
            let label = traj.labels[off] as usize;
            let predictor = &self.coeffs[t_off][label];
            let pred = predict_with(&self.config, predictor, &history, off);
            let word = self.codebook.word(t_off, traj.codes[off]);
            let hat = pred + word;
            history.push(hat);
            let fin = match (&self.template, traj.cqc_codes.get(off)) {
                (Some(tpl), Some(code)) => hat + tpl.decode(*code),
                _ => hat,
            };
            out.push(fin);
        }
        out
    }

    /// Mean absolute error versus the original data, in metres (the MAE of
    /// Tables 2–4).
    pub fn mae_meters(&self, dataset: &Dataset) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (id, t, p) in dataset.iter_points() {
            if let Some(r) = self.reconstruct(id, t) {
                sum += p.dist(&r);
                n += 1;
            }
        }
        if n == 0 {
            return 0.0;
        }
        coords::deg_to_meters(sum / n as f64)
    }

    /// Maximum reconstruction error in coordinate units (validates the
    /// paper's bounds).
    pub fn max_error(&self, dataset: &Dataset) -> f64 {
        dataset
            .iter_points()
            .filter_map(|(id, t, p)| self.reconstruct(id, t).map(|r| p.dist(&r)))
            .fold(0.0, f64::max)
    }

    /// Byte-accurate summary size breakdown.
    pub fn breakdown(&self) -> SummaryBreakdown {
        let num_points = self.num_points();
        let index_bits = self.codebook.index_bits() as usize;

        // Partition labels: RLE per trajectory. Each run costs a 2-byte
        // length plus the label at ceil(log2 q_max) bits (≥ 1 byte charged).
        let q_max = self
            .coeffs
            .iter()
            .map(|s| s.len())
            .max()
            .unwrap_or(1)
            .max(1);
        let label_bytes = (index_bits_for(q_max) as usize).div_ceil(8);
        let mut partition_runs = 0usize;
        for traj in &self.trajs {
            let mut runs = 0usize;
            let mut prev = u32::MAX;
            for &l in &traj.labels {
                if l != prev {
                    runs += 1;
                    prev = l;
                }
            }
            partition_runs += runs * (2 + label_bytes);
        }

        // Coefficients: k f32 per (step, partition) — the pipeline rounds
        // fitted coefficients to f32 before use, so f32 is what a decoder
        // needs. Q-trajectory stores none (prediction disabled).
        let coefficients = if self.config.predict {
            self.coeffs
                .iter()
                .map(|step| step.len() * self.config.k * 4)
                .sum::<usize>()
        } else {
            0
        };

        let (cqc_codes, cqc_template) = match &self.template {
            Some(tpl) => (
                (num_points * tpl.bits_per_point() as usize).div_ceil(8),
                tpl.size_bytes(),
            ),
            None => (0, 0),
        };

        SummaryBreakdown {
            codebook: self.codebook.size_bytes(),
            code_indices: (num_points * index_bits).div_ceil(8),
            coefficients,
            partition_runs: if self.config.predict {
                partition_runs
            } else {
                0
            },
            cqc_codes,
            cqc_template,
        }
    }

    /// Compression ratio = raw size / summary size (Figure 9). The TPI is
    /// an index and is reported separately, as in the paper.
    pub fn compression_ratio(&self, dataset: &Dataset) -> f64 {
        dataset.raw_size_bytes() as f64 / self.breakdown().total() as f64
    }

    /// Forecast `horizon` positions beyond trajectory `id`'s last
    /// summarised point — the paper's motivating analytic task
    /// ("predicting future positions of entities", §1).
    ///
    /// The trajectory's most recent prediction function (the coefficients
    /// of its final partition at its final timestep) is iterated from its
    /// tail history. Trajectories too young for the prediction order, or
    /// summaries built without prediction, fall back to a last-value
    /// (random-walk) forecast. Returns `(t, position)` pairs; empty when
    /// the trajectory has no points at all.
    pub fn forecast(&self, id: TrajId, horizon: usize) -> Vec<(u32, Point)> {
        let idx = id as usize;
        let Some(traj) = self.trajs.get(idx) else {
            return Vec::new();
        };
        let points = &traj.recon;
        if points.is_empty() || horizon == 0 {
            return Vec::new();
        }
        let k = self.config.k;
        let last_t = self.starts[idx] + points.len() as u32 - 1;

        // The trajectory's final predictor, if one is applicable.
        let predictor = if self.config.predict && points.len() >= k {
            let t_off = (last_t - self.min_t) as usize;
            let label = *traj.labels.last().expect("non-empty") as usize;
            self.coeffs
                .get(t_off)
                .and_then(|step| step.get(label))
                .filter(|p| p.coeffs().iter().any(|&c| c != 0.0))
                .cloned()
        } else {
            None
        };
        let predictor = predictor.unwrap_or_else(|| Predictor::last_value(k));

        let mut history = History::new(k.max(1));
        for p in points.iter().rev().take(k.max(1)).rev() {
            history.push(*p);
        }
        let mut out = Vec::with_capacity(horizon);
        for step in 1..=horizon {
            let pred = if history.len() >= k {
                predictor.predict(&history.last_k(k).expect("len checked"))
            } else {
                history.lag(1).unwrap_or(Point::ORIGIN)
            };
            out.push((last_t + step as u32, pred));
            history.push(pred);
        }
        out
    }
}

/// The reconstructed stream as Algorithm 4 consumes it: one `(t, points)`
/// slice for every step `t` in `[min_t, min_t + steps)`, each listing its
/// points by ascending id. Empty steps are included, because an empty
/// slice is a step of the index too: it opens a period. This is the one
/// transposition of the trajectory records into slices, for
/// [`PpqSummary::rebuild_index`] and for a restored stream's index alike.
pub(crate) fn recon_slices(
    min_t: u32,
    steps: usize,
    starts: &[u32],
    trajs: &[Arc<TrajRecord>],
) -> Vec<(u32, Vec<(TrajId, Point)>)> {
    let mut slices: Vec<_> = (min_t..).take(steps).map(|t| (t, Vec::new())).collect();
    // One pass over the trajectories in id order gives each slice its
    // points by ascending id.
    for (id, (traj, &start)) in trajs.iter().zip(starts).enumerate() {
        if traj.recon.is_empty() {
            continue; // an id with no points: its start is a placeholder
        }
        let first = (start - min_t) as usize;
        for ((_, slice), p) in slices[first..].iter_mut().zip(&traj.recon) {
            slice.push((id as TrajId, *p));
        }
    }
    slices
}

/// Shared prediction rule used by both the builder and [`PpqSummary::replay`]:
/// the predictor applies only when `age ≥ k`; younger points follow the
/// cold-start rule ("for the time t ≤ k, P_j[t] is set to zero").
pub(crate) fn predict_with(
    cfg: &PpqConfig,
    predictor: &Predictor,
    history: &History,
    age: usize,
) -> Point {
    let mut scratch = Vec::new();
    predict_with_scratch(cfg, predictor, history, age, &mut scratch)
}

/// [`predict_with`] with a caller-provided lag buffer, so per-point
/// prediction in the streaming hot path allocates nothing.
pub(crate) fn predict_with_scratch(
    cfg: &PpqConfig,
    predictor: &Predictor,
    history: &History,
    age: usize,
    scratch: &mut Vec<Point>,
) -> Point {
    if !cfg.predict {
        return Point::ORIGIN;
    }
    if age >= cfg.k && history.last_k_into(cfg.k, scratch) {
        return predictor.predict(scratch);
    }
    match cfg.cold_start {
        ColdStart::Zero => Point::ORIGIN,
        ColdStart::LastValue => history.lag(1).unwrap_or(Point::ORIGIN),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::pipeline::{PpqStream, PpqTrajectory};
    use ppq_traj::synth::{porto_like, PortoConfig};

    fn build() -> (Dataset, PpqSummary) {
        let data = porto_like(&PortoConfig {
            trajectories: 12,
            mean_len: 40,
            min_len: 30,
            start_spread: 6,
            seed: 0x5,
        });
        let cfg = PpqConfig::variant(Variant::PpqA, 0.1);
        let s = PpqTrajectory::build(&data, &cfg).into_summary();
        (data, s)
    }

    #[test]
    fn reconstruct_range_clips_to_activity() {
        let (data, s) = build();
        let traj = &data.trajectories()[0];
        let full = s.reconstruct_range(traj.id, 0, u32::MAX - 1);
        assert_eq!(full.len(), traj.len());
        assert_eq!(full[0].0, traj.start);
        // Inverted range is empty.
        assert!(s.reconstruct_range(traj.id, 10, 5).is_empty());
        // Sub-range length.
        let sub = s.reconstruct_range(traj.id, traj.start + 2, traj.start + 6);
        assert_eq!(sub.len(), 5);
    }

    /// Also over a stream that ends on empty slices: they are steps of
    /// the index too, so the rebuild must not stop at the last point.
    #[test]
    fn rebuilt_index_equals_the_streamed_one() {
        let data = porto_like(&PortoConfig {
            trajectories: 30,
            mean_len: 40,
            min_len: 20,
            start_spread: 8,
            seed: 99,
        });
        let mut stream = PpqStream::new(PpqConfig::variant(Variant::PpqS, 0.1));
        for slice in data.time_slices() {
            stream.push_slice(slice.t, slice.points);
        }
        let next = stream.next_t().expect("fixture has slices");
        stream.push_slice(next, &[]);
        stream.push_slice(next + 1, &[]);
        for s in [build().1, stream.finish()] {
            let mut rebuilt = s.clone();
            rebuilt.rebuild_index();
            let (streamed, rebuilt) = (
                s.tpi().expect("built with an index"),
                rebuilt.tpi().unwrap(),
            );
            let periods = |tpi: &Tpi| -> Vec<_> {
                let periods = tpi.periods().iter();
                periods
                    .map(|p| (p.t_start, p.t_end, p.pi.export_blocks()))
                    .collect()
            };
            assert_eq!(streamed.stats(), rebuilt.stats());
            assert_eq!(periods(streamed), periods(rebuilt));
        }
    }

    #[test]
    fn breakdown_components_are_consistent() {
        let (data, s) = build();
        let b = s.breakdown();
        assert!(b.codebook > 0);
        assert!(b.code_indices > 0);
        assert!(b.coefficients > 0);
        assert!(b.cqc_codes > 0, "CQC variant must charge CQC bits");
        assert_eq!(
            b.total(),
            b.codebook
                + b.code_indices
                + b.coefficients
                + b.partition_runs
                + b.cqc_codes
                + b.cqc_template
        );
        // Index bits per point: total indices bytes ≈ points × bits / 8.
        let expect = (s.num_points() * s.codebook.index_bits() as usize).div_ceil(8);
        assert_eq!(b.code_indices, expect);
        let _ = data;
    }

    #[test]
    fn mae_and_max_error_relate() {
        let (data, s) = build();
        let mae = s.mae_meters(&data);
        let max_deg = s.max_error(&data);
        assert!(mae <= coords::deg_to_meters(max_deg) + 1e-9);
        assert!(mae >= 0.0);
    }

    #[test]
    fn q_trajectory_charges_no_prediction_state() {
        let data = porto_like(&PortoConfig {
            trajectories: 8,
            mean_len: 35,
            min_len: 30,
            start_spread: 4,
            seed: 0x6,
        });
        let cfg = PpqConfig::variant(Variant::QTrajectory, 0.1);
        let s = PpqTrajectory::build(&data, &cfg).into_summary();
        let b = s.breakdown();
        assert_eq!(b.coefficients, 0);
        assert_eq!(b.partition_runs, 0);
        assert_eq!(b.cqc_codes, 0);
    }

    #[test]
    fn codebook_store_word_lookup() {
        let (_, s) = build();
        if let CodebookStore::Global(cb) = &s.codebook {
            assert!(!cb.is_empty());
            let w = s.codebook.word(0, 0);
            assert_eq!(w, cb.word(0));
        } else {
            panic!("error-bounded build must produce a global codebook");
        }
    }
}
