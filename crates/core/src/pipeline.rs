//! The online summarisation pipeline (paper Algorithm 1 + §3.2).
//!
//! [`PpqStream`] is the *online* form: push one timestep of points at a
//! time, read back the summary at any point with [`PpqStream::finish`].
//! [`PpqTrajectory::build`] is the batch convenience that streams a whole
//! [`Dataset`] through it.

use crate::config::{BuildBudget, PartitionMode, PpqConfig};
use crate::ndkmeans::Features;
use crate::partition::Partitioner;
use crate::summary::{
    predict_with_scratch, recon_slices, BuildStats, CodebookStore, PpqSummary, TrajRecord,
};
use ppq_cqc::CqcTemplate;
use ppq_geo::Point;
use ppq_predict::linear::{fit_predictor, TrainingRow};
use ppq_predict::{ar_coefficients, History, Predictor};
use ppq_quantize::{kmeans, Codebook, IncrementalQuantizer};
use ppq_tpi::Tpi;
use ppq_traj::{Dataset, TrajId};
use rayon::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Points per parallel work unit in the predict-then-quantize sweep.
/// Fixed (never thread-count-dependent) so the split cannot affect
/// results; each point's prediction is pure given the shared state.
const PREDICT_CHUNK: usize = 1024;

/// Minimum slice width before the predict sweep fans out over threads.
const PARALLEL_PREDICT_MIN: usize = 4096;

/// Online PPQ-trajectory encoder.
///
/// Feed timesteps in strictly increasing order with
/// [`PpqStream::push_slice`]; every trajectory's appearances must be
/// contiguous (the paper's model — regularly sampled trajectories that
/// appear, live, and end). Trajectory ids index internal vectors, so keep
/// them dense-ish.
///
/// ```
/// use ppq_core::{PpqConfig, PpqStream};
/// use ppq_geo::Point;
///
/// let mut stream = PpqStream::new(PpqConfig::default());
/// for t in 0..50u32 {
///     let pts = vec![(0u32, Point::new(-8.6 + t as f64 * 1e-4, 41.1))];
///     stream.push_slice(t, &pts);
/// }
/// let summary = stream.finish();
/// assert_eq!(summary.num_points(), 50);
/// assert!(summary.reconstruct(0, 10).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct PpqStream {
    // Fields are `pub(crate)` so [`crate::state`] can save and restore a
    // stream mid-flight: its summaries carry the outputs, the state the
    // stream-only part beside them.
    pub(crate) config: PpqConfig,
    pub(crate) template: Option<CqcTemplate>,
    pub(crate) incremental: Option<IncrementalQuantizer>,
    pub(crate) partitioner: Option<Partitioner>,
    pub(crate) d: usize,
    pub(crate) started: Instant,

    // Per-trajectory state, indexed by TrajId (grown on demand).
    pub(crate) histories: Vec<History>,
    /// Raw points for the AR features; fed in
    /// [`PartitionMode::Autocorrelation`] only, the one mode that reads
    /// them, and empty in every other.
    pub(crate) raw_windows: Vec<History>,
    pub(crate) ages: Vec<usize>,
    pub(crate) ended: Vec<bool>,
    /// The last timestep each trajectory appeared at (plus one; 0 =
    /// never), which finds the retirements of a slice without a set.
    /// Not saved: a restored stream starts with none, and its
    /// first slice retires every active id it does not stamp.
    pub(crate) last_seen: Vec<u64>,

    pub(crate) next_t: Option<u32>,
    pub(crate) out: Outputs,
    /// The index over the reconstructed stream (kept when
    /// `config.build_index`), grown one slice at a time. The saved state
    /// does not hold it: a stream restored from it starts with the cell
    /// empty, and the first `snapshot`/`finish` rebuilds it, once, from
    /// the trajectory records (which hold every reconstructed point), so
    /// restoring does not pay for an index nobody has asked for yet.
    pub(crate) tpi: OnceLock<Tpi>,
    /// The ids of the previous slice, once each, in slice order.
    pub(crate) active_prev: Vec<TrajId>,
    pub(crate) feature_buf: Vec<f64>,
    // Reusable per-step scratch (allocation-free steady state).
    pub(crate) preds_buf: Vec<Point>,
    pub(crate) errors_buf: Vec<Point>,
    pub(crate) kbuf: Vec<Vec<Point>>,
    pub(crate) codes_buf: Vec<u32>,
}

/// The stream state a summary is made of, apart from the config, the CQC
/// template, the global codebook and the index. Append-only: coefficient
/// rows and per-step codebooks are fixed once written, and a trajectory
/// record only grows. Cloning it bumps one `Arc` per coefficient row and
/// per trajectory, which is what lets a snapshot share the stream's
/// history instead of copying it.
#[derive(Clone, Debug, Default)]
pub(crate) struct Outputs {
    pub(crate) min_t: Option<u32>,
    pub(crate) starts: Vec<u32>,
    pub(crate) trajs: Vec<Arc<TrajRecord>>,
    pub(crate) coeffs: Vec<Arc<[Predictor]>>,
    pub(crate) per_step_books: Vec<Vec<Point>>,
    pub(crate) stats: BuildStats,
}

impl PpqStream {
    pub fn new(config: PpqConfig) -> PpqStream {
        config.validate();
        let k = config.k;
        let incremental = match config.budget {
            BuildBudget::ErrorBounded => Some(IncrementalQuantizer::with_config(
                config.eps1,
                config.kmeans.clone(),
            )),
            BuildBudget::PerStepBits(_) | BuildBudget::PerStepWords(_) => None,
        };
        let d = match config.partition_mode {
            PartitionMode::Spatial => 2,
            PartitionMode::Autocorrelation => k,
            PartitionMode::Single => 0,
        };
        let partitioner = (d > 0).then(|| {
            Partitioner::new(
                config.effective_eps_p(),
                d,
                config.kmeans.grow_step,
                config.kmeans.max_iters,
                config.kmeans.seed,
            )
        });
        PpqStream {
            template: config
                .use_cqc
                .then(|| CqcTemplate::new(config.eps1, config.gs)),
            incremental,
            partitioner,
            d,
            started: Instant::now(),
            histories: Vec::new(),
            raw_windows: Vec::new(),
            ages: Vec::new(),
            ended: Vec::new(),
            last_seen: Vec::new(),
            next_t: None,
            out: Outputs::default(),
            tpi: OnceLock::from(Tpi::new(config.tpi.clone())),
            active_prev: Vec::new(),
            feature_buf: Vec::new(),
            preds_buf: Vec::new(),
            errors_buf: Vec::new(),
            kbuf: Vec::new(),
            codes_buf: Vec::new(),
            config,
        }
    }

    #[inline]
    pub fn config(&self) -> &PpqConfig {
        &self.config
    }

    /// Number of timesteps consumed so far.
    pub fn timesteps(&self) -> usize {
        self.out.coeffs.len()
    }

    /// The timestep the stream expects next (`None` before the first
    /// push).
    pub fn next_t(&self) -> Option<u32> {
        self.next_t
    }

    /// Grow per-trajectory state to cover `id`.
    pub(crate) fn ensure_traj(&mut self, id: TrajId) {
        let idx = id as usize;
        let k = self.config.k;
        let raw_cap = match self.config.partition_mode {
            PartitionMode::Autocorrelation => self.config.ar_window.max(k + 1),
            PartitionMode::Spatial | PartitionMode::Single => 1,
        };
        while self.histories.len() <= idx {
            self.histories.push(History::new(k.max(1)));
            self.raw_windows.push(History::new(raw_cap));
            self.ages.push(0);
            self.ended.push(false);
            self.last_seen.push(0);
            self.out.starts.push(0);
            self.out.trajs.push(Arc::default());
        }
    }

    /// Consume one timestep. `t` must be exactly one past the previous
    /// timestep (or anything for the first call); every trajectory id must
    /// appear in contiguous runs of timesteps.
    pub fn push_slice(&mut self, t: u32, points: &[(TrajId, Point)]) {
        match self.next_t {
            None => {
                self.out.min_t = Some(t);
                self.next_t = Some(t + 1);
            }
            Some(expected) => {
                assert_eq!(t, expected, "slices must arrive at consecutive timesteps");
                self.next_t = Some(t + 1);
            }
        }
        if points.is_empty() {
            self.out.coeffs.push(Arc::new([]));
            self.out.stats.partitions_per_step.push((t, 0));
            self.out.stats.codewords_per_step.push((t, 0));
            self.index_slice(t, Vec::new());
            // Every previously-active trajectory has now ended.
            let retired = std::mem::take(&mut self.active_prev);
            for &id in &retired {
                self.retire(id);
            }
            if let Some(partitioner) = &mut self.partitioner {
                partitioner.retire(&retired);
            }
            return;
        }

        let ids: Vec<TrajId> = points.iter().map(|(id, _)| *id).collect();
        let autocorrelation = self.config.partition_mode == PartitionMode::Autocorrelation;
        for &(id, p) in points {
            self.ensure_traj(id);
            let idx = id as usize;
            assert!(
                !self.ended[idx],
                "trajectory {id} reappeared after a gap; the pipeline requires \
                 contiguous per-trajectory sampling"
            );
            if self.ages[idx] == 0 {
                self.out.starts[idx] = t;
            }
            // Feed raw windows first so AR features can see the current
            // point (the feature for partitioning time t uses data ≤ t).
            if autocorrelation {
                self.raw_windows[idx].push(p);
            }
        }

        // ---- 1. Partition (timed: Figures 7–8). -----------------------
        let t_part = Instant::now();
        let step_labels: Vec<u32> = match (&mut self.partitioner, self.config.partition_mode) {
            (Some(partitioner), mode) => {
                self.feature_buf.clear();
                for &(id, p) in points {
                    match mode {
                        PartitionMode::Spatial => {
                            self.feature_buf.push(p.x);
                            self.feature_buf.push(p.y);
                        }
                        PartitionMode::Autocorrelation => {
                            let w = &self.raw_windows[id as usize];
                            let window: Vec<Point> = w.iter().collect();
                            match ar_coefficients(&window, self.config.k) {
                                Some(c) => self.feature_buf.extend(c),
                                None => self
                                    .feature_buf
                                    .extend(std::iter::repeat_n(0.0, self.config.k)),
                            }
                        }
                        PartitionMode::Single => unreachable!(),
                    }
                }
                let features = Features::new(&self.feature_buf, self.d);
                let (labels, step_stats) = partitioner.step(&ids, &features);
                self.out.stats.merges += step_stats.merges;
                self.out.stats.repartitions += step_stats.repartitioned;
                labels
            }
            (None, _) => vec![0u32; points.len()],
        };
        let q = step_labels
            .iter()
            .copied()
            .max()
            .map(|m| m as usize + 1)
            .unwrap_or(0);
        self.out.stats.partitioning += t_part.elapsed();
        self.out.stats.partitions_per_step.push((t, q as u32));

        // ---- 2. Fit per-partition predictors (Eq. 6). -----------------
        let t_fit = Instant::now();
        let k = self.config.k;
        let mut step_coeffs: Vec<Predictor> = Vec::with_capacity(q);
        // Per-point history snapshots, reusing the inner buffers across
        // timesteps (`last_k_into` clears, never reallocates at steady
        // state).
        if self.kbuf.len() < points.len() {
            self.kbuf.resize_with(points.len(), Vec::new);
        }
        for (i, &(id, _)) in points.iter().enumerate() {
            let buf = &mut self.kbuf[i];
            buf.clear();
            if self.ages[id as usize] >= k {
                self.histories[id as usize].last_k_into(k, buf);
            }
        }
        for label in 0..q {
            if !self.config.predict {
                step_coeffs.push(Predictor::zero(k));
                continue;
            }
            let rows: Vec<TrainingRow<'_>> = points
                .iter()
                .enumerate()
                .filter(|(i, _)| step_labels[*i] as usize == label && !self.kbuf[*i].is_empty())
                .map(|(i, &(_, p))| TrainingRow {
                    target: p,
                    history: &self.kbuf[i],
                })
                .collect();
            // Coefficients are stored (and therefore used) at f32
            // precision — halves the dominant per-step summary cost with
            // no effect on the error bound, since prediction error is
            // absorbed by the quantizer anyway.
            let fitted = fit_predictor(&rows, k);
            let rounded: Vec<f64> = fitted.coeffs().iter().map(|&c| c as f32 as f64).collect();
            step_coeffs.push(Predictor::from_coeffs(rounded));
        }
        self.out.stats.fitting += t_fit.elapsed();

        // ---- 3. Predict, quantize errors (Alg. 1 lines 4–7). ----------
        // The per-point predict-then-diff sweep is pure given the shared
        // per-trajectory state, so it fans out over fixed-size chunks on
        // wide slices; output is written in place and is bit-identical to
        // the serial sweep for any thread count.
        let t_quant = Instant::now();
        self.preds_buf.resize(points.len(), Point::ORIGIN);
        self.errors_buf.resize(points.len(), Point::ORIGIN);
        {
            let config = &self.config;
            let histories = &self.histories;
            let ages = &self.ages;
            let coeffs = &step_coeffs;
            let labels = &step_labels;
            let kernel =
                |base: usize, pts: &[(TrajId, Point)], preds: &mut [Point], errs: &mut [Point]| {
                    let mut scratch: Vec<Point> = Vec::with_capacity(config.k);
                    for (j, &(id, p)) in pts.iter().enumerate() {
                        let predictor = &coeffs[labels[base + j] as usize];
                        let pred = predict_with_scratch(
                            config,
                            predictor,
                            &histories[id as usize],
                            ages[id as usize],
                            &mut scratch,
                        );
                        preds[j] = pred;
                        errs[j] = p - pred;
                    }
                };
            if points.len() >= PARALLEL_PREDICT_MIN && rayon::current_num_threads() > 1 {
                points
                    .par_chunks(PREDICT_CHUNK)
                    .zip(self.preds_buf.par_chunks_mut(PREDICT_CHUNK))
                    .zip(self.errors_buf.par_chunks_mut(PREDICT_CHUNK))
                    .enumerate()
                    .for_each(|(ci, ((pts, preds), errs))| {
                        kernel(ci * PREDICT_CHUNK, pts, preds, errs)
                    });
            } else {
                kernel(0, points, &mut self.preds_buf, &mut self.errors_buf);
            }
        }
        let step_codes: Vec<u32> = match (&mut self.incremental, &self.config.budget) {
            (Some(quant), _) => quant.quantize_batch(&self.errors_buf),
            (None, BuildBudget::PerStepBits(bits)) => {
                let clusters = (1usize << bits).min(self.errors_buf.len());
                let (cents, assign) = kmeans(&self.errors_buf, clusters, &self.config.kmeans);
                self.out.per_step_books.push(cents);
                assign
            }
            (None, BuildBudget::PerStepWords(_)) => {
                let clusters = self
                    .config
                    .budget
                    .words_at(t)
                    .expect("PerStepWords")
                    .min(self.errors_buf.len());
                let (cents, assign) = kmeans(&self.errors_buf, clusters, &self.config.kmeans);
                self.out.per_step_books.push(cents);
                assign
            }
            (None, BuildBudget::ErrorBounded) => unreachable!(),
        };
        self.codes_buf.clear();
        self.codes_buf.extend_from_slice(&step_codes);
        self.codes_buf.sort_unstable();
        self.codes_buf.dedup();
        self.out
            .stats
            .codewords_per_step
            .push((t, self.codes_buf.len() as u32));
        self.out.stats.quantizing += t_quant.elapsed();

        // ---- 4. Reconstruct, CQC, advance state. ----------------------
        let mut slice_recon: Vec<(TrajId, Point)> = Vec::with_capacity(points.len());
        for (i, &(id, p)) in points.iter().enumerate() {
            let idx = id as usize;
            let word = match &self.incremental {
                Some(quant) => quant.word(step_codes[i]),
                None => {
                    self.out.per_step_books.last().expect("pushed above")[step_codes[i] as usize]
                }
            };
            let hat = self.preds_buf[i] + word;
            // History holds the codebook-level reconstruction T̂ — Eq. 2
            // predicts from T̂, with CQC layered on top.
            self.histories[idx].push(hat);
            self.ages[idx] += 1;

            // Copies the record only if a snapshot still holds it.
            let record = Arc::make_mut(&mut self.out.trajs[idx]);
            let fin = match &self.template {
                Some(tpl) => {
                    let code = tpl.encode(p - hat);
                    record.cqc_codes.push(code);
                    hat + tpl.decode(code)
                }
                None => hat,
            };
            record.codes.push(step_codes[i]);
            record.labels.push(step_labels[i]);
            record.recon.push(fin);
            slice_recon.push((id, fin));
        }
        self.index_slice(t, slice_recon);

        // Retire trajectories that ended at t (keeps partitioner maps
        // small on long streams) and mark them so reappearance is caught:
        // the previous slice's ids this slice did not stamp.
        let stamp = t as u64 + 1;
        let mut active_now = Vec::with_capacity(ids.len());
        for &id in &ids {
            let seen = &mut self.last_seen[id as usize];
            if *seen != stamp {
                *seen = stamp;
                active_now.push(id);
            }
        }
        let mut retired = std::mem::replace(&mut self.active_prev, active_now);
        retired.retain(|&id| self.last_seen[id as usize] != stamp);
        for &id in &retired {
            self.retire(id);
        }
        if let Some(partitioner) = &mut self.partitioner {
            partitioner.retire(&retired);
        }

        self.out.coeffs.push(step_coeffs.into());
    }

    /// Mark trajectory `id` ended, so a reappearance is caught, and empty
    /// its windows: nothing reads them again, and the saved state holds
    /// none.
    fn retire(&mut self, id: TrajId) {
        let idx = id as usize;
        self.ended[idx] = true;
        self.histories[idx].clear();
        self.raw_windows[idx].clear();
    }

    /// Feed one reconstructed slice to the index (Algorithm 4's step), by
    /// ascending id: the order in which [`recon_slices`] lists a slice
    /// when a restored stream rebuilds its index from the records.
    /// `bounded_kmeans` is order-sensitive, so the two indexes are equal
    /// because both take a slice by id. A `Dataset` slice is id-ordered
    /// already.
    fn index_slice(&mut self, t: u32, mut recon: Vec<(TrajId, Point)>) {
        if !self.config.build_index {
            return;
        }
        if let Some(tpi) = self.tpi.get_mut() {
            let t_index = Instant::now();
            recon.sort_unstable_by_key(|&(id, _)| id);
            tpi.push_slice(t, &recon);
            self.out.stats.indexing += t_index.elapsed();
        }
    }

    /// The index over every slice consumed so far, rebuilt from the
    /// trajectory records first if a restore left it unbuilt.
    fn index(&self) -> &Tpi {
        self.tpi.get_or_init(|| {
            let mut tpi = Tpi::new(self.config.tpi.clone());
            let out = &self.out;
            let slices = recon_slices(
                out.min_t.unwrap_or(0),
                out.coeffs.len(),
                &out.starts,
                &out.trajs,
            );
            for (t, points) in slices {
                tpi.push_slice(t, &points);
            }
            tpi
        })
    }

    /// The summary of everything consumed so far, without closing the
    /// stream — the snapshot a persistence layer hands to
    /// `RepoWriter::write`/`append` between time slices, and a live
    /// service publishes. Equal to `self.clone().finish()`, and built
    /// without copying the stream's history: the summary shares every
    /// coefficient row, every trajectory record and every sealed index
    /// period with the stream (an `Arc` bump each), and seals a copy of
    /// the open period only. The stream then copies a shared trajectory
    /// record once, on its next point; an ended trajectory is never copied
    /// again. Because every piece of pipeline state is append-only, a
    /// snapshot is an exact prefix of any later snapshot — the invariant
    /// [`crate::summary_io::delta_to_bytes`] verifies and exploits.
    pub fn snapshot(&self) -> PpqSummary {
        assemble(
            self.config.clone(),
            self.template.clone(),
            self.incremental.as_ref().map(|q| q.codebook().clone()),
            self.out.clone(),
            self.config.build_index.then(|| self.index().clone()),
            self.started,
        )
    }

    /// Close the stream and produce the summary (sealing the index's
    /// open period when `config.build_index` is set).
    pub fn finish(mut self) -> PpqSummary {
        let tpi = self.config.build_index.then(|| {
            self.index();
            self.tpi.take().expect("initialised by index()")
        });
        assemble(
            self.config,
            self.template,
            self.incremental.map(|q| q.codebook().clone()),
            self.out,
            tpi,
            self.started,
        )
    }
}

/// The one definition of what a summary holds: [`PpqStream::finish`]
/// moves the stream's parts in, [`PpqStream::snapshot`] clones them.
/// `codebook` is the global codebook, or `None` for per-step codebooks.
fn assemble(
    config: PpqConfig,
    template: Option<CqcTemplate>,
    codebook: Option<Codebook>,
    mut out: Outputs,
    mut tpi: Option<Tpi>,
    started: Instant,
) -> PpqSummary {
    let t_index = Instant::now();
    if let Some(tpi) = &mut tpi {
        tpi.seal();
    }
    out.stats.indexing += t_index.elapsed();
    out.stats.total = started.elapsed();
    PpqSummary {
        config,
        codebook: match codebook {
            Some(cb) => CodebookStore::Global(cb),
            None => CodebookStore::PerStep(out.per_step_books),
        },
        coeffs: out.coeffs,
        min_t: out.min_t.unwrap_or(0),
        starts: out.starts,
        trajs: out.trajs,
        template,
        tpi,
        stats: out.stats,
    }
}

/// The top-level handle: a built summary plus convenience accessors.
///
/// ```
/// use ppq_core::{PpqConfig, PpqTrajectory};
/// use ppq_traj::synth::{porto_like, PortoConfig};
///
/// let data = porto_like(&PortoConfig { trajectories: 20, ..PortoConfig::small() });
/// let built = PpqTrajectory::build(&data, &PpqConfig::default());
/// assert!(built.summary().num_points() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct PpqTrajectory {
    summary: PpqSummary,
}

impl PpqTrajectory {
    /// Run the full pipeline over `dataset` (streams it through
    /// [`PpqStream`]).
    pub fn build(dataset: &Dataset, config: &PpqConfig) -> PpqTrajectory {
        let mut stream = PpqStream::new(config.clone());
        for slice in dataset.time_slices() {
            stream.push_slice(slice.t, slice.points);
        }
        PpqTrajectory {
            summary: stream.finish(),
        }
    }

    #[inline]
    pub fn summary(&self) -> &PpqSummary {
        &self.summary
    }

    /// Consume the handle, yielding the summary.
    pub fn into_summary(self) -> PpqSummary {
        self.summary
    }

    #[inline]
    pub fn config(&self) -> &PpqConfig {
        &self.summary.config
    }

    /// Convenience passthrough.
    pub fn reconstruct(&self, id: TrajId, t: u32) -> Option<Point> {
        self.summary.reconstruct(id, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use ppq_traj::synth::{porto_like, PortoConfig};

    fn small_porto() -> Dataset {
        porto_like(&PortoConfig {
            trajectories: 25,
            mean_len: 50,
            min_len: 30,
            start_spread: 10,
            seed: 42,
        })
    }

    #[test]
    fn error_bound_holds_with_cqc() {
        let data = small_porto();
        let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
        let built = PpqTrajectory::build(&data, &cfg);
        let bound = cfg.cqc_error_bound();
        assert!(
            built.summary().max_error(&data) <= bound + 1e-12,
            "max error {} exceeds CQC bound {bound}",
            built.summary().max_error(&data)
        );
    }

    #[test]
    fn error_bound_holds_without_cqc() {
        let data = small_porto();
        let cfg = PpqConfig::variant(Variant::PpqSBasic, 0.1);
        let built = PpqTrajectory::build(&data, &cfg);
        assert!(built.summary().max_error(&data) <= cfg.eps1 + 1e-12);
    }

    #[test]
    fn all_variants_build_and_bound() {
        let data = small_porto();
        for v in Variant::ALL {
            let cfg = PpqConfig::variant(v, 0.1);
            let built = PpqTrajectory::build(&data, &cfg);
            let bound = cfg.guaranteed_deviation();
            let max_err = built.summary().max_error(&data);
            assert!(
                max_err <= bound + 1e-12,
                "{}: {} > {}",
                v.name(),
                max_err,
                bound
            );
            assert_eq!(built.summary().num_points(), data.num_points());
        }
    }

    #[test]
    fn replay_matches_materialized_reconstruction() {
        let data = small_porto();
        for v in [
            Variant::PpqA,
            Variant::PpqSBasic,
            Variant::EPq,
            Variant::QTrajectory,
        ] {
            let cfg = PpqConfig::variant(v, 0.1);
            let built = PpqTrajectory::build(&data, &cfg);
            let s = built.summary();
            for traj in data.trajectories() {
                let replayed = s.replay(traj.id);
                for (off, rp) in replayed.iter().enumerate() {
                    let cached = s.reconstruct(traj.id, traj.start + off as u32).unwrap();
                    assert!(
                        rp.dist(&cached) < 1e-9,
                        "{}: replay diverges at traj {} off {off}",
                        v.name(),
                        traj.id
                    );
                }
            }
        }
    }

    #[test]
    fn prediction_shrinks_codebook_vs_raw() {
        let data = small_porto();
        let epq = PpqTrajectory::build(&data, &PpqConfig::variant(Variant::EPq, 0.1));
        let qtraj = PpqTrajectory::build(&data, &PpqConfig::variant(Variant::QTrajectory, 0.1));
        assert!(
            epq.summary().codebook_len() < qtraj.summary().codebook_len(),
            "E-PQ codebook {} should beat Q-trajectory {}",
            epq.summary().codebook_len(),
            qtraj.summary().codebook_len()
        );
    }

    #[test]
    fn partitioning_shrinks_codebook_vs_single() {
        let data = porto_like(&PortoConfig {
            trajectories: 60,
            mean_len: 60,
            min_len: 30,
            start_spread: 10,
            seed: 7,
        });
        let ppq = PpqTrajectory::build(&data, &PpqConfig::variant(Variant::PpqSBasic, 0.02));
        let epq = PpqTrajectory::build(&data, &PpqConfig::variant(Variant::EPq, 0.02));
        // Partitioned prediction should not be (much) worse; typically it
        // is strictly better on heterogeneous data.
        assert!(
            ppq.summary().codebook_len() as f64 <= epq.summary().codebook_len() as f64 * 1.25,
            "PPQ-S {} vs E-PQ {}",
            ppq.summary().codebook_len(),
            epq.summary().codebook_len()
        );
    }

    #[test]
    fn budgeted_build_uses_per_step_codebooks() {
        let data = small_porto();
        let cfg = PpqConfig {
            budget: BuildBudget::PerStepBits(5),
            build_index: false,
            ..PpqConfig::variant(Variant::PpqA, 0.1)
        };
        let built = PpqTrajectory::build(&data, &cfg);
        match &built.summary().codebook {
            CodebookStore::PerStep(books) => {
                assert!(!books.is_empty());
                assert!(books.iter().all(|b| b.len() <= 32));
            }
            _ => panic!("expected per-step codebooks"),
        }
        // MAE exists and is finite.
        assert!(built.summary().mae_meters(&data).is_finite());
    }

    #[test]
    fn compression_ratio_above_one() {
        // Compression only pays once partitions amortize over enough
        // trajectories, so this test uses a denser dataset than the rest.
        let data = porto_like(&PortoConfig {
            trajectories: 120,
            mean_len: 80,
            min_len: 30,
            start_spread: 10,
            seed: 77,
        });
        let built = PpqTrajectory::build(&data, &PpqConfig::variant(Variant::PpqABasic, 0.1));
        let ratio = built.summary().compression_ratio(&data);
        assert!(ratio > 1.0, "ratio {ratio}");
    }

    #[test]
    fn stats_populated() {
        let data = small_porto();
        let built = PpqTrajectory::build(&data, &PpqConfig::variant(Variant::PpqA, 0.1));
        let stats = built.summary().stats();
        assert!(!stats.partitions_per_step.is_empty());
        assert!(stats.total.as_nanos() > 0);
        assert!(built.summary().tpi().is_some());
    }

    #[test]
    fn slices_retire_the_ids_they_drop_and_feed_raw_windows_only_for_ar() {
        for mode in [PartitionMode::Spatial, PartitionMode::Autocorrelation] {
            let mut cfg = PpqConfig::variant(Variant::PpqS, 0.1);
            cfg.partition_mode = mode;
            let mut s = PpqStream::new(cfg);
            let p = |id: u32, t: u32| {
                let step = id as f64 * 1e-3 + t as f64 * 1e-4;
                (id, Point::new(-8.6 + step, 41.1 + step))
            };
            // Unsorted slices: 1 runs t 0..=1, 3 t 0..=2, 2 t 1..=2.
            s.push_slice(0, &[p(3, 0), p(1, 0)]);
            s.push_slice(1, &[p(2, 1), p(3, 1), p(1, 1)]);
            let raw = s.raw_windows[3].len();
            match mode {
                PartitionMode::Autocorrelation => assert_eq!(raw, 2),
                _ => assert!(s.raw_windows.iter().all(History::is_empty)),
            }
            s.push_slice(2, &[p(3, 2), p(2, 2)]);
            assert_eq!(s.ended, [false, true, false, false]);
            assert_eq!(s.active_prev, [3, 2]);
            assert!(s.histories[1].is_empty() && s.raw_windows[1].is_empty());
            let (assign, _, _) = s.partitioner.as_ref().unwrap().state();
            assert!(assign.iter().all(|&(id, _)| id != 1), "{mode:?}");
            s.push_slice(3, &[]);
            assert_eq!(s.ended, [false, true, true, true]);
            assert!(s.active_prev.is_empty());
            let (assign, _, _) = s.partitioner.as_ref().unwrap().state();
            assert!(assign.is_empty(), "{mode:?} still maps {assign:?}");
        }
    }

    #[test]
    fn empty_dataset_builds() {
        let data = Dataset::new(vec![]);
        let built = PpqTrajectory::build(&data, &PpqConfig::default());
        assert_eq!(built.summary().num_points(), 0);
        assert_eq!(built.summary().codebook_len(), 0);
    }

    #[test]
    fn streaming_equals_batch() {
        let data = small_porto();
        let cfg = PpqConfig::variant(Variant::PpqA, 0.1);
        let batch = PpqTrajectory::build(&data, &cfg);
        let mut stream = PpqStream::new(cfg);
        for slice in data.time_slices() {
            stream.push_slice(slice.t, slice.points);
        }
        let s = stream.finish();
        assert_eq!(s.num_points(), batch.summary().num_points());
        assert_eq!(s.codebook_len(), batch.summary().codebook_len());
        for traj in data.trajectories() {
            for off in 0..traj.len() {
                let t = traj.start + off as u32;
                let a = s.reconstruct(traj.id, t).unwrap();
                let b = batch.summary().reconstruct(traj.id, t).unwrap();
                assert!(a.dist(&b) < 1e-12, "divergence at traj {} t {t}", traj.id);
            }
        }
    }

    #[test]
    #[should_panic(expected = "consecutive timesteps")]
    fn stream_rejects_time_gaps() {
        let mut stream = PpqStream::new(PpqConfig::default());
        stream.push_slice(0, &[(0, Point::new(0.0, 0.0))]);
        stream.push_slice(2, &[(0, Point::new(0.0, 0.0))]);
    }

    #[test]
    #[should_panic(expected = "reappeared after a gap")]
    fn stream_rejects_gappy_trajectory() {
        let mut stream = PpqStream::new(PpqConfig::default());
        stream.push_slice(0, &[(0, Point::new(0.0, 0.0)), (1, Point::new(1.0, 1.0))]);
        stream.push_slice(1, &[(1, Point::new(1.0, 1.0))]);
        stream.push_slice(2, &[(0, Point::new(0.0, 0.0)), (1, Point::new(1.0, 1.0))]);
    }
}
