//! Sharded streaming: hash-partition trajectory ids across independent
//! [`PpqStream`] shards for repository-scale ingest.
//!
//! The single-shard pipeline serializes every timestep through one
//! partitioner, one codebook, and one TPI. [`ShardedPpqStream`] splits the
//! id space over `S` fully independent shards — each owns its own
//! [`PpqStream`] (codebook, error-bound state, TPI slices) — and fans each
//! incoming time slice out to the shards, on threads when the slice is
//! wide enough to pay for them. Because a trajectory's entire life belongs
//! to exactly one shard and shards share no state, the result for any
//! shard depends only on that shard's input order, which the scatter
//! preserves; sharded ingest is therefore bit-identical at any
//! `RAYON_NUM_THREADS`, and at `S = 1` bit-identical to the unsharded
//! [`PpqStream`].
//!
//! What sharding trades away is *codebook sharing*: each shard grows its
//! own error-bounded codebook from only its trajectories' prediction
//! errors, so the union of the per-shard codebooks is larger than the
//! single global codebook would be (fragmentation), slightly changing
//! per-point reconstructions (still within the same ε bounds — every
//! per-shard guarantee is the paper's guarantee). The cross-shard query
//! semantics live in [`crate::query::ShardedQueryEngine`].

use crate::config::PpqConfig;
use crate::pipeline::PpqStream;
use crate::summary::{BuildStats, CodebookStore, PpqSummary, SummaryBreakdown, TrajRecord};
use ppq_geo::Point;
use ppq_predict::Predictor;
use ppq_quantize::Codebook;
use ppq_traj::{Dataset, TrajId};
use rayon::prelude::*;
use std::sync::Arc;

/// Minimum slice width before a slice's shards run on separate threads.
/// The rayon shim spawns fresh scoped threads per call (no pool) and the
/// caller sleeps until they join: on a narrow slice that costs as much as
/// the shards' own work, and what it costs moves with how the host
/// schedules the wake-ups. Below this the shards take the slice in turn.
/// Same idiom and size as `PARALLEL_PREDICT_MIN` in `pipeline.rs`.
const PARALLEL_SHARD_MIN: usize = 4096;

/// Deterministic trajectory-id → shard assignment.
///
/// Uses a splitmix64-style finalizer so consecutive ids (the common
/// allocation pattern) spread evenly instead of striping, and so the
/// assignment is a pure function of `(id, shards)` — stable across
/// platforms, thread counts, and runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRouter {
    shards: u32,
}

impl ShardRouter {
    pub fn new(shards: usize) -> ShardRouter {
        assert!(shards > 0, "shard count must be positive");
        assert!(shards <= u32::MAX as usize, "shard count out of range");
        ShardRouter {
            shards: shards as u32,
        }
    }

    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards as usize
    }

    /// The shard owning trajectory `id`.
    #[inline]
    pub fn shard_of(&self, id: TrajId) -> usize {
        if self.shards == 1 {
            return 0;
        }
        // splitmix64 finalizer (Steele et al.) on the widened id.
        let mut x = id as u64;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^= x >> 31;
        (x % self.shards as u64) as usize
    }
}

/// `S` independent [`PpqStream`]s behind one `push_slice` front door.
///
/// Feed it exactly like a [`PpqStream`] — consecutive timesteps,
/// contiguous per-trajectory appearances — and it scatters each slice by
/// [`ShardRouter::shard_of`] (preserving the slice's relative point
/// order within every shard) and advances all shards, in parallel when a
/// thread pool is available and the slice is wide. Every shard sees every
/// timestep (possibly as an empty slice), so shard clocks stay aligned and
/// per-shard trajectory-retirement semantics match the unsharded
/// pipeline's.
///
/// ```
/// use ppq_core::shard::ShardedPpqStream;
/// use ppq_core::PpqConfig;
/// use ppq_geo::Point;
///
/// let mut stream = ShardedPpqStream::new(PpqConfig::default(), 4);
/// for t in 0..50u32 {
///     let pts: Vec<_> = (0..8u32)
///         .map(|id| (id, Point::new(-8.6 + (t + id) as f64 * 1e-4, 41.1)))
///         .collect();
///     stream.push_slice(t, &pts);
/// }
/// let summary = stream.finish();
/// assert_eq!(summary.num_points(), 50 * 8);
/// assert!(summary.reconstruct(3, 10).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct ShardedPpqStream {
    pub(crate) router: ShardRouter,
    pub(crate) shards: Vec<PpqStream>,
    /// Reusable per-shard scatter buffers (allocation-free steady state).
    pub(crate) buckets: Vec<Vec<(TrajId, Point)>>,
}

impl ShardedPpqStream {
    pub fn new(config: PpqConfig, shards: usize) -> ShardedPpqStream {
        let router = ShardRouter::new(shards);
        ShardedPpqStream {
            router,
            shards: (0..shards)
                .map(|_| PpqStream::new(config.clone()))
                .collect(),
            buckets: vec![Vec::new(); shards],
        }
    }

    #[inline]
    pub fn num_shards(&self) -> usize {
        self.router.num_shards()
    }

    #[inline]
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    #[inline]
    pub fn config(&self) -> &PpqConfig {
        self.shards[0].config()
    }

    /// Number of timesteps consumed so far.
    pub fn timesteps(&self) -> usize {
        self.shards[0].timesteps()
    }

    /// The timestep the stream expects next (`None` before the first
    /// push). Every shard sees every timestep, so the clock is shared.
    pub fn next_t(&self) -> Option<u32> {
        self.shards[0].next_t()
    }

    /// Consume one timestep, fanning the slice out across shards (on
    /// threads once it is `PARALLEL_SHARD_MIN` points wide).
    ///
    /// Determinism contract: shard `i`'s state after this call depends
    /// only on the subsequence of `points` routed to shard `i`, in slice
    /// order — never on the thread count or on other shards.
    pub fn push_slice(&mut self, t: u32, points: &[(TrajId, Point)]) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        for &(id, p) in points {
            self.buckets[self.router.shard_of(id)].push((id, p));
        }
        if self.shards.len() > 1
            && points.len() >= PARALLEL_SHARD_MIN
            && rayon::current_num_threads() > 1
        {
            let jobs: Vec<(&mut PpqStream, &Vec<(TrajId, Point)>)> =
                self.shards.iter_mut().zip(self.buckets.iter()).collect();
            jobs.into_par_iter()
                .for_each(|(shard, bucket)| shard.push_slice(t, bucket));
        } else {
            for (shard, bucket) in self.shards.iter_mut().zip(&self.buckets) {
                shard.push_slice(t, bucket);
            }
        }
    }

    /// The sharded summary of everything consumed so far, without closing
    /// the stream (the sharded mirror of [`PpqStream::snapshot`]). The
    /// shards take their snapshots in turn: each shares its history
    /// rather than copying it, which takes less time than spawning a
    /// thread per shard.
    pub fn snapshot(&self) -> ShardedSummary {
        ShardedSummary {
            router: self.router,
            shards: self.shards.iter().map(PpqStream::snapshot).collect(),
        }
    }

    /// Close every shard and produce the sharded summary, in parallel
    /// when a thread pool is available.
    pub fn finish(self) -> ShardedSummary {
        let shards = if self.shards.len() > 1 && rayon::current_num_threads() > 1 {
            self.shards.into_par_iter().map(PpqStream::finish).collect()
        } else {
            self.shards.into_iter().map(PpqStream::finish).collect()
        };
        ShardedSummary {
            router: self.router,
            shards,
        }
    }
}

/// The per-shard summaries plus the router that assigned them.
///
/// Point-level accessors route to the owning shard; aggregate accessors
/// sum across shards. Cross-shard STRQ/TPQ live in
/// [`crate::query::ShardedQueryEngine`].
#[derive(Clone, Debug)]
pub struct ShardedSummary {
    router: ShardRouter,
    shards: Vec<PpqSummary>,
}

/// Why a set of per-shard summaries cannot be re-sharded losslessly.
#[derive(Debug, PartialEq, Eq)]
pub enum ReshardError {
    /// Re-sharding remaps codeword indices into one concatenated global
    /// codebook; per-step codebooks (the budgeted baselines) are not
    /// supported.
    PerStepCodebook,
    /// The shard summaries disagree on a structural parameter that must be
    /// uniform (timestep range, prediction order, CQC setting, …).
    MisalignedShards(&'static str),
    /// A remapped partition label would not fit the serialized u16 label
    /// domain (astronomically many partitions per step).
    LabelOverflow,
}

impl std::fmt::Display for ReshardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReshardError::PerStepCodebook => {
                write!(f, "re-sharding requires global (error-bounded) codebooks")
            }
            ReshardError::MisalignedShards(what) => {
                write!(f, "shard summaries are misaligned: {what}")
            }
            ReshardError::LabelOverflow => {
                write!(f, "remapped partition label exceeds the u16 label domain")
            }
        }
    }
}

impl std::error::Error for ReshardError {}

impl ShardedSummary {
    /// Batch convenience: stream a whole dataset through a
    /// [`ShardedPpqStream`] (the sharded mirror of
    /// [`crate::pipeline::PpqTrajectory::build`]).
    pub fn build(dataset: &Dataset, config: &PpqConfig, shards: usize) -> ShardedSummary {
        let mut stream = ShardedPpqStream::new(config.clone(), shards);
        for slice in dataset.time_slices() {
            stream.push_slice(slice.t, slice.points);
        }
        stream.finish()
    }

    /// Assemble a sharded summary from per-shard summaries whose
    /// trajectory assignment followed `ShardRouter::new(shards.len())` —
    /// the inverse of [`ShardedSummary::shards`], used when reopening a
    /// persisted sharded repository into the in-memory form.
    pub fn from_shards(shards: Vec<PpqSummary>) -> ShardedSummary {
        assert!(
            !shards.is_empty(),
            "sharded summary needs at least one shard"
        );
        ShardedSummary {
            router: ShardRouter::new(shards.len()),
            shards,
        }
    }

    #[inline]
    pub fn num_shards(&self) -> usize {
        self.router.num_shards()
    }

    #[inline]
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    #[inline]
    pub fn shards(&self) -> &[PpqSummary] {
        &self.shards
    }

    /// Consume the sharded summary, yielding the per-shard summaries
    /// (e.g. to rebuild each shard's index before persisting).
    pub fn into_shards(self) -> Vec<PpqSummary> {
        self.shards
    }

    /// Losslessly redistribute the trajectories over `new_shards` shards
    /// (the repository's `S → S′` re-sharding primitive).
    ///
    /// A fresh `S′`-shard build would re-run quantization and produce
    /// different codebooks; this instead keeps every trajectory's encoding
    /// *bit-for-bit*: the old shards' codebooks are concatenated into one
    /// union codebook carried by every new shard, codeword indices are
    /// offset by the owning old shard's codebook position, per-step
    /// coefficient rows are concatenated likewise and partition labels
    /// offset per step. Reconstructions — and therefore STRQ answers at
    /// every level and TPQ payload bits — are unchanged (per-point data is
    /// never duplicated; only the union codebook and coefficient tables
    /// are: the fragmentation cost sharding already pays).
    ///
    /// Only global (error-bounded) codebooks are supported; the shard
    /// summaries must agree on `min_t`, timestep count, and the
    /// decode-relevant config (always true for summaries produced by one
    /// [`ShardedPpqStream`] or reopened from one repository).
    pub fn reshard(&self, new_shards: usize) -> Result<ShardedSummary, ReshardError> {
        let old = &self.shards;
        let steps = old[0].coeffs.len();
        let min_t = old[0].min_t;
        for s in old.iter() {
            if s.coeffs.len() != steps {
                return Err(ReshardError::MisalignedShards("timestep count"));
            }
            if s.min_t != min_t && s.num_points() > 0 {
                return Err(ReshardError::MisalignedShards("min_t"));
            }
            if s.config.k != old[0].config.k
                || s.config.use_cqc != old[0].config.use_cqc
                || s.config.predict != old[0].config.predict
            {
                return Err(ReshardError::MisalignedShards("config"));
            }
            if !matches!(s.codebook, CodebookStore::Global(_)) {
                return Err(ReshardError::PerStepCodebook);
            }
        }

        // Union codebook + per-old-shard index offsets.
        let mut word_off = Vec::with_capacity(old.len());
        let mut words: Vec<Point> = Vec::new();
        for s in old.iter() {
            word_off.push(words.len() as u32);
            if let CodebookStore::Global(cb) = &s.codebook {
                words.extend_from_slice(cb.words());
            }
        }
        // Per-step concatenated coefficient rows + per-(shard, step) label
        // offsets.
        let mut row_off: Vec<Vec<u32>> = vec![Vec::with_capacity(steps); old.len()];
        let mut coeffs: Vec<Arc<[Predictor]>> = Vec::with_capacity(steps);
        for t_off in 0..steps {
            let mut step: Vec<Predictor> = Vec::new();
            for (si, s) in old.iter().enumerate() {
                row_off[si].push(step.len() as u32);
                step.extend(s.coeffs[t_off].iter().cloned());
            }
            if step.len() > u16::MAX as usize + 1 {
                return Err(ReshardError::LabelOverflow);
            }
            coeffs.push(step.into());
        }

        let n_traj = old.iter().map(|s| s.trajs.len()).max().unwrap_or(0);
        let new_router = ShardRouter::new(new_shards);
        let template = old[0].template.clone();
        let mut shards: Vec<PpqSummary> = (0..new_shards)
            .map(|_| PpqSummary {
                config: old[0].config.clone(),
                codebook: CodebookStore::Global(Codebook::from_words(words.clone())),
                coeffs: coeffs.clone(),
                min_t,
                starts: vec![0; n_traj],
                trajs: vec![Arc::default(); n_traj],
                template: template.clone(),
                tpi: None,
                stats: BuildStats::default(),
            })
            .collect();

        for id in 0..n_traj as u32 {
            let owner = &old[self.router.shard_of(id)];
            let idx = id as usize;
            let Some(traj) = owner.trajs.get(idx).filter(|r| !r.codes.is_empty()) else {
                continue;
            };
            let dst = &mut shards[new_router.shard_of(id)];
            let off = word_off[self.router.shard_of(id)];
            let rows = &row_off[self.router.shard_of(id)];
            dst.starts[idx] = owner.starts[idx];
            let t0 = (owner.starts[idx] - min_t) as usize;
            dst.trajs[idx] = Arc::new(TrajRecord {
                codes: traj.codes.iter().map(|&b| b + off).collect(),
                labels: traj
                    .labels
                    .iter()
                    .enumerate()
                    .map(|(p, &l)| l + rows[t0 + p])
                    .collect(),
                cqc_codes: traj.cqc_codes.clone(),
                // Reconstructions are unchanged by construction: the
                // remapped indices resolve to the very same words and
                // coefficient rows.
                recon: traj.recon.clone(),
            });
        }
        Ok(ShardedSummary {
            router: new_router,
            shards,
        })
    }

    #[inline]
    pub fn shard(&self, i: usize) -> &PpqSummary {
        &self.shards[i]
    }

    #[inline]
    pub fn config(&self) -> &PpqConfig {
        self.shards[0].config()
    }

    /// The shard summary owning trajectory `id`.
    #[inline]
    pub fn shard_for(&self, id: TrajId) -> &PpqSummary {
        &self.shards[self.router.shard_of(id)]
    }

    /// Final reconstructed position of trajectory `id` at timestep `t`
    /// (routes to the owning shard).
    pub fn reconstruct(&self, id: TrajId, t: u32) -> Option<Point> {
        self.shard_for(id).reconstruct(id, t)
    }

    /// Reconstructed sub-trajectory over `[from, to]` — the TPQ payload,
    /// served entirely by the owning shard.
    pub fn reconstruct_range(&self, id: TrajId, from: u32, to: u32) -> Vec<(u32, Point)> {
        self.shard_for(id).reconstruct_range(id, from, to)
    }

    /// Total points summarised across shards.
    pub fn num_points(&self) -> usize {
        self.shards.iter().map(PpqSummary::num_points).sum()
    }

    /// Trajectories with at least one summarised point, across shards.
    pub fn num_trajectories(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.trajs.iter().filter(|r| !r.codes.is_empty()).count())
            .sum()
    }

    /// Total codewords across per-shard codebooks. With `S > 1` this
    /// exceeds the single-shard codebook (fragmentation), the quality
    /// cost of sharding.
    pub fn codebook_len(&self) -> usize {
        self.shards.iter().map(PpqSummary::codebook_len).sum()
    }

    /// Component-wise sum of the per-shard size breakdowns.
    pub fn breakdown(&self) -> SummaryBreakdown {
        let mut total = SummaryBreakdown::default();
        for s in &self.shards {
            let b = s.breakdown();
            total.codebook += b.codebook;
            total.code_indices += b.code_indices;
            total.coefficients += b.coefficients;
            total.partition_runs += b.partition_runs;
            total.cqc_codes += b.cqc_codes;
            total.cqc_template += b.cqc_template;
        }
        total
    }

    /// Compression ratio = raw size / summed summary size.
    pub fn compression_ratio(&self, dataset: &Dataset) -> f64 {
        dataset.raw_size_bytes() as f64 / self.breakdown().total() as f64
    }

    /// Mean absolute error versus the original data, in metres.
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
        ppq_geo::coords::deg_to_meters(sum / n as f64)
    }

    /// Maximum reconstruction error in coordinate units. Every shard runs
    /// the full pipeline, so the paper's ε bounds hold per shard and
    /// therefore globally.
    pub fn max_error(&self, dataset: &Dataset) -> f64 {
        dataset
            .iter_points()
            .filter_map(|(id, t, p)| self.reconstruct(id, t).map(|r| p.dist(&r)))
            .fold(0.0, f64::max)
    }

    /// The local-search radius shared by all shards (identical configs).
    pub fn search_radius(&self) -> f64 {
        self.config().guaranteed_deviation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::pipeline::PpqTrajectory;
    use ppq_traj::synth::{porto_like, PortoConfig};

    fn dataset() -> Dataset {
        porto_like(&PortoConfig {
            trajectories: 40,
            mean_len: 45,
            min_len: 30,
            start_spread: 10,
            seed: 33,
        })
    }

    #[test]
    fn router_is_stable_and_covers_all_shards() {
        let router = ShardRouter::new(8);
        let mut seen = [false; 8];
        for id in 0..512u32 {
            let s = router.shard_of(id);
            assert!(s < 8);
            assert_eq!(s, router.shard_of(id), "assignment must be pure");
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "512 ids should hit all 8 shards");
        // S = 1 degenerates to shard 0.
        let single = ShardRouter::new(1);
        assert_eq!(single.shard_of(12345), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_shards_rejected() {
        ShardRouter::new(0);
    }

    #[test]
    fn sharded_build_preserves_points_and_bounds() {
        let data = dataset();
        let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
        for shards in [1, 2, 4, 8] {
            let sharded = ShardedSummary::build(&data, &cfg, shards);
            assert_eq!(sharded.num_shards(), shards);
            assert_eq!(sharded.num_points(), data.num_points());
            assert_eq!(sharded.num_trajectories(), data.num_trajectories());
            let bound = cfg.cqc_error_bound();
            assert!(
                sharded.max_error(&data) <= bound + 1e-12,
                "S={shards}: max error {} exceeds bound {bound}",
                sharded.max_error(&data)
            );
        }
    }

    #[test]
    fn one_shard_matches_unsharded_summary() {
        let data = dataset();
        let cfg = PpqConfig::variant(Variant::PpqA, 0.1);
        let single = PpqTrajectory::build(&data, &cfg).into_summary();
        let sharded = ShardedSummary::build(&data, &cfg, 1);
        assert_eq!(sharded.num_points(), single.num_points());
        assert_eq!(sharded.codebook_len(), single.codebook_len());
        assert_eq!(sharded.breakdown(), single.breakdown());
        for traj in data.trajectories() {
            for off in 0..traj.len() {
                let t = traj.start + off as u32;
                let a = sharded.reconstruct(traj.id, t).unwrap();
                let b = single.reconstruct(traj.id, t).unwrap();
                assert!(
                    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits(),
                    "S=1 divergence at traj {} t {t}",
                    traj.id
                );
            }
        }
    }

    /// The integration tests' slices are tens of points wide and so never
    /// leave the calling thread; this fixture is wide enough to.
    #[test]
    fn wide_slices_on_threads_match_the_same_slices_in_turn() {
        let data = porto_like(&PortoConfig {
            trajectories: PARALLEL_SHARD_MIN + 200,
            mean_len: 8,
            min_len: 6,
            start_spread: 1,
            seed: 34,
        });
        let widest = data.time_slices().map(|s| s.points.len()).max().unwrap();
        assert!(widest >= PARALLEL_SHARD_MIN, "fixture stays serial");
        let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
        let serial = rayon::with_thread_count(1, || ShardedSummary::build(&data, &cfg, 4));
        let threaded = rayon::with_thread_count(4, || ShardedSummary::build(&data, &cfg, 4));
        assert_eq!(serial.breakdown(), threaded.breakdown());
        for (id, t, _) in data.iter_points() {
            let a = serial.reconstruct(id, t).unwrap();
            let b = threaded.reconstruct(id, t).unwrap();
            assert!(
                a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits(),
                "thread-count divergence at traj {id} t {t}"
            );
        }
    }

    #[test]
    fn fragmentation_grows_codebook_but_not_error() {
        let data = dataset();
        let cfg = PpqConfig::variant(Variant::PpqSBasic, 0.1);
        let s1 = ShardedSummary::build(&data, &cfg, 1);
        let s4 = ShardedSummary::build(&data, &cfg, 4);
        // Fragmented codebooks are at least as large in total...
        assert!(s4.codebook_len() >= s1.codebook_len());
        // ...but the per-point guarantee is unchanged.
        assert!(s4.max_error(&data) <= cfg.eps1 + 1e-12);
    }

    #[test]
    fn reshard_preserves_reconstructions_bit_for_bit() {
        let data = dataset();
        let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
        let s3 = ShardedSummary::build(&data, &cfg, 3);
        for new_s in [1usize, 2, 5] {
            let re = s3.reshard(new_s).unwrap();
            assert_eq!(re.num_shards(), new_s);
            assert_eq!(re.num_points(), s3.num_points());
            assert_eq!(re.num_trajectories(), s3.num_trajectories());
            for traj in data.trajectories() {
                for off in 0..traj.len() {
                    let t = traj.start + off as u32;
                    let a = s3.reconstruct(traj.id, t).unwrap();
                    let b = re.reconstruct(traj.id, t).unwrap();
                    assert!(
                        a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits(),
                        "S=3→{new_s} divergence at traj {} t {t}",
                        traj.id
                    );
                }
            }
            // Replay from the remapped arrays (what a decoder of the
            // re-sharded summary would run) agrees with the carried cache.
            let probe = data.trajectories().iter().step_by(7);
            for traj in probe {
                let shard = re.shard_for(traj.id);
                let replayed = shard.replay(traj.id);
                for (off, p) in replayed.iter().enumerate() {
                    let cached = shard.trajs[traj.id as usize].recon[off];
                    assert!(
                        p.x.to_bits() == cached.x.to_bits() && p.y.to_bits() == cached.y.to_bits(),
                        "replay of remapped arrays diverged at traj {} off {off}",
                        traj.id
                    );
                }
            }
        }
    }

    #[test]
    fn reshard_rejects_per_step_codebooks() {
        let data = dataset();
        let cfg = PpqConfig {
            budget: crate::config::BuildBudget::PerStepBits(4),
            ..PpqConfig::variant(Variant::PpqA, 0.1)
        };
        let s2 = ShardedSummary::build(&data, &cfg, 2);
        assert!(matches!(s2.reshard(3), Err(ReshardError::PerStepCodebook)));
    }

    #[test]
    fn from_shards_round_trips() {
        let data = dataset();
        let cfg = PpqConfig::variant(Variant::PpqA, 0.1);
        let s2 = ShardedSummary::build(&data, &cfg, 2);
        let rebuilt = ShardedSummary::from_shards(s2.shards().to_vec());
        assert_eq!(rebuilt.num_shards(), 2);
        assert_eq!(rebuilt.num_points(), s2.num_points());
        let (id, t, _) = data.iter_points().next().unwrap();
        assert_eq!(rebuilt.reconstruct(id, t), s2.reconstruct(id, t));
    }

    #[test]
    fn consecutive_snapshots_share_sealed_periods() {
        let data = dataset();
        let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
        let slices: Vec<_> = data.time_slices().collect();
        let mut stream = ShardedPpqStream::new(cfg, 2);
        let cut = slices.len() / 2;
        for s in &slices[..cut] {
            stream.push_slice(s.t, s.points);
        }
        let first = stream.snapshot();
        for s in &slices[cut..cut + 3] {
            stream.push_slice(s.t, s.points);
        }
        let second = stream.snapshot();
        let mut shared = 0;
        for (a, b) in first.shards().iter().zip(second.shards()) {
            let (a, b) = (a.tpi().unwrap().periods(), b.tpi().unwrap().periods());
            // Every period but the first snapshot's last was sealed by the
            // stream before that snapshot: both hold the very same one.
            for (pa, pb) in a[..a.len() - 1].iter().zip(b) {
                assert!(std::sync::Arc::ptr_eq(pa, pb), "sealed period was copied");
                shared += 1;
            }
            // The open period was sealed in a copy; the stream went on to
            // extend (or close) its own.
            assert!(!std::sync::Arc::ptr_eq(&a[a.len() - 1], &b[a.len() - 1]));
        }
        assert!(shared > 0, "fixture never sealed a period");
        // Growth after the first snapshot did not reach back into it.
        let control = {
            let mut c = ShardedPpqStream::new(first.config().clone(), 2);
            for s in &slices[..cut] {
                c.push_slice(s.t, s.points);
            }
            c.finish()
        };
        for (a, b) in first.shards().iter().zip(control.shards()) {
            let blocks = |s: &PpqSummary| -> Vec<_> {
                let periods = s.tpi().unwrap().periods().iter();
                periods.map(|p| p.pi.export_blocks()).collect()
            };
            assert_eq!(blocks(a), blocks(b));
        }
    }

    #[test]
    fn empty_dataset_builds_sharded() {
        let data = Dataset::new(vec![]);
        let sharded = ShardedSummary::build(&data, &PpqConfig::default(), 4);
        assert_eq!(sharded.num_points(), 0);
        assert_eq!(sharded.codebook_len(), 0);
        assert_eq!(sharded.num_trajectories(), 0);
    }
}
