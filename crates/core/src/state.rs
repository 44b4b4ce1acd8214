//! Mid-flight pipeline state: serialize what a live
//! [`ShardedPpqStream`] knows beyond its summaries, and restore the
//! stream from those bytes plus the summaries, so that the restored
//! stream's every future output is bit-identical to the original's.
//!
//! The summaries carry the outputs: codeword indices, partition labels,
//! CQC codes, coefficients, codebooks, trajectory starts, `min_t`, the
//! step count (so `next_t`) and, by replay on decode, the
//! reconstructions. A restored stream rebuilds its index from those
//! reconstructions when one is first asked for. The state holds the
//! rest: the full (not only decode-relevant) config and, per shard, the
//! reconstruction histories and raw windows of the active trajectories,
//! the partitioner's trajectory→partition map and counters, the
//! quantizer's assignment counter and the build counters a summary
//! drops. A trajectory's age is its point count, and a trajectory with
//! points that is not active has ended, so neither is stored. So the
//! state has no per-point term: it grows with the active trajectories
//! and the steps. A live-ingest layer commits these bytes with each
//! generation of its chain, so recovery reads the summaries from the
//! chain, resumes the pipeline exactly where the fold left it and
//! replays only the WAL tail.
//!
//! Format (all little-endian, via [`ppq_storage::codec`];
//! `docs/FORMAT.md` §11.2):
//!
//! ```text
//! magic "PPQK" | version u32 | full PpqConfig | shard count u32 |
//! per shard: resumable state
//! ```
//!
//! The encoding is canonical (maps are sorted before writing), so equal
//! states produce equal bytes. Integrity is the *caller's* job: the
//! repository manifest records these bytes' length and CRC-32; this
//! module assumes untampered input and reports structural mismatches —
//! with the bytes or with the summaries handed in — as
//! [`DecodeError::Corrupt`].

use crate::config::{BuildBudget, ColdStart, PartitionMode, PpqConfig};
use crate::pipeline::PpqStream;
use crate::shard::{ShardRouter, ShardedPpqStream};
use crate::summary::{CodebookStore, PpqSummary};
use crate::summary_io::{self, DecodeError};
use ppq_predict::History;
use ppq_quantize::kmeans::KMeansConfig;
use ppq_quantize::IncrementalQuantizer;
use ppq_storage::codec::{Decoder, Encoder};
use ppq_tpi::{PiConfig, TpiConfig};
use ppq_traj::TrajId;
use std::sync::OnceLock;

const MAGIC: u32 = u32::from_le_bytes(*b"PPQK");
const VERSION: u32 = 3;

/// Serialize a live sharded stream's resumable state. The inverse of
/// [`sharded_from_bytes`].
pub fn sharded_to_bytes(stream: &ShardedPpqStream) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(MAGIC);
    e.put_u32(VERSION);
    put_config(&mut e, stream.config());
    e.put_u32(stream.shards.len() as u32);
    for shard in &stream.shards {
        put_stream(&mut e, shard);
    }
    e.finish().to_vec()
}

/// Restore a sharded stream from [`sharded_to_bytes`] output and the
/// stream's per-shard summaries at the same point (as decoded from a
/// repository chain, without an index). The restored stream consumes
/// future slices bit-identically to the original.
pub fn sharded_from_bytes(
    bytes: &[u8],
    summaries: Vec<PpqSummary>,
) -> Result<ShardedPpqStream, DecodeError> {
    let mut d = Decoder::from_slice(bytes);
    if d.try_u32().ok_or(DecodeError::BadMagic)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = d
        .try_u32()
        .ok_or(DecodeError::Corrupt("truncated header"))?;
    if version != VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let config = get_config(&mut d)?;
    let n = d.try_u32().ok_or(DecodeError::Corrupt("shard count"))? as usize;
    if n == 0 || n != summaries.len() {
        return Err(DecodeError::Corrupt(
            "shard count disagrees with the summaries",
        ));
    }
    let mut shards = Vec::with_capacity(n);
    for summary in summaries {
        shards.push(get_stream(&mut d, &config, summary)?);
    }
    if d.remaining() != 0 {
        return Err(DecodeError::Corrupt("trailing bytes after the state"));
    }
    Ok(ShardedPpqStream {
        router: ShardRouter::new(n),
        shards,
        buckets: vec![Vec::new(); n],
    })
}

// ---- config ---------------------------------------------------------

fn put_kmeans(e: &mut Encoder, k: &KMeansConfig) {
    e.put_u64(k.max_iters as u64);
    e.put_f64(k.tol);
    e.put_u64(k.seed);
    e.put_u64(k.grow_step as u64);
    e.put_u64(k.max_clusters as u64);
}

fn get_kmeans(d: &mut Decoder) -> Result<KMeansConfig, DecodeError> {
    let err = DecodeError::Corrupt("truncated k-means config");
    Ok(KMeansConfig {
        max_iters: d.try_u64().ok_or(err)? as usize,
        tol: d.try_f64().ok_or(err)?,
        seed: d.try_u64().ok_or(err)?,
        grow_step: d.try_u64().ok_or(err)? as usize,
        max_clusters: d.try_u64().ok_or(err)? as usize,
    })
}

/// Encode the *complete* config — unlike the summary format, which only
/// keeps the decode-relevant subset, a resumed stream needs every knob.
fn put_config(e: &mut Encoder, c: &PpqConfig) {
    e.put_f64(c.eps1);
    e.put_f64(c.gs);
    e.put_u32(c.use_cqc as u32);
    e.put_u64(c.k as u64);
    e.put_u32(c.predict as u32);
    e.put_u32(match c.partition_mode {
        PartitionMode::Spatial => 0,
        PartitionMode::Autocorrelation => 1,
        PartitionMode::Single => 2,
    });
    e.put_f64(c.eps_p);
    e.put_u64(c.ar_window as u64);
    e.put_u32(match c.cold_start {
        ColdStart::Zero => 0,
        ColdStart::LastValue => 1,
    });
    match &c.budget {
        BuildBudget::ErrorBounded => e.put_u32(0),
        BuildBudget::PerStepBits(bits) => {
            e.put_u32(1);
            e.put_u32(*bits);
        }
        BuildBudget::PerStepWords(words) => {
            e.put_u32(2);
            e.put_u32(words.len() as u32);
            for &(t, w) in words {
                e.put_u32(t);
                e.put_u32(w);
            }
        }
    }
    put_kmeans(e, &c.kmeans);
    e.put_f64(c.tpi.pi.eps_s);
    e.put_f64(c.tpi.pi.gc);
    put_kmeans(e, &c.tpi.pi.kmeans);
    e.put_f64(c.tpi.eps_c);
    e.put_f64(c.tpi.eps_d);
    e.put_u32(c.build_index as u32);
}

fn get_config(d: &mut Decoder) -> Result<PpqConfig, DecodeError> {
    let err = DecodeError::Corrupt("truncated config");
    let eps1 = d.try_f64().ok_or(err)?;
    let gs = d.try_f64().ok_or(err)?;
    let use_cqc = d.try_u32().ok_or(err)? != 0;
    let k = d.try_u64().ok_or(err)? as usize;
    let predict = d.try_u32().ok_or(err)? != 0;
    let partition_mode = match d.try_u32().ok_or(err)? {
        0 => PartitionMode::Spatial,
        1 => PartitionMode::Autocorrelation,
        2 => PartitionMode::Single,
        _ => return Err(DecodeError::Corrupt("unknown partition mode")),
    };
    let eps_p = d.try_f64().ok_or(err)?;
    let ar_window = d.try_u64().ok_or(err)? as usize;
    let cold_start = match d.try_u32().ok_or(err)? {
        0 => ColdStart::Zero,
        1 => ColdStart::LastValue,
        _ => return Err(DecodeError::Corrupt("unknown cold-start mode")),
    };
    let budget = match d.try_u32().ok_or(err)? {
        0 => BuildBudget::ErrorBounded,
        1 => BuildBudget::PerStepBits(d.try_u32().ok_or(err)?),
        2 => {
            let n = d.try_u32().ok_or(err)? as usize;
            let mut words = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                words.push((d.try_u32().ok_or(err)?, d.try_u32().ok_or(err)?));
            }
            BuildBudget::PerStepWords(words)
        }
        _ => return Err(DecodeError::Corrupt("unknown budget mode")),
    };
    let kmeans = get_kmeans(d)?;
    let pi = PiConfig {
        eps_s: d.try_f64().ok_or(err)?,
        gc: d.try_f64().ok_or(err)?,
        kmeans: get_kmeans(d)?,
    };
    let tpi = TpiConfig {
        pi,
        eps_c: d.try_f64().ok_or(err)?,
        eps_d: d.try_f64().ok_or(err)?,
    };
    let build_index = d.try_u32().ok_or(err)? != 0;
    if !(eps1 > 0.0 && eps1.is_finite()) || k == 0 || k > 1024 {
        return Err(DecodeError::Corrupt("config out of range"));
    }
    Ok(PpqConfig {
        eps1,
        gs,
        use_cqc,
        k,
        predict,
        partition_mode,
        eps_p,
        ar_window,
        cold_start,
        budget,
        kmeans,
        tpi,
        build_index,
    })
}

// ---- per-stream state -----------------------------------------------

fn put_points(e: &mut Encoder, window: &History) {
    e.put_u32(window.len() as u32);
    for p in window.iter() {
        e.put_point(&p);
    }
}

/// Push a [`put_points`] list onto `window`, oldest first.
fn get_points(d: &mut Decoder, window: &mut History) -> Result<(), DecodeError> {
    let err = DecodeError::Corrupt("truncated point list");
    let n = d.try_u32().ok_or(err)? as usize;
    if n.saturating_mul(16) > d.remaining() {
        return Err(err);
    }
    for _ in 0..n {
        window.push(d.point());
    }
    Ok(())
}

fn put_stream(e: &mut Encoder, s: &PpqStream) {
    let mut active = s.active_prev.clone();
    active.sort_unstable();
    e.put_u32(active.len() as u32);
    for id in active {
        e.put_u32(id);
        put_points(e, &s.histories[id as usize]);
        put_points(e, &s.raw_windows[id as usize]);
    }

    // Which of these a stream has follows from its config.
    if let Some(p) = &s.partitioner {
        let (assign, next_key, step) = p.state();
        e.put_u32(assign.len() as u32);
        for (id, key) in assign {
            e.put_u32(id);
            e.put_u64(key);
        }
        e.put_u64(next_key);
        e.put_u64(step);
    }
    if let Some(q) = &s.incremental {
        e.put_u64(q.assigned());
    }

    let stats = &s.out.stats;
    e.put_u64(stats.merges as u64);
    e.put_u64(stats.repartitions as u64);
    e.put_u32(stats.codewords_per_step.len() as u32);
    for &(_, c) in &stats.codewords_per_step {
        e.put_u32(c);
    }
}

fn get_stream(
    d: &mut Decoder,
    config: &PpqConfig,
    summary: PpqSummary,
) -> Result<PpqStream, DecodeError> {
    let err = DecodeError::Corrupt("truncated stream state");
    if !summary_io::same_decode_config(&summary.config, config) {
        return Err(DecodeError::Corrupt(
            "summary config disagrees with the state's",
        ));
    }
    // `new` derives everything config-determined (template, partitioner
    // and quantizer shells, scratch buffers); the decode below fills in
    // the evolving state.
    let mut s = PpqStream::new(config.clone());
    // The index is rebuilt from the records when first needed.
    s.tpi = OnceLock::new();
    let (min_t, steps) = (summary.min_t, summary.coeffs.len());
    // `summary_io` has checked that `min_t + steps` fits a `u32`.
    s.next_t = (steps > 0).then(|| min_t + steps as u32);
    if let Some(last) = summary.trajs.len().checked_sub(1) {
        s.ensure_traj(last as TrajId);
    }
    for (idx, record) in summary.trajs.iter().enumerate() {
        s.ages[idx] = record.codes.len();
        s.ended[idx] = !record.codes.is_empty();
    }

    let n_active = d.try_u32().ok_or(err)? as usize;
    let mut prev: Option<TrajId> = None;
    for _ in 0..n_active {
        let id = d.try_u32().ok_or(err)?;
        let idx = id as usize;
        // Strictly ascending ids of trajectories that have points.
        if s.ages.get(idx).is_none_or(|&age| age == 0) || prev.is_some_and(|p| p >= id) {
            return Err(DecodeError::Corrupt("active trajectory"));
        }
        prev = Some(id);
        s.active_prev.push(id);
        s.ended[idx] = false;
        get_points(d, &mut s.histories[idx])?;
        get_points(d, &mut s.raw_windows[idx])?;
        // Only AR features read raw windows; other modes keep them empty.
        if config.partition_mode != PartitionMode::Autocorrelation {
            s.raw_windows[idx].clear();
        }
    }

    if let Some(p) = &mut s.partitioner {
        let n_assign = d.try_u32().ok_or(err)? as usize;
        if n_assign.saturating_mul(12) > d.remaining() {
            return Err(err);
        }
        let assign = (0..n_assign).map(|_| (d.u32(), d.u64())).collect();
        let next_key = d.try_u64().ok_or(err)?;
        let step = d.try_u64().ok_or(err)?;
        p.restore(assign, next_key, step);
    }
    match (&mut s.incremental, summary.codebook) {
        (Some(q), CodebookStore::Global(cb)) => {
            let assigned = d.try_u64().ok_or(err)?;
            let words = cb.words().to_vec();
            *q = IncrementalQuantizer::restore(config.eps1, config.kmeans.clone(), words, assigned);
        }
        (None, CodebookStore::PerStep(books)) => s.out.per_step_books = books,
        _ => {
            return Err(DecodeError::Corrupt(
                "codebook kind disagrees with the config",
            ))
        }
    }

    let stats = &mut s.out.stats;
    stats.merges = d.try_u64().ok_or(err)? as usize;
    stats.repartitions = d.try_u64().ok_or(err)? as usize;
    if d.try_u32().ok_or(err)? as usize != steps || steps.saturating_mul(4) > d.remaining() {
        return Err(DecodeError::Corrupt("codewords per step"));
    }
    stats.codewords_per_step = (min_t..).take(steps).map(|t| (t, d.u32())).collect();
    stats.partitions_per_step = (summary.coeffs.iter().zip(min_t..))
        .map(|(row, t)| (t, row.len() as u32))
        .collect();

    s.out.min_t = s.next_t.map(|_| min_t);
    s.out.starts = summary.starts;
    s.out.trajs = summary.trajs;
    s.out.coeffs = summary.coeffs;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use ppq_traj::synth::{porto_like, PortoConfig};
    use ppq_traj::Dataset;

    fn dataset() -> Dataset {
        porto_like(&PortoConfig {
            trajectories: 30,
            mean_len: 40,
            min_len: 20,
            start_spread: 8,
            seed: 99,
        })
    }

    /// Each shard's summary as a repository chain hands it back: through
    /// its bytes, decoded without an index.
    fn summaries(stream: &ShardedPpqStream) -> Vec<PpqSummary> {
        let decode = |s: &PpqStream| {
            summary_io::from_bytes(&summary_io::to_bytes(&s.snapshot()), false).unwrap()
        };
        stream.shards.iter().map(decode).collect()
    }

    fn restore(stream: &ShardedPpqStream) -> ShardedPpqStream {
        sharded_from_bytes(&sharded_to_bytes(stream), summaries(stream)).unwrap()
    }

    /// Core invariant: save the state mid-stream, restore, keep pushing —
    /// the summary bytes equal an uninterrupted run's, for every variant
    /// and both sharded and unsharded.
    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let data = dataset();
        let slices: Vec<_> = data.time_slices().collect();
        let cut = slices.len() / 2;
        for v in Variant::ALL {
            for shards in [1usize, 3] {
                let cfg = PpqConfig::variant(v, 0.1);
                let mut golden = ShardedPpqStream::new(cfg.clone(), shards);
                let mut live = ShardedPpqStream::new(cfg.clone(), shards);
                for s in &slices[..cut] {
                    golden.push_slice(s.t, s.points);
                    live.push_slice(s.t, s.points);
                }
                let mut restored = restore(&live);
                drop(live);
                for s in &slices[cut..] {
                    golden.push_slice(s.t, s.points);
                    restored.push_slice(s.t, s.points);
                }
                let a = golden.finish();
                let b = restored.finish();
                for (sa, sb) in a.shards().iter().zip(b.shards()) {
                    assert_eq!(
                        summary_io::to_bytes(sa),
                        summary_io::to_bytes(sb),
                        "{} shards={shards}: resumed summary diverged",
                        v.name()
                    );
                }
            }
        }
    }

    /// encode → decode → encode is stable (canonical form).
    #[test]
    fn roundtrip_is_canonical() {
        let data = dataset();
        let cfg = PpqConfig::variant(Variant::PpqA, 0.1);
        let mut stream = ShardedPpqStream::new(cfg, 2);
        for s in data.time_slices() {
            stream.push_slice(s.t, s.points);
        }
        assert_eq!(
            sharded_to_bytes(&stream),
            sharded_to_bytes(&restore(&stream))
        );
    }

    /// The index of a stream that took one slice in descending id order,
    /// was saved, restored and went on, equals the index of the stream
    /// that never stopped: the streamed index takes each slice by
    /// ascending id, which is the order the rebuild from the records
    /// gives it.
    #[test]
    fn restored_index_equals_the_uncrashed_one_after_an_unsorted_slice() {
        let data = dataset();
        let slices: Vec<_> = data.time_slices().collect();
        // Save right after the widest slice, which goes in reversed.
        let widest = (0..slices.len())
            .max_by_key(|&i| slices[i].points.len())
            .unwrap();
        let cut = widest + 1;
        assert!(cut < slices.len() && slices[widest].points.len() > 2);
        let mut cfg = PpqConfig::variant(Variant::PpqS, 0.1);
        // Regions small enough that a slice spans several, so the order
        // `bounded_kmeans` sees a slice in decides them.
        cfg.tpi.pi.eps_s = 0.01;
        let mut golden = ShardedPpqStream::new(cfg.clone(), 2);
        let mut live = ShardedPpqStream::new(cfg, 2);
        for (i, s) in slices[..cut].iter().enumerate() {
            let mut points = s.points.to_vec();
            if i == widest {
                points.reverse();
            }
            golden.push_slice(s.t, &points);
            live.push_slice(s.t, &points);
        }
        let mut restored = restore(&live);
        for s in &slices[cut..] {
            golden.push_slice(s.t, s.points);
            restored.push_slice(s.t, s.points);
        }
        let (want, got) = (golden.snapshot(), restored.snapshot());
        for (w, g) in want.shards().iter().zip(got.shards()) {
            assert_eq!(summary_io::to_bytes(w), summary_io::to_bytes(g));
            let (w, g) = (w.tpi().unwrap(), g.tpi().unwrap());
            assert_eq!(w.stats(), g.stats());
            assert_eq!(w.periods().len(), g.periods().len());
            for (pw, pg) in w.periods().iter().zip(g.periods()) {
                assert_eq!((pw.t_start, pw.t_end), (pg.t_start, pg.t_end));
                assert_eq!(pw.pi.export_blocks(), pg.pi.export_blocks());
            }
        }
    }

    /// A restore does not build the index; the first snapshot rebuilds it
    /// from the trajectory records into the restored stream itself — once
    /// — so the next snapshot shares its sealed periods instead of
    /// rebuilding. Slices pushed after the restore reach it through the
    /// records too.
    #[test]
    fn restored_stream_rebuilds_its_index_once() {
        let data = dataset();
        let slices: Vec<_> = data.time_slices().collect();
        let cut = slices.len() / 2;
        let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
        let mut golden = ShardedPpqStream::new(cfg, 2);
        for s in &slices[..cut] {
            golden.push_slice(s.t, s.points);
        }
        let mut restored = restore(&golden);
        for s in &slices[cut..] {
            golden.push_slice(s.t, s.points);
            restored.push_slice(s.t, s.points);
        }
        assert!(restored.shards.iter().all(|s| s.tpi.get().is_none()));
        let (first, second, want) = (restored.snapshot(), restored.snapshot(), golden.snapshot());
        for ((a, b), w) in first
            .shards()
            .iter()
            .zip(second.shards())
            .zip(want.shards())
        {
            let (a, b, w) = (a.tpi().unwrap(), b.tpi().unwrap(), w.tpi().unwrap());
            assert_eq!(a.stats(), w.stats());
            assert_eq!(a.size_bytes(), w.size_bytes());
            let sealed = a.periods().len() - 1;
            assert!(sealed > 0, "fixture never sealed a period");
            for (pa, pb) in a.periods()[..sealed].iter().zip(b.periods()) {
                assert!(
                    std::sync::Arc::ptr_eq(pa, pb),
                    "second snapshot rebuilt again"
                );
            }
            for (pa, pw) in a.periods().iter().zip(w.periods()) {
                assert_eq!(pa.pi.export_blocks(), pw.pi.export_blocks());
            }
        }
    }

    #[test]
    fn empty_stream_roundtrips() {
        let stream = ShardedPpqStream::new(PpqConfig::default(), 2);
        let restored = restore(&stream);
        assert_eq!(restored.num_shards(), 2);
        assert_eq!(restored.next_t(), None);
    }

    fn config_bytes(cfg: &PpqConfig) -> Vec<u8> {
        let mut e = Encoder::new();
        put_config(&mut e, cfg);
        e.finish().to_vec()
    }

    /// Truncations anywhere, and state that disagrees with the summaries
    /// handed in — their config, their count, their trajectories — all
    /// give a typed error, never a panic.
    #[test]
    fn damage_is_a_typed_error() {
        let data = dataset();
        let slices: Vec<_> = data.time_slices().collect();
        let cfg = PpqConfig::variant(Variant::PpqA, 0.1);
        let mut early = ShardedPpqStream::new(cfg.clone(), 1);
        for s in &slices[..5] {
            early.push_slice(s.t, s.points);
        }
        let mut stream = early.clone();
        for s in &slices[5..30] {
            stream.push_slice(s.t, s.points);
        }
        let bytes = sharded_to_bytes(&stream);
        assert!(sharded_from_bytes(&[], summaries(&stream)).is_err());

        let head = 8 + config_bytes(&cfg).len() + 4;
        assert!(bytes.len() > head + 100, "fixture too small");
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    sharded_from_bytes(&bytes[..cut], summaries(&stream)),
                    Err(DecodeError::Corrupt(_) | DecodeError::BadMagic)
                ),
                "truncation at {cut} must be a typed error"
            );
        }

        // A state config that disagrees with the summaries.
        let other = PpqConfig {
            eps1: cfg.eps1 * 2.0,
            ..cfg.clone()
        };
        let spliced = [&bytes[..8], &config_bytes(&other)[..], &bytes[head - 4..]].concat();
        assert_eq!(
            sharded_from_bytes(&spliced, summaries(&stream)).err(),
            Some(DecodeError::Corrupt(
                "summary config disagrees with the state's"
            ))
        );

        // One summary too many, or none.
        let two = [summaries(&stream), summaries(&stream)].concat();
        assert!(sharded_from_bytes(&bytes, two).is_err());
        assert!(sharded_from_bytes(&bytes, Vec::new()).is_err());

        // Summaries from an earlier point, whose records lack trajectories
        // the state holds active.
        assert!(sharded_from_bytes(&bytes, summaries(&early)).is_err());

        // Another version.
        let mut old = bytes.clone();
        old[4..8].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            sharded_from_bytes(&old, summaries(&stream)).err(),
            Some(DecodeError::UnsupportedVersion(2))
        );
    }

    /// The state has no per-point term: it grows with the active
    /// trajectories (their windows), the steps (one codeword count each)
    /// and, through the partitioner map, at most the trajectories.
    #[test]
    fn state_is_only_the_resumable_part() {
        let data = dataset();
        let slices: Vec<_> = data.time_slices().collect();
        let widest = (0..slices.len())
            .max_by_key(|&i| slices[i].points.len())
            .unwrap();
        for v in [Variant::PpqA, Variant::PpqS, Variant::QTrajectory] {
            let cfg = PpqConfig::variant(v, 0.1);
            let shards = 3;
            let mut stream = ShardedPpqStream::new(cfg.clone(), shards);
            for (i, s) in slices.iter().enumerate() {
                stream.push_slice(s.t, s.points);
                if i != widest && i + 1 != slices.len() {
                    continue;
                }
                let active: usize = stream.shards.iter().map(|s| s.active_prev.len()).sum();
                let window = 16 * (cfg.k + cfg.ar_window) + 4 + 4 + 4;
                let bound = 8
                    + config_bytes(&cfg).len()
                    + 4
                    + 64 * shards
                    + 12 * data.trajectories().len()
                    + window * active
                    + 4 * stream.timesteps() * shards;
                let got = sharded_to_bytes(&stream).len();
                assert!(
                    got <= bound,
                    "{} after {} slices: {got} B > {bound} B",
                    v.name(),
                    i + 1
                );
            }
        }
    }
}
