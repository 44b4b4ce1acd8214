//! Mid-flight pipeline checkpoints: serialize a live [`ShardedPpqStream`]
//! and restore it so that the restored stream's every future output is
//! bit-identical to the original's.
//!
//! This is deliberately *not* [`crate::summary_io`]: a summary is the
//! queryable product and drops everything the stream only needs to keep
//! ingesting — the reconstruction histories and raw windows, the
//! partitioner's trajectory→partition map and step counter, the
//! quantizer's grid index and assignment counter, the full (not
//! decode-relevant) config, the per-trajectory end flags. A live-ingest
//! layer that folds its WAL into a delta generation writes one of these
//! checkpoints alongside, so recovery can resume the pipeline exactly
//! where the fold left it and replay only the WAL tail.
//!
//! Format (all little-endian, via [`ppq_storage::codec`]):
//!
//! ```text
//! magic "PPQK" | version u32 | full PpqConfig | shard count u32 |
//! per shard: stream state (per-trajectory arrays, per-step outputs,
//!            partitioner / quantizer state, build counters)
//! ```
//!
//! The encoding is canonical (maps are sorted before writing), so equal
//! states produce equal bytes. Integrity is the *caller's* job: the
//! checkpoint file format (`docs/FORMAT.md` §11) seals these bytes under
//! a CRC-32; this module assumes untampered input and reports structural
//! mismatches as [`DecodeError::Corrupt`].

use crate::config::{BuildBudget, ColdStart, PartitionMode, PpqConfig};
use crate::partition::Partitioner;
use crate::pipeline::{PpqStream, SlicePoints};
use crate::shard::{ShardRouter, ShardedPpqStream};
use crate::summary::TrajRecord;
use crate::summary_io::DecodeError;
use ppq_cqc::CqcCode;
use ppq_geo::Point;
use ppq_predict::{History, Predictor};
use ppq_quantize::kmeans::KMeansConfig;
use ppq_quantize::IncrementalQuantizer;
use ppq_storage::codec::{Decoder, Encoder};
use ppq_tpi::{PiConfig, TpiConfig};
use ppq_traj::TrajId;
use std::sync::Arc;

const MAGIC: u32 = u32::from_le_bytes(*b"PPQK");
const VERSION: u32 = 1;

/// Serialize a live sharded stream. The inverse of
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

/// Restore a sharded stream from [`sharded_to_bytes`] output. The
/// restored stream consumes future slices bit-identically to the
/// original.
pub fn sharded_from_bytes(bytes: &[u8]) -> Result<ShardedPpqStream, DecodeError> {
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
    if n == 0 || n > u32::MAX as usize {
        return Err(DecodeError::Corrupt("invalid shard count"));
    }
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        shards.push(get_stream(&mut d, &config)?);
    }
    if d.remaining() != 0 {
        return Err(DecodeError::Corrupt("trailing bytes after checkpoint"));
    }
    Ok(ShardedPpqStream {
        router: ShardRouter::new(n),
        shards,
        buckets: vec![Vec::new(); n],
    })
}

/// Serialize a single unsharded stream (test and tooling convenience —
/// the on-disk checkpoint always goes through [`sharded_to_bytes`]).
pub fn stream_to_bytes(stream: &PpqStream) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(MAGIC);
    e.put_u32(VERSION);
    put_config(&mut e, stream.config());
    e.put_u32(1);
    put_stream(&mut e, stream);
    e.finish().to_vec()
}

/// Restore a single stream from [`stream_to_bytes`] output.
pub fn stream_from_bytes(bytes: &[u8]) -> Result<PpqStream, DecodeError> {
    let mut sharded = sharded_from_bytes(bytes)?;
    if sharded.shards.len() != 1 {
        return Err(DecodeError::Corrupt("expected a single-shard checkpoint"));
    }
    Ok(sharded.shards.pop().expect("checked above"))
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

fn put_points(e: &mut Encoder, pts: &[Point]) {
    e.put_u32(pts.len() as u32);
    for p in pts {
        e.put_point(p);
    }
}

fn get_points(d: &mut Decoder) -> Result<Vec<Point>, DecodeError> {
    let err = DecodeError::Corrupt("truncated point list");
    let n = d.try_u32().ok_or(err)? as usize;
    if n * 16 > d.remaining() {
        return Err(err);
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(d.try_point().ok_or(err)?);
    }
    Ok(out)
}

fn put_u32s(e: &mut Encoder, xs: &[u32]) {
    e.put_u32(xs.len() as u32);
    for &x in xs {
        e.put_u32(x);
    }
}

fn get_u32s(d: &mut Decoder) -> Result<Vec<u32>, DecodeError> {
    let err = DecodeError::Corrupt("truncated u32 list");
    let n = d.try_u32().ok_or(err)? as usize;
    if n * 4 > d.remaining() {
        return Err(err);
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(d.try_u32().ok_or(err)?);
    }
    Ok(out)
}

fn put_opt_u32(e: &mut Encoder, v: Option<u32>) {
    match v {
        Some(x) => {
            e.put_u32(1);
            e.put_u32(x);
        }
        None => e.put_u32(0),
    }
}

fn get_opt_u32(d: &mut Decoder) -> Result<Option<u32>, DecodeError> {
    let err = DecodeError::Corrupt("truncated option");
    match d.try_u32().ok_or(err)? {
        0 => Ok(None),
        1 => Ok(Some(d.try_u32().ok_or(err)?)),
        _ => Err(DecodeError::Corrupt("invalid option tag")),
    }
}

fn put_stream(e: &mut Encoder, s: &PpqStream) {
    let out = &s.out;
    put_opt_u32(e, out.min_t);
    put_opt_u32(e, s.next_t);

    let n = s.histories.len();
    e.put_u32(n as u32);
    for i in 0..n {
        let hist: Vec<Point> = s.histories[i].iter().collect();
        put_points(e, &hist);
        let raw: Vec<Point> = s.raw_windows[i].iter().collect();
        put_points(e, &raw);
        e.put_u64(s.ages[i] as u64);
        e.put_u32(out.starts[i]);
        e.put_u32(s.ended[i] as u32);
        let traj = &out.trajs[i];
        put_u32s(e, &traj.codes);
        put_u32s(e, &traj.labels);
        e.put_u32(traj.cqc_codes.len() as u32);
        for code in &traj.cqc_codes {
            e.put_u64(code.raw_bits());
            e.put_u32(code.depth() as u32);
        }
        put_points(e, &traj.recon);
    }

    e.put_u32(out.coeffs.len() as u32);
    for step in &out.coeffs {
        e.put_u32(step.len() as u32);
        for p in step.iter() {
            e.put_u32(p.coeffs().len() as u32);
            for &c in p.coeffs() {
                e.put_f64(c);
            }
        }
    }

    e.put_u32(out.per_step_books.len() as u32);
    for book in &out.per_step_books {
        put_points(e, book);
    }

    match &s.partitioner {
        None => e.put_u32(0),
        Some(p) => {
            e.put_u32(1);
            let (assign, next_key, step) = p.state();
            e.put_u32(assign.len() as u32);
            for (id, key) in assign {
                e.put_u32(id);
                e.put_u64(key);
            }
            e.put_u64(next_key);
            e.put_u64(step);
        }
    }

    match &s.incremental {
        None => e.put_u32(0),
        Some(q) => {
            e.put_u32(1);
            put_points(e, q.codebook().words());
            e.put_u64(q.assigned());
        }
    }

    e.put_u32(s.tpi_slices.len() as u32);
    for (t, pts) in &s.tpi_slices {
        e.put_u32(*t);
        e.put_u32(pts.len() as u32);
        for (id, p) in pts.iter() {
            e.put_u32(*id);
            e.put_point(p);
        }
    }

    let mut active: Vec<TrajId> = s.active_prev.iter().copied().collect();
    active.sort_unstable();
    put_u32s(e, &active);

    e.put_u64(out.stats.merges as u64);
    e.put_u64(out.stats.repartitions as u64);
    e.put_u32(out.stats.partitions_per_step.len() as u32);
    for &(t, q) in &out.stats.partitions_per_step {
        e.put_u32(t);
        e.put_u32(q);
    }
    e.put_u32(out.stats.codewords_per_step.len() as u32);
    for &(t, c) in &out.stats.codewords_per_step {
        e.put_u32(t);
        e.put_u32(c);
    }
}

fn get_stream(d: &mut Decoder, config: &PpqConfig) -> Result<PpqStream, DecodeError> {
    let err = DecodeError::Corrupt("truncated stream state");
    // `new` derives everything config-determined (template, shard
    // dimensionality, scratch buffers); the decode below overwrites the
    // evolving state.
    let mut s = PpqStream::new(config.clone());
    // The index is rebuilt from the decoded slices when first needed.
    s.tpi = std::sync::OnceLock::new();
    s.out.min_t = get_opt_u32(d)?;
    s.next_t = get_opt_u32(d)?;

    let n = d.try_u32().ok_or(err)? as usize;
    let hist_cap = config.k.max(1);
    let raw_cap = config.ar_window.max(config.k + 1);
    for _ in 0..n {
        let mut hist = History::new(hist_cap);
        for p in get_points(d)? {
            hist.push(p);
        }
        s.histories.push(hist);
        let mut raw = History::new(raw_cap);
        for p in get_points(d)? {
            raw.push(p);
        }
        s.raw_windows.push(raw);
        s.ages.push(d.try_u64().ok_or(err)? as usize);
        s.out.starts.push(d.try_u32().ok_or(err)?);
        s.ended.push(d.try_u32().ok_or(err)? != 0);
        let codes = get_u32s(d)?;
        let labels = get_u32s(d)?;
        let n_cqc = d.try_u32().ok_or(err)? as usize;
        if n_cqc * 12 > d.remaining() {
            return Err(err);
        }
        let mut cqc = Vec::with_capacity(n_cqc);
        for _ in 0..n_cqc {
            let bits = d.try_u64().ok_or(err)?;
            let depth = d.try_u32().ok_or(err)?;
            if depth > u8::MAX as u32 {
                return Err(DecodeError::Corrupt("CQC depth out of range"));
            }
            cqc.push(CqcCode::from_raw(bits, depth as u8));
        }
        let recon = get_points(d)?;
        if codes.len() != recon.len() || codes.len() != labels.len() {
            return Err(DecodeError::Corrupt("per-trajectory arrays disagree"));
        }
        s.out.trajs.push(Arc::new(TrajRecord {
            codes,
            labels,
            cqc_codes: cqc,
            recon,
        }));
    }

    let steps = d.try_u32().ok_or(err)? as usize;
    for _ in 0..steps {
        let q = d.try_u32().ok_or(err)? as usize;
        if q * 4 > d.remaining() {
            return Err(err);
        }
        let mut step = Vec::with_capacity(q);
        for _ in 0..q {
            let order = d.try_u32().ok_or(err)? as usize;
            if order * 8 > d.remaining() {
                return Err(err);
            }
            let mut coeffs = Vec::with_capacity(order);
            for _ in 0..order {
                coeffs.push(d.try_f64().ok_or(err)?);
            }
            step.push(Predictor::from_coeffs(coeffs));
        }
        s.out.coeffs.push(step.into());
    }

    let books = d.try_u32().ok_or(err)? as usize;
    for _ in 0..books {
        s.out.per_step_books.push(get_points(d)?);
    }

    match d.try_u32().ok_or(err)? {
        0 => {
            if s.partitioner.is_some() {
                return Err(DecodeError::Corrupt("missing partitioner state"));
            }
        }
        1 => {
            if s.partitioner.is_none() {
                return Err(DecodeError::Corrupt("unexpected partitioner state"));
            }
            let n_assign = d.try_u32().ok_or(err)? as usize;
            if n_assign * 12 > d.remaining() {
                return Err(err);
            }
            let mut assign = Vec::with_capacity(n_assign);
            for _ in 0..n_assign {
                let id = d.try_u32().ok_or(err)?;
                let key = d.try_u64().ok_or(err)?;
                assign.push((id, key));
            }
            let next_key = d.try_u64().ok_or(err)?;
            let step = d.try_u64().ok_or(err)?;
            let d_feat = match config.partition_mode {
                PartitionMode::Spatial => 2,
                PartitionMode::Autocorrelation => config.k,
                PartitionMode::Single => unreachable!("partitioner checked above"),
            };
            s.partitioner = Some(Partitioner::restore(
                config.effective_eps_p(),
                d_feat,
                config.kmeans.grow_step,
                config.kmeans.max_iters,
                config.kmeans.seed,
                assign,
                next_key,
                step,
            ));
        }
        _ => return Err(DecodeError::Corrupt("invalid partitioner tag")),
    }

    match d.try_u32().ok_or(err)? {
        0 => {
            if s.incremental.is_some() {
                return Err(DecodeError::Corrupt("missing quantizer state"));
            }
        }
        1 => {
            if s.incremental.is_none() {
                return Err(DecodeError::Corrupt("unexpected quantizer state"));
            }
            let words = get_points(d)?;
            let assigned = d.try_u64().ok_or(err)?;
            s.incremental = Some(IncrementalQuantizer::restore(
                config.eps1,
                config.kmeans.clone(),
                words,
                assigned,
            ));
        }
        _ => return Err(DecodeError::Corrupt("invalid quantizer tag")),
    }

    let n_slices = d.try_u32().ok_or(err)? as usize;
    for _ in 0..n_slices {
        let t = d.try_u32().ok_or(err)?;
        let n_pts = d.try_u32().ok_or(err)? as usize;
        if n_pts * 20 > d.remaining() {
            return Err(err);
        }
        // The bytes are there (checked above): decoded straight into the
        // shared slice, with no intermediate `Vec` to copy from.
        let pts: SlicePoints = (0..n_pts).map(|_| (d.u32(), d.point())).collect();
        // The index replays these through `Tpi::push_slice`, which takes
        // strictly ascending timesteps.
        if s.tpi_slices.last().is_some_and(|(prev, _)| *prev >= t) {
            return Err(DecodeError::Corrupt("index slices out of order"));
        }
        s.tpi_slices.push((t, pts));
    }

    s.active_prev = get_u32s(d)?.into_iter().collect();

    s.out.stats.merges = d.try_u64().ok_or(err)? as usize;
    s.out.stats.repartitions = d.try_u64().ok_or(err)? as usize;
    let n_pps = d.try_u32().ok_or(err)? as usize;
    if n_pps * 8 > d.remaining() {
        return Err(err);
    }
    for _ in 0..n_pps {
        let t = d.try_u32().ok_or(err)?;
        let q = d.try_u32().ok_or(err)?;
        s.out.stats.partitions_per_step.push((t, q));
    }
    let n_cps = d.try_u32().ok_or(err)? as usize;
    if n_cps * 8 > d.remaining() {
        return Err(err);
    }
    for _ in 0..n_cps {
        let t = d.try_u32().ok_or(err)?;
        let c = d.try_u32().ok_or(err)?;
        s.out.stats.codewords_per_step.push((t, c));
    }

    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::summary_io;
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

    /// Core invariant: checkpoint mid-stream, restore, keep pushing — the
    /// summary bytes equal an uninterrupted run's, for every variant and
    /// both sharded and unsharded.
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
                let bytes = sharded_to_bytes(&live);
                drop(live);
                let mut restored = sharded_from_bytes(&bytes).unwrap();
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

    /// A checkpoint of a closed prefix also equals a fresh roundtrip:
    /// encode → decode → encode is stable (canonical form).
    #[test]
    fn roundtrip_is_canonical() {
        let data = dataset();
        let cfg = PpqConfig::variant(Variant::PpqA, 0.1);
        let mut stream = ShardedPpqStream::new(cfg, 2);
        for s in data.time_slices() {
            stream.push_slice(s.t, s.points);
        }
        let once = sharded_to_bytes(&stream);
        let twice = sharded_to_bytes(&sharded_from_bytes(&once).unwrap());
        assert_eq!(once, twice);
    }

    /// A restore does not build the index; the first snapshot replays the
    /// checkpointed slices into the restored stream itself — once — so
    /// the next snapshot shares its sealed periods instead of replaying.
    #[test]
    fn restored_stream_replays_its_index_once() {
        let data = dataset();
        let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
        let mut golden = ShardedPpqStream::new(cfg, 2);
        for s in data.time_slices() {
            golden.push_slice(s.t, s.points);
        }
        let restored = sharded_from_bytes(&sharded_to_bytes(&golden)).unwrap();
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
                    "second snapshot replayed again"
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
        let restored = sharded_from_bytes(&sharded_to_bytes(&stream)).unwrap();
        assert_eq!(restored.num_shards(), 2);
        assert_eq!(restored.next_t(), None);
    }

    #[test]
    fn truncation_is_typed_error() {
        let data = dataset();
        let mut stream = ShardedPpqStream::new(PpqConfig::default(), 1);
        for s in data.time_slices().take(10) {
            stream.push_slice(s.t, s.points);
        }
        let bytes = sharded_to_bytes(&stream);
        for cut in [0, 4, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                sharded_from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        assert!(sharded_from_bytes(&[]).is_err());
    }

    #[test]
    fn single_stream_roundtrip() {
        let data = dataset();
        let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
        let slices: Vec<_> = data.time_slices().collect();
        let cut = slices.len() / 3;
        let mut golden = PpqStream::new(cfg.clone());
        let mut live = PpqStream::new(cfg);
        for s in &slices[..cut] {
            golden.push_slice(s.t, s.points);
            live.push_slice(s.t, s.points);
        }
        let mut restored = stream_from_bytes(&stream_to_bytes(&live)).unwrap();
        for s in &slices[cut..] {
            golden.push_slice(s.t, s.points);
            restored.push_slice(s.t, s.points);
        }
        assert_eq!(
            summary_io::to_bytes(&golden.finish()),
            summary_io::to_bytes(&restored.finish())
        );
    }
}
