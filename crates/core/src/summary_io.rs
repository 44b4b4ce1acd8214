//! Summary serialization.
//!
//! The paper's summary is `({P_j[t]}, C, {b_i^t}, CQC)` (§5); this module
//! turns a [`PpqSummary`] into bytes and back. The format mirrors the
//! size-accounting model of [`crate::summary::SummaryBreakdown`]: codeword
//! indices are bit-packed at `ceil(log2 |C|)` bits, CQC codes at
//! `2·depth` bits, coefficients at f32, partition labels run-length
//! encoded — so the serialized size is an *executable check* on the
//! breakdown numbers the compression-ratio experiments report (see the
//! `serialized_size_close_to_breakdown` test).
//!
//! The TPI and the materialized reconstructions are not serialized: the
//! TPI is an index (rebuildable from the reconstructed stream, reported
//! separately in the paper, Tables 7–9) and the reconstructions are
//! derived by replaying the summary on load.

use crate::config::{BuildBudget, ColdStart, PartitionMode, PpqConfig};
use crate::summary::{BuildStats, CodebookStore, PpqSummary, TrajRecord};
use ppq_cqc::{CqcCode, CqcTemplate};
use ppq_geo::Point;
use ppq_predict::Predictor;
use ppq_quantize::Codebook;
use ppq_sindex::bits::BitVec;
use ppq_storage::codec::{Decoder, Encoder};
use std::sync::Arc;

const MAGIC: u32 = 0x5050_5153; // "PPQS"
const VERSION: u32 = 1;

const DELTA_MAGIC: u32 = 0x5050_5164; // "PPQd"
const DELTA_VERSION: u32 = 1;

/// Errors from [`from_bytes`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    BadMagic,
    UnsupportedVersion(u32),
    Corrupt(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a PPQ summary (bad magic)"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::Corrupt(what) => write!(f, "corrupt summary: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serialize a summary to bytes.
pub fn to_bytes(s: &PpqSummary) -> Vec<u8> {
    let cfg = s.config();
    let mut e = Encoder::with_capacity(s.num_points() * 4 + 1024);
    e.put_u32(MAGIC);
    e.put_u32(VERSION);

    // --- Config (the decode-relevant subset). -----------------------
    e.put_f64(cfg.eps1);
    e.put_f64(cfg.gs);
    let mut flags = 0u32;
    if cfg.use_cqc {
        flags |= 1;
    }
    if cfg.predict {
        flags |= 2;
    }
    if cfg.cold_start == ColdStart::LastValue {
        flags |= 4;
    }
    flags |= match cfg.partition_mode {
        PartitionMode::Spatial => 0,
        PartitionMode::Autocorrelation => 8,
        PartitionMode::Single => 16,
    };
    e.put_u32(flags);
    e.put_u32(cfg.k as u32);
    e.put_u32(s.min_t);
    match &cfg.budget {
        BuildBudget::ErrorBounded => e.put_u32(0),
        BuildBudget::PerStepBits(b) => {
            e.put_u32(1);
            e.put_u32(*b);
        }
        BuildBudget::PerStepWords(v) => {
            e.put_u32(2);
            e.put_u32(v.len() as u32);
            for (t, w) in v {
                e.put_u32(*t);
                e.put_u32(*w);
            }
        }
    }

    // --- Codebook store. ---------------------------------------------
    match &s.codebook {
        CodebookStore::Global(cb) => {
            e.put_u32(0);
            e.put_u32(cb.len() as u32);
            for w in cb.words() {
                e.put_point(w);
            }
        }
        CodebookStore::PerStep(steps) => {
            e.put_u32(1);
            e.put_u32(steps.len() as u32);
            for step in steps {
                e.put_u32(step.len() as u32);
                for w in step {
                    e.put_point(w);
                }
            }
        }
    }
    let index_bits = s.codebook.index_bits();

    // --- Coefficients: per step, per partition, k × f32 (the pipeline
    // rounds fitted coefficients to f32 before use, so f32 is lossless).
    e.put_u32(s.coeffs.len() as u32);
    for step in &s.coeffs {
        e.put_u32(step.len() as u32);
        for pred in step.iter() {
            for &c in pred.coeffs() {
                e.put_f32(c as f32);
            }
        }
    }

    // --- Per-trajectory payloads. --------------------------------------
    let cqc_depth = s.template.as_ref().map(|t| t.depth()).unwrap_or(0);
    e.put_u32(s.trajs.len() as u32);
    for (traj, &start) in s.trajs.iter().zip(&s.starts) {
        let n = traj.codes.len() as u32;
        e.put_u32(start);
        e.put_u32(n);
        if n == 0 {
            continue;
        }
        put_packed_codes(&mut e, &traj.codes, index_bits);
        put_labels_rle(&mut e, &traj.labels);
        if cqc_depth > 0 {
            put_packed_cqc(&mut e, &traj.cqc_codes, cqc_depth);
        }
    }
    e.finish().to_vec()
}

/// Largest accepted prediction order `k`. The paper's configurations use
/// single-digit orders; anything beyond this bound in a serialized header
/// is corruption, and rejecting it keeps the decoder from allocating
/// attacker-controlled amounts of coefficient memory.
const MAX_K: usize = 1024;

/// Largest accepted CQC grid side. Bounds the `n × n` template tables a
/// corrupt `(ε₁, g_s)` pair could otherwise inflate without limit.
const MAX_CQC_GRID_SIDE: i64 = 1025;

/// Largest accepted total coefficient-row count across all timesteps.
/// The byte-anchored guard below is vacuous when `k == 0` (a zero-order
/// predictor row consumes no stream bytes), so this hard cap is what
/// bounds the decoder's allocation in that regime. Legitimate summaries
/// sit orders of magnitude below it (tens of partitions × thousands of
/// steps).
const MAX_TOTAL_PARTITIONS: usize = 1 << 22;

/// Largest accepted per-shard trajectory-array length (largest id + 1).
/// A delta may grow the arrays by ids that contributed no points to it —
/// ids are global, so a shard's arrays have a slot for every id below the
/// largest it has seen, and ids need not arrive in order — and such slots
/// occupy no delta bytes; this hard cap is what bounds that growth.
const MAX_TRAJECTORIES: usize = 1 << 22;

macro_rules! need {
    ($opt:expr, $what:literal) => {
        $opt.ok_or(DecodeError::Corrupt($what))?
    };
}

// --- Shared per-trajectory payload codecs. ---------------------------------
//
// The full-summary format (§4 of docs/FORMAT.md) and the delta format (§5)
// encode trajectory payloads identically; chain verification compares
// canonical serializations by CRC, so the two paths must stay
// byte-for-byte in sync — they share these helpers rather than trusting
// two copies to evolve together.

/// Codeword indices, bit-packed at `index_bits`, as a length-prefixed blob.
fn put_packed_codes(e: &mut Encoder, codes: &[u32], index_bits: u32) {
    let mut bits = BitVec::with_capacity(codes.len() * index_bits as usize);
    for &b in codes {
        bits.push(u64::from(b), index_bits);
    }
    e.put_bytes(&bits.to_bytes());
}

/// Unpack `n` codeword indices (no range validation — the caller checks
/// them against its codebook).
fn read_packed_codes(d: &mut Decoder, n: usize, index_bits: u32) -> Result<Vec<u32>, DecodeError> {
    let bits = read_packed(d, n, index_bits, "code bytes")?;
    let w = index_bits as usize;
    Ok((0..n).map(|i| bits.get(i * w, index_bits) as u32).collect())
}

/// A length-prefixed blob of `n` values at `width` bits: exactly
/// `ceil(n·width/8)` bytes, zero-padded (FORMAT §1).
fn read_packed(
    d: &mut Decoder,
    n: usize,
    width: u32,
    what: &'static str,
) -> Result<BitVec, DecodeError> {
    let corrupt = DecodeError::Corrupt(what);
    let bytes = d.try_bytes().ok_or(corrupt)?;
    let len = n.checked_mul(width as usize).ok_or(corrupt)?;
    BitVec::from_bytes(&bytes, len).map_err(|_| corrupt)
}

/// Partition labels, RLE: u16 run length (long runs split) + u16 label —
/// matching the breakdown's per-run cost model.
fn put_labels_rle(e: &mut Encoder, labels: &[u32]) {
    let mut runs: Vec<(u16, u16)> = Vec::new();
    for &l in labels {
        debug_assert!(l <= u16::MAX as u32, "partition label overflow");
        let l = l as u16;
        match runs.last_mut() {
            Some((len, label)) if *label == l && *len < u16::MAX => *len += 1,
            _ => runs.push((1, l)),
        }
    }
    e.put_u32(runs.len() as u32);
    for (len, label) in runs {
        e.put_u16(len);
        e.put_u16(label);
    }
}

/// Reassemble RLE labels; the runs must concatenate to exactly `n`.
fn read_labels_rle(d: &mut Decoder, n: usize) -> Result<Vec<u32>, DecodeError> {
    let runs = need!(d.try_u32(), "label runs") as usize;
    if runs.saturating_mul(4) > d.remaining() {
        return Err(DecodeError::Corrupt("label runs"));
    }
    let mut ls: Vec<u32> = Vec::with_capacity(n);
    for _ in 0..runs {
        let len = need!(d.try_u16(), "label run") as usize;
        let label = need!(d.try_u16(), "label run") as u32;
        if ls.len() + len > n {
            return Err(DecodeError::Corrupt("label RLE length"));
        }
        ls.extend(std::iter::repeat_n(label, len));
    }
    if ls.len() != n {
        return Err(DecodeError::Corrupt("label RLE length"));
    }
    Ok(ls)
}

/// CQC codes at `2·depth` bits each, as a length-prefixed blob.
fn put_packed_cqc(e: &mut Encoder, codes: &[CqcCode], cqc_depth: u8) {
    let width = 2 * cqc_depth as u32;
    let mut bits = BitVec::with_capacity(codes.len() * width as usize);
    for code in codes {
        bits.push(code.raw_bits(), width);
    }
    e.put_bytes(&bits.to_bytes());
}

/// Unpack `n` CQC codes of the given depth.
fn read_packed_cqc(d: &mut Decoder, n: usize, cqc_depth: u8) -> Result<Vec<CqcCode>, DecodeError> {
    let width = 2 * cqc_depth as u32;
    let bits = read_packed(d, n, width, "cqc bytes")?;
    Ok((0..n)
        .map(|i| CqcCode::from_raw(bits.get(i * width as usize, width), cqc_depth))
        .collect())
}

/// Deserialize a summary. The reconstruction cache is rebuilt by replay;
/// the TPI is rebuilt from the reconstructed stream when `build_index`
/// was requested (pass `rebuild_index = false` to skip).
///
/// Robust against untrusted input: every early-EOF, bad length, or
/// out-of-range reference (codeword index past the codebook, partition
/// label past the coefficient table, CQC parameters that would explode
/// the template) returns [`DecodeError::Corrupt`] instead of panicking —
/// the property tests in `tests/summary_io_corruption.rs` feed this
/// function random truncations and bit-flips of valid serializations.
pub fn from_bytes(bytes: &[u8], rebuild_index: bool) -> Result<PpqSummary, DecodeError> {
    let mut d = Decoder::from_slice(bytes);
    if d.remaining() < 8 || d.u32() != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = d.u32();
    if version != VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }

    let eps1 = need!(d.try_f64(), "eps1");
    let gs = need!(d.try_f64(), "gs");
    let flags = need!(d.try_u32(), "flags");
    let k = need!(d.try_u32(), "k") as usize;
    if k > MAX_K {
        return Err(DecodeError::Corrupt("k out of range"));
    }
    let min_t = need!(d.try_u32(), "min_t");
    let budget = match need!(d.try_u32(), "budget tag") {
        0 => BuildBudget::ErrorBounded,
        1 => BuildBudget::PerStepBits(need!(d.try_u32(), "budget bits")),
        2 => {
            let n = need!(d.try_u32(), "budget len") as usize;
            if n.saturating_mul(8) > d.remaining() {
                return Err(DecodeError::Corrupt("budget len"));
            }
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let t = need!(d.try_u32(), "budget entry");
                let w = need!(d.try_u32(), "budget entry");
                v.push((t, w));
            }
            BuildBudget::PerStepWords(v)
        }
        _ => return Err(DecodeError::Corrupt("budget tag")),
    };
    let use_cqc = flags & 1 != 0;
    if use_cqc {
        // CqcTemplate::new asserts on non-positive inputs and builds an
        // n × n table; reject headers that would panic or balloon it.
        if !(eps1.is_finite() && gs.is_finite() && eps1 > 0.0 && gs > 0.0)
            || CqcTemplate::grid_side(eps1, gs) > MAX_CQC_GRID_SIDE
        {
            return Err(DecodeError::Corrupt("cqc parameters"));
        }
    }
    let config = PpqConfig {
        eps1,
        gs,
        use_cqc,
        k,
        predict: flags & 2 != 0,
        partition_mode: match flags & 24 {
            0 => PartitionMode::Spatial,
            8 => PartitionMode::Autocorrelation,
            _ => PartitionMode::Single,
        },
        cold_start: if flags & 4 != 0 {
            ColdStart::LastValue
        } else {
            ColdStart::Zero
        },
        budget,
        ..PpqConfig::default()
    };

    // --- Codebook store. ------------------------------------------------
    let codebook = match need!(d.try_u32(), "codebook tag") {
        0 => {
            let n = need!(d.try_u32(), "codebook len") as usize;
            if n.saturating_mul(16) > d.remaining() {
                return Err(DecodeError::Corrupt("codebook len"));
            }
            let mut words = Vec::with_capacity(n);
            for _ in 0..n {
                words.push(need!(d.try_point(), "codebook word"));
            }
            CodebookStore::Global(Codebook::from_words(words))
        }
        1 => {
            let steps_n = need!(d.try_u32(), "codebook steps") as usize;
            if steps_n.saturating_mul(4) > d.remaining() {
                return Err(DecodeError::Corrupt("codebook steps"));
            }
            let mut steps = Vec::with_capacity(steps_n);
            for _ in 0..steps_n {
                let n = need!(d.try_u32(), "codebook step len") as usize;
                if n.saturating_mul(16) > d.remaining() {
                    return Err(DecodeError::Corrupt("codebook step len"));
                }
                let mut words = Vec::with_capacity(n);
                for _ in 0..n {
                    words.push(need!(d.try_point(), "codebook word"));
                }
                steps.push(words);
            }
            CodebookStore::PerStep(steps)
        }
        _ => return Err(DecodeError::Corrupt("codebook tag")),
    };
    let index_bits = codebook.index_bits();

    // --- Coefficients. ----------------------------------------------------
    let steps_n = need!(d.try_u32(), "coeff steps") as usize;
    // A stream's next timestep, `min_t + steps`, must fit a `u32`.
    if steps_n.saturating_mul(4) > d.remaining()
        || (min_t as usize).saturating_add(steps_n) > u32::MAX as usize
    {
        return Err(DecodeError::Corrupt("coeff steps"));
    }
    let mut coeffs: Vec<Arc<[Predictor]>> = Vec::with_capacity(steps_n);
    let mut total_partitions = 0usize;
    for _ in 0..steps_n {
        let q = need!(d.try_u32(), "coeff partitions") as usize;
        if q.saturating_mul(k.saturating_mul(4)) > d.remaining() {
            return Err(DecodeError::Corrupt("coeff partitions"));
        }
        total_partitions = total_partitions.saturating_add(q);
        if total_partitions > MAX_TOTAL_PARTITIONS {
            return Err(DecodeError::Corrupt("coeff partitions"));
        }
        let mut step = Vec::with_capacity(q);
        for _ in 0..q {
            let mut cs = Vec::with_capacity(k);
            for _ in 0..k {
                cs.push(need!(d.try_f32(), "coefficient") as f64);
            }
            step.push(Predictor::from_coeffs(cs));
        }
        coeffs.push(step.into());
    }

    // --- Trajectories. -----------------------------------------------------
    let template = use_cqc.then(|| CqcTemplate::new(eps1, gs));
    let cqc_depth = template.as_ref().map(|t| t.depth()).unwrap_or(0);
    if 2 * cqc_depth as u32 > 32 {
        // Codes are at most 32 bits wide in the format, and
        // `CqcCode::from_raw` panics past depth 31; the grid-side bound
        // above keeps legitimate templates far below this.
        return Err(DecodeError::Corrupt("cqc depth"));
    }
    let n_traj = need!(d.try_u32(), "trajectory count") as usize;
    if n_traj.saturating_mul(8) > d.remaining() {
        return Err(DecodeError::Corrupt("trajectory count"));
    }
    let mut starts = Vec::with_capacity(n_traj);
    let mut trajs = Vec::with_capacity(n_traj);
    for _ in 0..n_traj {
        let start = need!(d.try_u32(), "trajectory start");
        let n = need!(d.try_u32(), "trajectory len") as usize;
        starts.push(start);
        if n == 0 {
            trajs.push(Arc::default());
            continue;
        }
        // Every point references a coefficient row at `start - min_t + off`
        // — replay would index out of bounds otherwise.
        if start < min_t || (start - min_t) as usize + n > coeffs.len() {
            return Err(DecodeError::Corrupt("trajectory span"));
        }
        if let CodebookStore::PerStep(steps) = &codebook {
            if (start - min_t) as usize + n > steps.len() {
                return Err(DecodeError::Corrupt("trajectory span"));
            }
        }
        let traj_codes = read_packed_codes(&mut d, n, index_bits)?;
        // Codeword indices must resolve in the step's codebook.
        let t0 = (start - min_t) as usize;
        let valid = match &codebook {
            CodebookStore::Global(cb) => {
                let len = cb.len() as u32;
                traj_codes.iter().all(|&b| b < len)
            }
            CodebookStore::PerStep(steps) => traj_codes
                .iter()
                .enumerate()
                .all(|(off, &b)| (b as usize) < steps[t0 + off].len()),
        };
        if !valid {
            return Err(DecodeError::Corrupt("codeword index out of range"));
        }
        let ls = read_labels_rle(&mut d, n)?;
        // Labels must resolve in their step's coefficient row.
        if ls
            .iter()
            .enumerate()
            .any(|(off, &l)| l as usize >= coeffs[t0 + off].len())
        {
            return Err(DecodeError::Corrupt("partition label out of range"));
        }
        let cqc_codes = if cqc_depth > 0 {
            read_packed_cqc(&mut d, n, cqc_depth)?
        } else {
            Vec::new()
        };
        trajs.push(Arc::new(TrajRecord {
            codes: traj_codes,
            labels: ls,
            cqc_codes,
            recon: Vec::new(),
        }));
    }
    // The format has no trailing slack — `to_bytes` output is consumed
    // exactly. Leftover bytes mean a count field was corrupted downward
    // (structures silently dropped), which must surface as corruption.
    if d.remaining() != 0 {
        return Err(DecodeError::Corrupt("trailing bytes"));
    }

    // --- Rebuild the derived state. ---------------------------------------
    let mut summary = PpqSummary {
        config,
        codebook,
        coeffs,
        min_t,
        starts,
        trajs,
        template,
        tpi: None,
        stats: BuildStats::default(),
    };
    for id in 0..summary.trajs.len() {
        let recon = summary.replay(id as u32);
        // Unshared: fills the record in place.
        Arc::make_mut(&mut summary.trajs[id]).recon = recon;
    }
    if rebuild_index {
        summary.rebuild_index();
    }
    Ok(summary)
}

// ---------------------------------------------------------------------------
// Summary deltas (incremental append).
// ---------------------------------------------------------------------------
//
// A streaming deployment persists a snapshot of the pipeline, keeps
// ingesting, and wants to persist only what the new timesteps added. The
// pipeline's state is strictly append-only — the error-bounded codebook
// only ever pushes words, per-timestep coefficient rows are fixed once
// written, and each trajectory's codes/labels/CQC arrays only grow — so a
// snapshot at time T₁ is an exact prefix of the summary at any later T₂.
// [`delta_to_bytes`] *verifies* that prefix relationship field by field
// (bitwise, not approximately) and serializes just the suffix;
// [`apply_delta`] replays the suffix onto the base summary and hands back
// the recorded CRC-32 of the full summary's canonical serialization, so a
// reader can prove the reassembled chain equals the writer's summary with
// one `crc32(to_bytes(merged))` comparison.

/// Why a summary cannot be expressed as a delta over a given base.
#[derive(Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// The claimed-newer summary does not extend the base: the named
    /// component differs on the shared prefix (or shrank).
    NotAnExtension(&'static str),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::NotAnExtension(what) => {
                write!(f, "summary is not an extension of the base: {what}")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

fn points_bit_eq(a: &Point, b: &Point) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}

/// Whether two configs agree, bitwise, on every field a summary records
/// (the decode-relevant subset [`to_bytes`] writes).
pub(crate) fn same_decode_config(a: &PpqConfig, b: &PpqConfig) -> bool {
    a.eps1.to_bits() == b.eps1.to_bits()
        && a.gs.to_bits() == b.gs.to_bits()
        && a.use_cqc == b.use_cqc
        && a.predict == b.predict
        && a.partition_mode == b.partition_mode
        && a.cold_start == b.cold_start
        && a.k == b.k
        && a.budget == b.budget
}

/// Verify that `full` extends `base`: identical decode-relevant config,
/// identical `min_t`, and every shared structure bitwise equal on the
/// base's prefix. Exactness matters — [`apply_delta`]'s end-to-end CRC
/// check compares canonical serializations, so "close" is corrupt.
fn verify_extension(base: &PpqSummary, full: &PpqSummary) -> Result<(), DeltaError> {
    let err = DeltaError::NotAnExtension;
    if !same_decode_config(&base.config, &full.config) {
        return Err(err("config"));
    }
    if base.min_t != full.min_t {
        return Err(err("min_t"));
    }
    match (&base.codebook, &full.codebook) {
        (CodebookStore::Global(b), CodebookStore::Global(f)) => {
            if b.len() > f.len()
                || !b
                    .words()
                    .iter()
                    .zip(f.words())
                    .all(|(a, b)| points_bit_eq(a, b))
            {
                return Err(err("codebook"));
            }
        }
        (CodebookStore::PerStep(b), CodebookStore::PerStep(f)) => {
            if b.len() > f.len()
                || !b.iter().zip(f).all(|(bs, fs)| {
                    bs.len() == fs.len() && bs.iter().zip(fs).all(|(a, b)| points_bit_eq(a, b))
                })
            {
                return Err(err("per-step codebook"));
            }
        }
        _ => return Err(err("codebook kind")),
    }
    if base.coeffs.len() > full.coeffs.len() {
        return Err(err("coefficient steps shrank"));
    }
    for (bs, fs) in base.coeffs.iter().zip(&full.coeffs) {
        if bs.len() != fs.len() {
            return Err(err("coefficient rows"));
        }
        for (bp, fp) in bs.iter().zip(fs.iter()) {
            if bp.coeffs().len() != fp.coeffs().len()
                || !bp
                    .coeffs()
                    .iter()
                    .zip(fp.coeffs())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            {
                return Err(err("coefficients"));
            }
        }
    }
    if base.trajs.len() > full.trajs.len() {
        return Err(err("trajectory count shrank"));
    }
    for (idx, (b, f)) in base.trajs.iter().zip(&full.trajs).enumerate() {
        let bn = b.codes.len();
        if bn == 0 {
            continue;
        }
        if base.starts[idx] != full.starts[idx] {
            return Err(err("trajectory start"));
        }
        if bn > f.codes.len()
            || b.cqc_codes.len() > f.cqc_codes.len()
            || b.codes != f.codes[..bn]
            || b.labels != f.labels[..bn]
            || b.cqc_codes != f.cqc_codes[..b.cqc_codes.len()]
        {
            return Err(err("trajectory payload"));
        }
    }
    Ok(())
}

/// Serialize the parts of `full` that `base` does not already have.
///
/// The delta records a fingerprint of the base it was cut against
/// (trajectory count, coefficient-step count, codebook kind and length)
/// and the CRC-32 of `to_bytes(full)`; [`apply_delta`] checks the former
/// before merging and returns the latter so the caller can verify the
/// merged chain end to end.
pub fn delta_to_bytes(base: &PpqSummary, full: &PpqSummary) -> Result<Vec<u8>, DeltaError> {
    verify_extension(base, full)?;
    let index_bits = full.codebook.index_bits();
    let cqc_depth = full.template.as_ref().map(|t| t.depth()).unwrap_or(0);
    let mut e = Encoder::with_capacity(1024);
    e.put_u32(DELTA_MAGIC);
    e.put_u32(DELTA_VERSION);

    // --- Base fingerprint + end-to-end check value. --------------------
    e.put_u32(base.trajs.len() as u32);
    e.put_u32(base.coeffs.len() as u32);
    match (&base.codebook, &full.codebook) {
        (CodebookStore::Global(b), _) => {
            e.put_u32(0);
            e.put_u32(b.len() as u32);
        }
        (CodebookStore::PerStep(b), _) => {
            e.put_u32(1);
            e.put_u32(b.len() as u32);
        }
    }
    e.put_u32(ppq_storage::crc32(&to_bytes(full)));

    // --- Codebook extension. -------------------------------------------
    match (&base.codebook, &full.codebook) {
        (CodebookStore::Global(b), CodebookStore::Global(f)) => {
            let new = &f.words()[b.len()..];
            e.put_u32(new.len() as u32);
            for w in new {
                e.put_point(w);
            }
        }
        (CodebookStore::PerStep(b), CodebookStore::PerStep(f)) => {
            let new = &f[b.len()..];
            e.put_u32(new.len() as u32);
            for step in new {
                e.put_u32(step.len() as u32);
                for w in step {
                    e.put_point(w);
                }
            }
        }
        _ => unreachable!("verified above"),
    }

    // --- Coefficient-step extension (same encoding as `to_bytes`). -----
    let new_steps = &full.coeffs[base.coeffs.len()..];
    e.put_u32(new_steps.len() as u32);
    for step in new_steps {
        e.put_u32(step.len() as u32);
        for pred in step.iter() {
            for &c in pred.coeffs() {
                e.put_f32(c as f32);
            }
        }
    }

    // --- Per-trajectory suffixes. --------------------------------------
    // Codes are bit-packed at the *merged* codebook's index width, which
    // both sides derive independently (the reader extends its codebook
    // first, then computes `index_bits`).
    let base_len = |idx: usize| base.trajs.get(idx).map_or(0, |r| r.codes.len());
    e.put_u32(full.trajs.len() as u32);
    let touched: Vec<usize> = (0..full.trajs.len())
        .filter(|&idx| full.trajs[idx].codes.len() > base_len(idx))
        .collect();
    e.put_u32(touched.len() as u32);
    for &idx in &touched {
        let (traj, from) = (&full.trajs[idx], base_len(idx));
        e.put_u32(idx as u32);
        e.put_u32(full.starts[idx]);
        e.put_u32((traj.codes.len() - from) as u32);
        put_packed_codes(&mut e, &traj.codes[from..], index_bits);
        put_labels_rle(&mut e, &traj.labels[from..]);
        if cqc_depth > 0 {
            put_packed_cqc(&mut e, &traj.cqc_codes[from..], cqc_depth);
        }
    }
    Ok(e.finish().to_vec())
}

/// Merge a delta produced by [`delta_to_bytes`] into `base`, in place.
///
/// On success the base holds the full summary the delta was cut from and
/// the return value is the recorded CRC-32 of that summary's canonical
/// `to_bytes` serialization — verify `crc32(to_bytes(base))` against it
/// after applying the *last* delta of a chain to prove the whole chain
/// reassembled exactly (each intermediate CRC describes its own prefix of
/// the chain, so checking only the final one suffices).
///
/// Robustness contract matches [`from_bytes`]: untrusted bytes produce
/// [`DecodeError`], never a panic, and a failed apply may leave `base`
/// partially extended — callers must discard it on error. Reconstruction
/// caches of touched trajectories are replayed; untouched trajectories
/// keep their existing cache (their arrays did not change).
pub fn apply_delta(base: &mut PpqSummary, bytes: &[u8]) -> Result<u32, DecodeError> {
    let mut d = Decoder::from_slice(bytes);
    if d.remaining() < 8 || d.u32() != DELTA_MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = d.u32();
    if version != DELTA_VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }

    // --- Base fingerprint must describe *this* base. --------------------
    let base_n_traj = need!(d.try_u32(), "delta base trajectories") as usize;
    let base_steps = need!(d.try_u32(), "delta base steps") as usize;
    let cb_tag = need!(d.try_u32(), "delta codebook tag");
    let cb_len = need!(d.try_u32(), "delta codebook len") as usize;
    let fingerprint_ok = base_n_traj == base.trajs.len()
        && base_steps == base.coeffs.len()
        && match &base.codebook {
            CodebookStore::Global(cb) => cb_tag == 0 && cb_len == cb.len(),
            CodebookStore::PerStep(steps) => cb_tag == 1 && cb_len == steps.len(),
        };
    if !fingerprint_ok {
        return Err(DecodeError::Corrupt("delta does not match base summary"));
    }
    let full_crc = need!(d.try_u32(), "delta full crc");

    // --- Codebook extension. --------------------------------------------
    match &mut base.codebook {
        CodebookStore::Global(cb) => {
            let n = need!(d.try_u32(), "delta codebook words") as usize;
            if n.saturating_mul(16) > d.remaining() {
                return Err(DecodeError::Corrupt("delta codebook words"));
            }
            for _ in 0..n {
                cb.push(need!(d.try_point(), "delta codebook word"));
            }
        }
        CodebookStore::PerStep(steps) => {
            let n = need!(d.try_u32(), "delta codebook steps") as usize;
            if n.saturating_mul(4) > d.remaining() {
                return Err(DecodeError::Corrupt("delta codebook steps"));
            }
            for _ in 0..n {
                let m = need!(d.try_u32(), "delta codebook step len") as usize;
                if m.saturating_mul(16) > d.remaining() {
                    return Err(DecodeError::Corrupt("delta codebook step len"));
                }
                let mut words = Vec::with_capacity(m);
                for _ in 0..m {
                    words.push(need!(d.try_point(), "delta codebook word"));
                }
                steps.push(words);
            }
        }
    }
    let index_bits = base.codebook.index_bits();

    // --- Coefficient-step extension. -------------------------------------
    let k = base.config.k;
    let new_steps = need!(d.try_u32(), "delta coeff steps") as usize;
    let next_t = (base.min_t as usize).saturating_add(base.coeffs.len() + new_steps);
    if new_steps.saturating_mul(4) > d.remaining() || next_t > u32::MAX as usize {
        return Err(DecodeError::Corrupt("delta coeff steps"));
    }
    let mut total_partitions: usize = base.coeffs.iter().map(|s| s.len()).sum();
    for _ in 0..new_steps {
        let q = need!(d.try_u32(), "delta coeff partitions") as usize;
        if q.saturating_mul(k.saturating_mul(4)) > d.remaining() {
            return Err(DecodeError::Corrupt("delta coeff partitions"));
        }
        total_partitions = total_partitions.saturating_add(q);
        if total_partitions > MAX_TOTAL_PARTITIONS {
            return Err(DecodeError::Corrupt("delta coeff partitions"));
        }
        let mut step = Vec::with_capacity(q);
        for _ in 0..q {
            let mut cs = Vec::with_capacity(k);
            for _ in 0..k {
                cs.push(need!(d.try_f32(), "delta coefficient") as f64);
            }
            step.push(Predictor::from_coeffs(cs));
        }
        base.coeffs.push(step.into());
    }

    // --- Per-trajectory suffixes. ----------------------------------------
    let cqc_depth = base.template.as_ref().map(|t| t.depth()).unwrap_or(0);
    let full_n_traj = need!(d.try_u32(), "delta trajectory count") as usize;
    if full_n_traj < base.trajs.len() || full_n_traj > MAX_TRAJECTORIES {
        return Err(DecodeError::Corrupt("delta trajectory count"));
    }
    base.starts.resize(full_n_traj, 0);
    base.trajs.resize(full_n_traj, Arc::default());
    let n_touched = need!(d.try_u32(), "delta touched count") as usize;
    if n_touched > full_n_traj || n_touched.saturating_mul(12) > d.remaining() {
        return Err(DecodeError::Corrupt("delta touched count"));
    }
    let mut prev_idx: Option<usize> = None;
    for _ in 0..n_touched {
        let idx = need!(d.try_u32(), "delta trajectory idx") as usize;
        if idx >= full_n_traj || prev_idx.is_some_and(|p| p >= idx) {
            return Err(DecodeError::Corrupt("delta trajectory idx"));
        }
        prev_idx = Some(idx);
        let start = need!(d.try_u32(), "delta trajectory start");
        let n_new = need!(d.try_u32(), "delta trajectory len") as usize;
        if n_new == 0 {
            return Err(DecodeError::Corrupt("delta empty suffix"));
        }
        let base_len = base.trajs[idx].codes.len();
        if base_len == 0 {
            base.starts[idx] = start;
        } else if base.starts[idx] != start {
            return Err(DecodeError::Corrupt("delta trajectory start"));
        }
        let start = base.starts[idx];
        // The appended points extend the trajectory contiguously; every
        // one must resolve a coefficient row (and per-step codebook).
        if start < base.min_t
            || (start - base.min_t) as usize + base_len + n_new > base.coeffs.len()
        {
            return Err(DecodeError::Corrupt("delta trajectory span"));
        }
        if let CodebookStore::PerStep(steps) = &base.codebook {
            if (start - base.min_t) as usize + base_len + n_new > steps.len() {
                return Err(DecodeError::Corrupt("delta trajectory span"));
            }
        }
        let t0 = (start - base.min_t) as usize + base_len;
        let new_codes = read_packed_codes(&mut d, n_new, index_bits)?;
        let valid = match &base.codebook {
            CodebookStore::Global(cb) => {
                let len = cb.len() as u32;
                new_codes.iter().all(|&b| b < len)
            }
            CodebookStore::PerStep(steps) => new_codes
                .iter()
                .enumerate()
                .all(|(off, &b)| (b as usize) < steps[t0 + off].len()),
        };
        if !valid {
            return Err(DecodeError::Corrupt("delta codeword out of range"));
        }
        let ls = read_labels_rle(&mut d, n_new)?;
        if ls
            .iter()
            .enumerate()
            .any(|(off, &l)| l as usize >= base.coeffs[t0 + off].len())
        {
            return Err(DecodeError::Corrupt("delta label out of range"));
        }
        let new_cqc = if cqc_depth > 0 {
            read_packed_cqc(&mut d, n_new, cqc_depth)?
        } else {
            Vec::new()
        };
        let traj = Arc::make_mut(&mut base.trajs[idx]);
        traj.codes.extend(new_codes);
        traj.labels.extend(ls);
        traj.cqc_codes.extend(new_cqc);
        // Replay the whole trajectory: prediction history runs from its
        // first point, so a suffix cannot be reconstructed in isolation.
        let recon = base.replay(idx as u32);
        Arc::make_mut(&mut base.trajs[idx]).recon = recon;
    }
    if d.remaining() != 0 {
        return Err(DecodeError::Corrupt("delta trailing bytes"));
    }
    Ok(full_crc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::pipeline::PpqTrajectory;
    use ppq_traj::synth::{porto_like, PortoConfig};
    use ppq_traj::Dataset;

    fn data() -> Dataset {
        porto_like(&PortoConfig {
            trajectories: 20,
            mean_len: 40,
            min_len: 30,
            start_spread: 8,
            seed: 0x10,
        })
    }

    #[test]
    fn roundtrip_reconstructions_identical() {
        let d = data();
        for v in [Variant::PpqA, Variant::PpqSBasic, Variant::QTrajectory] {
            let mut cfg = PpqConfig::variant(v, 0.1);
            cfg.build_index = false;
            let s = PpqTrajectory::build(&d, &cfg).into_summary();
            let bytes = to_bytes(&s);
            let back = from_bytes(&bytes, false).unwrap();
            assert_eq!(back.num_points(), s.num_points(), "{}", v.name());
            for traj in d.trajectories() {
                for off in 0..traj.len() {
                    let t = traj.start + off as u32;
                    let a = s.reconstruct(traj.id, t).unwrap();
                    let b = back.reconstruct(traj.id, t).unwrap();
                    assert!(a.dist(&b) < 1e-12, "{}: traj {} t {t}", v.name(), traj.id);
                }
            }
        }
    }

    #[test]
    fn rebuilt_index_answers_queries() {
        let d = data();
        let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
        let s = PpqTrajectory::build(&d, &cfg).into_summary();
        let back = from_bytes(&to_bytes(&s), true).unwrap();
        let tpi = back.tpi().expect("index rebuilt");
        // Spot check: reconstructed self-queries hit.
        for traj in d.trajectories().iter().step_by(5) {
            let t = traj.start + 3;
            let p = back.reconstruct(traj.id, t).unwrap();
            let hits = tpi.query_disc(t, &p, 1e-9);
            assert!(hits.contains(&traj.id));
        }
    }

    #[test]
    fn serialized_size_close_to_breakdown() {
        // The byte format embodies the same accounting as breakdown():
        // serialized size must be within ~20% + small constant of it
        // (framing overhead: per-trajectory headers and length prefixes).
        let d = porto_like(&PortoConfig {
            trajectories: 80,
            mean_len: 80,
            min_len: 30,
            start_spread: 10,
            seed: 0x11,
        });
        let mut cfg = PpqConfig::variant(Variant::PpqA, 0.1);
        cfg.build_index = false;
        let s = PpqTrajectory::build(&d, &cfg).into_summary();
        let serialized = to_bytes(&s).len() as f64;
        let breakdown = s.breakdown().total() as f64;
        let upper = 1.25 * breakdown + 4096.0;
        assert!(
            serialized <= upper,
            "serialized {serialized} vs breakdown {breakdown} (upper {upper})"
        );
        assert!(
            serialized >= 0.5 * breakdown,
            "suspiciously small serialization"
        );
    }

    /// Drive one stream over a dataset, snapshotting at the given
    /// timestep cuts; returns the snapshots plus the final summary.
    fn snapshots_at(d: &Dataset, cfg: &PpqConfig, cuts: &[usize]) -> (Vec<PpqSummary>, PpqSummary) {
        let mut stream = crate::pipeline::PpqStream::new(cfg.clone());
        let slices: Vec<_> = d.time_slices().collect();
        let mut snaps = Vec::new();
        for (i, slice) in slices.iter().enumerate() {
            stream.push_slice(slice.t, slice.points);
            if cuts.contains(&(i + 1)) {
                snaps.push(stream.snapshot());
            }
        }
        (snaps, stream.finish())
    }

    #[test]
    fn delta_chain_reassembles_byte_identically() {
        let d = data();
        let mut configs: Vec<(String, PpqConfig)> =
            [Variant::PpqA, Variant::PpqSBasic, Variant::QTrajectory]
                .into_iter()
                .map(|v| (v.name().to_string(), PpqConfig::variant(v, 0.1)))
                .collect();
        // Budgeted build: exercises the per-step-codebook delta path.
        configs.push((
            "PerStepBits".into(),
            PpqConfig {
                budget: BuildBudget::PerStepBits(4),
                ..PpqConfig::variant(Variant::PpqA, 0.1)
            },
        ));
        for (name, mut cfg) in configs {
            cfg.build_index = false;
            let n_slices = d.time_slices().count();
            let (snaps, full) = snapshots_at(&d, &cfg, &[n_slices / 3, 2 * n_slices / 3]);
            let full_bytes = to_bytes(&full);

            // snapshot -> snapshot -> full, as two stacked deltas.
            let d1 = delta_to_bytes(&snaps[0], &snaps[1]).unwrap();
            let d2 = delta_to_bytes(&snaps[1], &full).unwrap();
            let mut merged = from_bytes(&to_bytes(&snaps[0]), false).unwrap();
            let crc1 = apply_delta(&mut merged, &d1).unwrap();
            assert_eq!(
                crc1,
                ppq_storage::crc32(&to_bytes(&snaps[1])),
                "{}: intermediate CRC must describe the intermediate chain",
                name
            );
            let crc2 = apply_delta(&mut merged, &d2).unwrap();
            let merged_bytes = to_bytes(&merged);
            assert_eq!(
                merged_bytes, full_bytes,
                "{}: merged chain must re-serialize byte-identically",
                name
            );
            assert_eq!(crc2, ppq_storage::crc32(&full_bytes), "{}", name);

            // Reconstructions of the merged summary are bit-identical to
            // the full build's (the payload the disk engine serves).
            for traj in d.trajectories() {
                for off in 0..traj.len() {
                    let t = traj.start + off as u32;
                    let a = full.reconstruct(traj.id, t).unwrap();
                    let b = merged.reconstruct(traj.id, t).unwrap();
                    assert!(
                        a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits(),
                        "{}: recon diverged at traj {} t {t}",
                        name,
                        traj.id
                    );
                }
            }
        }
    }

    #[test]
    fn delta_against_wrong_base_is_rejected() {
        let d = data();
        let mut cfg = PpqConfig::variant(Variant::PpqA, 0.1);
        cfg.build_index = false;
        let n_slices = d.time_slices().count();
        let (snaps, full) = snapshots_at(&d, &cfg, &[n_slices / 2]);
        let delta = delta_to_bytes(&snaps[0], &full).unwrap();

        // Applying onto the full summary (wrong fingerprint) must fail.
        let mut not_base = from_bytes(&to_bytes(&full), false).unwrap();
        assert!(matches!(
            apply_delta(&mut not_base, &delta),
            Err(DecodeError::Corrupt(_))
        ));

        // An unrelated summary is not an extension of the snapshot.
        let other = PpqTrajectory::build(
            &porto_like(&PortoConfig {
                trajectories: 10,
                mean_len: 30,
                min_len: 20,
                start_spread: 4,
                seed: 0x99,
            }),
            &cfg,
        )
        .into_summary();
        assert!(matches!(
            delta_to_bytes(&snaps[0], &other),
            Err(DeltaError::NotAnExtension(_))
        ));
        // And a summary is trivially an extension of itself (empty delta).
        let d0 = delta_to_bytes(&full, &full).unwrap();
        let mut same = from_bytes(&to_bytes(&full), false).unwrap();
        apply_delta(&mut same, &d0).unwrap();
        assert_eq!(to_bytes(&same), to_bytes(&full));
    }

    #[test]
    fn shrunken_cqc_history_is_rejected_not_a_panic() {
        // A "full" summary whose CQC array is shorter than the base's
        // violates the extension contract in the one dimension the other
        // length checks don't cover; it must surface as NotAnExtension,
        // not as an out-of-range slice panic.
        let d = data();
        let cfg = PpqConfig {
            build_index: false,
            ..PpqConfig::variant(Variant::PpqS, 0.1)
        };
        let base = PpqTrajectory::build(&d, &cfg).into_summary();
        let mut full = base.clone();
        let idx = full
            .trajs
            .iter()
            .position(|r| !r.cqc_codes.is_empty())
            .expect("CQC variant has codes");
        Arc::make_mut(&mut full.trajs[idx]).cqc_codes.pop();
        assert!(matches!(
            delta_to_bytes(&base, &full),
            Err(DeltaError::NotAnExtension(_))
        ));
    }

    #[test]
    fn delta_size_tracks_the_appended_window() {
        let d = data();
        let mut cfg = PpqConfig::variant(Variant::PpqA, 0.1);
        cfg.build_index = false;
        let n_slices = d.time_slices().count();
        let (snaps, full) = snapshots_at(&d, &cfg, &[3 * n_slices / 4]);
        let delta = delta_to_bytes(&snaps[0], &full).unwrap();
        let full_bytes = to_bytes(&full);
        assert!(
            delta.len() < full_bytes.len() / 2,
            "a quarter-window delta ({}) should be much smaller than the full summary ({})",
            delta.len(),
            full_bytes.len()
        );
    }

    /// A stream's steps end at `u32::MAX` at the latest; a header or a
    /// delta that puts them past it is corrupt, not an index rebuild
    /// that overflows the timestep.
    #[test]
    fn steps_past_u32_max_are_corrupt() {
        let mut stream = crate::pipeline::PpqStream::new(PpqConfig::default());
        stream.push_slice(u32::MAX - 2, &[]);
        let base = stream.snapshot();
        stream.push_slice(u32::MAX - 1, &[]);
        let full = stream.finish();
        let delta = delta_to_bytes(&base, &full).unwrap();
        // min_t follows magic, version, eps1, gs, flags and k.
        let with_min_t = |s: &PpqSummary, min_t: u32| {
            let mut bytes = to_bytes(s);
            bytes[32..36].copy_from_slice(&min_t.to_le_bytes());
            bytes
        };
        assert!(from_bytes(&with_min_t(&full, u32::MAX - 2), true).is_ok());
        assert_eq!(
            from_bytes(&with_min_t(&full, u32::MAX - 1), true).err(),
            Some(DecodeError::Corrupt("coeff steps"))
        );
        let mut late_base = from_bytes(&with_min_t(&base, u32::MAX - 1), false).unwrap();
        assert_eq!(
            apply_delta(&mut late_base, &delta).err(),
            Some(DecodeError::Corrupt("delta coeff steps"))
        );
    }

    /// A packed blob is exactly `ceil(n·w/8)` bytes with its padding
    /// clear (FORMAT §1): a blob longer by one byte, or one with a padding
    /// bit set, is corrupt — for the codes and for the CQC codes alike.
    #[test]
    fn packed_blobs_are_canonical() {
        // 3 codes × 3 bits and 3 CQC codes × 4 bits: 2 bytes each, with
        // 7 and 4 padding bits.
        let codes = [5u32, 1, 7];
        let cqc: Vec<CqcCode> = [9u64, 0, 15]
            .iter()
            .map(|&b| CqcCode::from_raw(b, 2))
            .collect();
        let blob = |put: &dyn Fn(&mut Encoder)| {
            let mut e = Encoder::new();
            put(&mut e);
            e.finish().to_vec()
        };
        let codes_blob = blob(&|e| put_packed_codes(e, &codes, 3));
        let cqc_blob = blob(&|e| put_packed_cqc(e, &cqc, 2));
        let read_codes = |b: &[u8]| read_packed_codes(&mut Decoder::from_slice(b), 3, 3);
        let read_cqc = |b: &[u8]| read_packed_cqc(&mut Decoder::from_slice(b), 3, 2);
        assert_eq!(read_codes(&codes_blob).unwrap(), codes);
        assert_eq!(read_cqc(&cqc_blob).unwrap(), cqc);
        // The length prefix raised by one, with a zero byte inserted.
        let longer = |b: &[u8]| {
            let mut out = b.to_vec();
            out[0] += 1;
            out.push(0);
            out
        };
        // The last byte's top bit, past the last value, set.
        let padded = |b: &[u8]| {
            let mut out = b.to_vec();
            *out.last_mut().unwrap() |= 0x80;
            out
        };
        for damaged in [longer(&codes_blob), padded(&codes_blob)] {
            assert_eq!(
                read_codes(&damaged),
                Err(DecodeError::Corrupt("code bytes"))
            );
        }
        for damaged in [longer(&cqc_blob), padded(&cqc_blob)] {
            assert_eq!(read_cqc(&damaged), Err(DecodeError::Corrupt("cqc bytes")));
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            from_bytes(&[1, 2, 3], false),
            Err(DecodeError::BadMagic)
        ));
        let d = data();
        let cfg = PpqConfig {
            build_index: false,
            ..PpqConfig::variant(Variant::PpqA, 0.1)
        };
        let s = PpqTrajectory::build(&d, &cfg).into_summary();
        let mut bytes = to_bytes(&s);
        bytes[4] = 0xFF; // clobber the version
        assert!(matches!(
            from_bytes(&bytes, false),
            Err(DecodeError::UnsupportedVersion(_))
        ));
    }
}
