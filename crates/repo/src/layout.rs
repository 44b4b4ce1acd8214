//! The on-disk layout of a repository directory.
//!
//! A repository is a single directory holding one or more *generations*
//! of segment files. Generation `g` of shard `s` contributes:
//!
//! ```text
//! MANIFEST.ppq              ← checksummed root (written temp + rename)
//! summary-g<g>-<s>.seg      ← base generation: shard s's full PpqSummary
//! sdelta-g<g>-<s>.seg       ← delta generation: shard s's summary delta
//! tpi-g<g>-<s>.pages        ← shard s's TPI blocks on CRC-sealed pages
//! dir-g<g>-<s>.seg          ← shard s's period structure + block directory
//! ```
//!
//! The first live generation is a **base** (a complete summary snapshot);
//! every later one is a **delta** that extends it by a timestep window —
//! `RepoWriter::append` produces them, `Repo::open` stitches the chain
//! back into one logical store, and `Repo::compact` collapses the chain
//! into a single fresh base generation. docs/FORMAT.md specifies every
//! byte.
//!
//! The manifest is the *only* mutable file and the single source of
//! integrity metadata: it records the live generation chain and, for
//! every shard segment, the exact byte length and CRC-32 the writer
//! produced. A crash anywhere during a write leaves at worst
//! new-generation segment files plus a stale `MANIFEST.ppq.tmp` — the
//! committed manifest still references the previous chain's segments, so
//! the store reopens at the previous consistent state.

use ppq_storage::codec::{Decoder, Encoder};
use ppq_storage::crc32;
use std::fmt;
use std::io;

/// The committed manifest file name.
pub const MANIFEST_NAME: &str = "MANIFEST.ppq";
/// The scratch name the manifest is written under before the atomic
/// rename. Present after a crash; ignored by [`crate::Repo::open`].
pub const MANIFEST_TMP_NAME: &str = "MANIFEST.ppq.tmp";

const MANIFEST_MAGIC: u32 = 0x5050_514D; // "PPQM"
/// The manifest version, the only one written or read. Version 1
/// (single-generation stores written before incremental append existed)
/// is rejected by [`Manifest::from_bytes`].
const MANIFEST_VERSION: u32 = 2;

pub fn summary_seg_name(generation: u64, shard: u32) -> String {
    format!("summary-g{generation}-{shard}.seg")
}

pub fn sdelta_seg_name(generation: u64, shard: u32) -> String {
    format!("sdelta-g{generation}-{shard}.seg")
}

pub fn tpi_seg_name(generation: u64, shard: u32) -> String {
    format!("tpi-g{generation}-{shard}.pages")
}

pub fn dir_seg_name(generation: u64, shard: u32) -> String {
    format!("dir-g{generation}-{shard}.seg")
}

/// Everything that can go wrong opening or writing a repository.
#[derive(Debug)]
pub enum RepoError {
    Io(io::Error),
    /// A segment or the manifest failed structural / checksum validation.
    Corrupt(String),
    /// A segment file failed its manifest-recorded length/CRC check —
    /// carries *which* file of *which* generation, and both sides of the
    /// mismatch, so recovery logs are actionable.
    CorruptSegment {
        path: std::path::PathBuf,
        generation: u64,
        shard: u32,
        expected_len: u64,
        actual_len: u64,
        expected_crc: u32,
        /// `None` when the length already mismatched (the CRC of a
        /// wrong-length file proves nothing).
        actual_crc: Option<u32>,
    },
    /// A summary segment failed to decode.
    Summary(ppq_core::summary_io::DecodeError),
    /// The summary handed to the writer has no TPI to lay out.
    MissingIndex,
    /// `append` was given a summary that does not extend the committed
    /// store (different config, rewritten history, fewer shards, …) — the
    /// caller should fall back to a full `write`.
    NotAnExtension(String),
    /// The requested operation is not supported by this store's contents
    /// (e.g. re-sharding a per-step-codebook store).
    Unsupported(String),
    /// The store on disk advanced past the view this operation was
    /// prepared from (e.g. `compact` on a `Repo` opened before a later
    /// `append` committed) — reopen and retry.
    Stale(String),
}

impl fmt::Display for RepoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepoError::Io(e) => write!(f, "repository I/O error: {e}"),
            RepoError::Corrupt(what) => write!(f, "corrupt repository: {what}"),
            RepoError::CorruptSegment {
                path,
                generation,
                shard,
                expected_len,
                actual_len,
                expected_crc,
                actual_crc,
            } => {
                write!(
                    f,
                    "corrupt segment {} (generation {generation}, shard {shard}): ",
                    path.display()
                )?;
                match actual_crc {
                    None => write!(f, "length {actual_len} != manifest {expected_len}"),
                    Some(crc) => write!(
                        f,
                        "CRC mismatch (manifest {expected_crc:#010x}, file {crc:#010x})"
                    ),
                }
            }
            RepoError::Summary(e) => write!(f, "corrupt summary segment: {e}"),
            RepoError::MissingIndex => {
                write!(f, "summary has no TPI (build with build_index = true)")
            }
            RepoError::NotAnExtension(what) => {
                write!(f, "summary does not extend the committed store: {what}")
            }
            RepoError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            RepoError::Stale(what) => write!(f, "stale repository view: {what}"),
        }
    }
}

impl std::error::Error for RepoError {}

impl From<io::Error> for RepoError {
    fn from(e: io::Error) -> RepoError {
        RepoError::Io(e)
    }
}

impl From<ppq_core::summary_io::DecodeError> for RepoError {
    fn from(e: ppq_core::summary_io::DecodeError) -> RepoError {
        RepoError::Summary(e)
    }
}

impl From<ppq_core::summary_io::DeltaError> for RepoError {
    fn from(e: ppq_core::summary_io::DeltaError) -> RepoError {
        RepoError::NotAnExtension(e.to_string())
    }
}

/// Whether a generation carries a full summary snapshot or a delta over
/// the chain before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenKind {
    /// `summary-g<g>-<s>.seg` holds a complete `core::summary_io` summary.
    Base,
    /// `sdelta-g<g>-<s>.seg` holds a `core::summary_io` delta.
    Delta,
}

/// Integrity metadata of one shard's segments within one generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardManifest {
    /// Byte length of the summary (base) or summary-delta (delta) segment.
    pub summary_len: u64,
    pub summary_crc: u32,
    pub dir_len: u64,
    pub dir_crc: u32,
    /// Page count of the TPI segment (length / page_size).
    pub tpi_pages: u64,
}

/// One live generation: its number, kind, and per-shard segment metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenManifest {
    pub generation: u64,
    pub kind: GenKind,
    pub shards: Vec<ShardManifest>,
}

/// The repository root: the live generation chain (oldest first — one
/// base followed by zero or more deltas), and how data pages are sized.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    pub page_size: u32,
    pub generations: Vec<GenManifest>,
}

impl Manifest {
    /// The newest (highest-numbered) live generation.
    #[inline]
    pub fn newest(&self) -> &GenManifest {
        self.generations.last().expect("validated: at least one")
    }

    /// The newest generation number — what the next write increments.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.newest().generation
    }

    /// Shard count (identical across the chain, validated on decode).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.generations[0].shards.len()
    }

    /// Structural invariants shared by the decoder and the writer: a
    /// chain is one base followed by deltas, strictly ascending, with a
    /// uniform non-zero shard count.
    fn validate(&self) -> Result<(), RepoError> {
        let corrupt = |what: &str| RepoError::Corrupt(format!("manifest: {what}"));
        if self.page_size as usize <= ppq_storage::PAGE_TRAILER {
            return Err(corrupt("page size too small"));
        }
        if self.generations.is_empty() {
            return Err(corrupt("empty generation chain"));
        }
        let shards = self.generations[0].shards.len();
        if shards == 0 {
            return Err(corrupt("zero shards"));
        }
        for (i, g) in self.generations.iter().enumerate() {
            let want = if i == 0 {
                GenKind::Base
            } else {
                GenKind::Delta
            };
            if g.kind != want {
                return Err(corrupt("chain must be one base followed by deltas"));
            }
            if g.shards.len() != shards {
                return Err(corrupt("shard count varies across the chain"));
            }
            if i > 0 && g.generation <= self.generations[i - 1].generation {
                return Err(corrupt("generations out of order"));
            }
        }
        Ok(())
    }

    /// Serialize: magic, version, body length, body CRC, body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let per_gen: usize = self
            .generations
            .iter()
            .map(|g| 16 + g.shards.len() * 32)
            .sum();
        let mut body = Encoder::with_capacity(16 + per_gen);
        body.put_u32(self.page_size);
        body.put_u32(self.generations.len() as u32);
        for g in &self.generations {
            body.put_u64(g.generation);
            body.put_u32(match g.kind {
                GenKind::Base => 0,
                GenKind::Delta => 1,
            });
            body.put_u32(g.shards.len() as u32);
            for s in &g.shards {
                body.put_u64(s.summary_len);
                body.put_u32(s.summary_crc);
                body.put_u64(s.dir_len);
                body.put_u32(s.dir_crc);
                body.put_u64(s.tpi_pages);
            }
        }
        let body = body.finish();
        let mut e = Encoder::with_capacity(body.len() + 16);
        e.put_u32(MANIFEST_MAGIC);
        e.put_u32(MANIFEST_VERSION);
        e.put_u32(body.len() as u32);
        e.put_u32(crc32(&body));
        e.put_bytes_raw(&body);
        e.finish().to_vec()
    }

    /// Checked deserialization — every malformed input is a
    /// [`RepoError::Corrupt`], never a panic. Only version 2 is read; any
    /// other version, the pre-append version 1 included, is rejected.
    pub fn from_bytes(bytes: &[u8]) -> Result<Manifest, RepoError> {
        let corrupt = |what: &str| RepoError::Corrupt(format!("manifest: {what}"));
        let mut d = Decoder::from_slice(bytes);
        if d.try_u32() != Some(MANIFEST_MAGIC) {
            return Err(corrupt("bad magic"));
        }
        match d.try_u32() {
            Some(MANIFEST_VERSION) => {}
            Some(v) => return Err(corrupt(&format!("unsupported version {v}"))),
            None => return Err(corrupt("truncated header")),
        }
        let body_len = d.try_u32().ok_or_else(|| corrupt("truncated header"))? as usize;
        let body_crc = d.try_u32().ok_or_else(|| corrupt("truncated header"))?;
        if d.remaining() != body_len {
            return Err(corrupt("body length mismatch"));
        }
        let body = d.rest();
        if crc32(&body) != body_crc {
            return Err(corrupt("body CRC mismatch"));
        }
        let mut d = Decoder::new(body);

        // Body: page_size u32, generation chain.
        let page_size = d.try_u32().ok_or_else(|| corrupt("truncated body"))?;
        let n_gens = d.try_u32().ok_or_else(|| corrupt("truncated body"))? as usize;
        if n_gens == 0 || n_gens.saturating_mul(16) > d.remaining() {
            return Err(corrupt("generation count"));
        }
        let mut generations = Vec::with_capacity(n_gens);
        for _ in 0..n_gens {
            let generation = d.try_u64().ok_or_else(|| corrupt("generation entry"))?;
            let kind = match d.try_u32() {
                Some(0) => GenKind::Base,
                Some(1) => GenKind::Delta,
                _ => return Err(corrupt("generation kind")),
            };
            let n = d.try_u32().ok_or_else(|| corrupt("generation entry"))? as usize;
            if n.saturating_mul(32) > d.remaining() {
                return Err(corrupt("shard table length"));
            }
            let mut shards = Vec::with_capacity(n);
            for _ in 0..n {
                shards.push(ShardManifest {
                    summary_len: d.try_u64().ok_or_else(|| corrupt("shard entry"))?,
                    summary_crc: d.try_u32().ok_or_else(|| corrupt("shard entry"))?,
                    dir_len: d.try_u64().ok_or_else(|| corrupt("shard entry"))?,
                    dir_crc: d.try_u32().ok_or_else(|| corrupt("shard entry"))?,
                    tpi_pages: d.try_u64().ok_or_else(|| corrupt("shard entry"))?,
                });
            }
            generations.push(GenManifest {
                generation,
                kind,
                shards,
            });
        }
        if d.remaining() != 0 {
            return Err(corrupt("trailing bytes"));
        }
        let manifest = Manifest {
            page_size,
            generations,
        };
        manifest.validate()?;
        Ok(manifest)
    }
}

/// Read a whole segment file and verify it against the manifest's
/// recorded length and CRC before handing the bytes to a decoder. A
/// mismatch is reported as [`RepoError::CorruptSegment`] carrying the
/// path, the generation/shard the caller was validating, and both sides
/// of the failed comparison.
pub fn read_verified(
    path: &std::path::Path,
    generation: u64,
    shard: u32,
    expect_len: u64,
    expect_crc: u32,
) -> Result<Vec<u8>, RepoError> {
    let bytes = std::fs::read(path)?;
    let corrupt = |actual_crc: Option<u32>| RepoError::CorruptSegment {
        path: path.to_path_buf(),
        generation,
        shard,
        expected_len: expect_len,
        actual_len: bytes.len() as u64,
        expected_crc: expect_crc,
        actual_crc,
    };
    if bytes.len() as u64 != expect_len {
        return Err(corrupt(None));
    }
    let actual = crc32(&bytes);
    if actual != expect_crc {
        return Err(corrupt(Some(actual)));
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(seed: u64) -> ShardManifest {
        ShardManifest {
            summary_len: 100 + seed,
            summary_crc: 1 + seed as u32,
            dir_len: 200 + seed,
            dir_crc: 2 + seed as u32,
            tpi_pages: seed % 9,
        }
    }

    fn manifest() -> Manifest {
        Manifest {
            page_size: 4096,
            generations: vec![
                GenManifest {
                    generation: 3,
                    kind: GenKind::Base,
                    shards: vec![shard(0), shard(7)],
                },
                GenManifest {
                    generation: 4,
                    kind: GenKind::Delta,
                    shards: vec![shard(3), shard(12)],
                },
                GenManifest {
                    generation: 6,
                    kind: GenKind::Delta,
                    shards: vec![shard(5), shard(1)],
                },
            ],
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let m = manifest();
        let back = Manifest::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.generation(), 6);
        assert_eq!(back.num_shards(), 2);
    }

    #[test]
    fn manifest_rejects_corruption() {
        let m = manifest();
        let good = m.to_bytes();
        // Any single-byte flip in the body is caught by the CRC; header
        // flips by the magic/version/length checks.
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 0x01;
            assert!(
                Manifest::from_bytes(&bad).is_err(),
                "flip at {at} went undetected"
            );
        }
        // Truncations too.
        for cut in 0..good.len() {
            assert!(Manifest::from_bytes(&good[..cut]).is_err());
        }
    }

    #[test]
    fn manifest_rejects_malformed_chains() {
        // Delta-first chain.
        let mut m = manifest();
        m.generations[0].kind = GenKind::Delta;
        assert!(matches!(
            Manifest::from_bytes(&m.to_bytes()),
            Err(RepoError::Corrupt(_))
        ));
        // Second base mid-chain.
        let mut m = manifest();
        m.generations[1].kind = GenKind::Base;
        assert!(Manifest::from_bytes(&m.to_bytes()).is_err());
        // Out-of-order generations.
        let mut m = manifest();
        m.generations[2].generation = 4;
        assert!(Manifest::from_bytes(&m.to_bytes()).is_err());
        // Varying shard counts.
        let mut m = manifest();
        m.generations[1].shards.pop();
        assert!(Manifest::from_bytes(&m.to_bytes()).is_err());
    }

    #[test]
    fn v1_manifest_is_rejected_as_unsupported() {
        // Hand-build a version-1 manifest byte stream (the pre-append
        // format, otherwise well-formed) and check it is refused by
        // version, not misread as a version-2 body.
        let mut body = Encoder::new();
        body.put_u64(5); // generation
        body.put_u32(4096); // page_size
        body.put_u32(1); // one shard
        let s = shard(2);
        body.put_u64(s.summary_len);
        body.put_u32(s.summary_crc);
        body.put_u64(s.dir_len);
        body.put_u32(s.dir_crc);
        body.put_u64(s.tpi_pages);
        let body = body.finish();
        let mut e = Encoder::new();
        e.put_u32(MANIFEST_MAGIC);
        e.put_u32(1); // version 1
        e.put_u32(body.len() as u32);
        e.put_u32(crc32(&body));
        e.put_bytes_raw(&body);
        match Manifest::from_bytes(&e.finish()) {
            Err(RepoError::Corrupt(msg)) => assert!(
                msg.contains("unsupported version 1"),
                "unexpected error: {msg}"
            ),
            other => panic!("version 1 must be refused, got {other:?}"),
        }
    }

    #[test]
    fn segment_names_are_generation_scoped() {
        assert_eq!(summary_seg_name(2, 0), "summary-g2-0.seg");
        assert_eq!(sdelta_seg_name(4, 2), "sdelta-g4-2.seg");
        assert_eq!(tpi_seg_name(2, 3), "tpi-g2-3.pages");
        assert_eq!(dir_seg_name(10, 1), "dir-g10-1.seg");
    }
}
