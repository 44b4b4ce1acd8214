//! The one append implementation. An append diffs the next snapshot
//! against the committed chain's stitched summary, so a cold one first
//! re-reads the chain — base segment plus every delta, each
//! CRC-verified — at a cost that grows with chain length: right for
//! [`RepoWriter::append`], which runs a cold [`Appender`] once, wrong
//! for live ingest, which appends in a loop and keeps one warm.
//!
//! [`Appender`] keeps the post-commit view in memory between calls: the
//! committed [`Manifest`], each shard's stitched summary, and each
//! shard's committed period table, whose last end is the next delta's
//! horizon. Recovery, which reads the same summaries, hands them over
//! ([`Appender::from_chain`]); the period tables, which recovery does not
//! need, are read from the directory segments by the first append. A
//! warm append skips the chain re-read entirely and goes straight to
//! `delta_to_bytes` against the cached base. The cache is *verified, not trusted*: before every append the
//! committed manifest (a tiny file) is re-read and compared to the
//! cached one — if another writer has advanced the chain, the cache is
//! rebuilt from disk, so a warm append writes byte-identical segments to
//! a cold one in all cases (asserted file-for-file in
//! `tests/persistence.rs`). Any append error drops the cache; the next
//! call re-warms from the committed state.
//!
//! [`Appender::append_sharded_with_state`] commits a live stream's
//! resumable pipeline state (`core::state`) with the delta generation,
//! under the same manifest rename; [`Appender::append_sharded`] is that
//! path with no state.

use crate::dir::{DirEncoder, DiskPeriod};
use crate::layout::{sdelta_seg_name, GenKind, Manifest, RepoError};
use crate::repo::{load_shard_summary, read_periods, ChainState};
use crate::writer::{check_period_extension, tpi_blocks, tpi_periods, RepoWriter};
use ppq_core::summary_io;
use ppq_core::{PpqSummary, ShardedSummary};
use std::path::Path;

/// One shard's slice of the committed view: the stitched summary the next
/// delta is diffed against, and the committed period table (`None` until
/// an append reads it), whose last end is the next delta's block horizon.
struct ShardState {
    base: PpqSummary,
    periods: Option<Vec<DiskPeriod>>,
}

/// The committed view the last append left behind (or the last warm-up
/// loaded). Valid only while `manifest` still matches the on-disk one.
struct AppendCache {
    manifest: Manifest,
    shards: Vec<ShardState>,
}

/// A repository append handle that caches the committed chain's stitched
/// view between calls, so repeated appends don't re-decode and re-verify
/// the whole generation chain each time. See the module docs for the
/// freshness contract.
pub struct Appender {
    writer: RepoWriter,
    cache: Option<AppendCache>,
}

impl Appender {
    /// Append handle with an explicit page size — it must match the
    /// committed store's, as with [`RepoWriter::with_page_size`]. The
    /// cache starts cold; the first append warms it from the committed
    /// chain.
    pub fn with_page_size(dir: &Path, page_size: usize) -> Appender {
        Appender {
            writer: RepoWriter::with_page_size(dir, page_size),
            cache: None,
        }
    }

    /// Append handle warmed from a chain recovery already read: its
    /// manifest and summaries are the cache, so the first append reads no
    /// summary segment again.
    pub fn from_chain(dir: &Path, page_size: usize, chain: &ChainState) -> Appender {
        Appender {
            writer: RepoWriter::with_page_size(dir, page_size),
            cache: Some(AppendCache {
                manifest: chain.manifest.clone(),
                shards: chain
                    .summaries
                    .iter()
                    .map(|base| ShardState {
                        base: base.clone(),
                        periods: None,
                    })
                    .collect(),
            }),
        }
    }

    /// Whether the next append can skip the chain re-read. Only a hint —
    /// the cache is still validated against the committed manifest.
    #[inline]
    pub fn is_warm(&self) -> bool {
        self.cache.is_some()
    }

    /// Append everything `full` adds over the committed chain as one new
    /// delta generation (see [`RepoWriter::append`] for the contract),
    /// with the committed view served from the cache when it is still
    /// current. On any error the cache is dropped so the next call
    /// re-warms from the committed state.
    pub fn append_sharded(&mut self, full: &ShardedSummary) -> Result<Manifest, RepoError> {
        self.append_shards(full.shards(), None)
    }

    /// [`Appender::append_sharded`], committing `state` — the resumable
    /// pipeline state of the stream `full` was taken from — with the
    /// generation.
    pub fn append_sharded_with_state(
        &mut self,
        full: &ShardedSummary,
        state: &[u8],
    ) -> Result<Manifest, RepoError> {
        self.append_shards(full.shards(), Some(state))
    }

    pub(crate) fn append_shards(
        &mut self,
        fulls: &[PpqSummary],
        state: Option<&[u8]>,
    ) -> Result<Manifest, RepoError> {
        let result = self.try_append(fulls, state);
        if result.is_err() {
            // A failed append may have left the cache half-updated or the
            // directory in a state we did not predict; rebuild from the
            // committed manifest next time.
            self.cache = None;
        }
        result
    }

    fn try_append(
        &mut self,
        fulls: &[PpqSummary],
        state: Option<&[u8]>,
    ) -> Result<Manifest, RepoError> {
        let not_ext = |what: &str| RepoError::NotAnExtension(what.to_string());
        let prev = Manifest::read(self.writer.dir())?
            .ok_or_else(|| not_ext("no committed store to append to (write a base first)"))?;
        if prev.num_shards() != fulls.len() {
            return Err(not_ext(&format!(
                "store has {} shards, summary has {}",
                prev.num_shards(),
                fulls.len()
            )));
        }
        if prev.page_size as usize != self.writer.page_size() {
            return Err(not_ext(&format!(
                "store uses {}-byte pages, appender configured for {}",
                prev.page_size,
                self.writer.page_size()
            )));
        }

        // Re-warm if cold or if another writer moved the chain under us.
        if self.cache.as_ref().is_none_or(|c| c.manifest != prev) {
            self.cache = Some(Self::warm(self.writer.dir(), &prev)?);
        }
        let cache = self.cache.as_mut().expect("cache warmed above");

        let generation = prev.generation() + 1;
        let mut shard_manifests = Vec::with_capacity(fulls.len());
        let mut written = Vec::with_capacity(fulls.len());
        for (i, full) in fulls.iter().enumerate() {
            let tpi = full.tpi().ok_or(RepoError::MissingIndex)?;
            let state = &mut cache.shards[i];
            let delta_bytes = summary_io::delta_to_bytes(&state.base, full)?;
            let stored = match &mut state.periods {
                Some(stored) => stored,
                none => none.insert(read_periods(self.writer.dir(), &prev, i)?),
            };
            check_period_extension(stored, tpi)?;
            let t_hi = stored.last().map(|p| p.t_end);
            let (first, periods) = tpi_periods(tpi, t_hi);
            shard_manifests.push(self.writer.write_segments(
                generation,
                i as u32,
                &sdelta_seg_name(generation, i as u32),
                &delta_bytes,
                DirEncoder::new(first, &periods, t_hi),
                &mut |sink| {
                    tpi_blocks(tpi, t_hi, sink);
                    Ok(())
                },
            )?);
            written.push((first, periods));
        }
        let mut manifest = prev.clone();
        manifest.generations.push(self.writer.seal_generation(
            generation,
            GenKind::Delta,
            shard_manifests,
            state,
        )?);
        self.writer.commit(&manifest, Some(&prev))?;

        // The committed chain now stitches to exactly `fulls` (that is
        // what `delta_to_bytes` proved and the commit persisted), and its
        // period tables end with the periods the new fragments record.
        let cache = self.cache.as_mut().expect("cache warmed above");
        cache.manifest = manifest.clone();
        for ((state, full), (first, periods)) in cache.shards.iter_mut().zip(fulls).zip(written) {
            state.base = full.clone();
            let stored = state.periods.as_mut().expect("read by the append");
            stored.truncate(first);
            stored.extend(periods);
        }
        Ok(manifest)
    }

    /// Load the committed view: each shard's stitched summary and period
    /// table.
    fn warm(dir: &Path, manifest: &Manifest) -> Result<AppendCache, RepoError> {
        let shards = (0..manifest.num_shards())
            .map(|i| {
                Ok(ShardState {
                    base: load_shard_summary(dir, manifest, i)?,
                    periods: Some(read_periods(dir, manifest, i)?),
                })
            })
            .collect::<Result<_, RepoError>>()?;
        Ok(AppendCache {
            manifest: manifest.clone(),
            shards,
        })
    }
}
