//! The repository write path: lay a finished summary (or sharded
//! summary) out as a generation of segment files, then commit it with an
//! atomic manifest swap.
//!
//! Two write shapes share one segment writer:
//!
//! * [`RepoWriter::write`] / [`RepoWriter::write_sharded`] — a **full
//!   rewrite**: one fresh *base* generation holding the complete summary
//!   and every TPI block; the committed manifest is replaced by a
//!   single-generation chain.
//! * [`RepoWriter::append`] / [`RepoWriter::append_sharded`] — an
//!   **incremental append**: the caller hands the *current full* summary
//!   (a later snapshot of the same stream the store was written from) and
//!   only the difference is persisted — a summary-delta segment
//!   (`core::summary_io::delta_to_bytes` against the committed chain), the
//!   TPI blocks of the new timestep window, and the directory fragments
//!   of that window — as one new *delta* generation appended to the
//!   chain. These run a cold [`Appender`], the one append implementation.
//!
//! A generation may also carry a live stream's resumable pipeline state
//! (`core::state`) as its state segment
//! ([`RepoWriter::write_sharded_with_state`],
//! [`Appender::append_sharded_with_state`]); the stateless methods are
//! the same path with no state.
//!
//! Every write commits the same way: segments are written and fsynced
//! under generation-scoped names that can never collide with the
//! committed chain, then the manifest is rewritten temp + rename +
//! directory fsync. A crash at any point leaves the previous chain fully
//! intact.

use crate::appender::Appender;
use crate::dir::{DirEncoder, DiskPeriod, DiskRegion};
use crate::layout::{
    dir_seg_name, state_seg_name, summary_seg_name, tpi_seg_name, GenKind, GenManifest, Manifest,
    RepoError, ShardManifest, MANIFEST_NAME, MANIFEST_TMP_NAME,
};
use ppq_core::summary_io;
use ppq_core::{PpqSummary, ShardedSummary};
use ppq_storage::{crc32, payload_capacity, Page, PageStore, PAGE_SIZE};
use ppq_tpi::Tpi;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// Receives the blocks bound for a page segment: a `(period, region, t,
/// cell)` key plus the trajectory IDs (borrowed for the call), in strictly
/// ascending key order.
pub(crate) type BlockSink<'a> = dyn FnMut(u32, u32, u32, u32, &[u32]) + 'a;

/// Writes a repository directory. One `write*`/`append*` call produces
/// one new *generation* of segment files and commits it by writing the
/// manifest to a temp name and renaming it over `MANIFEST.ppq` — a crash
/// at any point leaves the previous chain's manifest (and segments)
/// untouched, so the store reopens at the last consistent state.
pub struct RepoWriter {
    dir: PathBuf,
    page_size: usize,
}

impl RepoWriter {
    /// Writer with the paper's default 1 MiB pages.
    pub fn new(dir: &Path) -> RepoWriter {
        Self::with_page_size(dir, PAGE_SIZE)
    }

    /// Explicit page size (scaled-down experiments scale the page with
    /// the dataset, as in EXPERIMENTS.md Table 9).
    pub fn with_page_size(dir: &Path, page_size: usize) -> RepoWriter {
        let _ = payload_capacity(page_size); // validate early
        RepoWriter {
            dir: dir.to_path_buf(),
            page_size,
        }
    }

    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    #[inline]
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Persist an unsharded summary as a 1-shard repository (full
    /// rewrite — the committed chain, if any, is replaced).
    pub fn write(&self, summary: &PpqSummary) -> Result<Manifest, RepoError> {
        self.write_shards(std::slice::from_ref(summary), None)
    }

    /// Persist a sharded summary, one segment triple per shard. The shard
    /// count is recorded in the manifest; `Repo::open` rebuilds the same
    /// pure `ShardRouter` from it.
    pub fn write_sharded(&self, sharded: &ShardedSummary) -> Result<Manifest, RepoError> {
        self.write_shards(sharded.shards(), None)
    }

    /// [`RepoWriter::write_sharded`], committing `state` — the resumable
    /// pipeline state of the stream `sharded` was taken from — with the
    /// generation.
    pub fn write_sharded_with_state(
        &self,
        sharded: &ShardedSummary,
        state: &[u8],
    ) -> Result<Manifest, RepoError> {
        self.write_shards(sharded.shards(), Some(state))
    }

    pub(crate) fn write_shards(
        &self,
        shards: &[PpqSummary],
        state: Option<&[u8]>,
    ) -> Result<Manifest, RepoError> {
        assert!(!shards.is_empty(), "repository needs at least one shard");
        std::fs::create_dir_all(&self.dir)?;
        // Each generation gets fresh file names, so writing never clobbers
        // the committed chain's segments.
        let prev = Manifest::read(&self.dir)?;
        let generation = prev.as_ref().map(|m| m.generation() + 1).unwrap_or(1);
        let mut shard_manifests = Vec::with_capacity(shards.len());
        for (i, summary) in shards.iter().enumerate() {
            let tpi = summary.tpi().ok_or(RepoError::MissingIndex)?;
            let summary_bytes = summary_io::to_bytes(summary);
            let (first, periods) = tpi_periods(tpi, None);
            shard_manifests.push(self.write_segments(
                generation,
                i as u32,
                &summary_seg_name(generation, i as u32),
                &summary_bytes,
                DirEncoder::new(first, &periods, None),
                &mut |sink| {
                    tpi_blocks(tpi, None, sink);
                    Ok(())
                },
            )?);
        }
        let manifest = Manifest {
            page_size: self.page_size as u32,
            generations: vec![self.seal_generation(
                generation,
                GenKind::Base,
                shard_manifests,
                state,
            )?],
        };
        self.commit(&manifest, prev.as_ref())?;
        Ok(manifest)
    }

    /// Append everything `full` adds over the committed chain as one new
    /// delta generation: a summary-delta segment, the TPI blocks of the
    /// new timestep window, and that window's directory fragments, per
    /// shard.
    ///
    /// `full` must be a *later snapshot of the same stream* the store was
    /// written from — the method verifies this structurally (the committed
    /// chain must be an exact prefix: same config, same codebook prefix,
    /// same per-trajectory history, last committed period extended in
    /// place) and returns [`RepoError::NotAnExtension`] otherwise, in
    /// which case the caller should fall back to a full
    /// [`RepoWriter::write`].
    pub fn append(&self, full: &PpqSummary) -> Result<Manifest, RepoError> {
        self.cold_appender()
            .append_shards(std::slice::from_ref(full), None)
    }

    /// Sharded form of [`RepoWriter::append`]; the shard count must match
    /// the committed store's.
    pub fn append_sharded(&self, full: &ShardedSummary) -> Result<Manifest, RepoError> {
        self.cold_appender().append_shards(full.shards(), None)
    }

    /// An [`Appender`] that re-reads the committed chain on its one call.
    fn cold_appender(&self) -> Appender {
        Appender::with_page_size(&self.dir, self.page_size)
    }

    /// Write one shard's three segments for generation `generation`: the
    /// summary (or summary-delta) bytes under `summary_name`, the blocks
    /// `blocks` feeds its sink packed back to back onto CRC-sealed pages,
    /// and the directory `dir` records of them.
    pub(crate) fn write_segments(
        &self,
        generation: u64,
        shard: u32,
        summary_name: &str,
        summary_bytes: &[u8],
        mut dir: DirEncoder<'_>,
        blocks: &mut dyn FnMut(&mut BlockSink<'_>) -> Result<(), RepoError>,
    ) -> Result<ShardManifest, RepoError> {
        std::fs::create_dir_all(&self.dir)?;
        write_durable(&self.dir.join(summary_name), summary_bytes)?;

        // --- TPI page segment. ------------------------------------------
        // Blocks are packed back to back into page payload areas (a block
        // may span pages); the directory keys them in the same order.
        let capacity = payload_capacity(self.page_size);
        let store = PageStore::create_with_page_size(
            &self.dir.join(tpi_seg_name(generation, shard)),
            0,
            self.page_size,
        )?;
        let mut stream: Vec<u8> = Vec::new();
        blocks(&mut |period, region, t, cell, ids| {
            dir.push(period, region, t, cell, ids.len() as u32);
            for id in ids {
                stream.extend_from_slice(&id.to_le_bytes());
            }
        })?;
        for chunk in stream.chunks(capacity) {
            store.append(&Page::from_payload_with(chunk, self.page_size))?;
        }
        store.sync()?;
        let tpi_pages = store.num_pages();

        // --- Directory segment. -----------------------------------------
        let dir_bytes = dir.finish();
        write_durable(&self.dir.join(dir_seg_name(generation, shard)), &dir_bytes)?;

        Ok(ShardManifest {
            summary_len: summary_bytes.len() as u64,
            summary_crc: crc32(summary_bytes),
            dir_len: dir_bytes.len() as u64,
            dir_crc: crc32(&dir_bytes),
            tpi_pages,
        })
    }

    /// Close generation `generation` of `kind` over its shards' segments:
    /// write `state`, if any, as its state segment, fsynced before a
    /// manifest can reference it, and record its length and CRC.
    pub(crate) fn seal_generation(
        &self,
        generation: u64,
        kind: GenKind,
        shards: Vec<ShardManifest>,
        state: Option<&[u8]>,
    ) -> Result<GenManifest, RepoError> {
        let state = state.unwrap_or_default();
        if !state.is_empty() {
            write_durable(&self.dir.join(state_seg_name(generation)), state)?;
        }
        Ok(GenManifest {
            generation,
            kind,
            state_len: state.len() as u64,
            state_crc: if state.is_empty() { 0 } else { crc32(state) },
            shards,
        })
    }

    /// Commit `manifest`: temp + rename, each step fsynced. Segment files
    /// were synced as they were written, the temp manifest is synced
    /// before the rename, and the directory is synced after it so the
    /// rename itself is durable — the rename is the linearization point
    /// for power loss, not just process crashes. After the commit,
    /// segment files of generations referenced by neither the new nor the
    /// immediately previous manifest are swept (the previous chain is
    /// retained so a reader that loaded the old manifest just before our
    /// rename can still finish opening it).
    pub(crate) fn commit(
        &self,
        manifest: &Manifest,
        prev: Option<&Manifest>,
    ) -> Result<(), RepoError> {
        let tmp = self.dir.join(MANIFEST_TMP_NAME);
        write_durable(&tmp, &manifest.to_bytes())?;
        ppq_storage::fault::rename(&tmp, &self.dir.join(MANIFEST_NAME))?;
        sync_dir(&self.dir)?;
        let mut keep: HashSet<u64> = manifest.generations.iter().map(|g| g.generation).collect();
        if let Some(prev) = prev {
            keep.extend(prev.generations.iter().map(|g| g.generation));
        }
        self.sweep_unreferenced(&keep);
        Ok(())
    }

    /// Remove the segment files of every generation the committed
    /// manifest does not reference. `RepoWriter::commit` deliberately
    /// leaves the chain it replaced on disk, for a reader that loaded the
    /// old manifest just before the rename; call this only when no such
    /// reader can exist — a service shutting down — so that a superseded
    /// chain (after a compaction, larger than the live one) does not
    /// outlive the process.
    pub fn sweep_superseded(&self) -> Result<(), RepoError> {
        if let Some(manifest) = Manifest::read(&self.dir)? {
            let live = manifest.generations.iter().map(|g| g.generation);
            self.sweep_unreferenced(&live.collect());
        }
        Ok(())
    }

    /// Best-effort removal of segment files from generations not in
    /// `keep`. Failure is harmless: stale files are never referenced
    /// again.
    fn sweep_unreferenced(&self, keep: &HashSet<u64>) {
        let Ok(read) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in read.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(generation) = segment_generation(name) {
                if !keep.contains(&generation) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
    }
}

/// The generation number a repository segment file belongs to, parsed
/// from its `<prefix>-g<generation>-<shard>.<ext>` (or, for the state
/// segment, `state-g<generation>.seg`) name; `None` for non-segment
/// files (the manifest, foreign files).
fn segment_generation(name: &str) -> Option<u64> {
    let rest = ["summary-g", "sdelta-g", "tpi-g", "dir-g", "state-g"]
        .iter()
        .find_map(|p| name.strip_prefix(p))?;
    rest.split(['-', '.']).next()?.parse().ok()
}

/// A TPI period in the disk shape.
fn disk_period(period: &ppq_tpi::tpi::Period) -> DiskPeriod {
    DiskPeriod {
        t_start: period.t_start,
        t_end: period.t_end,
        regions: period
            .pi
            .regions()
            .iter()
            .map(|r| DiskRegion {
                bbox: *r.bbox(),
                grid: r.grid().clone(),
            })
            .collect(),
    }
}

/// The periods of a TPI that end past `t_hi` (all of them without), in
/// the disk shape, with the index of the first: the periods a generation
/// holding the blocks past `t_hi` records.
pub(crate) fn tpi_periods(tpi: &Tpi, t_hi: Option<u32>) -> (usize, Vec<DiskPeriod>) {
    let first = t_hi.map_or(0, |h| tpi.periods().partition_point(|p| p.t_end <= h));
    (
        first,
        tpi.periods()[first..]
            .iter()
            .map(|p| disk_period(p))
            .collect(),
    )
}

/// Feed every block of a TPI to `sink` as `(period, region, t, cell,
/// ids)` in ascending key order — the order [`ppq_tpi::Pi::for_each_block`]
/// walks each period in. With `min_exclusive_t` set, only blocks strictly
/// past that timestep are fed (the delta window).
pub(crate) fn tpi_blocks(tpi: &Tpi, min_exclusive_t: Option<u32>, sink: &mut BlockSink<'_>) {
    for (pidx, period) in tpi.periods().iter().enumerate() {
        if min_exclusive_t.is_some_and(|t_hi| period.t_end <= t_hi) {
            continue; // entirely inside the committed horizon
        }
        period
            .pi
            .for_each_block(min_exclusive_t, |region, t, cell, ids| {
                sink(pidx as u32, region, t, cell, ids)
            });
    }
}

/// Verify the current TPI extends the committed chain's period table in
/// place: every sealed period bit-identical, and the last one with the
/// same start, its end not moved backwards and every committed region
/// unchanged — regions only appended. The index-side mirror of the
/// summary's prefix check (`summary_io::delta_to_bytes`), which does not
/// see the index's own configuration.
pub(crate) fn check_period_extension(stored: &[DiskPeriod], tpi: &Tpi) -> Result<(), RepoError> {
    let last = stored.len().saturating_sub(1);
    let extended = stored.len() <= tpi.periods().len()
        && stored
            .iter()
            .zip(tpi.periods())
            .enumerate()
            .all(|(i, (s, p))| {
                let p = disk_period(p);
                let sealed_as_committed = p.t_end == s.t_end && p.regions.len() == s.regions.len();
                p.extends(s) && (i == last || sealed_as_committed)
            });
    if extended {
        Ok(())
    } else {
        Err(RepoError::NotAnExtension(
            "TPI periods: the committed period table is not extended in place".to_string(),
        ))
    }
}

/// Write `bytes` to `path` and fsync before returning, so the data is on
/// stable storage before anything references the file. Routed through
/// the [`ppq_storage::fault`] layer so torn-write and crash-anywhere
/// tests can target every durable step of a commit.
fn write_durable(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    ppq_storage::fault::write_all(&mut f, bytes)?;
    ppq_storage::fault::sync_all(&f)
}

/// Fsync a directory so a completed rename survives power loss.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    ppq_storage::fault::sync_all(&std::fs::File::open(dir)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_generation_parsing() {
        assert_eq!(segment_generation("summary-g7-0.seg"), Some(7));
        assert_eq!(segment_generation("sdelta-g12-3.seg"), Some(12));
        assert_eq!(segment_generation("tpi-g1-0.pages"), Some(1));
        assert_eq!(segment_generation("dir-g400-11.seg"), Some(400));
        assert_eq!(segment_generation("state-g9.seg"), Some(9));
        assert_eq!(segment_generation("state-g.seg"), None);
        assert_eq!(segment_generation("MANIFEST.ppq"), None);
        assert_eq!(segment_generation("MANIFEST.ppq.tmp"), None);
        assert_eq!(segment_generation("summary-gX-0.seg"), None);
        assert_eq!(segment_generation("notes.txt"), None);
    }
}
