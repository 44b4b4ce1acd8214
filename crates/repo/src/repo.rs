//! The reopened repository: validated segments, lazily paged TPI blocks
//! behind one shared buffer pool, and the block-level read primitives the
//! disk query engine drives.
//!
//! A store may hold several live *generations* (one base + appended
//! deltas); [`Repo::open`] stitches them into one logical view — the
//! summary chain is reassembled (`core::summary_io::apply_delta`) and
//! verified against the writer's recorded CRC, and the generations'
//! directory fragments, which partition time, are stitched into one
//! [`Directory`]: the period table as the newest fragment of each period
//! records it, and per period the fragments that key its timesteps, each
//! addressing its own generation's page segment. The query engine is
//! oblivious to generations: it sees one summary, one period table, one
//! directory.

use crate::dir::{decode_dir_segment, BlockMeta, DirEncoder, Directory, DiskPeriod};
use crate::layout::{
    dir_seg_name, read_verified, sdelta_seg_name, state_seg_name, summary_seg_name, tpi_seg_name,
    GenKind, Manifest, RepoError, MANIFEST_NAME,
};
use crate::writer::RepoWriter;
use ppq_core::summary_io;
use ppq_core::{PpqSummary, ShardRouter, ShardedSummary};
use ppq_storage::{crc32, FetchedPages, IoStats, Page, PageRequest, Segment, SharedBufferPool};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Reassemble one shard's logical summary from the manifest's generation
/// chain: decode the base snapshot, apply every delta in order, and — when
/// the chain has deltas — prove the result equals the writer's summary by
/// re-serializing and comparing against the final delta's recorded CRC-32
/// of the full summary. Shared by [`Repo::open`] and the writer's append
/// path (which diffs the next snapshot against exactly this view).
pub(crate) fn load_shard_summary(
    dir: &Path,
    manifest: &Manifest,
    shard: usize,
) -> Result<PpqSummary, RepoError> {
    let mut summary: Option<PpqSummary> = None;
    let mut final_crc: Option<u32> = None;
    for gen in &manifest.generations {
        let (sm, g, s) = (&gen.shards[shard], gen.generation, shard as u32);
        let name = match gen.kind {
            GenKind::Base => summary_seg_name(g, s),
            GenKind::Delta => sdelta_seg_name(g, s),
        };
        let bytes = read_verified(&dir.join(name), g, s, sm.summary_len, sm.summary_crc)?;
        match summary.as_mut() {
            // The disk TPI replaces the in-memory index: decode without
            // rebuilding it.
            None => summary = Some(summary_io::from_bytes(&bytes, false)?),
            Some(chain) => final_crc = Some(summary_io::apply_delta(chain, &bytes)?),
        }
    }
    let summary = summary.expect("manifest validated: at least one generation");
    if let Some(crc) = final_crc {
        // End-to-end proof that the reassembled chain is the summary the
        // writer appended from — any violated prefix assumption upstream
        // (however it got past the writer) surfaces here as corruption,
        // never as silently different query answers.
        if crc32(&summary_io::to_bytes(&summary)) != crc {
            return Err(RepoError::Corrupt(format!(
                "shard {shard}: reassembled summary chain does not match the \
                 writer's summary (final delta CRC mismatch)"
            )));
        }
    }
    Ok(summary)
}

/// The newest generation's state segment, verified against the
/// manifest's recorded length and CRC (a mismatch reports shard 0);
/// `None` when that generation carries no state.
fn read_state(dir: &Path, manifest: &Manifest) -> Result<Option<Vec<u8>>, RepoError> {
    let newest = manifest.newest();
    if newest.state_len == 0 {
        return Ok(None);
    }
    let g = newest.generation;
    let path = dir.join(state_seg_name(g));
    read_verified(&path, g, 0, newest.state_len, newest.state_crc).map(Some)
}

/// Shard `shard`'s committed period table, as its chain's directory
/// fragments record it: each fragment either extends the last period or
/// adds the next. The next delta is checked against it and starts past
/// its last period's end.
pub(crate) fn read_periods(
    dir: &Path,
    manifest: &Manifest,
    shard: usize,
) -> Result<Vec<DiskPeriod>, RepoError> {
    let mut periods: Vec<DiskPeriod> = Vec::new();
    for gen in &manifest.generations {
        let (sm, g, s) = (&gen.shards[shard], gen.generation, shard as u32);
        let bytes = read_verified(&dir.join(dir_seg_name(g, s)), g, s, sm.dir_len, sm.dir_crc)?;
        for f in decode_dir_segment(&bytes)?.fragments {
            let p = f.period as usize;
            if p > periods.len() || p + 1 < periods.len() {
                return Err(RepoError::Corrupt(format!(
                    "shard {shard}: generation {g} records period {p} out of sequence"
                )));
            }
            periods.truncate(p);
            periods.push(f.extent);
        }
    }
    Ok(periods)
}

/// What resuming a live stream needs of a committed chain: the manifest,
/// each shard's stitched summary, and the newest generation's verified
/// state bytes. The summaries are what an [`crate::Appender`] diffs the
/// next delta against, so recovery hands them over
/// ([`crate::Appender::from_chain`]). Read without opening any directory
/// or page segment.
pub struct ChainState {
    pub manifest: Manifest,
    pub summaries: Vec<PpqSummary>,
    /// `None` when the newest generation carries no state (a store a
    /// batch writer wrote).
    pub state: Option<Vec<u8>>,
}

impl ChainState {
    /// Read the chain at `dir`; `None` when it has no committed manifest.
    pub fn read(dir: &Path) -> Result<Option<ChainState>, RepoError> {
        let Some(manifest) = Manifest::read(dir)? else {
            return Ok(None);
        };
        let summaries = (0..manifest.num_shards())
            .map(|s| load_shard_summary(dir, &manifest, s))
            .collect::<Result<_, _>>()?;
        let state = read_state(dir, &manifest)?;
        Ok(Some(ChainState {
            manifest,
            summaries,
            state,
        }))
    }
}

/// Append one block's trajectory IDs to `out`, staging its bytes in
/// `scratch` and taking each page it spans from `page`.
fn collect_block<P: AsRef<Page>>(
    meta: &BlockMeta,
    scratch: &mut Vec<u8>,
    out: &mut Vec<u32>,
    mut page: impl FnMut(u64) -> std::io::Result<P>,
) -> std::io::Result<()> {
    let total = meta.n_ids as usize * 4;
    scratch.clear();
    let (mut at, mut offset) = (meta.page, meta.offset as usize);
    while scratch.len() < total {
        let p = page(at)?;
        let payload = p.as_ref().payload();
        let take = (total - scratch.len()).min(payload.len() - offset);
        scratch.extend_from_slice(&payload[offset..offset + take]);
        at += 1;
        offset = 0;
    }
    out.extend(
        scratch
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap())),
    );
    Ok(())
}

/// One shard of an open repository: the stitched (in-memory) summary, the
/// stitched directory, and the page segments — one per live generation —
/// the blocks are paged in from.
pub struct ShardStore {
    summary: PpqSummary,
    directory: Directory,
    /// Page segments in generation-chain order; a [`BlockMeta::seg`]
    /// indexes this list.
    segments: Vec<Segment>,
    payload_capacity: usize,
}

impl ShardStore {
    #[inline]
    pub fn summary(&self) -> &PpqSummary {
        &self.summary
    }

    #[inline]
    pub fn periods(&self) -> &[DiskPeriod] {
        self.directory.periods()
    }

    #[inline]
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// The page segments backing this shard, oldest generation first.
    #[inline]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The period covering `t`, with its index (the directory's period
    /// key), if any.
    #[inline]
    pub fn period_of(&self, t: u32) -> Option<(usize, &DiskPeriod)> {
        self.directory.period_of(t)
    }

    /// Read one block's trajectory IDs, appending to `out`. Pages in only
    /// the `⌈(offset + 4·n_ids) / capacity⌉ − ⌊offset / capacity⌋` pages
    /// the block actually touches — from the generation segment the
    /// directory routed it to. I/O is charged to `stats` (pool hits are
    /// not I/Os); `scratch` is a reusable byte staging buffer.
    pub fn read_block_into(
        &self,
        meta: &BlockMeta,
        stats: &IoStats,
        scratch: &mut Vec<u8>,
        out: &mut Vec<u32>,
    ) -> std::io::Result<()> {
        let segment = &self.segments[meta.seg as usize];
        collect_block(meta, scratch, out, |page| segment.read(page, stats))
    }

    /// Resolve every page the planned `metas` span in **one** pool batch:
    /// hits are touched first, then each miss is read and CRC-verified in
    /// plan order. Duplicate pages (adjacent blocks on one page,
    /// multi-page blocks overlapping) are deduplicated by the pool, so
    /// `stats` is charged exactly one attempt per *unique* page. The
    /// returned map owns its pages, so a concurrent query evicting their
    /// frames cannot disturb this query's decode.
    pub fn fetch_blocks(
        &self,
        metas: &[BlockMeta],
        stats: &IoStats,
    ) -> std::io::Result<FetchedPages> {
        let mut requests: Vec<PageRequest<'_>> = Vec::with_capacity(metas.len());
        for meta in metas {
            let segment = &self.segments[meta.seg as usize];
            let total = meta.n_ids as u64 * 4;
            let n_pages = (meta.offset as u64 + total).div_ceil(self.payload_capacity as u64);
            for page in meta.page..meta.page + n_pages {
                requests.push(PageRequest { segment, page });
            }
        }
        self.segments[0].pool().fetch_batch(&requests, stats)
    }

    /// Decode one planned block out of an already-fetched batch — the
    /// second half of plan-then-fetch, no I/O. The bytes are identical to
    /// what [`ShardStore::read_block_into`] pages in one-at-a-time; a
    /// page missing from the batch (a plan the fetch didn't cover) is a
    /// typed error, never a silently short answer.
    pub fn decode_block_from(
        &self,
        meta: &BlockMeta,
        pages: &FetchedPages,
        scratch: &mut Vec<u8>,
        out: &mut Vec<u32>,
    ) -> std::io::Result<()> {
        let seg_id = self.segments[meta.seg as usize].seg_id();
        collect_block(meta, scratch, out, |page| {
            pages.get(&(seg_id, page)).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("segment {seg_id} page {page} absent from fetched batch"),
                )
            })
        })
    }

    #[inline]
    pub fn payload_capacity(&self) -> usize {
        self.payload_capacity
    }
}

/// An open, validated repository.
pub struct Repo {
    dir: PathBuf,
    manifest: Manifest,
    shards: Vec<ShardStore>,
    router: ShardRouter,
    pool: Arc<SharedBufferPool>,
    /// Cumulative I/O across the repository's lifetime (per-query counts
    /// are taken by the engine and absorbed here).
    stats: IoStats,
}

impl Repo {
    /// Open the repository at `dir` with a shared buffer pool of
    /// `pool_pages` frames (0 disables caching — every block read is a
    /// real page I/O).
    ///
    /// Validation: the manifest must parse and checksum; every shard's
    /// summary/summary-delta and directory segments — of every live
    /// generation — must match their manifest-recorded length and CRC;
    /// every TPI page segment must hold exactly the recorded number of
    /// pages, and exactly as many as its generation's directory lists IDs
    /// for; the generations' directory fragments must partition time.
    /// Chains with deltas are additionally verified end to end: the
    /// reassembled summary must re-serialize to the CRC the last append
    /// recorded. Data pages themselves are verified lazily (CRC trailer on
    /// page-in). A stale `MANIFEST.ppq.tmp` from a crashed write is
    /// ignored.
    pub fn open(dir: &Path, pool_pages: usize) -> Result<Repo, RepoError> {
        let manifest_bytes = std::fs::read(dir.join(MANIFEST_NAME))?;
        let manifest = Manifest::from_bytes(&manifest_bytes)?;
        let pool = SharedBufferPool::new(pool_pages);
        let page_size = manifest.page_size as usize;
        let capacity = ppq_storage::payload_capacity(page_size);
        let mut shards = Vec::with_capacity(manifest.num_shards());
        for s in 0..manifest.num_shards() {
            let summary = load_shard_summary(dir, &manifest, s)?;
            let mut segments: Vec<Segment> = Vec::with_capacity(manifest.generations.len());
            let mut generations = Vec::with_capacity(manifest.generations.len());
            for (gi, gen) in manifest.generations.iter().enumerate() {
                let sm = &gen.shards[s];
                let g = gen.generation;
                let dir_bytes = read_verified(
                    &dir.join(dir_seg_name(g, s as u32)),
                    g,
                    s as u32,
                    sm.dir_len,
                    sm.dir_crc,
                )?;
                let fragments = decode_dir_segment(&dir_bytes)?;
                // Frames are keyed per (generation, shard): two
                // generations' page 0 must never collide in the pool.
                let segment = Segment::open(
                    &dir.join(tpi_seg_name(g, s as u32)),
                    ((gi as u64) << 32) | s as u64,
                    page_size,
                    Arc::clone(&pool),
                )?;
                if segment.num_pages() != sm.tpi_pages {
                    return Err(RepoError::Corrupt(format!(
                        "shard {s} generation {g}: TPI segment has {} pages, manifest says {}",
                        segment.num_pages(),
                        sm.tpi_pages
                    )));
                }
                generations.push((fragments, segment.num_pages()));
                segments.push(segment);
            }
            let directory = Directory::stitch(capacity, generations).map_err(|(gi, what)| {
                let g = manifest.generations[gi].generation;
                RepoError::Corrupt(format!("shard {s} generation {g}: {what}"))
            })?;
            shards.push(ShardStore {
                summary,
                directory,
                segments,
                payload_capacity: capacity,
            });
        }
        let router = ShardRouter::new(shards.len());
        Ok(Repo {
            dir: dir.to_path_buf(),
            manifest,
            shards,
            router,
            pool,
            stats: IoStats::default(),
        })
    }

    #[inline]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    #[inline]
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Number of live generations in the chain this view was opened from.
    #[inline]
    pub fn num_generations(&self) -> usize {
        self.manifest.generations.len()
    }

    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    pub fn shards(&self) -> &[ShardStore] {
        &self.shards
    }

    #[inline]
    pub fn shard(&self, i: usize) -> &ShardStore {
        &self.shards[i]
    }

    #[inline]
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    #[inline]
    pub fn page_size(&self) -> usize {
        self.manifest.page_size as usize
    }

    #[inline]
    pub fn pool(&self) -> &Arc<SharedBufferPool> {
        &self.pool
    }

    /// Cumulative I/O counters (per-query counts are absorbed here by
    /// the engine).
    #[inline]
    pub fn io_stats(&self) -> &IoStats {
        &self.stats
    }

    /// Evict every pooled page (cold-start a measurement).
    pub fn clear_cache(&self) {
        self.pool.clear();
    }

    /// Total data pages across shards and generations.
    pub fn total_pages(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| s.segments.iter())
            .map(Segment::num_pages)
            .sum()
    }

    /// On-disk footprint of the data pages plus the resident directory.
    pub fn size_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.segments.iter().map(Segment::size_bytes).sum::<u64>()
                    + s.directory.size_bytes() as u64
            })
            .sum()
    }

    /// Collapse the live generation chain into one fresh *base*
    /// generation — and, with `target_shards`, re-shard the store from
    /// `S` to `S′` in the same pass.
    ///
    /// Same shard count (the common maintenance compaction): each shard's
    /// stitched summary is re-serialized as a full snapshot and every
    /// block is copied into one densely packed page segment in
    /// `(period, region, t, cell)` order, each period's fragments merged
    /// into one — no quantization, no
    /// index rebuild, answers bit-identical to the pre-compaction view
    /// (the stitched store *is* the single-shot layout already; this
    /// merely materializes it). The newest generation's pipeline state,
    /// if it carries one, is copied into the new base unchanged: the
    /// summaries it resumes from are unchanged too.
    ///
    /// Re-sharding (`target_shards = Some(S′)`, `S′ ≠ S`): trajectories
    /// are redistributed by `ShardRouter::new(S′)` with their encodings
    /// kept bit-for-bit (`ShardedSummary::reshard` concatenates the old
    /// codebooks/coefficient tables and remaps indices), and each new
    /// shard's TPI is rebuilt over its reconstructed stream. Query
    /// answers — STRQ at every level and TPQ payload bits — are invariant
    /// (reconstructions are unchanged and the local-search protocol is
    /// index-shape-independent); only global codebooks support this, per
    /// [`ppq_core::ReshardError`]. A chain that carries pipeline state
    /// cannot be re-sharded — the state is per shard — and returns
    /// [`RepoError::Unsupported`].
    ///
    /// Crash-safe like every write: the new generation is written under
    /// fresh names and committed with the temp + rename + fsync manifest
    /// swap; superseded segments are swept only after the commit (the
    /// immediately previous chain is retained for in-flight readers — the
    /// *next* committed write removes it). This `Repo` keeps serving its
    /// pre-compaction view; reopen to serve the compacted one.
    ///
    /// If the store on disk advanced past this view (a writer committed
    /// after `open`), compacting would silently discard the newer
    /// generations — the committed manifest is re-read first and a
    /// mismatch returns [`RepoError::Stale`] before anything is written.
    pub fn compact(&self, target_shards: Option<usize>) -> Result<Manifest, RepoError> {
        let writer = RepoWriter::with_page_size(&self.dir, self.page_size());
        // Compaction rewrites the *whole* logical store from this view;
        // committing it against a manifest that has since advanced would
        // drop the newer generations (and the fresh generation number
        // could collide with committed segment names). Require the
        // committed chain to still be the one this view was opened from.
        let committed = Manifest::read(&self.dir)?
            .ok_or_else(|| RepoError::Stale("manifest disappeared since open".to_string()))?;
        if committed != self.manifest {
            return Err(RepoError::Stale(format!(
                "store advanced to generation {} since this view (generation {}) was \
                 opened; reopen before compacting",
                committed.generation(),
                self.manifest.generation()
            )));
        }
        if let Some(s2) = target_shards.filter(|&s| s != self.num_shards()) {
            if self.manifest.newest().state_len > 0 {
                return Err(RepoError::Unsupported(
                    "re-sharding a store that carries per-shard pipeline state".to_string(),
                ));
            }
            let merged = ShardedSummary::from_shards(
                self.shards.iter().map(|s| s.summary.clone()).collect(),
            );
            let mut resharded = merged
                .reshard(s2)
                .map_err(|e| RepoError::Unsupported(e.to_string()))?
                .into_shards();
            resharded.iter_mut().for_each(PpqSummary::rebuild_index);
            return writer.write_shards(&resharded, None);
        }
        let state = read_state(&self.dir, &self.manifest)?;
        let generation = self.manifest.generation() + 1;
        let mut shard_manifests = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let summary_bytes = summary_io::to_bytes(shard.summary());
            let stats = IoStats::default();
            let (mut scratch, mut ids) = (Vec::new(), Vec::new());
            shard_manifests.push(writer.write_segments(
                generation,
                i as u32,
                &summary_seg_name(generation, i as u32),
                &summary_bytes,
                DirEncoder::new(0, shard.periods(), None),
                &mut |sink| {
                    shard.directory.try_for_each_block(|p, r, t, c, meta| {
                        ids.clear();
                        shard.read_block_into(&meta, &stats, &mut scratch, &mut ids)?;
                        sink(p, r, t, c, &ids);
                        Ok(())
                    })
                },
            )?);
            self.stats.absorb(&stats);
        }
        let manifest = Manifest {
            page_size: self.page_size() as u32,
            generations: vec![writer.seal_generation(
                generation,
                GenKind::Base,
                shard_manifests,
                state.as_deref(),
            )?],
        };
        writer.commit(&manifest, Some(&self.manifest))?;
        Ok(manifest)
    }
}
