//! The reopened repository: validated segments, lazily paged TPI blocks
//! behind one shared buffer pool, and the block-level read primitives the
//! disk query engine drives.
//!
//! A store may hold several live *generations* (one base + appended
//! deltas); [`Repo::open`] stitches them into one logical view — the
//! summary chain is reassembled (`core::summary_io::apply_delta`) and
//! verified against the writer's recorded CRC, the newest generation's
//! period/region table becomes *the* table, and the per-generation block
//! directories are merged newest-wins into one sorted directory whose
//! entries carry the index of the page segment that holds them. The query
//! engine is oblivious to generations: it sees one summary, one period
//! table, one directory.

use crate::dir::{
    decode_dir_segment, locate_region, merge_overlay, period_of, BlockDirectory, BlockMeta,
    DiskPeriod,
};
use crate::layout::{
    dir_seg_name, read_verified, sdelta_seg_name, summary_seg_name, tpi_seg_name, GenKind,
    GenManifest, Manifest, RepoError, MANIFEST_NAME,
};
use crate::writer::RepoWriter;
use ppq_core::summary_io;
use ppq_core::{PpqSummary, ShardRouter, ShardedSummary};
use ppq_geo::Point;
use ppq_storage::{crc32, IoStats, PageRequest, PinnedPages, Segment, SharedBufferPool};
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
        let sm = &gen.shards[shard];
        let g = gen.generation;
        match gen.kind {
            GenKind::Base => {
                let bytes = read_verified(
                    &dir.join(summary_seg_name(g, shard as u32)),
                    g,
                    shard as u32,
                    sm.summary_len,
                    sm.summary_crc,
                )?;
                // The disk TPI replaces the in-memory index: decode
                // without rebuilding it.
                summary = Some(summary_io::from_bytes(&bytes, false)?);
            }
            GenKind::Delta => {
                let bytes = read_verified(
                    &dir.join(sdelta_seg_name(g, shard as u32)),
                    g,
                    shard as u32,
                    sm.summary_len,
                    sm.summary_crc,
                )?;
                let s = summary.as_mut().expect("manifest validated: base first");
                final_crc = Some(summary_io::apply_delta(s, &bytes)?);
            }
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

/// One shard of an open repository: the stitched (in-memory) summary, the
/// newest period/region structure, the merged block directory, and the
/// page segments — one per live generation — the blocks are paged in
/// from.
pub struct ShardStore {
    summary: PpqSummary,
    periods: Vec<DiskPeriod>,
    directory: BlockDirectory,
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
        &self.periods
    }

    #[inline]
    pub fn directory(&self) -> &BlockDirectory {
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
        period_of(&self.periods, t)
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
        let total = meta.n_ids as usize * 4;
        scratch.clear();
        let mut page = meta.page;
        let mut offset = meta.offset as usize;
        while scratch.len() < total {
            let p = segment.read(page, stats)?;
            let payload = p.payload();
            let take = (total - scratch.len()).min(payload.len() - offset);
            scratch.extend_from_slice(&payload[offset..offset + take]);
            page += 1;
            offset = 0;
        }
        out.extend(
            scratch
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap())),
        );
        Ok(())
    }

    /// Resolve every page the planned `metas` span in **one** pool batch:
    /// hits are pinned immediately, all misses go to the I/O backend as
    /// one overlapped submission. Duplicate pages (adjacent blocks on one
    /// page, multi-page blocks overlapping) are deduplicated by the pool,
    /// so `stats` is charged exactly one attempt per *unique* page. The
    /// returned guard keeps the batch's frames pinned — a concurrent
    /// query cannot evict this query's working set mid-decode.
    pub fn fetch_blocks<'s>(
        &'s self,
        metas: &[BlockMeta],
        stats: &IoStats,
    ) -> std::io::Result<PinnedPages<'s>> {
        let mut requests: Vec<PageRequest<'s>> = Vec::with_capacity(metas.len());
        for meta in metas {
            let segment = &self.segments[meta.seg as usize];
            let total = meta.n_ids as u64 * 4;
            let n_pages = (meta.offset as u64 + total).div_ceil(self.payload_capacity as u64);
            for page in meta.page..meta.page + n_pages {
                requests.push(PageRequest { segment, page });
            }
        }
        let pool: &'s SharedBufferPool = self.segments[0].pool();
        pool.fetch_batch(&requests, stats)
    }

    /// Decode one planned block out of an already-fetched batch — the
    /// second half of plan-then-fetch, no I/O. The bytes are identical to
    /// what [`ShardStore::read_block_into`] pages in one-at-a-time; a
    /// page missing from the batch (a plan the fetch didn't cover) is a
    /// typed error, never a silently short answer.
    pub fn decode_block_from(
        &self,
        meta: &BlockMeta,
        pages: &PinnedPages<'_>,
        scratch: &mut Vec<u8>,
        out: &mut Vec<u32>,
    ) -> std::io::Result<()> {
        let seg_id = self.segments[meta.seg as usize].seg_id();
        let total = meta.n_ids as usize * 4;
        scratch.clear();
        let mut page = meta.page;
        let mut offset = meta.offset as usize;
        while scratch.len() < total {
            let Some(p) = pages.get(seg_id, page) else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("segment {seg_id} page {page} absent from fetched batch"),
                ));
            };
            let payload = p.payload();
            let take = (total - scratch.len()).min(payload.len() - offset);
            scratch.extend_from_slice(&payload[offset..offset + take]);
            page += 1;
            offset = 0;
        }
        out.extend(
            scratch
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap())),
        );
        Ok(())
    }

    /// Single-cell STRQ probe against this shard: locate the period and
    /// region in memory, binary-search the block directory, and page in
    /// exactly that block — the disk mirror of `Pi::query`, and the
    /// directed counterpart of `DiskTpi::query`'s page-run scan.
    pub fn query_cell(
        &self,
        t: u32,
        p: &Point,
        stats: &IoStats,
        scratch: &mut Vec<u8>,
        out: &mut Vec<u32>,
    ) -> std::io::Result<()> {
        let Some((pidx, period)) = self.period_of(t) else {
            return Ok(());
        };
        let Some(ri) = locate_region(period, p) else {
            return Ok(());
        };
        let grid = &period.regions[ri].grid;
        let (cx, cy) = grid.locate_clamped(p);
        let cell = grid.flat(cx, cy) as u32;
        if let Some(meta) = self.directory.block(pidx as u32, ri as u32, t, cell) {
            self.read_block_into(&meta, stats, scratch, out)?;
        }
        Ok(())
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
    /// pages, and every generation's block addresses must fall inside its
    /// segment. Chains with deltas are additionally verified end to end:
    /// the reassembled summary must re-serialize to the CRC the last
    /// append recorded. Data pages themselves are verified lazily (CRC
    /// trailer on page-in). A stale `MANIFEST.ppq.tmp` from a crashed
    /// write is ignored.
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
            let mut dirs: Vec<BlockDirectory> = Vec::with_capacity(manifest.generations.len());
            let mut periods: Vec<DiskPeriod> = Vec::new();
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
                let (gen_periods, gen_dir) = decode_dir_segment(&dir_bytes)?;
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
                gen_dir
                    .validate_geometry(capacity, segment.num_pages())
                    .map_err(|what| {
                        RepoError::Corrupt(format!("shard {s} generation {g}: {what}"))
                    })?;
                // The newest generation's period table is the logical one
                // (older tables are structural prefixes of it).
                periods = gen_periods;
                segments.push(segment);
                dirs.push(gen_dir);
            }
            let directory = merge_overlay(&periods, dirs)?;
            shards.push(ShardStore {
                summary,
                periods,
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

    /// Fan a single-cell STRQ probe out over every shard, unioning the
    /// per-shard block answers (sorted, deduplicated). Charges `stats`
    /// one page-in per block page touched — the workload
    /// `tests/persistence.rs` compares against `DiskTpi`'s period-run scan.
    /// (Only `stats` is charged; callers roll into [`Repo::io_stats`]
    /// with [`IoStats::absorb`] if they want the cumulative view.)
    pub fn query_cell(&self, t: u32, p: &Point, stats: &IoStats) -> std::io::Result<Vec<u32>> {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        for shard in &self.shards {
            shard.query_cell(t, p, stats, &mut scratch, &mut out)?;
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// Collapse the live generation chain into one fresh *base*
    /// generation — and, with `target_shards`, re-shard the store from
    /// `S` to `S′` in the same pass.
    ///
    /// Same shard count (the common maintenance compaction): each shard's
    /// stitched summary is re-serialized as a full snapshot and every
    /// live block is copied out of the merged directory into one densely
    /// packed page segment, in directory order — no quantization, no
    /// index rebuild, answers bit-identical to the pre-compaction view
    /// (the stitched store *is* the single-shot layout already; this
    /// merely materializes it).
    ///
    /// Re-sharding (`target_shards = Some(S′)`, `S′ ≠ S`): trajectories
    /// are redistributed by `ShardRouter::new(S′)` with their encodings
    /// kept bit-for-bit (`ShardedSummary::reshard` concatenates the old
    /// codebooks/coefficient tables and remaps indices), and each new
    /// shard's TPI is rebuilt over its reconstructed stream. Query
    /// answers — STRQ at every level and TPQ payload bits — are invariant
    /// (reconstructions are unchanged and the local-search protocol is
    /// index-shape-independent); only global codebooks support this, per
    /// [`ppq_core::ReshardError`].
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
        let committed = writer
            .committed_manifest()?
            .ok_or_else(|| RepoError::Stale("manifest disappeared since open".to_string()))?;
        if committed != self.manifest {
            return Err(RepoError::Stale(format!(
                "store advanced to generation {} since this view (generation {}) was \
                 opened; reopen before compacting",
                committed.generation(),
                self.manifest.generation()
            )));
        }
        let prev = self.manifest.clone();
        let generation = prev.generation() + 1;
        let mut shard_manifests = Vec::new();
        match target_shards.filter(|&s| s != self.num_shards()) {
            None => {
                for (i, shard) in self.shards.iter().enumerate() {
                    let summary_bytes = summary_io::to_bytes(shard.summary());
                    let stats = IoStats::default();
                    let (mut scratch, mut ids) = (Vec::new(), Vec::new());
                    shard_manifests.push(writer.write_segments(
                        generation,
                        i as u32,
                        &summary_seg_name(generation, i as u32),
                        &summary_bytes,
                        &shard.periods,
                        &mut |sink| {
                            for (p, r, t, c, meta) in shard.directory.entries() {
                                ids.clear();
                                shard.read_block_into(&meta, &stats, &mut scratch, &mut ids)?;
                                sink(p, r, t, c, &ids);
                            }
                            Ok(())
                        },
                    )?);
                    self.stats.absorb(&stats);
                }
            }
            Some(s2) => {
                let merged = ShardedSummary::from_shards(
                    self.shards.iter().map(|s| s.summary.clone()).collect(),
                );
                let resharded = merged
                    .reshard(s2)
                    .map_err(|e| RepoError::Unsupported(e.to_string()))?;
                for (i, mut summary) in resharded.into_shards().into_iter().enumerate() {
                    summary.rebuild_index();
                    let tpi = summary.tpi().expect("just rebuilt");
                    let summary_bytes = summary_io::to_bytes(&summary);
                    shard_manifests.push(writer.write_segments(
                        generation,
                        i as u32,
                        &summary_seg_name(generation, i as u32),
                        &summary_bytes,
                        &crate::writer::tpi_periods(tpi),
                        &mut |sink| {
                            crate::writer::tpi_blocks(tpi, None, sink);
                            Ok(())
                        },
                    )?);
                }
            }
        }
        let manifest = Manifest {
            page_size: self.page_size() as u32,
            generations: vec![GenManifest {
                generation,
                kind: GenKind::Base,
                shards: shard_manifests,
            }],
        };
        writer.commit(&manifest, Some(&prev))?;
        Ok(manifest)
    }
}
