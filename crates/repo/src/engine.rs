//! STRQ/TPQ served directly from an open repository.
//!
//! There is no disk query algorithm: [`DiskQueryEngine`] is
//! `ppq_core::query::QueryEngine` over the posting source defined here. A
//! [`ShardStore`] answers a rectangle probe from its directory, whose
//! fragments key exactly the posting dictionary cells the in-memory `Pi`
//! holds and which it walks with the in-memory index's own sealed slice
//! walk (`ppq_tpi::SealedSlice::walk`) — identical postings in, identical
//! answers out.
//!
//! I/O accounting follows Table 9: a buffer-pool hit is not an I/O. Every
//! query runs against its workspace's own [`IoStats`] counter (exposed as
//! `DiskQueryWorkspace::last_io`) and is then absorbed into the
//! repository's cumulative counter, so both per-query and per-batch
//! page-in numbers fall out of one mechanism.

use crate::dir::BlockMeta;
use crate::repo::{Repo, ShardStore};
use ppq_core::query::{PostingSource, QueryEngine, QueryTarget, ShardSet, Workspace};
use ppq_core::PpqSummary;
use ppq_geo::{BBox, Point};
use ppq_sindex::posting;
use ppq_storage::IoStats;
use ppq_traj::Dataset;
use std::io;
use std::ops::Deref;
use std::sync::OnceLock;

/// Registry handles for the disk query layer, resolved once so the
/// per-query path touches only atomics. Separate histograms from the
/// in-memory engines (`ppq_strq_ns`): a paged query's latency profile is
/// a different population and folding them together would hide pool
/// regressions.
struct DiskQueryMetrics {
    strq_ns: ppq_obs::Histogram,
    tpq_ns: ppq_obs::Histogram,
    pages_read: ppq_obs::Counter,
}

fn disk_metrics() -> &'static DiskQueryMetrics {
    static METRICS: OnceLock<DiskQueryMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = ppq_obs::Registry::global();
        DiskQueryMetrics {
            strq_ns: r.histogram("ppq_disk_strq_ns"),
            tpq_ns: r.histogram("ppq_disk_tpq_ns"),
            pages_read: r.counter("ppq_query_pages_read"),
        }
    })
}

/// Per-thread probe state of the disk source: the posting union
/// machinery, the block staging buffers, and the per-query I/O counter.
#[derive(Default)]
pub struct DiskProbe {
    set: posting::IdBitSet,
    ids: Vec<u32>,
    /// Byte staging for block decodes.
    block: Vec<u8>,
    /// Every directory block the current rect probe touches, collected
    /// *before* any page is read.
    plan: Vec<BlockMeta>,
    io: IoStats,
}

/// Reusable per-thread state for disk query evaluation.
pub type DiskQueryWorkspace = Workspace<DiskProbe>;

/// One repository shard as a posting source — bit-identical to
/// `Tpi::query_rect_into` on the in-memory index of the same summary.
impl PostingSource for ShardStore {
    type Recon = PpqSummary;
    type Probe = DiskProbe;
    type Error = io::Error;
    type Ret<T> = io::Result<T>;

    fn recon_index(&self) -> &PpqSummary {
        self.summary()
    }

    fn ret<T>(result: io::Result<T>) -> io::Result<T> {
        result
    }

    /// Plan-then-fetch. *Plan*: the directory walk alone — candidate
    /// regions by bbox intersection, then the sealed slice walk over the
    /// keys of the fragment covering `t`, addressing every surviving block
    /// from its list boundaries; no page is touched. *Fetch*: resolve the
    /// plan's whole page set in one pool batch. *Decode*: every block out
    /// of the fetched pages, which the batch owns whether or not their
    /// frames stay resident. Read order does not matter — the bitset
    /// union and sorted drain fix the output.
    fn postings(
        &self,
        t: u32,
        rect: &BBox,
        _dataset: &Dataset,
        probe: &mut DiskProbe,
        out: &mut Vec<u32>,
    ) -> io::Result<()> {
        let Some((pidx, period)) = self.period_of(t) else {
            return Ok(());
        };
        let Some(fragment) = self.directory().fragment(pidx, t) else {
            return Ok(());
        };
        probe.plan.clear();
        for (ri, region) in period.regions.iter().enumerate() {
            if !region.bbox.intersects(rect) {
                continue;
            }
            let Some(slice) = fragment.slice(ri, t, &region.grid) else {
                continue;
            };
            let Some(range) = region.grid.cell_range_in_rect(rect) else {
                continue;
            };
            slice.walk(&region.grid, range, |i, _, _| {
                probe.plan.push(fragment.meta(i))
            });
        }
        if probe.plan.is_empty() {
            return Ok(());
        }
        let pages = self.fetch_blocks(&probe.plan, &probe.io)?;
        let decoded = probe.plan.iter().try_for_each(|meta| {
            probe.ids.clear();
            self.decode_block_from(meta, &pages, &mut probe.block, &mut probe.ids)?;
            probe.set.insert_all(&probe.ids);
            Ok(())
        });
        // Drained on failure too, so the bitset is clean for the next
        // query.
        probe.set.drain_sorted_into(out);
        decoded
    }
}

impl ShardSet for Repo {
    type Source = ShardStore;

    fn shards(&self) -> impl ExactSizeIterator<Item = &ShardStore> {
        Repo::shards(self).iter()
    }

    fn strq_span() -> ppq_obs::Span {
        ppq_obs::Span::with("disk_strq", &disk_metrics().strq_ns)
    }

    fn tpq_span() -> ppq_obs::Span {
        ppq_obs::Span::with("disk_tpq", &disk_metrics().tpq_ns)
    }

    /// Publish the query's page I/O as `last_io`, roll it into
    /// [`Repo::io_stats`] and zero the counter for the next query.
    fn settle_io(&self, ws: &mut DiskQueryWorkspace) {
        ws.last_io = (ws.io.reads(), ws.io.buffer_hits());
        self.io_stats().absorb(&ws.io);
        disk_metrics().pages_read.add(ws.last_io.0);
        ws.io.reset();
    }
}

/// Disk-resident STRQ/TPQ engine over an open [`Repo`]: the shared query
/// kernel (every method of [`QueryEngine`], returning `io::Result`) over
/// the repository's shards.
pub struct DiskQueryEngine<'a> {
    kernel: QueryEngine<'a, Repo>,
    repo: &'a Repo,
}

impl<'a> DiskQueryEngine<'a> {
    pub fn new(repo: &'a Repo, dataset: &'a Dataset, gc: f64) -> DiskQueryEngine<'a> {
        DiskQueryEngine {
            kernel: QueryEngine::new(repo, dataset, gc),
            repo,
        }
    }

    pub fn repo(&self) -> &'a Repo {
        self.repo
    }
}

impl<'a> Deref for DiskQueryEngine<'a> {
    type Target = QueryEngine<'a, Repo>;

    fn deref(&self) -> &QueryEngine<'a, Repo> {
        &self.kernel
    }
}

/// The disk engine as a [`QueryTarget`] backend (benchmark, server).
///
/// The trait's counting signatures cannot carry `io::Result`, so a page
/// I/O failure panics here — under synthetic load an I/O error means the
/// store is gone, and the harness should stop measuring, not record the
/// failure as a fast answer.
impl QueryTarget for DiskQueryEngine<'_> {
    type Ctx = DiskQueryWorkspace;

    fn strq(&self, t: u32, p: &Point, ctx: &mut Self::Ctx) -> usize {
        self.strq_online_with(t, p, ctx)
            .expect("disk STRQ failed under load")
            .exact
            .len()
    }

    fn tpq(&self, t: u32, p: &Point, horizon: u32, ctx: &mut Self::Ctx) -> usize {
        self.tpq_with(t, p, horizon, ctx)
            .expect("disk TPQ failed under load")
            .len()
    }
}
