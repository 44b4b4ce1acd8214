//! Spatio-temporal query processing over the quantized summary (§5.2).
//!
//! **STRQ** (Definition 5.2) retrieves the trajectories in the `g_c` grid
//! cell containing `(x, y)` at time `t`. Methods answer it at three
//! levels:
//!
//! * *approximate* — trajectories whose **reconstructed** position falls
//!   in the cell (what Table 2's precision/recall scores for the non-CQC
//!   methods measure);
//! * *local search* — scan every cell within the reconstruction bound of
//!   the query cell (the CQC-enabled radius `(√2/2)·g_s`), giving a
//!   candidate list that provably contains all true answers (recall 1);
//! * *exact* — refine candidates against the original trajectories so
//!   precision is 1 too. The number of candidates accessed is Table 4's
//!   "ratio of trajectories visited".
//!
//! **TPQ** (Definition 5.3) runs an STRQ and reproduces the next `l`
//! positions of the matching trajectories from the summary.
//!
//! The procedure is written once, in [`QueryEngine`], whatever supplies
//! the postings. What varies is the per-shard [`PostingSource`] — any
//! in-memory [`ReconIndex`] here, a repository shard's paged block
//! directory in `ppq-repo` — and the [`ShardSet`] an engine fans out
//! over: one index, a [`ShardedSummary`] ([`ShardedQueryEngine`]) or an
//! open repository (`ppq_repo::DiskQueryEngine`). Engines agree because
//! they are the same code, not because a test compares copies.

use crate::shard::{ShardRouter, ShardedSummary};
use crate::summary::PpqSummary;
use ppq_geo::{BBox, GridSpec, Point};
use ppq_sindex::{posting, QueryScratch};
use ppq_tpi::Tpi;
use ppq_traj::{Dataset, TrajId};
use rayon::prelude::*;
use std::borrow::Cow;
use std::convert::Infallible;
use std::ops::Deref;
use std::sync::OnceLock;

/// Registry handles for the query layer, resolved once so the per-query
/// hot path touches only atomics.
struct QueryMetrics {
    strq_ns: ppq_obs::Histogram,
    tpq_ns: ppq_obs::Histogram,
    candidates_refined: ppq_obs::Counter,
}

fn query_metrics() -> &'static QueryMetrics {
    static METRICS: OnceLock<QueryMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = ppq_obs::Registry::global();
        QueryMetrics {
            strq_ns: r.histogram("ppq_strq_ns"),
            tpq_ns: r.histogram("ppq_tpq_ns"),
            candidates_refined: r.counter("ppq_query_candidates_refined"),
        }
    })
}

/// Anything that can answer "where does the summary say trajectory `id`
/// was at time `t`" and expose a TPI over those positions. Implemented by
/// [`PpqSummary`] and by every baseline, so one evaluation path serves all
/// methods.
pub trait ReconIndex {
    fn recon(&self, id: TrajId, t: u32) -> Option<Point>;
    fn index(&self) -> Option<&Tpi>;
    /// Radius within which the reconstruction is guaranteed (or expected)
    /// to sit around the true point — the local-search radius.
    fn search_radius(&self) -> f64;

    /// Append the reconstructed positions of `id` over `[from, to]`
    /// (clipped to the trajectory's active range) — the TPQ payload.
    ///
    /// The default calls [`ReconIndex::recon`] per timestep; indexes with
    /// materialized reconstructions override it with a slice copy.
    fn recon_range(&self, id: TrajId, from: u32, to: u32, out: &mut Vec<(u32, Point)>) {
        for t in from..=to {
            if let Some(p) = self.recon(id, t) {
                out.push((t, p));
            }
        }
    }
}

impl ReconIndex for PpqSummary {
    fn recon(&self, id: TrajId, t: u32) -> Option<Point> {
        self.reconstruct(id, t)
    }

    fn index(&self) -> Option<&Tpi> {
        self.tpi()
    }

    fn search_radius(&self) -> f64 {
        self.config().guaranteed_deviation()
    }

    fn recon_range(&self, id: TrajId, from: u32, to: u32, out: &mut Vec<(u32, Point)>) {
        out.extend(self.reconstruct_range_iter(id, from, to));
    }
}

/// One shard as the query kernel sees it: `(t, rect)` → the ids indexed
/// there, plus the [`ReconIndex`] those ids are filtered and answered
/// with. Everything else about a query lives in [`QueryEngine`].
pub trait PostingSource {
    /// The reconstructions (`recon` / `recon_range` / `search_radius`).
    type Recon: ReconIndex + ?Sized;
    fn recon_index(&self) -> &Self::Recon;
    /// Reusable per-thread probe state (decode scratch; on disk also the
    /// page plan and the per-query I/O counter).
    type Probe: Default;
    /// [`Infallible`] in memory, `io::Error` on disk.
    type Error: Send;
    /// How the engine hands a `Result<T, Self::Error>` to its caller:
    /// bare `T` from an infallible source, `io::Result<T>` from disk.
    type Ret<T>;
    fn ret<T>(result: Result<T, Self::Error>) -> Self::Ret<T>;

    /// Fill `out` (handed over empty) with the sorted, deduplicated ids
    /// whose indexed position at `t` may fall in `rect`. `dataset` is the
    /// active set an index-free source scans instead.
    fn postings(
        &self,
        t: u32,
        rect: &BBox,
        dataset: &Dataset,
        probe: &mut Self::Probe,
        out: &mut Vec<u32>,
    ) -> Result<(), Self::Error>;
}

/// Every in-memory [`ReconIndex`] is an infallible posting source: its
/// TPI's rect probe, or — for summaries that carry no index (baselines,
/// the naive reference of `query_regression.rs`) — the whole active set
/// at `t`, which the kernel's reconstruction filter then narrows.
impl<S: ReconIndex + ?Sized> PostingSource for S {
    type Recon = S;
    type Probe = QueryScratch;
    type Error = Infallible;
    type Ret<T> = T;

    fn recon_index(&self) -> &S {
        self
    }

    fn ret<T>(result: Result<T, Infallible>) -> T {
        let Ok(value) = result;
        value
    }

    fn postings(
        &self,
        t: u32,
        rect: &BBox,
        dataset: &Dataset,
        probe: &mut QueryScratch,
        out: &mut Vec<u32>,
    ) -> Result<(), Infallible> {
        match self.index() {
            // The index path yields sorted, deduplicated ids already.
            Some(tpi) => tpi.query_rect_into(t, rect, probe, out),
            // The active set's slice order is not guaranteed.
            None => {
                out.extend(dataset.points_at(t).iter().map(|(id, _)| *id));
                out.sort_unstable();
                out.dedup();
            }
        }
        Ok(())
    }
}

/// The posting sources one [`QueryEngine`] fans a query out over, and the
/// instruments its queries report to.
pub trait ShardSet {
    type Source: PostingSource + ?Sized;
    /// The shards, in shard-index order.
    fn shards(&self) -> impl ExactSizeIterator<Item = &Self::Source>;

    /// The shard owning trajectory `id` — the ingest router's pure hash
    /// of `(id, shard count)`. TPQ payloads route, never fan out.
    fn shard_for(&self, id: TrajId) -> &Self::Source {
        let mut shards = self.shards();
        let owner = ShardRouter::new(shards.len()).shard_of(id);
        shards
            .nth(owner)
            .expect("router stays within the shard count")
    }

    /// The latency span one STRQ runs under.
    fn strq_span() -> ppq_obs::Span {
        ppq_obs::Span::with("strq", &query_metrics().strq_ns)
    }

    /// The latency span one TPQ runs under (it contains an STRQ span).
    fn tpq_span() -> ppq_obs::Span {
        ppq_obs::Span::with("tpq", &query_metrics().tpq_ns)
    }

    /// Close one query's I/O account into [`Workspace::last_io`], on
    /// success *and* failure. In-memory sources have nothing to settle.
    fn settle_io(&self, _ws: &mut WorkspaceOf<Self>) {}
}

/// The workspace an engine over shard set `B` evaluates through.
pub type WorkspaceOf<B> = Workspace<<<B as ShardSet>::Source as PostingSource>::Probe>;
/// `T` as an engine over `B` returns it (see [`PostingSource::Ret`]).
pub type Ret<B, T> = <<B as ShardSet>::Source as PostingSource>::Ret<T>;
type Try<B, T> = Result<T, <<B as ShardSet>::Source as PostingSource>::Error>;

/// A lone index is its own single shard.
impl<S: ReconIndex + ?Sized> ShardSet for S {
    type Source = S;

    fn shards(&self) -> impl ExactSizeIterator<Item = &S> {
        std::iter::once(self)
    }
}

impl ShardSet for ShardedSummary {
    type Source = PpqSummary;

    fn shards(&self) -> impl ExactSizeIterator<Item = &PpqSummary> {
        ShardedSummary::shards(self).iter()
    }
}

/// The single query-backend abstraction: anything that can answer the
/// two production query classes, whatever sits underneath — the
/// in-memory [`ShardedQueryEngine`], the disk-resident engine in
/// `ppq-repo`, the serve-during-ingest `LiveService` in `ppq-live`, or a
/// remote server reached over TCP (`ppq-server`'s `RemoteClient`). The
/// server's request handler and the benchmark of record (`benchmark/`)
/// drive every backend through this one trait.
///
/// One `Ctx` lives per worker thread, so engines can expose their
/// reusable workspaces (and network clients their per-thread
/// connections) without interior mutability on the shared handle.
pub trait QueryTarget: Sync {
    type Ctx: Default + Send;
    /// Production STRQ; returns the exact-answer cardinality (consumed
    /// so the call cannot be optimized away).
    fn strq(&self, t: u32, p: &Point, ctx: &mut Self::Ctx) -> usize;
    /// TPQ over `horizon`; returns the number of matched trajectories.
    fn tpq(&self, t: u32, p: &Point, horizon: u32, ctx: &mut Self::Ctx) -> usize;
}

/// Result of one STRQ at all three answer levels.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StrqOutcome {
    /// Ground truth: ids whose *original* point is in the query cell.
    pub truth: Vec<TrajId>,
    /// Approximate answer (reconstructed point in the cell).
    pub approx: Vec<TrajId>,
    /// Local-search candidate list (reconstructed point within the search
    /// radius of the cell).
    pub candidates: Vec<TrajId>,
    /// Exact answer: candidates whose original point is in the cell.
    pub exact: Vec<TrajId>,
    /// Trajectories accessed during refinement (= `candidates.len()`).
    pub visited: usize,
}

/// One TPQ answer: each matched id with its reconstructed sub-trajectory.
pub type TpqAnswer = Vec<(TrajId, Vec<(u32, Point)>)>;

/// Precision/recall of `returned` against `truth` (both sorted sets).
pub fn precision_recall(returned: &[TrajId], truth: &[TrajId]) -> (f64, f64) {
    // Two-pointer sorted intersection — no per-element binary search.
    let tp = posting::intersect_count(returned, truth) as f64;
    // Nothing returned is vacuously precise; nothing to find, fully recalled.
    let ratio = |of: usize| if of == 0 { 1.0 } else { tp / of as f64 };
    (ratio(returned.len()), ratio(truth.len()))
}

/// Reusable buffers for STRQ/TPQ evaluation — the query-path counterpart
/// of the build path's `KMeansWorkspace`. One workspace per thread: the
/// steady-state query loop performs no heap allocation beyond the
/// returned outcome itself. Dereferences to the source's probe state `X`,
/// where a source keeps its per-thread settings (on disk, the I/O budget).
#[derive(Debug, Default)]
pub struct Workspace<X> {
    probe: X,
    /// IDs proposed by the source before reconstruction filtering.
    raw: Vec<u32>,
    /// Reconstructed positions of the surviving candidates (parallel to
    /// the candidate list), so the approximate answer derives from the
    /// candidate pass without re-reconstructing.
    pts: Vec<Point>,
    /// Per-shard outcomes staged for merging. Only the spine is reused:
    /// the answer vectors are the ones a single-shard query returns.
    outcomes: Vec<StrqOutcome>,
    /// Ping-pong scratch for [`posting::union_fold_into`].
    tmp: Vec<u32>,
    /// `(page reads, buffer hits)` of the most recent query through this
    /// workspace, failed queries included — Table 9's per-query "No.I/Os"
    /// and its pool-absorbed complement. `(0, 0)` from in-memory sources.
    pub last_io: (u64, u64),
}

/// Workspace of the in-memory engines, sharded or not.
pub type QueryWorkspace = Workspace<QueryScratch>;
pub type ShardedQueryWorkspace = QueryWorkspace;

impl<X: Default> Workspace<X> {
    pub fn new() -> Workspace<X> {
        Workspace::default()
    }
}

impl<X> Deref for Workspace<X> {
    type Target = X;

    fn deref(&self) -> &X {
        &self.probe
    }
}

/// Fixed chunk size for batched query evaluation. Chunk boundaries must
/// not depend on the thread count, so batch results are reproducible on
/// any machine.
pub const QUERY_CHUNK: usize = 32;

/// The batched-evaluation determinism contract: queries are split into
/// fixed [`QUERY_CHUNK`]-sized chunks (never thread-count-dependent),
/// each chunk runs through one fresh reusable workspace, and chunk
/// results concatenate in order — so batch output is bit-identical at any
/// `RAYON_NUM_THREADS`.
pub fn batch_chunked<W: Default, R: Send>(
    queries: &[(u32, Point)],
    per_query: impl Fn(u32, &Point, &mut W) -> R + Sync,
) -> Vec<R> {
    let chunks: Vec<Vec<R>> = queries
        .par_chunks(QUERY_CHUNK)
        .map(|chunk| {
            let mut ws = W::default();
            chunk
                .iter()
                .map(|(t, p)| per_query(*t, p, &mut ws))
                .collect()
        })
        .collect();
    chunks.into_iter().flatten().collect()
}

/// The STRQ/TPQ kernel, binding a [`ShardSet`] to the original dataset.
///
/// * **STRQ** probes every shard (the query cell may contain
///   trajectories of any shard) and merges the per-shard answer sets with
///   two-pointer unions. Shards own disjoint id sets, so the merge is a
///   pure interleave — no candidate is dropped or duplicated.
/// * **TPQ** reuses that STRQ for matching, then routes each matched
///   trajectory's payload reconstruction to its owning shard.
/// * **Batches** are chunk-parallel under the [`batch_chunked`] contract.
///
/// Per-shard local search keeps recall 1 — each trajectory lives in
/// exactly one shard whose CQC bound covers it — so exact answers are
/// shard-count-invariant; only the approximate answer can differ
/// (per-shard codebooks reconstruct slightly differently). Query
/// methods return `io::Result` over a fallible source and the bare value
/// otherwise ([`PostingSource::Ret`]).
pub struct QueryEngine<'a, B: ShardSet + ?Sized> {
    shards: &'a B,
    dataset: &'a Dataset,
    /// Canonical query grid: a uniform `g_c` grid over the dataset extent.
    /// One grid for every method and every shard makes precision/recall
    /// comparable across them (the paper keeps `g_c` fixed at 100 m for
    /// the same reason).
    grid: Cow<'a, GridSpec>,
}

/// Cross-shard STRQ/TPQ over a [`ShardedSummary`]: the query-side mirror
/// of [`crate::shard::ShardedPpqStream`]'s ingest fan-out.
pub type ShardedQueryEngine<'a> = QueryEngine<'a, ShardedSummary>;

impl<'a, B: ShardSet + ?Sized> QueryEngine<'a, B> {
    pub fn new(shards: &'a B, dataset: &'a Dataset, gc: f64) -> QueryEngine<'a, B> {
        let bbox = dataset
            .bbox()
            .unwrap_or(BBox::from_extents(0.0, 0.0, 1.0, 1.0));
        QueryEngine::with_grid(shards, dataset, GridSpec::covering(&bbox.inflate(gc), gc))
    }

    /// [`QueryEngine::new`] with a precomputed canonical grid, skipping
    /// the O(points) extent scan. Serving paths that build an engine per
    /// request over snapshots of one extent (the live-ingest service)
    /// compute the grid once with [`GridSpec::covering`] and lend it
    /// (`&GridSpec`), which also pins cell boundaries across snapshots.
    pub fn with_grid(
        shards: &'a B,
        dataset: &'a Dataset,
        grid: impl Into<Cow<'a, GridSpec>>,
    ) -> QueryEngine<'a, B> {
        QueryEngine {
            shards,
            dataset,
            grid: grid.into(),
        }
    }

    /// The canonical `g_c` cell containing `p`.
    pub fn cell_bbox(&self, p: &Point) -> Option<BBox> {
        self.grid
            .locate(p)
            .map(|(cx, cy)| self.grid.cell_bbox(cx, cy))
    }

    /// Ground truth for STRQ at `(p, t)`.
    pub fn truth(&self, t: u32, p: &Point) -> Vec<TrajId> {
        let Some(cell) = self.cell_bbox(p) else {
            return Vec::new();
        };
        let mut out: Vec<TrajId> = self
            .dataset
            .points_at(t)
            .iter()
            .filter(|(_, q)| cell.contains(q))
            .map(|(id, _)| *id)
            .collect();
        out.sort_unstable();
        out
    }

    /// The index-backed tiers of one STRQ: per shard, one posting probe
    /// over the local-search rectangle, the reconstruction filter, and
    /// the approx / candidates / exact derivation; then the cross-shard
    /// merge.
    ///
    /// One probe serves both answer levels: the query cell is contained
    /// in the inflated rectangle and a source's proposals are monotone in
    /// the rectangle, so the approximate answer is exactly the candidates
    /// whose reconstruction falls in the query cell.
    fn strq_tiers(&self, t: u32, p: &Point, ws: &mut WorkspaceOf<B>) -> Try<B, StrqOutcome> {
        let Some(cell) = self.cell_bbox(p) else {
            return Ok(StrqOutcome::default());
        };
        ws.outcomes.clear();
        for shard in self.shards.shards() {
            let recon = shard.recon_index();
            let search_rect = cell.inflate(recon.search_radius());
            ws.raw.clear();
            shard.postings(t, &search_rect, self.dataset, &mut ws.probe, &mut ws.raw)?;
            let mut candidates = Vec::new();
            ws.pts.clear();
            for &id in &ws.raw {
                if let Some(r) = recon.recon(id, t) {
                    if search_rect.contains(&r) {
                        candidates.push(id);
                        ws.pts.push(r);
                    }
                }
            }
            let approx = candidates
                .iter()
                .zip(&ws.pts)
                .filter(|(_, r)| cell.contains(r))
                .map(|(&id, _)| id)
                .collect();
            // Refinement accesses every candidate's original trajectory.
            let in_cell = |id: &TrajId| {
                let original = self.dataset.trajectory(*id).at(t);
                original.is_some_and(|q| cell.contains(&q))
            };
            let exact = candidates.iter().copied().filter(in_cell).collect();
            ws.outcomes.push(StrqOutcome {
                truth: Vec::new(),
                approx,
                visited: candidates.len(),
                candidates,
                exact,
            });
        }
        if ws.outcomes.len() == 1 {
            return Ok(ws.outcomes.pop().expect("one shard outcome"));
        }
        let mut merged = StrqOutcome {
            visited: ws.outcomes.iter().map(|o| o.visited).sum(),
            ..StrqOutcome::default()
        };
        // Indexed-accessor unions, so no `Vec<&[u32]>` is built per query.
        let (outcomes, tmp) = (&ws.outcomes, &mut ws.tmp);
        let mut union = |tier: fn(&StrqOutcome) -> &[u32], out: &mut Vec<u32>| {
            posting::union_fold_into(outcomes.len(), |i| tier(&outcomes[i]), tmp, out)
        };
        union(|o| &o.candidates, &mut merged.candidates);
        union(|o| &o.approx, &mut merged.approx);
        union(|o| &o.exact, &mut merged.exact);
        Ok(merged)
    }

    /// [`Self::strq_tiers`] under its span and accounts. I/O is settled on
    /// every exit: a failed query's page-ins are real I/O, and `last_io`
    /// must describe this query, not the prior one.
    fn try_online(&self, t: u32, p: &Point, ws: &mut WorkspaceOf<B>) -> Try<B, StrqOutcome> {
        let mut sp = B::strq_span();
        let result = self.strq_tiers(t, p, ws);
        self.shards.settle_io(ws);
        sp.io(ws.last_io.0, ws.last_io.1);
        if let Ok(outcome) = &result {
            sp.visited(outcome.visited as u64);
            // Table 4's "trajectories visited", live, for every engine.
            let refined = &query_metrics().candidates_refined;
            refined.add(outcome.visited as u64);
        }
        result
    }

    fn try_strq(&self, t: u32, p: &Point, ws: &mut WorkspaceOf<B>) -> Try<B, StrqOutcome> {
        let mut outcome = self.try_online(t, p, ws)?;
        outcome.truth = self.truth(t, p);
        Ok(outcome)
    }

    fn try_tpq(&self, t: u32, p: &Point, l: u32, ws: &mut WorkspaceOf<B>) -> Try<B, TpqAnswer> {
        let mut sp = B::tpq_span();
        let outcome = self.try_online(t, p, ws)?;
        sp.io(ws.last_io.0, ws.last_io.1);
        sp.visited(outcome.visited as u64);
        let payload = |&id: &TrajId| (id, self.sub_trajectory(id, t, l));
        Ok(outcome.exact.iter().map(payload).collect())
    }

    /// Run one STRQ at all answer levels, ground truth included (the
    /// Tables 2–4 scoring protocol).
    pub fn strq(&self, t: u32, p: &Point) -> Ret<B, StrqOutcome> {
        self.strq_with(t, p, &mut Workspace::default())
    }

    /// [`QueryEngine::strq`] through a reusable [`Workspace`].
    pub fn strq_with(&self, t: u32, p: &Point, ws: &mut WorkspaceOf<B>) -> Ret<B, StrqOutcome> {
        B::Source::ret(self.try_strq(t, p, ws))
    }

    /// The *production* form of STRQ: the index-backed answers (approx,
    /// local-search candidates, exact refinement) without the
    /// ground-truth scan, which exists only to score precision/recall.
    /// `truth` is left empty.
    pub fn strq_online(&self, t: u32, p: &Point) -> Ret<B, StrqOutcome> {
        self.strq_online_with(t, p, &mut Workspace::default())
    }

    /// [`QueryEngine::strq_online`] through a reusable [`Workspace`].
    pub fn strq_online_with(
        &self,
        t: u32,
        p: &Point,
        ws: &mut WorkspaceOf<B>,
    ) -> Ret<B, StrqOutcome> {
        B::Source::ret(self.try_online(t, p, ws))
    }

    /// TPQ (Definition 5.3): the exact STRQ ids plus their reconstructed
    /// sub-trajectories over `[t, t + l]`.
    pub fn tpq(&self, t: u32, p: &Point, l: u32) -> Ret<B, TpqAnswer> {
        self.tpq_with(t, p, l, &mut Workspace::default())
    }

    /// [`QueryEngine::tpq`] through a reusable [`Workspace`]. Runs the
    /// online STRQ (TPQ never consumes the ground truth).
    pub fn tpq_with(
        &self,
        t: u32,
        p: &Point,
        l: u32,
        ws: &mut WorkspaceOf<B>,
    ) -> Ret<B, TpqAnswer> {
        B::Source::ret(self.try_tpq(t, p, l, ws))
    }

    /// Reconstructed sub-trajectory for a specific id (the Table 3
    /// protocol fixes the same ids across methods) — served by the owning
    /// shard's summary, no fan-out and no I/O.
    pub fn sub_trajectory(&self, id: TrajId, t: u32, l: u32) -> Vec<(u32, Point)> {
        let mut out = Vec::new();
        let owner = self.shards.shard_for(id).recon_index();
        owner.recon_range(id, t, t.saturating_add(l), &mut out);
        out
    }

    pub fn num_shards(&self) -> usize {
        self.shards.shards().len()
    }

    /// A single-shard engine over shard `i`, on the same grid (tests
    /// compare per-shard answers against the merged ones through this).
    pub fn shard_engine(&self, i: usize) -> QueryEngine<'_, B::Source>
    where
        B::Source: ShardSet,
    {
        let shard = self.shards.shards().nth(i).expect("shard index in range");
        QueryEngine::with_grid(shard, self.dataset, &*self.grid)
    }

    /// The canonical query grid (identical across shards).
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }
}

/// The chunk-parallel forms (results in query order, bit-identical at any
/// `RAYON_NUM_THREADS`), for shard sets worker threads can share.
impl<B: ShardSet + Sync + ?Sized> QueryEngine<'_, B> {
    /// [`batch_chunked`] over a fallible per-query form: the first error
    /// in query order wins.
    fn batch<R: Send>(
        queries: &[(u32, Point)],
        per_query: impl Fn(u32, &Point, &mut WorkspaceOf<B>) -> Try<B, R> + Sync,
    ) -> Ret<B, Vec<R>> {
        B::Source::ret(batch_chunked(queries, per_query).into_iter().collect())
    }

    /// Batched [`QueryEngine::strq_with`].
    pub fn strq_batch(&self, queries: &[(u32, Point)]) -> Ret<B, Vec<StrqOutcome>> {
        Self::batch(queries, |t, p, ws| self.try_strq(t, p, ws))
    }

    /// Batched [`QueryEngine::strq_online_with`] — the production query
    /// workload (no ground-truth scoring scan).
    pub fn strq_online_batch(&self, queries: &[(u32, Point)]) -> Ret<B, Vec<StrqOutcome>> {
        Self::batch(queries, |t, p, ws| self.try_online(t, p, ws))
    }

    /// Batched [`QueryEngine::tpq_with`] with horizon `l`.
    pub fn tpq_batch(&self, queries: &[(u32, Point)], l: u32) -> Ret<B, Vec<TpqAnswer>> {
        Self::batch(queries, |t, p, ws| self.try_tpq(t, p, l, ws))
    }
}

/// The in-memory sharded engine drives [`QueryTarget`] through its
/// production forms (no ground-truth scan).
impl QueryTarget for ShardedQueryEngine<'_> {
    type Ctx = ShardedQueryWorkspace;

    fn strq(&self, t: u32, p: &Point, ctx: &mut Self::Ctx) -> usize {
        self.strq_online_with(t, p, ctx).exact.len()
    }

    fn tpq(&self, t: u32, p: &Point, horizon: u32, ctx: &mut Self::Ctx) -> usize {
        self.tpq_with(t, p, horizon, ctx).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PpqConfig, Variant};
    use crate::pipeline::PpqTrajectory;
    use ppq_traj::synth::{porto_like, PortoConfig};

    fn setup() -> (Dataset, PpqTrajectory) {
        let data = porto_like(&PortoConfig {
            trajectories: 30,
            mean_len: 45,
            min_len: 30,
            start_spread: 8,
            seed: 11,
        });
        let built = PpqTrajectory::build(&data, &PpqConfig::variant(Variant::PpqS, 0.1));
        (data, built)
    }

    #[test]
    fn exact_strq_is_perfect_with_cqc() {
        let (data, built) = setup();
        let gc = built.config().tpi.pi.gc;
        let engine = QueryEngine::new(built.summary(), &data, gc);
        let mut checked = 0;
        for (id, t, p) in data.iter_points().step_by(97) {
            let out = engine.strq(t, &p);
            // The querying trajectory itself must be in the truth...
            assert!(out.truth.contains(&id));
            // ...and the exact answer equals the truth (P = R = 1).
            assert_eq!(out.exact, out.truth, "mismatch at id {id} t {t}");
            checked += 1;
        }
        assert!(checked > 10);
    }

    #[test]
    fn local_search_has_recall_one() {
        let (data, built) = setup();
        let gc = built.config().tpi.pi.gc;
        let engine = QueryEngine::new(built.summary(), &data, gc);
        for (_, t, p) in data.iter_points().step_by(131) {
            let out = engine.strq(t, &p);
            let (_, recall) = precision_recall(&out.candidates, &out.truth);
            assert_eq!(recall, 1.0, "candidates missed a true answer at t {t}");
        }
    }

    #[test]
    fn approx_reasonable_without_cqc() {
        let data = porto_like(&PortoConfig {
            trajectories: 30,
            mean_len: 45,
            min_len: 30,
            start_spread: 8,
            seed: 12,
        });
        let built = PpqTrajectory::build(&data, &PpqConfig::variant(Variant::PpqSBasic, 0.1));
        let gc = built.config().tpi.pi.gc;
        let engine = QueryEngine::new(built.summary(), &data, gc);
        let mut p_sum = 0.0;
        let mut r_sum = 0.0;
        let mut n = 0.0;
        for (_, t, p) in data.iter_points().step_by(61) {
            let out = engine.strq(t, &p);
            let (prec, rec) = precision_recall(&out.approx, &out.truth);
            p_sum += prec;
            r_sum += rec;
            n += 1.0;
        }
        // With ε₁ ≈ 111 m against a 100 m cell the approximate answer is
        // noticeably imperfect but far better than random.
        assert!(p_sum / n > 0.3, "precision {}", p_sum / n);
        assert!(r_sum / n > 0.3, "recall {}", r_sum / n);
        assert!(p_sum / n < 1.0 || r_sum / n < 1.0);
    }

    #[test]
    fn tpq_returns_future_positions() {
        let (data, built) = setup();
        let gc = built.config().tpi.pi.gc;
        let engine = QueryEngine::new(built.summary(), &data, gc);
        // Find a query point with a long remaining trajectory.
        let traj = &data.trajectories()[0];
        let t = traj.start;
        let p = traj.points[0];
        let results = engine.tpq(t, &p, 10);
        assert!(!results.is_empty());
        let (_, sub) = results
            .iter()
            .find(|(id, _)| *id == traj.id)
            .expect("self in TPQ");
        assert_eq!(sub.len(), 11);
        assert_eq!(sub[0].0, t);
        // Reconstructed path stays near the true path.
        for (tt, rp) in sub {
            let truth = traj.at(*tt).unwrap();
            assert!(truth.dist(rp) <= built.config().cqc_error_bound() + 1e-12);
        }
    }

    #[test]
    fn precision_recall_edge_cases() {
        assert_eq!(precision_recall(&[], &[]), (1.0, 1.0));
        assert_eq!(precision_recall(&[1, 2], &[]), (0.0, 1.0));
        assert_eq!(precision_recall(&[], &[1]), (1.0, 0.0));
        let (p, r) = precision_recall(&[1, 2, 3], &[2, 3, 4, 5]);
        assert!((p - 2.0 / 3.0).abs() < 1e-12);
        assert!((r - 0.5).abs() < 1e-12);
    }

    #[test]
    fn queries_outside_extent_are_empty() {
        let (data, built) = setup();
        let gc = built.config().tpi.pi.gc;
        let engine = QueryEngine::new(built.summary(), &data, gc);
        let out = engine.strq(0, &Point::new(500.0, 500.0));
        assert!(out.truth.is_empty() && out.exact.is_empty());
    }
}
