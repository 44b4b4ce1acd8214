//! A residency-managed buffer pool shared across page segments, plus the
//! read-only [`Segment`] handle that pages data in through it.
//!
//! [`crate::PageStore`] owns one private LRU per file — right for a
//! single scan structure, wrong for a repository whose shards each own a
//! page segment: S private pools would partition the budget statically
//! even when one shard is hot. [`SharedBufferPool`] is one residency
//! layer over `(segment, page)` keys, so every attached [`Segment`]
//! competes for the same frames and a hot shard can occupy most of the
//! pool.
//!
//! Residency is managed two ways:
//!
//! * **Segmented LRU** — frames enter a probationary tier on first touch
//!   and are promoted to a protected tier (80 % of capacity) on
//!   re-reference. One-touch scan traffic washes through probation
//!   without displacing the hot set that spatio-temporal skew
//!   concentrates into a few cells, which plain recency handles poorly.
//! * **Pinning** — [`SharedBufferPool::fetch_batch`] pins every frame a
//!   query's plan touches until the returned [`PinnedPages`] guard
//!   drops, so one query's working set cannot be evicted mid-batch by a
//!   concurrent query. Pinned frames are never evicted; when every
//!   candidate victim is pinned, the incoming page is simply *not
//!   admitted* (the caller still gets its bytes), keeping the resident
//!   count ≤ capacity unconditionally.
//!
//! Batched misses go to the process-wide [`crate::io::IoBackend`]
//! (io_uring where the kernel allows it, a positional-read thread pool
//! otherwise) so one query's page-ins overlap on the device; when the
//! calling thread is armed for fault injection the batch runs serially
//! through the instrumented path instead, keeping fault schedules
//! deterministic.
//!
//! I/O accounting is per *call*, not per pool: reads charge whichever
//! [`IoStats`] the caller passes (a buffer hit is not an I/O, matching
//! how TrajStore and Table 9 count), and every page-in *attempt* is
//! counted on both the caller's stats and the pool's hit/miss
//! instruments — which is what makes `pool hits + misses == Σ per-query
//! attempts` an exact invariant, checked by the test battery. A
//! per-query I/O *budget* ([`IoStats::
//! set_budget`]) caps how many page-ins one query may issue; exceeding
//! it is a typed error before the batch is dispatched, never a silently
//! truncated answer.

use crate::fault;
use crate::io::{global_backend, IoBackend, PageRead};
use crate::page::Page;
use crate::store::IoStats;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// `(segment id, page id)` — the frame key of the shared pool.
///
/// The segment id is a caller-assigned `u64` namespace: a single-file
/// store uses 0, a sharded repository uses the shard index, and a
/// multi-generation repository packs `(generation index << 32) | shard`
/// so every generation's page segment keys its frames disjointly from
/// every other generation's — two generations' page 0 of shard 0 must
/// never collide in the pool.
pub type FrameKey = (u64, u64);

/// Percent of capacity the protected tier may hold (at least one frame).
/// New frames enter the probationary queue; a re-reference promotes to
/// the protected queue, and past this cap the coldest protected frame is
/// demoted back to probation MRU. Eviction drains probation first, so
/// one-touch scans cannot flush the re-referenced hot set.
const PROTECTED_PCT: usize = 80;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Tier {
    Probation,
    Protected,
}

struct Frame {
    page: Arc<Page>,
    /// Pin count: queries holding this frame in a [`PinnedPages`] batch.
    /// A pinned frame is never chosen as an eviction victim.
    pins: u32,
    tier: Tier,
}

struct PoolInner {
    capacity: usize,
    /// Recency queues, most-recent last (pool sizes in the experiments
    /// are small; Vecs keep this allocation-lean and obviously correct).
    probation: Vec<FrameKey>,
    protected: Vec<FrameKey>,
    frames: HashMap<FrameKey, Frame>,
}

/// Registry instruments every pool shares (process-cumulative, like the
/// `ppq_io_*` counters): the per-call [`IoStats`] charging stays the
/// Table 9 measurement path, these feed the live metrics surface. The
/// invariant `hits + misses == page-in attempts` is checked by
/// `tests/pool_invariants.rs` and `ppq-repo`'s `tests/concurrent_reads.rs`.
struct PoolMetrics {
    hits: ppq_obs::Counter,
    misses: ppq_obs::Counter,
    evictions: ppq_obs::Counter,
    resident: ppq_obs::Gauge,
    pinned: ppq_obs::Gauge,
    batch_depth: ppq_obs::Gauge,
    batched_pages: ppq_obs::Counter,
    backend_queue: ppq_obs::Gauge,
}

fn pool_metrics() -> &'static PoolMetrics {
    static M: std::sync::OnceLock<PoolMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| PoolMetrics {
        hits: ppq_obs::counter("ppq_pool_hits"),
        misses: ppq_obs::counter("ppq_pool_misses"),
        evictions: ppq_obs::counter("ppq_pool_evictions"),
        resident: ppq_obs::gauge("ppq_pool_resident_frames"),
        pinned: ppq_obs::gauge("ppq_pool_pinned_frames"),
        batch_depth: ppq_obs::gauge("ppq_pool_batch_depth"),
        batched_pages: ppq_obs::counter("ppq_pool_batched_pages"),
        backend_queue: ppq_obs::gauge("ppq_pool_backend_queue"),
    })
}

fn remove_key(queue: &mut Vec<FrameKey>, key: FrameKey) {
    if let Some(pos) = queue.iter().position(|&k| k == key) {
        queue.remove(pos);
    }
}

impl PoolInner {
    fn protected_cap(&self) -> usize {
        ((self.capacity * PROTECTED_PCT) / 100).max(1)
    }

    /// Record a hit on a resident frame: a protected frame moves to MRU,
    /// a probationary one is promoted (demoting over the protected cap).
    fn touch(&mut self, key: FrameKey) {
        match self.frames.get(&key).map(|f| f.tier) {
            Some(Tier::Protected) => {
                remove_key(&mut self.protected, key);
                self.protected.push(key);
            }
            Some(Tier::Probation) => {
                remove_key(&mut self.probation, key);
                self.protected.push(key);
                self.frames.get_mut(&key).expect("resident").tier = Tier::Protected;
                if self.protected.len() > self.protected_cap() {
                    // Demote the coldest protected frame (pinned or not —
                    // demotion is a queue move, not an eviction).
                    let demoted = self.protected.remove(0);
                    self.frames.get_mut(&demoted).expect("resident").tier = Tier::Probation;
                    self.probation.push(demoted);
                }
            }
            None => {}
        }
    }

    /// The next eviction victim: the oldest unpinned probationary frame,
    /// else the oldest unpinned protected frame. `None` when every
    /// resident frame is pinned.
    fn victim(&self) -> Option<FrameKey> {
        let unpinned = |k: &&FrameKey| self.frames[*k].pins == 0;
        self.probation
            .iter()
            .find(unpinned)
            .or_else(|| self.protected.iter().find(unpinned))
            .copied()
    }

    fn evict(&mut self, key: FrameKey) {
        remove_key(&mut self.probation, key);
        remove_key(&mut self.protected, key);
        self.frames.remove(&key);
        let m = pool_metrics();
        m.evictions.inc();
        m.resident.sub(1);
    }

    /// Admit `page` under `key` into probation, evicting as needed.
    /// Returns `false` (without admitting) when the pool is full of
    /// pinned frames — the resident count never exceeds capacity.
    fn admit(&mut self, key: FrameKey, page: Arc<Page>) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(f) = self.frames.get_mut(&key) {
            // Raced with another query that admitted the same page; keep
            // the resident copy and treat the touch as a re-reference.
            f.page = page;
            self.touch(key);
            return true;
        }
        while self.frames.len() >= self.capacity {
            match self.victim() {
                Some(v) => self.evict(v),
                None => return false,
            }
        }
        self.frames.insert(
            key,
            Frame {
                page,
                pins: 0,
                tier: Tier::Probation,
            },
        );
        self.probation.push(key);
        pool_metrics().resident.add(1);
        true
    }

    fn pin(&mut self, key: FrameKey) -> bool {
        if let Some(f) = self.frames.get_mut(&key) {
            f.pins += 1;
            pool_metrics().pinned.add(1);
            true
        } else {
            false
        }
    }

    fn unpin(&mut self, key: FrameKey) {
        if let Some(f) = self.frames.get_mut(&key) {
            debug_assert!(f.pins > 0, "unpin of unpinned frame");
            f.pins = f.pins.saturating_sub(1);
            pool_metrics().pinned.sub(1);
        }
    }
}

/// A residency-managed buffer pool shared by any number of [`Segment`]s.
pub struct SharedBufferPool {
    inner: Mutex<PoolInner>,
    backend: Arc<dyn IoBackend>,
}

impl SharedBufferPool {
    /// A pool of `capacity` page frames (0 disables caching: every read
    /// is a real I/O — the cold-path configuration of the disk benches),
    /// dispatching batched misses to the process-wide I/O backend.
    pub fn new(capacity: usize) -> Arc<SharedBufferPool> {
        Arc::new(SharedBufferPool {
            inner: Mutex::new(PoolInner {
                capacity,
                probation: Vec::new(),
                protected: Vec::new(),
                frames: HashMap::new(),
            }),
            backend: global_backend(),
        })
    }

    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity
    }

    /// The batch backend this pool dispatches misses to.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Pages currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().frames.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Frames currently pinned by outstanding [`PinnedPages`] guards
    /// (counted per frame, not per pin).
    pub fn pinned_frames(&self) -> usize {
        self.inner
            .lock()
            .frames
            .values()
            .filter(|f| f.pins > 0)
            .count()
    }

    /// The resident frame keys, sorted — the observable surface the
    /// residency property tests compare against a model.
    pub fn resident_keys(&self) -> Vec<FrameKey> {
        let inner = self.inner.lock();
        let mut keys: Vec<FrameKey> = inner.frames.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Hit-or-nothing lookup: a hit touches the frame and counts on the
    /// hit instrument. A lookup failure counts *nothing* here — the miss
    /// instrument is charged by the caller only once the read is really
    /// attempted (after the budget gate), keeping `hits + misses == Σ
    /// per-query attempts` exact even when a budget refusal aborts the
    /// read.
    fn get(&self, key: FrameKey) -> Option<Arc<Page>> {
        let mut inner = self.inner.lock();
        let page = inner.frames.get(&key).map(|f| Arc::clone(&f.page));
        if page.is_some() {
            inner.touch(key);
            pool_metrics().hits.inc();
        }
        page
    }

    fn put(&self, key: FrameKey, page: Arc<Page>) {
        self.inner.lock().admit(key, page);
    }

    /// Resolve a query plan's page set in one call: pool hits are pinned
    /// and returned immediately, all misses are dispatched to the I/O
    /// backend as one overlapped batch, verified (CRC trailer), admitted
    /// and pinned. Duplicate requests are deduplicated here — each
    /// *unique* page is exactly one attempt on `stats` and the pool
    /// instruments (hit or read, never both).
    ///
    /// On any error the partially built guard unwinds: every pin taken
    /// is released, pages that did arrive stay admitted (they are
    /// valid), and the caller sees the first error. Attempted page-ins
    /// are charged to `stats` whether or not they succeed.
    ///
    /// When the calling thread is armed for fault injection the misses
    /// are read serially on this thread through the instrumented path,
    /// so `(op, kind)` schedules stay deterministic.
    pub fn fetch_batch<'p>(
        &'p self,
        requests: &[PageRequest<'_>],
        stats: &IoStats,
    ) -> io::Result<PinnedPages<'p>> {
        let m = pool_metrics();
        let mut batch = PinnedPages {
            pool: self,
            pinned: Vec::new(),
            pages: HashMap::new(),
        };
        // Partition into hits (pin now) and unique misses.
        let mut misses: Vec<(FrameKey, PageRead)> = Vec::new();
        {
            let mut inner = self.inner.lock();
            for req in requests {
                let key = (req.segment.seg_id(), req.page);
                if batch.pages.contains_key(&key) {
                    continue; // duplicate within the batch
                }
                if let Some(f) = inner.frames.get(&key) {
                    let page = Arc::clone(&f.page);
                    inner.touch(key);
                    m.hits.inc();
                    stats
                        .buffer_hits
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if inner.pin(key) {
                        batch.pinned.push(key);
                    }
                    batch.pages.insert(key, page);
                } else if misses.iter().all(|(k, _)| *k != key) {
                    req.segment.check_page(req.page)?;
                    misses.push((key, req.segment.page_read(req.page)));
                }
            }
        }
        if misses.is_empty() {
            return Ok(batch);
        }
        // Budget gate before dispatch: a query over budget fails typed,
        // before touching the device.
        stats.try_charge_reads(misses.len() as u64)?;
        for _ in &misses {
            m.misses.inc();
        }
        m.batch_depth.set(misses.len() as u64);
        m.batched_pages.add(misses.len() as u64);
        let results = if fault::armed() {
            let reads: Vec<PageRead> = misses
                .iter()
                .map(|(_, r)| PageRead {
                    file: Arc::clone(&r.file),
                    offset: r.offset,
                    len: r.len,
                })
                .collect();
            crate::io::SerialBackend.read_batch(&reads)
        } else {
            let reads: Vec<PageRead> = misses
                .iter()
                .map(|(_, r)| PageRead {
                    file: Arc::clone(&r.file),
                    offset: r.offset,
                    len: r.len,
                })
                .collect();
            let results = self.backend.read_batch(&reads);
            m.backend_queue.set(self.backend.queue_depth() as u64);
            results
        };
        debug_assert_eq!(results.len(), misses.len());
        let mut first_err: Option<io::Error> = None;
        let mut inner = self.inner.lock();
        for ((key, _), result) in misses.into_iter().zip(results) {
            match result {
                Ok(bytes) => {
                    let page = Arc::new(Page::from_bytes(bytes));
                    if !page.verify_crc() {
                        if first_err.is_none() {
                            first_err = Some(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!(
                                    "segment {} page {}: CRC mismatch (corrupt page)",
                                    key.0, key.1
                                ),
                            ));
                        }
                        continue;
                    }
                    if inner.admit(key, Arc::clone(&page)) && inner.pin(key) {
                        batch.pinned.push(key);
                    }
                    batch.pages.insert(key, page);
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        drop(inner);
        match first_err {
            // Dropping `batch` here releases every pin taken above.
            Some(e) => Err(e),
            None => Ok(batch),
        }
    }

    fn unpin_all(&self, keys: &[FrameKey]) {
        let mut inner = self.inner.lock();
        for &key in keys {
            inner.unpin(key);
        }
    }

    /// Evict every *unpinned* frame (cold-start a query batch). Frames
    /// pinned by in-flight batches survive — pinned pages are never
    /// evicted, not even by an explicit clear.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        let victims: Vec<FrameKey> = inner
            .frames
            .iter()
            .filter(|(_, f)| f.pins == 0)
            .map(|(k, _)| *k)
            .collect();
        let m = pool_metrics();
        for key in victims {
            remove_key(&mut inner.probation, key);
            remove_key(&mut inner.protected, key);
            inner.frames.remove(&key);
            m.resident.sub(1);
        }
    }
}

impl Drop for SharedBufferPool {
    /// Return this pool's frames to the shared resident-frames gauge.
    fn drop(&mut self) {
        let inner = self.inner.lock();
        pool_metrics().resident.sub(inner.frames.len() as u64);
    }
}

/// One page of one segment, as requested by a query plan.
pub struct PageRequest<'a> {
    pub segment: &'a Segment,
    pub page: u64,
}

/// The resolved pages of one [`SharedBufferPool::fetch_batch`] call,
/// pinned in the pool until this guard drops. Lookup is by
/// `(segment id, page)`; pages that could not be admitted (pool full of
/// pinned frames, or capacity 0) are still present here — residency is a
/// performance property, never a correctness one.
pub struct PinnedPages<'p> {
    pool: &'p SharedBufferPool,
    pinned: Vec<FrameKey>,
    pages: HashMap<FrameKey, Arc<Page>>,
}

impl std::fmt::Debug for PinnedPages<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedPages")
            .field("pages", &self.pages.len())
            .field("pinned", &self.pinned.len())
            .finish()
    }
}

impl PinnedPages<'_> {
    #[inline]
    pub fn get(&self, seg_id: u64, page: u64) -> Option<&Arc<Page>> {
        self.pages.get(&(seg_id, page))
    }

    /// Unique pages resolved by the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Frames this batch holds pinned.
    #[inline]
    pub fn pinned_count(&self) -> usize {
        self.pinned.len()
    }
}

impl Drop for PinnedPages<'_> {
    fn drop(&mut self) {
        self.pool.unpin_all(&self.pinned);
    }
}

/// A read-only page segment attached to a [`SharedBufferPool`].
///
/// Unlike [`crate::PageStore`] (a create-and-append store with a private
/// pool), a `Segment` opens an existing page file, shares its pool with
/// sibling segments, and charges I/O to the caller's counter per read.
/// Reads are positional (`read_at`): no lock is held across any syscall,
/// so concurrent readers overlap on the device.
pub struct Segment {
    file: Arc<File>,
    seg_id: u64,
    num_pages: u64,
    page_size: usize,
    pool: Arc<SharedBufferPool>,
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("seg_id", &self.seg_id)
            .field("num_pages", &self.num_pages)
            .field("page_size", &self.page_size)
            .finish()
    }
}

impl Segment {
    /// Open the page file at `path` as segment `seg_id` of `pool`. The
    /// file length must be an exact multiple of `page_size`.
    pub fn open(
        path: &Path,
        seg_id: u64,
        page_size: usize,
        pool: Arc<SharedBufferPool>,
    ) -> io::Result<Segment> {
        let _ = crate::page::payload_capacity(page_size);
        let file = OpenOptions::new().read(true).open(path)?;
        let len = file.metadata()?.len();
        if len % page_size as u64 != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "segment {}: length {len} is not a multiple of page size {page_size}",
                    path.display()
                ),
            ));
        }
        Ok(Segment {
            file: Arc::new(file),
            seg_id,
            num_pages: len / page_size as u64,
            page_size,
            pool,
        })
    }

    #[inline]
    pub fn seg_id(&self) -> u64 {
        self.seg_id
    }

    #[inline]
    pub fn num_pages(&self) -> u64 {
        self.num_pages
    }

    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    #[inline]
    pub fn pool(&self) -> &Arc<SharedBufferPool> {
        &self.pool
    }

    /// Total bytes on disk.
    pub fn size_bytes(&self) -> u64 {
        self.num_pages * self.page_size as u64
    }

    fn check_page(&self, page_id: u64) -> io::Result<()> {
        if page_id >= self.num_pages {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "segment {}: page {page_id} out of range ({} pages)",
                    self.seg_id, self.num_pages
                ),
            ));
        }
        Ok(())
    }

    /// The raw positional read resolving `page_id` (backend input).
    fn page_read(&self, page_id: u64) -> PageRead {
        PageRead {
            file: Arc::clone(&self.file),
            offset: page_id * self.page_size as u64,
            len: self.page_size,
        }
    }

    /// Read a page through the shared pool, charging `stats`: a pool hit
    /// counts a buffer hit (and costs one refcount bump, not a copy), a
    /// miss counts one read I/O attempt and verifies the page's CRC
    /// trailer. Respects the per-query I/O budget.
    pub fn read(&self, page_id: u64, stats: &IoStats) -> io::Result<Arc<Page>> {
        self.check_page(page_id)?;
        let key = (self.seg_id, page_id);
        if let Some(p) = self.pool.get(key) {
            stats
                .buffer_hits
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return Ok(p);
        }
        stats.try_charge_reads(1)?;
        pool_metrics().misses.inc();
        let mut buf = vec![0u8; self.page_size];
        fault::read_exact_at(&self.file, &mut buf, page_id * self.page_size as u64)?;
        let page = Arc::new(Page::from_bytes(buf));
        if !page.verify_crc() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "segment {} page {page_id}: CRC mismatch (corrupt page)",
                    self.seg_id
                ),
            ));
        }
        self.pool.put(key, Arc::clone(&page));
        Ok(page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PageStore;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ppq-segment-test-{name}-{}", std::process::id()));
        p
    }

    const PS: usize = 4096;

    fn write_pages(path: &Path, n: u8) {
        let store = PageStore::create_with_page_size(path, 0, PS).unwrap();
        for i in 0..n {
            let mut page = Page::zeroed_with(PS);
            page.as_bytes_mut()[0] = i;
            store.append(&page).unwrap();
        }
    }

    #[test]
    fn segments_share_one_pool() {
        let (pa, pb) = (tmp("share-a"), tmp("share-b"));
        write_pages(&pa, 2);
        write_pages(&pb, 2);
        let pool = SharedBufferPool::new(2);
        let a = Segment::open(&pa, 0, PS, Arc::clone(&pool)).unwrap();
        let b = Segment::open(&pb, 1, PS, Arc::clone(&pool)).unwrap();
        let stats = IoStats::default();
        // Same page id in different segments are distinct frames.
        assert_eq!(a.read(0, &stats).unwrap().as_bytes()[0], 0);
        assert_eq!(b.read(0, &stats).unwrap().as_bytes()[0], 0);
        assert_eq!(stats.reads(), 2);
        // Both are now resident; rereads are hits, not I/Os.
        a.read(0, &stats).unwrap();
        b.read(0, &stats).unwrap();
        assert_eq!(stats.reads(), 2);
        assert_eq!(stats.buffer_hits(), 2);
        // A third distinct frame evicts the coldest probationary one (a:0).
        a.read(1, &stats).unwrap();
        a.read(0, &stats).unwrap();
        assert_eq!(stats.reads(), 4);
        std::fs::remove_file(pa).ok();
        std::fs::remove_file(pb).ok();
    }

    #[test]
    fn per_call_stats_are_independent() {
        let p = tmp("percall");
        write_pages(&p, 1);
        let pool = SharedBufferPool::new(4);
        let seg = Segment::open(&p, 0, PS, pool).unwrap();
        let q1 = IoStats::default();
        let q2 = IoStats::default();
        seg.read(0, &q1).unwrap();
        seg.read(0, &q2).unwrap();
        assert_eq!((q1.reads(), q1.buffer_hits()), (1, 0));
        assert_eq!((q2.reads(), q2.buffer_hits()), (0, 1));
        let total = IoStats::default();
        total.absorb(&q1);
        total.absorb(&q2);
        assert_eq!((total.reads(), total.buffer_hits()), (1, 1));
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn zero_capacity_pool_never_caches() {
        let p = tmp("zerocap");
        write_pages(&p, 1);
        let pool = SharedBufferPool::new(0);
        let seg = Segment::open(&p, 0, PS, pool).unwrap();
        let stats = IoStats::default();
        seg.read(0, &stats).unwrap();
        seg.read(0, &stats).unwrap();
        assert_eq!(stats.reads(), 2);
        assert_eq!(stats.buffer_hits(), 0);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn corrupt_segment_page_detected() {
        let p = tmp("segcrc");
        write_pages(&p, 1);
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = OpenOptions::new().write(true).open(&p).unwrap();
            f.seek(SeekFrom::Start(10)).unwrap();
            f.write_all(&[0xEE]).unwrap();
        }
        let seg = Segment::open(&p, 0, PS, SharedBufferPool::new(4)).unwrap();
        let err = seg.read(0, &IoStats::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn ragged_file_rejected() {
        let p = tmp("ragged");
        std::fs::write(&p, vec![0u8; PS + 7]).unwrap();
        let err = Segment::open(&p, 0, PS, SharedBufferPool::new(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn fetch_batch_dedups_and_pins() {
        let p = tmp("batch");
        write_pages(&p, 4);
        let pool = SharedBufferPool::new(4);
        let seg = Segment::open(&p, 0, PS, Arc::clone(&pool)).unwrap();
        let stats = IoStats::default();
        let reqs = [
            PageRequest {
                segment: &seg,
                page: 0,
            },
            PageRequest {
                segment: &seg,
                page: 1,
            },
            PageRequest {
                segment: &seg,
                page: 0, // duplicate — one attempt, not two
            },
        ];
        let batch = pool.fetch_batch(&reqs, &stats).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(stats.reads(), 2);
        assert_eq!(stats.buffer_hits(), 0);
        assert_eq!(batch.get(0, 0).unwrap().as_bytes()[0], 0);
        assert_eq!(batch.get(0, 1).unwrap().as_bytes()[0], 1);
        assert_eq!(pool.pinned_frames(), 2);
        drop(batch);
        assert_eq!(pool.pinned_frames(), 0);
        // Second batch over the same pages: all hits.
        let stats2 = IoStats::default();
        let batch = pool
            .fetch_batch(
                &[
                    PageRequest {
                        segment: &seg,
                        page: 0,
                    },
                    PageRequest {
                        segment: &seg,
                        page: 1,
                    },
                ],
                &stats2,
            )
            .unwrap();
        assert_eq!((stats2.reads(), stats2.buffer_hits()), (0, 2));
        drop(batch);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn pinned_frames_survive_eviction_pressure() {
        let p = tmp("pinned");
        write_pages(&p, 4);
        let pool = SharedBufferPool::new(2);
        let seg = Segment::open(&p, 0, PS, Arc::clone(&pool)).unwrap();
        let stats = IoStats::default();
        let batch = pool
            .fetch_batch(
                &[
                    PageRequest {
                        segment: &seg,
                        page: 0,
                    },
                    PageRequest {
                        segment: &seg,
                        page: 1,
                    },
                ],
                &stats,
            )
            .unwrap();
        // Pool is full of pinned frames: further reads still succeed but
        // are not admitted — resident stays ≤ capacity.
        seg.read(2, &stats).unwrap();
        seg.read(3, &stats).unwrap();
        assert_eq!(pool.len(), 2);
        assert!(batch.get(0, 0).is_some());
        assert_eq!(pool.resident_keys(), vec![(0, 0), (0, 1)]);
        drop(batch);
        // Unpinned now: the next admission evicts normally.
        seg.read(2, &stats).unwrap();
        assert_eq!(pool.len(), 2);
        assert!(pool.resident_keys().contains(&(0, 2)));
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn budget_exhaustion_is_typed_and_precedes_io() {
        let p = tmp("budget");
        write_pages(&p, 4);
        let pool = SharedBufferPool::new(4);
        let seg = Segment::open(&p, 0, PS, Arc::clone(&pool)).unwrap();
        let stats = IoStats::default();
        stats.set_budget(1);
        seg.read(0, &stats).unwrap();
        let err = seg.read(1, &stats).unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
        // The refused read was not charged and nothing was admitted.
        assert_eq!(stats.reads(), 1);
        assert_eq!(pool.len(), 1);
        // Hits are free: re-reading page 0 still works over budget.
        seg.read(0, &stats).unwrap();
        assert_eq!(stats.buffer_hits(), 1);
        // Batch over budget fails before dispatch.
        let err = pool
            .fetch_batch(
                &[
                    PageRequest {
                        segment: &seg,
                        page: 2,
                    },
                    PageRequest {
                        segment: &seg,
                        page: 3,
                    },
                ],
                &stats,
            )
            .unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
        assert_eq!(stats.reads(), 1);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn slru_scan_does_not_flush_hot_set() {
        let p = tmp("slru-scan");
        write_pages(&p, 8);
        let pool = SharedBufferPool::new(4);
        let seg = Segment::open(&p, 0, PS, Arc::clone(&pool)).unwrap();
        let stats = IoStats::default();
        // Establish a hot set: pages 0 and 1, re-referenced (promoted).
        for _ in 0..2 {
            seg.read(0, &stats).unwrap();
            seg.read(1, &stats).unwrap();
        }
        // One-touch scan over pages 2..8 washes through probation.
        for page in 2..8 {
            seg.read(page, &stats).unwrap();
        }
        // The hot set is still resident; plain recency would have let
        // the scan evict it.
        let stats2 = IoStats::default();
        seg.read(0, &stats2).unwrap();
        seg.read(1, &stats2).unwrap();
        assert_eq!(stats2.reads(), 0, "hot set evicted by one-touch scan");
        assert_eq!(stats2.buffer_hits(), 2);
        std::fs::remove_file(p).ok();
    }
}
