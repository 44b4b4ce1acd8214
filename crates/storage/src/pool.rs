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
//! Residency is a **segmented LRU**: frames enter a probationary tier on
//! first touch and are promoted to a protected tier (80 % of capacity) on
//! re-reference. One-touch scan traffic washes through probation without
//! displacing the hot set that spatio-temporal skew concentrates into a
//! few cells, which plain recency handles poorly.
//!
//! The pool is a cache of immutable pages. A frame holds an `Arc<Page>`
//! and every read hands the caller its own `Arc`, so evicting a frame —
//! by capacity pressure, a concurrent query or [`SharedBufferPool::clear`]
//! — never invalidates a page a query holds. Residency is a performance
//! property, never a correctness one.
//!
//! A miss is one positional read on the calling thread through
//! [`crate::fault`], then the page's CRC check — the same code whether or
//! not the thread is armed for fault injection, so fault schedules are
//! deterministic. A query plans ~1 page (the paper's disk experiment
//! counts page I/Os; it never overlaps them), so a batch's misses are
//! read in plan order rather than submitted to a device queue.
//!
//! I/O accounting is per *call*, not per pool: reads charge whichever
//! [`IoStats`] the caller passes (a buffer hit is not an I/O, matching
//! how TrajStore and Table 9 count), and every page-in *attempt* is
//! counted on both the caller's stats and the pool's hit/miss
//! instruments — which is what makes `pool hits + misses == Σ per-query
//! attempts` an exact invariant, checked by the test battery.

use crate::page::{read_page, Page};
use crate::store::IoStats;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
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
}

fn pool_metrics() -> &'static PoolMetrics {
    static M: std::sync::OnceLock<PoolMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| PoolMetrics {
        hits: ppq_obs::counter("ppq_pool_hits"),
        misses: ppq_obs::counter("ppq_pool_misses"),
        evictions: ppq_obs::counter("ppq_pool_evictions"),
        resident: ppq_obs::gauge("ppq_pool_resident_frames"),
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
                    // Demote the coldest protected frame.
                    let demoted = self.protected.remove(0);
                    self.frames.get_mut(&demoted).expect("resident").tier = Tier::Probation;
                    self.probation.push(demoted);
                }
            }
            None => {}
        }
    }

    /// Evict the next victim: the oldest probationary frame, else the
    /// oldest protected frame.
    fn evict_coldest(&mut self) {
        let key = if self.probation.is_empty() {
            self.protected.remove(0)
        } else {
            self.probation.remove(0)
        };
        self.frames.remove(&key);
        let m = pool_metrics();
        m.evictions.inc();
        m.resident.sub(1);
    }

    /// Admit `page` under `key` into probation, evicting as needed so the
    /// resident count never exceeds capacity. A zero-capacity pool
    /// admits nothing.
    fn admit(&mut self, key: FrameKey, page: Arc<Page>) {
        if self.capacity == 0 {
            return;
        }
        if self.frames.contains_key(&key) {
            // Raced with another query that admitted the same page; keep
            // the resident copy and treat the admission as a re-reference.
            self.touch(key);
            return;
        }
        while self.frames.len() >= self.capacity {
            self.evict_coldest();
        }
        self.frames.insert(
            key,
            Frame {
                page,
                tier: Tier::Probation,
            },
        );
        self.probation.push(key);
        pool_metrics().resident.add(1);
    }
}

/// The resolved pages of one [`SharedBufferPool::fetch_batch`] call, by
/// `(segment id, page)`. The map owns its pages: they stay readable
/// whether or not their frames are still resident.
pub type FetchedPages = HashMap<FrameKey, Arc<Page>>;

/// A residency-managed buffer pool shared by any number of [`Segment`]s.
pub struct SharedBufferPool {
    inner: Mutex<PoolInner>,
}

impl SharedBufferPool {
    /// A pool of `capacity` page frames (0 disables caching: every read
    /// is a real I/O — the cold-path configuration of the disk benches).
    pub fn new(capacity: usize) -> Arc<SharedBufferPool> {
        Arc::new(SharedBufferPool {
            inner: Mutex::new(PoolInner {
                capacity,
                probation: Vec::new(),
                protected: Vec::new(),
                frames: HashMap::new(),
            }),
        })
    }

    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity
    }

    /// How misses are read: always `"serial"`, one positional read per
    /// page on the calling thread. Kept so run reports can record it.
    pub fn backend_name(&self) -> &'static str {
        "serial"
    }

    /// Pages currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().frames.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    /// hit instrument. A lookup failure counts *nothing* here — the
    /// caller charges the miss when it reads the page.
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

    /// Resolve a query plan's page set in one call, in two passes. First
    /// every page resident at the start is touched, in request order;
    /// then every miss is read, verified (CRC trailer) and admitted, in
    /// request order. Duplicate requests are deduplicated — each *unique*
    /// page is exactly one attempt on `stats` and the pool instruments
    /// (hit or read, never both).
    ///
    /// On error the caller sees the first one; pages that did arrive stay
    /// admitted (they are valid). Attempted page-ins are charged to
    /// `stats` whether or not they succeed, and a failed read does not
    /// stop the ones after it, so an armed fault schedule counts one
    /// operation per miss.
    pub fn fetch_batch(
        &self,
        requests: &[PageRequest<'_>],
        stats: &IoStats,
    ) -> io::Result<FetchedPages> {
        let m = pool_metrics();
        let mut pages = FetchedPages::new();
        let mut misses: Vec<(FrameKey, &Segment)> = Vec::new();
        {
            let mut inner = self.inner.lock();
            for req in requests {
                let key = (req.segment.seg_id(), req.page);
                if pages.contains_key(&key) {
                    continue; // duplicate within the batch
                }
                if let Some(f) = inner.frames.get(&key) {
                    pages.insert(key, Arc::clone(&f.page));
                    inner.touch(key);
                    m.hits.inc();
                    stats.buffer_hits.fetch_add(1, Ordering::Relaxed);
                } else if misses.iter().all(|(k, _)| *k != key) {
                    req.segment.check_page(req.page)?;
                    misses.push((key, req.segment));
                }
            }
        }
        stats
            .reads
            .fetch_add(misses.len() as u64, Ordering::Relaxed);
        m.misses.add(misses.len() as u64);
        let mut first_err: Option<io::Error> = None;
        for (key, segment) in misses {
            match segment.page_in(key.1) {
                Ok(page) => {
                    let page = Arc::new(page);
                    self.put(key, Arc::clone(&page));
                    pages.insert(key, page);
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(pages), Err)
    }

    /// Drop every frame (cold-start a query batch). Pages callers still
    /// hold stay readable: they own their `Arc`s.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        pool_metrics().resident.sub(inner.frames.len() as u64);
        inner.frames.clear();
        inner.probation.clear();
        inner.protected.clear();
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

/// A read-only page segment attached to a [`SharedBufferPool`].
///
/// Unlike [`crate::PageStore`] (a create-and-append store with a private
/// pool), a `Segment` opens an existing page file, shares its pool with
/// sibling segments, and charges I/O to the caller's counter per read.
/// Reads are positional (`read_at`): no lock is held across any syscall,
/// so concurrent readers overlap on the device.
pub struct Segment {
    file: File,
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
            file,
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

    /// Page `page_id` from disk, CRC-verified; no pool, no accounting.
    fn page_in(&self, page_id: u64) -> io::Result<Page> {
        read_page(&self.file, self.seg_id, page_id, self.page_size)
    }

    /// Read a page through the shared pool, charging `stats`: a pool hit
    /// counts a buffer hit (and costs one refcount bump, not a copy), a
    /// miss counts one read I/O attempt and verifies the page's CRC
    /// trailer.
    pub fn read(&self, page_id: u64, stats: &IoStats) -> io::Result<Arc<Page>> {
        self.check_page(page_id)?;
        let key = (self.seg_id, page_id);
        if let Some(p) = self.pool.get(key) {
            stats.buffer_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(p);
        }
        stats.reads.fetch_add(1, Ordering::Relaxed);
        pool_metrics().misses.inc();
        let page = Arc::new(self.page_in(page_id)?);
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
        write_pages(&p, 2);
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = OpenOptions::new().write(true).open(&p).unwrap();
            f.seek(SeekFrom::Start(10)).unwrap();
            f.write_all(&[0xEE]).unwrap();
        }
        let pool = SharedBufferPool::new(4);
        let seg = Segment::open(&p, 0, PS, Arc::clone(&pool)).unwrap();
        let err = seg.read(0, &IoStats::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Batched beside an intact page: the batch fails typed and keeps
        // the intact page it did read.
        let err = pool
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
                &IoStats::default(),
            )
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("segment 0 page 0"), "{err}");
        assert_eq!(pool.resident_keys(), vec![(0, 1)]);
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
    fn fetch_batch_dedups() {
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
        assert_eq!(batch[&(0, 0)].as_bytes()[0], 0);
        assert_eq!(batch[&(0, 1)].as_bytes()[0], 1);
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
