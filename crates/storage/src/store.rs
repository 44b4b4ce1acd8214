//! File-backed page store with I/O accounting and an LRU buffer pool.

use crate::fault;
use crate::page::{read_page, Page, PAGE_SIZE};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative I/O counters (what Table 9's "No.I/Os" reports). Buffer
/// hits are counted apart: a hit is not an I/O.
#[derive(Debug, Default)]
pub struct IoStats {
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub buffer_hits: AtomicU64,
}

impl IoStats {
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    pub fn buffer_hits(&self) -> u64 {
        self.buffer_hits.load(Ordering::Relaxed)
    }

    /// Reset the counters.
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.buffer_hits.store(0, Ordering::Relaxed);
    }

    /// Add another counter's totals into this one — how per-query stats
    /// roll up into a session-cumulative counter. The absorbed amounts
    /// also feed the process-wide registry (`ppq_io_*` counters), so the
    /// live metrics surface sees cumulative I/O without any engine
    /// plumbing.
    pub fn absorb(&self, other: &IoStats) {
        let (reads, writes, hits) = (other.reads(), other.writes(), other.buffer_hits());
        self.reads.fetch_add(reads, Ordering::Relaxed);
        self.writes.fetch_add(writes, Ordering::Relaxed);
        self.buffer_hits.fetch_add(hits, Ordering::Relaxed);
        let m = io_metrics();
        m.reads.add(reads);
        m.writes.add(writes);
        m.buffer_hits.add(hits);
    }
}

/// Registry counters fed by [`IoStats::absorb`] (one lazy lookup for
/// the process, relaxed adds after).
struct IoMetrics {
    reads: ppq_obs::Counter,
    writes: ppq_obs::Counter,
    buffer_hits: ppq_obs::Counter,
}

fn io_metrics() -> &'static IoMetrics {
    static M: std::sync::OnceLock<IoMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| IoMetrics {
        reads: ppq_obs::counter("ppq_io_reads"),
        writes: ppq_obs::counter("ppq_io_writes"),
        buffer_hits: ppq_obs::counter("ppq_io_buffer_hits"),
    })
}

/// LRU list over page ids (simple clock-less variant: a Vec ordered by
/// recency — pool sizes are small in the experiments).
struct Lru {
    capacity: usize,
    /// Most-recent last.
    order: Vec<u64>,
    pages: HashMap<u64, Page>,
}

impl Lru {
    fn new(capacity: usize) -> Lru {
        Lru {
            capacity,
            order: Vec::new(),
            pages: HashMap::new(),
        }
    }

    fn get(&mut self, id: u64) -> Option<Page> {
        if let Some(p) = self.pages.get(&id) {
            let p = p.clone();
            self.touch(id);
            Some(p)
        } else {
            None
        }
    }

    fn touch(&mut self, id: u64) {
        if let Some(pos) = self.order.iter().position(|&x| x == id) {
            self.order.remove(pos);
        }
        self.order.push(id);
    }

    fn put(&mut self, id: u64, page: Page) {
        if self.capacity == 0 {
            return;
        }
        self.pages.insert(id, page);
        self.touch(id);
        while self.pages.len() > self.capacity {
            let victim = self.order.remove(0);
            self.pages.remove(&victim);
        }
    }

    fn invalidate(&mut self, id: u64) {
        self.pages.remove(&id);
        if let Some(pos) = self.order.iter().position(|&x| x == id) {
            self.order.remove(pos);
        }
    }
}

/// A file of fixed-size pages with I/O counting.
///
/// All file access is positional (`read_at`/`write_at`): no lock is held
/// across any syscall, so concurrent readers and the writer overlap on
/// the device instead of serializing behind a file mutex.
pub struct PageStore {
    file: File,
    cache: Mutex<Lru>,
    stats: IoStats,
    num_pages: AtomicU64,
    page_size: usize,
}

impl PageStore {
    /// Create (truncating) a store at `path` with a buffer pool of
    /// `pool_pages` pages (0 disables caching so every access is an I/O)
    /// and the default 1 MiB page size.
    pub fn create(path: &Path, pool_pages: usize) -> io::Result<PageStore> {
        Self::create_with_page_size(path, pool_pages, PAGE_SIZE)
    }

    /// Like [`PageStore::create`] with an explicit page size. Scaled-down
    /// experiments scale the page with the dataset so page-count ratios
    /// stay in the paper's regime (EXPERIMENTS.md, Table 9).
    pub fn create_with_page_size(
        path: &Path,
        pool_pages: usize,
        page_size: usize,
    ) -> io::Result<PageStore> {
        // Every page reserves a CRC trailer; the size must leave payload room.
        let _ = crate::page::payload_capacity(page_size);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(PageStore {
            file,
            cache: Mutex::new(Lru::new(pool_pages)),
            stats: IoStats::default(),
            num_pages: AtomicU64::new(0),
            page_size,
        })
    }

    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Append a page, returning its id. Counts one write I/O. The page's
    /// CRC trailer is sealed before it reaches the file (or the pool).
    pub fn append(&self, page: &Page) -> io::Result<u64> {
        assert_eq!(page.len(), self.page_size, "page size mismatch");
        let mut sealed = page.clone();
        sealed.seal_crc();
        let id = self.num_pages.fetch_add(1, Ordering::SeqCst);
        fault::write_all_at(&self.file, sealed.as_bytes(), id * self.page_size as u64)?;
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        self.cache.lock().put(id, sealed);
        Ok(id)
    }

    /// Overwrite an existing page (CRC-sealed). Counts one write I/O.
    pub fn write(&self, id: u64, page: &Page) -> io::Result<()> {
        assert!(
            id < self.num_pages.load(Ordering::SeqCst),
            "page {id} out of range"
        );
        assert_eq!(page.len(), self.page_size, "page size mismatch");
        let mut sealed = page.clone();
        sealed.seal_crc();
        fault::write_all_at(&self.file, sealed.as_bytes(), id * self.page_size as u64)?;
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        let mut cache = self.cache.lock();
        cache.invalidate(id);
        cache.put(id, sealed);
        Ok(())
    }

    /// Read a page. A buffer-pool hit does **not** count as an I/O; a miss
    /// counts one read I/O and verifies the CRC trailer (a mismatch is an
    /// `InvalidData` error, never a silently corrupt answer).
    pub fn read(&self, id: u64) -> io::Result<Page> {
        assert!(
            id < self.num_pages.load(Ordering::SeqCst),
            "page {id} out of range"
        );
        if let Some(p) = self.cache.lock().get(id) {
            self.stats.buffer_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(p);
        }
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        let page = read_page(&self.file, 0, id, self.page_size)?;
        self.cache.lock().put(id, page.clone());
        Ok(page)
    }

    #[inline]
    pub fn num_pages(&self) -> u64 {
        self.num_pages.load(Ordering::SeqCst)
    }

    /// Flush all written pages to stable storage (`fsync`). Writers that
    /// promise crash safety call this before publishing any reference to
    /// the file.
    pub fn sync(&self) -> io::Result<()> {
        fault::sync_all(&self.file)
    }

    #[inline]
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Total bytes on disk.
    pub fn size_bytes(&self) -> u64 {
        self.num_pages() * self.page_size as u64
    }

    /// Drop every cached page (e.g. between query batches so runs are
    /// comparable).
    pub fn clear_cache(&self) {
        let mut cache = self.cache.lock();
        let cap = cache.capacity;
        *cache = Lru::new(cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ppq-store-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn append_read_roundtrip() {
        let path = tmp("roundtrip");
        let store = PageStore::create(&path, 0).unwrap();
        let mut page = Page::zeroed();
        page.as_bytes_mut()[..4].copy_from_slice(&[9, 9, 9, 9]);
        let id = store.append(&page).unwrap();
        let back = store.read(id).unwrap();
        assert_eq!(&back.as_bytes()[..4], &[9, 9, 9, 9]);
        assert_eq!(store.stats().writes(), 1);
        assert_eq!(store.stats().reads(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn buffer_pool_absorbs_repeat_reads() {
        let path = tmp("pool");
        let store = PageStore::create(&path, 4).unwrap();
        let id = store.append(&Page::zeroed()).unwrap();
        // First read after append hits the pool (append populates it).
        for _ in 0..5 {
            store.read(id).unwrap();
        }
        assert_eq!(store.stats().reads(), 0);
        assert_eq!(store.stats().buffer_hits(), 5);
        // After clearing the cache the next read is a real I/O.
        store.clear_cache();
        store.read(id).unwrap();
        assert_eq!(store.stats().reads(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn lru_evicts_oldest() {
        let path = tmp("lru");
        let store = PageStore::create(&path, 2).unwrap();
        let ids: Vec<u64> = (0..3)
            .map(|_| store.append(&Page::zeroed()).unwrap())
            .collect();
        store.stats().reset();
        // Pool holds the 2 most recent appends (ids[1], ids[2]).
        store.read(ids[2]).unwrap();
        store.read(ids[1]).unwrap();
        assert_eq!(store.stats().reads(), 0);
        store.read(ids[0]).unwrap(); // miss
        assert_eq!(store.stats().reads(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn overwrite_page() {
        let path = tmp("overwrite");
        let store = PageStore::create(&path, 0).unwrap();
        let id = store.append(&Page::zeroed()).unwrap();
        let mut p2 = Page::zeroed();
        p2.as_bytes_mut()[0] = 0xAB;
        store.write(id, &p2).unwrap();
        assert_eq!(store.read(id).unwrap().as_bytes()[0], 0xAB);
        std::fs::remove_file(path).ok();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_out_of_range_panics() {
        let path = tmp("oob");
        let store = PageStore::create(&path, 0).unwrap();
        let _ = store.read(5);
    }

    #[test]
    fn corrupt_page_detected_on_page_in() {
        let path = tmp("crc");
        let store = PageStore::create(&path, 0).unwrap();
        let mut page = Page::zeroed();
        page.as_bytes_mut()[..3].copy_from_slice(&[7, 8, 9]);
        let id = store.append(&page).unwrap();
        // Flip one payload byte on disk, out-of-band.
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(id * PAGE_SIZE as u64 + 1)).unwrap();
            f.write_all(&[0xFF]).unwrap();
        }
        let err = store.read(id).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC"), "{err}");
        std::fs::remove_file(path).ok();
    }
}
