//! Property tests for the residency-managed shared buffer pool.
//!
//! Four invariants, each driven by randomized (but seeded, reproducible)
//! access traces:
//!
//! 1. **Capacity** — resident frames never exceed capacity, no matter
//!    how many batches hold pins concurrently (admission is rejected
//!    before the bound is broken).
//! 2. **Pinning** — a page pinned by an outstanding [`PinnedPages`]
//!    guard is never evicted, under any amount of scan pressure.
//! 3. **Accounting** — the pool's global hit/miss instruments reconcile
//!    *exactly* with the per-query [`IoStats`] counters: pool hits +
//!    misses == Σ per-query attempts (buffer hits + read attempts),
//!    including batches with duplicate requests and injected failures.
//! 4. **Replacement model** — the resident set evolves exactly like an
//!    independent reference implementation of the segmented-LRU policy,
//!    step for step, so eviction *order* is pinned, not just eviction
//!    *count*.
//!
//! The pool instruments are process-global registry counters, so every
//! test in this binary serializes on one lock — deltas measured by the
//! accounting test must not interleave with pool traffic from its
//! neighbours.

use ppq_storage::{fault, IoStats, Page, PageRequest, PageStore, Segment, SharedBufferPool};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

const PS: usize = 4096;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ppq-pool-prop-{name}-{}", std::process::id()))
}

/// A segment file of `n` sealed pages, page i stamped with i.
fn write_segment(path: &Path, n: u64) {
    let store = PageStore::create_with_page_size(path, 0, PS).unwrap();
    for i in 0..n {
        let mut page = Page::zeroed_with(PS);
        page.as_bytes_mut()[..8].copy_from_slice(&i.to_le_bytes());
        store.append(&page).unwrap();
    }
}

fn req<'a>(seg: &'a Segment, page: u64) -> PageRequest<'a> {
    PageRequest { segment: seg, page }
}

#[test]
fn resident_never_exceeds_capacity_under_random_traces() {
    let _g = lock();
    for seed in 1..=8u64 {
        let path = tmp(&format!("cap-{seed}"));
        write_segment(&path, 64);
        let capacity = 1 + (seed as usize % 7);
        let pool = SharedBufferPool::new(capacity);
        let seg = Segment::open(&path, 0, PS, Arc::clone(&pool)).unwrap();
        let stats = IoStats::default();
        let mut rng = Rng::new(seed * 7919);
        let mut held = Vec::new();
        for step in 0..400 {
            match rng.below(10) {
                // Single read.
                0..=4 => {
                    seg.read(rng.below(64), &stats).unwrap();
                }
                // Batch of 1..=6 (duplicates allowed), guard held.
                5..=7 => {
                    let reqs: Vec<PageRequest> = (0..1 + rng.below(6))
                        .map(|_| req(&seg, rng.below(64)))
                        .collect();
                    held.push(pool.fetch_batch(&reqs, &stats).unwrap());
                }
                // Release the oldest held batch.
                8 => {
                    if !held.is_empty() {
                        held.remove(0);
                    }
                }
                // Cold-start.
                _ => pool.clear(),
            }
            assert!(
                pool.len() <= capacity,
                "seed {seed} step {step}: {} resident > capacity {capacity}",
                pool.len()
            );
        }
        drop(held);
        assert_eq!(pool.pinned_frames(), 0, "seed {seed}: leaked pins");
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn pinned_pages_survive_any_scan_pressure() {
    let _g = lock();
    for seed in 1..=6u64 {
        let path = tmp(&format!("pin-{seed}"));
        write_segment(&path, 48);
        let capacity = 4;
        let pool = SharedBufferPool::new(capacity);
        let seg = Segment::open(&path, 0, PS, Arc::clone(&pool)).unwrap();
        let stats = IoStats::default();
        // Pin a working set of 3 pages.
        let working_set = [seed % 48, (seed + 11) % 48, (seed + 29) % 48];
        let reqs: Vec<PageRequest> = working_set.iter().map(|&p| req(&seg, p)).collect();
        let batch = pool.fetch_batch(&reqs, &stats).unwrap();
        let pinned: Vec<(u64, u64)> = working_set.iter().map(|&p| (0, p)).collect();
        // Scan + clear pressure: one-touch reads over everything else.
        let mut rng = Rng::new(seed * 104_729);
        for _ in 0..300 {
            let page = rng.below(48);
            seg.read(page, &stats).unwrap();
            if rng.below(37) == 0 {
                pool.clear();
            }
            let resident = pool.resident_keys();
            for key in &pinned {
                assert!(
                    resident.contains(key),
                    "seed {seed}: pinned page {key:?} evicted (resident: {resident:?})"
                );
            }
        }
        // The guard still serves its bytes, and dropping it releases
        // every pin (the eviction ban lifts).
        for &p in &working_set {
            let got =
                u64::from_le_bytes(batch.get(0, p).unwrap().as_bytes()[..8].try_into().unwrap());
            assert_eq!(got, p);
        }
        drop(batch);
        assert_eq!(pool.pinned_frames(), 0);
        for page in 0..48 {
            seg.read(page, &stats).unwrap();
        }
        let resident = pool.resident_keys();
        assert!(resident.len() <= capacity);
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn pool_instruments_reconcile_with_per_query_stats() {
    let _g = lock();
    let path = tmp("recon");
    write_segment(&path, 32);
    let pool = SharedBufferPool::new(6);
    let seg = Segment::open(&path, 0, PS, Arc::clone(&pool)).unwrap();
    let hits = ppq_obs::counter("ppq_pool_hits");
    let misses = ppq_obs::counter("ppq_pool_misses");
    let (hits0, misses0) = (hits.get(), misses.get());
    let mut rng = Rng::new(20_260_808);
    let (mut total_reads, mut total_hits) = (0u64, 0u64);
    for round in 0..120 {
        // Each "query" gets a fresh per-query counter, like the engine.
        let stats = IoStats::default();
        match round % 4 {
            // Single reads.
            0 => {
                for _ in 0..1 + rng.below(4) {
                    seg.read(rng.below(32), &stats).unwrap();
                }
            }
            // Batches with duplicates: attempts count unique pages only.
            1 | 2 => {
                let reqs: Vec<PageRequest> = (0..1 + rng.below(8))
                    .map(|_| req(&seg, rng.below(32)))
                    .collect();
                let batch = pool.fetch_batch(&reqs, &stats).unwrap();
                let mut unique: Vec<u64> = reqs.iter().map(|r| r.page).collect();
                unique.sort_unstable();
                unique.dedup();
                assert_eq!(
                    stats.reads() + stats.buffer_hits(),
                    unique.len() as u64,
                    "round {round}: attempts != unique pages"
                );
                drop(batch);
            }
            // A query that dies mid-batch (injected read failure): its
            // attempted page-ins are still charged on both sides.
            _ => {
                pool.clear(); // force a miss so the fault lands on a read
                let reqs = [req(&seg, rng.below(32))];
                fault::arm(0, fault::FaultKind::Fail, fault::FaultMode::OneShot);
                let result = pool.fetch_batch(&reqs, &stats);
                fault::disarm();
                assert!(result.is_err(), "round {round}: armed read succeeded");
            }
        }
        total_reads += stats.reads();
        total_hits += stats.buffer_hits();
    }
    assert_eq!(
        (hits.get() - hits0) + (misses.get() - misses0),
        total_reads + total_hits,
        "pool hits+misses diverged from Σ per-query attempts"
    );
    // Each side on its own: a miss is exactly a read, a hit a buffer hit.
    assert_eq!(misses.get() - misses0, total_reads, "misses != Σ reads");
    assert_eq!(hits.get() - hits0, total_hits, "hits != Σ buffer hits");
    assert_eq!(pool.pinned_frames(), 0);
    std::fs::remove_file(path).ok();
}

#[test]
fn budget_violations_charge_nothing_on_either_side() {
    let _g = lock();
    let path = tmp("recon-budget");
    write_segment(&path, 16);
    let pool = SharedBufferPool::new(4);
    let seg = Segment::open(&path, 0, PS, Arc::clone(&pool)).unwrap();
    let hits = ppq_obs::counter("ppq_pool_hits");
    let misses = ppq_obs::counter("ppq_pool_misses");
    let (hits0, misses0) = (hits.get(), misses.get());
    let stats = IoStats::default();
    stats.set_budget(2);
    seg.read(0, &stats).unwrap();
    seg.read(1, &stats).unwrap();
    // Refused single read and refused batch: typed errors, no charge.
    assert!(seg.read(2, &stats).is_err());
    let err = pool
        .fetch_batch(&[req(&seg, 2), req(&seg, 3)], &stats)
        .unwrap_err();
    assert!(err.to_string().contains("budget"), "{err}");
    // Hits stay free even over budget.
    seg.read(0, &stats).unwrap();
    assert_eq!((stats.reads(), stats.buffer_hits()), (2, 1));
    assert_eq!(
        (hits.get() - hits0) + (misses.get() - misses0),
        stats.reads() + stats.buffer_hits(),
        "refused I/O leaked into the instruments"
    );
    std::fs::remove_file(path).ok();
}

// --- Reference replacement model --------------------------------------------

/// Segmented-LRU reference: probation + protected queues, promote on
/// re-reference, demote the coldest protected frame past the cap, evict
/// probation-first. Mirrors the documented policy, implemented
/// independently of the pool's code.
struct SlruModel {
    capacity: usize,
    protected_cap: usize,
    probation: Vec<u64>,
    protected: Vec<u64>,
}

impl SlruModel {
    /// The documented split: the protected tier holds 80 % of capacity,
    /// at least one frame.
    fn new(capacity: usize) -> SlruModel {
        SlruModel {
            capacity,
            protected_cap: ((capacity * 80) / 100).max(1),
            probation: Vec::new(),
            protected: Vec::new(),
        }
    }

    fn touch(&mut self, page: u64) {
        if let Some(i) = self.protected.iter().position(|&p| p == page) {
            self.protected.remove(i);
            self.protected.push(page);
        } else if let Some(i) = self.probation.iter().position(|&p| p == page) {
            self.probation.remove(i);
            self.protected.push(page);
            if self.protected.len() > self.protected_cap {
                let demoted = self.protected.remove(0);
                self.probation.push(demoted);
            }
        } else {
            while self.probation.len() + self.protected.len() >= self.capacity {
                if !self.probation.is_empty() {
                    self.probation.remove(0);
                } else {
                    self.protected.remove(0);
                }
            }
            self.probation.push(page);
        }
    }

    fn resident(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .probation
            .iter()
            .chain(&self.protected)
            .copied()
            .collect();
        v.sort_unstable();
        v
    }
}

#[test]
fn slru_pool_matches_reference_model_step_for_step() {
    let _g = lock();
    for seed in 1..=5u64 {
        let path = tmp(&format!("model-slru-{seed}"));
        write_segment(&path, 40);
        let capacity = 3 + (seed as usize % 5);
        let pool = SharedBufferPool::new(capacity);
        let seg = Segment::open(&path, 0, PS, Arc::clone(&pool)).unwrap();
        let stats = IoStats::default();
        let mut model = SlruModel::new(capacity);
        let mut rng = Rng::new(seed * 2_862_933);
        for step in 0..600 {
            // Hotspot schedule with periodic one-touch scan bursts.
            let page = if step % 97 < 8 {
                90 + step as u64 % 97 // scan burst (distinct cold pages)
            } else if rng.below(2) == 0 {
                rng.below(6)
            } else {
                rng.below(40)
            } % 40;
            seg.read(page, &stats).unwrap();
            model.touch(page);
            let resident: Vec<u64> = pool.resident_keys().iter().map(|&(_, p)| p).collect();
            assert_eq!(
                resident,
                model.resident(),
                "seed {seed} step {step} (page {page}): SLRU diverged from model"
            );
        }
        std::fs::remove_file(path).ok();
    }
}
