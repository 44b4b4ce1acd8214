//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no registry access, so this workspace ships a
//! minimal, dependency-free implementation of the rayon surface the PPQ
//! kernels use: `par_chunks` / `par_chunks_mut` over slices, eager
//! order-preserving `map` / `for_each` / `collect`, `join`, and
//! `current_num_threads` honouring `RAYON_NUM_THREADS`. Execution uses one
//! process-wide pool of worker threads, started on the first parallel
//! call: the items are split into one contiguous batch per thread, the
//! caller runs the first batch itself while the workers take the rest,
//! and the results are concatenated in batch order. Output order (and
//! therefore any ordered reduction built on top of it) is independent of
//! the number of threads.
//!
//! Semantics differ from real rayon in one deliberate way: adapters are
//! *eager* — `map` runs its closure in parallel immediately and
//! materialises the results. The PPQ call sites are all
//! `par_chunks(..).map(..).collect()` / `.for_each(..)` pipelines, for
//! which eager evaluation is observationally identical. When the real
//! rayon is swapped in, no call site needs to change.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// In-process thread-count override installed by [`with_thread_count`]
/// (0 = none). Kept outside the environment so tests and benches can
/// force a thread count without `std::env::set_var`, whose concurrent
/// use with `env::var` readers is undefined behaviour on glibc.
static FORCED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Serializes [`with_thread_count`] sections so two concurrent tests
/// cannot interleave their forced counts.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

/// The thread count `RAYON_NUM_THREADS` asks for, read once per process.
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

/// Number of worker threads parallel operations will use.
///
/// A [`with_thread_count`] override wins; otherwise `RAYON_NUM_THREADS`,
/// read on the first call: a positive integer forces that thread count,
/// anything else falls back to `std::thread::available_parallelism`.
pub fn current_num_threads() -> usize {
    match FORCED_THREADS.load(Ordering::Relaxed) {
        0 => *ENV_THREADS.get_or_init(|| {
            match std::env::var("RAYON_NUM_THREADS").map(|v| v.trim().parse::<usize>()) {
                Ok(Ok(n)) if n > 0 => n,
                _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
            }
        }),
        n => n,
    }
}

/// Run `f` with the shim forced to `threads` worker threads, restoring
/// the previous state afterwards (also on panic).
///
/// This is the supported way for tests/benches to compare serial vs
/// parallel execution in one process: it avoids mutating the process
/// environment (a data race against concurrent `env::var` readers) and
/// holds a global lock so concurrent forced sections serialize instead
/// of interleaving. Shim extension — upstream rayon has no equivalent;
/// call sites comparing thread counts must fork per configuration there
/// (see `crates/shims/README.md`).
pub fn with_thread_count<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    assert!(threads > 0, "thread count must be positive");
    let _guard = FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED_THREADS.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(FORCED_THREADS.swap(threads, Ordering::Relaxed));
    f()
}

/// A batch of work as the pool holds it.
type Task<'a> = Box<dyn FnOnce() + Send + 'a>;

/// A queued batch and the latch of the call it belongs to.
struct Job {
    latch: Arc<Latch>,
    task: Task<'static>,
}

/// Counts the batches of one call that are queued or running on a worker.
struct Latch {
    left: Mutex<usize>,
    done: Condvar,
}

/// The queue every worker takes from, and how many workers exist.
struct Queue {
    jobs: VecDeque<Job>,
    workers: usize,
}

static QUEUE: Mutex<Queue> = Mutex::new(Queue {
    jobs: VecDeque::new(),
    workers: 0,
});

/// Idle workers sleep here until a job is queued.
static READY: Condvar = Condvar::new();

thread_local! {
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Every critical section on the pool's locks is a single push, pop or
/// counter update that cannot panic, so a poisoned lock's data is intact.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A pool worker's life: take the oldest job, run it, count it done.
/// Workers live as long as the process and are never joined; a job never
/// unwinds into this loop, because [`Slot::task`] catches its panic.
fn work() {
    ON_WORKER.with(|w| w.set(true));
    loop {
        let job = {
            let mut queue = lock(&QUEUE);
            loop {
                match queue.jobs.pop_front() {
                    Some(job) => break job,
                    None => queue = READY.wait(queue).unwrap_or_else(PoisonError::into_inner),
                }
            }
        };
        (job.task)();
        let mut left = lock(&job.latch.left);
        *left -= 1;
        if *left == 0 {
            job.latch.done.notify_one();
        }
    }
}

/// The batches one call handed to the pool, which may borrow data that
/// lives for `'a`. Dropping it runs on the calling thread every batch no
/// worker has started, then waits until the workers' batches finish, so
/// no batch outlives its borrows even when the caller unwinds.
struct Batches<'a> {
    latch: Arc<Latch>,
    _borrows: PhantomData<&'a ()>,
}

impl<'a> Batches<'a> {
    /// Queue `tasks` for the pool, growing it to one worker per task.
    fn submit(tasks: Vec<Task<'a>>) -> Batches<'a> {
        let n = tasks.len();
        let latch = Arc::new(Latch {
            left: Mutex::new(n),
            done: Condvar::new(),
        });
        let mut queue = lock(&QUEUE);
        // Grow first: a failed spawn then unwinds with no task queued.
        while queue.workers < n {
            std::thread::Builder::new()
                .name(format!("rayon-shim-{}", queue.workers))
                .spawn(work)
                .expect("failed to spawn a rayon shim worker");
            queue.workers += 1;
        }
        for task in tasks {
            // SAFETY: the task only borrows data that lives for `'a`, and
            // it has run and been freed before the returned `Batches`
            // finishes dropping: `drop` takes back and runs every queued
            // task of this latch, then waits until the latch counts down
            // the ones a worker took, and a worker frees a task (calling
            // the box consumes it) before it counts the task down.
            // `Batches<'a>` keeps `'a` borrowed until it drops (it has a
            // `Drop` impl), and it is private and never leaked.
            let task = unsafe { std::mem::transmute::<Task<'a>, Task<'static>>(task) };
            queue.jobs.push_back(Job {
                latch: Arc::clone(&latch),
                task,
            });
        }
        drop(queue);
        for _ in 0..n {
            READY.notify_one();
        }
        Batches {
            latch,
            _borrows: PhantomData,
        }
    }
}

impl Drop for Batches<'_> {
    fn drop(&mut self) {
        let mine: VecDeque<Job> = {
            let mut queue = lock(&QUEUE);
            let (mine, others) = std::mem::take(&mut queue.jobs)
                .into_iter()
                .partition(|job| Arc::ptr_eq(&job.latch, &self.latch));
            queue.jobs = others;
            mine
        };
        let taken = mine.len();
        for job in mine {
            (job.task)();
        }
        let mut left = lock(&self.latch.left);
        *left -= taken;
        while *left > 0 {
            left = self
                .latch
                .done
                .wait(left)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Where a batch run by the pool leaves its result, or its panic.
struct Slot<T>(Mutex<Option<std::thread::Result<T>>>);

impl<T: Send> Slot<T> {
    fn new() -> Slot<T> {
        Slot(Mutex::new(None))
    }

    /// The batch `f` as a pool task that fills this slot.
    fn task<'a>(&'a self, f: impl FnOnce() -> T + Send + 'a) -> Task<'a> {
        Box::new(move || {
            let result = panic::catch_unwind(AssertUnwindSafe(f));
            *lock(&self.0) = Some(result);
        })
    }

    /// The batch's result, once its [`Batches`] has dropped; a panic in
    /// the batch resumes here with its original payload.
    fn take(self) -> T {
        let result = self.0.into_inner().unwrap_or_else(PoisonError::into_inner);
        match result.expect("a batch finishes before its Batches drops") {
            Ok(value) => value,
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

/// Whether the pool would run a call's batches on one thread anyway: one
/// thread asked for, or a call made from a pool worker (run inline, so a
/// nested call never waits on the pool it is part of).
fn serial() -> bool {
    current_num_threads() <= 1 || ON_WORKER.with(Cell::get)
}

/// Run two closures, potentially in parallel, returning both results.
/// `a` runs on the calling thread; a panic in either resumes here once
/// both have finished (`a`'s first).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if serial() {
        return (a(), b());
    }
    let slot = Slot::new();
    let ra = {
        let _b = Batches::submit(vec![slot.task(b)]);
        a()
    };
    (ra, slot.take())
}

/// Execute `f` over `items`, preserving order, on up to
/// [`current_num_threads`] threads of the pool. Items are split into
/// contiguous batches (one per thread) so the result concatenation is
/// order-stable; the caller runs the first batch. A panic resumes here
/// once every batch has finished, with the first panicking batch's
/// payload.
fn par_run<I, R, F>(items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    if items.len() <= 1 || serial() {
        return items.into_iter().map(f).collect();
    }
    let per = items.len().div_ceil(current_num_threads().min(items.len()));
    let mut items = items.into_iter();
    let first: Vec<I> = items.by_ref().take(per).collect();
    let mut rest: Vec<Vec<I>> = Vec::new();
    loop {
        let batch: Vec<I> = items.by_ref().take(per).collect();
        if batch.is_empty() {
            break;
        }
        rest.push(batch);
    }
    let slots: Vec<Slot<Vec<R>>> = rest.iter().map(|_| Slot::new()).collect();
    let f = &f;
    let mut out = {
        let tasks = rest
            .into_iter()
            .zip(&slots)
            .map(|(batch, slot)| slot.task(move || batch.into_iter().map(f).collect()))
            .collect();
        let _rest = Batches::submit(tasks);
        first.into_iter().map(f).collect::<Vec<R>>()
    };
    for slot in slots {
        out.extend(slot.take());
    }
    out
}

/// An eager "parallel iterator": a materialised list of items whose
/// consuming adapters run on the pool.
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Pair this iterator with another of the same length, in order.
    pub fn zip<U: Send>(self, other: ParIter<U>) -> ParIter<(T, U)> {
        ParIter {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    /// Attach the in-order index to every item.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Apply `f` to every item in parallel; results keep the input order.
    /// Eager: work happens here, not at `collect`.
    pub fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParIter {
            items: par_run(self.items, f),
        }
    }

    /// Run `f` on every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        par_run(self.items, f);
    }

    /// Collect the (already computed, in-order) items.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// `par_chunks` over immutable slices.
pub trait ParallelSlice<T: Sync> {
    /// Split into `chunk_size`-sized pieces (last may be shorter), exposed
    /// as a parallel iterator. Chunk boundaries depend only on
    /// `chunk_size`, never on the thread count — reductions that merge
    /// chunk results in order are therefore deterministic.
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks(chunk_size).collect(),
        }
    }
}

/// `par_chunks_mut` over mutable slices.
pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

/// Conversion into a parallel iterator (owned collections and ranges).
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// `par_iter` over slices (one task per element — use `par_chunks` on hot
/// paths with small per-element work).
pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, ParallelSlice, ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = v.clone().into_par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, v.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_cover_slice_in_order() {
        let v: Vec<u32> = (0..103).collect();
        let sums: Vec<u32> = v.par_chunks(10).map(|c| c.iter().sum()).collect();
        assert_eq!(sums.len(), 11);
        let serial: Vec<u32> = v.chunks(10).map(|c| c.iter().sum()).collect();
        assert_eq!(sums, serial);
    }

    #[test]
    fn chunks_mut_writes_disjoint() {
        let mut v = vec![0u64; 97];
        v.par_chunks_mut(8).enumerate().for_each(|(i, c)| {
            for slot in c.iter_mut() {
                *slot = i as u64;
            }
        });
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, (i / 8) as u64);
        }
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "two");
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    #[test]
    fn with_thread_count_overrides_and_restores() {
        // Read the count outside forced sections: other tests force theirs
        // concurrently, each under `FORCE_LOCK`.
        let unforced = || {
            let _g = lock(&FORCE_LOCK);
            current_num_threads()
        };
        let outer = unforced();
        let inner = with_thread_count(3, current_num_threads);
        assert_eq!(inner, 3);
        assert_eq!(unforced(), outer);
        // Restores on panic too.
        let result = std::panic::catch_unwind(|| with_thread_count(2, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(unforced(), outer);
    }

    #[test]
    fn zip_pairs_in_order() {
        let a: Vec<u32> = (0..50).collect();
        let mut b = vec![0u32; 50];
        a.par_chunks(7)
            .zip(b.par_chunks_mut(7))
            .for_each(|(src, dst)| {
                dst.copy_from_slice(src);
            });
        assert_eq!(a, b);
    }

    /// The text a panic payload carries (`panic!` with or without format
    /// arguments).
    fn message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-string payload>")
    }

    #[test]
    fn a_worker_panic_keeps_its_message_and_the_pool_stays_usable() {
        with_thread_count(4, || {
            for round in 0..3 {
                // Only the last batch panics, so the payload has to cross
                // from whichever thread ran it.
                let result = panic::catch_unwind(|| {
                    (0..8usize).into_par_iter().for_each(|i| {
                        if i == 7 {
                            panic!("item {i} failed in round {round}");
                        }
                    })
                });
                let payload = result.expect_err("the panic must reach the caller");
                assert_eq!(
                    message(&*payload),
                    format!("item 7 failed in round {round}")
                );
                let squares: Vec<usize> = (0..100usize).into_par_iter().map(|i| i * i).collect();
                assert_eq!(squares, (0..100).map(|i| i * i).collect::<Vec<_>>());
            }
            let payload = panic::catch_unwind(|| join(|| 1, || -> i32 { panic!("right side") }))
                .expect_err("join must re-raise the right side's panic");
            assert_eq!(message(&*payload), "right side");
            assert_eq!(join(|| 1, || 2), (1, 2));
        });
    }

    #[test]
    fn join_nested_in_for_each_completes() {
        let sums = with_thread_count(4, || {
            (0..16usize)
                .into_par_iter()
                .map(|i| {
                    let (a, b) = join(|| i * 2, || join(|| i + 1, || i + 2));
                    a + b.0 + b.1
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(sums, (0..16).map(|i| 4 * i + 3).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_callers_each_get_their_own_order() {
        let handles: Vec<_> = (0..8usize)
            .map(|caller| {
                std::thread::spawn(move || {
                    let items: Vec<usize> = (0..10_000).map(|i| i * 8 + caller).collect();
                    let mapped: Vec<usize> = items.clone().into_par_iter().map(|x| x * 3).collect();
                    assert_eq!(mapped, items.iter().map(|x| x * 3).collect::<Vec<_>>());
                })
            })
            .collect();
        for h in handles {
            h.join().expect("caller thread");
        }
    }

    #[test]
    fn one_thread_runs_every_item_on_the_caller() {
        let me = std::thread::current().id();
        let (ids, (a, b)) = with_thread_count(1, || {
            let ids: Vec<_> = (0..64usize)
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect();
            (
                ids,
                join(
                    || std::thread::current().id(),
                    || std::thread::current().id(),
                ),
            )
        });
        assert!(ids.iter().all(|&id| id == me));
        assert_eq!((a, b), (me, me));
    }
}
