//! Workspace-local stand-in for [`rayon`](https://crates.io/crates/rayon).
//!
//! Provides genuine multi-core data parallelism for the API subset the
//! labchip workspace uses:
//!
//! * `slice.par_iter_mut().for_each(..)` / `.enumerate().for_each(..)`
//! * [`ThreadPoolBuilder`] / [`ThreadPool::install`] to pin the worker count
//!   (the labchip simulator uses this for its thread-count determinism test)
//! * [`current_num_threads`]
//!
//! Parallel calls run on one process-wide pool of persistent workers. They
//! start lazily, up to the largest thread count any call has asked for
//! minus one, and sleep on a condition variable between calls. A call
//! splits its slice into small contiguous blocks and publishes them behind
//! an atomic cursor. The calling thread and up to `threads - 1` idle
//! workers claim blocks from the cursor until none are left, so a slow
//! item delays only its own block. The caller wakes one worker, and each
//! worker that finds blocks left wakes the next. The caller claims like any worker, so a
//! call finishes even when every worker is busy elsewhere, and a nested
//! call cannot deadlock. Each item is a `&mut` slice element, written by
//! whoever claimed it, so results do not depend on the schedule.
//!
//! A panicking item stops further claims; the panic is re-raised on the
//! caller once every claimed block has finished, and the workers live on.
//!
//! The thread count comes from, in priority order: the innermost
//! [`ThreadPool::install`] scope (carried into the workers that run the
//! call, so nested calls see it too), the `RAYON_NUM_THREADS` environment
//! variable, then `std::thread::available_parallelism()`.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

thread_local! {
    static POOL_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads parallel operations will use right now.
pub fn current_num_threads() -> usize {
    let overridden = POOL_OVERRIDE.with(Cell::get);
    if overridden > 0 {
        return overridden;
    }
    if let Ok(value) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = value.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` with the thread count pinned to `threads` (0 leaves it as is).
/// The previous count comes back when `f` returns or unwinds.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            POOL_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(POOL_OVERRIDE.with(|c| {
        let prev = c.get();
        if threads > 0 {
            c.set(threads);
        }
        prev
    }));
    f()
}

/// Error returned by [`ThreadPoolBuilder::build`] (never produced by the
/// shim; present for API parity).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread pool construction failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Starts a builder with the default (automatic) thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins the worker count (0 = automatic).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A handle that pins the worker count for operations run inside
/// [`ThreadPool::install`]. It owns no threads: every handle shares the
/// process-wide worker pool.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count in effect.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        with_threads(self.num_threads, f)
    }

    /// The pinned thread count (0 = automatic).
    pub fn current_num_threads(&self) -> usize {
        if self.num_threads == 0 {
            current_num_threads()
        } else {
            self.num_threads
        }
    }
}

/// Blocks per thread a parallel call is cut into: enough that one slow
/// block cannot leave the other threads idle for long, few enough that
/// claiming costs nothing next to an item.
const BLOCKS_PER_THREAD: usize = 64;

/// One parallel call in flight.
struct Job {
    /// Runs block `k`. Borrowed from the caller's stack for as long as the
    /// call runs; see [`run_blocks`] for why no worker touches it later.
    body: &'static (dyn Fn(usize) + Sync),
    /// Number of blocks.
    blocks: usize,
    /// The next unclaimed block.
    next: AtomicUsize,
    /// The caller's thread count, carried into the workers that help.
    threads: usize,
    /// Workers that may still join. Changed under the pool lock.
    seats: AtomicUsize,
    /// Workers that joined and have not left yet. Changed under the pool
    /// lock; the caller returns only once it reads 0.
    helpers: AtomicUsize,
    /// The first panic of a block, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job {
    /// Claims and runs blocks until none are left. A panicking block
    /// stores its payload and stops all further claims.
    fn claim(&self) {
        // The cursor publishes no data: each block's items are reached
        // through `body` alone, and the caller's wait under the pool lock
        // orders every helper's writes before it returns.
        loop {
            let k = self.next.fetch_add(1, Ordering::Relaxed);
            if k >= self.blocks {
                return;
            }
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.body)(k))) {
                self.next.store(self.blocks, Ordering::Relaxed);
                lock(&self.panic).get_or_insert(payload);
                return;
            }
        }
    }
}

/// The process-wide worker pool.
struct Pool {
    state: Mutex<PoolState>,
    /// Idle workers wait here for a job with a free seat.
    wake: Condvar,
    /// Callers wait here for their job's helpers to leave.
    left: Condvar,
}

#[derive(Default)]
struct PoolState {
    /// Workers started so far; they never exit.
    workers: usize,
    /// Jobs whose callers are still claiming blocks.
    jobs: Vec<Arc<Job>>,
}

impl PoolState {
    /// The oldest job with a free seat and blocks left to claim.
    fn open_job(&self) -> Option<&Arc<Job>> {
        self.jobs.iter().find(|job| {
            job.seats.load(Ordering::Relaxed) > 0 && job.next.load(Ordering::Relaxed) < job.blocks
        })
    }
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::default(),
        wake: Condvar::new(),
        left: Condvar::new(),
    })
}

/// Locks `mutex`, ignoring poison: no code panics while holding the pool
/// lock, and a block's panic payload is stored whole or not at all.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A worker: joins jobs with a free seat, runs their blocks with the job's
/// thread count in effect, and sleeps when there are none.
fn work(pool: &'static Pool) {
    let mut state = lock(&pool.state);
    loop {
        let Some(job) = state.open_job().cloned() else {
            state = pool
                .wake
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        job.seats.fetch_sub(1, Ordering::Relaxed);
        job.helpers.fetch_add(1, Ordering::Relaxed);
        // Wake the next helper only once this one has found work left, so
        // a call its caller finishes alone wakes at most one worker.
        if state.open_job().is_some() {
            pool.wake.notify_one();
        }
        drop(state);
        with_threads(job.threads, || job.claim());
        state = lock(&pool.state);
        job.helpers.fetch_sub(1, Ordering::Relaxed);
        // This worker's handle goes before its caller can return.
        drop(job);
        pool.left.notify_all();
    }
}

/// Starts workers until `wanted` exist. A worker that cannot be started
/// is simply not there: callers finish their jobs alone if need be.
fn ensure_workers(pool: &'static Pool, state: &mut PoolState, wanted: usize) {
    while state.workers < wanted {
        let spawned = std::thread::Builder::new()
            .name(format!("rayon-shim-{}", state.workers))
            .spawn(move || work(pool));
        if spawned.is_err() {
            return;
        }
        state.workers += 1;
    }
}

/// Runs `body(k)` for every block `k < blocks`, on the calling thread and
/// on up to `threads - 1` pool workers, and returns once all have run.
/// Re-raises the first panic of a block.
fn run_blocks(blocks: usize, threads: usize, body: &(dyn Fn(usize) + Sync)) {
    let helpers = threads.min(blocks).saturating_sub(1);
    if helpers == 0 {
        (0..blocks).for_each(body);
        return;
    }
    // SAFETY: the lifetime of `body` is erased so workers can reach it
    // through the shared job. No worker calls it after this function
    // returns: a worker calls `body` only between joining the job and
    // leaving it, and both happen under the pool lock. Below, the job is
    // withdrawn from the queue under that lock, so no worker joins later,
    // and the caller waits under it until every worker that joined has
    // left. `Job::claim` catches every panic of `body`, and nothing
    // between here and that wait can unwind, so the wait always runs.
    // Workers drop their handle on the job before they leave it.
    let body: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
    let pool = pool();
    let job = Arc::new(Job {
        body,
        blocks,
        next: AtomicUsize::new(0),
        threads,
        seats: AtomicUsize::new(helpers),
        helpers: AtomicUsize::new(0),
        panic: Mutex::new(None),
    });
    {
        let mut state = lock(&pool.state);
        ensure_workers(pool, &mut state, helpers);
        state.jobs.push(Arc::clone(&job));
    }
    pool.wake.notify_one();
    job.claim();
    let mut state = lock(&pool.state);
    state.jobs.retain(|queued| !Arc::ptr_eq(queued, &job));
    while job.helpers.load(Ordering::Relaxed) > 0 {
        state = pool
            .left
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
    }
    drop(state);
    let payload = lock(&job.panic).take();
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

/// Applies `f(index, item)` to every element of `slice` in parallel.
fn run_indexed<'a, T, F>(slice: &'a mut [T], f: &F)
where
    T: Send,
    F: Fn(usize, &'a mut T) + Send + Sync,
{
    let len = slice.len();
    let threads = current_num_threads().min(len).max(1);
    if threads == 1 {
        for (i, item) in slice.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let block_len = len.div_ceil(threads * BLOCKS_PER_THREAD);
    // Each block is taken out of its slot exactly once, by its claimer.
    let blocks: Vec<Mutex<Option<&'a mut [T]>>> = slice
        .chunks_mut(block_len)
        .map(|block| Mutex::new(Some(block)))
        .collect();
    run_blocks(blocks.len(), threads, &|k| {
        let block = lock(&blocks[k]).take().expect("each block is claimed once");
        for (i, item) in block.iter_mut().enumerate() {
            f(k * block_len + i, item);
        }
    });
}

/// Parallel iterator over `&mut` slice elements.
pub struct ParIterMut<'a, T> {
    slice: &'a mut [T],
}

/// Parallel iterator over `(index, &mut element)` pairs.
pub struct ParIterMutEnumerate<'a, T> {
    slice: &'a mut [T],
}

/// The subset of rayon's `ParallelIterator` the workspace uses.
pub trait ParallelIterator: Sized {
    /// Item produced by the iterator.
    type Item;

    /// Consumes the iterator, applying `f` to every item in parallel.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync;
}

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Pairs every element with its index.
    pub fn enumerate(self) -> ParIterMutEnumerate<'a, T> {
        ParIterMutEnumerate { slice: self.slice }
    }
}

impl<'a, T: Send> ParallelIterator for ParIterMut<'a, T> {
    type Item = &'a mut T;

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync,
    {
        run_indexed(self.slice, &|_, item| f(item));
    }
}

impl<'a, T: Send> ParallelIterator for ParIterMutEnumerate<'a, T> {
    type Item = (usize, &'a mut T);

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync,
    {
        run_indexed(self.slice, &|i, item| f((i, item)));
    }
}

/// Conversion into a parallel iterator over `&mut` elements.
pub trait IntoParallelRefMutIterator<'a> {
    /// Iterator type produced.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Item type produced.
    type Item;

    /// Creates the parallel iterator.
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Iter = ParIterMut<'a, T>;
    type Item = &'a mut T;

    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { slice: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Iter = ParIterMut<'a, T>;
    type Item = &'a mut T;

    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { slice: self }
    }
}

/// Common imports, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelRefMutIterator, ParallelIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    // Every parallel call in these tests pins at most 3 threads, so the
    // shared pool of this test binary never holds more than 2 workers.
    fn pinned_3() -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(3).build().unwrap()
    }

    #[test]
    fn par_iter_mut_touches_every_element() {
        let mut v = vec![0u64; 1000];
        pinned_3().install(|| {
            v.par_iter_mut()
                .enumerate()
                .for_each(|(i, x)| *x = i as u64 * 2)
        });
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as u64 * 2);
        }
    }

    #[test]
    fn install_pins_thread_count() {
        pinned_3().install(|| assert_eq!(current_num_threads(), 3));
    }

    #[test]
    fn items_see_the_pinned_count_on_every_thread() {
        let mut seen = vec![0usize; 64];
        pinned_3().install(|| {
            seen.par_iter_mut()
                .for_each(|count| *count = current_num_threads())
        });
        assert!(seen.iter().all(|&count| count == 3), "{seen:?}");
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_and_the_pool_lives_on() {
        let pinned = pinned_3();
        let mut v = vec![0u32; 256];
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pinned.install(|| {
                v.par_iter_mut().enumerate().for_each(|(i, _)| {
                    assert_ne!(i, 100, "item 100 fails");
                })
            })
        }));
        let payload = caught.expect_err("the item's panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(message.contains("item 100 fails"), "{message}");
        pinned.install(|| v.par_iter_mut().for_each(|x| *x += 1));
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn a_panic_out_of_install_restores_the_earlier_count() {
        // The closure makes no parallel call, so no worker starts.
        let before = current_num_threads();
        let pinned = ThreadPoolBuilder::new().num_threads(7).build().unwrap();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pinned.install(|| {
                assert_eq!(current_num_threads(), 7);
                panic!("install body fails")
            })
        }));
        assert!(caught.is_err());
        assert_eq!(current_num_threads(), before);
    }

    #[test]
    fn repeated_calls_reuse_the_same_workers() {
        let mut v = vec![0u32; 64];
        let pinned = pinned_3();
        for _ in 0..200 {
            pinned.install(|| v.par_iter_mut().for_each(|x| *x += 1));
        }
        assert!(v.iter().all(|&x| x == 200));
        let workers = lock(&pool().state).workers;
        assert!(workers <= 2, "{workers} workers started for 3 threads");
    }
}
