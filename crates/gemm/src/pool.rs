//! The persistent worker pool every threaded kernel call runs on.
//!
//! Spawning OS threads per call costs tens of microseconds and hands the
//! workers cold packing arenas — material for exactly the small matrices
//! the paper targets. [`ThreadPool`] keeps workers parked on one FIFO job
//! queue and offers [`ThreadPool::scope_execute`]: run a batch of
//! *borrowing* closures and block until all of them finish. A service
//! owns its pool; the entry points that take none run on the
//! process-wide [`ThreadPool::global`].
//!
//! Soundness of the lifetime erasure: the closures may borrow from the
//! caller's stack (`'env`), and are transmuted to `'static` to sit in the
//! queue. This is sound because `scope_execute` does not return until
//! the completion latch has counted every job down — the borrowed data
//! outlives every access. A panicking job still counts down (the latch
//! decrement lives in a drop guard).
//!
//! Panics: a job's panic is caught on its worker, recorded in the batch
//! latch, and re-raised once on the caller's thread after every other
//! job of the batch has run. The worker itself survives and takes its
//! next job on the same workspace slot, so its warm packing arena stays
//! warm and the pool never shrinks.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use crate::fault;
use crate::workspace::Workspace;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Counter snapshot of one [`ThreadPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Always 0: a worker outlives a panicking job, so none is ever
    /// respawned. The field stays because the benchmark still reports
    /// `pool.workers_respawned`.
    pub workers_respawned: u64,
}

impl PoolStats {
    /// Always 0.0: the share of worker-gang requests the pool refused,
    /// from when a call could ask for one. No call asks any more; the
    /// method stays only so the benchmark, which still reports
    /// `pool.gang_refusal_rate`, builds unedited until its next revision.
    pub fn refusal_rate(&self) -> f64 {
        0.0
    }
}

/// Outstanding jobs of one batch and the first panic among them.
struct Batch {
    remaining: usize,
    panic: Option<String>,
}

/// Counts a batch's jobs down; the caller blocks until zero.
struct Latch {
    batch: Mutex<Batch>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Self { batch: Mutex::new(Batch { remaining: count, panic: None }), done: Condvar::new() }
    }

    fn count_down(&self) {
        let mut batch = self.batch.lock();
        batch.remaining -= 1;
        if batch.remaining == 0 {
            self.done.notify_all();
        }
    }

    fn record_panic(&self, msg: String) {
        self.batch.lock().panic.get_or_insert(msg);
    }

    /// Block until every job has counted down; the first panic, if any.
    fn wait(&self) -> Option<String> {
        let mut batch = self.batch.lock();
        while batch.remaining > 0 {
            self.done.wait(&mut batch);
        }
        batch.panic.take()
    }
}

/// Decrements the latch even if the job panics.
struct CountGuard<'a>(&'a Latch);

impl Drop for CountGuard<'_> {
    fn drop(&mut self) {
        self.0.count_down();
    }
}

/// The job queue the workers park on. `closed` is set once, by `Drop`.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    closed: bool,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    ready: Condvar,
}

impl Shared {
    /// The next job, parking while the queue is empty; `None` once the
    /// queue is closed and drained.
    fn next_job(&self) -> Option<Job> {
        let mut queue = self.queue.lock();
        loop {
            if let Some(job) = queue.jobs.pop_front() {
                return Some(job);
            }
            if queue.closed {
                return None;
            }
            self.ready.wait(&mut queue);
        }
    }
}

/// A fixed-size pool of parked worker threads.
///
/// Besides execution, the pool owns the packing [`Workspace`]: every
/// worker registers a stable index at spawn and reuses the same
/// cache-line-padded [`crate::workspace::PackArena`] slot across calls,
/// which is what makes the steady-state serving path allocation-free on
/// the packing side.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    workspace: Arc<Workspace>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("workers", &self.workers.len()).finish()
    }
}

impl ThreadPool {
    /// Spawn `workers` parked threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let workspace = Arc::new(Workspace::new(workers));
        let shared = Arc::new(Shared::default());
        let handles = (0..workers)
            .map(|index| {
                let (shared, workspace) = (Arc::clone(&shared), Arc::clone(&workspace));
                std::thread::Builder::new()
                    .name(format!("adsala-gemm-{index}"))
                    .spawn(move || {
                        // Bind this thread to its stable workspace slot,
                        // then run jobs until the queue closes.
                        workspace.register_worker(index);
                        while let Some(job) = shared.next_job() {
                            fault::worker_job_entry();
                            job();
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, workers: handles, workspace }
    }

    /// Spawn one parked worker per available hardware thread — the right
    /// size for a pool that serves this host's GEMM traffic.
    pub fn with_host_parallelism() -> Self {
        Self::new(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }

    /// The process-wide pool: [`ThreadPool::with_host_parallelism`], built
    /// on first use and never dropped — the one persistent thread team per
    /// process a vendor BLAS keeps. [`crate::gemm_with_stats`],
    /// [`crate::syrk_with_stats`] and [`crate::gemv_with_stats`] run on it.
    ///
    /// Its one precondition is every [`ThreadPool::scope_execute`]'s: a
    /// task running on this pool must not call it at more than one thread,
    /// or the call can wait on workers that are all waiting on it.
    pub fn global() -> &'static ThreadPool {
        static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
        GLOBAL.get_or_init(ThreadPool::with_host_parallelism)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The packing workspace owned by this pool (its per-worker arena
    /// slots).
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// Snapshot the pool's size.
    pub fn stats(&self) -> PoolStats {
        PoolStats { workers: self.workers.len(), workers_respawned: 0 }
    }

    /// Execute a batch of borrowing closures on the pool, blocking until
    /// every one has finished. A job's panic is re-raised here, once,
    /// after the whole batch has run; the worker it ran on keeps serving.
    pub fn scope_execute<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        let count = tasks.len();
        if count == 0 {
            return;
        }
        let latch = Arc::new(Latch::new(count));
        {
            let mut queue = self.shared.queue.lock();
            for task in tasks {
                // SAFETY: `latch.wait()` below blocks until the latch
                // reaches zero, i.e. until this closure (and its borrows
                // of 'env data) has completed or unwound — so the 'env
                // lifetime outlives every use. A panicking task is
                // dropped inside `catch_unwind`, before `CountGuard`
                // counts it down.
                let task: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(task) };
                let latch = Arc::clone(&latch);
                queue.jobs.push_back(Box::new(move || {
                    let _guard = CountGuard(&latch);
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                        latch.record_panic(
                            payload
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "worker panicked".into()),
                        );
                    }
                }));
            }
        }
        for _ in 0..count {
            self.shared.ready.notify_one();
        }
        if let Some(msg) = latch.wait() {
            panic!("pool job panicked: {msg}");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the queue lets workers drain it and exit.
        self.shared.queue.lock().closed = true;
        self.shared.ready.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn executes_all_jobs() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..100)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.scope_execute(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn jobs_can_borrow_stack_data() {
        let pool = ThreadPool::new(3);
        let mut results = vec![0usize; 8];
        {
            let chunks: Vec<&mut usize> = results.iter_mut().collect();
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = chunks
                .into_iter()
                .enumerate()
                .map(|(i, slot)| {
                    Box::new(move || {
                        *slot = i * i;
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.scope_execute(tasks);
        }
        assert_eq!(results, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn batches_are_reusable() {
        let pool = ThreadPool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..10 {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..5)
                .map(|_| {
                    Box::new(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.scope_execute(tasks);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn panic_in_job_propagates_after_batch_completes() {
        let pool = ThreadPool::new(2);
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| panic!("boom")),
                Box::new(|| {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    completed.fetch_add(1, Ordering::Relaxed);
                }),
                Box::new(|| panic!("boom")),
                Box::new(|| {
                    completed.fetch_add(1, Ordering::Relaxed);
                }),
            ];
            pool.scope_execute(tasks);
        }));
        // One panic reaches the caller for the two that were raised, and
        // only once the slow job behind them has run.
        let payload = result.expect_err("panic was swallowed");
        let msg = payload.downcast_ref::<String>().expect("a formatted panic message");
        assert_eq!(msg, "pool job panicked: boom");
        assert_eq!(completed.load(Ordering::Relaxed), 2, "other jobs must still run");
        // The pool survives a panicked batch.
        let counter = AtomicUsize::new(0);
        pool.scope_execute(vec![Box::new(|| {
            counter.fetch_add(1, Ordering::Relaxed);
        })]);
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    /// Run `job` once on every worker: each task waits on a barrier as
    /// wide as the pool, so no worker can take two of them, and the batch
    /// finishes only if every worker is alive to take one.
    fn on_every_worker(pool: &ThreadPool, job: impl Fn() + Sync) {
        let barrier = std::sync::Barrier::new(pool.workers());
        let (barrier, job) = (&barrier, &job);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..pool.workers())
            .map(|_| {
                Box::new(move || {
                    barrier.wait();
                    job();
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.scope_execute(tasks);
    }

    #[test]
    fn every_worker_survives_any_number_of_panics() {
        let pool = ThreadPool::new(3);
        for _ in 0..5 {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                on_every_worker(&pool, || panic!("die"));
            }));
            assert!(result.is_err());
        }
        let ran = AtomicUsize::new(0);
        on_every_worker(&pool, || {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 3, "a worker was lost to a panic");
        assert_eq!(pool.stats(), PoolStats { workers: 3, workers_respawned: 0 });
    }

    #[test]
    fn a_panicked_job_leaves_its_worker_on_its_warm_slot() {
        let pool = ThreadPool::new(2);
        let ws = pool.workspace();
        let warm = || {
            on_every_worker(&pool, || {
                ws.with_arena(|arena| {
                    arena.checkout_elems::<f64>(128);
                });
            })
        };
        warm();
        let before = ws.arena_stats();
        assert_eq!(before.allocations, 2, "one allocation per slot");

        // Every worker runs a panicking job.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            on_every_worker(&pool, || panic!("die"));
        }));
        assert!(result.is_err());

        // Each worker is still on its warm slot: repeat traffic allocates
        // nothing new.
        warm();
        warm();
        let after = ws.arena_stats();
        assert_eq!(after.allocations, before.allocations, "{before:?} -> {after:?}");
        assert!(after.bytes_reused > before.bytes_reused);
    }

    #[test]
    fn more_panicking_jobs_than_workers_still_drain() {
        let pool = ThreadPool::new(2);
        let completed = AtomicUsize::new(0);
        // More panicking jobs than workers, plus trailing good jobs queued
        // behind them.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..3)
                .map(|_| Box::new(|| panic!("die")) as Box<dyn FnOnce() + Send + '_>)
                .collect();
            for _ in 0..4 {
                tasks.push(Box::new(|| {
                    completed.fetch_add(1, Ordering::Relaxed);
                }));
            }
            pool.scope_execute(tasks);
        }));
        assert!(result.is_err());
        assert_eq!(completed.load(Ordering::Relaxed), 4, "surviving jobs must still run");
        // And the pool still serves follow-up batches.
        let counter = AtomicUsize::new(0);
        pool.scope_execute(vec![Box::new(|| {
            counter.fetch_add(1, Ordering::Relaxed);
        })]);
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pool = ThreadPool::new(1);
        pool.scope_execute(Vec::new());
    }

    #[test]
    fn global_is_one_pool_sized_to_the_host() {
        let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert!(std::ptr::eq(ThreadPool::global(), ThreadPool::global()));
        assert_eq!(ThreadPool::global().workers(), host);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn workers_use_their_stable_workspace_slots() {
        let pool = ThreadPool::new(3);
        // Each task checks out scratch through the workspace; all of it
        // must land in the pool's slots, not in thread-local fallbacks.
        for _ in 0..4 {
            let ws = pool.workspace();
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..3)
                .map(|_| {
                    Box::new(move || {
                        ws.with_arena(|arena| {
                            arena.checkout_elems::<f64>(256);
                        });
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.scope_execute(tasks);
        }
        let stats = pool.workspace().arena_stats();
        assert_eq!(stats.checkouts, 12, "every checkout must hit a pool slot");
        assert!(stats.allocations <= 3, "at most one allocation per worker slot, got {stats:?}");
        assert!(stats.bytes_reused > 0, "repeat batches must reuse warm slots");
    }

    #[test]
    fn pool_stats_report_size_and_no_refusals() {
        let pool = ThreadPool::new(4);
        let stats = pool.stats();
        assert_eq!(stats, PoolStats { workers: 4, workers_respawned: 0 });
        assert_eq!(stats.refusal_rate(), 0.0, "no call asks for a gang");
    }
}
