//! The persistent worker pool every threaded kernel call runs on.
//!
//! Spawning OS threads per call costs tens of microseconds and hands the
//! workers cold packing arenas — material for exactly the small matrices
//! the paper targets. [`ThreadPool`] keeps workers parked on a channel and
//! offers [`ThreadPool::scope_execute`]: run a batch of *borrowing*
//! closures and block until all of them finish. A service owns its pool;
//! the entry points that take none run on the process-wide
//! [`ThreadPool::global`].
//!
//! Soundness of the lifetime erasure: the closures may borrow from the
//! caller's stack (`'env`), and are transmuted to `'static` to cross the
//! channel. This is sound because `scope_execute` does not return until
//! the completion latch has counted every job down — the borrowed data
//! outlives every access. A panicking job still counts down (the latch
//! decrement lives in a drop guard) and the panic is re-raised on the
//! caller's thread after the batch drains, so no work is silently lost.
//!
//! Fault tolerance: a panicking job *kills its worker thread* — the
//! realistic model for a kernel that corrupted its own stack — and the
//! pool detects the death before `scope_execute` returns, reaps the dead
//! thread, and respawns a replacement bound to the *same* workspace slot
//! (so the warm per-worker arena is reclaimed, not leaked). The count is
//! exposed as [`PoolStats::workers_respawned`]. Mid-batch deaths are also
//! swept while the caller waits, so a batch whose workers all died with
//! jobs still queued drains on the replacements instead of deadlocking.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::fault;
use crate::workspace::Workspace;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Counter snapshot of one [`ThreadPool`]'s gang-reservation traffic.
///
/// `gang_refused` is the silent-degradation signal the co-scheduling
/// layer exists to eliminate: every refusal means a barrier-using batch
/// fell back to independent (duplicated) B packing because concurrent
/// callers had already reserved the workers it wanted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Gang reservations granted since the pool was built.
    pub gang_reserved: u64,
    /// Gang reservations refused (the caller degraded to independent
    /// packing or deferred).
    pub gang_refused: u64,
    /// Workers currently free for gang reservation.
    pub gang_available: usize,
    /// Worker threads respawned after dying to a panicked job.
    pub workers_respawned: u64,
    /// Transient gang refusals that were retried with backoff instead of
    /// immediately degrading the caller to independent packing.
    pub gang_backoff_retries: u64,
}

impl PoolStats {
    /// Fraction of gang requests that were refused (0 when idle).
    pub fn refusal_rate(&self) -> f64 {
        let total = self.gang_reserved + self.gang_refused;
        if total == 0 {
            0.0
        } else {
            self.gang_refused as f64 / total as f64
        }
    }
}

/// Counts outstanding jobs; the caller blocks until zero.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: Mutex<Option<String>>,
    /// Panicked jobs in this batch — each one kills its worker, so this
    /// is also the number of worker deaths the caller must reap.
    panics: AtomicUsize,
}

impl Latch {
    fn new(count: usize) -> Self {
        Self {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panicked: Mutex::new(None),
            panics: AtomicUsize::new(0),
        }
    }

    fn count_down(&self) {
        let mut remaining = self.remaining.lock();
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn record_panic(&self, msg: String) {
        let mut p = self.panicked.lock();
        if p.is_none() {
            *p = Some(msg);
        }
        self.panics.fetch_add(1, Ordering::Release);
        // Wake the waiting caller even though the batch has not drained:
        // the panicking job's worker is dying, and if the rest of the
        // batch is still queued behind dead workers the caller must
        // respawn them for the batch to finish at all.
        self.done.notify_all();
    }
}

/// Decrements the latch even if the job panics.
struct CountGuard<'a>(&'a Latch);

impl Drop for CountGuard<'_> {
    fn drop(&mut self) {
        self.0.count_down();
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
    sender: Option<Sender<Job>>,
    /// Kept so replacement workers can be spawned onto the same queue.
    receiver: Receiver<Job>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
    workspace: Arc<Workspace>,
    /// Workers not currently reserved by a gang-scheduled (barrier-using)
    /// batch; see [`ThreadPool::try_reserve_gang`].
    gang_capacity: Mutex<usize>,
    /// Granted gang reservations (lifetime counter).
    gang_reserved: AtomicU64,
    /// Refused gang reservations — each one is a caller silently
    /// degrading to independent packing.
    gang_refused: AtomicU64,
    /// Transient refusals absorbed by [`ThreadPool::reserve_gang_backoff`].
    gang_backoff_retries: AtomicU64,
    /// Workers that have died to a panicked job (monotonic).
    deaths_recorded: Arc<AtomicUsize>,
    /// Dead workers reaped and replaced by [`ThreadPool::heal`].
    deaths_reaped: AtomicUsize,
    /// Replacement workers spawned (lifetime counter).
    workers_respawned: AtomicU64,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("workers", &self.worker_count).finish()
    }
}

/// Spawn one pool worker bound to workspace slot `index`. The worker runs
/// queued jobs until the sender closes — or until a job panics, which
/// kills the worker (the death is recorded for [`ThreadPool::heal`] to
/// reap; the job's completion latch was already counted down by its drop
/// guard during the unwind).
fn spawn_worker(
    index: usize,
    receiver: Receiver<Job>,
    workspace: Arc<Workspace>,
    deaths: Arc<AtomicUsize>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("adsala-gemm-{index}"))
        .spawn(move || {
            // Bind this thread to its stable workspace slot, then run
            // until the sender is dropped.
            workspace.register_worker(index);
            while let Ok(job) = receiver.recv() {
                fault::worker_job_entry(index);
                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                    deaths.fetch_add(1, Ordering::Release);
                    break;
                }
            }
        })
        .expect("spawn pool worker")
}

impl ThreadPool {
    /// Spawn `workers` parked threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let workspace = Arc::new(Workspace::new(workers));
        let deaths = Arc::new(AtomicUsize::new(0));
        let (sender, receiver) = unbounded::<Job>();
        let handles = (0..workers)
            .map(|i| spawn_worker(i, receiver.clone(), Arc::clone(&workspace), Arc::clone(&deaths)))
            .collect();
        Self {
            sender: Some(sender),
            receiver,
            workers: Mutex::new(handles),
            worker_count: workers,
            workspace,
            gang_capacity: Mutex::new(workers),
            gang_reserved: AtomicU64::new(0),
            gang_refused: AtomicU64::new(0),
            gang_backoff_retries: AtomicU64::new(0),
            deaths_recorded: deaths,
            deaths_reaped: AtomicUsize::new(0),
            workers_respawned: AtomicU64::new(0),
        }
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
        self.worker_count
    }

    /// Reap any workers that died to a panicked job and respawn
    /// replacements bound to the same workspace slots, so the warm
    /// per-worker arenas are reclaimed and the pool returns to full
    /// strength. Cheap no-op (two relaxed loads) when nothing died.
    /// Returns the number of workers respawned by *this* call.
    ///
    /// `scope_execute` calls this itself before re-raising a batch panic,
    /// so external callers only need it as a belt-and-braces sweep.
    pub fn heal(&self) -> usize {
        let mut respawned = 0;
        while self.deaths_recorded.load(Ordering::Acquire)
            > self.deaths_reaped.load(Ordering::Relaxed)
        {
            let mut workers = self.workers.lock();
            for (i, handle) in workers.iter_mut().enumerate() {
                if handle.is_finished() {
                    let fresh = spawn_worker(
                        i,
                        self.receiver.clone(),
                        Arc::clone(&self.workspace),
                        Arc::clone(&self.deaths_recorded),
                    );
                    let dead = std::mem::replace(handle, fresh);
                    let _ = dead.join();
                    self.deaths_reaped.fetch_add(1, Ordering::Relaxed);
                    self.workers_respawned.fetch_add(1, Ordering::Relaxed);
                    respawned += 1;
                }
            }
            drop(workers);
            // A death was recorded but its thread has not fully exited
            // yet (`is_finished` lags the counter by the unwind epilogue);
            // yield and sweep again.
            std::thread::yield_now();
        }
        respawned
    }

    /// The packing workspace owned by this pool (per-worker arena slots
    /// plus the shared-B free list).
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// Snapshot the pool's gang-reservation and fault-recovery counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.worker_count,
            gang_reserved: self.gang_reserved.load(Ordering::Relaxed),
            gang_refused: self.gang_refused.load(Ordering::Relaxed),
            gang_available: *self.gang_capacity.lock(),
            workers_respawned: self.workers_respawned.load(Ordering::Relaxed),
            gang_backoff_retries: self.gang_backoff_retries.load(Ordering::Relaxed),
        }
    }

    /// Reserve `n` workers for a gang-scheduled batch whose tasks
    /// synchronise with each other (the cooperative shared-B driver's
    /// barriers). Returns `None` — caller must fall back to independent
    /// tasks — when the reservation would over-subscribe the pool.
    ///
    /// Why this exists: tasks queue on one channel, so a barrier-using
    /// batch larger than the worker count (or overlapping reservations
    /// that sum past it) could park every worker on a barrier whose
    /// remaining members are still queued behind them — deadlock. With
    /// all barrier users holding reservations bounded by the worker
    /// count, every member of every gang eventually gets a worker
    /// (non-gang jobs never block indefinitely), so every barrier opens.
    pub fn try_reserve_gang(&self, n: usize) -> Option<GangReservation<'_>> {
        self.reserve_gang(n, 1)
    }

    /// [`ThreadPool::try_reserve_gang`] with bounded exponential backoff:
    /// a refusal caused by concurrent holders is usually transient (gangs
    /// live for one batch), so retry a few times before degrading the
    /// caller to independent packing. A request larger than the pool can
    /// *ever* satisfy is refused immediately — backing off cannot help.
    pub fn reserve_gang_backoff(&self, n: usize) -> Option<GangReservation<'_>> {
        self.reserve_gang(n, 4)
    }

    /// Up to `attempts` tries at taking `n` workers out of the gang
    /// capacity, sleeping 50 µs, 100 µs, … between them.
    fn reserve_gang(&self, n: usize, attempts: u32) -> Option<GangReservation<'_>> {
        const BASE: Duration = Duration::from_micros(50);
        for attempt in 0..attempts {
            {
                let mut available = self.gang_capacity.lock();
                if *available >= n {
                    *available -= n;
                    self.gang_reserved.fetch_add(1, Ordering::Relaxed);
                    return Some(GangReservation { pool: self, n });
                }
            }
            if n > self.worker_count {
                break; // permanent refusal: over the pool's total size
            }
            if attempt + 1 < attempts {
                self.gang_backoff_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(BASE * 2u32.pow(attempt));
            }
        }
        self.gang_refused.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Execute a batch of borrowing closures on the pool, blocking until
    /// every one has finished. Panics from jobs are re-raised here —
    /// after the batch drains, the dead worker is reaped, and its
    /// replacement is running — so the caller observes one panic and a
    /// pool already back at full strength.
    pub fn scope_execute<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if tasks.is_empty() {
            return;
        }
        let deaths_before = self.deaths_recorded.load(Ordering::Acquire);
        let latch = Arc::new(Latch::new(tasks.len()));
        let sender = self.sender.as_ref().expect("pool alive");
        for task in tasks {
            let latch = Arc::clone(&latch);
            // SAFETY: the wait loop below blocks until the latch reaches
            // zero, i.e. until this closure (and its borrows of 'env
            // data) has completed — so the 'env lifetime outlives every
            // use. A panicking task counts down via `CountGuard`'s drop
            // during the unwind before `resume_unwind` reaches the
            // worker loop.
            let task: Box<dyn FnOnce() + Send + 'static> =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(task) };
            let job: Job = Box::new(move || {
                let _guard = CountGuard(&latch);
                if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "worker panicked".into());
                    latch.record_panic(msg);
                    // Kill this worker: a panicked kernel's thread state
                    // is suspect. The caller respawns a clean one.
                    std::panic::resume_unwind(payload);
                }
            });
            sender.send(job).expect("pool workers alive");
        }
        // Wait for the batch. The fault-free path parks on the condvar
        // with no polling; once a panic is recorded the batch's surviving
        // jobs may be queued behind dead workers, so switch to a short
        // timed wait and respawn between checks.
        {
            let mut remaining = latch.remaining.lock();
            while *remaining > 0 {
                if latch.panics.load(Ordering::Acquire) > 0 {
                    self.heal();
                    let _ = latch.done.wait_for(&mut remaining, Duration::from_millis(1));
                } else {
                    latch.done.wait(&mut remaining);
                }
            }
        }
        let panicked = latch.panicked.lock().take();
        if let Some(msg) = panicked {
            // Every panicked job killed one worker; wait until all of
            // this batch's deaths are recorded, then reap and respawn
            // them so the pool is whole before the caller sees the panic.
            let target = deaths_before + latch.panics.load(Ordering::Acquire);
            while self.deaths_recorded.load(Ordering::Acquire) < target {
                std::thread::yield_now();
            }
            self.heal();
            panic!("pool job panicked: {msg}");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel lets workers drain and exit.
        self.sender.take();
        for h in self.workers.lock().drain(..) {
            let _ = h.join();
        }
    }
}

/// A held gang reservation; dropping it returns the workers to the
/// reservable capacity.
pub struct GangReservation<'a> {
    pool: &'a ThreadPool,
    n: usize,
}

impl Drop for GangReservation<'_> {
    fn drop(&mut self) {
        *self.pool.gang_capacity.lock() += self.n;
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
                Box::new(|| {
                    completed.fetch_add(1, Ordering::Relaxed);
                }),
                Box::new(|| panic!("boom")),
                Box::new(|| {
                    completed.fetch_add(1, Ordering::Relaxed);
                }),
            ];
            pool.scope_execute(tasks);
        }));
        assert!(result.is_err(), "panic was swallowed");
        assert_eq!(completed.load(Ordering::Relaxed), 2, "other jobs must still run");
        // The pool survives a panicked batch.
        let counter = AtomicUsize::new(0);
        pool.scope_execute(vec![Box::new(|| {
            counter.fetch_add(1, Ordering::Relaxed);
        })]);
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panicked_worker_is_respawned_on_its_slot() {
        let pool = ThreadPool::new(2);
        // Warm both worker slots.
        let warm = |pool: &ThreadPool| {
            let ws = pool.workspace();
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..2)
                .map(|_| {
                    Box::new(move || {
                        ws.with_arena(|arena| {
                            arena.checkout_elems::<f64>(128);
                        });
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.scope_execute(tasks);
        };
        warm(&pool);
        warm(&pool);
        let before = pool.workspace().arena_stats();
        assert_eq!(pool.stats().workers_respawned, 0);

        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope_execute(vec![Box::new(|| panic!("die"))]);
        }));
        assert!(result.is_err());
        assert_eq!(pool.stats().workers_respawned, 1, "the dead worker must be replaced");

        // The replacement is bound to the same workspace slot, so the
        // warm arena is reclaimed: repeat traffic allocates nothing new.
        warm(&pool);
        warm(&pool);
        let after = pool.workspace().arena_stats();
        // The replacement landed on the dead worker's slot, so the pool
        // still holds at most one arena allocation per slot — a fresh
        // (unregistered or extra) slot would show up as a third.
        assert!(
            after.allocations <= 2,
            "at most one allocation per slot even after a respawn, got {after:?}"
        );
        assert!(after.bytes_reused > before.bytes_reused);
    }

    #[test]
    fn all_workers_dying_mid_batch_does_not_deadlock() {
        let pool = ThreadPool::new(2);
        let completed = AtomicUsize::new(0);
        // More panicking jobs than workers, plus trailing good jobs that
        // can only run if replacements are spawned mid-batch.
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
        assert!(pool.stats().workers_respawned >= 3);
        // And the pool still serves follow-up batches.
        let counter = AtomicUsize::new(0);
        pool.scope_execute(vec![Box::new(|| {
            counter.fetch_add(1, Ordering::Relaxed);
        })]);
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn gang_backoff_retries_transient_refusals() {
        let pool = ThreadPool::new(4);
        // Permanent refusal: larger than the pool — no retries, immediate.
        assert!(pool.reserve_gang_backoff(5).is_none());
        assert_eq!(pool.stats().gang_backoff_retries, 0);
        assert_eq!(pool.stats().gang_refused, 1);

        // Transient refusal: capacity held elsewhere, released while the
        // caller backs off. Timing-dependent which attempt wins, so
        // repeat until a retry-then-success run is observed.
        let mut saw_retry_success = false;
        for _ in 0..50 {
            let ok = std::thread::scope(|s| {
                let held = pool.try_reserve_gang(4).expect("capacity free");
                let releaser = s.spawn(move || {
                    std::thread::sleep(Duration::from_micros(1));
                    drop(held);
                });
                let got = pool.reserve_gang_backoff(2);
                releaser.join().unwrap();
                got.is_some()
            });
            if ok && pool.stats().gang_backoff_retries > 0 {
                saw_retry_success = true;
                break;
            }
        }
        assert!(saw_retry_success, "backoff never converted a transient refusal");
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
    fn gang_reservation_bounds_concurrent_gangs() {
        let pool = ThreadPool::new(4);
        let first = pool.try_reserve_gang(3).expect("capacity free");
        assert!(pool.try_reserve_gang(2).is_none(), "3 + 2 > 4 must be refused");
        let second = pool.try_reserve_gang(1).expect("one worker left");
        drop(first);
        let third = pool.try_reserve_gang(3).expect("capacity returned on drop");
        drop(second);
        drop(third);
        assert!(pool.try_reserve_gang(4).is_some(), "full capacity restored");
    }

    #[test]
    fn pool_stats_count_gang_traffic() {
        let pool = ThreadPool::new(4);
        assert_eq!(
            pool.stats(),
            PoolStats { workers: 4, gang_available: 4, ..PoolStats::default() }
        );
        let held = pool.try_reserve_gang(3).expect("capacity free");
        assert!(pool.try_reserve_gang(2).is_none());
        let stats = pool.stats();
        assert_eq!((stats.gang_reserved, stats.gang_refused, stats.gang_available), (1, 1, 1));
        assert!((stats.refusal_rate() - 0.5).abs() < 1e-12);
        drop(held);
        assert_eq!(pool.stats().gang_available, 4, "drop returns capacity");
    }
}
