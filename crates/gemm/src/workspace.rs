//! Reusable packing workspace — the zero-allocation substrate of the hot
//! path.
//!
//! The paper attributes most of the small-shape wall time to thread
//! synchronisation and data copies (§VI-D, Table VII). Before this module
//! existed, every worker of every GEMM call heap-allocated fresh packing
//! buffers (`a_buf`/`b_buf` vectors) — an avoidable per-call cost on
//! exactly the small problems the ML router sends to few threads. This
//! module provides the reusable scratch memory that removes it:
//!
//! * [`PackArena`] — one worker's growable, 64-byte-aligned scratch
//!   region. Checkouts after the high-water mark is reached are pure
//!   pointer math: **zero heap allocations** on a warm arena. Counters
//!   record growth events and warm bytes served so tests can *prove* the
//!   steady state allocates nothing.
//! * a **thread-local arena** ([`with_thread_arena`]) — the scratch of a
//!   call that runs inline on its caller's thread (a one-worker grid,
//!   Z-order). Long-lived callers (service client threads) keep it warm
//!   across calls.
//! * [`Workspace`] — the [`crate::pool::ThreadPool`]-owned set of
//!   per-worker slots (cache-line padded so neighbouring workers never
//!   false-share) plus a free list of shared-B regions. Pool workers get a
//!   stable slot index at spawn; [`Workspace::with_arena`] routes a pool
//!   worker to its own slot and any other thread to the thread-local
//!   arena.
//! * [`PanelBarrier`] — the lightweight per-rank-update barrier the
//!   cooperative shared-B driver synchronises on: sense-reversing, spin
//!   then yield, poisoned on worker panic so a failed groupmate turns
//!   into a panic instead of a hang.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::blocking::BlockSizes;
use crate::Element;

/// Cache-line size the arenas align and pad to.
pub const CACHE_LINE: usize = 64;

/// Round `bytes` up to a whole number of cache lines.
#[inline]
fn round_to_line(bytes: usize) -> usize {
    bytes.div_ceil(CACHE_LINE) * CACHE_LINE
}

/// A growable, 64-byte-aligned, zero-initialised raw buffer.
///
/// Growth discards the old contents (packing scratch carries no state
/// between checkouts), so no copy is ever paid.
struct AlignedBuf {
    ptr: *mut u8,
    bytes: usize,
}

// SAFETY: the buffer is a plain owned allocation; sending it to another
// thread transfers exclusive ownership of the memory.
unsafe impl Send for AlignedBuf {}

impl AlignedBuf {
    const fn empty() -> Self {
        Self { ptr: std::ptr::null_mut(), bytes: 0 }
    }

    /// Ensure at least `bytes` of capacity; returns `true` if the buffer
    /// had to (re)allocate.
    fn ensure(&mut self, bytes: usize) -> bool {
        if bytes <= self.bytes {
            return false;
        }
        let new_bytes = round_to_line(bytes);
        let layout = std::alloc::Layout::from_size_align(new_bytes, CACHE_LINE)
            .expect("arena layout overflow");
        // SAFETY: layout has non-zero size (bytes > self.bytes >= 0 and
        // rounded up to at least one cache line).
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        self.release();
        self.ptr = ptr;
        self.bytes = new_bytes;
        true
    }

    /// Free the allocation (the buffer becomes empty, not invalid).
    fn release(&mut self) {
        if !self.ptr.is_null() {
            let layout = std::alloc::Layout::from_size_align(self.bytes, CACHE_LINE)
                .expect("arena layout overflow");
            // SAFETY: ptr/bytes describe the live allocation made in
            // `ensure` with this exact layout.
            unsafe { std::alloc::dealloc(self.ptr, layout) };
            self.ptr = std::ptr::null_mut();
            self.bytes = 0;
        }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        self.release();
    }
}

/// Counters describing how an arena (or a set of arenas) has served
/// checkouts. `allocations` is the number the zero-allocation guarantee
/// is about: on a warm steady state it must stop moving.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Times a checkout had to grow the backing buffer (heap allocation).
    pub allocations: u64,
    /// Checkouts served in total.
    pub checkouts: u64,
    /// Bytes handed out without allocating (warm checkouts only).
    pub bytes_reused: u64,
}

impl ArenaStats {
    /// Fold another stats snapshot into this one.
    pub fn merge(&mut self, other: &ArenaStats) {
        self.allocations += other.allocations;
        self.checkouts += other.checkouts;
        self.bytes_reused += other.bytes_reused;
    }
}

/// One worker's reusable packing scratch.
///
/// An arena hands out `&mut [T]` scratch slices sized for the blocked
/// GEMM loop nest. The first checkout of a given size allocates; every
/// later checkout at or below the high-water mark reuses the same
/// 64-byte-aligned memory with no allocator traffic.
pub struct PackArena {
    buf: AlignedBuf,
    stats: ArenaStats,
}

impl std::fmt::Debug for PackArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackArena")
            .field("capacity_bytes", &self.buf.bytes)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Default for PackArena {
    fn default() -> Self {
        Self::new()
    }
}

impl PackArena {
    /// An empty arena (first checkout allocates).
    pub const fn new() -> Self {
        Self {
            buf: AlignedBuf::empty(),
            stats: ArenaStats { allocations: 0, checkouts: 0, bytes_reused: 0 },
        }
    }

    /// Current capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.buf.bytes
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Drop the backing allocation (counters are kept). The next checkout
    /// allocates again.
    pub fn reset(&mut self) {
        self.buf.release();
    }

    /// Check out one scratch slice of `len` elements.
    ///
    /// Returns the slice and the number of bytes served warm (0 when the
    /// arena had to grow).
    pub fn checkout_elems<T: Element>(&mut self, len: usize) -> (&mut [T], u64) {
        if len == 0 {
            // Never build a slice from the (possibly null) empty-arena
            // pointer, even zero-length.
            return (&mut [], 0);
        }
        let bytes = round_to_line(len * std::mem::size_of::<T>());
        let grew = self.buf.ensure(bytes);
        self.note(grew, bytes as u64);
        // SAFETY: `ensure` made the buffer non-null with at least `bytes`
        // zero-initialised (or previously written) bytes at 64-byte
        // alignment ≥ align_of::<T>(), and `&mut self` guarantees
        // exclusive access.
        let slice = unsafe { std::slice::from_raw_parts_mut(self.buf.ptr.cast::<T>(), len) };
        (slice, if grew { 0 } else { bytes as u64 })
    }

    /// Check out the `(a_buf, b_buf)` packing pair the blocked loop nest
    /// needs for `blocks`, each region cache-line padded so the two never
    /// share a line. Returns the pair and the bytes served warm.
    pub fn checkout_pair<T: Element>(&mut self, blocks: &BlockSizes) -> (&mut [T], &mut [T], u64) {
        let (a_len, b_len) = pack_buffer_lens(blocks);
        let elem = std::mem::size_of::<T>();
        let a_bytes = round_to_line(a_len * elem);
        let b_bytes = round_to_line(b_len * elem);
        let total = a_bytes + b_bytes;
        let grew = self.buf.ensure(total);
        self.note(grew, total as u64);
        // SAFETY: as in `checkout_elems`; the two ranges are disjoint
        // (`b` starts at the cache-line-rounded end of `a`).
        let (a, b) = unsafe {
            let base = self.buf.ptr;
            (
                std::slice::from_raw_parts_mut(base.cast::<T>(), a_len),
                std::slice::from_raw_parts_mut(base.add(a_bytes).cast::<T>(), b_len),
            )
        };
        (a, b, if grew { 0 } else { total as u64 })
    }

    fn note(&mut self, grew: bool, bytes: u64) {
        self.stats.checkouts += 1;
        if grew {
            self.stats.allocations += 1;
        } else {
            self.stats.bytes_reused += bytes;
        }
    }
}

/// Packing-buffer lengths (in elements) for one worker under `blocks`:
/// the `A` micro-panel block and the `B` micro-panel block.
pub fn pack_buffer_lens(blocks: &BlockSizes) -> (usize, usize) {
    let a_len = blocks.mc.div_ceil(blocks.mr) * blocks.mr * blocks.kc;
    let b_len = blocks.kc * blocks.nc.div_ceil(blocks.nr) * blocks.nr;
    (a_len, b_len)
}

thread_local! {
    static THREAD_ARENA: RefCell<PackArena> = const { RefCell::new(PackArena::new()) };
}

/// Run `f` with the calling thread's persistent arena: the scratch of a
/// call that runs inline on its caller's thread (a one-worker grid,
/// Z-order). On a long-lived thread it stays warm across calls.
pub fn with_thread_arena<R>(f: impl FnOnce(&mut PackArena) -> R) -> R {
    THREAD_ARENA.with(|arena| f(&mut arena.borrow_mut()))
}

/// Counter snapshot of the calling thread's arena.
pub fn thread_arena_stats() -> ArenaStats {
    THREAD_ARENA.with(|arena| arena.borrow().stats())
}

/// `true` when the calling thread is a registered pool worker (of any
/// workspace). Fault injection uses this to scope panics to pooled
/// execution so a serial caller-thread retry runs clean.
pub(crate) fn on_worker_thread() -> bool {
    WORKER_SLOT.with(|slot| slot.get().0 != 0)
}

/// Pad a slot to a cache line so adjacent workers' arena headers (and
/// lock words) never false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

static NEXT_WORKSPACE_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(workspace id, slot index)` of the pool worker running on this
    /// thread; `(0, _)` means "not a pool worker" (ids start at 1).
    static WORKER_SLOT: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

/// The packing workspace owned by a [`crate::pool::ThreadPool`]: one
/// cache-line-padded [`PackArena`] slot per worker plus a free list of
/// arenas for the cooperative driver's shared-B regions.
///
/// Slots are keyed by the stable worker index each pool thread registers
/// at spawn, so a worker always lands on the same warm arena. The slot
/// mutexes are uncontended by construction (only the owning worker locks
/// its slot); they exist to make the access pattern safe, not to
/// arbitrate.
pub struct Workspace {
    id: u64,
    slots: Vec<CachePadded<Mutex<PackArena>>>,
    shared: Mutex<Vec<PackArena>>,
}

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workspace").field("id", &self.id).field("slots", &self.slots.len()).finish()
    }
}

impl Workspace {
    /// A workspace with `workers` per-worker slots.
    pub fn new(workers: usize) -> Self {
        Self {
            id: NEXT_WORKSPACE_ID.fetch_add(1, Ordering::Relaxed),
            slots: (0..workers.max(1)).map(|_| CachePadded(Mutex::new(PackArena::new()))).collect(),
            shared: Mutex::new(Vec::new()),
        }
    }

    /// Number of per-worker slots.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Bind the calling thread to slot `index`. Called once per worker at
    /// pool spawn; a thread belongs to at most one workspace.
    pub(crate) fn register_worker(&self, index: usize) {
        debug_assert!(index < self.slots.len());
        WORKER_SLOT.with(|slot| slot.set((self.id, index)));
    }

    /// Run `f` with the best arena for the calling thread: a registered
    /// pool worker of *this* workspace gets its own padded slot, any
    /// other thread gets its thread-local arena.
    pub fn with_arena<R>(&self, f: impl FnOnce(&mut PackArena) -> R) -> R {
        let (ws, idx) = WORKER_SLOT.with(|slot| slot.get());
        if ws == self.id {
            f(&mut self.slots[idx].0.lock())
        } else {
            with_thread_arena(f)
        }
    }

    /// Take a shared-region arena from the free list (or a fresh empty
    /// one on a cold start). Pair with [`Workspace::restore_shared`];
    /// steady-state traffic cycles the same arenas with no allocation.
    pub fn checkout_shared(&self) -> PackArena {
        self.shared.lock().pop().unwrap_or_default()
    }

    /// Return a shared-region arena to the free list.
    pub fn restore_shared(&self, arena: PackArena) {
        self.shared.lock().push(arena);
    }

    /// Aggregate counters over every worker slot and every *parked*
    /// shared-region arena (arenas checked out by an in-flight call are
    /// counted once they are restored).
    pub fn arena_stats(&self) -> ArenaStats {
        let mut total = ArenaStats::default();
        for slot in &self.slots {
            total.merge(&slot.0.lock().stats());
        }
        for arena in self.shared.lock().iter() {
            total.merge(&arena.stats());
        }
        total
    }
}

/// A sense-reversing barrier for one cooperative shared-B panel group.
///
/// All `members` workers of a grid column group call [`PanelBarrier::wait`]
/// twice per rank update: once after the designated packer fills the
/// shared panel (publish), once after everyone has consumed it (retire).
/// Waiting spins briefly then yields, so the cost is nanoseconds when the
/// group is balanced and the OS stays in charge when it is not.
///
/// If a groupmate panics, its unwind guard poisons the barrier and every
/// waiter panics too instead of spinning forever — the pool's panic
/// propagation then reports the original failure to the caller.
pub struct PanelBarrier {
    members: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl PanelBarrier {
    /// A barrier for `members` cooperating workers.
    pub fn new(members: usize) -> Self {
        Self {
            members: members.max(1),
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Block until all members have arrived.
    ///
    /// # Panics
    /// Panics if the barrier was poisoned by a panicking member.
    pub fn wait(&self) {
        if self.members == 1 {
            self.check_poison();
            return;
        }
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.members {
            // Last arriver: reset the count, then open the gate. The
            // release store publishes both the reset and every member's
            // preceding writes (panel contents) to the waiters.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(generation.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                self.check_poison();
                spins = spins.saturating_add(1);
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        self.check_poison();
    }

    /// Mark the group as failed; every current and future waiter panics.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    fn check_poison(&self) {
        if self.poisoned.load(Ordering::Acquire) {
            panic!("shared-B panel group poisoned by a panicking worker");
        }
    }
}

/// Poisons a [`PanelBarrier`] if the scope unwinds from a panic, so the
/// rest of the group fails fast instead of deadlocking at the barrier.
pub struct PoisonOnUnwind<'a>(pub &'a PanelBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn arena_reuses_after_first_checkout() {
        let mut arena = PackArena::new();
        let blocks = BlockSizes::for_f64();
        let (a, b, warm) = arena.checkout_pair::<f64>(&blocks);
        let (a_len, b_len) = pack_buffer_lens(&blocks);
        assert_eq!((a.len(), b.len()), (a_len, b_len));
        assert_eq!(warm, 0, "cold checkout cannot be warm");
        a[0] = 1.0;
        b[0] = 2.0;
        let stats = arena.stats();
        assert_eq!((stats.allocations, stats.checkouts), (1, 1));

        let (_, _, warm) = arena.checkout_pair::<f64>(&blocks);
        assert!(warm > 0, "second checkout must be served warm");
        let stats = arena.stats();
        assert_eq!(stats.allocations, 1, "warm checkout must not allocate");
        assert_eq!(stats.checkouts, 2);
        assert_eq!(stats.bytes_reused, warm);
    }

    #[test]
    fn arena_grows_monotonically_and_smaller_requests_stay_warm() {
        let mut arena = PackArena::new();
        let (_, warm) = arena.checkout_elems::<f32>(1024);
        assert_eq!(warm, 0);
        let (_, warm) = arena.checkout_elems::<f32>(8); // smaller: warm
        assert!(warm > 0);
        let (_, warm) = arena.checkout_elems::<f32>(4096); // larger: grows
        assert_eq!(warm, 0);
        assert_eq!(arena.stats().allocations, 2);
    }

    #[test]
    fn checkout_slices_are_aligned_and_zeroed_when_fresh() {
        let mut arena = PackArena::new();
        let (slice, _) = arena.checkout_elems::<f64>(33);
        assert_eq!(slice.as_ptr() as usize % CACHE_LINE, 0);
        assert!(slice.iter().all(|&v| v == 0.0), "fresh arena memory must be zeroed");
        let (a, b, _) = arena.checkout_pair::<f64>(&BlockSizes::for_f64().clamped(16, 16, 16));
        assert_eq!(a.as_ptr() as usize % CACHE_LINE, 0);
        assert_eq!(b.as_ptr() as usize % CACHE_LINE, 0);
    }

    #[test]
    fn zero_length_checkout_is_safe_and_free() {
        let mut arena = PackArena::new();
        let (slice, warm) = arena.checkout_elems::<f64>(0);
        assert!(slice.is_empty());
        assert_eq!(warm, 0);
        assert_eq!(arena.stats(), ArenaStats::default(), "empty checkout must not allocate");
    }

    #[test]
    fn reset_forces_reallocation() {
        let mut arena = PackArena::new();
        arena.checkout_elems::<f64>(256);
        arena.reset();
        assert_eq!(arena.capacity_bytes(), 0);
        let (_, warm) = arena.checkout_elems::<f64>(256);
        assert_eq!(warm, 0, "checkout after reset must re-allocate");
        assert_eq!(arena.stats().allocations, 2);
    }

    #[test]
    fn thread_arena_persists_across_scopes() {
        // Burn in a size, then confirm repeated uses stay warm.
        with_thread_arena(|a| {
            a.checkout_elems::<f64>(512);
        });
        let before = thread_arena_stats();
        for _ in 0..5 {
            with_thread_arena(|a| {
                a.checkout_elems::<f64>(512);
            });
        }
        let after = thread_arena_stats();
        assert_eq!(after.allocations, before.allocations, "warm reuse must not allocate");
        assert_eq!(after.checkouts, before.checkouts + 5);
    }

    #[test]
    fn workspace_routes_unregistered_threads_to_thread_local() {
        let ws = Workspace::new(2);
        // This test thread is not a pool worker: with_arena must use the
        // thread-local arena, leaving the slots untouched.
        ws.with_arena(|a| {
            a.checkout_elems::<f32>(64);
        });
        assert_eq!(ws.arena_stats(), ArenaStats::default());
    }

    #[test]
    fn workspace_shared_free_list_recycles() {
        let ws = Workspace::new(1);
        let mut arena = ws.checkout_shared();
        arena.checkout_elems::<f64>(1000);
        ws.restore_shared(arena);
        let mut again = ws.checkout_shared();
        let (_, warm) = again.checkout_elems::<f64>(1000);
        assert!(warm > 0, "recycled shared arena must be warm");
        ws.restore_shared(again);
        assert_eq!(ws.arena_stats().allocations, 1);
    }

    #[test]
    fn barrier_synchronises_phases() {
        let members = 4;
        let barrier = PanelBarrier::new(members);
        let phase = AtomicU32::new(0);
        let errors = AtomicU32::new(0);
        std::thread::scope(|scope| {
            for _ in 0..members {
                scope.spawn(|| {
                    for round in 0..50u32 {
                        // Everyone must observe the same phase between
                        // barrier generations.
                        if phase.load(Ordering::SeqCst) != round {
                            errors.fetch_add(1, Ordering::SeqCst);
                        }
                        barrier.wait();
                        // One arbitrary member bumps the phase exactly once.
                        let _ = phase.compare_exchange(
                            round,
                            round + 1,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        );
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(errors.load(Ordering::SeqCst), 0);
        assert_eq!(phase.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn poisoned_barrier_panics_waiters_instead_of_hanging() {
        let barrier = PanelBarrier::new(2);
        let waiter_result = std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| barrier.wait()))
            });
            // Give the waiter a moment to park, then poison.
            std::thread::sleep(std::time::Duration::from_millis(10));
            barrier.poison();
            handle.join().expect("waiter thread survived")
        });
        assert!(waiter_result.is_err(), "poison must panic the waiter");
    }

    #[test]
    fn single_member_barrier_is_free() {
        let barrier = PanelBarrier::new(1);
        barrier.wait();
        barrier.wait();
    }
}
