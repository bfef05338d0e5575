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
//!   false-share). Pool workers get a stable slot index at spawn;
//!   [`Workspace::with_arena`] routes a pool worker to its own slot and
//!   any other thread to the thread-local arena.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

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
/// cache-line-padded [`PackArena`] slot per worker.
///
/// Slots are keyed by the stable worker index each pool thread registers
/// at spawn, so a worker always lands on the same warm arena. The slot
/// mutexes are uncontended by construction (only the owning worker locks
/// its slot); they exist to make the access pattern safe, not to
/// arbitrate.
pub struct Workspace {
    id: u64,
    slots: Vec<CachePadded<Mutex<PackArena>>>,
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

    /// Aggregate counters over every worker slot.
    pub fn arena_stats(&self) -> ArenaStats {
        let mut total = ArenaStats::default();
        for slot in &self.slots {
            total.merge(&slot.0.lock().stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
