//! Allocation behaviour of the decision sweep.
//!
//! A cache miss prices every candidate of the grid; the sweep builds its
//! rows in a per-thread scratch and the model evaluates them in place, so
//! once that scratch is sized a decision touches the heap not at all. A
//! counting global allocator proves it for the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use adsala::bundle::quick_test_bundle_over;
use adsala::{OpShape, Precision};
use adsala_gemm::plan::PlanGrid;

thread_local! {
    /// Heap allocations (and reallocations) this thread has made.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every request is forwarded unchanged to `System`; the counter is
// a const-initialised thread-local `Cell` without a destructor, so touching
// it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn warm_decision_sweeps_allocate_nothing() {
    // 3 thread rungs × 18 blocking/algorithm points, rev-2 plan features.
    let bundle = quick_test_bundle_over(Some(PlanGrid::widened(vec![1, 2, 4], 384)));
    let shape = |i: u64| OpShape::gemm(Precision::F32, 32 + i, 64 + 3 * i, 48 + 2 * i);
    // The first sweep sizes this thread's scratch (and resolves the
    // host's block sizes for `materialise`).
    black_box(bundle.decide_op_capped(shape(0), u32::MAX));

    let before = ALLOCATIONS.with(Cell::get);
    for i in 1..=100 {
        let decision = bundle.decide_op_capped(black_box(shape(i)), u32::MAX);
        assert!(decision.predicted_runtime_s > 0.0);
    }
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(allocated, 0, "100 warm sweeps allocated {allocated} times on the calling thread");
}
