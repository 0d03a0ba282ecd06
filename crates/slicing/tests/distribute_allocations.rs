//! Allocation bound of `distribute`, counted by a global allocator.
//!
//! The slicing loop keeps one search record per start for the whole run,
//! so `distribute` may make no more allocator calls than the plain loop
//! that recorded nothing. This binary holds a single test
//! so the thread-local counter sees nothing but the code under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use platform::Platform;
use slicing::{CommEstimate, Slicer};
use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};

/// Allocator calls of `distribute` per estimate (CCNE, CCAA) and seed
/// 0..8, measured when it was a plain loop that recorded nothing: the one
/// slicing loop may make no more.
const PLAIN_LOOP_CALLS: [[u64; 8]; 2] = [
    [116, 119, 133, 153, 152, 125, 114, 123],
    [180, 290, 221, 197, 306, 304, 251, 144],
];

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocating call (`alloc`, `alloc_zeroed`, `realloc`) made
/// on the calling thread.
struct Counting;

fn count() {
    // `try_with`: the slot is gone while the thread itself is torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` requires; the
// counter is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls `f` makes on this thread.
fn calls(f: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

#[test]
fn distribute_makes_no_more_allocator_calls_than_the_plain_loop() {
    let spec = WorkloadSpec::paper(ExecVariation::Mdet);
    let platform = Platform::paper(8).expect("valid platform");
    for (estimate, bounds) in [CommEstimate::Ccne, CommEstimate::Ccaa]
        .into_iter()
        .zip(PLAIN_LOOP_CALLS)
    {
        let slicer = Slicer::bst_norm().with_estimate(estimate);
        for (seed, bound) in (0..8u64).zip(bounds) {
            let graph = generate_seeded(&spec, seed).expect("paper graph");
            let plain = calls(|| {
                black_box(slicer.distribute(&graph, &platform).expect("slices"));
            });
            assert!(
                plain <= bound,
                "seed {seed}: distribute made {plain} allocator calls, the plain loop {bound}"
            );
        }
    }
}
