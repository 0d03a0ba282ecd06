//! Allocation bounds of delta-memo recording, counted by a global
//! allocator.
//!
//! A traced run records its memo into a few flat arenas, so recording must
//! cost a constant number of allocator calls over a plain `distribute`, and
//! cloning a primed memo (what `Arc::make_mut` does to a memo a cache entry
//! still shares) must cost a constant number too, whatever the iteration
//! count. `distribute` runs the same loop over a scratch memo, and may make
//! no more calls than the plain loop it replaced. This binary holds a
//! single test so the thread-local counter sees nothing but the code under
//! test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use platform::Platform;
use slicing::{CommEstimate, SliceMemo, Slicer};
use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};

/// Allocator calls a traced run may make beyond a plain `distribute` of
/// the same graph: the arenas, the memo's own fields and the odd regrowth.
const TRACED_EXTRA: u64 = 64;

/// Allocator calls a clone of a primed memo may make.
const CLONE_BOUND: u64 = 40;

/// Allocator calls of `distribute` per estimate (CCNE, CCAA) and seed
/// 0..8, measured when it was a plain loop that recorded nothing: the one
/// slicing loop, whose memo `distribute` drops, may make no more.
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
fn recording_and_cloning_a_memo_make_a_bounded_number_of_allocations() {
    let spec = WorkloadSpec::paper(ExecVariation::Mdet);
    let platform = Platform::paper(8).expect("valid platform");
    let mut clone_calls = Vec::new();
    // CCAA materializes messages, so its runs take far more iterations
    // than CCNE's on the same graphs: the clone bound must hold across
    // both.
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
            let mut memo = SliceMemo::new();
            let traced = calls(|| {
                black_box(
                    slicer
                        .redistribute(&graph, &platform, &mut memo)
                        .expect("slices"),
                );
            });
            assert!(
                traced <= plain + TRACED_EXTRA,
                "seed {seed}: traced run made {traced} allocator calls, plain {plain}"
            );
            let cloned = calls(|| {
                black_box(memo.clone());
            });
            assert!(
                cloned <= CLONE_BOUND,
                "seed {seed}: memo clone made {cloned} allocator calls"
            );
            clone_calls.push(cloned);
        }
    }
    // Independent of the iteration count: every clone makes the same
    // number of calls, however long its run was.
    let (min, max) = (
        clone_calls.iter().min().expect("sixteen runs"),
        clone_calls.iter().max().expect("sixteen runs"),
    );
    assert_eq!(min, max, "clone calls vary with the run: {clone_calls:?}");
}
