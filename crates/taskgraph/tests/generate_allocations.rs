//! Allocation bounds of graph generation and of `TaskGraph::clone`,
//! counted by a global allocator.
//!
//! A task graph keeps its adjacency in flat CSR arrays, so generating one
//! and cloning one make a handful of allocator calls that do not grow with
//! the node count. This binary holds a single test so the thread-local
//! counter sees nothing but the code under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};

/// Allocator calls of `generate_seeded` per paper MDET graph: the level
/// assignment, the builder's arrays, the sample buffer, the critical-path
/// pass and the built graph's arrays. When the adjacency was one `Vec` per
/// node, each level a `Vec` and each sample a copy of its level, seeds
/// 0..8 made 227, 271, 261, 246, 266, 235, 258 and 206 calls.
const GENERATE_CALLS: u64 = 18;

/// Allocator calls of `TaskGraph::clone` on an unnamed graph: one per
/// array, whatever the graph's size. When the adjacency was one `Vec` per
/// node, seeds 0..8 made 91, 109, 105, 101, 104, 91, 106 and 80 calls.
const CLONE_CALLS: u64 = 9;

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
fn generation_and_clone_make_few_allocator_calls() {
    let spec = WorkloadSpec::paper(ExecVariation::Mdet);
    for seed in 0..8u64 {
        let mut graph = None;
        let generate = calls(|| graph = Some(generate_seeded(&spec, seed).expect("paper graph")));
        assert!(
            generate <= GENERATE_CALLS,
            "seed {seed}: generation made {generate} allocator calls, the bound is {GENERATE_CALLS}"
        );
        let graph = graph.expect("generated above");
        let clone = calls(|| {
            black_box(graph.clone());
        });
        assert!(
            clone <= CLONE_CALLS,
            "seed {seed}: clone made {clone} allocator calls, the bound is {CLONE_CALLS}"
        );
    }
}
