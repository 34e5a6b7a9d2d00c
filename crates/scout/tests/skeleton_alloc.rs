//! Steady-state allocation check of the skeleton kernel: once a
//! `SkeletonScratch` has seen a walkthrough, replaying that
//! walkthrough's results through `Skeleton::reconstruct_into`
//! allocates nothing.

use neurospatial_flat::{FlatBuildParams, FlatIndex};
use neurospatial_geom::Aabb;
use neurospatial_model::{CircuitBuilder, MorphologyParams, NavigationPath, NeuronSegment};
use neurospatial_scout::{Skeleton, SkeletonParams, SkeletonScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the heap allocations of the calling thread only, so the test
/// harness's own threads cannot disturb the count. `realloc` and
/// `alloc_zeroed` count too; `dealloc` is free.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn warmed_reconstruct_into_allocates_nothing() {
    let circuit = CircuitBuilder::new(11).neurons(16).morphology(MorphologyParams::small()).build();
    let index = FlatIndex::build(
        circuit.segments().to_vec(),
        FlatBuildParams::default().with_page_capacity(32),
    );
    // Several walkthroughs back to back: results grow, shrink and change
    // their number of structures from step to step.
    let steps: Vec<(Aabb, Vec<&NeuronSegment>)> = (0..8)
        .filter_map(|seed| NavigationPath::along_random_branch(&circuit, seed, 20.0, 8.0))
        .flat_map(|path| path.queries)
        .map(|q| {
            let (result, _) = index.range_query(&q);
            (q, result)
        })
        .collect();
    assert!(steps.len() > 20, "the walkthroughs have enough steps");
    assert!(steps.iter().any(|(_, r)| r.len() > 50), "some results are large");

    let params = SkeletonParams::default();
    let mut skeleton = Skeleton::default();
    let mut scratch = SkeletonScratch::new();
    for (q, result) in &steps {
        skeleton.reconstruct_into(result, q, params, &mut scratch);
    }

    let mut structures = 0;
    let before = allocations();
    for (q, result) in &steps {
        skeleton.reconstruct_into(result, q, params, &mut scratch);
        structures += skeleton.structures.len();
    }
    let allocated = allocations() - before;
    assert!(structures > steps.len(), "the replay built many structures");
    assert_eq!(allocated, 0, "the warmed replay allocated {allocated} times");

    // The reused output is still exactly the fresh reconstruction.
    for (q, result) in &steps {
        skeleton.reconstruct_into(result, q, params, &mut scratch);
        let fresh = Skeleton::reconstruct(result, q, params);
        assert_eq!(format!("{:?}", skeleton.structures), format!("{:?}", fresh.structures));
    }
}
