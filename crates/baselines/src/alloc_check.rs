//! Allocation-regression suite for the grid baselines: a warm scheduling
//! pass performs **zero** heap allocations, for every routing policy.
//!
//! A counting global allocator (installed for the unit-test binary only)
//! tracks per-thread allocation counts; after warm-up passes have grown every
//! pooled buffer in the [`GridContext`](crate::GridContext) — placement
//! state, op stream, driver buffers — re-running the same pass in the same
//! context must allocate nothing at all, transports included. The counters
//! are thread-local so the suite stays exact under `cargo test`'s parallel
//! test threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations performed by the current thread (allocs + reallocs).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] with a thread-local allocation counter in front.
struct CountingAllocator;

// SAFETY: delegates every operation verbatim to `System`; the counter is a
// plain thread-local `Cell` bump with no allocation of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTING_ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns how many allocations it performed on this thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{initial_grid_mapping, schedule_on_grid_in, GridContext, RoutingPolicy};
    use eml_qccd::{GridConfig, ScheduledOp};
    use ion_circuit::{generators, DependencyDag};

    #[test]
    fn counting_allocator_observes_heap_traffic() {
        let count = allocations_during(|| {
            let v: Vec<u64> = Vec::with_capacity(32);
            std::hint::black_box(v);
        });
        assert!(count >= 1, "a fresh Vec must register at least one alloc");
    }

    /// Murali, Dai and MQT passes over a nearly full 2×2 grid: multi-hop
    /// transports, chain rearrangements, LRU evictions and (for Dai)
    /// meetings in a third trap, and none of it allocates once warm.
    #[test]
    fn warm_grid_passes_perform_zero_allocations() {
        let device = GridConfig::new(2, 2, 12).build();
        let circuit = generators::random_circuit(44, 400, 5);
        let mapping = initial_grid_mapping(&device, 44).unwrap();
        for policy in [
            RoutingPolicy::Greedy,
            RoutingPolicy::LookaheadMeet,
            RoutingPolicy::ProcessingZone,
        ] {
            let mut dag = DependencyDag::from_circuit(&circuit);
            let mut cx = GridContext::new(&device);
            for _ in 0..2 {
                dag.reset();
                schedule_on_grid_in(&mut cx, &device, policy, &mut dag, &mapping).unwrap();
            }

            dag.reset();
            let allocs = allocations_during(|| {
                schedule_on_grid_in(&mut cx, &device, policy, &mut dag, &mapping).unwrap();
            });
            let multi_hop = cx.ops().windows(2).any(|w| {
                matches!(
                    w,
                    [ScheduledOp::Shuttle { qubit: a, .. }, ScheduledOp::Shuttle { qubit: b, .. }]
                        if a == b
                )
            });
            assert!(
                multi_hop,
                "{policy:?}: the workload must transport over several hops"
            );
            assert_eq!(allocs, 0, "{policy:?}: a warm grid pass must not allocate");
        }
    }
}
