//! Allocation-regression suite: the scheduling hot loop must perform **zero**
//! heap allocations in steady state.
//!
//! A counting global allocator (installed for the unit-test binary only)
//! tracks per-thread allocation counts; after a warm-up pass has grown every
//! pooled buffer — op stream, placement state, SWAP-insertion buffer, DAG ready
//! list, per-qubit cursors and look-ahead probe, executable/newly-ready scratch — re-running the same pass in
//! the same scratch must allocate nothing at all. The counters are
//! thread-local so the suite stays exact under `cargo test`'s parallel test
//! threads.

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

/// Number of heap allocations the calling thread has performed so far.
fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Runs `f` and returns how many allocations it performed on this thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = thread_allocations();
    f();
    thread_allocations() - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::trivial_mapping;
    use crate::scheduler::{schedule_cost_only, schedule_in, SchedulerScratch};
    use crate::MussTiOptions;
    use eml_qccd::DeviceConfig;
    use ion_circuit::{generators, DependencyDag};

    #[test]
    fn counting_allocator_observes_heap_traffic() {
        let count = allocations_during(|| {
            let v: Vec<u64> = Vec::with_capacity(32);
            std::hint::black_box(v);
        });
        assert!(count >= 1, "a fresh Vec must register at least one alloc");
        // A capacity-respecting push allocates nothing.
        let mut v: Vec<u64> = Vec::with_capacity(4);
        let count = allocations_during(|| v.push(7));
        assert_eq!(count, 0);
    }

    /// The full scheduling pass (op stream materialised) is allocation-free
    /// once the pooled scratch is warm. QFT_48 on a 2-module device exercises
    /// every path: shuttles, LRU evictions, fiber gates and the
    /// SWAP-insertion weights.
    #[test]
    fn warm_full_pass_performs_zero_allocations() {
        let device = DeviceConfig::for_qubits(48).build();
        let circuit = generators::qft(48);
        let options = MussTiOptions::default();
        let mapping = trivial_mapping(&device, 48).unwrap();
        let mut dag = DependencyDag::from_circuit(&circuit);
        let mut cx = SchedulerScratch::new(&device);

        // Warm-up: grow every pooled buffer to this workload's footprint.
        for _ in 0..2 {
            dag.reset();
            schedule_in(&device, &options, &mut dag, &mapping, &mut cx).unwrap();
        }

        dag.reset();
        let allocs = allocations_during(|| {
            schedule_in(&device, &options, &mut dag, &mapping, &mut cx).unwrap();
        });
        assert_eq!(
            allocs, 0,
            "steady-state full scheduling pass must not allocate"
        );
    }

    /// The same invariant on a >2-module device with SWAP insertion doing
    /// real work: a dense random 96-qubit circuit on 3 modules triggers
    /// fiber gates, on-demand `W(q, ·)` queries (bound and exact window
    /// walks), inserted SWAPs with their `swap_logical` exchange, and LRU
    /// evictions — and the warm pass must still not allocate: the
    /// partner-module buffer is pooled in the scheduler scratch.
    #[test]
    fn warm_full_pass_with_swap_insertion_on_three_modules_is_allocation_free() {
        let device = DeviceConfig::for_qubits(96).build();
        assert!(
            device.num_modules() > 2,
            "this regression needs a >2-module device"
        );
        let circuit = generators::random_circuit(96, 600, 17);
        let options = MussTiOptions::default();
        assert!(
            options.enable_swap_insertion,
            "the default pass must run SWAP insertion"
        );
        let mapping = trivial_mapping(&device, 96).unwrap();
        let mut dag = DependencyDag::from_circuit(&circuit);
        let mut cx = SchedulerScratch::new(&device);

        for _ in 0..2 {
            dag.reset();
            let stats = schedule_in(&device, &options, &mut dag, &mapping, &mut cx).unwrap();
            assert!(
                stats.inserted_swaps > 0,
                "the workload must actually drive the Section 3.3 pass"
            );
        }

        dag.reset();
        let allocs = allocations_during(|| {
            schedule_in(&device, &options, &mut dag, &mapping, &mut cx).unwrap();
        });
        assert_eq!(
            allocs, 0,
            "steady-state swap-inserting pass on 3 modules must not allocate"
        );
    }

    /// The cost-only dry pass is likewise allocation-free after warm-up —
    /// and needs no warm op buffer at all, since it materialises nothing.
    #[test]
    fn warm_cost_only_pass_performs_zero_allocations() {
        let device = DeviceConfig::for_qubits(48).build();
        let circuit = generators::qft(48);
        let options = MussTiOptions {
            enable_swap_insertion: false,
            ..MussTiOptions::default()
        };
        let mapping = trivial_mapping(&device, 48).unwrap();
        let mut dag = DependencyDag::from_circuit(&circuit);
        let mut cx = SchedulerScratch::new(&device);

        for _ in 0..2 {
            dag.reset();
            schedule_cost_only(&device, &options, &mut dag, &mapping, &mut cx).unwrap();
        }

        dag.reset();
        let allocs = allocations_during(|| {
            schedule_cost_only(&device, &options, &mut dag, &mapping, &mut cx).unwrap();
        });
        assert_eq!(
            allocs, 0,
            "steady-state cost-only scheduling pass must not allocate"
        );
    }

    /// A warm cost-only dry pass stays allocation-free while its LRU
    /// evictions tie and fall through to the look-ahead probe: at pass start
    /// every resident qubit shares the same last-use stamp, so the first
    /// evictions from the full zones of a 64-qubit random circuit break ties
    /// by next-use depth. The probe's memo and stack are sized when the DAG
    /// is built, so those queries allocate nothing.
    #[test]
    fn warm_cost_only_pass_with_lru_ties_performs_zero_allocations() {
        let device = DeviceConfig::for_qubits(64).build();
        let circuit = generators::random_circuit(64, 400, 5);
        let options = MussTiOptions {
            enable_swap_insertion: false,
            ..MussTiOptions::default()
        };
        let mapping = trivial_mapping(&device, 64).unwrap();
        let mut dag = DependencyDag::from_circuit(&circuit);
        let mut cx = SchedulerScratch::new(&device);

        for _ in 0..2 {
            dag.reset();
            schedule_cost_only(&device, &options, &mut dag, &mapping, &mut cx).unwrap();
        }

        dag.reset();
        let visits = dag.window_probe_visits();
        let allocs = allocations_during(|| {
            schedule_cost_only(&device, &options, &mut dag, &mapping, &mut cx).unwrap();
        });
        assert!(
            dag.window_probe_visits() > visits,
            "the pass must break ties through the look-ahead probe"
        );
        assert_eq!(
            allocs, 0,
            "steady-state cost-only pass breaking LRU ties must not allocate"
        );
    }

    /// `DependencyDag::reset` and `reset_reversed` recycle every allocation
    /// once the edge lists and build scratch are warm.
    #[test]
    fn warm_dag_resets_perform_zero_allocations() {
        let circuit = generators::qft(32);
        let mut dag = DependencyDag::from_circuit(&circuit);
        // Warm-up: one orientation round trip grows the build scratch.
        dag.reset_reversed();
        dag.reset_reversed();
        let allocs = allocations_during(|| {
            dag.reset();
            dag.reset_reversed();
            dag.reset_reversed();
        });
        assert_eq!(allocs, 0, "DAG rewinds must recycle every allocation");
    }
}
