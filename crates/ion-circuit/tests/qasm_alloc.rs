//! Allocation bound for the QASM front-end: parsing must not allocate per
//! token or per statement.
//!
//! A counting global allocator (installed for this test binary only) counts
//! the calling thread's heap allocations. Parsing QFT_96 (about 4,800
//! statements) may allocate at most [`MAX_PARSE_ALLOCATIONS`] times: the
//! growing gate list, the circuit name, the register list and the two
//! reused parameter and operand buffers. One allocation per identifier,
//! literal or operand would cost thousands.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ion_circuit::{generators, qasm};

/// The bound the front-end must stay under for QFT_96.
const MAX_PARSE_ALLOCATIONS: u64 = 64;

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

/// Runs `f` and returns its result with the number of allocations it
/// performed on this thread.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn counting_allocator_observes_heap_traffic() {
    let (_, count) = allocations_during(|| std::hint::black_box(Vec::<u64>::with_capacity(8)));
    assert!(count >= 1);
}

#[test]
fn parsing_qft_96_allocates_a_bounded_number_of_times() {
    let source = qasm::to_qasm(&generators::qft(96));
    let (parsed, count) = allocations_during(|| qasm::parse(std::hint::black_box(&source)));
    let circuit = parsed.expect("QFT_96 parses");
    assert!(circuit.len() > 4_000, "{} gates", circuit.len());
    assert!(
        count <= MAX_PARSE_ALLOCATIONS,
        "parsing QFT_96 ({} bytes, {} gates) allocated {count} times (bound {MAX_PARSE_ALLOCATIONS})",
        source.len(),
        circuit.len()
    );
}
