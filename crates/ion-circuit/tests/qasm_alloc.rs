//! Allocation bound for the QASM front-end: parsing must not allocate per
//! token or per statement.
//!
//! A counting global allocator (installed for this test binary only) counts
//! the calling thread's heap allocations. Parsing QFT_96 (about 4,800
//! statements), RAN_1024 (about 10,000) or SQRT_299 (about 14,000) may
//! allocate at most [`MAX_PARSE_ALLOCATIONS`] times: the growing gate list,
//! the circuit name, the register list and the two reused parameter and
//! operand buffers. One allocation per statement, identifier, literal or
//! operand would cost thousands.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ion_circuit::{generators, qasm};

/// The bound the front-end must stay under for each source.
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

/// Parses `source` and checks the allocation bound.
fn assert_bounded(label: &str, source: &str) {
    let (parsed, count) = allocations_during(|| qasm::parse(std::hint::black_box(source)));
    let circuit = parsed.unwrap_or_else(|e| panic!("{label} parses: {e}"));
    assert!(circuit.len() > 4_000, "{label}: {} gates", circuit.len());
    assert!(
        count <= MAX_PARSE_ALLOCATIONS,
        "parsing {label} ({} bytes, {} gates) allocated {count} times (bound {MAX_PARSE_ALLOCATIONS})",
        source.len(),
        circuit.len()
    );
}

#[test]
fn parsing_qft_96_allocates_a_bounded_number_of_times() {
    assert_bounded("QFT_96", &qasm::to_qasm(&generators::qft(96)));
}

#[test]
fn parsing_gate_dense_sources_allocates_a_bounded_number_of_times() {
    // Short statements, almost all on the statement fast path: RAN_1024's
    // `rxx(pi/2) q[a],q[b];` and SQRT_299's `cx q[a],q[b];`.
    let ran = generators::random_circuit(1024, 8192, 25);
    assert_bounded("RAN_1024", &qasm::to_qasm(&ran));
    assert_bounded("SQRT_299", &qasm::to_qasm(&generators::sqrt(299)));
}
