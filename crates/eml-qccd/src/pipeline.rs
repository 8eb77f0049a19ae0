//! The staged compilation pipeline: typed stage artifacts, reusable
//! compile contexts, long-lived sessions and parallel batch compilation.
//!
//! The one-shot [`Compiler::compile`](crate::Compiler::compile) call is a
//! facade over a staged pipeline (placement → scheduling → swap insertion →
//! lowering) whose per-compile scratch — placement state, op streams,
//! scheduling work buffers, executor clock/heat arrays — lives in a
//! [`CompileContext`] arena that is allocated once and reused across runs. Three entry points expose that reuse:
//!
//! * [`StagedCompiler::compile_in`] — compile into a caller-held context;
//! * [`CompileSession`] — a compiler paired with its context, held across
//!   requests;
//! * [`compile_batch`] — shard per-circuit contexts across
//!   [`std::thread::scope`] workers with deterministic result ordering.
//!
//! Context reuse is strictly an allocation-recycling optimisation: a reused
//! context yields op streams **bit-identical** to a fresh one (pinned by the
//! workspace fingerprint suites).
//!
//! ```
//! use eml_qccd::{CompileSession, Compiler, StagedCompiler};
//! # use eml_qccd::{CompileContext, CompileError, CompiledProgram};
//! # use ion_circuit::Circuit;
//! # #[derive(Debug)] struct Echo;
//! # impl Compiler for Echo {
//! #     fn name(&self) -> &str { "echo" }
//! #     fn compile(&self, c: &Circuit) -> Result<CompiledProgram, CompileError> {
//! #         let mut ctx = StagedCompiler::new_context(self);
//! #         self.compile_in(&mut ctx, c)
//! #     }
//! # }
//! # impl StagedCompiler for Echo {
//! #     fn new_context(&self) -> CompileContext { CompileContext::empty() }
//! #     fn compile_in(&self, _: &mut CompileContext, c: &Circuit) -> Result<CompiledProgram, CompileError> {
//! #         Ok(CompiledProgram::new("echo", c, Vec::new(), &eml_qccd::ScheduleExecutor::paper_defaults(), std::time::Duration::ZERO))
//! #     }
//! # }
//! let mut session = CompileSession::new(Echo);
//! let circuit = ion_circuit::generators::ghz(8);
//! let first = session.compile(&circuit).unwrap();   // cold context
//! let second = session.compile(&circuit).unwrap();  // reused context
//! assert_eq!(format!("{:?}", first.ops()), format!("{:?}", second.ops()));
//! ```

// lint: concurrency

use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use ion_circuit::{Circuit, CircuitError, Gate, QubitId};

use crate::{CompileError, CompiledProgram, Compiler, EmlQccdDevice, QccdGridDevice, ScheduledOp};

// ---------------------------------------------------------------------------
// Stage artifacts
// ---------------------------------------------------------------------------

/// Artifact of the **placement** stage: the initial qubit → location
/// assignment a scheduling pass starts from. `L` is the device's location
/// type (`ZoneId` for EML-QCCD modules, `TrapId` for monolithic grids).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement<L> {
    /// The assignment, one entry per placed qubit, in qubit order.
    pub assignment: Vec<(QubitId, L)>,
}

impl<L> Placement<L> {
    /// Wraps an explicit assignment.
    pub fn new(assignment: Vec<(QubitId, L)>) -> Self {
        Placement { assignment }
    }
}

/// Artifact of the **scheduling + swap-insertion** stages: the transport and
/// two-qubit-gate portion of the program, plus where every ion ended up.
#[derive(Debug, Clone)]
pub struct Scheduled<L> {
    /// Scheduled transport and gate operations.
    pub ops: Vec<ScheduledOp>,
    /// Final qubit → location assignment when the pass finished.
    pub final_assignment: Vec<(QubitId, L)>,
    /// Number of cross-module SWAP gates inserted by the swap-insertion pass
    /// (always zero for compilers without one).
    pub inserted_swaps: usize,
    /// Wall-clock time spent inside the swap-insertion pass (a slice of the
    /// scheduling stage, reported separately in [`StageTimings`]).
    pub swap_insertion_time: Duration,
}

/// Artifact of the **lowering** stage: the complete op stream (single-qubit
/// gates and measurements accounted against the placements), ready for
/// evaluation into a [`CompiledProgram`].
#[derive(Debug, Clone)]
pub struct Lowered {
    /// The full scheduled operation sequence.
    pub ops: Vec<ScheduledOp>,
}

impl Lowered {
    /// The lowering every compiler runs: each single-qubit gate of `circuit`
    /// at its qubit's location in `start` (they never force a shuttle and
    /// cost the same anywhere), then `scheduled`, then each measurement at
    /// its qubit's location in `end`. A gate on a qubit a placement does not
    /// hold is dropped.
    pub fn assemble(
        circuit: &Circuit,
        start: impl IntoIterator<Item = (QubitId, usize)>,
        scheduled: &[ScheduledOp],
        end: impl IntoIterator<Item = (QubitId, usize)>,
    ) -> Lowered {
        let mut ops = Vec::with_capacity(scheduled.len() + circuit.len());
        let mut location: Vec<Option<usize>> = vec![None; circuit.num_qubits()];
        for (q, at) in start {
            location[q.index()] = Some(at);
        }
        for gate in circuit.gates() {
            if !gate.is_single_qubit() {
                continue;
            }
            let qubit = gate
                .single_qubit_target()
                .expect("single-qubit gates have a target");
            if let Some(zone) = location.get(qubit.index()).copied().flatten() {
                ops.push(ScheduledOp::SingleQubitGate { qubit, zone });
            }
        }
        ops.extend_from_slice(scheduled);
        location.fill(None);
        for (q, at) in end {
            location[q.index()] = Some(at);
        }
        for gate in circuit.gates() {
            if let Gate::Measure(qubit) = *gate {
                if let Some(zone) = location.get(qubit.index()).copied().flatten() {
                    ops.push(ScheduledOp::Measurement { qubit, zone });
                }
            }
        }
        Lowered { ops }
    }
}

/// The compile boundary every compiler checks first:
/// [`Circuit::validate_for`] against the device's effective `capacity`.
///
/// # Errors
///
/// [`CompileError::DeviceTooSmall`] for a circuit wider than the device,
/// [`CompileError::InvalidCircuit`] for any other defect.
pub fn validate(circuit: &Circuit, capacity: usize) -> Result<(), CompileError> {
    circuit.validate_for(capacity).map_err(|e| match e {
        CircuitError::WiderThanTarget { num_qubits, .. } => CompileError::DeviceTooSmall {
            required: num_qubits,
            capacity,
        },
        other => CompileError::InvalidCircuit(other.to_string()),
    })
}

/// Wall-clock breakdown of one compilation run, stage by stage, so the
/// compile-time benchmark and the experiment harness can show where the time
/// goes per PR.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Initial placement, including SABRE dry passes where applicable.
    pub placement_ms: f64,
    /// The main scheduling loop, excluding swap insertion.
    pub scheduling_ms: f64,
    /// The swap-insertion pass, measured inside the scheduling loop.
    pub swap_insertion_ms: f64,
    /// Op-stream assembly plus metrics evaluation by the executor.
    pub lowering_ms: f64,
    /// Nodes whose look-ahead depth the on-demand window probe computed
    /// across every scheduling pass of the compile — the deterministic
    /// hot-path counter the bench tracks per PR so look-ahead cost stays
    /// visible. Not a time: excluded from [`total_ms`](Self::total_ms).
    pub window_probe_visits: u64,
    /// SABRE probe dry passes skipped by the convergence early-exit
    /// (0 or 1 per compile). Not a time: excluded from
    /// [`total_ms`](Self::total_ms).
    pub probe_skips: u64,
    /// Exact look-ahead window walks the swap-insertion pass ran (target
    /// and partner checks the probe-free bound did not settle). Not a time:
    /// excluded from [`total_ms`](Self::total_ms).
    pub swap_window_walks: u64,
}

impl StageTimings {
    /// Total wall-clock across all (time) stages, in milliseconds; the
    /// diagnostic counters do not contribute.
    pub fn total_ms(&self) -> f64 {
        self.placement_ms + self.scheduling_ms + self.swap_insertion_ms + self.lowering_ms
    }
}

/// Sizing handle threaded through the pipeline: the resource dimensions of
/// the target device that the executor's flat clock/heat arrays are sized
/// from, so callers never hand-count zones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceDims {
    /// Number of zone/trap resource slots on the device.
    pub num_zones: usize,
}

impl From<&EmlQccdDevice> for DeviceDims {
    fn from(device: &EmlQccdDevice) -> Self {
        DeviceDims {
            num_zones: device.zones().len(),
        }
    }
}

impl From<&QccdGridDevice> for DeviceDims {
    fn from(device: &QccdGridDevice) -> Self {
        DeviceDims {
            num_zones: device.num_traps(),
        }
    }
}

// ---------------------------------------------------------------------------
// Compile contexts
// ---------------------------------------------------------------------------

/// Compiler-specific scratch stored inside a [`CompileContext`].
///
/// Implementors own every reusable per-compile allocation; [`reset`]
/// (`ContextScratch::reset`) must drop all circuit-derived *state* while
/// keeping the allocations, so that a reset (or freshly reused) context
/// produces op streams bit-identical to a brand-new one.
pub trait ContextScratch: Any + Send {
    /// Clears all per-circuit state, keeping allocations for reuse.
    fn reset(&mut self);
}

/// The type-erased per-compile scratch arena a [`StagedCompiler`] works in.
///
/// A context is cheap to create but expensive to *warm* (its buffers grow to
/// the working-set size of the circuits compiled in it); reusing one across
/// compiles skips the re-allocation entirely. Contexts are compiler-specific
/// under the hood — handing a context to a different compiler type simply
/// re-initialises it.
#[derive(Debug, Default)]
pub struct CompileContext {
    scratch: Option<Box<dyn ContextScratch>>,
}

impl std::fmt::Debug for dyn ContextScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ContextScratch")
    }
}

impl CompileContext {
    /// A context with no scratch yet; the first compile initialises it.
    pub fn empty() -> Self {
        CompileContext::default()
    }

    /// A context pre-loaded with compiler-specific scratch.
    pub fn with<T: ContextScratch>(scratch: T) -> Self {
        CompileContext {
            scratch: Some(Box::new(scratch)),
        }
    }

    /// Clears all per-circuit state while keeping the allocations, so the
    /// next compile starts from a state indistinguishable from a fresh
    /// context (pinned by the session-reuse proptest suite).
    pub fn reset(&mut self) {
        if let Some(scratch) = &mut self.scratch {
            scratch.reset();
        }
    }

    /// `true` if the context currently holds scratch of type `T`.
    pub fn holds<T: ContextScratch>(&self) -> bool {
        self.scratch
            .as_deref()
            .is_some_and(|s| (s as &dyn Any).is::<T>())
    }

    /// The typed scratch, initialising (or replacing mismatched scratch)
    /// via `init`. This is how a [`StagedCompiler::compile_in`] implementation
    /// recovers its concrete arena from the erased context.
    pub fn scratch_or_init<T: ContextScratch>(&mut self, init: impl FnOnce() -> T) -> &mut T {
        if !self.holds::<T>() {
            self.scratch = Some(Box::new(init()));
        }
        let scratch = self
            .scratch
            .as_deref_mut()
            .expect("scratch was just initialised");
        (scratch as &mut dyn Any)
            .downcast_mut::<T>()
            .expect("scratch type was just checked")
    }
}

// ---------------------------------------------------------------------------
// The staged-compiler trait
// ---------------------------------------------------------------------------

/// A [`Compiler`] whose pipeline runs inside an explicit, reusable
/// [`CompileContext`].
///
/// The trait is object-safe: experiment harnesses hold
/// `Box<dyn StagedCompiler + Send + Sync>` and still get context reuse and
/// batch compilation. `compile_in` with a fresh context must behave exactly
/// like [`Compiler::compile`]; with a reused context it must produce
/// bit-identical op streams (only allocations are recycled).
pub trait StagedCompiler: Compiler {
    /// Creates a context sized for this compiler's device.
    fn new_context(&self) -> CompileContext;

    /// Compiles `circuit`, reusing the scratch held in `ctx`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Compiler::compile`].
    fn compile_in(
        &self,
        ctx: &mut CompileContext,
        circuit: &Circuit,
    ) -> Result<CompiledProgram, CompileError>;
}

impl<C: Compiler + ?Sized> Compiler for &C {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn compile(&self, circuit: &Circuit) -> Result<CompiledProgram, CompileError> {
        (**self).compile(circuit)
    }
}

impl<C: StagedCompiler + ?Sized> StagedCompiler for &C {
    fn new_context(&self) -> CompileContext {
        (**self).new_context()
    }
    fn compile_in(
        &self,
        ctx: &mut CompileContext,
        circuit: &Circuit,
    ) -> Result<CompiledProgram, CompileError> {
        (**self).compile_in(ctx, circuit)
    }
}

impl<C: Compiler + ?Sized> Compiler for Box<C> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn compile(&self, circuit: &Circuit) -> Result<CompiledProgram, CompileError> {
        (**self).compile(circuit)
    }
}

impl<C: StagedCompiler + ?Sized> StagedCompiler for Box<C> {
    fn new_context(&self) -> CompileContext {
        (**self).new_context()
    }
    fn compile_in(
        &self,
        ctx: &mut CompileContext,
        circuit: &Circuit,
    ) -> Result<CompiledProgram, CompileError> {
        (**self).compile_in(ctx, circuit)
    }
}

// ---------------------------------------------------------------------------
// Post-compile schedule checks
// ---------------------------------------------------------------------------

/// A post-compile validation hook: inspects the compiled program against its
/// source circuit and vetoes it with [`CompileError::VerificationFailed`] if
/// the op stream is invalid.
///
/// The concrete check is supplied by callers (the `verify` crate builds one
/// from a device model) so the pipeline stays free of a dependency on the
/// analyzer. Checks run strictly **after** compilation, only on the
/// `*_checked` entry points — the unchecked compile paths pay zero cost.
pub type ScheduleCheck<'a> =
    &'a (dyn Fn(&Circuit, &CompiledProgram) -> Result<(), CompileError> + Sync);

/// One-shot [`Compiler::compile`] followed by a [`ScheduleCheck`] on the
/// result.
///
/// # Errors
///
/// Everything [`Compiler::compile`] returns, plus whatever the check vetoes
/// (by convention [`CompileError::VerificationFailed`]).
pub fn compile_checked<C>(
    compiler: &C,
    circuit: &Circuit,
    check: ScheduleCheck<'_>,
) -> Result<CompiledProgram, CompileError>
where
    C: Compiler + ?Sized,
{
    let program = compiler.compile(circuit)?;
    check(circuit, &program)?;
    Ok(program)
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

/// A compiler paired with its reusable [`CompileContext`], held across
/// requests: the serving-path entry point for repeated compiles against one
/// device. See the module-level example, and the `muss_ti` crate docs for an
/// end-to-end session over a real compiler.
#[derive(Debug)]
pub struct CompileSession<C: StagedCompiler> {
    compiler: C,
    context: CompileContext,
}

impl<C: StagedCompiler> CompileSession<C> {
    /// Opens a session, allocating the context once.
    pub fn new(compiler: C) -> Self {
        let context = compiler.new_context();
        CompileSession { compiler, context }
    }

    /// The compiler this session drives.
    pub fn compiler(&self) -> &C {
        &self.compiler
    }

    /// Compiles `circuit` in the session's context.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Compiler::compile`].
    pub fn compile(&mut self, circuit: &Circuit) -> Result<CompiledProgram, CompileError> {
        self.compiler.compile_in(&mut self.context, circuit)
    }

    /// [`CompileSession::compile`] followed by a [`ScheduleCheck`] on the
    /// result — context reuse with the same verification guarantee as
    /// [`compile_checked`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`compile_checked`].
    pub fn compile_checked(
        &mut self,
        circuit: &Circuit,
        check: ScheduleCheck<'_>,
    ) -> Result<CompiledProgram, CompileError> {
        let program = self.compiler.compile_in(&mut self.context, circuit)?;
        check(circuit, &program)?;
        Ok(program)
    }

    /// Drops all per-circuit state held in the context (keeping its
    /// allocations), e.g. between tenants of a shared serving process.
    pub fn reset(&mut self) {
        self.context.reset();
    }

    /// Compiles many circuits in parallel (the session's own context is not
    /// used; each worker gets its own). See [`compile_batch`].
    pub fn compile_batch(&self, circuits: &[Circuit]) -> Vec<Result<CompiledProgram, CompileError>>
    where
        C: Sync,
    {
        compile_batch(&self.compiler, circuits)
    }

    /// [`CompileSession::compile_batch`] with a [`ScheduleCheck`] applied to
    /// every successfully compiled slot; see
    /// [`compile_batch_with_threads_checked`] for the fault-isolation
    /// guarantees.
    pub fn compile_batch_checked(
        &self,
        circuits: &[Circuit],
        check: ScheduleCheck<'_>,
    ) -> Vec<Result<CompiledProgram, CompileError>>
    where
        C: Sync,
    {
        let default_threads = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1);
        compile_batch_with_threads_checked(&self.compiler, circuits, default_threads, check)
    }

    /// Closes the session, returning the compiler.
    pub fn into_compiler(self) -> C {
        self.compiler
    }
}

// ---------------------------------------------------------------------------
// Parallel batch compilation
// ---------------------------------------------------------------------------

/// Compiles every circuit with `compiler`, sharding per-circuit contexts
/// across [`std::thread::scope`] workers.
///
/// Results come back **in input order** regardless of thread interleaving,
/// and each compile is bit-identical to its one-shot equivalent, so batch
/// output is deterministic. Worker count defaults to the machine's available
/// parallelism, capped at the batch size; each worker owns one context and
/// reuses it across every circuit it pulls.
pub fn compile_batch<C>(
    compiler: &C,
    circuits: &[Circuit],
) -> Vec<Result<CompiledProgram, CompileError>>
where
    C: StagedCompiler + Sync + ?Sized,
{
    let default_threads = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    compile_batch_with_threads(compiler, circuits, default_threads)
}

/// [`compile_batch`] with an explicit worker count (at least one; capped at
/// the batch size). Thread count affects wall-clock only, never results.
pub fn compile_batch_with_threads<C>(
    compiler: &C,
    circuits: &[Circuit],
    threads: usize,
) -> Vec<Result<CompiledProgram, CompileError>>
where
    C: StagedCompiler + Sync + ?Sized,
{
    batch_with_threads_inner(compiler, circuits, threads, None)
}

/// [`compile_batch_with_threads`] with a [`ScheduleCheck`] applied to every
/// successfully compiled slot.
///
/// The check runs inside the same fault-isolation boundary as the compile
/// itself: a check that *panics* fails only its own slot (as
/// [`CompileError::Internal`]), and a check that vetoes yields
/// [`CompileError::VerificationFailed`] in that slot, sparing the rest of the
/// batch either way.
pub fn compile_batch_with_threads_checked<C>(
    compiler: &C,
    circuits: &[Circuit],
    threads: usize,
    check: ScheduleCheck<'_>,
) -> Vec<Result<CompiledProgram, CompileError>>
where
    C: StagedCompiler + Sync + ?Sized,
{
    batch_with_threads_inner(compiler, circuits, threads, Some(check))
}

fn batch_with_threads_inner<C>(
    compiler: &C,
    circuits: &[Circuit],
    threads: usize,
    check: Option<ScheduleCheck<'_>>,
) -> Vec<Result<CompiledProgram, CompileError>>
where
    C: StagedCompiler + Sync + ?Sized,
{
    let workers = threads.max(1).min(circuits.len());
    if workers <= 1 {
        // Sequential fallback still reuses one context across the batch.
        let mut ctx = compiler.new_context();
        return circuits
            .iter()
            .map(|circuit| compile_one_isolated(compiler, &mut ctx, circuit, check))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<CompiledProgram, CompileError>>> = Vec::new();
    slots.resize_with(circuits.len(), || None);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut ctx = compiler.new_context();
                    let mut produced = Vec::new();
                    loop {
                        // sync: Relaxed work-stealing ticket — the counter
                        // only partitions indices (each value claimed once);
                        // results are ordered by index and published through
                        // the scope join, not through this atomic.
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(circuit) = circuits.get(index) else {
                            break;
                        };
                        produced.push((
                            index,
                            compile_one_isolated(compiler, &mut ctx, circuit, check),
                        ));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            for (index, result) in handle.join().expect("batch worker panicked") {
                slots[index] = Some(result);
            }
        }
    });

    slots
        .into_iter()
        .map(|slot| slot.expect("every batch index is claimed by exactly one worker"))
        .collect()
}

/// One fault-isolated batch item: a panicking compile surfaces as
/// [`CompileError::Internal`] in its own slot instead of unwinding through
/// the worker and poisoning the whole batch.
///
/// On the happy path this is exactly `compiler.compile_in(ctx, circuit)` —
/// `catch_unwind` allocates nothing unless a panic actually unwinds, so the
/// zero-steady-state-allocation contract of the scheduler loop is untouched.
/// After a caught panic the context may have been abandoned mid-mutation, so
/// it is rebuilt from scratch before the next item.
fn compile_one_isolated<C>(
    compiler: &C,
    ctx: &mut CompileContext,
    circuit: &Circuit,
    check: Option<ScheduleCheck<'_>>,
) -> Result<CompiledProgram, CompileError>
where
    C: StagedCompiler + Sync + ?Sized,
{
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let program = compiler.compile_in(ctx, circuit)?;
        if let Some(check) = check {
            check(circuit, &program)?;
        }
        Ok(program)
    })) {
        Ok(result) => result,
        Err(payload) => {
            *ctx = compiler.new_context();
            Err(CompileError::Internal(panic_message(&*payload)))
        }
    }
}

/// Renders a panic payload as text (panics carry `&str` or `String` in
/// practice; anything else gets a placeholder).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScheduleExecutor;

    /// A minimal staged compiler: emits one measurement per qubit and counts
    /// how much scratch it reused.
    #[derive(Debug)]
    struct CountingCompiler;

    #[derive(Debug, Default)]
    struct CountingScratch {
        compiles: usize,
        buffer: Vec<ScheduledOp>,
    }

    impl ContextScratch for CountingScratch {
        fn reset(&mut self) {
            self.buffer.clear();
        }
    }

    impl Compiler for CountingCompiler {
        fn name(&self) -> &str {
            "counting"
        }
        fn compile(&self, circuit: &Circuit) -> Result<CompiledProgram, CompileError> {
            let mut ctx = StagedCompiler::new_context(self);
            self.compile_in(&mut ctx, circuit)
        }
    }

    impl StagedCompiler for CountingCompiler {
        fn new_context(&self) -> CompileContext {
            CompileContext::with(CountingScratch::default())
        }
        fn compile_in(
            &self,
            ctx: &mut CompileContext,
            circuit: &Circuit,
        ) -> Result<CompiledProgram, CompileError> {
            let scratch = ctx.scratch_or_init(CountingScratch::default);
            scratch.compiles += 1;
            scratch.buffer.clear();
            for q in 0..circuit.num_qubits() {
                scratch.buffer.push(ScheduledOp::Measurement {
                    qubit: QubitId::new(q),
                    zone: 0,
                });
            }
            Ok(CompiledProgram::new(
                self.name(),
                circuit,
                scratch.buffer.clone(),
                &ScheduleExecutor::paper_defaults(),
                Duration::ZERO,
            ))
        }
    }

    fn circuit(n: usize) -> Circuit {
        let mut c = Circuit::with_name(format!("c{n}"), n);
        for q in 0..n {
            c.measure(q);
        }
        c
    }

    #[test]
    fn session_reuses_one_context_across_compiles() {
        let mut session = CompileSession::new(CountingCompiler);
        session.compile(&circuit(3)).unwrap();
        session.compile(&circuit(5)).unwrap();
        let ctx = &mut session.context;
        let scratch = ctx.scratch_or_init(CountingScratch::default);
        assert_eq!(scratch.compiles, 2, "both compiles hit the same scratch");
    }

    #[test]
    fn context_reinitialises_on_type_mismatch() {
        #[derive(Debug, Default)]
        struct Other;
        impl ContextScratch for Other {
            fn reset(&mut self) {}
        }
        let mut ctx = CompileContext::with(Other);
        assert!(ctx.holds::<Other>());
        assert!(!ctx.holds::<CountingScratch>());
        let scratch = ctx.scratch_or_init(CountingScratch::default);
        scratch.compiles = 7;
        assert!(ctx.holds::<CountingScratch>());
        assert_eq!(
            ctx.scratch_or_init(CountingScratch::default).compiles,
            7,
            "matching scratch survives"
        );
    }

    #[test]
    fn reset_clears_state_but_keeps_scratch_type() {
        let mut ctx = CompileContext::with(CountingScratch {
            compiles: 3,
            buffer: vec![ScheduledOp::ChainRearrange { zone: 0 }],
        });
        ctx.reset();
        let scratch = ctx.scratch_or_init(CountingScratch::default);
        assert!(scratch.buffer.is_empty(), "reset clears per-circuit state");
        assert_eq!(scratch.compiles, 3, "non-circuit fields survive");
    }

    #[test]
    fn batch_results_are_in_input_order_for_any_thread_count() {
        let circuits: Vec<Circuit> = (1..=13).map(circuit).collect();
        let reference: Vec<usize> = circuits.iter().map(Circuit::num_qubits).collect();
        for threads in [1, 2, 4, 32] {
            let results = compile_batch_with_threads(&CountingCompiler, &circuits, threads);
            let got: Vec<usize> = results
                .into_iter()
                .map(|r| r.unwrap().num_qubits())
                .collect();
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(compile_batch(&CountingCompiler, &[]).is_empty());
    }

    /// A compiler that panics on circuits named "poison" and otherwise
    /// behaves like [`CountingCompiler`].
    #[derive(Debug)]
    struct PoisonCompiler;

    impl Compiler for PoisonCompiler {
        fn name(&self) -> &str {
            "poison"
        }
        fn compile(&self, circuit: &Circuit) -> Result<CompiledProgram, CompileError> {
            let mut ctx = StagedCompiler::new_context(self);
            self.compile_in(&mut ctx, circuit)
        }
    }

    impl StagedCompiler for PoisonCompiler {
        fn new_context(&self) -> CompileContext {
            CompileContext::with(CountingScratch::default())
        }
        fn compile_in(
            &self,
            ctx: &mut CompileContext,
            circuit: &Circuit,
        ) -> Result<CompiledProgram, CompileError> {
            // Mutate the scratch *before* panicking so the test exercises a
            // context abandoned mid-compile.
            let scratch = ctx.scratch_or_init(CountingScratch::default);
            scratch.buffer.push(ScheduledOp::ChainRearrange { zone: 0 });
            assert!(circuit.name() != "poison", "poisoned circuit");
            CountingCompiler.compile_in(ctx, circuit)
        }
    }

    #[test]
    fn poisoned_circuit_fails_its_slot_and_spares_the_rest() {
        let mut circuits: Vec<Circuit> = (1..=9).map(circuit).collect();
        circuits[4] = Circuit::with_name("poison", 4);
        for threads in [1, 4] {
            let results = compile_batch_with_threads(&PoisonCompiler, &circuits, threads);
            assert_eq!(results.len(), circuits.len());
            for (i, result) in results.iter().enumerate() {
                if i == 4 {
                    match result {
                        Err(CompileError::Internal(msg)) => {
                            assert!(msg.contains("poisoned circuit"), "{msg}")
                        }
                        other => panic!("expected Internal error in slot 4, got {other:?}"),
                    }
                } else {
                    let program = result.as_ref().expect("healthy slot compiles");
                    assert_eq!(program.num_qubits(), circuits[i].num_qubits());
                }
            }
        }
    }

    #[test]
    fn context_is_rebuilt_after_a_caught_panic() {
        // Sequential path: the circuit after the poison one reuses the same
        // worker context, which must have been rebuilt, not left
        // mid-mutation.
        let circuits = vec![
            Circuit::with_name("poison", 2),
            circuit(3),
            Circuit::with_name("poison", 2),
            circuit(5),
        ];
        let results = compile_batch_with_threads(&PoisonCompiler, &circuits, 1);
        assert!(matches!(results[0], Err(CompileError::Internal(_))));
        assert_eq!(results[1].as_ref().unwrap().num_qubits(), 3);
        assert!(matches!(results[2], Err(CompileError::Internal(_))));
        assert_eq!(results[3].as_ref().unwrap().num_qubits(), 5);
    }

    #[test]
    fn checked_paths_veto_via_the_schedule_check() {
        // Rejects every program whose circuit is named "bad".
        let check: &(dyn Fn(&Circuit, &CompiledProgram) -> Result<(), CompileError> + Sync) =
            &|circuit, _program| {
                if circuit.name() == "bad" {
                    Err(CompileError::VerificationFailed("seeded veto".into()))
                } else {
                    Ok(())
                }
            };

        let good = circuit(3);
        let bad = Circuit::with_name("bad", 2);

        // One-shot.
        assert!(compile_checked(&CountingCompiler, &good, check).is_ok());
        assert!(matches!(
            compile_checked(&CountingCompiler, &bad, check),
            Err(CompileError::VerificationFailed(_))
        ));

        // Session.
        let mut session = CompileSession::new(CountingCompiler);
        assert!(session.compile_checked(&good, check).is_ok());
        assert!(matches!(
            session.compile_checked(&bad, check),
            Err(CompileError::VerificationFailed(_))
        ));

        // Batch: the vetoed slot fails alone, in input order.
        let circuits = vec![good.clone(), bad, circuit(5)];
        for threads in [1, 4] {
            let results =
                compile_batch_with_threads_checked(&CountingCompiler, &circuits, threads, check);
            assert!(results[0].is_ok());
            assert!(matches!(
                results[1],
                Err(CompileError::VerificationFailed(_))
            ));
            assert!(results[2].is_ok());
        }
    }

    #[test]
    fn panicking_check_fails_only_its_slot() {
        let check: &(dyn Fn(&Circuit, &CompiledProgram) -> Result<(), CompileError> + Sync) =
            &|circuit, _program| {
                assert!(circuit.name() != "explosive", "check blew up");
                Ok(())
            };
        let circuits = vec![circuit(3), Circuit::with_name("explosive", 2), circuit(4)];
        let results = compile_batch_with_threads_checked(&CountingCompiler, &circuits, 1, check);
        assert!(results[0].is_ok());
        match &results[1] {
            Err(CompileError::Internal(msg)) => assert!(msg.contains("check blew up"), "{msg}"),
            other => panic!("expected Internal from panicking check, got {other:?}"),
        }
        assert!(results[2].is_ok());
    }

    #[test]
    fn dims_from_devices() {
        let eml = crate::DeviceConfig::for_qubits(64).build();
        assert_eq!(DeviceDims::from(&eml).num_zones, eml.zones().len());
        let grid = crate::GridConfig::new(2, 3, 4).build();
        assert_eq!(DeviceDims::from(&grid).num_zones, 6);
    }

    #[test]
    fn stage_timings_total_sums_times_not_counters() {
        let t = StageTimings {
            placement_ms: 1.0,
            scheduling_ms: 2.0,
            swap_insertion_ms: 0.5,
            lowering_ms: 0.25,
            window_probe_visits: 97,
            probe_skips: 1,
            swap_window_walks: 23,
        };
        assert!((t.total_ms() - 3.75).abs() < 1e-12);
    }
}
