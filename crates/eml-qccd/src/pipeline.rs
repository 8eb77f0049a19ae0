//! The compilation pipeline: typed stage artifacts, the compile boundary,
//! per-stage timings and parallel batch compilation.
//!
//! Every [`Compiler`] runs its stages (placement → scheduling → swap
//! insertion → lowering) inside a typed [`Compiler::Context`] that owns the
//! per-compile scratch — placement state, op streams, scheduling work
//! buffers, executor clock/heat arrays — allocated once and reused across
//! runs. [`Compiler::compile`] uses a fresh context;
//! [`Compiler::compile_in`] reuses a caller-held one, and [`compile_batch`]
//! gives each [`std::thread::scope`] worker its own, with deterministic
//! result ordering.
//!
//! Context reuse is strictly an allocation-recycling optimisation: a reused
//! context yields op streams **bit-identical** to a fresh one (pinned by the
//! workspace fingerprint suites).
//!
//! ```
//! use eml_qccd::{compile_batch, Compiler};
//! # use eml_qccd::{CompileError, CompiledProgram};
//! # use ion_circuit::Circuit;
//! # #[derive(Debug)] struct Echo;
//! # impl Compiler for Echo {
//! #     type Context = ();
//! #     fn name(&self) -> &str { "echo" }
//! #     fn compile(&self, c: &Circuit) -> Result<CompiledProgram, CompileError> {
//! #         self.compile_in(&mut self.context(), c)
//! #     }
//! #     fn context(&self) {}
//! #     fn compile_in(&self, _: &mut (), c: &Circuit) -> Result<CompiledProgram, CompileError> {
//! #         Ok(CompiledProgram::new("echo", c, Vec::new(), &eml_qccd::ScheduleExecutor::paper_defaults(), std::time::Duration::ZERO))
//! #     }
//! # }
//! let compiler = Echo;
//! let circuit = ion_circuit::generators::ghz(8);
//! let mut cx = compiler.context();
//! let first = compiler.compile_in(&mut cx, &circuit).unwrap();  // cold context
//! let second = compiler.compile_in(&mut cx, &circuit).unwrap(); // reused context
//! assert_eq!(format!("{:?}", first.ops()), format!("{:?}", second.ops()));
//!
//! let circuits = vec![circuit.clone(), ion_circuit::generators::qft(4)];
//! let programs = compile_batch(&compiler, &circuits, 2, None);
//! assert_eq!(programs[1].as_ref().unwrap().circuit_name(), "QFT_4");
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
    /// Cross-module SWAP gates the swap-insertion pass inserted (always zero
    /// for compilers without one). Not a time: excluded from
    /// [`total_ms`](Self::total_ms).
    pub inserted_swaps: u64,
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
// Post-compile schedule checks
// ---------------------------------------------------------------------------

/// A post-compile validation hook: inspects the compiled program against its
/// source circuit and vetoes it with [`CompileError::VerificationFailed`] if
/// the op stream is invalid.
///
/// The concrete check is supplied by callers (the `verify` crate builds one
/// from a device model) so the pipeline stays free of a dependency on the
/// analyzer. Checks run strictly **after** compilation, only when a caller
/// hands one to [`compile_batch`] — unchecked compiles pay zero cost.
pub type ScheduleCheck<'a> =
    &'a (dyn Fn(&Circuit, &CompiledProgram) -> Result<(), CompileError> + Sync);

// ---------------------------------------------------------------------------
// Parallel batch compilation
// ---------------------------------------------------------------------------

/// Compiles every circuit with `compiler`, sharding the batch across
/// `threads` [`std::thread::scope`] workers (at least one, capped at the
/// batch size). Each worker owns one [`Compiler::Context`] and reuses it
/// across every circuit it pulls.
///
/// Results come back **in input order** regardless of thread interleaving,
/// and each compile is bit-identical to its one-shot equivalent, so batch
/// output is deterministic; the thread count affects wall-clock only.
///
/// Every item is fault-isolated: a compile that *panics* fails only its own
/// slot (as [`CompileError::Internal`]) and its worker's context is rebuilt.
/// With a `check`, each compiled program is checked inside the same
/// boundary: a veto yields [`CompileError::VerificationFailed`] in that
/// slot, and a panicking check fails only that slot, sparing the rest of
/// the batch either way.
pub fn compile_batch<C>(
    compiler: &C,
    circuits: &[Circuit],
    threads: usize,
    check: Option<ScheduleCheck<'_>>,
) -> Vec<Result<CompiledProgram, CompileError>>
where
    C: Compiler + Sync,
{
    let workers = threads.max(1).min(circuits.len());
    if workers <= 1 {
        // Sequential fallback still reuses one context across the batch.
        let mut cx = compiler.context();
        return circuits
            .iter()
            .map(|circuit| compile_one_isolated(compiler, &mut cx, circuit, check))
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
                    let mut cx = compiler.context();
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
                            compile_one_isolated(compiler, &mut cx, circuit, check),
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
/// On the happy path this is exactly `compiler.compile_in(cx, circuit)` —
/// `catch_unwind` allocates nothing unless a panic actually unwinds, so the
/// zero-steady-state-allocation contract of the scheduler loop is untouched.
/// After a caught panic the context may have been abandoned mid-mutation, so
/// it is rebuilt from scratch before the next item.
fn compile_one_isolated<C: Compiler>(
    compiler: &C,
    cx: &mut C::Context,
    circuit: &Circuit,
    check: Option<ScheduleCheck<'_>>,
) -> Result<CompiledProgram, CompileError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let program = compiler.compile_in(cx, circuit)?;
        if let Some(check) = check {
            check(circuit, &program)?;
        }
        Ok(program)
    })) {
        Ok(result) => result,
        Err(payload) => {
            *cx = compiler.context();
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

    /// A minimal compiler: emits one measurement per qubit and counts how
    /// often its context was reused.
    #[derive(Debug)]
    struct CountingCompiler;

    #[derive(Debug, Default)]
    struct CountingScratch {
        compiles: usize,
        buffer: Vec<ScheduledOp>,
    }

    impl Compiler for CountingCompiler {
        type Context = CountingScratch;

        fn name(&self) -> &str {
            "counting"
        }

        fn compile(&self, circuit: &Circuit) -> Result<CompiledProgram, CompileError> {
            self.compile_in(&mut self.context(), circuit)
        }

        fn context(&self) -> CountingScratch {
            CountingScratch::default()
        }

        fn compile_in(
            &self,
            scratch: &mut CountingScratch,
            circuit: &Circuit,
        ) -> Result<CompiledProgram, CompileError> {
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
        let mut cx = CountingCompiler.context();
        CountingCompiler.compile_in(&mut cx, &circuit(3)).unwrap();
        let program = CountingCompiler.compile_in(&mut cx, &circuit(5)).unwrap();
        assert_eq!(cx.compiles, 2, "both compiles hit the same scratch");
        assert_eq!(program.ops().len(), 5, "no op of the first compile leaks");
    }

    #[test]
    fn batch_results_are_in_input_order_for_any_thread_count() {
        let circuits: Vec<Circuit> = (1..=13).map(circuit).collect();
        let reference: Vec<usize> = circuits.iter().map(Circuit::num_qubits).collect();
        for threads in [1, 2, 4, 32] {
            let results = compile_batch(&CountingCompiler, &circuits, threads, None);
            let got: Vec<usize> = results
                .into_iter()
                .map(|r| r.unwrap().num_qubits())
                .collect();
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        for threads in [1, 4] {
            assert!(compile_batch(&CountingCompiler, &[], threads, None).is_empty());
        }
    }

    /// A compiler that panics on circuits named "poison" and otherwise
    /// behaves like [`CountingCompiler`].
    #[derive(Debug)]
    struct PoisonCompiler;

    impl Compiler for PoisonCompiler {
        type Context = CountingScratch;

        fn name(&self) -> &str {
            "poison"
        }

        fn compile(&self, circuit: &Circuit) -> Result<CompiledProgram, CompileError> {
            self.compile_in(&mut self.context(), circuit)
        }

        fn context(&self) -> CountingScratch {
            CountingScratch::default()
        }

        fn compile_in(
            &self,
            scratch: &mut CountingScratch,
            circuit: &Circuit,
        ) -> Result<CompiledProgram, CompileError> {
            // Mutate the scratch *before* panicking so the test exercises a
            // context abandoned mid-compile.
            scratch.buffer.push(ScheduledOp::ChainRearrange { zone: 0 });
            assert!(circuit.name() != "poison", "poisoned circuit");
            CountingCompiler.compile_in(scratch, circuit)
        }
    }

    #[test]
    fn poisoned_circuit_fails_its_slot_and_spares_the_rest() {
        let mut circuits: Vec<Circuit> = (1..=9).map(circuit).collect();
        circuits[4] = Circuit::with_name("poison", 4);
        for threads in [1, 4] {
            let results = compile_batch(&PoisonCompiler, &circuits, threads, None);
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
        let results = compile_batch(&PoisonCompiler, &circuits, 1, None);
        assert!(matches!(results[0], Err(CompileError::Internal(_))));
        assert_eq!(results[1].as_ref().unwrap().num_qubits(), 3);
        assert!(matches!(results[2], Err(CompileError::Internal(_))));
        assert_eq!(results[3].as_ref().unwrap().num_qubits(), 5);
    }

    #[test]
    fn checked_paths_veto_via_the_schedule_check() {
        // Rejects every program whose circuit is named "bad".
        let check: ScheduleCheck<'_> = &|circuit, _program| {
            if circuit.name() == "bad" {
                Err(CompileError::VerificationFailed("seeded veto".into()))
            } else {
                Ok(())
            }
        };

        // The vetoed slot fails alone, in input order.
        let circuits = vec![circuit(3), Circuit::with_name("bad", 2), circuit(5)];
        for threads in [1, 4] {
            let results = compile_batch(&CountingCompiler, &circuits, threads, Some(check));
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
        let check: ScheduleCheck<'_> = &|circuit, _program| {
            assert!(circuit.name() != "explosive", "check blew up");
            Ok(())
        };
        let circuits = vec![circuit(3), Circuit::with_name("explosive", 2), circuit(4)];
        for threads in [1, 4] {
            let results = compile_batch(&CountingCompiler, &circuits, threads, Some(check));
            assert!(results[0].is_ok());
            match &results[1] {
                Err(CompileError::Internal(msg)) => {
                    assert!(msg.contains("check blew up"), "{msg}")
                }
                other => panic!("expected Internal from panicking check, got {other:?}"),
            }
            assert!(results[2].is_ok());
        }
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
            inserted_swaps: 5,
        };
        assert!((t.total_ms() - 3.75).abs() < 1e-12);
    }
}
