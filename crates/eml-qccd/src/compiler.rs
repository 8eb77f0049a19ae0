//! The `Compiler` trait and the `CompiledProgram` it produces.

use std::time::Duration;

use ion_circuit::{Circuit, QubitId};

use crate::ops::ResourceId;
use crate::pipeline::{DeviceDims, StageTimings};
use crate::{CompileError, ExecutionMetrics, ExecutorScratch, ScheduleExecutor, ScheduledOp};

/// The artefact produced by compiling a circuit for a trapped-ion device:
/// the scheduled operation sequence plus the metrics obtained by running it
/// through the shared [`ScheduleExecutor`].
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    compiler_name: String,
    circuit_name: String,
    num_qubits: usize,
    ops: Vec<ScheduledOp>,
    metrics: ExecutionMetrics,
    compile_time: Duration,
    stage_timings: Option<StageTimings>,
    initial_placement: Option<Vec<(QubitId, ResourceId)>>,
}

impl CompiledProgram {
    /// Assembles a compiled program, evaluating `ops` with `executor` to fill
    /// in the metrics. The executor's resource arrays are sized by a pre-scan
    /// over the op stream; pipeline code paths that know their device use
    /// [`CompiledProgram::evaluated`] instead.
    pub fn new(
        compiler_name: impl Into<String>,
        circuit: &Circuit,
        ops: Vec<ScheduledOp>,
        executor: &ScheduleExecutor,
        compile_time: Duration,
    ) -> Self {
        let metrics = executor.execute(&ops);
        Self::from_parts(compiler_name, circuit, ops, metrics, compile_time)
    }

    /// [`CompiledProgram::new`] with the executor's resource arrays sized
    /// from the device-topology handle threaded through the pipeline
    /// ([`DeviceDims`], obtained via `From<&EmlQccdDevice>` /
    /// `From<&QccdGridDevice>`) and evaluated in caller-pooled scratch —
    /// no sizing pre-scan and no per-evaluation allocation.
    pub fn evaluated(
        compiler_name: impl Into<String>,
        circuit: &Circuit,
        ops: Vec<ScheduledOp>,
        executor: &ScheduleExecutor,
        scratch: &mut ExecutorScratch,
        dims: DeviceDims,
        compile_time: Duration,
    ) -> Self {
        let metrics = executor.execute_in(scratch, &ops, circuit.num_qubits(), dims.num_zones);
        Self::from_parts(compiler_name, circuit, ops, metrics, compile_time)
    }

    /// Assembles a program from already-evaluated metrics (the final pipeline
    /// stage, where the evaluation ran in a pooled [`ExecutorScratch`]).
    pub fn from_parts(
        compiler_name: impl Into<String>,
        circuit: &Circuit,
        ops: Vec<ScheduledOp>,
        metrics: ExecutionMetrics,
        compile_time: Duration,
    ) -> Self {
        CompiledProgram {
            compiler_name: compiler_name.into(),
            circuit_name: circuit.name().to_string(),
            num_qubits: circuit.num_qubits(),
            ops,
            metrics,
            compile_time,
            stage_timings: None,
            initial_placement: None,
        }
    }

    /// Attaches the per-stage wall-clock breakdown recorded by the pipeline.
    pub fn with_stage_timings(mut self, timings: StageTimings) -> Self {
        self.stage_timings = Some(timings);
        self
    }

    /// Attaches the initial qubit → zone/trap assignment the scheduler
    /// started from. The translation-validation analyzer (`crates/verify`)
    /// uses it to replay the op stream in strict mode (exact occupancy and
    /// `ions_in_zone` checks); without it the analyzer falls back to
    /// inferring start locations from each qubit's first mention.
    pub fn with_initial_placement(mut self, placement: Vec<(QubitId, ResourceId)>) -> Self {
        self.initial_placement = Some(placement);
        self
    }

    /// The initial qubit → zone/trap assignment, when the compiler recorded
    /// one. See [`CompiledProgram::with_initial_placement`].
    pub fn initial_placement(&self) -> Option<&[(QubitId, ResourceId)]> {
        self.initial_placement.as_deref()
    }

    /// Per-stage wall-clock breakdown (placement / scheduling / swap
    /// insertion / lowering), when the compiler recorded one.
    pub fn stage_timings(&self) -> Option<&StageTimings> {
        self.stage_timings.as_ref()
    }

    /// Name of the compiler that produced this program.
    pub fn compiler_name(&self) -> &str {
        &self.compiler_name
    }

    /// Name of the compiled circuit.
    pub fn circuit_name(&self) -> &str {
        &self.circuit_name
    }

    /// Number of logical qubits in the source circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The scheduled operation sequence.
    pub fn ops(&self) -> &[ScheduledOp] {
        &self.ops
    }

    /// The execution metrics (shuttles, time, fidelity).
    pub fn metrics(&self) -> &ExecutionMetrics {
        &self.metrics
    }

    /// Wall-clock time the compiler spent producing this program.
    pub fn compile_time(&self) -> Duration {
        self.compile_time
    }

    /// Re-evaluates the same operation sequence under a different executor
    /// (e.g. a perfect-gate or perfect-shuttle fidelity model) without
    /// recompiling. Used by the optimality analysis (Fig. 13).
    pub fn reevaluate(&self, executor: &ScheduleExecutor) -> ExecutionMetrics {
        executor.execute(&self.ops)
    }
}

/// A compiler lowering logical circuits onto a trapped-ion device.
///
/// Implementors hold their target device description and models; the trait
/// keeps MUSS-TI and the baseline compilers interchangeable in the
/// experiment harness. [`name`](Compiler::name) and
/// [`compile`](Compiler::compile) are callable through `&dyn Compiler`
/// (the harness holds `Box<dyn Compiler + Send + Sync>`); the typed
/// [`Context`](Compiler::Context) and [`compile_in`](Compiler::compile_in)
/// are for callers that know the concrete compiler, such as
/// [`compile_batch`](crate::compile_batch).
///
/// `compile_in` with a fresh context must behave exactly like `compile`;
/// with a reused context it must produce bit-identical op streams (only
/// allocations are recycled).
pub trait Compiler {
    /// The compiler's reusable scratch: every per-compile allocation, grown
    /// once and recycled by every compile run in it. No state carries from
    /// one compile to the next.
    type Context
    where
        Self: Sized;

    /// Human-readable name used in tables and figures (e.g. `"MUSS-TI"`).
    fn name(&self) -> &str;

    /// Compiles `circuit` into a scheduled program in a fresh context.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] if the circuit does not fit the device or
    /// fails validation.
    fn compile(&self, circuit: &Circuit) -> Result<CompiledProgram, CompileError>;

    /// Allocates a context sized for this compiler's device.
    fn context(&self) -> Self::Context
    where
        Self: Sized;

    /// Compiles `circuit`, reusing the scratch held in `cx`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Compiler::compile`].
    fn compile_in(
        &self,
        cx: &mut Self::Context,
        circuit: &Circuit,
    ) -> Result<CompiledProgram, CompileError>
    where
        Self: Sized;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ion_circuit::QubitId;

    #[test]
    fn compiled_program_evaluates_metrics() {
        let mut circuit = Circuit::with_name("demo", 2);
        circuit.cx(0, 1);
        let ops = vec![ScheduledOp::TwoQubitGate {
            a: QubitId::new(0),
            b: QubitId::new(1),
            zone: 0,
            ions_in_zone: 2,
        }];
        let program = CompiledProgram::new(
            "test-compiler",
            &circuit,
            ops,
            &ScheduleExecutor::paper_defaults(),
            Duration::from_millis(5),
        );
        assert_eq!(program.compiler_name(), "test-compiler");
        assert_eq!(program.circuit_name(), "demo");
        assert_eq!(program.metrics().two_qubit_gates, 1);
        assert_eq!(program.num_qubits(), 2);
        assert_eq!(program.compile_time(), Duration::from_millis(5));
    }

    #[test]
    fn reevaluate_with_ideal_models_improves_fidelity() {
        let mut circuit = Circuit::with_name("demo", 2);
        circuit.cx(0, 1);
        let ops = vec![
            ScheduledOp::Shuttle {
                qubit: QubitId::new(0),
                from_zone: 1,
                to_zone: 0,
                distance_um: 100.0,
            },
            ScheduledOp::TwoQubitGate {
                a: QubitId::new(0),
                b: QubitId::new(1),
                zone: 0,
                ions_in_zone: 12,
            },
        ];
        let program = CompiledProgram::new(
            "test",
            &circuit,
            ops,
            &ScheduleExecutor::paper_defaults(),
            Duration::ZERO,
        );
        let ideal = ScheduleExecutor::new(
            crate::TimingModel::default(),
            crate::FidelityModel::perfect_gates(),
        );
        let ideal_metrics = program.reevaluate(&ideal);
        assert!(ideal_metrics.log_fidelity.ln() > program.metrics().log_fidelity.ln());
        // The op sequence itself is unchanged.
        assert_eq!(ideal_metrics.shuttle_count, program.metrics().shuttle_count);
    }
}
