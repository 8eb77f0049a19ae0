//! The MUSS-TI compiler front-end: a staged pipeline (placement → scheduling
//! → swap insertion → lowering) behind the one-shot [`Compiler`] facade.

use std::time::{Duration, Instant};

use eml_qccd::pipeline::{self, Lowered, Placement, Scheduled};
use eml_qccd::{
    CompileError, CompiledProgram, Compiler, DeviceConfig, DeviceDims, EmlQccdDevice,
    FidelityModel, ScheduleExecutor, ScheduledOp, StageTimings, TimingModel, ZoneId,
};
use ion_circuit::{Circuit, DependencyDag, QubitId};

use crate::mapping::{effective_device_capacity, initial_mapping_in};
use crate::options::LOOKAHEAD_K_RANGE;
use crate::scheduler::schedule_in;
use crate::{MussTiContext, MussTiOptions};

/// The MUSS-TI compiler: multi-level shuttle scheduling for EML-QCCD devices.
///
/// A compiler instance owns its target device description, its options and
/// the timing/fidelity models used to evaluate the produced schedule, so the
/// experiment harness can treat it interchangeably with the baseline
/// compilers through the [`Compiler`] trait.
///
/// ```
/// use eml_qccd::{Compiler, DeviceConfig};
/// use ion_circuit::generators;
/// use muss_ti::{MussTiCompiler, MussTiOptions};
///
/// let circuit = generators::ghz(32);
/// let device = DeviceConfig::for_qubits(32).build();
/// let compiler = MussTiCompiler::new(device, MussTiOptions::default());
/// let program = compiler.compile(&circuit).unwrap();
/// assert!(program.metrics().shuttle_count <= 4);
/// assert!(program.metrics().fidelity() > 0.5);
/// ```
///
/// For repeated compiles against one device, hold its [`MussTiContext`]
/// (`Compiler::context`) and call `Compiler::compile_in`, so every run after
/// the first reuses the scratch — placement state, op stream, front-layer and
/// SWAP-insertion buffers, executor clock/heat arrays — instead of
/// reallocating it. The program's [`StageTimings`] carry the per-phase wall
/// times and the inserted-SWAP count:
///
/// ```
/// use eml_qccd::{Compiler, DeviceConfig};
/// use ion_circuit::generators;
/// use muss_ti::{MussTiCompiler, MussTiOptions};
///
/// let device = DeviceConfig::for_qubits(32).build();
/// let compiler = MussTiCompiler::new(device, MussTiOptions::default());
/// let mut cx = compiler.context();
/// let a = compiler.compile_in(&mut cx, &generators::qft(32)).unwrap();
/// let b = compiler.compile_in(&mut cx, &generators::qft(32)).unwrap(); // warm context
/// assert_eq!(format!("{:?}", a.ops()), format!("{:?}", b.ops()));
/// let swaps = a.stage_timings().unwrap().inserted_swaps;
/// assert!(swaps as usize <= a.metrics().fiber_gates);
/// ```
#[derive(Debug, Clone)]
pub struct MussTiCompiler {
    device: EmlQccdDevice,
    options: MussTiOptions,
    executor: ScheduleExecutor,
    name: String,
}

impl MussTiCompiler {
    /// Creates a compiler for `device` with paper-default timing and fidelity
    /// models.
    pub fn new(device: EmlQccdDevice, options: MussTiOptions) -> Self {
        MussTiCompiler {
            device,
            options,
            executor: ScheduleExecutor::paper_defaults(),
            name: "MUSS-TI".to_string(),
        }
    }

    /// Creates a compiler whose device is sized automatically for `circuit`
    /// (one module per 32 qubits, paper defaults otherwise).
    pub fn for_circuit(circuit: &Circuit, options: MussTiOptions) -> Self {
        Self::new(
            DeviceConfig::for_qubits(circuit.num_qubits()).build(),
            options,
        )
    }

    /// Replaces the timing/fidelity executor (e.g. for perfect-gate or
    /// perfect-shuttle idealisations).
    pub fn with_executor(mut self, executor: ScheduleExecutor) -> Self {
        self.executor = executor;
        self
    }

    /// Replaces the fidelity model, keeping paper-default timing.
    pub fn with_fidelity_model(self, fidelity: FidelityModel) -> Self {
        let timing = self.executor.timing().clone();
        self.with_executor(ScheduleExecutor::new(timing, fidelity))
    }

    /// Overrides the display name (used by experiment tables when several
    /// differently-configured MUSS-TI instances are compared).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The target device.
    pub fn device(&self) -> &EmlQccdDevice {
        &self.device
    }

    /// The compiler options.
    pub fn options(&self) -> &MussTiOptions {
        &self.options
    }

    /// Timing model used for evaluation.
    pub fn timing(&self) -> &TimingModel {
        self.executor.timing()
    }

    /// The checks every entry point runs before touching any scratch: the
    /// options' documented ranges, then validation against the device's
    /// effective capacity.
    fn check(&self, circuit: &Circuit) -> Result<(), CompileError> {
        let k = self.options.lookahead_k;
        if !LOOKAHEAD_K_RANGE.contains(&k) {
            return Err(CompileError::InvalidOptions(format!(
                "lookahead_k = {k} is outside {}..={}",
                LOOKAHEAD_K_RANGE.start(),
                LOOKAHEAD_K_RANGE.end()
            )));
        }
        pipeline::validate(circuit, effective_device_capacity(&self.device))
    }

    // -- The typed stage API -------------------------------------------------
    //
    // The granular stages trade a little of the fused path's DAG sharing for
    // inspectable artifacts; drive them in order for one circuit. The fused
    // `compile_in` is the hot path every other caller uses.

    /// **Placement stage** (Section 3.4): computes the initial qubit → zone
    /// assignment, running the SABRE two-fold dry passes in `cx` when the
    /// options ask for them.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Compiler::compile`].
    pub fn place(
        &self,
        cx: &mut MussTiContext,
        circuit: &Circuit,
    ) -> Result<Placement<ZoneId>, CompileError> {
        self.check(circuit)?;
        let mut dag = None;
        initial_mapping_in(
            &mut cx.sched,
            &mut dag,
            &self.device,
            &self.options,
            circuit,
        )
        .map(|(mapping, _)| Placement::new(mapping))
    }

    /// **Scheduling + swap-insertion stages** (Sections 3.2–3.3): schedules
    /// the two-qubit portion of `circuit` from `placement`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Compiler::compile`].
    pub fn schedule(
        &self,
        cx: &mut MussTiContext,
        circuit: &Circuit,
        placement: &Placement<ZoneId>,
    ) -> Result<Scheduled<ZoneId>, CompileError> {
        self.check(circuit)?;
        let mut dag = DependencyDag::from_circuit(circuit);
        let stats = schedule_in(
            &self.device,
            &self.options,
            &mut dag,
            &placement.assignment,
            &mut cx.sched,
        )?;
        Ok(Scheduled {
            ops: cx.sched.ops.clone(),
            final_assignment: cx.sched.state.mapping(),
            inserted_swaps: stats.inserted_swaps,
            swap_insertion_time: stats.swap_insertion_time,
        })
    }

    /// **Lowering stage**: assembles the full op stream — single-qubit gates
    /// accounted against the initial placement, measurements against the
    /// final one.
    pub fn lower(
        &self,
        circuit: &Circuit,
        placement: &Placement<ZoneId>,
        scheduled: &Scheduled<ZoneId>,
    ) -> Lowered {
        lower(
            circuit,
            &placement.assignment,
            &scheduled.ops,
            &scheduled.final_assignment,
        )
    }

    /// **Evaluation**: runs the lowered stream through the executor (in the
    /// context's pooled scratch, sized from the device topology) and wraps it
    /// into a [`CompiledProgram`].
    pub fn evaluate(
        &self,
        cx: &mut MussTiContext,
        circuit: &Circuit,
        lowered: Lowered,
        compile_time: Duration,
    ) -> CompiledProgram {
        CompiledProgram::evaluated(
            &self.name,
            circuit,
            lowered.ops,
            &self.executor,
            &mut cx.exec,
            DeviceDims::from(&self.device),
            compile_time,
        )
    }
}

/// [`Lowered::assemble`] over zone placements.
fn lower(
    circuit: &Circuit,
    start: &[(QubitId, ZoneId)],
    scheduled: &[ScheduledOp],
    end: &[(QubitId, ZoneId)],
) -> Lowered {
    let at = |&(q, z): &(QubitId, ZoneId)| (q, z.index());
    Lowered::assemble(circuit, start.iter().map(at), scheduled, end.iter().map(at))
}

impl Compiler for MussTiCompiler {
    type Context = MussTiContext;

    fn name(&self) -> &str {
        &self.name
    }

    fn compile(&self, circuit: &Circuit) -> Result<CompiledProgram, CompileError> {
        self.compile_in(&mut self.context(), circuit)
    }

    fn context(&self) -> MussTiContext {
        MussTiContext::new(&self.device)
    }

    /// The fused pipeline hot path. Every scheduling pass — the three SABRE
    /// dry passes (cost-only, materialising no op stream) and the final full
    /// pass — runs in `cx`'s pooled scratch, and all four passes share
    /// **one** dependency DAG via [`DependencyDag::reset`] /
    /// [`DependencyDag::reset_reversed`] (the backward pass flips the
    /// forward DAG's edges in place), so a compile performs a single
    /// structural DAG build. The program's [`StageTimings`] report the
    /// per-phase wall times and the inserted-SWAP count.
    fn compile_in(
        &self,
        cx: &mut MussTiContext,
        circuit: &Circuit,
    ) -> Result<CompiledProgram, CompileError> {
        let start = Instant::now();
        self.check(circuit)?;

        // Built lazily: the SABRE dry passes construct it during placement
        // and the final pass reuses it (reset); the trivial strategy defers
        // construction to the scheduling phase.
        let mut dag: Option<DependencyDag> = None;

        let placement_start = Instant::now();
        let (mapping, probe_skipped) = initial_mapping_in(
            &mut cx.sched,
            &mut dag,
            &self.device,
            &self.options,
            circuit,
        )?;
        let placement_ms = placement_start.elapsed().as_secs_f64() * 1e3;

        let scheduling_start = Instant::now();
        let dag = dag.get_or_insert_with(|| DependencyDag::from_circuit(circuit));
        dag.reset();
        let stats = schedule_in(&self.device, &self.options, dag, &mapping, &mut cx.sched)?;
        let swap_insertion_ms = stats.swap_insertion_time.as_secs_f64() * 1e3;
        // The SWAP-insertion slice is measured by its own monotonic clock
        // reads inside the pass, so subtracting it from the phase wall time
        // can go (slightly) negative under timer jitter on sub-millisecond
        // circuits; clamp so the reported phases are always non-negative.
        let scheduling_ms =
            (scheduling_start.elapsed().as_secs_f64() * 1e3 - swap_insertion_ms).max(0.0);

        let lowering_start = Instant::now();
        let final_mapping = cx.sched.state.mapping();
        let Lowered { ops } = lower(circuit, &mapping, &cx.sched.ops, &final_mapping);
        let metrics = self.executor.execute_in(
            &mut cx.exec,
            &ops,
            circuit.num_qubits(),
            DeviceDims::from(&self.device).num_zones,
        );
        let timings = StageTimings {
            placement_ms,
            scheduling_ms,
            swap_insertion_ms,
            lowering_ms: lowering_start.elapsed().as_secs_f64() * 1e3,
            // One DAG served every pass of this compile, so its counter is
            // already the compile-wide total.
            window_probe_visits: dag.window_probe_visits(),
            probe_skips: u64::from(probe_skipped),
            swap_window_walks: stats.swap_window_walks,
            inserted_swaps: stats.inserted_swaps as u64,
        };
        let initial_placement = mapping.iter().map(|&(q, z)| (q, z.index())).collect();
        Ok(
            CompiledProgram::from_parts(&self.name, circuit, ops, metrics, start.elapsed())
                .with_stage_timings(timings)
                .with_initial_placement(initial_placement),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ion_circuit::generators;

    #[test]
    fn compiles_small_suite_with_low_shuttle_counts() {
        for (label, max_shuttles) in [("GHZ_32", 8), ("BV_32", 60), ("Adder_32", 80)] {
            let app = generators::BenchmarkApp::from_label(label).unwrap();
            let circuit = app.circuit();
            let compiler = MussTiCompiler::for_circuit(&circuit, MussTiOptions::default());
            let program = compiler.compile(&circuit).unwrap();
            assert!(
                program.metrics().shuttle_count < max_shuttles,
                "{label}: {} shuttles",
                program.metrics().shuttle_count
            );
            assert!(
                program.metrics().total_two_qubit_interactions() >= circuit.two_qubit_gate_count()
            );
        }
    }

    #[test]
    fn rejects_circuits_larger_than_the_device() {
        let device = DeviceConfig::default().with_modules(1).build();
        let circuit = generators::ghz(64);
        let compiler = MussTiCompiler::new(device, MussTiOptions::default());
        assert!(matches!(
            compiler.compile(&circuit),
            Err(CompileError::DeviceTooSmall { .. })
        ));
    }

    #[test]
    fn rejects_invalid_circuits() {
        let mut circuit = Circuit::new(4);
        circuit.cx(0, 9);
        let compiler = MussTiCompiler::for_circuit(&circuit, MussTiOptions::default());
        assert!(matches!(
            compiler.compile(&circuit),
            Err(CompileError::InvalidCircuit(_))
        ));
    }

    #[test]
    fn single_qubit_gates_and_measurements_are_accounted() {
        let circuit = generators::ghz(16);
        let compiler = MussTiCompiler::for_circuit(&circuit, MussTiOptions::trivial());
        let program = compiler.compile(&circuit).unwrap();
        assert_eq!(program.metrics().single_qubit_gates, 1);
        assert_eq!(program.metrics().measurements, 16);
    }

    #[test]
    fn sabre_is_at_least_as_good_as_trivial_on_qft() {
        let circuit = generators::qft(48);
        let trivial = MussTiCompiler::for_circuit(&circuit, MussTiOptions::trivial())
            .compile(&circuit)
            .unwrap();
        let sabre = MussTiCompiler::for_circuit(&circuit, MussTiOptions::sabre_only())
            .compile(&circuit)
            .unwrap();
        assert!(
            sabre.metrics().shuttle_count <= trivial.metrics().shuttle_count,
            "sabre={} trivial={}",
            sabre.metrics().shuttle_count,
            trivial.metrics().shuttle_count
        );
    }

    #[test]
    fn perfect_shuttle_executor_improves_fidelity() {
        let circuit = generators::sqrt(30);
        let base = MussTiCompiler::for_circuit(&circuit, MussTiOptions::default());
        let ideal = base
            .clone()
            .with_fidelity_model(FidelityModel::perfect_shuttle());
        let real = base.compile(&circuit).unwrap();
        let perfect = ideal.compile(&circuit).unwrap();
        assert!(perfect.metrics().log_fidelity.ln() >= real.metrics().log_fidelity.ln());
    }

    #[test]
    fn compile_reports_inserted_swaps_in_stage_timings() {
        let circuit = generators::sqrt(64);
        let compiler = MussTiCompiler::for_circuit(&circuit, MussTiOptions::default());
        let program = compiler.compile(&circuit).unwrap();
        let swaps = program.stage_timings().unwrap().inserted_swaps;
        // The count is merely reported here; specific workloads assert > 0 in
        // the scheduler tests.
        assert!(swaps as usize <= program.metrics().fiber_gates);
    }

    #[test]
    fn name_override_is_reported() {
        let circuit = generators::ghz(8);
        let compiler = MussTiCompiler::for_circuit(&circuit, MussTiOptions::trivial())
            .with_name("MUSS-TI (trivial)");
        assert_eq!(compiler.name(), "MUSS-TI (trivial)");
        let program = compiler.compile(&circuit).unwrap();
        assert_eq!(program.compiler_name(), "MUSS-TI (trivial)");
    }

    #[test]
    fn programs_carry_stage_timings() {
        let circuit = generators::qft(16);
        let compiler = MussTiCompiler::for_circuit(&circuit, MussTiOptions::default());
        let program = compiler.compile(&circuit).unwrap();
        let timings = program.stage_timings().expect("pipeline records stages");
        assert!(timings.total_ms() > 0.0);
    }

    #[test]
    fn final_pass_is_timed_as_scheduling_within_the_compile_wall_time() {
        // The final pass runs after the SABRE dry chain on the same thread,
        // so its wall time is booked under scheduling, not placement, and
        // the four phases fit inside the program's own compile wall time.
        let circuit = generators::qft(96);
        let compiler = MussTiCompiler::for_circuit(&circuit, MussTiOptions::default());
        let program = compiler.compile(&circuit).unwrap();
        let phases = *program.stage_timings().unwrap();
        assert!(
            phases.scheduling_ms > 0.0,
            "QFT_96 final pass booked no scheduling time: {phases:?}"
        );
        let wall_ms = program.compile_time().as_secs_f64() * 1e3;
        assert!(
            phases.total_ms() <= wall_ms + 1.0,
            "phases sum to {:.3} ms against a {wall_ms:.3} ms compile",
            phases.total_ms()
        );
    }

    #[test]
    fn session_reuse_is_bit_identical_to_one_shot() {
        let circuits = [
            generators::qft(24),
            generators::ghz(16),
            generators::random_circuit(24, 120, 3),
        ];
        let device = DeviceConfig::for_qubits(24).build();
        let compiler = MussTiCompiler::new(device, MussTiOptions::default());
        let mut cx = compiler.context();
        for circuit in &circuits {
            let warm = compiler.compile_in(&mut cx, circuit).unwrap();
            let cold = compiler.compile(circuit).unwrap();
            assert_eq!(
                format!("{:?}", warm.ops()),
                format!("{:?}", cold.ops()),
                "{}",
                circuit.name()
            );
        }
    }

    #[test]
    fn staged_pipeline_matches_fused_compile() {
        let circuit = generators::random_circuit(24, 150, 9);
        let compiler = MussTiCompiler::for_circuit(&circuit, MussTiOptions::default());
        let mut cx = compiler.context();
        let placement = compiler.place(&mut cx, &circuit).unwrap();
        let scheduled = compiler.schedule(&mut cx, &circuit, &placement).unwrap();
        let lowered = compiler.lower(&circuit, &placement, &scheduled);
        let staged = compiler.evaluate(&mut cx, &circuit, lowered, Duration::ZERO);
        let fused = compiler.compile(&circuit).unwrap();
        assert_eq!(
            format!("{:?}", staged.ops()),
            format!("{:?}", fused.ops()),
            "stage-by-stage and fused pipelines must agree"
        );
        assert_eq!(
            staged.metrics().shuttle_count,
            fused.metrics().shuttle_count
        );
    }

    #[test]
    fn out_of_range_lookahead_is_rejected_before_any_scratch_is_touched() {
        let circuit = generators::qft(16);
        let valid = MussTiCompiler::for_circuit(&circuit, MussTiOptions::default());
        let mut cx = valid.context();
        valid.compile_in(&mut cx, &circuit).unwrap();
        let (ops, mapping) = (cx.sched.ops.clone(), cx.sched.state.mapping());
        for k in [0, 65, usize::MAX] {
            let compiler =
                MussTiCompiler::for_circuit(&circuit, MussTiOptions::default().with_lookahead(k));
            let invalid = |result: Result<(), CompileError>| {
                matches!(result, Err(CompileError::InvalidOptions(_)))
            };
            assert!(
                invalid(compiler.compile(&circuit).map(drop)),
                "k = {k}: compile"
            );
            assert!(
                invalid(compiler.compile_in(&mut cx, &circuit).map(drop)),
                "k = {k}: compile_in"
            );
            assert!(
                invalid(compiler.place(&mut cx, &circuit).map(drop)),
                "k = {k}: place"
            );
            assert_eq!(cx.sched.ops, ops, "k = {k}: the op buffer was touched");
            assert_eq!(
                cx.sched.state.mapping(),
                mapping,
                "k = {k}: the placement was touched"
            );
        }
    }

    #[test]
    fn lookahead_range_bounds_compile() {
        let circuit = generators::qft(16);
        for k in [1, 64] {
            let compiler =
                MussTiCompiler::for_circuit(&circuit, MussTiOptions::default().with_lookahead(k));
            let program = compiler.compile(&circuit).unwrap();
            assert!(
                program.metrics().total_two_qubit_interactions() >= circuit.two_qubit_gate_count(),
                "k = {k}"
            );
        }
    }
}
