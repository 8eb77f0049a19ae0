//! Shared helpers for running compilers over benchmark applications.

use baselines::{DaiCompiler, MqtStyleCompiler, MuraliCompiler};
use eml_qccd::{CompileError, CompiledProgram, Compiler, DeviceConfig, GridConfig, StageTimings};
use ion_circuit::generators::BenchmarkApp;
use ion_circuit::Circuit;
use muss_ti::{MussTiCompiler, MussTiOptions};
use serde::{Deserialize, Serialize};

/// The compiler handle the experiment harness passes around: every compiler
/// in the workspace fits in one of these, and compiles one-shot through
/// `&dyn Compiler`.
pub type DynCompiler = Box<dyn Compiler + Send + Sync>;

/// The outcome of compiling one application with one compiler: the subset of
/// [`ExecutionMetrics`](eml_qccd::ExecutionMetrics) the paper reports, plus
/// compilation time.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct AppResult {
    /// Benchmark label, e.g. `"Adder_32"`.
    pub app: String,
    /// Compiler display name.
    pub compiler: String,
    /// Number of shuttle operations.
    pub shuttles: usize,
    /// Estimated circuit execution time in µs.
    pub execution_time_us: f64,
    /// Base-10 log of the end-to-end fidelity.
    pub log10_fidelity: f64,
    /// Number of fiber (remote) gates (zero for grid baselines).
    pub fiber_gates: usize,
    /// Wall-clock compilation time in seconds.
    pub compile_time_s: f64,
    /// Per-stage compile-time breakdown (placement / scheduling / swap
    /// insertion / lowering) when the compiler's pipeline recorded one, so
    /// one-shot, warm-context and batch paths stay comparable in experiment
    /// output.
    pub phases: Option<StageTimings>,
}

/// Condenses a compiled program into the reported subset.
fn condense(circuit: &Circuit, program: &CompiledProgram) -> AppResult {
    let metrics = program.metrics();
    AppResult {
        app: circuit.name().to_string(),
        compiler: program.compiler_name().to_string(),
        shuttles: metrics.shuttle_count,
        execution_time_us: metrics.execution_time_us,
        log10_fidelity: metrics.log10_fidelity(),
        fiber_gates: metrics.fiber_gates,
        compile_time_s: program.compile_time().as_secs_f64(),
        phases: program.stage_timings().copied(),
    }
}

/// Compiles `circuit` with `compiler` (one-shot) and condenses the result.
///
/// # Errors
///
/// Propagates the compiler's [`CompileError`].
pub fn evaluate(compiler: &dyn Compiler, circuit: &Circuit) -> Result<AppResult, CompileError> {
    let program = compiler.compile(circuit)?;
    Ok(condense(circuit, &program))
}

/// Builds the MUSS-TI compiler for an application, matching the paper's
/// Section 4 setup: one module per 32 qubits, trap capacity 16, one optical +
/// one operation + two storage zones per module.
pub fn muss_ti_for(circuit: &Circuit, options: MussTiOptions) -> MussTiCompiler {
    MussTiCompiler::new(
        DeviceConfig::for_qubits(circuit.num_qubits()).build(),
        options,
    )
}

/// Builds a MUSS-TI compiler whose module count and trap capacity mirror a
/// given monolithic grid (used for the Table 2 comparison, where MUSS-TI is
/// applied to the same structure sizes as the baselines).
pub fn muss_ti_matching_grid(grid: &GridConfig, options: MussTiOptions) -> MussTiCompiler {
    let config = DeviceConfig::new()
        .with_modules(grid.rows() * grid.cols())
        .with_trap_capacity(grid.trap_capacity())
        .with_max_qubits_per_module(2 * grid.trap_capacity());
    MussTiCompiler::new(config.build(), options)
}

/// The three compilers compared in Fig. 6 for a given application size.
pub fn fig6_compilers(num_qubits: usize) -> Vec<DynCompiler> {
    vec![
        Box::new(MussTiCompiler::new(
            DeviceConfig::for_qubits(num_qubits).build(),
            MussTiOptions::default(),
        )),
        Box::new(DaiCompiler::for_qubits(num_qubits)),
        Box::new(MuraliCompiler::for_qubits(num_qubits)),
    ]
}

/// The four compilers compared in Table 2 on a given small-scale grid.
pub fn table2_compilers(grid: &GridConfig) -> Vec<DynCompiler> {
    vec![
        Box::new(MuraliCompiler::new(grid.clone())),
        Box::new(DaiCompiler::new(grid.clone())),
        Box::new(MqtStyleCompiler::new(grid.clone())),
        Box::new(muss_ti_matching_grid(grid, MussTiOptions::default()).with_name("MUSS-TI (Ours)")),
    ]
}

/// Generates the circuit for a benchmark label, panicking on unknown labels
/// (experiment code only uses the fixed suite labels).
pub fn circuit_for(label: &str) -> Circuit {
    BenchmarkApp::from_label(label)
        .unwrap_or_else(|e| panic!("invalid benchmark label {label}: {e}"))
        .circuit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eml_qccd::compile_batch;
    use ion_circuit::generators;

    #[test]
    fn evaluate_produces_consistent_fields() {
        let circuit = generators::ghz(32);
        let compiler = muss_ti_for(&circuit, MussTiOptions::default());
        let result = evaluate(&compiler, &circuit).unwrap();
        assert_eq!(result.app, "GHZ_32");
        assert_eq!(result.compiler, "MUSS-TI");
        assert!(result.execution_time_us > 0.0);
        assert!(result.log10_fidelity <= 0.0);
        assert!(result.compile_time_s >= 0.0);
        let phases = result.phases.expect("MUSS-TI reports stage timings");
        assert!(phases.total_ms() > 0.0);
    }

    #[test]
    fn session_and_batch_paths_agree_with_one_shot() {
        let circuits = vec![generators::ghz(16), generators::qft(16)];
        let compiler = muss_ti_for(&circuits[0], MussTiOptions::default());

        let one_shot: Vec<AppResult> = circuits
            .iter()
            .map(|c| evaluate(&compiler, c).unwrap())
            .collect();

        let mut cx = compiler.context();
        let session: Vec<AppResult> = circuits
            .iter()
            .map(|c| condense(c, &compiler.compile_in(&mut cx, c).unwrap()))
            .collect();

        let batch: Vec<AppResult> = compile_batch(&compiler, &circuits, 2, None)
            .into_iter()
            .zip(&circuits)
            .map(|(program, c)| condense(c, &program.unwrap()))
            .collect();

        for ((a, b), c) in one_shot.iter().zip(&session).zip(&batch) {
            // Wall-clock fields differ run to run; the compiled artefacts and
            // metrics must not.
            assert_eq!(
                (&a.app, a.shuttles, a.fiber_gates),
                (&b.app, b.shuttles, b.fiber_gates)
            );
            assert_eq!(
                (&a.app, a.shuttles, a.fiber_gates),
                (&c.app, c.shuttles, c.fiber_gates)
            );
            assert_eq!(a.execution_time_us, b.execution_time_us);
            assert_eq!(a.execution_time_us, c.execution_time_us);
            assert_eq!(a.log10_fidelity, b.log10_fidelity);
            assert_eq!(a.log10_fidelity, c.log10_fidelity);
        }
    }

    /// The four compilers held the way the layered benchmark holds them —
    /// boxed trait objects, compiled through `&dyn Compiler` — emit exactly
    /// the op streams of their concrete types' warm-context compiles.
    #[test]
    fn boxed_compilers_compile_through_dyn_like_their_concrete_types() {
        fn warm<C: Compiler>(compiler: &C, circuits: &[Circuit]) -> Vec<String> {
            let mut cx = compiler.context();
            circuits
                .iter()
                .map(|c| format!("{:?}", compiler.compile_in(&mut cx, c).unwrap().ops()))
                .collect()
        }
        let grid = GridConfig::new(2, 2, 12);
        let circuits = vec![generators::qft(24), generators::adder(32)];
        let compilers: Vec<Box<dyn Compiler + Send + Sync>> = table2_compilers(&grid);
        let concrete = [
            warm(&MuraliCompiler::new(grid.clone()), &circuits),
            warm(&DaiCompiler::new(grid.clone()), &circuits),
            warm(&MqtStyleCompiler::new(grid.clone()), &circuits),
            warm(
                &muss_ti_matching_grid(&grid, MussTiOptions::default()),
                &circuits,
            ),
        ];
        assert_eq!(compilers.len(), concrete.len());
        for (compiler, expected) in compilers.iter().zip(&concrete) {
            let compiler: &dyn Compiler = compiler.as_ref();
            let got: Vec<String> = circuits
                .iter()
                .map(|c| format!("{:?}", compiler.compile(c).unwrap().ops()))
                .collect();
            assert_eq!(&got, expected, "{}", compiler.name());
        }
    }

    #[test]
    fn table2_compilers_are_four_and_named() {
        let compilers = table2_compilers(&GridConfig::new(2, 2, 12));
        let names: Vec<&str> = compilers.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 4);
        assert!(names.contains(&"QCCD-Murali et al."));
        assert!(names.contains(&"QCCD-Dai et al."));
        assert!(names.contains(&"MQT"));
        assert!(names.contains(&"MUSS-TI (Ours)"));
    }

    #[test]
    fn fig6_compilers_are_three() {
        assert_eq!(fig6_compilers(128).len(), 3);
    }

    #[test]
    fn matching_grid_device_has_grid_dimensions() {
        let compiler = muss_ti_matching_grid(&GridConfig::new(2, 3, 8), MussTiOptions::default());
        assert_eq!(compiler.device().num_modules(), 6);
        assert_eq!(compiler.device().config().trap_capacity(), 8);
    }

    #[test]
    fn circuit_for_builds_suite_labels() {
        assert_eq!(circuit_for("SQRT_30").num_qubits(), 30);
    }
}
