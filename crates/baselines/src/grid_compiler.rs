//! The grid baselines: one compiler over three routing policies.
//!
//! Murali, Dai and MQT differ only in how a blocked gate's operands move,
//! so [`GridCompiler`] is generic over a zero-sized policy marker and the
//! three baselines are type aliases of it.

use std::marker::PhantomData;

use eml_qccd::{
    CompileError, CompiledProgram, Compiler, GridConfig, QccdGridDevice, ScheduleExecutor,
};
use ion_circuit::Circuit;

use crate::scheduler::{compile_on_grid_in, GridContext, RoutingPolicy};

/// A routing policy of the grid baselines: its legend name and how its
/// scheduling pass moves operands.
pub trait GridPolicy {
    /// Name used in tables and figures.
    const NAME: &'static str;
    /// How a blocked gate's operands move.
    const ROUTING: RoutingPolicy;
}

/// Re-implementation of the greedy QCCD-grid compiler of Murali et al.
/// ("Architecting noisy intermediate-scale trapped ion quantum computers",
/// ISCA 2020, reference \[55\]), the standard trapped-ion baseline the paper
/// compares against.
///
/// For every pending two-qubit gate whose operands sit in different traps,
/// one operand is shuttled hop-by-hop along a shortest grid path into the
/// other's trap (choosing the destination with more free slots); full traps
/// evict their least-recently-used ion to the nearest trap with space.
///
/// ```
/// use baselines::MuraliCompiler;
/// use eml_qccd::{Compiler, GridConfig};
/// use ion_circuit::generators;
///
/// let compiler = MuraliCompiler::new(GridConfig::new(2, 2, 12));
/// let program = compiler.compile(&generators::ghz(32)).unwrap();
/// assert!(program.metrics().shuttle_count >= 3);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Murali;

impl GridPolicy for Murali {
    const NAME: &'static str = "QCCD-Murali et al.";
    const ROUTING: RoutingPolicy = RoutingPolicy::Greedy;
}

/// Re-implementation of the shuttle-reduction strategy of Dai et al.
/// ("Advanced Shuttle Strategies for Parallel QCCD Architectures",
/// reference \[13\]), the second grid baseline of the paper.
///
/// Compared with the greedy Murali-style compiler, this policy looks ahead a
/// few DAG layers to decide *which* operand to move (the one with less
/// near-future work in its current trap) and, when both traps are full, lets
/// the operands meet in the nearest trap with room for both, which reduces
/// redundant back-and-forth transport.
///
/// ```
/// use baselines::DaiCompiler;
/// use eml_qccd::{Compiler, GridConfig};
/// use ion_circuit::generators;
///
/// let compiler = DaiCompiler::new(GridConfig::new(2, 2, 12));
/// let program = compiler.compile(&generators::qaoa(32)).unwrap();
/// assert!(program.metrics().two_qubit_gates > 0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Dai;

impl GridPolicy for Dai {
    const NAME: &'static str = "QCCD-Dai et al.";
    const ROUTING: RoutingPolicy = RoutingPolicy::LookaheadMeet;
}

/// Re-implementation of the Munich Quantum Toolkit shuttling compiler's
/// architectural assumption (MQT IonShuttler, reference \[70\]): gates
/// execute only in a dedicated processing zone, so both operands of every
/// two-qubit gate are shuttled into that zone (and resident ions are
/// displaced to make room).
///
/// This mirrors why the paper's Table 2 shows MQT with by far the largest
/// shuttle counts — the single processing zone serialises and inflates
/// transport — and it serves as the pessimistic end of the baseline spectrum.
///
/// ```
/// use baselines::MqtStyleCompiler;
/// use eml_qccd::{Compiler, GridConfig};
/// use ion_circuit::generators;
///
/// let compiler = MqtStyleCompiler::new(GridConfig::new(2, 2, 12));
/// let program = compiler.compile(&generators::bv(32)).unwrap();
/// assert!(program.metrics().shuttle_count > 0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Mqt;

impl GridPolicy for Mqt {
    const NAME: &'static str = "MQT";
    const ROUTING: RoutingPolicy = RoutingPolicy::ProcessingZone;
}

/// The Murali et al. style baseline; see [`Murali`].
pub type MuraliCompiler = GridCompiler<Murali>;
/// The Dai et al. style baseline; see [`Dai`].
pub type DaiCompiler = GridCompiler<Dai>;
/// The MQT IonShuttler style baseline; see [`Mqt`].
pub type MqtStyleCompiler = GridCompiler<Mqt>;

/// A grid baseline compiler: block initial mapping, the shared scheduling
/// pass with policy `P`'s routing, and the shared lowering.
#[derive(Debug, Clone)]
pub struct GridCompiler<P> {
    device: QccdGridDevice,
    executor: ScheduleExecutor,
    policy: PhantomData<P>,
}

impl<P: GridPolicy> GridCompiler<P> {
    /// Creates the compiler for the given grid configuration.
    pub fn new(config: GridConfig) -> Self {
        GridCompiler {
            device: config.build(),
            executor: ScheduleExecutor::paper_defaults(),
            policy: PhantomData,
        }
    }

    /// Creates the compiler with the grid the paper uses for this qubit count
    /// (2×2 / 3×4 / 4×5).
    pub fn for_qubits(num_qubits: usize) -> Self {
        Self::new(GridConfig::for_qubits(num_qubits))
    }

    /// Replaces the executor (timing / fidelity models).
    pub fn with_executor(mut self, executor: ScheduleExecutor) -> Self {
        self.executor = executor;
        self
    }

    /// The target grid device.
    pub fn device(&self) -> &QccdGridDevice {
        &self.device
    }
}

impl<P: GridPolicy> Compiler for GridCompiler<P> {
    type Context = GridContext;

    fn name(&self) -> &str {
        P::NAME
    }

    fn compile(&self, circuit: &Circuit) -> Result<CompiledProgram, CompileError> {
        self.compile_in(&mut self.context(), circuit)
    }

    fn context(&self) -> GridContext {
        GridContext::new(&self.device)
    }

    fn compile_in(
        &self,
        cx: &mut GridContext,
        circuit: &Circuit,
    ) -> Result<CompiledProgram, CompileError> {
        compile_on_grid_in(
            cx,
            P::NAME,
            &self.device,
            P::ROUTING,
            &self.executor,
            circuit,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ion_circuit::generators;

    #[test]
    fn names_match_paper_legend() {
        assert_eq!(MuraliCompiler::for_qubits(32).name(), "QCCD-Murali et al.");
        assert_eq!(DaiCompiler::for_qubits(32).name(), "QCCD-Dai et al.");
        assert_eq!(MqtStyleCompiler::for_qubits(32).name(), "MQT");
    }

    #[test]
    fn dai_compiles_and_reports_metrics() {
        let compiler = DaiCompiler::new(GridConfig::new(2, 3, 8));
        let circuit = generators::adder(32);
        let program = compiler.compile(&circuit).unwrap();
        assert_eq!(
            program.metrics().two_qubit_gates,
            circuit.two_qubit_gate_count()
        );
        assert!(program.metrics().execution_time_us > 0.0);
    }

    #[test]
    fn murali_compiles_small_benchmarks() {
        let compiler = MuraliCompiler::new(GridConfig::new(2, 2, 12));
        for label in ["GHZ_32", "BV_32", "QAOA_32"] {
            let circuit = generators::BenchmarkApp::from_label(label)
                .unwrap()
                .circuit();
            let program = compiler.compile(&circuit).unwrap();
            assert_eq!(
                program.metrics().two_qubit_gates + program.metrics().swap_gates,
                circuit.two_qubit_gate_count(),
                "{label}"
            );
            assert_eq!(
                program.metrics().fiber_gates,
                0,
                "grids have no fiber links"
            );
        }
    }

    #[test]
    fn oversized_circuit_is_rejected() {
        let circuit = generators::ghz(64);
        let grid = GridConfig::new(2, 2, 4);
        for result in [
            MuraliCompiler::new(grid.clone()).compile(&circuit),
            DaiCompiler::new(grid.clone()).compile(&circuit),
            MqtStyleCompiler::new(grid).compile(&circuit),
        ] {
            assert!(matches!(result, Err(CompileError::DeviceTooSmall { .. })));
        }
    }

    #[test]
    fn communication_heavy_circuits_shuttle_more() {
        let compiler = MuraliCompiler::for_qubits(32);
        let ghz = compiler.compile(&generators::ghz(32)).unwrap();
        let qft = compiler.compile(&generators::qft(32)).unwrap();
        assert!(qft.metrics().shuttle_count > ghz.metrics().shuttle_count);
    }

    #[test]
    fn mqt_shuttles_more_than_murali() {
        let grid = GridConfig::new(2, 2, 12);
        let circuit = generators::adder(32);
        let mqt = MqtStyleCompiler::new(grid.clone())
            .compile(&circuit)
            .unwrap();
        let murali = MuraliCompiler::new(grid).compile(&circuit).unwrap();
        assert!(
            mqt.metrics().shuttle_count > murali.metrics().shuttle_count,
            "mqt={} murali={}",
            mqt.metrics().shuttle_count,
            murali.metrics().shuttle_count
        );
    }

    #[test]
    fn mqt_executes_all_gates() {
        let circuit = generators::ghz(32);
        let program = MqtStyleCompiler::for_qubits(32).compile(&circuit).unwrap();
        assert_eq!(program.metrics().two_qubit_gates, 31);
    }

    fn assert_warm_matches_one_shot<P: GridPolicy>(compiler: &GridCompiler<P>) {
        let circuits = [
            generators::qft(24),
            generators::adder(32),
            generators::random_circuit(32, 200, 17),
        ];
        let mut cx = compiler.context();
        for circuit in &circuits {
            let warm = compiler.compile_in(&mut cx, circuit).unwrap();
            let cold = compiler.compile(circuit).unwrap();
            assert_eq!(
                format!("{:?}", warm.ops()),
                format!("{:?}", cold.ops()),
                "{} on {}",
                P::NAME,
                circuit.name()
            );
        }
    }

    #[test]
    fn warm_context_compiles_are_bit_identical_to_one_shot() {
        assert_warm_matches_one_shot(&MuraliCompiler::for_qubits(32));
        assert_warm_matches_one_shot(&DaiCompiler::for_qubits(32));
        assert_warm_matches_one_shot(&MqtStyleCompiler::for_qubits(32));
    }
}
