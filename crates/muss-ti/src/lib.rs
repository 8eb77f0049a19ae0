//! MUSS-TI: multi-level shuttle scheduling for entanglement-module-linked
//! trapped-ion (EML-QCCD) devices.
//!
//! This crate implements the paper's compiler — the primary contribution of
//! the reproduction:
//!
//! * **Multi-level scheduling** (Section 3.2): the storage / operation /
//!   optical zones of each QCCD module are treated like a memory hierarchy;
//!   gates are routed to the closest level that satisfies them, and capacity
//!   conflicts are resolved by evicting the least-recently-used ion one level
//!   down, like a page fault.
//! * **Cross-module SWAP insertion** (Section 3.3): after a fiber gate, the
//!   weights `W(q, m)` over the next `k` DAG layers — answered on demand
//!   from each operand's own next gates — decide whether a logical qubit
//!   should be exchanged with an idle qubit on another module, replacing
//!   future remote traffic with local gates.
//! * **Initial mapping** (Section 3.4): trivial highest-level-first placement
//!   or the SABRE-style two-fold search.
//!
//! The compiler targets the [`eml_qccd`] hardware model and produces a
//! [`CompiledProgram`](eml_qccd::CompiledProgram) whose metrics (shuttle
//! count, execution time, fidelity) come from the shared
//! [`ScheduleExecutor`](eml_qccd::ScheduleExecutor), so results are directly
//! comparable with the baseline compilers.
//!
//! # Example
//!
//! ```
//! use eml_qccd::{Compiler, DeviceConfig};
//! use ion_circuit::generators;
//! use muss_ti::{MussTiCompiler, MussTiOptions};
//!
//! let circuit = generators::qft(32);
//! let device = DeviceConfig::for_qubits(32).build();
//! let program = MussTiCompiler::new(device, MussTiOptions::default())
//!     .compile(&circuit)
//!     .unwrap();
//! println!("{}", program.metrics());
//! assert!(program.metrics().total_two_qubit_interactions() >= circuit.two_qubit_gate_count());
//! ```
//!
//! # Contexts and batches
//!
//! `compile` runs the staged pipeline in a fresh [`MussTiContext`] (see
//! [`eml_qccd::pipeline`]). Serving paths hold one context and call
//! `compile_in`, so repeated compiles reuse its scratch, and compile whole
//! workloads in parallel with [`eml_qccd::compile_batch`], whose workers own
//! one context each:
//!
//! ```
//! use eml_qccd::{compile_batch, Compiler, DeviceConfig};
//! use ion_circuit::generators;
//! use muss_ti::{MussTiCompiler, MussTiOptions};
//!
//! let device = DeviceConfig::for_qubits(32).build();
//! let compiler = MussTiCompiler::new(device, MussTiOptions::default());
//! let circuits = vec![generators::ghz(32), generators::qft(24), generators::bv(32)];
//! let programs = compile_batch(&compiler, &circuits, 2, None);
//! assert_eq!(programs.len(), 3); // deterministic input order
//! assert!(programs.iter().all(|p| p.is_ok()));
//!
//! let mut cx = compiler.context();
//! let warm = compiler.compile_in(&mut cx, &circuits[1]).unwrap();
//! assert_eq!(warm.ops(), programs[1].as_ref().unwrap().ops());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(test)]
mod alloc_check;
mod compiler;
mod context;
mod mapping;
mod options;
mod placement;
mod scheduler;
mod swap_insertion;

pub use compiler::MussTiCompiler;
pub use context::MussTiContext;

/// Test-support hooks for the external parity suites (not part of the API;
/// hidden and semver-exempt). Exposes just enough of the internal scheduler
/// to let integration tests pin cost-only dry passes against full passes,
/// and MUSS-TI's shuttle to the placement and weight oracles in
/// `crates/fuzz`.
#[doc(hidden)]
pub mod test_support {
    use eml_qccd::{CompileError, EmlQccdDevice, ZoneId};
    use ion_circuit::{Circuit, DependencyDag, QubitId};

    use crate::mapping::trivial_mapping;
    use crate::scheduler::{schedule_cost_only, schedule_in, SchedulerScratch};
    use crate::MussTiOptions;

    pub use crate::placement::shuttle;

    /// Which scheduling entry point [`probe_pass`] runs.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ScheduleMode {
        /// The final pass: materialise the op stream.
        Full,
        /// A SABRE dry pass: count costs only.
        CostOnly,
    }

    /// Everything a scheduling pass decides, captured for parity checks.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PassProbe {
        /// Shuttle operations emitted (the SABRE selection criterion).
        pub shuttles: usize,
        /// Cross-module SWAPs inserted by the Section 3.3 pass.
        pub inserted_swaps: usize,
        /// Final logical clock (LRU timebase) of the pass.
        pub final_clock: u64,
        /// Front-gate executability verdicts the scheduling loop evaluated.
        pub exec_checks: u64,
        /// Final qubit → zone assignment (the chosen routes' outcome).
        pub final_mapping: Vec<(QubitId, ZoneId)>,
        /// Final per-qubit LRU timestamps, qubit-indexed.
        pub last_use: Vec<u64>,
    }

    /// Runs one scheduling pass over `circuit` from its trivial mapping in
    /// the requested mode and captures the decisions.
    ///
    /// # Errors
    ///
    /// Propagates capacity/placement errors from the scheduler.
    pub fn probe_pass(
        device: &EmlQccdDevice,
        options: &MussTiOptions,
        circuit: &Circuit,
        mode: ScheduleMode,
    ) -> Result<PassProbe, CompileError> {
        let mapping = trivial_mapping(device, circuit.num_qubits())?;
        let mut dag = DependencyDag::from_circuit(circuit);
        let mut cx = SchedulerScratch::new(device);
        let stats = match mode {
            ScheduleMode::Full => schedule_in(device, options, &mut dag, &mapping, &mut cx)?,
            ScheduleMode::CostOnly => {
                schedule_cost_only(device, options, &mut dag, &mapping, &mut cx)?
            }
        };
        Ok(PassProbe {
            shuttles: stats.shuttles,
            inserted_swaps: stats.inserted_swaps,
            final_clock: stats.final_clock,
            exec_checks: stats.exec_checks,
            final_mapping: cx.state.mapping(),
            last_use: (0..circuit.num_qubits())
                .map(|q| cx.state.last_use(QubitId::new(q)))
                .collect(),
        })
    }
}
pub use options::{InitialMappingStrategy, MussTiOptions};
pub use swap_insertion::SwapWeights;
