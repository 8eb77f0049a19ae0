//! Umbrella crate for the MUSS-TI reproduction workspace.
//!
//! This crate simply re-exports the workspace members so that examples and
//! integration tests can use a single dependency:
//!
//! ```
//! use muss_ti_repro::prelude::*;
//!
//! let circuit = generators::ghz(32);
//! let device = DeviceConfig::for_qubits(32).build();
//! let program = MussTiCompiler::new(device, MussTiOptions::default())
//!     .compile(&circuit)
//!     .unwrap();
//! assert!(program.metrics().shuttle_count < 100);
//! ```

pub use baselines;
pub use eml_qccd;
pub use experiments;
pub use ion_circuit;
pub use muss_ti;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use baselines::{DaiCompiler, GridCompiler, MqtStyleCompiler, MuraliCompiler};
    pub use eml_qccd::{
        compile_batch, CompiledProgram, Compiler, DeviceConfig, EmlQccdDevice, ExecutionMetrics,
        FidelityModel, GridConfig, QccdGridDevice, ScheduleCheck, ScheduleExecutor, StageTimings,
        TimingModel,
    };
    pub use ion_circuit::{generators, qasm, Circuit, DependencyDag, Gate, QubitId};
    pub use muss_ti::{InitialMappingStrategy, MussTiCompiler, MussTiContext, MussTiOptions};
}
