//! Hardware model of entanglement-module-linked QCCD (EML-QCCD) trapped-ion
//! devices, plus the shared execution/fidelity simulator used by every
//! compiler in the workspace.
//!
//! The crate provides:
//!
//! * [`DeviceConfig`] / [`EmlQccdDevice`] — the modular architecture of the
//!   paper: QCCD modules partitioned into storage (level 0), operation
//!   (level 1) and optical (level 2) zones, linked pairwise by optical
//!   fibers. Structural queries are served from a precomputed
//!   [`DeviceTopology`] index (borrowed slices, `O(1)` lookups, no per-query
//!   allocation).
//! * [`GridConfig`] / [`QccdGridDevice`] — the monolithic QCCD grid targeted
//!   by the baseline compilers (Murali et al. style).
//! * [`ScheduledOp`] — the operation vocabulary compilers emit (gates,
//!   shuttles, chain rearrangements, fiber gates).
//! * [`TimingModel`] / [`FidelityModel`] — Table 1 of the paper, including
//!   the `1 − εN²` chain-size dependence, per-zone heat accumulation and the
//!   perfect-gate / perfect-shuttle idealisations.
//! * [`ScheduleExecutor`] / [`ExecutionMetrics`] — the makespan + fidelity
//!   evaluator shared by all compilers.
//! * [`ChainStore`] — the ion-chain store both kinds of compiler schedule
//!   against, keyed by a typed [`Location`] (a [`ZoneId`] or a [`TrapId`]):
//!   each qubit's location, chain order, LRU timestamps, the moved-qubit log
//!   and the transfer step that brings an ion to its chain's edge.
//! * [`ScheduleDriver`] / [`SchedulePass`] — the event-driven scheduling
//!   loop every compiler runs, generic over the compiler's executability
//!   rule, gate emission and routing policy.
//! * [`Compiler`] / [`CompiledProgram`] — the one compiler interface: a
//!   one-shot `compile` callable through `&dyn Compiler`, and a typed,
//!   reusable [`Compiler::Context`] for `compile_in`.
//! * [`pipeline`] — the compilation pipeline: typed stage artifacts, the
//!   compile boundary, [`StageTimings`], and [`compile_batch`] for
//!   fault-isolated parallel multi-circuit compilation.
//!
//! # Example
//!
//! ```
//! use eml_qccd::{DeviceConfig, ScheduleExecutor, ScheduledOp, ZoneLevel};
//! use ion_circuit::QubitId;
//!
//! let device = DeviceConfig::for_qubits(64).build();
//! let optical = device.zones_at_level(ZoneLevel::Optical)[0].id;
//! let storage = device.zones_at_level(ZoneLevel::Storage)[0].id;
//!
//! let ops = vec![
//!     ScheduledOp::Shuttle {
//!         qubit: QubitId::new(0),
//!         from_zone: storage.index(),
//!         to_zone: optical.index(),
//!         distance_um: device.intra_module_distance_um(storage, optical),
//!     },
//!     ScheduledOp::TwoQubitGate { a: QubitId::new(0), b: QubitId::new(1), zone: optical.index(), ions_in_zone: 2 },
//! ];
//! let metrics = ScheduleExecutor::paper_defaults().execute(&ops);
//! assert_eq!(metrics.shuttle_count, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compiler;
mod config;
mod device;
mod driver;
mod error;
mod executor;
mod fidelity;
mod grid;
mod metrics;
mod ops;
pub mod pipeline;
mod placement;
mod timing;
mod topology;
mod zone;

pub use compiler::{CompiledProgram, Compiler};
pub use config::DeviceConfig;
pub use device::EmlQccdDevice;
pub use driver::{ScheduleDriver, SchedulePass};
pub use error::{CompileError, DeviceError};
pub use executor::{ExecutorScratch, ScheduleExecutor};
pub use fidelity::{FidelityModel, LogFidelity};
pub use grid::{GridConfig, QccdGridDevice, TrapId};
pub use metrics::ExecutionMetrics;
pub use ops::{OpCounter, OpSink, ResourceId, ScheduledOp};
pub use pipeline::{compile_batch, DeviceDims, ScheduleCheck, StageTimings};
pub use placement::{ChainStore, Location, Protected};
pub use timing::TimingModel;
pub use topology::DeviceTopology;
pub use zone::{ModuleId, Zone, ZoneId, ZoneLevel};
