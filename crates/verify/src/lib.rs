//! Translation validation for compiled trapped-ion schedules.
//!
//! Every other correctness net in the workspace (op fingerprints, fuzz
//! differentials, allocation counting) checks that compiled op streams are
//! *stable*; none checks that a stream is *physically executable* on the
//! device that was compiled for, or that it still implements the source
//! circuit. This crate closes that gap with a static analyzer that replays a
//! [`CompiledProgram`](eml_qccd::CompiledProgram)'s `Vec<ScheduledOp>`
//! through an abstract device machine and reports structured [`Violation`]s:
//!
//! * **Physical validity** — every gate executes where its operands actually
//!   are, `ions_in_zone` matches tracked occupancy, capacities are never
//!   exceeded, shuttles depart from the ion's current zone over a distance
//!   the topology allows, fiber gates touch only optical zones of distinct
//!   fiber-linked modules, and no gate follows a measurement on the same
//!   qubit.
//! * **Logical coverage** — modulo the permutation induced by
//!   compiler-inserted cross-module swaps, the stream executes exactly the
//!   source circuit's gates, respecting its dependency order (replayed
//!   through the same [`DependencyDag`](ion_circuit::DependencyDag) the
//!   schedulers plan with).
//!
//! The analyzer is scheduler-agnostic: it validates MUSS-TI and all three
//! baseline compilers against the same rules, driven by a [`DeviceModel`]
//! built `From` either an [`EmlQccdDevice`](eml_qccd::EmlQccdDevice) or a
//! [`QccdGridDevice`](eml_qccd::QccdGridDevice).
//!
//! # Example
//!
//! ```
//! use eml_qccd::{compile_batch, Compiler, DeviceConfig};
//! use muss_ti::{MussTiCompiler, MussTiOptions};
//! use verify::{DeviceModel, ScheduleVerifier};
//!
//! let device = DeviceConfig::for_qubits(8).build();
//! let compiler = MussTiCompiler::new(device.clone(), MussTiOptions::default());
//! let verifier = ScheduleVerifier::new(DeviceModel::from(&device));
//! let circuit = ion_circuit::generators::ghz(8);
//!
//! // Direct use:
//! let program = compiler.compile(&circuit).unwrap();
//! assert!(verifier.verify(&circuit, &program).is_clean());
//!
//! // Or as a batch check hook that vetoes invalid programs:
//! let check = verifier.as_check();
//! let programs = compile_batch(&compiler, &[circuit], 1, Some(&check));
//! assert!(programs[0].is_ok());
//! ```

// lint: no-panic

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod model;
mod replay;
mod violation;

pub use model::DeviceModel;
pub use replay::ScheduleVerifier;
pub use violation::{MachineSnapshot, VerifyReport, Violation, ViolationKind};
