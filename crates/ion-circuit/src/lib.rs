//! Quantum-circuit intermediate representation for the MUSS-TI reproduction.
//!
//! This crate provides everything the compiler stack needs on the *program*
//! side of the problem:
//!
//! * [`QubitId`] — a typed logical-qubit index.
//! * [`Gate`] — the gate set used by the trapped-ion benchmarks (single-qubit
//!   rotations, Mølmer–Sørensen-style two-qubit entangling gates, measurement
//!   and barriers).
//! * [`Circuit`] — an ordered list of gates with validation and statistics.
//! * [`DependencyDag`] — the gate dependency graph used by every scheduler in
//!   the workspace (front layer extraction, look-ahead layers, execution
//!   book-keeping).
//! * [`generators`] — programmatic builders for the benchmark applications of
//!   the paper's evaluation (Adder, BV, GHZ, QAOA, QFT, SQRT, RAN, SC).
//! * [`qasm`] — a small OpenQASM 2.0 importer/exporter so external circuits
//!   (e.g. QASMBench files) can be run through the toolchain.
//!
//! # Example
//!
//! ```
//! use ion_circuit::{generators, DependencyDag};
//!
//! let circuit = generators::ghz(8);
//! assert_eq!(circuit.num_qubits(), 8);
//! assert_eq!(circuit.two_qubit_gate_count(), 7);
//!
//! let dag = DependencyDag::from_circuit(&circuit);
//! // A GHZ chain has exactly one executable two-qubit gate at a time.
//! assert_eq!(dag.front_layer().len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod circuit;
mod dag;
mod error;
mod gate;
mod interaction;
mod qubit;

pub mod generators;
pub mod qasm;

pub use circuit::{Circuit, CircuitStats};
pub use dag::{DagNodeId, DependencyDag};
pub use error::CircuitError;
pub use gate::Gate;
pub use interaction::InteractionGraph;
pub use qubit::QubitId;
