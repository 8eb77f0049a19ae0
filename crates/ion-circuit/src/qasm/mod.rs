//! OpenQASM 2.0 import and export (subset).
//!
//! The paper's benchmarks are distributed as QASMBench OpenQASM 2.0 files.
//! This module provides a small, dependency-free importer/exporter covering
//! the subset those files use: a single quantum register, the `qelib1.inc`
//! standard gates (`h x y z s sdg t tdg rx ry rz u1 u2 u3 cx cz cp cu1 swap
//! rzz ccx`), `measure` and `barrier`. Classical registers and `if`
//! statements are parsed but ignored for scheduling purposes.
//!
//! The front-end is built for untrusted input: [`parse`] never panics, the
//! parser recovers at statement boundaries and reports what it finds with
//! line/column spans and source excerpts, and [`ParseLimits`] bounds register
//! width, gate count and expression nesting so adversarial input cannot
//! exhaust memory or the stack.
//!
//! # Design
//!
//! Parsing is one pass. A byte scanner hands the parser one token at a time;
//! identifiers and strings are borrowed `&str` slices of the source, decimal
//! integers (qubit indices, register sizes) are read without float text
//! parsing, and positions are byte offsets. The parser builds the gate list
//! as it goes, reusing one parameter buffer and one operand buffer across
//! statements and looking registers up in a small, linearly scanned list.
//! No token vector or per-token string is ever built: parsing a QFT_96
//! source allocates 16 times, almost all of it the growing gate list
//! (`tests/qasm_alloc.rs` bounds it at 64). Line, column and the source excerpt are computed from the offsets
//! only when a [`Diagnostic`] is built.
//!
//! # Diagnostics contract
//!
//! An error carries the first [`ParseLimits::max_diagnostics`] problems in
//! source order (at least one), lexical and syntactic alike. Once that many
//! are found the parser stops at the next statement boundary, so the cost of
//! rejecting a flood of errors is bounded too. A [`TooManyGates`] problem
//! also stops parsing, at the statement that crossed the limit.
//!
//! [`TooManyGates`]: DiagnosticKind::TooManyGates
//!
//! ```
//! use ion_circuit::qasm;
//!
//! let source = r#"
//! OPENQASM 2.0;
//! include "qelib1.inc";
//! qreg q[3];
//! creg c[3];
//! h q[0];
//! cx q[0], q[1];
//! cx q[1], q[2];
//! measure q -> c;
//! "#;
//! let circuit = match qasm::parse(source) {
//!     Ok(circuit) => circuit,
//!     Err(err) => {
//!         // Each diagnostic carries a line/column span and source excerpt.
//!         for diagnostic in err.diagnostics() {
//!             eprintln!("{diagnostic}");
//!         }
//!         return;
//!     }
//! };
//! assert_eq!(circuit.num_qubits(), 3);
//! assert_eq!(circuit.two_qubit_gate_count(), 2);
//!
//! let emitted = qasm::to_qasm(&circuit);
//! let reparsed = qasm::parse(&emitted).expect("emitted QASM always re-parses");
//! assert_eq!(reparsed.two_qubit_gate_count(), 2);
//! ```
//!
//! Malformed input produces a structured [`QasmError`] instead of a panic:
//!
//! ```
//! use ion_circuit::qasm::{self, DiagnosticKind};
//!
//! let err = qasm::parse("OPENQASM 2.0;\nqreg q[999999999];\n").unwrap_err();
//! assert!(matches!(
//!     err.first().kind,
//!     DiagnosticKind::RegisterTooWide { .. }
//! ));
//! ```

// lint: no-panic

mod lexer;
mod parser;
mod writer;

pub use parser::{parse, parse_with_limits, Diagnostic, DiagnosticKind, ParseLimits, QasmError};
pub use writer::to_qasm;
