//! OpenQASM 2.0 import and export (subset).
//!
//! The paper's benchmarks are distributed as QASMBench OpenQASM 2.0 files.
//! This module provides a small, dependency-free importer/exporter covering
//! the subset those files use: a single quantum register, the `qelib1.inc`
//! standard gates (`h x y z s sdg t tdg rx ry rz u1 u2 u3 cx cz cp cu1 swap
//! rzz ccx`), `measure` and `barrier`. A gate call must give exactly the
//! gate's number of qubit arguments and of parameters. Classical registers
//! are declared but ignored for scheduling purposes: a `measure` must name a
//! declared one (`-> creg` or `-> creg[i]`, then `;`). An `if (c==n)`
//! condition is dropped while the statement it guards is kept: routing must
//! serve its gates whichever way the condition goes.
//!
//! The front-end is built for untrusted input: [`parse`] never panics, the
//! parser recovers at statement boundaries and reports what it finds with
//! line/column spans and source excerpts, and [`ParseLimits`] bounds register
//! width, gate count and expression nesting so adversarial input cannot
//! exhaust memory or the stack.
//!
//! # Design
//!
//! Parsing is one pass with two ways to read a statement, and the token path
//! is the specification:
//!
//! - **The token path** parses every statement the grammar allows. A byte
//!   scanner hands a recursive-descent parser one token at a time;
//!   identifiers and strings are borrowed `&str` slices of the source,
//!   decimal integers are read without float text parsing, and positions are
//!   byte offsets. Every diagnostic comes from this path.
//! - **The statement fast path** runs first at each statement boundary. It
//!   reads the common statement straight from the bytes: a built-in gate
//!   call `name[(p, …)] reg[i], …;`, whose parameters are each
//!   `[-]atom[(*|/)atom]` with an atom a literal or `pi`, or `measure reg[i]
//!   -> creg[j];`, with whitespace between any two items. It is accept-only:
//!   on any doubt (a keyword or unknown name, a comment inside the
//!   statement, a longer expression, a non-finite value, an index out of
//!   range or not plain digits, an unknown register, a repeated operand, a
//!   wrong number of operands or parameters) it
//!   consumes nothing and the token path parses the statement. When it
//!   accepts, it yields the gates, values and positions the token path would.
//!
//! Both paths resolve a statement's first word once, in one table of
//! keywords and gate names. The gate list grows as the parser goes; one
//! parameter buffer and one operand buffer are reused across statements, and
//! registers are looked up in a small, linearly scanned list. No token vector
//! or per-statement allocation is ever made: `tests/qasm_alloc.rs` bounds the
//! allocations of parsing QFT_96, RAN_1024 and SQRT_299 at 64 each, almost
//! all of them the growing gate list. Line, column and the source excerpt are
//! computed from the offsets only when a [`Diagnostic`] is built.
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
