//! The original two-phase QASM front-end, kept as a test oracle.
//!
//! `ion_circuit::qasm` parses in one pass over borrowed bytes. This module is
//! the front-end it replaced, moved here unchanged apart from its imports: a
//! lexer that materialises every token, then a parser over that vector. It
//! uses only public `ion_circuit` types, and [`parse_with_limits`] returns the
//! diagnostics as a plain `Vec`.
//!
//! The fuzz campaign parses every case with both front-ends and compares
//! verdicts, circuits and diagnostics (see
//! [`differential::check_qasm_oracle`](crate::differential::check_qasm_oracle)).
//! One behaviour differs on purpose: the oracle's lexer caps its own
//! diagnostics at [`MAX_LEX_DIAGNOSTICS`] and scans the whole source before
//! the parser starts, so lexer errors late in a file can crowd out earlier
//! parser errors once [`ParseLimits::max_diagnostics`] is reached. The
//! production front-end reports the first `max_diagnostics` problems in
//! source order instead.
//!
//! [`ParseLimits::max_diagnostics`]: ion_circuit::qasm::ParseLimits::max_diagnostics

mod lexer;
mod parser;

pub use lexer::MAX_LEX_DIAGNOSTICS;
pub use parser::parse_with_limits;
