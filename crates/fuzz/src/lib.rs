//! Deterministic fuzz harness for the untrusted-input pipeline.
//!
//! Every byte entering [`ion_circuit::qasm::parse`] and every circuit
//! entering a compiler is untrusted, so the front-end and pipeline must
//! never panic and the optimised incremental structures must never silently
//! diverge from their naive oracles. This crate is the one home of those
//! oracles (no production crate depends on it) and provides both checks as
//! seeded, reproducible campaigns — no external fuzzing engine, just the
//! workspace's deterministic `rand` shim:
//!
//! * [`bytes`] — generators for adversarial QASM byte streams: random bytes,
//!   token soup, and structure-aware mutations of valid programs
//!   (truncation, splicing, number inflation, parenthesis bombs).
//! * [`circuits`] — a generator for arbitrary *valid* [`Circuit`](ion_circuit::Circuit)s covering
//!   the whole gate set plus deterministic hostile shapes (single-qubit-only
//!   programs, measure-only programs, width-1 registers).
//! * [`qasm_oracle`] — the original two-phase QASM front-end, kept as the
//!   oracle the production single-pass parser is compared against.
//! * [`dag`], [`placement`], [`weights`] — the naive oracles of the
//!   optimised structures, each with its one lock-step harness:
//!   [`dag::NaiveDag`] against [`ion_circuit::DependencyDag`],
//!   [`placement::NaivePlacement`] against `eml_qccd::ChainStore` (moved by
//!   MUSS-TI's one-hop shuttle and the grid's multi-hop transport), and the
//!   full-window [`weights::WeightTable`] against `muss_ti::SwapWeights`'
//!   on-demand decisions. The proptest suites under `tests/` pass each
//!   harness a script from a strategy; the differential campaign draws it
//!   from the case's seeded `StdRng`.
//! * [`differential`] — per-case checks: QASM round-trip exactness,
//!   production-vs-oracle QASM parsing, the seeded harness drivers and the
//!   `parse → compile → to_qasm → parse` differential compile.
//! * [`campaign`] — drivers that run many cases under
//!   [`std::panic::catch_unwind`] and report every panic and divergence with
//!   the seed needed to replay it.
//!
//! The `fuzz_smoke` binary runs the CI-sized campaigns and exits non-zero on
//! any panic or divergence.
//!
//! ```
//! let report = fuzz::campaign::qasm_campaign(0xC0FFEE, 200);
//! assert!(report.is_clean(), "{report}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// Returns a divergence `Err` naming the context when the two sides differ.
macro_rules! ensure_eq {
    ($a:expr, $b:expr, $($ctx:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if lhs != rhs {
            return Err(format!("{}: {lhs:?} != {rhs:?}", format_args!($($ctx)+)));
        }
    }};
}

pub mod bytes;
pub mod campaign;
pub mod circuits;
pub mod dag;
pub mod differential;
pub mod placement;
pub mod qasm_oracle;
pub mod weights;

/// One raw action of a lock-step harness script: a kind and two operands,
/// folded by the harness onto whatever is legal in the current state, so
/// every script is valid.
pub type RawAction = (usize, usize, usize);

pub use campaign::CampaignReport;
