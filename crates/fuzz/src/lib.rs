//! Deterministic fuzz harness for the untrusted-input pipeline.
//!
//! The ROADMAP's north-star is a compile service: every byte entering
//! [`ion_circuit::qasm::parse`] and every circuit entering a compiler is
//! untrusted, so the front-end and pipeline must never panic and the
//! optimised incremental structures must never silently diverge from their
//! retained naive oracles. This crate provides both checks as seeded,
//! reproducible campaigns — no external fuzzing engine, just the workspace's
//! deterministic `rand` shim:
//!
//! * [`bytes`] — generators for adversarial QASM byte streams: random bytes,
//!   token soup, and structure-aware mutations of valid programs
//!   (truncation, splicing, number inflation, parenthesis bombs).
//! * [`circuits`] — a generator for arbitrary *valid* [`Circuit`]s covering
//!   the whole gate set plus deterministic hostile shapes (single-qubit-only
//!   programs, measure-only programs, width-1 registers).
//! * [`qasm_oracle`] — the original two-phase QASM front-end, kept as the
//!   oracle the production single-pass parser is compared against.
//! * [`differential`] — per-case checks: QASM round-trip exactness,
//!   production-vs-oracle QASM parsing,
//!   optimised-vs-oracle equivalence for [`ion_circuit::DependencyDag`] vs
//!   `NaiveDag`, `muss_ti::PlacementState` vs `NaivePlacement`,
//!   `muss_ti::WeightTable` incremental-vs-recompute, and the
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

pub mod bytes;
pub mod campaign;
pub mod circuits;
pub mod differential;
pub mod qasm_oracle;

pub use campaign::CampaignReport;
