//! Baseline QCCD compilers the paper compares MUSS-TI against.
//!
//! All three baselines target the monolithic [`QccdGridDevice`]
//! (`eml_qccd::QccdGridDevice`) — a rows × cols grid of traps connected by
//! junctions — and share the same scheduling skeleton (DAG front layer,
//! executable-gates-first, LRU eviction on full traps), differing only in the
//! routing policy. Their traps are ion chains kept in the same
//! [`eml_qccd::ChainStore`] MUSS-TI schedules its zones in; only the route
//! of a transport and where an evicted ion goes are the grid's own. They are one [`GridCompiler`], generic over a zero-sized
//! [`GridPolicy`] marker:
//!
//! * [`MuraliCompiler`] = `GridCompiler<Murali>` — greedy move-one-operand
//!   routing (Murali et al., ISCA 2020, reference \[55\]).
//! * [`DaiCompiler`] = `GridCompiler<Dai>` — look-ahead mover selection plus
//!   meet-in-the-middle when both traps are full (Dai et al., reference
//!   \[13\]).
//! * [`MqtStyleCompiler`] = `GridCompiler<Mqt>` — dedicated processing-zone
//!   execution (MQT IonShuttler, reference \[70\]).
//!
//! Each implements [`eml_qccd::Compiler`] with [`GridContext`] as its
//! reusable context.
//!
//! Since the original implementations are not redistributable, these are
//! re-implementations of the policies as the paper describes them; see
//! DESIGN.md §3 for the substitution argument.
//!
//! ```
//! use baselines::{MqtStyleCompiler, MuraliCompiler};
//! use eml_qccd::{Compiler, GridConfig};
//! use ion_circuit::generators;
//!
//! let circuit = generators::ghz(32);
//! let grid = GridConfig::new(2, 2, 12);
//! let murali = MuraliCompiler::new(grid.clone()).compile(&circuit).unwrap();
//! let mqt = MqtStyleCompiler::new(grid).compile(&circuit).unwrap();
//! assert!(mqt.metrics().shuttle_count >= murali.metrics().shuttle_count);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(test)]
mod alloc_check;
mod grid_compiler;
mod scheduler;

pub use grid_compiler::{
    Dai, DaiCompiler, GridCompiler, GridPolicy, Mqt, MqtStyleCompiler, Murali, MuraliCompiler,
};
pub use scheduler::{GridContext, RoutingPolicy};

/// Test-support hooks for the external equivalence suites (not part of the
/// API; hidden and semver-exempt): the grid transport, so the placement
/// oracle can pin its multi-hop transfers.
#[doc(hidden)]
pub mod test_support {
    pub use crate::scheduler::transport;
}

/// The `QccdGridDevice` referenced in the crate docs, re-exported for
/// convenience so baseline users need only this crate plus `ion-circuit`.
pub use eml_qccd::{GridConfig, QccdGridDevice};
