//! Compiler options for MUSS-TI.

use serde::{Deserialize, Serialize};

/// The accepted range of [`MussTiOptions::lookahead_k`].
pub(crate) const LOOKAHEAD_K_RANGE: std::ops::RangeInclusive<usize> = 1..=64;

/// Initial-mapping strategy (Section 3.4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InitialMappingStrategy {
    /// Place logical qubits into zones ordered by zone level from highest
    /// (optical) to lowest (storage), in qubit order.
    Trivial,
    /// The SABRE-style two-fold search: schedule the circuit forward from the
    /// trivial mapping, schedule the reversed circuit from the resulting
    /// final mapping, and use the mapping that run ends with as the real
    /// initial mapping.
    Sabre,
}

/// Configuration of the MUSS-TI compiler.
///
/// Defaults reproduce the paper's main configuration: SABRE initial mapping,
/// SWAP insertion enabled with look-ahead `k = 8` and threshold `T = 4`.
/// The ablation study (Fig. 8) and the look-ahead sweep (Fig. 9) are
/// expressed by toggling these fields.
///
/// ```
/// use muss_ti::{InitialMappingStrategy, MussTiOptions};
///
/// let trivial_only = MussTiOptions::trivial();
/// assert_eq!(trivial_only.initial_mapping, InitialMappingStrategy::Trivial);
/// assert!(!trivial_only.enable_swap_insertion);
///
/// let full = MussTiOptions::default();
/// assert_eq!(full.lookahead_k, 8);
/// assert_eq!(full.swap_threshold, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MussTiOptions {
    /// Which initial-mapping strategy to use.
    pub initial_mapping: InitialMappingStrategy,
    /// Whether the cross-module SWAP-insertion pass (Section 3.3) runs.
    pub enable_swap_insertion: bool,
    /// Look-ahead window `k`: how many layers of the remaining DAG the SWAP
    /// weights `W(q, ·)` inspect (paper default 8, swept 4–12 in Fig. 9).
    /// Valid range `1..=64`: look-ahead work grows with `k` (QFT_96 compiles
    /// about 10× slower at `k = 64` than at 8, and about 70× at 256), so
    /// every compile entry point rejects a value outside it with
    /// `CompileError::InvalidOptions` before doing any work.
    pub lookahead_k: usize,
    /// SWAP-insertion threshold `T`: the minimum future-gate weight towards a
    /// remote module required before a SWAP is inserted (paper default 4; a
    /// SWAP costs three MS gates so `T < 3` is never profitable).
    pub swap_threshold: usize,
    /// Unread: every compile runs its scheduling passes sequentially on the
    /// calling thread, whatever this holds. The field survives only because
    /// the layered benchmark (`perfbench/`) still prints it; it is to be
    /// deleted together with that banner line in the benchmark owner's next
    /// change. The default `usize::MAX` says that no request runs
    /// overlapped passes.
    pub parallel_sabre_threshold: usize,
}

impl Default for MussTiOptions {
    fn default() -> Self {
        MussTiOptions {
            initial_mapping: InitialMappingStrategy::Sabre,
            enable_swap_insertion: true,
            lookahead_k: 8,
            swap_threshold: 4,
            parallel_sabre_threshold: usize::MAX,
        }
    }
}

impl MussTiOptions {
    /// The paper's full configuration (SABRE + SWAP-Insert).
    pub fn full() -> Self {
        Self::default()
    }

    /// Ablation baseline: trivial mapping, no SWAP insertion.
    pub fn trivial() -> Self {
        MussTiOptions {
            initial_mapping: InitialMappingStrategy::Trivial,
            enable_swap_insertion: false,
            ..Self::default()
        }
    }

    /// Ablation: trivial mapping with SWAP insertion.
    pub fn swap_insert_only() -> Self {
        MussTiOptions {
            initial_mapping: InitialMappingStrategy::Trivial,
            enable_swap_insertion: true,
            ..Self::default()
        }
    }

    /// Ablation: SABRE mapping without SWAP insertion.
    pub fn sabre_only() -> Self {
        MussTiOptions {
            initial_mapping: InitialMappingStrategy::Sabre,
            enable_swap_insertion: false,
            ..Self::default()
        }
    }

    /// Sets the look-ahead window `k`.
    pub fn with_lookahead(mut self, k: usize) -> Self {
        self.lookahead_k = k;
        self
    }

    /// Sets the SWAP-insertion threshold `T`.
    pub fn with_swap_threshold(mut self, t: usize) -> Self {
        self.swap_threshold = t;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_configuration() {
        let o = MussTiOptions::default();
        assert_eq!(o.initial_mapping, InitialMappingStrategy::Sabre);
        assert!(o.enable_swap_insertion);
        assert_eq!(o.lookahead_k, 8);
        assert_eq!(o.swap_threshold, 4);
        assert_eq!(o.parallel_sabre_threshold, usize::MAX);
    }

    #[test]
    fn ablation_presets_differ_in_the_right_dimension() {
        assert!(!MussTiOptions::trivial().enable_swap_insertion);
        assert!(MussTiOptions::swap_insert_only().enable_swap_insertion);
        assert_eq!(
            MussTiOptions::swap_insert_only().initial_mapping,
            InitialMappingStrategy::Trivial
        );
        assert!(!MussTiOptions::sabre_only().enable_swap_insertion);
        assert_eq!(
            MussTiOptions::sabre_only().initial_mapping,
            InitialMappingStrategy::Sabre
        );
    }

    #[test]
    fn builders_set_sweep_parameters() {
        let o = MussTiOptions::default()
            .with_lookahead(12)
            .with_swap_threshold(6);
        assert_eq!(o.lookahead_k, 12);
        assert_eq!(o.swap_threshold, 6);
    }
}
