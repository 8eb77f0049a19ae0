//! The SWAP-insertion weight oracle and its lock-step harness.
//!
//! [`WeightTable`] is the original Section 3.3 computation: the whole table
//! `W(q, m)` rebuilt from the first `k` layers. It is built from
//! [`NaiveDag::lookahead_layers`], never from the DAG's depth probe, so a
//! probe bug cannot sit on both sides of the comparison.
//! [`check_swap_weights`] compares every decision `muss_ti::SwapWeights`
//! answers on demand with the table's.
//!
//! [`drive_interleaving`] is the one lock-step harness. It runs a caller's
//! script of [`RawAction`]s (gate retirement, intra-module shuttle,
//! cross-module logical swap) against a random circuit's DAG and a spread
//! placement, and checks every decision at every depth of [`KS`] and
//! threshold of [`THRESHOLDS`] at irregular check points. The proptest
//! suite in `tests/weight_table_equivalence.rs` passes a `Vec` from a
//! strategy; `fuzz_smoke --diff` draws the script from the case's seeded
//! `StdRng`.

use eml_qccd::{ChainStore, DeviceConfig, EmlQccdDevice, ModuleId, ZoneId};
use ion_circuit::{generators, DependencyDag, QubitId};
use muss_ti::test_support::shuttle;
use muss_ti::SwapWeights;

use crate::dag::NaiveDag;
use crate::RawAction;

/// Window depths checked at every check point: at `k = 1` and `k = 2` a
/// qubit's window often spans all of its next `k` gates, the case where the
/// probe-free bound and the exact walk see the same gates; 12 and 64 reach
/// past most circuits' depth.
pub const KS: [usize; 5] = [1, 2, 8, 12, 64];

/// Swap thresholds checked at every check point: eager, small and the
/// paper's default.
pub const THRESHOLDS: [usize; 3] = [0, 1, 4];

/// The weight table `W(qᵢ, cⱼ)` built from the whole `k`-layer window.
///
/// Storage is a flat `Vec<usize>` indexed by `qubit * num_modules + module`;
/// pairs outside it read zero.
#[derive(Debug, Clone, Default)]
pub struct WeightTable {
    /// `weights[qubit * num_modules + module]`.
    weights: Vec<usize>,
    num_modules: usize,
    /// Number of non-zero entries.
    nonzero: usize,
}

impl WeightTable {
    /// Builds the table over the first `k` layers of `naive`'s remaining
    /// gates.
    ///
    /// `module_of` maps a logical qubit to the module currently holding it;
    /// unplaced qubits are skipped (they cannot attract or contribute
    /// weight), and so are modules outside `0..num_modules`.
    pub fn compute(
        naive: &NaiveDag,
        k: usize,
        num_modules: usize,
        module_of: impl Fn(QubitId) -> Option<ModuleId>,
    ) -> Self {
        let mut table = WeightTable::default();
        table.recompute(naive, k, num_modules, module_of);
        table
    }

    /// [`WeightTable::compute`] in place, reusing the flat weight array.
    pub fn recompute(
        &mut self,
        naive: &NaiveDag,
        k: usize,
        num_modules: usize,
        module_of: impl Fn(QubitId) -> Option<ModuleId>,
    ) {
        self.weights.clear();
        self.weights.resize(naive.num_qubits() * num_modules, 0);
        self.num_modules = num_modules;
        self.nonzero = 0;
        for &node in naive.lookahead_layers(k).iter().flatten() {
            let (a, b) = naive.operands(node);
            if let Some(module_b) = module_of(b) {
                self.bump(a, module_b);
            }
            if let Some(module_a) = module_of(a) {
                self.bump(b, module_a);
            }
        }
    }

    /// The flat-array slot of `(q, module)`, or `None` outside the table: the
    /// one range guard behind both reads and writes (an unchecked
    /// out-of-range module would alias into another qubit's row).
    fn checked_slot(&self, q: QubitId, module: ModuleId) -> Option<usize> {
        if module.index() >= self.num_modules {
            return None;
        }
        let slot = q.index() * self.num_modules + module.index();
        (slot < self.weights.len()).then_some(slot)
    }

    /// Adds one unit to `W(q, module)`; out-of-table pairs are dropped.
    fn bump(&mut self, q: QubitId, module: ModuleId) {
        if let Some(slot) = self.checked_slot(q, module) {
            if self.weights[slot] == 0 {
                self.nonzero += 1;
            }
            self.weights[slot] += 1;
        }
    }

    /// `W(q, module)` (out-of-table pairs read zero).
    pub fn weight(&self, q: QubitId, module: ModuleId) -> usize {
        self.checked_slot(q, module)
            .map_or(0, |slot| self.weights[slot])
    }

    /// The remote module (≠ `home`) with the largest weight for `q`, provided
    /// that weight strictly exceeds `threshold` (smallest id on ties).
    pub fn best_remote_module(
        &self,
        q: QubitId,
        home: ModuleId,
        threshold: usize,
    ) -> Option<(ModuleId, usize)> {
        (0..self.num_modules)
            .map(ModuleId)
            .filter(|&m| m != home)
            .map(|m| (m, self.weight(q, m)))
            .filter(|&(_, w)| w > threshold)
            .max_by_key(|&(m, w)| (w, std::cmp::Reverse(m.index())))
    }

    /// Number of non-zero entries.
    pub fn len(&self) -> usize {
        self.nonzero
    }

    /// `true` if the table has no non-zero entry.
    pub fn is_empty(&self) -> bool {
        self.nonzero == 0
    }
}

/// Checks every SWAP-insertion decision `weights` answers on demand over
/// `dag` against the [`WeightTable`] of the same window, built from a
/// [`NaiveDag::replay`] of `dag`: for every placed qubit, the swap target
/// and, per module `m`, whether `W(q, m) = 0`. `module_of` maps a qubit to
/// its current module.
///
/// # Errors
///
/// Describes the first disagreement.
pub fn check_swap_weights(
    weights: &mut SwapWeights,
    dag: &DependencyDag,
    k: usize,
    threshold: usize,
    num_modules: usize,
    module_of: impl Fn(QubitId) -> Option<ModuleId> + Copy,
) -> Result<(), String> {
    let naive = NaiveDag::replay(dag);
    let table = WeightTable::compute(&naive, k, num_modules, module_of);
    for q in (0..dag.num_qubits()).map(QubitId::new) {
        let Some(home) = module_of(q) else { continue };
        let expected = if table.weight(q, home) > 0 {
            None
        } else {
            table.best_remote_module(q, home, threshold).map(|(m, _)| m)
        };
        let got = weights.swap_target(dag, k, threshold, q, home, module_of);
        if got != expected {
            return Err(format!(
                "swap target of {q} (k {k}, T {threshold}): on demand {got:?}, oracle {expected:?}"
            ));
        }
        for module in (0..num_modules).map(ModuleId) {
            let idle = table.weight(q, module) == 0;
            if weights.is_idle_on(dag, k, q, module, module_of) != idle {
                return Err(format!(
                    "W({q}, {module}) = 0 (k {k}): on demand {}, oracle {idle}",
                    !idle
                ));
            }
        }
    }
    Ok(())
}

/// Places `num_qubits` ions round-robin across every zone with free space.
///
/// # Panics
///
/// Panics if the device cannot hold them.
fn spread_placement(device: &EmlQccdDevice, num_qubits: usize) -> ChainStore<ZoneId> {
    let mut state = ChainStore::new(device.num_zones());
    let zones = device.zones();
    let mut cursor = 0usize;
    for q in 0..num_qubits {
        let mut tries = 0;
        loop {
            let zone = &zones[cursor % zones.len()];
            cursor += 1;
            tries += 1;
            assert!(tries <= zones.len(), "device too small for the register");
            if state.occupancy(zone.id) < zone.capacity {
                state.place(QubitId::new(q), zone.id);
                break;
            }
        }
    }
    state
}

/// Runs the script `actions` against `random_circuit(num_qubits, gates,
/// seed)` on a device sized for it, with the ions spread over every zone:
/// retirement of the `x`-th ready gate, a shuttle of qubit `x` to the
/// highest-level other zone of its module, or a logical swap of qubits `x`
/// and `y` when they sit on different modules. Every fifth action and after
/// the last, [`check_swap_weights`] runs at every depth of [`KS`] and
/// threshold of [`THRESHOLDS`].
///
/// # Errors
///
/// Names the index of the action after which a decision first diverged.
pub fn drive_interleaving(
    num_qubits: usize,
    gates: usize,
    seed: u64,
    actions: impl IntoIterator<Item = RawAction>,
) -> Result<(), String> {
    let circuit = generators::random_circuit(num_qubits, gates, seed);
    let device = DeviceConfig::for_qubits(num_qubits).build();
    let mut dag = DependencyDag::from_circuit(&circuit);
    let mut state = spread_placement(&device, num_qubits);
    let mut weights = SwapWeights::default();
    let module_of =
        |state: &ChainStore<ZoneId>, q| state.location_of(q).map(|z| device.zone(z).module);
    let actions: Vec<RawAction> = actions.into_iter().collect();
    for (step, &(kind, x, y)) in actions.iter().enumerate() {
        match kind % 4 {
            // Retire a ready gate, then poke a window query so the probe's
            // memo is warm across retirements.
            0 | 1 => {
                let front = dag.front_layer();
                if !front.is_empty() {
                    dag.mark_executed(front[x % front.len()]);
                    let _ = dag.next_use_depth(8, QubitId::new(step % num_qubits));
                }
            }
            // Intra-module shuttle: invisible to the module-granular weights.
            2 => {
                let q = QubitId::new(x % num_qubits);
                let from = state.location_of(q).expect("placed");
                if let Some(to) = device
                    .zones_in_module(device.zone(from).module)
                    .iter()
                    .filter(|z| z.id != from && state.occupancy(z.id) < z.capacity)
                    .min_by_key(|z| std::cmp::Reverse(z.level))
                {
                    shuttle(&device, &mut state, q, to.id, &mut Vec::new());
                }
            }
            // Cross-module logical swap: the only way a qubit changes module.
            _ => {
                let (a, b) = (QubitId::new(x % num_qubits), QubitId::new(y % num_qubits));
                if module_of(&state, a) != module_of(&state, b) {
                    state.swap_logical(a, b);
                }
            }
        }
        if step % 5 == 4 || step + 1 == actions.len() {
            for k in KS {
                for threshold in THRESHOLDS {
                    check_swap_weights(
                        &mut weights,
                        &dag,
                        k,
                        threshold,
                        device.num_modules(),
                        |q| module_of(&state, q),
                    )
                    .map_err(|e| {
                        format!("{e} after action {step} of random({num_qubits}, {gates}, {seed})")
                    })?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ion_circuit::Circuit;

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    /// q0, q1 on module 0; q2, q3 on module 1.
    fn module_of(qubit: QubitId) -> Option<ModuleId> {
        Some(ModuleId(if qubit.index() < 2 { 0 } else { 1 }))
    }

    /// The table over the first `k` layers of a fresh DAG of `c`.
    fn table(
        c: &Circuit,
        k: usize,
        num_modules: usize,
        module_of: impl Fn(QubitId) -> Option<ModuleId>,
    ) -> WeightTable {
        WeightTable::compute(&NaiveDag::from_circuit(c), k, num_modules, module_of)
    }

    #[test]
    fn counts_partner_modules_in_lookahead_window() {
        let mut c = Circuit::new(4);
        // q0 interacts with q2 (module 1) three times and q1 (module 0) once.
        c.cx(0, 2).cx(0, 2).cx(0, 2).cx(0, 1);
        let table = table(&c, 8, 2, module_of);
        assert_eq!(table.weight(q(0), ModuleId(1)), 3);
        assert_eq!(table.weight(q(0), ModuleId(0)), 1);
        assert_eq!(table.weight(q(2), ModuleId(0)), 3);
    }

    #[test]
    fn lookahead_truncation_limits_weights() {
        let mut c = Circuit::new(4);
        for _ in 0..10 {
            c.cx(0, 2);
        }
        let table = table(&c, 3, 2, module_of);
        assert_eq!(table.weight(q(0), ModuleId(1)), 3);
    }

    #[test]
    fn best_remote_module_requires_threshold_exceeded() {
        let mut c = Circuit::new(4);
        c.cx(0, 2).cx(0, 2).cx(0, 2).cx(0, 2).cx(0, 2);
        let table = table(&c, 8, 2, module_of);
        assert_eq!(
            table.best_remote_module(q(0), ModuleId(0), 4),
            Some((ModuleId(1), 5))
        );
        assert_eq!(table.best_remote_module(q(0), ModuleId(0), 5), None);
        // The home module is never returned.
        assert_eq!(
            table
                .best_remote_module(q(2), ModuleId(1), 0)
                .map(|(m, _)| m),
            Some(ModuleId(0))
        );
    }

    #[test]
    fn best_remote_module_scans_the_tables_own_module_axis() {
        // Regression: the method used to take a caller-supplied module count
        // that could silently disagree with the table's own — too small and
        // candidate modules were skipped. Here all of q0's future work sits
        // on module 2, the very module a stale caller-side `num_modules = 2`
        // would have cut off.
        let mut c = Circuit::new(6);
        c.cx(0, 4).cx(0, 4).cx(0, 4).cx(0, 4).cx(0, 4);
        let table = table(&c, 8, 3, |qubit| {
            Some(ModuleId(qubit.index() / 2)) // q4, q5 live on module 2
        });
        assert_eq!(
            table.best_remote_module(q(0), ModuleId(0), 4),
            Some((ModuleId(2), 5))
        );
    }

    #[test]
    fn empty_dag_gives_empty_table() {
        let table = table(&Circuit::new(2), 8, 2, module_of);
        assert!(table.is_empty());
        assert_eq!(table.len(), 0);
        assert_eq!(table.weight(q(0), ModuleId(0)), 0);
    }

    #[test]
    fn unplaced_qubits_are_skipped() {
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let table = table(&c, 8, 2, |qubit| {
            if qubit.index() == 3 {
                None
            } else {
                module_of(qubit)
            }
        });
        // q3 has no module, so q0 gains no weight from it, but q3 still sees q0's module.
        assert_eq!(table.weight(q(0), ModuleId(1)), 0);
        assert_eq!(table.weight(q(3), ModuleId(0)), 1);
    }

    #[test]
    fn len_counts_nonzero_entries_in_constant_time() {
        let mut c = Circuit::new(4);
        c.cx(0, 2).cx(0, 2).cx(1, 3);
        let table = table(&c, 8, 2, module_of);
        // Entries: (q0,m1)=2, (q2,m0)=2, (q1,m1)=1, (q3,m0)=1 — four non-zero.
        assert_eq!(table.len(), 4);
        assert!(!table.is_empty());
        // A default table behaves like the empty table.
        assert!(WeightTable::default().is_empty());
        assert_eq!(WeightTable::default().weight(q(0), ModuleId(0)), 0);
    }

    #[test]
    fn recompute_in_place_matches_fresh_compute() {
        let mut big = Circuit::new(6);
        big.cx(0, 2).cx(1, 3).cx(4, 5).cx(0, 4);
        let mut small = Circuit::new(4);
        small.cx(0, 2).cx(1, 3);

        // Grow the table on the big circuit, then recompute on the small one:
        // stale entries must not leak through.
        let mut grown = table(&big, 8, 3, |q| Some(ModuleId(q.index() % 3)));
        grown.recompute(&NaiveDag::from_circuit(&small), 8, 2, module_of);
        let fresh = table(&small, 8, 2, module_of);
        assert_eq!(grown.len(), fresh.len());
        for qi in 0..6 {
            for m in 0..3 {
                assert_eq!(
                    grown.weight(q(qi), ModuleId(m)),
                    fresh.weight(q(qi), ModuleId(m)),
                    "q{qi}/m{m}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_modules_read_zero() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let table = table(&c, 8, 2, module_of);
        assert_eq!(table.weight(q(0), ModuleId(7)), 0);
        assert_eq!(table.weight(q(17), ModuleId(0)), 0);
    }

    #[test]
    fn out_of_range_bumps_and_reads_share_one_guard() {
        // A placement bug reporting an out-of-range module must not corrupt
        // the table: the write is dropped through the same checked-slot guard
        // the read uses, instead of aliasing into another qubit's row of the
        // flat layout (slot (q0, m2) of a 2-module table *is* slot (q1, m0)).
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(0, 1);
        let mut table = table(&c, 8, 2, module_of);
        let before_len = table.len();
        let aliased_row = table.weight(q(1), ModuleId(0));
        table.bump(q(0), ModuleId(2));
        table.bump(q(0), ModuleId(7));
        assert_eq!(table.weight(q(0), ModuleId(2)), 0, "write-side drop");
        assert_eq!(table.weight(q(0), ModuleId(7)), 0);
        assert_eq!(table.weight(q(1), ModuleId(0)), aliased_row, "no aliasing");
        assert_eq!(table.len(), before_len, "dropped bumps leave len intact");
        // A placement bug during a rebuild behaves the same way: the mirrored
        // in-range contribution still lands, the out-of-range one is dropped.
        let lopsided = WeightTable::compute(&NaiveDag::from_circuit(&c), 8, 2, |qubit| {
            Some(if qubit.index() == 0 {
                ModuleId(9)
            } else {
                ModuleId(1)
            })
        });
        assert_eq!(lopsided.weight(q(0), ModuleId(1)), 2, "in-range partner");
        assert_eq!(
            lopsided.weight(q(1), ModuleId(1)),
            0,
            "dropped, not aliased"
        );
    }
}
