//! The Section 3.3 SWAP-insertion weights `W(q, m)`, answered on demand.

// lint: hot-path

use std::cmp::Reverse;

use eml_qccd::ModuleId;
use ion_circuit::{DependencyDag, QubitId};

/// The SWAP-insertion weights of the paper's Section 3.3, answered on demand
/// from the queried qubit's own next gates.
///
/// `W(q, m)` counts the gates within the first `k` layers of the remaining
/// dependency DAG that pair `q` with a qubit currently on module `m`. After
/// each fiber (remote) gate the scheduler asks, per operand `q` on module
/// `home`: is `W(q, home) = 0`, and does some other module `m` have
/// `W(q, m) > T`? If so, `q` is swapped with an idle qubit of the best such
/// `m` (largest weight, then smallest module id), where idle means zero
/// weight towards its own module.
///
/// # Performance
///
/// Depth strictly increases along one qubit's gates, so `q`'s window gates
/// are a prefix of its next `k` unexecuted gates. Every query therefore
/// first counts partner modules over those `k` gates
/// ([`DependencyDag::next_partners`], no probe), stopping as soon as the
/// outcome is decided. That count bounds each `W(q, m)` from above, and it
/// settles most queries: no remote module above `T`, or no partner on the
/// module asked about. Only the rest walk the exact window
/// ([`DependencyDag::for_each_window_partner`]), and
/// [`walks`](SwapWeights::walks) counts those walks. Each query reads the
/// current placement, so nothing goes stale when a qubit changes module. The
/// partner-module buffer (at most `k` entries) is pooled.
///
/// [`WeightTable`] is the reference oracle: the original rebuild of the
/// whole table from the full window, kept for the equivalence suites.
#[derive(Debug, Clone, Default)]
pub struct SwapWeights {
    /// Pooled partner modules of the current query.
    modules: Vec<ModuleId>,
    /// Exact window walks run so far.
    walks: u64,
}

impl SwapWeights {
    /// The module `q` (on `home`) should be swapped onto, if any:
    /// `W(q, home) = 0` and the remote module with the largest `W(q, ·)`
    /// above `threshold` (smallest id on ties). `module_of` maps a qubit to
    /// its current module; unplaced partners carry no weight.
    pub fn swap_target(
        &mut self,
        dag: &DependencyDag,
        k: usize,
        threshold: usize,
        q: QubitId,
        home: ModuleId,
        module_of: impl Fn(QubitId) -> Option<ModuleId>,
    ) -> Option<ModuleId> {
        // The bound: can a remote module pass `threshold` over the next `k`
        // partners? Stop as soon as the answer is known.
        let modules = &mut self.modules;
        modules.clear();
        let mut partners = dag.next_partners(k, q);
        let mut heaviest = 0;
        while heaviest <= threshold {
            // A module seen so far reaches at most `heaviest + len`, an
            // unseen one at most `len`.
            if heaviest + partners.len() <= threshold {
                return None;
            }
            if let Some(module) = module_of(partners.next()?).filter(|&m| m != home) {
                heaviest = heaviest.max(tally(modules, module));
            }
        }
        // The exact window walk.
        self.walks += 1;
        modules.clear();
        let mut home_used = false;
        let mut best: Option<(usize, Reverse<ModuleId>)> = None;
        dag.for_each_window_partner(k, q, |partner| match module_of(partner) {
            Some(module) if module == home => home_used = true,
            Some(module) => {
                // Weights only grow, so the running maximum of
                // `(weight, smaller id)` ends at the overall maximum.
                let key = (tally(modules, module), Reverse(module));
                best = best.max(Some(key));
            }
            None => {}
        });
        if home_used {
            return None;
        }
        best.filter(|&(weight, _)| weight > threshold)
            .map(|(_, Reverse(module))| module)
    }

    /// `true` iff `W(q, module) = 0`: no window gate pairs `q` with a qubit
    /// on `module`.
    pub fn is_idle_on(
        &mut self,
        dag: &DependencyDag,
        k: usize,
        q: QubitId,
        module: ModuleId,
        module_of: impl Fn(QubitId) -> Option<ModuleId>,
    ) -> bool {
        let on_module = |p| module_of(p) == Some(module);
        if !dag.next_partners(k, q).any(on_module) {
            return true;
        }
        self.walks += 1;
        dag.count_window_partners(k, q, on_module) == 0
    }

    /// Exact window walks run so far: the queries the probe-free bound did
    /// not settle (a deterministic work counter).
    pub fn walks(&self) -> u64 {
        self.walks
    }
}

/// Appends `module` to `modules` and returns how often it occurs there
/// (`O(k)`: the buffer holds at most `k` entries).
fn tally(modules: &mut Vec<ModuleId>, module: ModuleId) -> usize {
    modules.push(module);
    modules.iter().filter(|&&m| m == module).count()
}

/// The weight table `W(qᵢ, cⱼ)` built from the whole `k`-layer window: the
/// original Section 3.3 computation, kept as the reference oracle that the
/// equivalence suites pin [`SwapWeights`] against. The scheduler never
/// builds it.
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
    /// Builds the table over the first `k` layers of `dag`'s remaining gates.
    ///
    /// `module_of` maps a logical qubit to the module currently holding it;
    /// qubits that are somehow unplaced are skipped (they cannot attract or
    /// contribute weight), and so are modules outside `0..num_modules`.
    pub fn compute(
        dag: &DependencyDag,
        lookahead_k: usize,
        num_modules: usize,
        module_of: impl Fn(QubitId) -> Option<ModuleId>,
    ) -> Self {
        let mut table = WeightTable::default();
        table.recompute(dag, lookahead_k, num_modules, module_of);
        table
    }

    /// [`WeightTable::compute`] in place, reusing the flat weight array.
    pub fn recompute(
        &mut self,
        dag: &DependencyDag,
        lookahead_k: usize,
        num_modules: usize,
        module_of: impl Fn(QubitId) -> Option<ModuleId>,
    ) {
        self.weights.clear();
        self.weights.resize(dag.num_qubits() * num_modules, 0);
        self.num_modules = num_modules;
        self.nonzero = 0;
        dag.for_each_window_gate(lookahead_k, |_, node| {
            let (a, b) = dag.operands(node);
            if let Some(module_b) = module_of(b) {
                self.bump(a, module_b);
            }
            if let Some(module_a) = module_of(a) {
                self.bump(b, module_a);
            }
        });
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

    #[test]
    fn counts_partner_modules_in_lookahead_window() {
        let mut c = Circuit::new(4);
        // q0 interacts with q2 (module 1) three times and q1 (module 0) once.
        c.cx(0, 2).cx(0, 2).cx(0, 2).cx(0, 1);
        let dag = DependencyDag::from_circuit(&c);
        let table = WeightTable::compute(&dag, 8, 2, module_of);
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
        let dag = DependencyDag::from_circuit(&c);
        let table = WeightTable::compute(&dag, 3, 2, module_of);
        assert_eq!(table.weight(q(0), ModuleId(1)), 3);
    }

    #[test]
    fn best_remote_module_requires_threshold_exceeded() {
        let mut c = Circuit::new(4);
        c.cx(0, 2).cx(0, 2).cx(0, 2).cx(0, 2).cx(0, 2);
        let dag = DependencyDag::from_circuit(&c);
        let table = WeightTable::compute(&dag, 8, 2, module_of);
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
        let dag = DependencyDag::from_circuit(&c);
        let table = WeightTable::compute(&dag, 8, 3, |qubit| {
            Some(ModuleId(qubit.index() / 2)) // q4, q5 live on module 2
        });
        assert_eq!(
            table.best_remote_module(q(0), ModuleId(0), 4),
            Some((ModuleId(2), 5))
        );
    }

    #[test]
    fn empty_dag_gives_empty_table() {
        let c = Circuit::new(2);
        let dag = DependencyDag::from_circuit(&c);
        let table = WeightTable::compute(&dag, 8, 2, module_of);
        assert!(table.is_empty());
        assert_eq!(table.len(), 0);
        assert_eq!(table.weight(q(0), ModuleId(0)), 0);
    }

    #[test]
    fn unplaced_qubits_are_skipped() {
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let dag = DependencyDag::from_circuit(&c);
        let table = WeightTable::compute(&dag, 8, 2, |qubit| {
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
        let dag = DependencyDag::from_circuit(&c);
        let table = WeightTable::compute(&dag, 8, 2, module_of);
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
        let big_dag = DependencyDag::from_circuit(&big);
        let small_dag = DependencyDag::from_circuit(&small);

        // Grow the table on the big circuit, then recompute on the small one:
        // stale entries must not leak through.
        let mut table = WeightTable::compute(&big_dag, 8, 3, |q| Some(ModuleId(q.index() % 3)));
        table.recompute(&small_dag, 8, 2, module_of);
        let fresh = WeightTable::compute(&small_dag, 8, 2, module_of);
        assert_eq!(table.len(), fresh.len());
        for qi in 0..6 {
            for m in 0..3 {
                assert_eq!(
                    table.weight(q(qi), ModuleId(m)),
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
        let dag = DependencyDag::from_circuit(&c);
        let table = WeightTable::compute(&dag, 8, 2, module_of);
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
        let dag = DependencyDag::from_circuit(&c);
        let mut table = WeightTable::compute(&dag, 8, 2, module_of);
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
        let lopsided = WeightTable::compute(&dag, 8, 2, |qubit| {
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

    /// The decisions the oracle table implies for every qubit: the swap
    /// target `(W(q, home) = 0, best remote module above T)` and, per
    /// module, whether `W(q, m) = 0`.
    fn oracle_decisions(
        dag: &DependencyDag,
        k: usize,
        threshold: usize,
        num_modules: usize,
        module_of: impl Fn(QubitId) -> Option<ModuleId> + Copy,
    ) -> Vec<(Option<ModuleId>, Vec<bool>)> {
        let table = WeightTable::compute(dag, k, num_modules, module_of);
        (0..dag.num_qubits())
            .map(|i| {
                let home = module_of(q(i)).expect("placed");
                let target = if table.weight(q(i), home) > 0 {
                    None
                } else {
                    table
                        .best_remote_module(q(i), home, threshold)
                        .map(|(m, _)| m)
                };
                let idle = (0..num_modules)
                    .map(|m| table.weight(q(i), ModuleId(m)) == 0)
                    .collect();
                (target, idle)
            })
            .collect()
    }

    /// The same decisions answered on demand by [`SwapWeights`].
    fn on_demand_decisions(
        weights: &mut SwapWeights,
        dag: &DependencyDag,
        k: usize,
        threshold: usize,
        num_modules: usize,
        module_of: impl Fn(QubitId) -> Option<ModuleId> + Copy,
    ) -> Vec<(Option<ModuleId>, Vec<bool>)> {
        (0..dag.num_qubits())
            .map(|i| {
                let home = module_of(q(i)).expect("placed");
                let target = weights.swap_target(dag, k, threshold, q(i), home, module_of);
                let idle = (0..num_modules)
                    .map(|m| weights.is_idle_on(dag, k, q(i), ModuleId(m), module_of))
                    .collect();
                (target, idle)
            })
            .collect()
    }

    #[test]
    fn swap_target_picks_the_heaviest_remote_module_with_the_smallest_id_on_ties() {
        // q0 (module 0) meets q2 and q3 (module 1) twice each and q4, q5
        // (module 2) twice each: modules 1 and 2 tie at weight 4.
        let mut c = Circuit::new(6);
        for partner in [2, 4, 3, 5, 2, 4, 3, 5] {
            c.cx(0, partner);
        }
        let dag = DependencyDag::from_circuit(&c);
        let by_pairs = |qubit: QubitId| Some(ModuleId(qubit.index() / 2));
        let mut weights = SwapWeights::default();
        let target = |weights: &mut SwapWeights, k, t| {
            weights.swap_target(&dag, k, t, q(0), ModuleId(0), by_pairs)
        };
        assert_eq!(target(&mut weights, 8, 3), Some(ModuleId(1)));
        assert_eq!(target(&mut weights, 8, 4), None, "T is a strict bound");
        // Within 6 gates module 1 has 3 and module 2 has 3 as well.
        assert_eq!(target(&mut weights, 6, 2), Some(ModuleId(1)));
        // Any window gate towards home vetoes the swap.
        let mut home = Circuit::new(6);
        home.cx(0, 2).cx(0, 2).cx(0, 2).cx(0, 1);
        let dag = DependencyDag::from_circuit(&home);
        assert_eq!(
            weights.swap_target(&dag, 8, 1, q(0), ModuleId(0), by_pairs),
            None
        );
        assert_eq!(
            weights.swap_target(&dag, 3, 1, q(0), ModuleId(0), by_pairs),
            Some(ModuleId(1)),
            "the home gate lies outside a 3-layer window"
        );
    }

    #[test]
    fn the_probe_free_bound_settles_queries_without_walking() {
        // q0's gates all go to module 1 but only twice: with T = 4 the bound
        // over the next 8 gates rules the swap out without a window walk.
        let mut c = Circuit::new(4);
        c.cx(0, 2).cx(0, 3);
        let dag = DependencyDag::from_circuit(&c);
        let mut weights = SwapWeights::default();
        assert_eq!(
            weights.swap_target(&dag, 8, 4, q(0), ModuleId(0), module_of),
            None
        );
        assert!(weights.is_idle_on(&dag, 8, q(0), ModuleId(0), module_of));
        assert_eq!(weights.walks(), 0);
        // A partner on the module asked about needs the exact walk.
        assert!(!weights.is_idle_on(&dag, 8, q(0), ModuleId(1), module_of));
        assert_eq!(weights.walks(), 1);
    }

    #[test]
    fn on_demand_weights_track_retirements_like_a_recompute() {
        let mut c = Circuit::new(6);
        c.cx(0, 2)
            .cx(2, 4)
            .cx(1, 3)
            .cx(0, 2)
            .cx(3, 5)
            .cx(4, 0)
            .cx(1, 5)
            .cx(0, 4)
            .cx(0, 4);
        let mut dag = DependencyDag::from_circuit(&c);
        let module = |qubit: QubitId| Some(ModuleId(qubit.index() % 3));
        let mut weights = SwapWeights::default();
        for k in [1, 2, 8] {
            for threshold in [0, 1, 4] {
                dag.reset();
                loop {
                    assert_eq!(
                        on_demand_decisions(&mut weights, &dag, k, threshold, 3, module),
                        oracle_decisions(&dag, k, threshold, 3, module),
                        "k = {k}, T = {threshold}, {} gates left",
                        dag.remaining()
                    );
                    let Some(node) = dag.front_gate() else { break };
                    dag.mark_executed(node);
                }
            }
        }
    }

    #[test]
    fn on_demand_weights_follow_a_module_change_like_a_recompute() {
        let mut c = Circuit::new(6);
        c.cx(0, 2).cx(0, 3).cx(0, 2).cx(1, 2).cx(4, 5);
        let dag = DependencyDag::from_circuit(&c);
        // q0..q2 on module 0/0/1 initially; q3+ on module 1.
        let mut modules = [0usize, 0, 1, 1, 1, 1];
        let mut weights = SwapWeights::default();
        for step in 0..2 {
            let module_of = |qubit: QubitId| Some(ModuleId(modules[qubit.index()]));
            assert_eq!(
                on_demand_decisions(&mut weights, &dag, 8, 0, 2, module_of),
                oracle_decisions(&dag, 8, 0, 2, module_of),
                "step {step}"
            );
            // Move q2 from module 1 to module 0 (the swap_logical pattern):
            // the next query reads the new placement, nothing to repair.
            modules[2] = 0;
        }
    }
}
