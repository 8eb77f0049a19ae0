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
/// The original rebuild of the whole table from the full window is the
/// test oracle, `fuzz::weights::WeightTable`.
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
}
