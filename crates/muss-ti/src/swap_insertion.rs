//! The SWAP-insertion weight table (Section 3.3 of the paper).

// lint: hot-path

use eml_qccd::ModuleId;
use ion_circuit::{DagNodeId, DependencyDag, QubitId, WindowSync};

/// The weight table `W(qᵢ, cⱼ)`: the number of gates within the first `k`
/// layers of the remaining dependency DAG that involve qubit `qᵢ` together
/// with a qubit currently located on QCCD module `cⱼ`.
///
/// The table is consulted after each fiber (remote) gate; it is what decides
/// whether a logical qubit should be swapped onto another module because its
/// near-future work lives there.
///
/// # Performance
///
/// Storage is a flat `Vec<usize>` indexed by `qubit * num_modules + module`
/// (no hashing on the hot path); [`weight`](WeightTable::weight) is `O(1)`
/// and [`len`](WeightTable::len) / [`is_empty`](WeightTable::is_empty) read a
/// maintained non-zero-entry counter in `O(1)`.
///
/// On the scheduler's hot path the table is **incrementally maintained**
/// rather than rebuilt per fiber gate, from two exact delta sources:
///
/// * **window churn** — [`sync`](WeightTable::sync) subscribes to the DAG's
///   entered/left window record
///   ([`DependencyDag::sync_window_delta`]) and applies ±1 bumps for just
///   the gates that crossed the window boundary since the previous fiber
///   gate (`O(Δ)` amortised, `O(window)` only when the delta chain breaks —
///   the pass's first fiber gate, a DAG reset, or a `k` change);
/// * **placement churn** —
///   [`apply_module_change`](WeightTable::apply_module_change) re-attributes
///   one qubit's window partners from its old module column to the new one
///   (via [`DependencyDag::for_each_window_partner`], a walk over the
///   qubit's own next gates) when an inserted SWAP moves it; intra-module
///   shuttles never touch the table.
///
/// [`recompute`](WeightTable::recompute) — the original rebuild-from-window
/// pass — is retained as the executable specification: the equivalence suite
/// (`crates/muss-ti/tests/weight_table_equivalence.rs`) pins the incremental
/// path against it under arbitrary interleavings of gate retirement and
/// cross-module moves.
#[derive(Debug, Clone, Default)]
pub struct WeightTable {
    /// `weights[qubit * num_modules + module]`.
    weights: Vec<usize>,
    num_modules: usize,
    /// Number of non-zero entries, maintained at build time.
    nonzero: usize,
    /// Window epoch of the last [`WeightTable::sync`] (0 = not tracking a
    /// window; the next sync rebuilds).
    synced_epoch: u64,
}

impl WeightTable {
    /// Builds the table over the first `k` layers of `dag`'s remaining gates.
    ///
    /// `module_of` maps a logical qubit to the module currently holding it;
    /// qubits that are somehow unplaced are skipped (they cannot attract or
    /// contribute weight).
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

    /// [`WeightTable::compute`] in place: rebuilds the table reusing the flat
    /// weight array, so a rebuild is allocation-free once the table has
    /// grown to the circuit's `qubits × modules` footprint. This is the
    /// reference oracle and the fallback [`sync`](WeightTable::sync) takes
    /// when the delta chain breaks (once per pass, not per fiber gate).
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
        self.synced_epoch = 0;
        dag.for_each_window_gate(lookahead_k, |_, node| {
            self.apply_gate(dag, node, true, &module_of);
        });
    }

    /// Incrementally synchronises the table with `dag`'s current `k`-layer
    /// window under the placement described by `module_of`, by applying ±1
    /// bumps for just the gates that entered or left the window since the
    /// previous sync (`O(Δ)`). Falls back to a full
    /// [`recompute`](WeightTable::recompute) when the DAG cannot supply an
    /// exact delta — the first sync of a pass, after a DAG reset, or when the
    /// table's geometry (qubits × modules) changed.
    ///
    /// Exactness contract: between two syncs the placement consulted through
    /// `module_of` must not have changed, except through
    /// [`apply_module_change`](WeightTable::apply_module_change) calls made
    /// while the table was synced (the scheduler's `swap_logical` sites).
    /// Under that discipline the table is bit-identical to a fresh
    /// `recompute` at every sync point.
    pub fn sync(
        &mut self,
        dag: &DependencyDag,
        lookahead_k: usize,
        num_modules: usize,
        module_of: impl Fn(QubitId) -> Option<ModuleId>,
    ) {
        // A table whose flat geometry no longer matches cannot patch itself;
        // pretend we never synced so the DAG hands back a rebuild.
        let geometry_ok =
            self.num_modules == num_modules && self.weights.len() == dag.num_qubits() * num_modules;
        let epoch = if geometry_ok { self.synced_epoch } else { 0 };
        let sync = dag.sync_window_delta(lookahead_k, epoch, |node, entered| {
            self.apply_gate(dag, node, entered, &module_of);
        });
        match sync {
            WindowSync::Delta(epoch) => self.synced_epoch = epoch,
            WindowSync::Rebuild(epoch) => {
                self.recompute(dag, lookahead_k, num_modules, module_of);
                self.synced_epoch = epoch;
            }
        }
    }

    /// Applies (or reverts) one window gate's weight contribution: each
    /// operand gains (loses) one unit towards its partner's current module.
    fn apply_gate(
        &mut self,
        dag: &DependencyDag,
        node: DagNodeId,
        entered: bool,
        module_of: &impl Fn(QubitId) -> Option<ModuleId>,
    ) {
        let (a, b) = dag.operands(node);
        if let Some(module_b) = module_of(b) {
            if entered {
                self.bump(a, module_b);
            } else {
                self.debump(a, module_b);
            }
        }
        if let Some(module_a) = module_of(a) {
            if entered {
                self.bump(b, module_a);
            } else {
                self.debump(b, module_a);
            }
        }
    }

    /// Re-attributes the weight `qubit`'s window partners carry towards it
    /// after `qubit` moved from `old_module` to `new_module` (the
    /// placement-churn delta source): every window gate `(qubit, x)`
    /// contributes one unit of `W(x, module(qubit))`, so each partner `x`
    /// loses one unit towards `old_module` and gains one towards
    /// `new_module`. `W(qubit, ·)` itself is untouched — it counts the
    /// partners' modules, and the partners did not move.
    ///
    /// Must be called while the table is [`sync`](WeightTable::sync)ed to
    /// `dag`'s current window (the scheduler calls it right after
    /// `swap_logical`, with no gate retirement in between).
    pub fn apply_module_change(
        &mut self,
        dag: &DependencyDag,
        lookahead_k: usize,
        qubit: QubitId,
        old_module: ModuleId,
        new_module: ModuleId,
    ) {
        if old_module == new_module {
            return;
        }
        dag.for_each_window_partner(lookahead_k, qubit, |partner| {
            self.debump(partner, old_module);
            self.bump(partner, new_module);
        });
    }

    /// The flat-array slot of `(q, module)`, or `None` when the pair lies
    /// outside the table — the **single** range guard behind every read and
    /// write: an unchecked out-of-range module would alias into another
    /// qubit's row of the flat layout, and a guard that dropped writes while
    /// reads pretended the slot were zero could leave the table silently
    /// lopsided.
    fn checked_slot(&self, q: QubitId, module: ModuleId) -> Option<usize> {
        if module.index() >= self.num_modules {
            return None;
        }
        let slot = q.index() * self.num_modules + module.index();
        (slot < self.weights.len()).then_some(slot)
    }

    fn bump(&mut self, q: QubitId, module: ModuleId) {
        let Some(slot) = self.checked_slot(q, module) else {
            // Out-of-table pairs carry no weight: the bump is a no-op, and
            // `weight` reads the same slot as zero — one consistent story
            // instead of a write-side drop that disagrees with the read side.
            return;
        };
        let w = &mut self.weights[slot];
        if *w == 0 {
            self.nonzero += 1;
        }
        *w += 1;
    }

    fn debump(&mut self, q: QubitId, module: ModuleId) {
        let Some(slot) = self.checked_slot(q, module) else {
            return;
        };
        let w = &mut self.weights[slot];
        debug_assert!(*w > 0, "debump of a zero weight ({q} towards {module})");
        if *w == 0 {
            return;
        }
        *w -= 1;
        if *w == 0 {
            self.nonzero -= 1;
        }
    }

    /// `W(q, module)` (`O(1)` flat-array read; out-of-table pairs read zero).
    pub fn weight(&self, q: QubitId, module: ModuleId) -> usize {
        self.checked_slot(q, module)
            .map(|slot| self.weights[slot])
            .unwrap_or(0)
    }

    /// The remote module (≠ `home`) with the largest weight for `q`, provided
    /// that weight strictly exceeds `threshold`. Scans the table's own module
    /// axis, so it can neither skip candidate modules nor scan dead columns.
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

    /// Empties the table while keeping the flat array's allocation (the
    /// compile-context reset path; [`WeightTable::recompute`] re-sizes it).
    pub fn clear(&mut self) {
        self.weights.clear();
        self.num_modules = 0;
        self.nonzero = 0;
        self.synced_epoch = 0;
    }

    /// Number of non-zero entries (`O(1)`, maintained counter).
    pub fn len(&self) -> usize {
        self.nonzero
    }

    /// `true` if the table has no non-zero entry (`O(1)`).
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
        // The symmetric debump path is guarded identically.
        table.debump(q(0), ModuleId(2));
        assert_eq!(table.weight(q(1), ModuleId(0)), aliased_row);
        assert_eq!(table.len(), before_len);
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

    #[test]
    fn sync_tracks_retirements_like_a_recompute() {
        let mut c = Circuit::new(6);
        c.cx(0, 2)
            .cx(2, 4)
            .cx(1, 3)
            .cx(0, 2)
            .cx(3, 5)
            .cx(4, 0)
            .cx(1, 5);
        let mut dag = DependencyDag::from_circuit(&c);
        let module = |qubit: QubitId| Some(ModuleId(qubit.index() % 3));
        let k = 2;
        let mut incremental = WeightTable::default();
        incremental.sync(&dag, k, 3, module);
        loop {
            let fresh = WeightTable::compute(&dag, k, 3, module);
            assert_eq!(incremental.len(), fresh.len());
            for qi in 0..6 {
                for m in 0..3 {
                    assert_eq!(
                        incremental.weight(q(qi), ModuleId(m)),
                        fresh.weight(q(qi), ModuleId(m)),
                        "q{qi}/m{m}"
                    );
                }
            }
            let Some(node) = dag.front_gate() else { break };
            dag.mark_executed(node);
            incremental.sync(&dag, k, 3, module);
        }
        assert!(incremental.is_empty());
    }

    #[test]
    fn apply_module_change_matches_a_recompute_under_the_new_placement() {
        let mut c = Circuit::new(6);
        c.cx(0, 2).cx(0, 3).cx(0, 2).cx(1, 2).cx(4, 5);
        let dag = DependencyDag::from_circuit(&c);
        // q0..q2 on module 0/0/1 initially; q3+ on module 1.
        let mut modules = [0usize, 0, 1, 1, 1, 1];
        let mut table = WeightTable::default();
        table.sync(&dag, 8, 2, |qubit| Some(ModuleId(modules[qubit.index()])));
        // Move q2 from module 1 to module 0 (the swap_logical pattern).
        table.apply_module_change(&dag, 8, q(2), ModuleId(1), ModuleId(0));
        modules[2] = 0;
        let fresh =
            WeightTable::compute(&dag, 8, 2, |qubit| Some(ModuleId(modules[qubit.index()])));
        assert_eq!(table.len(), fresh.len());
        for qi in 0..6 {
            for m in 0..2 {
                assert_eq!(
                    table.weight(q(qi), ModuleId(m)),
                    fresh.weight(q(qi), ModuleId(m)),
                    "q{qi}/m{m}"
                );
            }
        }
        // A no-op move leaves the table untouched.
        table.apply_module_change(&dag, 8, q(2), ModuleId(0), ModuleId(0));
        assert_eq!(table.len(), fresh.len());
    }

    #[test]
    fn sync_rebuilds_after_dag_reset_and_geometry_change() {
        let mut c = Circuit::new(4);
        c.cx(0, 2).cx(1, 3).cx(0, 2);
        let mut dag = DependencyDag::from_circuit(&c);
        let mut table = WeightTable::default();
        table.sync(&dag, 8, 2, module_of);
        dag.mark_executed(dag.front_gate().unwrap());
        dag.reset();
        // After a reset the delta chain is broken: sync must land on exactly
        // the fresh-table answer, not a stale patch.
        table.sync(&dag, 8, 2, module_of);
        let fresh = WeightTable::compute(&dag, 8, 2, module_of);
        assert_eq!(table.len(), fresh.len());
        assert_eq!(
            table.weight(q(0), ModuleId(1)),
            fresh.weight(q(0), ModuleId(1))
        );
        // Growing the module axis forces a rebuild too.
        table.sync(&dag, 8, 3, |qubit| Some(ModuleId(qubit.index() % 3)));
        let fresh3 = WeightTable::compute(&dag, 8, 3, |qubit| Some(ModuleId(qubit.index() % 3)));
        assert_eq!(table.len(), fresh3.len());
        for qi in 0..4 {
            for m in 0..3 {
                assert_eq!(
                    table.weight(q(qi), ModuleId(m)),
                    fresh3.weight(q(qi), ModuleId(m))
                );
            }
        }
    }
}
