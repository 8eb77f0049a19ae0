//! On-demand-vs-oracle equivalence for the Section 3.3 SWAP-insertion
//! weights.
//!
//! The scheduler answers `W(q, ·)` on demand with `SwapWeights`: a
//! probe-free bound over the qubit's next `k` gates, then an exact walk of
//! its window gates. The rebuild of the whole weight table from the naive
//! DAG's window (`fuzz::weights::WeightTable`) is the executable
//! specification. The interleaving suites run scripts of gate retirement,
//! intra-module shuttles and cross-module logical swaps against a real
//! placement (`ChainStore` moved by MUSS-TI's shuttle) through the one
//! harness, `fuzz::weights::drive_interleaving`, which pins every swap
//! decision — each qubit's swap target and its `W(q, m) = 0` verdict per
//! module — to the oracle's at irregular check points.

use eml_qccd::ModuleId;
use fuzz::weights::{check_swap_weights, drive_interleaving, KS, THRESHOLDS};
use ion_circuit::{Circuit, DependencyDag, QubitId};
use muss_ti::SwapWeights;
use proptest::prelude::*;

#[test]
fn on_demand_weights_survive_a_full_drain_with_swaps() {
    // Deterministic smoke: every action class, all the way to an empty DAG.
    let actions = (0..200usize).map(|i| (i % 4, 13 * i, 5 * i + 1));
    drive_interleaving(48, 160, 11, actions).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary interleavings of retirement, shuttles and logical swaps:
    /// every on-demand decision equals the oracle's at every check point.
    #[test]
    fn on_demand_matches_recompute_under_random_interleavings(
        ((qubits, gates, seed), actions) in (
            (40..96usize, 30..240usize, 0..512u64),
            proptest::collection::vec((0..4usize, 0..1024usize, 0..1024usize), 10..120),
        )
    ) {
        drive_interleaving(qubits, gates, seed, actions).unwrap();
    }
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
    for k in KS {
        for threshold in THRESHOLDS {
            dag.reset();
            loop {
                if let Err(e) = check_swap_weights(&mut weights, &dag, k, threshold, 3, module) {
                    panic!("{e} with {} gates left", dag.remaining());
                }
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
        if let Err(e) = check_swap_weights(&mut weights, &dag, 8, 0, 2, module_of) {
            panic!("{e} at step {step}");
        }
        // Move q2 from module 1 to module 0 (the swap_logical pattern):
        // the next query reads the new placement, nothing to repair.
        modules[2] = 0;
    }
}
