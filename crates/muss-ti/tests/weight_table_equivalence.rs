//! Incremental-vs-recompute equivalence for the Section 3.3 weight table.
//!
//! The scheduler maintains its `WeightTable` incrementally — window churn via
//! `WeightTable::sync` (the DAG's entered/left record) and placement churn
//! via `WeightTable::apply_module_change` at `swap_logical` sites — with the
//! original rebuild-from-window `recompute` retained as the executable
//! specification. This suite drives arbitrary interleavings of gate
//! retirement, intra-module shuttles and cross-module logical swaps against
//! a real `PlacementState` and pins the incremental table **exactly** equal
//! to a fresh recompute at every synchronisation point. (Cross-module
//! *shuttles* do not exist in this machine model — `PlacementState::shuttle`
//! asserts same-module transport — which is precisely why `swap_logical` is
//! the only placement-churn hook the table needs.)

use eml_qccd::{DeviceConfig, EmlQccdDevice, ModuleId};
use ion_circuit::{generators, DependencyDag, QubitId};
use muss_ti::{PlacementState, WeightTable};
use proptest::prelude::*;

const K: usize = 8;

/// Places `num_qubits` ions round-robin across every zone with free space.
fn spread_placement(device: &EmlQccdDevice, num_qubits: usize) -> PlacementState {
    let mut state = PlacementState::new(device);
    let zones = device.zones();
    let mut zone_cursor = 0usize;
    for q in 0..num_qubits {
        // Find the next zone with a free slot (capacity is ample by
        // construction: the device is sized for the qubit count).
        let mut tries = 0;
        loop {
            let zone = &zones[zone_cursor % zones.len()];
            zone_cursor += 1;
            tries += 1;
            assert!(tries <= zones.len(), "device too small for the test");
            if state.free_slots(device, zone.id) > 0 {
                state.place(device, QubitId::new(q), zone.id);
                break;
            }
        }
    }
    state
}

/// Asserts the incremental table equals a fresh recompute entry for entry.
fn assert_matches_recompute(
    label: &str,
    table: &WeightTable,
    dag: &DependencyDag,
    device: &EmlQccdDevice,
    state: &PlacementState,
    num_qubits: usize,
) {
    let fresh = WeightTable::compute(dag, K, device.num_modules(), |q| state.module_of(device, q));
    assert_eq!(table.len(), fresh.len(), "{label}: non-zero entry counts");
    for q in 0..num_qubits {
        for m in 0..device.num_modules() {
            assert_eq!(
                table.weight(QubitId::new(q), ModuleId(m)),
                fresh.weight(QubitId::new(q), ModuleId(m)),
                "{label}: W(q{q}, m{m})"
            );
        }
    }
}

/// One random interleaving: retire / shuttle / swap / sync-and-check.
fn drive_interleaving(num_qubits: usize, gates: usize, seed: u64, actions: &[usize]) {
    let circuit = generators::random_circuit(num_qubits, gates, seed);
    let device = DeviceConfig::for_qubits(num_qubits).build();
    let mut dag = DependencyDag::from_circuit(&circuit);
    let mut state = spread_placement(&device, num_qubits);
    let mut table = WeightTable::default();
    let module_count = device.num_modules();
    assert!(module_count >= 2, "the swap action needs two modules");

    table.sync(&dag, K, module_count, |q| state.module_of(&device, q));
    for (step, &action) in actions.iter().enumerate() {
        match action % 4 {
            // Retire the oldest ready gate; poke a window query so deltas
            // accumulate across queries the consumer never observed.
            0 | 1 => {
                if let Some(node) = dag.front_gate() {
                    dag.mark_executed(node);
                    let _ = dag.next_use_depth(K, QubitId::new(step % num_qubits));
                }
            }
            // Intra-module shuttle: moves an ion between zones of its module
            // — invisible to the module-granular weight table by design.
            2 => {
                let q = QubitId::new((step * 7) % num_qubits);
                let module = state.module_of(&device, q).unwrap();
                let from = state.zone_of(q).unwrap();
                if let Some(&to) = state
                    .zones_with_space(&device, module, None)
                    .iter()
                    .find(|&&z| z != from)
                {
                    let _ = state.shuttle(&device, q, to);
                }
            }
            // Cross-module logical swap: the placement-churn delta source.
            // The table must be synced at the swap site (the scheduler's
            // discipline), then patched for both moved qubits.
            _ => {
                let a = QubitId::new((step * 3) % num_qubits);
                let b = QubitId::new((step * 5 + 1) % num_qubits);
                let ma = state.module_of(&device, a).unwrap();
                let mb = state.module_of(&device, b).unwrap();
                if ma != mb {
                    table.sync(&dag, K, module_count, |q| state.module_of(&device, q));
                    state.swap_logical(a, b);
                    table.apply_module_change(&dag, K, a, ma, mb);
                    table.apply_module_change(&dag, K, b, mb, ma);
                }
            }
        }
        // Re-synchronise and compare at irregular intervals (and always at
        // the end) so some checks see batched multi-refresh deltas.
        if step % 5 == 4 || step + 1 == actions.len() {
            table.sync(&dag, K, module_count, |q| state.module_of(&device, q));
            assert_matches_recompute(
                &format!("step {step} of random({num_qubits},{gates},{seed})"),
                &table,
                &dag,
                &device,
                &state,
                num_qubits,
            );
        }
    }
}

#[test]
fn incremental_table_survives_a_full_drain_with_swaps() {
    // Deterministic smoke: every action class, all the way to an empty DAG.
    let actions: Vec<usize> = (0..200usize).map(|i| i % 4).collect();
    drive_interleaving(48, 160, 11, &actions);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary interleavings of retirement, shuttles and logical swaps:
    /// the incremental table is exactly a fresh recompute at every sync.
    #[test]
    fn incremental_matches_recompute_under_random_interleavings(
        ((qubits, gates, seed), actions) in (
            (40..96usize, 30..240usize, 0..512u64),
            proptest::collection::vec(0..4usize, 10..120),
        )
    ) {
        drive_interleaving(qubits, gates, seed, &actions);
    }
}
