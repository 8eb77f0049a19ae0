//! On-demand-vs-oracle equivalence for the Section 3.3 SWAP-insertion
//! weights.
//!
//! The scheduler answers `W(q, ·)` on demand with `SwapWeights`: a
//! probe-free bound over the qubit's next `k` gates, then an exact walk of
//! its window gates. The original rebuild of the whole weight table from the
//! full window (`WeightTable::compute`) is the executable specification.
//! This suite drives arbitrary interleavings of gate retirement,
//! intra-module shuttles and cross-module logical swaps against a real
//! placement (`ChainStore` moved by MUSS-TI's shuttle), and pins every swap decision — each qubit's swap
//! target and its `W(q, m) = 0` verdict per module — to the oracle's at
//! irregular check points.

use eml_qccd::{ChainStore, DeviceConfig, EmlQccdDevice, ModuleId, ZoneId};
use ion_circuit::{generators, DependencyDag, QubitId};
use muss_ti::test_support::{check_swap_weights, shuttle};
use muss_ti::SwapWeights;
use proptest::prelude::*;

const K: usize = 8;

/// Window depths checked at every check point: at `k = 1` and `k = 2` a
/// qubit's window often spans all of its next `k` gates, the case where the
/// probe-free bound and the exact walk see the same gates.
const KS: [usize; 3] = [1, 2, K];

/// Swap thresholds checked at every check point: eager, small and the
/// paper's default.
const THRESHOLDS: [usize; 3] = [0, 1, 4];

/// Places `num_qubits` ions round-robin across every zone with free space.
fn spread_placement(device: &EmlQccdDevice, num_qubits: usize) -> ChainStore<ZoneId> {
    let mut state = ChainStore::new(device.num_zones());
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
            if state.occupancy(zone.id) < zone.capacity {
                state.place(QubitId::new(q), zone.id);
                break;
            }
        }
    }
    state
}

fn module_of(device: &EmlQccdDevice, state: &ChainStore<ZoneId>, q: QubitId) -> Option<ModuleId> {
    state.location_of(q).map(|z| device.zone(z).module)
}

/// One random interleaving: retire / shuttle / swap / check.
fn drive_interleaving(num_qubits: usize, gates: usize, seed: u64, actions: &[usize]) {
    let circuit = generators::random_circuit(num_qubits, gates, seed);
    let device = DeviceConfig::for_qubits(num_qubits).build();
    let mut dag = DependencyDag::from_circuit(&circuit);
    let mut state = spread_placement(&device, num_qubits);
    let mut weights = SwapWeights::default();
    assert!(
        device.num_modules() >= 2,
        "the swap action needs two modules"
    );

    for (step, &action) in actions.iter().enumerate() {
        match action % 4 {
            // Retire a ready gate picked by the step, so retire orders vary;
            // poke a window query so the probe's memo is warm across
            // retirements.
            0 | 1 => {
                let front = dag.front_layer();
                if !front.is_empty() {
                    let node = front[(step * 13 + action) % front.len()];
                    dag.mark_executed(node);
                    let _ = dag.next_use_depth(K, QubitId::new(step % num_qubits));
                }
            }
            // Intra-module shuttle: moves an ion between zones of its module
            // — invisible to the module-granular weights by design.
            2 => {
                let q = QubitId::new((step * 7) % num_qubits);
                let from = state.location_of(q).unwrap();
                // The highest-level other zone of the module with space.
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
                let a = QubitId::new((step * 3) % num_qubits);
                let b = QubitId::new((step * 5 + 1) % num_qubits);
                if module_of(&device, &state, a) != module_of(&device, &state, b) {
                    state.swap_logical(a, b);
                }
            }
        }
        // Compare at irregular intervals (and always at the end) so some
        // checks see several retirements and moves at once.
        if step % 5 == 4 || step + 1 == actions.len() {
            for k in KS {
                for threshold in THRESHOLDS {
                    if let Err(e) =
                        check_swap_weights(&mut weights, &dag, k, threshold, &device, &state)
                    {
                        panic!("step {step} of random({num_qubits},{gates},{seed}): {e}");
                    }
                }
            }
        }
    }
}

#[test]
fn on_demand_weights_survive_a_full_drain_with_swaps() {
    // Deterministic smoke: every action class, all the way to an empty DAG.
    let actions: Vec<usize> = (0..200usize).map(|i| i % 4).collect();
    drive_interleaving(48, 160, 11, &actions);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary interleavings of retirement, shuttles and logical swaps:
    /// every on-demand decision equals the oracle's at every check point.
    #[test]
    fn on_demand_matches_recompute_under_random_interleavings(
        ((qubits, gates, seed), actions) in (
            (40..96usize, 30..240usize, 0..512u64),
            proptest::collection::vec(0..4usize, 10..120),
        )
    ) {
        drive_interleaving(qubits, gates, seed, &actions);
    }
}
