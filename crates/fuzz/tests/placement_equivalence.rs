//! Equivalence suite: the flat [`ChainStore`] must answer every query
//! identically to the HashMap-backed reference ([`NaivePlacement`]) after
//! every step of arbitrary place/touch/transfer/swap scripts, for both
//! kinds of transfer: MUSS-TI's one-hop shuttle over EML-QCCD zones and the
//! grid baselines' multi-hop transport over QCCD traps, each through the
//! compiler's own transfer function. The moved-qubit log is checked against
//! the qubits each step moved. Every script runs through the one harness,
//! `fuzz::placement::drive`.

use proptest::prelude::*;

use eml_qccd::{ChainStore, DeviceConfig, EmlQccdDevice, GridConfig, TrapId};
use fuzz::placement::{check_states, drive, qubit, Chains, NaivePlacement};
use fuzz::RawAction;
use ion_circuit::QubitId;

fn eml(modules: usize, capacity: usize) -> EmlQccdDevice {
    DeviceConfig::default()
        .with_modules(modules)
        .with_trap_capacity(capacity)
        .build()
}

/// Strategy: device shape plus a raw action script.
fn scenario() -> impl Strategy<Value = ((usize, usize, usize), Vec<RawAction>)> {
    (
        (1..4usize, 1..4usize, 2..6usize),
        prop::collection::vec((0..5usize, 0..64usize, 0..64usize), 1..200),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_placement_matches_naive_reference(((modules, _, capacity), actions) in scenario()) {
        let device = eml(modules, capacity);
        // Enough qubits to overfill zones but not the device.
        let num_qubits = device.total_capacity().min(3 * capacity);
        drive(&device, num_qubits, actions).unwrap();
    }

    #[test]
    fn multi_hop_transports_match_naive_reference(((rows, cols, capacity), actions) in scenario()) {
        let device = GridConfig::new(rows, cols, capacity).build();
        let num_qubits = device.total_capacity().min(3 * capacity);
        drive(&device, num_qubits, actions).unwrap();
    }

    #[test]
    fn from_mapping_agrees_between_implementations((modules, capacity) in (1..4usize, 2..6usize)) {
        let device = eml(modules, capacity);
        // Fill round-robin across all zones up to half capacity each.
        let mut mapping = Vec::new();
        for zone in device.zones() {
            for _ in 0..zone.capacity / 2 {
                mapping.push((qubit(mapping.len()), zone.id));
            }
        }
        let mut flat = ChainStore::new(device.num_zones());
        // A used store resets to the same state as a fresh one.
        flat.reset(&mapping[..mapping.len() / 2], |z| device.zone(z).capacity);
        flat.touch(qubit(0), 9);
        flat.reset(&mapping, |z| device.zone(z).capacity);
        let naive = NaivePlacement::from_mapping(&mapping, |z| device.zone(z).capacity);
        check_states(&device, &flat, &naive, mapping.len()).unwrap();
        let mut sorted = mapping.clone();
        sorted.sort_by_key(|(q, _)| q.index());
        prop_assert_eq!(flat.mapping(), sorted);
    }
}

/// A fixed regression scenario exercising the mask-collision path of the
/// flat `lru_victim` (qubit indices ≥ 64 alias into the 64-bit mask), over
/// zones and over traps.
#[test]
fn lru_victim_mask_collisions_match_reference() {
    fn check<D: Chains>(device: &D, at: D::L) {
        let mut flat = ChainStore::new(device.locations().len());
        let mut naive = NaivePlacement::default();
        for i in [0usize, 64, 128, 1, 65] {
            let q = QubitId::new(i);
            flat.place(q, at);
            naive.place(q, at);
            flat.touch(q, (i % 7) as u64);
            naive.touch(q, (i % 7) as u64);
        }
        for protected in [
            vec![],
            vec![QubitId::new(0)],
            vec![QubitId::new(64)],
            vec![QubitId::new(64), QubitId::new(1)],
            vec![QubitId::new(0), QubitId::new(64), QubitId::new(128)],
            // Aliases of chain members that are not in the chain.
            vec![QubitId::new(192), QubitId::new(129)],
        ] {
            assert_eq!(
                flat.lru_victim(at, &protected),
                naive.lru_victim(at, &protected),
                "protected = {protected:?}"
            );
        }
    }
    let zones = eml(3, 8);
    check(&zones, zones.zones()[0].id);
    check(&GridConfig::new(2, 2, 8).build(), TrapId(3));
}
