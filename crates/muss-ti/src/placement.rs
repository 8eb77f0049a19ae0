//! MUSS-TI's side of the placement state: the ion chains themselves live in
//! [`eml_qccd::ChainStore`], shared with the grid baselines; what is
//! MUSS-TI's own is how an ion moves between them. A shuttle is one
//! intra-module hop, and it never crosses modules.

// lint: hot-path

use eml_qccd::{ChainStore, EmlQccdDevice, OpSink, ScheduledOp, ZoneId};
use ion_circuit::QubitId;

/// Shuttles `qubit` to `to`, a zone of its own module with a free slot: the
/// chain rearrangements that bring it to its chain's nearest edge, then one
/// intra-module shuttle.
///
/// Modules exchange qubits only through [`ChainStore::swap_logical`] (an
/// inserted SWAP over the fiber link), never by transport; the assert below
/// enforces it.
///
/// # Panics
///
/// Panics if the qubit is unplaced or already in `to`, if `to` is full, or
/// if the move crosses modules.
pub fn shuttle<S: OpSink>(
    device: &EmlQccdDevice,
    state: &mut ChainStore<ZoneId>,
    qubit: QubitId,
    to: ZoneId,
    ops: &mut S,
) {
    let from = state.transfer(qubit, to, device.zone(to).capacity, ops);
    assert_eq!(
        device.zone(from).module,
        device.zone(to).module,
        "ions never shuttle between modules"
    );
    ops.push_op(ScheduledOp::Shuttle {
        qubit,
        from_zone: from.index(),
        to_zone: to.index(),
        distance_um: device.intra_module_distance_um(from, to),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use eml_qccd::{DeviceConfig, ModuleId};

    fn device() -> EmlQccdDevice {
        DeviceConfig::default()
            .with_modules(2)
            .with_trap_capacity(4)
            .build()
    }

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    fn placed(d: &EmlQccdDevice, mapping: &[(QubitId, ZoneId)]) -> ChainStore<ZoneId> {
        let mut s = ChainStore::new(d.num_zones());
        s.reset(mapping, |z| d.zone(z).capacity);
        s
    }

    fn shuttled(
        d: &EmlQccdDevice,
        s: &mut ChainStore<ZoneId>,
        qubit: QubitId,
        to: ZoneId,
    ) -> Vec<ScheduledOp> {
        let mut ops = Vec::new();
        shuttle(d, s, qubit, to, &mut ops);
        ops
    }

    #[test]
    fn shuttle_within_module_updates_state_and_emits_one_shuttle() {
        let d = device();
        let zones = d.zones_in_module(ModuleId(0));
        let (optical, storage) = (zones[0].id, zones[2].id);
        let mut s = placed(&d, &[(q(0), storage)]);
        let ops = shuttled(&d, &mut s, q(0), optical);
        assert_eq!(
            ops,
            [ScheduledOp::Shuttle {
                qubit: q(0),
                from_zone: storage.index(),
                to_zone: optical.index(),
                distance_um: d.intra_module_distance_um(storage, optical),
            }]
        );
        assert_eq!(s.location_of(q(0)), Some(optical));
        assert_eq!(s.occupancy(storage), 0);
    }

    #[test]
    fn shuttle_from_chain_middle_emits_rearrangements() {
        let d = device();
        let zones = d.zones_in_module(ModuleId(0));
        let (operation, storage) = (zones[1].id, zones[2].id);
        let mapping: Vec<_> = (0..4).map(|i| (q(i), storage)).collect();
        let mut s = placed(&d, &mapping);
        // q1 sits at index 1 of a 4-ion chain: one rearrangement to reach the edge.
        let ops = shuttled(&d, &mut s, q(1), operation);
        assert_eq!(ops.len(), 2);
        assert_eq!(
            ops[0],
            ScheduledOp::ChainRearrange {
                zone: storage.index()
            }
        );
        assert!(ops[1].is_shuttle());
    }

    #[test]
    fn edge_ions_shuttle_without_rearrangement() {
        let d = device();
        let zones = d.zones_in_module(ModuleId(0));
        let mapping: Vec<_> = (0..3).map(|i| (q(i), zones[2].id)).collect();
        let mut s = placed(&d, &mapping);
        assert_eq!(shuttled(&d, &mut s, q(2), zones[1].id).len(), 1);
        assert_eq!(shuttled(&d, &mut s, q(0), zones[1].id).len(), 1);
    }

    #[test]
    #[should_panic(expected = "destination")]
    fn shuttling_into_a_full_zone_panics() {
        let d = device();
        let zones = d.zones_in_module(ModuleId(0));
        let mut mapping: Vec<_> = (0..4).map(|i| (q(i), zones[0].id)).collect();
        mapping.push((q(4), zones[1].id));
        let mut s = placed(&d, &mapping);
        shuttled(&d, &mut s, q(4), zones[0].id);
    }

    #[test]
    #[should_panic(expected = "between modules")]
    fn shuttling_across_modules_panics() {
        let d = device();
        let m0 = d.zones_in_module(ModuleId(0))[0].id;
        let m1 = d.zones_in_module(ModuleId(1))[0].id;
        let mut s = placed(&d, &[(q(0), m0)]);
        shuttled(&d, &mut s, q(0), m1);
    }

    #[test]
    fn shuttle_into_appends_to_an_existing_buffer() {
        let d = device();
        let zones = d.zones_in_module(ModuleId(0));
        let mut s = placed(&d, &[(q(0), zones[2].id)]);
        let mut ops = vec![ScheduledOp::ChainRearrange { zone: 99 }];
        shuttle(&d, &mut s, q(0), zones[0].id, &mut ops);
        assert_eq!(ops.len(), 2, "appended after the existing entry");
        assert!(ops[1].is_shuttle());
    }
}
