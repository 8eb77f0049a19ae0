//! Initial-mapping strategies (Section 3.4 of the paper).

use eml_qccd::{CompileError, EmlQccdDevice, ModuleId, ZoneId, ZoneLevel};
use ion_circuit::{Circuit, DependencyDag, QubitId};

use crate::scheduler::{schedule_cost_only, SchedulerScratch};
use crate::{InitialMappingStrategy, MussTiOptions};

/// Maximum number of ions the mapper will load into one module.
///
/// This is the device's per-module cap, additionally reduced so that at least
/// one zone's worth of slots stays free in every module — the slack the LRU
/// conflict handler needs to always find an eviction target.
pub(crate) fn effective_module_capacity(device: &EmlQccdDevice, module: ModuleId) -> usize {
    let slots: usize = device
        .zones_in_module(module)
        .iter()
        .map(|z| z.capacity)
        .sum();
    let slack = device.config().trap_capacity();
    device
        .module_capacity(module)
        .min(slots.saturating_sub(slack))
}

/// Total number of logical qubits the device can accept under
/// [`effective_module_capacity`].
pub(crate) fn effective_device_capacity(device: &EmlQccdDevice) -> usize {
    device
        .modules()
        .iter()
        .map(|&m| effective_module_capacity(device, m))
        .sum()
}

/// The trivial mapping (Section 3.4, "Trivial Mapping"): consecutive logical
/// qubits are distributed block-wise across the modules (each module takes a
/// roughly equal share, preserving program locality), and within each module
/// the share is placed into zones ordered by level from highest (optical) to
/// lowest (storage), because higher-level zones offer more functionality.
///
/// # Errors
///
/// Returns [`CompileError::DeviceTooSmall`] if the device cannot hold
/// `num_qubits` ions under the effective per-module capacity.
pub(crate) fn trivial_mapping(
    device: &EmlQccdDevice,
    num_qubits: usize,
) -> Result<Vec<(QubitId, ZoneId)>, CompileError> {
    let capacity = effective_device_capacity(device);
    if num_qubits > capacity {
        return Err(CompileError::DeviceTooSmall {
            required: num_qubits,
            capacity,
        });
    }

    // Per-module quota: an even share of the qubits, bounded by the module's
    // effective capacity. Remainders are absorbed by later modules (which is
    // why the quota is recomputed from what is still unplaced).
    let mut mapping = Vec::with_capacity(num_qubits);
    let mut next_qubit = 0usize;
    let num_modules = device.num_modules();
    for (module_index, &module) in device.modules().iter().enumerate() {
        if next_qubit >= num_qubits {
            break;
        }
        let remaining_modules = num_modules - module_index;
        let remaining_qubits = num_qubits - next_qubit;
        let quota = remaining_qubits
            .div_ceil(remaining_modules)
            .min(effective_module_capacity(device, module));

        // Zones of this module, highest level first: the per-level slices of
        // the topology index already come back id-ordered, so walking the
        // levels from optical down replaces the old allocate-and-sort.
        let mut placed_in_module = 0usize;
        for level in [ZoneLevel::Optical, ZoneLevel::Operation, ZoneLevel::Storage] {
            for zone in device.zones_in_module_at_level(module, level) {
                let mut placed_in_zone = 0usize;
                while next_qubit < num_qubits
                    && placed_in_module < quota
                    && placed_in_zone < zone.capacity
                {
                    mapping.push((QubitId::new(next_qubit), zone.id));
                    next_qubit += 1;
                    placed_in_module += 1;
                    placed_in_zone += 1;
                }
            }
        }
    }
    if next_qubit < num_qubits {
        return Err(CompileError::DeviceTooSmall {
            required: num_qubits,
            capacity,
        });
    }
    Ok(mapping)
}

/// Computes the initial mapping for a compilation run, applying the SABRE
/// two-fold search when requested: schedule forward from the trivial mapping,
/// schedule the reversed circuit from the resulting final mapping, and use
/// that run's final mapping as the real starting point. The dry passes run
/// with SWAP insertion disabled so the resulting placement reflects transport
/// pressure only.
///
/// All three dry passes run in cost-only mode
/// ([`schedule_cost_only`](crate::scheduler::schedule_cost_only)): they
/// track shuttle counts, clocks and placement
/// through the shared [`SchedulerScratch`] but never materialise an op
/// stream. They also share **one** dependency DAG: the backward pass flips
/// the forward DAG's edges in place via [`DependencyDag::reset_reversed`]
/// (and flips them back for the probe), so a SABRE compile performs a single
/// structural DAG build — `dag` is built here at most once for `circuit` and
/// handed back to the caller still usable (after a
/// [`reset`](DependencyDag::reset)) for the final scheduling pass.
///
/// Returns the chosen mapping plus whether the probe early-exit fired
/// (always `false` for the trivial strategy), so the caller can surface the
/// skip in the bench's per-phase counters.
///
/// # Errors
///
/// Propagates capacity errors from [`trivial_mapping`] and scheduling errors
/// from the dry passes.
pub(crate) fn initial_mapping_in(
    cx: &mut SchedulerScratch,
    dag: &mut Option<DependencyDag>,
    device: &EmlQccdDevice,
    options: &MussTiOptions,
    circuit: &Circuit,
) -> Result<(Vec<(QubitId, ZoneId)>, bool), CompileError> {
    let trivial = trivial_mapping(device, circuit.num_qubits())?;
    match options.initial_mapping {
        InitialMappingStrategy::Trivial => Ok((trivial, false)),
        InitialMappingStrategy::Sabre => {
            let dag = dag.get_or_insert_with(|| DependencyDag::from_circuit(circuit));
            sabre_dry_chain(device, options, dag, trivial, cx)
        }
    }
}

/// The SABRE forward → backward → probe chain (Section 3.4). Returns the
/// chosen initial mapping — the backward pass's final mapping (the
/// candidate) if the probe pass from it needs no more shuttles than the
/// forward pass from `trivial`, else `trivial` — plus whether the probe
/// early-exit fired.
///
/// **Probe early-exit**: when the backward pass lands exactly back on the
/// trivial mapping, the probe would replay the forward pass move for move —
/// same DAG orientation (two `reset_reversed` calls round-trip exactly), same
/// start mapping, same options, scratch state fully re-initialised per pass —
/// so `probe.shuttles == forward.shuttles` and the `<=` decision picks the
/// candidate unconditionally. The chain returns right there, skipping the
/// redundant third dry pass (the DAG is still restored to its forward
/// orientation first). Decision-identical to running the probe, pinned by the
/// op-fingerprint suite.
fn sabre_dry_chain(
    device: &EmlQccdDevice,
    options: &MussTiOptions,
    dag: &mut DependencyDag,
    trivial: Vec<(QubitId, ZoneId)>,
    cx: &mut SchedulerScratch,
) -> Result<(Vec<(QubitId, ZoneId)>, bool), CompileError> {
    let dry_options = MussTiOptions {
        enable_swap_insertion: false,
        ..*options
    };
    let forward = schedule_cost_only(device, &dry_options, dag, &trivial, cx)?;
    let forward_mapping = cx.state.mapping();
    // Backward pass over the reversed circuit: flip the forward DAG's
    // edges in place instead of cloning the circuit and building a
    // second DAG.
    dag.reset_reversed();
    schedule_cost_only(device, &dry_options, dag, &forward_mapping, cx)?;
    let candidate = cx.state.mapping();
    dag.reset_reversed();
    if candidate == trivial {
        return Ok((candidate, true));
    }
    // Keep whichever starting placement needs the least transport: the
    // two-fold search can occasionally end in a worse placement for
    // highly symmetric circuits, and the pre-loading idea only pays
    // off when it actually reduces movement.
    let probe = schedule_cost_only(device, &dry_options, dag, &candidate, cx)?;
    let chosen = if probe.shuttles <= forward.shuttles {
        candidate
    } else {
        trivial
    };
    Ok((chosen, false))
}

/// One-shot wrapper over [`initial_mapping_in`] with fresh scratch (tests and
/// context-free callers).
#[cfg(test)]
pub(crate) fn initial_mapping(
    device: &EmlQccdDevice,
    options: &MussTiOptions,
    circuit: &Circuit,
) -> Result<Vec<(QubitId, ZoneId)>, CompileError> {
    let mut cx = SchedulerScratch::new(device);
    let mut dag = None;
    initial_mapping_in(&mut cx, &mut dag, device, options, circuit).map(|(mapping, _)| mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eml_qccd::{DeviceConfig, ZoneLevel};
    use ion_circuit::generators;

    #[test]
    fn trivial_mapping_balances_blocks_across_modules_highest_level_first() {
        let device = DeviceConfig::default().with_modules(2).build();
        let mapping = trivial_mapping(&device, 32).unwrap();
        assert_eq!(mapping.len(), 32);
        // 16 consecutive qubits per module, all inside the optical zones.
        for &(q, zone) in &mapping {
            let expected_module = if q.index() < 16 { 0 } else { 1 };
            assert_eq!(device.zone(zone).module.index(), expected_module, "{q}");
            assert_eq!(device.zone(zone).level, ZoneLevel::Optical, "{q}");
        }
    }

    #[test]
    fn trivial_mapping_spills_each_share_into_lower_levels() {
        let device = DeviceConfig::default().with_modules(2).build();
        let mapping = trivial_mapping(&device, 48).unwrap();
        let levels: Vec<ZoneLevel> = mapping.iter().map(|&(_, z)| device.zone(z).level).collect();
        // Each module takes 24 qubits: 16 in its optical zone, 8 in its
        // operation zone.
        assert_eq!(
            levels.iter().filter(|&&l| l == ZoneLevel::Optical).count(),
            32
        );
        assert_eq!(
            levels
                .iter()
                .filter(|&&l| l == ZoneLevel::Operation)
                .count(),
            16
        );
        assert_eq!(device.zone(mapping[16].1).level, ZoneLevel::Operation);
        assert_eq!(device.zone(mapping[16].1).module.index(), 0);
        assert_eq!(device.zone(mapping[24].1).module.index(), 1);
        assert_eq!(device.zone(mapping[24].1).level, ZoneLevel::Optical);
    }

    #[test]
    fn trivial_mapping_respects_zone_capacity() {
        let device = DeviceConfig::default()
            .with_modules(4)
            .with_trap_capacity(8)
            .build();
        let mapping = trivial_mapping(&device, 60).unwrap();
        for zone in device.zones() {
            let count = mapping.iter().filter(|&&(_, z)| z == zone.id).count();
            assert!(count <= zone.capacity);
        }
    }

    #[test]
    fn too_many_qubits_is_an_error() {
        let device = DeviceConfig::default().with_modules(1).build();
        assert!(matches!(
            trivial_mapping(&device, 64),
            Err(CompileError::DeviceTooSmall { .. })
        ));
    }

    #[test]
    fn effective_capacity_leaves_one_zone_of_slack() {
        let device = DeviceConfig::default()
            .with_modules(1)
            .with_trap_capacity(8)
            .build();
        // 4 zones * 8 = 32 slots, minus 8 slack = 24, below the 32 module cap.
        assert_eq!(effective_module_capacity(&device, ModuleId(0)), 24);
    }

    #[test]
    fn sabre_mapping_differs_from_trivial_when_transport_is_needed() {
        // 48 qubits on two modules puts 8 qubits per module in an operation
        // zone; an asymmetric random circuit then forces transport, so the
        // two-fold search ends in a different placement than it started from.
        // (A symmetric circuit such as QFT can legitimately retrace its own
        // movements and return to the trivial placement.)
        let device = DeviceConfig::default().with_modules(2).build();
        let circuit = generators::random_circuit(48, 200, 13);
        let options = MussTiOptions {
            initial_mapping: InitialMappingStrategy::Sabre,
            ..Default::default()
        };
        let sabre = initial_mapping(&device, &options, &circuit).unwrap();
        let trivial = trivial_mapping(&device, 48).unwrap();
        assert_eq!(sabre.len(), trivial.len());
        assert_ne!(
            sabre, trivial,
            "two-fold search should move at least one qubit"
        );

        // The result is still a valid placement: every qubit exactly once,
        // zone capacities respected.
        let mut seen: Vec<usize> = sabre.iter().map(|(q, _)| q.index()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 48);
        for zone in device.zones() {
            let count = sabre.iter().filter(|&&(_, z)| z == zone.id).count();
            assert!(count <= zone.capacity);
        }
    }

    #[test]
    fn sabre_mapping_equals_trivial_when_no_transport_is_needed() {
        // 16 qubits fit entirely inside module 0's optical zone, so the
        // scheduler never moves an ion and the two-fold search is a fixpoint.
        let device = DeviceConfig::for_qubits(16).build();
        let circuit = generators::qft(16);
        let options = MussTiOptions {
            initial_mapping: InitialMappingStrategy::Sabre,
            ..Default::default()
        };
        let sabre = initial_mapping(&device, &options, &circuit).unwrap();
        assert_eq!(sabre, trivial_mapping(&device, 16).unwrap());
    }

    #[test]
    fn trivial_strategy_returns_trivial_mapping() {
        let device = DeviceConfig::for_qubits(16).build();
        let circuit = generators::ghz(16);
        let options = MussTiOptions::trivial();
        let mapping = initial_mapping(&device, &options, &circuit).unwrap();
        assert_eq!(mapping, trivial_mapping(&device, 16).unwrap());
    }
}
