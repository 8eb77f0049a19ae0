//! Equivalence suite: the flat [`ChainStore`] must answer every query
//! identically to the retained HashMap-backed reference
//! ([`NaivePlacement`]) after every step of arbitrary
//! place/touch/transfer/swap sequences, for both kinds of transfer:
//! MUSS-TI's one-hop shuttle over EML-QCCD zones and the grid baselines'
//! multi-hop transport over QCCD traps, each through the compiler's own
//! transfer function. The moved-qubit log is checked against the qubits
//! each step moved. This is the same executable-specification pattern that
//! pins the incremental DAG against `NaiveDag`.

use std::fmt::Debug;
use std::hash::Hash;

use proptest::prelude::*;

use baselines::test_support::transport;
use eml_qccd::{
    ChainStore, DeviceConfig, EmlQccdDevice, GridConfig, Location, QccdGridDevice, ScheduledOp,
    TrapId, ZoneId,
};
use ion_circuit::QubitId;
use muss_ti::test_support::shuttle;
use muss_ti::NaivePlacement;

/// One raw action drawn by proptest; interpreted against the current state so
/// every drawn sequence is valid by construction.
type RawAction = (usize, usize, usize);

/// A device whose locations hold ion chains, with the transfer its compiler
/// runs.
trait Chains {
    type L: Location + Hash + Debug;
    fn locations(&self) -> Vec<Self::L>;
    fn capacity(&self, at: Self::L) -> usize;
    /// Where an ion at `from` may be transferred: every other location its
    /// compiler could send it to that has a free slot.
    fn targets(&self, store: &ChainStore<Self::L>, from: Self::L) -> Vec<Self::L>;
    fn transfer(
        &self,
        store: &mut ChainStore<Self::L>,
        q: QubitId,
        to: Self::L,
    ) -> Vec<ScheduledOp>;
    fn transfer_naive(
        &self,
        naive: &mut NaivePlacement<Self::L>,
        q: QubitId,
        to: Self::L,
    ) -> Vec<ScheduledOp>;
}

/// MUSS-TI: one intra-module hop between zones.
impl Chains for EmlQccdDevice {
    type L = ZoneId;
    fn locations(&self) -> Vec<ZoneId> {
        self.zones().iter().map(|z| z.id).collect()
    }
    fn capacity(&self, at: ZoneId) -> usize {
        self.zone(at).capacity
    }
    fn targets(&self, store: &ChainStore<ZoneId>, from: ZoneId) -> Vec<ZoneId> {
        self.zones_in_module(self.zone(from).module)
            .iter()
            .map(|z| z.id)
            .filter(|&z| z != from && store.occupancy(z) < self.capacity(z))
            .collect()
    }
    fn transfer(&self, store: &mut ChainStore<ZoneId>, q: QubitId, to: ZoneId) -> Vec<ScheduledOp> {
        let mut ops = Vec::new();
        shuttle(self, store, q, to, &mut ops);
        ops
    }
    fn transfer_naive(
        &self,
        naive: &mut NaivePlacement<ZoneId>,
        q: QubitId,
        to: ZoneId,
    ) -> Vec<ScheduledOp> {
        naive.shuttle(self, q, to)
    }
}

/// The grid baselines: one shuttle per hop of a route between traps.
impl Chains for QccdGridDevice {
    type L = TrapId;
    fn locations(&self) -> Vec<TrapId> {
        self.traps().to_vec()
    }
    fn capacity(&self, _: TrapId) -> usize {
        self.trap_capacity()
    }
    fn targets(&self, store: &ChainStore<TrapId>, from: TrapId) -> Vec<TrapId> {
        self.traps()
            .iter()
            .copied()
            .filter(|&t| t != from && store.occupancy(t) < self.trap_capacity())
            .collect()
    }
    fn transfer(&self, store: &mut ChainStore<TrapId>, q: QubitId, to: TrapId) -> Vec<ScheduledOp> {
        let mut ops = Vec::new();
        transport(self, store, q, to, &mut ops);
        ops
    }
    fn transfer_naive(
        &self,
        naive: &mut NaivePlacement<TrapId>,
        q: QubitId,
        to: TrapId,
    ) -> Vec<ScheduledOp> {
        naive.transport(self, q, to)
    }
}

fn eml(modules: usize, capacity: usize) -> EmlQccdDevice {
    DeviceConfig::default()
        .with_modules(modules)
        .with_trap_capacity(capacity)
        .build()
}

/// The `i`-th qubit of a scenario. Ids are spread so that qubits `i`,
/// `i + 1` and `i + 2` (for `i` a multiple of 3) alias mod 64 (q0, q64,
/// q128, q1, q65, ...), which exercises the protected-set mask's collision
/// path.
fn qubit(i: usize) -> QubitId {
    QubitId::new(i / 3 + 64 * (i % 3))
}

/// Asserts every query of the two implementations agrees.
fn assert_states_agree<D: Chains>(
    device: &D,
    flat: &ChainStore<D::L>,
    naive: &NaivePlacement<D::L>,
    num_qubits: usize,
    step: usize,
) {
    for i in 0..num_qubits {
        let q = qubit(i);
        assert_eq!(
            flat.location_of(q),
            naive.location_of(q),
            "location_of({q}) at step {step}"
        );
        assert_eq!(
            flat.last_use(q),
            naive.last_use(q),
            "last_use({q}) at step {step}"
        );
    }
    for at in device.locations() {
        assert_eq!(
            flat.chain(at),
            naive.chain(at),
            "chain({at}) at step {step}"
        );
        assert_eq!(
            flat.occupancy(at),
            naive.occupancy(at),
            "occupancy({at}) at step {step}"
        );
        assert_eq!(
            flat.lru_victim(at, &[]),
            naive.lru_victim(at, &[]),
            "lru_victim({at}, []) at step {step}"
        );
    }
    assert_eq!(flat.mapping(), naive.mapping(), "mapping() at step {step}");
}

/// Runs one raw action against both states, keeping them in lock-step, and
/// returns the qubits it moved in move order. The raw numbers are folded
/// onto whatever is currently legal, so no action can panic; illegal draws
/// degrade to no-ops on both sides symmetrically.
fn apply_action<D: Chains>(
    device: &D,
    flat: &mut ChainStore<D::L>,
    naive: &mut NaivePlacement<D::L>,
    action: RawAction,
    num_qubits: usize,
    clock: &mut u64,
) -> Vec<QubitId> {
    let (kind, x, y) = action;
    let placed: Vec<QubitId> = flat.mapping().iter().map(|&(q, _)| q).collect();
    match kind % 5 {
        // Place the first unplaced qubit into the x-th location with space.
        0 => {
            let Some(q) = (0..num_qubits)
                .map(qubit)
                .find(|&q| flat.location_of(q).is_none())
            else {
                return vec![];
            };
            let with_space: Vec<D::L> = device
                .locations()
                .into_iter()
                .filter(|&at| flat.occupancy(at) < device.capacity(at))
                .collect();
            if with_space.is_empty() {
                return vec![];
            }
            let at = with_space[x % with_space.len()];
            flat.place(q, at);
            naive.place(q, at);
            vec![q]
        }
        // Touch the x-th placed qubit at the next logical time.
        1 => {
            if !placed.is_empty() {
                *clock += 1;
                let q = placed[x % placed.len()];
                flat.touch(q, *clock);
                naive.touch(q, *clock);
            }
            vec![]
        }
        // Transfer the x-th placed qubit to its y-th legal target.
        2 => {
            if placed.is_empty() {
                return vec![];
            }
            let q = placed[x % placed.len()];
            let targets = device.targets(flat, flat.location_of(q).expect("placed"));
            if targets.is_empty() {
                return vec![];
            }
            let to = targets[y % targets.len()];
            let flat_ops = device.transfer(flat, q, to);
            let naive_ops = device.transfer_naive(naive, q, to);
            assert_eq!(
                flat_ops, naive_ops,
                "transfer({q} -> {to}) op streams diverged"
            );
            vec![q]
        }
        // Logically swap the x-th and y-th placed qubits.
        3 => {
            if placed.len() < 2 {
                return vec![];
            }
            let (a, b) = (placed[x % placed.len()], placed[y % placed.len()]);
            if a == b {
                return vec![];
            }
            flat.swap_logical(a, b);
            naive.swap_logical(a, b);
            vec![a, b]
        }
        // Query-only step: LRU victims under a protected subset of the
        // placed qubits, which may alias chain members mod 64.
        _ => {
            let protected: Vec<QubitId> = placed
                .iter()
                .copied()
                .skip(x % (placed.len() + 1))
                .take(2 + y % 3)
                .collect();
            for at in device.locations() {
                assert_eq!(
                    flat.lru_victim(at, &protected),
                    naive.lru_victim(at, &protected),
                    "lru_victim({at}, {protected:?}) diverged"
                );
            }
            vec![]
        }
    }
}

/// Drives one action sequence over `device`, checking every step.
fn drive<D: Chains>(device: &D, actions: &[RawAction], num_qubits: usize) {
    let mut flat = ChainStore::new(device.locations().len());
    let mut naive = NaivePlacement::default();
    let mut clock = 0u64;
    assert_states_agree(device, &flat, &naive, num_qubits, 0);
    for (step, &action) in actions.iter().enumerate() {
        let mut expected = apply_action(
            device, &mut flat, &mut naive, action, num_qubits, &mut clock,
        );
        expected.dedup();
        let mut logged = Vec::new();
        flat.drain_moved(|q| logged.push(q));
        assert_eq!(
            logged, expected,
            "moved log after {action:?} at step {step}"
        );
        assert_states_agree(device, &flat, &naive, num_qubits, step + 1);
    }
}

/// Strategy: device shape plus a raw action sequence.
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
        drive(&device, &actions, num_qubits);
    }

    #[test]
    fn multi_hop_transports_match_naive_reference(((rows, cols, capacity), actions) in scenario()) {
        let device = GridConfig::new(rows, cols, capacity).build();
        let num_qubits = device.total_capacity().min(3 * capacity);
        drive(&device, &actions, num_qubits);
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
        assert_states_agree(&device, &flat, &naive, mapping.len(), 0);
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
