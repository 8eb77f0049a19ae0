//! The placement oracle and its lock-step harness.
//!
//! [`NaivePlacement`] is the HashMap-backed placement state kept from before
//! the flat-array refactor: an executable specification of
//! [`eml_qccd::ChainStore`] and of the two compilers' transfers, MUSS-TI's
//! one-hop shuttle over zones and the grid baselines' multi-hop transport
//! over traps (its own rows-then-columns route, not `next_hop`).
//!
//! [`drive`] is the one lock-step harness. It runs a caller's script of
//! [`RawAction`]s (place, touch, transfer, logical swap, LRU query) through
//! a [`ChainStore`] and a [`NaivePlacement`] over any [`Chains`] device and
//! compares every query after every action. The proptest suite in
//! `tests/placement_equivalence.rs` passes a `Vec` from a strategy;
//! `fuzz_smoke --diff` draws the script from the case's seeded `StdRng`.

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

use baselines::test_support::transport;
use eml_qccd::{ChainStore, EmlQccdDevice, Location, QccdGridDevice, ScheduledOp, TrapId, ZoneId};
use ion_circuit::QubitId;
use muss_ti::test_support::shuttle;

use crate::RawAction;

/// HashMap-backed placement state over zones or traps (reference
/// implementation).
///
/// Mirrors the [`ChainStore`] API method for method, plus the two
/// compilers' transfers; see there for semantics.
#[derive(Debug, Clone)]
pub struct NaivePlacement<L> {
    location: HashMap<QubitId, L>,
    chains: HashMap<L, Vec<QubitId>>,
    last_use: HashMap<QubitId, u64>,
}

impl<L: Location + Hash> Default for NaivePlacement<L> {
    fn default() -> Self {
        NaivePlacement {
            location: HashMap::new(),
            chains: HashMap::new(),
            last_use: HashMap::new(),
        }
    }
}

impl<L: Location + Hash> NaivePlacement<L> {
    /// Builds a placement from an explicit qubit → location assignment.
    ///
    /// # Panics
    ///
    /// Panics if an assignment fills a location past `capacity(location)`.
    pub fn from_mapping(mapping: &[(QubitId, L)], capacity: impl Fn(L) -> usize) -> Self {
        let mut state = Self::default();
        for &(q, at) in mapping {
            assert!(
                state.occupancy(at) < capacity(at),
                "initial mapping overfills {at}"
            );
            state.place(q, at);
        }
        state
    }

    /// Places a not-yet-placed qubit at the end of `at`'s chain.
    pub fn place(&mut self, qubit: QubitId, at: L) {
        debug_assert!(!self.location.contains_key(&qubit), "{qubit} placed twice");
        self.location.insert(qubit, at);
        self.chains.entry(at).or_default().push(qubit);
    }

    /// The location currently holding `qubit`, if it has been placed.
    pub fn location_of(&self, qubit: QubitId) -> Option<L> {
        self.location.get(&qubit).copied()
    }

    /// Number of ions currently in `at`.
    pub fn occupancy(&self, at: L) -> usize {
        self.chains.get(&at).map(Vec::len).unwrap_or(0)
    }

    /// The ions in `at`, in chain order.
    pub fn chain(&self, at: L) -> &[QubitId] {
        self.chains.get(&at).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Records that `qubit` was just used by a gate at logical time `time`.
    pub fn touch(&mut self, qubit: QubitId, time: u64) {
        self.last_use.insert(qubit, time);
    }

    /// Logical time `qubit` was last used (0 if never).
    pub fn last_use(&self, qubit: QubitId) -> u64 {
        self.last_use.get(&qubit).copied().unwrap_or(0)
    }

    /// The least-recently-used ion in `at`, excluding `protected` qubits.
    pub fn lru_victim(&self, at: L, protected: &[QubitId]) -> Option<QubitId> {
        self.chain(at)
            .iter()
            .copied()
            .filter(|q| !protected.contains(q))
            .min_by_key(|q| (self.last_use(*q), q.index()))
    }

    /// Moves `qubit` to `to` along `route` (the locations after the one it
    /// leaves, ending at `to`): chain rearrangements to the nearest edge,
    /// then one shuttle per hop of `distance_um(from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is unplaced or already in `to`, or if `to`
    /// already holds `capacity` ions.
    fn transfer(
        &mut self,
        qubit: QubitId,
        to: L,
        capacity: usize,
        route: impl Fn(L) -> Vec<L>,
        distance_um: impl Fn(L, L) -> f64,
    ) -> Vec<ScheduledOp> {
        let from = self
            .location_of(qubit)
            .expect("cannot transfer an unplaced qubit");
        assert!(from != to, "{qubit} is already in {to}");
        assert!(
            self.occupancy(to) < capacity,
            "transfer destination {to} is full"
        );

        let mut ops = Vec::new();
        let chain = self
            .chains
            .get_mut(&from)
            .expect("placed qubits have a chain");
        let idx = chain
            .iter()
            .position(|&q| q == qubit)
            .expect("qubit is in its chain");
        let moves_to_edge = idx.min(chain.len() - 1 - idx);
        for _ in 0..moves_to_edge {
            ops.push(ScheduledOp::ChainRearrange { zone: from.index() });
        }
        chain.remove(idx);

        let mut at = from;
        for next in route(from) {
            ops.push(ScheduledOp::Shuttle {
                qubit,
                from_zone: at.index(),
                to_zone: next.index(),
                distance_um: distance_um(at, next),
            });
            at = next;
        }
        assert!(at == to, "the route must end at {to}");

        self.chains.entry(to).or_default().push(qubit);
        self.location.insert(qubit, to);
        ops
    }

    /// Logically exchanges two placed ions (see
    /// [`ChainStore::swap_logical`]).
    ///
    /// # Panics
    ///
    /// Panics if either qubit is unplaced.
    pub fn swap_logical(&mut self, a: QubitId, b: QubitId) {
        let la = self.location_of(a).expect("swap operand must be placed");
        let lb = self.location_of(b).expect("swap operand must be placed");
        let ia = self.chains[&la]
            .iter()
            .position(|&q| q == a)
            .expect("a in chain");
        let ib = self.chains[&lb]
            .iter()
            .position(|&q| q == b)
            .expect("b in chain");
        self.chains.get_mut(&la).expect("placed")[ia] = b;
        self.chains.get_mut(&lb).expect("placed")[ib] = a;
        self.location.insert(a, lb);
        self.location.insert(b, la);
    }

    /// The final qubit → location assignment, sorted by qubit.
    pub fn mapping(&self) -> Vec<(QubitId, L)> {
        let mut mapping: Vec<(QubitId, L)> =
            self.location.iter().map(|(&q, &at)| (q, at)).collect();
        mapping.sort_by_key(|(q, _)| q.index());
        mapping
    }
}

impl NaivePlacement<ZoneId> {
    /// MUSS-TI's shuttle (see `muss_ti::test_support::shuttle`): one
    /// intra-module hop into a zone with a free slot.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is unplaced or already in `to`, the destination is
    /// full, or the move crosses modules.
    pub fn shuttle(
        &mut self,
        device: &EmlQccdDevice,
        qubit: QubitId,
        to: ZoneId,
    ) -> Vec<ScheduledOp> {
        let from = self
            .location_of(qubit)
            .expect("cannot shuttle an unplaced qubit");
        assert_eq!(
            device.zone(from).module,
            device.zone(to).module,
            "ions never shuttle between modules"
        );
        self.transfer(
            qubit,
            to,
            device.zone(to).capacity,
            |_| vec![to],
            |a, b| device.intra_module_distance_um(a, b),
        )
    }
}

impl NaivePlacement<TrapId> {
    /// The grid baselines' transport: one shuttle per hop of the
    /// rows-then-columns route into a trap with a free slot; intermediate
    /// traps are passed through, not joined.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is unplaced or already in `to`, or the destination
    /// is full.
    pub fn transport(
        &mut self,
        device: &QccdGridDevice,
        qubit: QubitId,
        to: TrapId,
    ) -> Vec<ScheduledOp> {
        let route = |from: TrapId| {
            let (mut r, mut c) = device.coordinates(from);
            let (tr, tc) = device.coordinates(to);
            let mut path = Vec::new();
            while r != tr {
                r = if tr > r { r + 1 } else { r - 1 };
                path.push(device.trap_at(r, c).expect("on the grid"));
            }
            while c != tc {
                c = if tc > c { c + 1 } else { c - 1 };
                path.push(device.trap_at(r, c).expect("on the grid"));
            }
            path
        };
        self.transfer(qubit, to, device.trap_capacity(), route, |_, _| {
            device.hop_distance_um()
        })
    }
}

/// A device whose locations hold ion chains, with the transfer its compiler
/// runs on the production store and the oracle's transfer.
pub trait Chains {
    /// Zone or trap.
    type L: Location + Hash + Debug;
    /// Every location, in id order.
    fn locations(&self) -> Vec<Self::L>;
    /// How many ions `at` holds at most.
    fn capacity(&self, at: Self::L) -> usize;
    /// Where an ion at `from` may be transferred: every other location its
    /// compiler could send it to that has a free slot.
    fn targets(&self, store: &ChainStore<Self::L>, from: Self::L) -> Vec<Self::L>;
    /// The compiler's transfer on the production store.
    fn transfer(
        &self,
        store: &mut ChainStore<Self::L>,
        q: QubitId,
        to: Self::L,
    ) -> Vec<ScheduledOp>;
    /// The oracle's transfer.
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

/// The `i`-th qubit of a scenario. Ids are spread so that qubits `i`,
/// `i + 1` and `i + 2` (for `i` a multiple of 3) alias mod 64 (q0, q64,
/// q128, q1, q65, ...), which exercises the protected-set mask's collision
/// path.
pub fn qubit(i: usize) -> QubitId {
    QubitId::new(i / 3 + 64 * (i % 3))
}

/// Compares every query of the two states over the first `num_qubits`
/// scenario qubits and every location.
///
/// # Errors
///
/// Names the first query that disagrees.
pub fn check_states<D: Chains>(
    device: &D,
    flat: &ChainStore<D::L>,
    naive: &NaivePlacement<D::L>,
    num_qubits: usize,
) -> Result<(), String> {
    for q in (0..num_qubits).map(qubit) {
        ensure_eq!(
            flat.location_of(q),
            naive.location_of(q),
            "location_of({q})"
        );
        ensure_eq!(flat.last_use(q), naive.last_use(q), "last_use({q})");
    }
    for at in device.locations() {
        ensure_eq!(flat.chain(at), naive.chain(at), "chain({at})");
        ensure_eq!(flat.occupancy(at), naive.occupancy(at), "occupancy({at})");
        ensure_eq!(
            flat.lru_victim(at, &[]),
            naive.lru_victim(at, &[]),
            "lru_victim({at}, [])"
        );
    }
    ensure_eq!(flat.mapping(), naive.mapping(), "mapping()");
    Ok(())
}

/// Runs one raw action against both states and returns the qubits it moved,
/// in move order. The raw numbers are folded onto whatever is currently
/// legal, so every script is valid; an illegal draw is a no-op on both
/// sides.
fn apply<D: Chains>(
    device: &D,
    flat: &mut ChainStore<D::L>,
    naive: &mut NaivePlacement<D::L>,
    (kind, x, y): RawAction,
    num_qubits: usize,
    clock: &mut u64,
) -> Result<Vec<QubitId>, String> {
    let placed: Vec<QubitId> = flat.mapping().iter().map(|&(q, _)| q).collect();
    match kind % 5 {
        // Place the first unplaced qubit into the x-th location with space.
        0 => {
            let unplaced = (0..num_qubits)
                .map(qubit)
                .find(|&q| flat.location_of(q).is_none());
            let with_space: Vec<D::L> = device
                .locations()
                .into_iter()
                .filter(|&at| flat.occupancy(at) < device.capacity(at))
                .collect();
            let Some(q) = unplaced.filter(|_| !with_space.is_empty()) else {
                return Ok(vec![]);
            };
            let at = with_space[x % with_space.len()];
            flat.place(q, at);
            naive.place(q, at);
            Ok(vec![q])
        }
        // Touch the x-th placed qubit at the next logical time.
        1 => {
            if !placed.is_empty() {
                *clock += 1;
                let q = placed[x % placed.len()];
                flat.touch(q, *clock);
                naive.touch(q, *clock);
            }
            Ok(vec![])
        }
        // Transfer the x-th placed qubit to its y-th legal target.
        2 => {
            if placed.is_empty() {
                return Ok(vec![]);
            }
            let q = placed[x % placed.len()];
            let targets = device.targets(flat, flat.location_of(q).expect("placed"));
            if targets.is_empty() {
                return Ok(vec![]);
            }
            let to = targets[y % targets.len()];
            let flat_ops = device.transfer(flat, q, to);
            let naive_ops = device.transfer_naive(naive, q, to);
            ensure_eq!(flat_ops, naive_ops, "transfer({q} -> {to}) ops");
            Ok(vec![q])
        }
        // Logically swap the x-th and y-th placed qubits.
        3 => {
            if placed.len() < 2 {
                return Ok(vec![]);
            }
            let (a, b) = (placed[x % placed.len()], placed[y % placed.len()]);
            if a == b {
                return Ok(vec![]);
            }
            flat.swap_logical(a, b);
            naive.swap_logical(a, b);
            Ok(vec![a, b])
        }
        // Query only: LRU victims under a protected subset of the placed
        // qubits, which may alias chain members mod 64.
        _ => {
            let protected: Vec<QubitId> = placed
                .iter()
                .copied()
                .skip(x % (placed.len() + 1))
                .take(2 + y % 3)
                .collect();
            for at in device.locations() {
                ensure_eq!(
                    flat.lru_victim(at, &protected),
                    naive.lru_victim(at, &protected),
                    "lru_victim({at}, {protected:?})"
                );
            }
            Ok(vec![])
        }
    }
}

/// Runs the script `actions` through a fresh [`ChainStore`] and a fresh
/// [`NaivePlacement`] over `device` with the first `num_qubits` scenario
/// qubits, and after every action compares both states and checks that the
/// store's moved-qubit log names exactly the qubits the action moved.
///
/// # Errors
///
/// Names the index and raw value of the first action after which the two
/// sides disagree.
pub fn drive<D: Chains>(
    device: &D,
    num_qubits: usize,
    actions: impl IntoIterator<Item = RawAction>,
) -> Result<(), String> {
    let mut flat = ChainStore::new(device.locations().len());
    let mut naive = NaivePlacement::default();
    let mut clock = 0u64;
    check_states(device, &flat, &naive, num_qubits).map_err(|e| format!("{e} before action 0"))?;
    for (step, action) in actions.into_iter().enumerate() {
        let result = apply(
            device, &mut flat, &mut naive, action, num_qubits, &mut clock,
        )
        .and_then(|moved| {
            let mut logged = Vec::new();
            flat.drain_moved(|q| logged.push(q));
            ensure_eq!(logged, moved, "moved-qubit log");
            check_states(device, &flat, &naive, num_qubits)
        });
        result.map_err(|e| format!("{e} after action {step} {action:?}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eml_qccd::DeviceConfig;

    /// A correct device behind a deliberately broken adapter.
    struct Faulty {
        device: EmlQccdDevice,
        /// Drops the production transfer's chain rearrangements.
        skip_rearrangements: bool,
        /// Makes the oracle's transfer join the destination chain at its
        /// head instead of its end.
        push_at_head: bool,
    }

    impl Chains for Faulty {
        type L = ZoneId;
        fn locations(&self) -> Vec<ZoneId> {
            self.device.locations()
        }
        fn capacity(&self, at: ZoneId) -> usize {
            self.device.capacity(at)
        }
        fn targets(&self, store: &ChainStore<ZoneId>, from: ZoneId) -> Vec<ZoneId> {
            self.device.targets(store, from)
        }
        fn transfer(
            &self,
            store: &mut ChainStore<ZoneId>,
            q: QubitId,
            to: ZoneId,
        ) -> Vec<ScheduledOp> {
            let mut ops = self.device.transfer(store, q, to);
            if self.skip_rearrangements {
                ops.retain(|op| !matches!(op, ScheduledOp::ChainRearrange { .. }));
            }
            ops
        }
        fn transfer_naive(
            &self,
            naive: &mut NaivePlacement<ZoneId>,
            q: QubitId,
            to: ZoneId,
        ) -> Vec<ScheduledOp> {
            let ops = self.device.transfer_naive(naive, q, to);
            if self.push_at_head {
                naive.chains.get_mut(&to).expect("joined").rotate_right(1);
            }
            ops
        }
    }

    /// Places three ions in the first zone (chain `[q0, q64, q128]`), then
    /// transfers the middle one, which must first be moved to an edge.
    const SCRIPT: [RawAction; 4] = [(0, 0, 0), (0, 0, 0), (0, 0, 0), (2, 1, 0)];

    fn faulty(skip_rearrangements: bool, push_at_head: bool) -> Faulty {
        let device = DeviceConfig::default()
            .with_modules(1)
            .with_trap_capacity(4)
            .build();
        Faulty {
            device,
            skip_rearrangements,
            push_at_head,
        }
    }

    #[test]
    fn the_harness_passes_a_correct_adapter() {
        drive(&faulty(false, false), 6, SCRIPT).unwrap();
    }

    #[test]
    fn the_harness_catches_skipped_rearrangements_at_their_action() {
        let err = drive(&faulty(true, false), 6, SCRIPT).unwrap_err();
        assert!(
            err.contains("transfer(") && err.contains("after action 3"),
            "{err}"
        );
    }

    #[test]
    fn the_harness_catches_a_push_at_the_chain_head_at_its_action() {
        // Transfer q0 onto a zone holding q64 and q128's new home, so the
        // destination chain is not a single ion.
        let script = [(0, 0, 0), (0, 1, 0), (0, 1, 0), (2, 0, 0)];
        let err = drive(&faulty(false, true), 6, script).unwrap_err();
        assert!(
            err.contains("chain(") && err.contains("after action 3"),
            "{err}"
        );
    }
}
