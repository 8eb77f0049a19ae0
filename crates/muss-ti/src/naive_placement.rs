//! The retained HashMap-backed reference implementation of the placement
//! state, kept from before the flat-array refactor.
//!
//! [`NaivePlacement`] exists purely as an executable specification: the
//! `placement_equivalence` suite drives random place/touch/transfer/swap
//! sequences through it and through [`eml_qccd::ChainStore`] in lock-step,
//! for MUSS-TI's one-hop shuttles over zones and the grid baselines'
//! multi-hop transports over traps, and asserts every query agrees — the
//! same pattern `ion_circuit::NaiveDag` pins the incremental DAG with. It is
//! not used on any compile path.

use std::collections::HashMap;
use std::hash::Hash;

use eml_qccd::{EmlQccdDevice, Location, QccdGridDevice, ScheduledOp, TrapId, ZoneId};
use ion_circuit::QubitId;

/// HashMap-backed placement state over zones or traps (reference
/// implementation).
///
/// Mirrors the [`ChainStore`](eml_qccd::ChainStore) API method for method,
/// plus the two compilers' transfers; see there for semantics.
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
    /// [`ChainStore::swap_logical`](eml_qccd::ChainStore::swap_logical)).
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
