//! Dynamic ion placement on a monolithic QCCD grid.
//!
//! Mirrors the flat data layout of `muss_ti::PlacementState`: `QubitId` and
//! `TrapId` are dense indices, so every map is a plain `Vec` and every query
//! is an `O(1)` array read — the baselines pay the same (lack of) bookkeeping
//! cost as MUSS-TI, keeping the compile-time comparison apples-to-apples.

// lint: hot-path

use eml_qccd::{MovedQubits, OpSink, QccdGridDevice, ScheduledOp, TrapId};
use ion_circuit::QubitId;

/// Placement state for the grid-based baseline compilers: which trap holds
/// each ion, chain order inside each trap, and per-qubit last-use timestamps.
#[derive(Debug, Clone, Default)]
pub struct GridPlacement {
    /// `trap_of[q]` is the trap holding qubit `q` (grown on demand).
    trap_of: Vec<Option<TrapId>>,
    /// Ion chain per trap, indexed by [`TrapId`].
    chains: Vec<Vec<QubitId>>,
    /// `last_use[q]`, grown on demand (0 if never used).
    last_use: Vec<u64>,
    /// Qubits whose trap changed since the last
    /// [`GridPlacement::drain_moved`] (the grid counterpart of
    /// `muss_ti::PlacementState`'s moved-qubit log).
    moved: MovedQubits,
}

impl GridPlacement {
    /// Creates an empty placement over every trap of `device`.
    pub fn new(device: &QccdGridDevice) -> Self {
        GridPlacement {
            trap_of: Vec::new(), // lint: allow (pooled-buffer setup, grown once and recycled)
            chains: vec![Vec::new(); device.num_traps()], // lint: allow (pooled-buffer setup, grown once and recycled)
            last_use: Vec::new(), // lint: allow (pooled-buffer setup, grown once and recycled)
            moved: MovedQubits::default(),
        }
    }

    /// Builds a placement from an explicit assignment.
    ///
    /// # Panics
    ///
    /// Panics if a trap is overfilled.
    pub fn from_mapping(device: &QccdGridDevice, mapping: &[(QubitId, TrapId)]) -> Self {
        let mut state = Self::new(device);
        state.reset_from_mapping(device, mapping);
        state
    }

    /// Drops every placement, chain and timestamp while keeping the backing
    /// allocations — the state behaves exactly like a freshly built one.
    pub fn clear(&mut self) {
        self.trap_of.fill(None);
        for chain in &mut self.chains {
            chain.clear();
        }
        self.last_use.fill(0);
        self.moved.clear();
    }

    /// Re-initialises the state from an explicit assignment, reusing the
    /// backing allocations (the grid counterpart of
    /// `muss_ti::PlacementState::reset_from_mapping`).
    ///
    /// # Panics
    ///
    /// Panics if a trap is overfilled (like [`GridPlacement::from_mapping`]).
    pub fn reset_from_mapping(&mut self, device: &QccdGridDevice, mapping: &[(QubitId, TrapId)]) {
        self.clear();
        if self.chains.len() < device.num_traps() {
            self.chains.resize(device.num_traps(), Vec::new()); // lint: allow (pooled-buffer setup, grown once and recycled)
        }
        let max_qubit = mapping
            .iter()
            .map(|(q, _)| q.index() + 1)
            .max()
            .unwrap_or(0);
        if self.trap_of.len() < max_qubit {
            self.trap_of.resize(max_qubit, None);
            self.last_use.resize(max_qubit, 0);
        }
        for &(q, t) in mapping {
            assert!(
                self.occupancy(t) < device.trap_capacity(),
                "initial mapping overfills {t}"
            );
            self.place(q, t);
        }
    }

    /// Grows the per-qubit arrays to cover `qubit`.
    fn ensure_qubit(&mut self, qubit: QubitId) {
        if qubit.index() >= self.trap_of.len() {
            self.trap_of.resize(qubit.index() + 1, None);
            self.last_use.resize(qubit.index() + 1, 0);
        }
    }

    /// Places a previously-unplaced ion at the chain edge of `trap`.
    pub fn place(&mut self, qubit: QubitId, trap: TrapId) {
        self.ensure_qubit(qubit);
        debug_assert!(
            self.trap_of[qubit.index()].is_none(),
            "{qubit} placed twice"
        );
        self.trap_of[qubit.index()] = Some(trap);
        self.chains[trap.index()].push(qubit);
        self.moved.record(qubit);
    }

    /// Hands every qubit whose trap changed since the previous drain (or
    /// since [`GridPlacement::clear`]) to `f`, once each, and empties the
    /// log.
    pub fn drain_moved(&mut self, f: impl FnMut(QubitId)) {
        self.moved.drain(f);
    }

    /// The trap currently holding `qubit` (`O(1)`).
    pub fn trap_of(&self, qubit: QubitId) -> Option<TrapId> {
        self.trap_of.get(qubit.index()).copied().flatten()
    }

    /// Number of ions in `trap` (`O(1)`).
    pub fn occupancy(&self, trap: TrapId) -> usize {
        self.chains.get(trap.index()).map(Vec::len).unwrap_or(0)
    }

    /// Remaining free slots in `trap` (`O(1)`).
    pub fn free_slots(&self, device: &QccdGridDevice, trap: TrapId) -> usize {
        device.trap_capacity().saturating_sub(self.occupancy(trap))
    }

    /// Ions in `trap`, in chain order.
    pub fn chain(&self, trap: TrapId) -> &[QubitId] {
        self.chains
            .get(trap.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Records a gate touching `qubit` at logical time `time`.
    pub fn touch(&mut self, qubit: QubitId, time: u64) {
        self.ensure_qubit(qubit);
        self.last_use[qubit.index()] = time;
    }

    /// Logical time `qubit` was last used (`O(1)`).
    pub fn last_use(&self, qubit: QubitId) -> u64 {
        self.last_use.get(qubit.index()).copied().unwrap_or(0)
    }

    /// Least-recently-used ion in `trap`, excluding `protected` (one chain
    /// pass over flat `last_use` reads).
    pub fn lru_victim(&self, trap: TrapId, protected: &[QubitId]) -> Option<QubitId> {
        self.chain(trap)
            .iter()
            .copied()
            .filter(|q| !protected.contains(q))
            .min_by_key(|q| (self.last_use(*q), q.index()))
    }

    /// Moves `qubit` to `destination` along a shortest grid path (rows first,
    /// then columns; see [`QccdGridDevice::next_hop`]), emitting one
    /// shuttle per hop (plus chain rearrangements to reach the chain edge of
    /// the source trap). Only the destination's capacity matters: ions pass
    /// through the junctions of intermediate traps without merging into their
    /// chains.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is unplaced or the destination is full.
    pub fn transport(
        &mut self,
        device: &QccdGridDevice,
        qubit: QubitId,
        destination: TrapId,
    ) -> Vec<ScheduledOp> {
        let mut ops = Vec::new(); // lint: allow (documented allocating wrapper; hot paths use the pooled form)
        self.transport_into(device, qubit, destination, &mut ops);
        ops
    }

    /// [`GridPlacement::transport`] emitting into an [`OpSink`] (typically
    /// the pooled op buffer) instead of allocating a fresh `Vec` per
    /// transport.
    ///
    /// # Panics
    ///
    /// Same conditions as [`GridPlacement::transport`].
    pub fn transport_into<S: OpSink>(
        &mut self,
        device: &QccdGridDevice,
        qubit: QubitId,
        destination: TrapId,
        ops: &mut S,
    ) {
        let from = self
            .trap_of(qubit)
            .expect("cannot transport an unplaced ion");
        if from == destination {
            return;
        }
        assert!(
            self.occupancy(destination) < device.trap_capacity(),
            "transport destination {destination} is full"
        );

        let chain = &mut self.chains[from.index()];
        let idx = chain
            .iter()
            .position(|&q| q == qubit)
            .expect("qubit is in its chain");
        let to_edge = idx.min(chain.len() - 1 - idx);
        for _ in 0..to_edge {
            ops.push_op(ScheduledOp::ChainRearrange { zone: from.index() });
        }
        chain.remove(idx); // lint: allow (a chain holds at most one trap's capacity of ions)

        let mut at = from;
        while let Some(next) = device.next_hop(at, destination) {
            ops.push_op(ScheduledOp::Shuttle {
                qubit,
                from_zone: at.index(),
                to_zone: next.index(),
                distance_um: device.hop_distance_um(),
            });
            at = next;
        }

        self.chains[destination.index()].push(qubit);
        self.trap_of[qubit.index()] = Some(destination);
        self.moved.record(qubit);
    }

    /// The nearest trap (by hop distance from `near`) that still has free
    /// space, excluding `exclude`. Used to find eviction targets.
    pub fn nearest_trap_with_space(
        &self,
        device: &QccdGridDevice,
        near: TrapId,
        exclude: &[TrapId],
    ) -> Option<TrapId> {
        device
            .traps()
            .iter()
            .copied()
            .filter(|t| !exclude.contains(t))
            .filter(|&t| self.free_slots(device, t) > 0)
            .min_by_key(|&t| (device.hop_distance(near, t), t.index()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eml_qccd::GridConfig;

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    fn device() -> QccdGridDevice {
        GridConfig::new(2, 3, 4).build()
    }

    #[test]
    fn place_and_occupancy() {
        let d = device();
        let mut s = GridPlacement::new(&d);
        s.place(q(0), TrapId(2));
        assert_eq!(s.trap_of(q(0)), Some(TrapId(2)));
        assert_eq!(s.occupancy(TrapId(2)), 1);
        assert_eq!(s.free_slots(&d, TrapId(2)), 3);
    }

    #[test]
    fn transport_emits_one_shuttle_per_hop() {
        let d = device();
        let mut s = GridPlacement::new(&d);
        s.place(q(0), TrapId(0));
        let ops = s.transport(&d, q(0), TrapId(5));
        let shuttles = ops.iter().filter(|o| o.is_shuttle()).count();
        assert_eq!(shuttles, d.hop_distance(TrapId(0), TrapId(5)));
        assert_eq!(s.trap_of(q(0)), Some(TrapId(5)));
    }

    #[test]
    fn transport_from_chain_interior_rearranges_first() {
        let d = device();
        let mut s = GridPlacement::new(&d);
        for i in 0..4 {
            s.place(q(i), TrapId(0));
        }
        let ops = s.transport(&d, q(1), TrapId(1));
        let rearr = ops
            .iter()
            .filter(|o| matches!(o, ScheduledOp::ChainRearrange { .. }))
            .count();
        assert_eq!(rearr, 1);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn transport_into_full_trap_panics() {
        let d = device();
        let mut s = GridPlacement::new(&d);
        for i in 0..4 {
            s.place(q(i), TrapId(1));
        }
        s.place(q(4), TrapId(0));
        let _ = s.transport(&d, q(4), TrapId(1));
    }

    #[test]
    fn nearest_trap_with_space_skips_full_and_excluded() {
        let d = device();
        let mut s = GridPlacement::new(&d);
        for i in 0..4 {
            s.place(q(i), TrapId(1));
        }
        let found = s
            .nearest_trap_with_space(&d, TrapId(1), &[TrapId(0)])
            .unwrap();
        assert_ne!(found, TrapId(0));
        assert_ne!(found, TrapId(1));
        assert_eq!(d.hop_distance(TrapId(1), found), 1);
    }

    #[test]
    fn placements_and_transports_are_logged_until_drained() {
        let d = device();
        let mut s = GridPlacement::from_mapping(&d, &[(q(0), TrapId(0)), (q(1), TrapId(1))]);
        let mut moved = Vec::new();
        s.drain_moved(|qubit| moved.push(qubit));
        assert_eq!(moved, [q(0), q(1)]);
        let _ = s.transport(&d, q(1), TrapId(1)); // already there: no move
        let _ = s.transport(&d, q(0), TrapId(5));
        moved.clear();
        s.drain_moved(|qubit| moved.push(qubit));
        assert_eq!(moved, [q(0)]);
    }

    #[test]
    fn lru_victim_respects_timestamps() {
        let d = device();
        let mut s = GridPlacement::new(&d);
        s.place(q(0), TrapId(0));
        s.place(q(1), TrapId(0));
        s.touch(q(0), 5);
        assert_eq!(s.lru_victim(TrapId(0), &[]), Some(q(1)));
    }
}
