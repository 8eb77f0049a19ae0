//! Dynamic placement state: where every ion sits, chain order, and LRU data.
//!
//! Storage is flat and dense — `QubitId`, `ZoneId` and `ModuleId` are
//! contiguous indices, so every map in the hot path is a plain `Vec` and
//! every query (`zone_of`, `occupancy`, `free_slots`, `last_use`) is an
//! `O(1)` array read with no hashing and no per-query allocation. The
//! HashMap-backed reference implementation is retained as
//! [`NaivePlacement`](crate::NaivePlacement) and pinned against this one by
//! the `placement_equivalence` suite.

// lint: hot-path

use eml_qccd::{EmlQccdDevice, ModuleId, MovedQubits, OpSink, ScheduledOp, ZoneId, ZoneLevel};
use ion_circuit::QubitId;

/// The compiler's view of the device at a point in the schedule: which zone
/// holds each ion, the order of ions inside each zone's chain, per-qubit
/// last-use timestamps (for LRU eviction) and per-module ion counts.
///
/// All mutating operations that correspond to physical transport return the
/// [`ScheduledOp`]s they imply, so the scheduler simply appends them to the
/// program.
#[derive(Debug, Clone)]
pub struct PlacementState {
    /// `qubit_zone[q]` is the zone holding qubit `q` (grown on demand as
    /// qubits are placed/touched).
    qubit_zone: Vec<Option<ZoneId>>,
    /// Ion chain per zone, in physical order (index 0 and `len-1` are the
    /// edges), indexed by [`ZoneId`].
    chains: Vec<Vec<QubitId>>,
    /// `last_use[q]` is the logical time of the last gate on qubit `q`
    /// (0 if never used; grown on demand).
    last_use: Vec<u64>,
    /// Ion count per module, indexed by [`ModuleId`].
    module_count: Vec<usize>,
    /// Qubits whose zone changed (initial placement, shuttles, logical
    /// swaps) since the last [`PlacementState::drain_moved`]. The scheduler
    /// re-examines only the front gates on these qubits: executability reads
    /// nothing but the two operand zones (and static device topology).
    moved: MovedQubits,
}

impl PlacementState {
    /// Creates an empty placement (no ion placed yet).
    pub fn new(device: &EmlQccdDevice) -> Self {
        PlacementState {
            qubit_zone: Vec::new(), // lint: allow (pooled-buffer setup, grown once and recycled)
            chains: vec![Vec::new(); device.num_zones()], // lint: allow (pooled-buffer setup, grown once and recycled)
            last_use: Vec::new(), // lint: allow (pooled-buffer setup, grown once and recycled)
            module_count: vec![0; device.num_modules()], // lint: allow (pooled-buffer setup, grown once and recycled)
            moved: MovedQubits::default(),
        }
    }

    /// Builds a placement from an explicit qubit → zone assignment.
    ///
    /// # Panics
    ///
    /// Panics if an assignment exceeds a zone's capacity.
    pub fn from_mapping(device: &EmlQccdDevice, mapping: &[(QubitId, ZoneId)]) -> Self {
        let mut state = Self::new(device);
        state.reset_from_mapping(device, mapping);
        state
    }

    /// Drops every placement, chain and timestamp while keeping the backing
    /// allocations — the state behaves exactly like a freshly built one.
    pub fn clear(&mut self) {
        self.qubit_zone.fill(None);
        for chain in &mut self.chains {
            chain.clear();
        }
        self.last_use.fill(0);
        self.module_count.fill(0);
        self.moved.clear();
    }

    /// Re-initialises the state from an explicit qubit → zone assignment,
    /// reusing the backing allocations: the pipeline's replacement for
    /// constructing a fresh [`PlacementState::from_mapping`] per scheduling
    /// pass. The resulting state is indistinguishable from a fresh build.
    ///
    /// # Panics
    ///
    /// Panics if an assignment exceeds a zone's capacity (like
    /// [`PlacementState::from_mapping`]).
    pub fn reset_from_mapping(&mut self, device: &EmlQccdDevice, mapping: &[(QubitId, ZoneId)]) {
        self.clear();
        if self.chains.len() < device.num_zones() {
            self.chains.resize(device.num_zones(), Vec::new()); // lint: allow (pooled-buffer setup, grown once and recycled)
        }
        if self.module_count.len() < device.num_modules() {
            self.module_count.resize(device.num_modules(), 0);
        }
        let max_qubit = mapping
            .iter()
            .map(|(q, _)| q.index() + 1)
            .max()
            .unwrap_or(0);
        if self.qubit_zone.len() < max_qubit {
            self.qubit_zone.resize(max_qubit, None);
            self.last_use.resize(max_qubit, 0);
        }
        for &(q, z) in mapping {
            assert!(
                self.occupancy(z) < device.zone(z).capacity,
                "initial mapping overfills {z}"
            );
            self.place(device, q, z);
        }
    }

    /// Grows the per-qubit arrays to cover `qubit`.
    fn ensure_qubit(&mut self, qubit: QubitId) {
        if qubit.index() >= self.qubit_zone.len() {
            self.qubit_zone.resize(qubit.index() + 1, None);
            self.last_use.resize(qubit.index() + 1, 0);
        }
    }

    /// Places a not-yet-placed qubit at the edge of `zone`'s chain.
    pub fn place(&mut self, device: &EmlQccdDevice, qubit: QubitId, zone: ZoneId) {
        self.ensure_qubit(qubit);
        debug_assert!(
            self.qubit_zone[qubit.index()].is_none(),
            "{qubit} placed twice"
        );
        self.qubit_zone[qubit.index()] = Some(zone);
        self.chains[zone.index()].push(qubit);
        self.module_count[device.zone(zone).module.index()] += 1;
        self.moved.record(qubit);
    }

    /// Hands every qubit whose zone changed since the previous drain (or
    /// since [`PlacementState::clear`]) to `f`, once each, and empties the
    /// log. Any change of [`PlacementState::zone_of`]'s answer for a qubit
    /// is recorded, which is what lets the scheduler skip re-checking front
    /// gates whose operands stayed put.
    pub fn drain_moved(&mut self, f: impl FnMut(QubitId)) {
        self.moved.drain(f);
    }

    /// The zone currently holding `qubit`, if it has been placed (`O(1)`).
    pub fn zone_of(&self, qubit: QubitId) -> Option<ZoneId> {
        self.qubit_zone.get(qubit.index()).copied().flatten()
    }

    /// The module currently holding `qubit`.
    pub fn module_of(&self, device: &EmlQccdDevice, qubit: QubitId) -> Option<ModuleId> {
        self.zone_of(qubit).map(|z| device.zone(z).module)
    }

    /// Number of ions currently in `zone` (`O(1)`).
    pub fn occupancy(&self, zone: ZoneId) -> usize {
        self.chains.get(zone.index()).map(Vec::len).unwrap_or(0)
    }

    /// Number of ions currently in `module` (`O(1)`).
    pub fn module_occupancy(&self, module: ModuleId) -> usize {
        self.module_count.get(module.index()).copied().unwrap_or(0)
    }

    /// The ions in `zone`, in chain order.
    pub fn chain(&self, zone: ZoneId) -> &[QubitId] {
        self.chains
            .get(zone.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Remaining free slots in `zone` (`O(1)`).
    pub fn free_slots(&self, device: &EmlQccdDevice, zone: ZoneId) -> usize {
        device
            .zone(zone)
            .capacity
            .saturating_sub(self.occupancy(zone))
    }

    /// Records that `qubit` was just used by a gate at logical time `time`.
    pub fn touch(&mut self, qubit: QubitId, time: u64) {
        self.ensure_qubit(qubit);
        self.last_use[qubit.index()] = time;
    }

    /// Logical time `qubit` was last used (0 if never; `O(1)`).
    pub fn last_use(&self, qubit: QubitId) -> u64 {
        self.last_use.get(qubit.index()).copied().unwrap_or(0)
    }

    /// The least-recently-used ion in `zone`, excluding `protected` qubits.
    ///
    /// One pass over the chain with flat `last_use` reads. Membership in the
    /// protected set is pre-filtered through a small stack bitmask over the
    /// protected qubit indices (mod 64), so the common not-protected case
    /// costs one bit test instead of a slice scan.
    pub fn lru_victim(&self, zone: ZoneId, protected: &[QubitId]) -> Option<QubitId> {
        let mask = protected_mask(protected);
        self.chain(zone)
            .iter()
            .copied()
            .filter(|q| !is_protected(*q, mask, protected))
            .min_by_key(|q| (self.last_use(*q), q.index()))
    }

    /// Moves `qubit` from its current zone to `to`, emitting the chain
    /// rearrangements needed to bring it to the chain edge plus the shuttle
    /// itself. The destination must be in the same module and have free space
    /// (the scheduler guarantees both).
    ///
    /// Modules exchange qubits only through
    /// [`swap_logical`](PlacementState::swap_logical) (an inserted SWAP over
    /// the fiber link), never by transport; the assert below enforces it.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is unplaced, the destination is full, or the move
    /// crosses modules.
    pub fn shuttle(
        &mut self,
        device: &EmlQccdDevice,
        qubit: QubitId,
        to: ZoneId,
    ) -> Vec<ScheduledOp> {
        let mut ops = Vec::new(); // lint: allow (documented allocating wrapper; hot paths use the pooled form)
        self.shuttle_into(device, qubit, to, &mut ops);
        ops
    }

    /// [`PlacementState::shuttle`] emitting into an [`OpSink`] instead of
    /// allocating a fresh `Vec` per transport — the scheduler's full pass
    /// writes straight into its pooled op stream, and cost-only dry passes
    /// hand in a counting sink that materialises nothing.
    ///
    /// # Panics
    ///
    /// Same conditions as [`PlacementState::shuttle`].
    pub fn shuttle_into<S: OpSink>(
        &mut self,
        device: &EmlQccdDevice,
        qubit: QubitId,
        to: ZoneId,
        ops: &mut S,
    ) {
        let from = self
            .zone_of(qubit)
            .expect("cannot shuttle an unplaced qubit");
        if from == to {
            return;
        }
        assert_eq!(
            device.zone(from).module,
            device.zone(to).module,
            "ions never shuttle between modules"
        );
        assert!(
            self.occupancy(to) < device.zone(to).capacity,
            "shuttle destination {to} is full"
        );

        // Bring the ion to the nearest chain edge first.
        let chain = &mut self.chains[from.index()];
        let idx = chain
            .iter()
            .position(|&q| q == qubit)
            .expect("qubit is in its chain");
        let moves_to_edge = idx.min(chain.len() - 1 - idx);
        for _ in 0..moves_to_edge {
            ops.push_op(ScheduledOp::ChainRearrange { zone: from.index() });
        }
        chain.remove(idx); // lint: allow (a chain holds at most one zone's capacity of ions)

        ops.push_op(ScheduledOp::Shuttle {
            qubit,
            from_zone: from.index(),
            to_zone: to.index(),
            distance_um: device.intra_module_distance_um(from, to),
        });

        self.chains[to.index()].push(qubit);
        self.qubit_zone[qubit.index()] = Some(to);
        self.moved.record(qubit);
    }

    /// Logically exchanges two ions that sit in different modules (the effect
    /// of an inserted cross-module SWAP gate): their zone assignments and
    /// chain slots are swapped in place; no transport op is produced because
    /// the exchange is performed by the three remote MS gates the scheduler
    /// emits alongside this call.
    ///
    /// This is the **only** operation that changes a qubit's module
    /// mid-schedule (shuttles are intra-module by contract). The SWAP
    /// insertion weights read modules on demand, so nothing has to be
    /// repaired after the exchange.
    ///
    /// # Panics
    ///
    /// Panics if either qubit is unplaced.
    pub fn swap_logical(&mut self, a: QubitId, b: QubitId) {
        let za = self.zone_of(a).expect("swap operand must be placed");
        let zb = self.zone_of(b).expect("swap operand must be placed");
        let ia = self.chains[za.index()]
            .iter()
            .position(|&q| q == a)
            .expect("a in chain");
        let ib = self.chains[zb.index()]
            .iter()
            .position(|&q| q == b)
            .expect("b in chain");
        self.chains[za.index()][ia] = b;
        self.chains[zb.index()][ib] = a;
        self.qubit_zone[a.index()] = Some(zb);
        self.qubit_zone[b.index()] = Some(za);
        self.moved.record(a);
        self.moved.record(b);
    }

    /// The final qubit → zone assignment (used by the SABRE two-fold pass).
    /// Already sorted by qubit — the backing array is qubit-indexed.
    pub fn mapping(&self) -> Vec<(QubitId, ZoneId)> {
        self.qubit_zone
            .iter()
            .enumerate()
            .filter_map(|(q, z)| z.map(|zone| (QubitId::new(q), zone)))
            .collect()
    }

    /// Zones of a module that still have free slots, preferring higher levels.
    pub fn zones_with_space(
        &self,
        device: &EmlQccdDevice,
        module: ModuleId,
        min_level: Option<ZoneLevel>,
    ) -> Vec<ZoneId> {
        let mut zones: Vec<ZoneId> = device
            .zones_in_module(module)
            .iter()
            .filter(|z| min_level.is_none_or(|lvl| z.level >= lvl))
            .filter(|z| self.free_slots(device, z.id) > 0)
            .map(|z| z.id)
            .collect();
        zones.sort_by_key(|&z| std::cmp::Reverse(device.zone(z).level));
        zones
    }
}

/// A 64-bit Bloom-style mask over the protected qubits' indices.
pub(crate) fn protected_mask(protected: &[QubitId]) -> u64 {
    let mut mask = 0u64;
    for p in protected {
        mask |= 1 << (p.index() & 63);
    }
    mask
}

/// `true` if `q` is in `protected`; the mask rejects the common miss in one
/// bit test, the slice scan only runs on (rare) mask hits.
pub(crate) fn is_protected(q: QubitId, mask: u64, protected: &[QubitId]) -> bool {
    mask & (1 << (q.index() & 63)) != 0 && protected.contains(&q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eml_qccd::DeviceConfig;

    fn device() -> EmlQccdDevice {
        DeviceConfig::default()
            .with_modules(2)
            .with_trap_capacity(4)
            .build()
    }

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn place_and_lookup() {
        let d = device();
        let mut s = PlacementState::new(&d);
        let zone = d.zones()[0].id;
        s.place(&d, q(0), zone);
        assert_eq!(s.zone_of(q(0)), Some(zone));
        assert_eq!(s.occupancy(zone), 1);
        assert_eq!(s.module_occupancy(ModuleId(0)), 1);
        assert_eq!(s.chain(zone), &[q(0)]);
    }

    #[test]
    fn shuttle_within_module_updates_state_and_emits_one_shuttle() {
        let d = device();
        let mut s = PlacementState::new(&d);
        let zones = d.zones_in_module(ModuleId(0));
        let optical = zones[0].id;
        let storage = zones[2].id;
        s.place(&d, q(0), storage);
        let ops = s.shuttle(&d, q(0), optical);
        assert_eq!(ops.len(), 1);
        assert!(ops[0].is_shuttle());
        assert_eq!(s.zone_of(q(0)), Some(optical));
        assert_eq!(s.occupancy(storage), 0);
    }

    #[test]
    fn shuttle_from_chain_middle_emits_rearrangements() {
        let d = device();
        let mut s = PlacementState::new(&d);
        let zones = d.zones_in_module(ModuleId(0));
        let storage = zones[2].id;
        let operation = zones[1].id;
        for i in 0..4 {
            s.place(&d, q(i), storage);
        }
        // q1 sits at index 1 of a 4-ion chain: one rearrangement to reach the edge.
        let ops = s.shuttle(&d, q(1), operation);
        let rearrangements = ops
            .iter()
            .filter(|o| matches!(o, ScheduledOp::ChainRearrange { .. }))
            .count();
        assert_eq!(rearrangements, 1);
        assert_eq!(ops.len(), 2);
    }

    #[test]
    fn edge_ions_shuttle_without_rearrangement() {
        let d = device();
        let mut s = PlacementState::new(&d);
        let zones = d.zones_in_module(ModuleId(0));
        let storage = zones[2].id;
        let operation = zones[1].id;
        for i in 0..3 {
            s.place(&d, q(i), storage);
        }
        let ops = s.shuttle(&d, q(2), operation);
        assert_eq!(ops.len(), 1);
    }

    #[test]
    #[should_panic(expected = "destination")]
    fn shuttling_into_a_full_zone_panics() {
        let d = device();
        let mut s = PlacementState::new(&d);
        let zones = d.zones_in_module(ModuleId(0));
        for i in 0..4 {
            s.place(&d, q(i), zones[0].id);
        }
        s.place(&d, q(4), zones[1].id);
        let _ = s.shuttle(&d, q(4), zones[0].id);
    }

    #[test]
    fn lru_victim_ignores_protected_and_prefers_oldest() {
        let d = device();
        let mut s = PlacementState::new(&d);
        let zone = d.zones()[0].id;
        for i in 0..3 {
            s.place(&d, q(i), zone);
        }
        s.touch(q(0), 10);
        s.touch(q(1), 5);
        s.touch(q(2), 20);
        assert_eq!(s.lru_victim(zone, &[]), Some(q(1)));
        assert_eq!(s.lru_victim(zone, &[q(1)]), Some(q(0)));
        assert_eq!(s.lru_victim(zone, &[q(0), q(1), q(2)]), None);
    }

    #[test]
    fn lru_victim_handles_mask_collisions() {
        let d = device();
        let mut s = PlacementState::new(&d);
        let zone = d.zones()[0].id;
        // q64 aliases q0 in the 64-bit mask (64 & 63 == 0): the slice scan
        // must still distinguish them.
        s.place(&d, q(0), zone);
        s.place(&d, q(64), zone);
        s.touch(q(0), 1);
        s.touch(q(64), 2);
        assert_eq!(s.lru_victim(zone, &[q(0)]), Some(q(64)));
        assert_eq!(s.lru_victim(zone, &[q(64)]), Some(q(0)));
    }

    #[test]
    fn every_zone_change_is_logged_once_until_drained() {
        let d = device();
        let zones = d.zones_in_module(ModuleId(0));
        let m1_optical = d.zones_in_module(ModuleId(1))[0].id;
        let mut s = PlacementState::from_mapping(
            &d,
            &[(q(0), zones[2].id), (q(1), zones[0].id), (q(2), m1_optical)],
        );
        let drained = |s: &mut PlacementState| {
            let mut moved = Vec::new();
            s.drain_moved(|qubit| moved.push(qubit));
            moved
        };
        assert_eq!(drained(&mut s), [q(0), q(1), q(2)], "initial placement");
        assert!(drained(&mut s).is_empty());
        let mut ops = Vec::new();
        s.shuttle_into(&d, q(0), zones[1].id, &mut ops);
        s.shuttle_into(&d, q(0), zones[0].id, &mut ops);
        s.shuttle_into(&d, q(1), zones[0].id, &mut ops); // same zone: no move
        s.touch(q(1), 3);
        assert_eq!(drained(&mut s), [q(0)]);
        s.swap_logical(q(1), q(2));
        assert_eq!(drained(&mut s), [q(1), q(2)]);
    }

    #[test]
    fn swap_logical_exchanges_positions() {
        let d = device();
        let mut s = PlacementState::new(&d);
        let m0_optical = d.zones_in_module(ModuleId(0))[0].id;
        let m1_optical = d.zones_in_module(ModuleId(1))[0].id;
        s.place(&d, q(0), m0_optical);
        s.place(&d, q(1), m1_optical);
        s.swap_logical(q(0), q(1));
        assert_eq!(s.zone_of(q(0)), Some(m1_optical));
        assert_eq!(s.zone_of(q(1)), Some(m0_optical));
        assert_eq!(s.chain(m0_optical), &[q(1)]);
    }

    #[test]
    fn zones_with_space_prefers_higher_levels() {
        let d = device();
        let s = PlacementState::new(&d);
        let zones = s.zones_with_space(&d, ModuleId(0), None);
        assert_eq!(d.zone(zones[0]).level, ZoneLevel::Optical);
        assert_eq!(zones.len(), 4);
        let gate_capable = s.zones_with_space(&d, ModuleId(0), Some(ZoneLevel::Operation));
        assert_eq!(gate_capable.len(), 2);
    }

    #[test]
    fn mapping_is_sorted_by_qubit() {
        let d = device();
        let mut s = PlacementState::new(&d);
        let zone = d.zones()[0].id;
        s.place(&d, q(2), zone);
        s.place(&d, q(0), zone);
        let mapping = s.mapping();
        assert_eq!(mapping[0].0, q(0));
        assert_eq!(mapping[1].0, q(2));
    }

    #[test]
    fn reset_from_mapping_matches_fresh_build() {
        let d = device();
        let zones = d.zones_in_module(ModuleId(0));
        let first = vec![
            (q(0), zones[0].id),
            (q(1), zones[2].id),
            (q(2), zones[0].id),
        ];
        let second = vec![(q(0), zones[1].id), (q(3), zones[0].id)];

        let mut reused = PlacementState::from_mapping(&d, &first);
        reused.touch(q(1), 42);
        let mut ops = Vec::new();
        reused.shuttle_into(&d, q(1), zones[1].id, &mut ops);
        reused.reset_from_mapping(&d, &second);

        let fresh = PlacementState::from_mapping(&d, &second);
        assert_eq!(reused.mapping(), fresh.mapping());
        for zone in d.zones() {
            assert_eq!(reused.chain(zone.id), fresh.chain(zone.id), "{}", zone.id);
        }
        for i in 0..4 {
            assert_eq!(reused.last_use(q(i)), fresh.last_use(q(i)), "q{i}");
            assert_eq!(reused.zone_of(q(i)), fresh.zone_of(q(i)), "q{i}");
        }
        assert_eq!(
            reused.module_occupancy(ModuleId(0)),
            fresh.module_occupancy(ModuleId(0))
        );
    }

    #[test]
    fn shuttle_into_appends_to_an_existing_buffer() {
        let d = device();
        let zones = d.zones_in_module(ModuleId(0));
        let mut s = PlacementState::from_mapping(&d, &[(q(0), zones[2].id)]);
        let mut ops = vec![ScheduledOp::ChainRearrange { zone: 99 }];
        s.shuttle_into(&d, q(0), zones[0].id, &mut ops);
        assert_eq!(ops.len(), 2, "appended after the existing entry");
        assert!(ops[1].is_shuttle());
        // A same-zone shuttle appends nothing.
        s.shuttle_into(&d, q(0), zones[0].id, &mut ops);
        assert_eq!(ops.len(), 2);
    }

    #[test]
    fn from_mapping_round_trips() {
        let d = device();
        let zone = d.zones()[0].id;
        let mapping = vec![(q(0), zone), (q(1), zone)];
        let s = PlacementState::from_mapping(&d, &mapping);
        assert_eq!(s.occupancy(zone), 2);
        assert_eq!(s.mapping(), mapping);
    }
}
