//! The ion-chain store every compiler schedules against: where each qubit
//! sits, the order of the ions inside each location's chain, per-qubit LRU
//! timestamps and the moved-qubit log.
//!
//! An EML-QCCD zone and a QCCD grid trap hold the same physical object, an
//! ion chain. An ion is brought to its chain's edge before it leaves, and a
//! full chain evicts its least-recently-used ion. [`ChainStore`] writes that
//! once, keyed by a typed [`Location`]: [`ZoneId`] for MUSS-TI, [`TrapId`]
//! for the grid baselines. What differs stays with each compiler: the
//! capacity of a location, the shuttle op or ops a transfer emits (one
//! intra-module hop, or one per grid hop) and where an evicted ion goes.
//!
//! Storage is flat and dense: qubit and location ids are contiguous indices,
//! so every map is a plain `Vec`, every query is an `O(1)` array read, and
//! nothing allocates once the buffers cover the register.

// lint: hot-path

use std::fmt;

use ion_circuit::QubitId;

use crate::{OpSink, ScheduledOp, TrapId, ZoneId};

/// A dense location id a [`ChainStore`] is keyed by: a zone of an EML-QCCD
/// device or a trap of a QCCD grid.
pub trait Location: Copy + Eq + fmt::Display {
    /// The location's index, below the store's location count.
    fn index(self) -> usize;
}

impl Location for ZoneId {
    #[inline]
    fn index(self) -> usize {
        self.0
    }
}

impl Location for TrapId {
    #[inline]
    fn index(self) -> usize {
        self.0
    }
}

/// Which location holds each ion, the ion chain of every location, per-qubit
/// last-use timestamps and the log of qubits whose location changed.
///
/// A scheduling loop re-examines only the front gates whose operands moved:
/// a gate's executability reads nothing but its operands' locations. So
/// every location change (placement, transfer, logical swap) is logged,
/// each qubit at most once between [`drain_moved`](ChainStore::drain_moved)
/// calls, in first-move order.
#[derive(Debug, Clone)]
pub struct ChainStore<L> {
    /// `location[q]` holds qubit `q` (grown on demand).
    location: Vec<Option<L>>,
    /// Ion chain per location, in physical order: index 0 and `len - 1` are
    /// the edges.
    chains: Vec<Vec<QubitId>>,
    /// `last_use[q]` is the logical time of the last gate on `q` (0 if
    /// never used; grown on demand).
    last_use: Vec<u64>,
    /// Moved qubits in first-move order, no duplicates.
    moved: Vec<QubitId>,
    /// `logged[q]` is `true` while `q` sits in `moved`.
    logged: Vec<bool>,
}

impl<L: Location> ChainStore<L> {
    /// An empty store over `locations` locations (no ion placed yet).
    pub fn new(locations: usize) -> Self {
        ChainStore {
            location: Vec::new(), // lint: allow (pooled-buffer setup, grown once and recycled)
            chains: vec![Vec::new(); locations], // lint: allow (pooled-buffer setup, grown once and recycled)
            last_use: Vec::new(), // lint: allow (pooled-buffer setup, grown once and recycled)
            moved: Vec::new(),    // lint: allow (pooled-buffer setup, grown once and recycled)
            logged: Vec::new(),   // lint: allow (pooled-buffer setup, grown once and recycled)
        }
    }

    /// Re-initialises the store from an explicit qubit → location
    /// assignment, placed in order, keeping every backing allocation: the
    /// result is indistinguishable from a fresh store given the same
    /// placements. Every placed qubit is logged as moved, so a scheduling
    /// loop's first step examines the whole executable front.
    ///
    /// # Panics
    ///
    /// Panics if an assignment fills a location past `capacity(location)`.
    pub fn reset(&mut self, mapping: &[(QubitId, L)], capacity: impl Fn(L) -> usize) {
        self.location.fill(None);
        for chain in &mut self.chains {
            chain.clear();
        }
        self.last_use.fill(0);
        self.drain_moved(|_| {});
        for &(qubit, at) in mapping {
            assert!(
                self.occupancy(at) < capacity(at),
                "initial mapping overfills {at}"
            );
            self.place(qubit, at);
        }
    }

    /// Grows the per-qubit arrays to cover `qubit`.
    fn ensure_qubit(&mut self, qubit: QubitId) {
        if qubit.index() >= self.location.len() {
            self.location.resize(qubit.index() + 1, None);
            self.last_use.resize(qubit.index() + 1, 0);
            self.logged.resize(qubit.index() + 1, false);
        }
    }

    /// Logs that `qubit` changed location (a no-op if it already is logged).
    fn log_move(&mut self, qubit: QubitId) {
        if !self.logged[qubit.index()] {
            self.logged[qubit.index()] = true;
            self.moved.push(qubit);
        }
    }

    /// Places a not-yet-placed qubit at the end of `at`'s chain.
    pub fn place(&mut self, qubit: QubitId, at: L) {
        self.ensure_qubit(qubit);
        debug_assert!(
            self.location[qubit.index()].is_none(),
            "{qubit} placed twice"
        );
        self.location[qubit.index()] = Some(at);
        self.chains[at.index()].push(qubit);
        self.log_move(qubit);
    }

    /// Hands every qubit whose location changed since the previous drain (or
    /// since [`reset`](ChainStore::reset)) to `f`, once each and in
    /// first-move order, and empties the log.
    pub fn drain_moved(&mut self, mut f: impl FnMut(QubitId)) {
        for &qubit in &self.moved {
            self.logged[qubit.index()] = false;
            f(qubit);
        }
        self.moved.clear();
    }

    /// The location holding `qubit`, if it has been placed (`O(1)`).
    pub fn location_of(&self, qubit: QubitId) -> Option<L> {
        self.location.get(qubit.index()).copied().flatten()
    }

    /// Number of ions in `at` (`O(1)`).
    pub fn occupancy(&self, at: L) -> usize {
        self.chains.get(at.index()).map(Vec::len).unwrap_or(0)
    }

    /// The ions in `at`, in chain order.
    pub fn chain(&self, at: L) -> &[QubitId] {
        self.chains
            .get(at.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
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

    /// The least-recently-used ion in `at` outside `protected`: the chain's
    /// minimum by `(last_use, qubit id)`, in one chain pass.
    pub fn lru_victim(&self, at: L, protected: &[QubitId]) -> Option<QubitId> {
        let protected = Protected::new(protected);
        self.chain(at)
            .iter()
            .copied()
            .filter(|&q| !protected.contains(q))
            .min_by_key(|&q| (self.last_use(q), q.index()))
    }

    /// One transfer step: emits the `min(idx, len − 1 − idx)` chain
    /// rearrangements that bring `qubit` (at chain index `idx`) to its
    /// chain's nearest edge, takes it out of its chain, appends it to the
    /// chain of `to` and logs the move. Returns the location it left; the
    /// caller emits the shuttle op or ops from there to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is unplaced, already in `to`, or `to` already
    /// holds `capacity` ions.
    pub fn transfer<S: OpSink>(
        &mut self,
        qubit: QubitId,
        to: L,
        capacity: usize,
        ops: &mut S,
    ) -> L {
        let from = self
            .location_of(qubit)
            .expect("cannot transfer an unplaced qubit");
        assert!(from != to, "{qubit} is already in {to}");
        assert!(
            self.occupancy(to) < capacity,
            "transfer destination {to} is full"
        );
        let chain = &mut self.chains[from.index()];
        let idx = chain
            .iter()
            .position(|&q| q == qubit)
            .expect("qubit is in its chain");
        for _ in 0..idx.min(chain.len() - 1 - idx) {
            ops.push_op(ScheduledOp::ChainRearrange { zone: from.index() });
        }
        chain.remove(idx); // lint: allow (a chain holds at most one location's capacity of ions)
        self.chains[to.index()].push(qubit);
        self.location[qubit.index()] = Some(to);
        self.log_move(qubit);
        from
    }

    /// Exchanges two placed ions in place: each takes the other's location
    /// and chain slot, and no op is emitted. For MUSS-TI this is the effect
    /// of an inserted cross-module SWAP (three remote MS gates, which the
    /// scheduler emits), and the only way a qubit changes module.
    ///
    /// # Panics
    ///
    /// Panics if either qubit is unplaced.
    pub fn swap_logical(&mut self, a: QubitId, b: QubitId) {
        let la = self.location_of(a).expect("swap operand must be placed");
        let lb = self.location_of(b).expect("swap operand must be placed");
        let ia = self.chains[la.index()]
            .iter()
            .position(|&q| q == a)
            .expect("a in chain");
        let ib = self.chains[lb.index()]
            .iter()
            .position(|&q| q == b)
            .expect("b in chain");
        self.chains[la.index()][ia] = b;
        self.chains[lb.index()][ib] = a;
        self.location[a.index()] = Some(lb);
        self.location[b.index()] = Some(la);
        self.log_move(a);
        self.log_move(b);
    }

    /// The qubit → location assignment, sorted by qubit (the backing array
    /// is qubit-indexed).
    pub fn mapping(&self) -> Vec<(QubitId, L)> {
        self.location
            .iter()
            .enumerate()
            .filter_map(|(q, at)| at.map(|at| (QubitId::new(q), at)))
            .collect()
    }
}

/// A protected-qubit set with a 64-bit prefilter: a mask over the qubit
/// indices mod 64 rejects the common non-member in one bit test, and the
/// slice scan runs only on a mask hit.
#[derive(Debug, Clone, Copy)]
pub struct Protected<'a> {
    mask: u64,
    qubits: &'a [QubitId],
}

impl<'a> Protected<'a> {
    /// The set of `qubits`.
    #[inline]
    pub fn new(qubits: &'a [QubitId]) -> Self {
        let mut mask = 0u64;
        for q in qubits {
            mask |= 1 << (q.index() & 63);
        }
        Protected { mask, qubits }
    }

    /// `true` if `qubit` is in the set.
    #[inline]
    pub fn contains(&self, qubit: QubitId) -> bool {
        self.mask & (1 << (qubit.index() & 63)) != 0 && self.qubits.contains(&qubit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    const A: ZoneId = ZoneId(0);
    const B: ZoneId = ZoneId(1);
    const C: ZoneId = ZoneId(2);

    /// A store over three zones of capacity 4.
    fn store(mapping: &[(QubitId, ZoneId)]) -> ChainStore<ZoneId> {
        let mut s = ChainStore::new(3);
        s.reset(mapping, |_| 4);
        s
    }

    fn drained<L: Location>(s: &mut ChainStore<L>) -> Vec<QubitId> {
        let mut moved = Vec::new();
        s.drain_moved(|qubit| moved.push(qubit));
        moved
    }

    fn transfer(s: &mut ChainStore<ZoneId>, qubit: QubitId, to: ZoneId) -> Vec<ScheduledOp> {
        let mut ops = Vec::new();
        s.transfer(qubit, to, 4, &mut ops);
        ops
    }

    #[test]
    fn place_and_lookup() {
        let mut s = store(&[]);
        s.place(q(0), A);
        assert_eq!(s.location_of(q(0)), Some(A));
        assert_eq!(s.location_of(q(1)), None);
        assert_eq!(s.occupancy(A), 1);
        assert_eq!(s.chain(A), &[q(0)]);
    }

    #[test]
    fn place_and_occupancy() {
        let mut s = ChainStore::new(6);
        s.reset(&[], |_| 4);
        s.place(q(0), TrapId(2));
        assert_eq!(s.location_of(q(0)), Some(TrapId(2)));
        assert_eq!(s.occupancy(TrapId(2)), 1);
        assert_eq!(s.occupancy(TrapId(3)), 0);
    }

    #[test]
    fn transfer_rearranges_to_the_nearest_edge_then_moves() {
        let mut s = store(&[(q(0), A), (q(1), A), (q(2), A), (q(3), A)]);
        // q1 sits at index 1 of a 4-ion chain: one rearrangement.
        assert_eq!(
            transfer(&mut s, q(1), B),
            [ScheduledOp::ChainRearrange { zone: 0 }]
        );
        assert_eq!(s.chain(A), &[q(0), q(2), q(3)]);
        assert_eq!(s.chain(B), &[q(1)]);
        assert_eq!(s.location_of(q(1)), Some(B));
        // Edge ions need none.
        assert!(transfer(&mut s, q(3), B).is_empty());
        assert!(transfer(&mut s, q(0), C).is_empty());
        assert_eq!(s.chain(B), &[q(1), q(3)]);
        // The step returns the location the ion left.
        assert_eq!(s.transfer(q(0), A, 4, &mut Vec::new()), C);
    }

    #[test]
    #[should_panic(expected = "destination")]
    fn transferring_into_a_full_location_panics() {
        let mapping: Vec<_> = (0..4).map(|i| (q(i), A)).collect();
        let mut s = store(&mapping);
        s.place(q(4), B);
        transfer(&mut s, q(4), A);
    }

    #[test]
    #[should_panic(expected = "overfills")]
    fn an_overfull_mapping_panics() {
        let mapping: Vec<_> = (0..5).map(|i| (q(i), A)).collect();
        store(&mapping);
    }

    #[test]
    fn lru_victim_ignores_protected_and_prefers_oldest() {
        let mut s = store(&[(q(0), A), (q(1), A), (q(2), A)]);
        s.touch(q(0), 10);
        s.touch(q(1), 5);
        s.touch(q(2), 20);
        assert_eq!(s.lru_victim(A, &[]), Some(q(1)));
        assert_eq!(s.lru_victim(A, &[q(1)]), Some(q(0)));
        assert_eq!(s.lru_victim(A, &[q(0), q(1), q(2)]), None);
        // Equal timestamps fall to the smaller qubit id.
        s.touch(q(2), 5);
        assert_eq!(s.lru_victim(A, &[]), Some(q(1)));
    }

    #[test]
    fn lru_victim_respects_timestamps() {
        let mut s = ChainStore::new(1);
        s.reset(&[(q(0), TrapId(0)), (q(1), TrapId(0))], |_| 2);
        s.touch(q(0), 5);
        assert_eq!(s.lru_victim(TrapId(0), &[]), Some(q(1)));
    }

    #[test]
    fn lru_victim_handles_mask_collisions() {
        // q64 and q128 alias q0 in the 64-bit mask: the slice scan must
        // still tell them apart.
        let mut s = store(&[(q(0), A), (q(64), A), (q(128), A)]);
        s.touch(q(0), 1);
        s.touch(q(64), 2);
        s.touch(q(128), 3);
        assert_eq!(s.lru_victim(A, &[q(0)]), Some(q(64)));
        assert_eq!(s.lru_victim(A, &[q(64)]), Some(q(0)));
        assert_eq!(s.lru_victim(A, &[q(0), q(64)]), Some(q(128)));
        assert!(Protected::new(&[q(64)]).contains(q(64)));
        assert!(!Protected::new(&[q(64)]).contains(q(0)));
    }

    #[test]
    fn records_each_qubit_once_in_first_move_order() {
        let mut s = store(&[(q(3), A), (q(1), B)]);
        transfer(&mut s, q(3), C);
        s.place(q(7), A);
        transfer(&mut s, q(1), A);
        assert_eq!(drained(&mut s), [q(3), q(1), q(7)]);
        assert!(drained(&mut s).is_empty());
    }

    #[test]
    fn a_drained_or_cleared_qubit_is_recorded_again() {
        let mut s = store(&[(q(2), A)]);
        s.reset(&[(q(2), B)], |_| 4);
        assert_eq!(drained(&mut s), [q(2)], "reset logs the new placement only");
        transfer(&mut s, q(2), A);
        assert_eq!(drained(&mut s), [q(2)]);
    }

    #[test]
    fn every_zone_change_is_logged_once_until_drained() {
        let mut s = store(&[(q(0), C), (q(1), A), (q(2), B)]);
        assert_eq!(drained(&mut s), [q(0), q(1), q(2)], "initial placement");
        assert!(drained(&mut s).is_empty());
        transfer(&mut s, q(0), B);
        transfer(&mut s, q(0), A);
        s.touch(q(1), 3);
        assert_eq!(drained(&mut s), [q(0)]);
        s.swap_logical(q(1), q(2));
        assert_eq!(drained(&mut s), [q(1), q(2)]);
    }

    #[test]
    fn swap_logical_exchanges_positions() {
        let mut s = store(&[(q(0), A), (q(2), A), (q(1), B)]);
        s.swap_logical(q(0), q(1));
        assert_eq!(s.location_of(q(0)), Some(B));
        assert_eq!(s.location_of(q(1)), Some(A));
        assert_eq!(s.chain(A), &[q(1), q(2)]);
        assert_eq!(s.chain(B), &[q(0)]);
    }

    #[test]
    fn mapping_is_sorted_by_qubit() {
        let s = store(&[(q(2), A), (q(0), B)]);
        assert_eq!(s.mapping(), [(q(0), B), (q(2), A)]);
    }

    #[test]
    fn from_mapping_round_trips() {
        let mapping = [(q(0), A), (q(1), A), (q(4), C)];
        let s = store(&mapping);
        assert_eq!(s.occupancy(A), 2);
        assert_eq!(s.mapping(), mapping);
    }

    #[test]
    fn reset_from_mapping_matches_fresh_build() {
        let mut reused = store(&[(q(0), A), (q(1), C), (q(2), A)]);
        reused.touch(q(1), 42);
        transfer(&mut reused, q(1), B);
        let second = [(q(0), B), (q(3), A)];
        reused.reset(&second, |_| 4);
        let mut fresh = store(&second);
        assert_eq!(reused.mapping(), fresh.mapping());
        for zone in [A, B, C] {
            assert_eq!(reused.chain(zone), fresh.chain(zone), "{zone}");
        }
        for i in 0..4 {
            assert_eq!(reused.last_use(q(i)), fresh.last_use(q(i)), "q{i}");
        }
        assert_eq!(drained(&mut reused), drained(&mut fresh));
    }
}
