//! Gate dependency DAG used by every scheduler in the workspace.
//!
//! # Performance
//!
//! The DAG is the innermost data structure of every scheduling loop, so its
//! hot-path operations are maintained *incrementally* rather than recomputed
//! from scratch (each scheduler step costs `O(Δ)` — proportional to what
//! changed — instead of `O(n)` in the number of gates):
//!
//! * [`front_gate`](DependencyDag::front_gate) — `O(1)`: the oldest ready
//!   gate is the lowest-numbered unexecuted gate (ids are program order and
//!   edges point from lower ids to higher ones), read off a cursor.
//! * [`ready_on`](DependencyDag::ready_on) — `O(1)`: the ready gate acting
//!   on a qubit, from the qubit-indexed table that is the DAG's only
//!   representation of the front. With it a scheduler re-examines only the
//!   front gates whose operands moved instead of rescanning the front.
//! * [`mark_executed_into`](DependencyDag::mark_executed_into) —
//!   `O(out-degree)` amortised (the cursor advances at most `n` steps per
//!   pass): retiring a gate touches only its direct successors and appends
//!   newly-ready nodes to a caller-supplied buffer, so the scheduling loop
//!   allocates nothing in steady state; nothing is kept sorted.
//! * [`ready_gates`](DependencyDag::ready_gates) /
//!   [`front_layer`](DependencyDag::front_layer) — the whole front from
//!   `ready_on`: `O(qubits)` unordered, or `O(qubits + |front| log |front|)`
//!   in program order (allocating; cold paths and tests).
//! * [`next_use_depth`](DependencyDag::next_use_depth) /
//!   [`count_window_partners`](DependencyDag::count_window_partners) /
//!   [`for_each_window_partner`](DependencyDag::for_each_window_partner) —
//!   answered on demand from the queried qubit's own next gates: a gate is
//!   in the first `k` layers iff its longest-path depth over unexecuted
//!   predecessors is `< k`, and that depth is computed by a capped-depth
//!   probe that visits only ancestors within `k` hops, memoised per node
//!   until the next retirement. Same-qubit gates form a dependency chain, so
//!   depth strictly increases along a qubit's gate list and a query walks
//!   the list only until the first gate at depth `≥ k`. Nothing is cached
//!   across retirements, so no `O(window)` refresh exists.
//! * [`next_partners`](DependencyDag::next_partners) — `O(1)` per item,
//!   no probe: the partners of the qubit's next `k` unexecuted
//!   gates. A qubit's window gates are a prefix of at most `k` of these, so
//!   counting over them bounds every window count from above; SWAP
//!   insertion rejects most operands on this bound alone.
//! * [`reset`](DependencyDag::reset) /
//!   [`reset_reversed`](DependencyDag::reset_reversed) — `O(n + edges)`
//!   rewind (respectively: rewind *and* flip the edge orientation, yielding
//!   the DAG of the reversed circuit) reusing every allocation, so the SABRE
//!   two-fold search performs one structural DAG build per compile.

// lint: hot-path

use std::cell::RefCell;

use crate::{Circuit, Gate, QubitId};

/// Identifier of a node in a [`DependencyDag`].
///
/// The id is stable for the lifetime of the DAG and doubles as the index of
/// the corresponding gate in the DAG's internal gate list (which preserves the
/// original program order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DagNodeId(usize);

impl DagNodeId {
    /// The raw index of this node.
    pub const fn index(self) -> usize {
        self.0
    }
}

/// Probe stack frames reserved at DAG build time: a probe for window depth
/// `k` nests at most `k` frames, so any `k ≤ 64` (the paper uses 8) never
/// grows the stack.
const PROBE_STACK_RESERVE: usize = 64;

/// One node's memoised probe result.
#[derive(Debug, Clone, Copy, Default)]
struct DepthMemo {
    /// `min(depth, cap)` for the cap the entry was computed under.
    depth: usize,
    /// Probe epoch of the entry; it is live iff this equals the probe's
    /// current epoch.
    stamp: u32,
    /// `true` if `depth` reached its cap, i.e. the true depth is at least
    /// `depth`; otherwise `depth` is exact.
    capped: bool,
}

impl DepthMemo {
    /// `min(depth, cap)` if this entry answers it.
    fn answer(self, epoch: u32, cap: usize) -> Option<usize> {
        if self.stamp != epoch {
            None
        } else if !self.capped {
            Some(self.depth.min(cap))
        } else {
            (self.depth >= cap).then_some(cap)
        }
    }
}

/// An explicit-stack frame of [`DepthProbe::depth`].
#[derive(Debug, Clone, Copy)]
struct ProbeFrame {
    node: usize,
    /// The frame answers `min(depth(node), cap)`.
    cap: usize,
    /// Next index into the node's predecessor list.
    next_pred: usize,
    /// Running `max(1 + depth(p))` over the predecessors scanned so far.
    depth: usize,
}

/// The on-demand look-ahead probe: capped longest-path depths over the
/// unexecuted gates, computed when a query asks for them.
///
/// `depth(g) = min(cap, max over unexecuted preds p of 1 + depth(p))`, ready
/// gates at 0. A frame with cap `c` asks its predecessors with cap `c - 1`
/// and stops scanning once its running maximum reaches `c`, so a query for
/// window depth `k` visits only ancestors within `k` hops. Results are
/// memoised per node under an epoch stamp that every retirement and reset
/// bumps (retiring a gate can only lower depths, so every entry goes stale
/// at once); depths are memoised with their cap, so an exact depth serves any
/// later cap and a capped one any smaller cap.
#[derive(Debug, Clone)]
struct DepthProbe {
    memo: Vec<DepthMemo>,
    epoch: u32,
    stack: Vec<ProbeFrame>,
    /// Nodes whose depth the probe computed over the DAG's lifetime (the
    /// deterministic work counter behind
    /// [`DependencyDag::window_probe_visits`]).
    visits: u64,
}

impl DepthProbe {
    fn new() -> Self {
        DepthProbe {
            memo: Vec::new(), // lint: allow (pooled-buffer setup, sized at DAG build)
            epoch: 1,
            stack: Vec::with_capacity(PROBE_STACK_RESERVE), // lint: allow (pooled-buffer setup, sized at DAG build)
            visits: 0,
        }
    }

    /// Sizes the memo for `n` nodes and invalidates it (DAG build/rebuild).
    fn resize(&mut self, n: usize) {
        self.memo.clear();
        self.memo.resize(n, DepthMemo::default());
        self.epoch = 1;
    }

    /// Drops every memoised depth in `O(1)` by bumping the epoch. On the
    /// (once per 2³² retirements) wrap the stamps are cleared, so an entry
    /// from 2³² epochs ago cannot read as live.
    fn invalidate(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            for memo in &mut self.memo {
                memo.stamp = 0;
            }
            self.epoch = 1;
        }
    }

    /// `min(depth(node), cap)` for the unexecuted `node`.
    fn depth(
        &mut self,
        node: usize,
        cap: usize,
        predecessors: &[Vec<DagNodeId>],
        unexecuted_preds: &[usize],
        executed: &[bool],
    ) -> usize {
        if cap == 0 || unexecuted_preds[node] == 0 {
            return 0;
        }
        if let Some(depth) = self.memo[node].answer(self.epoch, cap) {
            return depth;
        }
        let DepthProbe {
            memo,
            epoch,
            stack,
            visits,
            ..
        } = self;
        let epoch = *epoch;
        stack.clear();
        stack.push(ProbeFrame {
            node,
            cap,
            next_pred: 0,
            depth: 0,
        });
        loop {
            let top = stack.last_mut().expect("the probe stack holds the query");
            let preds = &predecessors[top.node];
            let mut deeper = None;
            while top.depth < top.cap && top.next_pred < preds.len() {
                let p = preds[top.next_pred].0;
                top.next_pred += 1;
                if executed[p] {
                    continue;
                }
                let cap = top.cap - 1;
                let known = if cap == 0 || unexecuted_preds[p] == 0 {
                    Some(0)
                } else {
                    memo[p].answer(epoch, cap)
                };
                match known {
                    Some(depth) => top.depth = top.depth.max(depth + 1),
                    None => {
                        deeper = Some(ProbeFrame {
                            node: p,
                            cap,
                            next_pred: 0,
                            depth: 0,
                        });
                        break;
                    }
                }
            }
            if let Some(frame) = deeper {
                stack.push(frame);
                continue;
            }
            let done = stack.pop().expect("the probe stack holds the query");
            *visits += 1;
            memo[done.node] = DepthMemo {
                depth: done.depth,
                stamp: epoch,
                capped: done.depth >= done.cap,
            };
            match stack.last_mut() {
                Some(parent) => parent.depth = parent.depth.max(done.depth + 1),
                None => return done.depth,
            }
        }
    }
}

/// Dependency graph over the *two-qubit* gates of a circuit.
///
/// Following Section 3.1 of the paper, single-qubit gates are disregarded for
/// scheduling purposes: they never require a shuttle because a qubit can be
/// driven wherever it currently sits inside an operation or optical zone. Each
/// node is a two-qubit gate; a directed edge `(gᵢ, gⱼ)` means `gⱼ` shares a
/// qubit with `gᵢ` and appears later in program order, so it may only execute
/// after `gᵢ`.
///
/// The DAG supports the operations the schedulers need (see the module-level
/// *Performance* section for the complexity contract of each):
///
/// * [`front_gate`](DependencyDag::front_gate) and
///   [`ready_on`](DependencyDag::ready_on) — the oldest ready gate (for FCFS
///   routing) and the ready gate on a qubit
///   ([`front_layer`](DependencyDag::front_layer) is the allocating,
///   program-ordered view of the whole front);
/// * [`mark_executed_into`](DependencyDag::mark_executed_into) — retire a
///   gate and append newly-ready successors to a caller-supplied buffer
///   ([`mark_executed`](DependencyDag::mark_executed) is the allocating
///   wrapper);
/// * the window queries ([`next_use_depth`](DependencyDag::next_use_depth),
///   [`count_window_partners`](DependencyDag::count_window_partners),
///   [`for_each_window_partner`](DependencyDag::for_each_window_partner)) —
///   the first `k` layers of the *remaining* DAG, used by the SWAP-insertion
///   weights and the locality heuristics.
///
/// ```
/// use ion_circuit::{Circuit, DependencyDag};
///
/// let mut c = Circuit::new(3);
/// c.cx(0, 1).cx(1, 2).cx(0, 2);
/// let mut dag = DependencyDag::from_circuit(&c);
/// assert_eq!(dag.front_layer().len(), 1);
/// let first = dag.front_layer()[0];
/// dag.mark_executed(first);
/// assert_eq!(dag.remaining(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DependencyDag {
    /// Two-qubit gates in current program order (reversed while the DAG is in
    /// its [`reset_reversed`](DependencyDag::reset_reversed) orientation).
    gates: Vec<Gate>,
    /// successors[i] = nodes that depend on node i.
    successors: Vec<Vec<DagNodeId>>,
    /// predecessors[i] = nodes that node i depends on.
    predecessors: Vec<Vec<DagNodeId>>,
    /// Number of unexecuted predecessors for each node.
    unexecuted_preds: Vec<usize>,
    executed: Vec<bool>,
    remaining: usize,
    num_qubits: usize,
    /// The lowest-numbered unexecuted node (`gates.len()` once all are
    /// executed). It is always ready: every edge points from a lower id to a
    /// higher one, so all of its predecessors are executed.
    oldest: usize,
    /// `ready_on[q]` is the ready node acting on qubit `q`, if any: the
    /// front layer, indexed by qubit. Two ready gates never share a qubit
    /// (the later one would depend on the earlier), so one slot per qubit
    /// suffices; maintained in `O(1)` per change.
    ready_on: Vec<Option<DagNodeId>>,
    /// Per-qubit gate lists in the current orientation (CSR payload): the
    /// nodes acting on qubit `q`, ascending, are
    /// `qubit_gates[qubit_starts[q]..qubit_starts[q + 1]]`.
    qubit_gates: Vec<usize>,
    qubit_starts: Vec<usize>,
    /// `qubit_cursor[q]` indexes `q`'s first unexecuted gate in
    /// `qubit_gates`. A retiring gate is ready, hence the first unexecuted
    /// gate on both its operands, so retirement advances two cursors by one.
    qubit_cursor: Vec<usize>,
    /// Pooled per-qubit last-user scratch for in-place edge rebuilds
    /// (`usize::MAX` = no user yet).
    build_scratch: Vec<usize>,
    /// On-demand look-ahead probe (interior mutability so `&self` window
    /// queries can memoise depths).
    probe: RefCell<DepthProbe>,
}

impl DependencyDag {
    /// Builds the dependency DAG over the two-qubit gates of `circuit`.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut gates = Vec::new(); // lint: allow (one-time construction, not the scheduling loop)
        for g in circuit.gates() {
            if g.is_two_qubit() {
                gates.push(g.clone()); // lint: allow (one-time construction, not the scheduling loop)
            }
        }
        let n = gates.len();
        let mut dag = DependencyDag {
            gates,
            successors: vec![Vec::new(); n], // lint: allow (one-time construction, not the scheduling loop)
            predecessors: vec![Vec::new(); n], // lint: allow (one-time construction, not the scheduling loop)
            unexecuted_preds: vec![0; n], // lint: allow (one-time construction, not the scheduling loop)
            executed: vec![false; n], // lint: allow (one-time construction, not the scheduling loop)
            remaining: n,
            num_qubits: circuit.num_qubits(),
            oldest: 0,
            ready_on: vec![None; circuit.num_qubits()], // lint: allow (one-time construction, not the scheduling loop)
            qubit_gates: Vec::with_capacity(2 * n), // lint: allow (one-time construction, not the scheduling loop)
            qubit_starts: Vec::new(), // lint: allow (one-time construction, not the scheduling loop)
            qubit_cursor: Vec::new(), // lint: allow (one-time construction, not the scheduling loop)
            build_scratch: Vec::new(), // lint: allow (one-time construction, not the scheduling loop)
            probe: RefCell::new(DepthProbe::new()),
        };
        dag.rebuild_edges();
        dag.reset();
        dag
    }

    /// (Re)derives the successor/predecessor lists and the per-qubit gate
    /// lists from the current `gates` order, reusing every allocation.
    ///
    /// `last_user[q]` = most recent node touching qubit q. Qubit ids are
    /// dense, so this is a flat pooled array rather than a hash map — DAG
    /// construction is itself on the compile hot path (the SABRE search
    /// reuses one DAG across all of its passes via this rebuild).
    fn rebuild_edges(&mut self) {
        for succs in &mut self.successors {
            succs.clear();
        }
        for preds in &mut self.predecessors {
            preds.clear();
        }
        self.build_scratch.clear();
        self.build_scratch.resize(self.num_qubits, usize::MAX);
        let last_user = &mut self.build_scratch;
        let successors = &mut self.successors;
        let predecessors = &mut self.predecessors;
        // Per-qubit gate counts, shifted by one so the prefix sum below
        // turns them into CSR offsets in place.
        self.qubit_starts.clear();
        self.qubit_starts.resize(self.num_qubits + 1, 0);
        for (i, g) in self.gates.iter().enumerate() {
            let (a, b) = g
                .two_qubit_pair()
                .expect("only two-qubit gates are inserted into the DAG");
            for q in [a, b] {
                let prev = last_user[q.index()];
                if prev != usize::MAX && !successors[prev].contains(&DagNodeId(i)) {
                    successors[prev].push(DagNodeId(i));
                    predecessors[i].push(DagNodeId(prev));
                }
                last_user[q.index()] = i;
                self.qubit_starts[q.index() + 1] += 1;
            }
        }
        for q in 0..self.num_qubits {
            self.qubit_starts[q + 1] += self.qubit_starts[q];
        }
        // Fill the lists in ascending node order, using the cursors as write
        // positions (`reset` rewinds them to the list heads afterwards).
        self.qubit_cursor.clear();
        self.qubit_cursor
            .extend_from_slice(&self.qubit_starts[..self.num_qubits]);
        self.qubit_gates.clear();
        self.qubit_gates
            .resize(self.qubit_starts[self.num_qubits], 0);
        for (i, g) in self.gates.iter().enumerate() {
            let (a, b) = g
                .two_qubit_pair()
                .expect("only two-qubit gates are inserted into the DAG");
            for q in [a.index(), b.index()] {
                self.qubit_gates[self.qubit_cursor[q]] = i;
                self.qubit_cursor[q] += 1;
            }
        }
        self.probe.get_mut().resize(self.gates.len());
    }

    /// Restores the DAG to its freshly-built state — every gate unexecuted,
    /// the front back to the zero-predecessor gates, every cursor at its
    /// head, every memoised probe depth invalidated — while keeping every
    /// allocation (edge lists, probe scratch, per-qubit indexes).
    ///
    /// `O(n)` in the number of gates; this is what lets the SABRE two-fold
    /// search and the final scheduling pass share one DAG instead of
    /// rebuilding it from scratch per pass. A reset DAG answers every query
    /// identically to a newly built one.
    pub fn reset(&mut self) {
        self.executed.fill(false);
        for (i, preds) in self.predecessors.iter().enumerate() {
            self.unexecuted_preds[i] = preds.len();
        }
        self.remaining = self.gates.len();
        self.oldest = 0;
        self.ready_on.fill(None);
        for i in 0..self.gates.len() {
            if self.unexecuted_preds[i] == 0 {
                self.set_ready_on(DagNodeId(i));
            }
        }
        self.qubit_cursor
            .copy_from_slice(&self.qubit_starts[..self.num_qubits]);
        self.probe.get_mut().invalidate();
    }

    /// Flips the DAG into the dependency DAG of the *reversed* circuit by
    /// reversing its gate order and edge orientation in place, then resetting
    /// execution state — the result answers every query identically to
    /// `DependencyDag::from_circuit(&circuit.reversed())`, without cloning
    /// the circuit or allocating a second DAG.
    ///
    /// `O(n + edges)` reusing every allocation. Calling it twice restores the
    /// forward orientation, so the SABRE two-fold search runs its forward,
    /// backward and probe passes — and hands the DAG back for the final
    /// scheduling pass — on **one** structurally-built DAG per compile.
    pub fn reset_reversed(&mut self) {
        self.gates.reverse();
        self.rebuild_edges();
        self.reset();
    }

    /// Number of two-qubit gates in the DAG (executed or not).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` if the DAG contains no two-qubit gates at all.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Number of qubits of the originating circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of gates not yet executed.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// `true` once every gate has been executed.
    pub fn all_executed(&self) -> bool {
        self.remaining == 0
    }

    /// The gate associated with a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this DAG.
    pub fn gate(&self, node: DagNodeId) -> &Gate {
        &self.gates[node.0]
    }

    /// The two qubit operands of a node's gate.
    pub fn operands(&self, node: DagNodeId) -> (QubitId, QubitId) {
        self.gates[node.0]
            .two_qubit_pair()
            .expect("DAG nodes are always two-qubit gates")
    }

    /// `true` if a node has already been executed.
    pub fn is_executed(&self, node: DagNodeId) -> bool {
        self.executed[node.0]
    }

    /// Nodes with no unexecuted predecessors, in program order (FCFS order).
    ///
    /// Cold and allocating: collects [`ready_gates`](DependencyDag::ready_gates)
    /// and sorts them, `O(qubits + |front| log |front|)`. Hot paths use
    /// [`front_gate`](DependencyDag::front_gate) and
    /// [`ready_on`](DependencyDag::ready_on).
    pub fn front_layer(&self) -> Vec<DagNodeId> {
        let mut front: Vec<DagNodeId> = self.ready_gates().collect();
        front.sort_unstable();
        front
    }

    /// Every ready (front-layer) node, once each, in no particular order.
    ///
    /// `O(qubits)`, allocation-free: each ready gate is reported from its
    /// first operand's [`ready_on`](DependencyDag::ready_on) slot. Meant for
    /// debug cross-checks of a scheduler's executable set.
    pub fn ready_gates(&self) -> impl Iterator<Item = DagNodeId> + '_ {
        self.ready_on
            .iter()
            .enumerate()
            .filter_map(move |(q, &node)| node.filter(|&n| self.operands(n).0.index() == q))
    }

    /// `true` iff `nodes` is exactly the ready gates accepted by `accept`, in
    /// program order.
    ///
    /// `O(qubits)`, allocation-free: `nodes` must be strictly ascending and
    /// each entry ready and accepted, and as many ready gates must be
    /// accepted as `nodes` holds. The schedulers' per-step debug check of
    /// their candidate-derived executable set against the whole front.
    pub fn is_filtered_front(
        &self,
        nodes: &[DagNodeId],
        mut accept: impl FnMut(DagNodeId) -> bool,
    ) -> bool {
        nodes.windows(2).all(|w| w[0] < w[1])
            && nodes
                .iter()
                .all(|&n| self.ready_on(self.operands(n).0) == Some(n) && accept(n))
            && self.ready_gates().filter(|&n| accept(n)).count() == nodes.len()
    }

    /// The oldest (program-order first) ready node, if any.
    ///
    /// `O(1)`: the lowest-numbered unexecuted node, which is always ready
    /// (see the `oldest` cursor). Equivalent to `front_layer().first()`.
    pub fn front_gate(&self) -> Option<DagNodeId> {
        (self.oldest < self.gates.len()).then_some(DagNodeId(self.oldest))
    }

    /// The ready (front-layer) node acting on `qubit`, or `None` if no ready
    /// gate touches it (or the qubit is outside the register).
    ///
    /// `O(1)`: a read of the maintained qubit-indexed front table.
    /// At most one ready node can act on a qubit — two front-layer gates
    /// never share one (the later would depend on the earlier). Schedulers
    /// use this to re-examine only the front gates whose operands moved.
    pub fn ready_on(&self, qubit: QubitId) -> Option<DagNodeId> {
        self.ready_on.get(qubit.index()).copied().flatten()
    }

    /// The ready (front-layer) node whose gate acts on exactly the qubit set
    /// `{a, b}`, in either operand order, or `None` if no ready gate touches
    /// that pair.
    ///
    /// `O(1)` via [`ready_on`](DependencyDag::ready_on). This is the replay
    /// primitive of the translation-validation analyzer (`crates/verify`),
    /// which re-executes a scheduled op stream against the source circuit's
    /// dependency order.
    pub fn ready_node_on(&self, a: QubitId, b: QubitId) -> Option<DagNodeId> {
        self.ready_on(a).filter(|&node| {
            let (x, y) = self.operands(node);
            (x == a && y == b) || (x == b && y == a)
        })
    }

    /// Points both operands' [`ready_on`](DependencyDag::ready_on) slots at
    /// `node` (which just became ready).
    fn set_ready_on(&mut self, node: DagNodeId) {
        let (a, b) = self.operands(node);
        self.ready_on[a.index()] = Some(node);
        self.ready_on[b.index()] = Some(node);
    }

    /// Marks a node as executed, unblocking its successors: the successors
    /// that became ready (front-layer members) as a result are **appended**
    /// to `newly_ready` (the buffer is not cleared, so callers can pool it).
    ///
    /// `O(out-degree)` amortised, allocation-free in steady state: also
    /// advances both operands' per-qubit cursors, moves the oldest-gate
    /// cursor past executed nodes (at most `n` steps per pass in total) and
    /// invalidates the probe's memoised depths in `O(1)`.
    ///
    /// # Panics
    ///
    /// Panics if the node is already executed or still has unexecuted
    /// predecessors (executing it would violate the dependency order).
    pub fn mark_executed_into(&mut self, node: DagNodeId, newly_ready: &mut Vec<DagNodeId>) {
        assert!(!self.executed[node.0], "node {node:?} executed twice");
        assert_eq!(
            self.unexecuted_preds[node.0], 0,
            "node {node:?} executed before its predecessors"
        );
        self.executed[node.0] = true;
        self.remaining -= 1;
        while self.oldest < self.executed.len() && self.executed[self.oldest] {
            self.oldest += 1;
        }
        let (a, b) = self.operands(node);
        for q in [a.index(), b.index()] {
            self.ready_on[q] = None;
            // A ready gate is the first unexecuted gate on each operand.
            debug_assert_eq!(self.qubit_gates[self.qubit_cursor[q]], node.0);
            self.qubit_cursor[q] += 1;
        }
        for i in 0..self.successors[node.0].len() {
            let succ = self.successors[node.0][i];
            self.unexecuted_preds[succ.0] -= 1;
            if self.unexecuted_preds[succ.0] == 0 && !self.executed[succ.0] {
                self.set_ready_on(succ);
                newly_ready.push(succ);
            }
        }
        debug_assert!(
            self.oldest == self.executed.len() || self.unexecuted_preds[self.oldest] == 0,
            "the lowest unexecuted node is ready"
        );
        self.probe.get_mut().invalidate();
    }

    /// Marks a node as executed, returning the newly-ready successors as a
    /// fresh `Vec`.
    ///
    /// Thin allocating wrapper over
    /// [`mark_executed_into`](DependencyDag::mark_executed_into); prefer the
    /// buffer-reusing form on hot paths.
    ///
    /// # Panics
    ///
    /// Same conditions as [`mark_executed_into`](DependencyDag::mark_executed_into).
    pub fn mark_executed(&mut self, node: DagNodeId) -> Vec<DagNodeId> {
        let mut newly_ready = Vec::new(); // lint: allow (documented allocating wrapper; hot paths use the pooled form)
        self.mark_executed_into(node, &mut newly_ready);
        newly_ready
    }

    /// Number of nodes whose look-ahead depth the probe computed over this
    /// DAG's lifetime (deterministic work counter; resets do not clear it).
    /// Memoised answers and ready gates cost no visit, so the count stays a
    /// small constant per two-qubit gate however wide the device — the bench
    /// reports it per compile.
    pub fn window_probe_visits(&self) -> u64 {
        self.probe.borrow().visits
    }

    /// `min(depth(node), cap)` through the probe (see [`DepthProbe`]).
    fn probe_depth(&self, probe: &mut DepthProbe, node: usize, cap: usize) -> usize {
        probe.depth(
            node,
            cap,
            &self.predecessors,
            &self.unexecuted_preds,
            &self.executed,
        )
    }

    /// The window gates on `qubit` (first `k` layers) as a range of
    /// `qubit_gates`: the list from the qubit's cursor up to its first gate
    /// at depth `≥ k`. Depth strictly increases along one qubit's chain, so
    /// that prefix is exactly the qubit's window membership, in layer order.
    /// The probe borrow ends on return, so callers may run user callbacks —
    /// including nested window queries — over the range.
    fn window_span(&self, k: usize, qubit: usize) -> std::ops::Range<usize> {
        let Some(&start) = self.qubit_cursor.get(qubit) else {
            return 0..0;
        };
        let end = self.qubit_starts[qubit + 1];
        let mut probe = self.probe.borrow_mut();
        let mut stop = start;
        while stop < end && self.probe_depth(&mut probe, self.qubit_gates[stop], k) < k {
            stop += 1;
        }
        start..stop
    }

    /// The partner operand of `node`'s gate relative to `qubit`.
    fn partner_of(&self, node: usize, qubit: usize) -> QubitId {
        let (a, b) = self.gates[node]
            .two_qubit_pair()
            .expect("DAG nodes are always two-qubit gates");
        if a.index() == qubit {
            b
        } else {
            a
        }
    }

    /// The first window layer (depth) in which `qubit` is used, looking `k`
    /// layers ahead, or `None` if it does not appear in the window.
    ///
    /// The depth of the qubit's first unexecuted gate, probed on demand
    /// (ancestors within `k` hops, memoised until the next retirement).
    pub fn next_use_depth(&self, k: usize, qubit: QubitId) -> Option<usize> {
        let q = qubit.index();
        let &start = self.qubit_cursor.get(q)?;
        if k == 0 || start == self.qubit_starts[q + 1] {
            return None;
        }
        let depth = self.probe_depth(&mut self.probe.borrow_mut(), self.qubit_gates[start], k);
        (depth < k).then_some(depth)
    }

    /// Counts the window gates (first `k` layers) pairing `qubit` with a
    /// partner accepted by `pred`.
    ///
    /// `O(gates-on-qubit-in-window)` plus the probe's visits: walks the
    /// qubit's own next gates until the first one outside the window. This
    /// is the locality ("affinity") signal of Section 3.2.
    pub fn count_window_partners(
        &self,
        k: usize,
        qubit: QubitId,
        mut pred: impl FnMut(QubitId) -> bool,
    ) -> usize {
        let span = self.window_span(k, qubit.index());
        self.qubit_gates[span]
            .iter()
            .filter(|&&node| pred(self.partner_of(node, qubit.index())))
            .count()
    }

    /// Calls `f` with the partner qubit of every window gate (first `k`
    /// layers) on `qubit`, in layer order — one call per gate, so repeated
    /// pairs are reported repeatedly.
    ///
    /// Same walk as [`count_window_partners`](DependencyDag::count_window_partners).
    /// This is the exact half of the Section 3.3 SWAP-insertion weights
    /// `W(qubit, ·)`: one call per window gate, so the partners' modules give
    /// every weight of the qubit in one walk.
    pub fn for_each_window_partner(&self, k: usize, qubit: QubitId, mut f: impl FnMut(QubitId)) {
        for &node in &self.qubit_gates[self.window_span(k, qubit.index())] {
            f(self.partner_of(node, qubit.index()));
        }
    }

    /// The partner qubits of `qubit`'s next `k` unexecuted gates, in order,
    /// found without probing.
    ///
    /// `O(1)` to start and `O(1)` per item: a slice of the qubit's gate list
    /// from its cursor. Depth strictly increases along the qubit's gates and
    /// the window holds depths `0..k`, so the window partners
    /// ([`for_each_window_partner`](DependencyDag::for_each_window_partner))
    /// are a prefix of these. Any count over them is therefore an upper
    /// bound on the same count over the window, which lets SWAP insertion
    /// rule an operand out without probing.
    pub fn next_partners(
        &self,
        k: usize,
        qubit: QubitId,
    ) -> impl ExactSizeIterator<Item = QubitId> + '_ {
        let q = qubit.index();
        let span = match self.qubit_cursor.get(q) {
            Some(&start) => start..self.qubit_starts[q + 1].min(start.saturating_add(k)),
            None => 0..0,
        };
        self.qubit_gates[span]
            .iter()
            .map(move |&node| self.partner_of(node, q))
    }

    /// Iterates over every (node, gate) pair in program order.
    pub fn iter(&self) -> impl Iterator<Item = (DagNodeId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (DagNodeId(i), g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for i in 0..n - 1 {
            c.cx(i, i + 1);
        }
        c
    }

    /// Every qubit's window partners at depth `k`, qubit-indexed: the whole
    /// first-`k`-layer window as the hot queries see it.
    fn windows(dag: &DependencyDag, k: usize) -> Vec<Vec<usize>> {
        (0..dag.num_qubits())
            .map(|q| {
                let mut partners = Vec::new();
                dag.for_each_window_partner(k, QubitId::new(q), |p| partners.push(p.index()));
                partners
            })
            .collect()
    }

    /// Number of gates in the first `k` layers (each gate is seen from both
    /// of its operands).
    fn window_size(dag: &DependencyDag, k: usize) -> usize {
        windows(dag, k).iter().map(Vec::len).sum::<usize>() / 2
    }

    #[test]
    fn ignores_single_qubit_gates() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1).h(0);
        let dag = DependencyDag::from_circuit(&c);
        assert_eq!(dag.len(), 1);
    }

    #[test]
    fn chain_has_sequential_dependencies() {
        let dag = DependencyDag::from_circuit(&chain_circuit(5));
        assert_eq!(dag.len(), 4);
        assert_eq!(dag.front_layer().len(), 1);
        assert_eq!(dag.front_layer()[0].index(), 0);
        assert_eq!(dag.front_gate(), Some(dag.front_layer()[0]));
    }

    #[test]
    fn independent_gates_are_all_in_front_layer() {
        let mut c = Circuit::new(6);
        c.cx(0, 1).cx(2, 3).cx(4, 5);
        let dag = DependencyDag::from_circuit(&c);
        assert_eq!(dag.front_layer().len(), 3);
    }

    #[test]
    fn mark_executed_unblocks_successors() {
        let mut dag = DependencyDag::from_circuit(&chain_circuit(4));
        let front = dag.front_layer();
        assert_eq!(front.len(), 1);
        let newly = dag.mark_executed(front[0]);
        assert_eq!(newly.len(), 1);
        assert_eq!(dag.remaining(), 2);
        assert!(dag.is_executed(front[0]));
    }

    #[test]
    #[should_panic(expected = "executed twice")]
    fn double_execution_panics() {
        let mut dag = DependencyDag::from_circuit(&chain_circuit(3));
        let n = dag.front_layer()[0];
        dag.mark_executed(n);
        dag.mark_executed(n);
    }

    #[test]
    #[should_panic(expected = "before its predecessors")]
    fn premature_execution_panics() {
        let mut dag = DependencyDag::from_circuit(&chain_circuit(4));
        // Node 1 depends on node 0.
        dag.mark_executed(DagNodeId(1));
    }

    #[test]
    fn lookahead_layers_respect_dependencies() {
        // Layer 0 is cx(0,1), cx(2,3); layer 1 is cx(1,2), cx(0,3).
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3).cx(1, 2).cx(0, 3);
        let dag = DependencyDag::from_circuit(&c);
        assert_eq!(window_size(&dag, 1), 2);
        assert_eq!(window_size(&dag, 8), 4);
        assert_eq!(
            windows(&dag, 8),
            [vec![1, 3], vec![0, 2], vec![3, 1], vec![2, 0]]
        );
    }

    #[test]
    fn lookahead_layers_truncate_at_k() {
        // Gate cx(i, i+1) of a chain sits in layer i.
        let dag = DependencyDag::from_circuit(&chain_circuit(10));
        assert_eq!(window_size(&dag, 3), 3);
        let depths: Vec<_> = (0..5)
            .map(|q| dag.next_use_depth(3, QubitId::new(q)))
            .collect();
        assert_eq!(depths, [Some(0), Some(0), Some(1), Some(2), None]);
    }

    #[test]
    fn lookahead_after_partial_execution_starts_at_new_front() {
        let mut dag = DependencyDag::from_circuit(&chain_circuit(5));
        let first = dag.front_layer()[0];
        dag.mark_executed(first);
        assert_eq!(window_size(&dag, 10), 3);
        assert_eq!(dag.next_use_depth(10, QubitId::new(1)), Some(0));
        assert_eq!(dag.next_use_depth(10, QubitId::new(4)), Some(2));
    }

    #[test]
    fn executing_everything_empties_the_dag() {
        let mut dag = DependencyDag::from_circuit(&chain_circuit(6));
        while !dag.all_executed() {
            let front = dag.front_layer();
            assert!(!front.is_empty(), "non-empty DAG must have a ready gate");
            dag.mark_executed(front[0]);
        }
        assert_eq!(dag.remaining(), 0);
        assert!(dag.front_layer().is_empty());
        assert_eq!(dag.front_gate(), None);
    }

    #[test]
    fn operands_match_gate() {
        let mut c = Circuit::new(3);
        c.cx(2, 0);
        let dag = DependencyDag::from_circuit(&c);
        let n = dag.front_layer()[0];
        assert_eq!(dag.operands(n), (QubitId::new(2), QubitId::new(0)));
    }

    #[test]
    fn ready_node_on_finds_the_pair_in_either_order() {
        let mut c = Circuit::new(6);
        c.cx(0, 1).cx(2, 3).cx(1, 2);
        let mut dag = DependencyDag::from_circuit(&c);
        let q = QubitId::new;
        let first = dag.ready_node_on(q(0), q(1)).expect("cx(0,1) is ready");
        assert_eq!(dag.operands(first), (q(0), q(1)));
        // Reversed query order finds the same node.
        assert_eq!(dag.ready_node_on(q(1), q(0)), Some(first));
        // cx(1,2) is blocked by both front gates, and (0,2) never interacts.
        assert_eq!(dag.ready_node_on(q(1), q(2)), None);
        assert_eq!(dag.ready_node_on(q(0), q(2)), None);
        dag.mark_executed(first);
        dag.mark_executed(dag.ready_node_on(q(2), q(3)).unwrap());
        assert!(dag.ready_node_on(q(1), q(2)).is_some());
    }

    #[test]
    fn next_use_depth_matches_layer_structure() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3).cx(1, 2).cx(0, 3);
        let dag = DependencyDag::from_circuit(&c);
        assert_eq!(dag.next_use_depth(8, QubitId::new(0)), Some(0));
        assert_eq!(dag.next_use_depth(8, QubitId::new(2)), Some(0));
        // Out-of-range qubits and k = 0 windows report no use.
        assert_eq!(dag.next_use_depth(8, QubitId::new(99)), None);
        assert_eq!(dag.next_use_depth(0, QubitId::new(0)), None);
    }

    #[test]
    fn count_window_partners_filters_by_predicate() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(0, 2).cx(0, 3);
        let dag = DependencyDag::from_circuit(&c);
        let q0 = QubitId::new(0);
        assert_eq!(dag.count_window_partners(8, q0, |_| true), 3);
        assert_eq!(dag.count_window_partners(8, q0, |p| p.index() == 2), 1);
        assert_eq!(dag.count_window_partners(1, q0, |_| true), 1);
    }

    #[test]
    fn window_cache_refreshes_after_execution() {
        let mut dag = DependencyDag::from_circuit(&chain_circuit(6));
        assert_eq!(dag.next_use_depth(8, QubitId::new(5)), Some(4));
        let first = dag.front_layer()[0];
        dag.mark_executed(first);
        // Retiring `first` (layer 0) shifts every remaining depth down by one.
        assert_eq!(dag.next_use_depth(8, QubitId::new(5)), Some(3));
        assert_eq!(window_size(&dag, 8), 4);
        assert_eq!(dag.next_use_depth(8, QubitId::new(0)), None);
        assert_eq!(dag.next_use_depth(8, QubitId::new(1)), Some(0));
    }

    #[test]
    fn window_queries_can_nest_for_the_same_k() {
        // The predicate re-enters a window query with the same k; the cache
        // must serve it under a shared borrow instead of panicking.
        let dag = DependencyDag::from_circuit(&chain_circuit(6));
        let q1 = QubitId::new(1);
        let count = dag.count_window_partners(8, q1, |p| dag.next_use_depth(8, p).is_some());
        assert_eq!(count, 2);
    }

    #[test]
    fn probe_memo_survives_epoch_wrap_around() {
        // Memoise the chain's depths, jump the epoch to the end of its range
        // and retire gates until a wrapped epoch would again equal the one
        // the depths were stamped at: the stale depth 8 must stay dead.
        let mut dag = DependencyDag::from_circuit(&chain_circuit(10));
        let last = QubitId::new(9);
        assert_eq!(dag.next_use_depth(16, last), Some(8));
        let stamped = dag.probe.borrow().epoch as usize;
        dag.probe.get_mut().epoch = u32::MAX;
        for node in 0..=stamped {
            dag.mark_executed(DagNodeId(node));
        }
        assert_eq!(dag.next_use_depth(16, last), Some(8 - (stamped + 1)));
    }

    #[test]
    fn window_cache_serves_multiple_ks() {
        let dag = DependencyDag::from_circuit(&chain_circuit(10));
        assert_eq!(window_size(&dag, 3), 3);
        assert_eq!(window_size(&dag, 5), 5);
        assert_eq!(window_size(&dag, 3), 3);
    }

    #[test]
    fn reset_restores_a_fresh_dag_exactly() {
        let mut c = Circuit::new(6);
        c.cx(0, 1).cx(2, 3).cx(1, 2).cx(0, 3).cx(4, 5).cx(3, 4);
        let mut dag = DependencyDag::from_circuit(&c);
        let fresh_front = dag.front_layer();
        let fresh_windows = windows(&dag, 4);

        // Drive the DAG to completion, then reset.
        while let Some(node) = dag.front_gate() {
            dag.mark_executed(node);
        }
        assert!(dag.all_executed());
        dag.reset();

        assert_eq!(dag.remaining(), dag.len());
        assert!(!dag.all_executed());
        assert_eq!(dag.front_layer(), fresh_front);
        assert_eq!(windows(&dag, 4), fresh_windows);
        assert_eq!(dag.next_use_depth(4, QubitId::new(0)), Some(0));

        // A second full run after reset behaves like the first.
        let mut executed = 0;
        while let Some(node) = dag.front_gate() {
            dag.mark_executed(node);
            executed += 1;
        }
        assert_eq!(executed, dag.len());
    }

    #[test]
    fn reset_midway_rewinds_partial_execution() {
        let mut dag = DependencyDag::from_circuit(&chain_circuit(7));
        let reference = DependencyDag::from_circuit(&chain_circuit(7));
        for _ in 0..3 {
            let node = dag.front_gate().unwrap();
            dag.mark_executed(node);
        }
        dag.reset();
        assert_eq!(dag.front_layer(), reference.front_layer());
        assert_eq!(windows(&dag, 8), windows(&reference, 8));
        assert_eq!(dag.remaining(), reference.remaining());
    }

    #[test]
    fn front_layer_is_program_ordered_and_led_by_front_gate() {
        let mut c = Circuit::new(6);
        c.cx(4, 5).cx(2, 3).cx(0, 1).cx(1, 2).cx(3, 4);
        let mut dag = DependencyDag::from_circuit(&c);
        let ids = |v: &[DagNodeId]| v.iter().map(|n| n.index()).collect::<Vec<_>>();
        // Gates on high qubits come first in program order: the ordered view
        // must not follow the qubit-indexed table's order.
        assert_eq!(ids(&dag.front_layer()), [0, 1, 2]);
        assert_eq!(dag.front_gate(), Some(DagNodeId(0)));
        let mut unordered: Vec<DagNodeId> = dag.ready_gates().collect();
        unordered.sort_unstable();
        assert_eq!(unordered, dag.front_layer());
        // Retiring out of program order: the oldest ready gate stays put
        // until it retires itself, then the cursor skips executed nodes.
        dag.mark_executed(DagNodeId(1));
        dag.mark_executed(DagNodeId(2));
        assert_eq!(ids(&dag.front_layer()), [0, 3]);
        assert_eq!(dag.front_gate(), Some(DagNodeId(0)));
        dag.mark_executed(DagNodeId(0));
        assert_eq!(ids(&dag.front_layer()), [3, 4]);
        assert_eq!(dag.front_gate(), Some(DagNodeId(3)));
        assert_eq!(dag.ready_gates().count(), 2);
    }

    #[test]
    fn mark_executed_into_appends_and_matches_wrapper() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3).cx(1, 2).cx(0, 3);
        let mut dag = DependencyDag::from_circuit(&c);
        let mut twin = DependencyDag::from_circuit(&c);
        let mut buf = vec![DagNodeId(99)]; // sentinel: append, don't clear
        while let Some(node) = dag.front_gate() {
            let before = buf.len();
            dag.mark_executed_into(node, &mut buf);
            let newly = twin.mark_executed(node);
            assert_eq!(&buf[before..], newly.as_slice());
            assert_eq!(dag.front_layer(), twin.front_layer());
        }
        assert_eq!(buf[0], DagNodeId(99), "existing entries stay in place");
        assert!(dag.all_executed());
    }

    #[test]
    fn for_each_window_partner_reports_one_call_per_gate() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(0, 2).cx(0, 2).cx(0, 3);
        let dag = DependencyDag::from_circuit(&c);
        let mut partners = Vec::new();
        dag.for_each_window_partner(8, QubitId::new(0), |p| partners.push(p.index()));
        assert_eq!(partners, vec![1, 2, 2, 3]);
        // Out-of-range qubits report nothing.
        dag.for_each_window_partner(8, QubitId::new(42), |_| panic!("no partners"));
    }

    #[test]
    fn next_partners_takes_the_next_k_gates_without_depth_checks() {
        // q0's second gate cx(0,2) waits behind cx(0,1) and the chain
        // cx(1,2), cx(2,3) (depth 2), so at k = 2 it lies outside the window
        // yet is among q0's next 2 gates.
        let mut c = Circuit::new(4);
        c.cx(1, 2).cx(2, 3).cx(0, 1).cx(0, 2).cx(0, 3);
        let mut dag = DependencyDag::from_circuit(&c);
        let next = |dag: &DependencyDag, k: usize| {
            let partners = dag.next_partners(k, QubitId::new(0));
            let len = partners.len();
            let partners: Vec<usize> = partners.map(QubitId::index).collect();
            assert_eq!(partners.len(), len, "exact size");
            partners
        };
        let mut window = Vec::new();
        dag.for_each_window_partner(2, QubitId::new(0), |p| window.push(p.index()));
        assert_eq!(window, vec![1]);
        assert_eq!(next(&dag, 2), vec![1, 2]);
        assert_eq!(next(&dag, 8), vec![1, 2, 3]);
        assert_eq!(next(&dag, 0), Vec::<usize>::new());
        // The walk starts at the cursor: retiring q0's first gate drops it.
        dag.mark_executed(DagNodeId(0));
        dag.mark_executed(DagNodeId(2));
        assert_eq!(next(&dag, 8), vec![2, 3]);
        assert_eq!(dag.next_partners(8, QubitId::new(42)).len(), 0);
    }

    /// Drives two DAGs in lockstep and asserts every scheduler-visible query
    /// agrees at every step (FCFS order).
    fn assert_dags_equivalent(a: &mut DependencyDag, b: &mut DependencyDag) {
        assert_eq!(a.len(), b.len());
        loop {
            assert_eq!(a.front_layer(), b.front_layer());
            assert_eq!(windows(a, 8), windows(b, 8));
            assert_eq!(a.remaining(), b.remaining());
            for q in 0..a.num_qubits() {
                assert_eq!(
                    a.next_use_depth(8, QubitId::new(q)),
                    b.next_use_depth(8, QubitId::new(q))
                );
            }
            let Some(node) = a.front_gate() else { break };
            assert_eq!(a.operands(node), b.operands(node));
            a.mark_executed(node);
            b.mark_executed(node);
        }
        assert!(a.all_executed() && b.all_executed());
    }

    #[test]
    fn reset_reversed_matches_a_dag_built_from_the_reversed_circuit() {
        let mut c = Circuit::with_name("rev", 6);
        c.h(0)
            .cx(0, 1)
            .cx(2, 3)
            .ms(1, 2)
            .h(3)
            .cx(0, 3)
            .cx(4, 5)
            .ms(3, 4);
        c.measure_all();
        let mut dag = DependencyDag::from_circuit(&c);
        // Partially drain first: reset_reversed must rewind *and* flip.
        for _ in 0..3 {
            let node = dag.front_gate().unwrap();
            dag.mark_executed(node);
        }
        dag.reset_reversed();
        let mut reference = DependencyDag::from_circuit(&c.reversed());
        assert_dags_equivalent(&mut dag, &mut reference);
    }

    #[test]
    fn reset_reversed_twice_restores_the_forward_dag() {
        let mut c = Circuit::new(5);
        c.cx(0, 1).cx(1, 2).cx(3, 4).cx(2, 3).cx(0, 4).cx(1, 3);
        let mut dag = DependencyDag::from_circuit(&c);
        dag.reset_reversed();
        dag.reset_reversed();
        let mut reference = DependencyDag::from_circuit(&c);
        assert_dags_equivalent(&mut dag, &mut reference);
    }
}
