//! Gate dependency DAG used by every scheduler in the workspace.
//!
//! # Performance
//!
//! The DAG is the innermost data structure of every scheduling loop, so its
//! hot-path operations are maintained *incrementally* rather than recomputed
//! from scratch (each scheduler step costs `O(Δ)` — proportional to what
//! changed — instead of `O(n)` in the number of gates):
//!
//! * [`front`](DependencyDag::front) — `O(1)`: a borrowed slice of the
//!   maintained, program-ordered ready list; no allocation, no scan.
//! * [`ready_on`](DependencyDag::ready_on) — `O(1)`: the ready gate acting
//!   on a qubit, from a qubit-indexed view of the ready list. With it a
//!   scheduler re-examines only the front gates whose operands moved instead
//!   of rescanning the whole front layer every step.
//! * [`mark_executed_into`](DependencyDag::mark_executed_into) —
//!   `O(out-degree + |front|)` worst case (ordered insertion into the ready
//!   list): retiring a gate touches only its direct successors and appends
//!   newly-ready nodes to a caller-supplied buffer, so the scheduling loop
//!   allocates nothing in steady state. `ready_on` is updated in `O(1)` per
//!   retired or newly-ready gate.
//! * [`lookahead_layers`](DependencyDag::lookahead_layers) /
//!   [`next_use_depth`](DependencyDag::next_use_depth) /
//!   [`count_window_partners`](DependencyDag::count_window_partners) /
//!   [`for_each_window_gate`](DependencyDag::for_each_window_gate) — while a
//!   [`WindowDeltaTracker`] subscription is armed
//!   ([`arm_window_tracker`](DependencyDag::arm_window_tracker), which the
//!   schedulers do once per pass), these are served straight from the
//!   tracker's capped-depth array and its per-qubit member index: the
//!   indexed queries are `O(gates-on-qubit-in-window)` with **no** window
//!   refresh at all, because depth `< k` membership is provably identical to
//!   first-`k`-layers membership and same-qubit window gates are chained, so
//!   node-id order *is* layer order. Unarmed, the queries fall back to the
//!   original amortised-`O(Δ)` cached [`LookaheadWindow`]: the first `k`
//!   layers are computed once by layered BFS and invalidated only when a
//!   window gate retires (`O(window)` per refresh, allocation-free once
//!   warm). The BFS path doubles as the oracle the armed path is
//!   equivalence-tested against.
//! * [`sync_window_delta`](DependencyDag::sync_window_delta) /
//!   [`for_each_window_partner`](DependencyDag::for_each_window_partner) —
//!   the incremental feed of the SWAP-insertion weight table: an armed
//!   [`WindowDeltaTracker`] maintains each gate's capped longest-path depth
//!   at retirement time and records which gates entered and left the
//!   `k`-window (pooled buffers, armed only once a consumer subscribes), so
//!   the table applies `O(Δ)` bumps per fiber gate without forcing a
//!   `O(window)` BFS refresh.
//! * [`reset`](DependencyDag::reset) /
//!   [`reset_reversed`](DependencyDag::reset_reversed) — `O(n + edges)`
//!   rewind (respectively: rewind *and* flip the edge orientation, yielding
//!   the DAG of the reversed circuit) reusing every allocation, so the SABRE
//!   two-fold search performs one structural DAG build per compile.
//! * [`successors`](DependencyDag::successors) /
//!   [`predecessors`](DependencyDag::predecessors) — `O(1)`: borrowed slices,
//!   no allocation.
//!
//! A deliberately naive reference implementation ([`NaiveDag`]) is retained
//! for the equivalence test suite; it is the executable specification the
//! incremental structure is checked against.

// lint: hot-path

use std::cell::RefCell;
use std::collections::HashMap; // lint: allow (NaiveDag reference implementation)

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

/// Outcome of [`DependencyDag::sync_window_delta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSync {
    /// The callback received the exact entered/left record since the epoch
    /// the caller passed in; the caller is now synced at the carried epoch.
    Delta(u64),
    /// The record since the caller's epoch was unavailable (first sync, DAG
    /// reset, different `k`, or a competing consumer); no callbacks ran — the
    /// caller must rebuild from the full window, after which it is synced at
    /// the carried epoch.
    Rebuild(u64),
}

impl WindowSync {
    /// The window epoch the consumer is synced at after this call.
    pub fn epoch(self) -> u64 {
        match self {
            WindowSync::Delta(epoch) | WindowSync::Rebuild(epoch) => epoch,
        }
    }
}

/// The cached first-`k`-layers window of the remaining DAG, plus the
/// per-qubit indexes the schedulers query against it.
///
/// The window is owned by the [`DependencyDag`] and refreshed lazily: queries
/// hit the cache until a gate inside the window retires (which, for any
/// non-empty window, is exactly when a gate is executed — executed gates are
/// always front-layer members, i.e. layer 0). Between retirements an
/// arbitrary number of affinity / next-use / weight-table queries share one
/// window computation, which is what makes the scheduling loop `O(Δ)` per
/// step instead of `O(n)` per query.
#[derive(Debug, Clone)]
struct LookaheadWindow {
    /// The `k` this window was computed for (`None` = never computed).
    valid_k: Option<usize>,
    /// Set when a window member retires; forces a refresh on next query.
    dirty: bool,
    /// Window node ids in layer order (CSR payload): the nodes of layer `d`
    /// are `layer_nodes[layer_ends[d-1]..layer_ends[d]]`, sorted ascending
    /// (program order). Flat storage keeps the per-retirement refresh
    /// allocation-free — no nested `Vec<Vec<_>>` churn.
    layer_nodes: Vec<usize>,
    /// CSR offsets: `layer_ends[d]` is the end index of layer `d` in
    /// `layer_nodes`; `layer_ends.len()` is the number of layers.
    layer_ends: Vec<usize>,
    /// First window layer using each qubit (`usize::MAX` = not in window).
    next_use_depth: Vec<usize>,
    /// Per qubit: `(layer depth, partner qubit)` for every window gate on it,
    /// in layer order.
    partners: Vec<Vec<(usize, usize)>>,
    /// Qubits whose `next_use_depth` / `partners` entries are live (so a
    /// refresh clears `O(window)` entries, not `O(num_qubits)`).
    touched_qubits: Vec<usize>,
    /// Generation stamp marking window membership (`member_gen[i] ==
    /// generation` ⇔ node `i` is in the current window).
    member_gen: Vec<u32>,
    /// Generation-stamped scratch: virtual predecessor counts for the BFS.
    pred_gen: Vec<u32>,
    virtual_preds: Vec<usize>,
    generation: u32,
    /// Number of BFS recomputations over the DAG's lifetime (diagnostic: the
    /// bench reports it per compile; the armed tracker path never bumps it).
    refreshes: u64,
}

impl LookaheadWindow {
    fn new(num_nodes: usize, num_qubits: usize) -> Self {
        LookaheadWindow {
            valid_k: None,
            dirty: false,
            layer_nodes: Vec::new(), // lint: allow (pooled-buffer setup, grown once and recycled)
            layer_ends: Vec::new(),  // lint: allow (pooled-buffer setup, grown once and recycled)
            next_use_depth: vec![usize::MAX; num_qubits], // lint: allow (pooled-buffer setup, grown once and recycled)
            partners: vec![Vec::new(); num_qubits], // lint: allow (pooled-buffer setup, grown once and recycled)
            touched_qubits: Vec::new(), // lint: allow (pooled-buffer setup, grown once and recycled)
            member_gen: vec![0; num_nodes], // lint: allow (pooled-buffer setup, grown once and recycled)
            pred_gen: vec![0; num_nodes], // lint: allow (pooled-buffer setup, grown once and recycled)
            virtual_preds: vec![0; num_nodes], // lint: allow (pooled-buffer setup, grown once and recycled)
            generation: 0,
            refreshes: 0,
        }
    }

    /// `true` if `node` belongs to the currently cached window.
    fn contains(&self, node: usize) -> bool {
        self.valid_k.is_some() && self.member_gen[node] == self.generation
    }

    /// Recomputes the window by layered BFS from the ready list.
    ///
    /// Costs `O(window + frontier-out-degree)`; the generation stamps make
    /// the scratch arrays reusable without an `O(n)` clear or clone, and the
    /// CSR layer layout means a warm refresh performs no allocation at all.
    fn refresh(
        &mut self,
        k: usize,
        ready: &[DagNodeId],
        successors: &[Vec<DagNodeId>],
        unexecuted_preds: &[usize],
        gates: &[Gate],
    ) {
        self.refreshes += 1;
        self.generation = self.generation.wrapping_add(1);
        let generation = self.generation;
        for &q in &self.touched_qubits {
            self.next_use_depth[q] = usize::MAX;
            self.partners[q].clear();
        }
        self.touched_qubits.clear();
        self.layer_nodes.clear();
        self.layer_ends.clear();
        self.valid_k = Some(k);
        self.dirty = false;
        if k == 0 {
            return;
        }

        // Layer 0 is the ready list (already program-ordered).
        self.layer_nodes.extend(ready.iter().map(|n| n.index()));
        let mut start = 0usize;
        while start < self.layer_nodes.len() && self.layer_ends.len() < k {
            let depth = self.layer_ends.len();
            let end = self.layer_nodes.len();
            for idx in start..end {
                let node = self.layer_nodes[idx];
                self.member_gen[node] = generation;
                let (a, b) = gates[node]
                    .two_qubit_pair()
                    .expect("DAG nodes are always two-qubit gates");
                for (q, p) in [(a.index(), b.index()), (b.index(), a.index())] {
                    if self.next_use_depth[q] == usize::MAX {
                        self.next_use_depth[q] = depth;
                        self.touched_qubits.push(q);
                    }
                    self.partners[q].push((depth, p));
                }
            }
            // Expanding the frontier past the final kept layer would be pure
            // waste (the loop above never visits it), so skip it there.
            if depth + 1 < k {
                for idx in start..end {
                    let node = self.layer_nodes[idx];
                    for &succ in &successors[node] {
                        let s = succ.index();
                        if self.pred_gen[s] != generation {
                            self.pred_gen[s] = generation;
                            self.virtual_preds[s] = unexecuted_preds[s];
                        }
                        self.virtual_preds[s] -= 1;
                        if self.virtual_preds[s] == 0 {
                            self.layer_nodes.push(s);
                        }
                    }
                }
                self.layer_nodes[end..].sort_unstable();
            }
            self.layer_ends.push(end);
            start = end;
        }
    }

    /// The nodes of window layer `depth` (CSR slice).
    fn layer(&self, depth: usize) -> &[usize] {
        let start = if depth == 0 {
            0
        } else {
            self.layer_ends[depth - 1]
        };
        &self.layer_nodes[start..self.layer_ends[depth]]
    }

    /// Number of layers in the cached window.
    fn num_layers(&self) -> usize {
        self.layer_ends.len()
    }
}

/// Incremental window-membership tracker: the delta feed behind
/// [`DependencyDag::sync_window_delta`].
///
/// A gate belongs to the first `k` look-ahead layers iff its *longest-path
/// depth* over unexecuted predecessors (`depth(g) = 1 + max depth(unexecuted
/// preds)`, ready gates at 0) is `< k` — exactly the membership the
/// [`LookaheadWindow`] BFS computes. Retiring gates only removes constraints,
/// so depths are **monotone non-increasing**; the tracker stores each
/// unexecuted gate's depth capped at `k` and, on every retirement, repairs
/// just the affected cone by a min-heap worklist in node-id order (node ids
/// are a topological order, so every predecessor's depth is final when a node
/// is popped). Each node's capped depth can decrease at most `k` times over a
/// whole pass, which bounds the total maintenance work at `O(n · k ·
/// pred-degree)` — independent of how often the consumer syncs — and
/// membership transitions are emitted into the pooled `entered`/`left`
/// buffers as they happen, with **no** window refresh on the sync path.
///
/// The tracker is disarmed until a consumer subscribes (and again after every
/// [`reset`](DependencyDag::reset)), so passes that never consult it — e.g.
/// the baseline schedulers' passes — pay nothing.
///
/// Besides the entered/left event record, the tracker maintains a per-qubit
/// **member index** (`gates_on`): the unexecuted window members touching each
/// qubit, sorted ascending by node id. Same-qubit gates form a dependency
/// chain, so along one qubit's list the (capped) depths are strictly
/// increasing — id order *is* layer order, the first element gives the
/// qubit's next-use depth, and a retiring (ready) member is always its
/// operands' list head. This is what lets the armed [`DependencyDag`] window
/// queries answer without ever refreshing the BFS window.
#[derive(Debug, Clone)]
struct WindowDeltaTracker {
    /// `false` ⇒ no bookkeeping at all; `depth`/`entered`/`left` are stale.
    armed: bool,
    /// The `k` the tracker is armed for.
    k: usize,
    /// Rebase counter handed to the consumer (0 is never handed out, so a
    /// fresh consumer's 0 always misses). Monotone across resets.
    token: u64,
    /// `min(longest-path depth, k)` per node; only unexecuted entries are
    /// meaningful.
    depth: Vec<usize>,
    /// Membership transitions since the consumer's last drain.
    entered: Vec<usize>,
    left: Vec<usize>,
    /// Per qubit: the unexecuted window members (`depth < k`) touching it,
    /// ascending by node id (= ascending depth; see the type-level docs). A
    /// gate with equal operands appears twice in that one list, mirroring the
    /// BFS partner index exactly.
    gates_on: Vec<Vec<usize>>,
    /// Pooled min-heap worklist for the depth-repair cone.
    worklist: std::collections::BinaryHeap<std::cmp::Reverse<usize>>,
    /// Generation-stamped dedup for worklist pushes (one generation per
    /// retirement).
    queued_gen: Vec<u32>,
    generation: u32,
}

impl WindowDeltaTracker {
    fn new() -> Self {
        WindowDeltaTracker {
            armed: false,
            k: 0,
            token: 0,
            depth: Vec::new(), // lint: allow (pooled-buffer setup, grown once and recycled)
            entered: Vec::new(), // lint: allow (pooled-buffer setup, grown once and recycled)
            left: Vec::new(),  // lint: allow (pooled-buffer setup, grown once and recycled)
            gates_on: Vec::new(), // lint: allow (pooled-buffer setup, grown once and recycled)
            worklist: std::collections::BinaryHeap::new(),
            queued_gen: Vec::new(), // lint: allow (pooled-buffer setup, grown once and recycled)
            generation: 0,
        }
    }

    /// Drops the subscription (reset paths); allocations are kept.
    fn disarm(&mut self) {
        self.armed = false;
        self.entered.clear();
        self.left.clear();
    }

    /// (Re)arms the tracker for `k`: recomputes every unexecuted gate's
    /// capped depth in one topological sweep (node-id order), rebuilds the
    /// per-qubit member index and starts a fresh accumulation. `O(n + edges)`,
    /// allocation-free once warm.
    fn arm(
        &mut self,
        k: usize,
        predecessors: &[Vec<DagNodeId>],
        executed: &[bool],
        gates: &[Gate],
        num_qubits: usize,
    ) {
        let n = predecessors.len();
        self.depth.clear();
        self.depth.resize(n, 0);
        if self.queued_gen.len() < n {
            self.queued_gen.resize(n, 0);
        }
        for list in &mut self.gates_on {
            list.clear();
        }
        if self.gates_on.len() < num_qubits {
            self.gates_on.resize_with(num_qubits, Vec::new);
        }
        for i in 0..n {
            if executed[i] {
                continue;
            }
            let mut depth = 0usize;
            for &p in &predecessors[i] {
                if !executed[p.0] {
                    depth = depth.max(self.depth[p.0] + 1);
                }
            }
            let depth = depth.min(k);
            self.depth[i] = depth;
            if depth < k {
                // Ascending `i` keeps every per-qubit list sorted by id.
                let (a, b) = gates[i]
                    .two_qubit_pair()
                    .expect("DAG nodes are always two-qubit gates");
                self.gates_on[a.index()].push(i);
                self.gates_on[b.index()].push(i);
            }
        }
        self.entered.clear();
        self.left.clear();
        self.armed = true;
        self.k = k;
        self.token += 1;
    }

    /// Restarts the consumer accumulation without recomputing depths or the
    /// member index (both are maintained exactly while armed): clears the
    /// event record and bumps the token, so stale consumer epochs can never
    /// match. `O(Δ)` — this is the cheap path [`DependencyDag::sync_window_delta`]
    /// takes when a consumer (re)subscribes to an already-armed window.
    fn rebase(&mut self) {
        debug_assert!(self.armed);
        self.entered.clear();
        self.left.clear();
        self.token += 1;
    }

    /// Retirement hook: records `node` leaving the window (it is ready, so
    /// its depth is 0) and repairs the depths of its affected cone, emitting
    /// `entered` events — and mirroring both transitions into the per-qubit
    /// member index — for gates whose capped depth crosses below `k`.
    fn on_retire(
        &mut self,
        node: usize,
        successors: &[Vec<DagNodeId>],
        predecessors: &[Vec<DagNodeId>],
        executed: &[bool],
        gates: &[Gate],
    ) {
        debug_assert!(self.armed);
        debug_assert_eq!(self.depth[node], 0, "retired gates are ready");
        if self.k > 0 {
            self.left.push(node);
            let (a, b) = gates[node]
                .two_qubit_pair()
                .expect("DAG nodes are always two-qubit gates");
            self.remove_member(a.index(), node);
            self.remove_member(b.index(), node);
        }
        self.generation = self.generation.wrapping_add(1);
        let generation = self.generation;
        // `enqueue_if_lowered` computes a candidate's depth from its
        // (possibly still-shrinking) predecessors and enqueues it only when
        // the value dropped — the common no-change successor costs one
        // predecessor scan and zero heap traffic. A node skipped now is
        // re-examined if one of its predecessors later lowers, so nothing is
        // missed.
        for &succ in &successors[node] {
            self.enqueue_if_lowered(succ.0, generation, predecessors, executed);
        }
        while let Some(std::cmp::Reverse(i)) = self.worklist.pop() {
            // All predecessors have smaller ids, so by min-heap order their
            // depths are final here.
            let mut depth = 0usize;
            for &p in &predecessors[i] {
                if !executed[p.0] {
                    depth = depth.max(self.depth[p.0] + 1);
                }
            }
            let depth = depth.min(self.k);
            if depth >= self.depth[i] {
                debug_assert_eq!(depth, self.depth[i], "depths never increase");
                continue;
            }
            if self.depth[i] >= self.k && depth < self.k {
                self.entered.push(i);
                let (a, b) = gates[i]
                    .two_qubit_pair()
                    .expect("DAG nodes are always two-qubit gates");
                self.insert_member(a.index(), i);
                self.insert_member(b.index(), i);
            }
            self.depth[i] = depth;
            for &succ in &successors[i] {
                self.enqueue_if_lowered(succ.0, generation, predecessors, executed);
            }
        }
    }

    /// Enqueues `i` for depth repair iff its depth recomputed from the
    /// current predecessor values is lower than its stored one (stamped so a
    /// node sits in the worklist at most once per retirement).
    fn enqueue_if_lowered(
        &mut self,
        i: usize,
        generation: u32,
        predecessors: &[Vec<DagNodeId>],
        executed: &[bool],
    ) {
        if self.queued_gen[i] == generation {
            return;
        }
        let mut depth = 0usize;
        for &p in &predecessors[i] {
            if !executed[p.0] {
                depth = depth.max(self.depth[p.0] + 1);
            }
        }
        if depth.min(self.k) < self.depth[i] {
            self.queued_gen[i] = generation;
            self.worklist.push(std::cmp::Reverse(i));
        }
    }

    /// Removes `node` from `qubit`'s member list. The retiring gate is ready,
    /// so by the chain argument it is the list head; the position scan (at
    /// most `k` entries) keeps the index exact even if that reasoning were
    /// ever violated.
    fn remove_member(&mut self, qubit: usize, node: usize) {
        let list = &mut self.gates_on[qubit];
        let pos = list
            .iter()
            .position(|&g| g == node)
            .expect("a retiring window member is indexed on both operands");
        debug_assert_eq!(pos, 0, "a retiring (ready) member is its list head");
        list.remove(pos);
    }

    /// Inserts `node` into `qubit`'s member list, keeping it id-sorted
    /// (binary search + shift over at most `k` entries; allocation-free once
    /// the list's capacity has grown to the pass's peak membership).
    fn insert_member(&mut self, qubit: usize, node: usize) {
        let list = &mut self.gates_on[qubit];
        let pos = list.partition_point(|&g| g < node);
        list.insert(pos, node);
    }

    /// `qubit`'s next-use depth: the depth of its smallest-id window member
    /// (= its shallowest; id order is depth order along one qubit's chain).
    fn next_use_depth(&self, qubit: usize) -> Option<usize> {
        self.gates_on
            .get(qubit)?
            .first()
            .map(|&node| self.depth[node])
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
/// * [`front`](DependencyDag::front) — gates with no unexecuted predecessor,
///   in program order (for FCFS tie-breaking), as a borrowed slice of the
///   maintained ready list ([`front_layer`](DependencyDag::front_layer) is
///   the allocating wrapper);
/// * [`mark_executed_into`](DependencyDag::mark_executed_into) — retire a
///   gate and append newly-ready successors to a caller-supplied buffer
///   ([`mark_executed`](DependencyDag::mark_executed) is the allocating
///   wrapper);
/// * [`lookahead_layers`](DependencyDag::lookahead_layers) and the indexed
///   window queries ([`next_use_depth`](DependencyDag::next_use_depth),
///   [`count_window_partners`](DependencyDag::count_window_partners),
///   [`for_each_window_gate`](DependencyDag::for_each_window_gate)) — the
///   first `k` layers of the *remaining* DAG, used by the SWAP-insertion
///   weight table and the locality heuristics.
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
    /// Index of each gate in the *current-orientation* circuit gate list.
    original_indices: Vec<usize>,
    /// Total gate count (all arities) of the originating circuit; needed to
    /// remap `original_indices` when the orientation flips.
    total_gates: usize,
    /// successors[i] = nodes that depend on node i.
    successors: Vec<Vec<DagNodeId>>,
    /// predecessors[i] = nodes that node i depends on.
    predecessors: Vec<Vec<DagNodeId>>,
    /// Number of unexecuted predecessors for each node.
    unexecuted_preds: Vec<usize>,
    executed: Vec<bool>,
    remaining: usize,
    num_qubits: usize,
    /// Maintained front layer: unexecuted nodes with no unexecuted
    /// predecessor, kept sorted ascending (= program order, since ids are
    /// program order). A plain sorted `Vec` so [`front`](DependencyDag::front)
    /// is a borrowed slice and insert/remove never allocate in steady state.
    ready: Vec<DagNodeId>,
    /// `ready_on[q]` is the ready node acting on qubit `q`, if any: the
    /// qubit-indexed view of `ready`. Two ready gates never share a qubit
    /// (the later one would depend on the earlier), so one slot per qubit
    /// suffices; maintained in `O(1)` per change alongside `ready`.
    ready_on: Vec<Option<DagNodeId>>,
    /// Pooled per-qubit last-user scratch for in-place edge rebuilds
    /// (`usize::MAX` = no user yet).
    build_scratch: Vec<usize>,
    /// Cached look-ahead window (interior mutability so `&self` query methods
    /// can refresh it lazily).
    window: RefCell<LookaheadWindow>,
    /// Incremental window-membership tracker (interior mutability so the
    /// `&self` sync entry point can rebase it).
    tracker: RefCell<WindowDeltaTracker>,
}

impl DependencyDag {
    /// Builds the dependency DAG over the two-qubit gates of `circuit`.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut gates = Vec::new(); // lint: allow (one-time construction, not the scheduling loop)
        let mut original_indices = Vec::new(); // lint: allow (one-time construction, not the scheduling loop)
        for (i, g) in circuit.gates().iter().enumerate() {
            if g.is_two_qubit() {
                gates.push(g.clone()); // lint: allow (one-time construction, not the scheduling loop)
                original_indices.push(i);
            }
        }
        let n = gates.len();
        let window = RefCell::new(LookaheadWindow::new(n, circuit.num_qubits()));
        let mut dag = DependencyDag {
            gates,
            original_indices,
            total_gates: circuit.len(),
            successors: vec![Vec::new(); n], // lint: allow (one-time construction, not the scheduling loop)
            predecessors: vec![Vec::new(); n], // lint: allow (one-time construction, not the scheduling loop)
            unexecuted_preds: vec![0; n], // lint: allow (one-time construction, not the scheduling loop)
            executed: vec![false; n], // lint: allow (one-time construction, not the scheduling loop)
            remaining: n,
            num_qubits: circuit.num_qubits(),
            ready: Vec::new(), // lint: allow (one-time construction, not the scheduling loop)
            ready_on: vec![None; circuit.num_qubits()], // lint: allow (one-time construction, not the scheduling loop)
            build_scratch: Vec::new(), // lint: allow (one-time construction, not the scheduling loop)
            window,
            tracker: RefCell::new(WindowDeltaTracker::new()),
        };
        dag.rebuild_edges();
        dag.reset();
        dag
    }

    /// (Re)derives the successor/predecessor lists from the current `gates`
    /// order, reusing the edge-list and scratch allocations.
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
            }
        }
    }

    /// Restores the DAG to its freshly-built state — every gate unexecuted,
    /// the ready list back to the zero-predecessor gates, the cached
    /// look-ahead window invalidated — while keeping every allocation
    /// (edge lists, window scratch, per-qubit indexes).
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
        self.ready.clear();
        let unexecuted_preds = &self.unexecuted_preds;
        self.ready.extend(
            (0..self.gates.len())
                .filter(|&i| unexecuted_preds[i] == 0)
                .map(DagNodeId),
        );
        self.ready_on.fill(None);
        for i in 0..self.ready.len() {
            self.set_ready_on(self.ready[i]);
        }
        let window = self.window.get_mut();
        window.valid_k = None;
        window.dirty = false;
        // The rewind invalidates any delta subscription (the consumer's
        // token stays un-reusable because `token` is never rewound).
        self.tracker.get_mut().disarm();
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
        // Node i of the flipped DAG is gate `total_gates - 1 - o` of the
        // reversed circuit's full gate list, where `o` was its index in the
        // forward list (single-qubit gates shift positions too).
        self.original_indices.reverse();
        for original in &mut self.original_indices {
            *original = self.total_gates - 1 - *original;
        }
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

    /// The index of this gate in the original circuit's gate list.
    pub fn original_index(&self, node: DagNodeId) -> usize {
        self.original_indices[node.0]
    }

    /// `true` if a node has already been executed.
    pub fn is_executed(&self, node: DagNodeId) -> bool {
        self.executed[node.0]
    }

    /// Nodes with no unexecuted predecessors, in program order (FCFS order),
    /// as a borrowed slice of the maintained ready list.
    ///
    /// `O(1)`, allocation-free: this is the scheduling hot loop's view of the
    /// front layer.
    pub fn front(&self) -> &[DagNodeId] {
        &self.ready
    }

    /// Nodes with no unexecuted predecessors, in program order (FCFS order).
    ///
    /// Thin allocating wrapper over [`front`](DependencyDag::front); prefer
    /// the borrowed slice on hot paths.
    pub fn front_layer(&self) -> Vec<DagNodeId> {
        self.front().to_vec() // lint: allow (documented allocating wrapper; hot paths use the pooled form)
    }

    /// The oldest (program-order first) ready node, if any.
    ///
    /// `O(1)`; equivalent to `front().first()`.
    pub fn front_gate(&self) -> Option<DagNodeId> {
        self.ready.first().copied()
    }

    /// The ready (front-layer) node acting on `qubit`, or `None` if no ready
    /// gate touches it (or the qubit is outside the register).
    ///
    /// `O(1)`: a read of the maintained qubit-indexed view of the ready list.
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
    /// `O(out-degree + |front|)` worst case (ordered ready-list insertion),
    /// allocation-free in steady state; also invalidates the cached
    /// look-ahead window iff the node was inside it.
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
        let pos = self
            .ready
            .binary_search(&node)
            .expect("a zero-predecessor unexecuted node is in the ready list");
        self.ready.remove(pos);
        let (a, b) = self.operands(node);
        self.ready_on[a.index()] = None;
        self.ready_on[b.index()] = None;
        for i in 0..self.successors[node.0].len() {
            let succ = self.successors[node.0][i];
            self.unexecuted_preds[succ.0] -= 1;
            if self.unexecuted_preds[succ.0] == 0 && !self.executed[succ.0] {
                let pos = self.ready.partition_point(|&r| r < succ);
                self.ready.insert(pos, succ);
                self.set_ready_on(succ);
                newly_ready.push(succ);
            }
        }
        // A retired gate was ready, so it sits in layer 0 of any non-empty
        // cached window; the membership check handles the k = 0 / stale-k
        // cases without a spurious refresh.
        let window = self.window.get_mut();
        if window.contains(node.0) {
            window.dirty = true;
        }
        // Armed delta subscription: record the departure and repair the
        // affected cone's depths (amortised `O(k · pred-degree)` per node
        // over a whole pass; skipped entirely while disarmed).
        let DependencyDag {
            tracker,
            successors,
            predecessors,
            executed,
            gates,
            ..
        } = self;
        let tracker = tracker.get_mut();
        if tracker.armed {
            tracker.on_retire(node.0, successors, predecessors, executed, gates);
        }
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

    /// Ensures the cached window is fresh for `k`, refreshing it if it is
    /// stale (a member gate retired) or was built for a different `k`.
    ///
    /// The mutable borrow is confined to this method so that query callbacks
    /// (run under a shared borrow) may re-enter window queries *for the same
    /// `k`* without tripping the `RefCell`. Re-entering with a *different*
    /// `k` would invalidate the window mid-iteration and still panics.
    fn ensure_window(&self, k: usize) {
        {
            let window = self.window.borrow();
            if window.valid_k == Some(k) && !window.dirty {
                return;
            }
        }
        let mut window = self.window.borrow_mut();
        window.refresh(
            k,
            &self.ready,
            &self.successors,
            &self.unexecuted_preds,
            &self.gates,
        );
    }

    /// Runs `f` with the cached window for `k`, refreshing it first if
    /// needed. `f` runs under a shared borrow (see [`Self::ensure_window`]).
    fn with_window<R>(&self, k: usize, f: impl FnOnce(&LookaheadWindow) -> R) -> R {
        self.ensure_window(k);
        f(&self.window.borrow())
    }

    /// Arms the incremental [`WindowDeltaTracker`] for `k`, so every window
    /// query at that `k` is served from the tracker's maintained capped-depth
    /// array and per-qubit member index instead of the cached BFS window —
    /// the schedulers call this once at pass start, turning the per-retirement
    /// `O(window)` refresh into the tracker's `O(Δ)` cone repair.
    ///
    /// Answer-identical to the BFS path (pinned by the equivalence suite); a
    /// query for a *different* `k` still falls back to the BFS window. A
    /// no-op when already armed at `k`; disarmed again by every
    /// [`reset`](DependencyDag::reset) /
    /// [`reset_reversed`](DependencyDag::reset_reversed). `O(n + edges)`,
    /// allocation-free once warm.
    pub fn arm_window_tracker(&mut self, k: usize) {
        let DependencyDag {
            tracker,
            predecessors,
            executed,
            gates,
            num_qubits,
            ..
        } = self;
        let tracker = tracker.get_mut();
        if tracker.armed && tracker.k == k {
            return;
        }
        tracker.arm(k, predecessors, executed, gates, *num_qubits);
    }

    /// Number of `O(window)` BFS recomputations performed over this DAG's
    /// lifetime (diagnostic; resets do not clear it). With the tracker armed
    /// this stays flat — the bench reports it per compile to keep the next
    /// hot-path candidate visible.
    pub fn window_refreshes(&self) -> u64 {
        self.window.borrow().refreshes
    }

    /// Shared borrow of the delta tracker iff it is armed for exactly `k`
    /// (the armed query fast path). Queries may nest freely — shared borrows
    /// stack — but a [`sync_window_delta`](DependencyDag::sync_window_delta)
    /// callback must not re-enter window queries (it runs under the
    /// tracker's exclusive borrow).
    fn armed_tracker(&self, k: usize) -> Option<std::cell::Ref<'_, WindowDeltaTracker>> {
        let tracker = self.tracker.borrow();
        let armed = tracker.armed && tracker.k == k;
        armed.then_some(tracker)
    }

    /// Calls `f(depth, node)` for the unexecuted gates of each tracker depth
    /// `0..k` in ascending node-id order — exactly the BFS window's layer
    /// order, since BFS layer `d` *is* the capped-depth-`d` member set.
    /// Window depths are contiguous from 0, so the scan stops at the first
    /// empty depth; `O(n · layers)`, read-only (borrow-safe under nesting)
    /// and allocation-free. Cold path: full-window walks happen once per
    /// weight-table rebuild, not per retirement.
    fn for_each_tracked_gate(&self, tracker: &WindowDeltaTracker, mut f: impl FnMut(usize, usize)) {
        for depth in 0..tracker.k {
            let mut any = false;
            for (node, &d) in tracker.depth.iter().enumerate() {
                if d == depth && !self.executed[node] {
                    any = true;
                    f(depth, node);
                }
            }
            if !any {
                break;
            }
        }
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

    /// The first `k` layers of the remaining DAG.
    ///
    /// Layer 0 is the current front layer; layer `i+1` contains gates whose
    /// every predecessor lies in layers `0..=i` or has been executed. This is
    /// the "first *k* layers" window the SWAP-insertion weight table of
    /// Section 3.3 inspects (the paper uses `k = 8`).
    ///
    /// Amortised `O(Δ)`: served from the armed tracker's depth array when a
    /// delta subscription is live, else from the cached [`LookaheadWindow`]
    /// (the returned nesting is materialised fresh either way, so prefer the
    /// indexed queries on hot paths).
    pub fn lookahead_layers(&self, k: usize) -> Vec<Vec<DagNodeId>> {
        if let Some(tracker) = self.armed_tracker(k) {
            let mut layers: Vec<Vec<DagNodeId>> = Vec::new(); // lint: allow (cold path: materialises the returned nesting by design)
            self.for_each_tracked_gate(&tracker, |depth, node| {
                if depth == layers.len() {
                    layers.push(Vec::new()); // lint: allow (cold path: materialises the returned nesting by design)
                }
                layers[depth].push(DagNodeId(node));
            });
            return layers;
        }
        self.with_window(k, |window| {
            (0..window.num_layers())
                .map(|depth| window.layer(depth).iter().copied().map(DagNodeId).collect())
                .collect()
        })
    }

    /// The first window layer (depth) in which `qubit` is used, looking `k`
    /// layers ahead, or `None` if it does not appear in the window.
    ///
    /// `O(1)` while the tracker is armed (head of the qubit's maintained
    /// member list — no refresh at all); otherwise `O(1)` after the amortised
    /// window refresh, via the per-qubit next-use-depth index built once per
    /// refresh.
    pub fn next_use_depth(&self, k: usize, qubit: QubitId) -> Option<usize> {
        if let Some(tracker) = self.armed_tracker(k) {
            return tracker.next_use_depth(qubit.index());
        }
        self.with_window(k, |window| {
            match window.next_use_depth.get(qubit.index()).copied() {
                None | Some(usize::MAX) => None,
                Some(depth) => Some(depth),
            }
        })
    }

    /// Counts the window gates (first `k` layers) pairing `qubit` with a
    /// partner accepted by `pred`.
    ///
    /// `O(gates-on-qubit-in-window)` over the tracker's maintained member
    /// index while armed (no refresh), or after the amortised window refresh
    /// otherwise; this is the locality ("affinity") signal of Section 3.2.
    pub fn count_window_partners(
        &self,
        k: usize,
        qubit: QubitId,
        mut pred: impl FnMut(QubitId) -> bool,
    ) -> usize {
        if let Some(tracker) = self.armed_tracker(k) {
            return tracker
                .gates_on
                .get(qubit.index())
                .map(|members| {
                    members
                        .iter()
                        .filter(|&&node| pred(self.partner_of(node, qubit.index())))
                        .count()
                })
                .unwrap_or(0);
        }
        self.with_window(k, |window| {
            window
                .partners
                .get(qubit.index())
                .map(|partners| {
                    partners
                        .iter()
                        .filter(|&&(_, p)| pred(QubitId::new(p)))
                        .count()
                })
                .unwrap_or(0)
        })
    }

    /// Calls `f` with the partner qubit of every window gate (first `k`
    /// layers) on `qubit`, in layer order — one call per gate, so repeated
    /// pairs are reported repeatedly.
    ///
    /// `O(gates-on-qubit-in-window)` after the amortised window refresh, via
    /// the same per-qubit partner index behind
    /// [`count_window_partners`](DependencyDag::count_window_partners). This
    /// is the placement-churn hook of the incremental SWAP-insertion weight
    /// table: when `qubit` changes module, exactly these partners carry
    /// weight towards it and must be re-attributed. Served from the armed
    /// tracker's member index when a delta subscription is live (id order on
    /// one qubit's chain *is* layer order, so the reported sequence is
    /// identical).
    pub fn for_each_window_partner(&self, k: usize, qubit: QubitId, mut f: impl FnMut(QubitId)) {
        if let Some(tracker) = self.armed_tracker(k) {
            if let Some(members) = tracker.gates_on.get(qubit.index()) {
                for &node in members {
                    f(self.partner_of(node, qubit.index()));
                }
            }
            return;
        }
        self.with_window(k, |window| {
            if let Some(partners) = window.partners.get(qubit.index()) {
                for &(_, p) in partners {
                    f(QubitId::new(p));
                }
            }
        })
    }

    /// Reconciles the single window-delta consumer with the current
    /// `k`-window's membership (maintained incrementally by the
    /// [`WindowDeltaTracker`] — this entry point never refreshes the BFS
    /// window cache, which is what keeps the per-fiber-gate weight-table
    /// sync `O(Δ)` instead of `O(window)`):
    ///
    /// * if the tracker holds an exact entered/left record since
    ///   `synced_epoch` (the value the consumer got from its previous call),
    ///   it is replayed through `f` — `f(node, true)` for every gate that
    ///   entered the window since, `f(node, false)` for every gate that left
    ///   (a member only leaves by retiring) — and the call returns
    ///   [`WindowSync::Delta`];
    /// * otherwise (first sync, a [`reset`](DependencyDag::reset) /
    ///   [`reset_reversed`](DependencyDag::reset_reversed), a different `k`,
    ///   or another consumer rebased in between) the tracker re-arms —
    ///   `O(n + edges)` — no callbacks run, and the call returns
    ///   [`WindowSync::Rebuild`]: the caller must rebuild its state from the
    ///   full window (e.g. via
    ///   [`for_each_window_gate`](DependencyDag::for_each_window_gate), whose
    ///   BFS membership is identical to the tracker's `depth < k` rule).
    ///
    /// Either way the caller is synced at the returned epoch, which it passes
    /// back next time. The record is kept for **one** consumer: interleaving
    /// two consumers is exact but degrades every sync to a rebuild. `f` must
    /// not re-enter this method.
    ///
    /// Until the first sync arms the tracker, retirements record nothing —
    /// passes that never consult the table (e.g. the SABRE dry passes) pay
    /// zero overhead.
    pub fn sync_window_delta(
        &self,
        k: usize,
        synced_epoch: u64,
        mut f: impl FnMut(DagNodeId, bool),
    ) -> WindowSync {
        let mut tracker = self.tracker.borrow_mut();
        let tracker = &mut *tracker;
        if tracker.armed && tracker.k == k && tracker.token == synced_epoch && synced_epoch != 0 {
            // Entered before left: a gate that both entered and retired
            // between syncs then nets to zero without any weight-table cell
            // dipping below what it held at the previous sync.
            for &node in &tracker.entered {
                f(DagNodeId(node), true);
            }
            for &node in &tracker.left {
                f(DagNodeId(node), false);
            }
            tracker.entered.clear();
            tracker.left.clear();
            WindowSync::Delta(tracker.token)
        } else if tracker.armed && tracker.k == k {
            // Already armed at this k (e.g. by the scheduler's pass-start
            // `arm_window_tracker`): depths and the member index are exact,
            // only the consumer accumulation restarts — `O(Δ)`, not `O(n)`.
            tracker.rebase();
            WindowSync::Rebuild(tracker.token)
        } else {
            tracker.arm(
                k,
                &self.predecessors,
                &self.executed,
                &self.gates,
                self.num_qubits,
            );
            WindowSync::Rebuild(tracker.token)
        }
    }

    /// Calls `f` with `(layer depth, node)` for every gate in the first `k`
    /// layers, in layer order (nodes ascending within a layer).
    ///
    /// Amortised `O(window)` (armed: a read-only scan of the tracker's depth
    /// array, no refresh); used by the SWAP-insertion weight table so it
    /// never materialises the nested layer vectors.
    pub fn for_each_window_gate(&self, k: usize, mut f: impl FnMut(usize, DagNodeId)) {
        if let Some(tracker) = self.armed_tracker(k) {
            self.for_each_tracked_gate(&tracker, |depth, node| f(depth, DagNodeId(node)));
            return;
        }
        self.with_window(k, |window| {
            for depth in 0..window.num_layers() {
                for &node in window.layer(depth) {
                    f(depth, DagNodeId(node));
                }
            }
        })
    }

    /// Iterates over every (node, gate) pair in program order.
    pub fn iter(&self) -> impl Iterator<Item = (DagNodeId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (DagNodeId(i), g))
    }

    /// The direct successors of a node (`O(1)`, borrowed).
    pub fn successors(&self, node: DagNodeId) -> &[DagNodeId] {
        &self.successors[node.0]
    }

    /// The direct predecessors of a node (`O(1)`, borrowed).
    pub fn predecessors(&self, node: DagNodeId) -> &[DagNodeId] {
        &self.predecessors[node.0]
    }
}

/// The original, deliberately naive dependency-DAG bookkeeping, retained as
/// the executable specification for the equivalence test suite.
///
/// Every query recomputes from scratch: [`front_layer`](NaiveDag::front_layer)
/// scans all gates, [`lookahead_layers`](NaiveDag::lookahead_layers) clones
/// the full predecessor/executed state and re-runs the BFS. Tests drive this
/// and [`DependencyDag`] in lockstep and assert identical answers; do not use
/// it for anything performance-sensitive.
#[derive(Debug, Clone)]
pub struct NaiveDag {
    gates: Vec<Gate>,
    successors: Vec<Vec<usize>>,
    unexecuted_preds: Vec<usize>,
    executed: Vec<bool>,
    remaining: usize,
}

impl NaiveDag {
    /// Builds the naive DAG over the two-qubit gates of `circuit` (same edge
    /// construction as [`DependencyDag::from_circuit`]).
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let gates: Vec<Gate> = circuit
            .gates()
            .iter()
            .filter(|g| g.is_two_qubit())
            .cloned()
            .collect();
        let n = gates.len();
        let mut successors = vec![Vec::new(); n]; // lint: allow (naive reference)
        let mut predecessors: Vec<Vec<usize>> = vec![Vec::new(); n]; // lint: allow (naive reference)
        let mut last_user: HashMap<QubitId, usize> = HashMap::new(); // lint: allow (naive reference)
        for (i, g) in gates.iter().enumerate() {
            let (a, b) = g.two_qubit_pair().expect("two-qubit gate");
            for q in [a, b] {
                if let Some(&prev) = last_user.get(&q) {
                    if !successors[prev].contains(&i) {
                        successors[prev].push(i);
                        predecessors[i].push(prev);
                    }
                }
                last_user.insert(q, i);
            }
        }
        let unexecuted_preds = predecessors.iter().map(Vec::len).collect();
        NaiveDag {
            gates,
            successors,
            unexecuted_preds,
            executed: vec![false; n], // lint: allow (naive reference)
            remaining: n,
        }
    }

    /// Number of gates not yet executed.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// `true` once every gate has been executed.
    pub fn all_executed(&self) -> bool {
        self.remaining == 0
    }

    /// Front layer by full scan (`O(n)` on purpose).
    pub fn front_layer(&self) -> Vec<DagNodeId> {
        (0..self.gates.len())
            .filter(|&i| !self.executed[i] && self.unexecuted_preds[i] == 0)
            .map(DagNodeId)
            .collect()
    }

    /// The front-layer gate acting on `qubit`, by full scan (`O(n)` on
    /// purpose): the specification of [`DependencyDag::ready_on`].
    pub fn ready_on(&self, qubit: QubitId) -> Option<DagNodeId> {
        let front = self.front_layer(); // lint: allow (naive reference)
        front.into_iter().find(|node| {
            let (a, b) = self.gates[node.0].two_qubit_pair().expect("two-qubit gate");
            a == qubit || b == qubit
        })
    }

    /// Retires a gate (no incremental bookkeeping beyond the counters).
    ///
    /// # Panics
    ///
    /// Panics on double execution or dependency-order violations, mirroring
    /// [`DependencyDag::mark_executed`].
    pub fn mark_executed(&mut self, node: DagNodeId) {
        assert!(!self.executed[node.0], "node {node:?} executed twice");
        assert_eq!(
            self.unexecuted_preds[node.0], 0,
            "node {node:?} executed early"
        );
        self.executed[node.0] = true;
        self.remaining -= 1;
        for &succ in &self.successors[node.0] {
            self.unexecuted_preds[succ] -= 1;
        }
    }

    /// First `k` layers by cloning the full state and re-running the BFS
    /// (`O(n + window)` per call, on purpose — this is the pre-optimisation
    /// behaviour the cached window must match).
    pub fn lookahead_layers(&self, k: usize) -> Vec<Vec<DagNodeId>> {
        let mut layers = Vec::new(); // lint: allow (naive reference)
        if k == 0 {
            return layers;
        }
        let mut virtual_preds = self.unexecuted_preds.clone(); // lint: allow (naive reference)
        let mut visited = self.executed.clone(); // lint: allow (naive reference)
        let mut current: Vec<usize> = (0..self.gates.len())
            .filter(|&i| !visited[i] && virtual_preds[i] == 0)
            .collect();
        while !current.is_empty() && layers.len() < k {
            layers.push(current.iter().copied().map(DagNodeId).collect());
            for &i in &current {
                visited[i] = true;
            }
            let mut next = Vec::new(); // lint: allow (naive reference)
            for &i in &current {
                for &succ in &self.successors[i] {
                    if visited[succ] {
                        continue;
                    }
                    virtual_preds[succ] -= 1;
                    if virtual_preds[succ] == 0 {
                        next.push(succ);
                    }
                }
            }
            next.sort_unstable();
            current = next;
        }
        layers
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
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3).cx(1, 2).cx(0, 3);
        let dag = DependencyDag::from_circuit(&c);
        let layers = dag.lookahead_layers(8);
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].len(), 2);
        assert_eq!(layers[1].len(), 2);
    }

    #[test]
    fn lookahead_layers_truncate_at_k() {
        let dag = DependencyDag::from_circuit(&chain_circuit(10));
        let layers = dag.lookahead_layers(3);
        assert_eq!(layers.len(), 3);
        assert!(layers.iter().all(|l| l.len() == 1));
    }

    #[test]
    fn lookahead_after_partial_execution_starts_at_new_front() {
        let mut dag = DependencyDag::from_circuit(&chain_circuit(5));
        let first = dag.front_layer()[0];
        dag.mark_executed(first);
        let layers = dag.lookahead_layers(10);
        assert_eq!(layers.len(), 3);
        assert_eq!(layers[0][0].index(), 1);
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
        assert_eq!(dag.original_index(n), 0);
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
    fn successors_and_predecessors_are_borrowed_views() {
        let dag = DependencyDag::from_circuit(&chain_circuit(4));
        let front = dag.front_layer()[0];
        let succs: &[DagNodeId] = dag.successors(front);
        assert_eq!(succs, &[DagNodeId(1)]);
        assert_eq!(dag.predecessors(DagNodeId(1)), &[DagNodeId(0)]);
        assert!(dag.predecessors(front).is_empty());
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
        assert_eq!(dag.lookahead_layers(8).len(), 5);
        let first = dag.front_layer()[0];
        dag.mark_executed(first);
        // The cached window contained `first` (layer 0), so it must refresh.
        let layers = dag.lookahead_layers(8);
        assert_eq!(layers.len(), 4);
        assert_eq!(layers[0][0].index(), 1);
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
    fn window_cache_serves_multiple_ks() {
        let dag = DependencyDag::from_circuit(&chain_circuit(10));
        assert_eq!(dag.lookahead_layers(3).len(), 3);
        assert_eq!(dag.lookahead_layers(5).len(), 5);
        assert_eq!(dag.lookahead_layers(3).len(), 3);
    }

    #[test]
    fn reset_restores_a_fresh_dag_exactly() {
        let mut c = Circuit::new(6);
        c.cx(0, 1).cx(2, 3).cx(1, 2).cx(0, 3).cx(4, 5).cx(3, 4);
        let mut dag = DependencyDag::from_circuit(&c);
        let fresh_front = dag.front_layer();
        let fresh_layers = dag.lookahead_layers(4);

        // Drive the DAG to completion, then reset.
        while let Some(node) = dag.front_gate() {
            dag.mark_executed(node);
        }
        assert!(dag.all_executed());
        dag.reset();

        assert_eq!(dag.remaining(), dag.len());
        assert!(!dag.all_executed());
        assert_eq!(dag.front_layer(), fresh_front);
        assert_eq!(dag.lookahead_layers(4), fresh_layers);
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
        assert_eq!(dag.lookahead_layers(8), reference.lookahead_layers(8));
        assert_eq!(dag.remaining(), reference.remaining());
    }

    #[test]
    fn front_is_a_borrowed_view_of_front_layer() {
        let mut c = Circuit::new(6);
        c.cx(0, 1).cx(2, 3).cx(4, 5).cx(1, 2);
        let dag = DependencyDag::from_circuit(&c);
        let front: &[DagNodeId] = dag.front();
        assert_eq!(front, dag.front_layer().as_slice());
        assert_eq!(front.first().copied(), dag.front_gate());
        // Program order (= ascending node ids) is maintained.
        assert!(front.windows(2).all(|w| w[0] < w[1]));
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
            assert_eq!(dag.front(), twin.front());
        }
        assert_eq!(buf[0], DagNodeId(99), "existing entries stay in place");
        assert!(dag.all_executed());
    }

    /// Replays a `sync_window_delta` call into a sorted membership set.
    fn apply_delta(dag: &DependencyDag, k: usize, members: &mut Vec<usize>, epoch: u64) -> u64 {
        let sync = dag.sync_window_delta(k, epoch, |node, entered| {
            if entered {
                members.push(node.index());
            } else {
                let pos = members
                    .iter()
                    .position(|&n| n == node.index())
                    .expect("a departing gate was a member");
                members.remove(pos);
            }
        });
        if let WindowSync::Rebuild(epoch) = sync {
            members.clear();
            dag.for_each_window_gate(k, |_, node| members.push(node.index()));
            return epoch;
        }
        sync.epoch()
    }

    /// Flattens the current window into a sorted node-index set.
    fn window_members(dag: &DependencyDag, k: usize) -> Vec<usize> {
        let mut members: Vec<usize> = dag
            .lookahead_layers(k)
            .into_iter()
            .flatten()
            .map(DagNodeId::index)
            .collect();
        members.sort_unstable();
        members
    }

    #[test]
    fn window_delta_tracks_membership_across_a_full_run() {
        let mut c = Circuit::new(8);
        c.cx(0, 1).cx(2, 3).cx(4, 5).cx(6, 7);
        c.cx(1, 2).cx(5, 6).cx(3, 4).cx(0, 7).cx(2, 5);
        let mut dag = DependencyDag::from_circuit(&c);
        let k = 2;
        let mut members = Vec::new();
        // First sync is always a rebuild.
        let sync = dag.sync_window_delta(k, 0, |_, _| panic!("no callbacks on rebuild"));
        assert!(matches!(sync, WindowSync::Rebuild(_)));
        let mut epoch = apply_delta(&dag, k, &mut members, 0);
        while let Some(node) = dag.front_gate() {
            dag.mark_executed(node);
            // Touch the window between syncs so deltas accumulate across
            // multiple refreshes (the scheduler's tie-break queries do this).
            let _ = dag.next_use_depth(k, QubitId::new(0));
            epoch = apply_delta(&dag, k, &mut members, epoch);
            let mut sorted = members.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, window_members(&dag, k), "after {node:?}");
        }
        assert!(members.is_empty());
    }

    #[test]
    fn window_delta_is_exact_across_batched_refreshes() {
        // Retire several gates between syncs: the accumulated record must
        // still reconcile, including gates that entered and then retired
        // without the consumer ever seeing them as members.
        let mut dag = DependencyDag::from_circuit(&chain_circuit(12));
        let k = 3;
        let mut members = Vec::new();
        let mut epoch = apply_delta(&dag, k, &mut members, 0);
        for _ in 0..3 {
            for _ in 0..3 {
                if let Some(node) = dag.front_gate() {
                    dag.mark_executed(node);
                    // Force a refresh per retirement.
                    let _ = dag.lookahead_layers(k);
                }
            }
            let before = epoch;
            epoch = apply_delta(&dag, k, &mut members, epoch);
            assert!(epoch >= before);
            let mut sorted = members.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, window_members(&dag, k));
        }
    }

    #[test]
    fn window_delta_rebuilds_after_reset_and_k_change() {
        let mut dag = DependencyDag::from_circuit(&chain_circuit(10));
        let mut members = Vec::new();
        let epoch = apply_delta(&dag, 4, &mut members, 0);
        // A different k breaks the chain.
        let sync = dag.sync_window_delta(2, epoch, |_, _| panic!("no delta across k change"));
        assert!(matches!(sync, WindowSync::Rebuild(_)));
        // Rebase at k = 4 again, then reset: the chain breaks once more.
        let epoch = apply_delta(&dag, 4, &mut members, 0);
        dag.mark_executed(dag.front_gate().unwrap());
        dag.reset();
        let sync = dag.sync_window_delta(4, epoch, |_, _| panic!("no delta across reset"));
        assert!(matches!(sync, WindowSync::Rebuild(_)));
        members.clear();
        dag.for_each_window_gate(4, |_, node| members.push(node.index()));
        assert_eq!(members, window_members(&dag, 4));
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

    /// Drives two DAGs in lockstep and asserts every scheduler-visible query
    /// agrees at every step (FCFS order).
    fn assert_dags_equivalent(a: &mut DependencyDag, b: &mut DependencyDag) {
        assert_eq!(a.len(), b.len());
        loop {
            assert_eq!(a.front(), b.front());
            assert_eq!(a.lookahead_layers(8), b.lookahead_layers(8));
            assert_eq!(a.remaining(), b.remaining());
            for q in 0..a.num_qubits() {
                assert_eq!(
                    a.next_use_depth(8, QubitId::new(q)),
                    b.next_use_depth(8, QubitId::new(q))
                );
            }
            let Some(node) = a.front_gate() else { break };
            assert_eq!(a.operands(node), b.operands(node));
            assert_eq!(a.original_index(node), b.original_index(node));
            assert_eq!(a.successors(node), b.successors(node));
            assert_eq!(a.predecessors(node), b.predecessors(node));
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

    #[test]
    fn naive_dag_mirrors_incremental_on_a_chain() {
        let circuit = chain_circuit(8);
        let mut naive = NaiveDag::from_circuit(&circuit);
        let mut dag = DependencyDag::from_circuit(&circuit);
        while !dag.all_executed() {
            assert_eq!(dag.front_layer(), naive.front_layer());
            assert_eq!(dag.lookahead_layers(4), naive.lookahead_layers(4));
            let node = dag.front_gate().expect("non-empty front");
            dag.mark_executed(node);
            naive.mark_executed(node);
        }
        assert!(naive.all_executed());
        assert_eq!(naive.remaining(), 0);
    }
}
