//! The dependency-DAG oracle and its lock-step harness.
//!
//! [`NaiveDag`] is the original, deliberately naive DAG bookkeeping: every
//! query recomputes from scratch, and its layered BFS
//! ([`lookahead_layers`](NaiveDag::lookahead_layers)) is the executable
//! specification of the first `k` layers that
//! [`DependencyDag`]'s on-demand depth probe answers. It names nodes by
//! plain index, the number [`DagNodeId::index`] reports.
//!
//! [`check_drain`] is the one lock-step harness: it drains a circuit's
//! [`DependencyDag`] and a [`NaiveDag`] together under the retire order
//! [`pick`] derives from a caller's salt, in both edge orientations, and
//! compares every front view and every window query ([`check_agree`]) at
//! every step. The proptest suite in `tests/incremental_equivalence.rs`
//! passes salts from a strategy; `fuzz_smoke --diff` passes the case index.

use std::collections::HashMap;

use ion_circuit::{Circuit, DagNodeId, DependencyDag, Gate, QubitId};

/// The window depths every query is checked at: empty, single-layer,
/// shallow, the paper's 8, and windows deeper than most circuits.
pub const PROBE_KS: [usize; 6] = [0, 1, 2, 8, 12, 64];

/// The original, deliberately naive dependency DAG over a circuit's
/// two-qubit gates (`O(n)` per query on purpose; never use it for anything
/// performance-sensitive).
#[derive(Debug, Clone)]
pub struct NaiveDag {
    num_qubits: usize,
    gates: Vec<Gate>,
    successors: Vec<Vec<usize>>,
    unexecuted_preds: Vec<usize>,
    executed: Vec<bool>,
    remaining: usize,
}

impl NaiveDag {
    /// Builds the naive DAG over the two-qubit gates of `circuit` (the same
    /// edges as [`DependencyDag::from_circuit`]).
    pub fn from_circuit(circuit: &Circuit) -> Self {
        Self::from_gates(
            circuit.num_qubits(),
            circuit
                .gates()
                .iter()
                .filter(|g| g.is_two_qubit())
                .cloned()
                .collect(),
        )
    }

    /// A naive DAG in `dag`'s current state: built over its gates in their
    /// current orientation, with its executed gates retired. Program order
    /// is a valid retire order for the executed set, since a gate only
    /// executes after its (earlier) predecessors.
    pub fn replay(dag: &DependencyDag) -> Self {
        let gates = dag.iter().map(|(_, g)| g.clone()).collect();
        let mut naive = Self::from_gates(dag.num_qubits(), gates);
        for (node, _) in dag.iter() {
            if dag.is_executed(node) {
                naive.mark_executed(node.index());
            }
        }
        naive
    }

    fn from_gates(num_qubits: usize, gates: Vec<Gate>) -> Self {
        let n = gates.len();
        let mut successors = vec![Vec::new(); n];
        let mut predecessors: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut last_user: HashMap<QubitId, usize> = HashMap::new();
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
        NaiveDag {
            num_qubits,
            unexecuted_preds: predecessors.iter().map(Vec::len).collect(),
            executed: vec![false; n],
            remaining: n,
            gates,
            successors,
        }
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

    /// The two operands of `node`'s gate.
    pub fn operands(&self, node: usize) -> (QubitId, QubitId) {
        self.gates[node].two_qubit_pair().expect("two-qubit gate")
    }

    /// Every qubit's partners over its unexecuted gates, in program order.
    pub fn unexecuted_partners(&self) -> Vec<Vec<QubitId>> {
        let mut partners = vec![Vec::new(); self.num_qubits];
        for node in (0..self.gates.len()).filter(|&i| !self.executed[i]) {
            let (a, b) = self.operands(node);
            partners[a.index()].push(b);
            partners[b.index()].push(a);
        }
        partners
    }

    /// Front layer by full scan, in program order.
    pub fn front_layer(&self) -> Vec<usize> {
        (0..self.gates.len())
            .filter(|&i| !self.executed[i] && self.unexecuted_preds[i] == 0)
            .collect()
    }

    /// The front-layer gate acting on `qubit`, by full scan.
    pub fn ready_on(&self, qubit: QubitId) -> Option<usize> {
        self.front_layer().into_iter().find(|&node| {
            let (a, b) = self.operands(node);
            a == qubit || b == qubit
        })
    }

    /// Retires a gate.
    ///
    /// # Panics
    ///
    /// Panics on double execution or dependency-order violations.
    pub fn mark_executed(&mut self, node: usize) {
        assert!(!self.executed[node], "node {node} executed twice");
        assert_eq!(self.unexecuted_preds[node], 0, "node {node} executed early");
        self.executed[node] = true;
        self.remaining -= 1;
        for &succ in &self.successors[node] {
            self.unexecuted_preds[succ] -= 1;
        }
    }

    /// The first `k` layers of the remaining DAG by a layered BFS over a
    /// copy of the whole state: layer 0 is the front, layer `i + 1` the
    /// gates whose every unexecuted predecessor lies in layers `0..=i`.
    /// Nodes ascend within a layer.
    pub fn lookahead_layers(&self, k: usize) -> Vec<Vec<usize>> {
        let mut layers = Vec::new();
        let mut virtual_preds = self.unexecuted_preds.clone();
        let mut current = self.front_layer();
        while !current.is_empty() && layers.len() < k {
            let mut next = Vec::new();
            for &i in &current {
                for &succ in &self.successors[i] {
                    virtual_preds[succ] -= 1;
                    if virtual_preds[succ] == 0 {
                        next.push(succ);
                    }
                }
            }
            next.sort_unstable();
            layers.push(std::mem::replace(&mut current, next));
        }
        layers
    }
}

/// Picks the gate to retire from the front under a salted pseudo-random
/// policy, so drains exercise many execution orders, not just FCFS.
pub fn pick(front: &[DagNodeId], step: usize, salt: u64) -> DagNodeId {
    let mix = (step as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt)
        .rotate_left(17);
    front[(mix % front.len() as u64) as usize]
}

fn indices(nodes: &[DagNodeId]) -> Vec<usize> {
    nodes.iter().map(|n| n.index()).collect()
}

/// Compares `dag` with the `naive` DAG of the same circuit and progress:
/// the front views (`front_layer` in program order, `front_gate` as its
/// first entry, `ready_gates` as the same set, `ready_on` per qubit) and, at
/// every depth in `ks`, each qubit's window queries against the BFS layers:
/// `next_use_depth`, `for_each_window_partner` (layer order),
/// `count_window_partners` under an always-true and an even-partner
/// predicate, and `next_partners` (the qubit's next `k` unexecuted gates in
/// program order, of which the window partners are a prefix).
///
/// # Errors
///
/// Names the first query that disagrees.
pub fn check_agree(dag: &DependencyDag, naive: &NaiveDag, ks: &[usize]) -> Result<(), String> {
    let front = naive.front_layer();
    ensure_eq!(indices(&dag.front_layer()), front, "front_layer");
    ensure_eq!(
        dag.front_gate().map(DagNodeId::index),
        front.first().copied(),
        "front_gate"
    );
    let mut ready: Vec<usize> = dag.ready_gates().map(DagNodeId::index).collect();
    ready.sort_unstable();
    ensure_eq!(ready, front, "ready_gates");
    ensure_eq!(dag.remaining(), naive.remaining(), "remaining");
    for q in (0..dag.num_qubits()).map(QubitId::new) {
        ensure_eq!(
            dag.ready_on(q).map(DagNodeId::index),
            naive.ready_on(q),
            "ready_on({q})"
        );
    }
    if ks.is_empty() {
        return Ok(());
    }
    let even = |p: QubitId| p.index().is_multiple_of(2);
    let unexecuted = naive.unexecuted_partners();
    for &k in ks {
        // Per qubit, its window partners in layer order and its first layer.
        let mut partners = vec![Vec::new(); dag.num_qubits()];
        let mut first_layer = vec![None; dag.num_qubits()];
        for (depth, layer) in naive.lookahead_layers(k).iter().enumerate() {
            for &node in layer {
                let (a, b) = naive.operands(node);
                for (q, p) in [(a, b), (b, a)] {
                    partners[q.index()].push(p);
                    first_layer[q.index()].get_or_insert(depth);
                }
            }
        }
        for (i, expected) in partners.iter().enumerate() {
            let q = QubitId::new(i);
            ensure_eq!(
                dag.next_use_depth(k, q),
                first_layer[i],
                "next_use_depth({q}, k={k})"
            );
            let mut walked = Vec::new();
            dag.for_each_window_partner(k, q, |p| walked.push(p));
            ensure_eq!(walked, *expected, "for_each_window_partner({q}, k={k})");
            ensure_eq!(
                dag.count_window_partners(k, q, |_| true),
                expected.len(),
                "count_window_partners({q}, k={k})"
            );
            ensure_eq!(
                dag.count_window_partners(k, q, even),
                expected.iter().filter(|&&p| even(p)).count(),
                "even-partner count_window_partners({q}, k={k})"
            );
            let next: Vec<QubitId> = dag.next_partners(k, q).collect();
            ensure_eq!(
                next,
                unexecuted[i][..k.min(unexecuted[i].len())],
                "next_partners({q}, k={k})"
            );
            if !next.starts_with(expected) {
                return Err(format!(
                    "window partners of {q} (k={k}) are not a prefix of its next k partners"
                ));
            }
        }
    }
    Ok(())
}

/// Drains `circuit`'s [`DependencyDag`] and a [`NaiveDag`] in lock-step
/// under the retire order [`pick`] derives from `salt`, checking
/// [`check_agree`] at every depth of [`PROBE_KS`] before every retirement;
/// then flips the drained DAG with `reset_reversed` and repeats against a
/// naive DAG of the reversed circuit. Retirement alternates between
/// `mark_executed_into` and `mark_executed`, and the nodes either reports
/// as newly ready must be exactly the front's additions.
///
/// # Errors
///
/// Names the first divergence with its step, orientation and salt.
pub fn check_drain(circuit: &Circuit, salt: u64) -> Result<(), String> {
    let mut dag = DependencyDag::from_circuit(circuit);
    let mut newly_ready = Vec::new();
    for (orientation, source) in [
        ("forward", circuit.clone()),
        ("reversed", circuit.reversed()),
    ] {
        if orientation == "reversed" {
            dag.reset_reversed();
        }
        let mut naive = NaiveDag::from_circuit(&source);
        let mut step = 0usize;
        let context = |step| {
            format!(
                "at step {step} of '{}' ({orientation}, salt {salt})",
                circuit.name()
            )
        };
        loop {
            check_agree(&dag, &naive, &PROBE_KS).map_err(|e| format!("{e} {}", context(step)))?;
            let front = dag.front_layer();
            if front.is_empty() {
                break;
            }
            let node = pick(&front, step, salt);
            if step.is_multiple_of(2) {
                newly_ready.clear();
                dag.mark_executed_into(node, &mut newly_ready);
            } else {
                newly_ready = dag.mark_executed(node);
            }
            let mut expected: Vec<DagNodeId> = front.into_iter().filter(|&n| n != node).collect();
            expected.extend(&newly_ready);
            expected.sort_unstable();
            ensure_eq!(
                dag.front_layer(),
                expected,
                "newly-ready nodes {}",
                context(step)
            );
            naive.mark_executed(node.index());
            step += 1;
        }
        if !(dag.all_executed() && naive.all_executed()) {
            return Err(format!("drain incomplete {}", context(step)));
        }
    }
    Ok(())
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
    fn naive_dag_mirrors_incremental_on_a_chain() {
        let circuit = chain_circuit(8);
        let mut naive = NaiveDag::from_circuit(&circuit);
        let mut dag = DependencyDag::from_circuit(&circuit);
        while !dag.all_executed() {
            check_agree(&dag, &naive, &[4]).unwrap();
            let node = dag.front_gate().expect("non-empty front");
            dag.mark_executed(node);
            naive.mark_executed(node.index());
        }
        assert!(naive.all_executed());
        assert_eq!(naive.remaining(), 0);
    }

    #[test]
    fn naive_layers_respect_dependencies_and_truncate_at_k() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3).cx(1, 2).cx(0, 3);
        let naive = NaiveDag::from_circuit(&c);
        assert_eq!(naive.lookahead_layers(8), [vec![0, 1], vec![2, 3]]);
        assert_eq!(naive.lookahead_layers(1), [vec![0, 1]]);
        assert!(naive.lookahead_layers(0).is_empty());
    }

    #[test]
    fn check_agree_reports_a_stale_oracle() {
        let circuit = chain_circuit(5);
        let mut dag = DependencyDag::from_circuit(&circuit);
        let naive = NaiveDag::from_circuit(&circuit);
        dag.mark_executed(dag.front_gate().unwrap());
        let err = check_agree(&dag, &naive, &[8]).unwrap_err();
        assert!(err.starts_with("front_layer"), "{err}");
    }
}
