//! Equivalence suite: the incremental [`DependencyDag`] (qubit-indexed
//! front, oldest-gate cursor, on-demand look-ahead probe, per-qubit gate
//! cursors) must answer
//! every query identically to the retained naive reference implementation
//! ([`NaiveDag`]) at every step of execution, across the generator suite,
//! several execution orders and both edge orientations.

use ion_circuit::{generators, Circuit, DagNodeId, DependencyDag, NaiveDag, QubitId};
use proptest::prelude::*;

/// The circuits the suite is checked on: one per generator family plus
/// random circuits under several seeds.
fn suite() -> Vec<Circuit> {
    vec![
        generators::qft(12),
        generators::ghz(16),
        generators::qaoa(16),
        generators::adder(16),
        generators::bv(16),
        generators::sqrt(14),
        generators::supremacy(16),
        generators::random_circuit(12, 80, 1),
        generators::random_circuit(16, 120, 2),
        generators::random_circuit(20, 150, 3),
    ]
}

/// Picks the next gate to retire given the front layer: a deterministic
/// pseudo-random policy (so the equivalence is exercised on many execution
/// orders, not just FCFS).
fn pick(front: &[ion_circuit::DagNodeId], step: usize, salt: u64) -> ion_circuit::DagNodeId {
    let mix = (step as u64)
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(salt)
        .rotate_left(17);
    front[(mix % front.len() as u64) as usize]
}

/// Drains `circuit`'s DAG under the given execution-order salt, asserting the
/// incremental and naive implementations agree on the front layer and on the
/// look-ahead window (for several `k`) at every step.
fn assert_equivalent_drain(circuit: &Circuit, salt: u64) {
    let mut dag = DependencyDag::from_circuit(circuit);
    let mut naive = NaiveDag::from_circuit(circuit);
    let ks = [0usize, 1, 4, 8];
    let mut step = 0usize;
    let mut newly_ready_buf = Vec::new();
    loop {
        let front = dag.front_layer();
        assert_front_matches(
            &dag,
            &naive,
            &format!("at step {step} of {}", circuit.name()),
        );
        assert_ready_on_matches(&dag, &naive, circuit, step);
        for &k in &ks {
            assert_eq!(
                dag.lookahead_layers(k),
                naive.lookahead_layers(k),
                "lookahead(k={k}) diverged at step {step} of {}",
                circuit.name()
            );
        }
        // The per-qubit next-use index must match the first layer containing
        // each qubit (derived here from the naive window).
        let naive_window = naive.lookahead_layers(8);
        for q in 0..circuit.num_qubits() {
            let qubit = QubitId::new(q);
            let expected = naive_window.iter().position(|layer| {
                layer.iter().any(|&node| {
                    let (a, b) = dag.operands(node);
                    a == qubit || b == qubit
                })
            });
            assert_eq!(
                dag.next_use_depth(8, qubit),
                expected,
                "next_use_depth({q}) diverged at step {step} of {}",
                circuit.name()
            );
        }
        if front.is_empty() {
            break;
        }
        let node = pick(&front, step, salt);
        // Alternate between the buffer-reusing primitive and its allocating
        // wrapper so both stay pinned to the same semantics; the appended
        // newly-ready nodes must be exactly the front-layer additions.
        let before: Vec<_> = front.iter().filter(|&&n| n != node).copied().collect();
        if step.is_multiple_of(2) {
            newly_ready_buf.clear();
            dag.mark_executed_into(node, &mut newly_ready_buf);
        } else {
            newly_ready_buf = dag.mark_executed(node);
        }
        let mut expected_front = before;
        expected_front.extend(newly_ready_buf.iter().copied());
        expected_front.sort_unstable();
        assert_eq!(
            dag.front_layer(),
            expected_front,
            "newly-ready nodes diverged at step {step} of {}",
            circuit.name()
        );
        naive.mark_executed(node);
        step += 1;
    }
    assert!(dag.all_executed());
    assert!(naive.all_executed());
}

/// The front views must match the naive full scan: `front_layer` exactly
/// (program order), `front_gate` as its first entry — the oldest-gate cursor
/// — and `ready_gates` as the same set, once each.
fn assert_front_matches(dag: &DependencyDag, naive: &NaiveDag, context: &str) {
    let expected = naive.front_layer();
    assert_eq!(
        dag.front_layer(),
        expected,
        "front layer diverged {context}"
    );
    assert_eq!(
        dag.front_gate(),
        expected.first().copied(),
        "front_gate diverged {context}"
    );
    let mut ready: Vec<DagNodeId> = dag.ready_gates().collect();
    ready.sort_unstable();
    assert_eq!(ready, expected, "ready_gates diverged {context}");
}

/// The qubit-indexed ready view must name, for every qubit, exactly the
/// front-layer gate the naive full scan finds on it.
fn assert_ready_on_matches(dag: &DependencyDag, naive: &NaiveDag, circuit: &Circuit, step: usize) {
    for q in 0..circuit.num_qubits() {
        let qubit = QubitId::new(q);
        assert_eq!(
            dag.ready_on(qubit),
            naive.ready_on(qubit),
            "ready_on({q}) diverged at step {step} of {}",
            circuit.name()
        );
    }
}

#[test]
fn incremental_dag_matches_naive_reference_fcfs() {
    for circuit in suite() {
        let mut dag = DependencyDag::from_circuit(&circuit);
        let mut naive = NaiveDag::from_circuit(&circuit);
        while !dag.all_executed() {
            assert_front_matches(&dag, &naive, circuit.name());
            assert_eq!(
                dag.lookahead_layers(8),
                naive.lookahead_layers(8),
                "{}",
                circuit.name()
            );
            let node = dag.front_gate().expect("non-empty DAG has a ready gate");
            dag.mark_executed(node);
            naive.mark_executed(node);
        }
        assert_eq!(naive.remaining(), 0);
    }
}

#[test]
fn incremental_dag_matches_naive_reference_random_orders() {
    for circuit in suite() {
        for salt in [7u64, 1234, 999_983] {
            assert_equivalent_drain(&circuit, salt);
        }
    }
}

#[test]
fn reset_reversed_matches_naive_reference_of_the_reversed_circuit() {
    for circuit in suite() {
        let mut dag = DependencyDag::from_circuit(&circuit);
        // Partially drain, then flip: the rewind-and-reverse must answer
        // every query like a naive DAG built from the reversed circuit.
        for _ in 0..dag.len() / 3 {
            let node = dag.front_gate().expect("non-empty front");
            dag.mark_executed(node);
        }
        dag.reset_reversed();
        let mut naive = NaiveDag::from_circuit(&circuit.reversed());
        let mut step = 0;
        while !dag.all_executed() {
            assert_front_matches(&dag, &naive, circuit.name());
            assert_ready_on_matches(&dag, &naive, &circuit, step);
            step += 1;
            assert_eq!(
                dag.lookahead_layers(8),
                naive.lookahead_layers(8),
                "{}",
                circuit.name()
            );
            let node = dag.front_gate().expect("non-empty DAG has a ready gate");
            dag.mark_executed(node);
            naive.mark_executed(node);
        }
        assert!(naive.all_executed());

        // Flipping again restores the forward orientation exactly (the DAG
        // is currently reversed, so one more flip is a round trip).
        dag.reset_reversed();
        let mut forward = NaiveDag::from_circuit(&circuit);
        while !dag.all_executed() {
            assert_front_matches(&dag, &forward, circuit.name());
            assert_ready_on_matches(&dag, &forward, &circuit, step);
            step += 1;
            let node = dag.front_gate().expect("non-empty DAG has a ready gate");
            dag.mark_executed(node);
            forward.mark_executed(node);
        }
    }
}

/// Retires up to `steps` gates of `dag` and `naive` in lockstep under the
/// pseudo-random order, checking the front views before every retirement
/// and once more at the end.
fn drain_checking_front(
    dag: &mut DependencyDag,
    naive: &mut NaiveDag,
    steps: usize,
    salt: u64,
    context: &str,
) {
    for step in 0..steps {
        assert_front_matches(dag, naive, &format!("at step {step} {context}"));
        let front = dag.front_layer();
        if front.is_empty() {
            return;
        }
        let node = pick(&front, step, salt);
        dag.mark_executed(node);
        naive.mark_executed(node);
    }
    assert_front_matches(dag, naive, &format!("after {steps} steps {context}"));
}

/// The oldest-gate cursor across rewinds: partial drains under random retire
/// orders interleaved with `reset` (same orientation) and `reset_reversed`
/// (flip), each followed by a fresh naive oracle of the circuit the DAG now
/// represents.
#[test]
fn front_cursor_matches_naive_across_resets() {
    for circuit in suite() {
        let reversed = circuit.reversed();
        let mut dag = DependencyDag::from_circuit(&circuit);
        let n = dag.len();
        for salt in [3u64, 77_777] {
            // (flip orientation on rewind, source circuit, gates to retire)
            let phases = [
                (false, &circuit, n / 2),
                (false, &circuit, n / 3),
                (true, &reversed, n),
                (false, &reversed, 2 * n / 3),
                (true, &circuit, n),
            ];
            for (phase, (flip, source, steps)) in phases.into_iter().enumerate() {
                if flip {
                    dag.reset_reversed();
                } else {
                    dag.reset();
                }
                let mut naive = NaiveDag::from_circuit(source);
                let context = format!("of {} (phase {phase}, salt {salt})", circuit.name());
                drain_checking_front(&mut dag, &mut naive, steps, salt, &context);
            }
            // The last phase drained the forward orientation completely.
            assert!(dag.all_executed());
            assert_eq!(dag.front_gate(), None);
        }
    }
}

#[test]
fn count_window_partners_matches_naive_window_scan() {
    for circuit in suite() {
        let mut dag = DependencyDag::from_circuit(&circuit);
        // Check the partner counts against a manual scan of the naive window
        // on the initial DAG and again after retiring a quarter of the gates.
        for phase in 0..2 {
            let window = naive_window_after(&dag, 8);
            for q in 0..circuit.num_qubits() {
                let qubit = QubitId::new(q);
                let expected = window
                    .iter()
                    .flatten()
                    .filter(|&&node| {
                        let (a, b) = dag.operands(node);
                        a == qubit || b == qubit
                    })
                    .count();
                assert_eq!(
                    dag.count_window_partners(8, qubit, |_| true),
                    expected,
                    "partner count diverged for q{q} in {} (phase {phase})",
                    circuit.name()
                );
            }
            if phase == 0 {
                let quarter = (dag.len() / 4).max(1);
                for _ in 0..quarter {
                    if let Some(node) = dag.front_gate() {
                        dag.mark_executed(node);
                    }
                }
            }
        }
    }
}

/// Asserts every window query of `dag` at depth `k` against the window the
/// naive layered BFS derives: the exact layer order of `lookahead_layers` and
/// `for_each_window_gate`, and per qubit `next_use_depth`,
/// `count_window_partners` (under two predicates), the exact
/// `for_each_window_partner` sequence (layer order; at most one gate per
/// layer touches a qubit) and the probe-free `next_partners` walk:
/// the qubit's next `k` unexecuted gates in program order, of which the
/// window partners are a prefix.
fn assert_window_matches_naive(dag: &DependencyDag, naive: &NaiveDag, k: usize, context: &str) {
    let layers = naive.lookahead_layers(k);
    assert_eq!(
        dag.lookahead_layers(k),
        layers,
        "lookahead_layers(k={k}) diverged {context}"
    );
    let expected_gates: Vec<(usize, DagNodeId)> = layers
        .iter()
        .enumerate()
        .flat_map(|(depth, layer)| layer.iter().map(move |&node| (depth, node)))
        .collect();
    let mut gates = Vec::new();
    dag.for_each_window_gate(k, |depth, node| gates.push((depth, node)));
    assert_eq!(
        gates, expected_gates,
        "for_each_window_gate(k={k}) diverged {context}"
    );
    let even = |p: QubitId| p.index().is_multiple_of(2);
    // Every qubit's partners over its unexecuted gates, in program order.
    let mut unexecuted_partners = vec![Vec::new(); dag.num_qubits()];
    for (node, _) in dag.iter().filter(|&(node, _)| !dag.is_executed(node)) {
        let (a, b) = dag.operands(node);
        unexecuted_partners[a.index()].push(b);
        unexecuted_partners[b.index()].push(a);
    }
    for q in 0..dag.num_qubits() {
        let qubit = QubitId::new(q);
        let mut expected_partners = Vec::new();
        let mut expected_depth = None;
        for (depth, layer) in layers.iter().enumerate() {
            for &node in layer {
                let (a, b) = dag.operands(node);
                let partner = if a == qubit {
                    b
                } else if b == qubit {
                    a
                } else {
                    continue;
                };
                expected_partners.push(partner);
                expected_depth.get_or_insert(depth);
            }
        }
        assert_eq!(
            dag.next_use_depth(k, qubit),
            expected_depth,
            "next_use_depth(q{q}, k={k}) diverged {context}"
        );
        let mut partners = Vec::new();
        dag.for_each_window_partner(k, qubit, |p| partners.push(p));
        assert_eq!(
            partners, expected_partners,
            "for_each_window_partner(q{q}, k={k}) diverged {context}"
        );
        assert_eq!(
            dag.count_window_partners(k, qubit, |_| true),
            expected_partners.len(),
            "count_window_partners(q{q}, k={k}) diverged {context}"
        );
        assert_eq!(
            dag.count_window_partners(k, qubit, even),
            expected_partners.iter().filter(|&&p| even(p)).count(),
            "filtered count_window_partners(q{q}, k={k}) diverged {context}"
        );
        let next_gates = &unexecuted_partners[q][..k.min(unexecuted_partners[q].len())];
        let next: Vec<QubitId> = dag.next_partners(k, qubit).collect();
        assert_eq!(
            next, next_gates,
            "next_partners(q{q}, k={k}) diverged {context}"
        );
        assert!(
            next.starts_with(&expected_partners),
            "window partners of q{q} (k={k}) are not a prefix of its next k partners {context}"
        );
    }
}

/// The window depths the probe is checked at: empty, single-layer, shallow,
/// the paper's 8, and windows deeper than most of the suite's circuits.
const PROBE_KS: [usize; 6] = [0, 1, 2, 8, 12, 64];

/// Drains `circuit`'s DAG in lockstep with its naive oracle under a
/// pseudo-random retire order, checking every window query at every `k` of
/// [`PROBE_KS`] at every step; then flips the drained DAG with
/// `reset_reversed` and repeats against a naive DAG of the reversed circuit.
fn assert_probe_matches_naive(circuit: &Circuit, salt: u64) {
    let mut dag = DependencyDag::from_circuit(circuit);
    for (orientation, source) in [
        ("forward", circuit.clone()),
        ("reversed", circuit.reversed()),
    ] {
        if orientation == "reversed" {
            dag.reset_reversed();
        }
        let mut naive = NaiveDag::from_circuit(&source);
        let mut step = 0usize;
        loop {
            let context = format!(
                "at step {step} of {} ({orientation}, salt {salt})",
                circuit.name()
            );
            for k in PROBE_KS {
                assert_window_matches_naive(&dag, &naive, k, &context);
            }
            assert_front_matches(&dag, &naive, &context);
            let front = dag.front_layer();
            if front.is_empty() {
                break;
            }
            let node = pick(&front, step, salt);
            dag.mark_executed(node);
            naive.mark_executed(node);
            step += 1;
        }
    }
}

#[test]
fn probe_window_matches_naive_window_on_the_generator_suite() {
    for circuit in suite() {
        assert_probe_matches_naive(&circuit, 42);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random circuits, random retire orders, both orientations, every
    /// probed window depth: the probe must stay answer-identical to the
    /// naive BFS window throughout the drain.
    #[test]
    fn probe_window_matches_naive_window_on_random_circuits(
        ((qubits, gates), (seed, salt)) in ((4usize..20, 10usize..140), (0u64..64, 0u64..1 << 60))
    ) {
        let circuit = generators::random_circuit(qubits, gates, seed);
        assert_probe_matches_naive(&circuit, salt);
    }
}

/// The naive window corresponding to `dag`'s current progress: re-derives a
/// fresh naive DAG and replays the executed set, then takes its window.
fn naive_window_after(dag: &DependencyDag, k: usize) -> Vec<Vec<ion_circuit::DagNodeId>> {
    // Replay execution into a fresh naive DAG in program order; program order
    // is a valid topological order restricted to the executed set because
    // executing a gate requires all its predecessors (earlier in program
    // order) executed first.
    let executed: Vec<ion_circuit::DagNodeId> = dag
        .iter()
        .map(|(node, _)| node)
        .filter(|&n| dag.is_executed(n))
        .collect();
    let mut naive = NaiveDag::from_circuit(&circuit_of(dag));
    for node in executed {
        naive.mark_executed(node);
    }
    naive.lookahead_layers(k)
}

/// Rebuilds a circuit with the same two-qubit gate stream as `dag` (the DAG
/// does not retain its source circuit; operands are enough for structure).
fn circuit_of(dag: &DependencyDag) -> Circuit {
    let mut c = Circuit::new(dag.num_qubits());
    for (node, _) in dag.iter() {
        let (a, b) = dag.operands(node);
        c.ms(a.index(), b.index());
    }
    c
}
