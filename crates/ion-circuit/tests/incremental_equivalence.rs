//! Equivalence suite: the incremental [`DependencyDag`] (ready-set front
//! layer, cached look-ahead window, per-qubit next-use index) must answer
//! every query identically to the retained naive reference implementation
//! ([`NaiveDag`]) at every step of execution, across the generator suite and
//! several execution orders.

use ion_circuit::{generators, Circuit, DependencyDag, NaiveDag, QubitId, WindowSync};
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
        // The borrowed ready-list slice and its allocating wrapper must agree
        // with each other and with the naive scan.
        let front = dag.front_layer();
        assert_eq!(
            front.as_slice(),
            dag.front(),
            "front()/front_layer() diverged at step {step} of {}",
            circuit.name()
        );
        assert_eq!(
            front,
            naive.front_layer(),
            "front layer diverged at step {step} of {}",
            circuit.name()
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
            dag.front(),
            expected_front.as_slice(),
            "newly-ready nodes diverged at step {step} of {}",
            circuit.name()
        );
        naive.mark_executed(node);
        step += 1;
    }
    assert!(dag.all_executed());
    assert!(naive.all_executed());
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
            assert_eq!(dag.front_layer(), naive.front_layer(), "{}", circuit.name());
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
            assert_eq!(dag.front_layer(), naive.front_layer(), "{}", circuit.name());
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
            assert_eq!(
                dag.front_layer(),
                forward.front_layer(),
                "{}",
                circuit.name()
            );
            assert_ready_on_matches(&dag, &forward, &circuit, step);
            step += 1;
            let node = dag.front_gate().expect("non-empty DAG has a ready gate");
            dag.mark_executed(node);
            forward.mark_executed(node);
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

#[test]
fn window_delta_replay_matches_naive_window_membership() {
    // The entered/left record behind `sync_window_delta` (the incremental
    // weight table's feed) must reconstruct exactly the membership of the
    // naive window at every reconciliation point — across batched
    // retirements, interleaved refreshes for a *different* k (which must not
    // corrupt the record: it breaks the chain and forces a rebuild instead),
    // and a mid-run reset.
    for circuit in suite() {
        let mut dag = DependencyDag::from_circuit(&circuit);
        let k = 4;
        let mut members: Vec<ion_circuit::DagNodeId> = Vec::new();
        let mut epoch = 0u64;
        let mut step = 0usize;
        loop {
            let sync = dag.sync_window_delta(k, epoch, |node, entered| {
                if entered {
                    members.push(node);
                } else {
                    let pos = members
                        .iter()
                        .position(|&n| n == node)
                        .expect("departing gates were members");
                    members.remove(pos);
                }
            });
            if let WindowSync::Rebuild(_) = sync {
                members.clear();
                dag.for_each_window_gate(k, |_, node| members.push(node));
            }
            epoch = sync.epoch();
            let mut sorted = members.clone();
            sorted.sort_unstable();
            let naive: Vec<ion_circuit::DagNodeId> =
                naive_window_after(&dag, k).into_iter().flatten().collect();
            let mut naive_sorted = naive;
            naive_sorted.sort_unstable();
            assert_eq!(
                sorted,
                naive_sorted,
                "window membership diverged at step {step} of {}",
                circuit.name()
            );

            if dag.all_executed() {
                break;
            }
            // Retire 1–3 gates between syncs, poking queries at another k so
            // foreign refreshes interleave with the tracked one.
            for burst in 0..=(step % 3) {
                if let Some(node) = dag.front_gate() {
                    dag.mark_executed(node);
                    if burst == 1 {
                        let _ = dag.lookahead_layers(8);
                    }
                }
            }
            // A mid-run reset must break the chain, not corrupt the replay.
            if step == 7 {
                dag.reset();
            }
            step += 1;
        }
    }
}

/// Drains two DAGs built from the same circuit in lockstep — one with the
/// window-delta tracker armed at depth `k`, one left on the BFS fallback —
/// asserting every window query is answer-identical at every step. This pins
/// the tentpole contract: arming the tracker changes how the window is
/// *served*, never what it *contains*.
fn assert_armed_matches_bfs(circuit: &Circuit, k: usize, salt: u64) {
    let mut armed = DependencyDag::from_circuit(circuit);
    let mut bfs = DependencyDag::from_circuit(circuit);
    armed.arm_window_tracker(k);
    let mut step = 0usize;
    loop {
        assert_eq!(
            armed.lookahead_layers(k),
            bfs.lookahead_layers(k),
            "armed/BFS lookahead(k={k}) diverged at step {step} of {} (salt {salt})",
            circuit.name()
        );
        for q in 0..circuit.num_qubits() {
            let qubit = QubitId::new(q);
            assert_eq!(
                armed.next_use_depth(k, qubit),
                bfs.next_use_depth(k, qubit),
                "armed/BFS next_use_depth(q{q}, k={k}) diverged at step {step} of {} (salt {salt})",
                circuit.name()
            );
            assert_eq!(
                armed.count_window_partners(k, qubit, |_| true),
                bfs.count_window_partners(k, qubit, |_| true),
                "armed/BFS partner count (q{q}, k={k}) diverged at step {step} of {} (salt {salt})",
                circuit.name()
            );
            // Partner *sets* must match too, not just counts. The two
            // implementations may walk the window in different orders, so
            // compare as sorted multisets.
            let mut armed_partners = Vec::new();
            armed.for_each_window_partner(k, qubit, |p| armed_partners.push(p));
            let mut bfs_partners = Vec::new();
            bfs.for_each_window_partner(k, qubit, |p| bfs_partners.push(p));
            armed_partners.sort_unstable();
            bfs_partners.sort_unstable();
            assert_eq!(
                armed_partners,
                bfs_partners,
                "armed/BFS partner set (q{q}, k={k}) diverged at step {step} of {} (salt {salt})",
                circuit.name()
            );
        }
        let mut armed_gates = Vec::new();
        armed.for_each_window_gate(k, |depth, node| armed_gates.push((depth, node)));
        let mut bfs_gates = Vec::new();
        bfs.for_each_window_gate(k, |depth, node| bfs_gates.push((depth, node)));
        armed_gates.sort_unstable();
        bfs_gates.sort_unstable();
        assert_eq!(
            armed_gates,
            bfs_gates,
            "armed/BFS window gates (k={k}) diverged at step {step} of {} (salt {salt})",
            circuit.name()
        );

        let front = bfs.front_layer();
        assert_eq!(
            armed.front_layer(),
            front,
            "armed/BFS front layer diverged at step {step} of {} (salt {salt})",
            circuit.name()
        );
        if front.is_empty() {
            break;
        }
        let node = pick(&front, step, salt);
        armed.mark_executed(node);
        bfs.mark_executed(node);
        step += 1;
    }
    assert!(armed.all_executed());
    assert!(bfs.all_executed());
}

#[test]
fn armed_window_matches_bfs_window_on_the_generator_suite() {
    for circuit in suite() {
        for k in [1usize, 4, 8] {
            assert_armed_matches_bfs(&circuit, k, 42);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random circuits, random retire orders, several window depths: the
    /// armed (tracker-derived) window must stay answer-identical to the BFS
    /// window throughout the drain.
    #[test]
    fn armed_window_matches_bfs_window_on_random_circuits(
        ((qubits, gates, seed), (salt, k_index)) in
            ((4usize..20, 10usize..140, 0u64..64), (0u64..1 << 60, 0usize..4))
    ) {
        let k = [1usize, 2, 4, 8][k_index];
        let circuit = generators::random_circuit(qubits, gates, seed);
        assert_armed_matches_bfs(&circuit, k, salt);
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
