//! Equivalence suite: the incremental [`DependencyDag`] (qubit-indexed
//! front, oldest-gate cursor, on-demand look-ahead probe, per-qubit gate
//! cursors) must answer every query identically to the naive reference
//! ([`NaiveDag`]) at every step of execution, across the generator suite,
//! several execution orders and both edge orientations. Every drain runs
//! through the one harness in `fuzz::dag`.

use fuzz::dag::{check_agree, check_drain, pick, NaiveDag};
use ion_circuit::{generators, Circuit, DependencyDag};
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

fn assert_agree(dag: &DependencyDag, naive: &NaiveDag, ks: &[usize], context: &str) {
    if let Err(e) = check_agree(dag, naive, ks) {
        panic!("{e} {context}");
    }
}

/// Retires the oldest ready gate of both DAGs.
fn retire_oldest(dag: &mut DependencyDag, naive: &mut NaiveDag) {
    let node = dag.front_gate().expect("non-empty DAG has a ready gate");
    dag.mark_executed(node);
    naive.mark_executed(node.index());
}

#[test]
fn incremental_dag_matches_naive_reference_fcfs() {
    for circuit in suite() {
        let mut dag = DependencyDag::from_circuit(&circuit);
        let mut naive = NaiveDag::from_circuit(&circuit);
        while !dag.all_executed() {
            assert_agree(&dag, &naive, &[8], circuit.name());
            retire_oldest(&mut dag, &mut naive);
        }
        assert_eq!(naive.remaining(), 0);
    }
}

#[test]
fn incremental_dag_matches_naive_reference_random_orders() {
    for circuit in suite() {
        for salt in [7u64, 1234, 999_983] {
            check_drain(&circuit, salt).unwrap();
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
        while !dag.all_executed() {
            assert_agree(&dag, &naive, &[8], circuit.name());
            retire_oldest(&mut dag, &mut naive);
        }
        assert!(naive.all_executed());

        // Flipping again restores the forward orientation exactly (the DAG
        // is currently reversed, so one more flip is a round trip).
        dag.reset_reversed();
        let mut forward = NaiveDag::from_circuit(&circuit);
        while !dag.all_executed() {
            assert_agree(&dag, &forward, &[], circuit.name());
            retire_oldest(&mut dag, &mut forward);
        }
    }
}

/// The oldest-gate cursor across rewinds: partial drains under random retire
/// orders interleaved with `reset` (same orientation) and `reset_reversed`
/// (flip), each followed by a fresh naive oracle of the circuit the DAG now
/// represents, checking the front views before every retirement.
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
                for step in 0..=steps {
                    let context = format!(
                        "at step {step} of {} (phase {phase}, salt {salt})",
                        circuit.name()
                    );
                    assert_agree(&dag, &naive, &[], &context);
                    let front = dag.front_layer();
                    if front.is_empty() || step == steps {
                        break;
                    }
                    let node = pick(&front, step, salt);
                    dag.mark_executed(node);
                    naive.mark_executed(node.index());
                }
            }
            // The last phase drained the forward orientation completely.
            assert!(dag.all_executed());
            assert_eq!(dag.front_gate(), None);
        }
    }
}

/// Window queries against a naive DAG replayed from the DAG's own executed
/// set, on the initial DAG and again after retiring a quarter of the gates.
#[test]
fn count_window_partners_matches_naive_window_scan() {
    for circuit in suite() {
        let mut dag = DependencyDag::from_circuit(&circuit);
        for phase in 0..2 {
            let context = format!("in {} (phase {phase})", circuit.name());
            assert_agree(&dag, &NaiveDag::replay(&dag), &[8], &context);
            for _ in 0..(dag.len() / 4).max(1) {
                if let Some(node) = dag.front_gate() {
                    dag.mark_executed(node);
                }
            }
        }
    }
}

#[test]
fn probe_window_matches_naive_window_on_the_generator_suite() {
    for circuit in suite() {
        check_drain(&circuit, 42).unwrap();
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
        check_drain(&circuit, salt).unwrap();
    }
}
