//! End-to-end batch fault isolation: a batch containing defective circuits
//! must return `Err` for exactly those slots while every healthy slot
//! compiles to a bit-identical op stream (pinned by fingerprint) — across
//! thread counts.

use muss_ti_repro::experiments::fingerprint::fingerprint;
use muss_ti_repro::prelude::*;

/// The healthy workload: a spread of generator families on one shared device.
fn healthy_suite() -> Vec<Circuit> {
    vec![
        generators::qft(16),
        generators::ghz(24),
        generators::qaoa(16),
        generators::adder(16),
        generators::bv(20),
        generators::random_circuit(20, 120, 7),
    ]
}

#[test]
fn defective_slots_fail_alone_and_leave_the_rest_bit_identical() {
    let healthy = healthy_suite();
    let widest = healthy.iter().map(Circuit::num_qubits).max().unwrap();
    let device = DeviceConfig::for_qubits(widest).build();
    let compiler = MussTiCompiler::new(device, MussTiOptions::default());

    // Baseline fingerprints from an all-healthy batch.
    let baseline: Vec<u64> = compile_batch(&compiler, &healthy, 4, None)
        .into_iter()
        .map(|r| fingerprint(&r.expect("healthy circuits compile")))
        .collect();

    // Interleave two defective circuits: one wider than the device's total
    // ion capacity, and one referencing a qubit outside its own register
    // (`Circuit::push` is unchecked by design; `validate` at the compile
    // boundary must catch it).
    let too_wide = generators::ghz(compiler.device().total_capacity() + 1);
    let mut out_of_range = Circuit::with_name("rogue", 2);
    out_of_range.push(Gate::cx(0, 99));
    let mut batch = healthy.clone();
    batch.insert(2, too_wide);
    batch.insert(5, out_of_range);

    for threads in [1usize, 4] {
        let results = compile_batch(&compiler, &batch, threads, None);
        assert_eq!(results.len(), batch.len());
        assert!(
            results[2].is_err(),
            "too-wide slot must fail ({threads} threads)"
        );
        assert!(
            results[5].is_err(),
            "out-of-range slot must fail ({threads} threads)"
        );
        let healthy_fingerprints: Vec<u64> = results
            .into_iter()
            .enumerate()
            .filter(|(i, _)| *i != 2 && *i != 5)
            .map(|(i, r)| {
                fingerprint(&r.unwrap_or_else(|e| panic!("healthy slot {i} failed: {e}")))
            })
            .collect();
        assert_eq!(
            healthy_fingerprints, baseline,
            "healthy slots must be bit-identical to the all-healthy batch ({threads} threads)"
        );
    }
}

#[test]
fn one_shot_compiles_match_the_batch_path_on_the_same_device() {
    let healthy = healthy_suite();
    let widest = healthy.iter().map(Circuit::num_qubits).max().unwrap();
    let device = DeviceConfig::for_qubits(widest).build();
    let compiler = MussTiCompiler::new(device.clone(), MussTiOptions::default());
    let batch: Vec<u64> = compile_batch(&compiler, &healthy, 4, None)
        .into_iter()
        .map(|r| fingerprint(&r.expect("healthy circuits compile")))
        .collect();
    let one_shot: Vec<u64> = healthy
        .iter()
        .map(|c| fingerprint(&compiler.compile(c).expect("healthy circuits compile")))
        .collect();
    assert_eq!(batch, one_shot);
}
