//! Per-case differential checks.
//!
//! Each check returns `Ok(())` or a divergence description; none of them
//! should ever panic on a valid circuit (panics are caught and reported
//! separately by [`crate::campaign`]). The oracles are the retained naive
//! implementations the equivalence test suites pin against — `NaiveDag`,
//! `NaivePlacement` and `WeightTable::compute` — plus the QASM writer/parser
//! pair, the production QASM front-end against the original one kept in
//! [`crate::qasm_oracle`], and a full `parse → compile` differential.

use baselines::{DaiCompiler, GridConfig, MqtStyleCompiler, MuraliCompiler};
use eml_qccd::{Compiler, DeviceConfig, ModuleId};
use ion_circuit::qasm::{Diagnostic, DiagnosticKind, ParseLimits};
use ion_circuit::{generators, qasm, Circuit, DependencyDag, NaiveDag, QubitId};
use muss_ti::{MussTiCompiler, MussTiOptions, NaivePlacement, PlacementState, WeightTable};
use rand::rngs::StdRng;
use rand::Rng;
use verify::{DeviceModel, ScheduleVerifier};

use crate::qasm_oracle;

/// The look-ahead window depth used by the scheduler (and therefore by the
/// weight-table and DAG oracle checks).
const K: usize = 8;

macro_rules! ensure_eq {
    ($a:expr, $b:expr, $($ctx:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if lhs != rhs {
            return Err(format!("{}: {lhs:?} != {rhs:?}", format_args!($($ctx)+)));
        }
    }};
}

/// FNV-1a over a byte slice: a tiny stable fingerprint for comparing op
/// streams without holding both programs' debug strings in the report.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A stable fingerprint of a compiled program's scheduled op stream.
pub fn op_fingerprint(program: &eml_qccd::CompiledProgram) -> u64 {
    fnv1a(format!("{:?}", program.ops()).as_bytes())
}

/// The single-pass front-end must agree with the original two-phase one in
/// [`qasm_oracle`]: the same verdict, and an accepted source must yield the
/// same circuit, parameter bit for bit.
///
/// Diagnostics must be identical whenever the oracle's list is complete:
/// under the cap and not cut short by `TooManyGates`. Otherwise the
/// production list must hold at most `max_diagnostics` entries in source
/// order, starting with the first problem in the source. Those are read from
/// the oracle re-run with an unlimited cap, because the capped oracle's own
/// list can be wrong: its lexer errors from anywhere in the file crowd out
/// earlier parser errors. Without `TooManyGates`, and for caps up to the
/// oracle lexer's own cap of [`qasm_oracle::MAX_LEX_DIAGNOSTICS`], the
/// production list must be exactly the first `max_diagnostics` entries of
/// the uncapped list.
pub fn check_qasm_oracle(source: &str, limits: &ParseLimits) -> Result<(), String> {
    let (err, oracle) = match (
        qasm::parse_with_limits(source, limits),
        qasm_oracle::parse_with_limits(source, limits),
    ) {
        (Ok(circuit), Ok(expected)) => {
            ensure_eq!(circuit.num_qubits(), expected.num_qubits(), "parsed width");
            // Debug prints the shortest text that round-trips each float, so
            // equal text is equal bits (`Gate`'s `==` has 0.0 == -0.0).
            let (got, want) = (circuit.gates(), expected.gates());
            ensure_eq!(format!("{got:?}"), format!("{want:?}"), "parsed gates");
            return Ok(());
        }
        (Ok(_), Err(oracle)) => {
            return Err(format!(
                "accepted; the oracle rejects: {:?}",
                oracle.first()
            ))
        }
        (Err(err), Ok(_)) => return Err(format!("rejected; the oracle accepts: {err}")),
        (Err(err), Err(oracle)) => (err, oracle),
    };
    let got = err.diagnostics();
    let cap = limits.max_diagnostics.max(1);
    let too_many_gates = |list: &[Diagnostic]| {
        list.iter()
            .any(|d| matches!(d.kind, DiagnosticKind::TooManyGates { .. }))
    };
    if oracle.len() < cap && !too_many_gates(&oracle) {
        ensure_eq!(got, oracle.as_slice(), "diagnostics");
        return Ok(());
    }
    let uncapped = ParseLimits {
        max_diagnostics: usize::MAX,
        ..limits.clone()
    };
    let Err(full) = qasm_oracle::parse_with_limits(source, &uncapped) else {
        return Err("the oracle accepts the source once uncapped".to_string());
    };
    if got.len() > cap
        || got
            .windows(2)
            .any(|w| (w[0].line, w[0].col) > (w[1].line, w[1].col))
    {
        return Err(format!(
            "{} diagnostics (cap {cap}) or out of source order",
            got.len()
        ));
    }
    ensure_eq!(got.first(), full.first(), "first diagnostic");
    let head = &full[..cap.min(full.len())];
    ensure_eq!(
        too_many_gates(got),
        too_many_gates(head),
        "gate limit reported"
    );
    if !too_many_gates(&full) && cap <= qasm_oracle::MAX_LEX_DIAGNOSTICS {
        ensure_eq!(got, head, "first {cap} diagnostics");
    }
    Ok(())
}

/// `to_qasm` must emit text that re-parses to the *identical* gate stream.
pub fn check_qasm_roundtrip(circuit: &Circuit) -> Result<(), String> {
    let text = qasm::to_qasm(circuit);
    let reparsed = match qasm::parse(&text) {
        Ok(c) => c,
        Err(e) => {
            return Err(format!(
                "emitted QASM for '{}' failed to re-parse: {e}",
                circuit.name()
            ))
        }
    };
    ensure_eq!(
        reparsed.num_qubits(),
        circuit.num_qubits(),
        "round-trip width of '{}'",
        circuit.name()
    );
    if reparsed.gates() != circuit.gates() {
        let at = circuit
            .gates()
            .iter()
            .zip(reparsed.gates())
            .position(|(a, b)| a != b);
        return Err(format!(
            "round-trip gate stream of '{}' diverged (lengths {} vs {}, first mismatch at {at:?})",
            circuit.name(),
            circuit.len(),
            reparsed.len()
        ));
    }
    Ok(())
}

/// Picks the next front-layer gate to retire under a pseudo-random policy,
/// so the drain exercises many execution orders (mirrors the equivalence
/// suite's policy).
fn pick(front: &[ion_circuit::DagNodeId], step: usize, salt: u64) -> ion_circuit::DagNodeId {
    let mix = (step as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt)
        .rotate_left(17);
    front[(mix % front.len() as u64) as usize]
}

/// Drains the circuit's DAG, comparing the incremental implementation against
/// [`NaiveDag`] on the front layer, look-ahead window and next-use index at
/// every step.
pub fn check_dag_oracle(circuit: &Circuit, salt: u64) -> Result<(), String> {
    let mut dag = DependencyDag::from_circuit(circuit);
    let mut naive = NaiveDag::from_circuit(circuit);
    let mut step = 0usize;
    loop {
        let front = dag.front_layer();
        ensure_eq!(
            front.as_slice(),
            dag.front(),
            "front()/front_layer() at step {step} of '{}'",
            circuit.name()
        );
        ensure_eq!(
            front,
            naive.front_layer(),
            "front layer at step {step} of '{}'",
            circuit.name()
        );
        for k in [0usize, 1, K] {
            ensure_eq!(
                dag.lookahead_layers(k),
                naive.lookahead_layers(k),
                "lookahead(k={k}) at step {step} of '{}'",
                circuit.name()
            );
        }
        let naive_window = naive.lookahead_layers(K);
        for q in 0..circuit.num_qubits() {
            let qubit = QubitId::new(q);
            let expected = naive_window.iter().position(|layer| {
                layer.iter().any(|&node| {
                    let (a, b) = dag.operands(node);
                    a == qubit || b == qubit
                })
            });
            ensure_eq!(
                dag.next_use_depth(K, qubit),
                expected,
                "next_use_depth(q{q}) at step {step} of '{}'",
                circuit.name()
            );
        }
        if front.is_empty() {
            break;
        }
        let node = pick(&front, step, salt);
        dag.mark_executed(node);
        naive.mark_executed(node);
        step += 1;
    }
    ensure_eq!(
        dag.all_executed(),
        naive.all_executed(),
        "drain completion of '{}'",
        circuit.name()
    );
    Ok(())
}

/// Compares every query of the flat and naive placement states.
fn placements_agree(
    device: &eml_qccd::EmlQccdDevice,
    flat: &PlacementState,
    naive: &NaivePlacement,
    num_qubits: usize,
    step: usize,
) -> Result<(), String> {
    for q in 0..num_qubits {
        let qubit = QubitId::new(q);
        ensure_eq!(
            flat.zone_of(qubit),
            naive.zone_of(qubit),
            "zone_of(q{q}) at step {step}"
        );
        ensure_eq!(
            flat.module_of(device, qubit),
            naive.module_of(device, qubit),
            "module_of(q{q}) at step {step}"
        );
        ensure_eq!(
            flat.last_use(qubit),
            naive.last_use(qubit),
            "last_use(q{q}) at step {step}"
        );
    }
    for zone in device.zones() {
        ensure_eq!(
            flat.chain(zone.id),
            naive.chain(zone.id),
            "chain({}) at step {step}",
            zone.id
        );
        ensure_eq!(
            flat.occupancy(zone.id),
            naive.occupancy(zone.id),
            "occupancy({}) at step {step}",
            zone.id
        );
        ensure_eq!(
            flat.free_slots(device, zone.id),
            naive.free_slots(device, zone.id),
            "free_slots({}) at step {step}",
            zone.id
        );
        ensure_eq!(
            flat.lru_victim(zone.id, &[]),
            naive.lru_victim(zone.id, &[]),
            "lru_victim({}) at step {step}",
            zone.id
        );
    }
    for &module in device.modules() {
        ensure_eq!(
            flat.module_occupancy(module),
            naive.module_occupancy(module),
            "module_occupancy({module}) at step {step}"
        );
    }
    ensure_eq!(flat.mapping(), naive.mapping(), "mapping() at step {step}");
    Ok(())
}

/// Random place/touch/shuttle/swap sequences against a random small device:
/// the flat [`PlacementState`] must track [`NaivePlacement`] exactly.
pub fn check_placement_oracle(rng: &mut StdRng) -> Result<(), String> {
    let device = DeviceConfig::default()
        .with_modules(rng.gen_range(1..4usize))
        .with_trap_capacity(rng.gen_range(2..6usize))
        .build();
    let num_qubits = device.total_capacity().min(12);
    let mut flat = PlacementState::new(&device);
    let mut naive = NaivePlacement::new(&device);
    let mut clock = 0u64;
    let steps = rng.gen_range(20..160usize);
    for step in 0..steps {
        let placed: Vec<QubitId> = flat.mapping().iter().map(|&(q, _)| q).collect();
        match rng.gen_range(0..4usize) {
            // Place the next unplaced qubit into a random zone with space.
            0 => {
                let unplaced = (0..num_qubits)
                    .map(QubitId::new)
                    .find(|&q| flat.zone_of(q).is_none());
                let with_space: Vec<_> = device
                    .zones()
                    .iter()
                    .filter(|z| flat.free_slots(&device, z.id) > 0)
                    .map(|z| z.id)
                    .collect();
                if let (Some(qubit), false) = (unplaced, with_space.is_empty()) {
                    let zone = with_space[rng.gen_range(0..with_space.len())];
                    flat.place(&device, qubit, zone);
                    naive.place(&device, qubit, zone);
                }
            }
            // Touch a random placed qubit at the next logical time.
            1 => {
                if !placed.is_empty() {
                    clock += 1;
                    let qubit = placed[rng.gen_range(0..placed.len())];
                    flat.touch(qubit, clock);
                    naive.touch(qubit, clock);
                }
            }
            // Shuttle a placed qubit to a same-module zone with space.
            2 => {
                if !placed.is_empty() {
                    let qubit = placed[rng.gen_range(0..placed.len())];
                    let home = flat.zone_of(qubit).expect("placed");
                    let module = device.zone(home).module;
                    let targets: Vec<_> = device
                        .zones_in_module(module)
                        .iter()
                        .filter(|z| z.id == home || flat.free_slots(&device, z.id) > 0)
                        .map(|z| z.id)
                        .collect();
                    let to = targets[rng.gen_range(0..targets.len())];
                    let flat_ops = flat.shuttle(&device, qubit, to);
                    let naive_ops = naive.shuttle(&device, qubit, to);
                    ensure_eq!(flat_ops, naive_ops, "shuttle ops at step {step}");
                }
            }
            // Logically swap two placed qubits.
            _ => {
                if placed.len() >= 2 {
                    let a = placed[rng.gen_range(0..placed.len())];
                    let b = placed[rng.gen_range(0..placed.len())];
                    if a != b {
                        flat.swap_logical(a, b);
                        naive.swap_logical(a, b);
                    }
                }
            }
        }
        placements_agree(&device, &flat, &naive, num_qubits, step)?;
    }
    Ok(())
}

/// Random interleavings of gate retirement, shuttles and logical swaps: the
/// incrementally-maintained [`WeightTable`] must equal a fresh
/// [`WeightTable::compute`] at every synchronisation point.
pub fn check_weight_table(rng: &mut StdRng) -> Result<(), String> {
    let num_qubits = rng.gen_range(40..72usize);
    let gates = rng.gen_range(20..120usize);
    let circuit = generators::random_circuit(num_qubits, gates, rng.gen_range(0..1u64 << 32));
    let device = DeviceConfig::for_qubits(num_qubits).build();
    let module_count = device.num_modules();
    let mut dag = DependencyDag::from_circuit(&circuit);
    let mut state = PlacementState::new(&device);
    // Spread the ions round-robin over every zone with space.
    let zones = device.zones();
    let mut cursor = 0usize;
    for q in 0..num_qubits {
        loop {
            let zone = &zones[cursor % zones.len()];
            cursor += 1;
            if state.free_slots(&device, zone.id) > 0 {
                state.place(&device, QubitId::new(q), zone.id);
                break;
            }
        }
    }
    let mut table = WeightTable::default();
    table.sync(&dag, K, module_count, |q| state.module_of(&device, q));
    let steps = rng.gen_range(20..120usize);
    for step in 0..steps {
        match rng.gen_range(0..4usize) {
            // Retire a ready gate, poking a window query in between so
            // deltas batch across refreshes the consumer never saw.
            0 | 1 => {
                if let Some(node) = dag.front_gate() {
                    dag.mark_executed(node);
                    let _ = dag.next_use_depth(K, QubitId::new(step % num_qubits));
                }
            }
            // Intra-module shuttle: invisible to the module-granular table.
            2 => {
                let q = QubitId::new(rng.gen_range(0..num_qubits));
                let module = state.module_of(&device, q).expect("placed");
                let from = state.zone_of(q).expect("placed");
                if let Some(&to) = state
                    .zones_with_space(&device, module, None)
                    .iter()
                    .find(|&&z| z != from)
                {
                    let _ = state.shuttle(&device, q, to);
                }
            }
            // Cross-module logical swap: sync at the swap site, then patch
            // both moved qubits (the scheduler's discipline).
            _ => {
                let a = QubitId::new(rng.gen_range(0..num_qubits));
                let b = QubitId::new(rng.gen_range(0..num_qubits));
                let ma = state.module_of(&device, a).expect("placed");
                let mb = state.module_of(&device, b).expect("placed");
                if ma != mb {
                    table.sync(&dag, K, module_count, |q| state.module_of(&device, q));
                    state.swap_logical(a, b);
                    table.apply_module_change(&dag, K, a, ma, mb);
                    table.apply_module_change(&dag, K, b, mb, ma);
                }
            }
        }
        if step % 5 == 4 || step + 1 == steps {
            table.sync(&dag, K, module_count, |q| state.module_of(&device, q));
            let fresh =
                WeightTable::compute(&dag, K, module_count, |q| state.module_of(&device, q));
            ensure_eq!(table.len(), fresh.len(), "entry count at step {step}");
            for q in 0..num_qubits {
                for m in 0..module_count {
                    ensure_eq!(
                        table.weight(QubitId::new(q), ModuleId(m)),
                        fresh.weight(QubitId::new(q), ModuleId(m)),
                        "W(q{q}, m{m}) at step {step}"
                    );
                }
            }
        }
    }
    Ok(())
}

/// Compiling a circuit directly and compiling its QASM round trip must agree
/// exactly: same error, or bit-identical scheduled op streams.
pub fn check_differential_compile(circuit: &Circuit) -> Result<(), String> {
    let text = qasm::to_qasm(circuit);
    let reparsed = match qasm::parse(&text) {
        Ok(c) => c,
        Err(e) => {
            return Err(format!(
                "emitted QASM for '{}' failed to re-parse: {e}",
                circuit.name()
            ))
        }
    };
    let direct = MussTiCompiler::for_circuit(circuit, MussTiOptions::default()).compile(circuit);
    let via_qasm =
        MussTiCompiler::for_circuit(&reparsed, MussTiOptions::default()).compile(&reparsed);
    match (direct, via_qasm) {
        (Ok(a), Ok(b)) => {
            ensure_eq!(
                op_fingerprint(&a),
                op_fingerprint(&b),
                "op fingerprints of '{}' (direct vs via-QASM)",
                circuit.name()
            );
            Ok(())
        }
        (Err(a), Err(b)) => {
            ensure_eq!(
                a.to_string(),
                b.to_string(),
                "compile errors of '{}' (direct vs via-QASM)",
                circuit.name()
            );
            Ok(())
        }
        (a, b) => Err(format!(
            "compile outcomes of '{}' diverged: direct {:?} vs via-QASM {:?}",
            circuit.name(),
            a.map(|p| p.ops().len()),
            b.map(|p| p.ops().len()),
        )),
    }
}

/// Compiles under `compiler` and replays any successful schedule through the
/// translation validator. A structured [`eml_qccd::CompileError`] is
/// tolerated (generated circuits may legitimately not fit a device); a panic
/// escapes to the campaign harness; a verifier violation is a divergence.
fn compile_verified<C: Compiler>(
    label: &str,
    compiler: &C,
    model: DeviceModel,
    circuit: &Circuit,
) -> Result<(), String> {
    match compiler.compile(circuit) {
        Err(_) => Ok(()),
        Ok(program) => {
            let report = ScheduleVerifier::new(model).verify(circuit, &program);
            if report.is_clean() {
                Ok(())
            } else {
                Err(format!(
                    "{label} schedule for '{}' failed verification: {}",
                    circuit.name(),
                    report.summary()
                ))
            }
        }
    }
}

/// Every compiler in the repo — MUSS-TI and the Murali / Dai / MQT-style
/// grid baselines — must compile the circuit without panicking, and every
/// schedule it *does* produce must pass the translation validator against
/// the device it was compiled for.
pub fn check_all_compilers_verified(circuit: &Circuit) -> Result<(), String> {
    let n = circuit.num_qubits().max(1);

    let eml = DeviceConfig::for_qubits(n).build();
    let muss_ti = MussTiCompiler::new(eml.clone(), MussTiOptions::default());
    compile_verified("MUSS-TI", &muss_ti, DeviceModel::from(&eml), circuit)?;

    let grid = GridConfig::for_qubits(n).build();
    compile_verified(
        "murali",
        &MuraliCompiler::for_qubits(n),
        DeviceModel::from(&grid),
        circuit,
    )?;
    compile_verified(
        "dai",
        &DaiCompiler::for_qubits(n),
        DeviceModel::from(&grid),
        circuit,
    )?;
    compile_verified(
        "mqt",
        &MqtStyleCompiler::for_qubits(n),
        DeviceModel::from(&grid),
        circuit,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::case_rng;
    use crate::circuits::{hostile_circuits, wild_circuit};

    #[test]
    fn hostile_circuits_pass_every_check() {
        for (i, c) in hostile_circuits().iter().enumerate() {
            check_qasm_roundtrip(c).unwrap();
            check_dag_oracle(c, i as u64).unwrap();
            check_differential_compile(c).unwrap();
            check_all_compilers_verified(c).unwrap();
        }
    }

    #[test]
    fn wild_circuits_pass_roundtrip_and_dag_checks() {
        for index in 0..12 {
            let c = wild_circuit(&mut case_rng(21, index));
            check_qasm_roundtrip(&c).unwrap();
            check_dag_oracle(&c, index).unwrap();
        }
    }

    #[test]
    fn oracle_checks_pass_on_random_drives() {
        for index in 0..6 {
            check_placement_oracle(&mut case_rng(33, index)).unwrap();
        }
        for index in 0..3 {
            check_weight_table(&mut case_rng(44, index)).unwrap();
        }
    }

    #[test]
    fn qasm_front_ends_agree_on_hand_picked_edge_cases() {
        let header = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\n";
        let bodies = [
            "h q[3];\ncx q[0],q[1];\n",
            "h q[999999999999999];\n",
            "h q[9999999999999999];\n",
            "h q[ 1 ];\nh q[1.0];\nh q[1e0];\nh q[0x1];\n",
            "h q[1]\n",
            "h q[",
            "cx q[0], // comment\n q[1];\r\nrz(-pi/2) q[2];\r\n",
            "h q[0]; é @ ! # $\n\u{2003}h q[1];\n",
            "qreg\n  r[0];\nqreg\n q[1];\n",
            "rz(1.2.3) q[0]; rz(1e309) q[0]; rz(.) q[0]; rz(1ee-+2) q[0];\n",
            "include \"unterminated;\nh q[0];\n",
            "ccx q[0],q[1];\nccx q,q[1],q[2];\nbarrier q[0],q;\nmeasure q -> c;\n",
            "gate g a { h a; } h q[0]; if (c==1) x q[0];\n",
        ];
        for cap in [1, 3, 8, 64] {
            let limits = ParseLimits {
                max_diagnostics: cap,
                ..ParseLimits::default()
            };
            for body in bodies {
                for source in [format!("{header}{body}"), body.to_string()] {
                    if let Err(e) = check_qasm_oracle(&source, &limits) {
                        panic!("cap {cap}, {source:?}: {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn capped_oracle_loses_early_parser_errors_the_front_end_keeps() {
        // Lexer errors late in the file crowd the oracle's capped list, so
        // the first-problem comparison must use the uncapped oracle.
        let source = format!("h q[0];\n{}", "@\n".repeat(70));
        let limits = ParseLimits::default();
        let capped = qasm_oracle::parse_with_limits(&source, &limits).unwrap_err();
        let err = qasm::parse(&source).unwrap_err();
        assert!(matches!(
            capped[0].kind,
            DiagnosticKind::InvalidCharacter { .. }
        ));
        assert!(matches!(
            err.first().kind,
            DiagnosticKind::UnknownRegister { .. }
        ));
        check_qasm_oracle(&source, &limits).unwrap();
    }

    #[test]
    fn fingerprints_are_stable_across_recompiles() {
        let c = generators::qft(8);
        let a = MussTiCompiler::for_circuit(&c, MussTiOptions::default())
            .compile(&c)
            .unwrap();
        let b = MussTiCompiler::for_circuit(&c, MussTiOptions::default())
            .compile(&c)
            .unwrap();
        assert_eq!(op_fingerprint(&a), op_fingerprint(&b));
    }
}
