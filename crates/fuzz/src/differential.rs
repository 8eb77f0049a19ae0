//! Per-case differential checks.
//!
//! Each check returns `Ok(())` or a divergence description; none of them
//! should ever panic on a valid circuit (panics are caught and reported
//! separately by [`crate::campaign`]). The checks are the QASM writer/parser
//! pair, the production QASM front-end against the original one kept in
//! [`crate::qasm_oracle`], a full `parse → compile` differential, and the
//! seeded drivers of the placement and SWAP-weight lock-step harnesses in
//! [`crate::placement`] and [`crate::weights`] (the DAG harness,
//! [`crate::dag::check_drain`], takes the case index as its salt).

use baselines::{DaiCompiler, GridConfig, MqtStyleCompiler, MuraliCompiler};
use eml_qccd::{Compiler, DeviceConfig};
use ion_circuit::qasm::{Diagnostic, DiagnosticKind, ParseLimits};
use ion_circuit::{qasm, Circuit};
use muss_ti::{MussTiCompiler, MussTiOptions};
use rand::rngs::StdRng;
use rand::Rng;
use verify::{DeviceModel, ScheduleVerifier};

use crate::placement::Chains;
use crate::{placement, qasm_oracle, weights, RawAction};

/// `ensure_eq!` that also accepts values whose `Debug` text is equal, so a
/// NaN a diagnostic carries (`rz(0/0)`) equals itself. The text is only
/// rendered when `==` fails.
macro_rules! ensure_same_debug {
    ($a:expr, $b:expr, $($ctx:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if lhs != rhs && format!("{lhs:?}") != format!("{rhs:?}") {
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
        ensure_same_debug!(got, oracle.as_slice(), "diagnostics");
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
    ensure_same_debug!(got.first(), full.first(), "first diagnostic");
    let head = &full[..cap.min(full.len())];
    ensure_eq!(
        too_many_gates(got),
        too_many_gates(head),
        "gate limit reported"
    );
    if !too_many_gates(&full) && cap <= qasm_oracle::MAX_LEX_DIAGNOSTICS {
        ensure_same_debug!(got, head, "first {cap} diagnostics");
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

/// A script of `steps` raw actions drawn from `rng` (each harness folds the
/// numbers onto its own action kinds and current state).
fn raw_actions(rng: &mut StdRng, steps: usize) -> Vec<RawAction> {
    let mut draw = || rng.gen_range(0..64usize);
    (0..steps).map(|_| (draw(), draw(), draw())).collect()
}

/// The placement harness over one device, with a drawn script.
fn drive_placement<D: Chains>(device: &D, rng: &mut StdRng) -> Result<(), String> {
    let capacity: usize = device
        .locations()
        .iter()
        .map(|&at| device.capacity(at))
        .sum();
    let steps = rng.gen_range(20..160usize);
    placement::drive(device, capacity.min(12), raw_actions(rng, steps))
}

/// [`placement::drive`] on a random small EML-QCCD device (one-hop
/// shuttles) and a random small grid (multi-hop transports), each with a
/// script drawn from `rng`.
pub fn check_placement_oracle(rng: &mut StdRng) -> Result<(), String> {
    let eml = DeviceConfig::default()
        .with_modules(rng.gen_range(1..4usize))
        .with_trap_capacity(rng.gen_range(2..6usize))
        .build();
    drive_placement(&eml, rng).map_err(|e| format!("one-hop shuttles: {e}"))?;
    let grid = GridConfig::new(
        rng.gen_range(1..4usize),
        rng.gen_range(1..4usize),
        rng.gen_range(2..6usize),
    )
    .build();
    drive_placement(&grid, rng).map_err(|e| format!("multi-hop transports: {e}"))
}

/// [`weights::drive_interleaving`] on a random circuit with a script drawn
/// from `rng`.
pub fn check_weight_table(rng: &mut StdRng) -> Result<(), String> {
    let num_qubits = rng.gen_range(40..72usize);
    let gates = rng.gen_range(20..120usize);
    let seed = rng.gen_range(0..1u64 << 32);
    let steps = rng.gen_range(20..120usize);
    weights::drive_interleaving(num_qubits, gates, seed, raw_actions(rng, steps))
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
    use crate::dag::check_drain;
    use ion_circuit::generators;

    #[test]
    fn hostile_circuits_pass_every_check() {
        for (i, c) in hostile_circuits().iter().enumerate() {
            check_qasm_roundtrip(c).unwrap();
            check_drain(c, i as u64).unwrap();
            check_differential_compile(c).unwrap();
            check_all_compilers_verified(c).unwrap();
        }
    }

    #[test]
    fn wild_circuits_pass_roundtrip_and_dag_checks() {
        for index in 0..12 {
            let c = wild_circuit(&mut case_rng(21, index));
            check_qasm_roundtrip(&c).unwrap();
            check_drain(&c, index).unwrap();
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
