//! Translation-validation smoke test (CI): replays every pinned fingerprint
//! program and the committed corpus through the `verify` schedule analyzer.
//!
//! Coverage:
//!
//! - The full fingerprint suite (10 circuits × 6 compiler variants — the
//!   three MUSS-TI option sets and the three grid baselines) through all
//!   three pipeline paths (one-shot, warm context, batch); the batch path
//!   runs the verifier as `compile_batch`'s check hook, so that wiring is
//!   exercised too. The verified
//!   pins must equal the unverified ones bit for bit: verification is a
//!   read-only replay, never a behaviour change.
//! - Every valid `.qasm` file in `tests/corpus/`, compiled by MUSS-TI and by
//!   each of the Murali / Dai / MQT-style baselines, each program verified
//!   against its compiler's device.
//!
//! ```text
//! cargo run --release -p experiments --bin verify_smoke [-- --corpus DIR]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use experiments::fingerprint::{
    device_model_for, suite_fingerprints, suite_fingerprints_verified, variant_labels,
    FingerprintMode,
};
use ion_circuit::{qasm, Circuit};
use verify::ScheduleVerifier;

/// Compiles every valid corpus circuit with every variant and verifies the
/// resulting schedules. Returns the number of violations found.
fn verify_corpus(dir: &PathBuf) -> Result<usize, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read corpus directory {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|e| e == "qasm"))
        .filter(|p| {
            // `invalid_*` files are parser-rejection fixtures; nothing to verify.
            !p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("invalid_"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no valid .qasm files under {}", dir.display()));
    }

    let mut circuits: Vec<(String, Circuit)> = Vec::with_capacity(files.len());
    for path in &files {
        let name = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let circuit =
            qasm::parse(&source).map_err(|e| format!("{name} failed to parse: {}", e.first()))?;
        circuits.push((name, circuit));
    }

    let mut violations = 0usize;
    let mut checked = 0usize;
    for variant in variant_labels() {
        for (name, circuit) in &circuits {
            let n = circuit.num_qubits();
            let compiler = experiments::fingerprint::compiler_for(variant, n);
            let program = match compiler.compile(circuit) {
                Ok(program) => program,
                Err(err) => {
                    eprintln!("verify_smoke: {variant} failed to compile {name}: {err}");
                    violations += 1;
                    continue;
                }
            };
            let verifier = ScheduleVerifier::new(device_model_for(variant, n));
            let report = verifier.verify(circuit, &program);
            if !report.is_clean() {
                eprintln!("verify_smoke: {variant} on {name}:\n{report}");
                violations += report.violations.len();
            }
            checked += 1;
        }
    }
    println!(
        "verify_smoke: corpus {} program(s) verified ({} circuits x {} variants)",
        checked,
        circuits.len(),
        variant_labels().len()
    );
    Ok(violations)
}

fn main() -> ExitCode {
    let mut corpus = PathBuf::from("tests/corpus");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--corpus" => {
                corpus = args
                    .next()
                    .map(PathBuf::from)
                    .expect("--corpus needs a path");
            }
            "--help" | "-h" => {
                println!("usage: verify_smoke [--corpus DIR]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other}; supported: --corpus DIR");
                return ExitCode::from(2);
            }
        }
    }

    let mut failed = false;

    for (label, mode) in [
        ("one-shot", FingerprintMode::OneShot),
        ("session", FingerprintMode::Session),
        ("batch", FingerprintMode::Batch { threads: 4 }),
    ] {
        // `suite_fingerprints_verified` panics with the verifier's summary on
        // any violation, so reaching the comparison means all programs were
        // schedule-clean; the equality check pins verification as read-only.
        let verified = suite_fingerprints_verified(mode);
        let plain = suite_fingerprints(mode);
        if verified != plain {
            eprintln!("verify_smoke: {label} fingerprints changed under verification");
            failed = true;
        } else {
            println!(
                "verify_smoke: {label} suite clean ({} programs verified)",
                verified.len()
            );
        }
    }

    match verify_corpus(&corpus) {
        Ok(0) => {}
        Ok(n) => {
            eprintln!("verify_smoke: {n} corpus violation(s)");
            failed = true;
        }
        Err(err) => {
            eprintln!("verify_smoke: {err}");
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        println!("verify_smoke: all schedules verified clean");
        ExitCode::SUCCESS
    }
}
