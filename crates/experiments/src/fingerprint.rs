//! Shared op-stream fingerprinting: the FNV hash, the fingerprint suite and
//! the compiler variants, used by the `op_fingerprint` bin, the
//! `batch_smoke` bin and the pinned determinism test
//! (`tests/op_fingerprints.rs`) so they cannot drift apart. Each compile is
//! pinned as a [`Pin`]: the op stream's hash plus the executor metrics the
//! figures report, so neither a scheduler change nor an executor change can
//! move a figure silently.
//!
//! Every fingerprint can be produced through three pipeline paths —
//! [`FingerprintMode::OneShot`], [`FingerprintMode::Session`] (one reused
//! typed compile context per compiler variant and device size) and
//! [`FingerprintMode::Batch`] (parallel [`compile_batch`]) — which must all
//! agree bit for bit: context reuse and parallelism are
//! allocation/scheduling optimisations, never behaviour changes.

use std::collections::BTreeMap;

use baselines::{DaiCompiler, MqtStyleCompiler, MuraliCompiler};
use eml_qccd::{compile_batch, CompiledProgram, Compiler, DeviceConfig, ScheduleCheck};
use ion_circuit::{generators, Circuit};
use muss_ti::{MussTiCompiler, MussTiOptions};
use verify::ScheduleVerifier;

use crate::runner::DynCompiler;

/// FNV-1a over a byte slice.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// FNV-1a fingerprint of a program's exhaustive `Debug`-rendered op stream.
pub fn fingerprint(program: &CompiledProgram) -> u64 {
    fnv(format!("{:?}", program.ops()).as_bytes())
}

/// What one compile is pinned on: its op stream's hash and the executor
/// metrics the paper's figures report, the `f64`s by their exact bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// [`fingerprint`] of the op stream.
    pub hash: u64,
    /// `ExecutionMetrics::shuttle_count`.
    pub shuttles: usize,
    /// `ExecutionMetrics::chain_rearrangements`.
    pub chain_rearrangements: usize,
    /// `ExecutionMetrics::execution_time_us`, as `f64::to_bits`.
    pub execution_time_bits: u64,
    /// `ExecutionMetrics::log10_fidelity()`, as `f64::to_bits`.
    pub log10_fidelity_bits: u64,
}

impl Pin {
    /// The pin of a compiled program.
    pub fn of(program: &CompiledProgram) -> Self {
        let metrics = program.metrics();
        Pin {
            hash: fingerprint(program),
            shuttles: metrics.shuttle_count,
            chain_rearrangements: metrics.chain_rearrangements,
            execution_time_bits: metrics.execution_time_us.to_bits(),
            log10_fidelity_bits: metrics.log10_fidelity().to_bits(),
        }
    }
}

/// The circuits the fingerprints are pinned on: one per generator family
/// plus seeded random circuits.
pub fn suite() -> Vec<Circuit> {
    vec![
        generators::qft(24),
        generators::qft(48),
        generators::ghz(32),
        generators::qaoa(24),
        generators::adder(24),
        generators::bv(32),
        generators::sqrt(22),
        generators::supremacy(25),
        generators::random_circuit(24, 150, 5),
        generators::random_circuit(32, 200, 17),
    ]
}

/// The MUSS-TI option variants fingerprinted per circuit.
pub fn muss_ti_variants() -> [(&'static str, MussTiOptions); 3] {
    [
        ("full", MussTiOptions::default()),
        ("trivial", MussTiOptions::trivial()),
        ("swap_only", MussTiOptions::swap_insert_only()),
    ]
}

/// The variant labels fingerprinted per circuit, in pin order: the three
/// MUSS-TI option sets, then the three baselines.
pub fn variant_labels() -> [&'static str; 6] {
    [
        "MUSS-TI/full",
        "MUSS-TI/trivial",
        "MUSS-TI/swap_only",
        "murali",
        "dai",
        "mqt",
    ]
}

/// Builds the compiler a variant label denotes, sized for an `n`-qubit
/// circuit exactly like the pinned one-shot path.
///
/// # Panics
///
/// Panics on an unknown label.
pub fn compiler_for(variant: &str, n: usize) -> DynCompiler {
    if let Some(options) = muss_ti_options(variant) {
        return Box::new(MussTiCompiler::new(
            DeviceConfig::for_qubits(n).build(),
            options,
        ));
    }
    match variant {
        "murali" => Box::new(MuraliCompiler::for_qubits(n)),
        "dai" => Box::new(DaiCompiler::for_qubits(n)),
        "mqt" => Box::new(MqtStyleCompiler::for_qubits(n)),
        other => panic!("unknown fingerprint variant {other}"),
    }
}

/// The options a `MUSS-TI/*` label denotes (`None` for a baseline label),
/// resolved through [`muss_ti_variants`] so the label → options mapping has
/// a single source of truth.
///
/// # Panics
///
/// Panics on an unknown `MUSS-TI/*` label.
fn muss_ti_options(variant: &str) -> Option<MussTiOptions> {
    let label = variant.strip_prefix("MUSS-TI/")?;
    let (_, options) = muss_ti_variants()
        .into_iter()
        .find(|&(l, _)| l == label)
        .unwrap_or_else(|| panic!("unknown MUSS-TI variant {variant}"));
    Some(options)
}

/// Builds the [`verify::DeviceModel`] matching the device `compiler_for`
/// gives a variant at size `n`, so the translation validator replays
/// fingerprint programs against exactly the topology they were compiled for.
///
/// # Panics
///
/// Panics on an unknown label.
pub fn device_model_for(variant: &str, n: usize) -> verify::DeviceModel {
    if variant.starts_with("MUSS-TI/") {
        verify::DeviceModel::from(&DeviceConfig::for_qubits(n).build())
    } else {
        match variant {
            "murali" | "dai" | "mqt" => {
                verify::DeviceModel::from(&eml_qccd::GridConfig::for_qubits(n).build())
            }
            other => panic!("unknown fingerprint variant {other}"),
        }
    }
}

/// Two circuit sizes in the same bucket get byte-identical devices from
/// `compiler_for`, so a session (or batch) may serve both. Mirrors
/// `DeviceConfig::for_qubits` (one module per started block of 32 qubits)
/// and `GridConfig::for_qubits` (2×2 / 3×4 / 4×5 by size class).
fn device_bucket(variant: &str, n: usize) -> usize {
    if variant.starts_with("MUSS-TI") {
        n.div_ceil(32).max(1)
    } else if n <= 48 {
        usize::MAX
    } else if n <= 160 {
        usize::MAX - 1
    } else {
        usize::MAX - 2
    }
}

/// Which pipeline path produces the fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FingerprintMode {
    /// A fresh compiler + context per (circuit, variant) pair.
    OneShot,
    /// One typed compile context per (variant, device size), reused across
    /// every suite circuit it fits — the context-reuse path.
    Session,
    /// [`compile_batch`] over each (variant, device size) group with the
    /// given worker count — the parallel path.
    Batch {
        /// Worker threads per batch call.
        threads: usize,
    },
}

/// Every `(circuit-name, variant-label, pin)` across the suite, in
/// pin order (circuit-major, variants in [`variant_labels`] order), produced
/// through the requested pipeline path.
///
/// # Panics
///
/// Panics if a compiler fails on a suite circuit (the suite is sized to fit).
pub fn suite_fingerprints(mode: FingerprintMode) -> Vec<(String, String, Pin)> {
    suite_fingerprints_inner(mode, false)
}

/// [`suite_fingerprints`] with the translation validator in the loop: every
/// compiled program is checked (in the batch path, by [`compile_batch`]'s
/// check hook) by a [`ScheduleVerifier`] built for the variant's device via
/// [`device_model_for`]. A violating schedule
/// panics with the verifier's summary; the returned pins must equal the
/// unverified ones bit for bit (verification never alters compilation).
///
/// # Panics
///
/// Panics if a compiler fails on a suite circuit or a schedule fails
/// verification.
pub fn suite_fingerprints_verified(mode: FingerprintMode) -> Vec<(String, String, Pin)> {
    suite_fingerprints_inner(mode, true)
}

fn suite_fingerprints_inner(mode: FingerprintMode, verified: bool) -> Vec<(String, String, Pin)> {
    let circuits = suite();
    // pins[variant-index][circuit-index], one variant at a time.
    let pins: Vec<Vec<Pin>> = variant_labels()
        .into_iter()
        .map(|variant| variant_fingerprints(variant, &circuits, mode, verified))
        .collect();
    circuits
        .iter()
        .enumerate()
        .flat_map(|(i, circuit)| {
            variant_labels()
                .into_iter()
                .zip(&pins)
                .map(move |(variant, column)| {
                    (circuit.name().to_string(), variant.to_string(), column[i])
                })
        })
        .collect()
}

/// The pins of every circuit under one variant label, in circuit
/// order, through the requested pipeline path. Mirrors [`compiler_for`], but
/// keeps each compiler's concrete type so the session and batch paths get
/// its typed context.
fn variant_fingerprints(
    variant: &str,
    circuits: &[Circuit],
    mode: FingerprintMode,
    verified: bool,
) -> Vec<Pin> {
    if let Some(options) = muss_ti_options(variant) {
        let make = |n| MussTiCompiler::new(DeviceConfig::for_qubits(n).build(), options);
        return fingerprints_through(variant, make, circuits, mode, verified);
    }
    match variant {
        "murali" => fingerprints_through(
            variant,
            MuraliCompiler::for_qubits,
            circuits,
            mode,
            verified,
        ),
        "dai" => fingerprints_through(variant, DaiCompiler::for_qubits, circuits, mode, verified),
        "mqt" => fingerprints_through(
            variant,
            MqtStyleCompiler::for_qubits,
            circuits,
            mode,
            verified,
        ),
        other => panic!("unknown fingerprint variant {other}"),
    }
}

/// [`variant_fingerprints`] for one concrete compiler type: `make(n)` builds
/// the compiler for an `n`-qubit circuit, and every circuit of one device
/// bucket shares one compiler (and, in the session path, one context).
fn fingerprints_through<C: Compiler + Sync>(
    variant: &str,
    make: impl Fn(usize) -> C,
    circuits: &[Circuit],
    mode: FingerprintMode,
    verified: bool,
) -> Vec<Pin> {
    let verifier_for = |n| verified.then(|| ScheduleVerifier::new(device_model_for(variant, n)));
    // Pins one compile, running the verifier (when there is one) first.
    let finish = |circuit: &Circuit, verifier: Option<&ScheduleVerifier>, result| {
        let program = Result::and_then(result, |program: CompiledProgram| match verifier {
            Some(verifier) => verifier.as_check()(circuit, &program).map(|()| program),
            None => Ok(program),
        })
        .unwrap_or_else(|e| panic!("{variant} on {}: {e}", circuit.name()));
        Pin::of(&program)
    };
    match mode {
        FingerprintMode::OneShot => circuits
            .iter()
            .map(|circuit| {
                let n = circuit.num_qubits();
                let result = make(n).compile(circuit);
                finish(circuit, verifier_for(n).as_ref(), result)
            })
            .collect(),
        FingerprintMode::Session => {
            let mut sessions = BTreeMap::new();
            circuits
                .iter()
                .map(|circuit| {
                    let n = circuit.num_qubits();
                    let (compiler, cx, verifier) = sessions
                        .entry(device_bucket(variant, n))
                        .or_insert_with(|| {
                            let compiler = make(n);
                            let cx = compiler.context();
                            (compiler, cx, verifier_for(n))
                        });
                    let result = compiler.compile_in(cx, circuit);
                    finish(circuit, verifier.as_ref(), result)
                })
                .collect()
        }
        FingerprintMode::Batch { threads } => {
            let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (i, circuit) in circuits.iter().enumerate() {
                groups
                    .entry(device_bucket(variant, circuit.num_qubits()))
                    .or_default()
                    .push(i);
            }
            let mut pins = vec![None; circuits.len()];
            for indices in groups.values() {
                let group: Vec<Circuit> = indices.iter().map(|&i| circuits[i].clone()).collect();
                let n = group[0].num_qubits();
                // The verifier runs inside the batch, as its check hook.
                let verifier = verifier_for(n);
                let check = verifier.as_ref().map(ScheduleVerifier::as_check);
                let check = check.as_ref().map(|c| c as ScheduleCheck<'_>);
                let programs = compile_batch(&make(n), &group, threads, check);
                for ((&i, circuit), result) in indices.iter().zip(&group).zip(programs) {
                    pins[i] = Some(finish(circuit, None, result));
                }
            }
            pins.into_iter()
                .map(|pin| pin.expect("every circuit is in one group"))
                .collect()
        }
    }
}

/// Every `(variant-label, pin)` for one circuit, in the order the
/// `op_fingerprint` bin prints them: the three MUSS-TI variants, then the
/// three baselines (one-shot compiles).
///
/// # Panics
///
/// Panics if a compiler fails on the circuit (the suite is sized to fit).
pub fn fingerprints_for(circuit: &Circuit) -> Vec<(String, Pin)> {
    let n = circuit.num_qubits();
    variant_labels()
        .into_iter()
        .map(|variant| {
            let program = compiler_for(variant, n)
                .compile(circuit)
                .unwrap_or_else(|e| panic!("{variant} on {}: {e}", circuit.name()));
            (variant.to_string(), Pin::of(&program))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_values() {
        // FNV-1a test vectors.
        assert_eq!(fnv(b""), 0xcbf29ce484222325);
        assert_eq!(fnv(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn fingerprints_are_stable_within_a_run() {
        let circuit = generators::ghz(8);
        assert_eq!(fingerprints_for(&circuit), fingerprints_for(&circuit));
    }

    #[test]
    fn compiler_for_covers_every_variant_label() {
        for variant in variant_labels() {
            assert!(!compiler_for(variant, 16).name().is_empty());
        }
    }

    #[test]
    fn device_buckets_follow_for_qubits_thresholds() {
        assert_eq!(
            device_bucket("MUSS-TI/full", 22),
            device_bucket("MUSS-TI/full", 32)
        );
        assert_ne!(
            device_bucket("MUSS-TI/full", 32),
            device_bucket("MUSS-TI/full", 48)
        );
        assert_eq!(device_bucket("murali", 22), device_bucket("murali", 48));
        assert_ne!(device_bucket("dai", 48), device_bucket("dai", 64));
    }
}
