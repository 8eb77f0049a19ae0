//! Context-reuse equivalence: a compile context leaks no state between
//! circuits. For random circuit pairs (A, B) and every MUSS-TI option
//! variant, compiling A then B in one context must yield op streams
//! bit-identical to a fresh-context compile of B — also when the compile of
//! A just failed. This is the invariant that makes held contexts and batch
//! workers safe to reuse.

use eml_qccd::{CompileError, Compiler, DeviceConfig};
use ion_circuit::{generators, Circuit};
use muss_ti::{MussTiCompiler, MussTiOptions};
use proptest::prelude::*;

/// Exhaustive `Debug` rendering of a program's op stream.
fn op_bytes(program: &eml_qccd::CompiledProgram) -> String {
    format!("{:?}", program.ops())
}

fn options_for(variant: usize) -> MussTiOptions {
    match variant % 4 {
        0 => MussTiOptions::default(),
        1 => MussTiOptions::trivial(),
        2 => MussTiOptions::swap_insert_only(),
        _ => MussTiOptions::sabre_only(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sequential reuse leaks no state: compiling A then B in one context
    /// equals a fresh compile of B.
    #[test]
    fn context_reuse_is_bit_identical_to_fresh_context(
        ((qubits_a, gates_a, seed_a), (qubits_b, gates_b, seed_b), variant) in (
            (8..28usize, 20..120usize, 0..64u64),
            (8..28usize, 20..120usize, 64..128u64),
            0..4usize,
        )
    ) {
        let a = generators::random_circuit(qubits_a, gates_a, seed_a);
        let b = generators::random_circuit(qubits_b, gates_b, seed_b);
        let device = DeviceConfig::for_qubits(28).build();
        let compiler = MussTiCompiler::new(device, options_for(variant));

        // Reference: B compiled in a brand-new context.
        let fresh = compiler.compile_in(&mut compiler.context(), &b).unwrap();

        // A then B in one context.
        let mut cx = compiler.context();
        compiler.compile_in(&mut cx, &a).unwrap();
        let warm = compiler.compile_in(&mut cx, &b).unwrap();
        prop_assert_eq!(
            op_bytes(&warm),
            op_bytes(&fresh),
            "sequential context reuse changed the op stream (variant {})",
            variant
        );

        // Metrics follow the ops.
        prop_assert_eq!(warm.metrics().shuttle_count, fresh.metrics().shuttle_count);
        prop_assert_eq!(
            warm.metrics().log_fidelity.ln(),
            fresh.metrics().log_fidelity.ln()
        );
    }

    /// A context whose last compile returned a `CompileError` compiles the
    /// next circuit clean: after warming on A, a rejected circuit, then B,
    /// B's op stream equals its fresh-context compile.
    #[test]
    fn context_after_a_compile_error_compiles_the_next_circuit_clean(
        ((qubits_a, gates_a, seed_a), (qubits_b, gates_b, seed_b), variant) in (
            (8..28usize, 20..120usize, 0..64u64),
            (8..28usize, 20..120usize, 64..128u64),
            0..4usize,
        )
    ) {
        let a = generators::random_circuit(qubits_a, gates_a, seed_a);
        let b = generators::random_circuit(qubits_b, gates_b, seed_b);
        let device = DeviceConfig::for_qubits(28).build();
        let compiler = MussTiCompiler::new(device, options_for(variant));
        let fresh = compiler.compile_in(&mut compiler.context(), &b).unwrap();

        let mut rogue = Circuit::with_name("rogue", 4);
        rogue.cx(0, 9);
        let too_wide = generators::ghz(compiler.device().total_capacity() + 1);

        let mut cx = compiler.context();
        compiler.compile_in(&mut cx, &a).unwrap();
        let rogue_result = compiler.compile_in(&mut cx, &rogue);
        prop_assert!(
            matches!(rogue_result, Err(CompileError::InvalidCircuit(_))),
            "rogue operands must be rejected"
        );
        let wide_result = compiler.compile_in(&mut cx, &too_wide);
        prop_assert!(
            matches!(wide_result, Err(CompileError::DeviceTooSmall { .. })),
            "an oversized circuit must be rejected"
        );
        let after_error = compiler.compile_in(&mut cx, &b).unwrap();
        prop_assert_eq!(op_bytes(&after_error), op_bytes(&fresh));
    }
}
