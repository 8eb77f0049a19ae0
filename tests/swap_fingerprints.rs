//! Swap-heavy op-stream pins: FNV-1a fingerprints plus inserted-SWAP counts
//! of MUSS-TI compiles that exercise the Section 3.3 SWAP insertion hard.
//!
//! Only QFT_48 inserts swaps among the 60 fingerprints of
//! `tests/op_fingerprints.rs`, so those pins barely guard the swap-insertion
//! decision. These circuits insert 1 to 312 swaps each under the paper's
//! defaults (`k = 8`, `T = 4`) and under a wider, more eager window
//! (`k = 12`, `T = 2`). The values were generated before the on-demand
//! `W(q, ·)` rewrite and must stay bit-identical: a mismatch means the
//! swap-insertion decision changed. Regenerate a pin by printing
//! `fingerprint(&program)` and the `inserted_swaps` stage counter of a
//! `MussTiCompiler::compile` on `DeviceConfig::for_qubits(n)`.

use muss_ti_repro::eml_qccd::{Compiler, DeviceConfig};
use muss_ti_repro::experiments::fingerprint::fingerprint;
use muss_ti_repro::ion_circuit::generators::{self, BenchmarkApp};
use muss_ti_repro::ion_circuit::Circuit;
use muss_ti_repro::muss_ti::{MussTiCompiler, MussTiOptions};

/// `(option label, fingerprint, inserted swaps)` per option set, in the
/// order of [`option_sets`].
type Pins = [(&'static str, u64, usize); 2];

/// The option sets every circuit is pinned under.
fn option_sets() -> [(&'static str, MussTiOptions); 2] {
    [
        ("default", MussTiOptions::default()),
        (
            "k12_t2",
            MussTiOptions::default()
                .with_lookahead(12)
                .with_swap_threshold(2),
        ),
    ]
}

/// Compiles `circuit` under each option set and checks it against `pins`.
fn assert_pinned(name: &str, circuit: &Circuit, pins: &Pins) {
    for ((label, options), &(pin_label, pin_hash, pin_swaps)) in option_sets().into_iter().zip(pins)
    {
        assert_eq!(label, pin_label, "{name}: pin order diverged");
        let device = DeviceConfig::for_qubits(circuit.num_qubits()).build();
        let program = MussTiCompiler::new(device, options)
            .compile(circuit)
            .expect("the device is sized for the circuit");
        let swaps = program.stage_timings().map(|t| t.inserted_swaps);
        assert_eq!(
            swaps,
            Some(pin_swaps as u64),
            "{name} ({label}): inserted swaps"
        );
        assert_eq!(
            fingerprint(&program),
            pin_hash,
            "{name} ({label}): op stream changed"
        );
    }
}

#[test]
fn qft_96_swap_streams_match_pins() {
    assert_pinned(
        "QFT_96",
        &generators::qft(96),
        &[
            ("default", 0x164336e61248cc58, 174),
            ("k12_t2", 0xdb4245a683e1846b, 163),
        ],
    );
}

#[test]
fn qft_128_swap_streams_match_pins() {
    assert_pinned(
        "QFT_128",
        &generators::qft(128),
        &[
            ("default", 0x4868426b994f7f1e, 312),
            ("k12_t2", 0x0fc58a29ccd4e898, 296),
        ],
    );
}

#[test]
fn medium_paper_app_swap_streams_match_pins() {
    let sqrt = BenchmarkApp::from_label("SQRT_117").expect("a paper label");
    assert_pinned(
        "SQRT_117",
        &sqrt.circuit(),
        &[
            ("default", 0xadc601eb5245cc27, 50),
            ("k12_t2", 0xaada815f4e0b68a4, 166),
        ],
    );
    // Adder_128 inserts swaps only under the eager window.
    let adder = BenchmarkApp::from_label("Adder_128").expect("a paper label");
    assert_pinned(
        "Adder_128",
        &adder.circuit(),
        &[
            ("default", 0xf9249ec6ba60a2dc, 0),
            ("k12_t2", 0x92b2f7841c1a08ca, 18),
        ],
    );
}

#[test]
fn wide_random_swap_streams_match_pins() {
    // The 16-module circuit of the scheduler's full-front-scan check.
    assert_pinned(
        "random_circuit(512, 4096, 11)",
        &generators::random_circuit(512, 4096, 11),
        &[
            ("default", 0x0619ec9233d1621b, 1),
            ("k12_t2", 0xcc90a0fd22af02d5, 56),
        ],
    );
}
