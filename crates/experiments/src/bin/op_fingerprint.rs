//! Prints the pin of every compiler's op stream across the generator suite,
//! for seed-vs-optimized equivalence checking: one line per (circuit,
//! variant) with the FNV-1a op-stream fingerprint, the shuttle and chain
//! rearrangement counts, and the bits of `execution_time_us` and
//! `log10_fidelity()`. The suite, variants and hash live in
//! [`experiments::fingerprint`], shared with the pinned determinism test
//! (`tests/op_fingerprints.rs`).

use experiments::fingerprint;

fn main() {
    for circuit in fingerprint::suite() {
        for (variant, pin) in fingerprint::fingerprints_for(&circuit) {
            println!(
                "{}\t{}\t{:016x}\t{}\t{}\t{:016x}\t{:016x}",
                circuit.name(),
                variant,
                pin.hash,
                pin.shuttles,
                pin.chain_rearrangements,
                pin.execution_time_bits,
                pin.log10_fidelity_bits,
            );
        }
    }
}
