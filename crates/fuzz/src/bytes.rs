//! Adversarial byte-stream generators for the QASM front-end.
//!
//! Three families, from unstructured to structure-aware: raw bytes (lossy
//! UTF-8), token soup assembled from the QASM vocabulary, and mutations of
//! valid programs. All are driven by the deterministic `rand` shim so every
//! campaign case replays from its seed.

use ion_circuit::{generators, qasm};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// QASM vocabulary the token-soup generator draws from: keywords, gate
/// names (supported and not), punctuation and a few pathological literals.
const VOCAB: &[&str] = &[
    "OPENQASM",
    "2.0",
    "include",
    "\"qelib1.inc\"",
    "qreg",
    "creg",
    "gate",
    "opaque",
    "if",
    "measure",
    "barrier",
    "q",
    "c",
    "r0",
    "h",
    "x",
    "cx",
    "cz",
    "cp",
    "rz",
    "rx",
    "ry",
    "u1",
    "u2",
    "u3",
    "swap",
    "rzz",
    "ccx",
    "ccz",
    "rxx",
    "pi",
    "[",
    "]",
    "(",
    ")",
    "{",
    "}",
    ";",
    ",",
    "->",
    "==",
    "+",
    "-",
    "*",
    "/",
    "0",
    "1",
    "2",
    "17",
    "999999999",
    "1e309",
    "2.5",
    "1.2.3",
    "-1",
    "0x41",
    "_",
    "@",
];

/// A base corpus of valid programs to mutate: one per generator family, so
/// mutations explore realistic gate mixes, parameters and measurements.
fn base_corpus() -> Vec<String> {
    vec![
        qasm::to_qasm(&generators::qft(6)),
        qasm::to_qasm(&generators::ghz(8)),
        qasm::to_qasm(&generators::qaoa(6)),
        qasm::to_qasm(&generators::adder(8)),
        qasm::to_qasm(&generators::random_circuit(6, 24, 5)),
    ]
}

/// Raw random bytes, lossily decoded: exercises the lexer's handling of
/// arbitrary (including non-ASCII and control) characters.
pub fn random_bytes(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.gen_range(0..max_len.max(1));
    let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Random sequences of QASM vocabulary: syntactically plausible but almost
/// always semantically broken, exercising every parser error path.
pub fn token_soup(rng: &mut StdRng, max_tokens: usize) -> String {
    let count = rng.gen_range(0..max_tokens.max(1));
    let mut out = String::new();
    for _ in 0..count {
        out.push_str(VOCAB[rng.gen_range(0..VOCAB.len())]);
        out.push(if rng.gen_bool(0.8) { ' ' } else { '\n' });
    }
    out
}

/// A structure-aware mutation of a valid program: truncation, character
/// flips, line splicing from another program, numeric inflation, or a
/// parenthesis bomb in a parameter position.
pub fn mutated_qasm(rng: &mut StdRng) -> String {
    let corpus = base_corpus();
    let mut source = corpus[rng.gen_range(0..corpus.len())].clone();
    let mutations = rng.gen_range(1..4usize);
    for _ in 0..mutations {
        source = match rng.gen_range(0..5usize) {
            // Truncate mid-token.
            0 => {
                let mut cut = rng.gen_range(0..source.len().max(1)).min(source.len());
                while !source.is_char_boundary(cut) {
                    cut -= 1;
                }
                let mut s = source;
                s.truncate(cut);
                s
            }
            // Flip one character to a random ASCII byte.
            1 => {
                let mut bytes = source.into_bytes();
                if !bytes.is_empty() {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] = (rng.gen_range(0x20..0x7Fu32)) as u8;
                }
                String::from_utf8_lossy(&bytes).into_owned()
            }
            // Splice a random line from another corpus entry.
            2 => {
                let donor = &corpus[rng.gen_range(0..corpus.len())];
                let donor_lines: Vec<&str> = donor.lines().collect();
                let line = donor_lines[rng.gen_range(0..donor_lines.len())];
                let mut lines: Vec<&str> = source.lines().collect();
                let at = rng.gen_range(0..=lines.len());
                lines.insert(at, line);
                lines.join("\n")
            }
            // Inflate every register width and index.
            3 => source
                .replace("q[0]", &format!("q[{}]", rng.gen_range(0..1u64 << 40)))
                .replace("qreg q[", "qreg q[9"),
            // Insert a parenthesis bomb into a parameter list.
            _ => {
                let depth = rng.gen_range(1..200usize);
                let bomb = format!("rz({}pi{}) q[0];\n", "(".repeat(depth), ")".repeat(depth));
                format!("{source}{bomb}")
            }
        };
    }
    source
}

/// One adversarial source drawn from all the families above.
pub fn adversarial_source(rng: &mut StdRng) -> String {
    match rng.gen_range(0..4usize) {
        0 => random_bytes(rng, 400),
        1 => token_soup(rng, 120),
        _ => mutated_qasm(rng),
    }
}

/// The committed QASM corpus (`tests/corpus/*.qasm` at the workspace root)
/// as `(file name, source)` pairs in file-name order.
///
/// # Errors
///
/// Fails if the directory or one of its files cannot be read.
pub fn corpus_sources() -> std::io::Result<Vec<(String, String)>> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "qasm") {
            paths.push(path);
        }
    }
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let name = path
                .file_name()
                .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
            Ok((name, std::fs::read_to_string(&path)?))
        })
        .collect()
}

/// A fresh deterministic generator for case `index` of a campaign seeded
/// with `seed` (splitting per case keeps every case independently
/// replayable).
pub fn case_rng(seed: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ index.wrapping_mul(0x9e3779b97f4a7c15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        for index in [0u64, 1, 99] {
            let a = adversarial_source(&mut case_rng(42, index));
            let b = adversarial_source(&mut case_rng(42, index));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn families_produce_nonempty_variety() {
        let mut kinds = [0usize; 3];
        for i in 0..64 {
            let mut rng = case_rng(7, i);
            match rng.gen_range(0..4usize) {
                0 => kinds[0] += 1,
                1 => kinds[1] += 1,
                _ => kinds[2] += 1,
            }
        }
        assert!(kinds.iter().all(|&k| k > 0), "{kinds:?}");
    }

    #[test]
    fn base_corpus_is_valid_qasm() {
        for src in base_corpus() {
            assert!(qasm::parse(&src).is_ok());
        }
    }
}
