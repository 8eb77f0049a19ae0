//! Adversarial byte-stream generators for the QASM front-end.
//!
//! Three families, from unstructured to structure-aware: raw bytes (lossy
//! UTF-8), token soup assembled from the QASM vocabulary, and mutations of
//! valid programs, including rewrites of one statement at the edge of what
//! the parser's statement fast path accepts. All are driven by the
//! deterministic `rand` shim so every campaign case replays from its seed.

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
/// flips, line splicing from another program, numeric inflation, a
/// parenthesis bomb in a parameter position, or a rewrite of one statement
/// at the edge of the parser's statement fast path.
pub fn mutated_qasm(rng: &mut StdRng) -> String {
    let corpus = base_corpus();
    let mut source = corpus[rng.gen_range(0..corpus.len())].clone();
    let mutations = rng.gen_range(1..4usize);
    for _ in 0..mutations {
        source = match rng.gen_range(0..6usize) {
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
            // Rewrite one gate statement.
            4 => mutated_statement(rng, &source),
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

/// Spellings of a parameter that the statement fast path reads exactly, or
/// must leave to the token path.
const PARAMS: &[&str] = &[
    "-pi/2", "pi*2", "2*pi", "--pi", "-(pi)", "pi/0", "1e309", "1e-400", ".5", "5.", "1.2.3",
    "- pi / 4", "pi/-2", "pi//2\n", "0.1,0.2", "", "pi+1",
];

/// Spellings of a qubit operand's index, in and out of a register of 6 or
/// more qubits.
const INDICES: &[&str] = &[
    "[007]",
    "[ 3 ]",
    "[3.0]",
    "[1e1]",
    "[18446744073709551616]",
    "[9007199254740993]",
    "[6]",
    "[\n1\t]",
    "[.5]",
    "[]",
];

/// What a statement's name may become: other case, keywords, conditions,
/// names the subset does not know.
const NAMES: &[&str] = &[
    "CX",
    "U",
    "cx",
    "ccx",
    "h",
    "hh",
    "h.x",
    "measure",
    "barrier",
    "if (c==1) cx",
    "if(c==0) h",
    "gate",
    "qreg",
    "pi",
];

/// Whitespace and comments to put between two tokens.
const GAPS: &[&str] = &["\n", "\t", " // note\n", "  ", "\r\n", "/**/"];

/// Rewrites one gate statement of `source` at the edge of what the statement
/// fast path accepts: whitespace or a comment between two of its tokens, a
/// boundary spelling of a parameter or an index, another name, a repeated
/// operand, or no final `;`.
fn mutated_statement(rng: &mut StdRng, source: &str) -> String {
    let mut lines: Vec<String> = source.lines().map(str::to_string).collect();
    let statements: Vec<usize> = (0..lines.len())
        .filter(|&i| {
            let line = &lines[i];
            line.ends_with(';')
                && !["OPENQASM", "include", "qreg", "creg", "//"]
                    .iter()
                    .any(|k| line.starts_with(k))
        })
        .collect();
    if statements.is_empty() {
        return source.to_string();
    }
    let at = statements[rng.gen_range(0..statements.len())];
    let line = lines[at].clone();
    let pick = |rng: &mut StdRng, list: &[&'static str]| list[rng.gen_range(0..list.len())];
    let name_end = line.find([' ', '(']).unwrap_or(0);
    lines[at] = match rng.gen_range(0..6usize) {
        0 => {
            let cuts: Vec<usize> = line
                .char_indices()
                .filter(|&(_, c)| " ,()[]-;".contains(c))
                .map(|(i, _)| i)
                .collect();
            let cut = cuts[rng.gen_range(0..cuts.len())];
            format!("{}{}{}", &line[..cut], pick(rng, GAPS), &line[cut..])
        }
        1 => {
            let param = pick(rng, PARAMS);
            match (line.find('('), line.find(')')) {
                (Some(open), Some(close)) => {
                    format!("{}{param}{}", &line[..=open], &line[close..])
                }
                _ => format!("{}({param}){}", &line[..name_end], &line[name_end..]),
            }
        }
        2 => match (line.find('['), line.find(']')) {
            (Some(open), Some(close)) => {
                format!(
                    "{}{}{}",
                    &line[..open],
                    pick(rng, INDICES),
                    &line[close + 1..]
                )
            }
            _ => line,
        },
        3 => format!("{}{}", pick(rng, NAMES), &line[name_end..]),
        4 => match line.rfind(' ') {
            // The first operand again, in front of the list.
            Some(space) => {
                let operands = &line[space + 1..line.len() - 1];
                let first = operands.split(',').next().unwrap_or(operands);
                format!("{} {first},{operands};", &line[..space])
            }
            None => line,
        },
        _ => line.trim_end_matches(';').to_string(),
    };
    lines.join("\n") + "\n"
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
    fn statement_rewrites_change_one_statement() {
        let source = qasm::to_qasm(&generators::qaoa(6));
        let mut changed = 0;
        for i in 0..200 {
            let mutated = mutated_statement(&mut case_rng(11, i), &source);
            assert_eq!(mutated, mutated_statement(&mut case_rng(11, i), &source));
            let before: Vec<&str> = source.lines().collect();
            let after: Vec<&str> = mutated.lines().collect();
            // Only one line differs, unless a gap split it in two.
            let same_prefix = before
                .iter()
                .zip(&after)
                .take_while(|(a, b)| a == b)
                .count();
            let same_suffix = before
                .iter()
                .rev()
                .zip(after.iter().rev())
                .take_while(|(a, b)| a == b)
                .count();
            assert!(same_prefix + same_suffix + 1 >= before.len(), "{mutated}");
            changed += usize::from(mutated != source);
        }
        assert!(
            changed > 150,
            "{changed} of 200 rewrites changed the source"
        );
    }

    #[test]
    fn base_corpus_is_valid_qasm() {
        for src in base_corpus() {
            assert!(qasm::parse(&src).is_ok());
        }
    }
}
