//! Seeded workload generation: the QASM sources each request sends, the
//! compiler it targets and the verdict it must get.

use std::fmt;
use std::fs;
use std::path::Path;
use std::rc::Rc;

use ion_circuit::generators::{qft, random_circuit, BenchmarkScale};
use ion_circuit::qasm::{self, ParseLimits};
use ion_circuit::Circuit;

/// The workloads the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 18 Fig. 6 apps, each compiled by MUSS-TI, Dai and Murali.
    PaperFig6,
    /// Dense random circuits at 256 / 512 / 1024 qubits, one distinct circuit
    /// per request of a round.
    WideRandom,
    /// Large QFT sources, the committed corpus, and corrupted copies.
    QasmIngest,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperFig6,
        Workload::WideRandom,
        Workload::QasmIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFig6 => "paper_fig6",
            Workload::WideRandom => "wide_random",
            Workload::QasmIngest => "qasm_ingest",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The stage layer (or pair) the workload was sized to make the largest,
    /// leaving out the fused `pipeline` re-run.
    pub fn dominant_layer(self) -> Option<&'static str> {
        match self {
            Workload::PaperFig6 => None,
            Workload::WideRandom => Some("mapping+scheduler"),
            Workload::QasmIngest => Some("qasm"),
        }
    }
}

/// Which compiler a request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CompilerKind {
    MussTi,
    Dai,
    Murali,
}

impl CompilerKind {
    pub fn name(self) -> &'static str {
        match self {
            CompilerKind::MussTi => "MUSS-TI",
            CompilerKind::Dai => "Dai",
            CompilerKind::Murali => "Murali",
        }
    }
}

/// The verdict a request must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Parses, compiles and verifies clean.
    Valid,
    /// Rejected by the parser with at least one diagnostic.
    Rejected,
}

/// One request's input.
#[derive(Debug, Clone)]
pub struct Input {
    /// Display name, unique within a workload, e.g. `QFT_96~mid`.
    pub label: String,
    /// Circuit name the source declares (the Fig. 6 app label for that
    /// workload).
    pub app: String,
    pub source: Rc<str>,
    pub compiler: CompilerKind,
    /// Qubits the target device is sized for.
    pub width: usize,
    /// Two-qubit gates of the source circuit (0 for rejected inputs).
    pub two_qubit_gates: usize,
    /// Gate statements in the source.
    pub gate_statements: usize,
    pub expect: Expect,
}

/// A set-up failure: the inputs could not be built as the workload needs.
#[derive(Debug)]
pub struct SetupError(pub String);

impl fmt::Display for SetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// SplitMix64: a small, fixed PRNG so inputs depend on `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Number of statements in `source` that apply a gate or measurement
/// (header, register declarations and comments excluded).
pub fn gate_statements(source: &str) -> usize {
    source
        .split(';')
        .filter(|chunk| {
            let stmt = chunk
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with("//"))
                .collect::<Vec<_>>()
                .join(" ");
            !stmt.is_empty()
                && !["OPENQASM", "include", "qreg", "creg"]
                    .iter()
                    .any(|kw| stmt.starts_with(kw))
        })
        .count()
}

fn valid(label: String, circuit: &Circuit, source: Rc<str>, compiler: CompilerKind) -> Input {
    Input {
        label,
        app: circuit.name().to_string(),
        gate_statements: gate_statements(&source),
        source,
        compiler,
        width: circuit.num_qubits(),
        two_qubit_gates: circuit.two_qubit_gate_count(),
        expect: Expect::Valid,
    }
}

fn rejected(label: String, source: String, width: usize) -> Input {
    Input {
        app: label.clone(),
        label,
        gate_statements: gate_statements(&source),
        source: source.into(),
        compiler: CompilerKind::MussTi,
        width,
        two_qubit_gates: 0,
        expect: Expect::Rejected,
    }
}

/// Builds the inputs of `workload` from `seed`. `corpus` is the directory of
/// committed `.qasm` files the ingest workload reads.
///
/// # Errors
///
/// Fails when the corpus cannot be read, a valid source does not parse, or a
/// corrupted copy is not rejected the way it must be.
pub fn build(workload: Workload, seed: u64, corpus: &Path) -> Result<Vec<Input>, SetupError> {
    let inputs = match workload {
        Workload::PaperFig6 => paper_fig6(),
        Workload::WideRandom => wide_random(seed),
        Workload::QasmIngest => qasm_ingest(seed, corpus)?,
    };
    check_rejections(&inputs)?;
    Ok(inputs)
}

/// Every Fig. 6 app, compiled by each of the three compilers the figure
/// compares. The inputs are the paper's and do not depend on the seed.
pub fn paper_fig6() -> Vec<Input> {
    let mut inputs = Vec::new();
    for scale in [
        BenchmarkScale::Small,
        BenchmarkScale::Medium,
        BenchmarkScale::Large,
    ] {
        for app in scale.apps() {
            let circuit = app.circuit();
            let source: Rc<str> = qasm::to_qasm(&circuit).into();
            for kind in [
                CompilerKind::MussTi,
                CompilerKind::Dai,
                CompilerKind::Murali,
            ] {
                let label = format!("{}/{}", app.label(), kind.name());
                inputs.push(valid(label, &circuit, source.clone(), kind));
            }
        }
    }
    inputs
}

/// Widths of the random-circuit sweep.
pub const WIDE_WIDTHS: [usize; 3] = [256, 512, 1024];
/// Distinct circuits per width in one round.
pub const WIDE_PER_WIDTH: usize = 8;
/// Two-qubit gates per qubit of a random circuit.
pub const WIDE_GATES_PER_QUBIT: usize = 8;

fn wide_random(seed: u64) -> Vec<Input> {
    let mut rng = Rng::new(seed ^ 0x7769_6465);
    let mut inputs = Vec::new();
    for i in 0..WIDE_PER_WIDTH {
        for n in WIDE_WIDTHS {
            let circuit = random_circuit(n, WIDE_GATES_PER_QUBIT * n, rng.next_u64());
            let source: Rc<str> = qasm::to_qasm(&circuit).into();
            let label = format!("RAN_{n}#{i}");
            inputs.push(valid(label, &circuit, source, CompilerKind::MussTi));
        }
    }
    inputs
}

/// QFT widths of the ingest workload. They are fixed so that the seed moves
/// only where the corruptions sit, not how much text there is to parse.
const INGEST_QFT_WIDTHS: [usize; 4] = [96, 128, 160, 192];

/// Where a corruption sits in a source.
#[derive(Debug, Clone, Copy)]
enum Site {
    Start,
    Middle,
    End,
    Throughout,
}

impl Site {
    const ALL: [Site; 4] = [Site::Start, Site::Middle, Site::End, Site::Throughout];

    fn name(self) -> &'static str {
        match self {
            Site::Start => "start",
            Site::Middle => "mid",
            Site::End => "end",
            Site::Throughout => "throughout",
        }
    }
}

fn qasm_ingest(seed: u64, corpus: &Path) -> Result<Vec<Input>, SetupError> {
    let mut rng = Rng::new(seed ^ 0x7161_736d);
    let mut inputs = Vec::new();
    for (i, n) in INGEST_QFT_WIDTHS.into_iter().enumerate() {
        let circuit = qft(n);
        let text = qasm::to_qasm(&circuit);
        // Every source gets one error at each single site; only the largest
        // also gets the copy with errors throughout.
        let last = i + 1 == INGEST_QFT_WIDTHS.len();
        for site in Site::ALL
            .into_iter()
            .filter(|s| last || !matches!(s, Site::Throughout))
        {
            let label = format!("{}~{}", circuit.name(), site.name());
            inputs.push(rejected(label, corrupt(&text, site, &mut rng), n));
        }
        let label = circuit.name().to_string();
        inputs.push(valid(label, &circuit, text.into(), CompilerKind::MussTi));
    }
    inputs.extend(corpus_inputs(corpus)?);
    Ok(inputs)
}

/// The committed corpus, in file-name order: `invalid_*` files must be
/// rejected, every other file must compile and verify clean.
fn corpus_inputs(dir: &Path) -> Result<Vec<Input>, SetupError> {
    let read_err = |e: std::io::Error| SetupError(format!("reading {}: {e}", dir.display()));
    let mut paths: Vec<_> = fs::read_dir(dir)
        .map_err(read_err)?
        .map(|entry| entry.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(read_err)?;
    paths.retain(|p| p.extension().is_some_and(|e| e == "qasm"));
    paths.sort();
    if paths.is_empty() {
        return Err(SetupError(format!("no .qasm files in {}", dir.display())));
    }
    let mut inputs = Vec::new();
    for path in paths {
        let stem = path
            .file_stem()
            .map_or_else(String::new, |s| s.to_string_lossy().into_owned());
        let source = fs::read_to_string(&path).map_err(read_err)?;
        if stem.starts_with("invalid_") {
            inputs.push(rejected(stem, source, 0));
        } else {
            let circuit = qasm::parse(&source)
                .map_err(|e| SetupError(format!("corpus file {stem} does not parse: {e}")))?;
            inputs.push(valid(stem, &circuit, source.into(), CompilerKind::MussTi));
        }
    }
    Ok(inputs)
}

/// Gate lines between which corruptions are placed. A corrupted copy keeps
/// every other line intact, so the parser must recover past each error.
fn gate_line_indices(lines: &[&str]) -> Vec<usize> {
    lines
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            l.ends_with(';')
                && !["OPENQASM", "include", "qreg", "creg"]
                    .iter()
                    .any(|k| l.starts_with(k))
        })
        .map(|(i, _)| i)
        .collect()
}

/// Rewrites one gate statement so that it cannot parse. The mutation kinds
/// are those the parser reports with a source position.
fn mutate(line: &str, kind: usize) -> String {
    match kind % 4 {
        // An unknown gate name.
        0 => format!("zz{line}"),
        // An operand outside the register.
        1 => match line.find("q[") {
            Some(at) => {
                let close = line[at..].find(']').map_or(line.len(), |c| at + c);
                format!("{}q[65535{}", &line[..at], &line[close..])
            }
            None => format!("zz{line}"),
        },
        // A missing operand list.
        2 => match line.find(' ') {
            Some(at) => format!("{};", &line[..at]),
            None => format!("zz{line}"),
        },
        // A dangling operator inside the parameter list, or a stray token.
        _ => match line.find('(') {
            Some(at) => format!("{}(*{}", &line[..at], &line[at + 1..]),
            None => format!("{} @", line.trim_end_matches(';')) + ";",
        },
    }
}

/// A copy of `source` with errors at `site`: one error near the start, the
/// middle or the end, or one on many lines, enough to hit the parser's
/// diagnostic cap.
fn corrupt(source: &str, site: Site, rng: &mut Rng) -> String {
    let lines: Vec<&str> = source.lines().collect();
    let gates = gate_line_indices(&lines);
    let n = gates.len();
    let jitter = (n / 20).max(1);
    let mut out: Vec<String> = lines.iter().map(|l| (*l).to_string()).collect();
    let kind = rng.below(4);
    let mut hit = |idx: usize, kind: usize| out[idx] = mutate(lines[idx], kind);
    match site {
        Site::Start => hit(gates[rng.below(jitter)], kind),
        Site::Middle => hit(gates[n / 2 - jitter / 2 + rng.below(jitter)], kind),
        Site::End => hit(gates[n - 1 - rng.below(jitter)], kind),
        Site::Throughout => {
            let cap = ParseLimits::default().max_diagnostics;
            let stride = (n / (4 * cap)).max(1);
            // Unknown gate names only: one diagnostic per error, so the cap,
            // and with it the parse cost, is reached at the same depth for
            // every seed.
            let offset = rng.below(stride);
            for &idx in gates.iter().skip(offset).step_by(stride) {
                hit(idx, 0);
            }
        }
    }
    out.join("\n") + "\n"
}

/// Confirms that every input expected to be rejected is: the parser returns
/// at least one diagnostic. Corrupted copies of the large sources (label
/// `NAME~site`) must also cite a line and column, and the copy corrupted
/// throughout must reach the diagnostic cap.
///
/// # Errors
///
/// Names the first input that parses or is rejected without the required
/// diagnostics.
pub fn check_rejections(inputs: &[Input]) -> Result<(), SetupError> {
    let cap = ParseLimits::default().max_diagnostics;
    for input in inputs.iter().filter(|i| i.expect == Expect::Rejected) {
        let diags = match qasm::parse(&input.source) {
            Ok(_) => {
                return Err(SetupError(format!(
                    "{} is meant to be rejected but parses",
                    input.label
                )))
            }
            Err(e) => e.diagnostics().to_vec(),
        };
        let located = diags.iter().any(|d| d.line > 0 && d.col > 0);
        let corrupted_copy = input.label.contains('~');
        if corrupted_copy && !located {
            return Err(SetupError(format!(
                "{} is rejected without a line/column diagnostic",
                input.label
            )));
        }
        if input.label.ends_with("~throughout") && diags.len() < cap {
            return Err(SetupError(format!(
                "{} yields {} diagnostics, short of the cap of {cap}",
                input.label,
                diags.len()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/corpus")
    }

    fn fingerprint(inputs: &[Input]) -> Vec<(String, String)> {
        inputs
            .iter()
            .map(|i| (i.label.clone(), i.source.to_string()))
            .collect()
    }

    #[test]
    fn seeded_generation_is_reproducible() {
        for workload in [Workload::WideRandom, Workload::QasmIngest] {
            let a = build(workload, 7, &corpus()).unwrap();
            let b = build(workload, 7, &corpus()).unwrap();
            let c = build(workload, 8, &corpus()).unwrap();
            assert_eq!(fingerprint(&a), fingerprint(&b), "{}", workload.name());
            assert_ne!(fingerprint(&a), fingerprint(&c), "{}", workload.name());
        }
        assert_eq!(fingerprint(&paper_fig6()), fingerprint(&paper_fig6()));
    }

    #[test]
    fn every_corruption_is_rejected_across_seeds() {
        for seed in 0..12 {
            let inputs = build(Workload::QasmIngest, seed, &corpus()).unwrap();
            assert_eq!(inputs.iter().filter(|i| i.label.contains('~')).count(), 13);
        }
    }

    #[test]
    fn rejection_check_catches_a_corruption_that_still_parses() {
        let circuit = qft(8);
        let text = qasm::to_qasm(&circuit);
        // Dropping a Hadamard is a corruption the parser cannot notice.
        let silent = text.replacen("h q[0];\n", "", 1);
        let mut inputs = vec![rejected("QFT_8~silent".into(), silent, 8)];
        let err = check_rejections(&inputs).unwrap_err();
        assert!(err.0.contains("parses"), "{err}");
        inputs[0] = rejected("QFT_8~start".into(), mutate("h q[0];", 0), 8);
        assert!(check_rejections(&inputs).is_ok());
        let short = corrupt(&text, Site::Start, &mut Rng::new(1));
        inputs[0] = rejected("QFT_8~throughout".into(), short, 8);
        assert!(check_rejections(&inputs)
            .unwrap_err()
            .0
            .contains("short of the cap"));
    }

    #[test]
    fn each_mutation_kind_breaks_a_statement() {
        for line in ["cp(0.5) q[1],q[2];", "h q[3];", "rxx(pi/2) q[0],q[1];"] {
            for kind in 0..4 {
                let src = format!(
                    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\n{}\n",
                    mutate(line, kind)
                );
                let err = qasm::parse(&src).expect_err(&format!("{line} kind {kind}"));
                assert!(
                    err.diagnostics().iter().any(|d| d.line == 4),
                    "{line} kind {kind}: {err}"
                );
            }
        }
    }

    #[test]
    fn gate_statements_skip_header_and_comments() {
        let src = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n// demo\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\n";
        assert_eq!(gate_statements(src), 3);
    }

    #[test]
    fn paper_suite_has_fifty_four_requests() {
        let inputs = paper_fig6();
        assert_eq!(inputs.len(), 54);
        assert!(inputs.iter().all(|i| i.expect == Expect::Valid));
    }
}
