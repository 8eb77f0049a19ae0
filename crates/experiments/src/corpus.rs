//! Corpus runner: batch-compiles a directory of `.qasm` files with per-file
//! reporting.
//!
//! The corpus convention mirrors classic fuzzing corpora: files named
//! `invalid_*.qasm` are *expected* to be rejected by the parser (a graceful
//! structured error is a pass; parsing successfully is a failure), every
//! other file must parse, validate and compile. All accepted circuits go
//! through the fault-isolated [`eml_qccd::compile_batch`] path
//! on one shared device sized for the widest circuit, so a single defective
//! file can never take down the rest of the run.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use eml_qccd::{compile_batch, DeviceConfig, ScheduleCheck};
use ion_circuit::{qasm, Circuit};
use muss_ti::{MussTiCompiler, MussTiOptions};
use verify::{DeviceModel, ScheduleVerifier};

/// What happened to one corpus file.
#[derive(Debug, Clone)]
pub enum FileStatus {
    /// Parsed and compiled (valid files only).
    Compiled {
        /// Gate count of the parsed circuit.
        gates: usize,
        /// Scheduled op count of the compiled program.
        ops: usize,
    },
    /// Rejected by the parser with structured diagnostics (a pass for
    /// `invalid_*` files).
    Rejected {
        /// Number of diagnostics reported.
        diagnostics: usize,
        /// The first diagnostic, rendered.
        first: String,
    },
    /// An unexpected outcome: a valid file failed to parse or compile, or an
    /// `invalid_*` file parsed successfully.
    Failed {
        /// Why the file failed.
        reason: String,
    },
}

/// Per-file outcome.
#[derive(Debug, Clone)]
pub struct FileOutcome {
    /// File name (not the full path).
    pub file: String,
    /// The outcome.
    pub status: FileStatus,
}

impl FileOutcome {
    /// `true` unless the outcome is [`FileStatus::Failed`].
    pub fn passed(&self) -> bool {
        !matches!(self.status, FileStatus::Failed { .. })
    }
}

impl fmt::Display for FileOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.status {
            FileStatus::Compiled { gates, ops } => {
                write!(f, "ok   {}: {gates} gates -> {ops} ops", self.file)
            }
            FileStatus::Rejected { diagnostics, first } => {
                write!(
                    f,
                    "ok   {}: rejected ({diagnostics} diagnostics; {first})",
                    self.file
                )
            }
            FileStatus::Failed { reason } => write!(f, "FAIL {}: {reason}", self.file),
        }
    }
}

/// The outcome of a whole corpus run.
#[derive(Debug, Clone)]
pub struct CorpusReport {
    /// One entry per `.qasm` file, in name order.
    pub outcomes: Vec<FileOutcome>,
}

impl CorpusReport {
    /// Number of files whose outcome is a failure.
    pub fn failures(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.passed()).count()
    }

    /// `true` when every file passed.
    pub fn is_clean(&self) -> bool {
        self.failures() == 0
    }
}

impl fmt::Display for CorpusReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for outcome in &self.outcomes {
            writeln!(f, "{outcome}")?;
        }
        write!(
            f,
            "corpus: {} files, {} failed",
            self.outcomes.len(),
            self.failures()
        )
    }
}

/// Runs the corpus in `dir`: parses every `.qasm` file, then batch-compiles
/// all accepted circuits with `threads` workers.
pub fn run_corpus(dir: &Path, threads: usize) -> io::Result<CorpusReport> {
    run_corpus_with(dir, threads, false)
}

/// [`run_corpus`] with an optional translation-validation pass: when
/// `verify_schedules` is set, every compiled program is replayed through the
/// [`verify::ScheduleVerifier`] inside the batch (still fault-isolated — a
/// verifier veto fails only its own file, as
/// [`eml_qccd::CompileError::VerificationFailed`]).
pub fn run_corpus_with(
    dir: &Path,
    threads: usize,
    verify_schedules: bool,
) -> io::Result<CorpusReport> {
    let mut files: Vec<_> = fs::read_dir(dir)?
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|e| e == "qasm"))
        .collect();
    files.sort();

    let mut outcomes = Vec::with_capacity(files.len());
    // Parse phase: per-file outcomes; accepted circuits queue for the batch.
    let mut accepted: Vec<(usize, Circuit)> = Vec::new();
    for path in &files {
        let file = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let expect_invalid = file.starts_with("invalid_");
        let source = fs::read_to_string(path)?;
        let status = match (qasm::parse(&source), expect_invalid) {
            (Err(err), true) => FileStatus::Rejected {
                diagnostics: err.diagnostics().len(),
                first: err.first().kind.to_string(),
            },
            (Err(err), false) => FileStatus::Failed {
                reason: format!("failed to parse: {}", err.first()),
            },
            (Ok(_), true) => FileStatus::Failed {
                reason: "expected the parser to reject this file, but it parsed".to_string(),
            },
            (Ok(circuit), false) => {
                accepted.push((outcomes.len(), circuit));
                // Placeholder; patched after the batch compile below.
                FileStatus::Failed {
                    reason: "not compiled".to_string(),
                }
            }
        };
        outcomes.push(FileOutcome { file, status });
    }

    // Compile phase: one fault-isolated batch on a shared device sized for
    // the widest accepted circuit.
    if !accepted.is_empty() {
        let widest = accepted
            .iter()
            .map(|(_, c)| c.num_qubits())
            .max()
            .unwrap_or(1);
        let device = DeviceConfig::for_qubits(widest).build();
        let verifier = ScheduleVerifier::new(DeviceModel::from(&device));
        let compiler = MussTiCompiler::new(device, MussTiOptions::default());
        let circuits: Vec<Circuit> = accepted.iter().map(|(_, c)| c.clone()).collect();
        let check = verifier.as_check();
        let check = verify_schedules.then_some(&check as ScheduleCheck<'_>);
        let results = compile_batch(&compiler, &circuits, threads, check);
        for ((slot, circuit), result) in accepted.iter().zip(results) {
            outcomes[*slot].status = match result {
                Ok(program) => FileStatus::Compiled {
                    gates: circuit.len(),
                    ops: program.ops().len(),
                },
                Err(err) => FileStatus::Failed {
                    reason: format!("failed to compile: {err}"),
                },
            };
        }
    }

    Ok(CorpusReport { outcomes })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed mini-corpus, relative to the workspace root.
    fn corpus_dir() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
    }

    #[test]
    fn committed_corpus_is_clean() {
        let report = run_corpus(&corpus_dir(), 2).expect("corpus directory exists");
        assert!(report.outcomes.len() >= 10, "{report}");
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn committed_corpus_verifies_clean() {
        let report = run_corpus_with(&corpus_dir(), 2, true).expect("corpus directory exists");
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn corpus_has_both_valid_and_invalid_files() {
        let report = run_corpus(&corpus_dir(), 1).expect("corpus directory exists");
        let compiled = report
            .outcomes
            .iter()
            .filter(|o| matches!(o.status, FileStatus::Compiled { .. }))
            .count();
        let rejected = report
            .outcomes
            .iter()
            .filter(|o| matches!(o.status, FileStatus::Rejected { .. }))
            .count();
        assert!(compiled >= 5, "{report}");
        assert!(rejected >= 5, "{report}");
    }

    #[test]
    fn a_defective_file_fails_alone() {
        let dir = std::env::temp_dir().join("muss_ti_corpus_test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("good.qasm"),
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n",
        )
        .unwrap();
        fs::write(dir.join("bad.qasm"), "OPENQASM 2.0;\nqreg q[999999999];\n").unwrap();
        let report = run_corpus(&dir, 1).unwrap();
        assert_eq!(report.failures(), 1, "{report}");
        assert!(report
            .outcomes
            .iter()
            .any(|o| o.file == "good.qasm" && o.passed()));
        let _ = fs::remove_dir_all(&dir);
    }
}
