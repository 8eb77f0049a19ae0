//! Campaign drivers: run many generated cases under
//! [`std::panic::catch_unwind`] and collect every panic and divergence with
//! the case index needed to replay it (`bytes::case_rng(seed, case)`
//! recreates any case's generator exactly). Every compiled schedule in the
//! differential campaign — from MUSS-TI *and* each grid baseline — is also
//! replayed through the `verify` translation validator.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::bytes::{adversarial_source, case_rng, corpus_sources};
use crate::circuits::{hostile_circuits, wild_circuit};
use crate::{dag, differential};
use ion_circuit::qasm::{self, ParseLimits};

/// How a case failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The case panicked (caught by the harness).
    Panic,
    /// An oracle, round trip or differential compile disagreed.
    Divergence,
}

/// One failed case, with enough context to replay it.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// The case index within the campaign (`case_rng(seed, case)` replays
    /// its generator).
    pub case: u64,
    /// Panic or divergence.
    pub kind: FailureKind,
    /// The panic message or divergence description.
    pub detail: String,
}

/// The outcome of a campaign: total cases plus every failure.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Which campaign ran.
    pub name: &'static str,
    /// The campaign seed (combine with a failure's `case` to replay it).
    pub seed: u64,
    /// How many cases ran.
    pub cases: u64,
    /// Every panic and divergence observed.
    pub failures: Vec<CaseFailure>,
}

impl CampaignReport {
    /// `true` when no case panicked or diverged.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of caught panics.
    pub fn panics(&self) -> usize {
        self.failures
            .iter()
            .filter(|f| f.kind == FailureKind::Panic)
            .count()
    }

    /// Number of divergences.
    pub fn divergences(&self) -> usize {
        self.failures
            .iter()
            .filter(|f| f.kind == FailureKind::Divergence)
            .count()
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} campaign: {} cases (seed {:#x})",
            self.name, self.cases, self.seed
        )?;
        if self.is_clean() {
            return write!(f, ", clean");
        }
        write!(
            f,
            ", {} panic(s), {} divergence(s)",
            self.panics(),
            self.divergences()
        )?;
        for failure in self.failures.iter().take(10) {
            let kind = match failure.kind {
                FailureKind::Panic => "panic",
                FailureKind::Divergence => "divergence",
            };
            write!(f, "\n  case {} [{kind}]: {}", failure.case, failure.detail)?;
        }
        if self.failures.len() > 10 {
            write!(f, "\n  ... and {} more", self.failures.len() - 10)?;
        }
        write!(
            f,
            "\n  replay any case with bytes::case_rng({:#x}, case)",
            self.seed
        )
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs one case's check under `catch_unwind`, folding panics and
/// divergences into the failure list.
fn run_case(
    failures: &mut Vec<CaseFailure>,
    case: u64,
    check: impl FnOnce() -> Result<(), String>,
) {
    match catch_unwind(AssertUnwindSafe(check)) {
        Ok(Ok(())) => {}
        Ok(Err(detail)) => failures.push(CaseFailure {
            case,
            kind: FailureKind::Divergence,
            detail,
        }),
        Err(payload) => failures.push(CaseFailure {
            case,
            kind: FailureKind::Panic,
            detail: panic_message(&*payload),
        }),
    }
}

/// Adversarial-ingestion campaign: `cases` generated byte streams, then
/// every file of the committed `tests/corpus`, through [`qasm::parse`] and
/// the [`qasm_oracle`](crate::qasm_oracle) front-end. A case fails if
/// parsing (or rendering the error) panics, if the two front-ends disagree
/// ([`differential::check_qasm_oracle`]), or if an accepted circuit is
/// invalid or fails an exact `to_qasm` round trip.
pub fn qasm_campaign(seed: u64, cases: u64) -> CampaignReport {
    let mut failures = Vec::new();
    for case in 0..cases {
        run_case(&mut failures, case, || {
            check_source(&adversarial_source(&mut case_rng(seed, case)))
        });
    }
    let corpus = corpus_sources().unwrap_or_else(|e| {
        let detail = format!("reading the QASM corpus: {e}");
        failures.push(CaseFailure {
            case: cases,
            kind: FailureKind::Divergence,
            detail,
        });
        Vec::new()
    });
    for (i, (name, source)) in corpus.iter().enumerate() {
        run_case(&mut failures, cases + i as u64, || {
            check_source(source).map_err(|e| format!("{name}: {e}"))
        });
    }
    CampaignReport {
        name: "qasm",
        seed,
        cases: cases + corpus.len() as u64,
        failures,
    }
}

/// One ingestion case: both front-ends agree, and an accepted circuit is
/// valid and round-trips.
fn check_source(source: &str) -> Result<(), String> {
    differential::check_qasm_oracle(source, &ParseLimits::default())?;
    match qasm::parse(source) {
        Err(err) => {
            // Rendering diagnostics must not panic either.
            let _ = err.to_string();
            Ok(())
        }
        Ok(circuit) => {
            circuit
                .validate()
                .map_err(|e| format!("parser accepted an invalid circuit: {e}"))?;
            differential::check_qasm_roundtrip(&circuit)
        }
    }
}

/// Differential campaign: the deterministic hostile circuits, then `cases`
/// random valid circuits, each checked against the naive oracles, the QASM
/// round trip and the direct-vs-via-QASM compile.
pub fn differential_campaign(seed: u64, cases: u64) -> CampaignReport {
    let mut failures = Vec::new();
    let hostile = hostile_circuits();
    let hostile_count = hostile.len() as u64;
    for (i, circuit) in hostile.into_iter().enumerate() {
        let case = i as u64;
        run_case(&mut failures, case, || {
            differential::check_qasm_roundtrip(&circuit)?;
            dag::check_drain(&circuit, case)?;
            differential::check_differential_compile(&circuit)?;
            differential::check_all_compilers_verified(&circuit)
        });
    }
    for case in hostile_count..hostile_count + cases {
        run_case(&mut failures, case, || {
            let mut rng = case_rng(seed, case);
            let circuit = wild_circuit(&mut rng);
            differential::check_qasm_roundtrip(&circuit)?;
            dag::check_drain(&circuit, case)?;
            differential::check_differential_compile(&circuit)?;
            differential::check_all_compilers_verified(&circuit)?;
            differential::check_placement_oracle(&mut rng)?;
            // The weight-table drive is the most expensive check; sample it.
            if case % 4 == 0 {
                differential::check_weight_table(&mut rng)?;
            }
            Ok(())
        });
    }
    CampaignReport {
        name: "differential",
        seed,
        cases: hostile_count + cases,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_qasm_campaign_is_clean() {
        let report = qasm_campaign(0xF00D, 300);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn small_differential_campaign_is_clean() {
        let report = differential_campaign(0xBEEF, 12);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn report_display_lists_failures_with_replay_hint() {
        let report = CampaignReport {
            name: "qasm",
            seed: 0x42,
            cases: 10,
            failures: vec![CaseFailure {
                case: 3,
                kind: FailureKind::Panic,
                detail: "boom".into(),
            }],
        };
        assert!(!report.is_clean());
        assert_eq!(report.panics(), 1);
        assert_eq!(report.divergences(), 0);
        let text = report.to_string();
        assert!(text.contains("case 3 [panic]: boom"), "{text}");
        assert!(text.contains("case_rng(0x42, case)"), "{text}");
    }

    #[test]
    fn campaigns_are_reproducible() {
        let a = qasm_campaign(7, 100);
        let b = qasm_campaign(7, 100);
        assert_eq!(a.cases, b.cases);
        assert_eq!(a.failures.len(), b.failures.len());
    }
}
