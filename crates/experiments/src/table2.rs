//! Table 2: small-scale comparison on 2×2 (capacity 12) and 2×3 (capacity 8)
//! structures against Murali, Dai and MQT.

use eml_qccd::GridConfig;
use serde::{Deserialize, Serialize};

use crate::report::{format_fidelity, Table};
use crate::runner::{circuit_for, evaluate, table2_compilers, AppResult};

/// One structure block of Table 2 (all applications × all compilers).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Block {
    /// Structure label, e.g. `"Grid 2x2 (capacity 12)"`.
    pub structure: String,
    /// Per-application, per-compiler results.
    pub results: Vec<AppResult>,
}

/// The full Table 2 reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Result {
    /// One block per structure (2×2 then 2×3).
    pub blocks: Vec<Table2Block>,
}

/// The applications of Table 2.
pub fn table2_apps() -> Vec<&'static str> {
    vec![
        "Adder_32", "BV_32", "GHZ_32", "QAOA_32", "QFT_32", "SQRT_30",
    ]
}

/// The two structures of Table 2: a 2×2 grid with trap capacity 12 and a 2×3
/// grid with trap capacity 8.
pub fn table2_structures() -> Vec<(String, GridConfig)> {
    vec![
        (
            "Grid 2x2 (capacity 12)".to_string(),
            GridConfig::new(2, 2, 12),
        ),
        (
            "Grid 2x3 (capacity 8)".to_string(),
            GridConfig::new(2, 3, 8),
        ),
    ]
}

/// Runs the full Table 2 experiment.
pub fn run() -> Table2Result {
    run_with_apps(&table2_apps())
}

/// Runs Table 2 restricted to a subset of applications (used by tests to keep
/// runtimes bounded).
pub fn run_with_apps(apps: &[&str]) -> Table2Result {
    let mut blocks = Vec::new();
    let circuits: Vec<_> = apps.iter().map(|app| circuit_for(app)).collect();
    for (structure, grid) in table2_structures() {
        let compilers = table2_compilers(&grid);
        let mut results = Vec::new();
        for circuit in &circuits {
            for compiler in &compilers {
                let result = evaluate(compiler.as_ref(), circuit).unwrap_or_else(|e| {
                    panic!(
                        "{} on {structure} with {}: {e}",
                        circuit.name(),
                        compiler.name()
                    )
                });
                results.push(result);
            }
        }
        blocks.push(Table2Block { structure, results });
    }
    Table2Result { blocks }
}

impl Table2Result {
    /// Renders the result in the layout of the paper's Table 2.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for block in &self.blocks {
            let mut table = Table::new(
                format!("Table 2 — {}", block.structure),
                &[
                    "Application",
                    "Compiler",
                    "Shuttle Count",
                    "Execution Time (us)",
                    "Fidelity",
                ],
            );
            for r in &block.results {
                table.push_row(vec![
                    r.app.clone(),
                    r.compiler.clone(),
                    r.shuttles.to_string(),
                    format!("{:.0}", r.execution_time_us),
                    format_fidelity(r.log10_fidelity),
                ]);
            }
            out.push_str(&table.render());
            out.push('\n');
        }
        out
    }

    /// Average shuttle-count reduction of MUSS-TI relative to the best
    /// baseline, over every (structure, application) pair — the headline
    /// "41.74 % for small-scale applications" style number.
    pub fn average_shuttle_reduction_vs_best_baseline(&self) -> f64 {
        let mut reductions = Vec::new();
        for block in &self.blocks {
            let apps: std::collections::BTreeSet<&str> =
                block.results.iter().map(|r| r.app.as_str()).collect();
            for app in apps {
                let ours = block
                    .results
                    .iter()
                    .find(|r| r.app == app && r.compiler.starts_with("MUSS-TI"));
                let best_baseline = block
                    .results
                    .iter()
                    .filter(|r| r.app == app && !r.compiler.starts_with("MUSS-TI"))
                    .map(|r| r.shuttles)
                    .min();
                if let (Some(ours), Some(base)) = (ours, best_baseline) {
                    reductions.push(crate::report::percent_reduction(
                        base as f64,
                        ours.shuttles as f64,
                    ));
                }
            }
        }
        if reductions.is_empty() {
            0.0
        } else {
            reductions.iter().sum::<f64>() / reductions.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_subset_runs_and_orders_compilers_correctly() {
        let result = run_with_apps(&["GHZ_32", "BV_32"]);
        assert_eq!(result.blocks.len(), 2);
        for block in &result.blocks {
            // 2 apps x 4 compilers.
            assert_eq!(block.results.len(), 8);
            for app in ["GHZ_32", "BV_32"] {
                let shuttles = |name: &str| {
                    block
                        .results
                        .iter()
                        .find(|r| r.app == app && r.compiler.starts_with(name))
                        .map(|r| r.shuttles)
                        .unwrap()
                };
                let ours = shuttles("MUSS-TI");
                let murali = shuttles("QCCD-Murali");
                let mqt = shuttles("MQT");
                assert!(ours <= murali, "{app}: ours={ours} murali={murali}");
                assert!(murali <= mqt, "{app}: murali={murali} mqt={mqt}");
            }
        }
        let rendered = result.render();
        assert!(rendered.contains("Table 2"));
        assert!(rendered.contains("MUSS-TI"));
    }

    #[test]
    fn reduction_metric_is_a_percentage() {
        let result = run_with_apps(&["GHZ_32"]);
        let reduction = result.average_shuttle_reduction_vs_best_baseline();
        assert!((0.0..=100.0).contains(&reduction), "got {reduction}");
    }

    #[test]
    fn app_and_structure_lists_match_paper() {
        assert_eq!(table2_apps().len(), 6);
        assert_eq!(table2_structures().len(), 2);
    }
}
