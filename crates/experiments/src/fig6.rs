//! Figure 6: shuttle count, execution time and fidelity across small (2×2),
//! medium (3×4) and large (4×5) scales, MUSS-TI vs Dai vs Murali.

use ion_circuit::generators::BenchmarkScale;
use serde::{Deserialize, Serialize};

use crate::report::{format_fidelity, percent_reduction, Table};
use crate::runner::{circuit_for, evaluate, fig6_compilers, AppResult};

/// Results for one size class (one column of Fig. 6).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Column {
    /// `"Small"`, `"Middle"` or `"Large"`.
    pub scale: String,
    /// Per-application, per-compiler results.
    pub results: Vec<AppResult>,
}

/// The full Figure 6 reproduction (three columns × three metrics).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Result {
    /// Columns in small → large order.
    pub columns: Vec<Fig6Column>,
}

fn scale_name(scale: BenchmarkScale) -> &'static str {
    match scale {
        BenchmarkScale::Small => "Small Scale, 2x2",
        BenchmarkScale::Medium => "Middle Scale, 3x4",
        BenchmarkScale::Large => "Large Scale, 4x5",
    }
}

/// Runs the full Figure 6 experiment (all three scales).
pub fn run() -> Fig6Result {
    run_scales(&[
        BenchmarkScale::Small,
        BenchmarkScale::Medium,
        BenchmarkScale::Large,
    ])
}

/// Runs Figure 6 for a subset of scales.
pub fn run_scales(scales: &[BenchmarkScale]) -> Fig6Result {
    let columns = scales
        .iter()
        .map(|&scale| {
            let mut results = Vec::new();
            for app in scale.labels() {
                let circuit = circuit_for(app);
                for compiler in fig6_compilers(circuit.num_qubits()) {
                    let result = evaluate(compiler.as_ref(), &circuit)
                        .unwrap_or_else(|e| panic!("{app} with {}: {e}", compiler.name()));
                    results.push(result);
                }
            }
            Fig6Column {
                scale: scale_name(scale).to_string(),
                results,
            }
        })
        .collect();
    Fig6Result { columns }
}

impl Fig6Result {
    /// Renders the three metric rows of Fig. 6 as tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for column in &self.columns {
            let mut table = Table::new(
                format!("Fig 6 — {}", column.scale),
                &[
                    "Application",
                    "Compiler",
                    "Shuttles",
                    "Time (us)",
                    "Fidelity",
                ],
            );
            for r in &column.results {
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

    /// Average shuttle reduction of MUSS-TI vs the best baseline per scale,
    /// in the order the scales were run (the paper reports 41.74 % / 73.38 % /
    /// 59.82 % for small / medium / large).
    pub fn shuttle_reduction_per_scale(&self) -> Vec<(String, f64)> {
        self.columns
            .iter()
            .map(|column| {
                let apps: std::collections::BTreeSet<&str> =
                    column.results.iter().map(|r| r.app.as_str()).collect();
                let mut reductions = Vec::new();
                for app in apps {
                    let ours = column
                        .results
                        .iter()
                        .find(|r| r.app == app && r.compiler.starts_with("MUSS-TI"))
                        .map(|r| r.shuttles);
                    let best = column
                        .results
                        .iter()
                        .filter(|r| r.app == app && !r.compiler.starts_with("MUSS-TI"))
                        .map(|r| r.shuttles)
                        .min();
                    if let (Some(ours), Some(best)) = (ours, best) {
                        reductions.push(percent_reduction(best as f64, ours as f64));
                    }
                }
                let avg = if reductions.is_empty() {
                    0.0
                } else {
                    reductions.iter().sum::<f64>() / reductions.len() as f64
                };
                (column.scale.clone(), avg)
            })
            .collect()
    }

    /// Average execution-time reduction of MUSS-TI vs the best baseline per scale.
    pub fn time_reduction_per_scale(&self) -> Vec<(String, f64)> {
        self.columns
            .iter()
            .map(|column| {
                let apps: std::collections::BTreeSet<&str> =
                    column.results.iter().map(|r| r.app.as_str()).collect();
                let mut reductions = Vec::new();
                for app in apps {
                    let ours = column
                        .results
                        .iter()
                        .find(|r| r.app == app && r.compiler.starts_with("MUSS-TI"))
                        .map(|r| r.execution_time_us);
                    let best = column
                        .results
                        .iter()
                        .filter(|r| r.app == app && !r.compiler.starts_with("MUSS-TI"))
                        .map(|r| r.execution_time_us)
                        .fold(None, |acc: Option<f64>, t| {
                            Some(acc.map_or(t, |a| a.min(t)))
                        });
                    if let (Some(ours), Some(best)) = (ours, best) {
                        reductions.push(percent_reduction(best, ours));
                    }
                }
                let avg = if reductions.is_empty() {
                    0.0
                } else {
                    reductions.iter().sum::<f64>() / reductions.len() as f64
                };
                (column.scale.clone(), avg)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_column_favours_muss_ti() {
        let result = run_scales(&[BenchmarkScale::Small]);
        assert_eq!(result.columns.len(), 1);
        let column = &result.columns[0];
        // 6 apps x 3 compilers.
        assert_eq!(column.results.len(), 18);
        let reductions = result.shuttle_reduction_per_scale();
        assert!(
            reductions[0].1 > 20.0,
            "MUSS-TI should reduce shuttles on average: {reductions:?}"
        );
        let times = result.time_reduction_per_scale();
        assert!(
            times[0].1 > 0.0,
            "MUSS-TI should reduce execution time: {times:?}"
        );
        // Fidelity: MUSS-TI stays within a few orders of magnitude of the
        // best baseline for every small-scale application (the paper reports
        // a net improvement; see EXPERIMENTS.md for the measured gap and the
        // reason — our packed gate zones hold more ions than the grid traps).
        for app in BenchmarkScale::Small.labels() {
            let ours = column
                .results
                .iter()
                .find(|r| r.app == app && r.compiler.starts_with("MUSS-TI"))
                .unwrap()
                .log10_fidelity;
            let best_baseline = column
                .results
                .iter()
                .filter(|r| r.app == app && !r.compiler.starts_with("MUSS-TI"))
                .map(|r| r.log10_fidelity)
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(
                ours >= best_baseline - 4.0,
                "{app}: MUSS-TI fidelity 1e{ours:.1} far below best baseline 1e{best_baseline:.1}"
            );
        }
        assert!(result.render().contains("Fig 6"));
    }
}
