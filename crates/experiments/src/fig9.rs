//! Figure 9: look-ahead ability analysis (k = 4 … 12).

use eml_qccd::Compiler;
use muss_ti::MussTiOptions;
use serde::{Deserialize, Serialize};

use crate::report::{format_fidelity, Table};
use crate::runner::{circuit_for, muss_ti_for};

/// Fidelity of one application at one look-ahead window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig9Point {
    /// Benchmark label.
    pub app: String,
    /// Look-ahead window `k`.
    pub lookahead: usize,
    /// Base-10 log fidelity.
    pub log10_fidelity: f64,
    /// Number of SWAP-insertion opportunities taken (reported for context).
    pub inserted_swaps: usize,
}

/// The look-ahead sweep result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig9Result {
    /// All (app, k) points.
    pub points: Vec<Fig9Point>,
}

/// The look-ahead values the paper sweeps.
pub fn lookahead_values() -> Vec<usize> {
    vec![4, 6, 8, 10, 12]
}

/// The applications of Fig. 9.
pub fn fig9_apps() -> Vec<&'static str> {
    vec!["QAOA_256", "Adder_256", "RAN_256", "SQRT_117", "SQRT_299"]
}

/// Runs the full look-ahead sweep.
pub fn run() -> Fig9Result {
    run_with(&fig9_apps(), &lookahead_values())
}

/// Runs the sweep over explicit application and `k` lists.
pub fn run_with(apps: &[&str], lookaheads: &[usize]) -> Fig9Result {
    let mut points = Vec::new();
    for app in apps {
        let circuit = circuit_for(app);
        for &k in lookaheads {
            let options = MussTiOptions::full().with_lookahead(k);
            let compiler = muss_ti_for(&circuit, options);
            let program = compiler
                .compile(&circuit)
                .unwrap_or_else(|e| panic!("{app} with k={k}: {e}"));
            let swaps = program
                .stage_timings()
                .map_or(0, |t| t.inserted_swaps as usize);
            points.push(Fig9Point {
                app: (*app).to_string(),
                lookahead: k,
                log10_fidelity: program.metrics().log10_fidelity(),
                inserted_swaps: swaps,
            });
        }
    }
    Fig9Result { points }
}

impl Fig9Result {
    /// Renders the sweep as a table.
    pub fn render(&self) -> String {
        let mut table = Table::new(
            "Fig 9 — Look-ahead analysis",
            &["Application", "k", "Fidelity", "Inserted SWAPs"],
        );
        for p in &self.points {
            table.push_row(vec![
                p.app.clone(),
                p.lookahead.to_string(),
                format_fidelity(p.log10_fidelity),
                p.inserted_swaps.to_string(),
            ]);
        }
        table.render()
    }

    /// The `k` value with the best fidelity for an application.
    pub fn best_lookahead(&self, app: &str) -> Option<usize> {
        self.points
            .iter()
            .filter(|p| p.app == app)
            .max_by(|a, b| a.log10_fidelity.total_cmp(&b.log10_fidelity))
            .map(|p| p.lookahead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_k() {
        let result = run_with(&["SQRT_117"], &[4, 8, 12]);
        assert_eq!(result.points.len(), 3);
        assert!(result.best_lookahead("SQRT_117").is_some());
        assert!(result.render().contains("Look-ahead"));
    }

    #[test]
    fn paper_parameters() {
        assert_eq!(lookahead_values(), vec![4, 6, 8, 10, 12]);
        assert_eq!(fig9_apps().len(), 5);
    }
}
