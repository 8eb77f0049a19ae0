//! Compile-time micro-benchmark (Fig. 10 companion): times every compiler in
//! the workspace on a fixed workload set and emits `BENCH_compile_time.json`
//! so the compile-time trajectory is tracked from PR to PR.
//!
//! Unlike [`fig10`](crate::fig10) (which reproduces the paper's scaling
//! curve for MUSS-TI only), this benchmark compares *all* compilers on the
//! same circuits with explicit iteration counts, and serialises the raw
//! wall-clock numbers for CI artefact upload. JSON is emitted by hand — the
//! build environment has no serde_json.
//!
//! Every timed loop runs `Compiler::compile_in` with a reused compile
//! context (the warm-context serving path), and the report additionally
//! measures multi-threaded [`compile_batch`] throughput over the
//! whole workload set (circuits/second) — both paths the ROADMAP's
//! heavy-traffic serving story cares about — and the QASM front-end's parse
//! speed on the sources of [`parse_workloads`], the layer in front of every
//! compile.

use std::time::Instant;

use baselines::{DaiCompiler, MqtStyleCompiler, MuraliCompiler};
use eml_qccd::{compile_batch, CompileError, Compiler, DeviceConfig, StageTimings};
use ion_circuit::{generators, qasm, Circuit};
use muss_ti::{MussTiCompiler, MussTiOptions};
use serde::{Deserialize, Serialize};

/// Sums `phases` into `acc`, field by field, rejecting negative phase values
/// (the compiler clamps the derived scheduling slice at zero, so a negative
/// value reaching the report would mean that guard regressed).
fn accumulate(acc: &mut StageTimings, phases: &StageTimings) {
    for (name, value) in [
        ("placement_ms", phases.placement_ms),
        ("scheduling_ms", phases.scheduling_ms),
        ("swap_insertion_ms", phases.swap_insertion_ms),
        ("lowering_ms", phases.lowering_ms),
    ] {
        assert!(value >= 0.0, "negative phase timing {name} = {value}");
    }
    acc.placement_ms += phases.placement_ms;
    acc.scheduling_ms += phases.scheduling_ms;
    acc.swap_insertion_ms += phases.swap_insertion_ms;
    acc.lowering_ms += phases.lowering_ms;
    acc.window_probe_visits += phases.window_probe_visits;
    acc.probe_skips += phases.probe_skips;
    acc.swap_window_walks += phases.swap_window_walks;
}

/// Divides every field by `iterations` to get per-compile means. The hot-path
/// counters are deterministic per circuit, so their mean is exact (integer).
fn averaged(mut sum: StageTimings, iterations: usize) -> StageTimings {
    let n = iterations as f64;
    sum.placement_ms /= n;
    sum.scheduling_ms /= n;
    sum.swap_insertion_ms /= n;
    sum.lowering_ms /= n;
    sum.window_probe_visits /= iterations as u64;
    sum.probe_skips /= iterations as u64;
    sum.swap_window_walks /= iterations as u64;
    sum
}

/// Wall-clock numbers for one (circuit, compiler) pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchRow {
    /// Circuit label, e.g. `"QFT_48"`.
    pub circuit: String,
    /// Number of logical qubits.
    pub qubits: usize,
    /// Number of two-qubit gates (the complexity driver).
    pub two_qubit_gates: usize,
    /// Compiler display name.
    pub compiler: String,
    /// Mean wall-clock compile time over the iterations, in milliseconds.
    pub wall_ms_mean: f64,
    /// Fastest iteration, in milliseconds.
    pub wall_ms_min: f64,
    /// Slowest iteration, in milliseconds.
    pub wall_ms_max: f64,
    /// Mean per-phase breakdown (MUSS-TI only; averaged over the iterations —
    /// baselines report `None` because they have no comparable phase
    /// structure).
    pub phases: Option<StageTimings>,
}

/// Multi-threaded batch-compilation throughput over the whole workload set.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BatchThroughput {
    /// Circuits per batch call.
    pub circuits: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Number of batch calls timed.
    pub runs: usize,
    /// Total wall-clock across all batch calls, in milliseconds.
    pub wall_ms: f64,
    /// Compiled circuits per second of wall-clock.
    pub circuits_per_sec: f64,
}

/// Parse speed of one QASM source: medians over interleaved repetitions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParseRow {
    /// Source label, e.g. `"RAN_1024"`.
    pub source: String,
    /// Source length in bytes.
    pub bytes: usize,
    /// Statements in the source (one `;` each).
    pub statements: usize,
    /// Timed parses of this source.
    pub repetitions: usize,
    /// Median parse speed, in MB (10^6 bytes) per second.
    pub mb_per_s: f64,
    /// Median parse time per statement, in nanoseconds.
    pub ns_per_statement: f64,
}

/// A full benchmark run: configuration plus every row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Timed iterations per (circuit, compiler) pair.
    pub iterations: usize,
    /// All measurements.
    pub rows: Vec<BenchRow>,
    /// MUSS-TI batch-compilation throughput over the workload set
    /// (multi-threaded `compile_batch` with per-worker context reuse on one
    /// device sized for the largest workload — the heavy-traffic serving
    /// scenario), measured once per entry of [`BATCH_THREAD_COUNTS`] so the
    /// report keys throughput by worker count.
    pub batch: Vec<BatchThroughput>,
    /// `qasm::parse` speed on each source of [`parse_workloads`].
    pub qasm_parse: Vec<ParseRow>,
}

/// Worker counts the batch-throughput section is measured at: the
/// long-standing 2-thread serving configuration plus the 8-thread scale-out
/// point the ROADMAP tracks. On machines with fewer cores the extra workers
/// timeshare — the report records what the hardware actually delivered.
pub const BATCH_THREAD_COUNTS: [usize; 2] = [2, 8];

/// The benchmark workload set: `qft(48)` (the acceptance target), a
/// supremacy-class circuit, three structurally distinct mid-size
/// applications, and four large stress circuits (`qft(96)` and dense random
/// 128-, 1024- and 4096-qubit programs) that track *scaling*, not just the
/// qft(48) spot value. `RAN_1024` is where a per-step cost that grows with
/// the device width (such as rescanning the whole front layer) shows first;
/// `RAN_4096`, at the validation-limit width, is where an `O(window)` term
/// (such as rebuilding the look-ahead window per retired gate) dominates.
pub fn workloads() -> Vec<Circuit> {
    vec![
        generators::qft(48),
        generators::supremacy(36),
        generators::adder(64),
        generators::qaoa(64),
        generators::bv(128),
        generators::qft(96),
        generators::random_circuit(128, 2000, 25),
        generators::random_circuit(1024, 8192, 25),
        generators::random_circuit(4096, 32768, 25),
    ]
}

/// The QASM sources whose parse speed the report tracks: the `to_qasm` text
/// of two gate-dense circuits with short statements (`RAN_1024`'s
/// `rxx(pi/2) q[a],q[b];`, `SQRT_299`'s `cx q[a],q[b];`) and of `QFT_192`,
/// whose 17–19 digit angle literals dominate its parse.
pub fn parse_workloads() -> Vec<(&'static str, String)> {
    vec![
        (
            "RAN_1024",
            qasm::to_qasm(&generators::random_circuit(1024, 8192, 25)),
        ),
        ("SQRT_299", qasm::to_qasm(&generators::sqrt(299))),
        ("QFT_192", qasm::to_qasm(&generators::qft(192))),
    ]
}

/// Timed parses of each [`parse_workloads`] source per benchmark iteration.
pub const PARSE_REPETITIONS_PER_ITERATION: usize = 10;

/// Times `qasm::parse` on each source `repetitions` times, interleaving the
/// sources so host drift hits all of them alike, and reports medians.
///
/// # Panics
///
/// Panics if a source does not parse or `repetitions` is zero.
pub fn measure_parse(sources: &[(&str, String)], repetitions: usize) -> Vec<ParseRow> {
    assert!(repetitions > 0, "at least one timed parse is required");
    let mut samples_s = vec![Vec::with_capacity(repetitions); sources.len()];
    for _ in 0..repetitions {
        for ((label, source), samples) in sources.iter().zip(&mut samples_s) {
            let start = Instant::now();
            let parsed = qasm::parse(std::hint::black_box(source));
            samples.push(start.elapsed().as_secs_f64());
            let circuit = parsed.unwrap_or_else(|e| panic!("{label} does not parse: {e}"));
            std::hint::black_box(circuit);
        }
    }
    sources
        .iter()
        .zip(samples_s)
        .map(|((label, source), mut samples)| {
            samples.sort_by(f64::total_cmp);
            let median = samples[samples.len() / 2].max(1e-12);
            let statements = source.matches(';').count().max(1);
            ParseRow {
                source: (*label).to_string(),
                bytes: source.len(),
                statements,
                repetitions,
                mb_per_s: source.len() as f64 / median / 1e6,
                ns_per_statement: median * 1e9 / statements as f64,
            }
        })
        .collect()
}

/// Runs the benchmark over [`workloads`] with `iterations` timed runs per
/// (circuit, compiler) pair (pass 1 for CI smoke runs).
pub fn run(iterations: usize) -> BenchReport {
    run_with(&workloads(), iterations)
}

/// Runs the benchmark over explicit circuits.
///
/// # Panics
///
/// Panics if a compiler fails on a workload (the workloads are all sized to
/// fit their devices) or if `iterations` is zero.
pub fn run_with(circuits: &[Circuit], iterations: usize) -> BenchReport {
    assert!(iterations > 0, "at least one timed iteration is required");

    fn finish_row(
        circuit: &Circuit,
        compiler: &str,
        samples_ms: &[f64],
        phases: Option<StageTimings>,
    ) -> BenchRow {
        let min = samples_ms.iter().cloned().fold(f64::MAX, f64::min);
        let max = samples_ms.iter().cloned().fold(f64::MIN, f64::max);
        let mean = samples_ms.iter().sum::<f64>() / samples_ms.len() as f64;
        BenchRow {
            circuit: circuit.name().to_string(),
            qubits: circuit.num_qubits(),
            two_qubit_gates: circuit.two_qubit_gate_count(),
            compiler: compiler.to_string(),
            wall_ms_mean: mean,
            wall_ms_min: min,
            wall_ms_max: max,
            phases,
        }
    }

    let mut rows = Vec::new();
    for circuit in circuits {
        let n = circuit.num_qubits();

        // MUSS-TI runs through the instrumented pipeline path with a reused
        // compile context (warm-context timing, the serving configuration) so
        // the report shows where compile time goes (placement / scheduling /
        // swap-insertion / lowering) — that is what nominates the next
        // hot-path candidate.
        let muss_ti = MussTiCompiler::new(
            DeviceConfig::for_qubits(n).build(),
            MussTiOptions::default(),
        );
        let mut cx = muss_ti.context();
        let mut samples_ms = Vec::with_capacity(iterations);
        let mut phase_sum = StageTimings::default();
        for _ in 0..iterations {
            let start = Instant::now();
            let program = muss_ti
                .compile_in(&mut cx, circuit)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", muss_ti.name(), circuit.name()));
            samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let phases = program
                .stage_timings()
                .expect("MUSS-TI records its stage timings");
            accumulate(&mut phase_sum, phases);
            std::hint::black_box(program);
        }
        rows.push(finish_row(
            circuit,
            muss_ti.name(),
            &samples_ms,
            Some(averaged(phase_sum, iterations)),
        ));

        let baselines = [
            time_warm(&MuraliCompiler::for_qubits(n), circuit, iterations),
            time_warm(&DaiCompiler::for_qubits(n), circuit, iterations),
            time_warm(&MqtStyleCompiler::for_qubits(n), circuit, iterations),
        ];
        for (name, samples_ms) in baselines.into_iter().flatten() {
            rows.push(finish_row(circuit, &name, &samples_ms, None));
        }
    }
    let batch = measure_batch_throughput(circuits, iterations);
    let qasm_parse = measure_parse(
        &parse_workloads(),
        iterations * PARSE_REPETITIONS_PER_ITERATION,
    );
    BenchReport {
        iterations,
        rows,
        batch,
        qasm_parse,
    }
}

/// Times `iterations` warm-context compiles of `circuit`: the compiler's
/// name and one wall-clock sample (ms) per compile, or `None` when the
/// device is too small for the circuit (the grid baselines top out below the
/// widest stress workloads, RAN_1024 and RAN_4096; those rows are MUSS-TI
/// only).
fn time_warm<C: Compiler>(
    compiler: &C,
    circuit: &Circuit,
    iterations: usize,
) -> Option<(String, Vec<f64>)> {
    let mut cx = compiler.context();
    let mut samples_ms = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let start = Instant::now();
        let program = match compiler.compile_in(&mut cx, circuit) {
            Ok(program) => program,
            Err(CompileError::DeviceTooSmall { .. }) => return None,
            Err(e) => panic!("{} on {}: {e}", compiler.name(), circuit.name()),
        };
        samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(program);
    }
    Some((compiler.name().to_string(), samples_ms))
}

/// Times multi-threaded batch compilation of the whole workload set with
/// MUSS-TI on one device sized for the largest workload (many circuits, one
/// machine — the serving scenario), `runs` batch calls per entry of
/// [`BATCH_THREAD_COUNTS`]. Each batch worker owns one compile context and
/// reuses it across every circuit it pulls.
fn measure_batch_throughput(circuits: &[Circuit], runs: usize) -> Vec<BatchThroughput> {
    let max_qubits = circuits.iter().map(Circuit::num_qubits).max().unwrap_or(1);
    let compiler = MussTiCompiler::new(
        DeviceConfig::for_qubits(max_qubits).build(),
        MussTiOptions::default(),
    );
    BATCH_THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let start = Instant::now();
            for _ in 0..runs {
                for program in compile_batch(&compiler, circuits, threads, None) {
                    let program = program.unwrap_or_else(|e| panic!("batch compile failed: {e}"));
                    std::hint::black_box(program);
                }
            }
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            BatchThroughput {
                circuits: circuits.len(),
                threads,
                runs,
                wall_ms,
                circuits_per_sec: (runs * circuits.len()) as f64 / (wall_ms.max(1e-9) / 1e3),
            }
        })
        .collect()
}

impl BenchReport {
    /// Serialises the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"benchmark\": \"compile_time\",\n  \"iterations\": {},\n  \"results\": [\n",
            self.iterations
        ));
        for (i, row) in self.rows.iter().enumerate() {
            let phases = row
                .phases
                .map(|p| {
                    format!(
                        ", \"phases\": {{\"placement_ms\": {:.3}, \"scheduling_ms\": {:.3}, \"swap_insertion_ms\": {:.3}, \"lowering_ms\": {:.3}, \"window_probe_visits\": {}, \"probe_skips\": {}, \"swap_window_walks\": {}}}",
                        p.placement_ms, p.scheduling_ms, p.swap_insertion_ms, p.lowering_ms,
                        p.window_probe_visits, p.probe_skips, p.swap_window_walks,
                    )
                })
                .unwrap_or_default();
            out.push_str(&format!(
                "    {{\"circuit\": {}, \"qubits\": {}, \"two_qubit_gates\": {}, \"compiler\": {}, \"wall_ms_mean\": {:.3}, \"wall_ms_min\": {:.3}, \"wall_ms_max\": {:.3}{}}}{}\n",
                json_string(&row.circuit),
                row.qubits,
                row.two_qubit_gates,
                json_string(&row.compiler),
                row.wall_ms_mean,
                row.wall_ms_min,
                row.wall_ms_max,
                phases,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"batch\": [\n");
        for (i, b) in self.batch.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"circuits\": {}, \"threads\": {}, \"runs\": {}, \"wall_ms\": {:.3}, \"circuits_per_sec\": {:.3}}}{}\n",
                b.circuits,
                b.threads,
                b.runs,
                b.wall_ms,
                b.circuits_per_sec,
                if i + 1 < self.batch.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"qasm_parse\": [\n");
        for (i, p) in self.qasm_parse.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"source\": {}, \"bytes\": {}, \"statements\": {}, \"repetitions\": {}, \"mb_per_s\": {:.1}, \"ns_per_statement\": {:.1}}}{}\n",
                json_string(&p.source),
                p.bytes,
                p.statements,
                p.repetitions,
                p.mb_per_s,
                p.ns_per_statement,
                if i + 1 < self.qasm_parse.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Renders the measurements as a table.
    pub fn render(&self) -> String {
        let mut table = crate::report::Table::new(
            "Compile-time micro-benchmark (wall-clock per compiler)",
            &[
                "Circuit",
                "Qubits",
                "2Q gates",
                "Compiler",
                "Mean (ms)",
                "Min (ms)",
                "Max (ms)",
            ],
        );
        for row in &self.rows {
            table.push_row(vec![
                row.circuit.clone(),
                row.qubits.to_string(),
                row.two_qubit_gates.to_string(),
                row.compiler.clone(),
                format!("{:.3}", row.wall_ms_mean),
                format!("{:.3}", row.wall_ms_min),
                format!("{:.3}", row.wall_ms_max),
            ]);
        }
        let mut out = table.render();

        let mut phase_table = crate::report::Table::new(
            "MUSS-TI per-phase breakdown (mean ms per compile; counters per compile)",
            &[
                "Circuit",
                "Placement",
                "Scheduling",
                "SWAP insertion",
                "Lowering",
                "Probe visits",
                "Probe skips",
                "Swap walks",
            ],
        );
        for row in self.rows.iter().filter(|r| r.phases.is_some()) {
            let p = row.phases.expect("filtered on is_some");
            phase_table.push_row(vec![
                row.circuit.clone(),
                format!("{:.3}", p.placement_ms),
                format!("{:.3}", p.scheduling_ms),
                format!("{:.3}", p.swap_insertion_ms),
                format!("{:.3}", p.lowering_ms),
                p.window_probe_visits.to_string(),
                p.probe_skips.to_string(),
                p.swap_window_walks.to_string(),
            ]);
        }
        out.push('\n');
        out.push_str(&phase_table.render());
        out.push('\n');
        for b in &self.batch {
            out.push_str(&format!(
                "Batch throughput: {} circuits x {} runs on {} threads in {:.1} ms => {:.1} circuits/sec\n",
                b.circuits, b.runs, b.threads, b.wall_ms, b.circuits_per_sec,
            ));
        }
        let mut parse_table = crate::report::Table::new(
            "QASM parse (median over interleaved repetitions)",
            &[
                "Source",
                "Bytes",
                "Statements",
                "Reps",
                "MB/s",
                "ns/statement",
            ],
        );
        for p in &self.qasm_parse {
            parse_table.push_row(vec![
                p.source.clone(),
                p.bytes.to_string(),
                p.statements.to_string(),
                p.repetitions.to_string(),
                format!("{:.1}", p.mb_per_s),
                format!("{:.1}", p.ns_per_statement),
            ]);
        }
        out.push('\n');
        out.push_str(&parse_table.render());
        out
    }
}

/// The (circuit, compiler) pairs the CI bench-delta gate watches: the
/// long-standing qft(48) acceptance spot value, the qft(96) placement-heavy
/// scaling workload, the dense random 128-qubit stress workload the
/// incremental SWAP-insertion table optimises, the 1024-qubit random
/// workload where a per-step cost growing with the device width shows first,
/// and the 4096-qubit one where an `O(window)` look-ahead term would dominate
/// — a regression in any of them fails CI.
const GATE_CIRCUITS: [&str; 5] = ["QFT_48", "QFT_96", "RAN_128", "RAN_1024", "RAN_4096"];
const GATE_COMPILER: &str = "MUSS-TI";
/// The parse rows the gate watches: every source of [`parse_workloads`],
/// by median nanoseconds per statement.
const GATE_PARSE_SOURCES: [&str; 3] = ["RAN_1024", "SQRT_299", "QFT_192"];
/// The per-compile work counters of every MUSS-TI row that must equal the
/// committed baseline exactly: they are deterministic, so unlike the wall
/// times they carry no noise, and any change is an algorithmic one.
const GATE_COUNTERS: [&str; 3] = ["window_probe_visits", "probe_skips", "swap_window_walks"];

impl BenchReport {
    /// This run's MUSS-TI mean wall-clock for `circuit`, a bench-delta
    /// metric.
    pub fn gate_metric_for(&self, circuit: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.circuit == circuit && r.compiler == GATE_COMPILER)
            .map(|r| r.wall_ms_mean)
    }

    /// This run's MUSS-TI qft(48) mean wall-clock, the original bench-delta
    /// metric.
    pub fn gate_metric(&self) -> Option<f64> {
        self.gate_metric_for(GATE_CIRCUITS[0])
    }

    /// This run's median parse nanoseconds per statement for `source`, a
    /// bench-delta metric.
    pub fn parse_metric_for(&self, source: &str) -> Option<f64> {
        self.qasm_parse
            .iter()
            .find(|p| p.source == source)
            .map(|p| p.ns_per_statement)
    }

    /// Bench-delta smoke gate: compares this run's MUSS-TI qft(48), qft(96),
    /// ran(128), ran(1024) and ran(4096) means, and the median parse time per
    /// statement of each [`parse_workloads`] source, against the committed
    /// baseline report and fails when any of them regressed by more than
    /// `max_ratio`× (the CI threshold is 2×, loose enough for shared-runner
    /// noise, tight enough to catch a real hot-path regression). It also
    /// requires the [`GATE_COUNTERS`] of every MUSS-TI row that carries a
    /// phase breakdown to equal the baseline's exactly.
    ///
    /// # Errors
    ///
    /// An explanatory message when a metric regressed past the threshold, a
    /// work counter differs from the baseline's, or either report is missing
    /// a gated row.
    pub fn check_against_baseline(
        &self,
        baseline_json: &str,
        max_ratio: f64,
    ) -> Result<String, String> {
        let mut lines = Vec::new();
        for circuit in GATE_CIRCUITS {
            let baseline = parse_gate_metric_for(baseline_json, circuit).ok_or_else(|| {
                format!("baseline report has no {GATE_COMPILER} {circuit} wall_ms_mean row")
            })?;
            let current = self
                .gate_metric_for(circuit)
                .ok_or_else(|| format!("this run produced no {GATE_COMPILER} {circuit} row"))?;
            if current > baseline * max_ratio {
                return Err(format!(
                    "bench-delta gate failed: {GATE_COMPILER} {circuit} wall_ms_mean {current:.3} ms \
                     > {max_ratio:.1}x committed baseline {baseline:.3} ms"
                ));
            }
            lines.push(format!(
                "bench-delta gate passed: {GATE_COMPILER} {circuit} wall_ms_mean {current:.3} ms \
                 <= {max_ratio:.1}x committed baseline {baseline:.3} ms"
            ));
        }
        for source in GATE_PARSE_SOURCES {
            let baseline = parse_parse_metric_for(baseline_json, source).ok_or_else(|| {
                format!("baseline report has no qasm_parse {source} ns_per_statement row")
            })?;
            let current = self
                .parse_metric_for(source)
                .ok_or_else(|| format!("this run produced no qasm_parse {source} row"))?;
            if current > baseline * max_ratio {
                return Err(format!(
                    "bench-delta gate failed: qasm_parse {source} ns_per_statement {current:.1} \
                     > {max_ratio:.1}x committed baseline {baseline:.1}"
                ));
            }
            lines.push(format!(
                "bench-delta gate passed: qasm_parse {source} ns_per_statement {current:.1} \
                 <= {max_ratio:.1}x committed baseline {baseline:.1}"
            ));
        }
        for row in &self.rows {
            let (circuit, Some(p)) = (&row.circuit, &row.phases) else {
                continue;
            };
            if row.compiler != GATE_COMPILER {
                continue;
            }
            let counts = [p.window_probe_visits, p.probe_skips, p.swap_window_walks];
            for (counter, current) in GATE_COUNTERS.into_iter().zip(counts) {
                let baseline: u64 =
                    parse_row_field(baseline_json, circuit, counter).ok_or_else(|| {
                        format!("baseline report has no {GATE_COMPILER} {circuit} {counter}")
                    })?;
                if current != baseline {
                    return Err(format!(
                        "work-counter gate failed: {GATE_COMPILER} {circuit} {counter} {current} \
                         != committed baseline {baseline}"
                    ));
                }
            }
            lines.push(format!(
                "work-counter gate passed: {GATE_COMPILER} {circuit} {} equal the committed baseline",
                GATE_COUNTERS.join(" / ")
            ));
        }
        Ok(lines.join("\n"))
    }
}

/// Extracts a gated `wall_ms_mean` from a serialised report without a JSON
/// parser (the build environment has no serde_json): every result row is
/// emitted on one line by [`BenchReport::to_json`].
pub fn parse_gate_metric_for(json: &str, circuit: &str) -> Option<f64> {
    parse_row_field(json, circuit, "wall_ms_mean")
}

/// Extracts the value of `field` from the MUSS-TI `circuit` row of a
/// serialised report (a phase counter or a top-level number alike).
fn parse_row_field<T: std::str::FromStr>(json: &str, circuit: &str, field: &str) -> Option<T> {
    let circuit_key = format!("\"circuit\": \"{circuit}\"");
    let compiler_key = format!("\"compiler\": \"{GATE_COMPILER}\"");
    let line = json
        .lines()
        .find(|line| line.contains(&circuit_key) && line.contains(&compiler_key))?;
    let key = format!("\"{field}\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// Extracts a gated parse `ns_per_statement` from a serialised report: every
/// `qasm_parse` row is emitted on one line by [`BenchReport::to_json`].
pub fn parse_parse_metric_for(json: &str, source: &str) -> Option<f64> {
    let source_key = format!("\"source\": \"{source}\"");
    let line = json.lines().find(|line| line.contains(&source_key))?;
    let key = "\"ns_per_statement\": ";
    let rest = &line[line.find(key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// [`parse_gate_metric_for`] on the original qft(48) gate row.
pub fn parse_gate_metric(json: &str) -> Option<f64> {
    parse_gate_metric_for(json, GATE_CIRCUITS[0])
}

/// Escapes a string for JSON embedding.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_one_row_per_compiler() {
        let circuits = vec![generators::ghz(16)];
        let report = run_with(&circuits, 1);
        assert_eq!(report.rows.len(), 4);
        assert!(report.rows.iter().all(|r| r.circuit == "GHZ_16"));
        assert!(report.rows.iter().all(|r| r.wall_ms_mean >= r.wall_ms_min));
        assert!(report.rows.iter().all(|r| r.wall_ms_max >= r.wall_ms_mean));
    }

    #[test]
    fn batch_throughput_is_keyed_by_thread_count_and_serialised() {
        let circuits = vec![generators::ghz(12), generators::qft(12)];
        let report = run_with(&circuits, 1);
        assert_eq!(report.batch.len(), BATCH_THREAD_COUNTS.len());
        for (entry, &threads) in report.batch.iter().zip(BATCH_THREAD_COUNTS.iter()) {
            assert_eq!(entry.circuits, 2);
            assert_eq!(entry.runs, 1);
            assert_eq!(entry.threads, threads);
            assert!(entry.circuits_per_sec > 0.0);
            assert!(entry.circuits_per_sec.is_finite());
        }
        let json = report.to_json();
        assert!(json.contains("\"batch\": ["));
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains("\"threads\": 8"));
        assert_eq!(
            json.matches("\"circuits_per_sec\"").count(),
            BATCH_THREAD_COUNTS.len()
        );
        assert_eq!(
            report.render().matches("Batch throughput").count(),
            BATCH_THREAD_COUNTS.len()
        );
    }

    #[test]
    fn muss_ti_rows_carry_phase_breakdowns() {
        let circuits = vec![generators::qft(12)];
        let report = run_with(&circuits, 2);
        for row in &report.rows {
            if row.compiler == "MUSS-TI" {
                let phases = row.phases.expect("MUSS-TI rows report phases");
                let total = phases.placement_ms
                    + phases.scheduling_ms
                    + phases.swap_insertion_ms
                    + phases.lowering_ms;
                assert!(total > 0.0, "phase breakdown must account for some time");
                assert!(
                    total <= row.wall_ms_mean * 1.5 + 0.5,
                    "phases ({total} ms) cannot dwarf the wall clock ({} ms)",
                    row.wall_ms_mean
                );
            } else {
                assert!(
                    row.phases.is_none(),
                    "{} has no phase structure",
                    row.compiler
                );
            }
        }
        let json = report.to_json();
        assert_eq!(json.matches("\"phases\"").count(), 1);
        assert!(json.contains("\"placement_ms\""));
        assert!(json.contains("\"swap_insertion_ms\""));
        assert!(json.contains("\"window_probe_visits\""));
        assert!(json.contains("\"probe_skips\""));
        assert!(json.contains("\"swap_window_walks\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn hot_path_counters_survive_averaging() {
        // qft(48)'s two-fold search converges back onto the trivial mapping,
        // so the probe early-exit must fire on every iteration (mean exactly
        // 1), and its shuttle-heavy passes break LRU and zone ties through
        // the look-ahead probe. Both counters are deterministic per compile,
        // so the three-iteration means equal the single-compile values.
        let circuits = vec![generators::qft(48)];
        let counters = |iterations: usize| {
            let report = run_with(&circuits, iterations);
            let row = report
                .rows
                .iter()
                .find(|r| r.compiler == "MUSS-TI")
                .expect("MUSS-TI row");
            let phases = row.phases.expect("MUSS-TI rows report phases");
            (phases.probe_skips, phases.window_probe_visits)
        };
        let (skips, visits) = counters(3);
        assert_eq!(skips, 1, "probe early-exit fires on qft(48)");
        assert!(
            visits > 0,
            "qft(48)'s tie-breaks probe the look-ahead window"
        );
        assert_eq!((skips, visits), counters(1), "means are exact");
    }

    #[test]
    fn window_probe_visits_is_a_per_compile_delta_not_a_cumulative_counter() {
        // `DependencyDag::window_probe_visits()` is cumulative per DAG, so
        // the phases block only stays meaningful if every compile reports its
        // own passes (dry chain + final pass). If a count ever leaked across
        // compiles, the warm-session mean over three iterations would exceed
        // the single-compile value.
        let circuits = vec![generators::qft(48)];
        let visits = |report: &BenchReport| {
            report
                .rows
                .iter()
                .find(|r| r.compiler == "MUSS-TI")
                .and_then(|r| r.phases)
                .expect("MUSS-TI row reports phases")
                .window_probe_visits
        };
        let one = visits(&run_with(&circuits, 1));
        let three = visits(&run_with(&circuits, 3));
        assert!(one > 0, "qft(48) probes the look-ahead window");
        assert_eq!(
            one, three,
            "per-compile probe visits must not grow across warm iterations"
        );
    }

    #[test]
    fn json_is_well_formed_enough_to_round_trip_keys() {
        let circuits = vec![generators::ghz(8)];
        let report = run_with(&circuits, 1);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"circuit\"").count(), report.rows.len());
        assert!(json.contains("\"benchmark\": \"compile_time\""));
        assert!(json.contains("\"iterations\": 1"));
        // Braces balance (no raw braces appear in compiler/circuit names).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    fn gated_row(circuit: &str, compiler: &str, wall_ms: f64) -> BenchRow {
        BenchRow {
            circuit: circuit.into(),
            qubits: 48,
            two_qubit_gates: 1152,
            compiler: compiler.into(),
            wall_ms_mean: wall_ms,
            wall_ms_min: wall_ms,
            wall_ms_max: wall_ms,
            phases: None,
        }
    }

    fn gated_report(qft_ms: f64, ran_ms: f64) -> BenchReport {
        BenchReport {
            iterations: 1,
            rows: vec![
                gated_row("QFT_48", "QCCD-Murali et al.", 0.4),
                gated_row("QFT_48", "MUSS-TI", qft_ms),
                gated_row("QFT_96", "MUSS-TI", qft_ms),
                gated_row("RAN_128", "MUSS-TI", ran_ms),
                gated_row("RAN_1024", "MUSS-TI", ran_ms),
                gated_row("RAN_4096", "MUSS-TI", ran_ms),
            ],
            batch: vec![BatchThroughput {
                circuits: 1,
                threads: 2,
                runs: 1,
                wall_ms: 1.0,
                circuits_per_sec: 1000.0,
            }],
            qasm_parse: GATE_PARSE_SOURCES
                .iter()
                .map(|source| ParseRow {
                    source: (*source).to_string(),
                    bytes: 1000,
                    statements: 10,
                    repetitions: 1,
                    mb_per_s: 100.0,
                    ns_per_statement: 50.0,
                })
                .collect(),
        }
    }

    #[test]
    fn gate_metrics_round_trip_through_json() {
        let report = gated_report(1.234, 7.5);
        assert_eq!(report.gate_metric(), Some(1.234));
        assert_eq!(report.gate_metric_for("RAN_128"), Some(7.5));
        let json = report.to_json();
        let parsed = parse_gate_metric(&json).expect("qft row is serialised");
        assert!((parsed - 1.234).abs() < 1e-9);
        let parsed = parse_gate_metric_for(&json, "RAN_128").expect("ran row is serialised");
        assert!((parsed - 7.5).abs() < 1e-9);
    }

    #[test]
    fn baseline_check_passes_within_ratio_and_fails_past_it() {
        let mut report = gated_report(1.9, 1.9);
        let baseline = report.to_json().replace("1.900", "1.000");
        assert!(report.check_against_baseline(&baseline, 2.0).is_ok());
        report.rows[1].wall_ms_mean = 2.1;
        let err = report.check_against_baseline(&baseline, 2.0).unwrap_err();
        assert!(err.contains("bench-delta gate failed"), "{err}");
        assert!(err.contains("QFT_48"), "{err}");
        assert!(report
            .check_against_baseline("{\"results\": []}", 2.0)
            .is_err());
    }

    #[test]
    fn baseline_check_requires_equal_work_counters() {
        let mut report = gated_report(1.0, 1.0);
        report.rows[3].phases = Some(StageTimings {
            window_probe_visits: 6277,
            probe_skips: 0,
            swap_window_walks: 232,
            ..StageTimings::default()
        });
        let baseline = report.to_json();
        let ok = report.check_against_baseline(&baseline, 2.0).unwrap();
        assert!(
            ok.contains("work-counter gate passed: MUSS-TI RAN_128"),
            "{ok}"
        );
        for counter in GATE_COUNTERS {
            let mut off_by_one = report.clone();
            let phases = off_by_one.rows[3].phases.as_mut().unwrap();
            match counter {
                "window_probe_visits" => phases.window_probe_visits += 1,
                "probe_skips" => phases.probe_skips += 1,
                _ => phases.swap_window_walks -= 1,
            }
            let err = off_by_one
                .check_against_baseline(&baseline, 2.0)
                .unwrap_err();
            assert!(err.contains("work-counter gate failed"), "{err}");
            assert!(err.contains(&format!("RAN_128 {counter}")), "{err}");
        }
        // A baseline without the row's counters is rejected, not skipped.
        let stripped = baseline.replace("\"swap_window_walks\"", "\"walks\"");
        let err = report.check_against_baseline(&stripped, 2.0).unwrap_err();
        assert!(err.contains("RAN_128 swap_window_walks"), "{err}");
    }

    #[test]
    fn baseline_check_gates_the_ran_128_stress_workload_too() {
        // The PR 5 workload is gated independently: a QFT_48 within budget
        // does not excuse a RAN_128 regression.
        let mut report = gated_report(1.0, 1.9);
        let baseline = report.to_json().replace("1.900", "1.000");
        assert!(report.check_against_baseline(&baseline, 2.0).is_ok());
        report.rows[3].wall_ms_mean = 2.1;
        let err = report.check_against_baseline(&baseline, 2.0).unwrap_err();
        assert!(err.contains("RAN_128"), "{err}");
        // A baseline lacking the RAN_128 row is rejected, not skipped.
        let qft_only = gated_report(1.0, 1.0);
        let mut stripped: Vec<String> = qft_only
            .to_json()
            .lines()
            .filter(|l| !l.contains("RAN_128"))
            .map(str::to_string)
            .collect();
        stripped.push(String::new());
        let err = report
            .check_against_baseline(&stripped.join("\n"), 2.0)
            .unwrap_err();
        assert!(err.contains("baseline report has no"), "{err}");
    }

    #[test]
    fn baseline_check_gates_the_ran_1024_width_workload_too() {
        // The widest workload is gated on its own: a per-step cost that
        // grows with the device width regresses it long before RAN_128.
        let mut report = gated_report(1.0, 1.0);
        let baseline = report.to_json();
        assert!(report.check_against_baseline(&baseline, 2.0).is_ok());
        report.rows[4].wall_ms_mean = 2.1;
        let err = report.check_against_baseline(&baseline, 2.0).unwrap_err();
        assert!(err.contains("RAN_1024"), "{err}");
    }

    #[test]
    fn baseline_check_gates_the_ran_4096_validation_limit_workload_too() {
        // The validation-limit width is gated on its own: an O(window)
        // look-ahead term regresses it long before the narrower rows.
        let mut report = gated_report(1.0, 1.0);
        let baseline = report.to_json();
        assert!(report.check_against_baseline(&baseline, 2.0).is_ok());
        report.rows[5].wall_ms_mean = 2.1;
        let err = report.check_against_baseline(&baseline, 2.0).unwrap_err();
        assert!(err.contains("RAN_4096"), "{err}");
    }

    #[test]
    fn parse_rows_are_medians_keyed_by_source_and_serialised() {
        let sources = [("GHZ_16", qasm::to_qasm(&generators::ghz(16)))];
        let rows = measure_parse(&sources, 5);
        assert_eq!(rows.len(), 1);
        let row = rows[0].clone();
        assert_eq!((row.source.as_str(), row.repetitions), ("GHZ_16", 5));
        assert_eq!(row.statements, sources[0].1.matches(';').count());
        assert!(row.mb_per_s > 0.0 && row.ns_per_statement > 0.0);
        let mut report = gated_report(1.0, 1.0);
        report.qasm_parse = rows;
        let json = report.to_json();
        assert!(json.contains("\"qasm_parse\": ["));
        let parsed = parse_parse_metric_for(&json, "GHZ_16").expect("parse row is serialised");
        assert!((parsed - row.ns_per_statement).abs() < 0.06, "{parsed}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(report.render().contains("QASM parse"));
    }

    #[test]
    fn baseline_check_gates_the_parse_rows_too() {
        let mut report = gated_report(1.0, 1.0);
        let baseline = report.to_json();
        assert!(report.check_against_baseline(&baseline, 2.0).is_ok());
        report.qasm_parse[1].ns_per_statement = 101.0;
        let err = report.check_against_baseline(&baseline, 2.0).unwrap_err();
        assert!(err.contains("qasm_parse SQRT_299"), "{err}");
        // A baseline without parse rows is rejected, not skipped.
        let report = gated_report(1.0, 1.0);
        let stripped: String = baseline
            .lines()
            .filter(|l| !l.contains("\"source\""))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = report.check_against_baseline(&stripped, 2.0).unwrap_err();
        assert!(err.contains("no qasm_parse RAN_1024"), "{err}");
    }

    #[test]
    fn baseline_check_gates_the_qft_96_scaling_workload_too() {
        // The PR 9 placement workload is gated independently alongside
        // QFT_48 and RAN_128.
        let mut report = gated_report(1.0, 1.0);
        let baseline = report.to_json();
        assert!(report.check_against_baseline(&baseline, 2.0).is_ok());
        report.rows[2].wall_ms_mean = 2.1;
        let err = report.check_against_baseline(&baseline, 2.0).unwrap_err();
        assert!(err.contains("QFT_96"), "{err}");
    }
}
