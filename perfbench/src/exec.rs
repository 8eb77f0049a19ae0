//! Drives one request through the stack's public functions:
//! `qasm::parse` → `Compiler::compile` → `ScheduleVerifier::verify`, and, in
//! the traced run, the MUSS-TI stage API with a span around every call.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Duration;

use baselines::{DaiCompiler, MuraliCompiler};
use eml_qccd::{CompiledProgram, Compiler, DeviceConfig};
use ion_circuit::{qasm, Circuit, DependencyDag};
use muss_ti::{MussTiCompiler, MussTiContext, MussTiOptions};
use verify::{DeviceModel, ScheduleVerifier};

use crate::inputs::{CompilerKind, Expect, Input};
use crate::trace::Recorder;

/// The deterministic figures of one compiled program; equal bits in every
/// round of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Figures {
    pub shuttles: usize,
    pub exec_time_bits: u64,
    pub log10_fidelity_bits: u64,
}

impl Figures {
    fn of(program: &CompiledProgram) -> Self {
        let m = program.metrics();
        Figures {
            shuttles: m.shuttle_count,
            exec_time_bits: m.execution_time_us.to_bits(),
            log10_fidelity_bits: m.log10_fidelity().to_bits(),
        }
    }

    pub fn exec_time_us(&self) -> f64 {
        f64::from_bits(self.exec_time_bits)
    }

    pub fn neg_log10_fidelity(&self) -> f64 {
        -f64::from_bits(self.log10_fidelity_bits)
    }
}

/// What happened to one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The parser refused the source.
    Rejected { diagnostics: usize, located: bool },
    /// The compiler refused the circuit.
    CompileFailed(String),
    /// A program came out; `violations` is the verifier's finding count.
    Compiled { figures: Figures, violations: usize },
}

impl Outcome {
    /// `true` when the outcome is the verdict `expect` asks for.
    pub fn matches(&self, expect: Expect) -> bool {
        match (expect, self) {
            (Expect::Valid, Outcome::Compiled { violations, .. }) => *violations == 0,
            (Expect::Rejected, Outcome::Rejected { diagnostics, .. }) => *diagnostics > 0,
            _ => false,
        }
    }

    pub fn figures(&self) -> Option<Figures> {
        match self {
            Outcome::Compiled { figures, .. } => Some(*figures),
            _ => None,
        }
    }

    pub fn describe(&self) -> String {
        match self {
            Outcome::Rejected { diagnostics, .. } => format!("rejected, {diagnostics} diagnostics"),
            Outcome::CompileFailed(e) => format!("compile error: {e}"),
            Outcome::Compiled { violations, .. } => format!("{violations} verifier violations"),
        }
    }
}

struct Target<C> {
    compiler: C,
    verifier: ScheduleVerifier,
}

/// Compilers and verifiers for every (compiler, width) the inputs need,
/// built once at set-up.
pub struct Stack {
    muss_ti: BTreeMap<usize, (Target<MussTiCompiler>, MussTiContext)>,
    dai: BTreeMap<usize, Target<DaiCompiler>>,
    murali: BTreeMap<usize, Target<MuraliCompiler>>,
}

impl Stack {
    pub fn for_inputs(inputs: &[Input]) -> Self {
        let mut stack = Stack {
            muss_ti: BTreeMap::new(),
            dai: BTreeMap::new(),
            murali: BTreeMap::new(),
        };
        for input in inputs.iter().filter(|i| i.expect == Expect::Valid) {
            let n = input.width;
            match input.compiler {
                CompilerKind::MussTi => {
                    stack.muss_ti.entry(n).or_insert_with(|| {
                        let device = DeviceConfig::for_qubits(n).build();
                        let verifier = ScheduleVerifier::new(DeviceModel::from(&device));
                        let compiler = MussTiCompiler::new(device, MussTiOptions::default());
                        let cx = compiler.context();
                        (Target { compiler, verifier }, cx)
                    });
                }
                CompilerKind::Dai => {
                    stack.dai.entry(n).or_insert_with(|| {
                        let compiler = DaiCompiler::for_qubits(n);
                        let verifier = ScheduleVerifier::new(DeviceModel::from(compiler.device()));
                        Target { compiler, verifier }
                    });
                }
                CompilerKind::Murali => {
                    stack.murali.entry(n).or_insert_with(|| {
                        let compiler = MuraliCompiler::for_qubits(n);
                        let verifier = ScheduleVerifier::new(DeviceModel::from(compiler.device()));
                        Target { compiler, verifier }
                    });
                }
            }
        }
        stack
    }

    fn target(&self, input: &Input) -> (&dyn Compiler, &ScheduleVerifier) {
        let n = input.width;
        let missing = "the stack is built for every valid input";
        match input.compiler {
            CompilerKind::MussTi => {
                let (t, _) = self.muss_ti.get(&n).expect(missing);
                (&t.compiler, &t.verifier)
            }
            CompilerKind::Dai => {
                let t = self.dai.get(&n).expect(missing);
                (&t.compiler, &t.verifier)
            }
            CompilerKind::Murali => {
                let t = self.murali.get(&n).expect(missing);
                (&t.compiler, &t.verifier)
            }
        }
    }
}

fn rejected(err: &qasm::QasmError) -> Outcome {
    let diags = err.diagnostics();
    Outcome::Rejected {
        diagnostics: diags.len(),
        located: diags.iter().any(|d| d.line > 0 && d.col > 0),
    }
}

/// One untraced request.
pub fn run(stack: &Stack, input: &Input) -> Outcome {
    let circuit = match qasm::parse(black_box(&input.source)) {
        Ok(c) => c,
        Err(e) => return rejected(&e),
    };
    let (compiler, verifier) = stack.target(input);
    match compiler.compile(&circuit) {
        Err(e) => Outcome::CompileFailed(e.to_string()),
        Ok(program) => {
            let report = verifier.verify(&circuit, &program);
            Outcome::Compiled {
                figures: Figures::of(black_box(&program)),
                violations: report.violations.len(),
            }
        }
    }
}

/// Work counters gathered at the traced run's layer boundaries.
#[derive(Debug, Default)]
pub struct Counters {
    pub qasm_bytes: u64,
    pub diagnostics: u64,
    pub dag_nodes: u64,
    pub scheduler_ops: u64,
    pub inserted_swaps: u64,
    pub violations: u64,
    /// Requests whose staged program differs from the fused one.
    pub staged_mismatches: u64,
}

/// One traced request. MUSS-TI requests are re-driven through the stage API
/// (validate → DAG → place → schedule → lower → evaluate), then compiled by
/// the fused one-shot facade, whose program is the one verified.
pub fn run_traced(
    stack: &mut Stack,
    input: &Input,
    rec: &mut Recorder,
    counters: &mut Counters,
) -> Outcome {
    rec.next_request();
    let root = rec.enter("request");
    let outcome = traced_body(stack, input, rec, counters);
    rec.exit(root);
    outcome
}

fn traced_body(
    stack: &mut Stack,
    input: &Input,
    rec: &mut Recorder,
    counters: &mut Counters,
) -> Outcome {
    counters.qasm_bytes += input.source.len() as u64;
    let parsed = rec.span("qasm", || qasm::parse(black_box(&input.source)));
    let circuit = match parsed {
        Ok(c) => c,
        Err(e) => {
            counters.diagnostics += e.diagnostics().len() as u64;
            return rejected(&e);
        }
    };
    let (program, verifier) = match input.compiler {
        CompilerKind::MussTi => {
            let (target, cx) = stack
                .muss_ti
                .get_mut(&input.width)
                .expect("the stack is built for every valid input");
            match staged_and_fused(target, cx, &circuit, rec, counters) {
                Ok(p) => (p, &target.verifier),
                Err(e) => return Outcome::CompileFailed(e),
            }
        }
        CompilerKind::Dai | CompilerKind::Murali => {
            let span = match input.compiler {
                CompilerKind::Dai => "baselines.dai",
                _ => "baselines.murali",
            };
            let (compiler, verifier) = stack.target(input);
            match rec.span(span, || compiler.compile(&circuit)) {
                Ok(p) => (p, verifier),
                Err(e) => return Outcome::CompileFailed(e.to_string()),
            }
        }
    };
    let report = rec.span("verify", || verifier.verify(&circuit, &program));
    counters.violations += report.violations.len() as u64;
    Outcome::Compiled {
        figures: Figures::of(&program),
        violations: report.violations.len(),
    }
}

fn staged_and_fused(
    target: &Target<MussTiCompiler>,
    cx: &mut MussTiContext,
    circuit: &Circuit,
    rec: &mut Recorder,
    counters: &mut Counters,
) -> Result<CompiledProgram, String> {
    let compiler = &target.compiler;
    let capacity = compiler.device().total_capacity();
    rec.span("circuit", || circuit.validate_for(capacity))
        .map_err(|e| e.to_string())?;
    let dag = rec.span("dag", || DependencyDag::from_circuit(circuit));
    counters.dag_nodes += black_box(dag).len() as u64;
    let placement = rec
        .span("mapping", || compiler.place(cx, circuit))
        .map_err(|e| e.to_string())?;
    let scheduled = rec
        .span("scheduler", || compiler.schedule(cx, circuit, &placement))
        .map_err(|e| e.to_string())?;
    counters.scheduler_ops += scheduled.ops.len() as u64;
    counters.inserted_swaps += scheduled.inserted_swaps as u64;
    let lowered = rec.span("lowering", || {
        compiler.lower(circuit, &placement, &scheduled)
    });
    let staged = rec.span("executor", || {
        compiler.evaluate(cx, circuit, lowered, Duration::ZERO)
    });
    let fused = rec
        .span("pipeline", || compiler.compile(circuit))
        .map_err(|e| e.to_string())?;
    if Figures::of(&staged) != Figures::of(&fused) {
        counters.staged_mismatches += 1;
    }
    Ok(fused)
}
