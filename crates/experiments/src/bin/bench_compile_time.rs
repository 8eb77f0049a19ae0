//! Compile-time micro-benchmark binary: times every compiler on the fixed
//! workload set and writes `BENCH_compile_time.json`.
//!
//! ```text
//! cargo run --release -p experiments --bin bench_compile_time \
//!     [-- --smoke] [-- --iterations N] [-- --out PATH] \
//!     [-- --check-against PATH] [-- --max-regression RATIO]
//! ```
//!
//! `--smoke` runs a single iteration per (circuit, compiler) pair — the CI
//! configuration; the default is 3 iterations. Each iteration also times ten
//! interleaved parses of each `qasm_parse` source (RAN_1024, SQRT_299,
//! QFT_192), reported as medians. `--check-against` reads a committed
//! baseline report *before* running (the out path may overwrite it) and
//! exits non-zero if MUSS-TI's qft(48), qft(96), ran(128), ran(1024) **or**
//! ran(4096) `wall_ms_mean`, or any source's median parse
//! `ns_per_statement`, regressed by more than `--max-regression` (default
//! 2.0×) — the CI bench-delta gate over the acceptance spot value, the
//! scaling/stress workloads and the QASM front-end.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iterations = 3usize;
    let mut out_path = String::from("BENCH_compile_time.json");
    let mut check_against: Option<String> = None;
    let mut max_regression = 2.0f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => iterations = 1,
            "--iterations" => {
                i += 1;
                iterations = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .expect("--iterations needs a positive integer");
            }
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("--out needs a path").clone();
            }
            "--check-against" => {
                i += 1;
                check_against = Some(args.get(i).expect("--check-against needs a path").clone());
            }
            "--max-regression" => {
                i += 1;
                max_regression = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .expect("--max-regression needs a positive ratio");
            }
            other => {
                eprintln!(
                    "unknown argument {other}; supported: --smoke, --iterations N, --out PATH, \
                     --check-against PATH, --max-regression RATIO"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if iterations == 0 {
        eprintln!("--iterations must be at least 1");
        std::process::exit(2);
    }
    if max_regression <= 0.0 {
        eprintln!("--max-regression must be positive");
        std::process::exit(2);
    }

    // Read the baseline before the run: the out path may be the same file.
    let baseline = check_against.map(|path| {
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"))
    });

    let report = experiments::compile_bench::run(iterations);
    print!("{}", report.render());
    std::fs::write(&out_path, report.to_json())
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!(
        "wrote {out_path} ({} measurements, {iterations} iteration(s) each)",
        report.rows.len()
    );

    if let Some(baseline) = baseline {
        match report.check_against_baseline(&baseline, max_regression) {
            Ok(message) => println!("{message}"),
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(1);
            }
        }
    }
}
