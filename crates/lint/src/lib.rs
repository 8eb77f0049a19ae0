//! `analyze`: the workspace's multi-pass static-analysis suite.
//!
//! Three token-level passes, each opted into per file by a marker line, carry
//! the contracts the test suites can only check dynamically:
//!
//! * **hot-path** — the zero-steady-state-allocation contract (ROADMAP
//!   performance contracts, PRs 1–5): files annotated `lint: hot-path` may
//!   not use allocating idioms, nor `insert`/`remove` shifts whose cost
//!   grows with the container, outside their `#[cfg(test)]` module.
//! * **no-panic** — the untrusted-input contract (PRs 6 and 8): files
//!   annotated `lint: no-panic` (the QASM front-end, the schedule verifier)
//!   may not use panicking idioms outside tests — `qasm::parse` and
//!   `verify::ScheduleVerifier` promise to *never* panic, and this pass makes
//!   that promise machine-checked at the source level.
//! * **sync-justification** — the concurrency contract (the batch
//!   compiler's work-claiming atomics): in files annotated
//!   `lint: concurrency`, every atomic-ordering
//!   use and every condvar wait/notify site must carry a `// sync:` comment
//!   (same or preceding line) explaining its role in the protocol, so the
//!   load-bearing invariants live next to the code that bears them.
//!
//! All passes are a deliberate token-level scan — no dependencies, no syn,
//! fast enough for a pre-commit hook — with per-line `// lint: allow
//! (reason)` escapes for deliberate exceptions (e.g. pooled-buffer setup in
//! constructors).
//!
//! Usage (the binary is `analyze`; `cargo run -p lint` still resolves to it
//! via `default-run`, so existing scripts keep working):
//!
//! ```text
//! cargo run -p lint                  # run all passes; exit 1 on findings
//! cargo run -p lint -- --self-test   # prove each pass catches a seeded violation
//! cargo run -p lint -- --json        # machine-readable findings for CI tooling
//! ```

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The per-line escape hatch (must carry a reason in practice; the scanner
/// only keys on the prefix).
const ALLOW_MARKER: &str = "lint: allow";

/// The `// sync:` justification a sync-justification site must carry on its
/// own or the preceding line.
const SYNC_JUSTIFICATION: &str = "// sync:";

/// Allocating idioms, and `Vec` shifts that cost `O(len)` per call, denied
/// in hot-path files and why. `.mark_executed(` does not match
/// `.mark_executed_into(` and `.clone()` does not match `.cloned()` — the
/// boundary-aware substring search in [`contains_token`] is exact enough for
/// this vocabulary.
const HOT_PATH_DENIED: &[(&str, &str)] = &[
    ("HashMap", "use flat Vec-indexed tables on hot paths"),
    ("BTreeMap", "use flat Vec-indexed tables on hot paths"),
    ("format!", "allocates a String per call"),
    (".clone()", "allocates; restructure to borrow or Copy"),
    (
        ".front_layer(",
        "allocates and sorts a Vec; use front_gate() / ready_on()",
    ),
    (
        ".mark_executed(",
        "allocates a Vec; use mark_executed_into()",
    ),
    (".qubits()", "allocates a Vec; use qubit_pair()"),
    (".zones()", "allocates a Vec; use zone_pair() / num_zones()"),
    (
        "vec![",
        "allocates a Vec; pool the buffer in the context arena",
    ),
    (
        "Vec::new(",
        "allocates a Vec; pool the buffer in the context arena",
    ),
    (
        "with_capacity(",
        "allocates up front; pool the buffer in the context arena",
    ),
    ("Box::new(", "heap-allocates; keep hot-path state inline"),
    (".to_vec()", "allocates a copy; borrow the slice instead"),
    (".insert(", SHIFT_HINT),
    (".remove(", SHIFT_HINT),
];

/// Why `insert`/`remove` are denied: on a `Vec` each shifts every later
/// element, an `O(len)` memmove per call.
const SHIFT_HINT: &str = "shifts every later element; use a cursor or an index";

/// Panicking idioms denied in no-panic files and why. The boundary-aware
/// match keeps `debug_assert!` (compiled out of release builds) from
/// tripping the `assert!` token.
const NO_PANIC_DENIED: &[(&str, &str)] = &[
    (
        ".unwrap()",
        "return a structured error instead of panicking",
    ),
    (".expect(", "return a structured error instead of panicking"),
    (
        "panic!(",
        "untrusted-input paths must return errors, never panic",
    ),
    (
        "unreachable!(",
        "encode the impossibility in the types or return an error",
    ),
    (
        "todo!(",
        "unfinished code must not ship on an untrusted-input path",
    ),
    (
        "unimplemented!(",
        "unfinished code must not ship on an untrusted-input path",
    ),
    (
        "assert!(",
        "report a Violation/diagnostic instead of asserting",
    ),
    (
        "assert_eq!(",
        "report a Violation/diagnostic instead of asserting",
    ),
    (
        "assert_ne!(",
        "report a Violation/diagnostic instead of asserting",
    ),
];

/// Synchronisation vocabulary that must carry a `// sync:` justification in
/// concurrency-annotated files: atomic memory orderings and condvar
/// wait/notify sites. `std::cmp::Ordering` never matches — only the atomic
/// variants are listed.
const SYNC_VOCABULARY: &[(&str, &str)] = &[
    (
        "Ordering::Relaxed",
        "explain why relaxed ordering suffices here",
    ),
    (
        "Ordering::Acquire",
        "explain what this load synchronises with",
    ),
    ("Ordering::Release", "explain what this store publishes"),
    (
        "Ordering::AcqRel",
        "explain both sides of this read-modify-write",
    ),
    (
        "Ordering::SeqCst",
        "explain why the strongest ordering is needed",
    ),
    (".wait(", "explain the predicate this wait re-checks"),
    (".wait_while(", "explain the predicate this wait re-checks"),
    (
        ".wait_timeout(",
        "explain the predicate and the timeout's role",
    ),
    (
        ".notify_one(",
        "explain which waiter this wakes and why one is enough",
    ),
    (".notify_all(", "explain which waiters this wakes"),
];

/// The three analysis passes, in the order they are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Zero-steady-state-allocation contract.
    HotPath,
    /// Never-panic contract on untrusted-input paths.
    NoPanic,
    /// Every synchronisation site documents its protocol role.
    SyncJustification,
}

impl Pass {
    /// Every pass the suite runs. `--self-test` iterates this list, so a new
    /// pass without a seeded violation fails CI by construction.
    pub const ALL: [Pass; 3] = [Pass::HotPath, Pass::NoPanic, Pass::SyncJustification];

    /// Stable pass name used in findings and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Pass::HotPath => "hot-path",
            Pass::NoPanic => "no-panic",
            Pass::SyncJustification => "sync-justification",
        }
    }

    /// The whole-line marker that opts a file into this pass.
    pub fn marker(self) -> &'static str {
        match self {
            Pass::HotPath => "// lint: hot-path",
            Pass::NoPanic => "// lint: no-panic",
            Pass::SyncJustification => "// lint: concurrency",
        }
    }

    /// A source snippet containing exactly one violation of this pass, used
    /// by the self-test to prove the scanner still catches it. The marker is
    /// assembled at runtime so these literals never annotate this file.
    fn seeded_violation(self) -> (String, &'static str) {
        match self {
            Pass::HotPath => (
                format!("{}\nfn hot() {{ let x = Vec::new(); }}\n", self.marker()),
                "Vec::new(",
            ),
            Pass::NoPanic => (
                format!(
                    "{}\nfn parse() {{ let x = maybe().unwrap(); }}\n",
                    self.marker()
                ),
                ".unwrap()",
            ),
            Pass::SyncJustification => (
                format!(
                    "{}\nfn publish() {{ flag.store(true, Ordering::Relaxed); }}\n",
                    self.marker()
                ),
                "Ordering::Relaxed",
            ),
        }
    }

    /// A source snippet exercising this pass's escape hatches — allow
    /// comments, doc mentions, the `#[cfg(test)]` module boundary, and (for
    /// sync-justification) a justified site — that must produce no findings.
    fn seeded_clean(self) -> String {
        match self {
            Pass::HotPath => format!(
                "{}\n\
                 use std::vec::Vec; // lint: allow (import, not an allocation)\n\
                 /// Doc that mentions Vec::new() and format! is fine.\n\
                 fn hot() {{}}\n\
                 #[cfg(test)]\n\
                 mod tests {{ fn t() {{ let _ = vec![1]; }} }}\n",
                self.marker()
            ),
            Pass::NoPanic => format!(
                "{}\n\
                 fn lock() {{ guard.lock().expect(\"poisoned\"); }} // lint: allow (poisoning is a crash already)\n\
                 /// Docs may say .unwrap() freely.\n\
                 #[cfg(test)]\n\
                 mod tests {{ fn t() {{ maybe().unwrap(); assert!(true); }} }}\n",
                self.marker()
            ),
            Pass::SyncJustification => format!(
                "{}\n\
                 // sync: relaxed suffices — the flag is advisory, the scope join orders it\n\
                 fn a() {{ flag.store(true, Ordering::Relaxed); }}\n\
                 fn b() {{ flag.load(Ordering::Relaxed); }} // sync: same-line form works too\n\
                 #[cfg(test)]\n\
                 mod tests {{ fn t() {{ flag.load(Ordering::SeqCst); }} }}\n",
                self.marker()
            ),
        }
    }
}

/// One finding from one pass.
#[derive(Debug, Clone)]
pub struct Finding {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The pass that produced it.
    pub pass: Pass,
    /// The denied / unjustified token.
    pub token: &'static str,
    /// What to do about it.
    pub hint: &'static str,
    /// The offending source line, verbatim.
    pub text: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] `{}` ({})\n    {}",
            self.file.display(),
            self.line,
            self.pass.name(),
            self.token,
            self.hint,
            self.text.trim()
        )
    }
}

/// `true` if `source` opts into `pass`: the marker must be a whole (trimmed)
/// line of its own, so merely *mentioning* a marker — in a string literal or
/// prose, as this file does — never annotates a file.
fn is_annotated(source: &str, pass: Pass) -> bool {
    source.lines().any(|line| line.trim() == pass.marker())
}

/// Boundary-aware token search: a match whose preceding character is part of
/// an identifier is rejected, so `assert!(` does not fire inside
/// `debug_assert!(` and `Vec::new(` does not fire inside `MyVec::new(`.
fn contains_token(code: &str, token: &str) -> bool {
    // Tokens starting with `.` (method calls) or other punctuation carry
    // their own left boundary; only identifier-leading tokens need the check.
    let needs_boundary = token
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let at = from + pos;
        let boundary = !needs_boundary
            || at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if boundary {
            return true;
        }
        from = at + 1;
    }
    false
}

/// Scans one file's contents through every pass it is annotated for,
/// appending findings. Scanning stops at the test *module* — a
/// `#[cfg(test)]` attribute whose next line declares a `mod` — since test
/// code may allocate, panic and synchronise freely (a `#[cfg(test)]` on a
/// lone `use` near the top does not end the scan).
pub fn scan_source(path: &Path, source: &str, findings: &mut Vec<Finding>) {
    let passes: Vec<Pass> = Pass::ALL
        .into_iter()
        .filter(|&p| is_annotated(source, p))
        .collect();
    if passes.is_empty() {
        return;
    }
    let lines: Vec<&str> = source.lines().collect();
    for (index, &line) in lines.iter().enumerate() {
        if line.trim_start().starts_with("#[cfg(test)]")
            && lines
                .get(index + 1)
                .is_some_and(|next| next.trim_start().starts_with("mod "))
        {
            break;
        }
        // The allow check runs on the raw line so the escape can live in a
        // trailing comment next to the offending token.
        if line.contains(ALLOW_MARKER) {
            continue;
        }
        // Strip line comments so tokens *mentioned* in docs don't trip the
        // scan; string literals are not stripped (a denied token inside a
        // string is suspicious enough to flag).
        let code = match line.find("//") {
            Some(pos) => &line[..pos],
            None => line,
        };
        for &pass in &passes {
            match pass {
                Pass::HotPath | Pass::NoPanic => {
                    let denied = if pass == Pass::HotPath {
                        HOT_PATH_DENIED
                    } else {
                        NO_PANIC_DENIED
                    };
                    for &(token, hint) in denied {
                        if contains_token(code, token) {
                            findings.push(Finding {
                                file: path.to_path_buf(),
                                line: index + 1,
                                pass,
                                token,
                                hint,
                                text: line.to_string(),
                            });
                        }
                    }
                }
                Pass::SyncJustification => {
                    for &(token, hint) in SYNC_VOCABULARY {
                        if !contains_token(code, token) {
                            continue;
                        }
                        // The justification may trail the site on the same
                        // line or introduce it in the contiguous comment
                        // block directly above (protocol arguments routinely
                        // take more than one line); both are read off the raw
                        // lines, not the stripped code.
                        let justified = line.contains(SYNC_JUSTIFICATION)
                            || preceding_comment_block_justifies(&lines, index);
                        if !justified {
                            findings.push(Finding {
                                file: path.to_path_buf(),
                                line: index + 1,
                                pass,
                                token,
                                hint,
                                text: line.to_string(),
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Whether the contiguous run of pure comment lines directly above
/// `lines[index]` contains a `// sync:` justification. Walking stops at the
/// first non-comment line, so a justification cannot act at a distance across
/// code.
fn preceding_comment_block_justifies(lines: &[&str], index: usize) -> bool {
    lines[..index]
        .iter()
        .rev()
        .take_while(|line| line.trim_start().starts_with("//"))
        .any(|line| line.contains(SYNC_JUSTIFICATION))
}

/// Recursively collects `.rs` files under `dir` (skipping `target/`).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                collect_rs_files(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Proves every pass works before a green run is trusted: for each entry of
/// [`Pass::ALL`], a seeded violation must be caught (with the expected token)
/// and the seeded clean/escaped snippet must not produce findings — so a
/// broken scanner for *any* pass fails CI, not just a broken hot-path scan.
/// Un-annotated files must never be scanned by any pass.
pub fn self_test() -> Result<(), String> {
    for pass in Pass::ALL {
        let (seeded, expected_token) = pass.seeded_violation();
        let mut findings = Vec::new();
        scan_source(Path::new("seeded.rs"), &seeded, &mut findings);
        match findings.as_slice() {
            [one] if one.pass == pass && one.token == expected_token => {}
            other => {
                return Err(format!(
                    "{} pass: seeded violation expected 1 finding for `{expected_token}`, got {}",
                    pass.name(),
                    other.len()
                ));
            }
        }

        let clean = pass.seeded_clean();
        let mut findings = Vec::new();
        scan_source(Path::new("clean.rs"), &clean, &mut findings);
        if !findings.is_empty() {
            return Err(format!(
                "{} pass: escape hatches expected 0 findings, got {} ({})",
                pass.name(),
                findings.len(),
                findings[0]
            ));
        }
    }

    // A cfg(test)-gated import near the top must NOT end the scan early.
    let gated_import = format!(
        "{}\n\
         #[cfg(test)]\n\
         use std::fmt::Debug;\n\
         fn hot() {{ let _ = format!(\"still scanned\"); }}\n",
        Pass::HotPath.marker()
    );
    let mut findings = Vec::new();
    scan_source(Path::new("gated.rs"), &gated_import, &mut findings);
    if findings.len() != 1 {
        return Err(format!(
            "cfg(test) import: expected the format! after it to be caught, got {} finding(s)",
            findings.len()
        ));
    }

    // The shift rule: a sorted-list retirement is caught at both calls.
    let shifting = format!(
        "{}\nfn retire() {{ ready.remove(at); ready.insert(to, n); }}\n",
        Pass::HotPath.marker()
    );
    let mut findings = Vec::new();
    scan_source(Path::new("shifting.rs"), &shifting, &mut findings);
    let tokens: Vec<&str> = findings.iter().map(|f| f.token).collect();
    if tokens != [".insert(", ".remove("] {
        return Err(format!("hot-path pass: seeded shifts caught {tokens:?}"));
    }

    let unannotated = "use std::collections::HashMap;\nfn f() { x.unwrap(); }\n";
    let mut findings = Vec::new();
    scan_source(Path::new("free.rs"), unannotated, &mut findings);
    if !findings.is_empty() {
        return Err("un-annotated file must not be scanned by any pass".to_string());
    }
    Ok(())
}

/// Escapes a string for JSON embedding (no serde_json in this environment).
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

/// Serialises findings as structured JSON for CI and tooling: one object per
/// finding with `file`, `line`, `pass`, `token` and `hint`, plus the scanned
/// file count per pass so "0 findings because 0 files scanned" is visible.
pub fn findings_to_json(findings: &[Finding], scanned_per_pass: &[(Pass, usize)]) -> String {
    let mut out = String::from("{\n  \"tool\": \"analyze\",\n  \"files_scanned\": {");
    for (i, (pass, count)) in scanned_per_pass.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{}: {count}", json_string(pass.name())));
    }
    out.push_str("},\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"file\": {}, \"line\": {}, \"pass\": {}, \"token\": {}, \"hint\": {}}}{}\n",
            json_string(&f.file.display().to_string()),
            f.line,
            json_string(f.pass.name()),
            json_string(f.token),
            json_string(f.hint),
            if i + 1 < findings.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the full suite over the workspace and reports. This is the shared
/// `main` of both the `analyze` binary and its legacy `lint` alias.
pub fn run_cli(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--self-test") {
        return match self_test() {
            Ok(()) => {
                println!("analyze self-test passed ({} passes)", Pass::ALL.len());
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("analyze self-test FAILED: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let json = args.iter().any(|a| a == "--json");

    // The workspace root is two levels above this crate's manifest.
    let Some(root) = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
    else {
        eprintln!("analyze: crates/lint must sit two levels below the workspace root");
        return ExitCode::from(2);
    };

    let mut files = Vec::new();
    if let Err(err) = collect_rs_files(&root.join("crates"), &mut files) {
        eprintln!(
            "analyze: cannot walk {}: {err}",
            root.join("crates").display()
        );
        return ExitCode::from(2);
    }
    files.sort();

    let mut findings = Vec::new();
    let mut scanned: Vec<(Pass, usize)> = Pass::ALL.iter().map(|&p| (p, 0)).collect();
    for file in &files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(err) => {
                eprintln!("analyze: cannot read {}: {err}", file.display());
                return ExitCode::from(2);
            }
        };
        for (pass, count) in &mut scanned {
            if is_annotated(&source, *pass) {
                *count += 1;
            }
        }
        scan_source(file, &source, &mut findings);
    }

    if json {
        print!("{}", findings_to_json(&findings, &scanned));
        return if findings.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if findings.is_empty() {
        let summary: Vec<String> = scanned
            .iter()
            .map(|(p, n)| format!("{} file(s) {}", n, p.name()))
            .collect();
        println!("analyze: clean ({})", summary.join(", "));
        ExitCode::SUCCESS
    } else {
        for finding in &findings {
            eprintln!("{finding}");
        }
        eprintln!("analyze: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds an annotated source for `pass` from a body snippet.
    fn annotated(pass: Pass, body: &str) -> String {
        format!("{}\n{body}", pass.marker())
    }

    fn scan(source: &str) -> Vec<Finding> {
        let mut findings = Vec::new();
        scan_source(Path::new("fixture.rs"), source, &mut findings);
        findings
    }

    #[test]
    fn self_test_passes() {
        self_test().expect("every pass catches its seeded violation");
    }

    #[test]
    fn hot_path_catches_new_allocation_vocabulary() {
        let src = annotated(
            Pass::HotPath,
            "fn f() {\n  let a = vec![1];\n  let b = Vec::new();\n  let c = Vec::with_capacity(4);\n  let d = Box::new(1);\n  let e = s.to_vec();\n}\n",
        );
        let findings = scan(&src);
        let tokens: Vec<&str> = findings.iter().map(|f| f.token).collect();
        assert_eq!(
            tokens,
            [
                "vec![",
                "Vec::new(",
                "with_capacity(",
                "Box::new(",
                ".to_vec()"
            ]
        );
        assert!(findings.iter().all(|f| f.pass == Pass::HotPath));
    }

    #[test]
    fn no_panic_catches_each_panicking_idiom() {
        for (line, token) in [
            ("x.unwrap();", ".unwrap()"),
            ("x.expect(\"msg\");", ".expect("),
            ("panic!(\"boom\");", "panic!("),
            ("unreachable!();", "unreachable!("),
            ("todo!();", "todo!("),
            ("unimplemented!();", "unimplemented!("),
            ("assert!(ok);", "assert!("),
            ("assert_eq!(a, b);", "assert_eq!("),
            ("assert_ne!(a, b);", "assert_ne!("),
        ] {
            let src = annotated(Pass::NoPanic, &format!("fn f() {{ {line} }}\n"));
            let findings = scan(&src);
            assert_eq!(findings.len(), 1, "{line} must be caught");
            assert_eq!(findings[0].token, token, "{line}");
        }
    }

    #[test]
    fn no_panic_ignores_debug_assert_and_unwrap_or() {
        let src = annotated(
            Pass::NoPanic,
            "fn f() {\n  debug_assert!(cheap_invariant);\n  debug_assert_eq!(a, b);\n  let x = opt.unwrap_or(0);\n  let y = opt.unwrap_or_default();\n}\n",
        );
        assert!(scan(&src).is_empty(), "{:?}", scan(&src));
    }

    #[test]
    fn no_panic_allow_escape_and_test_module_are_honoured() {
        let src = annotated(
            Pass::NoPanic,
            "fn f() { lock.lock().expect(\"poisoned\"); } // lint: allow (poisoned lock is a prior crash)\n\
             #[cfg(test)]\n\
             mod tests {\n  fn t() { x.unwrap(); panic!(\"fine in tests\"); }\n}\n",
        );
        assert!(scan(&src).is_empty());
    }

    #[test]
    fn sync_pass_requires_justification_on_orderings_and_condvar_sites() {
        let src = annotated(
            Pass::SyncJustification,
            "fn f() {\n  flag.store(true, Ordering::Release);\n  cv.notify_one();\n}\n",
        );
        let findings = scan(&src);
        let tokens: Vec<&str> = findings.iter().map(|f| f.token).collect();
        assert_eq!(tokens, ["Ordering::Release", ".notify_one("]);
    }

    #[test]
    fn sync_pass_accepts_same_line_and_preceding_line_justifications() {
        let src = annotated(
            Pass::SyncJustification,
            "fn f() {\n  // sync: publishes the candidate before the notify below\n  flag.store(true, Ordering::Release);\n  cv.notify_one(); // sync: exactly one worker waits on this condvar\n}\n",
        );
        assert!(scan(&src).is_empty(), "{:?}", scan(&src));
    }

    #[test]
    fn sync_pass_accepts_a_multi_line_justification_block() {
        // A protocol argument often needs more than one comment line; the
        // whole contiguous comment block above the site counts, as long as it
        // contains the `// sync:` marker somewhere.
        let src = annotated(
            Pass::SyncJustification,
            "fn f() {\n  // sync: notify while holding the lock so the store\n  // and this wakeup can never fall between the worker's\n  // check and its park.\n  cv.notify_one();\n}\n",
        );
        assert!(scan(&src).is_empty(), "{:?}", scan(&src));
    }

    #[test]
    fn sync_pass_ignores_cmp_ordering() {
        let src = annotated(
            Pass::SyncJustification,
            "fn f(a: usize, b: usize) -> bool {\n  matches!(a.cmp(&b), std::cmp::Ordering::Less)\n}\n",
        );
        assert!(scan(&src).is_empty());
    }

    #[test]
    fn sync_pass_justification_does_not_leak_across_two_lines() {
        // A justification two lines up does not cover the site: the comment
        // must be adjacent so it stays attached under edits.
        let src = annotated(
            Pass::SyncJustification,
            "fn f() {\n  // sync: covers only the next line\n  let x = 1;\n  flag.load(Ordering::Acquire);\n}\n",
        );
        assert_eq!(scan(&src).len(), 1);
    }

    #[test]
    fn a_file_can_opt_into_multiple_passes() {
        let src = format!(
            "{}\n{}\nfn f() {{ let v = vec![x.unwrap()]; }}\n",
            Pass::HotPath.marker(),
            Pass::NoPanic.marker()
        );
        let findings = scan(&src);
        let passes: Vec<Pass> = findings.iter().map(|f| f.pass).collect();
        assert!(passes.contains(&Pass::HotPath));
        assert!(passes.contains(&Pass::NoPanic));
    }

    #[test]
    fn marker_in_a_string_literal_does_not_annotate() {
        let src = "const M: &str = \"// lint: no-panic\";\nfn f() { x.unwrap(); }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn json_output_is_structured_and_balanced() {
        let src = annotated(Pass::NoPanic, "fn f() { x.unwrap(); }\n");
        let findings = scan(&src);
        let json = findings_to_json(&findings, &[(Pass::NoPanic, 1)]);
        assert!(json.contains("\"tool\": \"analyze\""));
        assert!(json.contains("\"pass\": \"no-panic\""));
        assert!(json.contains("\"token\": \".unwrap()\""));
        assert!(json.contains("\"line\": 2"));
        assert!(json.contains("\"files_scanned\": {\"no-panic\": 1}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_escapes_paths_and_hints() {
        let f = Finding {
            file: PathBuf::from("a\"b.rs"),
            line: 3,
            pass: Pass::HotPath,
            token: "vec![",
            hint: "allocates",
            text: String::new(),
        };
        let json = findings_to_json(&[f], &[]);
        assert!(json.contains("a\\\"b.rs"));
    }
}
