//! The boundary between the QASM parser's statement fast path and its token
//! path, checked against the original front-end.
//!
//! The fast path reads a whole gate or `measure` statement straight from the
//! bytes and leaves anything it is unsure of to the token path. Each case
//! below sits on one side of that boundary or the other; under every limit
//! set, `qasm::parse_with_limits` must agree with the oracle in
//! `fuzz::qasm_oracle` (gates bit for bit, diagnostics as
//! [`check_qasm_oracle`] compares them).

use fuzz::differential::check_qasm_oracle;
use ion_circuit::qasm::ParseLimits;

/// Declarations every case follows: two quantum registers of 6 qubits and a
/// classical one.
const HEADER: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[6];\nqreg r[6];\ncreg c[6];\n";

/// Statements whose whitespace, comments, parameters, indices, names or
/// operands sit at the fast path's edge. `{P}` is replaced by each of
/// [`PARAMS`] and `{I}` by each of [`INDICES`].
const STATEMENTS: &[&str] = &[
    // Whitespace and comments inside a statement.
    "cx q[0],\nq[1];",
    "cx\tq[0],\tq[1]\t;",
    "cx q[0], // comment\n q[1];",
    "rz(pi/2 // comment\n) q[0];",
    "measure q[0] // comment\n -> c[0];",
    "measure q[0] -\n> c[0];",
    "// leading comment\nh q[0]; // trailing comment",
    "h q[0];\r\nh q[1];",
    // Parameters.
    "rz({P}) q[0];",
    "u3({P}, {P}, 0.5) q[1];",
    "cp({P}) q[0], r[0];",
    "h({P}) q[2];",
    // Indices.
    "h q{I};",
    "cx q{I}, r[0];",
    "measure q{I} -> c[0];",
    "measure q[0] -> c{I};",
    // Names and operands.
    "CX q[0], q[1];",
    "U(0.1,0.2,0.3) q[0];",
    "cx q, r;",
    "cx q[2], r;",
    "h q;",
    "measure q -> c;",
    "cx q[1], q[1];",
    "cx q, q[2];",
    "ccx q[0], q[1], q[0];",
    "cx q[0];",
    "ccx q[0], q[1];",
    "h q[0], q[1];",
    "foo q[0];",
    "hh q[0];",
    // Operand and parameter counts.
    "cx q[0], q[1], q[2];",
    "h q, r;",
    "h(1,2) q[0];",
    "h() q[0];",
    "rz q[0];",
    "u1 q[0];",
    "u2(0.5) q[0];",
    "u2(0.5, 1) q[0];",
    "u3(1, 2) q[0];",
    "id(0.5) q[0];",
    "cp q[0], q[1];",
    "rxx q[0], q[1];",
    "rxx(pi/2) q[0], q[1];",
    "ms q[0], q[1];",
    "ms(0.5) q[0], q[1];",
    "h.x q[0];",
    "barrier q[0], r;",
    "h s[0];",
    // Classical targets and declarations.
    "measure q[0] + 5 ) foo;",
    "measure q[0];",
    "measure q[0] -> c[0] foo;",
    "measure q[0] -> d[0];",
    "measure q[0] -> c[6];",
    "measure q[0] -> r[0];",
    "measure q -> c[0];",
    "measure q[0] -> c;",
    "measure q[0] -> 0;",
    "creg c[2];",
    "creg d[2];\nmeasure q[0] -> d[1];",
    "creg d;",
    "creg d[1.5];",
    // Conditions.
    "if (c==1) x q[0];",
    "if(c==0) cx q[0],q[1];",
    "if (c == 3) if (c == 2) measure q[1] -> c[1];",
    "if (c==1.5) x q[0];",
    "if (c=1) x q[0];",
    "if (c==1)",
    // A missing final `;`.
    "h q[0]",
    "cx q[0], q[1]",
    "measure q[0] -> c[0]",
];

/// Parameter spellings substituted for `{P}`.
const PARAMS: &[&str] = &[
    "0.5", "-pi/2", "pi*2", "2*pi", "--pi", "-(pi)", "pi/0", "0/0", "-1/0", "1e309", "1e-400",
    ".5", "5.", "1.2.3", "-0", "- pi / 4", "pi/-2", "pi+1", "2pi", "pi2", "1e308*10", "3*pi/4", "",
];

/// Index spellings substituted for `{I}` (both registers hold 6 qubits).
const INDICES: &[&str] = &[
    "[0]",
    "[5]",
    "[007]",
    "[ 3 ]",
    "[\n1\t]",
    "[3.0]",
    "[1e1]",
    "[.5]",
    "[6]",
    "[999999999999999]",
    "[9007199254740993]",
    "[18446744073709551616]",
    "[]",
];

/// Every case: each statement with every substitution, on its own after
/// [`HEADER`], followed by a valid statement, and with registers named `pi`
/// and with dots.
fn cases() -> Vec<String> {
    let mut cases = Vec::new();
    for statement in STATEMENTS {
        let params: &[&str] = if statement.contains("{P}") {
            PARAMS
        } else {
            &[""]
        };
        let indices: &[&str] = if statement.contains("{I}") {
            INDICES
        } else {
            &[""]
        };
        for param in params {
            for index in indices {
                let body = statement.replace("{P}", param).replace("{I}", index);
                cases.push(format!("{HEADER}{body}"));
                cases.push(format!("{HEADER}{body}\nh q[0];\ncx q[0], q[1];\n"));
            }
        }
    }
    for body in [
        "qreg pi[2];\nh pi[0];\nrz(pi) pi[1];\ncx pi[0], pi[1];\n",
        "qreg q.a[2];\nqreg b_1[2];\nh q.a[1];\ncx q.a[0], b_1[1];\nmeasure q.a -> c;\n",
        "qreg measure[2];\nh measure[0];\nmeasure measure[1] -> c[0];\n",
        "qreg q.a[2];\nqreg b_1[2];\ncreg c[2];\nh q.a[1];\ncx q.a[0], b_1[1];\nmeasure q.a -> c;\n",
        "qreg measure[2];\ncreg c.d[1];\nh measure[0];\nmeasure measure[1] -> c.d[0];\n",
    ] {
        cases.push(format!("OPENQASM 2.0;\n{body}"));
    }
    cases
}

/// Default limits, expression depths around the fast path's two levels, and
/// gate limits crossed inside a fast-path statement.
fn limit_sets() -> Vec<ParseLimits> {
    let mut sets = vec![ParseLimits::default()];
    for max_expr_depth in [0, 1, 2] {
        sets.push(ParseLimits {
            max_expr_depth,
            ..ParseLimits::default()
        });
    }
    for max_gates in [0, 1, 4, 6] {
        sets.push(ParseLimits {
            max_gates,
            ..ParseLimits::default()
        });
    }
    sets
}

#[test]
fn fast_path_boundary_matches_the_oracle() {
    let cases = cases();
    assert!(cases.len() > 300, "{} cases", cases.len());
    for limits in limit_sets() {
        for source in &cases {
            if let Err(e) = check_qasm_oracle(source, &limits) {
                panic!("{limits:?}\n{source}\n{e}");
            }
        }
    }
}

#[test]
fn gate_limit_crossed_by_a_broadcast_matches_the_oracle() {
    // Each `h q;` adds 6 gates: the limit is crossed inside the second one,
    // a fast-path statement, and again inside a Toffoli's decomposition.
    for body in [
        "h q;\n  h q;\nh q[0];\n",
        "h q[0];\nccx q[0], q[1], q[2];\n",
    ] {
        let source = format!("{HEADER}{body}");
        for max_gates in [0, 1, 5, 6, 7, 10, 15] {
            let limits = ParseLimits {
                max_gates,
                ..ParseLimits::default()
            };
            if let Err(e) = check_qasm_oracle(&source, &limits) {
                panic!("max_gates {max_gates}\n{source}\n{e}");
            }
        }
    }
}
