//! The reference front-end's recursive-descent parser over the materialised
//! token vector, kept verbatim as the differential oracle. It reports the
//! diagnostics it collected, sorted and with snippets attached, as a plain
//! `Vec<Diagnostic>` (the production `QasmError` has no public constructor).

use std::collections::HashMap;
use std::f64::consts::PI;

use ion_circuit::qasm::{Diagnostic, DiagnosticKind, ParseLimits};
use ion_circuit::{Circuit, Gate, QubitId};

use super::lexer::{lex, Token, TokenKind};

/// Parses OpenQASM 2.0 source the way the original front-end did.
///
/// # Errors
///
/// Returns every diagnostic collected, sorted by position, with snippets.
/// Lexer diagnostics are capped at [`MAX_LEX_DIAGNOSTICS`] independently of
/// [`ParseLimits::max_diagnostics`] and cover the whole source even when the
/// parser stops early — the behaviour the production front-end replaced.
///
/// [`MAX_LEX_DIAGNOSTICS`]: super::lexer::MAX_LEX_DIAGNOSTICS
pub fn parse_with_limits(source: &str, limits: &ParseLimits) -> Result<Circuit, Vec<Diagnostic>> {
    let (tokens, lex_diagnostics) = lex(source);
    let mut parser = Parser::new(tokens, lex_diagnostics, limits);
    let result = parser.parse();
    match result {
        Ok(circuit) if parser.diagnostics.is_empty() => Ok(circuit),
        _ => {
            let mut diagnostics = parser.diagnostics;
            diagnostics.sort_by_key(|d| (d.line, d.col));
            attach_snippets(&mut diagnostics, source);
            Err(diagnostics)
        }
    }
}

/// Fills each diagnostic's `snippet` with its trimmed source line.
fn attach_snippets(diagnostics: &mut [Diagnostic], source: &str) {
    let lines: Vec<&str> = source.lines().collect();
    for diag in diagnostics {
        if diag.line >= 1 && diag.line <= lines.len() {
            diag.snippet = lines[diag.line - 1].trim_end().to_string();
        }
    }
}

struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    limits: &'a ParseLimits,
    diagnostics: Vec<Diagnostic>,
    /// name -> (offset, size)
    qregs: HashMap<String, (usize, usize)>,
    total_qubits: usize,
    gates: Vec<Gate>,
}

impl<'a> Parser<'a> {
    fn new(tokens: Vec<Token>, lex_diagnostics: Vec<Diagnostic>, limits: &'a ParseLimits) -> Self {
        Parser {
            tokens,
            pos: 0,
            limits,
            diagnostics: lex_diagnostics,
            qregs: HashMap::new(),
            total_qubits: 0,
            gates: Vec::new(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Position (line, col) for end-of-input diagnostics: the last token if
    /// any, else unknown (0, 0).
    fn eof_pos(&self) -> (usize, usize) {
        self.tokens.last().map_or((0, 0), |t| (t.line, t.col))
    }

    fn diag_at(&self, kind: DiagnosticKind, line: usize, col: usize) -> Diagnostic {
        Diagnostic {
            kind,
            line,
            col,
            snippet: String::new(),
        }
    }

    fn eof_diag(&self) -> Diagnostic {
        let (line, col) = self.eof_pos();
        self.diag_at(DiagnosticKind::UnexpectedEof, line, col)
    }

    fn unexpected(&self, token: &Token, expected: &'static str) -> Diagnostic {
        self.diag_at(
            DiagnosticKind::Unexpected {
                found: token.kind.to_string(),
                expected,
            },
            token.line,
            token.col,
        )
    }

    fn report(&mut self, diag: Diagnostic) {
        if self.diagnostics.len() < self.limits.max_diagnostics {
            self.diagnostics.push(diag);
        }
    }

    /// Whether the diagnostic budget is exhausted (parsing aborts then: an
    /// input bad enough to hit the cap yields no useful extra information,
    /// and aborting bounds work on adversarial floods).
    fn capped(&self) -> bool {
        self.diagnostics.len() >= self.limits.max_diagnostics
    }

    fn expect_semicolon(&mut self) -> Result<(), Diagnostic> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Semicolon,
                ..
            }) => Ok(()),
            Some(t) => Err(self.unexpected(&t, ";")),
            None => Err(self.eof_diag()),
        }
    }

    fn skip_to_semicolon(&mut self) {
        while let Some(t) = self.next() {
            if t.kind == TokenKind::Semicolon {
                break;
            }
        }
    }

    /// Error recovery: resynchronise at the next statement boundary. If the
    /// token just consumed already was a semicolon (the error was *at* the
    /// boundary), nothing more is skipped.
    fn recover_to_statement(&mut self) {
        if self.pos > 0
            && matches!(
                self.tokens.get(self.pos - 1),
                Some(Token {
                    kind: TokenKind::Semicolon,
                    ..
                })
            )
        {
            return;
        }
        self.skip_to_semicolon();
    }

    fn skip_block_or_statement(&mut self) {
        // Skip either `{ ... }` (gate definition body) or a `;`-terminated statement.
        let mut depth = 0usize;
        while let Some(t) = self.next() {
            match t.kind {
                TokenKind::LBrace => depth += 1,
                TokenKind::RBrace => {
                    if depth <= 1 {
                        return;
                    }
                    depth -= 1;
                }
                TokenKind::Semicolon if depth == 0 => return,
                _ => {}
            }
        }
    }

    fn parse(&mut self) -> Result<Circuit, ()> {
        while let Some(token) = self.peek().cloned() {
            if self.capped() {
                return Err(());
            }
            if let Err(diag) = self.parse_statement(&token) {
                self.report(diag);
                self.recover_to_statement();
            }
            if self.gates.len() > self.limits.max_gates {
                let diag = self.diag_at(
                    DiagnosticKind::TooManyGates {
                        max_gates: self.limits.max_gates,
                    },
                    token.line,
                    token.col,
                );
                self.report(diag);
                return Err(());
            }
        }
        if self.total_qubits == 0 {
            // Only worth reporting when no earlier diagnostic (e.g. a
            // rejected `qreg`) already explains why no register exists.
            if self.diagnostics.is_empty() {
                let diag = self.diag_at(DiagnosticKind::NoQuantumRegister, 0, 0);
                self.report(diag);
            }
            return Err(());
        }
        if !self.diagnostics.is_empty() {
            return Err(());
        }
        let mut circuit = Circuit::with_name("qasm", self.total_qubits);
        circuit.extend(std::mem::take(&mut self.gates));
        Ok(circuit)
    }

    fn parse_statement(&mut self, token: &Token) -> Result<(), Diagnostic> {
        match &token.kind {
            TokenKind::Ident(word) => match word.as_str() {
                "OPENQASM" | "include" | "creg" => {
                    self.skip_to_semicolon();
                    Ok(())
                }
                "gate" | "opaque" => {
                    self.skip_block_or_statement();
                    Ok(())
                }
                "if" => {
                    // `if (c==0) gate ...;` — drop the condition, keep nothing
                    // (conditioned gates are rare in the benchmarks and do not
                    // change shuttle scheduling structure).
                    self.skip_to_semicolon();
                    Ok(())
                }
                "qreg" => {
                    self.next();
                    self.parse_qreg(token.line)
                }
                "measure" => {
                    self.next();
                    self.parse_measure(token.line)
                }
                "barrier" => {
                    self.next();
                    self.parse_barrier(token.line)
                }
                _ => {
                    let word = word.clone();
                    self.next();
                    self.parse_gate(&word, token.line, token.col)
                }
            },
            TokenKind::Semicolon => {
                self.next();
                Ok(())
            }
            _ => {
                self.next();
                Err(self.unexpected(token, "statement"))
            }
        }
    }

    /// Consumes a number token and checks it denotes a non-negative integer
    /// (register sizes and qubit indices). Values beyond `usize` saturate;
    /// callers apply their own range checks and limit diagnostics.
    fn expect_index(&mut self) -> Result<usize, Diagnostic> {
        let token = match self.next() {
            Some(t) => t,
            None => return Err(self.eof_diag()),
        };
        let value = match token.kind {
            TokenKind::Number(n) => n,
            _ => return Err(self.unexpected(&token, "non-negative integer")),
        };
        if value.is_finite() && value.fract() == 0.0 && value >= 0.0 {
            // `as` saturates at usize::MAX for values beyond the type.
            Ok(value as usize)
        } else {
            Err(self.diag_at(
                DiagnosticKind::NonIntegerLiteral { value },
                token.line,
                token.col,
            ))
        }
    }

    fn parse_qreg(&mut self, line: usize) -> Result<(), Diagnostic> {
        let (name, name_col) = self.expect_ident()?;
        self.expect_kind(TokenKind::LBracket, "[")?;
        let size = self.expect_index()?;
        self.expect_kind(TokenKind::RBracket, "]")?;
        self.expect_semicolon()?;
        if size == 0 {
            return Err(self.diag_at(DiagnosticKind::EmptyRegister { name }, line, name_col));
        }
        let requested = self.total_qubits.saturating_add(size);
        if requested > self.limits.max_qubits {
            return Err(self.diag_at(
                DiagnosticKind::RegisterTooWide {
                    requested,
                    max_qubits: self.limits.max_qubits,
                },
                line,
                name_col,
            ));
        }
        if self.qregs.contains_key(&name) {
            return Err(self.diag_at(DiagnosticKind::DuplicateRegister { name }, line, name_col));
        }
        self.qregs.insert(name, (self.total_qubits, size));
        self.total_qubits += size;
        Ok(())
    }

    fn parse_measure(&mut self, _line: usize) -> Result<(), Diagnostic> {
        // measure q[i] -> c[i]; | measure q -> c;
        let targets = self.parse_argument()?;
        // Skip everything up to the semicolon (the classical target).
        self.skip_to_semicolon();
        for q in targets {
            self.gates.push(Gate::Measure(q));
        }
        Ok(())
    }

    fn parse_barrier(&mut self, _line: usize) -> Result<(), Diagnostic> {
        let mut qubits = Vec::new();
        loop {
            let mut arg = self.parse_argument()?;
            qubits.append(&mut arg);
            match self.next() {
                Some(Token {
                    kind: TokenKind::Comma,
                    ..
                }) => continue,
                Some(Token {
                    kind: TokenKind::Semicolon,
                    ..
                }) => break,
                Some(t) => return Err(self.unexpected(&t, ", or ;")),
                None => return Err(self.eof_diag()),
            }
        }
        self.gates.push(Gate::Barrier(qubits));
        Ok(())
    }

    fn parse_gate(&mut self, name: &str, line: usize, col: usize) -> Result<(), Diagnostic> {
        // Optional parameter list.
        let params = if matches!(
            self.peek(),
            Some(Token {
                kind: TokenKind::LParen,
                ..
            })
        ) {
            self.next();
            self.parse_params()?
        } else {
            Vec::new()
        };
        // Finite literals can still combine into infinities or NaN (`1/0`,
        // `1e308+1e308`); reject them here so every parsed circuit carries
        // only finite angles and survives an exact `to_qasm` round trip.
        if let Some(bad) = params.iter().copied().find(|p| !p.is_finite()) {
            return Err(self.diag_at(DiagnosticKind::NonFiniteParameter { value: bad }, line, col));
        }
        // Operands: comma-separated arguments, each `reg` or `reg[i]`.
        let mut operands: Vec<Vec<QubitId>> = Vec::new();
        loop {
            operands.push(self.parse_argument()?);
            match self.next() {
                Some(Token {
                    kind: TokenKind::Comma,
                    ..
                }) => continue,
                Some(Token {
                    kind: TokenKind::Semicolon,
                    ..
                }) => break,
                Some(t) => return Err(self.unexpected(&t, ", or ;")),
                None => return Err(self.eof_diag()),
            }
        }
        // Broadcast over whole-register operands (all operands must then have
        // the same length; single-qubit operands are repeated). Registers are
        // never empty, so every operand list has at least one entry.
        let broadcast = operands.iter().map(Vec::len).max().unwrap_or(1);
        for i in 0..broadcast {
            let pick = |op: &Vec<QubitId>| -> QubitId {
                if op.len() == 1 {
                    op[0]
                } else {
                    op[i.min(op.len().saturating_sub(1))]
                }
            };
            if name == "ccx" {
                // Decompose Toffolis here so downstream schedulers only ever
                // see one- and two-qubit gates.
                let need = |idx: usize| -> Result<QubitId, Diagnostic> {
                    operands.get(idx).map(&pick).ok_or_else(|| {
                        self.diag_at(
                            DiagnosticKind::Unexpected {
                                found: "end of operands".to_string(),
                                expected: "qubit operand",
                            },
                            line,
                            col,
                        )
                    })
                };
                let (a, b, c) = (need(0)?, need(1)?, need(2)?);
                self.gates.extend(toffoli_decomposition(a, b, c));
            } else {
                let gate = self.build_gate(name, &params, &operands, pick, line, col)?;
                self.gates.push(gate);
            }
        }
        Ok(())
    }

    fn build_gate(
        &self,
        name: &str,
        params: &[f64],
        operands: &[Vec<QubitId>],
        pick: impl Fn(&Vec<QubitId>) -> QubitId,
        line: usize,
        col: usize,
    ) -> Result<Gate, Diagnostic> {
        let op = |idx: usize| -> Result<QubitId, Diagnostic> {
            operands.get(idx).map(&pick).ok_or_else(|| {
                self.diag_at(
                    DiagnosticKind::Unexpected {
                        found: "end of operands".to_string(),
                        expected: "qubit operand",
                    },
                    line,
                    col,
                )
            })
        };
        let p = |idx: usize| params.get(idx).copied().unwrap_or(0.0);
        let gate = match name {
            "h" => Gate::H(op(0)?),
            "x" => Gate::X(op(0)?),
            "y" => Gate::Y(op(0)?),
            "z" => Gate::Z(op(0)?),
            "s" => Gate::S(op(0)?),
            "sdg" => Gate::Sdg(op(0)?),
            "t" => Gate::T(op(0)?),
            "tdg" => Gate::Tdg(op(0)?),
            "id" => Gate::Rz {
                qubit: op(0)?,
                theta: 0.0,
            },
            "rx" => Gate::Rx {
                qubit: op(0)?,
                theta: p(0),
            },
            "ry" => Gate::Ry {
                qubit: op(0)?,
                theta: p(0),
            },
            "rz" | "u1" | "p" => Gate::Rz {
                qubit: op(0)?,
                theta: p(0),
            },
            "u2" => Gate::U {
                qubit: op(0)?,
                theta: PI / 2.0,
                phi: p(0),
                lambda: p(1),
            },
            "u3" | "u" => Gate::U {
                qubit: op(0)?,
                theta: p(0),
                phi: p(1),
                lambda: p(2),
            },
            "cx" | "CX" => Gate::Cx(op(0)?, op(1)?),
            "cz" => Gate::Cz(op(0)?, op(1)?),
            "cp" | "cu1" => Gate::Cp {
                control: op(0)?,
                target: op(1)?,
                theta: p(0),
            },
            "rzz" => Gate::Rzz {
                a: op(0)?,
                b: op(1)?,
                theta: p(0),
            },
            "swap" => Gate::Swap(op(0)?, op(1)?),
            "ms" | "rxx" => Gate::Ms(op(0)?, op(1)?),
            other => {
                return Err(self.diag_at(
                    DiagnosticKind::UnsupportedGate {
                        name: other.to_string(),
                    },
                    line,
                    col,
                ));
            }
        };
        Ok(gate)
    }

    /// Parses a comma-separated list of constant expressions terminated by
    /// `)` (the opening `(` has already been consumed).
    fn parse_params(&mut self) -> Result<Vec<f64>, Diagnostic> {
        let mut params = Vec::new();
        if matches!(
            self.peek(),
            Some(Token {
                kind: TokenKind::RParen,
                ..
            })
        ) {
            self.next();
            return Ok(params);
        }
        loop {
            params.push(self.parse_expr(0)?);
            match self.next() {
                Some(Token {
                    kind: TokenKind::RParen,
                    ..
                }) => break,
                Some(Token {
                    kind: TokenKind::Comma,
                    ..
                }) => continue,
                Some(t) => return Err(self.unexpected(&t, ", or )")),
                None => return Err(self.eof_diag()),
            }
        }
        Ok(params)
    }

    /// `expr := term (('+'|'-') term)*` with left-to-right association.
    fn parse_expr(&mut self, depth: usize) -> Result<f64, Diagnostic> {
        let mut value = self.parse_term(depth)?;
        while let Some(Token {
            kind: TokenKind::Op(op @ ('+' | '-')),
            ..
        }) = self.peek()
        {
            let op = *op;
            self.next();
            let rhs = self.parse_term(depth)?;
            value = if op == '+' { value + rhs } else { value - rhs };
        }
        Ok(value)
    }

    /// `term := unary (('*'|'/') unary)*` with left-to-right association.
    fn parse_term(&mut self, depth: usize) -> Result<f64, Diagnostic> {
        let mut value = self.parse_unary(depth)?;
        while let Some(Token {
            kind: TokenKind::Op(op @ ('*' | '/')),
            ..
        }) = self.peek()
        {
            let op = *op;
            self.next();
            let rhs = self.parse_unary(depth)?;
            value = if op == '*' { value * rhs } else { value / rhs };
        }
        Ok(value)
    }

    /// `unary := '-' unary | atom`, `atom := number | 'pi' | '(' expr ')'`.
    /// `depth` counts recursion (unary minus chains and parentheses) and is
    /// bounded by [`ParseLimits::max_expr_depth`] so adversarial nesting
    /// cannot overflow the stack.
    fn parse_unary(&mut self, depth: usize) -> Result<f64, Diagnostic> {
        let token = match self.next() {
            Some(t) => t,
            None => return Err(self.eof_diag()),
        };
        if depth >= self.limits.max_expr_depth {
            return Err(self.diag_at(
                DiagnosticKind::ExpressionTooDeep {
                    max_depth: self.limits.max_expr_depth,
                },
                token.line,
                token.col,
            ));
        }
        match token.kind {
            TokenKind::Op('-') => Ok(-self.parse_unary(depth + 1)?),
            TokenKind::Number(n) => Ok(n),
            TokenKind::Ident(ref word) if word == "pi" => Ok(PI),
            TokenKind::LParen => {
                let value = self.parse_expr(depth + 1)?;
                self.expect_kind(TokenKind::RParen, ")")?;
                Ok(value)
            }
            _ => Err(self.unexpected(&token, "parameter expression")),
        }
    }

    /// Parses `reg` or `reg[i]`, returning the referenced qubits.
    fn parse_argument(&mut self) -> Result<Vec<QubitId>, Diagnostic> {
        let (name, line, col) = match self.next() {
            Some(Token {
                kind: TokenKind::Ident(name),
                line,
                col,
            }) => (name, line, col),
            Some(t) => return Err(self.unexpected(&t, "register name")),
            None => return Err(self.eof_diag()),
        };
        let &(offset, size) = self.qregs.get(&name).ok_or_else(|| {
            self.diag_at(
                DiagnosticKind::UnknownRegister { name: name.clone() },
                line,
                col,
            )
        })?;
        if matches!(
            self.peek(),
            Some(Token {
                kind: TokenKind::LBracket,
                ..
            })
        ) {
            self.next();
            let index = self.expect_index()?;
            self.expect_kind(TokenKind::RBracket, "]")?;
            if index >= size {
                return Err(self.diag_at(
                    DiagnosticKind::IndexOutOfRange { name, index, size },
                    line,
                    col,
                ));
            }
            Ok(vec![QubitId::new(offset + index)])
        } else {
            Ok((0..size).map(|i| QubitId::new(offset + i)).collect())
        }
    }

    fn expect_ident(&mut self) -> Result<(String, usize), Diagnostic> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Ident(s),
                col,
                ..
            }) => Ok((s, col)),
            Some(t) => Err(self.unexpected(&t, "identifier")),
            None => Err(self.eof_diag()),
        }
    }

    fn expect_kind(&mut self, kind: TokenKind, expected: &'static str) -> Result<(), Diagnostic> {
        match self.next() {
            Some(t) if t.kind == kind => Ok(()),
            Some(t) => Err(self.unexpected(&t, expected)),
            None => Err(self.eof_diag()),
        }
    }
}

/// Standard six-CNOT Toffoli decomposition (same network as
/// [`Circuit::ccx`](crate::Circuit::ccx)).
fn toffoli_decomposition(a: QubitId, b: QubitId, c: QubitId) -> Vec<Gate> {
    vec![
        Gate::H(c),
        Gate::Cx(b, c),
        Gate::Tdg(c),
        Gate::Cx(a, c),
        Gate::T(c),
        Gate::Cx(b, c),
        Gate::Tdg(c),
        Gate::Cx(a, c),
        Gate::T(b),
        Gate::T(c),
        Gate::H(c),
        Gate::Cx(a, b),
        Gate::T(a),
        Gate::Tdg(b),
        Gate::Cx(a, b),
    ]
}
