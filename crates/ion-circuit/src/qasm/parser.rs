//! Single-pass recursive-descent parser for the OpenQASM 2.0 subset.
//!
//! The parser pulls tokens from the byte [`Scanner`] one at a time and builds
//! the gate list as it goes. It is hardened against untrusted input: it
//! recovers at statement boundaries and reports the first
//! [`ParseLimits::max_diagnostics`] problems in source order instead of
//! stopping at the first, every diagnostic carries a line/column span plus a
//! source excerpt, and explicit resource limits bound register width, gate
//! count and expression nesting so adversarial input (`qreg q[999999999];`,
//! kilobyte-deep parentheses) is rejected with an error instead of
//! exhausting memory or the stack.

// lint: no-panic
// lint: hot-path

use std::error::Error;
use std::f64::consts::PI;
use std::fmt;

use crate::{Circuit, Gate, QubitId};

use super::lexer::{Scanner, Token, TokenKind};

/// Resource limits applied while parsing untrusted OpenQASM source.
///
/// The defaults are far above anything in QASMBench while keeping worst-case
/// memory and stack use small; tighten them for stricter ingestion tiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum total qubits across all `qreg` declarations.
    pub max_qubits: usize,
    /// Maximum number of gates the parsed circuit may contain (Toffoli
    /// decomposition and whole-register broadcasts count post-expansion).
    pub max_gates: usize,
    /// Maximum nesting depth of parameter expressions (parentheses and unary
    /// minus chains).
    pub max_expr_depth: usize,
    /// Maximum number of diagnostics collected before parsing aborts.
    pub max_diagnostics: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            max_qubits: 4096,
            max_gates: 4_000_000,
            max_expr_depth: 32,
            max_diagnostics: 64,
        }
    }
}

/// What a single [`Diagnostic`] is about.
#[derive(Debug, Clone, PartialEq)]
pub enum DiagnosticKind {
    /// The source ended unexpectedly.
    UnexpectedEof,
    /// An unexpected token was found.
    Unexpected {
        /// What was found (rendered).
        found: String,
        /// What the parser was looking for.
        expected: &'static str,
    },
    /// A gate refers to an undeclared register.
    UnknownRegister {
        /// Register name.
        name: String,
    },
    /// A quantum register name was declared twice.
    DuplicateRegister {
        /// Register name.
        name: String,
    },
    /// A gate name is not supported by this subset parser.
    UnsupportedGate {
        /// Gate name.
        name: String,
    },
    /// A qubit index exceeds its register size.
    IndexOutOfRange {
        /// Register name.
        name: String,
        /// Offending index.
        index: usize,
        /// Declared register size.
        size: usize,
    },
    /// No quantum register was declared before the first gate.
    NoQuantumRegister,
    /// A `qreg` declaration with zero qubits.
    EmptyRegister {
        /// Register name.
        name: String,
    },
    /// A `qreg` declaration (or the running total) exceeds
    /// [`ParseLimits::max_qubits`].
    RegisterTooWide {
        /// Total qubits the declarations ask for (saturating).
        requested: usize,
        /// The configured limit.
        max_qubits: usize,
    },
    /// The circuit exceeds [`ParseLimits::max_gates`].
    TooManyGates {
        /// The configured limit.
        max_gates: usize,
    },
    /// A parameter expression nests deeper than
    /// [`ParseLimits::max_expr_depth`].
    ExpressionTooDeep {
        /// The configured limit.
        max_depth: usize,
    },
    /// A register size or qubit index literal is not a non-negative integer.
    NonIntegerLiteral {
        /// The literal's value.
        value: f64,
    },
    /// A parameter expression evaluated to an infinity or NaN (for example
    /// `rz(1/0)`); downstream timing and fidelity models require finite
    /// angles.
    NonFiniteParameter {
        /// The evaluated value.
        value: f64,
    },
    /// A string literal was not closed before end of input.
    UnterminatedString,
    /// A character outside the OpenQASM grammar.
    InvalidCharacter {
        /// The offending character.
        ch: char,
    },
    /// A numeric literal that does not parse as a finite number.
    MalformedNumber {
        /// The literal's source text.
        text: String,
    },
}

impl fmt::Display for DiagnosticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagnosticKind::UnexpectedEof => write!(f, "unexpected end of QASM source"),
            DiagnosticKind::Unexpected { found, expected } => {
                write!(f, "expected {expected}, found '{found}'")
            }
            DiagnosticKind::UnknownRegister { name } => write!(f, "unknown register '{name}'"),
            DiagnosticKind::DuplicateRegister { name } => {
                write!(f, "register '{name}' declared twice")
            }
            DiagnosticKind::UnsupportedGate { name } => write!(f, "unsupported gate '{name}'"),
            DiagnosticKind::IndexOutOfRange { name, index, size } => write!(
                f,
                "index {index} out of range for register '{name}' of size {size}"
            ),
            DiagnosticKind::NoQuantumRegister => write!(f, "no quantum register declared"),
            DiagnosticKind::EmptyRegister { name } => {
                write!(f, "register '{name}' must have at least one qubit")
            }
            DiagnosticKind::RegisterTooWide {
                requested,
                max_qubits,
            } => write!(
                f,
                "register declarations request {requested} qubits, exceeding the limit of {max_qubits}"
            ),
            DiagnosticKind::TooManyGates { max_gates } => {
                write!(f, "circuit exceeds the gate limit of {max_gates}")
            }
            DiagnosticKind::ExpressionTooDeep { max_depth } => {
                write!(f, "parameter expression nests deeper than {max_depth} levels")
            }
            DiagnosticKind::NonIntegerLiteral { value } => {
                write!(f, "'{value}' is not a non-negative integer")
            }
            DiagnosticKind::NonFiniteParameter { value } => {
                write!(f, "parameter expression evaluates to non-finite '{value}'")
            }
            DiagnosticKind::UnterminatedString => write!(f, "unterminated string literal"),
            DiagnosticKind::InvalidCharacter { ch } => {
                write!(f, "invalid character '{}'", ch.escape_default())
            }
            DiagnosticKind::MalformedNumber { text } => {
                write!(f, "malformed numeric literal '{text}'")
            }
        }
    }
}

/// One problem found in the source, with its position and source excerpt.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// What went wrong.
    pub kind: DiagnosticKind,
    /// 1-based source line (0 when the position is the end of input).
    pub line: usize,
    /// 1-based source column (0 when the position is the end of input).
    pub col: usize,
    /// The trimmed source line the diagnostic points at (may be empty).
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "error: {}", self.kind)?;
        } else {
            write!(
                f,
                "error at line {}, col {}: {}",
                self.line, self.col, self.kind
            )?;
        }
        if !self.snippet.is_empty() {
            write!(f, "\n  {} | {}", self.line, self.snippet)?;
        }
        Ok(())
    }
}

/// Errors produced while parsing OpenQASM source: one or more diagnostics,
/// each with a line/column span and a source-line excerpt.
#[derive(Debug, Clone, PartialEq)]
pub struct QasmError {
    diagnostics: Vec<Diagnostic>,
}

impl QasmError {
    /// Every problem found, in source order. Never empty.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The first problem found.
    pub fn first(&self) -> &Diagnostic {
        &self.diagnostics[0]
    }
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.len() > 1 {
            writeln!(f, "{} errors in QASM source:", self.diagnostics.len())?;
        }
        for (i, diag) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{diag}")?;
        }
        Ok(())
    }
}

impl Error for QasmError {}

/// Parses OpenQASM 2.0 source into a [`Circuit`] under [default
/// limits](ParseLimits::default).
///
/// Multiple quantum registers are flattened into one contiguous register in
/// declaration order. Classical registers, `if` conditions and custom `gate`
/// definitions are skipped (custom gate *bodies* are ignored; *calls* to
/// unknown gates are an error so silent mis-parses cannot occur).
///
/// # Errors
///
/// Returns a [`QasmError`] carrying the first
/// [`max_diagnostics`](ParseLimits::max_diagnostics) problems in source
/// order (the parser recovers at statement boundaries rather than stopping
/// at the first error). This function never panics, for any input.
pub fn parse(source: &str) -> Result<Circuit, QasmError> {
    parse_with_limits(source, &ParseLimits::default())
}

/// [`parse`] with caller-chosen [`ParseLimits`].
pub fn parse_with_limits(source: &str, limits: &ParseLimits) -> Result<Circuit, QasmError> {
    let mut parser = Parser::new(source, limits);
    match parser.run() {
        Some(circuit) => Ok(circuit),
        None => Err(QasmError {
            diagnostics: parser.problems.into_diagnostics(source),
        }),
    }
}

/// Where a problem is: byte offsets of the characters whose line and whose
/// column the diagnostic cites (the same offset except for `qreg` checks,
/// which cite the keyword's line and the name's column), or `None` for no
/// position (reported as line 0, col 0).
type Span = Option<(usize, usize)>;

/// One problem, positioned by byte offsets until it becomes a [`Diagnostic`].
struct Problem {
    span: Span,
    kind: DiagnosticKind,
}

impl Problem {
    fn at(offset: usize, kind: DiagnosticKind) -> Self {
        Problem {
            span: Some((offset, offset)),
            kind,
        }
    }

    fn unexpected(token: Token<'_>, expected: &'static str) -> Self {
        let found = token.kind.to_string();
        Problem::at(token.offset, DiagnosticKind::Unexpected { found, expected })
    }
}

/// The problems found so far. Problems arrive almost in source order (a
/// statement-level problem is reported after the lexical ones inside the
/// statement), so the list keeps every problem until it holds twice the cap
/// and then drops all but the first `cap` in source order: memory stays
/// bounded and no early problem is lost.
pub(crate) struct Problems {
    list: Vec<Problem>,
    cap: usize,
}

impl Problems {
    pub(crate) fn new(cap: usize) -> Self {
        Problems {
            list: Vec::new(), // lint: allow (diagnostics are the error result)
            cap,
        }
    }

    /// Records a lexical or syntactic problem at a byte offset.
    pub(crate) fn report(&mut self, offset: usize, kind: DiagnosticKind) {
        self.push(Problem::at(offset, kind));
    }

    fn push(&mut self, problem: Problem) {
        self.list.push(problem);
        if self.list.len() > self.cap.saturating_mul(2) {
            self.keep_first();
        }
    }

    fn keep_first(&mut self) {
        self.list.sort_by_key(|p| p.span);
        self.list.truncate(self.cap);
    }

    /// Whether the cap is reached. Checked only at statement boundaries:
    /// every later problem lies after the next statement's first token.
    fn capped(&self) -> bool {
        self.list.len() >= self.cap
    }

    /// The first `cap` problems in source order, with 1-based line/column
    /// and the trimmed source line, computed in one sweep over the source.
    pub(crate) fn into_diagnostics(mut self, source: &str) -> Vec<Diagnostic> {
        self.keep_first();
        let bytes = source.as_bytes();
        let newline_in = |from: usize, to: usize| {
            let found = bytes.get(from..to)?.iter().position(|&b| b == b'\n');
            found.map(|i| from + i)
        };
        let (mut line, mut line_start) = (1, 0);
        let mut diagnostics: Vec<Diagnostic> = self
            .list
            .into_iter()
            .map(|Problem { span, kind }| {
                let Some((line_at, col_at)) = span else {
                    return Diagnostic {
                        kind,
                        line: 0,
                        col: 0,
                        snippet: String::new(),
                    };
                };
                while let Some(nl) = newline_in(line_start, line_at) {
                    line += 1;
                    line_start = nl + 1;
                }
                let col_line_start = bytes
                    .get(..col_at)
                    .and_then(|b| b.iter().rposition(|&b| b == b'\n'))
                    .map_or(0, |nl| nl + 1);
                let col = source
                    .get(col_line_start..col_at)
                    .map_or(0, |s| s.chars().count());
                let line_end = newline_in(line_at, bytes.len()).unwrap_or(bytes.len());
                let snippet = source.get(line_start..line_end).unwrap_or("");
                Diagnostic {
                    kind,
                    line,
                    col: col + 1,
                    snippet: snippet.trim_end().to_string(),
                }
            })
            .collect();
        diagnostics.sort_by_key(|d| (d.line, d.col));
        diagnostics
    }
}

/// A parsed operand: `len` consecutive qubits from `start` (`reg[i]` is one
/// qubit, a whole register `reg` is all of it).
type Operand = (usize, usize);

/// Single-pass parser pulling tokens from a [`Scanner`]. Registers live in a
/// linearly scanned `Vec` (programs declare a handful), and the parameter
/// and operand buffers are reused across statements.
struct Parser<'s, 'l> {
    scanner: Scanner<'s>,
    /// One token of lookahead; `Some(None)` is a peeked end of input.
    lookahead: Option<Option<Token<'s>>>,
    /// Whether the last consumed token was `;` (error recovery).
    after_semicolon: bool,
    limits: &'l ParseLimits,
    problems: Problems,
    /// (name, offset, size) per `qreg`.
    qregs: Vec<(&'s str, usize, usize)>,
    total_qubits: usize,
    gates: Vec<Gate>,
    params: Vec<f64>,
    operands: Vec<Operand>,
}

impl<'s, 'l> Parser<'s, 'l> {
    fn new(source: &'s str, limits: &'l ParseLimits) -> Self {
        Parser {
            scanner: Scanner::new(source),
            lookahead: None,
            after_semicolon: false,
            limits,
            // An error always carries at least one diagnostic.
            problems: Problems::new(limits.max_diagnostics.max(1)),
            qregs: Vec::new(), // lint: allow (one per parse)
            total_qubits: 0,
            gates: Vec::new(),    // lint: allow (the parsed circuit's gate list)
            params: Vec::new(),   // lint: allow (reused across statements)
            operands: Vec::new(), // lint: allow (reused across statements)
        }
    }

    fn peek(&mut self) -> Option<Token<'s>> {
        *self
            .lookahead
            .get_or_insert_with(|| self.scanner.next_token(&mut self.problems))
    }

    fn next(&mut self) -> Option<Token<'s>> {
        let token = match self.lookahead.take() {
            Some(token) => token,
            None => self.scanner.next_token(&mut self.problems),
        };
        if let Some(t) = token {
            self.after_semicolon = t.kind == TokenKind::Semicolon;
        }
        token
    }

    /// End of input, reported at the last token (or without a position when
    /// the source has none).
    fn eof(&self) -> Problem {
        Problem {
            span: self.scanner.last_token.map(|at| (at, at)),
            kind: DiagnosticKind::UnexpectedEof,
        }
    }

    fn expect_kind(&mut self, kind: TokenKind<'_>, expected: &'static str) -> Result<(), Problem> {
        match self.next() {
            Some(t) if t.kind == kind => Ok(()),
            Some(t) => Err(Problem::unexpected(t, expected)),
            None => Err(self.eof()),
        }
    }

    fn skip_to_semicolon(&mut self) {
        while let Some(t) = self.next() {
            if t.kind == TokenKind::Semicolon {
                break;
            }
        }
    }

    /// Skips either `{ ... }` (gate definition body) or a `;`-terminated
    /// statement.
    fn skip_block_or_statement(&mut self) {
        let mut depth = 0usize;
        while let Some(t) = self.next() {
            match t.kind {
                TokenKind::LBrace => depth += 1,
                TokenKind::RBrace if depth <= 1 => return,
                TokenKind::RBrace => depth -= 1,
                TokenKind::Semicolon if depth == 0 => return,
                _ => {}
            }
        }
    }

    fn run(&mut self) -> Option<Circuit> {
        while let Some(token) = self.peek() {
            if self.problems.capped() {
                return None;
            }
            if let Err(problem) = self.statement(token) {
                self.problems.push(problem);
                // Resynchronise at the next statement boundary, unless the
                // error was at the boundary itself.
                if !self.after_semicolon {
                    self.skip_to_semicolon();
                }
            }
            if self.gates.len() > self.limits.max_gates {
                let max_gates = self.limits.max_gates;
                self.problems
                    .report(token.offset, DiagnosticKind::TooManyGates { max_gates });
                return None;
            }
        }
        if self.total_qubits == 0 {
            // Only worth reporting when no earlier diagnostic (e.g. a
            // rejected `qreg`) already explains why no register exists.
            if self.problems.list.is_empty() {
                self.problems.push(Problem {
                    span: None,
                    kind: DiagnosticKind::NoQuantumRegister,
                });
            }
            return None;
        }
        if !self.problems.list.is_empty() {
            return None;
        }
        let gates = std::mem::take(&mut self.gates);
        Some(Circuit::from_gates("qasm", self.total_qubits, gates))
    }

    fn statement(&mut self, token: Token<'s>) -> Result<(), Problem> {
        let TokenKind::Ident(word) = token.kind else {
            self.next();
            return match token.kind {
                TokenKind::Semicolon => Ok(()),
                _ => Err(Problem::unexpected(token, "statement")),
            };
        };
        match word {
            // `if (c==0) gate ...;` drops the condition and keeps nothing
            // (conditioned gates are rare in the benchmarks and do not
            // change shuttle scheduling structure).
            "OPENQASM" | "include" | "creg" | "if" => self.skip_to_semicolon(),
            "gate" | "opaque" => self.skip_block_or_statement(),
            "qreg" => {
                self.next();
                return self.qreg(token.offset);
            }
            "measure" => {
                self.next();
                let (start, len) = self.argument()?;
                // Skip the classical target.
                self.skip_to_semicolon();
                let measures = (start..start + len).map(|q| Gate::Measure(QubitId::new(q)));
                self.gates.extend(measures);
            }
            "barrier" => {
                self.next();
                let mut qubits = Vec::new(); // lint: allow (the barrier gate owns its qubit list)
                loop {
                    let (start, len) = self.argument()?;
                    qubits.extend((start..start + len).map(QubitId::new));
                    if !self.list_continues()? {
                        break;
                    }
                }
                self.gates.push(Gate::Barrier(qubits));
            }
            name => {
                self.next();
                return self.gate(name, token.offset);
            }
        }
        Ok(())
    }

    /// After a list item: `,` continues the list, `;` ends the statement.
    fn list_continues(&mut self) -> Result<bool, Problem> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Comma,
                ..
            }) => Ok(true),
            Some(Token {
                kind: TokenKind::Semicolon,
                ..
            }) => Ok(false),
            Some(t) => Err(Problem::unexpected(t, ", or ;")),
            None => Err(self.eof()),
        }
    }

    /// Consumes a number token denoting a register size or qubit index.
    fn index(&mut self) -> Result<usize, Problem> {
        let token = self.next().ok_or_else(|| self.eof())?;
        match token.kind {
            TokenKind::Number(value) => index_value(value, token.offset),
            _ => Err(Problem::unexpected(token, "non-negative integer")),
        }
    }

    /// [`Scanner::delimited_literal`], run only when no token is peeked (the
    /// scanner is then already past the bytes it would read).
    fn fast_literal(&mut self, open: u8, close: u8) -> Option<(f64, usize)> {
        if self.lookahead.is_some() {
            return None;
        }
        let hit = self.scanner.delimited_literal(open, close);
        if hit.is_some() {
            self.after_semicolon = false;
        }
        hit
    }

    fn qreg(&mut self, keyword: usize) -> Result<(), Problem> {
        let token = self.next().ok_or_else(|| self.eof())?;
        let TokenKind::Ident(name) = token.kind else {
            return Err(Problem::unexpected(token, "identifier"));
        };
        self.expect_kind(TokenKind::LBracket, "[")?;
        let size = self.index()?;
        self.expect_kind(TokenKind::RBracket, "]")?;
        self.expect_kind(TokenKind::Semicolon, ";")?;
        let requested = self.total_qubits.saturating_add(size);
        let kind = if size == 0 {
            DiagnosticKind::EmptyRegister {
                name: name.to_string(),
            }
        } else if requested > self.limits.max_qubits {
            DiagnosticKind::RegisterTooWide {
                requested,
                max_qubits: self.limits.max_qubits,
            }
        } else if self.qregs.iter().any(|r| r.0 == name) {
            DiagnosticKind::DuplicateRegister {
                name: name.to_string(),
            }
        } else {
            self.qregs.push((name, self.total_qubits, size));
            self.total_qubits = requested;
            return Ok(());
        };
        Err(Problem {
            span: Some((keyword, token.offset)),
            kind,
        })
    }

    fn gate(&mut self, name: &str, at: usize) -> Result<(), Problem> {
        self.params.clear();
        // A lone literal skips the expression parser unless even depth 0 is
        // too deep.
        let lone = match self.limits.max_expr_depth {
            0 => None,
            _ => self.fast_literal(b'(', b')'),
        };
        if let Some((value, _)) = lone {
            self.params.push(value);
        } else if let Some(Token {
            kind: TokenKind::LParen,
            ..
        }) = self.peek()
        {
            self.next();
            self.parse_params()?;
        }
        // Finite literals can still combine into infinities or NaN (`1/0`,
        // `1e308+1e308`); reject them here so every parsed circuit carries
        // only finite angles and survives an exact `to_qasm` round trip.
        if let Some(&value) = self.params.iter().find(|p| !p.is_finite()) {
            return Err(Problem::at(
                at,
                DiagnosticKind::NonFiniteParameter { value },
            ));
        }
        // Operands: comma-separated arguments, each `reg` or `reg[i]`.
        self.operands.clear();
        loop {
            let operand = self.argument()?;
            self.operands.push(operand);
            if !self.list_continues()? {
                break;
            }
        }
        // Broadcast over whole-register operands (single-qubit operands are
        // repeated). Registers are never empty, so every operand has at
        // least one qubit.
        let broadcast = self.operands.iter().map(|o| o.1).max().unwrap_or(1);
        for i in 0..broadcast {
            push_gate(&mut self.gates, name, &self.params, &self.operands, i)
                .map_err(|kind| Problem::at(at, kind))?;
        }
        Ok(())
    }

    /// Parses a comma-separated list of constant expressions terminated by
    /// `)` (the opening `(` has already been consumed) into `self.params`.
    fn parse_params(&mut self) -> Result<(), Problem> {
        if let Some(Token {
            kind: TokenKind::RParen,
            ..
        }) = self.peek()
        {
            self.next();
            return Ok(());
        }
        loop {
            let value = self.parse_expr(0)?;
            self.params.push(value);
            match self.next() {
                Some(Token {
                    kind: TokenKind::RParen,
                    ..
                }) => return Ok(()),
                Some(Token {
                    kind: TokenKind::Comma,
                    ..
                }) => {}
                Some(t) => return Err(Problem::unexpected(t, ", or )")),
                None => return Err(self.eof()),
            }
        }
    }

    /// `expr := term (('+'|'-') term)*` with left-to-right association.
    fn parse_expr(&mut self, depth: usize) -> Result<f64, Problem> {
        let mut value = self.parse_term(depth)?;
        while let Some(Token {
            kind: TokenKind::Op(op @ ('+' | '-')),
            ..
        }) = self.peek()
        {
            self.next();
            let rhs = self.parse_term(depth)?;
            value = if op == '+' { value + rhs } else { value - rhs };
        }
        Ok(value)
    }

    /// `term := unary (('*'|'/') unary)*` with left-to-right association.
    fn parse_term(&mut self, depth: usize) -> Result<f64, Problem> {
        let mut value = self.parse_unary(depth)?;
        while let Some(Token {
            kind: TokenKind::Op(op @ ('*' | '/')),
            ..
        }) = self.peek()
        {
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
    fn parse_unary(&mut self, depth: usize) -> Result<f64, Problem> {
        let token = self.next().ok_or_else(|| self.eof())?;
        if depth >= self.limits.max_expr_depth {
            let max_depth = self.limits.max_expr_depth;
            let kind = DiagnosticKind::ExpressionTooDeep { max_depth };
            return Err(Problem::at(token.offset, kind));
        }
        match token.kind {
            TokenKind::Op('-') => Ok(-self.parse_unary(depth + 1)?),
            TokenKind::Number(n) => Ok(n),
            TokenKind::Ident("pi") => Ok(PI),
            TokenKind::LParen => {
                let value = self.parse_expr(depth + 1)?;
                self.expect_kind(TokenKind::RParen, ")")?;
                Ok(value)
            }
            _ => Err(Problem::unexpected(token, "parameter expression")),
        }
    }

    /// Parses `reg` or `reg[i]`.
    fn argument(&mut self) -> Result<Operand, Problem> {
        let token = self.next().ok_or_else(|| self.eof())?;
        let TokenKind::Ident(name) = token.kind else {
            return Err(Problem::unexpected(token, "register name"));
        };
        let Some(&(_, offset, size)) = self.qregs.iter().find(|r| r.0 == name) else {
            let name = name.to_string();
            let kind = DiagnosticKind::UnknownRegister { name };
            return Err(Problem::at(token.offset, kind));
        };
        let index = match self.fast_literal(b'[', b']') {
            Some((value, at)) => index_value(value, at)?,
            None => {
                let Some(Token {
                    kind: TokenKind::LBracket,
                    ..
                }) = self.peek()
                else {
                    return Ok((offset, size));
                };
                self.next();
                let index = self.index()?;
                self.expect_kind(TokenKind::RBracket, "]")?;
                index
            }
        };
        if index >= size {
            let name = name.to_string();
            let kind = DiagnosticKind::IndexOutOfRange { name, index, size };
            return Err(Problem::at(token.offset, kind));
        }
        Ok((offset + index, 1))
    }
}

/// A register size or qubit index literal as a `usize`, if it denotes a
/// non-negative integer. Values beyond `usize` saturate; callers apply their
/// own range checks and limit diagnostics.
fn index_value(value: f64, offset: usize) -> Result<usize, Problem> {
    if value.is_finite() && value.fract() == 0.0 && value >= 0.0 {
        // `as` saturates at usize::MAX for values beyond the type.
        Ok(value as usize)
    } else {
        Err(Problem::at(
            offset,
            DiagnosticKind::NonIntegerLiteral { value },
        ))
    }
}

/// Appends gate `name` at broadcast position `i` of `operands`.
fn push_gate(
    gates: &mut Vec<Gate>,
    name: &str,
    params: &[f64],
    operands: &[Operand],
    i: usize,
) -> Result<(), DiagnosticKind> {
    let op = |idx: usize| match operands.get(idx) {
        Some(&(start, len)) => Ok(QubitId::new(start + i.min(len.saturating_sub(1)))),
        None => Err(DiagnosticKind::Unexpected {
            found: "end of operands".to_string(),
            expected: "qubit operand",
        }),
    };
    let p = |idx: usize| params.get(idx).copied().unwrap_or(0.0);
    let gate = match name {
        // Decompose Toffolis here so downstream schedulers only ever see
        // one- and two-qubit gates.
        "ccx" => {
            let (a, b, c) = (op(0)?, op(1)?, op(2)?);
            gates.extend(toffoli_decomposition(a, b, c));
            return Ok(());
        }
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
            return Err(DiagnosticKind::UnsupportedGate {
                name: other.to_string(),
            })
        }
    };
    gates.push(gate);
    Ok(())
}

/// Standard six-CNOT Toffoli decomposition (same network as
/// [`Circuit::ccx`](crate::Circuit::ccx)).
fn toffoli_decomposition(a: QubitId, b: QubitId, c: QubitId) -> [Gate; 15] {
    [
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

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

    fn first_kind(src: &str) -> DiagnosticKind {
        parse(src).unwrap_err().first().kind.clone()
    }

    #[test]
    fn parses_registers_and_gates() {
        let src =
            format!("{HEADER}qreg q[4];\ncreg c[4];\nh q[0];\ncx q[0],q[1];\ncx q[2],q[3];\n");
        let circuit = parse(&src).unwrap();
        assert_eq!(circuit.num_qubits(), 4);
        assert_eq!(circuit.two_qubit_gate_count(), 2);
        assert!(circuit.validate().is_ok());
    }

    #[test]
    fn flattens_multiple_registers() {
        let src = format!("{HEADER}qreg a[2];\nqreg b[3];\ncx a[1], b[0];\n");
        let circuit = parse(&src).unwrap();
        assert_eq!(circuit.num_qubits(), 5);
        let (x, y) = circuit.gates()[0].two_qubit_pair().unwrap();
        assert_eq!(x.index(), 1);
        assert_eq!(y.index(), 2);
    }

    #[test]
    fn parses_parameterised_gates() {
        let src = format!(
            "{HEADER}qreg q[2];\nrz(pi/2) q[0];\ncp(3*pi/4) q[0], q[1];\nu3(0.1,0.2,0.3) q[1];\n"
        );
        let circuit = parse(&src).unwrap();
        match &circuit.gates()[0] {
            Gate::Rz { theta, .. } => assert!((theta - PI / 2.0).abs() < 1e-12),
            g => panic!("expected rz, got {g:?}"),
        }
        match &circuit.gates()[1] {
            Gate::Cp { theta, .. } => assert!((theta - 3.0 * PI / 4.0).abs() < 1e-12),
            g => panic!("expected cp, got {g:?}"),
        }
    }

    #[test]
    fn parses_parenthesised_expressions() {
        let src = format!("{HEADER}qreg q[1];\nrz(-(pi/2 + 1)*2) q[0];\nrz(-pi) q[0];\n");
        let circuit = parse(&src).unwrap();
        match &circuit.gates()[0] {
            Gate::Rz { theta, .. } => assert!((theta - -(PI / 2.0 + 1.0) * 2.0).abs() < 1e-12),
            g => panic!("expected rz, got {g:?}"),
        }
        match &circuit.gates()[1] {
            Gate::Rz { theta, .. } => assert!((theta + PI).abs() < 1e-12),
            g => panic!("expected rz, got {g:?}"),
        }
    }

    #[test]
    fn measure_whole_register_expands() {
        let src = format!("{HEADER}qreg q[3];\ncreg c[3];\nmeasure q -> c;\n");
        let circuit = parse(&src).unwrap();
        assert_eq!(circuit.measurement_count(), 3);
    }

    #[test]
    fn broadcast_single_qubit_gate_over_register() {
        let src = format!("{HEADER}qreg q[4];\nh q;\n");
        let circuit = parse(&src).unwrap();
        assert_eq!(circuit.single_qubit_gate_count(), 4);
    }

    #[test]
    fn unknown_register_is_an_error() {
        let src = format!("{HEADER}qreg q[2];\nh r[0];\n");
        assert!(matches!(
            first_kind(&src),
            DiagnosticKind::UnknownRegister { .. }
        ));
    }

    #[test]
    fn out_of_range_index_is_an_error() {
        let src = format!("{HEADER}qreg q[2];\nh q[5];\n");
        let err = parse(&src).unwrap_err();
        assert!(matches!(
            err.first().kind,
            DiagnosticKind::IndexOutOfRange {
                index: 5,
                size: 2,
                ..
            }
        ));
        assert_eq!(err.first().line, 4);
    }

    #[test]
    fn unsupported_gate_is_an_error() {
        let src = format!("{HEADER}qreg q[3];\nccz q[0],q[1],q[2];\n");
        assert!(matches!(
            first_kind(&src),
            DiagnosticKind::UnsupportedGate { .. }
        ));
    }

    #[test]
    fn missing_register_is_an_error() {
        assert_eq!(first_kind(HEADER), DiagnosticKind::NoQuantumRegister);
    }

    #[test]
    fn gate_definitions_are_skipped() {
        let src = format!(
            "{HEADER}gate majority a,b,c {{ cx c,b; cx c,a; ccx a,b,c; }}\nqreg q[2];\ncx q[0],q[1];\n"
        );
        let circuit = parse(&src).unwrap();
        assert_eq!(circuit.two_qubit_gate_count(), 1);
    }

    #[test]
    fn barriers_are_preserved() {
        let src = format!("{HEADER}qreg q[3];\nbarrier q;\n");
        let circuit = parse(&src).unwrap();
        assert_eq!(circuit.len(), 1);
        assert!(circuit.gates()[0].is_barrier());
    }

    #[test]
    fn multiple_errors_are_all_reported() {
        let src = format!("{HEADER}qreg q[2];\nh r[0];\nfoo q[0];\nh q[9];\n");
        let err = parse(&src).unwrap_err();
        let kinds: Vec<&DiagnosticKind> = err.diagnostics().iter().map(|d| &d.kind).collect();
        assert_eq!(err.diagnostics().len(), 3, "{kinds:?}");
        assert!(matches!(kinds[0], DiagnosticKind::UnknownRegister { .. }));
        assert!(matches!(kinds[1], DiagnosticKind::UnsupportedGate { .. }));
        assert!(matches!(kinds[2], DiagnosticKind::IndexOutOfRange { .. }));
    }

    #[test]
    fn recovery_resumes_after_bad_statement() {
        // The bad statement must not eat the following good ones.
        let src = format!("{HEADER}qreg q[2];\nfoo q[0];\ncx q[0],q[1];\n");
        let err = parse(&src).unwrap_err();
        assert_eq!(err.diagnostics().len(), 1);
    }

    #[test]
    fn huge_register_is_rejected_without_allocation() {
        let src = format!("{HEADER}qreg q[999999999];\nh q[0];\n");
        let err = parse(&src).unwrap_err();
        assert!(matches!(
            err.first().kind,
            DiagnosticKind::RegisterTooWide {
                max_qubits: 4096,
                ..
            }
        ));
    }

    #[test]
    fn cumulative_register_width_is_bounded() {
        let mut src = String::from(HEADER);
        for i in 0..3 {
            src.push_str(&format!("qreg r{i}[2048];\n"));
        }
        let err = parse(&src).unwrap_err();
        assert!(err
            .diagnostics()
            .iter()
            .any(|d| matches!(d.kind, DiagnosticKind::RegisterTooWide { .. })));
    }

    #[test]
    fn absurd_register_width_does_not_overflow() {
        let src = format!("{HEADER}qreg q[1e300];\n");
        let err = parse(&src).unwrap_err();
        assert!(matches!(
            err.first().kind,
            DiagnosticKind::RegisterTooWide { .. }
        ));
    }

    #[test]
    fn non_integer_register_size_is_an_error() {
        let src = format!("{HEADER}qreg q[2.5];\n");
        assert!(matches!(
            first_kind(&src),
            DiagnosticKind::NonIntegerLiteral { .. }
        ));
    }

    #[test]
    fn overflowing_literal_parameter_is_an_error() {
        let src = format!("{HEADER}qreg q[1];\nrz(1e309) q[0];\n");
        assert!(matches!(
            first_kind(&src),
            DiagnosticKind::MalformedNumber { .. }
        ));
    }

    #[test]
    fn non_finite_parameter_expression_is_an_error() {
        for expr in ["1/0", "0/0", "-1/0"] {
            let src = format!("{HEADER}qreg q[1];\nrz({expr}) q[0];\n");
            let err = parse(&src).unwrap_err();
            assert!(
                matches!(err.first().kind, DiagnosticKind::NonFiniteParameter { .. }),
                "{expr}: {err}"
            );
        }
    }

    #[test]
    fn zero_size_register_is_an_error() {
        let src = format!("{HEADER}qreg q[0];\nqreg r[1];\ncx q, r[0];\n");
        let err = parse(&src).unwrap_err();
        assert!(err
            .diagnostics()
            .iter()
            .any(|d| matches!(d.kind, DiagnosticKind::EmptyRegister { .. })));
    }

    #[test]
    fn duplicate_register_is_an_error() {
        let src = format!("{HEADER}qreg q[2];\nqreg q[3];\nh q[0];\n");
        let err = parse(&src).unwrap_err();
        assert!(err
            .diagnostics()
            .iter()
            .any(|d| matches!(d.kind, DiagnosticKind::DuplicateRegister { .. })));
    }

    #[test]
    fn deep_expression_nesting_is_rejected() {
        let depth = 10_000;
        let expr = format!("{}pi{}", "(".repeat(depth), ")".repeat(depth));
        let src = format!("{HEADER}qreg q[1];\nrz({expr}) q[0];\n");
        let err = parse(&src).unwrap_err();
        assert!(err
            .diagnostics()
            .iter()
            .any(|d| matches!(d.kind, DiagnosticKind::ExpressionTooDeep { .. })));
    }

    #[test]
    fn deep_unary_minus_chain_is_rejected() {
        let src = format!("{HEADER}qreg q[1];\nrz({}1) q[0];\n", "-".repeat(10_000));
        let err = parse(&src).unwrap_err();
        assert!(err
            .diagnostics()
            .iter()
            .any(|d| matches!(d.kind, DiagnosticKind::ExpressionTooDeep { .. })));
    }

    #[test]
    fn gate_count_limit_aborts_parsing() {
        let limits = ParseLimits {
            max_gates: 10,
            ..ParseLimits::default()
        };
        let mut src = format!("{HEADER}qreg q[2];\n");
        for _ in 0..50 {
            src.push_str("h q[0];\n");
        }
        let err = parse_with_limits(&src, &limits).unwrap_err();
        assert!(err
            .diagnostics()
            .iter()
            .any(|d| matches!(d.kind, DiagnosticKind::TooManyGates { max_gates: 10 })));
    }

    #[test]
    fn diagnostics_carry_position_and_snippet() {
        let src = format!("{HEADER}qreg q[2];\nh r[0];\n");
        let err = parse(&src).unwrap_err();
        let diag = err.first();
        assert_eq!(diag.line, 4);
        assert_eq!(diag.col, 3);
        assert_eq!(diag.snippet, "h r[0];");
        let rendered = err.to_string();
        assert!(rendered.contains("line 4, col 3"), "{rendered}");
        assert!(rendered.contains("h r[0];"), "{rendered}");
    }

    #[test]
    fn truncated_source_reports_eof() {
        let src = format!("{HEADER}qreg q[2];\ncx q[0],");
        let err = parse(&src).unwrap_err();
        assert!(err
            .diagnostics()
            .iter()
            .any(|d| d.kind == DiagnosticKind::UnexpectedEof));
    }

    #[test]
    fn lexer_diagnostics_surface_through_parse() {
        let src = format!("{HEADER}qreg q[2];\nh q[0]; @\n");
        let err = parse(&src).unwrap_err();
        assert!(err
            .diagnostics()
            .iter()
            .any(|d| matches!(d.kind, DiagnosticKind::InvalidCharacter { ch: '@' })));
    }

    #[test]
    fn diagnostic_count_is_capped() {
        let limits = ParseLimits {
            max_diagnostics: 8,
            ..ParseLimits::default()
        };
        let mut src = format!("{HEADER}qreg q[2];\n");
        for _ in 0..100 {
            src.push_str("h r[0];\n");
        }
        let err = parse_with_limits(&src, &limits).unwrap_err();
        assert_eq!(err.diagnostics().len(), 8);
    }

    #[test]
    fn parse_never_panics_on_weird_but_valid_recovery_paths() {
        for src in [
            "",
            ";",
            "qreg",
            "qreg q",
            "qreg q[",
            "qreg q[2",
            "qreg q[2]",
            "[ ] ( ) { }",
            "measure",
            "barrier",
            "OPENQASM 2.0; qreg q[1]; h q[0]",
            "qreg q[1]; rz() q[0];",
            "qreg q[1]; rz(pi +) q[0];",
        ] {
            let _ = parse(src);
        }
    }

    #[test]
    fn lexer_diagnostics_respect_the_diagnostic_cap() {
        let limits = ParseLimits {
            max_diagnostics: 8,
            ..ParseLimits::default()
        };
        let src = format!("{HEADER}qreg q[2];\n{}", "@\n".repeat(20));
        let err = parse_with_limits(&src, &limits).unwrap_err();
        assert_eq!(err.diagnostics().len(), 8);
        let lines: Vec<usize> = err.diagnostics().iter().map(|d| d.line).collect();
        assert_eq!(lines, (4..12).collect::<Vec<_>>());
    }

    #[test]
    fn capped_diagnostics_are_the_first_in_source_order() {
        let mut src = String::from("OPENQASM 2.0;\nqreg q[2];\n");
        for _ in 0..100 {
            src.push_str("h r[0];\n");
        }
        src.push_str("@\n");
        let err = parse(&src).unwrap_err();
        let lines: Vec<usize> = err.diagnostics().iter().map(|d| d.line).collect();
        assert_eq!(lines, (3..67).collect::<Vec<_>>());
        assert!(err
            .diagnostics()
            .iter()
            .all(|d| matches!(d.kind, DiagnosticKind::UnknownRegister { .. })));
    }

    #[test]
    fn statement_level_problems_sort_before_lexical_ones_inside_them() {
        let src = format!("{HEADER}qreg q[1];\nfoo(1.2.3) q[0];\n");
        let err = parse(&src).unwrap_err();
        let kinds: Vec<&DiagnosticKind> = err.diagnostics().iter().map(|d| &d.kind).collect();
        assert!(
            matches!(kinds[0], DiagnosticKind::UnsupportedGate { .. }),
            "{err}"
        );
        assert!(
            matches!(kinds[1], DiagnosticKind::MalformedNumber { .. }),
            "{err}"
        );
        let limits = ParseLimits {
            max_diagnostics: 1,
            ..ParseLimits::default()
        };
        let src = format!("{HEADER}qreg q[1];\nfoo(@) q[0];\n");
        let err = parse_with_limits(&src, &limits).unwrap_err();
        assert!(
            matches!(err.first().kind, DiagnosticKind::UnsupportedGate { .. }),
            "{err}"
        );
    }

    #[test]
    fn zero_diagnostic_cap_still_reports_one_problem() {
        let limits = ParseLimits {
            max_diagnostics: 0,
            ..ParseLimits::default()
        };
        let err = parse_with_limits("h q[0];", &limits).unwrap_err();
        assert_eq!(err.diagnostics().len(), 1);
    }

    #[test]
    fn qreg_diagnostics_cite_the_keyword_line_and_the_name_column() {
        let err = parse("qreg\n   q[0];\n").unwrap_err();
        let diag = err.first();
        assert_eq!(
            diag.kind,
            DiagnosticKind::EmptyRegister { name: "q".into() }
        );
        assert_eq!((diag.line, diag.col, diag.snippet.as_str()), (1, 4, "qreg"));
    }

    #[test]
    fn positions_count_characters_not_bytes() {
        let err = parse("qreg q[1];\n// é\n\u{e9}\u{e9} h r[0];\n").unwrap_err();
        let cited: Vec<(usize, usize)> =
            err.diagnostics().iter().map(|d| (d.line, d.col)).collect();
        assert_eq!(cited, [(3, 1), (3, 2), (3, 6)]);
        assert_eq!(err.first().snippet, "\u{e9}\u{e9} h r[0];");
    }
}
