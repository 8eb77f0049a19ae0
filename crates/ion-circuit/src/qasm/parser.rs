//! Single-pass parser for the OpenQASM 2.0 subset.
//!
//! At each statement boundary the parser first tries the statement fast path
//! (`Parser::fast_statement`): one byte pass over a built-in gate call or a
//! `measure`, through a read-only [`Cursor`]. It accepts only what the token
//! path would parse without a problem into the same gates, and otherwise
//! consumes nothing. The token path is the recursive-descent parser over
//! tokens pulled from the byte [`Scanner`] one at a time. It parses the whole
//! grammar and reports every problem. Both paths dispatch on one table of
//! statement words (`Word`) and append gates through one function.
//!
//! The parser is hardened against untrusted input: it recovers at statement
//! boundaries and reports the first [`ParseLimits::max_diagnostics`] problems
//! in source order instead of stopping at the first, every diagnostic carries
//! a line/column span plus a source excerpt, and explicit resource limits
//! bound register width, gate count and expression nesting so adversarial
//! input (`qreg q[999999999];`, kilobyte-deep parentheses) is rejected with
//! an error instead of exhausting memory or the stack.

// lint: no-panic
// lint: hot-path

use std::error::Error;
use std::f64::consts::PI;
use std::fmt;

use crate::{Circuit, Gate, QubitId};

use super::lexer::{Cursor, Scanner, Token, TokenKind};

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
    /// Two arguments of one gate name the same qubit (`cx q[3],q[3];`, or a
    /// qubit together with its whole register). OpenQASM 2 requires a gate's
    /// qubit arguments to be distinct.
    RepeatedOperand,
    /// A gate call with more or fewer qubit arguments than the gate acts on
    /// (`h q[0], q[1];`, `cx q[0];`).
    OperandCount {
        /// Gate name as written.
        name: String,
        /// Qubit arguments the gate takes.
        expected: usize,
        /// Qubit arguments the call gives.
        found: usize,
    },
    /// A gate call with more or fewer parameters than the gate takes
    /// (`rz q[0];`, `h(1) q[0];`).
    ParameterCount {
        /// Gate name as written.
        name: String,
        /// Parameters the gate takes.
        expected: usize,
        /// Parameters the call gives.
        found: usize,
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
            DiagnosticKind::RepeatedOperand => {
                write!(f, "gate arguments must be distinct qubits")
            }
            DiagnosticKind::OperandCount {
                name,
                expected,
                found,
            } => write!(
                f,
                "gate '{name}' takes {expected} qubit argument(s), found {found}"
            ),
            DiagnosticKind::ParameterCount {
                name,
                expected,
                found,
            } => write!(
                f,
                "gate '{name}' takes {expected} parameter(s), found {found}"
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
/// declaration order. Classical registers are recorded only to check each
/// `measure` target, and custom `gate` definitions are skipped (custom gate
/// *bodies* are ignored; *calls* to unknown gates are an error so silent
/// mis-parses cannot occur). A gate call must give exactly the gate's
/// number of qubit arguments and of parameters. An `if (c==n)` condition is
/// dropped, but the statement it guards is kept: the condition is only known
/// at run time, and routing must serve the gate either way.
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

/// A declared register: name, offset of its first qubit in the flattened
/// quantum register (0 for a classical register) and size.
type Register<'s> = (&'s str, usize, usize);

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
    qregs: Vec<Register<'s>>,
    /// Checked as `measure` targets only.
    cregs: Vec<Register<'s>>,
    total_qubits: usize,
    gates: Vec<Gate>,
    params: Vec<f64>,
    operands: Vec<Operand>,
    /// Statements the token path parsed (the fast path took the rest).
    #[cfg(test)]
    token_statements: usize,
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
            cregs: Vec::new(), // lint: allow (one per parse)
            total_qubits: 0,
            gates: Vec::new(),    // lint: allow (the parsed circuit's gate list)
            params: Vec::new(),   // lint: allow (reused across statements)
            operands: Vec::new(), // lint: allow (reused across statements)
            #[cfg(test)]
            token_statements: 0,
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
        loop {
            if self.problems.capped() {
                return None;
            }
            let at = match self.fast_statement() {
                Some(at) => at,
                None => {
                    let Some(token) = self.peek() else {
                        break;
                    };
                    // Peeking may have reported problems before the token.
                    if self.problems.capped() {
                        return None;
                    }
                    #[cfg(test)]
                    {
                        self.token_statements += 1;
                    }
                    if let Err(problem) = self.statement(token) {
                        self.problems.push(problem);
                        // Resynchronise at the next statement boundary,
                        // unless the error was at the boundary itself.
                        if !self.after_semicolon {
                            self.skip_to_semicolon();
                        }
                    }
                    token.offset
                }
            };
            if self.gates.len() > self.limits.max_gates {
                let max_gates = self.limits.max_gates;
                self.problems
                    .report(at, DiagnosticKind::TooManyGates { max_gates });
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

    /// The statement fast path: one gate call `name[(p, …)] reg[i], …;` or
    /// `measure reg[i] -> creg[j];` read straight from the bytes, where a
    /// parameter is `[-]atom[(*|/)atom]` and an atom a literal or `pi`.
    /// Returns the statement's offset. It accepts only statements the token
    /// path would parse without a problem into the same gates; on any doubt
    /// it returns `None` having consumed nothing, and the token path parses
    /// the statement (and reports whatever is wrong with it).
    fn fast_statement(&mut self) -> Option<usize> {
        if self.lookahead.is_some() {
            return None;
        }
        let mut cur = self.scanner.cursor();
        cur.skip_space(true);
        let at = cur.pos();
        match Word::of(cur.ident()?) {
            Word::Gate(Some(kind)) => self.fast_gate(&mut cur, kind)?,
            Word::Measure => self.fast_measure(&mut cur)?,
            _ => return None,
        }
        // The statement's last byte is its `;`.
        self.scanner.advance_to(&cur, cur.pos() - 1);
        self.after_semicolon = true;
        Some(at)
    }

    /// The rest of a fast-path gate call, after its name.
    #[inline(always)]
    fn fast_gate(&mut self, cur: &mut Cursor<'s>, kind: GateKind) -> Option<()> {
        self.params.clear();
        if cur.eat(b"(") {
            // A negated atom is two levels deep in the expression parser.
            if self.limits.max_expr_depth < 2 {
                return None;
            }
            loop {
                self.params.push(fast_param(cur)?);
                match cur.next_byte()? {
                    b',' => {}
                    b')' => break,
                    _ => return None,
                }
            }
        }
        self.operands.clear();
        loop {
            let operand = fast_operand(&self.qregs, cur)?;
            self.operands.push(operand);
            match cur.next_byte()? {
                b',' => {}
                b';' => break,
                _ => return None,
            }
        }
        if self.operands.len() != kind.arity()
            || self.params.len() != kind.params()
            || repeats(&self.operands)
        {
            return None;
        }
        push_gates(&mut self.gates, kind, &self.params, &self.operands);
        Some(())
    }

    /// The rest of a fast-path `measure`, after the keyword.
    #[inline(always)]
    fn fast_measure(&mut self, cur: &mut Cursor<'s>) -> Option<()> {
        let (start, len) = fast_operand(&self.qregs, cur)?;
        if !cur.eat(b"->") {
            return None;
        }
        fast_operand(&self.cregs, cur)?;
        if !cur.eat(b";") {
            return None;
        }
        let measures = (start..start + len).map(|q| Gate::Measure(QubitId::new(q)));
        self.gates.extend(measures);
        Some(())
    }

    fn statement(&mut self, mut token: Token<'s>) -> Result<(), Problem> {
        loop {
            let TokenKind::Ident(word) = token.kind else {
                self.next();
                return match token.kind {
                    TokenKind::Semicolon => Ok(()),
                    _ => Err(Problem::unexpected(token, "statement")),
                };
            };
            match Word::of(word) {
                Word::Skipped => self.skip_to_semicolon(),
                Word::Definition => self.skip_block_or_statement(),
                Word::If => {
                    // The condition is only known at run time, so the
                    // statement it guards is kept: routing must serve its
                    // gates either way.
                    self.next();
                    self.condition()?;
                    token = self.peek().ok_or_else(|| self.eof())?;
                    continue;
                }
                Word::Qreg => {
                    self.next();
                    return self.qreg(token.offset);
                }
                Word::Creg => {
                    self.next();
                    return self.creg(token.offset);
                }
                Word::Measure => {
                    self.next();
                    let (start, len) = self.argument()?;
                    self.expect_kind(TokenKind::Arrow, "->")?;
                    self.register_operand(true)?;
                    self.expect_kind(TokenKind::Semicolon, ";")?;
                    let measures = (start..start + len).map(|q| Gate::Measure(QubitId::new(q)));
                    self.gates.extend(measures);
                }
                Word::Barrier => {
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
                Word::Gate(kind) => {
                    self.next();
                    return self.gate(kind, word, token.offset);
                }
            }
            return Ok(());
        }
    }

    /// `( creg == n )` after `if`.
    fn condition(&mut self) -> Result<(), Problem> {
        self.expect_kind(TokenKind::LParen, "(")?;
        let token = self.next().ok_or_else(|| self.eof())?;
        if !matches!(token.kind, TokenKind::Ident(_)) {
            return Err(Problem::unexpected(token, "identifier"));
        }
        self.expect_kind(TokenKind::EqEq, "==")?;
        self.index()?;
        self.expect_kind(TokenKind::RParen, ")")
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

    /// `name[size];` after `qreg` or `creg`: the name, its offset and the
    /// size.
    fn declaration(&mut self) -> Result<(&'s str, usize, usize), Problem> {
        let token = self.next().ok_or_else(|| self.eof())?;
        let TokenKind::Ident(name) = token.kind else {
            return Err(Problem::unexpected(token, "identifier"));
        };
        self.expect_kind(TokenKind::LBracket, "[")?;
        let size = self.index()?;
        self.expect_kind(TokenKind::RBracket, "]")?;
        self.expect_kind(TokenKind::Semicolon, ";")?;
        Ok((name, token.offset, size))
    }

    /// A classical register declaration, after `creg`.
    fn creg(&mut self, keyword: usize) -> Result<(), Problem> {
        let (name, at, size) = self.declaration()?;
        if self.cregs.iter().any(|r| r.0 == name) {
            return Err(Problem {
                span: Some((keyword, at)),
                kind: DiagnosticKind::DuplicateRegister {
                    name: name.to_string(),
                },
            });
        }
        self.cregs.push((name, 0, size));
        Ok(())
    }

    fn qreg(&mut self, keyword: usize) -> Result<(), Problem> {
        let (name, at, size) = self.declaration()?;
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
            span: Some((keyword, at)),
            kind,
        })
    }

    /// A gate call after its name: `kind` is `None` for a name this subset
    /// does not support, reported once the operands parse.
    fn gate(&mut self, kind: Option<GateKind>, name: &str, at: usize) -> Result<(), Problem> {
        self.params.clear();
        if let Some(Token {
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
        if repeats(&self.operands) {
            return Err(Problem::at(at, DiagnosticKind::RepeatedOperand));
        }
        let Some(kind) = kind else {
            let name = name.to_string();
            return Err(Problem::at(at, DiagnosticKind::UnsupportedGate { name }));
        };
        let (expected, found) = (kind.arity(), self.operands.len());
        if found != expected {
            let name = name.to_string();
            let kind = DiagnosticKind::OperandCount {
                name,
                expected,
                found,
            };
            return Err(Problem::at(at, kind));
        }
        let (expected, found) = (kind.params(), self.params.len());
        if found != expected {
            let name = name.to_string();
            let kind = DiagnosticKind::ParameterCount {
                name,
                expected,
                found,
            };
            return Err(Problem::at(at, kind));
        }
        push_gates(&mut self.gates, kind, &self.params, &self.operands);
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

    /// Parses `reg` or `reg[i]` of a declared quantum register.
    fn argument(&mut self) -> Result<Operand, Problem> {
        self.register_operand(false)
    }

    /// Parses `reg` or `reg[i]` of a declared quantum register, or of a
    /// declared classical one if `classical`.
    fn register_operand(&mut self, classical: bool) -> Result<Operand, Problem> {
        let token = self.next().ok_or_else(|| self.eof())?;
        let TokenKind::Ident(name) = token.kind else {
            return Err(Problem::unexpected(token, "register name"));
        };
        let registers = if classical { &self.cregs } else { &self.qregs };
        let Some(&(_, offset, size)) = registers.iter().find(|r| r.0 == name) else {
            let name = name.to_string();
            let kind = DiagnosticKind::UnknownRegister { name };
            return Err(Problem::at(token.offset, kind));
        };
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

/// A fast-path operand `reg` or `reg[i]` of a register in `registers`, with
/// the index in range.
#[inline(always)]
fn fast_operand(registers: &[Register<'_>], cur: &mut Cursor<'_>) -> Option<Operand> {
    let name = cur.ident()?;
    let &(_, offset, size) = registers.iter().find(|r| r.0 == name)?;
    if !cur.eat(b"[") {
        return Some((offset, size));
    }
    let index = cur.digits()?;
    (cur.eat(b"]") && index < size).then_some((offset + index, 1))
}

/// One parameter of the fast path, `[-]atom[(*|/)atom]`, computed by the
/// operations the token path applies, in its order (`(-a) / b`). `None`
/// for anything longer or a non-finite value.
#[inline(always)]
fn fast_param(cur: &mut Cursor<'_>) -> Option<f64> {
    let negative = cur.eat(b"-");
    let mut value = fast_atom(cur)?;
    if negative {
        value = -value;
    }
    if cur.eat(b"*") {
        value *= fast_atom(cur)?;
    } else if cur.eat(b"/") {
        value /= fast_atom(cur)?;
    }
    value.is_finite().then_some(value)
}

/// A literal or `pi`.
#[inline(always)]
fn fast_atom(cur: &mut Cursor<'_>) -> Option<f64> {
    let mut word = *cur;
    if word.ident() == Some("pi") {
        *cur = word;
        return Some(PI);
    }
    cur.literal()
}

/// Whether two operands name a common qubit at some broadcast position.
/// OpenQASM 2 requires a gate's qubit arguments to be distinct. Registers
/// are disjoint ranges, so two operands share a qubit exactly when their
/// ranges intersect.
fn repeats(ops: &[Operand]) -> bool {
    (1..ops.len()).any(|j| {
        let (start, len) = ops[j];
        ops[..j]
            .iter()
            .any(|&(s, l)| s < start + len && start < s + l)
    })
}

/// A gate this subset supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GateKind {
    Ccx,
    H,
    X,
    Y,
    Z,
    S,
    Sdg,
    T,
    Tdg,
    Id,
    Rx,
    Ry,
    Rz,
    U2,
    U3,
    Cx,
    Cz,
    Cp,
    Rzz,
    Swap,
    Ms,
    /// `rxx(θ)`, parsed as the native MS gate (the angle is dropped).
    Rxx,
}

impl GateKind {
    /// Qubit operands the gate reads.
    fn arity(self) -> usize {
        match self {
            GateKind::Ccx => 3,
            GateKind::Cx
            | GateKind::Cz
            | GateKind::Cp
            | GateKind::Rzz
            | GateKind::Swap
            | GateKind::Ms
            | GateKind::Rxx => 2,
            _ => 1,
        }
    }

    /// Parameters the gate takes.
    fn params(self) -> usize {
        match self {
            GateKind::U3 => 3,
            GateKind::U2 => 2,
            GateKind::Rx
            | GateKind::Ry
            | GateKind::Rz
            | GateKind::Cp
            | GateKind::Rzz
            | GateKind::Rxx => 1,
            _ => 0,
        }
    }
}

/// What a statement's first word names: the one table of keywords and gate
/// names, resolved once per statement by both paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Word {
    /// `OPENQASM`, `include`: skipped through their `;`.
    Skipped,
    /// `gate`, `opaque`: definitions, skipped with their body.
    Definition,
    /// `if`: a condition on the statement that follows.
    If,
    Qreg,
    Creg,
    Measure,
    Barrier,
    /// A gate call; `None` for a name this subset does not support.
    Gate(Option<GateKind>),
}

impl Word {
    fn of(word: &str) -> Word {
        let gate = match word {
            "OPENQASM" | "include" => return Word::Skipped,
            "creg" => return Word::Creg,
            "gate" | "opaque" => return Word::Definition,
            "if" => return Word::If,
            "qreg" => return Word::Qreg,
            "measure" => return Word::Measure,
            "barrier" => return Word::Barrier,
            "ccx" => GateKind::Ccx,
            "h" => GateKind::H,
            "x" => GateKind::X,
            "y" => GateKind::Y,
            "z" => GateKind::Z,
            "s" => GateKind::S,
            "sdg" => GateKind::Sdg,
            "t" => GateKind::T,
            "tdg" => GateKind::Tdg,
            "id" => GateKind::Id,
            "rx" => GateKind::Rx,
            "ry" => GateKind::Ry,
            "rz" | "u1" | "p" => GateKind::Rz,
            "u2" => GateKind::U2,
            "u3" | "u" => GateKind::U3,
            "cx" | "CX" => GateKind::Cx,
            "cz" => GateKind::Cz,
            "cp" | "cu1" => GateKind::Cp,
            "rzz" => GateKind::Rzz,
            "swap" => GateKind::Swap,
            "ms" => GateKind::Ms,
            "rxx" => GateKind::Rxx,
            _ => return Word::Gate(None),
        };
        Word::Gate(Some(gate))
    }
}

/// Appends gate `kind` over `operands` and `params`, which hold exactly
/// [`GateKind::arity`] operands and [`GateKind::params`] values, broadcast
/// over whole-register operands (single-qubit operands are repeated).
/// Registers are never empty, so every operand has at least one qubit.
fn push_gates(gates: &mut Vec<Gate>, kind: GateKind, params: &[f64], operands: &[Operand]) {
    let p = |idx: usize| params.get(idx).copied().unwrap_or(0.0);
    let broadcast = operands.iter().map(|o| o.1).max().unwrap_or(1);
    for i in 0..broadcast {
        let op = |idx: usize| {
            let (start, len) = operands.get(idx).copied().unwrap_or_default();
            QubitId::new(start + i.min(len.saturating_sub(1)))
        };
        let gate = match kind {
            // Decompose Toffolis here so downstream schedulers only ever see
            // one- and two-qubit gates.
            GateKind::Ccx => {
                gates.extend(toffoli_decomposition(op(0), op(1), op(2)));
                continue;
            }
            GateKind::H => Gate::H(op(0)),
            GateKind::X => Gate::X(op(0)),
            GateKind::Y => Gate::Y(op(0)),
            GateKind::Z => Gate::Z(op(0)),
            GateKind::S => Gate::S(op(0)),
            GateKind::Sdg => Gate::Sdg(op(0)),
            GateKind::T => Gate::T(op(0)),
            GateKind::Tdg => Gate::Tdg(op(0)),
            GateKind::Id => Gate::Rz {
                qubit: op(0),
                theta: 0.0,
            },
            GateKind::Rx => Gate::Rx {
                qubit: op(0),
                theta: p(0),
            },
            GateKind::Ry => Gate::Ry {
                qubit: op(0),
                theta: p(0),
            },
            GateKind::Rz => Gate::Rz {
                qubit: op(0),
                theta: p(0),
            },
            GateKind::U2 => Gate::U {
                qubit: op(0),
                theta: PI / 2.0,
                phi: p(0),
                lambda: p(1),
            },
            GateKind::U3 => Gate::U {
                qubit: op(0),
                theta: p(0),
                phi: p(1),
                lambda: p(2),
            },
            GateKind::Cx => Gate::Cx(op(0), op(1)),
            GateKind::Cz => Gate::Cz(op(0), op(1)),
            GateKind::Cp => Gate::Cp {
                control: op(0),
                target: op(1),
                theta: p(0),
            },
            GateKind::Rzz => Gate::Rzz {
                a: op(0),
                b: op(1),
                theta: p(0),
            },
            GateKind::Swap => Gate::Swap(op(0), op(1)),
            GateKind::Ms | GateKind::Rxx => Gate::Ms(op(0), op(1)),
        };
        gates.push(gate);
    }
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
    fn rejects_repeated_gate_operands() {
        for body in [
            "cx q[3],q[3];",
            "swap q[1], q[1];",
            "ccx q[0],q[1],q[0];",
            "cx q[2], q;",
            "cx q, q;",
            "rzz(0.5) q[0], q[0];",
        ] {
            let src = format!("{HEADER}qreg q[4];\nqreg r[4];\n{body}\n");
            let err = parse(&src).unwrap_err();
            let first = err.first();
            assert_eq!(first.kind, DiagnosticKind::RepeatedOperand, "{body}");
            assert_eq!((first.line, first.col), (5, 1), "{body}");
        }
        // Distinct qubits, including a qubit broadcast against another
        // register, stay accepted.
        let src = format!("{HEADER}qreg q[4];\nqreg r[4];\ncx q[2], r;\ncx q, r;\n");
        assert_eq!(parse(&src).unwrap().two_qubit_gate_count(), 8);
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

    /// Parses `source` and counts the statements the token path parsed.
    fn token_statements(source: &str, limits: &ParseLimits) -> (Option<Circuit>, usize) {
        let mut parser = Parser::new(source, limits);
        let circuit = parser.run();
        (circuit, parser.token_statements)
    }

    #[test]
    fn canonical_text_takes_the_fast_path() {
        use crate::generators::{self, BenchmarkScale};
        let mut circuits: Vec<Circuit> = [
            BenchmarkScale::Small,
            BenchmarkScale::Medium,
            BenchmarkScale::Large,
        ]
        .into_iter()
        .flat_map(BenchmarkScale::apps)
        .map(|app| app.circuit())
        .collect();
        circuits.push(generators::random_circuit(1024, 8192, 25));
        circuits.push(generators::qft(192));
        for circuit in circuits {
            let source = crate::qasm::to_qasm(&circuit);
            let (parsed, slow) = token_statements(&source, &ParseLimits::default());
            let parsed = parsed.unwrap_or_else(|| panic!("{} parses", circuit.name()));
            // `OPENQASM`, `include`, `qreg` and `creg`.
            assert_eq!(slow, 4, "{}", circuit.name());
            assert_eq!(
                format!("{:?}", parsed.gates()),
                format!("{:?}", circuit.gates()),
                "{}",
                circuit.name()
            );
        }
    }

    #[test]
    fn the_fast_path_leaves_every_doubt_to_the_token_path() {
        let limits = ParseLimits::default();
        let fast = [
            "h q[0];",
            "cx q[0],q[1];",
            "CX q[0] ,\n\tq[1] ;",
            "rz(-pi/2) q[0];",
            "rz(2*pi) q[0];",
            "u3(0.5, -1e-3, pi*2) q[0];",
            "rz(1e-400) q[0];",
            "rz(.5) q[0];",
            "rz(5.) q[0];",
            "h q[007];",
            "h q[ 3 ];",
            "h q;",
            "cx q[0], r;",
            "measure q[1] -> c[1];",
            "measure q->c;",
        ];
        let slow = [
            "cx q[0], // why\n q[1];",
            "rz(--pi) q[0];",
            "rz(-(pi)) q[0];",
            "rz(pi/0) q[0];",
            "rz(1e309) q[0];",
            "rz(1.2.3) q[0];",
            "rz(pi+1) q[0];",
            "rz() q[0];",
            "h q[3.0];",
            "h q[1e1];",
            "h q[18446744073709551616];",
            "h q[8];",
            "h s[0];",
            "cx q[1], q[1];",
            "cx q, q[2];",
            "cx q[0];",
            "h q[0], q[1];",
            "rz q[0];",
            "h(1) q[0];",
            "u2(0.5) q[0];",
            "rxx q[0],q[1];",
            "foo q[0];",
            "barrier q;",
            "if (c==1) x q[0];",
            "measure q[0] -> c[1.5];",
            "measure q[0] -> c[0]",
            "measure q[0] -> d[0];",
            "measure q[0] -> c[8];",
            "measure q[0] -> q[0];",
            "h q[0]",
        ];
        for (statements, expected) in [(&fast[..], 5), (&slow[..], 6)] {
            for statement in statements {
                let source = format!("{HEADER}qreg q[8];\nqreg r[8];\ncreg c[8];\n{statement}\n");
                let (_, count) = token_statements(&source, &limits);
                assert_eq!(count, expected, "{statement}");
            }
        }
        // A negated atom is two levels deep: shallower limits leave every
        // parameter to the token path.
        for max_expr_depth in [0, 1] {
            let limits = ParseLimits {
                max_expr_depth,
                ..ParseLimits::default()
            };
            let source = format!("{HEADER}qreg q[1];\nrz(0.5) q[0];\nh q[0];\n");
            assert_eq!(token_statements(&source, &limits).1, 4);
        }
    }

    #[test]
    fn gate_limit_crossed_inside_a_fast_statement_cites_it() {
        let limits = ParseLimits {
            max_gates: 5,
            ..ParseLimits::default()
        };
        let src = format!("{HEADER}qreg q[4];\nh q;\n  h q;\nh q[0];\n");
        let err = parse_with_limits(&src, &limits).unwrap_err();
        let last = err.diagnostics().last().unwrap();
        assert_eq!(last.kind, DiagnosticKind::TooManyGates { max_gates: 5 });
        assert_eq!((last.line, last.col), (5, 3));
    }

    #[test]
    fn conditioned_statements_keep_their_gates() {
        let src = format!(
            "{HEADER}qreg q[2];\ncreg c[2];\nif (c==1) x q[0];\nif(c==0) cx q[0],q[1];\n\
             if (c == 3) if (c == 2) measure q[1] -> c[1];\nif (c==1) ;\n"
        );
        let circuit = parse(&src).unwrap();
        assert_eq!(
            circuit.gates(),
            [
                Gate::X(QubitId::new(0)),
                Gate::Cx(QubitId::new(0), QubitId::new(1)),
                Gate::Measure(QubitId::new(1)),
            ]
        );
        for (body, kind) in [
            (
                "if (c=1) x q[0];",
                DiagnosticKind::InvalidCharacter { ch: '=' },
            ),
            (
                "if (c==1.5) x q[0];",
                DiagnosticKind::NonIntegerLiteral { value: 1.5 },
            ),
            (
                "if c==1 x q[0];",
                DiagnosticKind::Unexpected {
                    found: "c".into(),
                    expected: "(",
                },
            ),
            (
                "if (c==1) foo q[0];",
                DiagnosticKind::UnsupportedGate { name: "foo".into() },
            ),
            ("if (c==1)", DiagnosticKind::UnexpectedEof),
        ] {
            let src = format!("{HEADER}qreg q[2];\ncreg c[2];\n{body}");
            assert_eq!(first_kind(&src), kind, "{body}");
        }
    }

    #[test]
    fn gate_calls_must_give_the_gates_operand_and_parameter_counts() {
        let operands = |name: &str, expected, found| DiagnosticKind::OperandCount {
            name: name.into(),
            expected,
            found,
        };
        let params = |name: &str, expected, found| DiagnosticKind::ParameterCount {
            name: name.into(),
            expected,
            found,
        };
        for (body, kind) in [
            ("h q[0], q[1];", operands("h", 1, 2)),
            ("cx q[0], q[1], q[2];", operands("cx", 2, 3)),
            ("cx q[0];", operands("cx", 2, 1)),
            ("ccx q[0], q[1];", operands("ccx", 3, 2)),
            ("h(1,2) q[0];", params("h", 0, 2)),
            ("rz q[0];", params("rz", 1, 0)),
            ("u1 q[0];", params("u1", 1, 0)),
            ("u2(1) q[0];", params("u2", 2, 1)),
            ("u3(1,2) q[0];", params("u3", 3, 2)),
            ("cp(1,2) q[0], q[1];", params("cp", 1, 2)),
            ("rxx q[0], q[1];", params("rxx", 1, 0)),
            ("ms(1) q[0], q[1];", params("ms", 0, 1)),
        ] {
            let src = format!("{HEADER}qreg q[3];\n{body}\n");
            let err = parse(&src).unwrap_err();
            assert_eq!(err.diagnostics().len(), 1, "{body}");
            assert_eq!(err.first().kind, kind, "{body}");
            assert_eq!((err.first().line, err.first().col), (4, 1), "{body}");
        }
        // Every count matches: one gate each.
        let src = format!(
            "{HEADER}qreg q[3];\nh() q[0];\nu2(1,2) q[0];\nrxx(pi) q[0],q[1];\nms q[1],q[2];\n"
        );
        assert_eq!(parse(&src).unwrap().len(), 4);
    }

    #[test]
    fn measure_targets_a_declared_classical_register() {
        let src = format!(
            "{HEADER}qreg q[2];\ncreg c[2];\ncreg d[1];\nmeasure q -> c;\n\
             measure q[1] -> d[0];\nmeasure q[0]->c [ 1 ] ;\n"
        );
        assert_eq!(parse(&src).unwrap().len(), 4);
        let unexpected = |found: &str, expected| DiagnosticKind::Unexpected {
            found: found.into(),
            expected,
        };
        for (body, kind) in [
            ("measure q[0] + 5 ) foo;", unexpected("+", "->")),
            ("measure q[0] -> c[0] foo;", unexpected("foo", ";")),
            ("measure q[0] -> c[0]", DiagnosticKind::UnexpectedEof),
            ("measure q[0];", unexpected(";", "->")),
            (
                "measure q[0] -> e[0];",
                DiagnosticKind::UnknownRegister { name: "e".into() },
            ),
            (
                "measure q[0] -> q[1];",
                DiagnosticKind::UnknownRegister { name: "q".into() },
            ),
            (
                "measure q[0] -> c[2];",
                DiagnosticKind::IndexOutOfRange {
                    name: "c".into(),
                    index: 2,
                    size: 2,
                },
            ),
            (
                "creg c[3];",
                DiagnosticKind::DuplicateRegister { name: "c".into() },
            ),
            ("creg e;", unexpected(";", "[")),
        ] {
            let src = format!("{HEADER}qreg q[2];\ncreg c[2];\n{body}");
            assert_eq!(first_kind(&src), kind, "{body}");
        }
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
