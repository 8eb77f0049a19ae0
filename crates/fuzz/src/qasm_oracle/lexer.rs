//! The reference front-end's tokenizer: the original two-phase lexer that
//! materialises every token (owned `String`s, `Vec<char>` scanning) before
//! the parser starts. Kept verbatim as the differential oracle.

use std::fmt;

use ion_circuit::qasm::{Diagnostic, DiagnosticKind};

/// The kind of a lexed token.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// An identifier or keyword (`qreg`, `h`, `measure`, …).
    Ident(String),
    /// A numeric literal (integers and floats are not distinguished).
    Number(f64),
    /// A double-quoted string literal (only used by `include`).
    Str(String),
    /// `;`
    Semicolon,
    /// `,`
    Comma,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `->`
    Arrow,
    /// `==`
    EqEq,
    /// Arithmetic operator used inside parameter expressions (`+ - * /`).
    Op(char),
}

/// A token together with its 1-based source position (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: usize,
    /// 1-based column of the token's first character.
    pub col: usize,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Number(n) => write!(f, "{n}"),
            TokenKind::Str(s) => write!(f, "\"{s}\""),
            TokenKind::Semicolon => write!(f, ";"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::LBracket => write!(f, "["),
            TokenKind::RBracket => write!(f, "]"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::LBrace => write!(f, "{{"),
            TokenKind::RBrace => write!(f, "}}"),
            TokenKind::Arrow => write!(f, "->"),
            TokenKind::EqEq => write!(f, "=="),
            TokenKind::Op(c) => write!(f, "{c}"),
        }
    }
}

/// Character scanner with 1-based line/column tracking.
struct Scanner {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
}

impl Scanner {
    fn new(source: &str) -> Self {
        Scanner {
            chars: source.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

/// Lexes OpenQASM 2.0 source into tokens, skipping whitespace and `//`
/// comments. Malformed input (unterminated strings, malformed numeric
/// literals, characters outside the grammar) is reported as diagnostics
/// rather than silently dropped; lexing always continues to the end of the
/// input so the parser can report everything it finds in one pass. The
/// diagnostic list is capped at [`MAX_LEX_DIAGNOSTICS`].
pub(crate) fn lex(source: &str) -> (Vec<Token>, Vec<Diagnostic>) {
    let mut tokens = Vec::new();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut scanner = Scanner::new(source);
    let report = |diagnostics: &mut Vec<Diagnostic>, kind, line, col| {
        if diagnostics.len() < MAX_LEX_DIAGNOSTICS {
            diagnostics.push(Diagnostic {
                kind,
                line,
                col,
                snippet: String::new(),
            });
        }
    };
    while let Some(ch) = scanner.peek() {
        let (line, col) = (scanner.line, scanner.col);
        match ch {
            c if c.is_whitespace() => {
                scanner.bump();
            }
            '/' => {
                scanner.bump();
                if scanner.peek() == Some('/') {
                    // Line comment.
                    while let Some(c) = scanner.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Op('/'),
                        line,
                        col,
                    });
                }
            }
            '-' => {
                scanner.bump();
                if scanner.peek() == Some('>') {
                    scanner.bump();
                    tokens.push(Token {
                        kind: TokenKind::Arrow,
                        line,
                        col,
                    });
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Op('-'),
                        line,
                        col,
                    });
                }
            }
            '=' => {
                scanner.bump();
                if scanner.peek() == Some('=') {
                    scanner.bump();
                    tokens.push(Token {
                        kind: TokenKind::EqEq,
                        line,
                        col,
                    });
                } else {
                    report(
                        &mut diagnostics,
                        DiagnosticKind::InvalidCharacter { ch: '=' },
                        line,
                        col,
                    );
                }
            }
            '"' => {
                scanner.bump();
                let mut s = String::new();
                let mut terminated = false;
                while let Some(c) = scanner.bump() {
                    if c == '"' {
                        terminated = true;
                        break;
                    }
                    s.push(c);
                }
                if !terminated {
                    report(
                        &mut diagnostics,
                        DiagnosticKind::UnterminatedString,
                        line,
                        col,
                    );
                }
                tokens.push(Token {
                    kind: TokenKind::Str(s),
                    line,
                    col,
                });
            }
            ';' | ',' | '[' | ']' | '(' | ')' | '{' | '}' => {
                scanner.bump();
                let kind = match ch {
                    ';' => TokenKind::Semicolon,
                    ',' => TokenKind::Comma,
                    '[' => TokenKind::LBracket,
                    ']' => TokenKind::RBracket,
                    '(' => TokenKind::LParen,
                    ')' => TokenKind::RParen,
                    '{' => TokenKind::LBrace,
                    _ => TokenKind::RBrace,
                };
                tokens.push(Token { kind, line, col });
            }
            '+' | '*' => {
                scanner.bump();
                tokens.push(Token {
                    kind: TokenKind::Op(ch),
                    line,
                    col,
                });
            }
            c if c.is_ascii_digit() || c == '.' => {
                let mut text = String::new();
                while let Some(c) = scanner.peek() {
                    let after_exponent = matches!(text.chars().last(), Some('e') | Some('E'));
                    if c.is_ascii_digit()
                        || c == '.'
                        || c == 'e'
                        || c == 'E'
                        || (after_exponent && (c == '-' || c == '+'))
                    {
                        text.push(c);
                        scanner.bump();
                    } else {
                        break;
                    }
                }
                // `parse::<f64>` maps out-of-range literals like `1e309` to
                // infinity rather than failing; treat those as malformed too
                // so no non-finite value enters the token stream.
                let value = match text.parse::<f64>() {
                    Ok(v) if v.is_finite() => v,
                    _ => {
                        report(
                            &mut diagnostics,
                            DiagnosticKind::MalformedNumber { text: text.clone() },
                            line,
                            col,
                        );
                        0.0
                    }
                };
                tokens.push(Token {
                    kind: TokenKind::Number(value),
                    line,
                    col,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut text = String::new();
                while let Some(c) = scanner.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
                        text.push(c);
                        scanner.bump();
                    } else {
                        break;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(text),
                    line,
                    col,
                });
            }
            c => {
                scanner.bump();
                report(
                    &mut diagnostics,
                    DiagnosticKind::InvalidCharacter { ch: c },
                    line,
                    col,
                );
            }
        }
    }
    (tokens, diagnostics)
}

/// Cap on the number of lexer diagnostics recorded for one input, so a
/// megabyte of garbage cannot amplify into a megabyte of error report.
pub const MAX_LEX_DIAGNOSTICS: usize = 64;
