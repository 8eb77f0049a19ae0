//! Byte scanner for the OpenQASM 2.0 subset. The parser pulls one token at a
//! time; identifier and string tokens borrow their text from the source, and
//! positions are byte offsets (line and column are derived only when a
//! diagnostic is built).

// lint: no-panic
// lint: hot-path

use std::fmt;

use super::parser::{DiagnosticKind, Problems};

/// The kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TokenKind<'s> {
    /// An identifier or keyword (`qreg`, `h`, `measure`, …).
    Ident(&'s str),
    /// A numeric literal (integers and floats are not distinguished).
    Number(f64),
    /// A double-quoted string literal's contents (only used by `include`).
    Str(&'s str),
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

/// A token and the byte offset of its first character.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Token<'s> {
    /// What was lexed.
    pub(crate) kind: TokenKind<'s>,
    /// Byte offset into the source.
    pub(crate) offset: usize,
}

impl fmt::Display for TokenKind<'_> {
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

/// Pull lexer over the source bytes, skipping whitespace and `//` comments.
/// Malformed input (unterminated strings, malformed numeric literals,
/// characters outside the grammar) is reported to the caller's [`Problems`]
/// rather than silently dropped; a malformed number still yields a `0`
/// token and an unterminated string a token running to the end of input, so
/// the parser can continue.
pub(crate) struct Scanner<'s> {
    source: &'s str,
    pos: usize,
    /// Offset of the most recently scanned token: where end-of-input
    /// diagnostics point.
    pub(crate) last_token: Option<usize>,
}

impl<'s> Scanner<'s> {
    pub(crate) fn new(source: &'s str) -> Self {
        Scanner {
            source,
            pos: 0,
            last_token: None,
        }
    }

    /// Scans the next token, or `None` at end of input.
    pub(crate) fn next_token(&mut self, problems: &mut Problems) -> Option<Token<'s>> {
        let source = self.source;
        let bytes = source.as_bytes();
        let at = |i: usize| bytes.get(i).copied();
        let mut pos = self.pos;
        let (start, kind) = loop {
            let start = pos;
            let Some(byte) = at(start) else {
                self.pos = pos;
                return None;
            };
            pos += 1;
            let kind = match byte {
                b' ' | b'\t' | b'\n' | b'\r' | 0x0B | 0x0C => continue,
                b'/' if at(pos) == Some(b'/') => {
                    // Line comment, through its newline.
                    pos = find(source, pos, b'\n').map_or(bytes.len(), |nl| nl + 1);
                    continue;
                }
                b'-' if at(pos) == Some(b'>') => {
                    pos += 1;
                    TokenKind::Arrow
                }
                b'=' if at(pos) == Some(b'=') => {
                    pos += 1;
                    TokenKind::EqEq
                }
                b'/' | b'-' | b'+' | b'*' => TokenKind::Op(char::from(byte)),
                b';' => TokenKind::Semicolon,
                b',' => TokenKind::Comma,
                b'[' => TokenKind::LBracket,
                b']' => TokenKind::RBracket,
                b'(' => TokenKind::LParen,
                b')' => TokenKind::RParen,
                b'{' => TokenKind::LBrace,
                b'}' => TokenKind::RBrace,
                b'"' => {
                    let end = find(source, pos, b'"');
                    let text = source.get(pos..end.unwrap_or(bytes.len()));
                    pos = end.map_or(bytes.len(), |end| end + 1);
                    if end.is_none() {
                        problems.report(start, DiagnosticKind::UnterminatedString);
                    }
                    TokenKind::Str(text.unwrap_or(""))
                }
                b'0'..=b'9' | b'.' => {
                    pos = number_end(bytes, pos);
                    let text = source.get(start..pos).unwrap_or("");
                    TokenKind::Number(literal_value(text).unwrap_or_else(|| {
                        let text = text.to_string();
                        problems.report(start, DiagnosticKind::MalformedNumber { text });
                        0.0
                    }))
                }
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                    while at(pos)
                        .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.')
                    {
                        pos += 1;
                    }
                    TokenKind::Ident(source.get(start..pos).unwrap_or(""))
                }
                _ => {
                    // A lone `=`, other ASCII outside the grammar, or the
                    // first byte of a multi-byte character.
                    let ch = source.get(start..).and_then(|s| s.chars().next());
                    let ch = ch.unwrap_or(char::REPLACEMENT_CHARACTER);
                    pos = start + ch.len_utf8();
                    if !ch.is_whitespace() {
                        problems.report(start, DiagnosticKind::InvalidCharacter { ch });
                    }
                    continue;
                }
            };
            break (start, kind);
        };
        self.pos = pos;
        self.last_token = Some(start);
        Some(Token {
            kind,
            offset: start,
        })
    }

    /// A read-only view of the unscanned bytes, for the statement fast
    /// path. Nothing is consumed until [`Scanner::advance_to`].
    pub(crate) fn cursor(&self) -> Cursor<'s> {
        Cursor {
            source: self.source,
            pos: self.pos,
        }
    }

    /// Consumes everything `cursor` has read. `last_token` is the offset of
    /// the last token it read, as the token path would have recorded it.
    pub(crate) fn advance_to(&mut self, cursor: &Cursor<'s>, last_token: usize) {
        self.pos = cursor.pos;
        self.last_token = Some(last_token);
    }
}

/// Reads the source bytes the way [`Scanner::next_token`] would, without
/// reporting anything: each reader returns `None` where the token path could
/// read something else or report a problem. Only ASCII whitespace is skipped
/// between a statement's items; a comment or any other byte there makes the
/// next read fail.
///
/// The readers, and the parser's fast-path functions that call them, are
/// `#[inline(always)]` so that the position can stay in a register. Without
/// the hints, parsing the QFT_192 and RAN_1024 sources measured about 15%
/// and 5% slower (medians of five interleaved runs on a two-vCPU VM).
#[derive(Clone, Copy)]
pub(crate) struct Cursor<'s> {
    source: &'s str,
    pos: usize,
}

impl<'s> Cursor<'s> {
    /// Byte offset of the next unread byte.
    #[inline(always)]
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Skips whitespace and, when `comments` is set, `//` line comments.
    #[inline(always)]
    pub(crate) fn skip_space(&mut self, comments: bool) {
        let bytes = self.source.as_bytes();
        loop {
            match bytes.get(self.pos) {
                Some(b' ' | b'\t' | b'\n' | b'\r' | 0x0B | 0x0C) => self.pos += 1,
                Some(b'/') if comments && bytes.get(self.pos + 1) == Some(&b'/') => {
                    self.pos = find(self.source, self.pos, b'\n').map_or(bytes.len(), |nl| nl + 1);
                }
                _ => return,
            }
        }
    }

    /// After whitespace: consumes `token` if the next bytes are exactly it
    /// and lex as it (a `/` that starts a comment does not).
    #[inline(always)]
    pub(crate) fn eat(&mut self, token: &[u8]) -> bool {
        self.skip_space(false);
        let rest = self.source.as_bytes().get(self.pos..).unwrap_or_default();
        let hit = rest.starts_with(token) && !(token == b"/" && rest.starts_with(b"//"));
        self.pos += if hit { token.len() } else { 0 };
        hit
    }

    /// After whitespace: the next byte, consumed. Callers match it against
    /// bytes that always lex as a token of their own (`,` `;` `)` `]`).
    #[inline(always)]
    pub(crate) fn next_byte(&mut self) -> Option<u8> {
        self.skip_space(false);
        let byte = *self.source.as_bytes().get(self.pos)?;
        self.pos += 1;
        Some(byte)
    }

    /// After whitespace: an identifier, as the token path lexes it.
    #[inline(always)]
    pub(crate) fn ident(&mut self) -> Option<&'s str> {
        self.skip_space(false);
        let bytes = self.source.as_bytes();
        let start = self.pos;
        if !bytes.get(start)?.is_ascii_alphabetic() && bytes.get(start) != Some(&b'_') {
            return None;
        }
        let mut end = start + 1;
        while bytes
            .get(end)
            .is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.')
        {
            end += 1;
        }
        self.pos = end;
        self.source.get(start..end)
    }

    /// After whitespace: a finite numeric literal's value, as the token path
    /// lexes it.
    #[inline(always)]
    pub(crate) fn literal(&mut self) -> Option<f64> {
        self.skip_space(false);
        let bytes = self.source.as_bytes();
        let start = self.pos;
        if !matches!(bytes.get(start), Some(b'0'..=b'9' | b'.')) {
            return None;
        }
        let end = number_end(bytes, start + 1);
        let value = literal_value(self.source.get(start..end)?)?;
        self.pos = end;
        Some(value)
    }

    /// After whitespace: a numeric literal of plain decimal digits, short
    /// enough that its `f64` value is the integer itself. Longer or
    /// fractional literals are left to the token path.
    #[inline(always)]
    pub(crate) fn digits(&mut self) -> Option<usize> {
        /// 10^15 < 2^53: every integer of this many digits is exact as `f64`.
        const MAX_DIGITS: usize = 15;
        self.skip_space(false);
        let bytes = self.source.as_bytes();
        let start = self.pos;
        let mut value = 0u64;
        while let Some(&digit @ b'0'..=b'9') = bytes.get(self.pos) {
            value = value * 10 + u64::from(digit - b'0');
            self.pos += 1;
            if self.pos - start > MAX_DIGITS {
                return None;
            }
        }
        // The literal would run on through a fraction or an exponent.
        if self.pos == start || matches!(bytes.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return None;
        }
        usize::try_from(value).ok()
    }
}

/// End of a numeric literal whose first character precedes `from`: digits,
/// dots and exponent markers, with a sign allowed only right after an
/// exponent marker.
fn number_end(bytes: &[u8], mut from: usize) -> usize {
    loop {
        match bytes.get(from) {
            Some(b'0'..=b'9' | b'.') => from += 1,
            Some(b'e' | b'E') => {
                from += 1;
                from += usize::from(matches!(bytes.get(from), Some(b'+' | b'-')));
            }
            _ => return from,
        }
    }
}

/// Offset of the first `byte` at or after `from`.
fn find(source: &str, from: usize, byte: u8) -> Option<usize> {
    let rest = source.as_bytes().get(from..)?;
    rest.iter().position(|&b| b == byte).map(|i| from + i)
}

/// A literal's value if it is a finite number, bit-identical to
/// `str::parse::<f64>`. Decimal integers that fit a `u64` skip float text
/// parsing: the `u64` → `f64` conversion rounds to nearest like `parse`.
/// `parse` maps out-of-range literals like `1e309` to infinity rather than
/// failing; those count as malformed too, so no non-finite value enters the
/// token stream.
fn literal_value(text: &str) -> Option<f64> {
    let mut value = 0u64;
    for digit in text.bytes() {
        let next = value
            .checked_mul(10)
            .and_then(|v| v.checked_add(u64::from(digit.wrapping_sub(b'0'))));
        match next {
            Some(next) if digit.is_ascii_digit() => value = next,
            _ => return text.parse::<f64>().ok().filter(|v| v.is_finite()),
        }
    }
    Some(value as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qasm::{parse, Diagnostic, ParseLimits};

    /// A scanned token with its 1-based source position.
    struct Lexed<'s> {
        kind: TokenKind<'s>,
        line: usize,
        col: usize,
    }

    /// Drains a scanner over `source`: every token, and every problem found
    /// on the way as a positioned diagnostic.
    fn lex(source: &str) -> (Vec<Lexed<'_>>, Vec<Diagnostic>) {
        let mut problems = Problems::new(usize::MAX);
        let mut scanner = Scanner::new(source);
        let mut tokens = Vec::new();
        while let Some(token) = scanner.next_token(&mut problems) {
            let before = &source[..token.offset];
            tokens.push(Lexed {
                kind: token.kind,
                line: before.matches('\n').count() + 1,
                col: before.rsplit('\n').next().unwrap().chars().count() + 1,
            });
        }
        (tokens, problems.into_diagnostics(source))
    }

    #[test]
    fn lexes_basic_statement() {
        let (tokens, diags) = lex("cx q[0], q[1];");
        assert!(diags.is_empty());
        let kinds: Vec<&TokenKind> = tokens.iter().map(|t| &t.kind).collect();
        assert_eq!(kinds[0], &TokenKind::Ident("cx"));
        assert_eq!(kinds[2], &TokenKind::LBracket);
        assert!(matches!(kinds[3], TokenKind::Number(n) if *n == 0.0));
        assert_eq!(*kinds.last().unwrap(), &TokenKind::Semicolon);
    }

    #[test]
    fn skips_comments_and_tracks_lines() {
        let (tokens, diags) = lex("// header\nh q[0];");
        assert!(diags.is_empty());
        assert_eq!(tokens[0].kind, TokenKind::Ident("h"));
        assert_eq!(tokens[0].line, 2);
        assert_eq!(tokens[0].col, 1);
    }

    #[test]
    fn tracks_columns_within_a_line() {
        let (tokens, _) = lex("cx q[0], q[1];");
        assert_eq!(tokens[0].col, 1); // cx
        assert_eq!(tokens[1].col, 4); // q
        assert_eq!(tokens[2].col, 5); // [
    }

    #[test]
    fn lexes_arrow_and_string() {
        let (tokens, diags) = lex("include \"qelib1.inc\"; measure q -> c;");
        assert!(diags.is_empty());
        assert!(tokens
            .iter()
            .any(|t| t.kind == TokenKind::Str("qelib1.inc")));
        assert!(tokens.iter().any(|t| t.kind == TokenKind::Arrow));
    }

    #[test]
    fn lexes_parameter_expressions() {
        let (tokens, diags) = lex("rz(pi/2) q[1];");
        assert!(diags.is_empty());
        assert!(tokens.iter().any(|t| t.kind == TokenKind::Op('/')));
        assert!(tokens.iter().any(|t| t.kind == TokenKind::Ident("pi")));
    }

    #[test]
    fn lexes_floats_with_exponents() {
        let (tokens, diags) = lex("rx(1.5e-2) q[0];");
        assert!(diags.is_empty());
        assert!(tokens
            .iter()
            .any(|t| matches!(t.kind, TokenKind::Number(n) if (n - 1.5e-2).abs() < 1e-12)));
    }

    #[test]
    fn unterminated_string_is_reported() {
        let (_, diags) = lex("include \"qelib1.inc;\n");
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::UnterminatedString));
    }

    #[test]
    fn invalid_characters_are_reported_with_position() {
        let (_, diags) = lex("h q[0];\n@!\n");
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::InvalidCharacter { ch: '@' } && d.line == 2));
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::InvalidCharacter { ch: '!' }
                && d.line == 2
                && d.col == 2));
    }

    #[test]
    fn malformed_number_is_reported() {
        let (tokens, diags) = lex("rz(1.2.3) q[0];");
        assert!(diags.iter().any(
            |d| matches!(&d.kind, DiagnosticKind::MalformedNumber { text } if text == "1.2.3")
        ));
        // A placeholder token is still produced so the parser can continue.
        assert!(tokens
            .iter()
            .any(|t| matches!(t.kind, TokenKind::Number(n) if n == 0.0)));
    }

    #[test]
    fn diagnostic_flood_is_capped() {
        let cap = ParseLimits::default().max_diagnostics;
        let garbage: String = "@".repeat(10 * cap);
        let err = parse(&garbage).unwrap_err();
        assert_eq!(err.diagnostics().len(), cap);
    }

    #[test]
    fn integer_literals_match_float_parsing_bit_for_bit() {
        for text in [
            "0",
            "007",
            "9007199254740993",
            "18446744073709551615",
            "18446744073709551616",
            "123456789012345678901234567890",
        ] {
            let expected = text.parse::<f64>().unwrap();
            assert_eq!(
                literal_value(text).map(f64::to_bits),
                Some(expected.to_bits()),
                "{text}"
            );
        }
        assert_eq!(literal_value("1e309"), None);
        assert_eq!(literal_value("."), None);
    }
}
