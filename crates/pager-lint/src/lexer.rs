//! A small Rust lexer: just enough token structure for rule checks.
//!
//! The lexer's one job is to never confuse *code* with *non-code*: line
//! comments, (nested) block comments, string literals, raw strings
//! (with any `#` count), byte strings, and char literals are consumed
//! exactly so that a `==` inside a doc comment or a `".unwrap()"` in a
//! test fixture string can never produce a finding. Comments are not
//! discarded — they are collected separately so the suppression pass
//! can find `lint:allow` markers.
//!
//! Everything else is tokenised coarsely: identifiers (including raw
//! `r#idents`), lifetimes, integer and float literals (distinguished —
//! [`crate::rules::float_eq`] depends on it), and punctuation with
//! maximal munch for the compound operators rules care about (`==`,
//! `!=`, `::`, `->`, `=>`, `..`, `&&`, `||`, shifts, compound
//! assignment).

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (also raw identifiers, without `r#`).
    Ident,
    /// A numeric literal (`1`, `0x1F`, `1.5`, `1e3`, `2f64`, ...).
    Number,
    /// A string literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// A char literal (`'x'`, `'\n'`).
    Char,
    /// A lifetime (`'a`).
    Lifetime,
    /// Punctuation; `text` holds the (possibly compound) operator.
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token class.
    pub kind: TokenKind,
    /// The token text (operators joined, literals verbatim).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
}

impl Token {
    /// Whether this token is the punctuation `op`.
    #[must_use]
    pub fn is_punct(&self, op: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == op
    }

    /// Whether this token is the identifier/keyword `name`.
    #[must_use]
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }
}

/// A comment, kept for the suppression scan.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment body including the `//` / `/*` markers.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (same as `line` for `//`).
    pub end_line: u32,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in order.
    pub tokens: Vec<Token>,
    /// Comments in order.
    pub comments: Vec<Comment>,
}

/// Compound operators joined by maximal munch (longest first).
const COMPOUND: &[&str] = &[
    "<<=", ">>=", "..=", "...", "==", "!=", "<=", ">=", "&&", "||", "::", "->", "=>", "..", "<<",
    ">>", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

/// Lexes Rust source into tokens and comments.
#[must_use]
pub fn lex(source: &str) -> Lexed {
    let bytes = source.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    text: source[start..i].to_string(),
                    line,
                    end_line: line,
                });
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    text: source[start..i].to_string(),
                    line: start_line,
                    end_line: line,
                });
            }
            b'"' => {
                let (end, nl) = scan_string(bytes, i);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text: source[i..end].to_string(),
                    line,
                });
                line += nl;
                i = end;
            }
            b'r' | b'b' if starts_raw_or_byte_string(bytes, i) => {
                let (end, nl) = scan_raw_or_byte_string(bytes, i);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text: source[i..end].to_string(),
                    line,
                });
                line += nl;
                i = end;
            }
            b'r' if bytes.get(i + 1) == Some(&b'#')
                && is_ident_start(bytes.get(i + 2).copied()) =>
            {
                // Raw identifier r#type: emit the ident without r#.
                let start = i + 2;
                let end = scan_ident(bytes, start);
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: source[start..end].to_string(),
                    line,
                });
                i = end;
            }
            b'\'' => {
                let (kind, end, nl) = scan_char_or_lifetime(bytes, i);
                out.tokens.push(Token {
                    kind,
                    text: source[i..end].to_string(),
                    line,
                });
                line += nl;
                i = end;
            }
            b'0'..=b'9' => {
                let end = scan_number(bytes, i);
                out.tokens.push(Token {
                    kind: TokenKind::Number,
                    text: source[i..end].to_string(),
                    line,
                });
                i = end;
            }
            _ if is_ident_start(Some(b)) => {
                let end = scan_ident(bytes, i);
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: source[i..end].to_string(),
                    line,
                });
                i = end;
            }
            _ => {
                let rest = &source[i..];
                let op = COMPOUND
                    .iter()
                    .find(|op| rest.starts_with(**op))
                    .copied()
                    .unwrap_or_else(|| {
                        // Single char (possibly multi-byte UTF-8).
                        let ch_len = rest.chars().next().map_or(1, char::len_utf8);
                        &rest[..ch_len]
                    });
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: op.to_string(),
                    line,
                });
                i += op.len();
            }
        }
    }
    out
}

fn is_ident_start(b: Option<u8>) -> bool {
    matches!(b, Some(b'a'..=b'z' | b'A'..=b'Z' | b'_'))
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn scan_ident(bytes: &[u8], start: usize) -> usize {
    let mut i = start;
    while i < bytes.len() && is_ident_continue(bytes[i]) {
        i += 1;
    }
    i
}

/// Scans a `"…"` string starting at `start`; returns (end, newlines).
fn scan_string(bytes: &[u8], start: usize) -> (usize, u32) {
    let mut i = start + 1;
    let mut nl = 0u32;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'\n' => {
                nl += 1;
                i += 1;
            }
            b'"' => return (i + 1, nl),
            _ => i += 1,
        }
    }
    (i, nl)
}

/// Whether `r"`, `r#…"`, `b"`, `br"`, `br#…"` starts here.
fn starts_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) == Some(&b'r') {
        j += 1;
        while bytes.get(j) == Some(&b'#') {
            j += 1;
        }
        return bytes.get(j) == Some(&b'"');
    }
    // Plain byte string b"…".
    bytes[i] == b'b' && bytes.get(i + 1) == Some(&b'"')
}

/// Scans `r#"…"#`-style (and `b"…"`) strings; returns (end, newlines).
fn scan_raw_or_byte_string(bytes: &[u8], start: usize) -> (usize, u32) {
    let mut i = start;
    if bytes[i] == b'b' {
        i += 1;
    }
    let raw = bytes.get(i) == Some(&b'r');
    if raw {
        i += 1;
    }
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    debug_assert_eq!(bytes.get(i), Some(&b'"'));
    i += 1;
    let mut nl = 0u32;
    while i < bytes.len() {
        match bytes[i] {
            b'\n' => {
                nl += 1;
                i += 1;
            }
            b'\\' if !raw => i += 2,
            b'"' => {
                if raw {
                    let mut j = i + 1;
                    let mut seen = 0usize;
                    while seen < hashes && bytes.get(j) == Some(&b'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        return (j, nl);
                    }
                    i += 1;
                } else {
                    return (i + 1, nl);
                }
            }
            _ => i += 1,
        }
    }
    (i, nl)
}

/// Distinguishes `'a'` / `'\n'` char literals from `'a` lifetimes.
fn scan_char_or_lifetime(bytes: &[u8], start: usize) -> (TokenKind, usize, u32) {
    // A char literal closes with ' after one (possibly escaped)
    // character; a lifetime is ' followed by an identifier and no
    // closing quote.
    let next = bytes.get(start + 1).copied();
    if next == Some(b'\\') {
        // Escaped char: consume to the closing quote.
        let mut i = start + 2;
        let mut nl = 0u32;
        while i < bytes.len() && bytes[i] != b'\'' {
            if bytes[i] == b'\n' {
                nl += 1;
            }
            i += if bytes[i] == b'\\' { 2 } else { 1 };
        }
        return (TokenKind::Char, (i + 1).min(bytes.len()), nl);
    }
    if is_ident_start(next) {
        // 'a' is a char, 'a is a lifetime: look one past.
        if bytes.get(start + 2) == Some(&b'\'') && !is_ident_continue(bytes[start + 1]) {
            return (TokenKind::Char, start + 3, 0);
        }
        let mut i = start + 2;
        while i < bytes.len() && is_ident_continue(bytes[i]) {
            i += 1;
        }
        if bytes.get(i) == Some(&b'\'') && i == start + 2 {
            // Single ident char then quote: 'x'.
            return (TokenKind::Char, i + 1, 0);
        }
        return (TokenKind::Lifetime, i, 0);
    }
    // Some other single char like '0' or '@' (or unterminated).
    if bytes.get(start + 2) == Some(&b'\'') {
        return (TokenKind::Char, start + 3, 0);
    }
    (TokenKind::Punct, start + 1, 0)
}

/// Scans a number: `1.5`, `1.`, `1e3`, `1E-3` and suffixed forms are
/// one token, while `1..2` and `1.max(2)` end the number at the dot.
fn scan_number(bytes: &[u8], start: usize) -> usize {
    let mut i = start;
    if bytes[i] == b'0' && matches!(bytes.get(i + 1), Some(b'x' | b'o' | b'b')) {
        i += 2;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        return i;
    }
    while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
        i += 1;
    }
    if bytes.get(i) == Some(&b'.') {
        let after = bytes.get(i + 1).copied();
        let range_or_method = after == Some(b'.') || is_ident_start(after);
        if !range_or_method {
            i += 1;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
                i += 1;
            }
        }
    }
    if matches!(bytes.get(i), Some(b'e' | b'E')) {
        let mut j = i + 1;
        if matches!(bytes.get(j), Some(b'+' | b'-')) {
            j += 1;
        }
        if bytes.get(j).is_some_and(u8::is_ascii_digit) {
            i = j;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
                i += 1;
            }
        }
    }
    // Type suffix (`f64`, `u32`, ...).
    while i < bytes.len() && is_ident_continue(bytes[i]) {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn comments_are_skipped_and_collected() {
        let src = "let a = 1; // trailing == comment\n/* block\n * == \n */ let b = 2;";
        let lexed = lex(src);
        assert!(lexed.tokens.iter().all(|t| !t.is_punct("==")));
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].line, 1);
        assert_eq!(lexed.comments[1].line, 2);
        assert_eq!(lexed.comments[1].end_line, 4);
        let b = lexed.tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 4);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner == */ still comment == */ x != y";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        let ops: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(ops, vec!["!="]);
    }

    #[test]
    fn strings_hide_operators() {
        let src = r#"let s = "a == b // not a comment"; s != t"#;
        let lexed = lex(src);
        assert!(lexed.comments.is_empty());
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.is_punct("==") || t.is_punct("!="))
                .count(),
            1
        );
        assert!(lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Str && t.text.contains("==")));
    }

    #[test]
    fn raw_strings_with_hashes_round_trip() {
        let src = "let s = r#\"quote \" inside == \"#; let t = r##\"x \"# y\"##; a == b";
        let lexed = lex(src);
        let strs: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs.len(), 2);
        assert!(strs[0].contains("quote \" inside"));
        assert!(strs[1].contains("\"# y"));
        assert_eq!(
            lexed.tokens.iter().filter(|t| t.is_punct("==")).count(),
            1,
            "only the code == survives"
        );
    }

    #[test]
    fn byte_strings_and_escapes() {
        let src = r#"let a = b"bytes \" =="; let c = "esc \\"; c == a"#;
        let lexed = lex(src);
        assert_eq!(lexed.tokens.iter().filter(|t| t.is_punct("==")).count(), 1);
    }

    #[test]
    fn chars_vs_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; let q = '\"'; }";
        let lexed = lex(src);
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 3);
        // The quote char must not have swallowed the rest of the file.
        assert!(lexed.tokens.last().unwrap().is_punct("}"));
    }

    #[test]
    fn number_literals_are_single_tokens() {
        let toks = kinds("1 1.5 1. 1e3 1E-3 2f64 3f32 4u32 0x1F 1..2 1.max(2) 1_000 1_000.5");
        let numbers: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Number)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(
            numbers,
            vec![
                "1", "1.5", "1.", "1e3", "1E-3", "2f64", "3f32", "4u32", "0x1F", "1", "2", "1",
                "2", "1_000", "1_000.5"
            ]
        );
    }

    #[test]
    fn compound_operators_are_joined() {
        let toks = kinds("a == b != c :: d -> e => f .. g ..= h && i || j <<= k");
        let puncts: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(
            puncts,
            vec!["==", "!=", "::", "->", "=>", "..", "..=", "&&", "||", "<<="]
        );
    }

    #[test]
    fn raw_identifiers() {
        let toks = kinds("let r#type = 1; r#match == 2.0");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "type"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "match"));
    }

    #[test]
    fn line_numbers_track_all_multiline_tokens() {
        let src = "let a = \"line\nbreak\";\nlet b = r#\"x\ny\"#;\nb == a";
        let lexed = lex(src);
        let eq = lexed.tokens.iter().find(|t| t.is_punct("==")).unwrap();
        assert_eq!(eq.line, 5);
    }
}
