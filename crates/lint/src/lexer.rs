//! A small hand-rolled Rust lexer — just enough syntax awareness for the
//! rule engine to be trustworthy.
//!
//! The point of lexing (rather than line-regexing) is that the rules must
//! not fire on forbidden tokens inside comments, doc comments, or string
//! literals, and must not miss tokens because of formatting. The lexer
//! handles:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments;
//! * string literals with escapes, byte strings, and raw strings
//!   (`r"…"`, `r#"…"#`, any hash depth);
//! * char literals vs. lifetimes (`'a'` vs `'a`);
//! * raw identifiers (`r#type` lexes as the identifier `type`);
//! * numeric literals with suffixes (`0xFFu64`, `1_000usize`) — a cast
//!   suffix is *not* an `as` cast and must not confuse the rules.
//!
//! It does not build an AST; rules pattern-match over the token stream.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (raw identifiers are normalized: `r#type` →
    /// `type`).
    Ident(String),
    /// String literal (cooked value, best-effort escape decoding).
    Str(String),
    /// Char literal (`'a'`, `'\n'`); content irrelevant to the rules.
    Char,
    /// Lifetime (`'a`); distinct from `Char` so rules never mix them up.
    Lifetime,
    /// Numeric literal, including any type suffix.
    Num,
    /// Single punctuation character (`.`, `(`, `::` is two `:` tokens).
    Punct(char),
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What was lexed.
    pub kind: Tok,
    /// 1-based source line of the token's first character.
    pub line: u32,
}

/// A comment (line or block) with its starting line — kept out of the
/// token stream but retained for `// dhs-flow: …` directives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Raw comment text, including the `//` / `/*` markers.
    pub text: String,
}

/// Lexer output: code tokens and comments, separately.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

/// Tokenize `src`. Unterminated constructs (running off the end of the
/// file inside a string or comment) terminate the token quietly — the
/// lint must degrade gracefully on code that `rustc` would reject anyway.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: Tok, line: u32) {
        self.out.tokens.push(Token { kind, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.string(line, false),
                'r' | 'b' => self.raw_or_ident(line),
                '\'' => self.char_or_lifetime(line),
                c if is_ident_start(c) => self.ident(line),
                c if c.is_ascii_digit() => self.number(line),
                _ => {
                    self.bump();
                    self.push(Tok::Punct(c), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment { line, text });
    }

    fn block_comment(&mut self, line: u32) {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.out.comments.push(Comment { line, text });
    }

    /// `"…"` (or the tail of `b"…"`): cooked string with escapes.
    fn string(&mut self, line: u32, _byte: bool) {
        self.bump(); // opening quote
        let mut value = String::new();
        while let Some(c) = self.bump() {
            match c {
                '"' => break,
                '\\' => {
                    // Decode the common escapes; keep unknown ones raw so
                    // the value is still usable for set membership.
                    match self.bump() {
                        Some('n') => value.push('\n'),
                        Some('t') => value.push('\t'),
                        Some('r') => value.push('\r'),
                        Some('0') => value.push('\0'),
                        Some('\\') => value.push('\\'),
                        Some('"') => value.push('"'),
                        Some('\'') => value.push('\''),
                        Some('\n') => { /* line-continuation: skip */ }
                        Some(other) => {
                            value.push('\\');
                            value.push(other);
                        }
                        None => break,
                    }
                }
                c => value.push(c),
            }
        }
        self.push(Tok::Str(value), line);
    }

    /// Disambiguate `r"…"`, `r#"…"#`, `br"…"`, `b"…"`, `b'…'`, `r#ident`,
    /// and plain identifiers starting with `r`/`b`.
    fn raw_or_ident(&mut self, line: u32) {
        let first = self.peek(0).unwrap_or('r');
        let mut ahead = 1;
        // `br` / `rb` prefix handling: at most one extra prefix char.
        if (first == 'b' && self.peek(1) == Some('r'))
            || (first == 'r' && self.peek(1) == Some('b'))
        {
            ahead = 2;
        }
        let mut hashes = 0usize;
        while self.peek(ahead + hashes) == Some('#') {
            hashes += 1;
        }
        match self.peek(ahead + hashes) {
            Some('"') => {
                // Raw (or byte) string: consume prefix, hashes, quote.
                for _ in 0..(ahead + hashes + 1) {
                    self.bump();
                }
                let mut value = String::new();
                'outer: while let Some(c) = self.bump() {
                    if c == '"' {
                        // A closing quote must be followed by `hashes` #s.
                        for h in 0..hashes {
                            if self.peek(h) != Some('#') {
                                value.push('"');
                                continue 'outer;
                            }
                        }
                        for _ in 0..hashes {
                            self.bump();
                        }
                        break;
                    }
                    value.push(c);
                }
                self.push(Tok::Str(value), line);
            }
            Some('\'') if first == 'b' && hashes == 0 && ahead == 1 => {
                // Byte char b'x'.
                self.bump(); // b
                self.char_or_lifetime(line);
            }
            _ if first == 'r' && hashes == 1 && ahead == 1 => {
                // Raw identifier r#ident: normalize to the bare name.
                self.bump(); // r
                self.bump(); // #
                self.ident(line);
            }
            _ => self.ident(line),
        }
    }

    /// `'a'` / `'\n'` (char) vs `'a` / `'static` (lifetime).
    fn char_or_lifetime(&mut self, line: u32) {
        self.bump(); // opening '
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: consume escape then closing quote.
                self.bump();
                self.bump();
                while let Some(c) = self.peek(0) {
                    // \u{…} and similar: run to the closing quote.
                    self.bump();
                    if c == '\'' {
                        break;
                    }
                }
                self.push(Tok::Char, line);
            }
            Some(c) if is_ident_start(c) => {
                // Could be 'a' (char) or 'a / 'abc (lifetime).
                let mut len = 0;
                while self
                    .peek(len)
                    .map(|c| is_ident_start(c) || c.is_ascii_digit())
                    .unwrap_or(false)
                {
                    len += 1;
                }
                if self.peek(len) == Some('\'') {
                    for _ in 0..=len {
                        self.bump();
                    }
                    self.push(Tok::Char, line);
                } else {
                    for _ in 0..len {
                        self.bump();
                    }
                    self.push(Tok::Lifetime, line);
                }
            }
            Some(_) => {
                // Punctuation char literal like '(' or '0'.
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.push(Tok::Char, line);
            }
            None => {}
        }
    }

    fn ident(&mut self, line: u32) {
        let mut name = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_start(c) || c.is_ascii_digit() {
                name.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if name.is_empty() {
            // Defensive: avoid an infinite loop on unexpected input.
            self.bump();
            return;
        }
        self.push(Tok::Ident(name), line);
    }

    fn number(&mut self, line: u32) {
        // Digits, hex/bin/oct bodies, `_` separators, type suffixes; one
        // decimal point only when followed by a digit (so `0..8` stays a
        // range, not a float).
        while let Some(c) = self.peek(0) {
            let in_number = c.is_ascii_alphanumeric()
                || c == '_'
                || (c == '.' && self.peek(1).map(|d| d.is_ascii_digit()).unwrap_or(false));
            if !in_number {
                break;
            }
            self.bump();
        }
        self.push(Tok::Num, line);
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || !c.is_ascii()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    fn strs(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                Tok::Str(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_are_not_tokens() {
        let l = lex("let x = 1; // HashMap here\n/* also HashMap /* nested */ here */ let y = 2;");
        assert!(idents("// HashMap\nfoo").contains(&"foo".to_string()));
        assert!(!l
            .tokens
            .iter()
            .any(|t| matches!(&t.kind, Tok::Ident(s) if s == "HashMap")));
        assert_eq!(l.comments.len(), 2);
    }

    #[test]
    fn nested_block_comment_terminates_correctly() {
        let l = lex("/* a /* b */ c */ after");
        assert_eq!(idents("/* a /* b */ c */ after"), vec!["after"]);
        assert_eq!(l.comments.len(), 1);
    }

    #[test]
    fn strings_do_not_leak_tokens() {
        assert_eq!(
            strs(r#"call("as u16 SystemTime")"#),
            vec!["as u16 SystemTime"]
        );
        assert!(!idents(r#"x("SystemTime")"#).contains(&"SystemTime".to_string()));
    }

    #[test]
    fn raw_strings_with_hashes() {
        assert_eq!(strs(r##"r#"quote " inside"#"##), vec![r#"quote " inside"#]);
        assert_eq!(strs(r#"r"plain raw""#), vec!["plain raw"]);
    }

    #[test]
    fn escapes_decode() {
        assert_eq!(strs(r#""a\nb\"c""#), vec!["a\nb\"c"]);
    }

    #[test]
    fn char_vs_lifetime() {
        let l = lex("let c = 'x'; fn f<'a>(v: &'a str) {} let n = '\\n';");
        let chars = l.tokens.iter().filter(|t| t.kind == Tok::Char).count();
        let lifetimes = l.tokens.iter().filter(|t| t.kind == Tok::Lifetime).count();
        assert_eq!(chars, 2);
        assert_eq!(lifetimes, 2);
    }

    #[test]
    fn raw_identifier_normalizes() {
        assert_eq!(idents("let r#type = 1;"), vec!["let", "type"]);
    }

    #[test]
    fn numeric_suffix_is_one_token() {
        let l = lex("let x = 0xFFu64 + 1_000usize; let r = 0..8;");
        // No `usize` identifier token may appear out of the suffix.
        assert!(!l
            .tokens
            .iter()
            .any(|t| matches!(&t.kind, Tok::Ident(s) if s == "usize" || s == "u64")));
    }

    #[test]
    fn lines_are_tracked() {
        let l = lex("a\nb\n  c");
        let lines: Vec<u32> = l.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }
}
