//! A small, self-contained Rust lexer.
//!
//! The lint rules only need a token stream with line numbers plus the comment text (for
//! suppression pragmas), so this lexer is deliberately minimal: it distinguishes
//! identifiers, punctuation, literals, and lifetimes, and it is exact about the things
//! that would otherwise produce false positives — nested block comments, raw/byte
//! strings, char literals vs. lifetimes, and doc comments (which are comments here, so a
//! comment *mentioning* `partial_cmp(..).unwrap()` never trips a rule).

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `partial_cmp`, `Vec`, ...).
    Ident,
    /// A single punctuation character (`::` is two `:` tokens).
    Punct,
    /// String literal (regular, raw, or byte). A `"..."` or `b"..."` string keeps its body
    /// as text, for the paths written in attribute strings (`#[serde(validate = "T::f")]`).
    Str,
    /// Character or byte literal.
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
}

/// One lexeme with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// The lexeme kind.
    pub kind: TokenKind,
    /// The lexeme text (for `Punct`, a single character).
    pub text: String,
    /// 1-based line the lexeme starts on.
    pub line: u32,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.as_bytes() == [c as u8]
    }
}

/// One comment (line or block, including doc comments) with its starting line.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Full comment text including the `//` / `/*` introducer.
    pub text: String,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

/// Lexes `src` into tokens and comments. Unterminated constructs (running off the end of
/// the file inside a string or block comment) terminate the affected token at EOF rather
/// than failing: the linter must degrade gracefully on code rustc would reject anyway.
pub fn tokenize(src: &str) -> Lexed {
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
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32) {
        self.out.tokens.push(Token { kind, text, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                _ if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.string(line),
                '\'' => self.char_or_lifetime(line),
                _ if c.is_ascii_digit() => self.number(line),
                _ if c.is_alphabetic() || c == '_' => self.ident_or_prefixed_literal(line),
                _ => {
                    self.bump();
                    self.push(TokenKind::Punct, c.to_string(), line);
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

    /// Consumes a `"..."` string (the opening quote not yet consumed), keeping its body
    /// as written, escapes unresolved.
    fn string(&mut self, line: u32) {
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    text.push(c);
                    text.extend(self.bump());
                }
                '"' => break,
                _ => text.push(c),
            }
        }
        self.push(TokenKind::Str, text, line);
    }

    /// Consumes a raw string `r"..."` / `r#"..."#` (pointer on the first `#` or quote).
    fn raw_string(&mut self, line: u32) {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        'body: while let Some(c) = self.bump() {
            if c == '"' {
                for ahead in 0..hashes {
                    if self.peek(ahead) != Some('#') {
                        continue 'body;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        self.push(TokenKind::Str, String::new(), line);
    }

    fn char_or_lifetime(&mut self, line: u32) {
        // `'a`, `'static`, `'_` are lifetimes unless the identifier is immediately
        // followed by a closing quote (`'a'` is a char literal).
        let first = self.peek(1);
        if matches!(first, Some(c) if c.is_alphabetic() || c == '_') {
            let mut end = 2;
            while matches!(self.peek(end), Some(c) if c.is_alphanumeric() || c == '_') {
                end += 1;
            }
            if self.peek(end) != Some('\'') {
                let text: String = self.chars[self.pos + 1..self.pos + end].iter().collect();
                for _ in 0..end {
                    self.bump();
                }
                self.push(TokenKind::Lifetime, text, line);
                return;
            }
        }
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
        self.push(TokenKind::Char, String::new(), line);
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.' && matches!(self.peek(1), Some(d) if d.is_ascii_digit()) {
                // `1.5` continues the number; `0..n` does not (the `.` starts a range).
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Num, text, line);
    }

    fn ident_or_prefixed_literal(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // Raw/byte literal prefixes: r"..", r#"..", b"..", br#"..", b'_'.
        let next = self.peek(0);
        match (text.as_str(), next) {
            ("r" | "br", Some('"' | '#')) if self.raw_prefix_is_string() => self.raw_string(line),
            ("b", Some('"')) => self.string(line),
            ("b", Some('\'')) => {
                self.bump(); // opening quote
                while let Some(c) = self.bump() {
                    match c {
                        '\\' => {
                            self.bump();
                        }
                        '\'' => break,
                        _ => {}
                    }
                }
                self.push(TokenKind::Char, String::new(), line);
            }
            _ => self.push(TokenKind::Ident, text, line),
        }
    }

    /// After an `r`/`br` prefix, checks that `#`* is followed by a quote (so `r#keyword`
    /// raw identifiers are not mistaken for raw strings).
    fn raw_prefix_is_string(&self) -> bool {
        let mut ahead = 0;
        while self.peek(ahead) == Some('#') {
            ahead += 1;
        }
        self.peek(ahead) == Some('"')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_are_not_tokens() {
        let lexed = tokenize("// partial_cmp(..).unwrap()\nlet x = 1; /* vec![] */\n");
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.tokens.iter().all(|t| t.text != "partial_cmp"));
        assert_eq!(lexed.comments[0].line, 1);
        assert_eq!(lexed.comments[1].line, 2);
    }

    #[test]
    fn nested_block_comments() {
        let lexed = tokenize("/* outer /* inner */ still comment */ fn x() {}");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(idents("/* /* */ unwrap */ ok"), vec!["ok"]);
        // The token after a multi-line block comment is on the right line.
        let lexed = tokenize("/* a\nb\nc */ fn f() {}");
        assert_eq!(lexed.tokens[0].line, 3);
    }

    #[test]
    fn strings_hide_their_contents() {
        assert_eq!(idents(r#"let s = "unwrap() \" vec![";"#), vec!["let", "s"]);
        assert_eq!(
            idents(r##"let s = r#"unwrap() " quote"# ;"##),
            vec!["let", "s"]
        );
        assert_eq!(idents(r#"let b = b"unwrap()";"#), vec!["let", "b"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let lexed = tokenize("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(lifetimes[0].text, "a");
        let chars: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .collect();
        assert_eq!(chars.len(), 1);
        // Escaped quote inside a char literal.
        assert_eq!(idents(r"let c = '\''; done"), vec!["let", "c", "done"]);
        // 'static is a lifetime even at a type boundary.
        let lexed = tokenize("fn f() -> &'static str { \"\" }");
        assert!(lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "static"));
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let lexed = tokenize("for i in 0..n { let x = 1.5e-3; }");
        let nums: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Num)
            .map(|t| t.text.clone())
            .collect();
        assert!(nums.contains(&"0".to_string()));
        assert!(nums.contains(&"1.5e".to_string()));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let lexed = tokenize("a\nb\n\nc");
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }
}
