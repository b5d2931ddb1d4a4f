//! A hand-rolled, std-only Rust token lexer for the source audit.
//!
//! Level 2 started life as a line scanner: `line.contains(".lock(")` and
//! friends. That holds up until a rule substring lands inside a block
//! comment or a string literal (false finding), or a comment containing a
//! stray `}` unbalances the brace-depth tracker and closes a critical-
//! section region early (masked finding). Both classes are pinned as
//! regression fixtures in `source.rs`.
//!
//! This lexer removes the ambiguity at the source: it understands line
//! and (nested) block comments, normal/byte strings with escapes, raw and
//! raw-byte strings (`r"…"`, `r#"…"#`, `br##"…"##`), character literals
//! vs. lifetimes, and numeric literals (so `float-eq` can classify
//! operands without substring guessing). Comments never produce tokens;
//! string/char literals produce a single token whose text is the literal
//! body, so rules can opt out of matching inside them. `<<`/`>>` are
//! deliberately emitted as two `<`/`>` punct tokens so nested generics
//! (`Vec<Vec<u8>>`) close token by token.
//!
//! The lexer is heuristic where full fidelity is not needed for the
//! rules (e.g. `1.` without a following digit lexes as `1` then `.`),
//! but it is exact on the constructs the audit depends on: what is a
//! comment, what is a string, where a line starts, and how deep the
//! braces are.

/// Token classes the audit rules distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (`fn`, `drain`, `HashMap`, …).
    Ident,
    /// Lifetime (`'a`, `'static`) — distinguished from char literals.
    Lifetime,
    /// Numeric literal (`1`, `0x1f`, `2.5e-3`, `1_000.0f64`).
    Num,
    /// String-ish literal: normal, byte, raw, raw-byte. `text` is the
    /// body without quotes/prefix.
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Punctuation. Multi-char operators (`::`, `==`, `!=`, `->`, …) are
    /// one token; `<<`/`>>` are split so generics nest.
    Punct,
}

/// One token with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: Kind,
    pub text: String,
    pub line: usize,
}

impl Tok {
    pub fn is(&self, kind: Kind, text: &str) -> bool {
        self.kind == kind && self.text == text
    }
    pub fn ident(&self, text: &str) -> bool {
        self.is(Kind::Ident, text)
    }
    pub fn punct(&self, text: &str) -> bool {
        self.is(Kind::Punct, text)
    }
    /// True for a numeric literal with float syntax: a fractional part,
    /// an exponent, or an explicit `f32`/`f64` suffix.
    pub fn is_float(&self) -> bool {
        if self.kind != Kind::Num {
            return false;
        }
        let t = &self.text;
        if t.starts_with("0x") || t.starts_with("0b") || t.starts_with("0o") {
            return false;
        }
        // An exponent is a digit, then `e`/`E`, then a digit or sign —
        // not the `e` in an integer suffix like `1usize`.
        let b = t.as_bytes();
        let has_exp = (1..b.len().saturating_sub(1)).any(|i| {
            (b[i] == b'e' || b[i] == b'E')
                && b[i - 1].is_ascii_digit()
                && (b[i + 1].is_ascii_digit() || b[i + 1] == b'+' || b[i + 1] == b'-')
        });
        t.contains('.') || t.ends_with("f32") || t.ends_with("f64") || has_exp
    }
}

/// Multi-char operators, longest first. `<<` / `>>` are intentionally
/// absent (see module docs); `<<=` / `>>=` stay so compound shifts do
/// not shed a spurious `<=` / `>=`.
const OPS: [&str; 22] = [
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lex `src` into tokens. Never fails: unterminated constructs consume
/// to end of input (the audit scans a workspace that already compiles,
/// so this is a non-issue in practice and harmless on fixtures).
pub fn lex(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1usize;

    macro_rules! push {
        ($kind:expr, $text:expr, $line:expr) => {
            toks.push(Tok {
                kind: $kind,
                text: $text,
                line: $line,
            })
        };
    }

    while i < b.len() {
        let c = b[i];
        // Whitespace.
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (also covers `///` and `//!`).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        // Block comment, nested.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let mut depth = 1;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // Raw / raw-byte strings: r"…", r#"…"#, br##"…"##.
        if (c == b'r' && raw_string_follows(b, i + 1))
            || (c == b'b' && i + 1 < b.len() && b[i + 1] == b'r' && raw_string_follows(b, i + 2))
        {
            let start_line = line;
            i += if c == b'r' { 1 } else { 2 };
            let mut hashes = 0;
            while i < b.len() && b[i] == b'#' {
                hashes += 1;
                i += 1;
            }
            i += 1; // opening quote
            let body_start = i;
            let mut body_end = b.len();
            while i < b.len() {
                if b[i] == b'\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == b'"' && closing_hashes(b, i + 1, hashes) {
                    body_end = i;
                    i += 1 + hashes;
                    break;
                } else {
                    i += 1;
                }
            }
            push!(
                Kind::Str,
                String::from_utf8_lossy(&b[body_start..body_end]).into_owned(),
                start_line
            );
            continue;
        }
        // Normal / byte strings.
        if c == b'"' || (c == b'b' && i + 1 < b.len() && b[i + 1] == b'"') {
            let start_line = line;
            i += if c == b'b' { 2 } else { 1 };
            let body_start = i;
            let mut body_end = b.len();
            while i < b.len() {
                if b[i] == b'\\' && i + 1 < b.len() {
                    if b[i + 1] == b'\n' {
                        line += 1;
                    }
                    i += 2;
                } else if b[i] == b'\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == b'"' {
                    body_end = i;
                    i += 1;
                    break;
                } else {
                    i += 1;
                }
            }
            push!(
                Kind::Str,
                String::from_utf8_lossy(&b[body_start..body_end]).into_owned(),
                start_line
            );
            continue;
        }
        // Byte char literal b'…'.
        if c == b'b' && i + 1 < b.len() && b[i + 1] == b'\'' {
            let (text, next) = scan_char_body(b, i + 2, &mut line);
            push!(Kind::Char, text, line);
            i = next;
            continue;
        }
        // Char literal vs lifetime.
        if c == b'\'' {
            // `'` + ident-chars not closed by `'` is a lifetime.
            if i + 1 < b.len() && is_ident_start(b[i + 1]) && b[i + 1] != b'\\' {
                let mut j = i + 1;
                while j < b.len() && is_ident_cont(b[j]) {
                    j += 1;
                }
                if j < b.len() && b[j] == b'\'' && j == i + 2 {
                    // 'x' — single ident char closed by a quote: char.
                    push!(
                        Kind::Char,
                        String::from_utf8_lossy(&b[i + 1..j]).into_owned(),
                        line
                    );
                    i = j + 1;
                    continue;
                }
                push!(
                    Kind::Lifetime,
                    String::from_utf8_lossy(&b[i + 1..j]).into_owned(),
                    line
                );
                i = j;
                continue;
            }
            let (text, next) = scan_char_body(b, i + 1, &mut line);
            push!(Kind::Char, text, line);
            i = next;
            continue;
        }
        // Identifier / keyword.
        if is_ident_start(c) {
            let mut j = i + 1;
            while j < b.len() && is_ident_cont(b[j]) {
                j += 1;
            }
            push!(
                Kind::Ident,
                String::from_utf8_lossy(&b[i..j]).into_owned(),
                line
            );
            i = j;
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let mut j = i + 1;
            if c == b'0' && j < b.len() && matches!(b[j], b'x' | b'b' | b'o') {
                j += 1;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
            } else {
                while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
                    j += 1;
                }
                // Fractional part only when followed by a digit, so `1..2`
                // and `x.0`-style field access stay separate tokens.
                if j + 1 < b.len() && b[j] == b'.' && b[j + 1].is_ascii_digit() {
                    j += 1;
                    while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
                        j += 1;
                    }
                }
                // Exponent.
                if j < b.len() && matches!(b[j], b'e' | b'E') {
                    let mut k = j + 1;
                    if k < b.len() && matches!(b[k], b'+' | b'-') {
                        k += 1;
                    }
                    if k < b.len() && b[k].is_ascii_digit() {
                        j = k;
                        while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
                            j += 1;
                        }
                    }
                }
                // Type suffix (f64, u32, usize, …).
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
            }
            push!(
                Kind::Num,
                String::from_utf8_lossy(&b[i..j]).into_owned(),
                line
            );
            i = j;
            continue;
        }
        // Multi-char operators, longest match first.
        let rest = &src[i..];
        if let Some(op) = OPS.iter().find(|op| rest.starts_with(**op)) {
            push!(Kind::Punct, (*op).to_string(), line);
            i += op.len();
            continue;
        }
        // Single-char punct.
        push!(Kind::Punct, (c as char).to_string(), line);
        i += 1;
    }
    toks
}

/// After a raw-string prefix (`r` / `br` consumed): zero or more `#`
/// then a `"`.
fn raw_string_follows(b: &[u8], mut i: usize) -> bool {
    while i < b.len() && b[i] == b'#' {
        i += 1;
    }
    i < b.len() && b[i] == b'"'
}

fn closing_hashes(b: &[u8], i: usize, hashes: usize) -> bool {
    (0..hashes).all(|k| i + k < b.len() && b[i + k] == b'#')
}

/// Scan a (byte-)char literal body starting just after the opening `'`;
/// returns (body text, index just past the closing `'`).
fn scan_char_body(b: &[u8], mut i: usize, line: &mut usize) -> (String, usize) {
    let start = i;
    while i < b.len() {
        if b[i] == b'\\' && i + 1 < b.len() {
            i += 2;
        } else if b[i] == b'\'' {
            let text = String::from_utf8_lossy(&b[start..i]).into_owned();
            return (text, i + 1);
        } else {
            if b[i] == b'\n' {
                *line += 1;
            }
            i += 1;
        }
    }
    (String::from_utf8_lossy(&b[start..]).into_owned(), i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<(Kind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn comments_produce_no_tokens() {
        assert!(lex("// line\n/* block */\n/// doc\n//! inner\n").is_empty());
        // Nested block comments.
        assert!(lex("/* a /* b */ c */").is_empty());
        // Code after a block comment survives.
        let t = texts("/* x */ fn f() {}");
        assert_eq!(t[0], (Kind::Ident, "fn".to_string()));
    }

    #[test]
    fn strings_are_single_tokens() {
        let t = texts(r#"let s = "a.lock() // not code";"#);
        assert_eq!(
            t.iter().filter(|(k, _)| *k == Kind::Str).count(),
            1,
            "{t:?}"
        );
        assert!(t
            .iter()
            .any(|(k, x)| *k == Kind::Str && x.contains(".lock()")));
        // Escaped quote does not end the string.
        let t = texts(r#""a\"b""#);
        assert_eq!(t, vec![(Kind::Str, "a\\\"b".to_string())]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let t = texts(r###"let s = r#"drain.lock() "quoted""#;"###);
        assert!(t
            .iter()
            .any(|(k, x)| *k == Kind::Str && x.contains("drain.lock()")));
        let t = texts("let b = br##\"x\"# y\"##;");
        assert!(t
            .iter()
            .any(|(k, x)| *k == Kind::Str && x.contains("x\"# y")));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let t = texts("let c = 'x'; let n = '\\n'; fn f<'a>(x: &'a str) {}");
        assert_eq!(t.iter().filter(|(k, _)| *k == Kind::Char).count(), 2);
        assert_eq!(
            t.iter()
                .filter(|(k, x)| *k == Kind::Lifetime && x == "a")
                .count(),
            2
        );
        let t = texts("'static");
        assert_eq!(t, vec![(Kind::Lifetime, "static".to_string())]);
    }

    #[test]
    fn nested_generics_close_cleanly() {
        let t = texts("Vec<Vec<u8>>");
        let gt: Vec<_> = t
            .iter()
            .filter(|(k, x)| *k == Kind::Punct && x == ">")
            .collect();
        assert_eq!(gt.len(), 2, "`>>` must split for generics: {t:?}");
        // But compound shift-assign stays one token.
        let t = texts("x >>= 1;");
        assert!(t.iter().any(|(k, x)| *k == Kind::Punct && x == ">>="));
    }

    #[test]
    fn float_classification() {
        let is_float = |s: &str| lex(s).first().map(Tok::is_float) == Some(true);
        assert!(is_float("1.5"));
        assert!(is_float("1_000.25"));
        assert!(is_float("2e9"));
        assert!(is_float("2.5e-3"));
        assert!(is_float("1f64"));
        assert!(!is_float("1"));
        assert!(!is_float("0x1f"));
        assert!(!is_float("1usize"));
        // `1..2` is Num, Punct(..), Num — not a float.
        let t = texts("1..2");
        assert_eq!(
            t,
            vec![
                (Kind::Num, "1".to_string()),
                (Kind::Punct, "..".to_string()),
                (Kind::Num, "2".to_string()),
            ]
        );
    }

    #[test]
    fn operators_longest_match() {
        let t = texts("a == b != c <= d => e :: f -> g");
        let ops: Vec<_> = t
            .iter()
            .filter(|(k, _)| *k == Kind::Punct)
            .map(|(_, x)| x.as_str())
            .collect();
        assert_eq!(ops, vec!["==", "!=", "<=", "=>", "::", "->"]);
    }

    #[test]
    fn line_numbers_survive_multiline_tokens() {
        let src = "a\n\"two\nlines\"\nb\n/* c\nd */\ne";
        let t = lex(src);
        let find = |name: &str| t.iter().find(|t| t.text == name).map(|t| t.line);
        assert_eq!(find("a"), Some(1));
        assert_eq!(find("two\nlines"), Some(2));
        assert_eq!(find("b"), Some(4));
        assert_eq!(find("e"), Some(7));
    }
}
