//! A token-level Rust lexer: just enough lexical structure to lint for
//! determinism hazards without parsing.
//!
//! The lexer understands the constructs that defeat naive `grep`:
//! line/doc comments, nested block comments, string and byte-string
//! literals, raw strings with any `#` count, char literals vs.
//! lifetimes, and multi-char operators (so `+=` never reads as a bare
//! `+`). Comments are dropped whatever they say.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (`HashMap`, `as`, `fn`, …).
    Ident,
    /// Operator or delimiter, multi-char ops kept whole (`::`, `+=`).
    Punct,
    /// String/char/number literal (content never matched by rules).
    Lit,
}

/// One lexeme with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Token {
    /// The lexeme kind.
    pub kind: Kind,
    /// The exact source text (literals keep only their first char to
    /// stay cheap; rules never look inside literals).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// Multi-char operators, longest first so maximal-munch works.
const OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

/// Tokenize `src` into its non-comment tokens, in source order.
pub fn lex(src: &str) -> Vec<Token> {
    let b: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    macro_rules! bump {
        ($n:expr) => {{
            for _ in 0..$n {
                if i < b.len() {
                    if b[i] == '\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
        }};
    }

    while i < b.len() {
        let c = b[i];
        let c1 = b.get(i + 1).copied().unwrap_or('\0');
        if c.is_whitespace() {
            bump!(1);
            continue;
        }
        // Line comment (also doc comments).
        if c == '/' && c1 == '/' {
            while i < b.len() && b[i] != '\n' {
                bump!(1);
            }
            continue;
        }
        // Block comment, nested.
        if c == '/' && c1 == '*' {
            bump!(2);
            let mut depth = 1;
            while i < b.len() && depth > 0 {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    bump!(2);
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    bump!(2);
                } else {
                    bump!(1);
                }
            }
            continue;
        }
        // Raw / byte strings: r"..", r#".."#, b"..", br#".."#.
        if (c == 'r' || c == 'b') && matches!(c1, '"' | '#' | 'r') {
            // Work out whether this really is a (raw) string prefix.
            let mut j = i;
            if b[j] == 'b' {
                j += 1;
            }
            let raw = b.get(j) == Some(&'r');
            if raw {
                j += 1;
            }
            let mut hashes = 0usize;
            while b.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if b.get(j) == Some(&'"') && (raw || hashes == 0) {
                let (tl, tc) = (line, col);
                bump!(j - i + 1); // prefix + opening quote
                if raw {
                    // Scan to `"` followed by `hashes` hashes.
                    'raw: while i < b.len() {
                        if b[i] == '"' {
                            let mut k = 0;
                            while k < hashes && b.get(i + 1 + k) == Some(&'#') {
                                k += 1;
                            }
                            if k == hashes {
                                bump!(1 + hashes);
                                break 'raw;
                            }
                        }
                        bump!(1);
                    }
                } else {
                    lex_str_body(&b, &mut i, &mut line, &mut col);
                }
                out.push(Token {
                    kind: Kind::Lit,
                    text: "\"".into(),
                    line: tl,
                    col: tc,
                });
                continue;
            }
            // else: plain identifier starting with r/b — fall through.
        }
        // Plain string.
        if c == '"' {
            let (tl, tc) = (line, col);
            bump!(1);
            lex_str_body(&b, &mut i, &mut line, &mut col);
            out.push(Token {
                kind: Kind::Lit,
                text: "\"".into(),
                line: tl,
                col: tc,
            });
            continue;
        }
        // Char literal vs. lifetime.
        if c == '\'' {
            let (tl, tc) = (line, col);
            let is_lifetime =
                (c1.is_alphanumeric() || c1 == '_') && b.get(i + 2) != Some(&'\'') && c1 != '\\';
            if is_lifetime {
                bump!(2);
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    bump!(1);
                }
            } else {
                bump!(1);
                if i < b.len() && b[i] == '\\' {
                    bump!(2);
                } else {
                    bump!(1);
                }
                if i < b.len() && b[i] == '\'' {
                    bump!(1);
                }
                out.push(Token {
                    kind: Kind::Lit,
                    text: "'".into(),
                    line: tl,
                    col: tc,
                });
            }
            continue;
        }
        // Identifier / keyword.
        if c.is_alphabetic() || c == '_' {
            let (tl, tc) = (line, col);
            let mut text = String::new();
            while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                text.push(b[i]);
                bump!(1);
            }
            out.push(Token {
                kind: Kind::Ident,
                text,
                line: tl,
                col: tc,
            });
            continue;
        }
        // Number literal (handles 1_000, 0xff, 1e-3, 1.5; stops before
        // `..` ranges and method calls on literals).
        if c.is_ascii_digit() {
            let (tl, tc) = (line, col);
            let mut prev = '\0';
            while i < b.len() {
                let d = b[i];
                let ok = d.is_alphanumeric()
                    || d == '_'
                    || (d == '.'
                        && b.get(i + 1).is_some_and(|n| n.is_ascii_digit())
                        && prev != '.')
                    || ((d == '+' || d == '-') && matches!(prev, 'e' | 'E'));
                if !ok {
                    break;
                }
                prev = d;
                bump!(1);
            }
            out.push(Token {
                kind: Kind::Lit,
                text: c.to_string(),
                line: tl,
                col: tc,
            });
            continue;
        }
        // Operator / punctuation (maximal munch).
        let (tl, tc) = (line, col);
        let mut matched = None;
        for op in OPS {
            if src_matches(&b, i, op) {
                matched = Some(*op);
                break;
            }
        }
        match matched {
            Some(op) => {
                out.push(Token {
                    kind: Kind::Punct,
                    text: op.to_string(),
                    line: tl,
                    col: tc,
                });
                bump!(op.chars().count());
            }
            None => {
                out.push(Token {
                    kind: Kind::Punct,
                    text: c.to_string(),
                    line: tl,
                    col: tc,
                });
                bump!(1);
            }
        }
    }
    out
}

/// Consume a non-raw string body (after the opening quote), honouring
/// `\"` and `\\` escapes, up to and including the closing quote.
fn lex_str_body(b: &[char], i: &mut usize, line: &mut u32, col: &mut u32) {
    let step = |i: &mut usize, line: &mut u32, col: &mut u32| {
        if *i < b.len() {
            if b[*i] == '\n' {
                *line += 1;
                *col = 1;
            } else {
                *col += 1;
            }
            *i += 1;
        }
    };
    while *i < b.len() {
        match b[*i] {
            '\\' => {
                step(i, line, col);
                step(i, line, col);
            }
            '"' => {
                step(i, line, col);
                return;
            }
            _ => step(i, line, col),
        }
    }
}

fn src_matches(b: &[char], i: usize, op: &str) -> bool {
    op.chars()
        .enumerate()
        .all(|(k, c)| b.get(i + k) == Some(&c))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let src = r##"
            // HashMap in a comment
            /* HashMap /* nested */ still comment */
            let s = "HashMap::new()";
            let r = r#"HashMap"#;
            let real = BTreeMap::new();
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(ids.contains(&"BTreeMap".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(ids.contains(&"str".to_string()));
        let toks = lex("let c = 'x'; let nl = '\\n';");
        let lits = toks.iter().filter(|t| t.kind == Kind::Lit).count();
        assert_eq!(lits, 2);
    }

    #[test]
    fn multichar_ops_stay_whole() {
        let toks = lex("a += b; c -> d; e..f; g + h");
        let puncts: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == Kind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        assert!(puncts.contains(&"+="));
        assert!(puncts.contains(&"->"));
        assert!(puncts.contains(&".."));
        assert!(puncts.contains(&"+"));
        assert_eq!(puncts.iter().filter(|p| **p == "+").count(), 1);
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let toks = lex("for i in 0..10 { let x = 1.5e-3; let y = 2.max(3); }");
        let puncts: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == Kind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        assert!(puncts.contains(&".."));
        // `-` inside 1.5e-3 must not surface as an operator token.
        assert!(!puncts.contains(&"-"), "{puncts:?}");
        assert!(lex("2.max(3)").iter().any(|t| t.text == "max"));
    }

    #[test]
    fn raw_byte_strings_and_idents_starting_with_r() {
        let ids = idents("let raw = br#\"HashMap\"#; let rx = r; let b2 = b'x';");
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(ids.contains(&"rx".to_string()));
    }

    #[test]
    fn positions_are_one_based() {
        let toks = lex("ab\n  cd");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }
}
