//! Source stripping and a minimal Rust token lexer for the analysis
//! engine.
//!
//! [`strip_code`] blanks comments, strings, and char literals, and
//! [`strip_cfg_test`] blanks `#[cfg(test)]` items, both preserving line
//! structure; [`lex`] then only has to recognize identifiers, numbers,
//! lifetimes, and punctuation — and can do so with exact line numbers,
//! which is all the call-graph and fact-inference passes need. It is
//! deliberately *not* a full Rust lexer: everything it cannot classify
//! becomes a one-character punctuation token, which downstream passes
//! simply skip.

/// Replaces comments, string literals, and char literals with spaces,
/// preserving line structure so findings keep their line numbers.
/// String *delimiters* are kept (`"x y"` becomes `"   "`) so downstream
/// token scans can still tell `.join(" ")` — a non-empty argument list —
/// from a genuinely blocking `.join()`.
pub fn strip_code(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out: Vec<char> = Vec::with_capacity(b.len());
    let mut i = 0;
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < b.len() {
        match b[i] {
            '/' if i + 1 < b.len() && b[i + 1] == '/' => {
                while i < b.len() && b[i] != '\n' {
                    out.push(' ');
                    i += 1;
                }
            }
            '/' if i + 1 < b.len() && b[i + 1] == '*' => {
                let mut depth = 1;
                out.push(' ');
                out.push(' ');
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                        depth += 1;
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                        depth -= 1;
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    } else {
                        out.push(blank(b[i]));
                        i += 1;
                    }
                }
            }
            'r' if i + 1 < b.len() && (b[i + 1] == '"' || b[i + 1] == '#') => {
                // Raw string r"…" / r#"…"# (any hash count).
                let start = i;
                let mut j = i + 1;
                let mut hashes = 0;
                while j < b.len() && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == '"' {
                    out.push(' ');
                    out.extend(std::iter::repeat_n(' ', hashes));
                    out.push('"');
                    i = j + 1;
                    'raw: while i < b.len() {
                        if b[i] == '"' {
                            let mut k = i + 1;
                            let mut h = 0;
                            while k < b.len() && b[k] == '#' && h < hashes {
                                h += 1;
                                k += 1;
                            }
                            if h == hashes {
                                out.push('"');
                                out.extend(std::iter::repeat_n(' ', hashes));
                                i = k;
                                break 'raw;
                            }
                        }
                        out.push(blank(b[i]));
                        i += 1;
                    }
                } else {
                    out.push(b[start]);
                    i = start + 1;
                }
            }
            '"' => {
                out.push('"');
                i += 1;
                while i < b.len() {
                    if b[i] == '\\' && i + 1 < b.len() {
                        out.push(' ');
                        out.push(blank(b[i + 1]));
                        i += 2;
                    } else if b[i] == '"' {
                        out.push('"');
                        i += 1;
                        break;
                    } else {
                        out.push(blank(b[i]));
                        i += 1;
                    }
                }
            }
            '\'' => {
                // Char literal vs. lifetime: a literal closes with a
                // quote after one (possibly escaped) character.
                let is_char = if i + 2 < b.len() && b[i + 1] == '\\' {
                    true
                } else {
                    i + 2 < b.len() && b[i + 2] == '\''
                };
                if is_char {
                    out.push(' ');
                    i += 1;
                    if i < b.len() && b[i] == '\\' {
                        out.push(' ');
                        i += 1;
                        // Escapes like \n, \x7f, \u{..}: skip to quote.
                        while i < b.len() && b[i] != '\'' {
                            out.push(blank(b[i]));
                            i += 1;
                        }
                    } else if i < b.len() {
                        out.push(blank(b[i]));
                        i += 1;
                    }
                    if i < b.len() && b[i] == '\'' {
                        out.push(' ');
                        i += 1;
                    }
                } else {
                    out.push('\'');
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    out.into_iter().collect()
}

/// Matches a `#[cfg(test)]` attribute starting at `start` (which must
/// be a `#`), tolerating whitespace between every token — rustfmt and
/// humans both produce variants like `#[cfg( test )]` or `#[ cfg(test) ]`.
/// Returns the index just past the closing `]`. Does not match compound
/// predicates (`#[cfg(not(test))]`, `#[cfg(test, feature = ..)]`).
fn match_cfg_test(chars: &[char], start: usize) -> Option<usize> {
    fn eat(chars: &[char], i: &mut usize, tok: &str) -> bool {
        while *i < chars.len() && chars[*i].is_whitespace() {
            *i += 1;
        }
        let t: Vec<char> = tok.chars().collect();
        if *i + t.len() <= chars.len() && chars[*i..*i + t.len()] == t[..] {
            *i += t.len();
            true
        } else {
            false
        }
    }
    let mut i = start;
    for tok in ["#", "[", "cfg", "(", "test", ")", "]"] {
        if !eat(chars, &mut i, tok) {
            return None;
        }
        // Identifier tokens must end at a word boundary: `test` must
        // not match the prefix of `testing`.
        if matches!(tok, "cfg" | "test")
            && chars
                .get(i)
                .is_some_and(|c| c.is_alphanumeric() || *c == '_')
        {
            return None;
        }
    }
    Some(i)
}

/// Blanks every `#[cfg(test)]` item (attribute through the matching
/// close brace, or the terminating `;`), preserving line structure.
/// Input should already be comment/string-stripped.
pub fn strip_cfg_test(stripped: &str) -> String {
    let mut out: Vec<char> = stripped.chars().collect();
    let mut i = 0;
    while i < out.len() {
        if out[i] != '#' {
            i += 1;
            continue;
        }
        let Some(after) = match_cfg_test(&out, i) else {
            i += 1;
            continue;
        };
        let start = i;
        let mut j = after;
        // Skip further attributes and the item header to the first `{`
        // or a `;` at zero brace depth (e.g. `#[cfg(test)] mod t;`).
        let mut end = None;
        while j < out.len() {
            match out[j] {
                '{' => {
                    let mut depth = 0usize;
                    while j < out.len() {
                        match out[j] {
                            '{' => depth += 1,
                            '}' => {
                                depth -= 1;
                                if depth == 0 {
                                    end = Some(j + 1);
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    break;
                }
                ';' => {
                    end = Some(j + 1);
                    break;
                }
                _ => j += 1,
            }
        }
        let end = end.unwrap_or(out.len());
        for c in out.iter_mut().take(end).skip(start) {
            if *c != '\n' {
                *c = ' ';
            }
        }
        i = end;
    }
    out.into_iter().collect()
}

/// The coarse token classes the analyzer distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `Frame`, `unwrap`, …).
    Ident,
    /// A numeric literal (including suffixed forms like `0u32`).
    Num,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// The path separator `::`.
    PathSep,
    /// The thin arrow `->` (kept whole so `>` never miscounts generics).
    Arrow,
    /// The fat arrow `=>`.
    FatArrow,
    /// Any single punctuation character (`(`, `{`, `.`, `!`, …).
    Punct(char),
}

/// One token: byte span into the stripped source plus its line number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tok {
    /// Byte offset of the token start in the stripped source.
    pub start: u32,
    /// Byte length of the token.
    pub len: u32,
    /// 1-based line number.
    pub line: u32,
    /// Token class.
    pub kind: TokKind,
}

impl Tok {
    /// The token's text within its source.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start as usize..(self.start + self.len) as usize]
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Lexes stripped source into tokens with line numbers.
///
/// Guarantees: every identifier in the input appears as exactly one
/// [`TokKind::Ident`] token (no substring confusion — `MutexLikeStats`
/// is one token, not `Mutex` plus trailing noise), `::` and `->`/`=>`
/// are single tokens, and line numbers match the original source
/// because stripping preserves line structure.
pub fn lex(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::with_capacity(src.len() / 4);
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            c if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                toks.push(Tok {
                    start: start as u32,
                    len: (i - start) as u32,
                    line,
                    kind: TokKind::Ident,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                // Numeric literal with suffix/underscores/hex chars; a
                // trailing `.` of a float is consumed only when followed
                // by a digit so method calls on integers stay separate.
                while i < b.len()
                    && (is_ident_continue(b[i])
                        || (b[i] == b'.' && i + 1 < b.len() && b[i + 1].is_ascii_digit()))
                {
                    i += 1;
                }
                toks.push(Tok {
                    start: start as u32,
                    len: (i - start) as u32,
                    line,
                    kind: TokKind::Num,
                });
            }
            b'\'' => {
                // Char literals were stripped, so a quote here starts a
                // lifetime (or is stray punctuation).
                if i + 1 < b.len() && is_ident_start(b[i + 1]) {
                    let start = i;
                    i += 1;
                    while i < b.len() && is_ident_continue(b[i]) {
                        i += 1;
                    }
                    toks.push(Tok {
                        start: start as u32,
                        len: (i - start) as u32,
                        line,
                        kind: TokKind::Lifetime,
                    });
                } else {
                    toks.push(Tok {
                        start: i as u32,
                        len: 1,
                        line,
                        kind: TokKind::Punct('\''),
                    });
                    i += 1;
                }
            }
            b':' if i + 1 < b.len() && b[i + 1] == b':' => {
                toks.push(Tok {
                    start: i as u32,
                    len: 2,
                    line,
                    kind: TokKind::PathSep,
                });
                i += 2;
            }
            b'-' if i + 1 < b.len() && b[i + 1] == b'>' => {
                toks.push(Tok {
                    start: i as u32,
                    len: 2,
                    line,
                    kind: TokKind::Arrow,
                });
                i += 2;
            }
            b'=' if i + 1 < b.len() && b[i + 1] == b'>' => {
                toks.push(Tok {
                    start: i as u32,
                    len: 2,
                    line,
                    kind: TokKind::FatArrow,
                });
                i += 2;
            }
            c => {
                toks.push(Tok {
                    start: i as u32,
                    len: 1,
                    line,
                    kind: TokKind::Punct(c as char),
                });
                i += 1;
            }
        }
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<(&str, TokKind)> {
        lex(src).iter().map(|t| (t.text(src), t.kind)).collect()
    }

    #[test]
    fn idents_and_paths() {
        let src = "std::thread::spawn";
        let got = texts(src);
        assert_eq!(
            got,
            vec![
                ("std", TokKind::Ident),
                ("::", TokKind::PathSep),
                ("thread", TokKind::Ident),
                ("::", TokKind::PathSep),
                ("spawn", TokKind::Ident),
            ]
        );
    }

    #[test]
    fn identifiers_are_atomic() {
        // `MutexLikeStats` must be one token, never a `Mutex` prefix.
        let got = texts("MutexLikeStats my_mpsc_queue");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, "MutexLikeStats");
        assert_eq!(got[1].0, "my_mpsc_queue");
    }

    #[test]
    fn arrows_stay_whole_so_generics_balance() {
        let src = "fn f<F: Fn(u8) -> u8>(g: F) -> Vec<Vec<u8>> {}";
        let toks = lex(src);
        let arrows = toks.iter().filter(|t| t.kind == TokKind::Arrow).count();
        assert_eq!(arrows, 2);
        // `>>` is two distinct `>` tokens so nested generics close twice.
        let gts = toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct('>'))
            .count();
        assert_eq!(gts, 3); // fn-generics closer + two Vec closers
    }

    #[test]
    fn lifetimes_are_not_idents() {
        let src = "fn f<'a>(x: &'a str) {}";
        let toks = lex(src);
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let src = "a\nb\n\nc";
        let toks = lex(src);
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn numeric_literals_swallow_suffixes_not_method_calls() {
        let src = "1u32 0x7f 1_000 3.5 7.max(2)";
        let toks = lex(src);
        let nums: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(nums, vec!["1u32", "0x7f", "1_000", "3.5", "7", "2"]);
        // `.max` survives as a method call.
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text(src) == "max"));
    }

    #[test]
    fn strip_removes_comments_and_strings_but_keeps_lines() {
        let src = "let a = \"Instant::now()\"; // SystemTime\nlet b = 1;\n";
        let out = strip_code(src);
        assert!(!out.contains("Instant"));
        assert!(!out.contains("SystemTime"));
        assert!(out.contains("let b = 1;"));
        assert_eq!(src.matches('\n').count(), out.matches('\n').count());
    }

    #[test]
    fn strip_handles_raw_strings_and_chars() {
        let src = "let s = r#\"panic!(\"x\")\"#; let c = '\"'; let l: &'static str = s;";
        let out = strip_code(src);
        assert!(!out.contains("panic!"));
        assert!(out.contains("&'static str"));
    }

    #[test]
    fn cfg_test_blocks_are_blanked() {
        let src = "fn live() { now() }\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let out = strip_cfg_test(&strip_code(src));
        assert!(out.contains("fn live"));
        assert!(out.contains("fn after"));
        assert!(!out.contains("unwrap"));
        assert_eq!(src.matches('\n').count(), out.matches('\n').count());
    }

    #[test]
    fn cfg_test_spacing_variants_are_blanked() {
        // Spaced attribute tokens, as rustfmt or a human might write.
        let spaced = "fn live() {}\n#[cfg( test )]\nmod tests { fn t() { x.unwrap(); } }\n";
        let out = strip_cfg_test(&strip_code(spaced));
        assert!(out.contains("fn live"));
        assert!(!out.contains("unwrap"));
        // One-line out-of-line test module declaration.
        let one_line = "#[cfg(test)] mod t;\nfn live() { now() }\n";
        let out = strip_cfg_test(&strip_code(one_line));
        assert!(!out.contains("mod t"));
        assert!(out.contains("fn live"));
        // Near-misses must be left alone: compound predicates and
        // longer identifiers are not test-only code.
        let near = "#[cfg(not(test))]\nfn prod() { x.unwrap(); }\n#[cfg(testing)]\nfn odd() {}\n";
        let out = strip_cfg_test(&strip_code(near));
        assert!(out.contains("unwrap"));
        assert!(out.contains("fn odd"));
    }
}
