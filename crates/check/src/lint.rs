//! Repo-specific source lints for the sans-io discipline.
//!
//! These are deliberately *textual* (comment/string stripping plus
//! brace matching — no rustc, no syn): they run offline in milliseconds
//! and enforce rules clippy has no names for:
//!
//! 1. **No wall-clock reads in protocol crates.** The sans-io crates
//!    (`proto`, `diff`, `compress`, `version`, `cache`, `client`,
//!    `server`, `runtime`, `obs`) must take time as an argument;
//!    `SystemTime` and `Instant::now` are banned there. The single
//!    allowlisted file is `crates/runtime/src/clock.rs`, the one place
//!    wall time is permitted to enter the system.
//! 2. **No panics in wire-decode paths.** `crates/proto/src/wire.rs`
//!    parses bytes from the network; outside `#[cfg(test)]` it must not
//!    contain `unwrap`/`expect`/`panic!`-family macros or panicking
//!    index expressions — malformed input must surface as `WireError`.
//! 3. **Variant coverage.** Every `ClientMessage`/`ServerMessage`
//!    variant must appear in the proto round-trip property tests, and
//!    every `DriverEvent` variant (declared in `crates/obs`) must
//!    actually be emitted by a driver in `crates/runtime` (dead
//!    instrumentation variants rot silently otherwise).
//! 4. **Panic-free observability.** `crates/obs` is instrumentation:
//!    it runs inside drivers and event hooks, so outside `#[cfg(test)]`
//!    it must not contain `unwrap`/`expect`/`panic!`-family macros —
//!    a metrics bug must never take down a protocol node.
//! 5. **No per-line heap allocation in diff hot modules.** The
//!    zero-copy diff pipeline's whole point is that steady-state diffs
//!    allocate nothing per line: the hot modules of `crates/diff`
//!    (`docbuf.rs`, `scratch.rs`, `zerocopy.rs`, `edscript.rs`,
//!    `hunt_mcilroy.rs`, `myers.rs`, `chunk.rs`) must not call
//!    `.to_vec()` or `format!(` outside `#[cfg(test)]`.
//! 6. **No threading in the protocol state machines.** The sharded
//!    server runtime works precisely because a `ServerNode` is a pure
//!    state machine that can be moved onto any worker thread without
//!    locks; `std::thread`, `Mutex`, and `mpsc` are therefore banned
//!    from the pure crates (`proto`, `diff`, `compress`, `version`,
//!    `cache`, `client`, `server`). Concurrency lives only in
//!    `runtime` (the shard workers), `netsim`, and the deployment
//!    adapters in `core`.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose sources must stay free of wall-clock reads.
const SANS_IO_CRATES: &[&str] = &[
    "proto", "diff", "compress", "version", "cache", "client", "server", "runtime", "obs",
];

/// Files exempt from the wall-clock rule (path suffix match).
const WALL_CLOCK_ALLOW: &[&str] = &["crates/runtime/src/clock.rs"];

/// Hot modules of the zero-copy diff pipeline: no per-line heap
/// allocation allowed (path suffix match).
const DIFF_HOT_FILES: &[&str] = &[
    "crates/diff/src/docbuf.rs",
    "crates/diff/src/scratch.rs",
    "crates/diff/src/zerocopy.rs",
    "crates/diff/src/edscript.rs",
    "crates/diff/src/hunt_mcilroy.rs",
    "crates/diff/src/myers.rs",
    "crates/diff/src/chunk.rs",
];

/// Crates that must stay free of threading primitives: these are the
/// pure state machines the sharded runtime moves freely across worker
/// threads. `runtime` and `core` are deliberately absent — they own the
/// threads and channels.
const THREAD_FREE_CRATES: &[&str] = &[
    "proto", "diff", "compress", "version", "cache", "client", "server",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line number (0 when the finding is file-level).
    pub line: usize,
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

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
            && chars.get(i).is_some_and(|c| c.is_alphanumeric() || *c == '_')
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

fn line_of(text: &str, byte_idx: usize) -> usize {
    text[..byte_idx].chars().filter(|c| *c == '\n').count() + 1
}

fn find_token(stripped: &str, token: &str) -> Vec<usize> {
    let mut lines = Vec::new();
    let mut from = 0;
    while let Some(pos) = stripped[from..].find(token) {
        let at = from + pos;
        lines.push(line_of(stripped, at));
        from = at + token.len();
    }
    lines
}

/// Like [`find_token`], but the match must sit on identifier word
/// boundaries: a type named `MutexLikeStats` or a field named
/// `my_mpsc_queue` merely *contains* the token and is not a use of it.
fn find_ident_token(stripped: &str, token: &str) -> Vec<usize> {
    let bytes = stripped.as_bytes();
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut lines = Vec::new();
    let mut from = 0;
    while let Some(pos) = stripped[from..].find(token) {
        let at = from + pos;
        let end = at + token.len();
        let before_ok = at == 0 || !is_word(bytes[at - 1]);
        let after_ok = end >= bytes.len() || !is_word(bytes[end]);
        if before_ok && after_ok {
            lines.push(line_of(stripped, at));
        }
        from = end;
    }
    lines
}

/// Rule 1: wall-clock reads in a sans-io source file.
pub fn check_wall_clock(label: &str, code: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for token in ["SystemTime", "Instant::now"] {
        for line in find_token(code, token) {
            findings.push(Finding {
                file: label.to_string(),
                line,
                rule: "wall-clock",
                message: format!(
                    "`{token}` in a sans-io crate: time must arrive as an \
                     argument (now_ms) or through the runtime Clock"
                ),
            });
        }
    }
    findings
}

/// Rule 2: panicking constructs in a wire-decode source file
/// (input already comment/string/test-stripped).
pub fn check_decode_panics(label: &str, code: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for token in [
        ".unwrap()",
        ".expect(",
        "panic!(",
        "unreachable!(",
        "todo!(",
        "unimplemented!(",
    ] {
        for line in find_token(code, token) {
            findings.push(Finding {
                file: label.to_string(),
                line,
                rule: "decode-panic",
                message: format!(
                    "`{token}` in a wire-decode path: malformed network \
                     bytes must produce WireError, never a panic"
                ),
            });
        }
    }
    // Index expressions `expr[...]`: '[' directly preceded by an
    // identifier character or a closing paren/bracket. Attributes
    // (`#[`), slice types (`&[u8]`), and array literals (`([1, 2]`)
    // all have non-expression characters before '['.
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' || i == 0 {
            continue;
        }
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' || prev == ')' || prev == ']' {
            let byte_idx = chars[..i].iter().map(|ch| ch.len_utf8()).sum();
            findings.push(Finding {
                file: label.to_string(),
                line: line_of(code, byte_idx),
                rule: "decode-panic",
                message: "index expression in a wire-decode path can panic \
                          on truncated input; use `get`/`first_chunk`"
                    .to_string(),
            });
        }
    }
    findings.sort_by_key(|f| f.line);
    findings
}

/// Rule 4: panic-family macros or `unwrap`/`expect` in observability
/// sources (input already comment/string/test-stripped). Unlike the
/// wire-decode rule this does not flag index expressions — slicing a
/// histogram bucket table by a bounds-checked index is fine; explicit
/// panics and unwraps are not.
pub fn check_obs_panics(label: &str, code: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for token in [
        ".unwrap()",
        ".expect(",
        "panic!(",
        "unreachable!(",
        "todo!(",
        "unimplemented!(",
    ] {
        for line in find_token(code, token) {
            findings.push(Finding {
                file: label.to_string(),
                line,
                rule: "obs-panic",
                message: format!(
                    "`{token}` in the observability crate: instrumentation \
                     must degrade (drop the sample, count the error), never \
                     take down the node it is measuring"
                ),
            });
        }
    }
    findings.sort_by_key(|f| f.line);
    findings
}

/// Rule 5: heap allocation in a diff hot module (input already
/// comment/string/test-stripped). `.to_vec()` copies a borrowed slice and
/// `format!(` renders a fresh `String`; either in the hot path (error
/// reporting included) silently reintroduces the allocation profile the
/// zero-copy pipeline exists to remove.
pub fn check_diff_hot_alloc(label: &str, code: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for token in [".to_vec()", "format!("] {
        for line in find_token(code, token) {
            findings.push(Finding {
                file: label.to_string(),
                line,
                rule: "diff-hot-alloc",
                message: format!(
                    "`{token}` in a diff hot module: the zero-copy pipeline \
                     must not allocate; borrow the bytes, and render error \
                     messages in `Display`"
                ),
            });
        }
    }
    findings.sort_by_key(|f| f.line);
    findings
}

/// Rule 6: threading primitives in a pure protocol crate (input already
/// comment/string/test-stripped). A `ServerNode`/`ClientNode` that
/// spawned threads or hid a `Mutex` could no longer be handed whole to
/// a shard worker; domain-affine sharding depends on these crates
/// staying single-threaded values.
pub fn check_thread_purity(label: &str, code: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for token in ["std::thread", "Mutex", "mpsc"] {
        for line in find_ident_token(code, token) {
            findings.push(Finding {
                file: label.to_string(),
                line,
                rule: "thread-purity",
                message: format!(
                    "`{token}` in a pure protocol crate: state machines \
                     must stay lock- and thread-free so the sharded \
                     runtime can own one per worker; concurrency belongs \
                     in crates/runtime or the deployment adapters"
                ),
            });
        }
    }
    findings.sort_by_key(|f| f.line);
    findings
}

/// Extracts the variant names of `enum <name>` from stripped source.
pub fn enum_variants(stripped: &str, name: &str) -> Vec<String> {
    let header = format!("enum {name}");
    let Some(pos) = stripped.find(&header) else {
        return Vec::new();
    };
    let body_start = match stripped[pos..].find('{') {
        Some(off) => pos + off + 1,
        None => return Vec::new(),
    };
    let mut variants = Vec::new();
    let mut depth = 1usize;
    let mut chars = stripped[body_start..].char_indices().peekable();
    let mut at_variant_start = true;
    while let Some((_, c)) = chars.next() {
        match c {
            '{' | '(' => depth += 1,
            '}' | ')' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
                if depth == 1 {
                    at_variant_start = true;
                }
            }
            ',' if depth == 1 => at_variant_start = true,
            '#' if depth == 1 => {
                // Attribute: skip the bracketed group.
                if let Some((_, '[')) = chars.peek().copied() {
                    let mut d = 0;
                    for (_, c2) in chars.by_ref() {
                        match c2 {
                            '[' => d += 1,
                            ']' => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                }
            }
            c if depth == 1 && at_variant_start && c.is_ascii_uppercase() => {
                let mut ident = String::new();
                ident.push(c);
                while let Some(&(_, c2)) = chars.peek() {
                    if c2.is_alphanumeric() || c2 == '_' {
                        ident.push(c2);
                        chars.next();
                    } else {
                        break;
                    }
                }
                variants.push(ident);
                at_variant_start = false;
            }
            _ => {}
        }
    }
    variants
}

fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rust_files_under(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Runs every lint over the workspace rooted at `root` (the directory
/// containing `crates/`). Returns all findings; empty means clean.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();

    // Rule 1: wall-clock reads in sans-io crates.
    for krate in SANS_IO_CRATES {
        let src_dir = root.join("crates").join(krate).join("src");
        let mut files = Vec::new();
        rust_files_under(&src_dir, &mut files)?;
        files.sort();
        for path in files {
            let label = rel_label(root, &path);
            if WALL_CLOCK_ALLOW.iter().any(|a| label.ends_with(a)) {
                continue;
            }
            let code = strip_cfg_test(&strip_code(&fs::read_to_string(&path)?));
            findings.extend(check_wall_clock(&label, &code));
        }
    }

    // Rule 2: panic-free wire decoding.
    let wire = root.join("crates/proto/src/wire.rs");
    if wire.exists() {
        let code = strip_cfg_test(&strip_code(&fs::read_to_string(&wire)?));
        findings.extend(check_decode_panics(&rel_label(root, &wire), &code));
    } else {
        findings.push(Finding {
            file: "crates/proto/src/wire.rs".to_string(),
            line: 0,
            rule: "decode-panic",
            message: "wire.rs not found; cannot verify decode paths".to_string(),
        });
    }

    // Rule 3a: every wire-visible variant is round-trip tested — the
    // top-level messages plus every payload enum a frame can carry.
    let message_src = strip_code(
        &fs::read_to_string(root.join("crates/proto/src/message.rs")).unwrap_or_default(),
    );
    let prop_path = root.join("crates/proto/tests/prop.rs");
    let prop_src = strip_code(&fs::read_to_string(&prop_path).unwrap_or_default());
    for enum_name in [
        "ClientMessage",
        "ServerMessage",
        "TransferEncoding",
        "UpdatePayload",
        "OutputPayload",
        "JobStatus",
    ] {
        let variants = enum_variants(&message_src, enum_name);
        if variants.is_empty() {
            findings.push(Finding {
                file: "crates/proto/src/message.rs".to_string(),
                line: 0,
                rule: "variant-coverage",
                message: format!("could not locate `enum {enum_name}`"),
            });
            continue;
        }
        for v in variants {
            if !prop_src.contains(&format!("{enum_name}::{v}")) {
                findings.push(Finding {
                    file: rel_label(root, &prop_path),
                    line: 0,
                    rule: "variant-coverage",
                    message: format!(
                        "{enum_name}::{v} never appears in the round-trip \
                         property tests"
                    ),
                });
            }
        }
    }

    // Rule 3b: every DriverEvent variant is emitted by some driver.
    // The enum lives in the observability crate; the emitters are the
    // drivers in crates/runtime.
    let event_path = root.join("crates/obs/src/event.rs");
    let event_src = strip_code(&fs::read_to_string(&event_path).unwrap_or_default());
    let variants = enum_variants(&event_src, "DriverEvent");
    if variants.is_empty() {
        findings.push(Finding {
            file: rel_label(root, &event_path),
            line: 0,
            rule: "variant-coverage",
            message: "could not locate `enum DriverEvent`".to_string(),
        });
    } else {
        let mut emitters = String::new();
        let mut files = Vec::new();
        rust_files_under(&root.join("crates/runtime/src"), &mut files)?;
        files.sort();
        for path in files {
            if path.ends_with("event.rs") {
                continue;
            }
            emitters.push_str(&strip_code(&fs::read_to_string(&path)?));
        }
        for v in variants {
            if !emitters.contains(&format!("DriverEvent::{v}")) {
                findings.push(Finding {
                    file: rel_label(root, &event_path),
                    line: 0,
                    rule: "variant-coverage",
                    message: format!(
                        "DriverEvent::{v} is declared but no driver emits it"
                    ),
                });
            }
        }
    }

    // Rule 3c: every shard control command is actually handled by the
    // worker loop. A `ShardCommand` variant nothing in shard.rs matches
    // on would sit in an inbox forever — the silent-shutdown bug class.
    let shard_path = root.join("crates/runtime/src/shard.rs");
    let shard_src = strip_code(&fs::read_to_string(&shard_path).unwrap_or_default());
    let variants = enum_variants(&shard_src, "ShardCommand");
    if variants.is_empty() {
        findings.push(Finding {
            file: rel_label(root, &shard_path),
            line: 0,
            rule: "variant-coverage",
            message: "could not locate `enum ShardCommand`".to_string(),
        });
    } else {
        for v in variants {
            if !shard_src.contains(&format!("ShardCommand::{v}")) {
                findings.push(Finding {
                    file: rel_label(root, &shard_path),
                    line: 0,
                    rule: "variant-coverage",
                    message: format!(
                        "ShardCommand::{v} is declared but never matched in \
                         the shard worker loop"
                    ),
                });
            }
        }
    }

    // Rule 5: diff hot modules never allocate per line.
    for hot in DIFF_HOT_FILES {
        let path = root.join(hot);
        if !path.exists() {
            continue; // module not grown yet; nothing to check
        }
        let code = strip_cfg_test(&strip_code(&fs::read_to_string(&path)?));
        findings.extend(check_diff_hot_alloc(&rel_label(root, &path), &code));
    }

    // Rule 6: the pure protocol crates stay thread-free.
    for krate in THREAD_FREE_CRATES {
        let src_dir = root.join("crates").join(krate).join("src");
        let mut files = Vec::new();
        rust_files_under(&src_dir, &mut files)?;
        files.sort();
        for path in files {
            let label = rel_label(root, &path);
            let code = strip_cfg_test(&strip_code(&fs::read_to_string(&path)?));
            findings.extend(check_thread_purity(&label, &code));
        }
    }

    // Rule 4: the observability crate never panics outside tests.
    let obs_dir = root.join("crates/obs/src");
    let mut obs_files = Vec::new();
    rust_files_under(&obs_dir, &mut obs_files)?;
    obs_files.sort();
    for path in obs_files {
        let code = strip_cfg_test(&strip_code(&fs::read_to_string(&path)?));
        findings.extend(check_obs_panics(&rel_label(root, &path), &code));
    }

    Ok(findings)
}

/// Walks upward from `start` to the workspace root (the directory
/// containing `crates/proto`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("crates/proto").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn wall_clock_rule_fires_on_violations() {
        let bad = "fn f() { let t = std::time::Instant::now(); }";
        let findings = check_wall_clock("x.rs", &strip_code(bad));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "wall-clock");
        assert!(check_wall_clock("x.rs", "fn f(now_ms: u64) {}").is_empty());
    }

    #[test]
    fn decode_panic_rule_fires_on_unwrap_and_indexing() {
        let bad = "fn d(b: &[u8]) { let x = b[0]; let y = h.unwrap(); }";
        let findings = check_decode_panics("wire.rs", &strip_code(bad));
        assert_eq!(findings.len(), 2);
        let ok = "fn d(b: &[u8]) -> Option<u8> { b.first().copied() }";
        assert!(check_decode_panics("wire.rs", &strip_code(ok)).is_empty());
    }

    #[test]
    fn decode_panic_rule_ignores_types_attrs_and_literals() {
        let ok = "#[derive(Debug)]\nfn d(b: &[u8], a: [u8; 4]) { let v = vec![1, 2]; }";
        // `vec![` is macro-bang-bracket: '!' precedes '[', not an ident.
        assert!(check_decode_panics("wire.rs", &strip_code(ok)).is_empty());
    }

    #[test]
    fn diff_hot_alloc_rule_fires_on_per_line_allocation() {
        let bad = "fn f(l: &[u8]) { let a = l.to_vec(); let b = format!(\"{}\", a.len()); }";
        let findings = check_diff_hot_alloc("zerocopy.rs", &strip_code(bad));
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.rule == "diff-hot-alloc"));
        let ok = "fn f(doc: &DocBuf, i: usize) -> &[u8] { doc.line(i) }";
        assert!(check_diff_hot_alloc("zerocopy.rs", &strip_code(ok)).is_empty());
        // Test code is stripped before the rule runs, like the other rules.
        let test_only =
            "#[cfg(test)]\nmod tests {\n    fn t() { let v = b\"x\".to_vec(); }\n}\n";
        assert!(
            check_diff_hot_alloc("zerocopy.rs", &strip_cfg_test(&strip_code(test_only)))
                .is_empty()
        );
    }

    #[test]
    fn diff_hot_alloc_rule_covers_the_chunk_module() {
        // The chunk codec is part of the zero-copy hot path: an injected
        // per-line/per-span allocation in chunk.rs must trip the rule.
        assert!(DIFF_HOT_FILES.contains(&"crates/diff/src/chunk.rs"));
        let bad = "fn emit(span: &[u8]) { let copy = span.to_vec(); }";
        let findings = check_diff_hot_alloc("crates/diff/src/chunk.rs", &strip_code(bad));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "diff-hot-alloc");
    }

    #[test]
    fn diff_hot_alloc_rule_covers_the_error_module() {
        // Malformed-script errors are built on `apply_delta`'s path: a
        // message rendered eagerly in edscript.rs must trip the rule.
        assert!(DIFF_HOT_FILES.contains(&"crates/diff/src/edscript.rs"));
        let bad = "fn unknown_op(op: u8) -> ParseError { reason(format!(\"{op}\")) }";
        let findings = check_diff_hot_alloc("crates/diff/src/edscript.rs", &strip_code(bad));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "diff-hot-alloc");
    }

    #[test]
    fn obs_panic_rule_fires_on_macros_but_not_indexing() {
        let bad = "fn f(v: &[u64]) { let x = v.first().unwrap(); panic!(\"no\"); }";
        let findings = check_obs_panics("obs.rs", &strip_code(bad));
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.rule == "obs-panic"));
        // Index expressions are allowed here, unlike in wire decode.
        let ok = "fn f(v: &[u64], i: usize) -> u64 { if i < v.len() { v[i] } else { 0 } }";
        assert!(check_obs_panics("obs.rs", &strip_code(ok)).is_empty());
    }

    #[test]
    fn thread_purity_rule_fires_on_threading_primitives() {
        let bad = "use std::sync::Mutex;\nfn f() { std::thread::spawn(|| {}); }\n";
        let findings = check_thread_purity("node.rs", &strip_code(bad));
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.rule == "thread-purity"));
        // Pure state-machine code — and mentions in comments/strings —
        // are fine.
        let ok = "// runs on whatever thread the runtime picks\nfn f(now_ms: u64) {}\n";
        assert!(check_thread_purity("node.rs", &strip_code(ok)).is_empty());
        // Test modules may use channels (e.g. scripted harnesses).
        let test_only =
            "#[cfg(test)]\nmod tests {\n    use std::sync::mpsc;\n    fn t() {}\n}\n";
        assert!(
            check_thread_purity("node.rs", &strip_cfg_test(&strip_code(test_only)))
                .is_empty()
        );
    }

    #[test]
    fn thread_purity_matches_whole_identifiers_only() {
        // Identifiers merely *containing* a forbidden token are fine.
        let ok = "struct MutexLikeStats { held_ns: u64 }\nfn f(my_mpsc_queue: &MutexLikeStats) {}\n";
        assert!(check_thread_purity("node.rs", &strip_code(ok)).is_empty());
        // The real tokens still fire, including in qualified paths.
        let bad = "fn f() { let m: Mutex<u8> = x; let (tx, rx) = mpsc::channel(); }";
        let findings = check_thread_purity("node.rs", &strip_code(bad));
        assert_eq!(findings.len(), 2);
    }

    #[test]
    fn enum_variants_are_extracted_with_fields_and_attrs() {
        let src = "
            pub enum Msg {
                /// doc
                Plain,
                #[allow(dead_code)]
                WithFields { a: u32, b: Vec<Inner> },
                Tuple(u8, String),
            }
            pub enum Other { NotMe }
        ";
        let v = enum_variants(&strip_code(src), "Msg");
        assert_eq!(v, vec!["Plain", "WithFields", "Tuple"]);
        assert_eq!(enum_variants(&strip_code(src), "Other"), vec!["NotMe"]);
        assert!(enum_variants(&strip_code(src), "Absent").is_empty());
    }
}
