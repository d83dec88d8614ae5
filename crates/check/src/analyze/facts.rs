//! Per-function fact inference: which primitive effects does each
//! function body perform *directly*?
//!
//! Facts are leaves of the transitive rules in [`rules`](super::rules):
//! a function "panics" transitively if any function it can reach has a
//! [`FactKind::Panic`] fact. Inference is token-based over the stripped
//! source, so it shares the lexer's guarantees — identifier matches are
//! whole-token (a type named `MutexLikeStats` is not a `Mutex`), and
//! comments/strings/test code never contribute facts.

use super::extract::{is_keyword, FileItems};
use super::lexer::{Tok, TokKind};

/// The effect classes the analyzer tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FactKind {
    /// Can panic: `unwrap`/`expect`, panic-family or assert-family
    /// macros, index expressions. (`debug_assert!` is excluded — it
    /// compiles out of release builds.)
    Panic,
    /// Heap allocation: allocating constructors, `vec!`/`format!`,
    /// `.to_vec()`/`.to_owned()`/`.to_string()`/`.collect()`.
    /// `with_capacity` is deliberately *not* a fact: sized one-time
    /// buffers are the documented allocation budget of the hot paths.
    Alloc,
    /// Reads the wall clock: `Instant::now`, `SystemTime`.
    Clock,
    /// Takes or names a lock: `.lock()`, `Mutex`/`RwLock`/`Condvar`.
    Lock,
    /// Sends on a channel: `.send(...)`.
    ChannelSend,
    /// Spawns or names threads/channels: `std::thread`, `mpsc`.
    Thread,
    /// Can block the calling thread: `.recv()`/`.join()` (no-arg forms
    /// only, so `Path::join(..)` never matches), `.wait(`, `.park(`,
    /// `sleep(`, `std::fs`. Bounded waits (`recv_timeout`) are
    /// deliberately excluded: every poll-loop transport wait is
    /// deadline-bounded by design.
    Blocking,
    /// Touches the filesystem or OS I/O facilities: `std::fs` / `fs::`
    /// and `std::io` / `io::` path segments. Fully-qualified `std::fs`
    /// uses also carry a [`Blocking`](FactKind::Blocking) fact.
    Fs,
    /// Touches the network: `std::net` / `net::` path segments and the
    /// socket types (`TcpStream`, `TcpListener`, `UdpSocket`). The pure
    /// protocol crates are sans-io — sockets live in the transports.
    Net,
}

impl FactKind {
    /// Stable lowercase name for reports and baselines.
    pub fn name(self) -> &'static str {
        match self {
            FactKind::Panic => "panic",
            FactKind::Alloc => "alloc",
            FactKind::Clock => "clock",
            FactKind::Lock => "lock",
            FactKind::ChannelSend => "channel-send",
            FactKind::Thread => "thread",
            FactKind::Blocking => "blocking",
            FactKind::Fs => "fs",
            FactKind::Net => "net",
        }
    }
}

/// One direct fact inside a function body.
#[derive(Debug, Clone)]
pub struct Fact {
    /// Effect class.
    pub kind: FactKind,
    /// 1-based source line.
    pub line: u32,
    /// The token form that triggered the fact (for messages/baselines).
    pub token: String,
}

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// `Type::method` paths that allocate. Matched as the last two path
/// segments, so `std::vec::Vec::new` and `Vec::new` both hit.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "from"),
    ("String", "new"),
    ("String", "from"),
    ("Box", "new"),
    ("Rc", "new"),
    ("Arc", "new"),
    ("VecDeque", "new"),
    ("HashMap", "new"),
    ("HashSet", "new"),
    ("BTreeMap", "new"),
    ("BTreeSet", "new"),
    ("BytesMut", "new"),
];

const ALLOC_METHODS: &[&str] = &["to_vec", "to_owned", "to_string", "collect"];

/// Scans every function body in `file` and returns facts per function,
/// indexed like `file.fns`.
pub fn infer_facts(file: &FileItems) -> Vec<Vec<Fact>> {
    file.fns
        .iter()
        .map(|f| match f.body {
            Some((open, close)) => scan_body(&file.src, &file.toks, open, close),
            None => Vec::new(),
        })
        .collect()
}

/// Scans a whole file — `use` lines, struct fields, statics and every
/// body alike — for the file-scope rules, which need no call graph.
pub(crate) fn scan_file(file: &FileItems) -> Vec<Fact> {
    match file.toks.len() {
        0 => Vec::new(),
        n => scan_body(&file.src, &file.toks, 0, n - 1),
    }
}

fn text<'a>(src: &'a str, t: &Tok) -> &'a str {
    t.text(src)
}

fn scan_body(src: &str, toks: &[Tok], open: usize, close: usize) -> Vec<Fact> {
    let mut facts = Vec::new();
    let is_p = |i: usize, c: char| i <= close && toks[i].kind == TokKind::Punct(c);
    let mut push = |kind: FactKind, line: u32, token: &str| {
        facts.push(Fact {
            kind,
            line,
            token: token.to_string(),
        });
    };

    let mut i = open;
    while i <= close {
        let t = &toks[i];
        match t.kind {
            TokKind::Ident => {
                let name = text(src, t);
                let prev_dot = i > 0 && toks[i - 1].kind == TokKind::Punct('.');
                let next_bang = is_p(i + 1, '!');
                let next_call = is_p(i + 1, '(');
                let next_pathsep = i < close && toks[i + 1].kind == TokKind::PathSep;
                // Path context: the segments before this ident.
                let qual_parent = if i >= 2
                    && toks[i - 1].kind == TokKind::PathSep
                    && toks[i - 2].kind == TokKind::Ident
                {
                    Some(text(src, &toks[i - 2]))
                } else {
                    None
                };

                if next_bang && PANIC_MACROS.contains(&name) {
                    push(FactKind::Panic, t.line, &format!("{name}!"));
                } else if next_bang && ALLOC_MACROS.contains(&name) {
                    push(FactKind::Alloc, t.line, &format!("{name}!"));
                } else if prev_dot && next_call && (name == "unwrap" || name == "expect") {
                    push(FactKind::Panic, t.line, &format!(".{name}("));
                } else if prev_dot && next_call && ALLOC_METHODS.contains(&name) {
                    push(FactKind::Alloc, t.line, &format!(".{name}("));
                } else if next_call
                    && qual_parent
                        .is_some_and(|p| ALLOC_PATHS.iter().any(|(ty, m)| *ty == p && *m == name))
                {
                    let p = qual_parent.unwrap_or_default();
                    push(FactKind::Alloc, t.line, &format!("{p}::{name}("));
                } else if name == "now" && qual_parent == Some("Instant") {
                    push(FactKind::Clock, t.line, "Instant::now");
                } else if name == "SystemTime" {
                    push(FactKind::Clock, t.line, "SystemTime");
                } else if name == "Mutex" || name == "RwLock" || name == "Condvar" {
                    push(FactKind::Lock, t.line, name);
                } else if prev_dot && next_call && name == "lock" {
                    push(FactKind::Lock, t.line, ".lock(");
                } else if prev_dot && next_call && name == "send" {
                    push(FactKind::ChannelSend, t.line, ".send(");
                } else if name == "thread" && qual_parent == Some("std") {
                    push(FactKind::Thread, t.line, "std::thread");
                } else if name == "mpsc" {
                    push(FactKind::Thread, t.line, "mpsc");
                } else if name == "fs"
                    && (qual_parent == Some("std") || (qual_parent.is_none() && next_pathsep))
                {
                    // Leading-segment `fs::` (the idiomatic `use std::fs`
                    // form) counts too; only the fully-qualified form is
                    // certain enough to double as a blocking fact.
                    if qual_parent == Some("std") {
                        push(FactKind::Blocking, t.line, "std::fs");
                        push(FactKind::Fs, t.line, "std::fs");
                    } else {
                        push(FactKind::Fs, t.line, "fs::");
                    }
                } else if name == "io"
                    && (qual_parent == Some("std") || (qual_parent.is_none() && next_pathsep))
                {
                    let token = if qual_parent == Some("std") {
                        "std::io"
                    } else {
                        "io::"
                    };
                    push(FactKind::Fs, t.line, token);
                } else if name == "net"
                    && (qual_parent == Some("std") || (qual_parent.is_none() && next_pathsep))
                {
                    let token = if qual_parent == Some("std") {
                        "std::net"
                    } else {
                        "net::"
                    };
                    push(FactKind::Net, t.line, token);
                } else if name == "TcpStream" || name == "TcpListener" || name == "UdpSocket" {
                    push(FactKind::Net, t.line, name);
                } else if prev_dot
                    && next_call
                    && is_p(i + 2, ')')
                    && (name == "recv" || name == "join")
                {
                    // Empty-arg forms only: `.join(sep)` is Path::join.
                    push(FactKind::Blocking, t.line, &format!(".{name}()"));
                } else if prev_dot && next_call && (name == "wait" || name == "park") {
                    push(FactKind::Blocking, t.line, &format!(".{name}("));
                } else if next_call && name == "sleep" {
                    push(FactKind::Blocking, t.line, "sleep(");
                }
            }
            TokKind::Punct('[') if i > open => {
                // Index expression: `[` directly after a value-position
                // token. Attributes (`#[`), macro brackets (`vec![`),
                // slice types (`&[u8]`), and array literals never have
                // an ident/closer immediately before the bracket.
                let prev = &toks[i - 1];
                let is_index = match prev.kind {
                    TokKind::Ident => !is_keyword(text(src, prev)),
                    TokKind::Num | TokKind::Punct(')') | TokKind::Punct(']') => true,
                    _ => false,
                };
                if is_index {
                    push(FactKind::Panic, t.line, "index-expr");
                }
            }
            _ => {}
        }
        i += 1;
    }
    facts
}

#[cfg(test)]
mod tests {
    use super::super::lexer::strip_code;
    use super::*;

    fn facts_of(body: &str) -> Vec<(FactKind, String)> {
        let src = format!("fn f() {{ {body} }}");
        let file = super::super::extract::extract_file(
            strip_code(&src),
            "x",
            "crates/x/src/l.rs",
            "src/l.rs",
        );
        let all = infer_facts(&file);
        all[0].iter().map(|f| (f.kind, f.token.clone())).collect()
    }

    #[test]
    fn panic_facts() {
        let f = facts_of("let x = o.unwrap(); let y = r.expect( ); panic!( ); b[0]");
        let kinds: Vec<_> = f.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds, vec![FactKind::Panic; 4]);
        let toks: Vec<&str> = f.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(toks, vec![".unwrap(", ".expect(", "panic!", "index-expr"]);
    }

    #[test]
    fn debug_assert_and_safe_access_are_not_facts() {
        assert!(facts_of("debug_assert!(x); let v = b.first(); let a: [u8; 4] = d;").is_empty());
        // `#[..]` attribute and `&[u8]` slice type have punct before `[`.
        assert!(facts_of("let v = vec . first ( ) ;").is_empty());
    }

    #[test]
    fn alloc_facts() {
        let f = facts_of("let a = Vec::new(); let b = s.to_vec(); let c = format!( ); let d = Vec::with_capacity(9);");
        let toks: Vec<&str> = f.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(toks, vec!["Vec::new(", ".to_vec(", "format!"]);
        assert!(f.iter().all(|(k, _)| *k == FactKind::Alloc));
    }

    #[test]
    fn clock_lock_thread_facts() {
        let f = facts_of("let t = Instant::now(); let m: Mutex<u8> = q; std::thread::spawn(g); let c = mpsc::channel();");
        let kinds: Vec<_> = f.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            kinds,
            vec![
                FactKind::Clock,
                FactKind::Lock,
                FactKind::Thread,
                FactKind::Thread
            ]
        );
    }

    #[test]
    fn identifier_boundaries_hold() {
        // Substring matches must not fire: these were rule-6 false
        // positives under the old `find_token` matcher.
        assert!(
            facts_of("let s = MutexLikeStats::default(); let p = my_mpsc_like_queue;").is_empty()
        );
    }

    #[test]
    fn blocking_facts_distinguish_join_and_recv_arity() {
        let f = facts_of(
            "h.join(); p.join(sep); rx.recv(); rx.recv_timeout(d); w.wait(g); thread::sleep(d);",
        );
        let toks: Vec<&str> = f.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(toks, vec![".join()", ".recv()", ".wait(", "sleep("]);
        assert!(f.iter().all(|(k, _)| *k == FactKind::Blocking));
    }

    #[test]
    fn string_arguments_survive_stripping_as_non_empty() {
        // `strip_code` blanks string *contents* but keeps the quotes, so
        // a slice `join` with a stripped separator is still visibly
        // non-empty and must not read as the blocking thread join.
        assert!(facts_of("let line = args.join(\" \");").is_empty());
    }

    #[test]
    fn fs_and_io_facts() {
        let f = facts_of(
            "let a = std::fs::read(p); let b = fs::write(p, d); let e = io::Error::last_os_error();",
        );
        let toks: Vec<(FactKind, &str)> = f.iter().map(|(k, t)| (*k, t.as_str())).collect();
        assert_eq!(
            toks,
            vec![
                (FactKind::Blocking, "std::fs"),
                (FactKind::Fs, "std::fs"),
                (FactKind::Fs, "fs::"),
                (FactKind::Fs, "io::"),
            ]
        );
        // Plain idents named `fs`/`io` in value position are not paths.
        assert!(facts_of("let n = io.outbound.len(); queue(&io);").is_empty());
    }

    #[test]
    fn net_facts() {
        let f = facts_of(
            "let a = std::net::TcpStream::connect(p); let b = net::lookup(h); let l = TcpListener::bind(a);",
        );
        let toks: Vec<(FactKind, &str)> = f.iter().map(|(k, t)| (*k, t.as_str())).collect();
        assert_eq!(
            toks,
            vec![
                (FactKind::Net, "std::net"),
                (FactKind::Net, "TcpStream"),
                (FactKind::Net, "net::"),
                (FactKind::Net, "TcpListener"),
            ]
        );
        // Plain idents named `net` in value position are not paths.
        assert!(facts_of("let n = net.nodes.len(); route(&net);").is_empty());
    }

    #[test]
    fn channel_send_fact() {
        let f = facts_of("tx.send(item); inbox.sender();");
        let toks: Vec<&str> = f.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(toks, vec![".send("]);
    }
}
