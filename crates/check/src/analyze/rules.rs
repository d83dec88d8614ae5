//! The guarantee rules, evaluated over the parsed workspace.
//!
//! Three kinds of rule share one finding type:
//!
//! * **Reachability rules** (`REACH_RULES`): from a set of *entry
//!   points*, can any function carrying a forbidden [`FactKind`] be
//!   reached? Propagation runs as a reverse-BFS from fact-bearing
//!   functions toward callers, recording the next hop at each step so a
//!   finding can print the full entry → … → fact witness chain.
//! * **File-scope rules** (`FILE_RULES`): no forbidden fact anywhere
//!   in a set of files — `use` lines, struct fields, statics and every
//!   body alike. No call resolution is involved, so neither an
//!   unresolved call nor a fact outside any function can hide one.
//! * **Variant coverage** (`COVERAGE_RULES`): every variant of an enum
//!   is named as `Enum::Variant` where it must be handled or tested.
//!
//! DESIGN.md §13.2 tabulates every rule with its scope and the facts
//! it forbids.

use std::collections::BTreeSet;

use super::extract::FileItems;
use super::facts::{scan_file, Fact, FactKind};
use super::graph::{CallEdge, CallGraph, FnId, Workspace};
use super::lexer::{lex, strip_code, Tok, TokKind};

/// The sans-io crates: time arrives as an argument or through the
/// runtime's clock. The first seven are the pure state machines, which
/// also touch no disk, socket, lock or thread — the sharded runtime
/// moves each one whole onto a worker thread. `runtime` and `obs` drive
/// and observe them.
const SANS_IO_CRATES: &[&str] = &[
    "proto", "diff", "compress", "version", "cache", "client", "server", "runtime", "obs",
];

/// The pure state machines: the first seven [`SANS_IO_CRATES`].
const PURE_CRATES: &[&str] = SANS_IO_CRATES.split_at(7).0;

/// One analysis finding.
#[derive(Debug, Clone)]
pub struct AnalysisFinding {
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Qualified name of the entry point the guarantee protects (the
    /// file, for file-scope rules).
    pub entry: String,
    /// Qualified name of the function carrying the forbidden fact (the
    /// file, for file-scope rules).
    pub fact_fn: String,
    /// The fact's token form (`.unwrap(`, `Instant::now`, …).
    pub token: String,
    /// Repo-relative file of the fact.
    pub file: String,
    /// 1-based line of the fact (0 for configuration findings).
    pub line: u32,
    /// Witness chain, entry first, fact function last.
    pub chain: Vec<String>,
    /// Human-readable description.
    pub message: String,
}

impl AnalysisFinding {
    /// Stable baseline key: no line numbers, so routine edits don't
    /// invalidate a committed baseline.
    pub fn key(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            self.rule, self.entry, self.fact_fn, self.token
        )
    }

    /// A finding about a file rather than a call chain.
    fn in_file(rule: &'static str, file: &str, line: u32, token: &str, message: String) -> Self {
        AnalysisFinding {
            rule,
            entry: file.to_string(),
            fact_fn: file.to_string(),
            token: token.to_string(),
            file: file.to_string(),
            line,
            chain: Vec::new(),
            message,
        }
    }
}

impl std::fmt::Display for AnalysisFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )?;
        if self.chain.len() > 1 {
            write!(f, "\n    via {}", self.chain.join(" -> "))?;
        }
        Ok(())
    }
}

/// Which functions a reachability rule protects.
enum Entries {
    /// Named functions, as `(crate, owner type, name)`; `None` owner
    /// means a free function. Finding none is itself a finding.
    Named(&'static [(&'static str, Option<&'static str>, &'static str)]),
    /// Every `pub fn` with a body in a [`PURE_CRATES`] crate.
    PurePub,
}

/// A reachability rule: no `kind` fact reachable from `entries`.
struct ReachRule {
    rule: &'static str,
    entries: Entries,
    kind: FactKind,
    what: &'static str,
}

const REACH_RULES: &[ReachRule] = &[
    // Untrusted bytes enter through wire decode (the socket) and
    // journal replay (the disk).
    ReachRule {
        rule: "panic-reach",
        entries: Entries::Named(&[
            ("proto", Some("Frame"), "decode"),
            ("proto", Some("ClientMessage"), "decode_body"),
            ("proto", Some("ServerMessage"), "decode_body"),
            ("server", Some("ServerNode"), "restore"),
            ("store", Some("DurableStore"), "open_shard"),
        ]),
        kind: FactKind::Panic,
        what: "panic reachable from untrusted input (socket or disk)",
    },
    ReachRule {
        rule: "alloc-reach",
        entries: Entries::Named(&[
            ("diff", None, "diff_docs"),
            ("diff", None, "apply_delta"),
            ("diff", None, "chunk_delta_into"),
            ("diff", None, "chunk_delta_indexed"),
            ("diff", None, "apply_chunk_delta"),
        ]),
        kind: FactKind::Alloc,
        what: "allocation reachable from the zero-copy diff hot path",
    },
    ReachRule {
        rule: "clock-reach",
        entries: Entries::PurePub,
        kind: FactKind::Clock,
        what: "wall-clock read reachable from a pure-crate public fn",
    },
    // The server *emits* `Persist` records; only the runtime's sink
    // (the durable store) may touch disk.
    ReachRule {
        rule: "fs-reach",
        entries: Entries::PurePub,
        kind: FactKind::Fs,
        what: "filesystem/io access reachable from a pure-crate public fn",
    },
    // The protocol cores model a disconnect as a plain state transition
    // (`LinkDown`/`Resume`); sockets live in the runtimes and transports.
    ReachRule {
        rule: "net-reach",
        entries: Entries::PurePub,
        kind: FactKind::Net,
        what: "network/socket access reachable from a pure-crate public fn",
    },
    // Everything a shard does between two inbox waits; the inbox wait
    // itself lives outside this entry by design, so it stays the only
    // place a shard blocks.
    ReachRule {
        rule: "shard-shape",
        entries: Entries::Named(&[("runtime", Some("Shard"), "step")]),
        kind: FactKind::Blocking,
        what: "blocking call reachable from a shard's event handler",
    },
];

/// Which source files a file-scope rule reads.
enum Scope {
    /// Every file of these crates except the listed files.
    Crates(&'static [&'static str], &'static [&'static str]),
    /// Exactly these files; a missing one is a finding.
    Files(&'static [&'static str]),
}

/// A file-scope rule: no fact of `kinds` — only those with one of
/// `tokens`, when given — anywhere in the files of `scope`.
struct FileRule {
    rule: &'static str,
    scope: Scope,
    kinds: &'static [FactKind],
    tokens: Option<&'static [&'static str]>,
    why: &'static str,
}

const FILE_RULES: &[FileRule] = &[
    FileRule {
        rule: "wall-clock",
        scope: Scope::Crates(SANS_IO_CRATES, &["crates/runtime/src/clock.rs"]),
        kinds: &[FactKind::Clock],
        tokens: None,
        why: "time must arrive as an argument (now_ms) or through the runtime Clock",
    },
    FileRule {
        rule: "decode-panic",
        scope: Scope::Files(&["crates/proto/src/wire.rs"]),
        kinds: &[FactKind::Panic],
        tokens: None,
        why: "malformed network bytes must produce WireError, never a panic; \
              use `get`/`first_chunk`",
    },
    FileRule {
        rule: "obs-panic",
        scope: Scope::Crates(&["obs"], &[]),
        kinds: &[FactKind::Panic],
        tokens: None,
        why: "instrumentation must degrade (drop the sample, count the error), \
              never take down the node it is measuring",
    },
    // One-time `Vec::new`/`Arc::new` set-up is the hot modules'
    // allocation budget; per-line copies and eagerly rendered messages
    // are not.
    FileRule {
        rule: "diff-hot-alloc",
        scope: Scope::Files(&[
            "crates/diff/src/docbuf.rs",
            "crates/diff/src/scratch.rs",
            "crates/diff/src/zerocopy.rs",
            "crates/diff/src/edscript.rs",
            "crates/diff/src/hunt_mcilroy.rs",
            "crates/diff/src/myers.rs",
            "crates/diff/src/chunk.rs",
        ]),
        kinds: &[FactKind::Alloc],
        tokens: Some(&[".to_vec(", "format!"]),
        why: "the zero-copy pipeline must not allocate per line; borrow the \
              bytes, and render error messages in `Display`",
    },
    FileRule {
        rule: "thread-purity",
        scope: Scope::Crates(PURE_CRATES, &[]),
        kinds: &[FactKind::Thread, FactKind::Lock],
        tokens: None,
        why: "state machines must stay lock- and thread-free so the sharded \
              runtime can own one per worker; concurrency belongs in \
              crates/runtime or the deployment adapters",
    },
];

/// Where a coverage rule looks for `Enum::Variant` names.
enum Uses {
    /// Workspace source files whose label starts with this prefix.
    Src(&'static str),
    /// One test file, read from disk: tests are not workspace sources.
    Test(&'static str),
}

/// A variant-coverage rule: every variant of the enums declared in
/// `decl` is named as `Enum::Variant` somewhere in `uses`.
struct CoverageRule {
    decl: &'static str,
    /// The enums to cover; `None` means every `pub enum` in `decl`.
    enums: Option<&'static [&'static str]>,
    uses: Uses,
    missing: &'static str,
}

const COVERAGE_RULES: &[CoverageRule] = &[
    // Every wire-visible variant is round-trip tested.
    CoverageRule {
        decl: "crates/proto/src/message.rs",
        enums: None,
        uses: Uses::Test("crates/proto/tests/prop.rs"),
        missing: "never appears in the round-trip property tests",
    },
    // Dead instrumentation variants rot silently.
    CoverageRule {
        decl: "crates/obs/src/event.rs",
        enums: Some(&["DriverEvent"]),
        uses: Uses::Src("crates/runtime/src/"),
        missing: "is declared but no driver emits it",
    },
    // An unmatched inbox event would sit in a shard's inbox forever.
    CoverageRule {
        decl: "crates/runtime/src/shard.rs",
        enums: Some(&["ShardEvent"]),
        uses: Uses::Src("crates/runtime/src/shard.rs"),
        missing: "is declared but never matched in the shard worker loop",
    },
];

/// Result of one reverse-reachability pass.
struct Reach {
    /// Can this function reach a forbidden fact?
    reachable: Vec<bool>,
    /// The direct fact, for seed functions.
    seed_fact: Vec<Option<Fact>>,
    /// Next hop toward the fact, for propagated functions.
    via: Vec<Option<CallEdge>>,
}

fn reach(ws: &Workspace, g: &CallGraph, kind: FactKind) -> Reach {
    let n = ws.fns.len();
    let mut r = Reach {
        reachable: vec![false; n],
        seed_fact: vec![None; n],
        via: vec![None; n],
    };
    let mut queue: Vec<FnId> = Vec::new();
    for id in 0..n {
        if let Some(fact) = ws.facts[id].iter().find(|f| f.kind == kind) {
            r.reachable[id] = true;
            r.seed_fact[id] = Some(fact.clone());
            queue.push(id);
        }
    }
    while let Some(f) = queue.pop() {
        for &caller in &g.callers[f] {
            if r.reachable[caller] {
                continue;
            }
            let Some(edge) = g.edges[caller].iter().find(|e| e.callee == f) else {
                continue;
            };
            r.reachable[caller] = true;
            r.via[caller] = Some(edge.clone());
            queue.push(caller);
        }
    }
    r
}

/// Walks the witness chain from `entry` to the fact function.
fn finding_for(ws: &Workspace, r: &Reach, rule: &ReachRule, entry: FnId) -> AnalysisFinding {
    let mut chain = Vec::new();
    let mut cur = entry;
    chain.push(ws.qual(cur).to_string());
    while let Some(edge) = &r.via[cur] {
        cur = edge.callee;
        chain.push(format!("{} (call at line {})", ws.qual(cur), edge.line));
    }
    let fact = r.seed_fact[cur].clone().unwrap_or(Fact {
        kind: FactKind::Panic,
        line: 0,
        token: String::from("?"),
    });
    let fact_item = ws.item(cur);
    AnalysisFinding {
        rule: rule.rule,
        entry: ws.qual(entry).to_string(),
        fact_fn: fact_item.qual.clone(),
        token: fact.token.clone(),
        file: fact_item.file.clone(),
        line: fact.line,
        chain,
        message: format!(
            "{}: `{}` reaches `{}` ({} fact `{}` at {}:{})",
            rule.what,
            ws.qual(entry),
            fact_item.qual,
            fact.kind.name(),
            fact.token,
            fact_item.file,
            fact.line
        ),
    }
}

fn reach_findings(ws: &Workspace, g: &CallGraph, rule: &ReachRule, out: &mut Vec<AnalysisFinding>) {
    let entries: Vec<FnId> = match rule.entries {
        Entries::Named(specs) => specs
            .iter()
            .flat_map(|(krate, owner, name)| ws.find(krate, *owner, name))
            .collect(),
        Entries::PurePub => (0..ws.fns.len())
            .filter(|&id| {
                let f = ws.item(id);
                f.is_pub && f.body.is_some() && PURE_CRATES.contains(&f.krate.as_str())
            })
            .collect(),
    };
    if entries.is_empty() {
        let message = format!(
            "{}: no entry points found in the workspace; the guarantee is unverifiable",
            rule.what
        );
        out.push(AnalysisFinding::in_file(
            rule.rule,
            "crates",
            0,
            "missing-entry",
            message,
        ));
        return;
    }
    let r = reach(ws, g, rule.kind);
    for e in entries.into_iter().filter(|&e| r.reachable[e]) {
        out.push(finding_for(ws, &r, rule, e));
    }
}

fn missing_file(rule: &'static str, file: &str) -> AnalysisFinding {
    AnalysisFinding::in_file(
        rule,
        file,
        0,
        "missing-file",
        format!("{file} not found; the guarantee is unverifiable"),
    )
}

fn file_findings(ws: &Workspace, rule: &FileRule, out: &mut Vec<AnalysisFinding>) {
    if let Scope::Files(files) = rule.scope {
        for file in files
            .iter()
            .filter(|p| !ws.files.iter().any(|f| f.file == **p))
        {
            out.push(missing_file(rule.rule, file));
        }
    }
    for file in &ws.files {
        let in_scope = match rule.scope {
            Scope::Crates(crates, except) => {
                crates.contains(&file.krate.as_str()) && !except.contains(&file.file.as_str())
            }
            Scope::Files(files) => files.contains(&file.file.as_str()),
        };
        if !in_scope {
            continue;
        }
        for fact in scan_file(file) {
            if rule.kinds.contains(&fact.kind)
                && rule.tokens.is_none_or(|t| t.contains(&fact.token.as_str()))
            {
                let message = format!("`{}` ({} fact): {}", fact.token, fact.kind.name(), rule.why);
                out.push(AnalysisFinding::in_file(
                    rule.rule,
                    &file.file,
                    fact.line,
                    &fact.token,
                    message,
                ));
            }
        }
    }
}

/// The identifier at token `i`, if that token is one.
fn ident_at(f: &FileItems, i: usize) -> Option<&str> {
    f.toks
        .get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text(&f.src))
}

/// Names of the unrestricted `pub enum`s a file declares.
fn pub_enums(f: &FileItems) -> Vec<&str> {
    (0..f.toks.len())
        .filter(|&i| ident_at(f, i) == Some("pub") && ident_at(f, i + 1) == Some("enum"))
        .filter_map(|i| ident_at(f, i + 2))
        .collect()
}

/// `(variant, line)` pairs of `enum name`, or `None` when the file
/// declares no such enum. Attributes and field lists sit one bracket
/// deeper than the variant names, so only depth-1 identifiers right
/// after the `{` or a `,` are variants.
fn enum_variants<'a>(f: &'a FileItems, name: &str) -> Option<Vec<(&'a str, u32)>> {
    let at = (0..f.toks.len())
        .find(|&i| ident_at(f, i) == Some("enum") && ident_at(f, i + 1) == Some(name))?;
    let open = (at..f.toks.len()).find(|&i| f.toks[i].kind == TokKind::Punct('{'))?;
    let mut variants = Vec::new();
    let (mut depth, mut at_start) = (0u32, true);
    for t in &f.toks[open..] {
        match t.kind {
            TokKind::Punct('{' | '(' | '[') => depth += 1,
            TokKind::Punct('}' | ')' | ']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokKind::Punct(',') if depth == 1 => at_start = true,
            TokKind::Ident if depth == 1 && at_start => {
                variants.push((t.text(&f.src), t.line));
                at_start = false;
            }
            _ => {}
        }
    }
    Some(variants)
}

/// Adds every two-segment path `A::B` in a token stream to `into`.
fn qualified_names(src: &str, toks: &[Tok], into: &mut BTreeSet<String>) {
    for w in toks.windows(3) {
        if w[0].kind == TokKind::Ident
            && w[1].kind == TokKind::PathSep
            && w[2].kind == TokKind::Ident
        {
            into.insert(format!("{}::{}", w[0].text(src), w[2].text(src)));
        }
    }
}

fn coverage_findings(ws: &Workspace, rule: &CoverageRule, out: &mut Vec<AnalysisFinding>) {
    const RULE: &str = "variant-coverage";
    let Some(decl) = ws.files.iter().find(|f| f.file == rule.decl) else {
        out.push(missing_file(RULE, rule.decl));
        return;
    };
    let mut named = BTreeSet::new();
    match rule.uses {
        Uses::Src(prefix) => {
            for f in ws.files.iter().filter(|f| f.file.starts_with(prefix)) {
                qualified_names(&f.src, &f.toks, &mut named);
            }
        }
        Uses::Test(path) => {
            let Ok(raw) = std::fs::read_to_string(ws.root.join(path)) else {
                out.push(missing_file(RULE, path));
                return;
            };
            let src = strip_code(&raw);
            qualified_names(&src, &lex(&src), &mut named);
        }
    }
    let missing_enum =
        |message: String| AnalysisFinding::in_file(RULE, rule.decl, 0, "missing-enum", message);
    let enums = rule.enums.map_or_else(|| pub_enums(decl), <[&str]>::to_vec);
    if enums.is_empty() {
        out.push(missing_enum(String::from("no `pub enum` to cover")));
    }
    for name in enums {
        let Some(variants) = enum_variants(decl, name) else {
            out.push(missing_enum(format!("could not locate `enum {name}`")));
            continue;
        };
        for (v, line) in variants {
            let path = format!("{name}::{v}");
            if !named.contains(&path) {
                let message = format!("{path} {}", rule.missing);
                out.push(AnalysisFinding::in_file(
                    RULE, rule.decl, line, &path, message,
                ));
            }
        }
    }
}

/// Runs every rule and returns the findings, sorted by rule, file and
/// line.
pub fn run_rules(ws: &Workspace, g: &CallGraph) -> Vec<AnalysisFinding> {
    let mut findings = Vec::new();
    for rule in REACH_RULES {
        reach_findings(ws, g, rule, &mut findings);
    }

    // No lock taken before a channel send within one runtime function
    // — a guard held across a shard-inbox send can deadlock a session's
    // reader against the shard. Purely local, so no graph walk.
    for id in 0..ws.fns.len() {
        let item = ws.item(id);
        if item.krate != "runtime" {
            continue;
        }
        let facts = &ws.facts[id];
        let first_lock = facts
            .iter()
            .filter(|f| f.kind == FactKind::Lock)
            .map(|f| f.line)
            .min();
        let Some(lock_line) = first_lock else {
            continue;
        };
        if let Some(send) = facts
            .iter()
            .find(|f| f.kind == FactKind::ChannelSend && f.line >= lock_line)
        {
            findings.push(AnalysisFinding {
                rule: "shard-shape",
                entry: item.qual.clone(),
                fact_fn: item.qual.clone(),
                token: String::from("lock-then-send"),
                file: item.file.clone(),
                line: send.line,
                chain: vec![item.qual.clone()],
                message: format!(
                    "lock taken at line {lock_line} is still plausibly held \
                     across the channel send at line {} in `{}`; drop the \
                     guard before sending",
                    send.line, item.qual
                ),
            });
        }
    }

    for rule in FILE_RULES {
        file_findings(ws, rule, &mut findings);
    }
    for rule in COVERAGE_RULES {
        coverage_findings(ws, rule, &mut findings);
    }
    findings.sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    findings
}

#[cfg(test)]
mod tests {
    use super::super::extract::extract_file;
    use super::super::graph::build_graph;
    use super::super::lexer::strip_cfg_test;
    use super::*;
    use std::collections::HashMap;
    use std::path::PathBuf;

    fn ws_from(sources: &[(&str, &str, &str)]) -> Workspace {
        let files = sources
            .iter()
            .map(|(krate, rel, src)| {
                let label = format!("crates/{krate}/{rel}");
                extract_file(strip_cfg_test(&strip_code(src)), krate, &label, rel)
            })
            .collect();
        Workspace::from_files(PathBuf::new(), files, HashMap::new())
    }

    fn rule_findings(ws: &Workspace, rule: &str) -> Vec<AnalysisFinding> {
        let g = build_graph(ws);
        run_rules(ws, &g)
            .into_iter()
            .filter(|f| f.rule == rule)
            .collect()
    }

    #[test]
    fn panic_two_hops_below_decode_across_crates_is_found() {
        // The old per-file lint only looked at wire.rs; here the panic
        // sits in another crate, two calls down.
        let ws = ws_from(&[
            (
                "proto",
                "src/wire.rs",
                "impl Frame { pub fn decode(b: &[u8]) { helper(b) } }\nfn helper(b: &[u8]) { shadow_util::deep(b) }",
            ),
            ("util", "src/lib.rs", "pub fn deep(b: &[u8]) { b.first().unwrap(); }"),
        ]);
        let f = rule_findings(&ws, "panic-reach");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].entry, "proto::wire::Frame::decode");
        assert_eq!(f[0].fact_fn, "util::deep");
        assert_eq!(f[0].token, ".unwrap(");
        assert_eq!(f[0].chain.len(), 3);
        assert!(f[0].file.contains("util"));
    }

    #[test]
    fn clean_decode_chain_passes() {
        let ws = ws_from(&[(
            "proto",
            "src/wire.rs",
            "impl Frame { pub fn decode(b: &[u8]) { helper(b) } }\nfn helper(b: &[u8]) -> Option<u8> { b.first().copied() }",
        )]);
        assert!(rule_findings(&ws, "panic-reach").is_empty());
    }

    #[test]
    fn alloc_below_diff_docs_is_found() {
        let ws = ws_from(&[(
            "diff",
            "src/zerocopy.rs",
            "pub fn diff_docs() { inner() }\npub fn apply_delta() { check() }\nfn inner() { let v = b.to_vec(); }\nfn check() -> bool { true }",
        )]);
        let f = rule_findings(&ws, "alloc-reach");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].entry, "diff::zerocopy::diff_docs");
        assert_eq!(f[0].fact_fn, "diff::zerocopy::inner");
    }

    #[test]
    fn alloc_below_chunk_codec_entries_is_found() {
        // Both chunk-codec entry points are guarded: an allocation
        // injected into a shared helper is reported once per entry.
        let ws = ws_from(&[(
            "diff",
            "src/chunk.rs",
            "pub fn chunk_delta_into() { emit_span() }\n\
             pub fn apply_chunk_delta() { emit_span() }\n\
             fn emit_span() { let copy = span.to_vec(); }",
        )]);
        let f = rule_findings(&ws, "alloc-reach");
        assert_eq!(f.len(), 2, "{f:?}");
        let entries: Vec<&str> = f.iter().map(|x| x.entry.as_str()).collect();
        assert!(entries.contains(&"diff::chunk::chunk_delta_into"));
        assert!(entries.contains(&"diff::chunk::apply_chunk_delta"));
        assert!(f.iter().all(|x| x.fact_fn == "diff::chunk::emit_span"));
    }

    #[test]
    fn alloc_below_the_indexed_chunk_walk_is_found() {
        // The walk over kept chunk indexes is an entry of its own: the
        // version store calls it on every chunk-codec resubmission.
        let ws = ws_from(&[(
            "diff",
            "src/chunk.rs",
            "pub fn chunk_delta_indexed() { walk_and_serialize() }\n\
             fn walk_and_serialize() { let ops = Vec::new(); }",
        )]);
        let f = rule_findings(&ws, "alloc-reach");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].entry, "diff::chunk::chunk_delta_indexed");
        assert_eq!(f[0].fact_fn, "diff::chunk::walk_and_serialize");
    }

    #[test]
    fn clock_read_below_pure_pub_fn_is_found() {
        let ws = ws_from(&[
            (
                "client",
                "src/lib.rs",
                "pub fn tick() { stamp() }\nfn stamp() { let t = Instant::now(); }",
            ),
            (
                "runtime",
                "src/clock.rs",
                "pub fn now() { let t = Instant::now(); }",
            ),
        ]);
        let f = rule_findings(&ws, "clock-reach");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].entry, "client::tick");
        // runtime's clock.rs is not a pure crate: no entry, no finding.
    }

    #[test]
    fn fs_access_below_pure_pub_fn_is_found() {
        let ws = ws_from(&[
            (
                "server",
                "src/lib.rs",
                "pub fn submit() { spill() }\nfn spill() { let d = fs::read(p); }",
            ),
            (
                "store",
                "src/segment.rs",
                "pub fn append() { let d = fs::read(p); }",
            ),
        ]);
        let f = rule_findings(&ws, "fs-reach");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].entry, "server::submit");
        assert_eq!(f[0].fact_fn, "server::spill");
        assert_eq!(f[0].token, "fs::");
        // The store crate is the sanctioned home of disk I/O: not a
        // pure crate, so no entry and no finding.
    }

    #[test]
    fn net_access_below_pure_pub_fn_is_found() {
        let ws = ws_from(&[
            (
                "client",
                "src/lib.rs",
                "pub fn reconnect() { dial() }\nfn dial() { let s = TcpStream::connect(a); }",
            ),
            (
                "netsim",
                "src/tcp.rs",
                "pub fn connect() { let s = TcpStream::connect(a); }",
            ),
        ]);
        let f = rule_findings(&ws, "net-reach");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].entry, "client::reconnect");
        assert_eq!(f[0].fact_fn, "client::dial");
        assert_eq!(f[0].token, "TcpStream");
        // netsim is a transport crate, not pure: no entry, no finding.
    }

    #[test]
    fn blocking_below_poll_once_is_found() {
        let ws = ws_from(&[(
            "runtime",
            "src/shard.rs",
            "impl Shard { fn step(&mut self) { self.pump() } fn pump(&mut self) { self.rx.recv(); } }",
        )]);
        let f = rule_findings(&ws, "shard-shape");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].token, ".recv()");
        assert_eq!(f[0].entry, "runtime::shard::Shard::step");
    }

    #[test]
    fn bounded_waits_in_poll_loop_are_fine() {
        let ws = ws_from(&[(
            "runtime",
            "src/shard.rs",
            "impl Shard { fn step(&mut self) { self.rx.recv_timeout(d); } }",
        )]);
        assert!(rule_findings(&ws, "shard-shape").is_empty());
    }

    #[test]
    fn lock_across_send_is_found_locally() {
        let ws = ws_from(&[(
            "runtime",
            "src/shard.rs",
            "fn route(&self) {\n let g = self.state.lock();\n self.tx.send(msg);\n}",
        )]);
        // Ignore the missing-poll-entry finding this tiny workspace
        // also produces; the local scan is what's under test.
        let f: Vec<AnalysisFinding> = rule_findings(&ws, "shard-shape")
            .into_iter()
            .filter(|f| f.token == "lock-then-send")
            .collect();
        assert_eq!(f.len(), 1);
        // Send before lock is fine.
        let ws = ws_from(&[(
            "runtime",
            "src/shard.rs",
            "fn route(&self) {\n self.tx.send(msg);\n let g = self.state.lock();\n}",
        )]);
        assert!(rule_findings(&ws, "shard-shape")
            .iter()
            .all(|f| f.token != "lock-then-send"));
    }

    #[test]
    fn missing_entries_are_reported() {
        let ws = ws_from(&[("misc", "src/lib.rs", "pub fn nothing() {}")]);
        let g = build_graph(&ws);
        let rules: Vec<&str> = run_rules(&ws, &g).iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"panic-reach"));
        assert!(rules.contains(&"alloc-reach"));
        assert!(rules.contains(&"shard-shape"));
        // File-scope and coverage rules report the files they could not
        // read instead of passing vacuously.
        assert!(rules.contains(&"decode-panic"));
        assert!(rules.contains(&"diff-hot-alloc"));
        assert!(rules.contains(&"variant-coverage"));
    }

    /// One rule's findings over a one-file workspace, minus the
    /// files that workspace lacks.
    fn file_findings_of(krate: &str, rel: &str, src: &str, rule: &str) -> Vec<AnalysisFinding> {
        rule_findings(&ws_from(&[(krate, rel, src)]), rule)
            .into_iter()
            .filter(|f| f.token != "missing-file")
            .collect()
    }

    #[test]
    fn wall_clock_rule_fires_on_violations() {
        let bad = "fn f() { let t = std::time::Instant::now(); }";
        let f = file_findings_of("version", "src/lib.rs", bad, "wall-clock");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].token, "Instant::now");
        assert_eq!(
            f[0].key(),
            "wall-clock|crates/version/src/lib.rs|crates/version/src/lib.rs|Instant::now"
        );
        let ok = "fn f(now_ms: u64) {}";
        assert!(file_findings_of("version", "src/lib.rs", ok, "wall-clock").is_empty());
        // Unlike `clock-reach`, the rule covers obs and runtime too, and
        // a clock named outside any fn body.
        let field = "pub struct Stamp { at: std::time::SystemTime }";
        assert_eq!(
            file_findings_of("obs", "src/metrics.rs", field, "wall-clock").len(),
            1
        );
        // The runtime's clock is the one place wall time enters.
        assert!(file_findings_of("runtime", "src/clock.rs", bad, "wall-clock").is_empty());
    }

    #[test]
    fn decode_panic_rule_fires_on_unwrap_and_indexing() {
        let bad = "fn d(b: &[u8]) { let x = b[0]; let y = h.unwrap(); }";
        let f = file_findings_of("proto", "src/wire.rs", bad, "decode-panic");
        let toks: Vec<&str> = f.iter().map(|f| f.token.as_str()).collect();
        assert_eq!(toks, vec!["index-expr", ".unwrap("]);
        let ok = "fn d(b: &[u8]) -> Option<u8> { b.first().copied() }";
        assert!(file_findings_of("proto", "src/wire.rs", ok, "decode-panic").is_empty());
    }

    #[test]
    fn decode_panic_rule_ignores_types_attrs_and_literals() {
        // `vec![` is macro-bang-bracket: `!` precedes `[`, not a value.
        let ok = "#[derive(Debug)]\nfn d(b: &[u8], a: [u8; 4]) { let v = vec![1, 2]; }";
        assert!(file_findings_of("proto", "src/wire.rs", ok, "decode-panic").is_empty());
    }

    #[test]
    fn obs_panic_rule_fires_on_macros_and_indexing() {
        let bad = "fn f(v: &[u64]) { let x = v.first().unwrap(); panic!(\"no\"); }";
        let f = file_findings_of("obs", "src/metrics.rs", bad, "obs-panic");
        assert_eq!(f.len(), 2, "{f:?}");
        // An index is a panic too: bounds-checked access is `get`.
        let index = "fn f(v: &[u64], i: usize) -> u64 { if i < v.len() { v[i] } else { 0 } }";
        let f = file_findings_of("obs", "src/metrics.rs", index, "obs-panic");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].token, "index-expr");
    }

    #[test]
    fn diff_hot_alloc_rule_fires_on_per_line_allocation() {
        let bad = "fn f(l: &[u8]) { let a = l.to_vec(); let b = format!(\"{}\", a.len()); }";
        let f = file_findings_of("diff", "src/zerocopy.rs", bad, "diff-hot-alloc");
        assert_eq!(f.len(), 2, "{f:?}");
        // One-time set-up allocations are outside the token subset.
        let ok = "fn f(doc: &DocBuf, i: usize) -> &[u8] { let s = Vec::new(); doc.line(i) }";
        assert!(file_findings_of("diff", "src/zerocopy.rs", ok, "diff-hot-alloc").is_empty());
        // Test code is stripped before the rule runs.
        let test_only = "#[cfg(test)]\nmod tests {\n    fn t() { let v = b\"x\".to_vec(); }\n}\n";
        assert!(
            file_findings_of("diff", "src/zerocopy.rs", test_only, "diff-hot-alloc").is_empty()
        );
        // Files outside the hot set may allocate.
        assert!(file_findings_of("diff", "src/stats.rs", bad, "diff-hot-alloc").is_empty());
    }

    #[test]
    fn diff_hot_alloc_rule_covers_the_chunk_module() {
        // The chunk codec is part of the zero-copy hot path.
        let bad = "fn emit(span: &[u8]) { let copy = span.to_vec(); }";
        let f = file_findings_of("diff", "src/chunk.rs", bad, "diff-hot-alloc");
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn diff_hot_alloc_rule_covers_the_error_module() {
        // Malformed-script errors are built on `apply_delta`'s path: a
        // message rendered eagerly in edscript.rs must trip the rule.
        let bad = "fn unknown_op(op: u8) -> ParseError { reason(format!(\"{op}\")) }";
        let f = file_findings_of("diff", "src/edscript.rs", bad, "diff-hot-alloc");
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn thread_purity_rule_fires_on_threading_primitives() {
        let bad = "use std::sync::Mutex;\nfn f() { std::thread::spawn(|| {}); }\n";
        let f = file_findings_of("server", "src/node.rs", bad, "thread-purity");
        let toks: Vec<&str> = f.iter().map(|f| f.token.as_str()).collect();
        assert_eq!(toks, vec!["Mutex", "std::thread"]);
        // Mentions in comments and strings are fine.
        let ok = "// runs on whatever thread the runtime picks\nfn f(now_ms: u64) {}\n";
        assert!(file_findings_of("server", "src/node.rs", ok, "thread-purity").is_empty());
        // Test modules may use channels (e.g. scripted harnesses).
        let test_only = "#[cfg(test)]\nmod tests {\n    use std::sync::mpsc;\n    fn t() {}\n}\n";
        assert!(file_findings_of("server", "src/node.rs", test_only, "thread-purity").is_empty());
        // The runtime owns the threads.
        assert!(file_findings_of("runtime", "src/shard.rs", bad, "thread-purity").is_empty());
    }

    #[test]
    fn thread_purity_matches_whole_identifiers_only() {
        let ok =
            "struct MutexLikeStats { held_ns: u64 }\nfn f(my_mpsc_queue: &MutexLikeStats) {}\n";
        assert!(file_findings_of("cache", "src/lib.rs", ok, "thread-purity").is_empty());
        let bad = "fn f() { let m: Mutex<u8> = x; let (tx, rx) = mpsc::channel(); }";
        assert_eq!(
            file_findings_of("cache", "src/lib.rs", bad, "thread-purity").len(),
            2
        );
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
                Valued = 3,
            }
            pub(crate) enum Hidden { H }
            pub enum Other { NotMe }
        ";
        let f = extract_file(strip_code(src), "x", "crates/x/src/m.rs", "src/m.rs");
        let names =
            |e| enum_variants(&f, e).map(|v| v.into_iter().map(|(n, _)| n).collect::<Vec<_>>());
        assert_eq!(
            names("Msg"),
            Some(vec!["Plain", "WithFields", "Tuple", "Valued"])
        );
        assert_eq!(names("Other"), Some(vec!["NotMe"]));
        assert_eq!(names("Absent"), None);
        assert_eq!(enum_variants(&f, "Msg").unwrap()[0].1, 4);
        assert_eq!(pub_enums(&f), vec!["Msg", "Other"]);
    }

    #[test]
    fn variant_coverage_names_each_unused_variant() {
        let ws = ws_from(&[
            ("obs", "src/event.rs", "pub enum DriverEvent {\n    Sent,\n    Lost(u8),\n}"),
            ("runtime", "src/client_driver.rs", "fn f() { emit(DriverEvent::Sent) }"),
            ("runtime", "src/shard.rs", "enum ShardEvent { Stop }\nfn step(e: ShardEvent) { if let ShardEvent::Stop = e {} }"),
        ]);
        let f: Vec<AnalysisFinding> = rule_findings(&ws, "variant-coverage")
            .into_iter()
            .filter(|f| f.file != "crates/proto/src/message.rs")
            .collect();
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].token, "DriverEvent::Lost");
        assert_eq!(
            (f[0].file.as_str(), f[0].line),
            ("crates/obs/src/event.rs", 3)
        );
    }

    #[test]
    fn baseline_keys_are_line_stable() {
        let mk = |line| AnalysisFinding {
            rule: "panic-reach",
            entry: String::from("e"),
            fact_fn: String::from("f"),
            token: String::from(".unwrap("),
            file: String::from("x.rs"),
            line,
            chain: Vec::new(),
            message: String::new(),
        };
        assert_eq!(mk(3).key(), mk(400).key());
    }
}
