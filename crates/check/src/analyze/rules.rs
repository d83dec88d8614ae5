//! The transitive guarantee rules, evaluated over the call graph.
//!
//! Each rule is a reachability query: from a set of *entry points*, can
//! any function carrying a forbidden [`FactKind`] be reached?
//! Propagation runs as a reverse-BFS from fact-bearing functions toward
//! callers, recording the next hop at each step so a finding can print
//! the full entry → … → fact witness chain.
//!
//! | rule          | entries                                   | forbidden facts |
//! |---------------|-------------------------------------------|-----------------|
//! | `panic-reach` | `Frame::decode`, `*Message::decode_body`, `ServerNode::restore`, `DurableStore::open_shard` | panic |
//! | `alloc-reach` | `diff_docs`, `apply_delta`, chunk codec   | alloc           |
//! | `clock-reach` | every `pub fn` of a pure crate            | clock           |
//! | `fs-reach`    | every `pub fn` of a pure crate            | fs              |
//! | `net-reach`   | every `pub fn` of a pure crate            | net             |
//! | `shard-shape` | shard/server poll loops (+ per-fn scan)   | blocking        |

use super::facts::{Fact, FactKind};
use super::graph::{CallEdge, CallGraph, FnId, Workspace};

/// Crates whose public functions must never reach a wall-clock read —
/// mirrors the lint layer's thread-free set: these are the pure state
/// machines.
pub const PURE_CRATES: &[&str] = &[
    "proto", "diff", "compress", "version", "cache", "client", "server",
];

/// One analysis finding.
#[derive(Debug, Clone)]
pub struct AnalysisFinding {
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Qualified name of the entry point the guarantee protects.
    pub entry: String,
    /// Qualified name of the function carrying the forbidden fact.
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
}

impl std::fmt::Display for AnalysisFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)?;
        if self.chain.len() > 1 {
            write!(f, "\n    via {}", self.chain.join(" -> "))?;
        }
        Ok(())
    }
}

/// Result of one reverse-reachability pass.
struct Reach {
    /// Can this function reach a forbidden fact?
    reachable: Vec<bool>,
    /// The direct fact, for seed functions.
    seed_fact: Vec<Option<Fact>>,
    /// Next hop toward the fact, for propagated functions.
    via: Vec<Option<CallEdge>>,
}

fn reach(ws: &Workspace, g: &CallGraph, wanted: impl Fn(&Fact) -> bool) -> Reach {
    let n = ws.fns.len();
    let mut r = Reach {
        reachable: vec![false; n],
        seed_fact: vec![None; n],
        via: vec![None; n],
    };
    let mut queue: Vec<FnId> = Vec::new();
    for id in 0..n {
        if let Some(fact) = ws.facts[id].iter().find(|f| wanted(f)) {
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
fn finding_for(
    ws: &Workspace,
    r: &Reach,
    rule: &'static str,
    entry: FnId,
    what: &str,
) -> AnalysisFinding {
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
        rule,
        entry: ws.qual(entry).to_string(),
        fact_fn: fact_item.qual.clone(),
        token: fact.token.clone(),
        file: fact_item.file.clone(),
        line: fact.line,
        chain,
        message: format!(
            "{what}: `{}` reaches `{}` ({} fact `{}` at {}:{})",
            ws.qual(entry),
            fact_item.qual,
            fact.kind.name(),
            fact.token,
            fact_item.file,
            fact.line
        ),
    }
}

fn entries_of(ws: &Workspace, specs: &[(&str, Option<&str>, &str)]) -> Vec<FnId> {
    let mut v = Vec::new();
    for (krate, owner, name) in specs {
        v.extend(ws.find(krate, *owner, name));
    }
    v.sort_unstable();
    v.dedup();
    v
}

fn missing_entries(rule: &'static str, what: &str) -> AnalysisFinding {
    AnalysisFinding {
        rule,
        entry: String::from("(none)"),
        fact_fn: String::from("(none)"),
        token: String::from("missing-entry"),
        file: String::from("crates"),
        line: 0,
        chain: Vec::new(),
        message: format!("{what}: no entry points found in the workspace; the guarantee is unverifiable"),
    }
}

/// Runs all four transitive rules and returns their findings.
pub fn run_rules(ws: &Workspace, g: &CallGraph) -> Vec<AnalysisFinding> {
    let mut findings = Vec::new();

    // Rule a: nothing panicking reachable from the entry points that
    // take untrusted bytes: wire decode (the socket) and journal replay
    // (the disk).
    let untrusted_entries = entries_of(
        ws,
        &[
            ("proto", Some("Frame"), "decode"),
            ("proto", Some("ClientMessage"), "decode_body"),
            ("proto", Some("ServerMessage"), "decode_body"),
            ("server", Some("ServerNode"), "restore"),
            ("store", Some("DurableStore"), "open_shard"),
        ],
    );
    if untrusted_entries.is_empty() {
        findings.push(missing_entries("panic-reach", "untrusted input"));
    } else {
        let r = reach(ws, g, |f| f.kind == FactKind::Panic);
        for &e in &untrusted_entries {
            if r.reachable[e] {
                findings.push(finding_for(
                    ws,
                    &r,
                    "panic-reach",
                    e,
                    "panic reachable from untrusted input (socket or disk)",
                ));
            }
        }
    }

    // Rule b: nothing allocating reachable from the diff hot path.
    let diff_entries = entries_of(
        ws,
        &[
            ("diff", None, "diff_docs"),
            ("diff", None, "apply_delta"),
            ("diff", None, "chunk_delta_into"),
            ("diff", None, "chunk_delta_indexed"),
            ("diff", None, "apply_chunk_delta"),
        ],
    );
    if diff_entries.is_empty() {
        findings.push(missing_entries("alloc-reach", "diff hot path"));
    } else {
        let r = reach(ws, g, |f| f.kind == FactKind::Alloc);
        for &e in &diff_entries {
            if r.reachable[e] {
                findings.push(finding_for(
                    ws,
                    &r,
                    "alloc-reach",
                    e,
                    "allocation reachable from the zero-copy diff hot path",
                ));
            }
        }
    }

    // Rule c: no wall-clock read reachable from any pure-crate pub fn.
    {
        let entries: Vec<FnId> = (0..ws.fns.len())
            .filter(|&id| {
                let f = ws.item(id);
                f.is_pub && f.body.is_some() && PURE_CRATES.contains(&f.krate.as_str())
            })
            .collect();
        let r = reach(ws, g, |f| f.kind == FactKind::Clock);
        for &e in &entries {
            if r.reachable[e] {
                findings.push(finding_for(
                    ws,
                    &r,
                    "clock-reach",
                    e,
                    "wall-clock read reachable from a pure-crate public fn",
                ));
            }
        }
    }

    // Rule c2: no filesystem or OS I/O reachable from any pure-crate
    // pub fn. The sans-io discipline keeps persistence at the edges:
    // the server *emits* `Persist` records, only the runtime's sink
    // (the durable store) may touch disk.
    {
        let entries: Vec<FnId> = (0..ws.fns.len())
            .filter(|&id| {
                let f = ws.item(id);
                f.is_pub && f.body.is_some() && PURE_CRATES.contains(&f.krate.as_str())
            })
            .collect();
        let r = reach(ws, g, |f| f.kind == FactKind::Fs);
        for &e in &entries {
            if r.reachable[e] {
                findings.push(finding_for(
                    ws,
                    &r,
                    "fs-reach",
                    e,
                    "filesystem/io access reachable from a pure-crate public fn",
                ));
            }
        }
    }

    // Rule c3: no network/socket symbol reachable from any pure-crate
    // pub fn. The fault-tolerance layer lives in the runtimes and
    // transports; the protocol cores must model a disconnect as a plain
    // state transition (`LinkDown`/`Resume`), never by touching a
    // socket themselves.
    {
        let entries: Vec<FnId> = (0..ws.fns.len())
            .filter(|&id| {
                let f = ws.item(id);
                f.is_pub && f.body.is_some() && PURE_CRATES.contains(&f.krate.as_str())
            })
            .collect();
        let r = reach(ws, g, |f| f.kind == FactKind::Net);
        for &e in &entries {
            if r.reachable[e] {
                findings.push(finding_for(
                    ws,
                    &r,
                    "net-reach",
                    e,
                    "network/socket access reachable from a pure-crate public fn",
                ));
            }
        }
    }

    // Rule d2: no blocking call reachable from a shard's per-event
    // handler — everything a shard does between two inbox waits. The
    // inbox wait itself lives *outside* this entry by design, so it
    // stays the only place a shard blocks.
    let step_entries = entries_of(ws, &[("runtime", Some("Shard"), "step")]);
    if step_entries.is_empty() {
        findings.push(missing_entries("shard-shape", "shard event handler"));
    } else {
        let r = reach(ws, g, |f| f.kind == FactKind::Blocking);
        for &e in &step_entries {
            if r.reachable[e] {
                findings.push(finding_for(
                    ws,
                    &r,
                    "shard-shape",
                    e,
                    "blocking call reachable from a shard's event handler",
                ));
            }
        }
    }

    // Rule d1: no lock taken before a channel send within one runtime
    // function — a guard held across a shard-inbox send can deadlock a
    // session's reader against the shard. Purely local, so no graph walk.
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
        let Some(lock_line) = first_lock else { continue };
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

    findings.sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use super::super::extract::extract_file;
    use super::super::facts::infer_facts;
    use super::super::graph::{build_graph, GlobalFn};
    use crate::lint::{strip_cfg_test, strip_code};

    fn ws_from(sources: &[(&str, &str, &str)]) -> Workspace {
        let mut files = Vec::new();
        for (krate, rel, src) in sources {
            let label = format!("crates/{krate}/{rel}");
            files.push(extract_file(
                strip_cfg_test(&strip_code(src)),
                krate,
                &label,
                rel,
            ));
        }
        let mut fns = Vec::new();
        let mut facts = Vec::new();
        for (file_idx, file) in files.iter().enumerate() {
            for (fn_idx, fn_facts) in infer_facts(file).into_iter().enumerate() {
                fns.push(GlobalFn { file_idx, fn_idx });
                facts.push(fn_facts);
            }
        }
        Workspace {
            files,
            fns,
            facts,
            deps: std::collections::HashMap::new(),
        }
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
            ("runtime", "src/clock.rs", "pub fn now() { let t = Instant::now(); }"),
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
            ("store", "src/segment.rs", "pub fn append() { let d = fs::read(p); }"),
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
            ("netsim", "src/tcp.rs", "pub fn connect() { let s = TcpStream::connect(a); }"),
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
