//! Workspace loading and call-graph construction.
//!
//! The graph is *name-resolved within the workspace* and conservative on
//! ambiguity: a call site that could target several workspace functions
//! links to all of them, and a method call through an unknown receiver
//! links to every workspace method of that name. Calls that resolve to
//! known-external types (`Vec::new`, `Option::map`, …) produce no edge —
//! their effects are captured directly as facts by
//! [`facts`](super::facts) where relevant. Over-linking can only create
//! false findings, never hide one, which is the right failure mode for
//! a checker; precision is tuned by the known-external table below.

use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use super::extract::{extract_file, is_keyword, FileItems, FnItem};
use super::facts::{infer_facts, Fact};
use super::lexer::{strip_cfg_test, strip_code, Tok, TokKind};

/// The parsed workspace: all files, a global function index, and each
/// function's direct facts.
#[derive(Debug)]
pub struct Workspace {
    /// The directory holding `crates/`.
    pub root: PathBuf,
    /// Parsed files in deterministic (sorted-path) order.
    pub files: Vec<FileItems>,
    /// Global function table; `FnId` indexes into this.
    pub fns: Vec<GlobalFn>,
    /// Direct facts per global function.
    pub facts: Vec<Vec<Fact>>,
    /// Transitive workspace dependencies per crate (from Cargo.toml).
    /// A crate with no entry is treated as depending on everything —
    /// the conservative direction.
    pub deps: HashMap<String, BTreeSet<String>>,
}

/// Index of a function in [`Workspace::fns`].
pub type FnId = usize;

/// One function in the global table.
#[derive(Debug)]
pub struct GlobalFn {
    /// Which file it came from.
    pub file_idx: usize,
    /// Which item within that file.
    pub fn_idx: usize,
}

/// One resolved call edge.
#[derive(Debug, Clone)]
pub struct CallEdge {
    /// Target function.
    pub callee: FnId,
    /// 1-based line of the call site in the caller's file.
    pub line: u32,
    /// The call text as written (`.send(`, `Frame::decode`, …).
    pub text: String,
}

/// The workspace call graph: forward edges and a reverse adjacency.
#[derive(Debug)]
pub struct CallGraph {
    /// Outgoing edges per function.
    pub edges: Vec<Vec<CallEdge>>,
    /// Callers per function (indices into `edges`' owners).
    pub callers: Vec<Vec<FnId>>,
}

/// Path parents that are known to live outside the workspace. A
/// qualified call through one of these produces no edge (instead of
/// falling back to the method-name index): linking `Vec::new(` to every
/// workspace constructor named `new` would drown the rules in noise.
const KNOWN_EXTERNAL: &[&str] = &[
    // std/core/alloc types
    "Vec",
    "VecDeque",
    "String",
    "Box",
    "Rc",
    "Arc",
    "RefCell",
    "Cell",
    "Cow",
    "Option",
    "Result",
    "Some",
    "Ok",
    "Err",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "Path",
    "PathBuf",
    "OsString",
    "Instant",
    "SystemTime",
    "Duration",
    "Ordering",
    "Wrapping",
    "Layout",
    "Range",
    "Iterator",
    "Default",
    "Clone",
    "From",
    "TryFrom",
    "Into",
    "TryInto",
    "ToOwned",
    "ToString",
    "FromStr",
    "Display",
    "Debug",
    "Hash",
    "Hasher",
    "DefaultHasher",
    "IpAddr",
    "SocketAddr",
    "TcpListener",
    "TcpStream",
    "AtomicUsize",
    "AtomicU64",
    "AtomicU32",
    "AtomicBool",
    "NonZeroU32",
    "NonZeroU64",
    "Error",
    "Write",
    "Read",
    "Char",
    "Utf8Error",
    // std/core module segments
    "std",
    "core",
    "alloc",
    "mem",
    "ptr",
    "fmt",
    "iter",
    "cmp",
    "slice",
    "array",
    "str",
    "char",
    "env",
    "process",
    "thread",
    "time",
    "fs",
    "io",
    "net",
    "collections",
    "sync",
    "atomic",
    "convert",
    "ops",
    "num",
    "hash",
    "borrow",
    "marker",
    // primitives
    "u8",
    "u16",
    "u32",
    "u64",
    "u128",
    "usize",
    "i8",
    "i16",
    "i32",
    "i64",
    "i128",
    "isize",
    "f32",
    "f64",
    "bool",
    // vendored compat crates (treated like std)
    "bytes",
    "Bytes",
    "BytesMut",
    "Buf",
    "BufMut",
    "crossbeam",
    "crossbeam_channel",
    "rand",
    "proptest",
    "criterion",
    "Criterion",
    "Rng",
    "StdRng",
    "SeedableRng",
    "Sender",
    "Receiver",
];

/// Method names so ubiquitous on std types (`Vec::push`, `Option::map`,
/// `fmt::Debug::fmt`, …) that linking `receiver.push(…)` to every
/// workspace method named `push` is pure noise. These are excluded from
/// the *name-fallback* paths only; an exact `Owner::name` resolution
/// still links. Effectful std methods the facts layer cares about
/// (`send`, `recv`, `join`, `lock`, `wait`, `take`) are deliberately
/// absent — `take` is a real workspace method (`Cursor::take`), and the
/// rest become direct facts at the call site anyway.
const METHOD_DENY: &[&str] = &[
    "push",
    "push_str",
    "pop",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "insert",
    "remove",
    "clear",
    "contains",
    "contains_key",
    "first",
    "last",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "extend",
    "extend_from_slice",
    "clone",
    "default",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "map",
    "map_err",
    "and_then",
    "or_else",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "ok_or",
    "ok_or_else",
    "find",
    "position",
    "filter",
    "fold",
    "any",
    "all",
    "count",
    "rev",
    "zip",
    "enumerate",
    "copied",
    "cloned",
    "collect",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "retain",
    "drain",
    "keys",
    "values",
    "entry",
    "split",
    "split_at",
    "split_once",
    "starts_with",
    "ends_with",
    "as_ref",
    "as_mut",
    "as_slice",
    "as_bytes",
    "as_str",
    "to_owned",
    "to_string",
    "to_vec",
    "truncate",
    "reserve",
    "replace",
    "min",
    "max",
    "write",
    "flush",
    "borrow",
    "borrow_mut",
    "status",
    "new",
];

fn method_fallback(ix: &Indexes, name: &str) -> Vec<FnId> {
    if METHOD_DENY.contains(&name) {
        return Vec::new();
    }
    ix.methods_by_name.get(name).cloned().unwrap_or_default()
}

/// Loads and parses every `crates/*/src/**/*.rs` under `root`,
/// extracting functions and inferring their direct facts.
pub fn load_workspace(root: &Path) -> io::Result<Workspace> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let path = entry?.path();
            if path.join("src").is_dir() {
                crate_dirs.push(path);
            }
        }
    }
    crate_dirs.sort();

    let mut files = Vec::new();
    for crate_dir in &crate_dirs {
        let krate = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let src_dir = crate_dir.join("src");
        let mut paths = Vec::new();
        rust_files_under(&src_dir, &mut paths)?;
        paths.sort();
        for path in paths {
            let raw = fs::read_to_string(&path)?;
            let stripped = strip_cfg_test(&strip_code(&raw));
            let file_label = rel_label(root, &path);
            let rel_in_crate = rel_label(crate_dir, &path);
            files.push(extract_file(stripped, &krate, &file_label, &rel_in_crate));
        }
    }

    let deps = load_deps(&crate_dirs);
    Ok(Workspace::from_files(root.to_path_buf(), files, deps))
}

/// Reads each crate's `[dependencies]` for `shadow-*` workspace deps and
/// returns the transitive closure. A call edge whose target crate is not
/// in the caller's closure is impossible — the caller cannot even name
/// that crate — so resolution uses this to prune false fan-out.
fn load_deps(crate_dirs: &[PathBuf]) -> HashMap<String, BTreeSet<String>> {
    let mut direct: HashMap<String, BTreeSet<String>> = HashMap::new();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let mut in_deps = false;
        let mut set = BTreeSet::new();
        for line in manifest.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                // `src/` code only sees [dependencies]; dev-deps are for
                // tests, which the analyzer does not scan.
                in_deps = line == "[dependencies]";
                continue;
            }
            if !in_deps {
                continue;
            }
            if let Some(rest) = line.strip_prefix("shadow-") {
                if let Some((dep, _)) = rest.split_once('=') {
                    set.insert(dep.trim().to_string());
                }
            }
        }
        direct.insert(name, set);
    }
    // Transitive closure (the workspace graph is tiny).
    let names: Vec<String> = direct.keys().cloned().collect();
    let mut changed = true;
    while changed {
        changed = false;
        for name in &names {
            let deps: Vec<String> = direct[name].iter().cloned().collect();
            for dep in deps {
                let extra: Vec<String> = direct
                    .get(&dep)
                    .map(|s| s.iter().cloned().collect())
                    .unwrap_or_default();
                let set = direct.get_mut(name).unwrap_or_else(|| unreachable!());
                for e in extra {
                    changed |= set.insert(e);
                }
            }
        }
    }
    direct
}

fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
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

impl Workspace {
    /// Indexes the functions of `files` and infers their direct facts.
    pub(crate) fn from_files(
        root: PathBuf,
        files: Vec<FileItems>,
        deps: HashMap<String, BTreeSet<String>>,
    ) -> Workspace {
        let mut fns = Vec::new();
        let mut facts = Vec::new();
        for (file_idx, file) in files.iter().enumerate() {
            for (fn_idx, fn_facts) in infer_facts(file).into_iter().enumerate() {
                fns.push(GlobalFn { file_idx, fn_idx });
                facts.push(fn_facts);
            }
        }
        Workspace {
            root,
            files,
            fns,
            facts,
            deps,
        }
    }

    /// The item record of a global function.
    pub fn item(&self, id: FnId) -> &FnItem {
        let g = &self.fns[id];
        &self.files[g.file_idx].fns[g.fn_idx]
    }

    /// Qualified display name.
    pub fn qual(&self, id: FnId) -> &str {
        &self.item(id).qual
    }

    /// Finds functions by crate, owner type, and name. `owner: None`
    /// matches free functions only.
    pub fn find(&self, krate: &str, owner: Option<&str>, name: &str) -> Vec<FnId> {
        (0..self.fns.len())
            .filter(|&id| {
                let f = self.item(id);
                f.krate == krate && f.name == name && f.owner.as_deref() == owner
            })
            .collect()
    }

    /// Can code in `caller` crate possibly call into `callee` crate?
    /// True within a crate, when the caller (transitively) depends on
    /// the callee, or when the caller has no manifest on record.
    pub fn allows(&self, caller: &str, callee: &str) -> bool {
        if caller == callee {
            return true;
        }
        match self.deps.get(caller) {
            Some(set) => set.contains(callee),
            None => true,
        }
    }
}

/// Name-resolution indexes over a workspace.
struct Indexes {
    /// `(owner type, method name)` → functions.
    by_owner_name: HashMap<(String, String), Vec<FnId>>,
    /// method name → all impl/trait methods of that name.
    methods_by_name: HashMap<String, Vec<FnId>>,
    /// `(file, name)` → free functions.
    free_by_file: HashMap<(String, String), Vec<FnId>>,
    /// `(crate, name)` → free functions.
    free_by_crate: HashMap<(String, String), Vec<FnId>>,
    /// name → all free functions.
    free_by_name: HashMap<String, Vec<FnId>>,
    /// `(path segment, name)` → free functions whose crate or last
    /// module segment matches (for `module::helper(...)` calls).
    free_by_seg: HashMap<(String, String), Vec<FnId>>,
}

fn build_indexes(ws: &Workspace) -> Indexes {
    let mut ix = Indexes {
        by_owner_name: HashMap::new(),
        methods_by_name: HashMap::new(),
        free_by_file: HashMap::new(),
        free_by_crate: HashMap::new(),
        free_by_name: HashMap::new(),
        free_by_seg: HashMap::new(),
    };
    for id in 0..ws.fns.len() {
        let f = ws.item(id);
        match &f.owner {
            Some(owner) => {
                ix.by_owner_name
                    .entry((owner.clone(), f.name.clone()))
                    .or_default()
                    .push(id);
                ix.methods_by_name
                    .entry(f.name.clone())
                    .or_default()
                    .push(id);
            }
            None => {
                ix.free_by_file
                    .entry((f.file.clone(), f.name.clone()))
                    .or_default()
                    .push(id);
                ix.free_by_crate
                    .entry((f.krate.clone(), f.name.clone()))
                    .or_default()
                    .push(id);
                ix.free_by_name.entry(f.name.clone()).or_default().push(id);
                // Reachable as `seg::name(...)` through the crate name
                // (`shadow_proto::checksum`), its dir form (`proto`),
                // or the last module segment (`hunt_mcilroy::lcs…`).
                let mut segs: Vec<String> = vec![f.krate.clone(), format!("shadow_{}", f.krate)];
                let parts: Vec<&str> = f.qual.split("::").collect();
                if parts.len() >= 3 {
                    segs.push(parts[parts.len() - 2].to_string());
                }
                for seg in segs {
                    ix.free_by_seg
                        .entry((seg, f.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
        }
    }
    for v in ix
        .by_owner_name
        .values_mut()
        .chain(ix.methods_by_name.values_mut())
        .chain(ix.free_by_seg.values_mut())
    {
        v.sort_unstable();
        v.dedup();
    }
    ix
}

/// Builds the call graph for a loaded workspace.
pub fn build_graph(ws: &Workspace) -> CallGraph {
    let ix = build_indexes(ws);
    let mut edges: Vec<Vec<CallEdge>> = vec![Vec::new(); ws.fns.len()];

    for (caller, g) in ws.fns.iter().enumerate() {
        let file = &ws.files[g.file_idx];
        let item = &file.fns[g.fn_idx];
        let Some((open, close)) = item.body else {
            continue;
        };
        collect_calls(ws, &ix, file, item, open, close, &mut edges[caller]);
    }

    // Deduplicate repeated identical edges (same callee from one
    // caller) keeping the first call site as the witness.
    for out in &mut edges {
        let mut seen = std::collections::HashSet::new();
        out.retain(|e| seen.insert(e.callee));
    }

    let mut callers: Vec<Vec<FnId>> = vec![Vec::new(); ws.fns.len()];
    for (caller, out) in edges.iter().enumerate() {
        for e in out {
            callers[e.callee].push(caller);
        }
    }
    for v in &mut callers {
        v.sort_unstable();
        v.dedup();
    }
    CallGraph { edges, callers }
}

/// Is the token at `i` (an ident) immediately invoked — `name(` or
/// `name::<T>(`?
fn is_invoked(toks: &[Tok], i: usize) -> bool {
    if i + 1 >= toks.len() {
        return false;
    }
    match toks[i + 1].kind {
        TokKind::Punct('(') => true,
        TokKind::PathSep => {
            // Turbofish: `name::<T>(`.
            if i + 2 < toks.len() && toks[i + 2].kind == TokKind::Punct('<') {
                let mut depth = 0i32;
                let mut j = i + 2;
                while j < toks.len() {
                    match toks[j].kind {
                        TokKind::Punct('<') => depth += 1,
                        TokKind::Punct('>') => {
                            depth -= 1;
                            if depth == 0 {
                                return j + 1 < toks.len()
                                    && toks[j + 1].kind == TokKind::Punct('(');
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            false
        }
        _ => false,
    }
}

fn collect_calls(
    ws: &Workspace,
    ix: &Indexes,
    file: &FileItems,
    item: &FnItem,
    open: usize,
    close: usize,
    out: &mut Vec<CallEdge>,
) {
    let src = &file.src;
    let toks = &file.toks;
    let mut i = open;
    while i <= close {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = t.text(src);
        // Callable names start lowercase: uppercase leads are enum
        // variants or tuple-struct constructors, which run no user code.
        let callable = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
            && !is_keyword(name);
        if !callable || !is_invoked(toks, i) {
            i += 1;
            continue;
        }

        let prev = if i > 0 { Some(&toks[i - 1]) } else { None };
        let targets: Vec<FnId> = match prev.map(|p| p.kind) {
            Some(TokKind::Punct('.')) => {
                // Method call: every workspace *self-receiver* method of
                // that name (unless the name is a std-ubiquitous one) —
                // associated fns like `DocBuf::from_text` can never be the
                // target of `.from_text(...)`.
                method_fallback(ix, name)
                    .into_iter()
                    .filter(|&id| ws.item(id).has_self)
                    .collect()
            }
            Some(TokKind::PathSep) => {
                let parent = if i >= 2 && toks[i - 2].kind == TokKind::Ident {
                    Some(toks[i - 2].text(src))
                } else {
                    None
                };
                resolve_qualified(ix, item, parent, name)
            }
            Some(TokKind::Ident) if prev.is_some_and(|p| p.text(src) == "fn") => {
                // A nested `fn name(` declaration, not a call.
                Vec::new()
            }
            _ => {
                // Bare call: same file, then same crate, then anywhere.
                ix.free_by_file
                    .get(&(item.file.clone(), name.to_string()))
                    .or_else(|| {
                        ix.free_by_crate
                            .get(&(item.krate.clone(), name.to_string()))
                    })
                    .or_else(|| ix.free_by_name.get(name))
                    .cloned()
                    .unwrap_or_default()
            }
        };

        for callee in targets {
            if ws.item(callee).body.is_none() {
                continue; // trait signature: impls are linked by name too
            }
            if !ws.allows(&item.krate, &ws.item(callee).krate) {
                continue; // caller's crate can't even name the callee's
            }
            let text = match prev.map(|p| p.kind) {
                Some(TokKind::Punct('.')) => format!(".{name}("),
                Some(TokKind::PathSep) if i >= 2 && toks[i - 2].kind == TokKind::Ident => {
                    format!("{}::{}", toks[i - 2].text(src), name)
                }
                _ => format!("{name}("),
            };
            out.push(CallEdge {
                callee,
                line: t.line,
                text,
            });
        }
        i += 1;
    }
}

/// Resolves `Parent::name(...)`.
fn resolve_qualified(ix: &Indexes, caller: &FnItem, parent: Option<&str>, name: &str) -> Vec<FnId> {
    let parent = match parent {
        // `<T as Trait>::name(` and friends: unknown receiver.
        None => return method_fallback(ix, name),
        Some(p) => p,
    };
    // `crate::name(` / `self::name(`: a free-function path.
    if matches!(parent, "crate" | "self" | "super") {
        return ix
            .free_by_crate
            .get(&(caller.krate.clone(), name.to_string()))
            .or_else(|| ix.free_by_name.get(name))
            .cloned()
            .unwrap_or_default();
    }
    let parent = if parent == "Self" {
        match &caller.owner {
            Some(o) => o.as_str(),
            None => return method_fallback(ix, name),
        }
    } else {
        parent
    };

    let mut found: Vec<FnId> = Vec::new();
    if let Some(v) = ix
        .by_owner_name
        .get(&(parent.to_string(), name.to_string()))
    {
        found.extend(v);
    }
    if let Some(v) = ix.free_by_seg.get(&(parent.to_string(), name.to_string())) {
        found.extend(v);
    }
    if !found.is_empty() {
        found.sort_unstable();
        found.dedup();
        return found;
    }
    if KNOWN_EXTERNAL.contains(&parent) {
        return Vec::new();
    }
    // Unknown parent (usually a generic parameter like `M::decode_body`):
    // conservatively link every workspace method of that name.
    method_fallback(ix, name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn ws_from(sources: &[(&str, &str, &str)]) -> Workspace {
        // (krate, rel_in_crate, src); no manifests, so every cross-crate
        // edge is allowed — matching unit-test expectations.
        let files = sources
            .iter()
            .map(|(krate, rel, src)| {
                let label = format!("crates/{krate}/{rel}");
                extract_file(strip_cfg_test(&strip_code(src)), krate, &label, rel)
            })
            .collect();
        Workspace::from_files(PathBuf::new(), files, HashMap::new())
    }

    fn edge_quals(ws: &Workspace, g: &CallGraph, caller_qual: &str) -> Vec<String> {
        let caller = (0..ws.fns.len())
            .find(|&id| ws.qual(id) == caller_qual)
            .unwrap();
        let mut v: Vec<String> = g.edges[caller]
            .iter()
            .map(|e| ws.qual(e.callee).to_string())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn bare_calls_prefer_same_file_then_crate_then_workspace() {
        let ws = ws_from(&[
            (
                "a",
                "src/one.rs",
                "fn caller() { helper() }\nfn helper() {}",
            ),
            ("a", "src/two.rs", "fn helper() {}"),
            (
                "b",
                "src/lib.rs",
                "fn helper() {}\nfn cross() { only_in_a() }",
            ),
            ("a", "src/three.rs", "fn only_in_a() {}"),
        ]);
        let g = build_graph(&ws);
        assert_eq!(
            edge_quals(&ws, &g, "a::one::caller"),
            vec!["a::one::helper"]
        );
        assert_eq!(edge_quals(&ws, &g, "b::cross"), vec!["a::three::only_in_a"]);
    }

    #[test]
    fn qualified_calls_resolve_types_modules_and_generics() {
        let ws = ws_from(&[
            (
                "proto",
                "src/wire.rs",
                "struct Frame;\nimpl Frame {\n  pub fn decode(b: &[u8]) { M::decode_body(b); }\n}",
            ),
            (
                "proto",
                "src/message.rs",
                "impl ClientMessage { fn decode_body(c: &mut u8) {} }\nimpl ServerMessage { fn decode_body(c: &mut u8) {} }",
            ),
            (
                "diff",
                "src/zerocopy.rs",
                "pub fn diff_docs() { crate::hunt_mcilroy::lcs_matches_scratch(); }",
            ),
            (
                "diff",
                "src/hunt_mcilroy.rs",
                "pub fn lcs_matches_scratch() {}\npub fn lcs_matches() { let v: Vec<u8> = Vec::new(); }",
            ),
        ]);
        let g = build_graph(&ws);
        // Generic `M::decode_body` fans out to both impls.
        assert_eq!(
            edge_quals(&ws, &g, "proto::wire::Frame::decode"),
            vec![
                "proto::message::ClientMessage::decode_body",
                "proto::message::ServerMessage::decode_body"
            ]
        );
        // Module-qualified free call resolves; `Vec::new` links nowhere.
        assert_eq!(
            edge_quals(&ws, &g, "diff::zerocopy::diff_docs"),
            vec!["diff::hunt_mcilroy::lcs_matches_scratch"]
        );
        assert_eq!(
            edge_quals(&ws, &g, "diff::hunt_mcilroy::lcs_matches"),
            Vec::<String>::new()
        );
    }

    #[test]
    fn method_calls_link_all_name_matches_and_self_resolves() {
        let ws = ws_from(&[(
            "r",
            "src/lib.rs",
            "impl A { fn poll(&self) { self.step(); Self::halt(); } fn step(&self) {} fn halt() {} }\nimpl B { fn step(&self) {} }",
        )]);
        let g = build_graph(&ws);
        assert_eq!(
            edge_quals(&ws, &g, "r::A::poll"),
            vec!["r::A::halt", "r::A::step", "r::B::step"]
        );
    }

    #[test]
    fn constructors_and_externals_are_not_edges() {
        let ws = ws_from(&[(
            "r",
            "src/lib.rs",
            "enum E { New }\nimpl E { fn new() {} }\nfn f() { let a = E::New; let b = Vec::new(); let c = Some(3); }",
        )]);
        let g = build_graph(&ws);
        assert_eq!(edge_quals(&ws, &g, "r::f"), Vec::<String>::new());
    }

    #[test]
    fn dep_filter_blocks_impossible_cross_crate_edges() {
        let mut ws = ws_from(&[
            ("proto", "src/lib.rs", "pub fn encode() { helper_q() }"),
            ("runtime", "src/lib.rs", "pub fn helper_q() {}"),
            ("server", "src/lib.rs", "pub fn serve() { helper_q() }"),
        ]);
        // proto depends on nothing; server depends on runtime.
        ws.deps.insert("proto".into(), BTreeSet::new());
        ws.deps
            .insert("server".into(), [String::from("runtime")].into());
        let g = build_graph(&ws);
        // proto can't reach runtime, so the name-match edge is dropped…
        assert_eq!(edge_quals(&ws, &g, "proto::encode"), Vec::<String>::new());
        // …but server, which depends on runtime, keeps it.
        assert_eq!(
            edge_quals(&ws, &g, "server::serve"),
            vec!["runtime::helper_q"]
        );
    }

    #[test]
    fn ubiquitous_method_names_do_not_fan_out() {
        let ws = ws_from(&[
            (
                "diff",
                "src/zerocopy.rs",
                "pub fn copy_insert(out: &mut Vec<u8>) { out.push(7); out.step(); }",
            ),
            (
                "obs",
                "src/report.rs",
                "impl NodeReport { pub fn push(&mut self) { Vec::<u8>::new(); } pub fn step(&mut self) {} }",
            ),
        ]);
        let g = build_graph(&ws);
        // `.push(` is denied from the name fallback; `.step(` is not.
        assert_eq!(
            edge_quals(&ws, &g, "diff::zerocopy::copy_insert"),
            vec!["obs::report::NodeReport::step"]
        );
        // An exact path still resolves a denied name.
        let ws2 = ws_from(&[(
            "obs",
            "src/report.rs",
            "impl NodeReport { pub fn push(&mut self) {} }\nfn f(r: &mut NodeReport) { NodeReport::push(r); }",
        )]);
        let g2 = build_graph(&ws2);
        assert_eq!(
            edge_quals(&ws2, &g2, "obs::report::f"),
            vec!["obs::report::NodeReport::push"]
        );
    }

    #[test]
    fn load_workspace_walks_real_crates() {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .unwrap()
            .to_path_buf();
        let ws = load_workspace(&root).unwrap();
        assert!(ws.fns.len() > 100, "found {} fns", ws.fns.len());
        let decode = ws.find("proto", Some("Frame"), "decode");
        assert_eq!(decode.len(), 1);
        let g = build_graph(&ws);
        assert!(!g.edges[decode[0]].is_empty());
    }
}
