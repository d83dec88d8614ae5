//! Whole-workspace static analysis: the repo's one static checker.
//!
//! This module builds a model of the workspace — every `fn`, every
//! resolvable call edge, every primitive effect — and checks the sans-io
//! discipline against it in three ways (see [`rules`]): *transitive*
//! reachability questions (can a panic be reached from untrusted input,
//! an allocation from the zero-copy diff loop, a wall-clock read or a
//! filesystem touch from a pure crate's API, a blocking call from a
//! shard's event handler?), file-scope bans (no clock read anywhere in
//! a sans-io crate, no panic in the wire decoder or the observability
//! crate, no thread or lock in a pure crate), and enum variant coverage.
//! The pipeline is `lexer` → `extract` → `facts` + `graph` → `rules`,
//! all textual (no rustc, no syn), deliberately over-approximate, and
//! fast enough to run on every CI push. `report` renders findings for
//! humans or as JSON and subtracts a committed baseline. Soundness
//! caveats are documented in DESIGN.md §13.

pub mod extract;
pub mod facts;
pub mod graph;
pub mod lexer;
pub mod report;
pub mod rules;

pub use rules::AnalysisFinding;

use std::io;
use std::path::{Path, PathBuf};

/// Size counters for the analysis run, exported alongside findings.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisStats {
    /// Source files parsed.
    pub files: usize,
    /// Functions extracted.
    pub fns: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Direct facts inferred.
    pub facts: usize,
}

/// Loads the workspace under `root`, builds the call graph, and runs
/// every rule. Returns findings (empty means the guarantees hold) plus
/// size stats.
pub fn analyze(root: &Path) -> io::Result<(Vec<AnalysisFinding>, AnalysisStats)> {
    let ws = graph::load_workspace(root)?;
    let g = graph::build_graph(&ws);
    let stats = AnalysisStats {
        files: ws.files.len(),
        fns: ws.fns.len(),
        edges: g.edges.iter().map(Vec::len).sum(),
        facts: ws.facts.iter().map(Vec::len).sum(),
    };
    let findings = rules::run_rules(&ws, &g);
    Ok((findings, stats))
}

/// Walks upward from `start` to the workspace root (the directory
/// containing `crates/proto`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|dir| dir.join("crates/proto").is_dir())
        .map(Path::to_path_buf)
}
