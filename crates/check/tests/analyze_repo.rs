//! The call-graph analysis must hold on the repository itself — and
//! each transitive rule must actually fire when a violation is planted
//! in a synthetic workspace, across file and crate boundaries the
//! per-file lints cannot see.

use std::fs;
use std::path::{Path, PathBuf};

use shadow_check::analyze;
use shadow_check::AnalysisFinding;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/check sits two levels below the root")
        .to_path_buf()
}

/// Builds a throwaway workspace under the cargo-managed temp dir and
/// returns its root. `files` are `(relative path, contents)` pairs.
fn temp_workspace(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).expect("stale temp workspace removable");
    }
    for (rel, text) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("file paths have parents")).unwrap();
        fs::write(&path, text).unwrap();
    }
    root
}

fn rule_findings(root: &Path, rule: &str) -> Vec<AnalysisFinding> {
    let (findings, _) = analyze(root).expect("sources readable");
    findings.into_iter().filter(|f| f.rule == rule).collect()
}

/// `shadow-check analyze` passes on main with no baseline: no panic
/// reachable from the wire decoder, no allocation from the diff hot
/// path, no clock read from a pure crate, no blocking shard poll.
#[test]
fn workspace_analysis_is_clean() {
    let (findings, stats) = analyze(&repo_root()).expect("sources readable");
    assert!(
        findings.is_empty(),
        "analysis findings on the repository:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(stats.files > 50, "walked {} files", stats.files);
    assert!(stats.edges > 500, "resolved {} edges", stats.edges);
}

/// A panicking helper two calls below `Frame::decode`, in a *different
/// crate*, is caught by the transitive rule. The per-file decode lint
/// only reads wire.rs and could never see this.
#[test]
fn planted_panic_two_calls_below_decode_across_crates_fires() {
    let root = temp_workspace(
        "analyze_panic",
        &[
            (
                "crates/proto/Cargo.toml",
                "[package]\nname = \"shadow-proto\"\n\n[dependencies]\nshadow-util = { workspace = true }\n",
            ),
            (
                "crates/proto/src/wire.rs",
                "pub struct Frame;\nimpl Frame {\n    pub fn decode(b: &[u8]) -> u8 {\n        crate::helper::step(b)\n    }\n}\n",
            ),
            (
                "crates/proto/src/helper.rs",
                "pub fn step(b: &[u8]) -> u8 {\n    shadow_util::boom(b)\n}\n",
            ),
            ("crates/util/Cargo.toml", "[package]\nname = \"shadow-util\"\n"),
            (
                "crates/util/src/lib.rs",
                "pub fn boom(v: &[u8]) -> u8 {\n    v.first().copied().unwrap()\n}\n",
            ),
        ],
    );
    let f = rule_findings(&root, "panic-reach");
    assert_eq!(f.len(), 1, "exactly the planted chain: {f:?}");
    assert_eq!(f[0].entry, "proto::wire::Frame::decode");
    assert_eq!(f[0].fact_fn, "util::boom");
    assert_eq!(f[0].token, ".unwrap(");
    // Chain steps carry call-site annotations ("qual (call at line N)");
    // the qualified names prove the file- and crate-boundary crossings.
    let hops = ["proto::wire::Frame::decode", "proto::helper::step", "util::boom"];
    assert_eq!(f[0].chain.len(), hops.len(), "{:?}", f[0].chain);
    for (step, hop) in f[0].chain.iter().zip(hops) {
        assert!(step.starts_with(hop), "{step:?} should start with {hop:?}");
    }
    assert!(f[0].file.ends_with("crates/util/src/lib.rs"));
}

/// An allocation two files below `diff_docs` fires: a `format!` in an
/// error constructor is as much a finding as one in the hot loop.
#[test]
fn planted_alloc_below_diff_docs_fires() {
    let root = temp_workspace(
        "analyze_alloc",
        &[
            (
                "crates/diff/src/lib.rs",
                "pub fn diff_docs(n: u32) -> usize {\n    crate::inner::fill(n)\n}\n",
            ),
            (
                "crates/diff/src/inner.rs",
                "pub fn fill(n: u32) -> usize {\n    crate::edscript::reason(n).len()\n}\n",
            ),
            (
                "crates/diff/src/edscript.rs",
                "pub fn reason(n: u32) -> String {\n    format!(\"{n}\")\n}\n",
            ),
        ],
    );
    let f = rule_findings(&root, "alloc-reach");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].entry, "diff::diff_docs");
    assert_eq!(f[0].fact_fn, "diff::edscript::reason");
    assert_eq!(f[0].token, "format!");
    assert_eq!(f[0].chain.len(), 3, "{f:?}");
}

/// A wall-clock read buried below a pure crate's public fn fires, even
/// when the file holding the clock read is not public API itself.
#[test]
fn planted_clock_read_below_pure_public_fn_fires() {
    let root = temp_workspace(
        "analyze_clock",
        &[
            (
                "crates/version/src/lib.rs",
                "mod clockish;\npub fn stamp() -> u64 {\n    crate::clockish::read()\n}\n",
            ),
            (
                "crates/version/src/clockish.rs",
                "pub(crate) fn read() -> u64 {\n    let _ = std::time::Instant::now();\n    0\n}\n",
            ),
        ],
    );
    let f = rule_findings(&root, "clock-reach");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].entry, "version::stamp");
    assert_eq!(f[0].fact_fn, "version::clockish::read");
    assert_eq!(f[0].token, "Instant::now");
}

/// A filesystem call buried below a pure crate's public fn fires: the
/// sans-io discipline says the server *emits* persistence records and
/// only the runtime's sink touches disk.
#[test]
fn planted_fs_access_below_pure_public_fn_fires() {
    let root = temp_workspace(
        "analyze_fs",
        &[
            (
                "crates/server/src/lib.rs",
                "mod spill;\npub fn submit(p: &str) -> usize {\n    crate::spill::to_disk(p)\n}\n",
            ),
            (
                "crates/server/src/spill.rs",
                "pub(crate) fn to_disk(p: &str) -> usize {\n    fs::write(p, b\"x\").is_ok() as usize\n}\n",
            ),
        ],
    );
    let f = rule_findings(&root, "fs-reach");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].entry, "server::submit");
    assert_eq!(f[0].fact_fn, "server::spill::to_disk");
    assert_eq!(f[0].token, "fs::");
}

/// A socket dial buried below a pure crate's public fn fires: the
/// protocol cores model disconnects as plain state transitions
/// (`LinkDown`/`Resume`); sockets belong to the transports and the
/// reconnect supervisor, never to the sans-io state machines.
#[test]
fn planted_net_access_below_pure_public_fn_fires() {
    let root = temp_workspace(
        "analyze_net",
        &[
            (
                "crates/client/src/lib.rs",
                "mod dialer;\npub fn reconnect(a: &str) -> bool {\n    crate::dialer::dial(a)\n}\n",
            ),
            (
                "crates/client/src/dialer.rs",
                "pub(crate) fn dial(a: &str) -> bool {\n    std::net::TcpStream::connect(a).is_ok()\n}\n",
            ),
        ],
    );
    let f = rule_findings(&root, "net-reach");
    assert!(!f.is_empty(), "planted socket dial must be found");
    assert!(f.iter().any(|f| f.entry == "client::reconnect"
        && f.fact_fn == "client::dialer::dial"));
}

/// A blocking receive below the server poll loop — behind one hop of
/// indirection in another file — fires the shard-shape rule.
#[test]
fn planted_blocking_call_below_poll_once_fires() {
    let root = temp_workspace(
        "analyze_blocking",
        &[
            (
                "crates/runtime/src/server_runtime.rs",
                "pub struct ServerRuntime;\nimpl ServerRuntime {\n    pub fn poll_once(&self) {\n        crate::pump::drain(self)\n    }\n}\n",
            ),
            (
                "crates/runtime/src/pump.rs",
                "pub fn drain(r: &super::server_runtime::ServerRuntime) {\n    let _ = r.rx.recv();\n}\n",
            ),
        ],
    );
    let f = rule_findings(&root, "shard-shape");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(
        f[0].entry,
        "runtime::server_runtime::ServerRuntime::poll_once"
    );
    assert_eq!(f[0].fact_fn, "runtime::pump::drain");
    assert_eq!(f[0].token, ".recv()");
}

/// The same planted panic chain is invisible when the caller's manifest
/// does not depend on the crate holding the panic — the dependency
/// filter prunes impossible dispatch instead of reporting noise.
#[test]
fn undeclared_dependency_suppresses_the_cross_crate_chain() {
    let root = temp_workspace(
        "analyze_depfilter",
        &[
            (
                "crates/proto/Cargo.toml",
                "[package]\nname = \"shadow-proto\"\n\n[dependencies]\n",
            ),
            (
                "crates/proto/src/wire.rs",
                "pub struct Frame;\nimpl Frame {\n    pub fn decode(b: &[u8]) -> u8 {\n        boom(b)\n    }\n}\nfn unrelated() {}\n",
            ),
            ("crates/util/Cargo.toml", "[package]\nname = \"shadow-util\"\n"),
            (
                "crates/util/src/lib.rs",
                "pub fn boom(v: &[u8]) -> u8 {\n    v.first().copied().unwrap()\n}\n",
            ),
        ],
    );
    assert!(
        rule_findings(&root, "panic-reach").is_empty(),
        "proto declares no dependency on util, so the name-match edge \
         cannot be real dispatch"
    );
}
