//! The lint pass must hold on the repository itself — and must actually
//! fire when a violation is introduced.

use std::path::PathBuf;

use shadow_check::lint::{
    check_decode_panics, check_thread_purity, check_wall_clock, lint_workspace, strip_cfg_test,
    strip_code,
};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/check sits two levels below the root")
        .to_path_buf()
}

/// `shadow-check lint` passes on main: the sans-io crates read no wall
/// clock, the wire decoder cannot panic, and every message/event
/// variant is covered.
#[test]
fn workspace_is_lint_clean() {
    let findings = lint_workspace(&repo_root()).expect("sources readable");
    assert!(
        findings.is_empty(),
        "lint findings on the repository:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Introducing a wall-clock read into a sans-io source is caught.
#[test]
fn injected_wall_clock_read_fails() {
    let clean = std::fs::read_to_string(repo_root().join("crates/version/src/lib.rs")).unwrap();
    let tainted = format!("{clean}\npub fn stamp() -> u64 {{ let _ = std::time::Instant::now(); 0 }}\n");
    let code = strip_cfg_test(&strip_code(&tainted));
    let findings = check_wall_clock("crates/version/src/lib.rs", &code);
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("Instant::now"));
    // The line number points at the injected line, not somewhere random.
    assert_eq!(findings[0].line, tainted.lines().count());
}

/// Re-introducing the pre-hardening indexing pattern into the decoder
/// is caught (regression guard for the `first_chunk`/`get` rewrite).
#[test]
fn injected_decode_unwrap_and_indexing_fail() {
    let clean = std::fs::read_to_string(repo_root().join("crates/proto/src/wire.rs")).unwrap();
    let code = strip_cfg_test(&strip_code(&clean));
    assert!(
        check_decode_panics("wire.rs", &code).is_empty(),
        "wire.rs must be clean before injection"
    );
    let tainted = code.replace(
        "input.first_chunk::<4>()",
        "Some(&[input[0], input[1], input[2], input[3]])",
    );
    assert_ne!(code, tainted, "decode header site must exist to taint");
    assert!(
        !check_decode_panics("wire.rs", &tainted).is_empty(),
        "indexing in the decode path must be flagged"
    );
    let tainted = format!("{code}\nfn bad(b: &[u8]) -> u8 {{ b.first().copied().unwrap() }}\n");
    let findings = check_decode_panics("wire.rs", &tainted);
    assert_eq!(findings.len(), 1, "unwrap in the decode path must be flagged");
    assert_eq!(findings[0].line, tainted.lines().count());
}

/// Introducing a threading primitive into a pure protocol crate is
/// caught: the sharded runtime depends on `ServerNode` staying a plain
/// movable value.
#[test]
fn injected_thread_primitive_fails() {
    let clean = std::fs::read_to_string(repo_root().join("crates/server/src/node.rs")).unwrap();
    let code = strip_cfg_test(&strip_code(&clean));
    assert!(
        check_thread_purity("crates/server/src/node.rs", &code).is_empty(),
        "server/node.rs must be thread-free before injection"
    );
    let tainted = format!(
        "{code}\nfn bad() {{ let _guard = std::sync::Mutex::new(0); \
         std::thread::spawn(|| {{}}); }}\n"
    );
    let findings = check_thread_purity("crates/server/src/node.rs", &tainted);
    assert_eq!(
        findings.len(),
        2,
        "Mutex and std::thread must each be flagged"
    );
    assert!(findings.iter().all(|f| f.rule == "thread-purity"));
    assert_eq!(findings[0].line, tainted.lines().count());
}

/// An inbox event the shard loop never matches on is caught: it would
/// sit in a shard's inbox forever.
#[test]
fn unhandled_shard_event_fails() {
    let shard = std::fs::read_to_string(repo_root().join("crates/runtime/src/shard.rs")).unwrap();
    let tainted = shard.replacen("enum ShardEvent {", "enum ShardEvent {\n    Stray,", 1);
    assert_ne!(shard, tainted, "the shard inbox enum must exist to taint");
    let coverage = |src: &str| {
        let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lint_shard_event");
        let path = root.join("crates/runtime/src/shard.rs");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, src).unwrap();
        lint_workspace(&root)
            .expect("sources readable")
            .into_iter()
            .filter(|f| f.file.ends_with("shard.rs") && f.rule == "variant-coverage")
            .map(|f| f.message)
            .collect::<Vec<_>>()
    };
    assert!(coverage(&shard).is_empty(), "every real event is matched");
    let findings = coverage(&tainted);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].contains("ShardEvent::Stray"));
}
