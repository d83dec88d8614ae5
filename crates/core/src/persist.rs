//! Persistence of the client's shadow environment across process runs.
//!
//! §6.3.1: "the shadow environment is a database that contains … the
//! information needed for managing the different versions of a file".
//! A long-lived client keeps its [`VersionStore`](shadow_version::VersionStore)
//! in memory; command-line tools (one process per submission) persist the
//! retained version chains to a state directory so a *later* invocation
//! can still answer the server's `UpdateRequest (have: vN)` with a delta.
//!
//! Layout (plain files, no formats to rot):
//!
//! ```text
//! <state>/<file-id-hex>/name          canonical name (one line)
//! <state>/<file-id-hex>/<version>.v   retained content of that version
//! <state>/<file-id-hex>/<version>.sum FNV digest of that content (hex)
//! ```
//!
//! The `.sum` sidecar lets a later load detect a truncated or bit-rotted
//! `.v` file instead of silently restoring garbage into the version
//! chain. State written before the sidecars existed loads unverified.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use shadow_client::{ClientNode, FileRef};
use shadow_proto::{ContentDigest, FileId, VersionNumber};

/// What [`load_state`] found: how much state came back, and how much
/// had to be left behind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadSummary {
    /// Version-chain entries restored into the node.
    pub restored: usize,
    /// Entries skipped: unparsable directory or version names, digest
    /// mismatches (truncated or corrupt `.v` files), and versions the
    /// node rejected as out of order.
    pub skipped: usize,
}

impl LoadSummary {
    /// True when anything was left behind.
    pub fn degraded(&self) -> bool {
        self.skipped > 0
    }
}

/// Loads every persisted version chain in `dir` into the client node.
/// A missing directory is an empty state, not an error.
///
/// Corrupt entries (bad names, digest mismatches, out-of-order
/// versions) are skipped, counted in the returned summary, and surfaced
/// in the node's report as the `client` section's `restore_skipped`
/// counter.
///
/// # Errors
///
/// I/O failures reading existing state.
pub fn load_state(dir: &Path, node: &mut ClientNode) -> io::Result<LoadSummary> {
    let mut summary = LoadSummary::default();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(summary),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        let Some(id) = entry
            .file_name()
            .to_str()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
        else {
            summary.skipped += 1;
            continue;
        };
        let file_dir = entry.path();
        let name = fs::read_to_string(file_dir.join("name"))
            .unwrap_or_default()
            .trim()
            .to_string();
        let fref = FileRef::new(FileId::new(id), name);
        let mut versions: Vec<(u64, PathBuf)> = Vec::new();
        for v in fs::read_dir(&file_dir)? {
            let v = v?;
            let path = v.path();
            if path.extension().is_some_and(|e| e == "v") {
                match path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    Some(num) => versions.push((num, path)),
                    None => summary.skipped += 1,
                }
            }
        }
        versions.sort();
        for (num, path) in versions {
            let content = fs::read(&path)?;
            // A `.sum` sidecar pins the expected digest; a mismatch
            // means the `.v` was truncated or corrupted after writing.
            let expected = fs::read_to_string(path.with_extension("sum"))
                .ok()
                .and_then(|s| u64::from_str_radix(s.trim(), 16).ok());
            if let Some(sum) = expected {
                if ContentDigest::of(&content).as_u64() != sum {
                    summary.skipped += 1;
                    continue;
                }
            }
            if node
                .restore_version(&fref, VersionNumber::new(num), content)
                .is_ok()
            {
                summary.restored += 1;
            } else {
                summary.skipped += 1;
            }
        }
    }
    if summary.skipped > 0 {
        node.note_restore_skipped(summary.skipped as u64);
    }
    Ok(summary)
}

/// Persists every retained version chain of the client node into `dir`,
/// replacing previous state for those files.
///
/// # Errors
///
/// I/O failures writing the state.
pub fn save_state(dir: &Path, node: &ClientNode) -> io::Result<usize> {
    let mut saved = 0;
    for fref in node.tracked_files() {
        let file_dir = dir.join(format!("{:016x}", fref.id.as_u64()));
        // Rewrite the chain from scratch so pruned versions disappear.
        if file_dir.exists() {
            fs::remove_dir_all(&file_dir)?;
        }
        fs::create_dir_all(&file_dir)?;
        fs::write(file_dir.join("name"), format!("{}\n", fref.name))?;
        for (version, content) in node.retained_versions(fref.id) {
            fs::write(
                file_dir.join(format!("{}.sum", version.as_u64())),
                format!("{:016x}\n", ContentDigest::of(&content).as_u64()),
            )?;
            fs::write(file_dir.join(format!("{}.v", version.as_u64())), content)?;
            saved += 1;
        }
    }
    Ok(saved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_client::ClientConfig;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("shadow-persist-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_restores_chains_and_names() {
        let dir = temp_dir("round");
        let mut node = ClientNode::new(ClientConfig::new("ws", 1));
        let f = FileRef::new(FileId::new(42), "ws:/data");
        node.edit_finished(&f, b"v1 content\n".to_vec());
        node.edit_finished(&f, b"v2 content\n".to_vec());
        let saved = save_state(&dir, &node).unwrap();
        assert_eq!(saved, 2);

        let mut fresh = ClientNode::new(ClientConfig::new("ws", 1));
        let summary = load_state(&dir, &mut fresh).unwrap();
        assert_eq!(
            summary,
            LoadSummary {
                restored: 2,
                skipped: 0
            }
        );
        assert!(!summary.degraded());
        assert_eq!(fresh.file_size(f.id), Some(11));
        let files = fresh.tracked_files();
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].name, "ws:/data");
        // New edits continue the chain past the restored latest.
        let (v, _) = fresh.edit_finished(&f, b"v3 content!\n".to_vec());
        assert_eq!(v, VersionNumber::new(3));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_is_empty_state() {
        let dir = temp_dir("missing");
        let mut node = ClientNode::new(ClientConfig::new("ws", 1));
        assert_eq!(load_state(&dir, &mut node).unwrap(), LoadSummary::default());
    }

    #[test]
    fn save_prunes_dropped_versions() {
        let dir = temp_dir("prune");
        let mut node = ClientNode::new(ClientConfig::new("ws", 1));
        let f = FileRef::new(FileId::new(7), "ws:/f");
        for i in 0..10 {
            node.edit_finished(&f, format!("content {i}\n").into_bytes());
        }
        save_state(&dir, &node).unwrap();
        let mut fresh = ClientNode::new(ClientConfig::new("ws", 1));
        let summary = load_state(&dir, &mut fresh).unwrap();
        // Default retention: latest + 4 older.
        assert_eq!(summary.restored, 5);
        assert_eq!(summary.skipped, 0);
        assert_eq!(fresh.file_size(f.id), Some(10));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_skipped_and_counted() {
        let dir = temp_dir("corrupt");
        fs::create_dir_all(dir.join("not-hex")).unwrap();
        fs::create_dir_all(dir.join("00000000000000ff")).unwrap();
        fs::write(dir.join("00000000000000ff/name"), "ws:/x\n").unwrap();
        fs::write(dir.join("00000000000000ff/junk.v"), "ignored").unwrap();
        fs::write(dir.join("00000000000000ff/2.v"), "good\n").unwrap();
        let mut node = ClientNode::new(ClientConfig::new("ws", 1));
        let summary = load_state(&dir, &mut node).unwrap();
        assert_eq!(
            summary,
            LoadSummary {
                restored: 1,
                skipped: 2
            }
        );
        assert!(summary.degraded());
        assert_eq!(node.file_size(FileId::new(0xff)), Some(5));
        // The degradation is visible in the node's own metrics (and so
        // in any report built over them), not just the return value.
        assert_eq!(node.metrics().restore_skipped, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_version_file_is_detected_and_skipped() {
        let dir = temp_dir("truncated");
        let mut node = ClientNode::new(ClientConfig::new("ws", 1));
        let f = FileRef::new(FileId::new(9), "ws:/data");
        node.edit_finished(&f, b"first version\n".to_vec());
        node.edit_finished(&f, b"second version, longer\n".to_vec());
        save_state(&dir, &node).unwrap();

        // Truncate the latest version's content; its `.sum` sidecar no
        // longer matches, so the load must not trust the bytes.
        let v2 = dir.join("0000000000000009/2.v");
        let bytes = fs::read(&v2).unwrap();
        fs::write(&v2, &bytes[..bytes.len() / 2]).unwrap();

        let mut fresh = ClientNode::new(ClientConfig::new("ws", 1));
        let summary = load_state(&dir, &mut fresh).unwrap();
        assert_eq!(
            summary,
            LoadSummary {
                restored: 1,
                skipped: 1
            }
        );
        // The intact v1 survived; the truncated v2 did not sneak in.
        assert_eq!(fresh.file_size(f.id), Some(14));
        assert_eq!(fresh.metrics().restore_skipped, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
