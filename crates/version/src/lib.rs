//! Client-side version control for shadow files (§6.3.2 of the paper).
//!
//! "On the client side, the system associates a version number with each
//! file. Every time a file is edited, a new version is created and
//! identified separately from the previous versions. When the shadow
//! server requests a file, it indicates which version it has along with
//! the file name. In response … the client may transmit a completely new
//! version (if the specified version is not available for computing the
//! differences), or the difference between the current version and the
//! previous version specified by the server."
//!
//! [`VersionStore`] implements exactly that contract:
//!
//! * [`record_edit`](VersionStore::record_edit) creates the next version;
//! * [`delta_payload_from`](VersionStore::delta_payload_from) produces a
//!   delta against any retained base, or reports that the base is gone
//!   (→ the caller sends a full transfer);
//! * [`acknowledge`](VersionStore::acknowledge) prunes versions the server
//!   has durably cached ("the client deletes older versions after the
//!   server acknowledges the receipt of a later version");
//! * a configurable retention limit bounds how many older versions are
//!   kept ("a user may specify, as part of customization, a limit on the
//!   number of older versions").
//!
//! # Example
//!
//! ```
//! use shadow_version::VersionStore;
//! use shadow_proto::{DeltaCodec, FileId, VersionNumber};
//!
//! let mut store = VersionStore::new(4);
//! let file = FileId::new(1);
//! let v1 = store.record_edit(file, b"a\nb\n".to_vec());
//! let v2 = store.record_edit(file, b"a\nB\n".to_vec());
//! assert_eq!(v2, v1.next());
//! let (base, codec, script) = store.delta_payload_from(file, v1).expect("base retained");
//! assert_eq!(base, v1);
//! assert_eq!(codec, DeltaCodec::Line);
//! assert_eq!(script, b"2c\nB\n.\nw\n"); // only the changed line travels
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};

use shadow_diff::{
    choose_chunk_codec, chunk_delta_into, diff_docs, DiffAlgorithm, DiffScratch, DocBuf,
};
use shadow_proto::{ContentDigest, DeltaCodec, FileId, VersionNumber};

/// Per-file version chain.
#[derive(Debug, Clone, Default)]
struct FileVersions {
    /// Retained contents by version; always contains the latest. Each
    /// version is a [`DocBuf`]: the line index is built once at record
    /// time and shared (O(1) clone) with every delta computed against it.
    versions: BTreeMap<VersionNumber, DocBuf>,
    latest: Option<VersionNumber>,
    /// Highest version the server has acknowledged caching.
    acked: Option<VersionNumber>,
}

/// Summary of what a [`VersionStore`] currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VersionStoreStats {
    /// Files tracked.
    pub files: usize,
    /// Total retained versions across files.
    pub versions: usize,
    /// Total bytes of retained content.
    pub bytes: usize,
}

impl shadow_obs::Snapshot for VersionStoreStats {
    fn section_name(&self) -> &'static str {
        "versions"
    }

    fn snapshot(&self) -> shadow_obs::Section {
        shadow_obs::Section::new("versions")
            .with("files", self.files)
            .with("versions", self.versions)
            .with("bytes", self.bytes)
    }
}

/// The client's version store: per-file chains with acknowledgement-driven
/// pruning.
///
/// See the [crate docs](crate) for the paper context and an example.
#[derive(Debug, Clone)]
pub struct VersionStore {
    files: HashMap<FileId, FileVersions>,
    /// Number of versions *older than the latest* retained per file.
    retention_limit: usize,
    /// Reusable diff working memory: steady-state delta computation does
    /// no heap allocation. `RefCell` because deltas are conceptually a
    /// read (`&self`); cloning a store starts with a fresh scratch.
    scratch: RefCell<DiffScratch>,
}

impl VersionStore {
    /// Creates a store retaining up to `retention_limit` older versions
    /// per file (the latest is always kept). Line deltas use
    /// Hunt–McIlroy, as the server's reverse-shadow path does.
    pub fn new(retention_limit: usize) -> Self {
        VersionStore {
            files: HashMap::new(),
            retention_limit,
            scratch: RefCell::new(DiffScratch::new()),
        }
    }

    /// The configured retention limit.
    pub fn retention_limit(&self) -> usize {
        self.retention_limit
    }

    /// Records the result of an editing session, creating the next version.
    ///
    /// If `content` is byte-identical to the latest version, no new version
    /// is created and the existing number is returned (an editor session
    /// that changed nothing should not trigger cache traffic).
    pub fn record_edit(&mut self, file: FileId, content: Vec<u8>) -> VersionNumber {
        let entry = self.files.entry(file).or_default();
        if let Some(latest) = entry.latest {
            if entry.versions[&latest].as_bytes() == content.as_slice() {
                return latest;
            }
        }
        let next = entry
            .latest
            .map(VersionNumber::next)
            .unwrap_or(VersionNumber::FIRST);
        entry.versions.insert(next, DocBuf::from_bytes(content));
        entry.latest = Some(next);
        Self::prune(entry, self.retention_limit);
        next
    }

    /// Restores a persisted version into the chain (for clients that save
    /// their shadow environment across process runs, §6.3.1). Versions
    /// must be restored in increasing order; `version` becomes the latest
    /// when it exceeds the current latest.
    ///
    /// # Errors
    ///
    /// Returns `Err(existing_latest)` if `version` is not newer than the
    /// latest already present.
    pub fn restore(
        &mut self,
        file: FileId,
        version: VersionNumber,
        content: Vec<u8>,
    ) -> Result<(), VersionNumber> {
        let entry = self.files.entry(file).or_default();
        if let Some(latest) = entry.latest {
            if version <= latest {
                return Err(latest);
            }
        }
        entry.versions.insert(version, DocBuf::from_bytes(content));
        entry.latest = Some(version);
        Self::prune(entry, self.retention_limit);
        Ok(())
    }

    /// Iterates the retained `(version, content)` pairs of a file in
    /// ascending order (for persistence).
    pub fn retained(&self, file: FileId) -> impl Iterator<Item = (VersionNumber, &[u8])> {
        self.files
            .get(&file)
            .into_iter()
            .flat_map(|f| f.versions.iter().map(|(v, c)| (*v, c.as_bytes())))
    }

    /// The files tracked by this store.
    pub fn files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.files.keys().copied()
    }

    /// The latest version and its content.
    pub fn latest(&self, file: FileId) -> Option<(VersionNumber, &[u8])> {
        let entry = self.files.get(&file)?;
        let latest = entry.latest?;
        Some((latest, entry.versions[&latest].as_bytes()))
    }

    /// The digest of the latest content.
    pub fn latest_digest(&self, file: FileId) -> Option<ContentDigest> {
        self.latest(file).map(|(_, c)| ContentDigest::of(c))
    }

    /// The retained content of a specific version.
    pub fn content_of(&self, file: FileId, version: VersionNumber) -> Option<&[u8]> {
        self.files
            .get(&file)?
            .versions
            .get(&version)
            .map(DocBuf::as_bytes)
    }

    /// Computes the delta from `base` to the latest version, selecting
    /// the delta codec per file shape: line-oriented ed script for text,
    /// the content-defined chunk codec for binary or line-hostile
    /// content (single-line megafiles, minified sources). The returned
    /// [`DeltaCodec`] must travel with the bytes so the receiver applies
    /// the matching decoder.
    ///
    /// The line codec's script text is emitted straight from the retained
    /// version buffers through the store's reusable [`DiffScratch`].
    ///
    /// Returns `None` when the base (or the file) is not retained — the
    /// caller must fall back to a full transfer, exactly the paper's
    /// "completely new version" case.
    pub fn delta_payload_from(
        &self,
        file: FileId,
        base: VersionNumber,
    ) -> Option<(VersionNumber, DeltaCodec, Vec<u8>)> {
        let entry = self.files.get(&file)?;
        let latest = entry.latest?;
        let base_doc = entry.versions.get(&base)?;
        let latest_doc = &entry.versions[&latest];
        let mut scratch = self.scratch.borrow_mut();
        if choose_chunk_codec(base_doc, latest_doc) {
            let mut out = Vec::new();
            chunk_delta_into(
                base_doc.as_bytes(),
                latest_doc.as_bytes(),
                &mut scratch,
                &mut out,
            );
            Some((base, DeltaCodec::Chunk, out))
        } else {
            let delta = diff_docs(DiffAlgorithm::HuntMcIlroy, base_doc, latest_doc, &mut scratch);
            Some((base, DeltaCodec::Line, delta.to_text()))
        }
    }

    /// Notes that the server has durably cached `version`; versions older
    /// than it are pruned (they can never again be useful as delta bases).
    ///
    /// Acknowledgements beyond the latest version we ever produced come
    /// from a buggy or malicious server; they are clamped to the latest so
    /// the current content can never be pruned away.
    pub fn acknowledge(&mut self, file: FileId, version: VersionNumber) {
        let Some(entry) = self.files.get_mut(&file) else {
            return;
        };
        let Some(latest) = entry.latest else { return };
        let version = version.min(latest);
        if entry.acked.is_some_and(|a| a >= version) {
            return;
        }
        entry.acked = Some(version);
        entry.versions.retain(|&v, _| v >= version);
        // The latest always survives (guaranteed by the clamp above).
        debug_assert!(entry.versions.contains_key(&latest));
    }

    /// The highest acknowledged version, if any.
    pub fn acked(&self, file: FileId) -> Option<VersionNumber> {
        self.files.get(&file)?.acked
    }

    /// Whether the file is tracked at all.
    pub fn contains(&self, file: FileId) -> bool {
        self.files.contains_key(&file)
    }

    /// Forgets a file entirely.
    pub fn forget(&mut self, file: FileId) {
        self.files.remove(&file);
    }

    /// Retention summary.
    pub fn stats(&self) -> VersionStoreStats {
        let mut s = VersionStoreStats {
            files: self.files.len(),
            ..VersionStoreStats::default()
        };
        for f in self.files.values() {
            s.versions += f.versions.len();
            s.bytes += f.versions.values().map(DocBuf::byte_len).sum::<usize>();
        }
        s
    }

    /// A deterministic digest of the version-chain state: per file (in
    /// sorted order) the latest and acked versions plus the digest of
    /// every retained version's content. Used by the model checker to
    /// deduplicate explored states.
    pub fn state_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut files: Vec<FileId> = self.files.keys().copied().collect();
        files.sort_unstable();
        let mut h = shadow_proto::StableHasher::new();
        for file in files {
            let entry = &self.files[&file];
            (file, entry.latest, entry.acked).hash(&mut h);
            for (v, content) in &entry.versions {
                (*v, ContentDigest::of(content.as_bytes()).as_u64()).hash(&mut h);
            }
        }
        h.finish()
    }

    /// Keeps the latest plus at most `limit` older versions, preferring to
    /// drop the oldest. The acked version is protected when possible (it is
    /// the most probable delta base).
    fn prune(entry: &mut FileVersions, limit: usize) {
        let Some(latest) = entry.latest else { return };
        while entry.versions.len() > limit + 1 {
            let victim = entry
                .versions
                .keys()
                .copied().find(|&v| v != latest && Some(v) != entry.acked)
                .or_else(|| {
                    entry
                        .versions
                        .keys()
                        .copied()
                        .find(|&v| v != latest)
                });
            match victim {
                Some(v) => {
                    entry.versions.remove(&v);
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_diff::apply_delta;

    fn f(n: u64) -> FileId {
        FileId::new(n)
    }

    /// The line delta from `base` to the latest version, as its base and
    /// script text.
    fn line_delta(
        s: &VersionStore,
        file: FileId,
        base: VersionNumber,
    ) -> Option<(VersionNumber, Vec<u8>)> {
        let (base, codec, script) = s.delta_payload_from(file, base)?;
        assert_eq!(codec, DeltaCodec::Line);
        Some((base, script))
    }

    #[test]
    fn first_edit_creates_version_one() {
        let mut s = VersionStore::new(4);
        let v = s.record_edit(f(1), b"x\n".to_vec());
        assert_eq!(v, VersionNumber::FIRST);
        assert_eq!(s.latest(f(1)).unwrap().0, v);
        assert_eq!(s.latest(f(1)).unwrap().1, b"x\n");
    }

    #[test]
    fn versions_increment_per_edit() {
        let mut s = VersionStore::new(4);
        let v1 = s.record_edit(f(1), b"a\n".to_vec());
        let v2 = s.record_edit(f(1), b"b\n".to_vec());
        let v3 = s.record_edit(f(1), b"c\n".to_vec());
        assert_eq!(v2, v1.next());
        assert_eq!(v3, v2.next());
        assert_eq!(s.content_of(f(1), v1).unwrap(), b"a\n");
        assert_eq!(s.content_of(f(1), v2).unwrap(), b"b\n");
    }

    #[test]
    fn unchanged_content_does_not_create_a_version() {
        let mut s = VersionStore::new(4);
        let v1 = s.record_edit(f(1), b"same\n".to_vec());
        let v2 = s.record_edit(f(1), b"same\n".to_vec());
        assert_eq!(v1, v2);
        assert_eq!(s.stats().versions, 1);
    }

    #[test]
    fn files_are_independent() {
        let mut s = VersionStore::new(4);
        s.record_edit(f(1), b"1".to_vec());
        let v = s.record_edit(f(2), b"2".to_vec());
        assert_eq!(v, VersionNumber::FIRST);
        assert_eq!(s.stats().files, 2);
    }

    #[test]
    fn delta_reconstructs_latest() {
        let mut s = VersionStore::new(4);
        let base_content = b"one\ntwo\nthree\n".to_vec();
        let v1 = s.record_edit(f(1), base_content.clone());
        s.record_edit(f(1), b"one\n2\nthree\nfour\n".to_vec());
        let (base, script) = line_delta(&s, f(1), v1).unwrap();
        assert_eq!(base, v1);
        let rebuilt = apply_delta(&base_content, &script).unwrap();
        assert_eq!(rebuilt, b"one\n2\nthree\nfour\n");
    }

    #[test]
    fn delta_from_missing_base_is_none() {
        let mut s = VersionStore::new(0); // keep only latest
        let v1 = s.record_edit(f(1), b"a\n".to_vec());
        s.record_edit(f(1), b"b\n".to_vec());
        // v1 was pruned by the retention limit.
        assert!(s.delta_payload_from(f(1), v1).is_none());
        assert!(s.delta_payload_from(f(9), VersionNumber::FIRST).is_none());
    }

    #[test]
    fn acknowledge_prunes_older_versions() {
        let mut s = VersionStore::new(10);
        let v1 = s.record_edit(f(1), b"a\n".to_vec());
        let v2 = s.record_edit(f(1), b"b\n".to_vec());
        let v3 = s.record_edit(f(1), b"c\n".to_vec());
        s.acknowledge(f(1), v2);
        assert!(s.content_of(f(1), v1).is_none());
        assert!(s.content_of(f(1), v2).is_some());
        assert!(s.content_of(f(1), v3).is_some());
        assert_eq!(s.acked(f(1)), Some(v2));
    }

    #[test]
    fn bogus_future_acknowledgement_cannot_prune_latest() {
        // Regression: a (buggy/malicious) server acking a version we never
        // produced must not delete the latest content.
        let mut s = VersionStore::new(4);
        let v1 = s.record_edit(f(1), b"a\n".to_vec());
        s.acknowledge(f(1), VersionNumber::new(999));
        assert_eq!(s.latest(f(1)).unwrap().0, v1);
        assert_eq!(s.latest(f(1)).unwrap().1, b"a\n");
        assert_eq!(s.acked(f(1)), Some(v1));
        // And new edits continue normally.
        let v2 = s.record_edit(f(1), b"b\n".to_vec());
        assert_eq!(v2, v1.next());
    }

    #[test]
    fn acknowledge_of_untracked_file_is_noop() {
        let mut s = VersionStore::new(4);
        s.acknowledge(f(9), VersionNumber::new(1));
        assert!(!s.contains(f(9)));
    }

    #[test]
    fn stale_acknowledgements_are_ignored() {
        let mut s = VersionStore::new(10);
        let v1 = s.record_edit(f(1), b"a\n".to_vec());
        let v2 = s.record_edit(f(1), b"b\n".to_vec());
        s.acknowledge(f(1), v2);
        s.acknowledge(f(1), v1); // late/duplicate ack
        assert_eq!(s.acked(f(1)), Some(v2));
        assert!(s.content_of(f(1), v2).is_some());
    }

    #[test]
    fn retention_limit_bounds_old_versions() {
        let mut s = VersionStore::new(2);
        for i in 0..10 {
            s.record_edit(f(1), format!("content {i}\n").into_bytes());
        }
        // Latest + 2 older.
        assert_eq!(s.stats().versions, 3);
        let (latest, content) = s.latest(f(1)).unwrap();
        assert_eq!(latest, VersionNumber::new(10));
        assert_eq!(content, b"content 9\n");
    }

    #[test]
    fn acked_version_survives_retention_pressure() {
        let mut s = VersionStore::new(1);
        let v1 = s.record_edit(f(1), b"v1\n".to_vec());
        s.acknowledge(f(1), v1);
        for i in 2..6 {
            s.record_edit(f(1), format!("v{i}\n").into_bytes());
        }
        // v1 is the acked base: it must still be available for deltas.
        assert!(s.content_of(f(1), v1).is_some());
        let (base, _) = line_delta(&s, f(1), v1).unwrap();
        assert_eq!(base, v1);
    }

    #[test]
    fn delta_against_acked_base_after_many_edits() {
        let mut s = VersionStore::new(3);
        let base: String = (0..100).map(|i| format!("line {i}\n")).collect();
        let v1 = s.record_edit(f(1), base.clone().into_bytes());
        s.acknowledge(f(1), v1);
        let edited = base.replace("line 50", "LINE 50");
        s.record_edit(f(1), edited.clone().into_bytes());
        let (_, script) = line_delta(&s, f(1), v1).unwrap();
        let rebuilt = apply_delta(base.as_bytes(), &script).unwrap();
        assert_eq!(rebuilt, edited.into_bytes());
        assert!(script.len() < 64);
    }

    #[test]
    fn forget_removes_file() {
        let mut s = VersionStore::new(4);
        s.record_edit(f(1), b"x".to_vec());
        s.forget(f(1));
        assert!(!s.contains(f(1)));
        assert_eq!(s.stats().files, 0);
    }

    #[test]
    fn stats_count_bytes() {
        let mut s = VersionStore::new(4);
        s.record_edit(f(1), vec![0; 10]);
        s.record_edit(f(1), vec![1; 20]);
        assert_eq!(s.stats().bytes, 30);
        assert_eq!(s.stats().versions, 2);
    }

    #[test]
    fn delta_text_matches_script_text() {
        let mut s = VersionStore::new(4);
        let v1 = s.record_edit(f(1), b"one\ntwo\nthree\n".to_vec());
        s.record_edit(f(1), b"one\n2\nthree\nfour\n".to_vec());
        let (base, text) = line_delta(&s, f(1), v1).unwrap();
        assert_eq!(base, v1);
        let script = diff_docs(
            DiffAlgorithm::HuntMcIlroy,
            &DocBuf::from_text("one\ntwo\nthree\n"),
            &DocBuf::from_text("one\n2\nthree\nfour\n"),
            &mut DiffScratch::new(),
        );
        assert_eq!(text, script.to_text());
        let rebuilt = apply_delta(b"one\ntwo\nthree\n", &text).unwrap();
        assert_eq!(rebuilt, b"one\n2\nthree\nfour\n");
        assert!(s.delta_payload_from(f(9), v1).is_none());
    }
}
