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
//! Each retained version carries what is derived from its content, so
//! no cycle derives it twice. When a version is recorded, its content is
//! digested and its shape classified once: binary content (a NUL byte
//! in the first [`BINARY_SNIFF_WINDOW`](shadow_diff::BINARY_SNIFF_WINDOW)
//! bytes) keeps plain bytes, and text keeps its line index and whether
//! its lines still prefer the chunk codec. A delta picks its codec from
//! the two stored shapes, exactly as
//! [`choose_chunk_codec`](shadow_diff::choose_chunk_codec) would. An
//! edit whose digest differs from the latest version's is new without a
//! byte comparison. A [`ChunkIndex`] is filled the first time a
//! chunk-codec delta needs it. A new version's chunk index is derived
//! from its base's, so a resubmitted binary is re-chunked only around
//! its edit; the delta is byte-identical to
//! [`chunk_delta_into`](shadow_diff::chunk_delta_into)'s.
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

use std::cell::{OnceCell, RefCell};
use std::collections::{BTreeMap, HashMap};

use shadow_diff::{
    chunk_delta_indexed, classify, diff_docs, sniff_binary, ChunkIndex, DiffAlgorithm, DiffScratch,
    DocBuf,
};
use shadow_proto::{ContentDigest, DeltaCodec, FileId, VersionNumber};

/// One retained version: its content and what is derived from it once.
#[derive(Debug, Clone)]
struct Version {
    /// The content, in the form its shape calls for.
    body: Body,
    /// Digest of the content, computed once at record time.
    digest: ContentDigest,
    /// The content's chunk index, filled only when a chunk delta first
    /// needs it, so text files never pay for it, with the retained
    /// version it was derived from (`None`: built from scratch).
    chunks: OnceCell<(ChunkIndex, Option<VersionNumber>)>,
}

/// A version's content, classified once when it is recorded.
#[derive(Debug, Clone)]
enum Body {
    /// Binary content ([`sniff_binary`]): only the chunk codec reads it,
    /// so it keeps plain bytes and no line index.
    Binary(Vec<u8>),
    /// Text, with its line index (built once and shared with every line
    /// delta computed against it) and whether its shape still prefers
    /// the chunk codec (long or minified lines).
    Text { doc: DocBuf, prefers_chunk: bool },
}

impl Version {
    /// `digest` must be `ContentDigest::of(&content)`.
    fn new(content: Vec<u8>, digest: ContentDigest) -> Version {
        let body = if sniff_binary(&content) {
            Body::Binary(content)
        } else {
            let doc = DocBuf::from_bytes(content);
            let prefers_chunk = classify(&doc).prefers_chunk();
            Body::Text { doc, prefers_chunk }
        };
        Version {
            body,
            digest,
            chunks: OnceCell::new(),
        }
    }

    fn bytes(&self) -> &[u8] {
        match &self.body {
            Body::Binary(bytes) => bytes,
            Body::Text { doc, .. } => doc.as_bytes(),
        }
    }

    /// The line index, when both this version and `other` read as line
    /// text: exactly when [`choose_chunk_codec`] picks the line codec.
    ///
    /// [`choose_chunk_codec`]: shadow_diff::choose_chunk_codec
    fn line_docs<'a>(&'a self, other: &'a Version) -> Option<(&'a DocBuf, &'a DocBuf)> {
        match (&self.body, &other.body) {
            (
                Body::Text {
                    doc: a,
                    prefers_chunk: false,
                },
                Body::Text {
                    doc: b,
                    prefers_chunk: false,
                },
            ) => Some((a, b)),
            _ => None,
        }
    }
}

/// Per-file version chain.
#[derive(Debug, Clone, Default)]
struct FileVersions {
    /// Retained versions; always contains the latest.
    versions: BTreeMap<VersionNumber, Version>,
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
    /// that changed nothing should not trigger cache traffic). The digest,
    /// which the new version needs anyway, is compared first, and the
    /// bytes only when it matches, so a digest collision cannot drop a
    /// real edit.
    pub fn record_edit(&mut self, file: FileId, content: Vec<u8>) -> VersionNumber {
        let digest = ContentDigest::of(&content);
        let entry = self.files.entry(file).or_default();
        if let Some(latest) = entry.latest {
            let v = &entry.versions[&latest];
            if v.digest == digest && v.bytes() == content.as_slice() {
                return latest;
            }
        }
        let next = entry
            .latest
            .map(VersionNumber::next)
            .unwrap_or(VersionNumber::FIRST);
        entry.versions.insert(next, Version::new(content, digest));
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
        let digest = ContentDigest::of(&content);
        entry
            .versions
            .insert(version, Version::new(content, digest));
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
            .flat_map(|f| f.versions.iter().map(|(v, c)| (*v, c.bytes())))
    }

    /// The files tracked by this store.
    pub fn files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.files.keys().copied()
    }

    /// The latest version and its content.
    pub fn latest(&self, file: FileId) -> Option<(VersionNumber, &[u8])> {
        let entry = self.files.get(&file)?;
        let latest = entry.latest?;
        Some((latest, entry.versions[&latest].bytes()))
    }

    /// The digest of the latest content, computed when it was recorded.
    pub fn latest_digest(&self, file: FileId) -> Option<ContentDigest> {
        let entry = self.files.get(&file)?;
        Some(entry.versions[&entry.latest?].digest)
    }

    /// The retained content of a specific version.
    pub fn content_of(&self, file: FileId, version: VersionNumber) -> Option<&[u8]> {
        self.files
            .get(&file)?
            .versions
            .get(&version)
            .map(Version::bytes)
    }

    /// The digest of a specific retained version's content, computed
    /// when it was recorded.
    pub fn digest_of(&self, file: FileId, version: VersionNumber) -> Option<ContentDigest> {
        Some(self.files.get(&file)?.versions.get(&version)?.digest)
    }

    /// Computes the delta from `base` to the latest version, selecting
    /// the delta codec per file shape: line-oriented ed script for text,
    /// the content-defined chunk codec for binary or line-hostile
    /// content (single-line megafiles, minified sources). The returned
    /// [`DeltaCodec`] must travel with the bytes so the receiver applies
    /// the matching decoder.
    ///
    /// The codec follows the two versions' shapes, classified when they
    /// were recorded. The line codec's script text is emitted straight
    /// from the retained version buffers through the store's reusable
    /// [`DiffScratch`]. The
    /// chunk codec walks the two versions' chunk indexes: the base's is
    /// built if it is missing, and the latest's is derived from the
    /// base's, so a resubmission re-chunks only around its edit. The
    /// store remembers which version each index was derived from, and
    /// only a walk from that same base skips the byte compares the
    /// derivation already made.
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
        let base_v = entry.versions.get(&base)?;
        let latest_v = &entry.versions[&latest];
        let mut scratch = self.scratch.borrow_mut();
        if let Some((base_doc, latest_doc)) = base_v.line_docs(latest_v) {
            let delta = diff_docs(
                DiffAlgorithm::HuntMcIlroy,
                base_doc,
                latest_doc,
                &mut scratch,
            );
            return Some((base, DeltaCodec::Line, delta.to_text()));
        }
        let (base_index, _) = base_v
            .chunks
            .get_or_init(|| (ChunkIndex::build(base_v.bytes()), None));
        let (latest_index, derived_from) = latest_v.chunks.get_or_init(|| {
            let index = ChunkIndex::derive(base_v.bytes(), base_index, latest_v.bytes());
            (index, Some(base))
        });
        let mut out = Vec::new();
        chunk_delta_indexed(
            base_v.bytes(),
            base_index,
            latest_v.bytes(),
            latest_index,
            *derived_from == Some(base),
            &mut scratch,
            &mut out,
        );
        Some((base, DeltaCodec::Chunk, out))
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
            s.bytes += f.versions.values().map(|v| v.bytes().len()).sum::<usize>();
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
            for (v, version) in &entry.versions {
                (*v, version.digest.as_u64()).hash(&mut h);
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
                .copied()
                .find(|&v| v != latest && Some(v) != entry.acked)
                .or_else(|| entry.versions.keys().copied().find(|&v| v != latest));
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
    use shadow_diff::{apply_chunk_delta, apply_delta, chunk_delta_into};

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

    /// Deterministic pseudo-random bytes (xorshift stream).
    fn blob(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn indexed_chunk_deltas_match_the_plain_codec_along_a_chain() {
        // A 20-version binary chain under retention and ack pruning:
        // every delta the store hands out, from every retained base,
        // equals `chunk_delta_into` over the same two documents.
        let mut s = VersionStore::new(3);
        let mut doc = blob(300_000, 0xb10b);
        let mut plain = Vec::new();
        let mut scratch = DiffScratch::new();
        for step in 0..20u64 {
            let at = (step as usize * 37_813) % (doc.len() - 1000);
            let (range, insert) = match step % 4 {
                0 => (at..at + 700, 1024),
                1 => (at..at, 300),
                2 => (at..at + 500, 0),
                _ => (doc.len() - 10..doc.len(), 2000),
            };
            doc.splice(range, blob(insert, step));
            let v = s.record_edit(f(1), doc.clone());
            assert_eq!(s.latest_digest(f(1)), Some(ContentDigest::of(&doc)));
            if step % 5 == 4 {
                s.acknowledge(f(1), VersionNumber::new(v.as_u64() - 1));
            }
            let bases: Vec<VersionNumber> = s
                .retained(f(1))
                .map(|(b, _)| b)
                .filter(|&b| b < v)
                .collect();
            for base in bases {
                let base_doc = s.content_of(f(1), base).unwrap().to_vec();
                let (_, codec, wire) = s.delta_payload_from(f(1), base).unwrap();
                assert_eq!(codec, DeltaCodec::Chunk);
                chunk_delta_into(&base_doc, &doc, &mut scratch, &mut plain);
                assert_eq!(wire, plain, "step {step}, base {base:?}");
                assert_eq!(apply_chunk_delta(&base_doc, &wire).unwrap(), doc);
            }
        }
        // The last step acked the version before the latest.
        assert_eq!(s.stats().versions, 2);
    }

    /// A copy of `doc` whose bytes 8..24 differ but whose chunk index,
    /// digests included, is `doc`'s: the chunk digest folds 8-byte words
    /// as `h = (h ^ w) * P` (FNV-1a), so a flip of word 1 is undone by a
    /// matching change to word 2 in every chunk that starts at offset 0.
    fn colliding_head(doc: &[u8]) -> Vec<u8> {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let word = |i: usize| u64::from_le_bytes(doc[8 * i..8 * i + 8].try_into().unwrap());
        let h1 = (FNV_OFFSET ^ word(0)).wrapping_mul(FNV_PRIME);
        let index = ChunkIndex::build(doc);
        (1..)
            .map(|flip| {
                let w1 = word(1) ^ flip;
                let w2 = word(2)
                    ^ (h1 ^ word(1)).wrapping_mul(FNV_PRIME)
                    ^ (h1 ^ w1).wrapping_mul(FNV_PRIME);
                let mut other = doc.to_vec();
                other[8..16].copy_from_slice(&w1.to_le_bytes());
                other[16..24].copy_from_slice(&w2.to_le_bytes());
                other
            })
            .find(|other| ChunkIndex::build(other) == index)
            .unwrap()
    }

    #[test]
    fn a_delta_from_another_base_than_the_derivation_base_compares() {
        // v3's index is derived from v1, which shares its head. v2 has
        // a different head that chunks to v1's exact index, so a delta
        // from v2 is right only if its walk compares those chunks.
        let v1_doc = blob(200_000, 0xd1);
        let v2_doc = colliding_head(&v1_doc);
        let mut v3_doc = v1_doc.clone();
        v3_doc[150_000..150_100].fill(7);
        let mut s = VersionStore::new(4);
        let v1 = s.record_edit(f(1), v1_doc);
        let v2 = s.record_edit(f(1), v2_doc.clone());
        s.record_edit(f(1), v3_doc.clone());
        let (_, _, from_v1) = s.delta_payload_from(f(1), v1).unwrap();
        let (_, codec, from_v2) = s.delta_payload_from(f(1), v2).unwrap();
        assert_eq!(codec, DeltaCodec::Chunk);
        assert_eq!(apply_chunk_delta(&v2_doc, &from_v2).unwrap(), v3_doc);
        let mut plain = Vec::new();
        chunk_delta_into(&v2_doc, &v3_doc, &mut DiffScratch::new(), &mut plain);
        assert_eq!(from_v2, plain);
        assert_ne!(from_v1, from_v2);
    }

    /// Documents of every shape the codec choice distinguishes.
    fn shape_corpus() -> Vec<(&'static str, Vec<u8>)> {
        let text: Vec<u8> = (0..200)
            .flat_map(|i| format!("line {i}\n").into_bytes())
            .collect();
        let mut binary = blob(20_000, 0xb1);
        binary[100] = 0;
        // A NUL just past the sniff window does not make a file binary.
        let mut late_nul = text.repeat(8)[..shadow_diff::BINARY_SNIFF_WINDOW + 10].to_vec();
        late_nul[shadow_diff::BINARY_SNIFF_WINDOW + 1] = 0;
        let mut edge_nul = text.repeat(8)[..shadow_diff::BINARY_SNIFF_WINDOW + 10].to_vec();
        edge_nul[shadow_diff::BINARY_SNIFF_WINDOW - 1] = 0;
        let long_line = vec![b'a'; 10_000];
        let minified: Vec<u8> = (0..40)
            .flat_map(|i| {
                let mut line = vec![b'a' + (i % 26) as u8; 300];
                line.push(b'\n');
                line
            })
            .collect();
        vec![
            ("text", text.clone()),
            ("text, edited", text.repeat(2)),
            ("no trailing newline", text[..text.len() - 1].to_vec()),
            ("binary", binary.clone()),
            ("binary, edited", binary.repeat(2)),
            ("late NUL", late_nul),
            ("NUL at the window's edge", edge_nul),
            ("long line", long_line),
            ("minified", minified),
            ("empty", Vec::new()),
        ]
    }

    #[test]
    fn stored_shapes_pick_the_codec_choose_chunk_codec_picks() {
        use shadow_diff::choose_chunk_codec;
        let corpus = shape_corpus();
        for (base_name, base) in &corpus {
            for (target_name, target) in &corpus {
                if base == target {
                    continue;
                }
                let mut s = VersionStore::new(4);
                let v1 = s.record_edit(f(1), base.clone());
                s.record_edit(f(1), target.clone());
                let (_, codec, delta) = s.delta_payload_from(f(1), v1).unwrap();
                let chunk = choose_chunk_codec(
                    &DocBuf::from_bytes(base.clone()),
                    &DocBuf::from_bytes(target.clone()),
                );
                let want = if chunk {
                    DeltaCodec::Chunk
                } else {
                    DeltaCodec::Line
                };
                assert_eq!(codec, want, "{base_name} -> {target_name}");
                let rebuilt = match codec {
                    DeltaCodec::Line => apply_delta(base, &delta).unwrap(),
                    DeltaCodec::Chunk => apply_chunk_delta(base, &delta).unwrap(),
                };
                assert_eq!(&rebuilt, target, "{base_name} -> {target_name}");
            }
        }
    }

    #[test]
    fn unchanged_edit_returns_the_latest_version_for_every_shape() {
        for (name, content) in shape_corpus() {
            let mut s = VersionStore::new(4);
            s.record_edit(f(1), b"before\n".to_vec());
            let v = s.record_edit(f(1), content.clone());
            assert_eq!(s.record_edit(f(1), content.clone()), v, "{name}");
            assert_eq!(s.stats().versions, 2, "{name}");
            assert_eq!(s.latest(f(1)), Some((v, content.as_slice())), "{name}");
        }
    }

    #[test]
    fn an_edit_with_a_colliding_digest_is_a_new_version() {
        // The digest is no cryptographic hash: a 16-byte input is two
        // FNV rounds, each invertible in its word, so a second word can
        // cancel any change to the first.
        let round = |h: u64, w: u64| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(31);
        let offset = 0xcbf2_9ce4_8422_2325u64;
        let lanes = [offset, offset ^ 1, offset ^ 2, offset ^ 3];
        let start = lanes.into_iter().fold(offset, round);
        let (w1, w2, w1_other) = (1u64, 2u64, 3u64);
        let w2_other = round(start, w1) ^ w2 ^ round(start, w1_other);
        let a = [w1.to_le_bytes(), w2.to_le_bytes()].concat();
        let b = [w1_other.to_le_bytes(), w2_other.to_le_bytes()].concat();
        assert_eq!(
            ContentDigest::of(&a),
            ContentDigest::of(&b),
            "not a collision"
        );

        let mut s = VersionStore::new(4);
        let v1 = s.record_edit(f(1), a);
        let v2 = s.record_edit(f(1), b.clone());
        assert_eq!(v2, v1.next());
        assert_eq!(s.latest(f(1)).unwrap().1, b.as_slice());
    }
}
