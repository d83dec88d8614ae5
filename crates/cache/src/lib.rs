//! The best-effort shadow store kept at the supercomputer site.
//!
//! Caching is the heart of shadow editing (§5.1 of the paper): the server
//! retains a copy of every file a user submits, so a resubmission after an
//! editing session needs only the *changes*. Crucially the cache is **best
//! effort**: "caching does not guarantee that a duplicate copy of the
//! user's file will always be available at the remote host … in the worst
//! case [the client] would have to send the entire file". The store
//! therefore:
//!
//! * enforces a configurable byte budget (the paper: "it allows the remote
//!   host to decide how much disk space should be used for caching");
//! * evicts under a pluggable [`EvictionPolicy`] ("and also which files
//!   should be removed from the cache first");
//! * never treats a miss as an error — the protocol falls back to a full
//!   transfer.
//!
//! # Example
//!
//! ```
//! use shadow_cache::{EvictionPolicy, ShadowStore};
//! use shadow_proto::{DomainId, FileId, FileKey, VersionNumber};
//!
//! let mut store = ShadowStore::new(1024, EvictionPolicy::Lru);
//! let key = FileKey::new(DomainId::new(1), FileId::new(7));
//! store.insert(key, VersionNumber::FIRST, b"content".to_vec());
//! assert_eq!(store.get(&key).map(|e| e.version), Some(VersionNumber::FIRST));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;

use shadow_proto::{Bytes, ContentDigest, FileKey, VersionNumber};

/// Which entry to sacrifice when the byte budget is exceeded (§5.1: the
/// remote host decides "which files should be removed from the cache
/// first").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionPolicy {
    /// Least recently used.
    #[default]
    Lru,
    /// Oldest insertion first.
    Fifo,
    /// Least frequently used (ties broken by recency).
    Lfu,
    /// Largest byte cost first (ties broken by recency) — frees space
    /// fastest, at the risk of evicting exactly the big files whose
    /// re-transfer is most expensive.
    LargestFirst,
}

impl fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EvictionPolicy::Lru => "lru",
            EvictionPolicy::Fifo => "fifo",
            EvictionPolicy::Lfu => "lfu",
            EvictionPolicy::LargestFirst => "largest-first",
        };
        write!(f, "{s}")
    }
}

/// A cached shadow file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// The version this content corresponds to.
    pub version: VersionNumber,
    /// The full file content, shared with the journal records and the
    /// frames that carry it.
    pub content: Bytes,
    /// Digest of `content`.
    pub digest: ContentDigest,
    last_used: u64,
    inserted: u64,
    uses: u64,
}

/// Counters describing cache behaviour (drive the ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// `get` calls that found an entry.
    pub hits: u64,
    /// `get` calls that found nothing.
    pub misses: u64,
    /// Successful insertions (including replacements).
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Bytes freed by eviction.
    pub bytes_evicted: u64,
    /// Insertions rejected because the content alone exceeds the budget.
    pub rejected_too_large: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl shadow_obs::Snapshot for CacheStats {
    fn section_name(&self) -> &'static str {
        "cache"
    }

    fn snapshot(&self) -> shadow_obs::Section {
        shadow_obs::Section::new("cache")
            .with("hits", self.hits)
            .with("misses", self.misses)
            .with("insertions", self.insertions)
            .with("evictions", self.evictions)
            .with("bytes_evicted", self.bytes_evicted)
            .with("rejected_too_large", self.rejected_too_large)
            .with("hit_rate", self.hit_rate())
    }
}

/// The byte-budgeted, policy-driven shadow file store.
///
/// See the [crate docs](crate) for background and an example.
#[derive(Debug, Clone)]
pub struct ShadowStore {
    budget: usize,
    used: usize,
    policy: EvictionPolicy,
    entries: HashMap<FileKey, CacheEntry>,
    clock: u64,
    stats: CacheStats,
}

impl ShadowStore {
    /// Creates a store with a byte budget and an eviction policy.
    pub fn new(budget: usize, policy: EvictionPolicy) -> Self {
        ShadowStore {
            budget,
            used: 0,
            policy,
            entries: HashMap::new(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Number of cached files.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The eviction policy in force.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Behaviour counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Caches `content` as `version` of the file, replacing any previous
    /// version and evicting other entries as needed. Returns the evicted
    /// keys (the caller may want to tell clients their shadows vanished).
    ///
    /// If `content` alone exceeds the whole budget the insertion is
    /// **rejected** (best-effort semantics: the file simply is not cached)
    /// and the previous entry for the key, if any, is removed.
    pub fn insert(
        &mut self,
        key: FileKey,
        version: VersionNumber,
        content: impl Into<Bytes>,
    ) -> Vec<FileKey> {
        let content = content.into();
        let digest = ContentDigest::of(&content);
        self.insert_digested(key, version, content, digest)
    }

    /// [`insert`](Self::insert) for a caller that already holds the
    /// content's digest, so the content is not digested a second time.
    /// `digest` must be `ContentDigest::of(&content)`.
    pub fn insert_digested(
        &mut self,
        key: FileKey,
        version: VersionNumber,
        content: impl Into<Bytes>,
        digest: ContentDigest,
    ) -> Vec<FileKey> {
        let content = content.into();
        debug_assert!(digest == ContentDigest::of(&content));
        self.clock += 1;
        // Replace any prior version first so budget accounting is simple.
        if let Some(old) = self.entries.remove(&key) {
            self.used -= old.content.len();
        }
        if content.len() > self.budget {
            self.stats.rejected_too_large += 1;
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.used + content.len() > self.budget {
            // `used > 0` implies an entry to evict, so the loop ends by
            // the budget test, never by running out of victims.
            let Some((victim, entry)) = self
                .pick_victim()
                .and_then(|victim| Some((victim, self.entries.remove(&victim)?)))
            else {
                break;
            };
            self.used -= entry.content.len();
            self.stats.evictions += 1;
            self.stats.bytes_evicted += entry.content.len() as u64;
            evicted.push(victim);
        }
        self.used += content.len();
        self.stats.insertions += 1;
        self.entries.insert(
            key,
            CacheEntry {
                version,
                digest,
                content,
                last_used: self.clock,
                inserted: self.clock,
                uses: 0,
            },
        );
        evicted
    }

    fn pick_victim(&self) -> Option<FileKey> {
        let score = |e: &CacheEntry| -> (u64, u64) {
            match self.policy {
                // Smallest score evicts first.
                EvictionPolicy::Lru => (e.last_used, e.inserted),
                EvictionPolicy::Fifo => (e.inserted, e.last_used),
                EvictionPolicy::Lfu => (e.uses, e.last_used),
                EvictionPolicy::LargestFirst => {
                    (u64::MAX - e.content.len() as u64, e.last_used)
                }
            }
        };
        self.entries
            .iter()
            .min_by_key(|(k, e)| (score(e), **k))
            .map(|(k, _)| *k)
    }

    /// Looks up a file, recording a hit or miss and refreshing recency.
    pub fn get(&mut self, key: &FileKey) -> Option<&CacheEntry> {
        self.clock += 1;
        match self.entries.get_mut(key) {
            Some(e) => {
                e.last_used = self.clock;
                e.uses += 1;
                self.stats.hits += 1;
                Some(&*e)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Looks up a file without touching recency or counters.
    pub fn peek(&self, key: &FileKey) -> Option<&CacheEntry> {
        self.entries.get(key)
    }

    /// The cached version of a file, if any (no counter effects).
    pub fn version_of(&self, key: &FileKey) -> Option<VersionNumber> {
        self.entries.get(key).map(|e| e.version)
    }

    /// Removes an entry explicitly.
    pub fn remove(&mut self, key: &FileKey) -> Option<CacheEntry> {
        let entry = self.entries.remove(key)?;
        self.used -= entry.content.len();
        Some(entry)
    }

    /// Drops everything — simulates the remote host reclaiming the disk
    /// (the fault the paper's best-effort design explicitly tolerates).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.used = 0;
    }

    /// Iterates over `(key, entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&FileKey, &CacheEntry)> {
        self.entries.iter()
    }

    /// A deterministic digest of the *protocol-visible* cache state: the
    /// sorted `(key, version, content digest)` triples plus the bytes in
    /// use. Recency/frequency bookkeeping and hit counters are
    /// deliberately excluded — the model checker uses this to deduplicate
    /// explored states, and two caches holding the same shadows behave
    /// identically at the protocol level as long as no eviction is
    /// pending (checker scenarios run far below the byte budget).
    pub fn state_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut items: Vec<(FileKey, VersionNumber, u64)> = self
            .entries
            .iter()
            .map(|(k, e)| (*k, e.version, e.digest.as_u64()))
            .collect();
        items.sort_unstable();
        let mut h = shadow_proto::StableHasher::new();
        items.hash(&mut h);
        self.used.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_proto::{DomainId, FileId};

    fn key(n: u64) -> FileKey {
        FileKey::new(DomainId::new(1), FileId::new(n))
    }

    fn v(n: u64) -> VersionNumber {
        VersionNumber::new(n)
    }

    #[test]
    fn insert_get_round_trip() {
        let mut s = ShadowStore::new(100, EvictionPolicy::Lru);
        s.insert(key(1), v(1), b"hello".to_vec());
        let e = s.get(&key(1)).unwrap();
        assert_eq!(e.version, v(1));
        assert_eq!(e.content, b"hello"[..]);
        assert_eq!(e.digest, ContentDigest::of(b"hello"));
        assert_eq!(s.used_bytes(), 5);
        assert_eq!(s.stats().hits, 1);
    }

    #[test]
    fn miss_is_counted_not_fatal() {
        let mut s = ShadowStore::new(100, EvictionPolicy::Lru);
        assert!(s.get(&key(9)).is_none());
        assert_eq!(s.stats().misses, 1);
    }

    #[test]
    fn replacement_updates_version_and_bytes() {
        let mut s = ShadowStore::new(100, EvictionPolicy::Lru);
        s.insert(key(1), v(1), vec![0; 60]);
        s.insert(key(1), v(2), vec![0; 20]);
        assert_eq!(s.used_bytes(), 20);
        assert_eq!(s.version_of(&key(1)), Some(v(2)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn budget_is_never_exceeded() {
        let mut s = ShadowStore::new(100, EvictionPolicy::Lru);
        for i in 0..20 {
            s.insert(key(i), v(1), vec![0; 30]);
            assert!(s.used_bytes() <= 100, "used {}", s.used_bytes());
        }
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut s = ShadowStore::new(90, EvictionPolicy::Lru);
        s.insert(key(1), v(1), vec![0; 30]);
        s.insert(key(2), v(1), vec![0; 30]);
        s.insert(key(3), v(1), vec![0; 30]);
        s.get(&key(1)); // refresh 1; LRU victim is now 2
        let evicted = s.insert(key(4), v(1), vec![0; 30]);
        assert_eq!(evicted, vec![key(2)]);
        assert!(s.peek(&key(1)).is_some());
    }

    #[test]
    fn fifo_evicts_oldest_insertion_despite_use() {
        let mut s = ShadowStore::new(90, EvictionPolicy::Fifo);
        s.insert(key(1), v(1), vec![0; 30]);
        s.insert(key(2), v(1), vec![0; 30]);
        s.insert(key(3), v(1), vec![0; 30]);
        s.get(&key(1)); // FIFO ignores this
        let evicted = s.insert(key(4), v(1), vec![0; 30]);
        assert_eq!(evicted, vec![key(1)]);
    }

    #[test]
    fn lfu_evicts_least_frequently_used() {
        let mut s = ShadowStore::new(90, EvictionPolicy::Lfu);
        s.insert(key(1), v(1), vec![0; 30]);
        s.insert(key(2), v(1), vec![0; 30]);
        s.insert(key(3), v(1), vec![0; 30]);
        s.get(&key(1));
        s.get(&key(1));
        s.get(&key(3));
        let evicted = s.insert(key(4), v(1), vec![0; 30]);
        assert_eq!(evicted, vec![key(2)]);
    }

    #[test]
    fn largest_first_evicts_biggest() {
        let mut s = ShadowStore::new(100, EvictionPolicy::LargestFirst);
        s.insert(key(1), v(1), vec![0; 50]);
        s.insert(key(2), v(1), vec![0; 10]);
        s.insert(key(3), v(1), vec![0; 30]);
        let evicted = s.insert(key(4), v(1), vec![0; 40]);
        assert_eq!(evicted, vec![key(1)]);
    }

    #[test]
    fn multiple_evictions_to_fit_one_insert() {
        let mut s = ShadowStore::new(100, EvictionPolicy::Lru);
        for i in 0..4 {
            s.insert(key(i), v(1), vec![0; 25]);
        }
        let evicted = s.insert(key(9), v(1), vec![0; 80]);
        assert_eq!(evicted.len(), 4);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn oversized_content_rejected_and_counted() {
        let mut s = ShadowStore::new(100, EvictionPolicy::Lru);
        s.insert(key(1), v(1), vec![0; 50]);
        let evicted = s.insert(key(2), v(1), vec![0; 101]);
        assert!(evicted.is_empty());
        assert!(s.peek(&key(2)).is_none());
        assert_eq!(s.stats().rejected_too_large, 1);
        // Prior entries untouched.
        assert!(s.peek(&key(1)).is_some());
    }

    #[test]
    fn oversized_replacement_drops_old_version() {
        // Replacing a cached file with an uncacheably large new version
        // must not leave the stale version behind.
        let mut s = ShadowStore::new(100, EvictionPolicy::Lru);
        s.insert(key(1), v(1), vec![0; 50]);
        s.insert(key(1), v(2), vec![0; 200]);
        assert!(s.peek(&key(1)).is_none());
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn clear_models_disk_loss() {
        let mut s = ShadowStore::new(100, EvictionPolicy::Lru);
        s.insert(key(1), v(3), vec![0; 10]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.used_bytes(), 0);
        assert!(s.get(&key(1)).is_none());
    }

    #[test]
    fn remove_returns_entry() {
        let mut s = ShadowStore::new(100, EvictionPolicy::Lru);
        s.insert(key(1), v(1), b"abc".to_vec());
        let e = s.remove(&key(1)).unwrap();
        assert_eq!(e.content, b"abc"[..]);
        assert_eq!(s.used_bytes(), 0);
        assert!(s.remove(&key(1)).is_none());
    }

    #[test]
    fn hit_rate_computation() {
        let mut s = ShadowStore::new(100, EvictionPolicy::Lru);
        assert_eq!(s.stats().hit_rate(), 0.0);
        s.insert(key(1), v(1), vec![1]);
        s.get(&key(1));
        s.get(&key(2));
        assert!((s.stats().hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn policies_display() {
        assert_eq!(EvictionPolicy::Lru.to_string(), "lru");
        assert_eq!(EvictionPolicy::LargestFirst.to_string(), "largest-first");
    }

    #[test]
    fn iter_visits_all() {
        let mut s = ShadowStore::new(100, EvictionPolicy::Lru);
        s.insert(key(1), v(1), vec![1]);
        s.insert(key(2), v(1), vec![2]);
        assert_eq!(s.iter().count(), 2);
    }
}
