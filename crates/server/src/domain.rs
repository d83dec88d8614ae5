//! Per-domain mapping directories (§6.5 of the paper).
//!
//! "Once a unique file identifier is obtained for the local domain …, the
//! remote site maintains a separate mapping file for each domain that maps
//! each file identifier within that domain into the name of the cached
//! file at the remote site."

use std::collections::HashMap;

use shadow_proto::{ContentDigest, DomainId, FileId, VersionNumber};

/// What the server knows about one file of one domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingEntry {
    /// The file's canonical name within its domain (from `NotifyVersion`).
    pub name: String,
    /// The newest version the client has announced.
    pub announced_version: VersionNumber,
    /// Size of that version in bytes.
    pub announced_size: u64,
    /// Digest of that version.
    pub announced_digest: ContentDigest,
}

/// The mapping directories of every domain this server serves.
#[derive(Debug, Clone, Default)]
pub struct DomainDirectory {
    domains: HashMap<DomainId, HashMap<FileId, MappingEntry>>,
}

impl DomainDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        DomainDirectory::default()
    }

    /// Records (or refreshes) a file's announcement.
    pub fn record(
        &mut self,
        domain: DomainId,
        file: FileId,
        name: &str,
        version: VersionNumber,
        size: u64,
        digest: ContentDigest,
    ) {
        let entry = MappingEntry {
            name: name.to_string(),
            announced_version: version,
            announced_size: size,
            announced_digest: digest,
        };
        self.domains.entry(domain).or_default().insert(file, entry);
    }

    /// Looks up a file's mapping entry.
    pub fn get(&self, domain: DomainId, file: FileId) -> Option<&MappingEntry> {
        self.domains.get(&domain)?.get(&file)
    }

    /// Finds a file id by its canonical name within a domain (used by the
    /// batch executor to resolve command-file arguments).
    pub fn file_by_name(&self, domain: DomainId, name: &str) -> Option<FileId> {
        self.domains
            .get(&domain)?
            .iter()
            .find(|(_, e)| e.name == name)
            .map(|(id, _)| *id)
    }

    /// Number of files known within a domain.
    pub fn domain_len(&self, domain: DomainId) -> usize {
        self.domains.get(&domain).map_or(0, HashMap::len)
    }

    /// Number of domains with at least one entry.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// A deterministic digest of every mapping entry, in sorted order
    /// (model-checker state deduplication).
    pub fn state_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut entries: Vec<(DomainId, FileId, &MappingEntry)> = self
            .domains
            .iter()
            .flat_map(|(d, files)| files.iter().map(move |(f, e)| (*d, *f, e)))
            .collect();
        entries.sort_unstable_by_key(|(d, f, _)| (*d, *f));
        let mut h = shadow_proto::StableHasher::new();
        for (d, f, e) in entries {
            (
                d,
                f,
                &e.name,
                e.announced_version,
                e.announced_size,
                e.announced_digest.as_u64(),
            )
                .hash(&mut h);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest() -> ContentDigest {
        ContentDigest::of(b"x")
    }

    #[test]
    fn record_and_get() {
        let mut dir = DomainDirectory::new();
        dir.record(
            DomainId::new(1),
            FileId::new(5),
            "/usr/f",
            VersionNumber::new(2),
            100,
            digest(),
        );
        let e = dir.get(DomainId::new(1), FileId::new(5)).unwrap();
        assert_eq!(e.name, "/usr/f");
        assert_eq!(e.announced_version, VersionNumber::new(2));
        assert_eq!(e.announced_size, 100);
    }

    #[test]
    fn domains_are_separate_namespaces() {
        let mut dir = DomainDirectory::new();
        dir.record(
            DomainId::new(1),
            FileId::new(5),
            "/a",
            VersionNumber::FIRST,
            1,
            digest(),
        );
        dir.record(
            DomainId::new(2),
            FileId::new(5),
            "/b",
            VersionNumber::FIRST,
            2,
            digest(),
        );
        assert_eq!(
            dir.get(DomainId::new(1), FileId::new(5)).unwrap().name,
            "/a"
        );
        assert_eq!(
            dir.get(DomainId::new(2), FileId::new(5)).unwrap().name,
            "/b"
        );
        assert_eq!(dir.domain_count(), 2);
        assert_eq!(dir.domain_len(DomainId::new(1)), 1);
    }

    #[test]
    fn refresh_updates_version() {
        let mut dir = DomainDirectory::new();
        let d = DomainId::new(1);
        let f = FileId::new(5);
        dir.record(d, f, "/a", VersionNumber::new(1), 10, digest());
        dir.record(d, f, "/a", VersionNumber::new(3), 12, digest());
        assert_eq!(
            dir.get(d, f).unwrap().announced_version,
            VersionNumber::new(3)
        );
        assert_eq!(dir.domain_len(d), 1);
    }

    #[test]
    fn lookup_by_name() {
        let mut dir = DomainDirectory::new();
        let d = DomainId::new(1);
        dir.record(
            d,
            FileId::new(5),
            "/data/input",
            VersionNumber::FIRST,
            1,
            digest(),
        );
        assert_eq!(dir.file_by_name(d, "/data/input"), Some(FileId::new(5)));
        assert_eq!(dir.file_by_name(d, "/nope"), None);
        assert_eq!(dir.file_by_name(DomainId::new(9), "/data/input"), None);
    }
}
