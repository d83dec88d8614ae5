//! Typed identifiers used throughout the service.
//!
//! Newtypes keep domains, files, versions and jobs statically distinct
//! (C-NEWTYPE): a [`JobId`] can never be passed where a [`FileId`] is
//! expected, even though both are 64-bit integers on the wire.

use std::fmt;

macro_rules! id_u64 {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default,

        )]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw 64-bit identifier.
            pub const fn new(raw: u64) -> Self {
                $name(raw)
            }

            /// The raw 64-bit value.
            pub const fn as_u64(self) -> u64 {
                self.0
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                $name(raw)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_u64!(
    /// Globally unique naming domain (§5.3): e.g. one NFS cluster. The paper
    /// suggests an internet network number as a natural domain id.
    DomainId,
    "dom-"
);
id_u64!(
    /// A file, unique *within its domain* — the result of name resolution.
    FileId,
    "file-"
);
id_u64!(
    /// A batch job accepted by a shadow server.
    JobId,
    "job-"
);
id_u64!(
    /// A client-issued correlation id matching requests to replies.
    RequestId,
    "req-"
);

/// Monotonically increasing version of a file at the client (§6.3.2): every
/// editing session that changes the file creates the next version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VersionNumber(u64);

impl VersionNumber {
    /// The first version of a file.
    pub const FIRST: VersionNumber = VersionNumber(1);

    /// Wraps a raw version number.
    pub const fn new(raw: u64) -> Self {
        VersionNumber(raw)
    }

    /// The raw value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The version following this one.
    #[must_use]
    pub const fn next(self) -> VersionNumber {
        VersionNumber(self.0 + 1)
    }
}

impl From<u64> for VersionNumber {
    fn from(raw: u64) -> Self {
        VersionNumber(raw)
    }
}

impl fmt::Display for VersionNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The globally unique key of a shadow file: `(domain id, file id)` exactly
/// as in §5.3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FileKey {
    /// The naming domain the file belongs to.
    pub domain: DomainId,
    /// The file within that domain.
    pub file: FileId,
}

impl FileKey {
    /// Creates a key from its parts.
    pub const fn new(domain: DomainId, file: FileId) -> Self {
        FileKey { domain, file }
    }
}

impl fmt::Display for FileKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.domain, self.file)
    }
}

/// A host name, e.g. `"merlin.cs.purdue.edu"`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct HostName(String);

impl HostName {
    /// Creates a host name.
    pub fn new(name: impl Into<String>) -> Self {
        HostName(name.into())
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for HostName {
    fn from(s: &str) -> Self {
        HostName(s.to_string())
    }
}

impl From<String> for HostName {
    fn from(s: String) -> Self {
        HostName(s)
    }
}

impl AsRef<str> for HostName {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for HostName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(DomainId::new(7).to_string(), "dom-7");
        assert_eq!(FileId::new(9).to_string(), "file-9");
        assert_eq!(JobId::new(3).to_string(), "job-3");
        assert_eq!(RequestId::new(1).to_string(), "req-1");
        assert_eq!(VersionNumber::new(4).to_string(), "v4");
    }

    #[test]
    fn version_next_increments() {
        assert_eq!(VersionNumber::FIRST.next(), VersionNumber::new(2));
    }

    #[test]
    fn file_key_orders_by_domain_then_file() {
        let a = FileKey::new(DomainId::new(1), FileId::new(9));
        let b = FileKey::new(DomainId::new(2), FileId::new(0));
        assert!(a < b);
        assert_eq!(a.to_string(), "dom-1/file-9");
    }

    #[test]
    fn host_name_conversions() {
        let h: HostName = "a.b".into();
        assert_eq!(h.as_str(), "a.b");
        assert_eq!(h.as_ref(), "a.b");
        assert_eq!(HostName::new(String::from("x")).to_string(), "x");
    }

    #[test]
    fn ids_round_trip_raw() {
        assert_eq!(FileId::from(5u64).as_u64(), 5);
        assert_eq!(DomainId::new(u64::MAX).as_u64(), u64::MAX);
    }
}
