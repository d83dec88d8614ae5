//! The multi-host cluster: mounts and the name-resolution algorithm.

use std::collections::{BTreeMap, VecDeque};

use shadow_proto::{ContentDigest, DomainId, FileId, FileKey, HostName};

use crate::hostfs::{HostFs, NodeId, NodeKind};
use crate::{VPath, VfsError};

/// Budget for symlink expansions during one resolution (cycle guard).
const SYMLINK_BUDGET: usize = 64;
/// Budget for mount crossings during one resolution (cycle guard; NFS
/// forbids circular mounts, but misconfiguration must not hang us).
const MOUNT_BUDGET: usize = 32;

/// An NFS-style mount: a local directory backed by a directory exported by
/// another host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MountEntry {
    /// The exporting host.
    pub remote_host: HostName,
    /// The exported directory on that host.
    pub remote_path: VPath,
}

/// What kind of node a path names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeType {
    /// A regular file.
    File,
    /// A directory.
    Directory,
    /// A symbolic link (only reported by [`Vfs::stat_no_follow`]).
    Symlink,
}

/// Metadata for a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStat {
    /// The node's type.
    pub node_type: NodeType,
    /// Content size in bytes (0 for directories).
    pub size: u64,
    /// Number of hard links.
    pub nlink: usize,
}

/// The result of name resolution (§6.5): the globally unique identity of a
/// file, independent of which alias or mount the user named it through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalName {
    /// The naming domain of the cluster.
    pub domain: DomainId,
    /// The host that physically owns the node.
    pub host: HostName,
    /// The node's basic (primary) path on that host.
    pub path: VPath,
    /// The derived domain-unique file identifier.
    pub file_id: FileId,
}

impl CanonicalName {
    /// The `(domain id, file id)` pair presented to shadow servers.
    pub fn key(&self) -> FileKey {
        FileKey::new(self.domain, self.file_id)
    }
}

/// A cluster of hosts forming one naming domain (e.g. one NFS site).
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Vfs {
    domain: DomainId,
    hosts: BTreeMap<String, HostFs>,
    /// Per host: mount point → mount entry. Longest-prefix semantics arise
    /// naturally because resolution checks each walked prefix.
    mounts: BTreeMap<String, BTreeMap<VPath, MountEntry>>,
}

impl Vfs {
    /// Creates an empty cluster belonging to `domain`.
    pub fn new(domain: DomainId) -> Self {
        Vfs {
            domain,
            hosts: BTreeMap::new(),
            mounts: BTreeMap::new(),
        }
    }

    /// The cluster's naming domain.
    pub fn domain(&self) -> DomainId {
        self.domain
    }

    /// Adds a host with an empty root directory.
    ///
    /// # Errors
    ///
    /// [`VfsError::HostExists`] if the name is taken.
    pub fn add_host(&mut self, name: &str) -> Result<(), VfsError> {
        if self.hosts.contains_key(name) {
            return Err(VfsError::HostExists {
                host: name.to_string(),
            });
        }
        self.hosts.insert(name.to_string(), HostFs::new(name));
        self.mounts.insert(name.to_string(), BTreeMap::new());
        Ok(())
    }

    /// The hosts in this cluster, sorted by name.
    pub fn host_names(&self) -> Vec<&str> {
        self.hosts.keys().map(String::as_str).collect()
    }

    fn host(&self, name: &str) -> Result<&HostFs, VfsError> {
        self.hosts.get(name).ok_or_else(|| VfsError::UnknownHost {
            host: name.to_string(),
        })
    }

    fn host_mut(&mut self, name: &str) -> Result<&mut HostFs, VfsError> {
        self.hosts
            .get_mut(name)
            .ok_or_else(|| VfsError::UnknownHost {
                host: name.to_string(),
            })
    }

    /// Mounts `remote_host:remote_path` (which must be an existing
    /// directory) at `host:mount_point`. The mount point directory is
    /// created locally if missing, exactly like a real mount stub.
    ///
    /// # Errors
    ///
    /// Fails when either host is unknown, the remote path is not a
    /// directory, or the mount point is the root.
    pub fn mount(
        &mut self,
        host: &str,
        mount_point: &str,
        remote_host: &str,
        remote_path: &str,
    ) -> Result<(), VfsError> {
        let mount_point = VPath::parse(mount_point)?;
        let remote_path = VPath::parse(remote_path)?;
        if mount_point.is_root() {
            return Err(VfsError::InvalidPath {
                path: "/".into(),
                reason: "cannot mount over the root directory",
            });
        }
        self.host(host)?;
        // The exported directory must exist and be a directory.
        let (owner, node, _) = self.resolve_node(remote_host, &remote_path)?;
        let owner_fs = self.host(&owner)?;
        if !matches!(owner_fs.node(node).kind, NodeKind::Dir(_)) {
            return Err(VfsError::NotADirectory {
                host: owner,
                path: remote_path.to_string(),
            });
        }
        self.host_mut(host)?.mkdir_p(&mount_point)?;
        self.mounts.get_mut(host).expect("host verified").insert(
            mount_point,
            MountEntry {
                remote_host: HostName::new(remote_host),
                remote_path,
            },
        );
        Ok(())
    }

    /// The mount table of a host.
    ///
    /// # Errors
    ///
    /// [`VfsError::UnknownHost`] for unknown hosts.
    pub fn mount_table(&self, host: &str) -> Result<Vec<(VPath, MountEntry)>, VfsError> {
        self.host(host)?;
        Ok(self.mounts[host]
            .iter()
            .map(|(p, m)| (p.clone(), m.clone()))
            .collect())
    }

    /// Core walk: follows directories, symbolic links and mounts, returning
    /// `(owning host, node, physical path on that host)`.
    fn resolve_node(
        &self,
        start_host: &str,
        path: &VPath,
    ) -> Result<(String, NodeId, VPath), VfsError> {
        let mut host = self.host(start_host)?.name.clone();
        let mut remaining: VecDeque<String> = path.segments().to_vec().into();
        let mut cur = self.host(&host)?.root();
        let mut cur_path = VPath::root();
        let mut sym_budget = SYMLINK_BUDGET;
        let mut mount_budget = MOUNT_BUDGET;

        while let Some(seg) = remaining.pop_front() {
            let candidate = cur_path.child(&seg);
            // A mount shadows local content at its mount point; the paper's
            // algorithm: "if any prefix of the path name belongs to a
            // mounted file system, consult the NFS mount table to resolve
            // that prefix further on the host that exported it".
            if let Some(entry) = self.mounts[&host].get(&candidate) {
                if mount_budget == 0 {
                    return Err(VfsError::MountLoop {
                        path: path.to_string(),
                    });
                }
                mount_budget -= 1;
                for seg in entry.remote_path.segments().iter().rev() {
                    remaining.push_front(seg.clone());
                }
                host = self.host(entry.remote_host.as_str())?.name.clone();
                cur = self.host(&host)?.root();
                cur_path = VPath::root();
                continue;
            }

            let fs = self.host(&host)?;
            let next = match &fs.node(cur).kind {
                NodeKind::Dir(_) => fs.lookup(cur, &seg).ok_or_else(|| VfsError::NotFound {
                    host: host.clone(),
                    path: candidate.to_string(),
                })?,
                _ => {
                    return Err(VfsError::NotADirectory {
                        host: host.clone(),
                        path: cur_path.to_string(),
                    })
                }
            };
            match &fs.node(next).kind {
                NodeKind::Symlink(target) => {
                    if sym_budget == 0 {
                        return Err(VfsError::SymlinkLoop {
                            path: path.to_string(),
                        });
                    }
                    sym_budget -= 1;
                    let target = VPath::parse(target)?;
                    for seg in target.segments().iter().rev() {
                        remaining.push_front(seg.clone());
                    }
                    cur = fs.root();
                    cur_path = VPath::root();
                }
                _ => {
                    cur = next;
                    cur_path = candidate;
                }
            }
        }
        Ok((host, cur, cur_path))
    }

    /// Resolves a user-visible name to its unique [`CanonicalName`]
    /// (§6.5): aliases collapse via the file's primary path, symlinks are
    /// followed, and mounted prefixes are resolved on the exporting host.
    ///
    /// # Errors
    ///
    /// Any walk failure: unknown host, missing entries, loops.
    pub fn resolve(&self, host: &str, path: &str) -> Result<CanonicalName, VfsError> {
        let path = VPath::parse(path)?;
        let (owner, node, physical) = self.resolve_node(host, &path)?;
        let fs = self.host(&owner)?;
        let canonical_path = match &fs.node(node).kind {
            NodeKind::File(f) => f.primary_path.clone(),
            _ => physical,
        };
        let digest = ContentDigest::of(format!("{owner}\u{0}{canonical_path}").as_bytes());
        Ok(CanonicalName {
            domain: self.domain,
            host: HostName::new(owner),
            path: canonical_path,
            file_id: FileId::new(digest.as_u64()),
        })
    }

    /// Creates every missing directory along `path`, crossing mounts.
    ///
    /// # Errors
    ///
    /// Fails when a non-directory blocks the way or the host is unknown.
    pub fn mkdir_p(&mut self, host: &str, path: &str) -> Result<(), VfsError> {
        let path = VPath::parse(path)?;
        // Fast path: the whole path exists.
        if self.resolve_node(host, &path).is_ok() {
            let (owner, node, physical) = self.resolve_node(host, &path)?;
            return match self.host(&owner)?.node(node).kind {
                NodeKind::Dir(_) => Ok(()),
                _ => Err(VfsError::NotADirectory {
                    host: owner,
                    path: physical.to_string(),
                }),
            };
        }
        // Walk down, creating from the deepest existing ancestor. Resolving
        // the parent handles mounts/symlinks; creation is then local to the
        // owning host.
        for depth in 0..path.depth() {
            let prefix = VPath::from_segments(path.segments()[..=depth].to_vec());
            if self.resolve_node(host, &prefix).is_ok() {
                continue;
            }
            let parent = prefix.parent().unwrap_or_else(VPath::root);
            let (owner, parent_node, parent_physical) = self.resolve_node(host, &parent)?;
            let name = prefix.file_name().expect("non-root prefix");
            let fs = self.host_mut(&owner)?;
            let dir = fs.mkdir_p(&parent_physical.child(name))?;
            let _ = (parent_node, dir);
        }
        Ok(())
    }

    /// Writes (creates or replaces) a regular file's content.
    ///
    /// Follows symlinks on the final component like POSIX `open(O_CREAT)`.
    ///
    /// # Errors
    ///
    /// Fails when the parent directory is missing, the path names a
    /// directory, or the host is unknown.
    pub fn write_file(
        &mut self,
        host: &str,
        path: &str,
        content: Vec<u8>,
    ) -> Result<CanonicalName, VfsError> {
        self.write_file_depth(host, &VPath::parse(path)?, content, 16)
    }

    fn write_file_depth(
        &mut self,
        host: &str,
        path: &VPath,
        content: Vec<u8>,
        depth: usize,
    ) -> Result<CanonicalName, VfsError> {
        if depth == 0 {
            return Err(VfsError::SymlinkLoop {
                path: path.to_string(),
            });
        }
        match self.resolve_node(host, path) {
            Ok((owner, node, physical)) => {
                let fs = self.host_mut(&owner)?;
                match &mut fs.node_mut(node).kind {
                    NodeKind::File(f) => {
                        f.content = content;
                        self.resolve(host, &path.to_string())
                    }
                    _ => Err(VfsError::IsADirectory {
                        host: owner,
                        path: physical.to_string(),
                    }),
                }
            }
            Err(VfsError::NotFound { .. }) => {
                let parent = path.parent().ok_or(VfsError::IsADirectory {
                    host: host.to_string(),
                    path: "/".into(),
                })?;
                let name = path.file_name().expect("non-root").to_string();
                let (owner, dir_node, dir_physical) = self.resolve_node(host, &parent)?;
                // The final component may be a dangling symlink: follow it.
                let fs = self.host(&owner)?;
                if let Some(existing) = fs.lookup(dir_node, &name) {
                    if let NodeKind::Symlink(target) = &fs.node(existing).kind {
                        let target = VPath::parse(target)?;
                        let owner = owner.clone();
                        return self.write_file_depth(&owner, &target, content, depth - 1);
                    }
                }
                let full_physical = dir_physical.child(&name);
                if self.mounts[&owner].contains_key(&full_physical) {
                    return Err(VfsError::IsADirectory {
                        host: owner,
                        path: full_physical.to_string(),
                    });
                }
                let fs = self.host_mut(&owner)?;
                let file = fs.create_file(full_physical, content);
                fs.link_into(dir_node, &name, file)?;
                self.resolve(host, &path.to_string())
            }
            Err(e) => Err(e),
        }
    }

    /// Reads a regular file's content.
    ///
    /// # Errors
    ///
    /// Fails when the path is missing or names a directory.
    pub fn read_file(&self, host: &str, path: &str) -> Result<Vec<u8>, VfsError> {
        let vpath = VPath::parse(path)?;
        let (owner, node, physical) = self.resolve_node(host, &vpath)?;
        match &self.host(&owner)?.node(node).kind {
            NodeKind::File(f) => Ok(f.content.clone()),
            _ => Err(VfsError::IsADirectory {
                host: owner,
                path: physical.to_string(),
            }),
        }
    }

    /// Creates a symbolic link at `link_path` pointing to the **absolute**
    /// path `target` (relative targets are not supported by this model).
    ///
    /// # Errors
    ///
    /// Fails when the link's parent is missing, the name is taken, or
    /// `target` is not absolute.
    pub fn symlink(&mut self, host: &str, link_path: &str, target: &str) -> Result<(), VfsError> {
        if !target.starts_with('/') {
            return Err(VfsError::InvalidPath {
                path: target.to_string(),
                reason: "symlink targets must be absolute",
            });
        }
        let link = VPath::parse(link_path)?;
        let parent = link.parent().ok_or(VfsError::AlreadyExists {
            host: host.to_string(),
            path: "/".into(),
        })?;
        let name = link.file_name().expect("non-root").to_string();
        let (owner, dir_node, _) = self.resolve_node(host, &parent)?;
        let fs = self.host_mut(&owner)?;
        let node = fs.create_symlink(target.to_string());
        fs.link_into(dir_node, &name, node)
    }

    /// Creates a hard link `new_path` to the existing file `existing_path`.
    /// Both must resolve to the same physical host (no cross-device links).
    ///
    /// # Errors
    ///
    /// Fails with [`VfsError::CrossDevice`] when the link would span hosts,
    /// and with the usual walk errors otherwise.
    pub fn hard_link(
        &mut self,
        host: &str,
        existing_path: &str,
        new_path: &str,
    ) -> Result<(), VfsError> {
        let existing = VPath::parse(existing_path)?;
        let new = VPath::parse(new_path)?;
        let (owner, file_node, physical) = self.resolve_node(host, &existing)?;
        if !matches!(self.host(&owner)?.node(file_node).kind, NodeKind::File(_)) {
            return Err(VfsError::IsADirectory {
                host: owner,
                path: physical.to_string(),
            });
        }
        let parent = new.parent().ok_or(VfsError::AlreadyExists {
            host: host.to_string(),
            path: "/".into(),
        })?;
        let name = new.file_name().expect("non-root").to_string();
        let (new_owner, dir_node, _) = self.resolve_node(host, &parent)?;
        if new_owner != owner {
            return Err(VfsError::CrossDevice {
                operation: "hard link across hosts",
            });
        }
        self.host_mut(&owner)?.link_into(dir_node, &name, file_node)
    }

    /// Removes the directory entry at `path` (without following a final
    /// symlink). The file node survives while other hard links exist.
    ///
    /// # Errors
    ///
    /// Fails when the entry or its parent is missing.
    pub fn unlink(&mut self, host: &str, path: &str) -> Result<(), VfsError> {
        let vpath = VPath::parse(path)?;
        let parent = vpath.parent().ok_or(VfsError::NotFound {
            host: host.to_string(),
            path: "/".into(),
        })?;
        let name = vpath.file_name().expect("non-root").to_string();
        let (owner, dir_node, _) = self.resolve_node(host, &parent)?;
        self.host_mut(&owner)?.unlink_from(dir_node, &name)?;
        Ok(())
    }

    /// Renames (moves) an entry within the cluster. Both paths resolve
    /// through mounts; source and destination must land on the same host
    /// (no cross-device rename, like POSIX `rename(2)`). The final
    /// component of `from` is not followed if it is a symlink (the link
    /// itself moves).
    ///
    /// A rename changes the name but **not** the node: a renamed file's
    /// canonical identity follows its primary path only if the primary
    /// name itself was the one renamed — mirroring the editor-with-
    /// rename-over caveat real systems have. The primary path is updated
    /// when the renamed name was the primary.
    ///
    /// # Errors
    ///
    /// The usual walk errors, plus [`VfsError::CrossDevice`] and
    /// [`VfsError::AlreadyExists`].
    pub fn rename(&mut self, host: &str, from: &str, to: &str) -> Result<(), VfsError> {
        let from = VPath::parse(from)?;
        let to = VPath::parse(to)?;
        let from_parent = from.parent().ok_or(VfsError::NotFound {
            host: host.to_string(),
            path: "/".into(),
        })?;
        let to_parent = to.parent().ok_or(VfsError::AlreadyExists {
            host: host.to_string(),
            path: "/".into(),
        })?;
        let from_name = from.file_name().expect("non-root").to_string();
        let to_name = to.file_name().expect("non-root").to_string();
        let (from_owner, from_dir, from_dir_physical) = self.resolve_node(host, &from_parent)?;
        let (to_owner, to_dir, to_dir_physical) = self.resolve_node(host, &to_parent)?;
        if from_owner != to_owner {
            return Err(VfsError::CrossDevice {
                operation: "rename across hosts",
            });
        }
        // Destination must be free.
        let fs = self.host(&from_owner)?;
        if fs.lookup(to_dir, &to_name).is_some() {
            return Err(VfsError::AlreadyExists {
                host: to_owner,
                path: to_dir_physical.child(&to_name).to_string(),
            });
        }
        let fs = self.host_mut(&from_owner)?;
        let node = fs.unlink_from(from_dir, &from_name)?;
        fs.link_into(to_dir, &to_name, node)?;
        // Keep canonical identity coherent when the primary name moved.
        let old_primary = from_dir_physical.child(&from_name);
        if let NodeKind::File(f) = &mut fs.node_mut(node).kind {
            if f.primary_path == old_primary {
                f.primary_path = to_dir_physical.child(&to_name);
            }
        }
        Ok(())
    }

    /// Stats a node, following symlinks.
    ///
    /// # Errors
    ///
    /// The usual walk errors.
    pub fn stat(&self, host: &str, path: &str) -> Result<NodeStat, VfsError> {
        let vpath = VPath::parse(path)?;
        let (owner, node, _) = self.resolve_node(host, &vpath)?;
        let n = self.host(&owner)?.node(node);
        Ok(match &n.kind {
            NodeKind::File(f) => NodeStat {
                node_type: NodeType::File,
                size: f.content.len() as u64,
                nlink: n.nlink,
            },
            NodeKind::Dir(_) => NodeStat {
                node_type: NodeType::Directory,
                size: 0,
                nlink: n.nlink,
            },
            NodeKind::Symlink(_) => unreachable!("resolve_node follows symlinks"),
        })
    }

    /// Stats the entry itself (a final symlink is reported as a symlink).
    ///
    /// # Errors
    ///
    /// The usual walk errors.
    pub fn stat_no_follow(&self, host: &str, path: &str) -> Result<NodeStat, VfsError> {
        let vpath = VPath::parse(path)?;
        let Some(parent) = vpath.parent() else {
            return self.stat(host, path);
        };
        let name = vpath.file_name().expect("non-root");
        let (owner, dir_node, _) = self.resolve_node(host, &parent)?;
        let fs = self.host(&owner)?;
        let node_id = fs
            .lookup(dir_node, name)
            .ok_or_else(|| VfsError::NotFound {
                host: owner.clone(),
                path: vpath.to_string(),
            })?;
        let n = fs.node(node_id);
        Ok(match &n.kind {
            NodeKind::File(f) => NodeStat {
                node_type: NodeType::File,
                size: f.content.len() as u64,
                nlink: n.nlink,
            },
            NodeKind::Dir(_) => NodeStat {
                node_type: NodeType::Directory,
                size: 0,
                nlink: n.nlink,
            },
            NodeKind::Symlink(t) => NodeStat {
                node_type: NodeType::Symlink,
                size: t.len() as u64,
                nlink: n.nlink,
            },
        })
    }

    /// Lists a directory's entry names, sorted.
    ///
    /// # Errors
    ///
    /// Fails when the path is not a directory.
    pub fn list_dir(&self, host: &str, path: &str) -> Result<Vec<String>, VfsError> {
        let vpath = VPath::parse(path)?;
        let (owner, node, physical) = self.resolve_node(host, &vpath)?;
        match &self.host(&owner)?.node(node).kind {
            NodeKind::Dir(entries) => Ok(entries.keys().cloned().collect()),
            _ => Err(VfsError::NotADirectory {
                host: owner,
                path: physical.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Vfs {
        let mut vfs = Vfs::new(DomainId::new(7));
        for h in ["a", "b", "c"] {
            vfs.add_host(h).unwrap();
        }
        vfs
    }

    #[test]
    fn basic_write_read() {
        let mut vfs = cluster();
        vfs.mkdir_p("a", "/home/user").unwrap();
        vfs.write_file("a", "/home/user/f.txt", b"hello".to_vec())
            .unwrap();
        assert_eq!(vfs.read_file("a", "/home/user/f.txt").unwrap(), b"hello");
        let stat = vfs.stat("a", "/home/user/f.txt").unwrap();
        assert_eq!(stat.node_type, NodeType::File);
        assert_eq!(stat.size, 5);
    }

    #[test]
    fn overwrite_replaces_content() {
        let mut vfs = cluster();
        vfs.write_file("a", "/f", b"one".to_vec()).unwrap();
        vfs.write_file("a", "/f", b"two".to_vec()).unwrap();
        assert_eq!(vfs.read_file("a", "/f").unwrap(), b"two");
    }

    #[test]
    fn paper_nfs_example_single_cached_identity() {
        // §5.3: machine C exports /usr; A mounts it as /projl, B as
        // /others; /projl/foo on A and /others/foo on B are the same file.
        let mut vfs = cluster();
        vfs.mkdir_p("c", "/usr").unwrap();
        vfs.write_file("c", "/usr/foo", b"fortran".to_vec())
            .unwrap();
        vfs.mount("a", "/projl", "c", "/usr").unwrap();
        vfs.mount("b", "/others", "c", "/usr").unwrap();

        let on_a = vfs.resolve("a", "/projl/foo").unwrap();
        let on_b = vfs.resolve("b", "/others/foo").unwrap();
        let on_c = vfs.resolve("c", "/usr/foo").unwrap();
        assert_eq!(on_a, on_b);
        assert_eq!(on_a, on_c);
        assert_eq!(on_a.host, HostName::new("c"));
        assert_eq!(on_a.path.to_string(), "/usr/foo");

        // Writes through one view are visible through the other.
        vfs.write_file("a", "/projl/foo", b"edited".to_vec())
            .unwrap();
        assert_eq!(vfs.read_file("b", "/others/foo").unwrap(), b"edited");
    }

    #[test]
    fn nested_mounts_resolve_iteratively() {
        // a mounts b:/mid at /m1; b mounts c:/deep at /mid/inner.
        let mut vfs = cluster();
        vfs.mkdir_p("c", "/deep").unwrap();
        vfs.write_file("c", "/deep/file", b"x".to_vec()).unwrap();
        vfs.mkdir_p("b", "/mid").unwrap();
        vfs.mount("b", "/mid/inner", "c", "/deep").unwrap();
        vfs.mount("a", "/m1", "b", "/mid").unwrap();

        let resolved = vfs.resolve("a", "/m1/inner/file").unwrap();
        assert_eq!(resolved.host, HostName::new("c"));
        assert_eq!(resolved.path.to_string(), "/deep/file");
        assert_eq!(vfs.read_file("a", "/m1/inner/file").unwrap(), b"x");
    }

    #[test]
    fn symlinks_resolve_to_target_identity() {
        let mut vfs = cluster();
        vfs.mkdir_p("a", "/data").unwrap();
        vfs.write_file("a", "/data/real.txt", b"r".to_vec())
            .unwrap();
        vfs.symlink("a", "/alias", "/data/real.txt").unwrap();
        assert_eq!(
            vfs.resolve("a", "/alias").unwrap(),
            vfs.resolve("a", "/data/real.txt").unwrap()
        );
        assert_eq!(vfs.read_file("a", "/alias").unwrap(), b"r");
        assert_eq!(
            vfs.stat_no_follow("a", "/alias").unwrap().node_type,
            NodeType::Symlink
        );
    }

    #[test]
    fn symlink_chains_and_directory_symlinks() {
        let mut vfs = cluster();
        vfs.mkdir_p("a", "/x/y").unwrap();
        vfs.write_file("a", "/x/y/f", b"f".to_vec()).unwrap();
        vfs.symlink("a", "/link1", "/link2").unwrap();
        vfs.symlink("a", "/link2", "/x").unwrap();
        assert_eq!(vfs.read_file("a", "/link1/y/f").unwrap(), b"f");
    }

    #[test]
    fn symlink_loops_are_detected() {
        let mut vfs = cluster();
        vfs.symlink("a", "/p", "/q").unwrap();
        vfs.symlink("a", "/q", "/p").unwrap();
        assert!(matches!(
            vfs.resolve("a", "/p"),
            Err(VfsError::SymlinkLoop { .. })
        ));
    }

    #[test]
    fn hard_links_share_canonical_identity() {
        let mut vfs = cluster();
        vfs.write_file("a", "/orig", b"1".to_vec()).unwrap();
        vfs.hard_link("a", "/orig", "/alias").unwrap();
        let orig = vfs.resolve("a", "/orig").unwrap();
        let alias = vfs.resolve("a", "/alias").unwrap();
        assert_eq!(orig.file_id, alias.file_id);
        assert_eq!(alias.path.to_string(), "/orig"); // the basic name
        vfs.write_file("a", "/alias", b"2".to_vec()).unwrap();
        assert_eq!(vfs.read_file("a", "/orig").unwrap(), b"2");
    }

    #[test]
    fn hard_link_survives_unlink_of_primary() {
        let mut vfs = cluster();
        vfs.write_file("a", "/orig", b"1".to_vec()).unwrap();
        vfs.hard_link("a", "/orig", "/alias").unwrap();
        vfs.unlink("a", "/orig").unwrap();
        assert!(vfs.read_file("a", "/orig").is_err());
        assert_eq!(vfs.read_file("a", "/alias").unwrap(), b"1");
    }

    #[test]
    fn cross_host_hard_link_rejected() {
        let mut vfs = cluster();
        vfs.mkdir_p("c", "/usr").unwrap();
        vfs.write_file("c", "/usr/f", b"x".to_vec()).unwrap();
        vfs.mount("a", "/mnt", "c", "/usr").unwrap();
        // Link target resolves to host c; link parent is local to a.
        assert!(matches!(
            vfs.hard_link("a", "/mnt/f", "/local-link"),
            Err(VfsError::CrossDevice { .. })
        ));
        // Within the mount, both sides live on c — allowed.
        vfs.hard_link("a", "/mnt/f", "/mnt/g").unwrap();
        assert_eq!(vfs.read_file("c", "/usr/g").unwrap(), b"x");
    }

    #[test]
    fn writes_create_through_mounts() {
        let mut vfs = cluster();
        vfs.mkdir_p("c", "/export").unwrap();
        vfs.mount("a", "/remote", "c", "/export").unwrap();
        vfs.write_file("a", "/remote/new.txt", b"n".to_vec())
            .unwrap();
        assert_eq!(vfs.read_file("c", "/export/new.txt").unwrap(), b"n");
        // Canonical identity names the exporting host.
        let r = vfs.resolve("a", "/remote/new.txt").unwrap();
        assert_eq!(r.host, HostName::new("c"));
        assert_eq!(r.path.to_string(), "/export/new.txt");
    }

    #[test]
    fn mkdir_p_through_mounts() {
        let mut vfs = cluster();
        vfs.mkdir_p("c", "/export").unwrap();
        vfs.mount("a", "/remote", "c", "/export").unwrap();
        vfs.mkdir_p("a", "/remote/a/b/c").unwrap();
        assert_eq!(
            vfs.stat("c", "/export/a/b/c").unwrap().node_type,
            NodeType::Directory
        );
    }

    #[test]
    fn mount_shadows_local_content() {
        let mut vfs = cluster();
        vfs.mkdir_p("a", "/mnt").unwrap();
        vfs.write_file("a", "/mnt/local", b"local".to_vec())
            .unwrap();
        vfs.mkdir_p("c", "/exp").unwrap();
        vfs.write_file("c", "/exp/remote", b"remote".to_vec())
            .unwrap();
        vfs.mount("a", "/mnt", "c", "/exp").unwrap();
        assert!(vfs.read_file("a", "/mnt/local").is_err());
        assert_eq!(vfs.read_file("a", "/mnt/remote").unwrap(), b"remote");
    }

    #[test]
    fn mount_cycles_bounded() {
        let mut vfs = cluster();
        vfs.mkdir_p("a", "/xa").unwrap();
        vfs.mkdir_p("b", "/xb").unwrap();
        vfs.mount("a", "/xa/m", "b", "/xb").unwrap();
        vfs.mount("b", "/xb/m", "a", "/xa").unwrap();
        let deep = "/xa/m".to_string() + &"/m".repeat(64) + "/f";
        assert!(matches!(
            vfs.resolve("a", &deep),
            Err(VfsError::MountLoop { .. })
        ));
    }

    #[test]
    fn unknown_host_and_missing_paths_error() {
        let vfs = cluster();
        assert!(matches!(
            vfs.resolve("nope", "/f"),
            Err(VfsError::UnknownHost { .. })
        ));
        assert!(matches!(
            vfs.resolve("a", "/missing"),
            Err(VfsError::NotFound { .. })
        ));
    }

    #[test]
    fn write_over_directory_rejected() {
        let mut vfs = cluster();
        vfs.mkdir_p("a", "/d").unwrap();
        assert!(matches!(
            vfs.write_file("a", "/d", b"x".to_vec()),
            Err(VfsError::IsADirectory { .. })
        ));
    }

    #[test]
    fn read_of_directory_rejected() {
        let mut vfs = cluster();
        vfs.mkdir_p("a", "/d").unwrap();
        assert!(matches!(
            vfs.read_file("a", "/d"),
            Err(VfsError::IsADirectory { .. })
        ));
    }

    #[test]
    fn write_through_dangling_symlink_creates_target() {
        let mut vfs = cluster();
        vfs.mkdir_p("a", "/real").unwrap();
        vfs.symlink("a", "/ln", "/real/file").unwrap();
        vfs.write_file("a", "/ln", b"created".to_vec()).unwrap();
        assert_eq!(vfs.read_file("a", "/real/file").unwrap(), b"created");
    }

    #[test]
    fn list_dir_sorted() {
        let mut vfs = cluster();
        vfs.write_file("a", "/zeta", vec![]).unwrap();
        vfs.write_file("a", "/alpha", vec![]).unwrap();
        assert_eq!(vfs.list_dir("a", "/").unwrap(), vec!["alpha", "zeta"]);
    }

    #[test]
    fn dotdot_is_normalized_lexically() {
        let mut vfs = cluster();
        vfs.mkdir_p("a", "/u/proj").unwrap();
        vfs.write_file("a", "/u/proj/f", b"x".to_vec()).unwrap();
        assert_eq!(vfs.read_file("a", "/u/other/../proj/f").unwrap(), b"x");
    }

    #[test]
    fn distinct_files_get_distinct_ids() {
        let mut vfs = cluster();
        let f1 = vfs.write_file("a", "/f1", b"".to_vec()).unwrap();
        let f2 = vfs.write_file("a", "/f2", b"".to_vec()).unwrap();
        let f1_on_b = {
            vfs.mkdir_p("b", "/").unwrap();
            vfs.write_file("b", "/f1", b"".to_vec()).unwrap()
        };
        assert_ne!(f1.file_id, f2.file_id);
        // Same path on a *different* host is a different file.
        assert_ne!(f1.file_id, f1_on_b.file_id);
        assert_eq!(f1.key().domain, DomainId::new(7));
    }

    #[test]
    fn rename_moves_files_and_updates_identity() {
        let mut vfs = cluster();
        vfs.mkdir_p("a", "/dir").unwrap();
        vfs.write_file("a", "/old", b"content".to_vec()).unwrap();
        vfs.rename("a", "/old", "/dir/new").unwrap();
        assert!(vfs.read_file("a", "/old").is_err());
        assert_eq!(vfs.read_file("a", "/dir/new").unwrap(), b"content");
        // Identity follows the (renamed) primary name.
        let r = vfs.resolve("a", "/dir/new").unwrap();
        assert_eq!(r.path.to_string(), "/dir/new");
    }

    #[test]
    fn rename_through_mounts_stays_on_exporting_host() {
        let mut vfs = cluster();
        vfs.mkdir_p("c", "/exp").unwrap();
        vfs.write_file("c", "/exp/f", b"x".to_vec()).unwrap();
        vfs.mount("a", "/m", "c", "/exp").unwrap();
        vfs.rename("a", "/m/f", "/m/g").unwrap();
        assert_eq!(vfs.read_file("c", "/exp/g").unwrap(), b"x");
        // Cross-host rename is refused.
        vfs.write_file("a", "/local", b"y".to_vec()).unwrap();
        assert!(matches!(
            vfs.rename("a", "/local", "/m/elsewhere"),
            Err(VfsError::CrossDevice { .. })
        ));
    }

    #[test]
    fn rename_refuses_to_clobber() {
        let mut vfs = cluster();
        vfs.write_file("a", "/one", b"1".to_vec()).unwrap();
        vfs.write_file("a", "/two", b"2".to_vec()).unwrap();
        assert!(matches!(
            vfs.rename("a", "/one", "/two"),
            Err(VfsError::AlreadyExists { .. })
        ));
        assert_eq!(vfs.read_file("a", "/two").unwrap(), b"2");
    }

    #[test]
    fn rename_preserves_hard_link_siblings() {
        let mut vfs = cluster();
        vfs.write_file("a", "/orig", b"shared".to_vec()).unwrap();
        vfs.hard_link("a", "/orig", "/alias").unwrap();
        vfs.rename("a", "/orig", "/moved").unwrap();
        // The alias still reads the same node; the primary moved with the
        // primary name.
        assert_eq!(vfs.read_file("a", "/alias").unwrap(), b"shared");
        assert_eq!(vfs.read_file("a", "/moved").unwrap(), b"shared");
        assert_eq!(
            vfs.resolve("a", "/alias").unwrap().path.to_string(),
            "/moved"
        );
    }

    #[test]
    fn mount_requires_existing_remote_directory() {
        let mut vfs = cluster();
        assert!(vfs.mount("a", "/m", "c", "/no-such").is_err());
        vfs.write_file("c", "/afile", b"x".to_vec()).unwrap();
        assert!(matches!(
            vfs.mount("a", "/m", "c", "/afile"),
            Err(VfsError::NotADirectory { .. })
        ));
        assert!(vfs.mount("a", "/", "c", "/").is_err());
    }
}
