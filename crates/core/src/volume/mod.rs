//! Volumes: the unit of storage administration.
//!
//! Section 5.3 introduces the concept: "A volume is a complete subtree of
//! files whose root may be arbitrarily relocated in the Vice name space. It
//! is thus similar to a mountable disk pack in a conventional file system.
//! Each volume may be turned offline or online, moved between servers and
//! salvaged after a system crash. A volume may also be Cloned, thereby
//! creating a frozen, read-only replica of that volume. ... volumes will
//! not be visible to Virtue application programs; they will only be visible
//! at the Vice-Virtue interface."
//!
//! A [`Volume`] owns an [`itc_unixfs::FileSystem`] holding the subtree, a
//! per-directory access-list table (protection state rides with the data,
//! keyed by inode so renames keep their ACLs), an optional quota (the
//! "quota enforcement mechanism" promised in Section 3.6), and flags for
//! read-only and offline states.

use crate::disk::{ScrubFinding, VolumeMerkle};
use crate::protect::AccessList;
use crate::proto::payload::{payload_digest, Payload};
use itc_unixfs::{FileSystem, FsError, Ino, Mode};
use std::collections::HashMap;

pub use crate::proto::VolumeId;

/// Errors from volume-level operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VolumeError {
    /// The underlying file system rejected the operation.
    Fs(FsError),
    /// Write to a read-only (cloned) volume.
    ReadOnly,
    /// The volume is offline.
    Offline,
    /// The write would exceed the volume quota.
    QuotaExceeded {
        /// Configured limit.
        limit: u64,
        /// Bytes the operation would have brought the volume to.
        would_be: u64,
    },
}

impl From<FsError> for VolumeError {
    fn from(e: FsError) -> Self {
        VolumeError::Fs(e)
    }
}

impl std::fmt::Display for VolumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VolumeError::Fs(e) => write!(f, "{e}"),
            VolumeError::ReadOnly => write!(f, "volume is read-only"),
            VolumeError::Offline => write!(f, "volume is offline"),
            VolumeError::QuotaExceeded { limit, would_be } => {
                write!(f, "quota exceeded: {would_be} bytes > limit {limit}")
            }
        }
    }
}

impl std::error::Error for VolumeError {}

/// A mountable subtree of Vice files.
#[derive(Debug, Clone)]
pub struct Volume {
    id: VolumeId,
    name: String,
    mount: String,
    fs: FileSystem,
    acls: HashMap<u64, AccessList>,
    quota_bytes: Option<u64>,
    read_only: bool,
    online: bool,
    /// Bumped each time the volume is cloned; clone names embed it.
    clone_serial: u32,
    /// Incremental digest tree over the volume's regular files. Rides
    /// with the volume into clones and checkpoint images, so recovery can
    /// always verify rebuilt bytes against the tree that committed them.
    merkle: VolumeMerkle,
}

impl Volume {
    /// Creates an empty read-write volume mounted at `mount` (an absolute
    /// Vice path), with `root_acl` protecting its root directory.
    pub fn new(id: VolumeId, name: &str, mount: &str, root_acl: AccessList) -> Volume {
        assert!(mount.starts_with('/'), "mount must be absolute: {mount}");
        let fs = FileSystem::new();
        let root_ino = fs.root();
        let mut acls = HashMap::new();
        acls.insert(root_ino.0, root_acl);
        Volume {
            id,
            name: name.to_string(),
            mount: mount.trim_end_matches('/').to_string(),
            fs,
            acls,
            quota_bytes: None,
            read_only: false,
            online: true,
            clone_serial: 0,
            merkle: VolumeMerkle::new(),
        }
    }

    /// Volume id.
    pub fn id(&self) -> VolumeId {
        self.id
    }

    /// Volume name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Mount point in the Vice name space.
    pub fn mount(&self) -> &str {
        &self.mount
    }

    /// Remounts the volume at a new root — "a complete subtree of files
    /// whose root may be arbitrarily relocated in the Vice name space".
    pub fn relocate(&mut self, new_mount: &str) {
        assert!(new_mount.starts_with('/'));
        self.mount = new_mount.trim_end_matches('/').to_string();
    }

    /// True when this volume is a frozen clone or read-only replica.
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// True when the volume is serving requests.
    pub fn is_online(&self) -> bool {
        self.online
    }

    /// Takes the volume offline (requests fail with
    /// [`VolumeError::Offline`]) or back online.
    pub fn set_online(&mut self, online: bool) {
        self.online = online;
    }

    /// Sets the storage quota in bytes (`None` = unlimited).
    pub fn set_quota(&mut self, bytes: Option<u64>) {
        self.quota_bytes = bytes;
    }

    /// The configured quota.
    pub fn quota(&self) -> Option<u64> {
        self.quota_bytes
    }

    /// Bytes of file data currently stored.
    pub fn used_bytes(&self) -> u64 {
        self.fs.data_bytes()
    }

    /// Read access to the underlying file system.
    pub fn fs(&self) -> &FileSystem {
        &self.fs
    }

    /// Whether this volume's mount covers `vice_path`.
    pub fn covers(&self, vice_path: &str) -> bool {
        crate::location::subtree_covers(&self.mount, vice_path)
    }

    /// Translates a Vice path into this volume's internal path.
    /// Returns `None` when the path is outside the volume.
    pub fn internal_path(&self, vice_path: &str) -> Option<String> {
        if vice_path == self.mount {
            Some("/".to_string())
        } else if crate::location::subtree_covers(&self.mount, vice_path) {
            // Keep the leading '/' of the remainder: "/mount/a/b" -> "/a/b".
            Some(vice_path[self.mount.len()..].to_string())
        } else {
            None
        }
    }

    /// Translates an internal path back to the Vice name space.
    pub fn vice_path(&self, internal: &str) -> String {
        if internal == "/" {
            self.mount.clone()
        } else {
            format!("{}{internal}", self.mount)
        }
    }

    fn writable(&self) -> Result<(), VolumeError> {
        if !self.online {
            return Err(VolumeError::Offline);
        }
        if self.read_only {
            return Err(VolumeError::ReadOnly);
        }
        Ok(())
    }

    fn readable(&self) -> Result<(), VolumeError> {
        if !self.online {
            return Err(VolumeError::Offline);
        }
        Ok(())
    }

    fn check_quota(&self, new_total: u64) -> Result<(), VolumeError> {
        if let Some(limit) = self.quota_bytes {
            if new_total > limit {
                return Err(VolumeError::QuotaExceeded {
                    limit,
                    would_be: new_total,
                });
            }
        }
        Ok(())
    }

    /// Mutable file-system access for write operations, with read-only,
    /// offline, and (for growth) quota checks applied by the caller-facing
    /// wrappers below.
    pub fn fs_mut(&mut self) -> Result<&mut FileSystem, VolumeError> {
        self.writable()?;
        Ok(&mut self.fs)
    }

    /// Read-checked file-system access.
    pub fn fs_read(&self) -> Result<&FileSystem, VolumeError> {
        self.readable()?;
        Ok(&self.fs)
    }

    /// Stores a whole file (create or replace), enforcing the quota. The
    /// bytes cross from the refcounted payload into the file system here,
    /// in the one counted copy on the store path; the Merkle leaf reuses
    /// the payload's memoized digest rather than hashing the copy again.
    pub fn store(
        &mut self,
        internal: &str,
        uid: u32,
        now: u64,
        data: &Payload,
    ) -> Result<Ino, VolumeError> {
        self.writable()?;
        let old = match self.fs.stat(internal) {
            Ok(st) => st.size,
            Err(_) => 0,
        };
        let new_total = self.fs.data_bytes() - old + data.len() as u64;
        self.check_quota(new_total)?;
        let digest = data.digest();
        let ino = self.fs.write(internal, uid, now, data.to_vec())?;
        let key = itc_unixfs::normalize(internal).unwrap_or_else(|_| internal.to_string());
        self.merkle.set(&key, digest);
        Ok(ino)
    }

    // ----------------------------------------------------------------
    // Access lists (per-directory, keyed by inode)
    // ----------------------------------------------------------------

    /// The access list protecting the directory at `internal` (or, for a
    /// file, its containing directory — "all files within a directory have
    /// the same protection status", Section 3.4).
    pub fn acl_for(&self, internal: &str) -> Result<&AccessList, VolumeError> {
        self.readable()?;
        let dir_path = self.protecting_dir(internal)?;
        let ino = self.fs.resolve(&dir_path, true)?.ino;
        Ok(self
            .acls
            .get(&ino.0)
            .expect("every directory has an ACL (inherited at creation)"))
    }

    /// Resolves the directory whose ACL protects `internal`.
    fn protecting_dir(&self, internal: &str) -> Result<String, VolumeError> {
        match self.fs.stat(internal) {
            Ok(st) if st.ftype == itc_unixfs::FileType::Directory => Ok(internal.to_string()),
            Ok(_) => Ok(itc_unixfs::dirname_basename(internal)
                .map(|(d, _)| d)
                .unwrap_or_else(|_| "/".to_string())),
            // For creation targets the file does not exist yet: protect by
            // the parent directory.
            Err(_) => Ok(itc_unixfs::dirname_basename(internal)
                .map(|(d, _)| d)
                .unwrap_or_else(|_| "/".to_string())),
        }
    }

    /// Replaces a directory's access list.
    pub fn set_acl(&mut self, internal: &str, acl: AccessList) -> Result<(), VolumeError> {
        self.writable()?;
        let ino = self.fs.resolve(internal, true)?.ino;
        if self.fs.attr_of(ino).map(|a| a.ftype) != Some(itc_unixfs::FileType::Directory) {
            return Err(VolumeError::Fs(FsError::NotADirectory(internal.into())));
        }
        self.acls.insert(ino.0, acl);
        Ok(())
    }

    /// Creates a directory that inherits its parent's access list.
    pub fn mkdir_inherit(
        &mut self,
        internal: &str,
        uid: u32,
        now: u64,
    ) -> Result<Ino, VolumeError> {
        self.writable()?;
        let parent_acl = self.acl_for(internal)?.clone();
        let ino = self.fs.mkdir(internal, Mode::DIR_DEFAULT, uid, now)?;
        self.acls.insert(ino.0, parent_acl);
        Ok(ino)
    }

    /// Removes an empty directory and its ACL entry.
    pub fn rmdir(&mut self, internal: &str, now: u64) -> Result<(), VolumeError> {
        self.writable()?;
        let ino = self.fs.resolve(internal, false)?.ino;
        self.fs.rmdir(internal, now)?;
        self.acls.remove(&ino.0);
        Ok(())
    }

    // ----------------------------------------------------------------
    // Cloning and replication
    // ----------------------------------------------------------------

    /// Clones the volume: "a frozen, read-only replica" (Section 5.3).
    /// The clone gets the given id and keeps this volume's mount point
    /// (it is typically installed at other servers as a read-only replica,
    /// or remounted as a release snapshot).
    ///
    /// The paper's copy-on-write cheapness is a *time* concern, charged by
    /// the system layer; semantically a clone is a deep snapshot.
    pub fn clone_readonly(&mut self, clone_id: VolumeId) -> Volume {
        self.clone_serial += 1;
        Volume {
            id: clone_id,
            name: format!("{}.readonly.{}", self.name, self.clone_serial),
            mount: self.mount.clone(),
            fs: self.fs.clone(),
            acls: self.acls.clone(),
            quota_bytes: self.quota_bytes,
            read_only: true,
            online: true,
            clone_serial: 0,
            merkle: self.merkle.clone(),
        }
    }

    /// Replaces this read-only volume's contents with a fresh clone of
    /// `source` — the atomic "orderly release of new system software"
    /// (Section 3.2). Panics if called on a read-write volume.
    pub fn refresh_from(&mut self, source: &Volume) {
        assert!(
            self.read_only,
            "refresh_from is only for read-only replicas"
        );
        self.fs = source.fs.clone();
        self.acls = source.acls.clone();
        self.merkle = source.merkle.clone();
    }

    // ----------------------------------------------------------------
    // End-to-end integrity (the Merkle tree and its verifiers)
    // ----------------------------------------------------------------

    /// The volume's incremental digest tree.
    pub fn merkle(&self) -> &VolumeMerkle {
        &self.merkle
    }

    /// Drops the leaf for a removed file. Called by the journal apply
    /// path after a successful unlink; paths that never had a leaf
    /// (symlinks, directories) are a no-op.
    pub fn merkle_remove(&mut self, internal: &str) {
        let key = itc_unixfs::normalize(internal).unwrap_or_else(|_| internal.to_string());
        self.merkle.remove(&key);
    }

    /// Re-keys leaves after a successful rename (single file or whole
    /// directory subtree).
    pub fn merkle_rename(&mut self, from: &str, to: &str) {
        let from = itc_unixfs::normalize(from).unwrap_or_else(|_| from.to_string());
        let to = itc_unixfs::normalize(to).unwrap_or_else(|_| to.to_string());
        // Renaming a path onto itself is a filesystem no-op; removing the
        // destination leaf first would lose it.
        if from == to {
            return;
        }
        // Rename has replace semantics: whatever regular file sat at the
        // destination is gone, so its leaf goes first (a no-op otherwise).
        self.merkle.remove(&to);
        self.merkle.rename_subtree(&from, &to);
    }

    /// Visits every regular file without following symlinks (a dangling
    /// link is legal state), depth-first over directory entries.
    fn for_each_regular<F: FnMut(&str, Ino)>(&self, visit: &mut F) {
        let mut stack = vec!["/".to_string()];
        while let Some(path) = stack.pop() {
            let attr = match self.fs.lstat(&path) {
                Ok(a) => a,
                Err(_) => continue,
            };
            match attr.ftype {
                itc_unixfs::FileType::Regular => visit(&path, attr.ino),
                itc_unixfs::FileType::Directory => {
                    if let Ok(entries) = self.fs.readdir(&path) {
                        for (name, _) in entries {
                            stack.push(if path == "/" {
                                format!("/{name}")
                            } else {
                                format!("{path}/{name}")
                            });
                        }
                    }
                }
                itc_unixfs::FileType::Symlink => {}
            }
        }
    }

    /// Rebuilds the digest tree from scratch by walking the file system.
    /// The incremental tree must equal this for any operation history —
    /// the invariant pinned by the Merkle property test.
    pub fn recompute_merkle(&self) -> VolumeMerkle {
        let mut m = VolumeMerkle::new();
        self.for_each_regular(&mut |path, ino| {
            if let Ok(data) = self.fs.read_ino(ino) {
                m.set(path, payload_digest(&data));
            }
        });
        m
    }

    /// Verifies every file's contents against its Merkle leaf — the
    /// scrubber's core check. Returns all mismatches: a digest that moved
    /// (bit rot in the data), a leaf without a file, or a file without a
    /// leaf (rot in the tree's coverage). Empty = clean.
    pub fn verify_merkle(&self) -> Vec<ScrubFinding> {
        let mut findings = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        self.for_each_regular(&mut |path, ino| {
            seen.insert(path.to_string());
            let found = self.fs.read_ino(ino).map(|d| payload_digest(&d)).ok();
            let expected = self.merkle.leaf(path);
            if expected != found {
                findings.push(ScrubFinding {
                    path: path.to_string(),
                    expected,
                    found,
                });
            }
        });
        for (path, digest) in self.merkle.leaves() {
            if !seen.contains(path) {
                findings.push(ScrubFinding {
                    path: path.clone(),
                    expected: Some(*digest),
                    found: None,
                });
            }
        }
        findings.sort_by(|a, b| a.path.cmp(&b.path));
        findings
    }

    /// Regular files in path order with their byte sizes — the volume's
    /// slice of the durable corruption address space, and the scrubber's
    /// scan plan.
    pub fn regular_files(&self) -> Vec<(String, u64)> {
        let mut files = Vec::new();
        self.for_each_regular(&mut |path, ino| {
            if let Some(a) = self.fs.attr_of(ino) {
                files.push((path.to_string(), a.size));
            }
        });
        files.sort();
        files
    }

    /// Flips one byte of a file's stored contents in place, bypassing the
    /// read-only/offline gates (damage does not ask permission) and
    /// leaving mtime/version untouched — silent corruption by
    /// construction. Returns false when the path has no such byte.
    pub fn damage_file_byte(&mut self, internal: &str, offset: u64, mask: u8) -> bool {
        let ino = match self.fs.lstat(internal) {
            Ok(a) if a.ftype == itc_unixfs::FileType::Regular => a.ino,
            _ => return false,
        };
        self.fs.damage_byte(ino, offset, mask).is_ok()
    }

    /// XORs `mask` into the stored Merkle leaf for `internal` — bit rot in
    /// the digest table itself. Returns false when no leaf exists.
    pub fn damage_merkle_leaf(&mut self, internal: &str, mask: u64) -> bool {
        match self.merkle.leaf(internal) {
            Some(old) => {
                self.merkle.set(internal, old ^ mask);
                true
            }
            None => false,
        }
    }

    /// Restores a file's committed bytes (the repair path) without
    /// touching mtime or version: logically the file never changed.
    /// Returns false when the path is not a regular file.
    pub fn restore_file(&mut self, internal: &str, data: Vec<u8>) -> bool {
        let ino = match self.fs.lstat(internal) {
            Ok(a) if a.ftype == itc_unixfs::FileType::Regular => a.ino,
            _ => return false,
        };
        self.fs.restore_data(ino, data).is_ok()
    }

    // ----------------------------------------------------------------
    // Structural invariants (the salvager's checklist)
    // ----------------------------------------------------------------

    /// Verifies the volume's structural invariants — the checks a salvage
    /// pass runs before declaring a rebuilt volume fit to come online:
    ///
    /// 1. the file system's maintained byte counter equals the sum of
    ///    regular-file sizes found by walking the tree;
    /// 2. usage does not exceed the configured quota;
    /// 3. every directory has an access list (protection state is total);
    /// 4. every access-list entry keys a live directory (no orphans).
    ///
    /// Returns all violations found, not just the first, so a salvage
    /// report can name everything wrong with a damaged image.
    pub fn check_invariants(&self) -> Result<(), Vec<String>> {
        let mut violations = Vec::new();
        let mut walked_bytes = 0u64;
        let mut dir_inos = std::collections::HashSet::new();
        // One inode can be reachable under several names; count each
        // regular file's bytes once.
        let mut seen_files = std::collections::HashSet::new();
        // Depth-first without following symlinks: a dangling link is legal
        // state, not damage, so the traversal must not resolve through it.
        let mut stack = vec!["/".to_string()];
        while let Some(path) = stack.pop() {
            let attr = match self.fs.lstat(&path) {
                Ok(a) => a,
                Err(e) => {
                    violations.push(format!("unreadable entry {path}: {e}"));
                    continue;
                }
            };
            match attr.ftype {
                itc_unixfs::FileType::Regular => {
                    if seen_files.insert(attr.ino.0) {
                        walked_bytes += attr.size;
                    }
                }
                itc_unixfs::FileType::Directory => {
                    dir_inos.insert(attr.ino.0);
                    if !self.acls.contains_key(&attr.ino.0) {
                        violations.push(format!("directory {path} has no access list"));
                    }
                    match self.fs.readdir(&path) {
                        Ok(entries) => {
                            for (name, _) in entries {
                                stack.push(if path == "/" {
                                    format!("/{name}")
                                } else {
                                    format!("{path}/{name}")
                                });
                            }
                        }
                        Err(e) => violations.push(format!("unreadable directory {path}: {e}")),
                    }
                }
                itc_unixfs::FileType::Symlink => {}
            }
        }
        if walked_bytes != self.fs.data_bytes() {
            violations.push(format!(
                "byte accounting diverged: walked {walked_bytes}, counter says {}",
                self.fs.data_bytes()
            ));
        }
        if let Some(limit) = self.quota_bytes {
            if walked_bytes > limit {
                violations.push(format!("usage {walked_bytes} exceeds quota {limit}"));
            }
        }
        for ino in self.acls.keys() {
            if !dir_inos.contains(ino) {
                violations.push(format!("access list for dead inode {ino}"));
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protect::Rights;

    fn vol() -> Volume {
        let mut acl = AccessList::new();
        acl.grant("satya", Rights::ALL);
        acl.grant("cmu", Rights::READ_ONLY);
        Volume::new(VolumeId(1), "user.satya", "/vice/usr/satya", acl)
    }

    #[test]
    fn path_mapping() {
        let v = vol();
        assert!(v.covers("/vice/usr/satya"));
        assert!(v.covers("/vice/usr/satya/doc/a.tex"));
        assert!(!v.covers("/vice/usr/satyarayanan"));
        assert_eq!(v.internal_path("/vice/usr/satya").unwrap(), "/");
        assert_eq!(
            v.internal_path("/vice/usr/satya/doc/a.tex").unwrap(),
            "/doc/a.tex"
        );
        assert_eq!(v.internal_path("/vice/other"), None);
        assert_eq!(v.vice_path("/doc/a.tex"), "/vice/usr/satya/doc/a.tex");
        assert_eq!(v.vice_path("/"), "/vice/usr/satya");
    }

    #[test]
    fn store_and_quota() {
        let mut v = vol();
        v.set_quota(Some(100));
        v.store("/a.txt", 1, 10, &vec![0u8; 60].into()).unwrap();
        assert_eq!(v.used_bytes(), 60);
        // Replacing the same file within quota is fine (60 -> 90).
        v.store("/a.txt", 1, 11, &vec![0u8; 90].into()).unwrap();
        // Another 20 bytes would exceed 100.
        let err = v.store("/b.txt", 1, 12, &vec![0u8; 20].into()).unwrap_err();
        assert!(matches!(
            err,
            VolumeError::QuotaExceeded {
                limit: 100,
                would_be: 110
            }
        ));
        // Shrinking is always allowed.
        v.store("/a.txt", 1, 13, &vec![0u8; 10].into()).unwrap();
        v.store("/b.txt", 1, 14, &vec![0u8; 20].into()).unwrap();
    }

    #[test]
    fn acl_inheritance_on_mkdir() {
        let mut v = vol();
        v.mkdir_inherit("/doc", 1, 5).unwrap();
        let acl = v.acl_for("/doc").unwrap();
        assert_eq!(acl.effective_rights(["satya"]), Rights::ALL);
        // A file inside is protected by its directory.
        v.store("/doc/a.tex", 1, 6, &b"x".to_vec().into()).unwrap();
        let acl = v.acl_for("/doc/a.tex").unwrap();
        assert_eq!(acl.effective_rights(["u", "cmu"]), Rights::READ_ONLY);
        // Changing /doc's ACL does not touch the root's.
        let mut new_acl = AccessList::new();
        new_acl.grant("satya", Rights::READ_ONLY);
        v.set_acl("/doc", new_acl).unwrap();
        assert_eq!(
            v.acl_for("/").unwrap().effective_rights(["satya"]),
            Rights::ALL
        );
        assert_eq!(
            v.acl_for("/doc/a.tex").unwrap().effective_rights(["satya"]),
            Rights::READ_ONLY
        );
    }

    #[test]
    fn acl_survives_rename() {
        let mut v = vol();
        v.mkdir_inherit("/doc", 1, 5).unwrap();
        let mut special = AccessList::new();
        special.grant("howard", Rights::ALL);
        v.set_acl("/doc", special).unwrap();
        v.fs_mut().unwrap().rename("/doc", "/docs-v2", 6).unwrap();
        assert_eq!(
            v.acl_for("/docs-v2").unwrap().effective_rights(["howard"]),
            Rights::ALL
        );
    }

    #[test]
    fn readonly_clone_rejects_writes_and_snapshots_data() {
        let mut v = vol();
        v.store("/rel.txt", 1, 5, &b"v1".to_vec().into()).unwrap();
        let mut clone = v.clone_readonly(VolumeId(100));
        assert!(clone.is_read_only());
        assert_eq!(clone.fs().read("/rel.txt").unwrap(), b"v1");
        assert!(matches!(
            clone.store("/rel.txt", 1, 6, &b"v2".to_vec().into()),
            Err(VolumeError::ReadOnly)
        ));
        assert!(clone.fs_mut().is_err());
        // Source keeps evolving; the clone is frozen.
        v.store("/rel.txt", 1, 7, &b"v2".to_vec().into()).unwrap();
        assert_eq!(clone.fs().read("/rel.txt").unwrap(), b"v1");
        // Refresh = atomic release of the new version.
        clone.refresh_from(&v);
        assert_eq!(clone.fs().read("/rel.txt").unwrap(), b"v2");
    }

    #[test]
    fn offline_volume_rejects_everything() {
        let mut v = vol();
        v.store("/a", 1, 5, &b"x".to_vec().into()).unwrap();
        v.set_online(false);
        assert!(matches!(v.fs_read(), Err(VolumeError::Offline)));
        assert!(matches!(
            v.store("/a", 1, 6, &b"y".to_vec().into()),
            Err(VolumeError::Offline)
        ));
        assert!(matches!(v.acl_for("/a"), Err(VolumeError::Offline)));
        v.set_online(true);
        assert_eq!(v.fs_read().unwrap().read("/a").unwrap(), b"x");
    }

    #[test]
    fn relocation_moves_the_mount() {
        let mut v = vol();
        v.store("/a", 1, 5, &b"x".to_vec().into()).unwrap();
        v.relocate("/vice/usr/satyanarayanan");
        assert!(v.covers("/vice/usr/satyanarayanan/a"));
        assert!(!v.covers("/vice/usr/satya/a"));
        assert_eq!(v.internal_path("/vice/usr/satyanarayanan/a").unwrap(), "/a");
    }

    #[test]
    fn clone_names_embed_serial() {
        let mut v = vol();
        let c1 = v.clone_readonly(VolumeId(10));
        let c2 = v.clone_readonly(VolumeId(11));
        assert_eq!(c1.name(), "user.satya.readonly.1");
        assert_eq!(c2.name(), "user.satya.readonly.2");
    }

    #[test]
    fn quota_boundary_is_exact() {
        let mut v = vol();
        v.set_quota(Some(100));
        // Landing exactly on the limit is allowed...
        v.store("/a", 1, 5, &vec![0u8; 100].into()).unwrap();
        assert_eq!(v.used_bytes(), 100);
        // ...but one byte over is not, and the error names both sides.
        let err = v.store("/b", 1, 6, &vec![0u8; 1].into()).unwrap_err();
        assert_eq!(
            err,
            VolumeError::QuotaExceeded {
                limit: 100,
                would_be: 101
            }
        );
        // A failed store leaves usage untouched.
        assert_eq!(v.used_bytes(), 100);
        // Replacing the full file with an equally full one still fits.
        v.store("/a", 1, 7, &vec![1u8; 100].into()).unwrap();
        // Tightening the quota below current usage blocks any growth but
        // permits shrinking.
        v.set_quota(Some(50));
        let err = v.store("/b", 1, 8, &vec![0u8; 1].into()).unwrap_err();
        assert!(matches!(err, VolumeError::QuotaExceeded { limit: 50, .. }));
        v.store("/a", 1, 9, &vec![0u8; 40].into()).unwrap();
        assert_eq!(v.used_bytes(), 40);
    }

    #[test]
    fn readonly_clone_rejects_every_mutation_path() {
        let mut v = vol();
        v.mkdir_inherit("/doc", 1, 5).unwrap();
        v.store("/doc/a", 1, 6, &b"x".to_vec().into()).unwrap();
        let mut clone = v.clone_readonly(VolumeId(100));

        assert_eq!(
            clone.mkdir_inherit("/new", 1, 7).unwrap_err(),
            VolumeError::ReadOnly
        );
        assert_eq!(clone.rmdir("/doc", 7).unwrap_err(), VolumeError::ReadOnly);
        assert_eq!(
            clone.set_acl("/doc", AccessList::new()).unwrap_err(),
            VolumeError::ReadOnly
        );
        assert_eq!(
            clone
                .store("/doc/a", 1, 7, &b"y".to_vec().into())
                .unwrap_err(),
            VolumeError::ReadOnly
        );
        assert!(matches!(clone.fs_mut(), Err(VolumeError::ReadOnly)));
        // Reads still work: the clone is frozen, not dead.
        assert_eq!(clone.fs_read().unwrap().read("/doc/a").unwrap(), b"x");
    }

    #[test]
    fn offline_volume_rejects_directory_and_acl_ops() {
        let mut v = vol();
        v.mkdir_inherit("/doc", 1, 5).unwrap();
        v.set_online(false);
        assert_eq!(
            v.mkdir_inherit("/new", 1, 6).unwrap_err(),
            VolumeError::Offline
        );
        assert_eq!(v.rmdir("/doc", 6).unwrap_err(), VolumeError::Offline);
        assert_eq!(
            v.set_acl("/doc", AccessList::new()).unwrap_err(),
            VolumeError::Offline
        );
        assert!(matches!(v.fs_mut(), Err(VolumeError::Offline)));
        // Offline beats read-only in the error taxonomy: an offline clone
        // reports Offline (you cannot even know it is read-only).
        let mut clone = v.clone_readonly(VolumeId(100));
        clone.set_online(false);
        assert_eq!(
            clone.store("/x", 1, 7, &vec![1].into()).unwrap_err(),
            VolumeError::Offline
        );
    }

    #[test]
    fn invariants_hold_on_a_live_volume() {
        let mut v = vol();
        v.set_quota(Some(1000));
        v.mkdir_inherit("/doc", 1, 5).unwrap();
        v.store("/doc/a.tex", 1, 6, &vec![0u8; 300].into()).unwrap();
        v.fs_mut()
            .unwrap()
            .symlink("/l", "/doc/a.tex", 1, 7)
            .unwrap();
        v.check_invariants().unwrap();
        // Structural mutations keep them holding.
        v.fs_mut().unwrap().rename("/doc", "/doc2", 8).unwrap();
        v.rmdir("/doc2/..missing", 9).unwrap_err();
        v.check_invariants().unwrap();
    }

    #[test]
    fn invariants_catch_missing_and_orphaned_acls() {
        let mut v = vol();
        v.mkdir_inherit("/doc", 1, 5).unwrap();
        let doc_ino = v.fs.resolve("/doc", true).unwrap().ino;
        // Damage 1: a directory without an access list.
        v.acls.remove(&doc_ino.0);
        let violations = v.check_invariants().unwrap_err();
        assert!(
            violations.iter().any(|m| m.contains("/doc")),
            "{violations:?}"
        );
        // Damage 2: an ACL keyed by a dead inode.
        let mut v = vol();
        v.acls.insert(9999, AccessList::new());
        let violations = v.check_invariants().unwrap_err();
        assert!(
            violations.iter().any(|m| m.contains("9999")),
            "{violations:?}"
        );
    }
}
