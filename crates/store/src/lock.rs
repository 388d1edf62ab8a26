//! Cross-process store ownership: a `store.lock` pidfile.
//!
//! The [`crate::ArtifactStore`] index lives in memory and segments are
//! committed by appending to the manifest, so two *processes* mutating
//! one store directory would silently clobber each other's manifests. The lockfile
//! turns that corruption into a clear [`StoreError::Locked`] at open.
//!
//! The scheme is deliberately simple (first step of the multi-process
//! roadmap item, not a distributed lock):
//!
//! * `store.lock` holds the owning process id as decimal ASCII, created
//!   with `create_new` so creation is atomic, and never synced (the
//!   comment in `StoreLock::acquire` says why);
//! * a lock held by the **current process** is re-acquired silently —
//!   in-process sharing is [`crate::ArtifactStore::open_shared`]'s job,
//!   and a crash-simulating leak in the same process must not wedge the
//!   directory;
//! * a lock whose owner is provably dead (no `/proc/<pid>` on Linux) or
//!   whose content is unparseable is *stale* and stolen;
//! * a lock owned by a live foreign process fails the open with
//!   [`StoreError::Locked`], naming the owner.
//!
//! The lock is released (best-effort unlinked) when the store is dropped;
//! a lock left behind by a crash is stolen on the next open via the
//! liveness check. `fsck` ignores the file entirely — it is ownership
//! state, not data.

use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::StoreError;

/// File name of the pidfile inside a store directory.
pub const LOCK_NAME: &str = "store.lock";

/// An acquired store lock; unlinks the pidfile on drop when it still
/// belongs to this process.
#[derive(Debug)]
pub(crate) struct StoreLock {
    path: PathBuf,
}

impl StoreLock {
    /// Acquire the lock for `dir`, stealing stale locks as described in
    /// the module docs. `dir` must already exist.
    pub(crate) fn acquire(dir: &Path) -> Result<Self, StoreError> {
        let path = dir.join(LOCK_NAME);
        let own_pid = std::process::id();
        // Two attempts: one against a present lockfile, and one retry after
        // removing a stale file (a racing fresh creation in between simply
        // surfaces as Locked, never as corruption).
        for _ in 0..2 {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    // Deliberately not synced. Unlinking a file whose
                    // blocks reached disk can stall for tens of
                    // milliseconds (online discard), and the drop would pay
                    // that on every close. The sync buys nothing: after a
                    // power loss a missing file is created again, an empty
                    // or torn one is stale, and a pid from the previous boot
                    // is stolen unless a recycled pid makes it look alive,
                    // which a synced file makes more likely, not less.
                    file.write_all(own_pid.to_string().as_bytes())?;
                    return Ok(Self { path });
                }
                Err(err) if err.kind() == std::io::ErrorKind::AlreadyExists => {
                    match read_owner(&path) {
                        Some(pid) if pid == own_pid => {
                            // Already ours (an earlier handle in this
                            // process, possibly leaked): keep the file.
                            return Ok(Self { path });
                        }
                        Some(pid) if owner_alive(pid) => {
                            return Err(StoreError::Locked { path, owner: pid });
                        }
                        // Dead owner or unparseable content: stale.
                        _ => {
                            let _ = fs::remove_file(&path);
                        }
                    }
                }
                Err(err) => return Err(err.into()),
            }
        }
        // Both creation attempts lost a race to another process.
        let owner = read_owner(&path).unwrap_or(0);
        Err(StoreError::Locked { path, owner })
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        // Release only a lock that is still ours: a stale lock we leaked
        // earlier may have been stolen by another process since.
        if read_owner(&self.path) == Some(std::process::id()) {
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// The pid recorded in a lockfile, when readable and parseable.
fn read_owner(path: &Path) -> Option<u32> {
    let content = fs::read_to_string(path).ok()?;
    content.trim().parse().ok()
}

/// Best-effort liveness: on Linux a live pid has a `/proc` entry.
/// Elsewhere there is no dependency-free check, so a foreign owner is
/// assumed alive (fail safe: refuse the open rather than risk two
/// writers).
fn owner_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vv-lock-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn acquire_writes_pid_and_release_unlinks() {
        let dir = temp_dir("basic");
        let lock = StoreLock::acquire(&dir).unwrap();
        let recorded = fs::read_to_string(dir.join(LOCK_NAME)).unwrap();
        assert_eq!(recorded.trim(), std::process::id().to_string());
        drop(lock);
        assert!(!dir.join(LOCK_NAME).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn same_process_reacquires_a_leaked_lock() {
        let dir = temp_dir("leak");
        let lock = StoreLock::acquire(&dir).unwrap();
        std::mem::forget(lock);
        // The file is still there, but it names us: acquisition succeeds.
        let lock = StoreLock::acquire(&dir).unwrap();
        drop(lock);
        assert!(!dir.join(LOCK_NAME).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dead_owner_is_stolen() {
        let dir = temp_dir("stale");
        // A pid far beyond any real process (kernel pid_max is < 2^22 by
        // default; u32::MAX is not allocatable).
        fs::write(dir.join(LOCK_NAME), u32::MAX.to_string()).unwrap();
        let lock = StoreLock::acquire(&dir).unwrap();
        drop(lock);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_content_is_stolen() {
        let dir = temp_dir("garbage");
        fs::write(dir.join(LOCK_NAME), "not a pid").unwrap();
        let lock = StoreLock::acquire(&dir).unwrap();
        drop(lock);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_foreign_owner_is_refused() {
        let dir = temp_dir("foreign");
        // pid 1 is always alive and never us.
        fs::write(dir.join(LOCK_NAME), "1").unwrap();
        match StoreLock::acquire(&dir) {
            Err(StoreError::Locked { owner, .. }) => assert_eq!(owner, 1),
            other => panic!("expected Locked, got {other:?}"),
        }
        // The refused attempt must not have disturbed the lockfile.
        assert_eq!(fs::read_to_string(dir.join(LOCK_NAME)).unwrap(), "1");
        fs::remove_dir_all(&dir).unwrap();
    }
}
