//! Offline verification and garbage collection for store directories —
//! the library behind the `vv-store fsck` binary.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::store::{parse_manifest, scan_segment, MANIFEST_NAME};
use crate::StoreError;

/// Result of [`check`]: everything wrong (and right) with a store
/// directory.
#[derive(Clone, Debug, Default)]
pub struct FsckReport {
    /// Segments listed by the manifest and fully verified.
    pub segments_ok: usize,
    /// Total records verified across those segments.
    pub records: usize,
    /// Human-readable damage descriptions (torn segments, bad checksums,
    /// size mismatches, missing files, a corrupt manifest).
    pub torn: Vec<String>,
    /// Files present in the directory but not reachable from the manifest
    /// (crashed in-flight writes): orphaned segments and `.tmp-*` files.
    pub orphans: Vec<PathBuf>,
}

impl FsckReport {
    /// True when nothing is damaged and nothing is orphaned.
    pub fn clean(&self) -> bool {
        self.torn.is_empty() && self.orphans.is_empty()
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "segments: {} ok, {} records verified",
            self.segments_ok, self.records
        )?;
        for issue in &self.torn {
            writeln!(f, "TORN: {issue}")?;
        }
        for orphan in &self.orphans {
            writeln!(f, "ORPHAN: {}", orphan.display())?;
        }
        write!(
            f,
            "verdict: {}",
            if self.clean() { "clean" } else { "NOT CLEAN" }
        )
    }
}

/// Verify every structure in a store directory: the manifest's frames
/// (read as open reads them, so a torn tail is damage), each listed
/// segment's length/record checksums, and orphaned files. Other
/// files in the directory are not the store's and are ignored. Read-only.
pub fn check(dir: impl AsRef<Path>) -> Result<FsckReport, StoreError> {
    let dir = dir.as_ref();
    let mut report = FsckReport::default();

    let manifest_path = dir.join(MANIFEST_NAME);
    let listed = if manifest_path.exists() {
        match fs::read(&manifest_path)
            .map_err(StoreError::from)
            .and_then(|b| parse_manifest(&b))
        {
            Ok(log) => {
                if log.torn_bytes > 0 {
                    report.torn.push(format!(
                        "{MANIFEST_NAME}: {} entries intact ({} valid bytes), then a torn tail of {} bytes",
                        log.entries.len(),
                        log.valid_bytes,
                        log.torn_bytes
                    ));
                }
                log.entries
            }
            Err(err) => {
                report.torn.push(format!("{MANIFEST_NAME}: {err}"));
                Vec::new()
            }
        }
    } else {
        Vec::new()
    };

    let mut listed_names: Vec<String> = Vec::new();
    for meta in &listed {
        listed_names.push(meta.name.clone());
        let path = dir.join(&meta.name);
        if !path.exists() {
            report
                .torn
                .push(format!("{}: listed but missing", meta.name));
            continue;
        }
        let scan = scan_segment(&path, Some(meta))?;
        if scan.torn {
            report.torn.push(format!(
                "{}: {} of {} records intact ({} valid bytes)",
                meta.name,
                scan.records.len(),
                meta.records,
                scan.valid_bytes
            ));
        } else {
            report.segments_ok += 1;
            report.records += scan.records.len();
        }
    }

    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().to_string();
        let unlisted_segment =
            name.starts_with("seg-") && name.ends_with(".vvs") && !listed_names.contains(&name);
        if name.starts_with(".tmp-") || unlisted_segment {
            report.orphans.push(entry.path());
        }
    }
    report.orphans.sort();
    Ok(report)
}

/// Remove everything [`check`] reported as orphaned (unlisted segments
/// and stale tempfiles). Listed segments and foreign files are never
/// touched. Returns the removed paths.
pub fn gc(dir: impl AsRef<Path>) -> Result<Vec<PathBuf>, StoreError> {
    let report = check(&dir)?;
    for orphan in &report.orphans {
        fs::remove_file(orphan)?;
    }
    Ok(report.orphans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kind, ArtifactStore};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vv-fsck-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn clean_store_passes_and_a_stray_journal_is_ignored() {
        let dir = temp_dir("clean");
        {
            let store = ArtifactStore::open(&dir).unwrap();
            store.put(kind::COMPILE, 1, b"k", b"v").unwrap();
            store.flush().unwrap();
        }
        // A campaign journal left by an older build is not the store's.
        fs::write(dir.join("journal.vvj"), b"VVJRNL01 torn").unwrap();
        let report = check(&dir).unwrap();
        assert!(report.clean(), "{report}");
        assert_eq!(report.segments_ok, 1);
        assert_eq!(report.records, 1);
        assert!(report.orphans.is_empty(), "{report}");
        assert!(gc(&dir).unwrap().is_empty());
        assert!(dir.join("journal.vvj").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphans_are_reported_and_collected() {
        let dir = temp_dir("orphans");
        {
            let store = ArtifactStore::open(&dir).unwrap();
            store.put(kind::COMPILE, 1, b"k", b"v").unwrap();
            store.flush().unwrap();
        }
        // An unlisted segment (crash between segment and manifest rename)
        // and a stale tempfile.
        fs::write(dir.join("seg-deadbeef.vvs"), b"VVSSEG01").unwrap();
        fs::write(dir.join(".tmp-manifest.vvs"), b"partial").unwrap();
        let report = check(&dir).unwrap();
        assert!(!report.clean());
        assert_eq!(report.orphans.len(), 2, "{report}");
        let removed = gc(&dir).unwrap();
        assert_eq!(removed.len(), 2);
        let report = check(&dir).unwrap();
        assert!(report.clean(), "{report}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_manifest_tail_is_flagged() {
        let dir = temp_dir("torn-manifest");
        {
            let store = ArtifactStore::open(&dir).unwrap();
            store.put(kind::COMPILE, 1, b"a", b"1").unwrap();
            store.flush().unwrap();
            store.put(kind::COMPILE, 2, b"b", b"2").unwrap();
            store.flush().unwrap();
        }
        let manifest = dir.join(MANIFEST_NAME);
        let len = fs::metadata(&manifest).unwrap().len();
        let file = fs::OpenOptions::new().write(true).open(&manifest).unwrap();
        file.set_len(len - 1).unwrap();
        drop(file);
        let report = check(&dir).unwrap();
        assert!(!report.clean());
        assert_eq!(report.torn.len(), 1, "{report}");
        assert!(report.torn[0].starts_with(MANIFEST_NAME), "{report}");
        // The segment the torn frame listed is an orphan; the first one
        // still verifies.
        assert_eq!((report.segments_ok, report.records), (1, 1), "{report}");
        assert_eq!(report.orphans.len(), 1, "{report}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_segment_is_flagged() {
        let dir = temp_dir("flagged");
        {
            let store = ArtifactStore::open(&dir).unwrap();
            store.put(kind::COMPILE, 1, b"key", b"value").unwrap();
            store.flush().unwrap();
        }
        let seg = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().starts_with("seg-"))
            .unwrap()
            .path();
        let mut bytes = fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // flip a bit inside the record payload
        fs::write(&seg, &bytes).unwrap();
        let report = check(&dir).unwrap();
        assert!(!report.clean());
        assert_eq!(report.torn.len(), 1, "{report}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
