//! The durable content-addressed artifact store. Format spec in the crate
//! docs ([`crate`]); this module implements open/repair, lookup, insert
//! and flush.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::lock::StoreLock;
use crate::wire::{fnv1a, Reader, Writer};
use crate::{Bytes, StoreError};

pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"VVSSEG01";
pub(crate) const MANIFEST_MAGIC: &[u8; 8] = b"VVSMAN02";
/// The magic of the manifest format that was rewritten whole at every
/// seal; such a manifest is refused by name.
const RETIRED_MANIFEST_MAGIC: &[u8; 8] = b"VVSMAN01";
pub(crate) const MANIFEST_NAME: &str = "manifest.vvs";

/// Pending records are sealed into a segment automatically once this many
/// accumulate (an explicit [`ArtifactStore::flush`] seals earlier). After
/// a failed seal, the next automatic attempt waits for this many further
/// inserts.
const AUTO_FLUSH_RECORDS: usize = 1024;

/// What [`ArtifactStore::open`] found and repaired.
#[derive(Clone, Debug, Default)]
pub struct OpenReport {
    /// Segments listed by the manifest and loaded.
    pub segments: usize,
    /// Records loaded into the in-memory index.
    pub records: usize,
    /// Records lost to torn tails (quarantined and truncated away).
    pub quarantined_records: usize,
    /// Names of segments whose torn tail was truncated (or that were
    /// dropped wholesale because even the header was unreadable).
    pub repaired_segments: Vec<String>,
    /// Stale `.tmp-*` files removed (crashed in-flight atomic writes).
    pub removed_tempfiles: usize,
    /// Bytes of a torn manifest tail (a seal's append that never
    /// completed) truncated away. The segment that frame would have
    /// listed is left an orphan: fsck reports it and its records
    /// re-validate.
    pub truncated_manifest_bytes: u64,
}

impl OpenReport {
    /// True when the store opened without finding any damage.
    pub fn pristine(&self) -> bool {
        self.quarantined_records == 0
            && self.repaired_segments.is_empty()
            && self.removed_tempfiles == 0
            && self.truncated_manifest_bytes == 0
    }
}

/// Store statistics snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records in the index (durable + pending).
    pub records: usize,
    /// Records accepted but not yet sealed into a segment.
    pub pending: usize,
    /// Sealed segments on disk.
    pub segments: usize,
    /// Lookups that found a record.
    pub hits: u64,
    /// Lookups that found nothing, or found a value its reader could not
    /// decode.
    pub misses: u64,
    /// Lookups whose value passed its checksum but failed to decode (also
    /// counted in `misses`; see [`ArtifactStore::note_undecodable`]).
    pub undecodable: u64,
}

impl StoreStats {
    /// Hit fraction in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Clone, Debug)]
pub(crate) struct SegmentMeta {
    pub(crate) name: String,
    pub(crate) bytes: u64,
    pub(crate) records: u64,
}

/// One record in memory: one shared buffer holding its key and its value.
/// Open keeps each record's frame payload as read; a `put` copies key‖value
/// into one fresh buffer, which the pending list shares. Lookups hand out
/// the value as a [`Bytes`] range of the same buffer.
#[derive(Clone)]
pub(crate) struct IndexEntry {
    kind: u8,
    buf: Arc<[u8]>,
    key: Range<usize>,
    value_start: usize,
}

impl IndexEntry {
    fn key(&self) -> &[u8] {
        &self.buf[self.key.clone()]
    }

    fn value(&self) -> &[u8] {
        &self.buf[self.value_start..]
    }

    fn shared_value(&self) -> Bytes {
        Bytes::new(Arc::clone(&self.buf), self.value_start..self.buf.len())
            .expect("an entry's value lies inside its buffer")
    }

    /// True when this entry is of `kind` and its key is the concatenation
    /// of `parts`, compared in place.
    fn is(&self, kind: u8, parts: &[&[u8]]) -> bool {
        let mut key = self.key();
        if self.kind != kind || key.len() != parts.iter().map(|p| p.len()).sum::<usize>() {
            return false;
        }
        parts.iter().all(|part| {
            let (head, rest) = key.split_at(part.len());
            key = rest;
            head == *part
        })
    }
}

#[derive(Default)]
struct Inner {
    index: HashMap<u64, Vec<IndexEntry>>,
    records: usize,
    /// Records not yet sealed, with their addresses.
    pending: Vec<(u64, IndexEntry)>,
    /// Inserts since the last seal attempt, successful or not.
    puts_since_seal: usize,
    manifest: Vec<SegmentMeta>,
    /// The next seal writes the manifest whole (tempfile + rename) instead
    /// of appending to it: there is no manifest on disk yet, or an append
    /// failed and may have left a partial frame behind.
    rewrite_manifest: bool,
    next_segment: u64,
}

/// A durable content-addressed map from `(kind, addr, key-bytes)` to an
/// opaque value. See the crate docs for the format and crash-safety
/// contract. All methods are `&self`; the store is safe to share across
/// the pipeline's worker threads behind an `Arc`.
pub struct ArtifactStore {
    dir: PathBuf,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    undecodable: AtomicU64,
    report: OpenReport,
    /// Cross-process ownership; unlinked when the store drops.
    _lock: StoreLock,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ArtifactStore")
            .field("dir", &self.dir)
            .field("records", &stats.records)
            .field("segments", &stats.segments)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("undecodable", &stats.undecodable)
            .finish()
    }
}

impl ArtifactStore {
    /// Open (creating if necessary) the store in `dir`, loading every
    /// record into the in-memory index. Torn segment tails are quarantined:
    /// the valid record prefix is kept, the damage truncated away, and the
    /// manifest rewritten. A torn manifest tail is truncated. The
    /// [`OpenReport`] says what happened.
    ///
    /// The open acquires the directory's `store.lock` pidfile first: a
    /// directory owned by another **live** process is refused with
    /// [`StoreError::Locked`] (stale locks from dead processes are stolen;
    /// see [`crate::lock`]). In-process sharing goes through
    /// [`ArtifactStore::open_shared`], not repeated opens.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let lock = StoreLock::acquire(&dir)?;
        let mut report = OpenReport::default();

        // Stale tempfiles are in-flight writes that never committed.
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().starts_with(".tmp-") {
                fs::remove_file(entry.path())?;
                report.removed_tempfiles += 1;
            }
        }

        let mut inner = Inner::default();
        let manifest_path = dir.join(MANIFEST_NAME);
        let log = match fs::read(&manifest_path) {
            Ok(bytes) => parse_manifest(&bytes)?,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
                inner.rewrite_manifest = true;
                ManifestLog::default()
            }
            Err(err) => return Err(err.into()),
        };

        let mut manifest_dirty = false;
        for (meta, scan) in scan_segments(&dir, log.entries) {
            let path = dir.join(&meta.name);
            let scan = match scan {
                Ok(scan) => scan,
                Err(StoreError::Io(err)) if err.kind() == std::io::ErrorKind::NotFound => {
                    // Listed but missing: every record is lost.
                    report.quarantined_records += meta.records as usize;
                    report.repaired_segments.push(meta.name.clone());
                    manifest_dirty = true;
                    continue;
                }
                Err(err) => return Err(err),
            };
            if scan.torn {
                report.quarantined_records += (meta.records as usize)
                    .saturating_sub(scan.records.len())
                    .max(1);
                report.repaired_segments.push(meta.name.clone());
                manifest_dirty = true;
                if scan.records.is_empty() && scan.valid_bytes <= SEGMENT_MAGIC.len() as u64 {
                    // Nothing salvageable; drop the segment entirely.
                    fs::remove_file(&path)?;
                } else {
                    let file = OpenOptions::new().write(true).open(&path)?;
                    file.set_len(scan.valid_bytes)?;
                    file.sync_all()?;
                    inner.manifest.push(SegmentMeta {
                        name: meta.name.clone(),
                        bytes: scan.valid_bytes,
                        records: scan.records.len() as u64,
                    });
                }
            } else {
                inner.manifest.push(meta.clone());
            }
            if let Some(seq) = segment_sequence(&meta.name) {
                inner.next_segment = inner.next_segment.max(seq + 1);
            }
            for (addr, entry) in scan.records {
                insert_index(&mut inner, addr, entry);
            }
        }
        if manifest_dirty {
            write_manifest(&dir, &inner.manifest)?;
        } else if log.torn_bytes > 0 {
            let file = OpenOptions::new().write(true).open(&manifest_path)?;
            file.set_len(log.valid_bytes)?;
            file.sync_all()?;
        }
        report.truncated_manifest_bytes = log.torn_bytes;
        report.segments = inner.manifest.len();
        report.records = inner.records;

        Ok(Self {
            dir,
            inner: Mutex::new(inner),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            undecodable: AtomicU64::new(0),
            report,
            _lock: lock,
        })
    }

    /// Open as a shared handle (the usual shape: one store per campaign,
    /// shared by every service and scenario).
    pub fn open_shared(dir: impl AsRef<Path>) -> Result<Arc<Self>, StoreError> {
        Ok(Arc::new(Self::open(dir)?))
    }

    /// What [`ArtifactStore::open`] found and repaired.
    pub fn open_report(&self) -> &OpenReport {
        &self.report
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Look up a record, counting a hit or a miss. `addr` must be the
    /// caller's content address of `key` (any 64-bit digest; the compile
    /// cache's FNV address and [`fnv1a`] both work) — correctness rests on
    /// the full `key` comparison, so hash collisions degrade to misses,
    /// never wrong values.
    ///
    /// A hit copies nothing: the [`Bytes`] handle shares the record's
    /// buffer in the index, so a value that is kept pins that buffer (key
    /// and value) until its last handle drops.
    pub fn get(&self, kind: u8, addr: u64, key: &[u8]) -> Option<Bytes> {
        self.get_parts(kind, addr, &[key])
    }

    /// [`ArtifactStore::get`] of the key that is the concatenation of
    /// `parts`, compared in place, so a caller whose keys share a prefix
    /// need not build each key.
    pub fn get_parts(&self, kind: u8, addr: u64, parts: &[&[u8]]) -> Option<Bytes> {
        let found = self.probe_parts(kind, addr, parts);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Like [`ArtifactStore::get`], but counting nothing: a look at what
    /// the store holds that serves no record, such as an admission check
    /// before the record's own counted lookup. The value is shared as in
    /// `get`.
    pub fn probe(&self, kind: u8, addr: u64, key: &[u8]) -> Option<Bytes> {
        self.probe_parts(kind, addr, &[key])
    }

    /// [`ArtifactStore::probe`] of a key given in parts, as in
    /// [`ArtifactStore::get_parts`].
    pub fn probe_parts(&self, kind: u8, addr: u64, parts: &[&[u8]]) -> Option<Bytes> {
        find(&self.lock().index, kind, addr, parts).map(IndexEntry::shared_value)
    }

    /// Reclassify one counted hit whose value the caller could not decode
    /// as a miss, and count it as undecodable. The caller falls back to
    /// fresh work, so the lookup served nothing; counting it as a hit
    /// would overstate what the store saves.
    pub fn note_undecodable(&self) {
        self.hits.fetch_sub(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.undecodable.fetch_add(1, Ordering::Relaxed);
    }

    /// Insert a record. The write is visible to `get` immediately and
    /// becomes durable at the next [`ArtifactStore::flush`] (an automatic
    /// flush runs every `AUTO_FLUSH_RECORDS` inserts; its error is
    /// returned, but the record stays pending for the next seal). First
    /// write wins: inserting an existing `(kind, addr, key)` returns
    /// `false` and changes nothing — records are immutable, which is what
    /// makes concurrent duplicate computes harmless.
    pub fn put(&self, kind: u8, addr: u64, key: &[u8], value: &[u8]) -> Result<bool, StoreError> {
        self.put_parts(kind, addr, &[key], value)
    }

    /// [`ArtifactStore::put`] of the key that is the concatenation of
    /// `parts`. Key and value are copied once, into the record's one
    /// buffer, before the store's lock is taken.
    pub fn put_parts(
        &self,
        kind: u8,
        addr: u64,
        parts: &[&[u8]],
        value: &[u8],
    ) -> Result<bool, StoreError> {
        let key_len = parts.iter().map(|p| p.len()).sum::<usize>();
        let mut buf: Arc<[u8]> = std::iter::repeat_n(0, key_len + value.len()).collect();
        let fill = Arc::get_mut(&mut buf).expect("a fresh buffer has one owner");
        let mut at = 0;
        for part in parts.iter().chain([&value]) {
            fill[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        }
        let entry = IndexEntry {
            kind,
            buf,
            key: 0..key_len,
            value_start: key_len,
        };
        let mut inner = self.lock();
        if !insert_index(&mut inner, addr, entry.clone()) {
            return Ok(false);
        }
        inner.pending.push((addr, entry));
        inner.puts_since_seal += 1;
        if inner.puts_since_seal >= AUTO_FLUSH_RECORDS {
            self.flush_locked(&mut inner)?;
        }
        Ok(true)
    }

    /// Seal every pending record into a fresh segment (tempfile + rename)
    /// and commit it by appending its entry to the manifest. No-op when
    /// nothing is pending. Records leave the pending list only once the
    /// manifest commits, so after an error the next flush retries them.
    pub fn flush(&self) -> Result<(), StoreError> {
        let mut inner = self.lock();
        self.flush_locked(&mut inner)
    }

    fn flush_locked(&self, inner: &mut Inner) -> Result<(), StoreError> {
        inner.puts_since_seal = 0;
        if inner.pending.is_empty() {
            return Ok(());
        }
        let seq = inner.next_segment;
        inner.next_segment += 1;
        let name = format!("seg-{seq:08x}.vvs");

        let mut bytes = Vec::with_capacity(4096);
        bytes.extend_from_slice(SEGMENT_MAGIC);
        for (addr, rec) in &inner.pending {
            let mut payload = Writer::with_capacity(rec.buf.len() + 32);
            payload.put_u8(rec.kind);
            payload.put_u64(*addr);
            payload.put_bytes(rec.key());
            payload.put_bytes(rec.value());
            put_frame(&mut bytes, payload.as_bytes());
        }

        // The directory sync inside `atomic_write` makes the segment's
        // name durable before the manifest lists it.
        atomic_write(&self.dir, &self.dir.join(&name), &bytes)?;
        inner.manifest.push(SegmentMeta {
            name,
            bytes: bytes.len() as u64,
            records: inner.pending.len() as u64,
        });
        let committed = if inner.rewrite_manifest {
            write_manifest(&self.dir, &inner.manifest)
        } else {
            append_manifest(&self.dir, inner.manifest.last().expect("entry just pushed"))
        };
        if let Err(err) = committed {
            // The segment stays an unlisted orphan; its records retry, and
            // the retry rewrites the manifest rather than append after a
            // partial frame.
            inner.manifest.pop();
            inner.rewrite_manifest = true;
            return Err(err);
        }
        inner.rewrite_manifest = false;
        inner.pending.clear();
        Ok(())
    }

    /// Statistics so far (records counts durable + pending).
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        StoreStats {
            records: inner.records,
            pending: inner.pending.len(),
            segments: inner.manifest.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            undecodable: self.undecodable.load(Ordering::Relaxed),
        }
    }
}

impl Drop for ArtifactStore {
    fn drop(&mut self) {
        // Best-effort durability for callers that forget the final flush;
        // explicit `flush()` is still the way to observe errors.
        let _ = self.flush();
    }
}

/// The one search of the index: the entry of `kind` under `addr` whose key
/// is the concatenation of `parts`.
fn find<'a>(
    index: &'a HashMap<u64, Vec<IndexEntry>>,
    kind: u8,
    addr: u64,
    parts: &[&[u8]],
) -> Option<&'a IndexEntry> {
    index.get(&addr)?.iter().find(|e| e.is(kind, parts))
}

/// Index `entry` unless the index holds its key already (first write
/// wins); true when it was added.
fn insert_index(inner: &mut Inner, addr: u64, entry: IndexEntry) -> bool {
    if find(&inner.index, entry.kind, addr, &[entry.key()]).is_some() {
        return false;
    }
    inner.index.entry(addr).or_default().push(entry);
    inner.records += 1;
    true
}

fn segment_sequence(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("seg-")?.strip_suffix(".vvs")?;
    u64::from_str_radix(hex, 16).ok()
}

/// Write `bytes` to `path` atomically: tempfile in the same directory,
/// sync, rename into place, sync the directory so the rename is durable.
fn atomic_write(dir: &Path, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let file_name = path
        .file_name()
        .ok_or_else(|| StoreError::Corrupt("atomic write target has no file name".into()))?;
    let tmp = dir.join(format!(".tmp-{}", file_name.to_string_lossy()));
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)?;
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Write the whole manifest (tempfile + rename). Only the first seal, the
/// seal after a failed append, and open's repair take this path: renaming
/// over a synced file frees its blocks, which some disks make slow.
fn write_manifest(dir: &Path, manifest: &[SegmentMeta]) -> Result<(), StoreError> {
    let mut bytes = Vec::with_capacity(MANIFEST_MAGIC.len() + 48 * manifest.len());
    bytes.extend_from_slice(MANIFEST_MAGIC);
    for meta in manifest {
        put_manifest_entry(&mut bytes, meta);
    }
    atomic_write(dir, &dir.join(MANIFEST_NAME), &bytes)
}

/// Commit one sealed segment: append its frame to the manifest and sync
/// it. The manifest must already exist; this never creates it.
fn append_manifest(dir: &Path, meta: &SegmentMeta) -> Result<(), StoreError> {
    let mut frame = Vec::with_capacity(meta.name.len() + 32);
    put_manifest_entry(&mut frame, meta);
    let mut file = OpenOptions::new()
        .append(true)
        .open(dir.join(MANIFEST_NAME))?;
    file.write_all(&frame)?;
    file.sync_data()?;
    Ok(())
}

fn put_manifest_entry(out: &mut Vec<u8>, meta: &SegmentMeta) {
    let mut payload = Writer::with_capacity(meta.name.len() + 20);
    payload.put_str(&meta.name);
    payload.put_u64(meta.bytes);
    payload.put_u64(meta.records);
    put_frame(out, payload.as_bytes());
}

fn decode_manifest_entry(payload: &[u8]) -> Option<SegmentMeta> {
    let mut reader = Reader::new(payload);
    let meta = SegmentMeta {
        name: reader.get_str("manifest segment name").ok()?.to_string(),
        bytes: reader.get_u64("manifest segment bytes").ok()?,
        records: reader.get_u64("manifest segment records").ok()?,
    };
    reader.is_exhausted().then_some(meta)
}

/// The manifest log as read: its intact entries in seal order, and the
/// torn tail (an append that never completed) past them.
#[derive(Default)]
pub(crate) struct ManifestLog {
    pub entries: Vec<SegmentMeta>,
    /// Byte length of the valid prefix (magic + intact frames).
    pub valid_bytes: u64,
    /// Bytes past the valid prefix.
    pub torn_bytes: u64,
}

pub(crate) fn parse_manifest(bytes: &[u8]) -> Result<ManifestLog, StoreError> {
    if bytes.starts_with(RETIRED_MANIFEST_MAGIC) {
        return Err(StoreError::Corrupt(
            "manifest is in the retired VVSMAN01 format; this build reads VVSMAN02 only, \
             so remove the store directory and let a cold run refill it"
                .into(),
        ));
    }
    if !bytes.starts_with(MANIFEST_MAGIC) {
        return Err(StoreError::Corrupt("manifest magic".into()));
    }
    let (entries, end) = read_frames(bytes, MANIFEST_MAGIC.len(), decode_manifest_entry);
    Ok(ManifestLog {
        entries,
        valid_bytes: end as u64,
        torn_bytes: (bytes.len() - end) as u64,
    })
}

/// Append one `len u32 | fnv1a(payload) u64 | payload` frame: the framing
/// of segment records and manifest entries alike.
fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Read the frames of a segment or the manifest from `pos` on, stopping at
/// the first one that is cut short, fails its checksum or does not
/// `decode`. Returns the decoded items and the end of the valid prefix.
fn read_frames<T>(
    bytes: &[u8],
    mut pos: usize,
    decode: impl Fn(&[u8]) -> Option<T>,
) -> (Vec<T>, usize) {
    let mut items = Vec::new();
    while let Some(header) = bytes.get(pos..pos + 12) {
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let sum = u64::from_le_bytes(header[4..].try_into().expect("8 bytes"));
        let Some(payload) = bytes.get(pos + 12..pos + 12 + len) else {
            break;
        };
        if fnv1a(payload) != sum {
            break;
        }
        let Some(item) = decode(payload) else {
            break;
        };
        items.push(item);
        pos += 12 + len;
    }
    (items, pos)
}

/// One parsed segment record: its address and its index entry, whose
/// buffer is the frame payload, so open moves it into the index as read.
pub(crate) type ScannedRecord = (u64, IndexEntry);

pub(crate) struct SegmentScan {
    /// Valid records, in file order.
    pub records: Vec<ScannedRecord>,
    /// Byte length of the valid prefix (magic + intact records).
    pub valid_bytes: u64,
    /// True when the file held damage past the valid prefix (torn tail,
    /// bad checksum, length mismatch against the manifest entry).
    pub torn: bool,
}

/// Scan every listed segment, in parallel when there is more than one:
/// open cost is dominated by checksumming each record of each segment,
/// and segments verify independently. Workers pull segments off an atomic
/// cursor; results come back in manifest order, each carrying its own
/// per-segment verdict (so a missing or torn file stays a repairable
/// condition, not a failure of the whole open).
pub(crate) fn scan_segments(
    dir: &Path,
    listed: Vec<SegmentMeta>,
) -> Vec<(SegmentMeta, Result<SegmentScan, StoreError>)> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(listed.len());
    if workers <= 1 {
        return listed
            .into_iter()
            .map(|meta| {
                let scan = scan_segment(&dir.join(&meta.name), Some(&meta));
                (meta, scan)
            })
            .collect();
    }
    let cursor = AtomicU64::new(0);
    let mut indexed: Vec<(usize, Result<SegmentScan, StoreError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed) as usize;
                        let Some(meta) = listed.get(i) else { break };
                        out.push((i, scan_segment(&dir.join(&meta.name), Some(meta))));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("segment scan worker panicked"))
            .collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    listed
        .into_iter()
        .zip(indexed)
        .map(|(meta, (_, scan))| (meta, scan))
        .collect()
}

/// Scan one segment file, stopping at the first damaged record. `expect`
/// (a manifest entry) tightens the check: a file longer or shorter than
/// the manifest says is flagged torn even if every present record parses.
pub(crate) fn scan_segment(
    path: &Path,
    expect: Option<&SegmentMeta>,
) -> Result<SegmentScan, StoreError> {
    let bytes = fs::read(path)?;
    if !bytes.starts_with(SEGMENT_MAGIC) {
        return Ok(SegmentScan {
            records: Vec::new(),
            valid_bytes: 0,
            torn: true,
        });
    }
    let (records, end) = read_frames(&bytes, SEGMENT_MAGIC.len(), decode_record);
    let mut torn = end < bytes.len();
    if let Some(meta) = expect {
        if meta.bytes != bytes.len() as u64 || meta.records != records.len() as u64 {
            torn = true;
        }
    }
    Ok(SegmentScan {
        records,
        valid_bytes: end as u64,
        torn,
    })
}

fn decode_record(payload: &[u8]) -> Option<ScannedRecord> {
    let mut reader = Reader::new(payload);
    let kind = reader.get_u8("record kind").ok()?;
    let addr = reader.get_u64("record addr").ok()?;
    let key_len = reader.get_bytes("record key").ok()?.len();
    let key = reader.position() - key_len..reader.position();
    reader.get_bytes("record value").ok()?;
    let value_start = key.end + 4;
    reader.is_exhausted().then(|| {
        let entry = IndexEntry {
            kind,
            buf: payload.into(),
            key,
            value_start,
        };
        (addr, entry)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vv-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_across_reopen() {
        let dir = temp_dir("roundtrip");
        {
            let store = ArtifactStore::open(&dir).unwrap();
            assert!(store.put(kind::COMPILE, 7, b"key-a", b"value-a").unwrap());
            assert!(store.put(kind::CASE, 7, b"key-a", b"value-b").unwrap());
            // Same identity: first write wins.
            assert!(!store.put(kind::COMPILE, 7, b"key-a", b"overwrite").unwrap());
            assert_eq!(
                store.get(kind::COMPILE, 7, b"key-a").as_deref(),
                Some(&b"value-a"[..])
            );
            store.flush().unwrap();
        }
        let store = ArtifactStore::open(&dir).unwrap();
        assert!(store.open_report().pristine());
        assert_eq!(
            store.get(kind::COMPILE, 7, b"key-a").as_deref(),
            Some(&b"value-a"[..])
        );
        assert_eq!(
            store.get(kind::CASE, 7, b"key-a").as_deref(),
            Some(&b"value-b"[..])
        );
        assert_eq!(store.get(kind::COMPILE, 7, b"key-b"), None);
        let stats = store.stats();
        assert_eq!((stats.records, stats.segments), (2, 1));
        assert_eq!((stats.hits, stats.misses), (2, 1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unflushed_records_are_visible_but_not_durable() {
        let dir = temp_dir("pending");
        {
            let store = ArtifactStore::open(&dir).unwrap();
            store.put(kind::COMPILE, 1, b"k", b"v").unwrap();
            store.flush().unwrap();
            store.put(kind::COMPILE, 2, b"k2", b"v2").unwrap();
            assert!(store.get(kind::COMPILE, 2, b"k2").is_some());
            // Simulate a crash: forget the store without flushing by
            // leaking it (Drop would flush).
            std::mem::forget(store);
        }
        let store = ArtifactStore::open(&dir).unwrap();
        assert!(store.get(kind::COMPILE, 1, b"k").is_some());
        assert_eq!(store.get(kind::COMPILE, 2, b"k2"), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_seal_keeps_its_records_for_the_next_flush() {
        let dir = temp_dir("failed-seal");
        let store = ArtifactStore::open(&dir).unwrap();
        store.put(kind::CASE, 3, b"k", b"v").unwrap();
        fs::remove_dir_all(&dir).unwrap();
        assert!(store.flush().is_err(), "the directory is gone");
        fs::create_dir_all(&dir).unwrap();
        store.flush().unwrap();
        drop(store);
        let store = ArtifactStore::open(&dir).unwrap();
        assert_eq!(store.get(kind::CASE, 3, b"k").as_deref(), Some(&b"v"[..]));
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn seals_append_to_the_manifest_in_place() {
        use std::os::unix::fs::MetadataExt as _;
        let dir = temp_dir("append");
        let inode = || fs::metadata(dir.join(MANIFEST_NAME)).unwrap().ino();
        let put = |store: &ArtifactStore, i: u64| {
            let key = format!("key-{i}").into_bytes();
            store.put(kind::CASE, fnv1a(&key), &key, b"v").unwrap();
            store.flush().unwrap();
        };
        let store = ArtifactStore::open(&dir).unwrap();
        put(&store, 0);
        let first = inode();
        for i in 1..4 {
            put(&store, i);
            assert_eq!(inode(), first, "seal {i} appends instead of renaming");
        }
        drop(store);
        let store = ArtifactStore::open(&dir).unwrap();
        assert!(store.open_report().pristine(), "{:?}", store.open_report());
        put(&store, 4);
        assert_eq!(inode(), first, "a reopened store appends too");
        drop(store);
        let store = ArtifactStore::open(&dir).unwrap();
        assert_eq!((store.stats().records, store.stats().segments), (5, 5));
        for i in 0..5 {
            let key = format!("key-{i}").into_bytes();
            assert!(store.get(kind::CASE, fnv1a(&key), &key).is_some(), "{i}");
        }
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_append_rewrites_the_manifest_on_the_next_seal() {
        let dir = temp_dir("failed-append");
        let store = ArtifactStore::open(&dir).unwrap();
        store.put(kind::CASE, 1, b"first", b"1").unwrap();
        store.flush().unwrap();
        store.put(kind::CASE, 2, b"second", b"2").unwrap();
        // An append never creates the manifest, so this one fails.
        fs::remove_file(dir.join(MANIFEST_NAME)).unwrap();
        assert!(store.flush().is_err(), "the append finds no manifest");
        assert_eq!(store.stats().pending, 1);
        // The retry writes the whole manifest, listing both seals.
        store.flush().unwrap();
        let stats = store.stats();
        assert_eq!((stats.pending, stats.segments), (0, 2));
        drop(store);
        let store = ArtifactStore::open(&dir).unwrap();
        assert!(store.open_report().pristine(), "{:?}", store.open_report());
        assert_eq!(
            store.get(kind::CASE, 1, b"first").as_deref(),
            Some(&b"1"[..])
        );
        assert_eq!(
            store.get(kind::CASE, 2, b"second").as_deref(),
            Some(&b"2"[..])
        );
        drop(store);
        // The failed append's segment was never listed.
        assert_eq!(crate::check(&dir).unwrap().orphans.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_manifest_tail_is_truncated_and_its_segment_orphaned() {
        let dir = temp_dir("torn-manifest");
        let store = ArtifactStore::open(&dir).unwrap();
        store.put(kind::CASE, 1, b"first", b"1").unwrap();
        store.flush().unwrap();
        store.put(kind::CASE, 2, b"second", b"2").unwrap();
        store.flush().unwrap();
        drop(store);
        let path = dir.join(MANIFEST_NAME);
        let full = fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 3).unwrap();
        drop(file);

        let store = ArtifactStore::open(&dir).unwrap();
        let report = store.open_report().clone();
        // Two equal frames after the magic; the first one is kept.
        let kept = fs::metadata(&path).unwrap().len();
        assert_eq!(kept, 8 + (full - 8) / 2);
        assert_eq!(report.truncated_manifest_bytes, full - 3 - kept);
        assert_eq!((report.segments, report.records), (1, 1));
        assert!(store.get(kind::CASE, 2, b"second").is_none());
        // The next seal takes the orphan's name and appends after the
        // truncated prefix.
        store.put(kind::CASE, 2, b"second", b"2").unwrap();
        store.flush().unwrap();
        drop(store);
        let store = ArtifactStore::open(&dir).unwrap();
        assert!(store.open_report().pristine(), "{:?}", store.open_report());
        assert_eq!(store.stats().records, 2);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_retired_manifest_format_is_refused_by_name() {
        let dir = temp_dir("retired");
        fs::create_dir_all(&dir).unwrap();
        let mut old = RETIRED_MANIFEST_MAGIC.to_vec();
        old.extend_from_slice(&[0; 12]);
        fs::write(dir.join(MANIFEST_NAME), old).unwrap();
        match ArtifactStore::open(&dir) {
            Err(StoreError::Corrupt(what)) => assert!(what.contains("VVSMAN01"), "{what}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_auto_seal_retries_once_per_further_batch_of_puts() {
        let dir = temp_dir("auto-seal-retry");
        let store = ArtifactStore::open(&dir).unwrap();
        let put = |i: usize| {
            let key = format!("key-{i}").into_bytes();
            store.put(kind::CASE, fnv1a(&key), &key, b"v")
        };
        for i in 0..AUTO_FLUSH_RECORDS - 1 {
            put(i).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
        assert!(put(AUTO_FLUSH_RECORDS - 1).is_err(), "the auto-seal fails");
        fs::create_dir_all(&dir).unwrap();
        // No retry until another batch of puts has arrived.
        for i in AUTO_FLUSH_RECORDS..2 * AUTO_FLUSH_RECORDS - 1 {
            put(i).unwrap();
        }
        assert_eq!(store.stats().pending, 2 * AUTO_FLUSH_RECORDS - 1);
        put(2 * AUTO_FLUSH_RECORDS - 1).unwrap();
        let stats = store.stats();
        assert_eq!((stats.pending, stats.segments), (0, 1));
        drop(store);
        let store = ArtifactStore::open(&dir).unwrap();
        assert_eq!(store.stats().records, 2 * AUTO_FLUSH_RECORDS);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hash_collisions_disambiguate_by_key_bytes() {
        let dir = temp_dir("collide");
        let store = ArtifactStore::open(&dir).unwrap();
        store.put(kind::COMPILE, 99, b"first", b"1").unwrap();
        store.put(kind::COMPILE, 99, b"second", b"2").unwrap();
        assert_eq!(
            store.get(kind::COMPILE, 99, b"first").as_deref(),
            Some(&b"1"[..])
        );
        assert_eq!(
            store.get(kind::COMPILE, 99, b"second").as_deref(),
            Some(&b"2"[..])
        );
        assert_eq!(store.get(kind::COMPILE, 99, b"third"), None);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keys_in_parts_match_whole_keys_and_hits_share_the_record_buffer() {
        let dir = temp_dir("parts");
        let whole = b"prefix|model|source".as_slice();
        let parts: [&[u8]; 3] = [b"prefix|", b"model|", b"source"];
        {
            let store = ArtifactStore::open(&dir).unwrap();
            assert!(store.put(kind::CASE, 9, whole, b"first").unwrap());
            assert!(!store.put_parts(kind::CASE, 9, &parts, b"second").unwrap());
            assert!(store
                .put_parts(kind::CASE, 9, &[b"other", b"key"], b"third")
                .unwrap());
            let hit = store.get_parts(kind::CASE, 9, &parts).expect("hit");
            assert_eq!(&*hit, b"first");
            // The value is the tail of the put's one key‖value buffer.
            assert_eq!(&**hit.buffer(), b"prefix|model|sourcefirst");
            let again = store.probe(kind::CASE, 9, whole).expect("hit");
            assert!(Arc::ptr_eq(hit.buffer(), again.buffer()));
            assert_eq!(&*store.get(kind::CASE, 9, b"otherkey").unwrap(), b"third");
            for miss in [
                &[&b"prefix|"[..], b"model|"][..],
                &[b"prefix|model|sourc", b"e!"],
            ] {
                assert_eq!(store.get_parts(kind::CASE, 9, miss), None);
            }
            store.flush().unwrap();
        }
        let store = ArtifactStore::open(&dir).unwrap();
        let hit = store.get_parts(kind::CASE, 9, &parts).expect("hit");
        assert_eq!(&*hit, b"first");
        // After open the buffer is the record's frame payload: kind, addr,
        // key_len, key, val_len, value.
        let payload = hit.buffer();
        assert_eq!(payload.len(), 1 + 8 + 4 + whole.len() + 4 + 5);
        assert_eq!(&payload[13..13 + whole.len()], whole);
        assert_eq!(hit.range(), payload.len() - 5..payload.len());
        let again = store.get(kind::CASE, 9, whole).expect("hit");
        assert!(Arc::ptr_eq(hit.buffer(), again.buffer()));
        // A kept value outlives the store that handed it out.
        drop(store);
        assert_eq!(&*again, b"first");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn probe_counts_nothing_and_get_counts_each_hit_and_miss_once() {
        let dir = temp_dir("probe");
        let store = ArtifactStore::open(&dir).unwrap();
        store.put(kind::CASE, 5, b"k", b"v").unwrap();
        assert_eq!(store.probe(kind::CASE, 5, b"k").as_deref(), Some(&b"v"[..]));
        assert_eq!(store.probe(kind::CASE, 5, b"other"), None);
        assert_eq!(store.probe(kind::COMPILE, 5, b"k"), None);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
        assert_eq!(store.get(kind::CASE, 5, b"k").as_deref(), Some(&b"v"[..]));
        assert_eq!(store.get(kind::CASE, 5, b"other"), None);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn undecodable_hits_become_counted_misses() {
        let dir = temp_dir("undecodable");
        let store = ArtifactStore::open(&dir).unwrap();
        store.put(kind::CASE, 5, b"k", b"garbage").unwrap();
        assert!(store.get(kind::CASE, 5, b"k").is_some());
        assert!(store.get(kind::CASE, 5, b"other").is_none());
        store.note_undecodable();
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.undecodable), (0, 2, 1));
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn store_owned_by_a_live_foreign_process_refuses_to_open() {
        let dir = temp_dir("locked");
        fs::create_dir_all(&dir).unwrap();
        // pid 1 is always alive and never this test process.
        fs::write(dir.join(crate::LOCK_NAME), "1").unwrap();
        match ArtifactStore::open(&dir) {
            Err(StoreError::Locked { owner, .. }) => assert_eq!(owner, 1),
            other => panic!("expected Locked, got {:?}", other.map(|_| ())),
        }
        fs::remove_file(dir.join(crate::LOCK_NAME)).unwrap();
        // With the lock gone the same directory opens normally, and the
        // lock travels with the store handle.
        let store = ArtifactStore::open(&dir).unwrap();
        assert!(dir.join(crate::LOCK_NAME).exists());
        drop(store);
        assert!(!dir.join(crate::LOCK_NAME).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_segment_tail_is_quarantined_and_repaired() {
        let dir = temp_dir("torn");
        {
            let store = ArtifactStore::open(&dir).unwrap();
            store.put(kind::COMPILE, 1, b"alpha", b"AAAA").unwrap();
            store.put(kind::COMPILE, 2, b"beta", b"BBBB").unwrap();
            store.flush().unwrap();
        }
        let seg = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().starts_with("seg-"))
            .unwrap()
            .path();
        let full = fs::metadata(&seg).unwrap().len();
        // Tear off the last 5 bytes of the final record.
        let file = OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(full - 5).unwrap();
        drop(file);

        let store = ArtifactStore::open(&dir).unwrap();
        let report = store.open_report().clone();
        assert_eq!(report.quarantined_records, 1);
        assert_eq!(report.repaired_segments.len(), 1);
        assert!(store.get(kind::COMPILE, 1, b"alpha").is_some());
        assert_eq!(store.get(kind::COMPILE, 2, b"beta"), None);
        drop(store);
        // The repair is durable: a third open is pristine.
        let store = ArtifactStore::open(&dir).unwrap();
        assert!(store.open_report().pristine(), "{:?}", store.open_report());
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }
}
