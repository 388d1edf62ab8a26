//! `vv-store` — durable content-addressed artifact storage for the
//! validation pipeline, and the only durable state behind checkpoint/resume
//! campaigns.
//!
//! The crate is a leaf: it knows nothing about compile outcomes, case
//! records or campaigns. It stores and retrieves *byte strings* under
//! `(kind, address, key-bytes)` identities; the domain crates
//! (`vv-simcompiler`, `vv-pipeline`, `llm4vv`) own the typed codecs on
//! top, built from the [`wire`] helpers.
//! There is no serde anywhere — the offline shim set has none — so the
//! on-disk format is hand-rolled, fixed, and fully specified here.
//!
//! # On-disk layout
//!
//! A store directory contains:
//!
//! ```text
//! manifest.vvs        the log of sealed segments (appended once per seal)
//! seg-00000000.vvs    sealed record segments, append-only, never rewritten
//! seg-00000001.vvs
//! ...
//! store.lock          owning process id (see [`lock`]; never synced);
//!                     refused opens from other live processes get
//!                     [`StoreError::Locked`]
//! .tmp-*              in-flight atomic writes; deleted on open
//! ```
//!
//! All integers are **little-endian**. Checksums are 64-bit word-folded
//! FNV-1a ([`fnv1a`] — see its docs for the exact folding and finalizer;
//! the output does not match classic byte-wise FNV-1a) over exactly the
//! bytes indicated.
//!
//! ## Segment files (`seg-XXXXXXXX.vvs`)
//!
//! ```text
//! magic   8 bytes   b"VVSSEG01"
//! record* ...       until end of file
//!
//! record:
//!   len      u32    byte length of `payload`
//!   checksum u64    fnv1a(payload)
//!   payload:
//!     kind     u8     record namespace (see [`kind`])
//!     addr     u64    content address (a hash of the key bytes)
//!     key_len  u32    length of `key`
//!     key      bytes  the full identity — collisions on `addr` are
//!                     disambiguated by comparing these bytes
//!     val_len  u32    length of `value`
//!     value    bytes  opaque, caller-defined encoding
//! ```
//!
//! Segments are written once (to a `.tmp-` file, then atomically renamed
//! into place) and never modified afterwards, except to truncate a torn
//! tail detected at open.
//!
//! ## The manifest (`manifest.vvs`)
//!
//! ```text
//! magic   8 bytes   b"VVSMAN02"
//! entry* ...        until end of file, one per sealed segment
//!
//! entry (framed like a segment record):
//!   len      u32    byte length of `payload`
//!   checksum u64    fnv1a(payload)
//!   payload:
//!     name_len u32
//!     name     bytes  segment file name
//!     bytes    u64    expected file length
//!     records  u64    expected record count
//! ```
//!
//! The manifest is an append-only log and the commit point: a segment
//! exists iff an intact entry lists it. A seal appends one entry and syncs
//! it. Open and [`fsck`] read entries up to the first damaged one; past it
//! is a *torn tail* (a crash mid-append), which open truncates. Segment
//! files not listed in the manifest are *orphans* (a crash between segment
//! rename and manifest append); [`fsck`] reports them and can
//! garbage-collect them, and the next seal reuses the name of one left by
//! a torn tail. The whole file is rewritten (tempfile + rename) only by
//! the first seal, by the seal after a failed append (which may have left
//! a partial entry), and by open's repair of a damaged segment.
//!
//! A `VVSMAN01` manifest (the earlier format, rewritten whole at every
//! seal) opens as [`StoreError::Corrupt`] naming the format. Stores hold
//! deterministic results, so a cold run refills a removed one.
//!
//! # Crash safety
//!
//! * Store writes become durable only at [`ArtifactStore::flush`], which
//!   seals pending records into a fresh segment (tempfile, sync, rename,
//!   directory sync) and then commits it by appending its manifest entry
//!   and syncing that. The directory sync comes first, so the manifest
//!   never lists a segment whose rename could still be lost. A seal that
//!   fails leaves its records pending, so the next flush retries them
//!   instead of reporting success without writing them.
//! * No hot path frees a file's synced blocks: the pidfile is never
//!   synced, and a seal appends rather than renaming over the manifest.
//!   On a filesystem with online discard, unlinking or renaming over a
//!   synced file can stall for tens of milliseconds.
//! * [`ArtifactStore::open`] validates every listed segment against its
//!   manifest entry and record checksums. A torn or short segment is
//!   *repaired*: the valid prefix of records is kept, the tail is
//!   truncated, and the manifest is rewritten; the number of quarantined
//!   records is reported in the [`OpenReport`]. A torn manifest tail is
//!   truncated and its length reported; the segment it would have listed
//!   stays an orphan, and its records re-validate.
//!
//! The [`fsck`] module (and the `vv-store fsck` binary) re-verifies all
//! of the above offline and can remove orphaned segments and stale
//! tempfiles.
//!
//! # Lookups share the stored bytes
//!
//! Each record in the in-memory index owns one shared buffer: at open, the
//! record's frame payload as read from its segment; after a
//! [`ArtifactStore::put`], one fresh key‖value buffer, shared with the
//! list of records awaiting the next seal. [`ArtifactStore::get`] and
//! [`ArtifactStore::probe`] copy nothing: they return a [`Bytes`] handle,
//! a reference-counted range of that buffer holding the value. A value
//! that is kept (or anything decoded as ranges of it) pins its whole
//! record buffer, key included, until the last handle drops. The `_parts`
//! forms of `get`, `probe` and `put` take the key as pieces to be
//! concatenated, and [`Fnv1a`] hashes such pieces exactly as [`fnv1a`]
//! hashes the whole key, so callers whose keys share a prefix build no key.

pub mod bytes;
pub mod fsck;
pub mod lock;
pub mod store;
pub mod wire;

pub use bytes::Bytes;
pub use fsck::{check, gc, FsckReport};
pub use lock::LOCK_NAME;
pub use store::{ArtifactStore, OpenReport, StoreStats};
pub use wire::{fnv1a, Fnv1a, Reader, Writer};

use std::fmt;

/// Record namespaces. A `kind` byte separates the address spaces of the
/// different artifact families sharing one store directory.
pub mod kind {
    /// A persisted compile outcome (vv-simcompiler's codec).
    pub const COMPILE: u8 = 1;
    /// A persisted execution outcome (reserved for exec-level reuse;
    /// today execution results travel inside [`CASE`] records).
    pub const EXEC: u8 = 2;
    /// A persisted judge verdict (reserved for judge-level reuse; today
    /// judge outcomes travel inside [`CASE`] records).
    pub const JUDGE: u8 = 3;
    /// A persisted end-to-end pipeline `CaseRecord` (vv-pipeline's codec).
    pub const CASE: u8 = 4;
}

/// Errors surfaced by the store and fsck paths.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// An on-disk structure is invalid beyond automatic repair (bad or
    /// retired manifest magic, truncated header).
    Corrupt(String),
    /// The store directory is owned by another live process (its
    /// `store.lock` pidfile names `owner`). See [`lock`].
    Locked {
        /// Path of the pidfile that refused the open.
        path: std::path::PathBuf,
        /// Pid recorded in the pidfile (0 when unreadable mid-race).
        owner: u32,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(err) => write!(f, "store i/o error: {err}"),
            StoreError::Corrupt(what) => write!(f, "store corrupt: {what}"),
            StoreError::Locked { path, owner } => write!(
                f,
                "store locked by live process {owner} ({})",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(err) => Some(err),
            StoreError::Corrupt(_) | StoreError::Locked { .. } => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(err: std::io::Error) -> Self {
        StoreError::Io(err)
    }
}

impl From<wire::WireError> for StoreError {
    fn from(err: wire::WireError) -> Self {
        StoreError::Corrupt(err.to_string())
    }
}
