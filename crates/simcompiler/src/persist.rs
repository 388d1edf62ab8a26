//! Durable compile-outcome persistence: a disk tier layered *under* the
//! in-memory [`CompileCache`].
//!
//! A [`PersistentCache`] pairs the process-local memory cache with a
//! [`vv_store::ArtifactStore`], giving compile sessions a three-level
//! lookup: memory hit → disk hit → fresh compile (which then feeds both
//! tiers). The disk tier is what makes warm campaign re-runs cheap across
//! *processes*: a run that crashed, or yesterday's run over the same
//! corpus, left its outcomes in the store, and today's run replays them
//! without parsing a single recurring file twice.
//!
//! # What is persisted, and why decoding is sound
//!
//! The persisted value is the *observable* compile outcome: return code,
//! captured stdout/stderr, the vendor-neutral diagnostics, and a flag for
//! whether an executable artifact exists. The artifact itself (the parsed
//! AST) is **not** serialized — on a disk hit it is rebuilt by re-parsing
//! the source through the session interner. That re-parse is deterministic
//! and cheap relative to the full frontend (no semantic analysis, no
//! vendor rendering), and it is exactly the parse the original compile
//! performed, so the rebuilt [`Program`](crate::Program) is equivalent by
//! construction. Derived analyses ride in fill-once slots and are likewise
//! recomputed deterministically on demand.
//!
//! Diagnostic `code` fields are `&'static str` in memory; decoding interns
//! them through a process-global leak table bounded at
//! [`MAX_INTERNED_CODES`] distinct spellings. The simulated frontends emit
//! a small closed set of codes, so the bound exists only to keep a
//! corrupted or adversarial store from leaking unbounded memory — past the
//! cap, decoding fails and the lookup degrades to a miss (a fresh
//! compile), never to a wrong answer.
//!
//! # Keying
//!
//! Store keys extend the in-memory cache identity `(vendor style, spec
//! version, model, lang, source bytes)` into explicit bytes, addressed by
//! the same FNV-1a hash the store uses throughout. As with the memory
//! cache, correctness never rests on the hash: the store compares full key
//! bytes on every probe, so collisions degrade to misses.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use vv_dclang::{Diagnostic, DirectiveModel, Severity, Span};
use vv_specs::Version;
use vv_store::{fnv1a, kind, ArtifactStore, Bytes, Reader, StoreStats, Writer};

use crate::cache::{CacheStats, CompileCache};
use crate::frontend::{CompileOutcome, Lang};
use crate::vendors::VendorStyle;

/// Bound on distinct diagnostic-code spellings the decoder will intern
/// (each is leaked once per process). The real frontends emit about a
/// dozen; the cap only defends against a corrupt store.
pub const MAX_INTERNED_CODES: usize = 4096;

/// Intern a decoded diagnostic code as `&'static str`, or `None` once the
/// process-global table is full (the caller then treats the record as
/// undecodable and falls back to a fresh compile).
fn intern_code(code: &str) -> Option<&'static str> {
    static CODES: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut table = CODES
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if let Some(existing) = table.get(code) {
        return Some(existing);
    }
    if table.len() >= MAX_INTERNED_CODES {
        return None;
    }
    let leaked: &'static str = Box::leak(code.to_owned().into_boxed_str());
    table.insert(leaked);
    Some(leaked)
}

/// Serialize the observable parts of a compile outcome (everything except
/// the artifact AST and the fill-once analysis slots).
pub(crate) fn encode_outcome(outcome: &CompileOutcome) -> Vec<u8> {
    let mut w = Writer::with_capacity(64 + outcome.stderr.len());
    w.put_i32(outcome.return_code);
    w.put_str(&outcome.stdout);
    w.put_str(&outcome.stderr);
    w.put_u8(u8::from(outcome.artifact.is_some()));
    w.put_u32(outcome.diagnostics.len() as u32);
    for diag in &outcome.diagnostics {
        w.put_u8(match diag.severity {
            Severity::Note => 0,
            Severity::Warning => 1,
            Severity::Error => 2,
        });
        w.put_u32(diag.span.line);
        w.put_u32(diag.span.col);
        w.put_str(diag.code);
        w.put_str(&diag.message);
    }
    w.into_bytes()
}

/// The decoded observable outcome plus whether an artifact must be rebuilt
/// by re-parsing the source.
pub(crate) struct DecodedOutcome {
    pub(crate) return_code: i32,
    pub(crate) stdout: Arc<str>,
    pub(crate) stderr: Arc<str>,
    pub(crate) has_artifact: bool,
    pub(crate) diagnostics: Vec<Diagnostic>,
}

/// Decode [`encode_outcome`] bytes. `None` on any structural damage or
/// when the code-intern table is exhausted — the caller treats either as a
/// miss.
pub(crate) fn decode_outcome(bytes: &[u8]) -> Option<DecodedOutcome> {
    let mut r = Reader::new(bytes);
    let return_code = r.get_i32("outcome return code").ok()?;
    let stdout: Arc<str> = r.get_str("outcome stdout").ok()?.into();
    let stderr: Arc<str> = r.get_str("outcome stderr").ok()?.into();
    let has_artifact = match r.get_u8("outcome artifact flag").ok()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let count = r.get_u32("outcome diagnostic count").ok()? as usize;
    // A diagnostic needs ≥ 17 encoded bytes; reject absurd counts before
    // allocating.
    if count > bytes.len() / 17 + 1 {
        return None;
    }
    let mut diagnostics = Vec::with_capacity(count);
    for _ in 0..count {
        let severity = match r.get_u8("diagnostic severity").ok()? {
            0 => Severity::Note,
            1 => Severity::Warning,
            2 => Severity::Error,
            _ => return None,
        };
        let line = r.get_u32("diagnostic line").ok()?;
        let col = r.get_u32("diagnostic col").ok()?;
        let code = intern_code(r.get_str("diagnostic code").ok()?)?;
        let message = r.get_str("diagnostic message").ok()?.to_owned();
        diagnostics.push(Diagnostic {
            severity,
            span: Span { line, col },
            message,
            code,
        });
    }
    if !r.is_exhausted() {
        return None;
    }
    Some(DecodedOutcome {
        return_code,
        stdout,
        stderr,
        has_artifact,
        diagnostics,
    })
}

/// Explicit store-key bytes for one compile identity. The byte layout is
/// part of the on-disk format: changing it orphans (but never corrupts)
/// existing stores.
pub(crate) fn compile_key(
    style: VendorStyle,
    version: Version,
    model: DirectiveModel,
    lang: Lang,
    source: &str,
) -> Vec<u8> {
    let mut w = Writer::with_capacity(16 + source.len());
    w.put_u8(match style {
        VendorStyle::Nvc => 0,
        VendorStyle::ClangOmp => 1,
    });
    w.put_u32(u32::from(version.major));
    w.put_u32(u32::from(version.minor));
    w.put_u8(match model {
        DirectiveModel::OpenAcc => 0,
        DirectiveModel::OpenMp => 1,
    });
    w.put_u8(match lang {
        Lang::C => 0,
        Lang::Cpp => 1,
    });
    w.put_bytes(source.as_bytes());
    w.into_bytes()
}

/// Snapshot of a persistent cache's disk-tier counters alongside its
/// in-memory tier and the backing store.
#[derive(Clone, Debug)]
pub struct PersistStats {
    /// Lookups served by decoding a stored record.
    pub disk_hits: u64,
    /// Lookups that fell through to a fresh compile (including records
    /// that failed to decode).
    pub disk_misses: u64,
    /// The in-memory tier's counters.
    pub memory: CacheStats,
    /// The backing store's counters (shared with any other users of the
    /// same store).
    pub store: StoreStats,
}

/// A two-tier compile cache: the in-memory [`CompileCache`] backed by a
/// durable [`ArtifactStore`]. See the module docs for the lookup order and
/// the decode-soundness argument.
#[derive(Debug)]
pub struct PersistentCache {
    memory: Arc<CompileCache>,
    store: Arc<ArtifactStore>,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
}

impl PersistentCache {
    /// Layer `memory` over `store`.
    pub fn new(memory: Arc<CompileCache>, store: Arc<ArtifactStore>) -> Self {
        Self {
            memory,
            store,
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
        }
    }

    /// The in-memory tier.
    pub fn memory(&self) -> &Arc<CompileCache> {
        &self.memory
    }

    /// The durable tier.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    /// Seal any buffered store records into a durable segment.
    pub fn flush(&self) -> Result<(), vv_store::StoreError> {
        self.store.flush()
    }

    /// Counter snapshot across both tiers.
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            memory: self.memory.stats(),
            store: self.store.stats(),
        }
    }

    /// Fetch the stored outcome bytes for a key, counting the probe.
    pub(crate) fn fetch(&self, addr: u64, key: &[u8]) -> Option<Bytes> {
        let hit = self.store.get(kind::COMPILE, addr, key);
        // Decode failures downgrade a fetch hit to a disk miss; the session
        // adjusts the counters via `note_undecodable`.
        match hit {
            Some(bytes) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                Some(bytes)
            }
            None => {
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Reclassify one fetched-but-undecodable record from hit to miss, in
    /// this tier's counters and the store's.
    pub(crate) fn note_undecodable(&self) {
        self.disk_hits.fetch_sub(1, Ordering::Relaxed);
        self.disk_misses.fetch_add(1, Ordering::Relaxed);
        self.store.note_undecodable();
    }

    /// Persist a freshly compiled outcome. First-write-wins; errors are
    /// returned so callers can decide whether durability failures are
    /// fatal (the session treats them as best-effort).
    pub(crate) fn persist(
        &self,
        addr: u64,
        key: &[u8],
        outcome: &CompileOutcome,
    ) -> Result<bool, vv_store::StoreError> {
        self.store
            .put(kind::COMPILE, addr, key, &encode_outcome(outcome))
    }
}

/// Address bytes with the store's FNV-1a (collisions are survivable — the
/// store compares full keys).
pub(crate) fn compile_addr(key: &[u8]) -> u64 {
    fnv1a(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{CompileFetch, CompileSession};

    const VALID_ACC: &str = "#include <stdlib.h>\nint main() { double a[8];\n#pragma acc parallel loop\nfor (int i = 0; i < 8; i++) { a[i] = i; }\nreturn 0; }";
    const BROKEN: &str = "int main() { return oops; }";
    const SYNTAX: &str = "int main( { return 0; }";

    fn temp_store(tag: &str) -> Arc<ArtifactStore> {
        let dir =
            std::env::temp_dir().join(format!("vv-persist-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::open_shared(dir).unwrap()
    }

    #[test]
    fn outcome_codec_round_trips_success_and_failure() {
        let mut session = CompileSession::for_model(DirectiveModel::OpenAcc);
        for source in [VALID_ACC, BROKEN, SYNTAX] {
            let outcome = session.compile_uncached(source, Lang::C);
            let decoded = decode_outcome(&encode_outcome(&outcome)).expect("decodes");
            assert_eq!(decoded.return_code, outcome.return_code);
            assert_eq!(&*decoded.stdout, &*outcome.stdout);
            assert_eq!(&*decoded.stderr, &*outcome.stderr);
            assert_eq!(decoded.has_artifact, outcome.artifact.is_some());
            assert_eq!(decoded.diagnostics, outcome.diagnostics);
        }
    }

    #[test]
    fn truncated_outcome_bytes_never_decode() {
        let mut session = CompileSession::for_model(DirectiveModel::OpenAcc);
        let outcome = session.compile_uncached(BROKEN, Lang::C);
        let bytes = encode_outcome(&outcome);
        for cut in 0..bytes.len() {
            assert!(
                decode_outcome(&bytes[..cut]).is_none(),
                "truncation at {cut} decoded"
            );
        }
        assert!(decode_outcome(&bytes).is_some());
    }

    #[test]
    fn disk_tier_serves_a_second_session_byte_identically() {
        let store = temp_store("second-session");
        let cache_a = CompileCache::shared();
        let persist_a = Arc::new(PersistentCache::new(cache_a, Arc::clone(&store)));
        let mut warm = CompileSession::for_model(DirectiveModel::OpenAcc)
            .with_persistent_cache(Arc::clone(&persist_a));
        let fresh: Vec<_> = [VALID_ACC, BROKEN, SYNTAX]
            .iter()
            .map(|s| warm.compile(s, Lang::C))
            .collect();

        // A brand-new memory tier over the same store: every lookup must be
        // a disk hit, byte-identical to the fresh outcome.
        let persist_b = Arc::new(PersistentCache::new(CompileCache::shared(), store));
        let mut cold = CompileSession::for_model(DirectiveModel::OpenAcc)
            .with_persistent_cache(Arc::clone(&persist_b));
        for (source, expect) in [VALID_ACC, BROKEN, SYNTAX].iter().zip(&fresh) {
            let (outcome, fetch) = cold.compile_classified(source, Lang::C);
            assert_eq!(fetch, CompileFetch::DiskHit, "{source:?}");
            assert_eq!(outcome.return_code, expect.return_code);
            assert_eq!(outcome.stdout, expect.stdout);
            assert_eq!(outcome.stderr, expect.stderr);
            assert_eq!(outcome.diagnostics, expect.diagnostics);
            assert_eq!(outcome.artifact.is_some(), expect.artifact.is_some());
            if let (Some(a), Some(b)) = (&outcome.artifact, &expect.artifact) {
                assert_eq!(*a.unit, *b.unit);
            }
        }
        let stats = persist_b.stats();
        assert_eq!(stats.disk_hits, 3);
        assert_eq!(stats.disk_misses, 0);
    }

    #[test]
    fn fetch_classification_covers_all_three_tiers() {
        let store = temp_store("tiers");
        let persist = Arc::new(PersistentCache::new(CompileCache::shared(), store));
        let mut session = CompileSession::for_model(DirectiveModel::OpenAcc)
            .with_persistent_cache(Arc::clone(&persist));
        let (_, first) = session.compile_classified(VALID_ACC, Lang::C);
        assert_eq!(first, CompileFetch::Fresh);
        // Second-touch admission means compile #2 is a disk hit (the store
        // already has it; the memory tier filtered the first insert) and
        // compile #3 a memory hit (the disk hit was re-offered and admitted).
        let (_, second) = session.compile_classified(VALID_ACC, Lang::C);
        assert_eq!(second, CompileFetch::DiskHit);
        let (_, third) = session.compile_classified(VALID_ACC, Lang::C);
        assert_eq!(third, CompileFetch::MemoryHit);
    }

    #[test]
    fn corrupt_store_value_degrades_to_fresh_compile() {
        let store = temp_store("corrupt-value");
        // Poison the exact key the session will look up.
        let key = compile_key(
            VendorStyle::Nvc,
            vv_specs::default_version(DirectiveModel::OpenAcc),
            DirectiveModel::OpenAcc,
            Lang::C,
            VALID_ACC,
        );
        store
            .put(kind::COMPILE, compile_addr(&key), &key, b"garbage")
            .unwrap();
        let persist = Arc::new(PersistentCache::new(CompileCache::shared(), store));
        let mut session = CompileSession::for_model(DirectiveModel::OpenAcc)
            .with_persistent_cache(Arc::clone(&persist));
        let (outcome, fetch) = session.compile_classified(VALID_ACC, Lang::C);
        assert_eq!(fetch, CompileFetch::Fresh);
        assert!(outcome.succeeded());
        let stats = persist.stats();
        assert_eq!((stats.disk_hits, stats.disk_misses), (0, 1));
        let store = stats.store;
        assert_eq!((store.hits, store.misses, store.undecodable), (0, 1, 1));
    }
}
