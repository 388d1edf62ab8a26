//! Reusable compile sessions.
//!
//! A [`CompileSession`] is the fast path through the simulated compiler
//! frontends. It bundles everything that is profitably *reused* across
//! compiles of many files:
//!
//! * the session [`Interner`] — every identifier, string literal and pragma
//!   spelling is hashed and stored once for the whole session, so after
//!   warm-up the lexer performs no per-token allocations at all (tokens
//!   carry [`vv_dclang::Symbol`]s) and semantic analysis resolves names as
//!   `u32` set membership instead of `String` hashing;
//! * the vendor configuration (style, spec version, failure code) resolved
//!   once instead of per file;
//! * optionally, a shared content-addressed [`CompileCache`] that memoizes
//!   whole [`CompileOutcome`]s by `(vendor, version, model, lang, source
//!   bytes)`.
//!
//! Sessions are deliberately `&mut self` (the interner grows); concurrency
//! comes from giving each worker its own session around one shared cache,
//! which is how `vv-pipeline`'s compile backend uses them.
//!
//! # Determinism and parity
//!
//! The session never changes *what* is compiled — only how much work it
//! takes. For every input, a session compile (cached or not) produces a
//! return code, stdout, stderr, diagnostics and `Program` byte-identical to
//! a fresh one-shot [`crate::frontend::CompilerFrontend::compile`]
//! (`tests/compile_parity.rs` proves this over 10k+ mixed corpus files).

use std::sync::Arc;

use vv_dclang::{parse_source_with, Diagnostic, DirectiveModel, Interner};
use vv_specs::Version;

use crate::cache::CompileCache;
use crate::frontend::{CompileOutcome, Lang, Program, SharedSlot};
use crate::persist::{self, PersistentCache};
use crate::semantic::{analyze_with, SemanticOptions};
use crate::vendors::VendorStyle;

/// Where a [`CompileSession::compile_classified`] outcome came from —
/// consumed by the pipeline's cache/store accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CompileFetch {
    /// Compiled through the full frontend this call.
    Fresh,
    /// Served by the in-memory [`CompileCache`].
    MemoryHit,
    /// Decoded from the durable store tier (artifact rebuilt by
    /// re-parsing; see [`crate::persist`]).
    DiskHit,
}

/// A reusable, optionally caching compiler session. See the module docs.
#[derive(Debug)]
pub struct CompileSession {
    model: DirectiveModel,
    spec_version: Version,
    style: VendorStyle,
    interner: Interner,
    cache: Option<Arc<CompileCache>>,
    /// Durable tier under the memory cache, when attached.
    persistent: Option<Arc<PersistentCache>>,
    /// Scratch buffer for vendor-rendered stderr.
    render_buf: String,
}

impl CompileSession {
    /// A session for the vendor the paper pairs with `model` (nvc for
    /// OpenACC, clang for OpenMP) at the paper's default spec version.
    pub fn for_model(model: DirectiveModel) -> Self {
        Self {
            model,
            spec_version: vv_specs::default_version(model),
            style: VendorStyle::for_model(model),
            interner: Interner::new(),
            cache: None,
            persistent: None,
            render_buf: String::new(),
        }
    }

    /// Attach a shared content-addressed compile cache.
    pub fn with_cache(mut self, cache: Arc<CompileCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attach a two-tier persistent cache: lookups go memory → disk →
    /// fresh compile, and fresh outcomes feed both tiers. This replaces
    /// any cache set by [`Self::with_cache`] with the persistent cache's
    /// memory tier, so both tiers stay coherent.
    pub fn with_persistent_cache(mut self, persistent: Arc<PersistentCache>) -> Self {
        self.cache = Some(Arc::clone(persistent.memory()));
        self.persistent = Some(persistent);
        self
    }

    /// The programming model this session compiles for.
    pub fn model(&self) -> DirectiveModel {
        self.model
    }

    /// The session interner (shared by lexing and semantic analysis).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Compile one source file, consulting the cache when one is attached.
    ///
    /// Hits return the memoized outcome object itself (with its shared
    /// lowered-artifact and analysis slots); misses compile through the
    /// session interner and memoize the result.
    pub fn compile(&mut self, source: &str, lang: Lang) -> Arc<CompileOutcome> {
        self.compile_classified(source, lang).0
    }

    /// [`Self::compile`] plus the provenance of the returned outcome —
    /// which cache tier (if any) served it. The outcome is identical
    /// either way; the classification only feeds hit/miss accounting.
    pub fn compile_classified(
        &mut self,
        source: &str,
        lang: Lang,
    ) -> (Arc<CompileOutcome>, CompileFetch) {
        let Some(cache) = self.cache.clone() else {
            return (
                Arc::new(self.compile_uncached(source, lang)),
                CompileFetch::Fresh,
            );
        };
        // Hash the source once; the same address drives both the probe
        // and the insertion.
        let key = crate::cache::KeyRef {
            style: self.style,
            version: self.spec_version,
            model: self.model,
            lang,
            source,
        };
        let addr = key.address();
        if let Some(hit) = cache.get(addr, key) {
            return (hit, CompileFetch::MemoryHit);
        }
        if let Some(persistent) = self.persistent.clone() {
            let store_key =
                persist::compile_key(self.style, self.spec_version, self.model, lang, source);
            let store_addr = persist::compile_addr(&store_key);
            if let Some(bytes) = persistent.fetch(store_addr, &store_key) {
                if let Some(outcome) = self.rebuild_from_disk(&bytes, source, lang) {
                    let outcome = Arc::new(outcome);
                    // Re-offer the disk hit to the memory tier so recurring
                    // sources graduate to memory speed.
                    cache.insert(addr, key, Arc::clone(&outcome));
                    return (outcome, CompileFetch::DiskHit);
                }
                persistent.note_undecodable();
            }
            let outcome = Arc::new(self.compile_uncached(source, lang));
            // Durability is best-effort here: a full disk must not fail the
            // compile itself, and the next flush/open will surface it.
            let _ = persistent.persist(store_addr, &store_key, &outcome);
            cache.insert(addr, key, Arc::clone(&outcome));
            return (outcome, CompileFetch::Fresh);
        }
        let outcome = Arc::new(self.compile_uncached(source, lang));
        cache.insert(addr, key, Arc::clone(&outcome));
        (outcome, CompileFetch::Fresh)
    }

    /// Reconstitute a stored outcome: decode the observable fields and, for
    /// successful compiles, rebuild the artifact by re-parsing the source
    /// through the session interner (deterministic — see [`crate::persist`]).
    /// `None` means the record is undecodable and the caller must compile
    /// fresh.
    fn rebuild_from_disk(
        &mut self,
        bytes: &[u8],
        source: &str,
        lang: Lang,
    ) -> Option<CompileOutcome> {
        let decoded = persist::decode_outcome(bytes)?;
        let artifact = if decoded.has_artifact {
            // The stored outcome carried an artifact, so this parse
            // succeeded when the record was written; a failure here means
            // the record does not match the source (a key collision slipped
            // past, or store damage) and must be treated as a miss.
            let parsed = parse_source_with(source, &mut self.interner).ok()?;
            Some(Program::new(parsed.unit, self.model, lang))
        } else {
            None
        };
        Some(CompileOutcome {
            return_code: decoded.return_code,
            stdout: decoded.stdout,
            stderr: decoded.stderr,
            artifact,
            diagnostics: decoded.diagnostics,
            analysis: SharedSlot::default(),
        })
    }

    /// Compile one source file through the session interner, bypassing the
    /// cache. This is the shared frontend driver: parse, analyze, apply
    /// vendor policy.
    pub fn compile_uncached(&mut self, source: &str, lang: Lang) -> CompileOutcome {
        let failure_code = self.style.failure_code();
        match parse_source_with(source, &mut self.interner) {
            Err(diags) => CompileOutcome {
                return_code: failure_code,
                stdout: "".into(),
                stderr: self.render(&diags, lang),
                artifact: None,
                diagnostics: diags,
                analysis: SharedSlot::default(),
            },
            Ok(parsed) => {
                let opts = SemanticOptions {
                    model: self.model,
                    spec_version: self.spec_version,
                    warn_unknown_pragmas: true,
                };
                let mut diags = parsed.diagnostics;
                diags.extend(analyze_with(&parsed.unit, &opts, &mut self.interner));
                let has_errors = diags.iter().any(Diagnostic::is_error);
                let stderr = self.render(&diags, lang);
                if has_errors {
                    CompileOutcome {
                        return_code: failure_code,
                        stdout: "".into(),
                        stderr,
                        artifact: None,
                        diagnostics: diags,
                        analysis: SharedSlot::default(),
                    }
                } else {
                    CompileOutcome {
                        return_code: 0,
                        stdout: "".into(),
                        stderr,
                        artifact: Some(Program::new(parsed.unit, self.model, lang)),
                        diagnostics: diags,
                        analysis: SharedSlot::default(),
                    }
                }
            }
        }
    }

    fn render(&mut self, diags: &[Diagnostic], lang: Lang) -> Arc<str> {
        self.render_buf.clear();
        self.style.render(diags, lang, &mut self.render_buf);
        self.render_buf.as_str().into()
    }
}

/// One-shot compile with the configuration a [`CompilerFrontend`] would
/// use — the compatibility path behind the trait impls in
/// [`crate::vendors`].
pub(crate) fn one_shot_compile(
    model: DirectiveModel,
    spec_version: Version,
    source: &str,
    lang: Lang,
) -> CompileOutcome {
    CompileSession {
        spec_version,
        ..CompileSession::for_model(model)
    }
    .compile_uncached(source, lang)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vendors::compiler_for;

    const VALID_ACC: &str = "#include <stdlib.h>\nint main() { double a[8];\n#pragma acc parallel loop\nfor (int i = 0; i < 8; i++) { a[i] = i; }\nreturn 0; }";
    const BROKEN: &str = "int main() { return oops; }";
    const SYNTAX: &str = "int main( { return 0; }";

    #[test]
    fn session_outcomes_match_one_shot_frontends() {
        let mut session = CompileSession::for_model(DirectiveModel::OpenAcc);
        let frontend = compiler_for(DirectiveModel::OpenAcc);
        for source in [VALID_ACC, BROKEN, SYNTAX] {
            let fresh = frontend.compile(source, Lang::C);
            let shared = session.compile(source, Lang::C);
            assert_eq!(fresh.return_code, shared.return_code);
            assert_eq!(fresh.stdout, shared.stdout);
            assert_eq!(fresh.stderr, shared.stderr);
            assert_eq!(fresh.diagnostics, shared.diagnostics);
            assert_eq!(
                fresh.artifact.map(|p| (*p.unit).clone()),
                shared.artifact.as_ref().map(|p| (*p.unit).clone())
            );
        }
    }

    #[test]
    fn cached_session_is_still_byte_identical() {
        let mut cached =
            CompileSession::for_model(DirectiveModel::OpenAcc).with_cache(CompileCache::shared());
        for _ in 0..3 {
            for source in [VALID_ACC, BROKEN, SYNTAX] {
                let fresh = compiler_for(DirectiveModel::OpenAcc).compile(source, Lang::C);
                let hit = cached.compile(source, Lang::C);
                assert_eq!(fresh.return_code, hit.return_code);
                assert_eq!(fresh.stderr, hit.stderr);
                assert_eq!(fresh.diagnostics, hit.diagnostics);
            }
        }
    }

    #[test]
    fn session_interner_grows_once_per_spelling() {
        let mut session = CompileSession::for_model(DirectiveModel::OpenAcc);
        let _ = session.compile(VALID_ACC, Lang::C);
        let after_first = session.interner().len();
        let _ = session.compile(VALID_ACC, Lang::C);
        assert_eq!(session.interner().len(), after_first);
    }
}
