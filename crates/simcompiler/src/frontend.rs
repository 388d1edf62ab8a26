//! Compiler frontend trait and shared outcome types.

use std::any::Any;
use std::fmt;
use std::sync::{Arc, OnceLock};

use vv_dclang::{Diagnostic, DirectiveModel, TranslationUnit};

/// Source language flavor of a test file.
///
/// The paper's Part Two corpus contains C and C++ files; the mini-language
/// treats them identically except for the file extension used in
/// diagnostics (mirroring how the real tests differ mostly in harness
/// boilerplate).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lang {
    /// A `.c` translation unit.
    C,
    /// A `.cpp` translation unit.
    Cpp,
}

impl Lang {
    /// The file extension used in diagnostics.
    pub fn extension(&self) -> &'static str {
        match self {
            Lang::C => "c",
            Lang::Cpp => "cpp",
        }
    }

    /// The placeholder file name used in diagnostics. Static: the render
    /// paths interpolate this per diagnostic, so it must not allocate.
    pub fn file_name(&self) -> &'static str {
        match self {
            Lang::C => "test.c",
            Lang::Cpp => "test.cpp",
        }
    }
}

/// A shareable, type-erased, fill-once cache slot.
///
/// Two places use this pattern: a [`Program`] caches its lowered execution
/// artifact (the bytecode lives in `vv-simexec`, which depends on this
/// crate, so the field must be type-erased to avoid a dependency cycle),
/// and a [`CompileOutcome`] caches derived per-source analyses (the judge's
/// code signals live in `vv-judge`, same cycle). Clones share the slot
/// through an `Arc`, so whatever is computed once is reused by every copy —
/// including every compile-cache hit.
#[derive(Clone, Default)]
pub struct SharedSlot(Arc<OnceLock<Arc<dyn Any + Send + Sync>>>);

impl SharedSlot {
    /// Return the cached value, building it with `init` on the first call.
    ///
    /// The slot holds a single type: if a caller asks for a different `T`
    /// than the one cached (which no current caller does), the value is
    /// rebuilt without being cached.
    pub fn get_or_init_with<T>(&self, init: impl FnOnce() -> T) -> Arc<T>
    where
        T: Any + Send + Sync,
    {
        if let Some(existing) = self.0.get() {
            if let Ok(value) = Arc::clone(existing).downcast::<T>() {
                return value;
            }
            // Slot already holds a different type; serve an uncached build
            // rather than poisoning the existing entry.
            return Arc::new(init());
        }
        let value = Arc::new(init());
        // If another thread won the publish race our build is still a valid
        // (deterministic) answer for this caller, so ignore the error.
        let _ = self.0.set(Arc::clone(&value) as Arc<dyn Any + Send + Sync>);
        value
    }

    /// True once a value has been published.
    pub fn is_filled(&self) -> bool {
        self.0.get().is_some()
    }
}

impl fmt::Debug for SharedSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = if self.is_filled() { "filled" } else { "empty" };
        write!(f, "SharedSlot({state})")
    }
}

/// The checked artifact produced by a successful compilation; the execution
/// substrate (`vv-simexec`) interprets this directly.
///
/// The translation unit is behind an `Arc`, so cloning a `Program` (as the
/// compile cache does on every hit) is two reference-count bumps — the AST
/// and the lowered-bytecode slot are shared, never re-built.
///
/// **Invariant:** a `Program` is immutable once executed. The lowered-form
/// cache ([`Program::lowered_artifact`]) is filled on first execution and
/// never invalidated, so mutating `unit` or `model` afterwards would leave
/// stale bytecode behind — construct a fresh `Program` (e.g. via
/// [`Program::new`]) instead of editing one in place.
#[derive(Clone, Debug)]
pub struct Program {
    /// The parsed and semantically checked translation unit (shared).
    pub unit: Arc<TranslationUnit>,
    /// The programming model the program was compiled for.
    pub model: DirectiveModel,
    /// The source language flavor.
    pub lang: Lang,
    /// Compile-once/execute-many slot for the lowered form (see
    /// [`Program::lowered_artifact`]).
    cache: SharedSlot,
}

impl Program {
    /// Wrap a checked translation unit as an executable artifact.
    pub fn new(unit: TranslationUnit, model: DirectiveModel, lang: Lang) -> Self {
        Self {
            unit: Arc::new(unit),
            model,
            lang,
            cache: SharedSlot::default(),
        }
    }

    /// Return the cached lowered artifact, building it with `lower` on the
    /// first call. Clones of this program share the slot, so the probing and
    /// benchmark layers that execute one base program many times pay the
    /// lowering cost once — and so does every compile-cache hit for the same
    /// source text.
    ///
    /// The cache is never invalidated — see the type-level invariant: do
    /// not mutate `unit`/`model` after the first execution.
    pub fn lowered_artifact<T>(&self, lower: impl FnOnce() -> T) -> Arc<T>
    where
        T: Any + Send + Sync,
    {
        self.cache.get_or_init_with(lower)
    }
}

/// The result of invoking a compiler frontend on one source file.
///
/// Mirrors exactly what the paper's agent prompts consume: a return code
/// plus captured stdout/stderr text (Listing 2/4 in the paper). Captures
/// are `Arc<str>` so pipeline records, judge tool contexts and compile-cache
/// hits all share one buffer.
#[derive(Clone, Debug)]
pub struct CompileOutcome {
    /// Process exit code of the simulated compiler (0 on success).
    pub return_code: i32,
    /// Captured standard output.
    pub stdout: Arc<str>,
    /// Captured standard error (diagnostics, vendor-formatted).
    pub stderr: Arc<str>,
    /// The checked program, present only when compilation succeeded.
    pub artifact: Option<Program>,
    /// The vendor-neutral diagnostics behind `stderr` (useful for tests and
    /// for ablation studies; the judge never sees these directly).
    pub diagnostics: Vec<Diagnostic>,
    /// Fill-once slot for analyses derived from this outcome's source (e.g.
    /// the judge's precomputed code signals). Shared across clones and
    /// compile-cache hits, so a derived analysis runs once per distinct
    /// source rather than once per case.
    pub analysis: SharedSlot,
}

impl CompileOutcome {
    /// True if compilation succeeded (exit code 0 and an artifact exists).
    pub fn succeeded(&self) -> bool {
        self.return_code == 0 && self.artifact.is_some()
    }
}

/// A simulated compiler frontend.
pub trait CompilerFrontend: Send + Sync {
    /// Vendor/tool name as it would appear in a build log (e.g. `"nvc"`).
    fn name(&self) -> &'static str;
    /// The programming model this frontend targets.
    fn model(&self) -> DirectiveModel;
    /// Compile one source file.
    fn compile(&self, source: &str, lang: Lang) -> CompileOutcome;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lang_file_names() {
        assert_eq!(Lang::C.file_name(), "test.c");
        assert_eq!(Lang::Cpp.file_name(), "test.cpp");
    }

    #[test]
    fn outcome_success_predicate() {
        let ok = CompileOutcome {
            return_code: 0,
            stdout: "".into(),
            stderr: "".into(),
            artifact: Some(Program::new(
                TranslationUnit::default(),
                DirectiveModel::OpenAcc,
                Lang::C,
            )),
            diagnostics: vec![],
            analysis: SharedSlot::default(),
        };
        assert!(ok.succeeded());
        let failed = CompileOutcome {
            return_code: 2,
            artifact: None,
            ..ok.clone()
        };
        assert!(!failed.succeeded());
    }

    #[test]
    fn shared_slot_fills_once_and_is_shared_by_clones() {
        let slot = SharedSlot::default();
        let copy = slot.clone();
        let first = slot.get_or_init_with(|| 41i64);
        let second = copy.get_or_init_with(|| 99i64);
        assert_eq!(*first, 41);
        assert!(Arc::ptr_eq(&first, &second));
        assert!(slot.is_filled());
    }
}
