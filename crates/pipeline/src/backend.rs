//! Pluggable stage backends.
//!
//! Each pipeline stage is an object-safe trait, so alternative
//! implementations — a real compiler shell-out, a caching executor, a second
//! judge profile, a remote judge service — can be plugged into
//! [`crate::ValidationService`] without touching the runner:
//!
//! * [`CompileBackend`] — turns a [`WorkItem`] into a [`CompileSummary`]
//!   plus an optional executable artifact;
//! * [`ExecBackend`] — runs an artifact and reports an [`ExecSummary`];
//! * [`JudgeBackend`] — produces a [`JudgeOutcome`] from the source and the
//!   collected stage evidence.
//!
//! The default implementations wrap the simulated substrates the paper's
//! reproduction is built on: [`SimCompileBackend`] (vv-simcompiler, through
//! pooled [`CompileSession`]s around one shared content-addressed
//! [`CompileCache`]), [`SimExecBackend`] (vv-simexec) and
//! [`SurrogateJudgeBackend`] (vv-judge's calibrated surrogate model, fed the
//! code signals the compile stage precomputed).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::{CompileSummary, ExecSummary, WorkItem};
use vv_dclang::DirectiveModel;
use vv_judge::{
    CodeSignals, JudgeOutcome, JudgeProfile, JudgeSession, PromptStyle, SurrogateLlmJudge,
    ToolContext, ToolRecord,
};
use vv_simcompiler::{CompileCache, CompileFetch, CompileSession, PersistentCache, Program};
use vv_simexec::Executor;

/// The result of a compile backend call: the summary recorded in the
/// [`crate::CaseRecord`], the artifact handed to the execute stage, and the
/// code signals precomputed for the judge stage.
#[derive(Clone, Debug)]
pub struct CompileOutput {
    /// Exit code, captured output, success flag.
    pub summary: CompileSummary,
    /// The executable artifact, present only on success.
    pub artifact: Option<Program>,
    /// Code-derived judge evidence, computed once per distinct source by
    /// backends that can (see [`vv_judge::CodeSignals::of_source`]); `None`
    /// makes the judge fall back to scanning its rendered prompt.
    pub signals: Option<Arc<CodeSignals>>,
    /// Which cache tier served this outcome — `None` when the backend has
    /// no cache (provenance unknown). Feeds the service's
    /// compile-cache-hit counters.
    pub fetch: Option<CompileFetch>,
}

/// The compile stage: source text in, diagnostics and artifact out.
///
/// Implementations must be thread-safe — the service calls them from
/// multiple stage workers concurrently.
pub trait CompileBackend: Send + Sync {
    /// Compile one work item.
    fn compile(&self, item: &WorkItem) -> CompileOutput;

    /// A short human-readable backend name (for logs and stats displays).
    fn name(&self) -> &'static str {
        "compile"
    }

    /// A string pinning every piece of configuration this backend's output
    /// depends on *besides* the work item itself (vendor, spec version,
    /// resource limits, ...). Two backends with equal fingerprints must
    /// produce byte-identical output for identical items. `None` (the
    /// default) means "cannot promise that", which disables record-level
    /// store persistence for the whole service — see [`crate::persist`].
    fn fingerprint(&self) -> Option<String> {
        None
    }
}

/// The execute stage: artifact in, runtime observation out.
pub trait ExecBackend: Send + Sync {
    /// Run one compiled artifact.
    fn execute(&self, item: &WorkItem, program: &Program) -> ExecSummary;

    /// A short human-readable backend name.
    fn name(&self) -> &'static str {
        "exec"
    }

    /// Configuration fingerprint; same contract as
    /// [`CompileBackend::fingerprint`].
    fn fingerprint(&self) -> Option<String> {
        None
    }
}

/// The judge stage: source plus stage evidence in, verdict out.
pub trait JudgeBackend: Send + Sync {
    /// Judge one work item given the evidence collected so far. `exec` is
    /// `None` when the file never produced an artifact; `signals` carries
    /// the compile stage's precomputed code signals when available.
    fn judge(
        &self,
        item: &WorkItem,
        compile: &CompileSummary,
        exec: Option<&ExecSummary>,
        signals: Option<&CodeSignals>,
    ) -> JudgeOutcome;

    /// A short human-readable backend name.
    fn name(&self) -> &'static str {
        "judge"
    }

    /// Configuration fingerprint; same contract as
    /// [`CompileBackend::fingerprint`].
    fn fingerprint(&self) -> Option<String> {
        None
    }
}

// ---------------------------------------------------------------------------
// default backends (the paper's simulated substrates)
// ---------------------------------------------------------------------------

/// Default compile backend: the simulated vendor compiler selected by the
/// item's [`vv_dclang::DirectiveModel`], driven through reusable
/// [`CompileSession`]s that share a content-addressed [`CompileCache`].
///
/// Every [`CompileBackend::compile`] call checks a session for the item's
/// model out of a per-model pool (building one when the pool is empty)
/// and checks it back in, so the pool holds about one session per
/// concurrent caller and each keeps the interner and scratch buffers it
/// warmed up. A session whose interner grew past `MAX_SESSION_SYMBOLS`
/// is retired instead of checked in. Sessions carry no outcome: every
/// memoized result lives in the shared cache, so which session compiles
/// an item never changes its output.
///
/// Cache hits return the memoized outcome object — byte-identical to a
/// fresh compile by construction (the compiler is deterministic and the key
/// covers everything it reads), and sharing the already-lowered execution
/// artifact and already-derived judge signals.
#[derive(Debug)]
pub struct SimCompileBackend {
    cache: Option<Arc<CompileCache>>,
    /// Durable disk tier under the memory cache, when attached; sessions
    /// are then built with the two-tier lookup (memory → disk → fresh).
    persistent: Option<Arc<PersistentCache>>,
    sessions: Mutex<HashMap<DirectiveModel, Vec<CompileSession>>>,
}

/// Sessions whose interner grew past this many distinct spellings are
/// retired instead of returned to the pool (pathological corpora with
/// unbounded fresh identifiers would otherwise grow the table forever).
const MAX_SESSION_SYMBOLS: usize = 1 << 20;

impl Default for SimCompileBackend {
    /// Caching backend with the default cache capacity.
    fn default() -> Self {
        Self::cached(CompileCache::shared())
    }
}

impl SimCompileBackend {
    /// A backend around an existing (possibly shared) compile cache.
    pub fn cached(cache: Arc<CompileCache>) -> Self {
        Self {
            cache: Some(cache),
            persistent: None,
            sessions: Mutex::new(HashMap::new()),
        }
    }

    /// A backend around a two-tier persistent cache: in-memory hits first,
    /// then the durable store, then a fresh compile feeding both tiers.
    pub fn persistent(persist: Arc<PersistentCache>) -> Self {
        Self {
            cache: Some(Arc::clone(persist.memory())),
            persistent: Some(persist),
            sessions: Mutex::new(HashMap::new()),
        }
    }

    /// A backend that compiles every file afresh (still session-interned;
    /// used as the baseline in benchmarks and for memory-austere runs).
    pub fn uncached() -> Self {
        Self {
            cache: None,
            persistent: None,
            sessions: Mutex::new(HashMap::new()),
        }
    }

    /// Check a session for `model` out of the pool, building a fresh one
    /// when the pool is empty.
    fn take_session(&self, model: DirectiveModel) -> CompileSession {
        let mut pools = self
            .sessions
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        if let Some(session) = pools.get_mut(&model).and_then(Vec::pop) {
            return session;
        }
        drop(pools);
        let session = CompileSession::for_model(model);
        match (&self.persistent, &self.cache) {
            (Some(persist), _) => session.with_persistent_cache(Arc::clone(persist)),
            (None, Some(cache)) => session.with_cache(Arc::clone(cache)),
            (None, None) => session,
        }
    }

    /// Check a session back in, so the interner and buffers it warmed up
    /// serve the next compile. Oversized sessions are retired instead.
    fn return_session(&self, model: DirectiveModel, session: CompileSession) {
        if session.interner().len() > MAX_SESSION_SYMBOLS {
            return; // retire it; a fresh one is built on demand
        }
        let mut pools = self
            .sessions
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        pools.entry(model).or_default().push(session);
    }
}

impl CompileBackend for SimCompileBackend {
    fn compile(&self, item: &WorkItem) -> CompileOutput {
        let mut session = self.take_session(item.model);
        let (outcome, fetch) = session.compile_classified(&item.source, item.lang);
        self.return_session(item.model, session);
        // Derive the judge's code signals once per distinct source: the
        // outcome's analysis slot is shared by every cache hit.
        let signals = outcome
            .analysis
            .get_or_init_with(|| CodeSignals::of_source(&item.source, item.model));
        let succeeded = outcome.succeeded();
        CompileOutput {
            summary: CompileSummary {
                return_code: outcome.return_code,
                stdout: Arc::clone(&outcome.stdout).into(),
                stderr: Arc::clone(&outcome.stderr).into(),
                succeeded,
            },
            artifact: outcome.artifact.clone(),
            signals: Some(signals),
            fetch: self.cache.is_some().then_some(fetch),
        }
    }

    fn name(&self) -> &'static str {
        "sim-compiler"
    }

    fn fingerprint(&self) -> Option<String> {
        // Sessions are always built via `CompileSession::for_model`: the
        // vendor and spec version are the per-model defaults, so the
        // configuration is a constant. The model itself (and the source)
        // is part of the record-store key, not the fingerprint.
        Some("sim-compiler/default-vendor-spec".to_owned())
    }
}

/// Default execute backend: the deterministic vv-simexec interpreter.
#[derive(Clone, Debug, Default)]
pub struct SimExecBackend {
    executor: Executor,
}

impl ExecBackend for SimExecBackend {
    fn execute(&self, _item: &WorkItem, program: &Program) -> ExecSummary {
        let outcome = self.executor.run(program);
        ExecSummary {
            return_code: outcome.return_code,
            stdout: outcome.stdout.into(),
            stderr: outcome.stderr.into(),
            passed: outcome.return_code == 0,
        }
    }

    fn name(&self) -> &'static str {
        "sim-exec"
    }

    fn fingerprint(&self) -> Option<String> {
        // The executor's Debug form covers its full configuration (the
        // interpreter limits), which is everything its output depends on
        // beyond the program itself.
        Some(format!("sim-exec/{:?}", self.executor))
    }
}

/// Default judge backend: the calibrated surrogate LLM judge, with the
/// compiler/runtime evidence embedded in the agent prompt exactly as in the
/// paper's Listing 2.
#[derive(Clone, Debug)]
pub struct SurrogateJudgeBackend {
    session: JudgeSession,
}

impl SurrogateJudgeBackend {
    /// Build from a calibration profile, prompt style and decision seed.
    pub fn new(profile: JudgeProfile, style: PromptStyle, seed: u64) -> Self {
        Self::from_session(JudgeSession::new(
            SurrogateLlmJudge::new(profile, seed),
            style,
        ))
    }

    /// Wrap an existing judging session.
    pub fn from_session(session: JudgeSession) -> Self {
        Self { session }
    }

    /// The wrapped session.
    pub fn session(&self) -> &JudgeSession {
        &self.session
    }
}

impl JudgeBackend for SurrogateJudgeBackend {
    fn judge(
        &self,
        item: &WorkItem,
        compile: &CompileSummary,
        exec: Option<&ExecSummary>,
        signals: Option<&CodeSignals>,
    ) -> JudgeOutcome {
        // Shared captures: building the tool context is reference-count
        // bumps, not string copies — the judge reads the very same buffers
        // the record keeps.
        let tools = ToolContext {
            compile: Some(ToolRecord {
                return_code: compile.return_code,
                stdout: compile.stdout.clone(),
                stderr: compile.stderr.clone(),
            }),
            run: exec.map(|e| ToolRecord {
                return_code: e.return_code,
                stdout: e.stdout.clone(),
                stderr: e.stderr.clone(),
            }),
        };
        self.session
            .evaluate_precomputed(&item.source, item.model, Some(&tools), signals)
    }

    fn name(&self) -> &'static str {
        "surrogate-judge"
    }

    fn fingerprint(&self) -> Option<String> {
        // The session's Debug form spells out the calibration profile (name
        // and every reliability coefficient), the decision seed, the prompt
        // style and the inference cost model — the complete configuration
        // the judgement is a deterministic function of (besides the item
        // and stage evidence, which the record-store key covers).
        Some(format!("surrogate-judge/{:?}", self.session))
    }
}

/// A judge adapter that *realizes* the wrapped backend's simulated latency
/// as actual wall-clock time: after each judgement it sleeps
/// `latency_ms * scale` milliseconds on the judging worker's thread.
///
/// The surrogate judge computes in microseconds what the paper's
/// LLM-as-judge deployment spends seconds of network/GPU latency on (see
/// `vv_judge::inference` — the latency is modelled, not slept). That makes
/// single-thread throughput numbers unrepresentative of the deployment the
/// parallel executor exists for: with a remote judge, per-case latency is
/// wait, and worker concurrency converts it into throughput. Wrapping the
/// judge in `PacedJudge` (e.g. `scale = 0.001`, one *micro*second of sleep
/// per simulated millisecond ≈ a judge a thousand times faster than the
/// paper's) lets benchmarks measure exactly that conversion on any core
/// count.
///
/// Pacing changes timing only: the returned [`JudgeOutcome`] is the inner
/// backend's outcome, byte-identical, so every parity law still holds —
/// which is also why [`JudgeBackend::fingerprint`] passes through
/// unchanged (a stored record replays identically whether or not it was
/// produced under pacing).
pub struct PacedJudge {
    inner: Arc<dyn JudgeBackend>,
    scale: f64,
}

impl PacedJudge {
    /// Wrap `inner`, sleeping `latency_ms * scale` milliseconds per
    /// judgement (`scale = 1.0` reproduces the full simulated latency;
    /// non-finite or negative scales are treated as 0, i.e. no pacing).
    pub fn new(inner: Arc<dyn JudgeBackend>, scale: f64) -> Self {
        let scale = if scale.is_finite() {
            scale.max(0.0)
        } else {
            0.0
        };
        Self { inner, scale }
    }

    /// The pacing factor in effect.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl JudgeBackend for PacedJudge {
    fn judge(
        &self,
        item: &WorkItem,
        compile: &CompileSummary,
        exec: Option<&ExecSummary>,
        signals: Option<&CodeSignals>,
    ) -> JudgeOutcome {
        let outcome = self.inner.judge(item, compile, exec, signals);
        let pace_ms = outcome.latency_ms.max(0.0) * self.scale;
        if pace_ms > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(pace_ms / 1_000.0));
        }
        outcome
    }

    fn name(&self) -> &'static str {
        "paced-judge"
    }

    fn fingerprint(&self) -> Option<String> {
        self.inner.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vv_dclang::DirectiveModel;
    use vv_simcompiler::Lang;

    const VALID_ACC: &str = r#"
#include <stdio.h>
#include <stdlib.h>
#define N 32
int main() {
    double *a = (double *)malloc(N * sizeof(double));
    double *b = (double *)malloc(N * sizeof(double));
    for (int i = 0; i < N; i++) { a[i] = i * 0.5; b[i] = 0.0; }
#pragma acc parallel loop copyin(a[0:N]) copyout(b[0:N])
    for (int i = 0; i < N; i++) { b[i] = a[i] * 2.0; }
    int err = 0;
    for (int i = 0; i < N; i++) { if (b[i] != a[i] * 2.0) { err = err + 1; } }
    if (err != 0) { printf("Test failed\n"); return 1; }
    printf("Test passed\n");
    return 0;
}
"#;

    fn item(source: &str) -> WorkItem {
        WorkItem {
            id: "case".into(),
            source: source.into(),
            lang: Lang::C,
            model: DirectiveModel::OpenAcc,
        }
    }

    #[test]
    fn default_backends_chain_end_to_end() {
        let compile = SimCompileBackend::default();
        let exec = SimExecBackend::default();
        let judge = SurrogateJudgeBackend::new(
            JudgeProfile::deepseek_agent_direct(),
            PromptStyle::AgentDirect,
            7,
        );
        let work = item(VALID_ACC);
        let compiled = compile.compile(&work);
        assert!(
            compiled.summary.succeeded,
            "stderr: {}",
            compiled.summary.stderr
        );
        assert!(compiled.signals.is_some(), "signals precomputed");
        let program = compiled.artifact.expect("valid file produces an artifact");
        let ran = exec.execute(&work, &program);
        assert!(ran.passed, "stderr: {}", ran.stderr);
        let outcome = judge.judge(
            &work,
            &compiled.summary,
            Some(&ran),
            compiled.signals.as_deref(),
        );
        assert!(outcome.prompt.contains("Compiler return code: 0"));
        assert!(outcome.verdict.is_some());
    }

    #[test]
    fn judge_outcome_is_identical_with_and_without_signals() {
        let compile = SimCompileBackend::default();
        let exec = SimExecBackend::default();
        let judge = SurrogateJudgeBackend::new(
            JudgeProfile::deepseek_agent_direct(),
            PromptStyle::AgentDirect,
            7,
        );
        for source in [VALID_ACC, "int main() { return 0; }"] {
            let work = item(source);
            let compiled = compile.compile(&work);
            let ran = compiled
                .artifact
                .as_ref()
                .map(|program| exec.execute(&work, program));
            let fast = judge.judge(
                &work,
                &compiled.summary,
                ran.as_ref(),
                compiled.signals.as_deref(),
            );
            let slow = judge.judge(&work, &compiled.summary, ran.as_ref(), None);
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn compile_cache_hits_share_artifacts() {
        let cache = CompileCache::shared();
        let backend = SimCompileBackend::cached(Arc::clone(&cache));
        let work = item(VALID_ACC);
        let _first = backend.compile(&work); // first touch: admission filter
        let second = backend.compile(&work); // admitted
        let third = backend.compile(&work); // hit
        let (a, b) = (second.artifact.unwrap(), third.artifact.unwrap());
        assert!(Arc::ptr_eq(&a.unit, &b.unit), "AST is shared across hits");
        assert!(Arc::ptr_eq(
            &second.signals.unwrap(),
            &third.signals.unwrap()
        ));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }

    #[test]
    fn uncached_backend_still_precomputes_signals() {
        let backend = SimCompileBackend::uncached();
        assert!(backend.cache.is_none());
        let compiled = backend.compile(&item(VALID_ACC));
        assert!(compiled.summary.succeeded);
        assert!(compiled.signals.is_some());
    }

    #[test]
    fn failed_compiles_produce_no_artifact() {
        let compiled = SimCompileBackend::default().compile(&item("int main( { return 0; }"));
        assert!(!compiled.summary.succeeded);
        assert!(compiled.artifact.is_none());
    }

    #[test]
    fn paced_judge_changes_timing_not_bytes() {
        let inner: Arc<dyn JudgeBackend> = Arc::new(SurrogateJudgeBackend::new(
            JudgeProfile::deepseek_agent_direct(),
            PromptStyle::AgentDirect,
            7,
        ));
        let paced = PacedJudge::new(Arc::clone(&inner), 1e-6);
        let work = item(VALID_ACC);
        let compiled = SimCompileBackend::default().compile(&work);
        let plain = inner.judge(&work, &compiled.summary, None, compiled.signals.as_deref());
        let slept = paced.judge(&work, &compiled.summary, None, compiled.signals.as_deref());
        assert_eq!(plain, slept, "pacing must not change the outcome");
        assert_eq!(paced.fingerprint(), inner.fingerprint());
        // Degenerate scales clamp to "no pacing" instead of panicking in
        // Duration::from_secs_f64.
        assert_eq!(PacedJudge::new(Arc::clone(&inner), f64::NAN).scale(), 0.0);
        assert_eq!(PacedJudge::new(inner, -3.0).scale(), 0.0);
    }

    #[test]
    fn pooled_sessions_compile_identically_to_fresh_ones() {
        // The second compile reuses the session the first checked in,
        // interner and all; the uncached backend builds a new one.
        let backend = SimCompileBackend::default();
        let _ = backend.compile(&item(VALID_ACC));
        let work = item("int main() { int spare = 3; return spare - 3; }");
        let pooled = backend.compile(&work);
        let fresh = SimCompileBackend::uncached().compile(&work);
        assert_eq!(pooled.summary, fresh.summary);
        assert_eq!(
            pooled.signals.as_deref().map(|s| format!("{s:?}")),
            fresh.signals.as_deref().map(|s| format!("{s:?}"))
        );
        let pools = backend.sessions.lock().unwrap();
        assert_eq!(pools[&work.model].len(), 1, "one session served both");
    }

    #[test]
    fn backend_names_are_distinct() {
        let names = [
            CompileBackend::name(&SimCompileBackend::default()),
            ExecBackend::name(&SimExecBackend::default()),
            JudgeBackend::name(&SurrogateJudgeBackend::new(
                JudgeProfile::oracle(),
                PromptStyle::AgentDirect,
                0,
            )),
        ];
        assert_eq!(
            names.iter().collect::<std::collections::HashSet<_>>().len(),
            names.len()
        );
    }
}
