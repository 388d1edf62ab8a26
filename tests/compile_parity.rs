//! Frontend/judge fast-path laws: the session-interned compiler, the
//! content-addressed compile cache, and the judge's precomputed code
//! signals must all be **byte-identical** to the naive paths they replace.
//!
//! This is the compile/judge-layer mirror of the exec-layer parity law from
//! PR 4 (`tests/exec_parity.rs`): for every case — clean template output,
//! random non-directive code, and negative-probed mutants —
//!
//! 1. a shared [`CompileSession`] produces the same return code, stdout,
//!    stderr, diagnostics and `Program` AST as a fresh one-shot
//!    `compiler_for(model).compile(..)`;
//! 2. a cache **hit** returns an outcome identical to the cache **miss**
//!    that populated it (in fact the very same shared object) and to a
//!    fresh compile;
//! 3. the surrogate judge fed compile-stage-precomputed [`CodeSignals`]
//!    returns byte-identical responses to the prompt-scanning path, so a
//!    validation service with the fast path enabled produces records equal
//!    to one with it disabled.
//!
//! Release runs sweep ≥ 10k mixed cases; debug runs shrink so tier-1
//! `cargo test -q` stays fast.

use std::sync::Arc;

use vv_corpus::{CaseSource, RandomCodeSource, TemplateSource};
use vv_dclang::DirectiveModel;
use vv_judge::{extract_signals, CodeSignals};
use vv_pipeline::{
    CompileBackend, CompileOutput, PipelineMode, SimCompileBackend, ValidationService, WorkItem,
};
use vv_probing::CorpusSpec;
use vv_simcompiler::{compiler_for, CompileCache, CompileSession, Lang};

/// Mixed-case budget: clean templates + random code + probed mutants.
fn per_source_budget() -> usize {
    if cfg!(debug_assertions) {
        60 // tier-1 debug runs stay fast
    } else {
        1800 // 1800 × 2 models × 3 sources ≥ 10.8k mixed cases
    }
}

fn sources_for(model: DirectiveModel, seed: u64) -> Vec<Box<dyn CaseSource + Send>> {
    let n = per_source_budget();
    vec![
        Box::new(TemplateSource::new(model, seed).take(n)),
        Box::new(RandomCodeSource::new(model, seed ^ 0x5EED).take(n)),
        CorpusSpec::new(model)
            .seed(seed ^ 0xC0DE)
            .probe_seed(seed ^ 0xBEEF)
            .size(n)
            .source(),
    ]
}

#[test]
fn session_and_cached_compiles_match_fresh_compiles_on_mixed_corpus() {
    let mut total = 0usize;
    let mut compiled = 0usize;
    for model in [DirectiveModel::OpenAcc, DirectiveModel::OpenMp] {
        let fresh_compiler = compiler_for(model);
        // One long-lived session (shared interner, no cache) and one cached
        // session, both living across the whole corpus for this model.
        let mut session = CompileSession::for_model(model);
        let cache = CompileCache::shared();
        let mut cached = CompileSession::for_model(model).with_cache(Arc::clone(&cache));
        for mut source in sources_for(model, 0x5E_55) {
            while let Some(case) = source.next_case() {
                total += 1;
                let id = &case.case.id;
                let lang = case.case.lang;
                let fresh = fresh_compiler.compile(&case.source, lang);
                let shared = session.compile(&case.source, lang);
                let first = cached.compile(&case.source, lang); // touch (or hit)
                let second = cached.compile(&case.source, lang); // admitted (or hit)
                let third = cached.compile(&case.source, lang); // guaranteed hit
                assert!(
                    Arc::ptr_eq(&second, &third),
                    "{id}: third cached compile must be a hit sharing the admitted outcome"
                );
                for (label, other) in [("session", &shared), ("cache", &first)] {
                    assert_eq!(
                        fresh.return_code, other.return_code,
                        "{id}: {label} return code diverged"
                    );
                    assert_eq!(fresh.stdout, other.stdout, "{id}: {label} stdout diverged");
                    assert_eq!(fresh.stderr, other.stderr, "{id}: {label} stderr diverged");
                    assert_eq!(
                        fresh.diagnostics, other.diagnostics,
                        "{id}: {label} diagnostics diverged"
                    );
                    assert_eq!(
                        fresh.artifact.is_some(),
                        other.artifact.is_some(),
                        "{id}: {label} artifact presence diverged"
                    );
                    if let (Some(a), Some(b)) = (&fresh.artifact, &other.artifact) {
                        assert_eq!(a.model, b.model, "{id}: {label} model diverged");
                        assert_eq!(a.lang, b.lang, "{id}: {label} lang diverged");
                        assert_eq!(*a.unit, *b.unit, "{id}: {label} Program AST diverged");
                    }
                }
                if fresh.artifact.is_some() {
                    compiled += 1;
                }
            }
        }
        let stats = cache.stats();
        assert!(
            stats.hits * 2 >= stats.misses,
            "{model}: every case was compiled three times through the cached session \
             (touch, admit, hit), so hits ({}) must reach at least half the misses ({})",
            stats.hits,
            stats.misses
        );
    }
    assert!(
        compiled * 2 >= total,
        "corpus should mostly compile ({compiled}/{total})"
    );
}

#[test]
fn precomputed_code_signals_match_prompt_extraction_on_mixed_corpus() {
    use vv_judge::{
        build_prompt, JudgeProfile, PromptStyle, SurrogateLlmJudge, ToolContext, ToolRecord,
    };
    let judge = SurrogateLlmJudge::new(JudgeProfile::deepseek_agent_direct(), 0xACC);
    for model in [DirectiveModel::OpenAcc, DirectiveModel::OpenMp] {
        let compiler = compiler_for(model);
        for mut source in sources_for(model, 0x51_61) {
            while let Some(case) = source.next_case() {
                let id = &case.case.id;
                let outcome = compiler.compile(&case.source, case.case.lang);
                let tools = ToolContext {
                    compile: Some(ToolRecord {
                        return_code: outcome.return_code,
                        stdout: Arc::clone(&outcome.stdout).into(),
                        stderr: Arc::clone(&outcome.stderr).into(),
                    }),
                    run: None,
                };
                let code_signals = CodeSignals::of_source(&case.source, model);
                for style in [
                    PromptStyle::Direct,
                    PromptStyle::AgentDirect,
                    PromptStyle::AgentIndirect,
                ] {
                    let tool_arg = style.uses_tools().then_some(&tools);
                    let prompt = build_prompt(style, model, &case.source, tool_arg);
                    let scanned = extract_signals(&prompt, model);
                    let fast = code_signals.clone().with_tools(style, tool_arg);
                    assert_eq!(scanned, fast, "{id}/{style:?}: signal derivation diverged");
                    let slow_response = judge.complete(&prompt);
                    let fast_response =
                        judge.complete_with_signals(&prompt, model, &code_signals, style, tool_arg);
                    assert_eq!(
                        slow_response, fast_response,
                        "{id}/{style:?}: judge response diverged"
                    );
                }
            }
        }
    }
}

/// A compile backend that discards the precomputed signals, forcing the
/// judge back onto its prompt-scanning slow path.
struct SignalStrippingBackend(SimCompileBackend);

impl CompileBackend for SignalStrippingBackend {
    fn compile(&self, item: &WorkItem) -> CompileOutput {
        let mut out = self.0.compile(item);
        out.signals = None;
        out
    }

    fn name(&self) -> &'static str {
        "sim-compiler-no-signals"
    }
}

#[test]
fn service_records_are_identical_with_and_without_the_fast_paths() {
    let n = if cfg!(debug_assertions) { 80 } else { 2500 };
    for model in [DirectiveModel::OpenAcc, DirectiveModel::OpenMp] {
        let items: Vec<WorkItem> = CorpusSpec::new(model)
            .seed(0xFADE)
            .probe_seed(0x0DDB)
            .size(n)
            .source()
            .into_cases()
            .map(WorkItem::from)
            .collect();

        // Production configuration: cached compiles + precomputed signals.
        let fast_run = ValidationService::builder()
            .mode(PipelineMode::RecordAll)
            .build()
            .run(items.clone());
        // Slow reference: uncached compiles, judge re-scans every prompt.
        let slow_run = ValidationService::builder()
            .mode(PipelineMode::RecordAll)
            .compile_backend(SignalStrippingBackend(SimCompileBackend::uncached()))
            .build()
            .run(items);

        assert_eq!(
            fast_run.records, slow_run.records,
            "{model}: records diverged between fast and slow paths"
        );
        assert_eq!(
            fast_run.stats.judge_latency, slow_run.stats.judge_latency,
            "{model}: judge-latency histogram buckets diverged"
        );
        assert_eq!(fast_run.stats.judged, slow_run.stats.judged);
        assert_eq!(
            fast_run.stats.compile_failures,
            slow_run.stats.compile_failures
        );
    }
}

#[test]
fn lowered_artifacts_are_shared_across_cache_hits() {
    // A cache hit must reuse the artifact slot: lowering happens once per
    // distinct source no matter how many duplicate cases stream through.
    let source = "#include <stdlib.h>\nint main() { double a[8];\n#pragma acc parallel loop\nfor (int i = 0; i < 8; i++) { a[i] = i * 2.0; }\nreturn 0; }";
    let backend = SimCompileBackend::default();
    let item = WorkItem {
        id: "dup".into(),
        source: source.into(),
        lang: Lang::C,
        model: DirectiveModel::OpenAcc,
    };
    let _ = backend.compile(&item); // first touch: admission filter only
    let first = backend.compile(&item).artifact.expect("compiles"); // admitted
    let exec = vv_simexec::Executor::default();
    let _ = exec.run(&first); // fills the lowered-artifact slot
    let second = backend.compile(&item).artifact.expect("compiles"); // hit
    assert!(
        Arc::ptr_eq(&first.unit, &second.unit),
        "cache hit must share the AST"
    );
    // The lowered artifact is behind the same shared slot: priming it again
    // through the second handle must be a no-op returning the same object.
    let a = vv_simexec::lower_cached(&first);
    let b = vv_simexec::lower_cached(&second);
    assert!(Arc::ptr_eq(&a, &b), "cache hit must share lowered bytecode");
}
