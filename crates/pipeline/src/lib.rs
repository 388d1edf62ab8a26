//! `vv-pipeline` — the validation service (Figure 2 of the paper).
//!
//! Candidate test files flow through three stages:
//!
//! 1. **Compile** — by default the simulated vendor compiler for the file's
//!    model;
//! 2. **Execute** — by default the deterministic execution substrate, only
//!    for files that compiled;
//! 3. **Judge** — by default an agent-based surrogate LLM judge whose
//!    prompt embeds the compiler/runtime outputs collected by the earlier
//!    stages.
//!
//! # Trait-based design
//!
//! Every stage is an object-safe trait — [`backend::CompileBackend`],
//! [`backend::ExecBackend`], [`backend::JudgeBackend`] — so alternative
//! implementations (a real compiler shell-out, a caching executor, a second
//! judge profile) plug into the same runner. The simulated substrates are
//! just the default impls.
//!
//! A single [`ValidationService`], built via [`ValidationServiceBuilder`],
//! runs every case through one stage-rules function on the executor of
//! [`parallel`], whose workers each take whole cases through every stage;
//! [`ExecutionStrategy`] only sets its worker count, and records are
//! identical at every worker count.
//!
//! Results come in two shapes: a batch [`ValidationService::run`] returning
//! a [`PipelineRun`], and a streaming [`ValidationService::submit`]
//! returning an iterator that yields each [`CaseRecord`] in submission
//! order while input is pulled lazily under a bounded in-flight window —
//! constant memory for arbitrarily large suites. External schedulers run
//! single cases through [`ValidationService::process_case`] under the same
//! stage rules. Corpus pipelines plug in directly through
//! [`ValidationService::submit_source`], which drains any
//! `vv_corpus::CaseSource` lazily, so generation → probing → compile →
//! execute → judge streams end-to-end without ever materializing the suite.
//!
//! ```
//! use vv_pipeline::{ExecutionStrategy, PipelineMode, ValidationService, WorkItem};
//! use vv_dclang::DirectiveModel;
//! use vv_simcompiler::Lang;
//!
//! let service = ValidationService::builder()
//!     .mode(PipelineMode::EarlyExit)
//!     .strategy(ExecutionStrategy::Pipelined { workers: 2 })
//!     .build();
//!
//! let items = vec![WorkItem {
//!     id: "demo".into(),
//!     source: "int main() { return 0; }".into(),
//!     lang: Lang::C,
//!     model: DirectiveModel::OpenAcc,
//! }];
//!
//! // Streaming: records arrive in submission order.
//! for record in service.submit(items.clone()) {
//!     println!("{} -> {:?}", record.id, record.pipeline_verdict());
//! }
//!
//! // Batch: records in submission order plus aggregate stats.
//! let run = service.run(items);
//! assert_eq!(run.stats.submitted, 1);
//! ```
//!
//! Two modes are supported:
//!
//! * [`PipelineMode::EarlyExit`] — production behaviour: a file that fails
//!   an earlier stage is already known to be invalid and never reaches the
//!   (much more expensive) later stages;
//! * [`PipelineMode::RecordAll`] — the paper's experimental behaviour: every
//!   file is compiled, executed (when possible) and judged, so that the
//!   stand-alone agent-judge accuracy and the pipeline accuracy can both be
//!   computed retroactively from one run.

pub mod backend;
pub mod parallel;
pub mod persist;
pub mod runner;
pub mod service;
mod stage;
pub mod stats;

pub use backend::{
    CompileBackend, CompileOutput, ExecBackend, JudgeBackend, PacedJudge, SimCompileBackend,
    SimExecBackend, SurrogateJudgeBackend,
};
pub use persist::{decode_record, encode_record, RecordStore};
pub use runner::PipelineRun;
pub use service::{ExecutionStrategy, RecordStream, ValidationService, ValidationServiceBuilder};
pub use stats::PipelineStats;

use vv_dclang::DirectiveModel;
use vv_judge::{JudgeOutcome, JudgeProfile, PromptStyle, Text, Verdict};
use vv_simcompiler::Lang;

/// One file queued for validation.
#[derive(Clone, Debug)]
pub struct WorkItem {
    /// Stable identifier (used to join records back to probing metadata).
    pub id: String,
    /// Source text.
    pub source: String,
    /// Language flavor.
    pub lang: Lang,
    /// Programming model (selects the compiler and the prompt wording).
    pub model: DirectiveModel,
}

impl From<vv_corpus::GeneratedCase> for WorkItem {
    /// Queue a streamed corpus case: the (possibly mutated) source text
    /// under the original case's identity. Probing provenance does not
    /// travel with the item — join it back by id, or capture it off the
    /// stream with the source's `inspect` adapter.
    fn from(case: vv_corpus::GeneratedCase) -> Self {
        WorkItem {
            id: case.case.id,
            source: case.source,
            lang: case.case.lang,
            model: case.case.model,
        }
    }
}

/// Compiler stage result kept in the record (the full artifact is dropped
/// once the later stages have used it).
///
/// Captures are shared [`Text`] so the record, the judge's tool context and
/// any metrics consumers share one buffer (a replayed record's captures are
/// ranges of its stored bytes); equality is still by content, so the
/// byte-identity laws are unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileSummary {
    /// Compiler exit code.
    pub return_code: i32,
    /// Captured stdout.
    pub stdout: Text,
    /// Captured stderr.
    pub stderr: Text,
    /// True if an artifact was produced.
    pub succeeded: bool,
}

/// Execution stage result kept in the record.
///
/// Captures are shared [`Text`], like [`CompileSummary`]'s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecSummary {
    /// Program exit code.
    pub return_code: i32,
    /// Captured stdout.
    pub stdout: Text,
    /// Captured stderr.
    pub stderr: Text,
    /// True if the program exited with code 0.
    pub passed: bool,
}

/// How far a file progressed through the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Rejected (or recorded) at the compile stage.
    Compile,
    /// Rejected (or recorded) at the execution stage.
    Execute,
    /// Reached the judge stage.
    Judge,
}

/// Everything recorded about one file's trip through the pipeline.
/// Equality is byte-for-byte over every captured field, which is what the
/// worker-count parity tests assert.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseRecord {
    /// The work item's identifier.
    pub id: String,
    /// Compile stage result.
    pub compile: CompileSummary,
    /// Execution stage result (absent if the file never compiled, or if the
    /// pipeline early-exited before this stage).
    pub exec: Option<ExecSummary>,
    /// Judge stage result (absent if the pipeline early-exited first).
    pub judgement: Option<JudgeOutcome>,
}

impl CaseRecord {
    /// The judge's own verdict, if the file was judged.
    pub fn judge_verdict(&self) -> Option<Verdict> {
        self.judgement
            .as_ref()
            .map(JudgeOutcome::verdict_or_invalid)
    }

    /// The verdict of the *pipeline as a whole*: a file is accepted only if
    /// it compiled, ran successfully, and the judge deemed it valid.
    pub fn pipeline_verdict(&self) -> Verdict {
        if !self.compile.succeeded {
            return Verdict::Invalid;
        }
        match &self.exec {
            Some(exec) if exec.passed => {}
            _ => return Verdict::Invalid,
        }
        match self.judge_verdict() {
            Some(Verdict::Valid) => Verdict::Valid,
            _ => Verdict::Invalid,
        }
    }

    /// The last stage that actually processed this file.
    pub fn stage_reached(&self) -> Stage {
        if self.judgement.is_some() {
            Stage::Judge
        } else if self.exec.is_some() {
            Stage::Execute
        } else {
            Stage::Compile
        }
    }
}

/// Early-exit (production) vs record-all (experimental) behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineMode {
    /// Files that fail a stage skip the remaining stages.
    EarlyExit,
    /// Every file is run through every stage that is physically possible
    /// (a file that does not compile still cannot be executed, but it is
    /// still judged).
    RecordAll,
}

/// Configuration of a validation pipeline.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Minimum in-flight window of streamed runs (backpressure): cases
    /// pulled but not yet yielded.
    pub channel_capacity: usize,
    /// Early-exit or record-all.
    pub mode: PipelineMode,
    /// Prompt style for the judge stage.
    pub judge_style: PromptStyle,
    /// Calibration profile of the judge.
    pub judge_profile: JudgeProfile,
    /// Seed for the judge's decision layer.
    pub judge_seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            channel_capacity: 64,
            mode: PipelineMode::EarlyExit,
            judge_style: PromptStyle::AgentDirect,
            judge_profile: JudgeProfile::deepseek_agent_direct(),
            judge_seed: 0xACC0_11AB,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_ok() -> CompileSummary {
        CompileSummary {
            return_code: 0,
            stdout: "".into(),
            stderr: "".into(),
            succeeded: true,
        }
    }

    fn exec_ok() -> ExecSummary {
        ExecSummary {
            return_code: 0,
            stdout: "Test passed\n".into(),
            stderr: "".into(),
            passed: true,
        }
    }

    fn judgement(valid: bool) -> JudgeOutcome {
        JudgeOutcome {
            prompt: Text::default(),
            response: if valid {
                "FINAL JUDGEMENT: valid"
            } else {
                "FINAL JUDGEMENT: invalid"
            }
            .into(),
            verdict: Some(if valid {
                Verdict::Valid
            } else {
                Verdict::Invalid
            }),
            prompt_tokens: 10,
            response_tokens: 5,
            latency_ms: 1.0,
        }
    }

    #[test]
    fn pipeline_verdict_requires_all_stages_to_pass() {
        let record = CaseRecord {
            id: "t".into(),
            compile: compile_ok(),
            exec: Some(exec_ok()),
            judgement: Some(judgement(true)),
        };
        assert_eq!(record.pipeline_verdict(), Verdict::Valid);
        assert_eq!(record.stage_reached(), Stage::Judge);

        let failed_compile = CaseRecord {
            compile: CompileSummary {
                return_code: 2,
                succeeded: false,
                stdout: "".into(),
                stderr: "error".into(),
            },
            exec: None,
            judgement: None,
            id: "t".into(),
        };
        assert_eq!(failed_compile.pipeline_verdict(), Verdict::Invalid);
        assert_eq!(failed_compile.stage_reached(), Stage::Compile);

        let failed_exec = CaseRecord {
            id: "t".into(),
            compile: compile_ok(),
            exec: Some(ExecSummary {
                return_code: 1,
                stdout: "".into(),
                stderr: "".into(),
                passed: false,
            }),
            judgement: None,
        };
        assert_eq!(failed_exec.pipeline_verdict(), Verdict::Invalid);

        let judge_rejected = CaseRecord {
            id: "t".into(),
            compile: compile_ok(),
            exec: Some(exec_ok()),
            judgement: Some(judgement(false)),
        };
        assert_eq!(judge_rejected.pipeline_verdict(), Verdict::Invalid);
    }

    #[test]
    fn config_builders() {
        let service = ValidationService::builder()
            .mode(PipelineMode::RecordAll)
            .judge_style(PromptStyle::AgentIndirect)
            .judge_profile(JudgeProfile::deepseek_agent_indirect())
            .build();
        let config = service.config();
        assert_eq!(config.mode, PipelineMode::RecordAll);
        assert_eq!(config.judge_style, PromptStyle::AgentIndirect);
        assert_eq!(
            config.judge_profile,
            JudgeProfile::deepseek_agent_indirect()
        );
    }
}
