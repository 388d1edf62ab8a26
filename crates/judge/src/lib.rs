//! `vv-judge` — the surrogate LLM-as-a-judge.
//!
//! The paper judges candidate compiler tests with DeepSeek's
//! `deepseek-coder-33B-instruct` model running on A100 GPUs. Those weights
//! (and the GPUs) are not available here, so this crate substitutes a
//! **surrogate judge** with the same external interface — *prompt text in,
//! response text out* — and a calibrated error profile:
//!
//! * [`prompt`] builds the exact prompt shapes of the paper's Listings 1–4:
//!   the criteria block, the *direct analysis* prompt (Part One), and the
//!   two agent-based prompts (*direct* → LLMJ 1, *indirect* → LLMJ 2) that
//!   embed compiler and runtime return codes / stdout / stderr;
//! * [`model`] extracts **code signals** from the prompt text alone
//!   (directive presence, bracket balance, suspect identifiers, corrupted
//!   directive keywords, missing allocations, missing verification logic,
//!   tool output parsing). Ground truth never reaches the judge;
//! * [`profile`] holds the per-signal reliabilities that reproduce the
//!   error profile the paper measured for deepseek-coder-33B-instruct
//!   (per-issue accuracy, overall accuracy and bias direction);
//! * [`parse`] recovers the `FINAL JUDGEMENT: ...` phrase from the response
//!   (both the `valid/invalid` and `correct/incorrect` variants);
//! * [`tokenizer`] and [`inference`] provide a token-count-based latency
//!   model so that pipeline throughput experiments remain meaningful;
//! * [`text`] holds [`Text`], the shared immutable text of prompts,
//!   responses and tool captures, which a decoded record can keep as
//!   ranges of its stored bytes.
//!
//! The decision layer is deterministic per (prompt, profile, seed), so every
//! experiment is reproducible.

pub mod inference;
pub mod model;
pub mod parse;
pub mod profile;
pub mod prompt;
pub mod text;
pub mod tokenizer;

pub use inference::InferenceCostModel;
pub use model::{extract_signals, CodeSignals, SurrogateLlmJudge};
pub use parse::{extract_verdict, Verdict};
pub use profile::{JudgeProfile, SignalReliability};
pub use prompt::{
    build_prompt, build_prompt_into, criteria_block, PromptStyle, ToolContext, ToolRecord,
};
pub use text::Text;
pub use tokenizer::estimate_tokens;

use vv_dclang::DirectiveModel;

/// Everything recorded about judging one file.
#[derive(Clone, Debug, PartialEq)]
pub struct JudgeOutcome {
    /// The prompt that was sent to the (surrogate) model.
    pub prompt: Text,
    /// The raw response text.
    pub response: Text,
    /// The verdict parsed from the response (`None` if the model failed to
    /// produce the required exact phrase).
    pub verdict: Option<Verdict>,
    /// Token count of the prompt.
    pub prompt_tokens: usize,
    /// Token count of the response.
    pub response_tokens: usize,
    /// Simulated inference latency in milliseconds.
    pub latency_ms: f64,
}

impl JudgeOutcome {
    /// The verdict, defaulting to `Invalid` when the model failed to emit the
    /// required phrase (the paper treats unparseable responses as failures of
    /// the evaluation, which in the pipeline means the file is not accepted).
    pub fn verdict_or_invalid(&self) -> Verdict {
        self.verdict.unwrap_or(Verdict::Invalid)
    }
}

/// A judging session: one prompt style bound to one surrogate model.
#[derive(Clone, Debug)]
pub struct JudgeSession {
    /// The underlying text-in/text-out model.
    pub judge: SurrogateLlmJudge,
    /// The prompt style used for every file.
    pub style: PromptStyle,
    /// Cost model used to estimate latency.
    pub cost: InferenceCostModel,
}

impl JudgeSession {
    /// Create a session.
    pub fn new(judge: SurrogateLlmJudge, style: PromptStyle) -> Self {
        Self {
            judge,
            style,
            cost: InferenceCostModel::deepseek_33b_a100(),
        }
    }

    /// Judge one source file. `tools` carries the compiler/runtime outputs
    /// for the agent-based prompt styles and must be `None` for
    /// [`PromptStyle::Direct`].
    pub fn evaluate(
        &self,
        source: &str,
        model: DirectiveModel,
        tools: Option<&ToolContext>,
    ) -> JudgeOutcome {
        self.evaluate_precomputed(source, model, tools, None)
    }

    /// Judge one source file, optionally reusing code signals precomputed
    /// from the source (see [`CodeSignals::of_source`]); the compile stage
    /// computes these once per distinct source, so the judge skips its
    /// line-by-line re-scan of the rendered prompt. Outcomes are identical
    /// to [`JudgeSession::evaluate`] either way.
    pub fn evaluate_precomputed(
        &self,
        source: &str,
        model: DirectiveModel,
        tools: Option<&ToolContext>,
        code_signals: Option<&CodeSignals>,
    ) -> JudgeOutcome {
        let prompt = build_prompt(self.style, model, source, tools);
        let response = match code_signals {
            Some(signals) => self
                .judge
                .complete_with_signals(&prompt, model, signals, self.style, tools),
            None => self.judge.complete(&prompt),
        };
        let verdict = extract_verdict(&response);
        let prompt_tokens = estimate_tokens(&prompt);
        let response_tokens = estimate_tokens(&response);
        let latency_ms = self.cost.latency_ms(prompt_tokens, response_tokens);
        JudgeOutcome {
            prompt: prompt.into(),
            response: response.into(),
            verdict,
            prompt_tokens,
            response_tokens,
            latency_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALID_ACC: &str = r#"
#include <stdio.h>
#include <stdlib.h>
#define N 64
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

    #[test]
    fn session_produces_a_parseable_verdict() {
        let judge = SurrogateLlmJudge::new(JudgeProfile::deepseek_agent_direct(), 7);
        let session = JudgeSession::new(judge, PromptStyle::AgentDirect);
        let tools = ToolContext {
            compile: Some(ToolRecord {
                return_code: 0,
                stdout: "".into(),
                stderr: "".into(),
            }),
            run: Some(ToolRecord {
                return_code: 0,
                stdout: "Test passed\n".into(),
                stderr: "".into(),
            }),
        };
        let outcome = session.evaluate(VALID_ACC, DirectiveModel::OpenAcc, Some(&tools));
        assert!(outcome.verdict.is_some(), "response: {}", outcome.response);
        assert!(outcome.prompt.contains("FINAL JUDGEMENT"));
        assert!(outcome.prompt_tokens > 50);
        assert!(outcome.latency_ms > 0.0);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let judge = SurrogateLlmJudge::new(JudgeProfile::deepseek_plain(), 3);
        let session = JudgeSession::new(judge, PromptStyle::Direct);
        let a = session.evaluate(VALID_ACC, DirectiveModel::OpenAcc, None);
        let b = session.evaluate(VALID_ACC, DirectiveModel::OpenAcc, None);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.response, b.response);
    }
}
