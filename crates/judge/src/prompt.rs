//! Prompt templates.
//!
//! These mirror the paper's Listings 1–4 verbatim in structure:
//!
//! * [`criteria_block`] — the six evaluation criteria (Listing 1);
//! * [`PromptStyle::Direct`] — the *direct analysis* prompt used in Part One
//!   (Listing 3, `FINAL JUDGEMENT: correct/incorrect`);
//! * [`PromptStyle::AgentDirect`] — the agent-based prompt that embeds
//!   compiler and runtime outputs (Listing 2, `valid/invalid`) → LLMJ 1;
//! * [`PromptStyle::AgentIndirect`] — the *indirect analysis* prompt that
//!   first asks for a description of the program (Listing 4) → LLMJ 2.
//!
//! # Allocation discipline
//!
//! Every static stretch of a prompt — the criteria, the instruction
//! paragraphs, the tool-section headers — is identical for a given
//! `(style, model)` pair, so those segments are rendered once per process
//! into a memoized template table. Building a prompt is then one
//! exact-capacity `String` allocation plus `push_str`s of the dynamic holes
//! (tool outputs and the source text); [`build_prompt_into`] appends into a
//! caller-provided buffer for paths that want to reuse one.

use std::fmt::Write as _;
use std::sync::OnceLock;
use vv_dclang::DirectiveModel;

use crate::text::Text;

/// Which prompt template to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PromptStyle {
    /// Listing 3: direct review of the code, no tool information.
    Direct,
    /// Listing 2: agent-based prompt with tool information, direct analysis.
    AgentDirect,
    /// Listing 4: agent-based prompt with tool information, indirect
    /// (describe-then-judge) analysis.
    AgentIndirect,
}

impl PromptStyle {
    /// Short name used in reports ("LLMJ 1"/"LLMJ 2" terminology follows the
    /// paper's Part Two).
    pub fn label(&self) -> &'static str {
        match self {
            PromptStyle::Direct => "direct (non-agent) LLMJ",
            PromptStyle::AgentDirect => "LLMJ 1 (agent, direct analysis)",
            PromptStyle::AgentIndirect => "LLMJ 2 (agent, indirect analysis)",
        }
    }

    /// True for the agent-based styles that embed tool outputs.
    pub fn uses_tools(&self) -> bool {
        !matches!(self, PromptStyle::Direct)
    }
}

/// Captured output of one external tool invocation (compiler or program).
///
/// The capture text is shared ([`Text`]) rather than owned: the pipeline
/// records keep the same captures, so building a judge context is two
/// reference-count bumps instead of two string copies per tool.
#[derive(Clone, Debug, Default)]
pub struct ToolRecord {
    /// Process exit code.
    pub return_code: i32,
    /// Captured standard output.
    pub stdout: Text,
    /// Captured standard error.
    pub stderr: Text,
}

/// The tool information available to an agent-based judge.
#[derive(Clone, Debug, Default)]
pub struct ToolContext {
    /// Compilation record, if the file was compiled.
    pub compile: Option<ToolRecord>,
    /// Execution record, if the compiled file was run.
    pub run: Option<ToolRecord>,
}

/// The static stretches of a `(style, model)` prompt: everything before the
/// tool section and everything between the tool section and the source.
/// For [`PromptStyle::Direct`] (no tool section) the whole preamble lives in
/// `head` and `tail` is empty.
struct PromptTemplate {
    head: String,
    tail: String,
}

/// The evaluation criteria of Listing 1, instantiated for a model.
pub fn criteria_block(model: DirectiveModel) -> String {
    criteria_static(model).to_string()
}

fn criteria_static(model: DirectiveModel) -> &'static str {
    static CELLS: [OnceLock<String>; 2] = [OnceLock::new(), OnceLock::new()];
    CELLS[model_index(model)].get_or_init(|| {
        let name = model.display_name();
        format!(
            "Syntax: Ensure all {name} directives and pragmas are syntactically correct.\n\
             Directive Appropriateness: Check if the right directives are used for the intended parallel computations.\n\
             Clause Correctness: Verify that all clauses within the directives are correctly used according to {name} specifications.\n\
             Memory Management: Assess the accuracy of data movement between CPU and GPU.\n\
             Compliance: Ensure the code adheres to the latest {name} specifications and best practices.\n\
             Logic: Verify that the logic of the test (e.g. performing the same computation in serial and parallel and comparing) is correct.\n"
        )
    })
}

fn model_index(model: DirectiveModel) -> usize {
    match model {
        DirectiveModel::OpenAcc => 0,
        DirectiveModel::OpenMp => 1,
    }
}

fn style_index(style: PromptStyle) -> usize {
    match style {
        PromptStyle::Direct => 0,
        PromptStyle::AgentDirect => 1,
        PromptStyle::AgentIndirect => 2,
    }
}

fn template(style: PromptStyle, model: DirectiveModel) -> &'static PromptTemplate {
    #[allow(clippy::declare_interior_mutable_const)]
    const CELL: OnceLock<PromptTemplate> = OnceLock::new();
    static CELLS: [OnceLock<PromptTemplate>; 6] = [CELL; 6];
    CELLS[style_index(style) * 2 + model_index(model)].get_or_init(|| build_template(style, model))
}

fn build_template(style: PromptStyle, model: DirectiveModel) -> PromptTemplate {
    let name = model.display_name();
    let criteria = criteria_static(model);
    match style {
        PromptStyle::Direct => PromptTemplate {
            head: format!(
                "Review the following {name} code and evaluate it based on the following criteria:\n\n\
                 {criteria}\
                 Based on these criteria, evaluate the code in a brief summary, then respond with precisely \"FINAL JUDGEMENT: correct\" (or incorrect).\n\
                 You MUST include the exact phrase \"FINAL JUDGEMENT: correct\" in your evaluation if you believe the code is correct. Otherwise, you must include the phrase \"FINAL JUDGEMENT: incorrect\" in your evaluation.\n\
                 Here is the code:\n"
            ),
            tail: String::new(),
        },
        PromptStyle::AgentDirect => PromptTemplate {
            head: format!(
                "{criteria}\
                 Based on these criteria, evaluate the code and determine if it is a valid or invalid test. Think step by step.\n\
                 You MUST include the exact phrase, \"FINAL JUDGEMENT: valid\" in your response if you deem the test to be valid.\n\
                 If you deem the test to be invalid, include the exact phrase \"FINAL JUDGEMENT: invalid\" in your response instead.\n\
                 Here is some information about the code to help you.\n\
                 When compiled with a compliant {name} compiler, the below code causes the following outputs:\n"
            ),
            tail: "Here is the code:\n".to_string(),
        },
        PromptStyle::AgentIndirect => PromptTemplate {
            head: format!(
                "Describe what the below {name} program will do when run. Think step by step.\n\
                 Here is some information about the code to help you; you do not have to compile or run the code yourself.\n\
                 When compiled with a compliant {name} compiler, the below code causes the following outputs:\n"
            ),
            tail: format!(
                "Using this information, describe in full detail how the below code works, what the below code will do when run, and suggest why the below code might have been written this way.\n\
                 Then, based on that description, determine whether the described program would be a valid or invalid compiler test for {name} compilers.\n\
                 You MUST include the exact phrase \"FINAL JUDGEMENT: valid\" in your final response if you believe that your description of the below {name} code describes a valid compiler test; otherwise, your final response MUST include the exact phrase \"FINAL JUDGEMENT: invalid\".\n\
                 Here is the code for you to analyze:\n"
            ),
        },
    }
}

/// Append the dynamic interior of the tool section (everything after the
/// memoized "When compiled with ..." header line, which lives in the
/// template head).
fn write_tool_dynamics(out: &mut String, tools: Option<&ToolContext>) {
    static EMPTY: OnceLock<ToolRecord> = OnceLock::new();
    let empty = EMPTY.get_or_init(ToolRecord::default);
    let compile = tools.and_then(|t| t.compile.as_ref()).unwrap_or(empty);
    let run = tools.and_then(|t| t.run.as_ref()).unwrap_or(empty);
    out.push_str("Compiler return code: ");
    let _ = write!(out, "{}", compile.return_code);
    out.push_str("\nCompiler STDERR: ");
    out.push_str(compile.stderr.trim_end());
    out.push_str("\nCompiler STDOUT: ");
    out.push_str(compile.stdout.trim_end());
    out.push_str("\nWhen the compiled code is run, it gives the following results:\nReturn code: ");
    let _ = write!(out, "{}", run.return_code);
    out.push_str("\nSTDERR: ");
    out.push_str(run.stderr.trim_end());
    out.push_str("\nSTDOUT: ");
    out.push_str(run.stdout.trim_end());
    out.push('\n');
}

/// Build the full prompt for a file.
///
/// `tools` must be provided for the agent-based styles; it is ignored for
/// [`PromptStyle::Direct`]. The returned string is built with exact-enough
/// capacity in a single allocation.
pub fn build_prompt(
    style: PromptStyle,
    model: DirectiveModel,
    source: &str,
    tools: Option<&ToolContext>,
) -> String {
    let tpl = template(style, model);
    let tool_len = tools.map_or(0, |t| {
        t.compile
            .as_ref()
            .map_or(0, |r| r.stdout.len() + r.stderr.len())
            + t.run
                .as_ref()
                .map_or(0, |r| r.stdout.len() + r.stderr.len())
    });
    let mut out =
        String::with_capacity(tpl.head.len() + tpl.tail.len() + source.len() + tool_len + 160);
    build_prompt_into(&mut out, style, model, source, tools);
    out
}

/// Append the full prompt for a file to `out` (see [`build_prompt`]).
pub fn build_prompt_into(
    out: &mut String,
    style: PromptStyle,
    model: DirectiveModel,
    source: &str,
    tools: Option<&ToolContext>,
) {
    let tpl = template(style, model);
    out.push_str(&tpl.head);
    if style.uses_tools() {
        write_tool_dynamics(out, tools);
        out.push_str(&tpl.tail);
    }
    out.push_str(source);
}

#[cfg(test)]
mod tests {
    use super::*;

    const CODE: &str = "int main() { return 0; }";

    /// The pre-memoization implementation, kept verbatim as the reference
    /// for byte-identical prompt construction.
    mod legacy {
        use super::*;

        pub fn criteria_block(model: DirectiveModel) -> String {
            let name = model.display_name();
            format!(
                "Syntax: Ensure all {name} directives and pragmas are syntactically correct.\n\
                 Directive Appropriateness: Check if the right directives are used for the intended parallel computations.\n\
                 Clause Correctness: Verify that all clauses within the directives are correctly used according to {name} specifications.\n\
                 Memory Management: Assess the accuracy of data movement between CPU and GPU.\n\
                 Compliance: Ensure the code adheres to the latest {name} specifications and best practices.\n\
                 Logic: Verify that the logic of the test (e.g. performing the same computation in serial and parallel and comparing) is correct.\n"
            )
        }

        fn tool_section(model: DirectiveModel, tools: Option<&ToolContext>) -> String {
            let name = model.display_name();
            let empty = ToolRecord::default();
            let compile = tools.and_then(|t| t.compile.as_ref()).unwrap_or(&empty);
            let run = tools.and_then(|t| t.run.as_ref()).unwrap_or(&empty);
            let mut s = String::new();
            let _ = writeln!(
                s,
                "When compiled with a compliant {name} compiler, the below code causes the following outputs:"
            );
            let _ = writeln!(s, "Compiler return code: {}", compile.return_code);
            let _ = writeln!(s, "Compiler STDERR: {}", compile.stderr.trim_end());
            let _ = writeln!(s, "Compiler STDOUT: {}", compile.stdout.trim_end());
            let _ = writeln!(
                s,
                "When the compiled code is run, it gives the following results:"
            );
            let _ = writeln!(s, "Return code: {}", run.return_code);
            let _ = writeln!(s, "STDERR: {}", run.stderr.trim_end());
            let _ = writeln!(s, "STDOUT: {}", run.stdout.trim_end());
            s
        }

        pub fn build_prompt(
            style: PromptStyle,
            model: DirectiveModel,
            source: &str,
            tools: Option<&ToolContext>,
        ) -> String {
            let name = model.display_name();
            let criteria = criteria_block(model);
            match style {
                PromptStyle::Direct => format!(
                    "Review the following {name} code and evaluate it based on the following criteria:\n\n\
                     {criteria}\
                     Based on these criteria, evaluate the code in a brief summary, then respond with precisely \"FINAL JUDGEMENT: correct\" (or incorrect).\n\
                     You MUST include the exact phrase \"FINAL JUDGEMENT: correct\" in your evaluation if you believe the code is correct. Otherwise, you must include the phrase \"FINAL JUDGEMENT: incorrect\" in your evaluation.\n\
                     Here is the code:\n{source}"
                ),
                PromptStyle::AgentDirect => format!(
                    "{criteria}\
                     Based on these criteria, evaluate the code and determine if it is a valid or invalid test. Think step by step.\n\
                     You MUST include the exact phrase, \"FINAL JUDGEMENT: valid\" in your response if you deem the test to be valid.\n\
                     If you deem the test to be invalid, include the exact phrase \"FINAL JUDGEMENT: invalid\" in your response instead.\n\
                     Here is some information about the code to help you.\n\
                     {tool_info}\
                     Here is the code:\n{source}",
                    tool_info = tool_section(model, tools),
                ),
                PromptStyle::AgentIndirect => format!(
                    "Describe what the below {name} program will do when run. Think step by step.\n\
                     Here is some information about the code to help you; you do not have to compile or run the code yourself.\n\
                     {tool_info}\
                     Using this information, describe in full detail how the below code works, what the below code will do when run, and suggest why the below code might have been written this way.\n\
                     Then, based on that description, determine whether the described program would be a valid or invalid compiler test for {name} compilers.\n\
                     You MUST include the exact phrase \"FINAL JUDGEMENT: valid\" in your final response if you believe that your description of the below {name} code describes a valid compiler test; otherwise, your final response MUST include the exact phrase \"FINAL JUDGEMENT: invalid\".\n\
                     Here is the code for you to analyze:\n{source}",
                    tool_info = tool_section(model, tools),
                ),
            }
        }
    }

    fn sample_tools() -> ToolContext {
        ToolContext {
            compile: Some(ToolRecord {
                return_code: 2,
                stdout: "compile out\n".into(),
                stderr: "NVC++-S-0155-bad (test.c: 9)\nsecond line\n".into(),
            }),
            run: Some(ToolRecord {
                return_code: 139,
                stdout: "partial output".into(),
                stderr: "Segmentation fault".into(),
            }),
        }
    }

    #[test]
    fn memoized_prompts_are_byte_identical_to_legacy() {
        let tool_variants: [Option<ToolContext>; 3] = [
            None,
            Some(sample_tools()),
            Some(ToolContext {
                compile: Some(ToolRecord::default()),
                run: None,
            }),
        ];
        for style in [
            PromptStyle::Direct,
            PromptStyle::AgentDirect,
            PromptStyle::AgentIndirect,
        ] {
            for model in [DirectiveModel::OpenAcc, DirectiveModel::OpenMp] {
                for tools in &tool_variants {
                    let new = build_prompt(style, model, CODE, tools.as_ref());
                    let old = legacy::build_prompt(style, model, CODE, tools.as_ref());
                    assert_eq!(new, old, "divergence for {style:?}/{model:?}");
                }
                assert_eq!(criteria_block(model), legacy::criteria_block(model));
            }
        }
    }

    #[test]
    fn build_prompt_into_appends() {
        let mut buf = String::from("PREFIX|");
        build_prompt_into(
            &mut buf,
            PromptStyle::Direct,
            DirectiveModel::OpenAcc,
            CODE,
            None,
        );
        assert!(buf.starts_with("PREFIX|Review the following OpenACC code"));
    }

    #[test]
    fn criteria_mention_all_six_axes() {
        for model in [DirectiveModel::OpenAcc, DirectiveModel::OpenMp] {
            let c = criteria_block(model);
            for axis in [
                "Syntax:",
                "Directive Appropriateness:",
                "Clause Correctness:",
                "Memory Management:",
                "Compliance:",
                "Logic:",
            ] {
                assert!(c.contains(axis), "missing {axis}");
            }
            assert!(c.contains(model.display_name()));
        }
    }

    #[test]
    fn direct_prompt_uses_correct_incorrect_phrasing() {
        let p = build_prompt(PromptStyle::Direct, DirectiveModel::OpenAcc, CODE, None);
        assert!(p.contains("FINAL JUDGEMENT: correct"));
        assert!(p.contains("FINAL JUDGEMENT: incorrect"));
        assert!(!p.contains("Compiler return code"));
        assert!(p.contains("Here is the code:"));
        assert!(p.ends_with(CODE));
    }

    #[test]
    fn agent_prompts_embed_tool_outputs() {
        let tools = ToolContext {
            compile: Some(ToolRecord {
                return_code: 2,
                stdout: "".into(),
                stderr: "NVC++-S-0155-bad".into(),
            }),
            run: Some(ToolRecord {
                return_code: 0,
                stdout: "Test passed".into(),
                stderr: "".into(),
            }),
        };
        for style in [PromptStyle::AgentDirect, PromptStyle::AgentIndirect] {
            let p = build_prompt(style, DirectiveModel::OpenAcc, CODE, Some(&tools));
            assert!(p.contains("Compiler return code: 2"));
            assert!(p.contains("NVC++-S-0155-bad"));
            assert!(p.contains("Return code: 0"));
            assert!(p.contains("Test passed"));
            assert!(p.contains("FINAL JUDGEMENT: valid"));
            assert!(p.contains("FINAL JUDGEMENT: invalid"));
        }
    }

    #[test]
    fn indirect_prompt_asks_for_a_description_first() {
        let p = build_prompt(
            PromptStyle::AgentIndirect,
            DirectiveModel::OpenMp,
            CODE,
            None,
        );
        assert!(p.starts_with("Describe what the below OpenMP program will do when run."));
        assert!(p.contains("valid or invalid compiler test for OpenMP compilers"));
    }

    #[test]
    fn style_labels_and_tool_usage() {
        assert!(!PromptStyle::Direct.uses_tools());
        assert!(PromptStyle::AgentDirect.uses_tools());
        assert!(PromptStyle::AgentIndirect.uses_tools());
        assert!(PromptStyle::AgentDirect.label().contains("LLMJ 1"));
        assert!(PromptStyle::AgentIndirect.label().contains("LLMJ 2"));
    }

    #[test]
    fn missing_tool_context_renders_zero_return_codes() {
        let p = build_prompt(PromptStyle::AgentDirect, DirectiveModel::OpenMp, CODE, None);
        assert!(p.contains("Compiler return code: 0"));
    }
}
