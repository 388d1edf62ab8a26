//! Negative probing walkthrough: take one valid OpenMP test, apply every
//! mutation class to it, and show what the simulated compiler, the execution
//! substrate and the surrogate judge each observe.
//!
//! ```text
//! cargo run --release --example negative_probing
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use vv_corpus::{CaseSource, TemplateSource};
use vv_dclang::DirectiveModel;
use vv_judge::{
    JudgeProfile, JudgeSession, PromptStyle, SurrogateLlmJudge, ToolContext, ToolRecord,
};
use vv_probing::{apply_mutation, IssueKind};
use vv_simcompiler::compiler_for;
use vv_simexec::Executor;

fn main() {
    let case = TemplateSource::new(DirectiveModel::OpenMp, 2024)
        .into_cases()
        .next()
        .expect("the template source is unbounded")
        .case;
    let case = &case;
    println!("=== original test ({}) ===\n{}\n", case.id, case.source);

    let compiler = compiler_for(DirectiveModel::OpenMp);
    let executor = Executor::default();
    let judge = JudgeSession::new(
        SurrogateLlmJudge::new(JudgeProfile::deepseek_agent_direct(), 99),
        PromptStyle::AgentDirect,
    );
    let mut rng = StdRng::seed_from_u64(7);

    for issue in IssueKind::ALL {
        let mutated = apply_mutation(case, issue, &mut rng);
        let compiled = compiler.compile(&mutated.source, case.lang);
        let exec = compiled
            .artifact
            .as_ref()
            .map(|program| executor.run(program));
        let tools = ToolContext {
            compile: Some(ToolRecord {
                return_code: compiled.return_code,
                stdout: std::sync::Arc::clone(&compiled.stdout).into(),
                stderr: std::sync::Arc::clone(&compiled.stderr).into(),
            }),
            run: exec.as_ref().map(|e| ToolRecord {
                return_code: e.return_code,
                stdout: e.stdout.as_str().into(),
                stderr: e.stderr.as_str().into(),
            }),
        };
        let judgement = judge.evaluate(&mutated.source, DirectiveModel::OpenMp, Some(&tools));

        println!("--- issue {} ({:?}) ---", issue.id(), issue);
        println!("mutation: {}", mutated.note);
        println!("compiler: return code {}", compiled.return_code);
        match &exec {
            Some(outcome) => println!("runtime : return code {}", outcome.return_code),
            None => println!("runtime : not executed (compilation failed)"),
        }
        println!(
            "judge   : {:?} (ground truth: {})",
            judgement.verdict,
            if issue.is_valid() { "valid" } else { "invalid" }
        );
        println!();
    }
}
