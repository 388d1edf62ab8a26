//! Workspace-level integration tests: the paper's headline qualitative
//! findings must hold for the reproduction (the *shape* of Tables I–IX).

use llm4vv::experiment::{
    fold_probed_source, stream_part_one, stream_part_two, Evaluator, PartOneConfig, PartOneMetrics,
    PartTwoConfig, PartTwoMetrics,
};
use vv_probing::IssueKind;

fn acc_part_one() -> PartOneMetrics {
    stream_part_one(&PartOneConfig {
        suite_size: 160,
        ..PartOneConfig::paper_openacc()
    })
}

fn omp_part_one() -> PartOneMetrics {
    stream_part_one(&PartOneConfig {
        suite_size: 140,
        ..PartOneConfig::paper_openmp()
    })
}

fn acc_part_two_config() -> PartTwoConfig {
    PartTwoConfig {
        suite_size: 180,
        ..PartTwoConfig::paper_openacc()
    }
}

fn acc_part_two() -> PartTwoMetrics {
    stream_part_two(&acc_part_two_config())
}

fn omp_part_two() -> PartTwoMetrics {
    stream_part_two(&PartTwoConfig {
        suite_size: 150,
        ..PartTwoConfig::paper_openmp()
    })
}

fn accuracy_for(rows: &[vv_metrics::PerIssueRow], issue: IssueKind) -> f64 {
    rows.iter()
        .find(|r| r.issue == issue)
        .and_then(|r| r.accuracy)
        .expect("issue group populated at these suite sizes")
}

#[test]
fn agent_judges_and_pipeline_beat_the_plain_judge() {
    // The paper's central claim: agent-based prompting and the pipeline
    // structure drastically increase evaluation quality (Tables III vs IX/VI).
    let plain = acc_part_one().overall();
    let part_two = acc_part_two();
    let llmj1 = part_two.overall(Evaluator::Llmj1);
    let pipeline1 = part_two.overall(Evaluator::Pipeline1);
    assert!(
        llmj1.accuracy > plain.accuracy + 0.10,
        "agent LLMJ ({:.2}) should clearly beat the plain judge ({:.2})",
        llmj1.accuracy,
        plain.accuracy
    );
    assert!(
        pipeline1.accuracy > plain.accuracy + 0.15,
        "pipeline ({:.2}) should clearly beat the plain judge ({:.2})",
        pipeline1.accuracy,
        plain.accuracy
    );
}

#[test]
fn pipeline_catches_what_the_compiler_catches() {
    // Tables IV/V: syntax-level mutations (missing bracket, undeclared
    // variable) are caught at (or before) the compile stage with near-perfect
    // accuracy, for both programming models and both pipelines.
    for results in [acc_part_two(), omp_part_two()] {
        for evaluator in [Evaluator::Pipeline1, Evaluator::Pipeline2] {
            let rows = results.per_issue(evaluator);
            for issue in [
                IssueKind::RemovedOpeningBracket,
                IssueKind::UndeclaredVariableUse,
            ] {
                let accuracy = accuracy_for(&rows, issue);
                assert!(
                    accuracy >= 0.95,
                    "{evaluator:?} on {:?} accuracy {accuracy} for {issue:?}",
                    results.model
                );
            }
        }
    }
}

#[test]
fn truncated_verification_blocks_remain_the_hardest_issue_for_the_acc_pipeline() {
    // Table IV: "removed last bracketed section" is the one issue class the
    // OpenACC pipeline largely misses, because such files still compile, run
    // and return 0.
    let results = acc_part_two();
    let rows = results.per_issue(Evaluator::Pipeline1);
    let logic = accuracy_for(&rows, IssueKind::RemovedLastBracketedSection);
    for other in [
        IssueKind::RemovedOpeningBracket,
        IssueKind::UndeclaredVariableUse,
        IssueKind::ReplacedWithNonDirectiveCode,
    ] {
        assert!(
            accuracy_for(&rows, other) > logic,
            "{other:?} should be easier than truncated test logic"
        );
    }
}

#[test]
fn plain_judge_biases_match_the_paper_signs() {
    // Table III: the plain judge is strongly permissive on OpenACC
    // (bias ≈ +0.72) and roughly balanced-to-restrictive on OpenMP.
    let acc = acc_part_one().overall();
    let omp = omp_part_one().overall();
    assert!(
        acc.bias > 0.3,
        "OpenACC plain-judge bias should be clearly positive, got {}",
        acc.bias
    );
    assert!(
        omp.bias < 0.3,
        "OpenMP plain-judge bias should not be strongly positive, got {}",
        omp.bias
    );
    // and the plain judge is weak overall (well under the pipeline's level)
    assert!(acc.accuracy < 0.8);
    assert!(omp.accuracy < 0.7);
}

#[test]
fn agent_judges_are_permissive_and_pipelines_shift_toward_restrictive() {
    // Table IX vs Table VI: when stand-alone agent judges err they tend to
    // pass invalid files (positive bias); putting the compiler and runtime in
    // front of the judge removes permissive mistakes, shifting the pipeline's
    // bias toward the restrictive side. (The paper's pipelines end up
    // slightly negative because a fraction of its *hand-written valid* tests
    // fail to compile or run on the real system; the synthetic corpus is
    // valid by construction, so the reproduction only shows the shift — see
    // EXPERIMENTS.md.)
    let results = acc_part_two();
    let llmj1 = results.overall(Evaluator::Llmj1);
    let pipeline1 = results.overall(Evaluator::Pipeline1);
    assert!(
        llmj1.bias > 0.0,
        "LLMJ 1 bias should be positive, got {}",
        llmj1.bias
    );
    assert!(
        pipeline1.bias < llmj1.bias,
        "pipeline bias ({}) should be shifted toward restrictive relative to LLMJ 1 ({})",
        pipeline1.bias,
        llmj1.bias
    );
}

#[test]
fn missing_model_code_is_caught_by_judges_not_compilers() {
    // Issue 3 (file replaced by plain C) compiles and runs fine, so only the
    // judge stage can reject it — and the agent judges do so reliably for
    // OpenACC (Table VII: 97-100%).
    let [direct, _] = acc_part_two_config().scenarios();
    let mut replaced = 0;
    fold_probed_source(
        &direct.service(),
        direct.corpus_spec().source(),
        |issue, record| {
            if issue == IssueKind::ReplacedWithNonDirectiveCode {
                replaced += 1;
                assert!(
                    record.compile.succeeded,
                    "plain C replacement should compile ({})",
                    record.id
                );
                assert_eq!(record.exec.as_ref().map(|e| e.passed), Some(true));
            }
        },
    );
    assert!(replaced > 0, "the suite carries plain C replacements");
    let results = acc_part_two();
    let rows = results.per_issue(Evaluator::Llmj2);
    assert!(accuracy_for(&rows, IssueKind::ReplacedWithNonDirectiveCode) > 0.8);
}

#[test]
fn omp_pipeline_handles_test_logic_errors_better_than_acc_pipeline() {
    // Tables IV/V and Figures 3/4: the starkest OpenACC-vs-OpenMP difference
    // is on the "test logic" issue class (removed last bracketed section) —
    // the OpenMP pipeline catches most of them, the OpenACC pipeline misses
    // most — and overall the OpenMP pipeline is at least as accurate.
    let acc = acc_part_two();
    let omp = omp_part_two();
    let acc_logic = accuracy_for(
        &acc.per_issue(Evaluator::Pipeline1),
        IssueKind::RemovedLastBracketedSection,
    );
    let omp_logic = accuracy_for(
        &omp.per_issue(Evaluator::Pipeline1),
        IssueKind::RemovedLastBracketedSection,
    );
    assert!(
        omp_logic > acc_logic + 0.15,
        "OpenMP test-logic accuracy ({omp_logic:.2}) should clearly exceed OpenACC ({acc_logic:.2})"
    );
    let acc_overall = acc.overall(Evaluator::Pipeline1).accuracy;
    let omp_overall = omp.overall(Evaluator::Pipeline1).accuracy;
    assert!(
        omp_overall + 0.03 > acc_overall,
        "OpenMP pipeline accuracy ({omp_overall:.2}) should be at least comparable to OpenACC ({acc_overall:.2})"
    );
}
