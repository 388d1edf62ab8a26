//! Acceptance tests for the scenario-matrix campaign harness.
//!
//! The headline assertion: a part-two-style campaign of four scenarios runs
//! end-to-end through the streaming accumulator path — no
//! `Vec<EvaluationRecord>` / record `Vec` anywhere on it — and every
//! scenario's metrics are **byte-identical** to the legacy batch
//! computation (materialize the same corpus, run the batch service, compute
//! the slice-based metrics) on the same seeds.
//!
//! Scenario size: the paper-scale 25k cases per scenario under
//! `cargo test --release` (wired into CI as its own step); a proportionally
//! smaller corpus under the default debug profile so plain `cargo test`
//! stays fast. The assertions are identical in both.

use llm4vv::campaign::{run_campaign, ScenarioMatrix};
use vv_corpus::CaseSource;
use vv_dclang::DirectiveModel;
use vv_judge::PromptStyle;
use vv_metrics::{overall, per_issue, radar_series, EvaluationRecord};
use vv_pipeline::{ExecutionStrategy, PipelineConfig, WorkItem};
use vv_probing::IssueKind;

/// ≥ 25k cases per scenario at release scale (the acceptance bar); small
/// enough for tier-1 `cargo test` in debug.
const CASES_PER_SCENARIO: usize = if cfg!(debug_assertions) { 500 } else { 25_000 };

#[test]
fn campaign_metrics_are_byte_identical_to_the_legacy_batch_computation() {
    // 2 models x 2 prompt styles = 4 scenarios, each streamed as 2 shards.
    let matrix = ScenarioMatrix::new(CASES_PER_SCENARIO)
        .models(vec![DirectiveModel::OpenAcc, DirectiveModel::OpenMp])
        .prompt_styles(vec![PromptStyle::AgentDirect, PromptStyle::AgentIndirect])
        .shards(2);
    assert_eq!(matrix.len(), 4);

    let campaign = run_campaign(&matrix);
    assert_eq!(campaign.scenarios.len(), 4);
    assert_eq!(campaign.total_cases(), 4 * CASES_PER_SCENARIO);

    for metrics in &campaign.scenarios {
        let scenario = &metrics.scenario;

        // The streamed path processed the whole corpus, judging every file.
        assert_eq!(metrics.cases(), CASES_PER_SCENARIO, "{}", scenario.label);
        assert_eq!(metrics.stats.submitted, CASES_PER_SCENARIO);
        assert_eq!(metrics.stats.judged, CASES_PER_SCENARIO);
        assert!(metrics.stats.judge_latency_p99() >= metrics.stats.judge_latency_p50());

        // Constant-memory evidence: the ground-truth side queue's high-water
        // mark tracks the executor's in-flight window (plus the record in
        // the consumer's hand), not the corpus size.
        let workers = ExecutionStrategy::default().workers();
        let window_bound = PipelineConfig::default().channel_capacity.max(2 * workers) + 1;
        assert!(
            metrics.max_in_flight <= window_bound,
            "{}: {} ground-truth entries in flight (window bound {window_bound})",
            scenario.label,
            metrics.max_in_flight
        );

        // Legacy batch computation on the same seeds: materialize the
        // unsharded corpus, run the batch service, compute the slice-based
        // metrics from materialized EvaluationRecords.
        let mut issues: Vec<IssueKind> = Vec::with_capacity(CASES_PER_SCENARIO);
        let mut items: Vec<WorkItem> = Vec::with_capacity(CASES_PER_SCENARIO);
        for case in scenario.corpus_spec().source().into_cases() {
            issues.push(IssueKind::of_case(&case));
            items.push(WorkItem::from(case));
        }
        let run = scenario.service().run(items);
        let judge_records: Vec<EvaluationRecord> = run
            .records
            .iter()
            .zip(&issues)
            .map(|(record, &issue)| {
                let judgement = record.judgement.as_ref().expect("record-all judges all");
                EvaluationRecord::new(
                    record.id.clone(),
                    issue,
                    Some(judgement.verdict_or_invalid()),
                )
            })
            .collect();
        let pipeline_records: Vec<EvaluationRecord> = run
            .records
            .iter()
            .zip(&issues)
            .map(|(record, &issue)| {
                EvaluationRecord::new(record.id.clone(), issue, Some(record.pipeline_verdict()))
            })
            .collect();

        // Byte-identical per-issue rows, overall stats and radar series,
        // for both the stand-alone judge and the gated pipeline.
        let label = &scenario.label;
        assert_eq!(
            metrics.judge.per_issue_rows(),
            per_issue(&judge_records),
            "{label}: judge per-issue"
        );
        assert_eq!(
            metrics.judge.overall_stats(),
            overall(&judge_records),
            "{label}: judge overall"
        );
        assert_eq!(
            metrics.judge.radar_series(),
            radar_series(&judge_records),
            "{label}: judge radar"
        );
        assert_eq!(
            metrics.pipeline.per_issue_rows(),
            per_issue(&pipeline_records),
            "{label}: pipeline per-issue"
        );
        assert_eq!(
            metrics.pipeline.overall_stats(),
            overall(&pipeline_records),
            "{label}: pipeline overall"
        );
        assert_eq!(
            metrics.pipeline.radar_series(),
            radar_series(&pipeline_records),
            "{label}: pipeline radar"
        );
        // The batch run's latency histogram matches the shard-merged one.
        assert_eq!(
            metrics.stats.judge_latency, run.stats.judge_latency,
            "{label}: latency histogram"
        );
    }

    // Distinct scenarios measured distinct things: at least one pair of
    // scenarios disagrees on overall accuracy.
    let accuracies: Vec<u64> = campaign
        .scenarios
        .iter()
        .map(|m| (m.pipeline.overall_stats().accuracy * 1e6) as u64)
        .collect();
    let mut unique = accuracies.clone();
    unique.sort();
    unique.dedup();
    assert!(unique.len() > 1, "all scenarios identical: {accuracies:?}");

    // The comparison table covers every scenario.
    let table = campaign.comparison_table();
    for metrics in &campaign.scenarios {
        assert!(table.contains(&metrics.scenario.label), "{table}");
    }
}
