//! Batch run results.
//!
//! The runner logic lives in [`crate::service`]; this module keeps the
//! [`PipelineRun`] result type.

use crate::stats::PipelineStats;
use crate::CaseRecord;

/// The result of running a validation service over a batch of files.
#[derive(Clone, Debug, Default)]
pub struct PipelineRun {
    /// One record per submitted file, in submission order.
    pub records: Vec<CaseRecord>,
    /// Aggregate statistics.
    pub stats: PipelineStats,
}

impl PipelineRun {
    /// Assemble a run result.
    pub fn new(records: Vec<CaseRecord>, stats: PipelineStats) -> Self {
        Self { records, stats }
    }
}

#[cfg(test)]
mod tests {
    use crate::service::{ExecutionStrategy, ValidationService};
    use crate::{CaseRecord, PipelineMode, PipelineStats, Stage, WorkItem};
    use vv_corpus::CaseSource;
    use vv_dclang::DirectiveModel;
    use vv_probing::{CorpusSpec, IssueKind};

    fn probed_spec(model: DirectiveModel, size: usize, seed: u64) -> CorpusSpec {
        CorpusSpec::new(model)
            .seed(seed)
            .probe_seed(seed)
            .size(size)
    }

    fn probed_items(
        model: DirectiveModel,
        size: usize,
        seed: u64,
    ) -> (Vec<WorkItem>, Vec<IssueKind>) {
        let mut items = Vec::with_capacity(size);
        let mut issues = Vec::with_capacity(size);
        for case in probed_spec(model, size, seed).source().into_cases() {
            issues.push(IssueKind::of_case(&case));
            items.push(WorkItem::from(case));
        }
        (items, issues)
    }

    fn record_all_service() -> ValidationService {
        ValidationService::builder()
            .mode(PipelineMode::RecordAll)
            .build()
    }

    #[test]
    fn all_strategies_agree_through_the_service() {
        // The executor at every strategy and the service's own
        // `process_case` (the daemon's path) agree record for record.
        let (items, _) = probed_items(DirectiveModel::OpenAcc, 30, 41);
        let service = record_all_service();
        let stats = parking_lot::Mutex::new(PipelineStats::default());
        let direct: Vec<CaseRecord> = items
            .iter()
            .map(|item| service.process_case(item, &stats))
            .collect();
        assert_eq!(
            stats.lock().judged,
            items.len(),
            "RecordAll judges every case"
        );
        for workers in [0, 1, 2] {
            let strategy = ExecutionStrategy::Pipelined { workers };
            let run = ValidationService::builder()
                .mode(PipelineMode::RecordAll)
                .strategy(strategy)
                .build()
                .run(items.clone());
            assert_eq!(run.records, direct, "{strategy:?}");
        }
    }

    #[test]
    fn early_exit_skips_judging_of_failed_files() {
        let (items, issues) = probed_items(DirectiveModel::OpenMp, 40, 17);
        let early = ValidationService::builder().build().run(items.clone());
        let record_all = record_all_service().run(items.clone());
        // Some mutated files fail to compile, so early-exit must judge fewer.
        assert!(early.stats.judged < record_all.stats.judged);
        assert_eq!(record_all.stats.judged, items.len());
        assert!(early.stats.judge_stage_savings() > 0.0);
        // Both modes agree on the *pipeline* verdict.
        for (a, b) in early.records.iter().zip(&record_all.records) {
            assert_eq!(a.pipeline_verdict(), b.pipeline_verdict(), "case {}", a.id);
        }
        // Sanity: at least one mutated file exists.
        assert!(issues.iter().any(|i| !i.is_valid()));
    }

    #[test]
    fn pipeline_catches_compile_level_mutations() {
        let (items, issues) = probed_items(DirectiveModel::OpenAcc, 60, 23);
        let run = record_all_service().run(items);
        for (record, issue) in run.records.iter().zip(issues.iter()) {
            match issue {
                IssueKind::RemovedOpeningBracket | IssueKind::UndeclaredVariableUse => {
                    assert!(
                        !record.compile.succeeded,
                        "case {} with issue {issue:?} should not compile",
                        record.id
                    );
                    assert!(!record.pipeline_verdict().is_valid());
                }
                IssueKind::NoIssue => {
                    assert!(
                        record.compile.succeeded,
                        "valid case {} must compile",
                        record.id
                    );
                    assert!(record.exec.as_ref().is_some_and(|e| e.passed));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn stats_are_internally_consistent() {
        let (items, _) = probed_items(DirectiveModel::OpenAcc, 24, 5);
        let run = ValidationService::builder().build().run(items.clone());
        assert_eq!(run.stats.submitted, items.len());
        assert_eq!(run.stats.compiled, items.len());
        assert!(run.stats.executed <= run.stats.compiled);
        assert!(run.stats.judged <= run.stats.executed);
        assert!(run.stats.simulated_judge_latency_ms >= 0.0);
        assert!(run.stats.wall_time.as_nanos() > 0);
        assert_eq!(run.records.len(), items.len());
    }

    #[test]
    fn worker_counts_do_not_change_results() {
        let (items, _) = probed_items(DirectiveModel::OpenMp, 20, 31);
        let run = |workers| {
            ValidationService::builder()
                .mode(PipelineMode::RecordAll)
                .strategy(ExecutionStrategy::Pipelined { workers })
                .build()
                .run(items.clone())
        };
        let narrow = run(1);
        assert_eq!(narrow.records.len(), items.len());
        for workers in [0, 2, 8] {
            assert_eq!(run(workers).records, narrow.records, "workers={workers}");
        }
    }

    #[test]
    fn streaming_submit_yields_every_record_with_backpressure() {
        let (items, _) = probed_items(DirectiveModel::OpenAcc, 25, 9);
        let expected: Vec<String> = items.iter().map(|i| i.id.clone()).collect();
        let service = ValidationService::builder().channel_capacity(2).build();
        let seen: Vec<String> = service.submit(items).map(|record| record.id).collect();
        assert_eq!(
            seen, expected,
            "the default service streams in submission order"
        );
    }

    #[test]
    fn submit_source_streams_a_corpus_without_materializing_it() {
        let size = 48;
        let spec = probed_spec(DirectiveModel::OpenAcc, size, 77);
        let service = ValidationService::builder()
            .mode(PipelineMode::RecordAll)
            .channel_capacity(4)
            .build();
        let mut stream = service.submit_source(spec.source());
        let mut yielded = 0usize;
        while stream.next().is_some() {
            yielded += 1;
        }
        assert_eq!(yielded, size);
        let stats = stream.stats();
        assert_eq!(stats.submitted, size);
        assert_eq!(stats.judged, size);
    }

    #[test]
    fn run_source_matches_materialized_run() {
        let (items, _) = probed_items(DirectiveModel::OpenMp, 20, 3);
        let spec = probed_spec(DirectiveModel::OpenMp, 20, 3);
        let service = record_all_service();
        let via_source = service.run_source(spec.source());
        let via_items = service.run(items);
        assert_eq!(via_source.records.len(), via_items.records.len());
        for (a, b) in via_source.records.iter().zip(&via_items.records) {
            assert_eq!(a, b, "source path diverged from item path");
        }
    }

    #[test]
    fn streaming_stats_are_final_after_exhaustion() {
        let (items, _) = probed_items(DirectiveModel::OpenMp, 12, 3);
        let total = items.len();
        let service = ValidationService::builder()
            .mode(PipelineMode::RecordAll)
            .build();
        let mut stream = service.submit(items);
        let mut yielded = 0;
        while stream.next().is_some() {
            yielded += 1;
        }
        assert_eq!(yielded, total);
        let stats = stream.stats();
        assert_eq!(stats.submitted, total);
        assert_eq!(stats.judged, total);
        assert!(stats.wall_time.as_nanos() > 0);
    }

    #[test]
    fn dropping_a_stream_early_cancels_cleanly() {
        let (items, _) = probed_items(DirectiveModel::OpenAcc, 30, 77);
        let service = ValidationService::builder().channel_capacity(1).build();
        let mut stream = service.submit(items);
        let first = stream.next();
        assert!(first.is_some());
        drop(stream); // must not deadlock or leak blocked workers
    }

    #[test]
    fn backend_panics_propagate_to_the_caller() {
        use crate::backend::JudgeBackend;

        /// A judge that dies on its first file.
        struct PanickingJudge;
        impl JudgeBackend for PanickingJudge {
            fn judge(
                &self,
                _item: &WorkItem,
                _compile: &crate::CompileSummary,
                _exec: Option<&crate::ExecSummary>,
                _signals: Option<&vv_judge::CodeSignals>,
            ) -> vv_judge::JudgeOutcome {
                panic!("judge backend exploded");
            }
        }

        let (items, _) = probed_items(DirectiveModel::OpenAcc, 8, 19);
        for workers in [1, 2, 4, 8] {
            let service = ValidationService::builder()
                .strategy(ExecutionStrategy::Pipelined { workers })
                .judge_backend(PanickingJudge)
                .build();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                service.run(items.clone())
            }));
            let payload = result.expect_err("a worker panic must not yield a truncated run");
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(
                message.contains("judge backend exploded"),
                "workers={workers}: unexpected panic payload: {message:?}"
            );
        }
    }

    #[test]
    fn custom_judge_backend_is_used() {
        use crate::backend::JudgeBackend;
        use vv_judge::JudgeOutcome;

        /// A judge that accepts everything (for testing backend plumbing).
        struct AlwaysValid;
        impl JudgeBackend for AlwaysValid {
            fn judge(
                &self,
                _item: &WorkItem,
                _compile: &crate::CompileSummary,
                _exec: Option<&crate::ExecSummary>,
                _signals: Option<&vv_judge::CodeSignals>,
            ) -> JudgeOutcome {
                JudgeOutcome {
                    prompt: Default::default(),
                    response: "FINAL JUDGEMENT: valid".into(),
                    verdict: Some(vv_judge::Verdict::Valid),
                    prompt_tokens: 1,
                    response_tokens: 1,
                    latency_ms: 0.5,
                }
            }
            fn name(&self) -> &'static str {
                "always-valid"
            }
        }

        let (items, _) = probed_items(DirectiveModel::OpenAcc, 12, 13);
        let run = ValidationService::builder()
            .judge_backend(AlwaysValid)
            .build()
            .run(items);
        for record in &run.records {
            if record.stage_reached() == Stage::Judge {
                assert_eq!(record.judge_verdict(), Some(vv_judge::Verdict::Valid));
            }
        }
        assert!(run.stats.judged > 0);
        assert_eq!(run.stats.judge_rejections, 0);
    }
}
