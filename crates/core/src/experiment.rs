//! Experiment drivers for the paper's Part One and Part Two.
//!
//! Both drivers fold their records into mergeable
//! [`vv_metrics::accumulate`] accumulators *as they complete*, so the
//! metrics of an arbitrarily large suite are computed in constant memory:
//! no record `Vec` of any kind exists anywhere on the path.
//!
//! * [`stream_part_one`] judges each probed file with the plain judge,
//!   one corpus shard per available core (Tables I–III).
//! * [`stream_part_two`] runs the paper's two Part Two configurations,
//!   the direct and the indirect agent judge, as two
//!   [`campaign`](crate::campaign) scenarios. Each scenario yields both its
//!   stand-alone judge metrics (LLMJ 1 / LLMJ 2, Tables VII–IX) and the
//!   metrics of the pipeline that judge gates (Pipeline 1 / Pipeline 2,
//!   Tables IV–VI).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use vv_corpus::CaseSource;
use vv_dclang::DirectiveModel;
use vv_judge::{JudgeProfile, JudgeSession, PromptStyle, SurrogateLlmJudge};
use vv_metrics::{
    Accumulator as _, LatencyTokenSummary, MetricsSink, OverallStats, PerIssueRow, RadarPoint,
};
use vv_pipeline::{CaseRecord, PipelineStats, ValidationService};
use vv_probing::{CorpusSpec, IssueKind, ProbeConfig};

use crate::campaign::{par_map, run_scenario, Scenario, ScenarioMatrix, ScenarioMetrics};

// ---------------------------------------------------------------------------
// Part One: plain LLMJ via negative probing (Tables I-III)
// ---------------------------------------------------------------------------

/// Configuration of a Part One run (plain judge, direct prompt, no tools).
#[derive(Clone, Debug)]
pub struct PartOneConfig {
    /// Programming model under test.
    pub model: DirectiveModel,
    /// Number of probed files (half will be mutated).
    pub suite_size: usize,
    /// Seed for corpus generation.
    pub corpus_seed: u64,
    /// Seed for suite splitting/mutation.
    pub probe_seed: u64,
    /// Seed for the judge's decision layer.
    pub judge_seed: u64,
    /// Restrict the corpus to C files (the paper's Part One OpenMP suite).
    pub c_only: bool,
}

impl PartOneConfig {
    /// The paper's Part One OpenACC suite size (Table I: 1335 files).
    pub fn paper_openacc() -> Self {
        Self {
            model: DirectiveModel::OpenAcc,
            suite_size: 1335,
            corpus_seed: 0xACC1,
            probe_seed: 0xACC2,
            judge_seed: 0xACC3,
            c_only: false,
        }
    }

    /// The paper's Part One OpenMP suite size (Table II: 431 C files).
    pub fn paper_openmp() -> Self {
        Self {
            model: DirectiveModel::OpenMp,
            suite_size: 431,
            corpus_seed: 0x04B1,
            probe_seed: 0x04B2,
            judge_seed: 0x04B3,
            c_only: true,
        }
    }

    /// A small configuration for tests and examples.
    pub fn quick(model: DirectiveModel, suite_size: usize) -> Self {
        Self {
            model,
            suite_size,
            corpus_seed: 11,
            probe_seed: 12,
            judge_seed: 13,
            c_only: false,
        }
    }

    /// The corpus pipeline this configuration describes.
    pub fn corpus_spec(&self) -> CorpusSpec {
        let mut spec = CorpusSpec::new(self.model)
            .seed(self.corpus_seed)
            .probe(ProbeConfig::with_seed(self.probe_seed))
            .size(self.suite_size);
        if self.c_only {
            spec = spec.c_only();
        }
        spec
    }
}

/// Streaming Part One results: the plain judge's metrics, folded into
/// constant-memory accumulators without ever materializing the records.
#[derive(Clone, Debug)]
pub struct PartOneMetrics {
    /// Programming model.
    pub model: DirectiveModel,
    /// Accuracy/bias/radar accumulators over every judged file.
    pub sink: MetricsSink,
    /// Token and latency summary of the judge pass.
    pub judge_load: LatencyTokenSummary,
}

impl PartOneMetrics {
    /// Per-issue accuracy rows (Table I / II).
    pub fn per_issue(&self) -> Vec<PerIssueRow> {
        self.sink.per_issue_rows()
    }

    /// Overall accuracy and bias (Table III).
    pub fn overall(&self) -> OverallStats {
        self.sink.overall_stats()
    }

    /// Radar series for the plain judge (part of Figures 5 / 6).
    pub fn radar(&self) -> Vec<RadarPoint> {
        self.sink.radar_series()
    }
}

/// Run Part One: judge every probed file with the plain direct-analysis
/// prompt (no compilation, no execution, no tool information), folding each
/// judgement into accumulators. The corpus streams as one shard per
/// available core, each folded on its own thread; the accumulators merge
/// exactly, so the result does not depend on the core count.
pub fn stream_part_one(config: &PartOneConfig) -> PartOneMetrics {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    fold_part_one(config, cores)
}

/// [`stream_part_one`] over `shards` corpus shards. Each judgement is a
/// pure function of (case, seed), so any shard count folds the same
/// metrics.
fn fold_part_one(config: &PartOneConfig, shards: usize) -> PartOneMetrics {
    let session = JudgeSession::new(
        SurrogateLlmJudge::new(JudgeProfile::deepseek_plain(), config.judge_seed),
        PromptStyle::Direct,
    );
    let empty = || PartOneMetrics {
        model: config.model,
        sink: MetricsSink::default(),
        judge_load: LatencyTokenSummary::default(),
    };
    let partials = par_map(shards, |k| {
        let mut shard = empty();
        let mut source = config.corpus_spec().shard(k, shards).source();
        while let Some(case) = source.next_case() {
            let outcome = session.evaluate(&case.source, config.model, None);
            shard
                .sink
                .observe_case(IssueKind::of_case(&case), outcome.verdict);
            shard.judge_load.observe(&outcome);
        }
        shard
    });
    let mut metrics = empty();
    for shard in &partials {
        metrics.sink.merge(&shard.sink);
        metrics.judge_load.merge(&shard.judge_load);
    }
    metrics
}

// ---------------------------------------------------------------------------
// Part Two: agent-based judges + validation pipeline (Tables IV-IX, Figs 3-6)
// ---------------------------------------------------------------------------

/// Configuration of a Part Two run.
#[derive(Clone, Debug)]
pub struct PartTwoConfig {
    /// Programming model under test.
    pub model: DirectiveModel,
    /// Number of probed files (half will be mutated).
    pub suite_size: usize,
    /// Seed for corpus generation.
    pub corpus_seed: u64,
    /// Seed for suite splitting/mutation.
    pub probe_seed: u64,
    /// Seed for the judges' decision layers.
    pub judge_seed: u64,
}

impl PartTwoConfig {
    /// The paper's Part Two OpenACC suite size (Table IV: 1782 files).
    pub fn paper_openacc() -> Self {
        Self {
            model: DirectiveModel::OpenAcc,
            suite_size: 1782,
            corpus_seed: 0x2ACC1,
            probe_seed: 0x2ACC2,
            judge_seed: 0x2ACC3,
        }
    }

    /// The paper's Part Two OpenMP suite size (Table V: 296 files).
    pub fn paper_openmp() -> Self {
        Self {
            model: DirectiveModel::OpenMp,
            suite_size: 296,
            corpus_seed: 0x20B1,
            probe_seed: 0x20B2,
            judge_seed: 0x20B3,
        }
    }

    /// A small configuration for tests and examples.
    pub fn quick(model: DirectiveModel, suite_size: usize) -> Self {
        Self {
            model,
            suite_size,
            corpus_seed: 21,
            probe_seed: 22,
            judge_seed: 23,
        }
    }

    /// The paper's two Part Two runs as campaign scenarios, in evaluator
    /// order: the direct-prompt agent judge (LLMJ 1, gating Pipeline 1) and
    /// the indirect-prompt one (LLMJ 2, gating Pipeline 2). Both judge the
    /// same corpus: the paper's 50% probe split, streamed as one shard.
    pub fn scenarios(&self) -> [Scenario; 2] {
        [
            (
                PromptStyle::AgentDirect,
                JudgeProfile::deepseek_agent_direct(),
            ),
            (
                PromptStyle::AgentIndirect,
                JudgeProfile::deepseek_agent_indirect(),
            ),
        ]
        .map(|(style, profile)| {
            ScenarioMatrix::new(self.suite_size)
                .models(vec![self.model])
                .prompt_styles(vec![style])
                .probe_fractions(vec![0.5])
                .judge_profiles(vec![profile])
                .shards(1)
                .seeds(self.corpus_seed, self.probe_seed, self.judge_seed)
                .scenarios()
                .remove(0)
        })
    }
}

/// The four evaluation setups compared in Part Two.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Evaluator {
    /// Agent-based judge with the direct-analysis prompt, on its own.
    Llmj1,
    /// Agent-based judge with the indirect-analysis prompt, on its own.
    Llmj2,
    /// Full validation pipeline gated by LLMJ 1.
    Pipeline1,
    /// Full validation pipeline gated by LLMJ 2.
    Pipeline2,
}

/// Streaming Part Two results: the merged metrics of the two
/// [`PartTwoConfig::scenarios`], each holding its judge's own verdicts and
/// the pipeline verdicts that judge gates.
#[derive(Clone, Debug)]
pub struct PartTwoMetrics {
    /// Programming model.
    pub model: DirectiveModel,
    /// The direct-prompt scenario: LLMJ 1 and Pipeline 1.
    pub direct: ScenarioMetrics,
    /// The indirect-prompt scenario: LLMJ 2 and Pipeline 2.
    pub indirect: ScenarioMetrics,
}

impl PartTwoMetrics {
    /// The accumulator behind one evaluator's metrics.
    pub fn sink(&self, which: Evaluator) -> &MetricsSink {
        match which {
            Evaluator::Llmj1 => &self.direct.judge,
            Evaluator::Llmj2 => &self.indirect.judge,
            Evaluator::Pipeline1 => &self.direct.pipeline,
            Evaluator::Pipeline2 => &self.indirect.pipeline,
        }
    }

    /// Per-issue accuracy rows for one evaluator.
    pub fn per_issue(&self, which: Evaluator) -> Vec<PerIssueRow> {
        self.sink(which).per_issue_rows()
    }

    /// Overall accuracy and bias for one evaluator.
    pub fn overall(&self, which: Evaluator) -> OverallStats {
        self.sink(which).overall_stats()
    }

    /// Radar series for one evaluator (Figures 3–6).
    pub fn radar(&self, which: Evaluator) -> Vec<RadarPoint> {
        self.sink(which).radar_series()
    }
}

/// Outcome of [`fold_probed_source`]: the run's final service statistics
/// plus the high-water mark of the ground-truth side queue — the
/// constant-memory evidence, since the queue tracks the pipeline's
/// in-flight window, never the corpus size.
#[derive(Clone, Debug)]
pub struct FoldStats {
    /// Aggregate statistics of the completed run.
    pub stats: PipelineStats,
    /// Most ground-truth entries ever parked at once.
    pub max_in_flight: usize,
}

/// Stream a probed [`CaseSource`] through a [`ValidationService`] and hand
/// each completed record — joined back to its ground-truth issue — to `f`.
///
/// The issue of every in-flight case is parked in a FIFO queue as the
/// service's executor pulls it off the stream and popped when its record
/// arrives. Records stream in submission order, so the join is exact even
/// under duplicate ids, and the queue's length follows the pipeline's
/// in-flight window: the whole fold runs in constant memory — no suite,
/// record `Vec` or `Vec<EvaluationRecord>` is ever materialized.
pub fn fold_probed_source<S, F>(service: &ValidationService, source: S, mut f: F) -> FoldStats
where
    S: CaseSource + Send + 'static,
    F: FnMut(IssueKind, &CaseRecord),
{
    let truth: Arc<Mutex<VecDeque<(String, IssueKind)>>> = Arc::default();
    let high_water = Arc::new(AtomicUsize::new(0));
    let capture = Arc::clone(&truth);
    let watermark = Arc::clone(&high_water);
    let tapped = source.inspect(move |case| {
        let mut parked = capture.lock().expect("ground-truth queue poisoned");
        parked.push_back((case.case.id.clone(), IssueKind::of_case(case)));
        watermark.fetch_max(parked.len(), Ordering::Relaxed);
    });
    let mut stream = service.submit_source(tapped);
    for record in &mut stream {
        let (id, issue) = truth
            .lock()
            .expect("ground-truth queue poisoned")
            .pop_front()
            .expect("every completed record was tapped on submission");
        assert_eq!(id, record.id, "records stream in submission order");
        f(issue, &record);
    }
    FoldStats {
        stats: stream.stats(),
        max_in_flight: high_water.load(Ordering::Relaxed),
    }
}

/// Run Part Two: the paper's record-all methodology ("we did not prevent
/// invalid files from continuing through the pipeline"), so every probed
/// file is compiled, executed where possible and judged, and both the
/// stand-alone judge and the judge-gated pipeline verdicts derive from the
/// same records. Each judge runs as one campaign scenario
/// ([`PartTwoConfig::scenarios`]) through [`run_scenario`], folding its
/// records into accumulators in constant memory.
pub fn stream_part_two(config: &PartTwoConfig) -> PartTwoMetrics {
    let [direct, indirect] = config.scenarios();
    PartTwoMetrics {
        model: config.model,
        direct: run_scenario(&direct),
        indirect: run_scenario(&indirect),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn part_one_produces_one_record_per_file() {
        let config = PartOneConfig::quick(DirectiveModel::OpenAcc, 20);
        let metrics = stream_part_one(&config);
        let rows = metrics.per_issue();
        let total: usize = rows.iter().map(|r| r.count).sum();
        assert_eq!(total, 20);
        assert_eq!(metrics.overall().total, 20);
    }

    #[test]
    fn part_one_does_not_depend_on_the_shard_count() {
        for model in [DirectiveModel::OpenAcc, DirectiveModel::OpenMp] {
            let config = PartOneConfig::quick(model, 37);
            let one = fold_part_one(&config, 1);
            assert_eq!(one.overall().total, 37);
            for shards in [2, 5] {
                let sharded = fold_part_one(&config, shards);
                assert_eq!(sharded.sink, one.sink, "{model:?}, {shards} shards");
                assert_eq!(
                    sharded.judge_load, one.judge_load,
                    "{model:?}, {shards} shards"
                );
            }
        }
    }

    #[test]
    fn part_one_is_deterministic() {
        let config = PartOneConfig::quick(DirectiveModel::OpenMp, 16);
        let a = stream_part_one(&config);
        let b = stream_part_one(&config);
        assert_eq!(a.sink, b.sink);
        assert_eq!(a.judge_load, b.judge_load);
    }

    #[test]
    fn part_two_pipeline_is_at_least_as_accurate_as_its_judge() {
        let config = PartTwoConfig::quick(DirectiveModel::OpenAcc, 40);
        let metrics = stream_part_two(&config);
        assert_eq!(metrics.direct.cases(), 40);
        assert_eq!(metrics.indirect.cases(), 40);
        // The pipeline adds compile/execute gating in front of the judge, so
        // on mutated-or-valid suites it can only gain accuracy on files the
        // compiler rejects; overall it should not be dramatically worse.
        let judge_acc = metrics.overall(Evaluator::Llmj1).accuracy;
        let pipeline_acc = metrics.overall(Evaluator::Pipeline1).accuracy;
        assert!(
            pipeline_acc + 0.15 >= judge_acc,
            "pipeline {pipeline_acc} vs judge {judge_acc}"
        );
    }

    #[test]
    fn part_two_valid_files_compile_and_run() {
        let config = PartTwoConfig::quick(DirectiveModel::OpenMp, 30);
        for scenario in config.scenarios() {
            let mut valid = 0;
            let service = scenario.service();
            fold_probed_source(
                &service,
                scenario.corpus_spec().source(),
                |issue, record| {
                    if issue.is_valid() {
                        valid += 1;
                        assert!(
                            record.compile.succeeded,
                            "valid case {} must compile",
                            record.id
                        );
                        assert_eq!(
                            record.exec.as_ref().map(|e| e.passed),
                            Some(true),
                            "valid case {} must pass",
                            record.id
                        );
                    }
                },
            );
            assert_eq!(valid, 15, "{}: half the suite stays valid", scenario.label);
        }
    }
}
