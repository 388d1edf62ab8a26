//! Experiment drivers for the paper's Part One and Part Two.
//!
//! Each part has two shapes:
//!
//! * a **batch** driver ([`run_part_one`] / [`run_part_two`]) that
//!   materializes every per-file record — what the paper-scale `repro`
//!   tables were originally built from, kept for consumers that need the
//!   raw records;
//! * a **streaming** driver ([`stream_part_one`] / [`stream_part_two`])
//!   that folds the same records into mergeable
//!   [`vv_metrics::accumulate`] accumulators *as they complete*, so the
//!   metrics of an arbitrarily large suite are computed in constant
//!   memory — no `Vec<EvaluationRecord>` (or record `Vec` of any kind)
//!   exists anywhere on the path.
//!
//! Both shapes produce byte-identical metrics for the same configuration
//! (asserted in `tests/campaign.rs`): the accumulators' counters are
//! integers and every derived float is computed once, at read time.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rayon::prelude::*;

use vv_corpus::{CaseSource, GeneratedCase};
use vv_dclang::DirectiveModel;
use vv_judge::{JudgeOutcome, JudgeProfile, JudgeSession, PromptStyle, SurrogateLlmJudge, Verdict};
use vv_metrics::{
    Accumulator as _, EvaluationRecord, LatencyTokenSummary, MetricsSink, OverallStats,
    PerIssueRow, RadarPoint,
};
use vv_pipeline::{CaseRecord, PipelineMode, PipelineStats, ValidationService};
use vv_probing::{CorpusSpec, IssueKind, ProbeConfig};

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

/// One judged file in Part One.
#[derive(Clone, Debug)]
pub struct PartOneRecord {
    /// Case identifier.
    pub case_id: String,
    /// Injected issue.
    pub issue: IssueKind,
    /// The judge's full outcome (prompt, response, verdict, token counts).
    pub outcome: JudgeOutcome,
}

/// Results of a Part One run.
#[derive(Clone, Debug)]
pub struct PartOneResults {
    /// Programming model.
    pub model: DirectiveModel,
    /// Per-file records.
    pub records: Vec<PartOneRecord>,
}

impl PartOneResults {
    /// Convert to metric records.
    pub fn evaluation_records(&self) -> Vec<EvaluationRecord> {
        self.records
            .iter()
            .map(|r| EvaluationRecord::new(r.case_id.clone(), r.issue, r.outcome.verdict))
            .collect()
    }

    /// One-shot fold of the materialized records into the streaming
    /// accumulators (byte-identical to [`stream_part_one`] for the same
    /// configuration).
    pub fn metrics(&self) -> PartOneMetrics {
        let mut metrics = PartOneMetrics::new(self.model);
        for record in &self.records {
            metrics.observe(record);
        }
        metrics
    }

    /// Single-pass sink fold backing the per-table accessors (cheaper than
    /// the full [`PartOneResults::metrics`] fold, which also summarizes the
    /// judge load).
    fn fold_sink(&self) -> MetricsSink {
        let mut sink = MetricsSink::default();
        for record in &self.records {
            sink.observe_case(record.issue, record.outcome.verdict);
        }
        sink
    }

    /// Per-issue accuracy rows (Table I / II).
    pub fn per_issue(&self) -> Vec<PerIssueRow> {
        self.fold_sink().per_issue_rows()
    }

    /// Overall accuracy and bias (Table III).
    pub fn overall(&self) -> OverallStats {
        self.fold_sink().overall_stats()
    }

    /// Radar series for the plain judge (part of Figures 5 / 6).
    pub fn radar(&self) -> Vec<RadarPoint> {
        self.fold_sink().radar_series()
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
    fn new(model: DirectiveModel) -> Self {
        Self {
            model,
            sink: MetricsSink::default(),
            judge_load: LatencyTokenSummary::default(),
        }
    }

    /// Fold one judged file into the accumulators.
    pub fn observe(&mut self, record: &PartOneRecord) {
        self.sink.observe_case(record.issue, record.outcome.verdict);
        self.judge_load.observe(&record.outcome);
    }

    /// Absorb another shard's accumulators (see the merge laws in
    /// [`vv_metrics::accumulate`]).
    pub fn merge(&mut self, other: &PartOneMetrics) {
        assert_eq!(self.model, other.model, "cannot merge across models");
        self.sink.merge(&other.sink);
        self.judge_load.merge(&other.judge_load);
    }

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

/// Judge-pass chunk size for the Part One fold: bounds peak memory (at most
/// one chunk of generated cases exists at a time) while keeping rayon's
/// data parallelism within each chunk.
const JUDGE_CHUNK: usize = 256;

/// Drive the Part One judge pass, delivering records in submission order.
/// Cases stream out of the corpus spec one chunk at a time, so memory is
/// bounded by the chunk size, not the suite size.
fn for_each_part_one_record(config: &PartOneConfig, mut f: impl FnMut(PartOneRecord)) {
    let session = JudgeSession::new(
        SurrogateLlmJudge::new(JudgeProfile::deepseek_plain(), config.judge_seed),
        PromptStyle::Direct,
    );
    let mut cases = config.corpus_spec().source().into_cases();
    loop {
        let chunk: Vec<GeneratedCase> = cases.by_ref().take(JUDGE_CHUNK).collect();
        if chunk.is_empty() {
            break;
        }
        // Each judgement is a pure function of (case, seed), so chunked
        // parallel evaluation matches the old whole-suite pass exactly.
        let records: Vec<PartOneRecord> = chunk
            .par_iter()
            .map(|case| {
                let outcome = session.evaluate(&case.source, config.model, None);
                PartOneRecord {
                    case_id: case.case.id.clone(),
                    issue: IssueKind::of_case(case),
                    outcome,
                }
            })
            .collect();
        records.into_iter().for_each(&mut f);
    }
}

/// Run Part One: judge every probed file with the plain direct-analysis
/// prompt (no compilation, no execution, no tool information). Batch
/// wrapper over the streaming fold; use [`stream_part_one`] when only the
/// metrics are needed.
pub fn run_part_one(config: &PartOneConfig) -> PartOneResults {
    let mut records = Vec::new();
    for_each_part_one_record(config, |record| records.push(record));
    PartOneResults {
        model: config.model,
        records,
    }
}

/// Run Part One and fold every record straight into accumulators: the
/// constant-memory path — no record is retained after it is observed.
pub fn stream_part_one(config: &PartOneConfig) -> PartOneMetrics {
    let mut metrics = PartOneMetrics::new(config.model);
    for_each_part_one_record(config, |record| metrics.observe(&record));
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

    /// The corpus pipeline this configuration describes.
    pub fn corpus_spec(&self) -> CorpusSpec {
        CorpusSpec::new(self.model)
            .seed(self.corpus_seed)
            .probe(ProbeConfig::with_seed(self.probe_seed))
            .size(self.suite_size)
    }
}

/// One file's full Part Two record.
#[derive(Clone, Debug)]
pub struct PartTwoRecord {
    /// Case identifier.
    pub case_id: String,
    /// Injected issue.
    pub issue: IssueKind,
    /// True if the simulated vendor compiler accepted the file.
    pub compile_ok: bool,
    /// Execution result (None if the file never compiled).
    pub exec_passed: Option<bool>,
    /// Agent judge with the direct-analysis prompt (LLMJ 1).
    pub llmj1: JudgeOutcome,
    /// Agent judge with the indirect-analysis prompt (LLMJ 2).
    pub llmj2: JudgeOutcome,
}

impl PartTwoRecord {
    fn judge_verdict(&self, outcome: &JudgeOutcome) -> Verdict {
        outcome.verdict_or_invalid()
    }

    /// The verdict of evaluator `which` for this file.
    pub fn verdict(&self, which: Evaluator) -> Verdict {
        match which {
            Evaluator::Llmj1 => self.judge_verdict(&self.llmj1),
            Evaluator::Llmj2 => self.judge_verdict(&self.llmj2),
            Evaluator::Pipeline1 | Evaluator::Pipeline2 => {
                if !self.compile_ok || self.exec_passed != Some(true) {
                    return Verdict::Invalid;
                }
                let judge = if which == Evaluator::Pipeline1 {
                    &self.llmj1
                } else {
                    &self.llmj2
                };
                self.judge_verdict(judge)
            }
        }
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

impl Evaluator {
    /// All evaluators in display order.
    pub const ALL: [Evaluator; 4] = [
        Evaluator::Llmj1,
        Evaluator::Llmj2,
        Evaluator::Pipeline1,
        Evaluator::Pipeline2,
    ];

    /// Display label matching the paper's terminology.
    pub fn label(&self) -> &'static str {
        match self {
            Evaluator::Llmj1 => "LLMJ 1",
            Evaluator::Llmj2 => "LLMJ 2",
            Evaluator::Pipeline1 => "Pipeline 1",
            Evaluator::Pipeline2 => "Pipeline 2",
        }
    }

    /// Position in [`Evaluator::ALL`] (the sink index in `PartTwoMetrics`).
    fn slot(&self) -> usize {
        match self {
            Evaluator::Llmj1 => 0,
            Evaluator::Llmj2 => 1,
            Evaluator::Pipeline1 => 2,
            Evaluator::Pipeline2 => 3,
        }
    }
}

/// Results of a Part Two run.
#[derive(Clone, Debug)]
pub struct PartTwoResults {
    /// Programming model.
    pub model: DirectiveModel,
    /// Per-file records.
    pub records: Vec<PartTwoRecord>,
}

impl PartTwoResults {
    /// Convert to metric records for one evaluator.
    pub fn evaluation_records(&self, which: Evaluator) -> Vec<EvaluationRecord> {
        self.records
            .iter()
            .map(|r| EvaluationRecord::new(r.case_id.clone(), r.issue, Some(r.verdict(which))))
            .collect()
    }

    /// One-shot fold of the materialized records into the streaming
    /// accumulators, all four evaluators at once (byte-identical to
    /// [`stream_part_two`] for the same configuration; the service
    /// statistics are left at their defaults because a materialized result
    /// set no longer knows them).
    pub fn metrics(&self) -> PartTwoMetrics {
        let mut metrics = PartTwoMetrics::new(self.model);
        for record in &self.records {
            for which in Evaluator::ALL {
                metrics.sinks[which.slot()].observe_case(record.issue, Some(record.verdict(which)));
            }
            metrics.llmj1_load.observe(&record.llmj1);
            metrics.llmj2_load.observe(&record.llmj2);
        }
        metrics
    }

    /// Single-pass sink fold for one evaluator, backing the per-table
    /// accessors (cheaper than the all-evaluator
    /// [`PartTwoResults::metrics`] fold).
    fn fold_sink(&self, which: Evaluator) -> MetricsSink {
        let mut sink = MetricsSink::default();
        for record in &self.records {
            sink.observe_case(record.issue, Some(record.verdict(which)));
        }
        sink
    }

    /// Per-issue accuracy rows for one evaluator.
    pub fn per_issue(&self, which: Evaluator) -> Vec<PerIssueRow> {
        self.fold_sink(which).per_issue_rows()
    }

    /// Overall accuracy and bias for one evaluator.
    pub fn overall(&self, which: Evaluator) -> OverallStats {
        self.fold_sink(which).overall_stats()
    }

    /// Radar series for one evaluator (Figures 3–6).
    pub fn radar(&self, which: Evaluator) -> Vec<RadarPoint> {
        self.fold_sink(which).radar_series()
    }
}

/// Streaming Part Two results: one [`MetricsSink`] per evaluator, folded
/// off the validation service's record streams in constant memory.
#[derive(Clone, Debug)]
pub struct PartTwoMetrics {
    /// Programming model.
    pub model: DirectiveModel,
    /// One sink per [`Evaluator`], in [`Evaluator::ALL`] order.
    sinks: [MetricsSink; 4],
    /// Token/latency summary of the direct-analysis judge (LLMJ 1).
    pub llmj1_load: LatencyTokenSummary,
    /// Token/latency summary of the indirect-analysis judge (LLMJ 2).
    pub llmj2_load: LatencyTokenSummary,
    /// Service statistics of the direct-judge run.
    pub direct_stats: PipelineStats,
    /// Service statistics of the indirect-judge run.
    pub indirect_stats: PipelineStats,
}

impl PartTwoMetrics {
    fn new(model: DirectiveModel) -> Self {
        Self {
            model,
            sinks: Default::default(),
            llmj1_load: LatencyTokenSummary::default(),
            llmj2_load: LatencyTokenSummary::default(),
            direct_stats: PipelineStats::default(),
            indirect_stats: PipelineStats::default(),
        }
    }

    /// The accumulator behind one evaluator's metrics.
    pub fn sink(&self, which: Evaluator) -> &MetricsSink {
        &self.sinks[which.slot()]
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

    /// Absorb another shard's accumulators (see the merge laws in
    /// [`vv_metrics::accumulate`]).
    pub fn merge(&mut self, other: &PartTwoMetrics) {
        assert_eq!(self.model, other.model, "cannot merge across models");
        for (sink, theirs) in self.sinks.iter_mut().zip(&other.sinks) {
            sink.merge(theirs);
        }
        self.llmj1_load.merge(&other.llmj1_load);
        self.llmj2_load.merge(&other.llmj2_load);
        self.direct_stats.merge(&other.direct_stats);
        self.indirect_stats.merge(&other.indirect_stats);
    }

    /// Fold one completed record of a record-all run into the sinks of the
    /// judge evaluator (the judge's own verdict) and the pipeline evaluator
    /// (the compile/execute/judge-gated verdict).
    fn observe_record(
        &mut self,
        judge: Evaluator,
        pipeline: Evaluator,
        issue: IssueKind,
        record: &CaseRecord,
    ) {
        let judge_load = match judge {
            Evaluator::Llmj1 => &mut self.llmj1_load,
            _ => &mut self.llmj2_load,
        };
        // Judge sinks occupy slots 0–1, pipeline sinks 2–3.
        let (judge_sinks, pipeline_sinks) = self.sinks.split_at_mut(2);
        observe_record_all_case(
            &mut judge_sinks[judge.slot()],
            &mut pipeline_sinks[pipeline.slot() - 2],
            judge_load,
            issue,
            record,
        );
    }
}

/// Fold one completed record of a record-all run into a judge sink (the
/// judge's own verdict), a pipeline sink (the compile/execute/judge-gated
/// verdict) and a judge-load summary. The single definition of how a
/// [`CaseRecord`] maps onto evaluation metrics, shared by
/// [`stream_part_two`] and the campaign harness so the two paths cannot
/// silently diverge.
///
/// # Panics
///
/// Panics if the record carries no judgement (i.e. the run was not in
/// record-all mode).
pub fn observe_record_all_case(
    judge: &mut MetricsSink,
    pipeline: &mut MetricsSink,
    judge_load: &mut LatencyTokenSummary,
    issue: IssueKind,
    record: &CaseRecord,
) {
    let judgement = record
        .judgement
        .as_ref()
        .expect("record-all mode judges every file");
    judge.observe_case(issue, Some(judgement.verdict_or_invalid()));
    pipeline.observe_case(issue, Some(record.pipeline_verdict()));
    judge_load.observe(judgement);
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

/// Run Part Two and fold every record straight into per-evaluator
/// accumulators: the constant-memory path. Both judge passes stream their
/// records through [`fold_probed_source`]; the direct run feeds the LLMJ 1
/// and Pipeline 1 sinks, the indirect run LLMJ 2 and Pipeline 2. Because
/// the compile and execute substrates are deterministic, the pipeline
/// verdicts derived from each run's own stage results are byte-identical
/// to the batch [`run_part_two`] computation, which reuses the direct
/// run's stage results for both pipelines.
pub fn stream_part_two(config: &PartTwoConfig) -> PartTwoMetrics {
    let base = ValidationService::builder()
        .mode(PipelineMode::RecordAll)
        .judge_seed(config.judge_seed);
    let spec = config.corpus_spec();
    let mut metrics = PartTwoMetrics::new(config.model);

    let direct = base.clone().build();
    let fold = fold_probed_source(&direct, spec.source(), |issue, record| {
        metrics.observe_record(Evaluator::Llmj1, Evaluator::Pipeline1, issue, record);
    });
    metrics.direct_stats = fold.stats;

    let indirect = base.indirect_judge().build();
    let fold = fold_probed_source(&indirect, spec.source(), |issue, record| {
        metrics.observe_record(Evaluator::Llmj2, Evaluator::Pipeline2, issue, record);
    });
    metrics.indirect_stats = fold.stats;

    metrics
}

/// Run Part Two: every probed file is compiled, executed where possible and
/// judged by *both* agent-based judges, mirroring the paper's record-all
/// methodology ("we did not prevent invalid files from continuing through
/// the pipeline"), so the pipeline results can be derived retroactively.
pub fn run_part_two(config: &PartTwoConfig) -> PartTwoResults {
    let spec = config.corpus_spec();
    let base = ValidationService::builder()
        .mode(PipelineMode::RecordAll)
        .judge_seed(config.judge_seed);

    // Generation and probing stream lazily into the service; the ground
    // truth is tapped off the stream (in submission order) as cases are
    // pulled, so no probed suite is ever materialized.
    let truth: Arc<Mutex<Vec<(String, IssueKind)>>> = Arc::default();
    let capture = Arc::clone(&truth);
    let tapped = spec.source().inspect(move |case| {
        capture
            .lock()
            .expect("ground-truth capture poisoned")
            .push((case.case.id.clone(), IssueKind::of_case(case)));
    });
    let run_direct = base.clone().build().run_source(tapped);
    let run_indirect = base.indirect_judge().build().run_source(spec.source());
    let truth = std::mem::take(&mut *truth.lock().expect("ground-truth capture poisoned"));

    let records = truth
        .into_iter()
        .zip(run_direct.records)
        .zip(run_indirect.records)
        .map(|(((case_id, issue), direct), indirect)| {
            debug_assert_eq!(case_id, direct.id);
            debug_assert_eq!(case_id, indirect.id);
            PartTwoRecord {
                case_id,
                issue,
                compile_ok: direct.compile.succeeded,
                exec_passed: direct.exec.as_ref().map(|e| e.passed),
                llmj1: direct.judgement.expect("record-all mode judges every file"),
                llmj2: indirect
                    .judgement
                    .expect("record-all mode judges every file"),
            }
        })
        .collect();

    PartTwoResults {
        model: config.model,
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn part_one_produces_one_record_per_file() {
        let config = PartOneConfig::quick(DirectiveModel::OpenAcc, 20);
        let results = run_part_one(&config);
        assert_eq!(results.records.len(), 20);
        let rows = results.per_issue();
        let total: usize = rows.iter().map(|r| r.count).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn part_one_is_deterministic() {
        let config = PartOneConfig::quick(DirectiveModel::OpenMp, 16);
        let a = run_part_one(&config);
        let b = run_part_one(&config);
        let verdicts_a: Vec<_> = a.records.iter().map(|r| r.outcome.verdict).collect();
        let verdicts_b: Vec<_> = b.records.iter().map(|r| r.outcome.verdict).collect();
        assert_eq!(verdicts_a, verdicts_b);
    }

    #[test]
    fn part_two_pipeline_is_at_least_as_accurate_as_its_judge() {
        let config = PartTwoConfig::quick(DirectiveModel::OpenAcc, 40);
        let results = run_part_two(&config);
        assert_eq!(results.records.len(), 40);
        // The pipeline adds compile/execute gating in front of the judge, so
        // on mutated-or-valid suites it can only gain accuracy on files the
        // compiler rejects; overall it should not be dramatically worse.
        let judge_acc = results.overall(Evaluator::Llmj1).accuracy;
        let pipeline_acc = results.overall(Evaluator::Pipeline1).accuracy;
        assert!(
            pipeline_acc + 0.15 >= judge_acc,
            "pipeline {pipeline_acc} vs judge {judge_acc}"
        );
    }

    #[test]
    fn part_two_valid_files_compile_and_run() {
        let config = PartTwoConfig::quick(DirectiveModel::OpenMp, 30);
        let results = run_part_two(&config);
        for record in &results.records {
            if record.issue.is_valid() {
                assert!(
                    record.compile_ok,
                    "valid case {} must compile",
                    record.case_id
                );
                assert_eq!(
                    record.exec_passed,
                    Some(true),
                    "valid case {} must pass",
                    record.case_id
                );
            }
        }
    }

    #[test]
    fn evaluator_labels_are_distinct() {
        let labels: Vec<_> = Evaluator::ALL.iter().map(|e| e.label()).collect();
        let mut deduped = labels.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(labels.len(), deduped.len());
    }
}
