//! Scenario-matrix campaigns: sweep many judge/pipeline configurations in
//! one run, each in constant memory.
//!
//! The paper evaluates one configuration at a time (one model, one prompt
//! style, one pipeline). This module turns that into a **matrix**: a
//! [`ScenarioMatrix`] enumerates scenarios over
//!
//! * directive model (OpenACC / OpenMP),
//! * judge prompt style (plain / agent-direct / agent-indirect),
//! * negative-probing fraction, and
//! * judge calibration profile,
//!
//! and [`run_campaign`] executes every scenario, several at once on
//! scoped threads. Each scenario streams its corpus through a record-all
//! [`ValidationService`] as `shard(k, n)` sources — one independent,
//! reproducible slice at a time — folding each shard into its own
//! [`MetricsSink`]s and merging them. One private routine drives every
//! scenario: [`run_scenario`], [`run_campaign`] and the store-backed
//! [`run_incremental_campaign`](crate::incremental::run_incremental_campaign)
//! all call it, and differ only in the service each shard streams through:
//! the store-backed one looks each case up in the store once and replays a
//! stored record in place of the stages. By the corpus layer's shard-union
//! law and the accumulators' merge laws, the merged per-scenario metrics
//! are byte-identical to an unsharded single-pass fold, which is itself
//! byte-identical to the legacy batch computation over a materialized
//! suite (asserted in `tests/campaign.rs`). No `Vec` of records ever
//! exists on the path, so 100k+ cases per scenario run in the same memory
//! as 100.
//!
//! ```no_run
//! use llm4vv::campaign::{run_campaign, ScenarioMatrix};
//! use llm4vv::dclang::DirectiveModel;
//! use llm4vv::judge::JudgeProfile;
//!
//! let matrix = ScenarioMatrix::new(25_000)
//!     .models(vec![DirectiveModel::OpenAcc, DirectiveModel::OpenMp])
//!     .judge_profiles(vec![
//!         JudgeProfile::deepseek_agent_direct(),
//!         JudgeProfile::deepseek_agent_indirect(),
//!     ])
//!     .shards(4);
//! let campaign = run_campaign(&matrix); // 4 scenarios x 25k cases
//! println!("{}", campaign.comparison_table());
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use vv_corpus::CaseSource;
use vv_dclang::DirectiveModel;
use vv_judge::{JudgeProfile, PromptStyle};
use vv_metrics::{Accumulator as _, LatencyTokenSummary, MetricsSink};
use vv_pipeline::{CaseRecord, PipelineMode, PipelineStats, ValidationService};
use vv_probing::{CorpusSpec, IssueKind, ProbeConfig};
use vv_simcompiler::{CompileCache, PersistentCache};
use vv_store::ArtifactStore;

use crate::experiment::fold_probed_source;
use crate::incremental::Checkpoint;

/// One fully-specified cell of a [`ScenarioMatrix`].
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Compact label used in the comparison table.
    pub label: String,
    /// Programming model under test.
    pub model: DirectiveModel,
    /// Prompt style of the judge stage.
    pub prompt_style: PromptStyle,
    /// Calibration profile of the judge stage.
    pub judge_profile: JudgeProfile,
    /// Fraction of the corpus mutated by negative probing.
    pub probe_fraction: f64,
    /// Unsharded corpus size.
    pub suite_size: usize,
    /// Number of independent corpus shards the scenario streams.
    pub shards: usize,
    /// Seed for corpus generation.
    pub corpus_seed: u64,
    /// Seed for probing (split and mutation draws).
    pub probe_seed: u64,
    /// Seed for the judge's decision layer.
    pub judge_seed: u64,
}

impl Scenario {
    /// The unsharded corpus pipeline this scenario evaluates.
    pub fn corpus_spec(&self) -> CorpusSpec {
        let mut probe = ProbeConfig::with_seed(self.probe_seed);
        probe.mutated_fraction = self.probe_fraction;
        CorpusSpec::new(self.model)
            .seed(self.corpus_seed)
            .probe(probe)
            .size(self.suite_size)
    }

    /// The spec of shard `k` of this scenario's corpus.
    pub fn shard_spec(&self, k: usize) -> CorpusSpec {
        self.corpus_spec().shard(k, self.shards)
    }

    /// The record-all validation service this scenario runs.
    pub fn service(&self) -> ValidationService {
        self.builder().build()
    }

    /// Like [`Scenario::service`], but compiling through a shared
    /// content-addressed compile cache. Scenarios that re-run the same
    /// corpus shards (every matrix axis except the probe fraction leaves
    /// the corpus unchanged) then compile each distinct source once for the
    /// whole campaign; outcomes are byte-identical either way.
    pub fn service_with_cache(&self, cache: Arc<CompileCache>) -> ValidationService {
        self.builder().compile_cache(cache).build()
    }

    /// Like [`Scenario::service_with_cache`], but additionally backed by a
    /// durable [`ArtifactStore`]: compile outcomes persist through a
    /// [`PersistentCache`] disk tier and whole case records are replayed
    /// from the store on re-runs (see `vv_pipeline::persist`). This is the
    /// service the incremental campaign harness builds.
    pub fn service_with_store(
        &self,
        cache: Arc<CompileCache>,
        store: &Arc<ArtifactStore>,
    ) -> ValidationService {
        self.builder()
            .persistent_compile(Arc::new(PersistentCache::new(cache, Arc::clone(store))))
            .artifact_store(Arc::clone(store))
            .build()
    }

    fn builder(&self) -> vv_pipeline::ValidationServiceBuilder {
        ValidationService::builder()
            .mode(PipelineMode::RecordAll)
            .judge_style(self.prompt_style)
            .judge_profile(self.judge_profile.clone())
            .judge_seed(self.judge_seed)
    }
}

fn model_tag(model: DirectiveModel) -> &'static str {
    match model {
        DirectiveModel::OpenAcc => "acc",
        DirectiveModel::OpenMp => "omp",
    }
}

fn style_tag(style: PromptStyle) -> &'static str {
    match style {
        PromptStyle::Direct => "plain",
        PromptStyle::AgentDirect => "agent-direct",
        PromptStyle::AgentIndirect => "agent-indirect",
    }
}

fn profile_tag(profile: &JudgeProfile) -> &'static str {
    if profile.name.contains("LLMJ 1") {
        "llmj1"
    } else if profile.name.contains("LLMJ 2") {
        "llmj2"
    } else if profile.name.contains("no tools") {
        "plain"
    } else {
        profile.name
    }
}

/// Builder enumerating scenarios over the cross product of its axes.
///
/// Every axis defaults to a single value (OpenACC, agent-direct prompting,
/// the paper's 50% probe split, the LLMJ 1 profile), so setting one axis
/// sweeps exactly that dimension. Axis order in the generated list: model,
/// prompt style, probe fraction, profile.
#[derive(Clone, Debug)]
pub struct ScenarioMatrix {
    models: Vec<DirectiveModel>,
    prompt_styles: Vec<PromptStyle>,
    probe_fractions: Vec<f64>,
    judge_profiles: Vec<JudgeProfile>,
    suite_size: usize,
    shards: usize,
    corpus_seed: u64,
    probe_seed: u64,
    judge_seed: u64,
}

impl ScenarioMatrix {
    /// A single-scenario matrix over `suite_size` cases; grow it one axis
    /// at a time.
    pub fn new(suite_size: usize) -> Self {
        Self {
            models: vec![DirectiveModel::OpenAcc],
            prompt_styles: vec![PromptStyle::AgentDirect],
            probe_fractions: vec![0.5],
            judge_profiles: vec![JudgeProfile::deepseek_agent_direct()],
            suite_size,
            shards: 1,
            corpus_seed: 0xCA_3B_01,
            probe_seed: 0xCA_3B_02,
            judge_seed: 0xCA_3B_03,
        }
    }

    /// Directive models to sweep.
    pub fn models(mut self, models: Vec<DirectiveModel>) -> Self {
        assert!(
            !models.is_empty(),
            "the model axis needs at least one entry"
        );
        self.models = models;
        self
    }

    /// Judge prompt styles to sweep.
    pub fn prompt_styles(mut self, styles: Vec<PromptStyle>) -> Self {
        assert!(
            !styles.is_empty(),
            "the style axis needs at least one entry"
        );
        self.prompt_styles = styles;
        self
    }

    /// Negative-probing fractions to sweep (each in `[0, 1]`).
    pub fn probe_fractions(mut self, fractions: Vec<f64>) -> Self {
        assert!(
            !fractions.is_empty(),
            "the fraction axis needs at least one entry"
        );
        assert!(
            fractions.iter().all(|f| (0.0..=1.0).contains(f)),
            "probe fractions must lie in [0, 1]"
        );
        self.probe_fractions = fractions;
        self
    }

    /// Judge calibration profiles to sweep.
    pub fn judge_profiles(mut self, profiles: Vec<JudgeProfile>) -> Self {
        assert!(
            !profiles.is_empty(),
            "the profile axis needs at least one entry"
        );
        self.judge_profiles = profiles;
        self
    }

    /// Unsharded corpus size per scenario.
    pub fn suite_size(mut self, size: usize) -> Self {
        self.suite_size = size;
        self
    }

    /// Stream each scenario's corpus as `n` independent shards.
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n >= 1, "a scenario needs at least one shard");
        self.shards = n;
        self
    }

    /// Seeds shared by every scenario (corpus, probe, judge).
    pub fn seeds(mut self, corpus: u64, probe: u64, judge: u64) -> Self {
        self.corpus_seed = corpus;
        self.probe_seed = probe;
        self.judge_seed = judge;
        self
    }

    /// Number of scenarios the matrix enumerates.
    pub fn len(&self) -> usize {
        self.models.len()
            * self.prompt_styles.len()
            * self.probe_fractions.len()
            * self.judge_profiles.len()
    }

    /// True when no axis has entries (unreachable through the builder).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerate the scenarios (cross product of every axis).
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut scenarios = Vec::with_capacity(self.len());
        for &model in &self.models {
            for &prompt_style in &self.prompt_styles {
                for &probe_fraction in &self.probe_fractions {
                    for judge_profile in &self.judge_profiles {
                        let label = format!(
                            "{}/{}/mut{:.0}%/{}",
                            model_tag(model),
                            style_tag(prompt_style),
                            probe_fraction * 100.0,
                            profile_tag(judge_profile),
                        );
                        scenarios.push(Scenario {
                            label,
                            model,
                            prompt_style,
                            judge_profile: judge_profile.clone(),
                            probe_fraction,
                            suite_size: self.suite_size,
                            shards: self.shards,
                            corpus_seed: self.corpus_seed,
                            probe_seed: self.probe_seed,
                            judge_seed: self.judge_seed,
                        });
                    }
                }
            }
        }
        scenarios
    }
}

/// Merged accumulators of one completed scenario.
#[derive(Clone, Debug)]
pub struct ScenarioMetrics {
    /// The scenario that produced these metrics.
    pub scenario: Scenario,
    /// Metrics of the judge's own verdicts (stand-alone LLMJ).
    pub judge: MetricsSink,
    /// Metrics of the compile→execute→judge-gated pipeline verdicts.
    pub pipeline: MetricsSink,
    /// Token/latency summary of the judge stage.
    pub judge_load: LatencyTokenSummary,
    /// Service statistics merged across shards (latency quantiles are
    /// exact under the merge).
    pub stats: PipelineStats,
    /// Highest number of in-flight ground-truth entries across all shard
    /// folds — the constant-memory evidence (tracks the pipeline window,
    /// not the corpus size).
    pub max_in_flight: usize,
}

impl ScenarioMetrics {
    pub(crate) fn new(scenario: Scenario) -> Self {
        Self {
            scenario,
            judge: MetricsSink::default(),
            pipeline: MetricsSink::default(),
            judge_load: LatencyTokenSummary::default(),
            stats: PipelineStats::default(),
            max_in_flight: 0,
        }
    }

    /// Fold one completed record of a record-all run into the judge sink
    /// (the judge's own verdict), the pipeline sink (the
    /// compile/execute/judge-gated verdict) and the judge-load summary.
    /// The single definition of how a [`CaseRecord`] maps onto evaluation
    /// metrics, shared by the streaming fold and remote runs so the paths
    /// cannot silently diverge.
    ///
    /// # Panics
    ///
    /// Panics if the record carries no judgement (i.e. the run was not in
    /// record-all mode).
    pub fn observe(&mut self, issue: IssueKind, record: &CaseRecord) {
        let judgement = record
            .judgement
            .as_ref()
            .expect("record-all mode judges every file");
        self.judge
            .observe_case(issue, Some(judgement.verdict_or_invalid()));
        self.pipeline
            .observe_case(issue, Some(record.pipeline_verdict()));
        self.judge_load.observe(judgement);
    }

    /// Absorb another partial fold of the same scenario (a shard or a
    /// remote job): every accumulator merges exactly, and the
    /// in-flight high-water mark takes the maximum.
    pub fn merge(&mut self, other: &ScenarioMetrics) {
        self.judge.merge(&other.judge);
        self.pipeline.merge(&other.pipeline);
        self.judge_load.merge(&other.judge_load);
        self.stats.merge(&other.stats);
        self.max_in_flight = self.max_in_flight.max(other.max_in_flight);
    }

    /// Number of cases evaluated.
    pub fn cases(&self) -> usize {
        self.pipeline.total()
    }
}

/// Run one scenario: stream each of its corpus shards through its service,
/// folding per-shard accumulators and merging them (see the module docs
/// for why the merged result is exact).
pub fn run_scenario(scenario: &Scenario) -> ScenarioMetrics {
    drive_scenario(scenario, CompileCache::shared(), None)
}

/// The one scenario driver, behind [`run_scenario`], [`run_campaign`] and
/// [`run_incremental_campaign`](crate::incremental::run_incremental_campaign).
///
/// Every shard streams through the scenario's service, one after the
/// other. With a checkpoint that service is store-backed: each case gets
/// one store lookup, inside the service, and a stored record replays
/// there instead of running the stages. Under a budget only the cases the
/// store lacks draw on it (see [`Checkpoint::admit`]).
fn drive_scenario(
    scenario: &Scenario,
    cache: Arc<CompileCache>,
    checkpoint: Option<&Checkpoint>,
) -> ScenarioMetrics {
    let service = match checkpoint {
        Some(checkpoint) => scenario.service_with_store(cache, &checkpoint.store),
        None => scenario.service_with_cache(cache),
    };
    let mut merged = ScenarioMetrics::new(scenario.clone());
    for k in 0..scenario.shards {
        let mut source = scenario.shard_spec(k).source();
        if let Some(checkpoint) = checkpoint {
            source = checkpoint.admit(&service, source);
        }
        merged.merge(&fold_shard(scenario, &service, source));
    }
    merged
}

/// Stream one shard's cases through `service` into fresh accumulators.
fn fold_shard(
    scenario: &Scenario,
    service: &ValidationService,
    source: impl CaseSource + Send + 'static,
) -> ScenarioMetrics {
    let mut shard = ScenarioMetrics::new(scenario.clone());
    let fold = fold_probed_source(service, source, |issue, record| {
        shard.observe(issue, record)
    });
    shard.stats = fold.stats;
    shard.max_in_flight = fold.max_in_flight;
    shard
}

/// Every scenario of `matrix` through [`drive_scenario`], several at once,
/// sharing one content-addressed compile cache: scenario axes that reuse a
/// corpus (prompt style, judge profile) hit the outcomes their sibling
/// scenarios already compiled.
pub(crate) fn drive_campaign(
    matrix: &ScenarioMatrix,
    checkpoint: Option<&Checkpoint>,
) -> CampaignResults {
    let scenarios = matrix.scenarios();
    let cache = CompileCache::shared();
    let scenarios = par_map(scenarios.len(), |i| {
        drive_scenario(&scenarios[i], Arc::clone(&cache), checkpoint)
    });
    CampaignResults { scenarios }
}

/// `f(0), …, f(n - 1)` in index order, computed on at most
/// `available_parallelism()` scoped threads: thread `t` takes indices `t`,
/// `t + threads`, and so on. A panic in `f` resumes on the caller.
pub(crate) fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let mut strides: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                scope.spawn(move || (t..n).step_by(threads).map(f).collect::<Vec<T>>())
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| {
                let stride = worker.join();
                stride.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .map(Vec::into_iter)
            .collect()
    });
    (0..n)
        .map(|i| {
            strides[i % threads]
                .next()
                .expect("thread i % threads mapped i")
        })
        .collect()
}

/// Results of a whole campaign, scenario order matching
/// [`ScenarioMatrix::scenarios`].
#[derive(Clone, Debug)]
pub struct CampaignResults {
    /// Per-scenario merged metrics.
    pub scenarios: Vec<ScenarioMetrics>,
}

impl CampaignResults {
    /// Total cases evaluated across every scenario.
    pub fn total_cases(&self) -> usize {
        self.scenarios.iter().map(ScenarioMetrics::cases).sum()
    }

    /// Whole-record artifact-store hits across every scenario: cases the
    /// store-backed service replayed from a stored record (an earlier
    /// run's, or one an in-run sibling persisted moments earlier) — no
    /// stage was re-run. Zero without a store.
    pub fn total_reused(&self) -> usize {
        self.scenarios.iter().map(|s| s.stats.store_hits).sum()
    }

    /// Cases validated from scratch through a store-backed service (and
    /// persisted for next time) across every scenario. Zero without a
    /// store.
    pub fn total_fresh(&self) -> usize {
        self.scenarios.iter().map(|s| s.stats.store_misses).sum()
    }

    /// True when every scenario covered its full corpus. A store-backed
    /// campaign whose validation budget ran out first is not; its next run
    /// resumes from the records this one sealed.
    pub fn completed(&self) -> bool {
        self.scenarios
            .iter()
            .all(|s| s.stats.submitted == s.scenario.suite_size)
    }

    /// Cross-scenario comparison table: one row per scenario with case
    /// count, pipeline and stand-alone-judge accuracy, pipeline bias, the
    /// p50/p95/p99 simulated judge latency (exact across the shard
    /// merges), and the compile-cache and artifact-store provenance —
    /// hits/misses plus the derived hit rate for each. Scenarios run
    /// without a caching backend (or without a store) report `0/0` and a
    /// 0.0% rate.
    pub fn comparison_table(&self) -> String {
        let label_width = self
            .scenarios
            .iter()
            .map(|s| s.scenario.label.len())
            .max()
            .unwrap_or(8)
            .max("Scenario".len());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "CAMPAIGN: {} scenarios, {} cases",
            self.scenarios.len(),
            self.total_cases()
        );
        let header = format!(
            "{:<label_width$} {:>8} {:>10} {:>10} {:>7} {:>8} {:>8} {:>8} {:>13} {:>6} {:>13} {:>6}",
            "Scenario",
            "Cases",
            "Pipe acc",
            "Judge acc",
            "Bias",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "CC hit/miss",
            "CC%",
            "Sto hit/miss",
            "Sto%"
        );
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{}", "-".repeat(header.len()));
        for metrics in &self.scenarios {
            let pipeline = metrics.pipeline.overall_stats();
            let judge = metrics.judge.overall_stats();
            let quantile = |q: Option<f64>| match q {
                Some(ms) => format!("{ms:.0}"),
                None => "n/a".to_string(),
            };
            let stats = &metrics.stats;
            let _ = writeln!(
                out,
                "{:<label_width$} {:>8} {:>9.1}% {:>9.1}% {:>+7.3} {:>8} {:>8} {:>8} {:>13} {:>5.1}% {:>13} {:>5.1}%",
                metrics.scenario.label,
                metrics.cases(),
                pipeline.accuracy * 100.0,
                judge.accuracy * 100.0,
                pipeline.bias,
                quantile(stats.judge_latency_p50()),
                quantile(stats.judge_latency_p95()),
                quantile(stats.judge_latency_p99()),
                format!("{}/{}", stats.compile_cache_hits, stats.compile_cache_misses),
                stats.compile_cache_hit_rate() * 100.0,
                format!("{}/{}", stats.store_hits, stats.store_misses),
                stats.store_hit_rate() * 100.0,
            );
        }
        out
    }
}

/// Run every scenario of the matrix, several at once (each scenario's
/// shards stream sequentially through its own service, which already runs
/// its stage workers in parallel).
pub fn run_campaign(matrix: &ScenarioMatrix) -> CampaignResults {
    drive_campaign(matrix, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_returns_results_in_index_order() {
        for n in [1, 2, 3, 17] {
            let squares = par_map(n, |i| i * i);
            assert_eq!(squares, (0..n).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_over_nothing_is_empty() {
        assert!(par_map(0, |i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "index 5")]
    fn par_map_resumes_a_panic_on_the_caller() {
        par_map(8, |i| assert!(i != 5, "index {i}"));
    }

    #[test]
    fn matrix_enumerates_the_cross_product_in_axis_order() {
        let matrix = ScenarioMatrix::new(100)
            .models(vec![DirectiveModel::OpenAcc, DirectiveModel::OpenMp])
            .prompt_styles(vec![PromptStyle::AgentDirect, PromptStyle::AgentIndirect])
            .probe_fractions(vec![0.25, 0.5, 0.75]);
        assert_eq!(matrix.len(), 12);
        assert!(!matrix.is_empty());
        let scenarios = matrix.scenarios();
        assert_eq!(scenarios.len(), 12);
        // Model is the outermost axis.
        assert!(scenarios[..6]
            .iter()
            .all(|s| s.model == DirectiveModel::OpenAcc));
        assert!(scenarios[6..]
            .iter()
            .all(|s| s.model == DirectiveModel::OpenMp));
        // Labels are unique.
        let mut labels: Vec<&str> = scenarios.iter().map(|s| s.label.as_str()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 12);
    }

    #[test]
    fn probe_fraction_reaches_the_corpus_spec() {
        let matrix = ScenarioMatrix::new(40).probe_fractions(vec![0.25]);
        let scenario = &matrix.scenarios()[0];
        let mutated = scenario
            .corpus_spec()
            .source()
            .into_cases()
            .filter(|case| !case.ground_truth_valid())
            .count();
        assert_eq!(mutated, 10, "25% of 40 cases mutated");
    }

    #[test]
    fn sharded_scenario_covers_the_whole_corpus_exactly_once() {
        let matrix = ScenarioMatrix::new(60).shards(3);
        let metrics = run_scenario(&matrix.scenarios()[0]);
        assert_eq!(metrics.cases(), 60);
        assert_eq!(metrics.stats.submitted, 60);
        assert_eq!(metrics.stats.judged, 60, "record-all judges every file");
        assert_eq!(metrics.judge.total(), 60);
        assert!(metrics.max_in_flight <= 60);
    }

    #[test]
    fn shard_count_does_not_change_scenario_metrics() {
        let unsharded = run_scenario(&ScenarioMatrix::new(48).scenarios()[0]);
        let sharded = run_scenario(&ScenarioMatrix::new(48).shards(4).scenarios()[0]);
        assert_eq!(unsharded.judge, sharded.judge);
        assert_eq!(unsharded.pipeline, sharded.pipeline);
        assert_eq!(unsharded.judge_load, sharded.judge_load);
        assert_eq!(
            unsharded.stats.judge_latency, sharded.stats.judge_latency,
            "latency histograms are exact under the shard merge"
        );
    }

    #[test]
    fn comparison_table_has_one_row_per_scenario() {
        let matrix = ScenarioMatrix::new(30).judge_profiles(vec![
            JudgeProfile::deepseek_agent_direct(),
            JudgeProfile::deepseek_agent_indirect(),
        ]);
        let campaign = run_campaign(&matrix);
        assert_eq!(campaign.scenarios.len(), 2);
        assert_eq!(campaign.total_cases(), 60);
        let table = campaign.comparison_table();
        assert!(table.contains("CAMPAIGN: 2 scenarios, 60 cases"), "{table}");
        assert!(table.contains("llmj1"), "{table}");
        assert!(table.contains("llmj2"), "{table}");
        assert!(table.contains("p99 ms"), "{table}");
        assert!(table.contains("CC hit/miss"), "{table}");
        assert!(table.contains("Sto hit/miss"), "{table}");
        // Header + separator + campaign line + one row per scenario.
        assert_eq!(table.lines().count(), 3 + campaign.scenarios.len());
    }
}
