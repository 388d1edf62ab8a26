//! Checkpoint/resume incremental campaigns over a durable
//! [`ArtifactStore`].
//!
//! [`run_campaign`](crate::campaign::run_campaign) is all-or-nothing: kill
//! the process at 90% and the next run starts from zero. This module makes
//! a campaign **resumable** from one piece of durable state, the artifact
//! store: it persists every compile outcome (`vv_simcompiler::persist`)
//! and every completed case record (`vv_pipeline::persist`), so
//! re-validating an unchanged case is a disk lookup instead of a compile +
//! execute + judge. An interrupted run's next invocation finds every
//! record the interrupted run sealed and validates only what is missing.
//! A crash can cost at most the records not yet sealed into a segment
//! (the store seals every 1,024 puts); those simply re-validate.
//!
//! Because every accumulator on the path ([`vv_metrics::MetricsSink`],
//! [`vv_metrics::LatencyTokenSummary`], the latency
//! histogram inside [`PipelineStats`]) is order-insensitive and exact
//! under merge, an interrupted-then-resumed campaign produces metrics
//! **byte-identical** to an uninterrupted one — asserted case by case in
//! `tests/store_resume.rs`. Only the provenance counters
//! (`store_hits`/`store_misses`, `compile_cache_*`), `wall_time` and
//! `max_in_flight` legitimately differ between the two histories; compare
//! through [`stage_stats`] to strip them.
//!
//! The store needs no campaign identity: its keys already cover the
//! pipeline mode, the stage fingerprints and the full source bytes, so a
//! matrix change simply hits whatever subset of records is still valid.

use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rayon::prelude::*;
use vv_corpus::{CaseSource, GeneratedCase};
use vv_pipeline::{CaseRecord, PipelineStats, WorkItem};
use vv_probing::IssueKind;
use vv_simcompiler::CompileCache;
use vv_store::{ArtifactStore, StoreError};

use crate::campaign::{CampaignResults, Scenario, ScenarioMatrix, ScenarioMetrics};
use crate::experiment::fold_probed_source;

/// Fold one stored record into a scenario's accumulators, exactly as the
/// live fold would have: the scan pass and the streaming path share
/// [`ScenarioMetrics::observe`] and
/// [`PipelineStats::observe_record`], so the two histories cannot diverge.
fn replay_into(metrics: &mut ScenarioMetrics, issue: IssueKind, record: &CaseRecord) {
    metrics.observe(issue, record);
    metrics.stats.submitted += 1;
    metrics.stats.observe_record(record);
}

/// A [`PipelineStats`] clone with everything history-dependent zeroed:
/// wall time and the store/compile-cache provenance counters. Two campaign
/// histories that validated the same corpus (cold, warm, or interrupted
/// and resumed) agree on `stage_stats` even though they took different
/// paths to the same records.
pub fn stage_stats(stats: &PipelineStats) -> PipelineStats {
    let mut s = stats.clone();
    s.wall_time = Duration::ZERO;
    s.compile_cache_hits = 0;
    s.compile_cache_misses = 0;
    s.store_hits = 0;
    s.store_misses = 0;
    s
}

/// The validate-pass corpus source: only cases the scan pass found
/// missing from the store are yielded, capped by the campaign-wide
/// validation budget. Once the budget hits zero the stream ends early,
/// leaving the campaign half done — exactly the state a crash leaves
/// behind.
struct FreshSource<S> {
    inner: S,
    fresh_ids: HashSet<String>,
    budget: Arc<AtomicUsize>,
}

impl<S: CaseSource> FreshSource<S> {
    /// Reserve one unit of budget; `false` once exhausted.
    fn draw_budget(&self) -> bool {
        self.budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |remaining| {
                remaining.checked_sub(1)
            })
            .is_ok()
    }
}

impl<S: CaseSource> CaseSource for FreshSource<S> {
    fn next_case(&mut self) -> Option<GeneratedCase> {
        loop {
            let case = self.inner.next_case()?;
            if !self.fresh_ids.remove(case.id()) {
                continue;
            }
            return self.draw_budget().then_some(case);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Filtering and the budget only shrink the stream.
        (0, self.inner.size_hint().1)
    }

    fn describe(&self) -> String {
        format!("{} -> fresh-only(budgeted)", self.inner.describe())
    }
}

/// Per-scenario progress of one [`run_incremental_campaign`] invocation.
#[derive(Clone, Debug)]
pub struct ScenarioProgress {
    /// The scenario's comparison-table label.
    pub label: String,
    /// Whole-record artifact-store hits: cases folded from a stored
    /// record (in the scan pass, which finds every record an interrupted
    /// run sealed, or inside the service when an in-run sibling persisted
    /// the same source moments earlier) — no stage was re-run.
    pub reused: usize,
    /// Cases validated from scratch through the full service (and
    /// persisted for next time).
    pub fresh: usize,
}

/// Result of one [`run_incremental_campaign`] invocation.
#[derive(Debug)]
pub struct IncrementalCampaign {
    /// Per-scenario merged metrics, byte-identical to an uninterrupted
    /// [`run_campaign`](crate::campaign::run_campaign) over the same
    /// matrix whenever [`Self::completed`] (modulo [`stage_stats`]'s
    /// exclusions).
    pub results: CampaignResults,
    /// Per-scenario reuse/fresh breakdown, matrix order.
    pub progress: Vec<ScenarioProgress>,
    /// True when every scenario covered its full corpus. False when the
    /// validation budget ran out first; every record validated so far is
    /// sealed in the store, and the next invocation resumes by reusing
    /// them.
    pub completed: bool,
}

impl IncrementalCampaign {
    /// Total whole-record store hits across all scenarios.
    pub fn total_reused(&self) -> usize {
        self.progress.iter().map(|p| p.reused).sum()
    }

    /// Total cases validated from scratch across all scenarios.
    pub fn total_fresh(&self) -> usize {
        self.progress.iter().map(|p| p.fresh).sum()
    }
}

/// Run (or resume) a scenario-matrix campaign against the durable store
/// directory `dir`, validating at most `budget` cases before sealing the
/// store and returning early (`None` = unbounded).
///
/// The invocation:
///
/// 1. opens (creating if needed) the [`ArtifactStore`] in `dir`,
///    quarantining any segment tail a crash tore;
/// 2. makes two passes over each scenario's shards: a **scan pass** that
///    folds already-stored records straight off the disk (no pipeline),
///    and a **validate pass** that streams only the genuinely missing
///    cases through a store-backed service
///    ([`Scenario::service_with_store`]), which persists each as it
///    completes. `budget` caps the validate pass alone — replaying stored
///    work is free;
/// 3. seals every pending record into the store, which is the whole
///    checkpoint: a resumed run reuses them, and a warm re-run of a
///    completed campaign validates zero cases from scratch.
///
/// Scenarios run sequentially, each sharing one in-memory compile cache
/// and the store's disk tiers. The metrics are byte-identical to the
/// parallel [`run_campaign`](crate::campaign::run_campaign) either way.
///
/// # Errors
///
/// Propagates [`StoreError`] from opening or repairing the store and from
/// the final seal.
pub fn run_incremental_campaign(
    matrix: &ScenarioMatrix,
    dir: impl AsRef<Path>,
    budget: Option<usize>,
) -> Result<IncrementalCampaign, StoreError> {
    let store = ArtifactStore::open_shared(dir)?;
    let scenarios = matrix.scenarios();
    let budget = Arc::new(AtomicUsize::new(budget.unwrap_or(usize::MAX)));
    let cache = CompileCache::shared();
    let mut results = Vec::with_capacity(scenarios.len());
    let mut progress = Vec::with_capacity(scenarios.len());
    let mut completed = true;

    for scenario in &scenarios {
        let mut metrics = ScenarioMetrics::new(scenario.clone());
        let mut reused = 0usize;
        let mut fresh = 0usize;
        let mut covered = 0usize;
        let service = scenario.service_with_store(Arc::clone(&cache), &store);
        let record_store = Arc::clone(
            service
                .record_store()
                .expect("the default backends all state their fingerprints"),
        );
        // Scan pass: walk every shard in parallel (the merge laws make the
        // fold order immaterial), folding already-stored records into
        // per-shard accumulators and remembering which ids genuinely need
        // validation.
        let shard_ids: Vec<usize> = (0..scenario.shards).collect();
        let scans: Vec<(ScenarioMetrics, HashSet<String>)> = shard_ids
            .par_iter()
            .map(|&k| {
                let mut local = ScenarioMetrics::new(scenario.clone());
                let mut fresh_ids = HashSet::new();
                let mut source = scenario.shard_spec(k).source();
                while let Some(case) = source.next_case() {
                    let issue = IssueKind::of_case(&case);
                    let item = WorkItem::from(case);
                    match record_store.replay(&item) {
                        Some(record) => {
                            replay_into(&mut local, issue, &record);
                            local.stats.store_hits += 1;
                        }
                        None => {
                            fresh_ids.insert(item.id);
                        }
                    }
                }
                (local, fresh_ids)
            })
            .collect();
        let mut shard_fresh = Vec::with_capacity(scans.len());
        for (scan, fresh_ids) in scans {
            metrics.merge(&scan);
            reused += scan.stats.store_hits;
            covered += scan.stats.store_hits;
            shard_fresh.push(fresh_ids);
        }

        for (k, fresh_ids) in shard_fresh.into_iter().enumerate() {
            // Validate pass: only the missing cases go through the full
            // service, which persists them. Skipped entirely on a
            // fully-warm shard.
            if fresh_ids.is_empty() || budget.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let source = FreshSource {
                inner: scenario.shard_spec(k).source(),
                fresh_ids,
                budget: Arc::clone(&budget),
            };
            let mut shard = ScenarioMetrics::new(scenario.clone());
            let fold = fold_probed_source(&service, source, |issue, record| {
                shard.observe(issue, record);
            });
            // In-run duplicates can still hit the store inside the
            // service (a sibling case persisted the record moments
            // earlier); they count as reused, not fresh.
            reused += fold.stats.store_hits;
            fresh += fold.stats.store_misses;
            covered += fold.stats.submitted;
            shard.stats = fold.stats;
            shard.max_in_flight = fold.max_in_flight;
            metrics.merge(&shard);
        }
        if covered < scenario.suite_size {
            completed = false;
        }
        progress.push(ScenarioProgress {
            label: scenario.label.clone(),
            reused,
            fresh,
        });
        results.push(metrics);
    }

    // Seal buffered records into a durable segment: the store is the
    // checkpoint, so a seal that fails must fail the run.
    store.flush()?;

    Ok(IncrementalCampaign {
        results: CampaignResults { scenarios: results },
        progress,
        completed,
    })
}

/// Per-scenario delta of a planned campaign against a store's contents.
#[derive(Clone, Debug)]
pub struct ScenarioDelta {
    /// The scenario's comparison-table label.
    pub label: String,
    /// Corpus cases whose complete record is already stored.
    pub reused: usize,
    /// Corpus cases that would be validated from scratch.
    pub fresh: usize,
}

/// What a campaign over `matrix` would actually have to compute, given a
/// store's current contents. See [`plan_campaign_delta`].
#[derive(Clone, Debug)]
pub struct CampaignDelta {
    /// Per-scenario breakdown, matrix order.
    pub scenarios: Vec<ScenarioDelta>,
}

impl CampaignDelta {
    /// Total already-stored cases across the matrix.
    pub fn total_reused(&self) -> usize {
        self.scenarios.iter().map(|s| s.reused).sum()
    }

    /// Total cases the campaign would validate from scratch.
    pub fn total_fresh(&self) -> usize {
        self.scenarios.iter().map(|s| s.fresh).sum()
    }
}

/// Diff `matrix`'s corpus key-set against what `store` already holds:
/// for every scenario, walk its corpus and probe the record store with
/// the counter-neutral [`contains`](vv_pipeline::RecordStore::contains),
/// so planning never skews the hit-rate statistics a later run reports.
/// The answer is exact — the probe uses the same key derivation as the
/// run itself — and costs one corpus generation pass, no validation.
pub fn plan_campaign_delta(matrix: &ScenarioMatrix, store: &Arc<ArtifactStore>) -> CampaignDelta {
    let cache = CompileCache::shared();
    let scenarios = matrix
        .scenarios()
        .iter()
        .map(|scenario| plan_scenario_delta(scenario, Arc::clone(&cache), store))
        .collect();
    CampaignDelta { scenarios }
}

fn plan_scenario_delta(
    scenario: &Scenario,
    cache: Arc<CompileCache>,
    store: &Arc<ArtifactStore>,
) -> ScenarioDelta {
    let service = scenario.service_with_store(cache, store);
    let record_store = service
        .record_store()
        .expect("the default backends all state their fingerprints");
    let mut source = scenario.corpus_spec().source();
    let mut reused = 0;
    let mut fresh = 0;
    while let Some(case) = source.next_case() {
        if record_store.contains(&WorkItem::from(case)) {
            reused += 1;
        } else {
            fresh += 1;
        }
    }
    ScenarioDelta {
        label: scenario.label.clone(),
        reused,
        fresh,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vv-incremental-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn matrix() -> ScenarioMatrix {
        ScenarioMatrix::new(24).shards(2)
    }

    fn assert_same_metrics(a: &ScenarioMetrics, b: &ScenarioMetrics) {
        assert_eq!(a.judge, b.judge);
        assert_eq!(a.pipeline, b.pipeline);
        assert_eq!(a.judge_load, b.judge_load);
        assert_eq!(stage_stats(&a.stats), stage_stats(&b.stats));
    }

    /// The store directory is the only durable state a campaign writes.
    fn assert_no_journal(dir: &Path) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                !name.to_string_lossy().ends_with(".vvj"),
                "campaign wrote a journal file {name:?}"
            );
        }
    }

    #[test]
    fn cold_run_completes_and_matches_the_plain_campaign() {
        let dir = temp_dir("cold");
        let incremental = run_incremental_campaign(&matrix(), &dir, None).unwrap();
        assert!(incremental.completed);
        assert_eq!(incremental.total_fresh(), 24);
        assert_no_journal(&dir);
        let plain = run_campaign(&matrix());
        for (a, b) in incremental.results.scenarios.iter().zip(&plain.scenarios) {
            assert_same_metrics(a, b);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_abort_then_resume_is_identical_to_uninterrupted() {
        let dir = temp_dir("resume");
        // A 16-case budget on a 2x12-shard scenario lands the "crash"
        // mid-shard-1, with completed cases on both sides of the shard
        // boundary — the resumed scan pass must reuse all of them.
        let partial = run_incremental_campaign(&matrix(), &dir, Some(16)).unwrap();
        assert!(!partial.completed);
        assert_eq!(partial.total_fresh(), 16);
        assert_no_journal(&dir);
        let resumed = run_incremental_campaign(&matrix(), &dir, None).unwrap();
        assert!(resumed.completed);
        assert!(resumed.total_reused() >= partial.total_fresh() + partial.total_reused());
        assert_no_journal(&dir);
        let uninterrupted =
            run_incremental_campaign(&matrix(), temp_dir("resume-ref"), None).unwrap();
        for (a, b) in resumed
            .results
            .scenarios
            .iter()
            .zip(&uninterrupted.results.scenarios)
        {
            assert_same_metrics(a, b);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_rerun_validates_nothing_fresh() {
        let dir = temp_dir("warm");
        let cold = run_incremental_campaign(&matrix(), &dir, None).unwrap();
        assert!(cold.completed);
        let store = ArtifactStore::open_shared(&dir).unwrap();
        let delta = plan_campaign_delta(&matrix(), &store);
        assert_eq!(delta.total_fresh(), 0);
        assert_eq!(delta.total_reused(), 24);
        drop(store);
        let warm = run_incremental_campaign(&matrix(), &dir, None).unwrap();
        assert!(warm.completed);
        assert_eq!(warm.total_fresh(), 0, "every case replays from the store");
        assert_eq!(warm.total_reused(), 24);
        assert_no_journal(&dir);
        for (a, b) in warm.results.scenarios.iter().zip(&cold.results.scenarios) {
            assert_same_metrics(a, b);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn matrix_change_keeps_the_store() {
        let dir = temp_dir("retag");
        let partial = run_incremental_campaign(&matrix(), &dir, Some(6)).unwrap();
        assert!(!partial.completed);
        // A different suite size is a different campaign, but the 6 stored
        // records still hit (same corpus prefix).
        let other = ScenarioMatrix::new(12).shards(2);
        let run = run_incremental_campaign(&other, &dir, None).unwrap();
        assert!(run.completed);
        assert!(run.total_reused() >= 1, "stored records survive the change");
        assert_no_journal(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
