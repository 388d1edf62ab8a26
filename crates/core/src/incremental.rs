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
//! There is no second driver: [`run_incremental_campaign`] opens the store
//! and runs the matrix through the same scenario routine as `run_campaign`,
//! which streams every shard through a store-backed service when it is
//! given a store. Each case then gets one store lookup, inside the
//! service: a stored record replays there, and a missing one runs the
//! stages and is persisted. The results are the same [`CampaignResults`], whose
//! [`total_reused`](CampaignResults::total_reused),
//! [`total_fresh`](CampaignResults::total_fresh) and
//! [`completed`](CampaignResults::completed) report the store's share.
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

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use vv_corpus::{CaseSource, GeneratedCase};
use vv_pipeline::{PipelineStats, RecordStore, ValidationService};
use vv_store::{ArtifactStore, StoreError};

use crate::campaign::{drive_campaign, CampaignResults, ScenarioMatrix};

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

/// The durable state of a store-backed campaign: the store every scenario
/// reads and writes, and, when the caller set one, the budget of fresh
/// validations all its scenarios draw on, concurrently.
pub(crate) struct Checkpoint {
    pub(crate) store: Arc<ArtifactStore>,
    budget: Option<Arc<AtomicUsize>>,
}

impl Checkpoint {
    /// `source` as the store-backed `service` admits it: unchanged without
    /// a budget, and through a [`Budgeted`] filter under one.
    pub(crate) fn admit(
        &self,
        service: &ValidationService,
        source: Box<dyn CaseSource + Send>,
    ) -> Box<dyn CaseSource + Send> {
        let Some(budget) = &self.budget else {
            return source;
        };
        let records = service
            .record_store()
            .expect("the default backends all state their fingerprints");
        Budgeted {
            inner: source,
            records: Arc::clone(records),
            budget: Arc::clone(budget),
        }
        .boxed()
    }
}

/// Admission under the campaign-wide validation budget: a case the store
/// holds passes for free, and a missing case passes only if it can draw
/// one unit of budget. A refused case still lets later cases through, so
/// a spent budget leaves the campaign half done — exactly the state a
/// crash leaves behind — while every stored record still replays.
struct Budgeted {
    inner: Box<dyn CaseSource + Send>,
    records: Arc<RecordStore>,
    budget: Arc<AtomicUsize>,
}

impl Budgeted {
    fn admits(&self, case: &GeneratedCase) -> bool {
        self.records
            .holds(case.case.model, case.case.lang, &case.source)
            || self
                .budget
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |remaining| {
                    remaining.checked_sub(1)
                })
                .is_ok()
    }
}

impl CaseSource for Budgeted {
    fn next_case(&mut self) -> Option<GeneratedCase> {
        loop {
            let case = self.inner.next_case()?;
            if self.admits(&case) {
                return Some(case);
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // The budget only shrinks the stream.
        (0, self.inner.size_hint().1)
    }

    fn describe(&self) -> String {
        format!("{} -> budgeted", self.inner.describe())
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
/// 2. drives every scenario through the same routine as
///    [`run_campaign`](crate::campaign::run_campaign), several at once,
///    streaming each shard through a store-backed service
///    ([`Scenario::service_with_store`](crate::campaign::Scenario::service_with_store)):
///    a stored case replays from the store, and a missing one is validated
///    and persisted as it completes. `budget` caps the fresh validations
///    of all scenarios together — replaying stored work is free, and a
///    missing case the spent budget refuses is skipped, not validated;
/// 3. seals every pending record into the store, which is the whole
///    checkpoint: a resumed run reuses them, and a warm re-run of a
///    completed campaign validates zero cases from scratch.
///
/// The results are byte-identical to
/// [`run_campaign`](crate::campaign::run_campaign) over the same matrix
/// whenever [`CampaignResults::completed`] (modulo [`stage_stats`]'s
/// exclusions); [`CampaignResults::total_reused`] and
/// [`CampaignResults::total_fresh`] split the work between the store and
/// the pipeline. A `Some(0)` budget validates nothing: it folds every
/// stored record and so reports how much of the campaign the store already
/// holds.
///
/// # Errors
///
/// Propagates [`StoreError`] from opening or repairing the store and from
/// the final seal.
pub fn run_incremental_campaign(
    matrix: &ScenarioMatrix,
    dir: impl AsRef<Path>,
    budget: Option<usize>,
) -> Result<CampaignResults, StoreError> {
    let checkpoint = Checkpoint {
        store: ArtifactStore::open_shared(dir)?,
        budget: budget.map(|n| Arc::new(AtomicUsize::new(n))),
    };
    let results = drive_campaign(matrix, Some(&checkpoint));
    // Seal buffered records into a durable segment: the store is the
    // checkpoint, so a seal that fails must fail the run.
    checkpoint.store.flush()?;
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, ScenarioMetrics};
    use vv_judge::JudgeProfile;

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
        assert!(incremental.completed());
        assert_eq!(incremental.total_fresh(), 24);
        assert_no_journal(&dir);
        let plain = run_campaign(&matrix());
        for (a, b) in incremental.scenarios.iter().zip(&plain.scenarios) {
            assert_same_metrics(a, b);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_abort_then_resume_is_identical_to_uninterrupted() {
        // One scenario, and two that run at once and draw on one budget.
        let two_profiles = matrix().judge_profiles(vec![
            JudgeProfile::deepseek_agent_direct(),
            JudgeProfile::deepseek_agent_indirect(),
        ]);
        for (tag, matrix) in [("one", matrix()), ("two", two_profiles)] {
            let dir = temp_dir(&format!("resume-{tag}"));
            // A 16-case budget on a 2x12-shard scenario lands the "crash"
            // mid-shard-1, with completed cases on both sides of the shard
            // boundary — the resumed run must reuse all of them.
            let partial = run_incremental_campaign(&matrix, &dir, Some(16)).unwrap();
            assert!(!partial.completed(), "{tag}");
            assert_eq!(
                partial.total_fresh(),
                16,
                "{tag}: the budget is campaign-wide"
            );
            assert_no_journal(&dir);
            // A zero budget validates nothing and finds what was stored.
            let stored = run_incremental_campaign(&matrix, &dir, Some(0)).unwrap();
            assert!(!stored.completed(), "{tag}");
            assert_eq!(stored.total_fresh(), 0, "{tag}");
            assert!(stored.total_reused() >= partial.total_fresh() + partial.total_reused());
            let resumed = run_incremental_campaign(&matrix, &dir, None).unwrap();
            assert!(resumed.completed(), "{tag}");
            assert!(resumed.total_reused() >= partial.total_fresh() + partial.total_reused());
            assert_no_journal(&dir);
            let reference_dir = temp_dir(&format!("resume-{tag}-ref"));
            let uninterrupted = run_incremental_campaign(&matrix, &reference_dir, None).unwrap();
            assert_eq!(resumed.scenarios.len(), uninterrupted.scenarios.len());
            for (a, b) in resumed.scenarios.iter().zip(&uninterrupted.scenarios) {
                assert_same_metrics(a, b);
            }
            std::fs::remove_dir_all(&dir).unwrap();
            std::fs::remove_dir_all(&reference_dir).unwrap();
        }
    }

    #[test]
    fn the_budget_admits_stored_cases_free_and_missing_ones_while_it_lasts() {
        let dir = temp_dir("mixed");
        let first = run_incremental_campaign(&matrix(), &dir, Some(8)).unwrap();
        assert_eq!(first.total_fresh(), 8);
        // Stored and missing cases now mix within shard 0.
        let second = run_incremental_campaign(&matrix(), &dir, Some(4)).unwrap();
        assert!(!second.completed());
        assert_eq!(second.total_fresh(), 4, "missing cases draw the budget");
        assert_eq!(second.total_reused(), 8, "stored cases pass for free");
        let stored = run_incremental_campaign(&matrix(), &dir, Some(0)).unwrap();
        assert!(!stored.completed());
        assert_eq!(stored.total_fresh(), 0);
        assert_eq!(
            stored.total_reused(),
            12,
            "a refused case skips no later one"
        );
        let full = run_incremental_campaign(&matrix(), &dir, None).unwrap();
        assert!(full.completed());
        assert_eq!((full.total_fresh(), full.total_reused()), (12, 12));
        let plain = run_campaign(&matrix());
        for (a, b) in full.scenarios.iter().zip(&plain.scenarios) {
            assert_same_metrics(a, b);
        }
        assert_no_journal(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_rerun_validates_nothing_fresh() {
        let dir = temp_dir("warm");
        let cold = run_incremental_campaign(&matrix(), &dir, None).unwrap();
        assert!(cold.completed());
        // A zero budget validates nothing: it only reports what is stored.
        let stored = run_incremental_campaign(&matrix(), &dir, Some(0)).unwrap();
        assert!(stored.completed(), "everything is stored");
        assert_eq!(stored.total_reused(), 24);
        let warm = run_incremental_campaign(&matrix(), &dir, None).unwrap();
        assert!(warm.completed());
        assert_eq!(warm.total_fresh(), 0, "every case replays from the store");
        assert_eq!(warm.total_reused(), 24);
        assert_no_journal(&dir);
        for (a, b) in warm.scenarios.iter().zip(&cold.scenarios) {
            assert_same_metrics(a, b);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn matrix_change_keeps_the_store() {
        let dir = temp_dir("retag");
        let partial = run_incremental_campaign(&matrix(), &dir, Some(6)).unwrap();
        assert!(!partial.completed());
        // A different suite size is a different campaign, but the 6 stored
        // records still hit (same corpus prefix).
        let other = ScenarioMatrix::new(12).shards(2);
        let run = run_incremental_campaign(&other, &dir, None).unwrap();
        assert!(run.completed());
        assert!(run.total_reused() >= 1, "stored records survive the change");
        assert_no_journal(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
