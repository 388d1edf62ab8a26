//! Checkpoint/resume incremental campaigns over a durable
//! [`ArtifactStore`].
//!
//! [`run_campaign`](crate::campaign::run_campaign) is all-or-nothing: kill
//! the process at 90% and the next run starts from zero. This module makes
//! a campaign **resumable** with two layers of durable state, both living
//! in one store directory:
//!
//! * the **artifact store** persists every compile outcome
//!   (`vv_simcompiler::persist`) and every completed case record
//!   (`vv_pipeline::persist`), so re-validating an unchanged case is a
//!   disk lookup instead of a compile + execute + judge;
//! * the **campaign journal** (`journal.vvj`) appends one checksummed
//!   frame per *folded* case — `(scenario index, ground-truth issue,
//!   encoded record)` — as the campaign streams, group-committed every
//!   [`GROUP_COMMIT_FRAMES`] appends. A crashed run's next invocation
//!   replays the journal tail into the per-scenario accumulators and
//!   validates only what is missing (an OS crash can cost at most one
//!   unsynced group of frames, which re-validate — usually straight from
//!   the store).
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
//! The journal is tied to a **campaign tag** — the full `Debug` rendering
//! of the [`ScenarioMatrix`] — so a journal recorded by a differently
//! shaped campaign is never replayed (it is reset instead, reported via
//! [`IncrementalCampaign::journal_reset`]). The artifact store needs no
//! such guard: its keys already cover the pipeline mode, the stage
//! fingerprints and the full source bytes, so a matrix change simply hits
//! whatever subset of records is still valid.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rayon::prelude::*;
use vv_corpus::{CaseSource, GeneratedCase};
use vv_pipeline::{decode_record, encode_record, CaseRecord, PipelineStats, WorkItem};
use vv_probing::IssueKind;
use vv_simcompiler::CompileCache;
use vv_store::{ArtifactStore, Journal, Reader, StoreError, Writer};

use crate::campaign::{CampaignResults, Scenario, ScenarioMatrix, ScenarioMetrics};
use crate::experiment::fold_probed_source;

/// File name of the campaign journal inside the store directory.
pub const JOURNAL_FILE: &str = "journal.vvj";

/// Journal group-commit interval: frames are buffered (well-formed in the
/// OS page cache) and forced to disk every this-many appends, at each
/// scenario boundary, and at the final checkpoint. A process crash loses
/// nothing; an OS crash loses at most this many tail frames, and those
/// cases simply replay from the artifact store on resume — per-frame
/// fsync would dominate the whole campaign's wall time.
pub const GROUP_COMMIT_FRAMES: usize = 256;

/// The journal tag identifying a campaign: the matrix's `Debug` rendering,
/// which covers every axis and seed. Any change to the matrix — or to
/// the fields the rendering lists — therefore resets the journal (never
/// replaying frames from a differently shaped campaign) while the artifact
/// store keeps serving whatever per-case records remain valid.
pub fn campaign_tag(matrix: &ScenarioMatrix) -> String {
    format!("{matrix:?}")
}

/// Serialize one journal frame: scenario index, ground-truth issue id and
/// the full encoded case record.
fn encode_frame(scenario_idx: u32, issue: IssueKind, record: &CaseRecord) -> Vec<u8> {
    let record_bytes = encode_record(record);
    let mut w = Writer::with_capacity(16 + record_bytes.len());
    w.put_u32(scenario_idx);
    w.put_u8(issue.id());
    w.put_bytes(&record_bytes);
    w.into_bytes()
}

/// Decode [`encode_frame`] bytes; `None` on structural damage (the frame
/// checksum already passed, so damage here means a codec mismatch).
fn decode_frame(bytes: &[u8]) -> Option<(usize, IssueKind, CaseRecord)> {
    let mut r = Reader::new(bytes);
    let idx = r.get_u32("frame scenario index").ok()? as usize;
    let issue = IssueKind::from_id(r.get_u8("frame issue id").ok()?)?;
    let record = decode_record(r.get_bytes("frame record").ok()?)?;
    r.is_exhausted().then_some((idx, issue, record))
}

/// Fold one replayed (or freshly completed) record into a scenario's
/// accumulators, exactly as the live fold would have: the journal replay
/// path and the streaming path share [`crate::experiment::observe_record_all_case`] and
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
/// leaving the journal mid-campaign — exactly the state a crash leaves
/// behind.
struct FreshSource<S> {
    inner: S,
    fresh_ids: std::collections::HashSet<String>,
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
    /// Cases restored by replaying the journal tail.
    pub replayed: usize,
    /// Whole-record artifact-store hits: cases folded from a stored
    /// record (in the scan pass, or inside the service when an in-run
    /// sibling persisted the same source moments earlier) — no stage was
    /// re-run.
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
    /// Per-scenario replay/reuse/fresh breakdown, matrix order.
    pub progress: Vec<ScenarioProgress>,
    /// True when every scenario covered its full corpus; the journal has
    /// been cleared and the next invocation leans on the store alone.
    /// False when the validation budget ran out first; the journal holds
    /// the checkpoint and the next invocation resumes from it.
    pub completed: bool,
    /// True when an existing journal carried a different campaign tag and
    /// was reset instead of replayed.
    pub journal_reset: bool,
    /// Bytes of torn journal tail truncated during recovery (a record cut
    /// mid-write by the crash).
    pub truncated_bytes: u64,
}

impl IncrementalCampaign {
    /// Total cases restored from the journal across all scenarios.
    pub fn total_replayed(&self) -> usize {
        self.progress.iter().map(|p| p.replayed).sum()
    }

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
/// directory `dir`, validating at most `budget` cases before
/// checkpointing and returning early (`None` = unbounded).
///
/// The invocation:
///
/// 1. opens (creating if needed) the [`ArtifactStore`] in `dir` and the
///    campaign journal `dir/journal.vvj` under [`campaign_tag`],
///    truncating any torn tail a crash left behind;
/// 2. replays surviving journal frames into per-scenario accumulators —
///    replayed cases are never re-submitted;
/// 3. makes two passes over each remaining shard: a **scan pass** that
///    folds already-stored records straight off the disk (no pipeline, no
///    journal frame — the store is their durability), and a **validate
///    pass** that streams only the genuinely missing cases through a
///    store-backed service ([`Scenario::service_with_store`]), journaling
///    each as it completes. `budget` caps the validate pass alone —
///    replaying stored work is free;
/// 4. on full coverage, clears the journal (the store alone carries the
///    state forward — a warm re-run validates zero cases from scratch);
///    on budget exhaustion, leaves the journal as the checkpoint.
///
/// Scenarios run sequentially (the journal is a single append-ordered
/// log), each sharing one in-memory compile cache and the store's disk
/// tiers, so the resumable path trades scenario-level parallelism for
/// durability. The metrics are byte-identical to the parallel
/// [`run_campaign`](crate::campaign::run_campaign) either way.
///
/// # Errors
///
/// Propagates [`StoreError`] from opening or repairing the store, journal
/// appends, and final flushes. A journal frame that passes its checksum
/// but fails to decode reports [`StoreError::Corrupt`] rather than
/// silently dropping history.
pub fn run_incremental_campaign(
    matrix: &ScenarioMatrix,
    dir: impl AsRef<Path>,
    budget: Option<usize>,
) -> Result<IncrementalCampaign, StoreError> {
    let dir = dir.as_ref();
    let store = ArtifactStore::open_shared(dir)?;
    let tag = campaign_tag(matrix);
    let (mut journal, mut recovery) = Journal::open(dir.join(JOURNAL_FILE), tag.as_bytes())?;
    let scenarios = matrix.scenarios();

    // Replay the journal tail: one pass, constant memory apart from the
    // per-scenario done-id multisets that drive the skip filter.
    let mut metrics: Vec<ScenarioMetrics> = scenarios
        .iter()
        .map(|scenario| ScenarioMetrics::new(scenario.clone()))
        .collect();
    let mut done: Vec<HashMap<String, usize>> = vec![HashMap::new(); scenarios.len()];
    let mut replayed = vec![0usize; scenarios.len()];
    while let Some(frame) = recovery.frames.next_frame()? {
        let Some((idx, issue, record)) = decode_frame(&frame) else {
            return Err(StoreError::Corrupt(
                "journal frame passed its checksum but does not decode \
                 (codec mismatch between writer and reader)"
                    .into(),
            ));
        };
        if idx >= scenarios.len() {
            return Err(StoreError::Corrupt(format!(
                "journal frame names scenario {idx} of a {}-scenario campaign",
                scenarios.len()
            )));
        }
        replay_into(&mut metrics[idx], issue, &record);
        *done[idx].entry(record.id.clone()).or_insert(0) += 1;
        replayed[idx] += 1;
    }

    let budget = Arc::new(AtomicUsize::new(budget.unwrap_or(usize::MAX)));
    let cache = CompileCache::shared();
    let mut progress = Vec::with_capacity(scenarios.len());
    let mut completed = true;

    for (idx, scenario) in scenarios.iter().enumerate() {
        let mut reused = 0usize;
        let mut fresh = 0usize;
        let mut covered = replayed[idx];
        if replayed[idx] < scenario.suite_size {
            let service = scenario.service_with_store(Arc::clone(&cache), &store);
            let record_store = Arc::clone(
                service
                    .record_store()
                    .expect("the default backends all state their fingerprints"),
            );
            let mut journal_error = None;
            let mut pending_sync = 0usize;
            // Scan pass: walk every shard in parallel (the scan never
            // touches the journal, so shard order is irrelevant and the
            // merge laws make the fold order immaterial), skipping
            // journal-replayed ids, folding already-stored records into
            // per-shard accumulators (no service, no journal frame — the
            // store is their durability), and remembering which ids
            // genuinely need validation.
            let scenario_done = std::sync::Mutex::new(std::mem::take(&mut done[idx]));
            let shard_ids: Vec<usize> = (0..scenario.shards).collect();
            // Each shard yields the locally folded metrics of every record
            // replayed from the store, plus the ids that still need the
            // validation service.
            let scans: Vec<(ScenarioMetrics, HashSet<String>)> = shard_ids
                .par_iter()
                .map(|&k| {
                    let mut local = ScenarioMetrics::new(scenario.clone());
                    let mut fresh_ids = HashSet::new();
                    let mut source = scenario.shard_spec(k).source();
                    while let Some(case) = source.next_case() {
                        let journal_replayed = {
                            let mut done = scenario_done.lock().expect("done set poisoned");
                            match done.get_mut(case.id()) {
                                Some(count) => {
                                    *count -= 1;
                                    if *count == 0 {
                                        done.remove(case.id());
                                    }
                                    true
                                }
                                None => false,
                            }
                        };
                        if journal_replayed {
                            continue;
                        }
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
                metrics[idx].merge(&scan);
                reused += scan.stats.store_hits;
                covered += scan.stats.store_hits;
                shard_fresh.push(fresh_ids);
            }

            for (k, fresh_ids) in shard_fresh.into_iter().enumerate() {
                // Validate pass: only the missing cases go through the
                // full service (which persists them), each journaled as
                // it completes. Skipped entirely on a fully-warm shard.
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
                    if journal_error.is_none() {
                        journal_error = journal
                            .append_buffered(&encode_frame(idx as u32, issue, record))
                            .err();
                        pending_sync += 1;
                        if pending_sync >= GROUP_COMMIT_FRAMES && journal_error.is_none() {
                            journal_error = journal.sync().err();
                            pending_sync = 0;
                        }
                    }
                });
                // In-run duplicates can still hit the store inside the
                // service (a sibling case persisted the record moments
                // earlier); they count as reused, not fresh.
                reused += fold.stats.store_hits;
                fresh += fold.stats.store_misses;
                covered += fold.stats.submitted;
                shard.stats = fold.stats;
                shard.max_in_flight = fold.max_in_flight;
                metrics[idx].merge(&shard);
            }
            if let Some(error) = journal_error {
                return Err(error);
            }
            journal.sync()?;
        }
        if covered < scenario.suite_size {
            completed = false;
        }
        progress.push(ScenarioProgress {
            label: scenario.label.clone(),
            replayed: replayed[idx],
            reused,
            fresh,
        });
    }

    // Seal buffered store records into a durable segment — the checkpoint
    // is (store, journal); both must survive the next crash.
    store.flush()?;
    if completed {
        journal.clear()?;
    }

    Ok(IncrementalCampaign {
        results: CampaignResults { scenarios: metrics },
        progress,
        completed,
        journal_reset: recovery.reset,
        truncated_bytes: recovery.truncated_bytes,
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

    #[test]
    fn cold_run_completes_and_matches_the_plain_campaign() {
        let dir = temp_dir("cold");
        let incremental = run_incremental_campaign(&matrix(), &dir, None).unwrap();
        assert!(incremental.completed);
        assert!(!incremental.journal_reset);
        assert_eq!(incremental.total_replayed(), 0);
        assert_eq!(incremental.total_fresh(), 24);
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
        // boundary — the resume filter must skip all of them.
        let partial = run_incremental_campaign(&matrix(), &dir, Some(16)).unwrap();
        assert!(!partial.completed);
        assert_eq!(partial.total_fresh(), 16);
        let resumed = run_incremental_campaign(&matrix(), &dir, None).unwrap();
        assert!(resumed.completed);
        assert_eq!(resumed.total_replayed(), 16);
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
        assert_eq!(warm.total_replayed(), 0, "the journal was cleared");
        assert_eq!(warm.total_fresh(), 0, "every case replays from the store");
        assert_eq!(warm.total_reused(), 24);
        for (a, b) in warm.results.scenarios.iter().zip(&cold.results.scenarios) {
            assert_same_metrics(a, b);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn matrix_change_resets_the_journal_but_keeps_the_store() {
        let dir = temp_dir("retag");
        let partial = run_incremental_campaign(&matrix(), &dir, Some(6)).unwrap();
        assert!(!partial.completed);
        // A different suite size is a different campaign: the journal
        // resets, but the 6 stored records still hit (same corpus prefix).
        let other = ScenarioMatrix::new(12).shards(2);
        let run = run_incremental_campaign(&other, &dir, None).unwrap();
        assert!(run.journal_reset);
        assert_eq!(run.total_replayed(), 0);
        assert!(run.completed);
        assert!(run.total_reused() >= 1, "stored records survive the reset");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
