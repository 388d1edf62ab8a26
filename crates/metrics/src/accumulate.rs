//! Streaming, mergeable metrics accumulators.
//!
//! The batch functions in the crate root ([`crate::per_issue`],
//! [`crate::overall`], [`crate::radar_series`]) take a fully materialized
//! `&[EvaluationRecord]`. At the scale the corpus and pipeline layers
//! stream (hundreds of thousands of cases), materializing that slice is
//! exactly the allocation the streaming `CaseSource` → `ValidationService`
//! path was built to avoid. This module provides the constant-memory
//! counterpart: a family of [`Accumulator`]s that fold one observation at a
//! time and merge pairwise, so sharded or distributed folds recombine into
//! the same result as a single pass.
//!
//! # The merge laws
//!
//! Every accumulator `A` in this module satisfies, for any split of an
//! observation stream into parts (asserted in `tests/metrics_laws.rs`):
//!
//! * **identity** — merging a fresh `A::default()` into an accumulator
//!   leaves it unchanged;
//! * **commutativity / associativity** — any merge tree over the parts
//!   produces the same state;
//! * **fold/merge exchange** — folding the whole stream equals folding the
//!   parts independently and merging, *byte-for-byte*: the counters are
//!   integers and every derived `f64` is computed once, at read time, from
//!   those integers.
//!
//! Together with the corpus layer's shard-union law (`shard(k, n)` sources
//! recombine byte-identically to the unsharded stream), this makes sharded
//! metrics exact: fold each shard on its own worker, merge, and the result
//! is indistinguishable from the single-pass fold.
//!
//! ```
//! use vv_judge::Verdict;
//! use vv_metrics::accumulate::{Accumulator, MetricsSink};
//! use vv_metrics::EvaluationRecord;
//! use vv_probing::IssueKind;
//!
//! let records: Vec<EvaluationRecord> = (0..10)
//!     .map(|i| {
//!         let issue = IssueKind::ALL[i % 6];
//!         let verdict = if i % 3 == 0 { Verdict::Valid } else { Verdict::Invalid };
//!         EvaluationRecord::new(format!("case_{i}"), issue, Some(verdict))
//!     })
//!     .collect();
//!
//! // One pass over the whole stream...
//! let whole: MetricsSink = Accumulator::fold(&records);
//!
//! // ...equals two half-stream folds, merged.
//! let (left, right) = records.split_at(5);
//! let mut sharded: MetricsSink = Accumulator::fold(left);
//! sharded.merge(&Accumulator::fold(right));
//! assert_eq!(sharded, whole);
//! assert_eq!(sharded.overall_stats(), vv_metrics::overall(&records));
//! ```

use std::fmt;

use crate::radar::{RadarCategory, RadarPoint};
use crate::{EvaluationRecord, OverallStats, PerIssueRow};
use vv_judge::{JudgeOutcome, Verdict};
use vv_probing::IssueKind;

/// The correctness rule every record accumulator folds by (the same rule
/// as [`EvaluationRecord::is_correct`]): a missing verdict counts as
/// `Invalid` — the evaluation cannot accept a file it could not judge.
fn verdict_is_correct(issue: IssueKind, verdict: Option<Verdict>) -> bool {
    verdict.unwrap_or(Verdict::Invalid).is_valid() == issue.is_valid()
}

/// A constant-memory streaming fold over observations of type `T`.
///
/// Implementations observe one item at a time and merge pairwise; see the
/// [module docs](self) for the laws every implementation upholds.
pub trait Accumulator<T: ?Sized>: Default {
    /// Fold one observation into the accumulator.
    fn observe(&mut self, item: &T);

    /// Absorb another accumulator's state (the other side is unchanged).
    fn merge(&mut self, other: &Self);

    /// One-shot fold over a batch — the bridge the crate's batch functions
    /// are built on.
    fn fold<'a, I>(items: I) -> Self
    where
        Self: Sized,
        T: 'a,
        I: IntoIterator<Item = &'a T>,
    {
        let mut accumulator = Self::default();
        for item in items {
            accumulator.observe(item);
        }
        accumulator
    }
}

/// Count/correct pair shared by the per-issue and radar accumulators.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct CorrectnessCell {
    count: usize,
    correct: usize,
}

impl CorrectnessCell {
    fn observe(&mut self, correct: bool) {
        self.count += 1;
        if correct {
            self.correct += 1;
        }
    }

    fn merge(&mut self, other: &CorrectnessCell) {
        self.count += other.count;
        self.correct += other.correct;
    }

    /// `None` when the cell never saw a record — distinguishable from a
    /// 0%-accurate cell.
    fn accuracy(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.correct as f64 / self.count as f64)
        }
    }
}

/// Streaming per-issue accuracy (Tables I, II, IV, V, VII, VIII).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PerIssueAccumulator {
    cells: [CorrectnessCell; IssueKind::ALL.len()],
}

impl Accumulator<EvaluationRecord> for PerIssueAccumulator {
    fn observe(&mut self, record: &EvaluationRecord) {
        self.observe_case(record.issue, record.verdict);
    }

    fn merge(&mut self, other: &Self) {
        for (cell, theirs) in self.cells.iter_mut().zip(&other.cells) {
            cell.merge(theirs);
        }
    }
}

impl PerIssueAccumulator {
    /// Allocation-free observation for streaming hot paths (a record's
    /// identity never enters the fold, so no `EvaluationRecord` — and no
    /// id `String` — needs to exist).
    pub fn observe_case(&mut self, issue: IssueKind, verdict: Option<Verdict>) {
        self.cells[issue.id() as usize].observe(verdict_is_correct(issue, verdict));
    }

    /// The accumulated table rows, in paper issue-ID order.
    pub fn rows(&self) -> Vec<PerIssueRow> {
        IssueKind::ALL
            .iter()
            .map(|issue| {
                let cell = &self.cells[issue.id() as usize];
                PerIssueRow {
                    issue: *issue,
                    count: cell.count,
                    correct: cell.correct,
                    incorrect: cell.count - cell.correct,
                    accuracy: cell.accuracy(),
                }
            })
            .collect()
    }

    /// Total number of records observed.
    pub fn total(&self) -> usize {
        self.cells.iter().map(|c| c.count).sum()
    }
}

/// Streaming overall accuracy and bias (Tables III, VI, IX).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OverallAccumulator {
    total: usize,
    mistakes: usize,
    /// Sum of per-mistake bias contributions: `+1` permissive (passed an
    /// invalid file), `−1` restrictive (failed a valid one).
    bias_sum: i64,
}

impl Accumulator<EvaluationRecord> for OverallAccumulator {
    fn observe(&mut self, record: &EvaluationRecord) {
        self.observe_case(record.issue, record.verdict);
    }

    fn merge(&mut self, other: &Self) {
        self.total += other.total;
        self.mistakes += other.mistakes;
        self.bias_sum += other.bias_sum;
    }
}

impl OverallAccumulator {
    /// Allocation-free observation for streaming hot paths.
    pub fn observe_case(&mut self, issue: IssueKind, verdict: Option<Verdict>) {
        self.total += 1;
        if verdict_is_correct(issue, verdict) {
            return;
        }
        self.mistakes += 1;
        self.bias_sum += if issue.is_valid() { -1 } else { 1 };
    }

    /// The accumulated aggregate statistics.
    pub fn stats(&self) -> OverallStats {
        let accuracy = if self.total == 0 {
            0.0
        } else {
            (self.total - self.mistakes) as f64 / self.total as f64
        };
        let bias = if self.mistakes == 0 {
            0.0
        } else {
            self.bias_sum as f64 / self.mistakes as f64
        };
        OverallStats {
            total: self.total,
            mistakes: self.mistakes,
            accuracy,
            bias,
        }
    }
}

/// Streaming radar-axis accuracy (the data behind Figures 3–6).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RadarAccumulator {
    cells: [CorrectnessCell; RadarCategory::ALL.len()],
}

fn radar_slot(category: RadarCategory) -> usize {
    match category {
        RadarCategory::ImproperDirectiveUse => 0,
        RadarCategory::ImproperSyntax => 1,
        RadarCategory::MissingModelCode => 2,
        RadarCategory::TestLogic => 3,
        RadarCategory::ValidRecognition => 4,
    }
}

impl Accumulator<EvaluationRecord> for RadarAccumulator {
    fn observe(&mut self, record: &EvaluationRecord) {
        self.observe_case(record.issue, record.verdict);
    }

    fn merge(&mut self, other: &Self) {
        for (cell, theirs) in self.cells.iter_mut().zip(&other.cells) {
            cell.merge(theirs);
        }
    }
}

impl RadarAccumulator {
    /// Allocation-free observation for streaming hot paths.
    pub fn observe_case(&mut self, issue: IssueKind, verdict: Option<Verdict>) {
        let slot = radar_slot(RadarCategory::of_issue(issue));
        self.cells[slot].observe(verdict_is_correct(issue, verdict));
    }

    /// The accumulated radar series, axes in display order.
    pub fn series(&self) -> Vec<RadarPoint> {
        RadarCategory::ALL
            .iter()
            .map(|category| {
                let cell = &self.cells[radar_slot(*category)];
                RadarPoint {
                    category: *category,
                    count: cell.count,
                    accuracy: cell.accuracy(),
                }
            })
            .collect()
    }
}

/// The composite sink: per-issue, overall and radar accumulators fed from
/// one `observe` call — everything a paper table or figure needs about one
/// evaluator, in a few hundred bytes, whatever the corpus size.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSink {
    per_issue: PerIssueAccumulator,
    overall: OverallAccumulator,
    radar: RadarAccumulator,
}

impl Accumulator<EvaluationRecord> for MetricsSink {
    fn observe(&mut self, record: &EvaluationRecord) {
        self.observe_case(record.issue, record.verdict);
    }

    fn merge(&mut self, other: &Self) {
        self.per_issue.merge(&other.per_issue);
        self.overall.merge(&other.overall);
        self.radar.merge(&other.radar);
    }
}

impl MetricsSink {
    /// Allocation-free observation for streaming hot paths: folds the
    /// (issue, verdict) pair into all three accumulators without requiring
    /// an [`EvaluationRecord`] (whose id the sinks never read).
    pub fn observe_case(&mut self, issue: IssueKind, verdict: Option<Verdict>) {
        self.per_issue.observe_case(issue, verdict);
        self.overall.observe_case(issue, verdict);
        self.radar.observe_case(issue, verdict);
    }

    /// Per-issue table rows (equals [`crate::per_issue`] over the same
    /// records).
    pub fn per_issue_rows(&self) -> Vec<PerIssueRow> {
        self.per_issue.rows()
    }

    /// Overall accuracy and bias (equals [`crate::overall`]).
    pub fn overall_stats(&self) -> OverallStats {
        self.overall.stats()
    }

    /// Radar series (equals [`crate::radar_series`]).
    pub fn radar_series(&self) -> Vec<RadarPoint> {
        self.radar.series()
    }

    /// Number of records observed.
    pub fn total(&self) -> usize {
        self.overall.stats().total
    }

    /// True if nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }
}

/// Fixed-bucket streaming latency histogram.
///
/// Observations land in [`LatencyHistogram::BUCKET_COUNT`] buckets of
/// [`LatencyHistogram::BUCKET_WIDTH_MS`] milliseconds each, plus one
/// overflow bucket; the bucket counters are integers, so the histogram is
/// **exact under merge**: merging shard histograms produces bit-identical
/// counts — and therefore bit-identical quantile estimates — to observing
/// the unsharded stream.
///
/// Quantiles are nearest-rank over the buckets and report the upper edge of
/// the selected bucket (the overflow bucket reports the maximum observation,
/// which is itself exact under merge).
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyHistogram {
    buckets: [u64; Self::BUCKET_COUNT + 1],
    count: u64,
    max_ms: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; Self::BUCKET_COUNT + 1],
            count: 0,
            max_ms: 0.0,
        }
    }
}

impl LatencyHistogram {
    /// Width of one bucket, in milliseconds.
    pub const BUCKET_WIDTH_MS: f64 = 250.0;
    /// Number of regular buckets; observations at or beyond
    /// `BUCKET_COUNT * BUCKET_WIDTH_MS` land in the overflow bucket.
    pub const BUCKET_COUNT: usize = 64;

    /// Record one latency observation (negative values clamp to zero).
    pub fn observe_ms(&mut self, ms: f64) {
        let ms = ms.max(0.0);
        let slot = ((ms / Self::BUCKET_WIDTH_MS) as usize).min(Self::BUCKET_COUNT);
        self.buckets[slot] += 1;
        self.count += 1;
        self.max_ms = self.max_ms.max(ms);
    }

    /// Absorb another histogram's buckets (exact: the merged counts equal
    /// those of a single histogram fed both observation streams).
    pub fn merge(&mut self, other: &Self) {
        for (bucket, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *bucket += theirs;
        }
        self.count += other.count;
        self.max_ms = self.max_ms.max(other.max_ms);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest observation seen, in milliseconds (0 when empty).
    pub fn max_ms(&self) -> f64 {
        self.max_ms
    }

    /// Nearest-rank quantile estimate in milliseconds; `None` when empty.
    /// Bucket upper edges are clamped to the observed maximum (itself exact
    /// under merge), so a quantile never exceeds any latency that occurred.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (slot, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return Some(if slot == Self::BUCKET_COUNT {
                    self.max_ms
                } else {
                    ((slot as f64 + 1.0) * Self::BUCKET_WIDTH_MS).min(self.max_ms)
                });
            }
        }
        // count > 0 guarantees some bucket crossed the rank above.
        unreachable!("rank {rank} not covered by {} observations", self.count)
    }

    /// Median latency estimate.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th-percentile latency estimate.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th-percentile latency estimate.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Raw bucket counters: `BUCKET_COUNT` regular buckets followed by the
    /// overflow bucket. Together with [`LatencyHistogram::max_ms`] this is
    /// the histogram's complete state (the observation count is always the
    /// bucket sum), which is what the wire codec serializes.
    pub fn bucket_counts(&self) -> &[u64; Self::BUCKET_COUNT + 1] {
        &self.buckets
    }

    /// Reconstruct a histogram from raw bucket counters and the observed
    /// maximum — the inverse of [`LatencyHistogram::bucket_counts`]. The
    /// observation count is recomputed as the bucket sum, so a decoded
    /// histogram is bit-identical to the one that was encoded.
    pub fn from_raw(buckets: [u64; Self::BUCKET_COUNT + 1], max_ms: f64) -> Self {
        let count = buckets.iter().sum();
        Self {
            buckets,
            count,
            max_ms,
        }
    }
}

impl fmt::Display for LatencyHistogram {
    /// Compact one-line snapshot: observation count, quantile estimates and
    /// the exact maximum — `n=0` when empty.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.p50(), self.p95(), self.p99()) {
            (Some(p50), Some(p95), Some(p99)) => write!(
                f,
                "n={} p50<={p50:.0}ms p95<={p95:.0}ms p99<={p99:.0}ms max={:.0}ms",
                self.count, self.max_ms
            ),
            _ => write!(f, "n=0"),
        }
    }
}

impl Accumulator<f64> for LatencyHistogram {
    fn observe(&mut self, ms: &f64) {
        self.observe_ms(*ms);
    }

    fn merge(&mut self, other: &Self) {
        LatencyHistogram::merge(self, other);
    }
}

/// Mergeable streaming summary of judge cost: token counts plus a latency
/// histogram, folded from [`JudgeOutcome`]s as they stream past.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LatencyTokenSummary {
    /// Number of judgements observed.
    pub judgements: u64,
    /// Total prompt (prefill) tokens across all judgements.
    pub prompt_tokens: u64,
    /// Total response (decode) tokens across all judgements.
    pub response_tokens: u64,
    /// Judgements whose response omitted a parseable verdict.
    pub missing_verdicts: u64,
    /// Distribution of simulated per-judgement latencies.
    pub latency: LatencyHistogram,
}

impl Accumulator<JudgeOutcome> for LatencyTokenSummary {
    fn observe(&mut self, outcome: &JudgeOutcome) {
        self.judgements += 1;
        self.prompt_tokens += outcome.prompt_tokens as u64;
        self.response_tokens += outcome.response_tokens as u64;
        if outcome.verdict.is_none() {
            self.missing_verdicts += 1;
        }
        self.latency.observe_ms(outcome.latency_ms);
    }

    fn merge(&mut self, other: &Self) {
        self.judgements += other.judgements;
        self.prompt_tokens += other.prompt_tokens;
        self.response_tokens += other.response_tokens;
        self.missing_verdicts += other.missing_verdicts;
        self.latency.merge(&other.latency);
    }
}

impl fmt::Display for LatencyTokenSummary {
    /// Compact one-line snapshot of judge cost: judgement count, token
    /// totals, missing verdicts and the latency distribution.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} judgements, {} prompt + {} response tokens, {} missing verdicts, latency {}",
            self.judgements,
            self.prompt_tokens,
            self.response_tokens,
            self.missing_verdicts,
            self.latency
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vv_judge::Verdict;

    fn record(i: usize) -> EvaluationRecord {
        let issue = IssueKind::ALL[i % IssueKind::ALL.len()];
        let verdict = match i % 4 {
            0 => Some(Verdict::Valid),
            1 | 2 => Some(Verdict::Invalid),
            _ => None,
        };
        EvaluationRecord::new(format!("case_{i:04}"), issue, verdict)
    }

    fn records(n: usize) -> Vec<EvaluationRecord> {
        (0..n).map(record).collect()
    }

    #[test]
    fn sink_matches_the_batch_functions() {
        let all = records(97);
        let sink: MetricsSink = Accumulator::fold(&all);
        assert_eq!(sink.per_issue_rows(), crate::per_issue(&all));
        assert_eq!(sink.overall_stats(), crate::overall(&all));
        assert_eq!(sink.radar_series(), crate::radar_series(&all));
        assert_eq!(sink.total(), all.len());
    }

    #[test]
    fn split_folds_merge_to_the_whole_fold() {
        let all = records(60);
        let whole: MetricsSink = Accumulator::fold(&all);
        for split in [0, 1, 29, 59, 60] {
            let (left, right) = all.split_at(split);
            let mut merged: MetricsSink = Accumulator::fold(left);
            merged.merge(&Accumulator::fold(right));
            assert_eq!(merged, whole, "split at {split}");
        }
    }

    #[test]
    fn empty_issue_cells_report_no_accuracy() {
        let only_valid = vec![EvaluationRecord::new(
            "v",
            IssueKind::NoIssue,
            Some(Verdict::Valid),
        )];
        let acc: PerIssueAccumulator = Accumulator::fold(&only_valid);
        let rows = acc.rows();
        for row in &rows {
            if row.issue == IssueKind::NoIssue {
                assert_eq!(row.accuracy, Some(1.0));
            } else {
                assert_eq!(row.count, 0);
                assert_eq!(row.accuracy, None, "{:?}", row.issue);
            }
        }
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut histogram = LatencyHistogram::default();
        assert_eq!(histogram.quantile(0.5), None);
        for ms in [100.0, 200.0, 300.0, 5_000.0, 90_000.0] {
            histogram.observe_ms(ms);
        }
        assert_eq!(histogram.count(), 5);
        assert_eq!(histogram.max_ms(), 90_000.0);
        // 90s overflows the 16s bucket range: the top quantile reports the
        // exact max rather than a bucket edge.
        assert_eq!(histogram.quantile(1.0), Some(90_000.0));
        let p50 = histogram.p50().unwrap();
        assert!(p50 <= histogram.p95().unwrap());
        assert!(histogram.p95().unwrap() <= histogram.p99().unwrap());
        // 100 and 200 share the first bucket; its upper edge is 250.
        assert_eq!(
            histogram.quantile(0.2),
            Some(LatencyHistogram::BUCKET_WIDTH_MS)
        );
    }

    #[test]
    fn histogram_merge_is_exact() {
        let latencies: Vec<f64> = (0..500).map(|i| (i as f64) * 37.5).collect();
        let whole: LatencyHistogram = Accumulator::fold(&latencies);
        for n in [1usize, 2, 4] {
            let mut merged = LatencyHistogram::default();
            for k in 0..n {
                let shard: Vec<f64> = latencies.iter().copied().skip(k).step_by(n).collect();
                merged.merge(&Accumulator::fold(&shard));
            }
            assert_eq!(merged, whole, "n = {n}");
            assert_eq!(merged.p99(), whole.p99());
        }
    }

    #[test]
    fn latency_token_summary_accumulates_and_merges() {
        let outcomes: Vec<JudgeOutcome> = (0..12)
            .map(|i| JudgeOutcome {
                prompt: Default::default(),
                response: Default::default(),
                verdict: if i % 5 == 0 {
                    None
                } else {
                    Some(Verdict::Valid)
                },
                prompt_tokens: 100 + i,
                response_tokens: 40 + i,
                latency_ms: 120.0 + 28.0 * i as f64,
            })
            .collect();
        let whole: LatencyTokenSummary = Accumulator::fold(&outcomes);
        assert_eq!(whole.judgements, 12);
        assert_eq!(whole.missing_verdicts, 3);
        assert_eq!(whole.prompt_tokens, (100..112).sum::<usize>() as u64);
        assert_eq!(whole.response_tokens, (40..52).sum::<usize>() as u64);
        // The Display snapshot mentions the headline counters.
        let shown = format!("{whole}");
        assert!(shown.contains("12 judgements"), "{shown}");
        assert!(shown.contains("p95"), "{shown}");
        let (a, b) = outcomes.split_at(7);
        let mut merged: LatencyTokenSummary = Accumulator::fold(a);
        merged.merge(&Accumulator::fold(b));
        assert_eq!(merged, whole);
    }
}
