//! `vv-metrics` — the metrics defined in §IV of the paper.
//!
//! * **Per-issue evaluation accuracy** — accuracy grouped by the issue ID
//!   injected during negative probing;
//! * **Overall evaluation accuracy** — accuracy over every probed file;
//! * **Bias** — for the *mistaken* evaluations only, `+1` for each invalid
//!   file that was passed and `−1` for each valid file that was failed,
//!   averaged over all mistakes. A positive bias means the judge's mistakes
//!   are permissive; a negative bias means they are restrictive.
//!
//! The module also provides the radar-plot category grouping used by
//! Figures 3–6 and plain-text / CSV renderers for every table.
//!
//! # Batch vs streaming
//!
//! The batch functions here ([`per_issue`], [`overall`], [`radar_series`])
//! take a materialized `&[EvaluationRecord]` slice and are thin wrappers
//! over the streaming [`accumulate`] module: a family of mergeable,
//! constant-memory [`accumulate::Accumulator`]s whose sharded folds merge
//! byte-identically to the unsharded fold. Prefer the accumulators when
//! records arrive as a stream (e.g. from
//! `ValidationService::submit_source`) — the batch functions exist for
//! suites that are already in memory.

pub mod accumulate;
pub mod radar;
pub mod tables;
pub mod wire;

pub use accumulate::{
    Accumulator, LatencyHistogram, LatencyTokenSummary, MetricsSink, OverallAccumulator,
    PerIssueAccumulator, RadarAccumulator,
};
pub use radar::{radar_series, RadarCategory, RadarPoint};
pub use tables::{render_overall_table, render_per_issue_table, render_radar_table};

use vv_judge::Verdict;
use vv_probing::IssueKind;

/// One judged (or pipeline-evaluated) probed file.
#[derive(Clone, Debug, PartialEq)]
pub struct EvaluationRecord {
    /// Identifier of the underlying test case.
    pub case_id: String,
    /// The issue injected during negative probing (5 = no issue).
    pub issue: IssueKind,
    /// The verdict produced by the judge or pipeline (`None` when the judge
    /// failed to produce a parseable judgement).
    pub verdict: Option<Verdict>,
}

impl EvaluationRecord {
    /// Create a record.
    pub fn new(case_id: impl Into<String>, issue: IssueKind, verdict: Option<Verdict>) -> Self {
        Self {
            case_id: case_id.into(),
            issue,
            verdict,
        }
    }

    /// The effective verdict: a missing judgement counts as `Invalid`
    /// (the evaluation cannot accept a file it could not judge).
    pub fn effective_verdict(&self) -> Verdict {
        self.verdict.unwrap_or(Verdict::Invalid)
    }

    /// Ground truth from the paper's system-of-verification.
    pub fn ground_truth_valid(&self) -> bool {
        self.issue.is_valid()
    }

    /// Whether the evaluation was correct.
    pub fn is_correct(&self) -> bool {
        self.effective_verdict().is_valid() == self.ground_truth_valid()
    }
}

/// One row of a per-issue accuracy table (Tables I, II, IV, V, VII, VIII).
#[derive(Clone, Debug, PartialEq)]
pub struct PerIssueRow {
    /// The issue class.
    pub issue: IssueKind,
    /// Number of files with this issue.
    pub count: usize,
    /// Number of correct evaluations.
    pub correct: usize,
    /// Number of incorrect evaluations.
    pub incorrect: usize,
    /// `correct / count`; `None` when the group has no records, so an empty
    /// matrix cell is distinguishable from a 0%-accurate one.
    pub accuracy: Option<f64>,
}

/// Aggregate statistics (Tables III, VI, IX).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverallStats {
    /// Total number of evaluated files.
    pub total: usize,
    /// Total number of mistaken evaluations.
    pub mistakes: usize,
    /// Overall accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Bias in `[-1, 1]`; positive = permissive mistakes dominate.
    pub bias: f64,
}

/// Compute the per-issue accuracy table, in paper issue-ID order.
///
/// Thin wrapper over a one-shot [`PerIssueAccumulator`] fold; streaming
/// consumers should fold the accumulator directly.
pub fn per_issue(records: &[EvaluationRecord]) -> Vec<PerIssueRow> {
    PerIssueAccumulator::fold(records).rows()
}

/// Compute the overall accuracy and bias.
///
/// Thin wrapper over a one-shot [`OverallAccumulator`] fold; streaming
/// consumers should fold the accumulator directly.
pub fn overall(records: &[EvaluationRecord]) -> OverallStats {
    OverallAccumulator::fold(records).stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(issue: IssueKind, verdict: Verdict) -> EvaluationRecord {
        EvaluationRecord::new("t", issue, Some(verdict))
    }

    #[test]
    fn correctness_follows_ground_truth() {
        assert!(record(IssueKind::NoIssue, Verdict::Valid).is_correct());
        assert!(!record(IssueKind::NoIssue, Verdict::Invalid).is_correct());
        assert!(record(IssueKind::RemovedOpeningBracket, Verdict::Invalid).is_correct());
        assert!(!record(IssueKind::RemovedOpeningBracket, Verdict::Valid).is_correct());
    }

    #[test]
    fn missing_verdict_counts_as_invalid() {
        let r = EvaluationRecord::new("t", IssueKind::NoIssue, None);
        assert_eq!(r.effective_verdict(), Verdict::Invalid);
        assert!(!r.is_correct());
    }

    #[test]
    fn per_issue_groups_and_counts() {
        let records = vec![
            record(IssueKind::NoIssue, Verdict::Valid),
            record(IssueKind::NoIssue, Verdict::Invalid),
            record(IssueKind::RemovedOpeningBracket, Verdict::Invalid),
        ];
        let rows = per_issue(&records);
        assert_eq!(rows.len(), 6);
        let no_issue = rows.iter().find(|r| r.issue == IssueKind::NoIssue).unwrap();
        assert_eq!(no_issue.count, 2);
        assert_eq!(no_issue.correct, 1);
        assert_eq!(no_issue.incorrect, 1);
        assert!((no_issue.accuracy.unwrap() - 0.5).abs() < 1e-12);
        let bracket = rows
            .iter()
            .find(|r| r.issue == IssueKind::RemovedOpeningBracket)
            .unwrap();
        assert_eq!(bracket.count, 1);
        assert!((bracket.accuracy.unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_issue_groups_have_no_accuracy() {
        // One record: every other issue row is an empty cell, which must be
        // distinguishable from a 0%-accurate one.
        let rows = per_issue(&[record(IssueKind::NoIssue, Verdict::Invalid)]);
        for row in &rows {
            if row.issue == IssueKind::NoIssue {
                assert_eq!(row.accuracy, Some(0.0), "0% accurate, not empty");
            } else {
                assert_eq!(row.accuracy, None, "{:?} is empty", row.issue);
            }
        }
    }

    #[test]
    fn overall_accuracy_and_bias_match_paper_definition() {
        // 2 permissive mistakes, 1 restrictive mistake, 1 correct.
        let records = vec![
            record(IssueKind::RemovedOpeningBracket, Verdict::Valid),
            record(IssueKind::UndeclaredVariableUse, Verdict::Valid),
            record(IssueKind::NoIssue, Verdict::Invalid),
            record(IssueKind::NoIssue, Verdict::Valid),
        ];
        let stats = overall(&records);
        assert_eq!(stats.total, 4);
        assert_eq!(stats.mistakes, 3);
        assert!((stats.accuracy - 0.25).abs() < 1e-12);
        assert!((stats.bias - (1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn bias_is_zero_without_mistakes_and_bounded_otherwise() {
        let perfect = vec![record(IssueKind::NoIssue, Verdict::Valid)];
        assert_eq!(overall(&perfect).bias, 0.0);
        let all_permissive = vec![
            record(IssueKind::RemovedOpeningBracket, Verdict::Valid),
            record(IssueKind::UndeclaredVariableUse, Verdict::Valid),
        ];
        assert_eq!(overall(&all_permissive).bias, 1.0);
        let all_restrictive = vec![record(IssueKind::NoIssue, Verdict::Invalid)];
        assert_eq!(overall(&all_restrictive).bias, -1.0);
    }

    #[test]
    fn empty_input_is_handled() {
        let stats = overall(&[]);
        assert_eq!(stats.total, 0);
        assert_eq!(stats.accuracy, 0.0);
        assert_eq!(stats.bias, 0.0);
        assert!(per_issue(&[])
            .iter()
            .all(|row| row.count == 0 && row.accuracy.is_none()));
    }
}
