//! Plain-text table renderers.
//!
//! These mirror the layout of the paper's tables so that the `repro`
//! harness can print directly comparable output.

use crate::radar::RadarPoint;
use crate::{OverallStats, PerIssueRow};
use std::fmt::Write as _;
use vv_dclang::DirectiveModel;

/// Render a per-issue accuracy table with one evaluation column
/// (Tables I / II layout). `columns` holds `(column title, rows)` pairs so
/// the same renderer also covers the two-column pipeline and agent tables
/// (Tables IV / V / VII / VIII).
pub fn render_per_issue_table(
    title: &str,
    model: DirectiveModel,
    columns: &[(&str, &[PerIssueRow])],
) -> String {
    assert!(
        !columns.is_empty(),
        "at least one column of rows is required"
    );
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let mut header = format!("{:<58} {:>7}", format!("{model} Issue Type"), "Count");
    for (name, _) in columns {
        header.push_str(&format!(" {:>12}", format!("{name} corr.")));
        header.push_str(&format!(" {:>10}", format!("{name} acc.")));
    }
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{}", "-".repeat(header.len()));
    let reference = columns[0].1;
    for (index, row) in reference.iter().enumerate() {
        let mut line = format!("{:<58} {:>7}", row.issue.table_label(model), row.count);
        for (_, rows) in columns {
            let cell = &rows[index];
            line.push_str(&format!(" {:>12}", cell.correct));
            match cell.accuracy {
                Some(accuracy) => line.push_str(&format!(" {:>9.0}%", accuracy * 100.0)),
                // An empty matrix cell, not a 0%-accurate one.
                None => line.push_str(&format!(" {:>10}", "n/a")),
            }
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Render an overall accuracy/bias table (Tables III / VI / IX layout):
/// one column per programming model or evaluation setup.
pub fn render_overall_table(title: &str, columns: &[(&str, OverallStats)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let mut header = format!("{:<28}", "Datapoint");
    for (name, _) in columns {
        header.push_str(&format!(" {:>18}", name));
    }
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{}", "-".repeat(header.len()));
    type RenderFn = Box<dyn Fn(&OverallStats) -> String>;
    let rows: [(&str, RenderFn); 4] = [
        (
            "Total Count",
            Box::new(|s: &OverallStats| s.total.to_string()),
        ),
        (
            "Total Mistakes",
            Box::new(|s: &OverallStats| s.mistakes.to_string()),
        ),
        (
            "Overall Accuracy",
            Box::new(|s: &OverallStats| format!("{:.2}%", s.accuracy * 100.0)),
        ),
        (
            "Bias",
            Box::new(|s: &OverallStats| format!("{:+.3}", s.bias)),
        ),
    ];
    for (label, render) in rows {
        let mut line = format!("{label:<28}");
        for (_, stats) in columns {
            line.push_str(&format!(" {:>18}", render(stats)));
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Render a radar series table (the data behind Figures 3–6): one line per
/// axis, one column per evaluated configuration.
pub fn render_radar_table(title: &str, columns: &[(&str, &[RadarPoint])]) -> String {
    assert!(!columns.is_empty());
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let mut header = format!("{:<28}", "Category");
    for (name, _) in columns {
        header.push_str(&format!(" {:>24}", name));
    }
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{}", "-".repeat(header.len()));
    let reference = columns[0].1;
    for (index, point) in reference.iter().enumerate() {
        let mut line = format!("{:<28}", point.category.label());
        for (_, points) in columns {
            match points[index].accuracy {
                Some(accuracy) => line.push_str(&format!(" {:>23.0}%", accuracy * 100.0)),
                // An empty axis, not a 0%-accurate one.
                None => line.push_str(&format!(" {:>24}", "n/a")),
            }
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radar::radar_series;
    use crate::{overall, per_issue, EvaluationRecord};
    use vv_judge::Verdict;
    use vv_probing::IssueKind;

    fn sample_records() -> Vec<EvaluationRecord> {
        vec![
            EvaluationRecord::new("a", IssueKind::NoIssue, Some(Verdict::Valid)),
            EvaluationRecord::new("b", IssueKind::NoIssue, Some(Verdict::Invalid)),
            EvaluationRecord::new(
                "c",
                IssueKind::RemovedOpeningBracket,
                Some(Verdict::Invalid),
            ),
            EvaluationRecord::new(
                "d",
                IssueKind::ReplacedWithNonDirectiveCode,
                Some(Verdict::Valid),
            ),
        ]
    }

    #[test]
    fn per_issue_table_renders_all_rows_and_percentages() {
        let rows = per_issue(&sample_records());
        let table = render_per_issue_table(
            "TABLE I: LLMJ Negative Probing Results for OpenACC",
            DirectiveModel::OpenAcc,
            &[("LLMJ", &rows)],
        );
        assert!(table.contains("TABLE I"));
        assert!(table.contains("Removed an opening bracket"));
        assert!(table.contains("No issue"));
        assert!(table.contains("%"));
    }

    #[test]
    fn two_column_table_renders_both_columns() {
        let rows = per_issue(&sample_records());
        let table = render_per_issue_table(
            "TABLE IV",
            DirectiveModel::OpenAcc,
            &[("Pipeline 1", &rows), ("Pipeline 2", &rows)],
        );
        assert!(table.contains("Pipeline 1 acc."));
        assert!(table.contains("Pipeline 2 acc."));
    }

    #[test]
    fn overall_table_contains_all_datapoints() {
        let stats = overall(&sample_records());
        let table = render_overall_table(
            "TABLE III: LLMJ Overall Negative Probing Results",
            &[("OpenACC", stats), ("OpenMP", stats)],
        );
        assert!(table.contains("Total Count"));
        assert!(table.contains("Total Mistakes"));
        assert!(table.contains("Overall Accuracy"));
        assert!(table.contains("Bias"));
        assert!(table.contains("OpenACC"));
    }

    #[test]
    fn radar_table_lists_every_axis() {
        let series = radar_series(&sample_records());
        let table = render_radar_table("Figure 3 data", &[("Pipeline 1", &series)]);
        assert!(table.contains("Improper syntax"));
        assert!(table.contains("Valid test recognition"));
    }

    #[test]
    fn empty_issue_cells_render_as_na_not_zero_percent() {
        // The sample records cover issues 1, 3 and 5 only; 0, 2 and 4 are
        // empty cells and must not masquerade as 0%-accurate rows.
        let rows = per_issue(&sample_records());
        let table = render_per_issue_table("TABLE", DirectiveModel::OpenAcc, &[("LLMJ", &rows)]);
        // Issues 0, 2 and 4 are empty: three "n/a" cells. Issue 3 (one
        // incorrect record) is a genuine 0%.
        assert_eq!(table.matches("n/a").count(), 3, "{table}");
        assert!(table.contains("0%"), "{table}");
    }
}
