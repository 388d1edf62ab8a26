//! One function per table and figure of the paper's evaluation section.
//!
//! Each function renders a plain-text artifact in the same layout as the
//! paper, so the `repro` binary (and EXPERIMENTS.md) can compare the
//! reproduction side by side with the published numbers.
//!
//! The renderers consume the **streaming metrics** types
//! ([`PartOneMetrics`] / [`PartTwoMetrics`]) — accumulator state, a few
//! hundred bytes per evaluator — rather than materialized record sets, so
//! paper-scale (or far larger) tables render from a constant-memory
//! [`crate::experiment::stream_part_one`] /
//! [`crate::experiment::stream_part_two`] run.

use crate::experiment::{Evaluator, PartOneMetrics, PartTwoMetrics};
use vv_metrics::{render_overall_table, render_per_issue_table, render_radar_table};

/// Table I — plain LLMJ negative probing, per-issue accuracy, OpenACC.
pub fn table_1(acc: &PartOneMetrics) -> String {
    render_per_issue_table(
        "TABLE I: LLMJ Negative Probing Results for OpenACC",
        acc.model,
        &[("LLMJ", &acc.per_issue())],
    )
}

/// Table II — plain LLMJ negative probing, per-issue accuracy, OpenMP.
pub fn table_2(omp: &PartOneMetrics) -> String {
    render_per_issue_table(
        "TABLE II: LLMJ Negative Probing Results for OpenMP",
        omp.model,
        &[("LLMJ", &omp.per_issue())],
    )
}

/// Table III — plain LLMJ overall accuracy and bias.
pub fn table_3(acc: &PartOneMetrics, omp: &PartOneMetrics) -> String {
    render_overall_table(
        "TABLE III: LLMJ Overall Negative Probing Results",
        &[("OpenACC", acc.overall()), ("OpenMP", omp.overall())],
    )
}

/// Table IV — validation pipeline per-issue accuracy, OpenACC.
pub fn table_4(acc: &PartTwoMetrics) -> String {
    render_per_issue_table(
        "TABLE IV: Validation Pipeline Results for OpenACC",
        acc.model,
        &[
            ("Pipeline 1", &acc.per_issue(Evaluator::Pipeline1)),
            ("Pipeline 2", &acc.per_issue(Evaluator::Pipeline2)),
        ],
    )
}

/// Table V — validation pipeline per-issue accuracy, OpenMP.
pub fn table_5(omp: &PartTwoMetrics) -> String {
    render_per_issue_table(
        "TABLE V: Validation Pipeline Results for OpenMP",
        omp.model,
        &[
            ("Pipeline 1", &omp.per_issue(Evaluator::Pipeline1)),
            ("Pipeline 2", &omp.per_issue(Evaluator::Pipeline2)),
        ],
    )
}

/// Table VI — overall validation pipeline accuracy and bias.
pub fn table_6(acc: &PartTwoMetrics, omp: &PartTwoMetrics) -> String {
    render_overall_table(
        "TABLE VI: Overall Validation Pipeline Results",
        &[
            ("OpenACC P1", acc.overall(Evaluator::Pipeline1)),
            ("OpenACC P2", acc.overall(Evaluator::Pipeline2)),
            ("OpenMP P1", omp.overall(Evaluator::Pipeline1)),
            ("OpenMP P2", omp.overall(Evaluator::Pipeline2)),
        ],
    )
}

/// Table VII — agent-based LLMJ per-issue accuracy, OpenACC.
pub fn table_7(acc: &PartTwoMetrics) -> String {
    render_per_issue_table(
        "TABLE VII: Agent-Based LLMJ Results for OpenACC",
        acc.model,
        &[
            ("LLMJ 1", &acc.per_issue(Evaluator::Llmj1)),
            ("LLMJ 2", &acc.per_issue(Evaluator::Llmj2)),
        ],
    )
}

/// Table VIII — agent-based LLMJ per-issue accuracy, OpenMP.
pub fn table_8(omp: &PartTwoMetrics) -> String {
    render_per_issue_table(
        "TABLE VIII: Agent-Based LLMJ Results for OpenMP",
        omp.model,
        &[
            ("LLMJ 1", &omp.per_issue(Evaluator::Llmj1)),
            ("LLMJ 2", &omp.per_issue(Evaluator::Llmj2)),
        ],
    )
}

/// Table IX — overall agent-based LLMJ accuracy and bias.
pub fn table_9(acc: &PartTwoMetrics, omp: &PartTwoMetrics) -> String {
    render_overall_table(
        "TABLE IX: Overall Agent-Based LLMJ Results",
        &[
            ("OpenACC LLMJ1", acc.overall(Evaluator::Llmj1)),
            ("OpenACC LLMJ2", acc.overall(Evaluator::Llmj2)),
            ("OpenMP LLMJ1", omp.overall(Evaluator::Llmj1)),
            ("OpenMP LLMJ2", omp.overall(Evaluator::Llmj2)),
        ],
    )
}

/// Figure 3 — radar data: pipeline accuracy by error category, OpenACC.
pub fn figure_3(acc: &PartTwoMetrics) -> String {
    render_radar_table(
        "FIGURE 3 (data): Validation Pipeline Results for OpenACC",
        &[
            ("Pipeline 1", &acc.radar(Evaluator::Pipeline1)),
            ("Pipeline 2", &acc.radar(Evaluator::Pipeline2)),
        ],
    )
}

/// Figure 4 — radar data: pipeline accuracy by error category, OpenMP.
pub fn figure_4(omp: &PartTwoMetrics) -> String {
    render_radar_table(
        "FIGURE 4 (data): Validation Pipeline Results for OpenMP",
        &[
            ("Pipeline 1", &omp.radar(Evaluator::Pipeline1)),
            ("Pipeline 2", &omp.radar(Evaluator::Pipeline2)),
        ],
    )
}

/// Figure 5 — radar data: all three LLM judges by category, OpenACC.
pub fn figure_5(part_one_acc: &PartOneMetrics, part_two_acc: &PartTwoMetrics) -> String {
    render_radar_table(
        "FIGURE 5 (data): LLMJ Results for OpenACC",
        &[
            ("Non-agent LLMJ", &part_one_acc.radar()),
            ("LLMJ 1", &part_two_acc.radar(Evaluator::Llmj1)),
            ("LLMJ 2", &part_two_acc.radar(Evaluator::Llmj2)),
        ],
    )
}

/// Figure 6 — radar data: all three LLM judges by category, OpenMP.
pub fn figure_6(part_one_omp: &PartOneMetrics, part_two_omp: &PartTwoMetrics) -> String {
    render_radar_table(
        "FIGURE 6 (data): LLMJ Results for OpenMP",
        &[
            ("Non-agent LLMJ", &part_one_omp.radar()),
            ("LLMJ 1", &part_two_omp.radar(Evaluator::Llmj1)),
            ("LLMJ 2", &part_two_omp.radar(Evaluator::Llmj2)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{stream_part_one, stream_part_two, PartOneConfig, PartTwoConfig};
    use vv_dclang::DirectiveModel;

    #[test]
    fn every_table_and_figure_renders_nonempty_output() {
        let p1_acc = stream_part_one(&PartOneConfig::quick(DirectiveModel::OpenAcc, 18));
        let p1_omp = stream_part_one(&PartOneConfig::quick(DirectiveModel::OpenMp, 18));
        let p2_acc = stream_part_two(&PartTwoConfig::quick(DirectiveModel::OpenAcc, 18));
        let p2_omp = stream_part_two(&PartTwoConfig::quick(DirectiveModel::OpenMp, 18));

        let artifacts = [
            table_1(&p1_acc),
            table_2(&p1_omp),
            table_3(&p1_acc, &p1_omp),
            table_4(&p2_acc),
            table_5(&p2_omp),
            table_6(&p2_acc, &p2_omp),
            table_7(&p2_acc),
            table_8(&p2_omp),
            table_9(&p2_acc, &p2_omp),
            figure_3(&p2_acc),
            figure_4(&p2_omp),
            figure_5(&p1_acc, &p2_acc),
            figure_6(&p1_omp, &p2_omp),
        ];
        for (i, artifact) in artifacts.iter().enumerate() {
            assert!(
                artifact.lines().count() >= 4,
                "artifact {i} too short:\n{artifact}"
            );
            assert!(
                artifact.contains('%') || artifact.contains("Bias"),
                "artifact {i}"
            );
        }
        assert!(artifacts[0].contains("TABLE I"));
        assert!(artifacts[12].contains("FIGURE 6"));
    }
}
