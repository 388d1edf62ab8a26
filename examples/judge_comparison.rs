//! Judge comparison: evaluate the same probed OpenACC and OpenMP suites with
//! the plain (non-agent) judge and both agent-based judges, and print the
//! radar-category accuracy series behind Figures 5 and 6.
//!
//! ```text
//! cargo run --release --example judge_comparison
//! ```

use llm4vv::experiment::{
    stream_part_one, stream_part_two, Evaluator, PartOneConfig, PartTwoConfig,
};
use llm4vv::metrics::render_radar_table;
use vv_dclang::DirectiveModel;

fn main() {
    for model in [DirectiveModel::OpenAcc, DirectiveModel::OpenMp] {
        let part_one = stream_part_one(&PartOneConfig::quick(model, 90));
        let part_two = stream_part_two(&PartTwoConfig::quick(model, 90));
        let title = format!("Per-category accuracy for {model} (cf. Figures 5/6)");
        println!(
            "{}",
            render_radar_table(
                &title,
                &[
                    ("Non-agent LLMJ", &part_one.radar()),
                    ("LLMJ 1", &part_two.radar(Evaluator::Llmj1)),
                    ("LLMJ 2", &part_two.radar(Evaluator::Llmj2)),
                ],
            )
        );
        println!(
            "overall: non-agent {:.1}%, LLMJ 1 {:.1}%, LLMJ 2 {:.1}%, pipeline 1 {:.1}%\n",
            part_one.overall().accuracy * 100.0,
            part_two.overall(Evaluator::Llmj1).accuracy * 100.0,
            part_two.overall(Evaluator::Llmj2).accuracy * 100.0,
            part_two.overall(Evaluator::Pipeline1).accuracy * 100.0,
        );
    }
    println!("Agent-based prompting and the pipeline structure both lift accuracy well above the plain judge, as in the paper.");
}
