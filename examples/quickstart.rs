//! Quickstart: generate a tiny OpenACC V&V suite, damage half of it with
//! negative probing, run the validation pipeline, and print the paper's
//! metrics (per-issue accuracy, overall accuracy, bias).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use llm4vv::experiment::{stream_part_two, Evaluator, PartTwoConfig};
use llm4vv::metrics::{render_overall_table, render_per_issue_table};
use vv_dclang::DirectiveModel;

fn main() {
    // 60 files: 30 stay valid, 30 receive one of the five mutation classes.
    let config = PartTwoConfig::quick(DirectiveModel::OpenAcc, 60);
    println!(
        "running the validation pipeline over {} probed OpenACC files...\n",
        config.suite_size
    );

    let results = stream_part_two(&config);

    println!(
        "{}",
        render_per_issue_table(
            "Per-issue accuracy (validation pipeline vs stand-alone agent judge)",
            DirectiveModel::OpenAcc,
            &[
                ("Pipeline 1", &results.per_issue(Evaluator::Pipeline1)),
                ("LLMJ 1", &results.per_issue(Evaluator::Llmj1)),
            ],
        )
    );
    println!(
        "{}",
        render_overall_table(
            "Overall accuracy and bias",
            &[
                ("Pipeline 1", results.overall(Evaluator::Pipeline1)),
                ("LLMJ 1", results.overall(Evaluator::Llmj1)),
            ],
        )
    );
    println!(
        "The pipeline gates the expensive LLM judge behind the compiler and the runtime: \
         files that fail those stages are rejected without ever reaching the GPU."
    );
}
