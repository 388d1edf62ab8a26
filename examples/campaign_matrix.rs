//! Campaign quickstart: sweep a scenario matrix — directive model × judge
//! profile here — with every scenario streamed through the validation
//! service as sharded corpus sources and folded into mergeable
//! accumulators. Nothing is ever materialized: per scenario, memory is
//! bounded by the executor's in-flight window, not the corpus size.
//!
//! ```text
//! cargo run --release --example campaign_matrix            # 4 scenarios x 3000 cases
//! cargo run --release --example campaign_matrix -- 25000   # pick a per-scenario size
//! ```

use llm4vv::campaign::{run_campaign, ScenarioMatrix};
use vv_dclang::DirectiveModel;
use vv_judge::JudgeProfile;

fn main() {
    let size: usize = std::env::args()
        .nth(1)
        .and_then(|arg| arg.parse().ok())
        .unwrap_or(3_000);

    // 2 models x 2 judge profiles = 4 scenarios, each streamed as 2 shards.
    let matrix = ScenarioMatrix::new(size)
        .models(vec![DirectiveModel::OpenAcc, DirectiveModel::OpenMp])
        .judge_profiles(vec![
            JudgeProfile::deepseek_agent_direct(),
            JudgeProfile::deepseek_agent_indirect(),
        ])
        .shards(2);
    println!(
        "running {} scenarios x {size} cases ({} cases total)...\n",
        matrix.len(),
        matrix.len() * size
    );

    let campaign = run_campaign(&matrix);
    println!("{}", campaign.comparison_table());

    let max_in_flight = campaign
        .scenarios
        .iter()
        .map(|s| s.max_in_flight)
        .max()
        .expect("non-empty campaign");
    println!(
        "peak in-flight ground-truth entries across all scenarios: {max_in_flight} \
         (the {size}-case suites never existed in memory)"
    );

    assert_eq!(campaign.scenarios.len(), 4);
    assert_eq!(campaign.total_cases(), 4 * size);
    for metrics in &campaign.scenarios {
        assert_eq!(metrics.stats.submitted, size, "{}", metrics.scenario.label);
        assert_eq!(metrics.stats.judged, size, "record-all judges every file");
    }
}
