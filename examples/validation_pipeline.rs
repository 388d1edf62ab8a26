//! Validation-service throughput demo: run the same probed OpenACC suite
//! through the `ValidationService` at several worker counts (early-exit and
//! record-all), compare wall time, judge-stage savings and verdict
//! agreement, then stream a corpus source through `submit_source` to show
//! records arriving as the suite is generated on the fly.
//!
//! ```text
//! cargo run --release --example validation_pipeline
//! ```

use vv_corpus::CaseSource;
use vv_dclang::DirectiveModel;
use vv_pipeline::{ExecutionStrategy, PipelineMode, PipelineRun, ValidationService, WorkItem};
use vv_probing::CorpusSpec;

fn spec(size: usize) -> CorpusSpec {
    CorpusSpec::new(DirectiveModel::OpenAcc)
        .seed(7)
        .probe_seed(8)
        .size(size)
}

fn probed_items(size: usize) -> Vec<WorkItem> {
    let items: Vec<WorkItem> = spec(size)
        .source()
        .into_cases()
        .map(WorkItem::from)
        .collect();
    println!(
        "{} probed files materialized for the worker-count comparison\n",
        items.len()
    );
    items
}

fn run(items: &[WorkItem], mode: PipelineMode, workers: usize) -> PipelineRun {
    ValidationService::builder()
        .mode(mode)
        .strategy(ExecutionStrategy::Pipelined { workers })
        .build()
        .run(items.to_vec())
}

fn main() {
    let items = probed_items(120);

    // One service per (workers, mode) combination — a single entry point,
    // `run`, whatever the worker count.
    let single = run(&items, PipelineMode::EarlyExit, 1);
    let single_all = run(&items, PipelineMode::RecordAll, 1);
    let dual = run(&items, PipelineMode::EarlyExit, 2);
    let all_cores = run(&items, PipelineMode::EarlyExit, 0);

    let agreement = single
        .records
        .iter()
        .zip(&all_cores.records)
        .filter(|(a, b)| a == b)
        .count();

    println!(
        "{:<28} {:>10} {:>10} {:>12} {:>16}",
        "workers", "wall (ms)", "judged", "savings", "sim. GPU (ms)"
    );
    for (name, run) in [
        ("1 worker, early-exit", &single),
        ("1 worker, record-all", &single_all),
        ("2 workers, early-exit", &dual),
        ("all cores, early-exit", &all_cores),
    ] {
        println!(
            "{:<28} {:>10.1} {:>10} {:>11.0}% {:>16.0}",
            name,
            run.stats.wall_time.as_secs_f64() * 1e3,
            run.stats.judged,
            run.stats.judge_stage_savings() * 100.0,
            run.stats.simulated_judge_latency_ms,
        );
    }
    println!(
        "\nidentical records between 1 worker and all cores: {agreement}/{} files",
        single.records.len()
    );
    println!(
        "early-exit spared the (simulated 33B-parameter) judge {:.0}% of the files that record-all would have sent to the GPU.",
        (1.0 - single.stats.judged as f64 / single_all.stats.judged.max(1) as f64) * 100.0
    );

    // Streaming: `submit_source` drains the corpus pipeline lazily under
    // the executor's in-flight window — generation, probing and validation
    // overlap, and the suite is never materialized.
    let streaming_spec = spec(40);
    println!(
        "\nstreaming through submit_source (first 5 records)\n  source: {}",
        streaming_spec.describe()
    );
    let service = ValidationService::builder().channel_capacity(4).build();
    let stream = service.submit_source(streaming_spec.source());
    let mut streamed = 0usize;
    for record in stream {
        if streamed < 5 {
            println!(
                "  {:<36} stage {:?}, verdict {:?}",
                record.id,
                record.stage_reached(),
                record.pipeline_verdict()
            );
        }
        streamed += 1;
    }
    println!("  ... {streamed} records streamed in submission order");
}
