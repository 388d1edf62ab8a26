//! Benchmarks of the paper's experiments themselves (E1–E13 in DESIGN.md).
//!
//! * `part_one_*` — the Table I–III workloads: negative probing of the plain
//!   (non-agent) judge;
//! * `part_two_*` — the Table IV–IX / Figure 3–6 workloads: record-all
//!   validation pipeline with both agent judges.
//!
//! The benchmark sizes are scaled down from the paper's suite sizes so that
//! `cargo bench` completes quickly; the `repro` binary runs the full sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use llm4vv::experiment::{stream_part_one, stream_part_two, PartOneConfig, PartTwoConfig};
use vv_dclang::DirectiveModel;

fn bench_part_one(c: &mut Criterion) {
    let mut group = c.benchmark_group("part_one_negative_probing");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    for (name, model) in [
        ("openacc_table1", DirectiveModel::OpenAcc),
        ("openmp_table2", DirectiveModel::OpenMp),
    ] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let config = PartOneConfig::quick(model, 48);
            b.iter(|| {
                let results = stream_part_one(&config);
                criterion::black_box(results.overall())
            });
        });
    }
    group.finish();
}

fn bench_part_two(c: &mut Criterion) {
    let mut group = c.benchmark_group("part_two_pipeline_and_agents");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    for (name, model) in [
        ("openacc_tables4_7_figs3_5", DirectiveModel::OpenAcc),
        ("openmp_tables5_8_figs4_6", DirectiveModel::OpenMp),
    ] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let config = PartTwoConfig::quick(model, 48);
            b.iter(|| {
                let results = stream_part_two(&config);
                criterion::black_box((
                    results.overall(llm4vv::Evaluator::Pipeline1),
                    results.overall(llm4vv::Evaluator::Llmj1),
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_part_one, bench_part_two);
criterion_main!(benches);
