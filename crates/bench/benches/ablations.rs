//! Ablation benchmarks (A1–A3 in DESIGN.md): the design choices behind the
//! validation service.
//!
//! * `early_exit_vs_record_all` — how much work the early-exit rule saves;
//! * `worker_scaling` — throughput as the executor's worker count grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use vv_bench::{probed_workload, sizes};
use vv_dclang::DirectiveModel;
use vv_pipeline::{ExecutionStrategy, PipelineMode, ValidationService};

fn configure(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
}

fn bench_early_exit(c: &mut Criterion) {
    let workload = probed_workload(DirectiveModel::OpenAcc, sizes::BENCH_SUITE, 404);
    let mut group = c.benchmark_group("early_exit_vs_record_all");
    configure(&mut group);
    group.bench_function("early_exit", |b| {
        let service = ValidationService::builder().build();
        b.iter(|| criterion::black_box(service.run(workload.items.clone()).stats.judged));
    });
    group.bench_function("record_all", |b| {
        let service = ValidationService::builder()
            .mode(PipelineMode::RecordAll)
            .build();
        b.iter(|| criterion::black_box(service.run(workload.items.clone()).stats.judged));
    });
    group.finish();
}

fn bench_worker_scaling(c: &mut Criterion) {
    let workload = probed_workload(DirectiveModel::OpenAcc, sizes::BENCH_SUITE, 606);
    let mut group = c.benchmark_group("worker_scaling");
    configure(&mut group);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            let service = ValidationService::builder()
                .strategy(ExecutionStrategy::Pipelined { workers: w })
                .build();
            b.iter(|| criterion::black_box(service.run(workload.items.clone()).records.len()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_early_exit, bench_worker_scaling);
criterion_main!(benches);
