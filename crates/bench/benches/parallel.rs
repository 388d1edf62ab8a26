//! Core-count scaling of the executor (`ExecutionStrategy::Pipelined`,
//! whole cases per worker), written to `BENCH_PR8.json` at the repo root.
//!
//! Two sweeps, because this container's substrate is deliberately
//! CPU-cheap:
//!
//! * **paced** — the judge's simulated latency is realized as wall-clock
//!   time through [`PacedJudge`] (scale 0.001 → ≈1 ms per judged case,
//!   modelling the paper's remote-LLM-judge deployment, three orders of
//!   magnitude compressed). Worker concurrency genuinely overlaps those
//!   waits, so this sweep measures the executor's *scheduling* scaling
//!   independent of core count — and carries the PR-8 acceptance
//!   tripwire: ≥ 2× end-to-end at 4 workers over 1 in release.
//! * **cpu_bound** — no pacing: the simulated stages burn CPU only. The
//!   speedup here is bounded by physical cores (`cores` in the JSON; on a
//!   1-core host parity with one worker is the honest expected result),
//!   so it is reported transparently but not gated.
//!
//! The `*_sequential_*` baselines are the one-worker points: a single
//! worker runs exactly the sequential schedule.

use criterion::{criterion_group, criterion_main, Criterion};
use std::fmt::Write as _;
use std::time::Instant;

use vv_dclang::DirectiveModel;
use vv_pipeline::{ExecutionStrategy, PipelineMode, ValidationService, WorkItem};
use vv_probing::{CorpusSpec, ProbeConfig};

/// The pacing scale of the paced sweep: simulated judge latencies are
/// ~900–1500 ms, so each judged case sleeps ≈1 ms.
const PACING: f64 = 0.001;

/// A probed corpus as submission-ready work items (half mutated, so every
/// stage path occurs).
fn corpus(seed: u64, size: usize) -> Vec<WorkItem> {
    let mut probe = ProbeConfig::with_seed(seed ^ 0x9E37_79B9);
    probe.mutated_fraction = 0.5;
    let mut source = CorpusSpec::new(DirectiveModel::OpenAcc)
        .seed(seed)
        .probe(probe)
        .size(size)
        .source();
    let mut items = Vec::with_capacity(size);
    while let Some(case) = source.next_case() {
        items.push(WorkItem::from(case));
    }
    items
}

fn service(workers: usize, pacing: f64) -> ValidationService {
    // RecordAll judges every case, so the judge stage (the paced one)
    // carries full weight, as in the paper's experimental runs.
    ValidationService::builder()
        .mode(PipelineMode::RecordAll)
        .strategy(ExecutionStrategy::Pipelined { workers })
        .judge_pacing(pacing)
        .build()
}

/// One timed end-to-end run; returns cases/second.
fn throughput(workers: usize, pacing: f64, items: &[WorkItem]) -> f64 {
    let service = service(workers, pacing);
    let started = Instant::now();
    let run = service.run(items.to_vec());
    let secs = started.elapsed().as_secs_f64();
    assert_eq!(run.records.len(), items.len());
    items.len() as f64 / secs.max(1e-9)
}

/// The worker-count sweep (outside criterion so the numbers land in
/// `BENCH_PR8.json`): Pipelined at 1/2/4/all workers, paced and
/// CPU-bound.
fn write_bench_point() {
    let size = if cfg!(debug_assertions) { 200 } else { 4_000 };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let items = corpus(0x8A11E1, size);

    let sweep = |pacing: f64| -> Vec<(usize, f64)> {
        let mut by_workers = Vec::new();
        for workers in [1usize, 2, 4, cores] {
            if by_workers.iter().any(|(w, _)| *w == workers) {
                continue;
            }
            by_workers.push((workers, throughput(workers, pacing, &items)));
        }
        by_workers
    };

    let cpu_points = sweep(0.0);
    let paced_points = sweep(PACING);

    let at = |points: &[(usize, f64)], workers: usize| -> f64 {
        points
            .iter()
            .find(|(w, _)| *w == workers)
            .map(|(_, cps)| *cps)
            .expect("swept worker count")
    };
    let (paced_seq, cpu_seq) = (at(&paced_points, 1), at(&cpu_points, 1));
    let paced_speedup = at(&paced_points, 4) / paced_seq;
    let cpu_speedup = at(&cpu_points, 4) / cpu_seq;

    let fmt_points = |points: &[(usize, f64)]| -> String {
        let entries: Vec<String> = points
            .iter()
            .map(|(w, cps)| format!("\"{w}\": {cps:.1}"))
            .collect();
        format!("{{{}}}", entries.join(", "))
    };

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"pr\": 8,");
    let _ = writeln!(
        json,
        "  \"bench\": \"pipelined work-stealing executor worker sweep ({size} cases, \
         RecordAll, half-mutated corpus; paced = judge latency realized at {PACING} \
         wall-clock scale, modelling a remote judge)\","
    );
    let _ = writeln!(json, "  \"profile\": \"{}\",", profile_name());
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(
        json,
        "  \"paced_sequential_cases_per_sec\": {paced_seq:.1},"
    );
    let _ = writeln!(
        json,
        "  \"paced_pipelined_cases_per_sec\": {},",
        fmt_points(&paced_points)
    );
    let _ = writeln!(json, "  \"paced_speedup_4_vs_1\": {paced_speedup:.2},");
    let _ = writeln!(
        json,
        "  \"cpu_bound_sequential_cases_per_sec\": {cpu_seq:.1},"
    );
    let _ = writeln!(
        json,
        "  \"cpu_bound_pipelined_cases_per_sec\": {},",
        fmt_points(&cpu_points)
    );
    let _ = writeln!(json, "  \"cpu_bound_speedup_4_vs_1\": {cpu_speedup:.2}");
    let _ = writeln!(json, "}}");
    println!(
        "parallel/paced: sequential {paced_seq:.0} cases/s, pipelined {} — 4v1 speedup {paced_speedup:.2}x",
        fmt_points(&paced_points)
    );
    println!(
        "parallel/cpu-bound ({cores} core(s)): sequential {cpu_seq:.0} cases/s, pipelined {} — \
         4v1 speedup {cpu_speedup:.2}x",
        fmt_points(&cpu_points)
    );

    // Repo root (bench crate lives at crates/bench).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR8.json");
    if let Err(err) = std::fs::write(path, json) {
        eprintln!("parallel bench: could not write BENCH_PR8.json: {err}");
    }

    // The PR-8 acceptance tripwire: on the latency-dominated (paced)
    // workload, 4 workers must deliver at least 2× the single-worker
    // end-to-end throughput in release.
    if !cfg!(debug_assertions) {
        assert!(
            paced_speedup >= 2.0,
            "pipelined executor scaling fell below the 2x-at-4-workers acceptance bar \
             ({paced_speedup:.2}x on the paced workload) — scheduling regression"
        );
    }
}

fn profile_name() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn bench_worker_sweep(_c: &mut Criterion) {
    write_bench_point();
}

criterion_group!(benches, bench_worker_sweep);
criterion_main!(benches);
