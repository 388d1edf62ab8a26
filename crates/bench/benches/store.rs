//! Artifact-store benchmarks: segment put/flush/open throughput, and the
//! cold-vs-warm incremental-campaign sweep whose result is written to
//! `BENCH_PR6.json` at the repo root — the durability point of the perf
//! trajectory. The PR-6 acceptance bar is a ≥ 10x warm-replay speedup on
//! `examples/incremental_campaign.rs`; the tripwire here is deliberately
//! lower (2x) so shared-runner noise cannot flake CI.

use criterion::{criterion_group, criterion_main, Criterion};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use llm4vv::campaign::ScenarioMatrix;
use llm4vv::incremental::run_incremental_campaign;
use vv_judge::JudgeProfile;
use vv_store::{fnv1a, kind, ArtifactStore};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vv-store-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn configure(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
}

/// Synthetic record payloads roughly the size of an encoded case record.
fn payload(i: usize) -> Vec<u8> {
    (0..1536).map(|j| (i * 31 + j * 131) as u8).collect()
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    configure(&mut group);
    const RECORDS: usize = 512;

    // Insert + seal a segment of records (tempfile + rename + manifest).
    group.bench_function("put_flush_512", |b| {
        b.iter(|| {
            let dir = temp_dir("put");
            let store = ArtifactStore::open(&dir).expect("open");
            for i in 0..RECORDS {
                let key = format!("key-{i:05}").into_bytes();
                store
                    .put(kind::CASE, fnv1a(&key), &key, &payload(i))
                    .expect("put");
            }
            store.flush().expect("flush");
            let _ = std::fs::remove_dir_all(&dir);
        });
    });

    // Reopen a sealed store: read, checksum-verify and index every record.
    {
        let dir = temp_dir("open");
        let store = ArtifactStore::open(&dir).expect("open");
        for i in 0..RECORDS {
            let key = format!("key-{i:05}").into_bytes();
            store
                .put(kind::CASE, fnv1a(&key), &key, &payload(i))
                .expect("put");
        }
        store.flush().expect("flush");
        drop(store);
        group.bench_function("open_verify_512", |b| {
            b.iter(|| {
                let store = ArtifactStore::open(&dir).expect("reopen");
                criterion::black_box(store.stats().records)
            });
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    group.finish();
}

/// Timed cold-vs-warm sweep (outside criterion so the numbers can be
/// written to `BENCH_PR6.json`): one cold incremental campaign into a
/// fresh store, then a warm re-run of the identical matrix over it.
fn write_bench_point() {
    let size = if cfg!(debug_assertions) { 200 } else { 2_000 };
    let matrix = ScenarioMatrix::new(size)
        .judge_profiles(vec![
            JudgeProfile::deepseek_agent_direct(),
            JudgeProfile::deepseek_agent_indirect(),
        ])
        .shards(2);
    let total = matrix.len() * size;
    let dir = temp_dir("sweep");

    let started = Instant::now();
    let cold = run_incremental_campaign(&matrix, &dir, None).expect("cold run");
    let cold_secs = started.elapsed().as_secs_f64();
    assert!(cold.completed());

    // Best of three warm passes (open, then every case replays inside the
    // store-backed executor: zero validations).
    let mut warm_secs = f64::INFINITY;
    for _ in 0..3 {
        let started = Instant::now();
        let warm = run_incremental_campaign(&matrix, &dir, None).expect("warm run");
        warm_secs = warm_secs.min(started.elapsed().as_secs_f64());
        assert_eq!(warm.total_fresh(), 0, "warm re-run validates nothing");
    }
    let _ = std::fs::remove_dir_all(&dir);

    let cold_cps = total as f64 / cold_secs;
    let warm_cps = total as f64 / warm_secs;
    let speedup = warm_cps / cold_cps;

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"pr\": 6,");
    let _ = writeln!(
        json,
        "  \"bench\": \"incremental campaign cold validation vs warm store replay \
         (2 scenarios x {size} cases, shared artifact store)\","
    );
    let _ = writeln!(json, "  \"profile\": \"{}\",", profile_name());
    let _ = writeln!(json, "  \"cold_cases_per_sec\": {cold_cps:.1},");
    let _ = writeln!(json, "  \"warm_cases_per_sec\": {warm_cps:.1},");
    let _ = writeln!(
        json,
        "  \"cold_fresh_validations\": {},",
        cold.total_fresh()
    );
    let _ = writeln!(json, "  \"warm_speedup\": {speedup:.2}");
    let _ = writeln!(json, "}}");
    println!(
        "store/sweep: cold {cold_cps:.0} cases/s, warm replay {warm_cps:.0} cases/s ({speedup:.2}x)"
    );

    // Repo root (bench crate lives at crates/bench).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR6.json");
    if let Err(err) = std::fs::write(path, json) {
        eprintln!("store bench: could not write BENCH_PR6.json: {err}");
    }

    // Regression tripwire, deliberately below the PR-6 acceptance number
    // (~13x measured on examples/incremental_campaign.rs, recorded in
    // BENCH_PR6.json and README): shared CI runners are noisy, and a
    // wall-clock ratio assert at the acceptance bar itself would flake on
    // machines that are not at fault. A warm replay under 2x cold on any
    // machine indicates a real regression.
    if !cfg!(debug_assertions) {
        assert!(
            speedup >= 2.0,
            "warm store replay fell below 2x cold validation ({speedup:.2}x) — a real \
             regression, the acceptance measurement was ~13x (see BENCH_PR6.json)"
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

fn bench_throughput_point(_c: &mut Criterion) {
    write_bench_point();
}

criterion_group!(benches, bench_store, bench_throughput_point);
criterion_main!(benches);
