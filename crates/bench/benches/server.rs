//! Validation-server benchmarks: protocol codec throughput, per-request
//! round-trip latency over the loopback transport, and the
//! campaign-over-the-wire sweep whose result is written to
//! `BENCH_PR7.json` at the repo root. The PR-7 acceptance bar is ≥ 5 000
//! cases/s through the loopback protocol in release; the tripwire here
//! asserts exactly that (the measured margin is large enough that
//! shared-runner noise cannot flake it — the protocol adds framing, not
//! work).

use criterion::{criterion_group, criterion_main, Criterion};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use vv_dclang::DirectiveModel;
use vv_pipeline::{ValidationService, WorkItem};
use vv_probing::{CorpusSpec, ProbeConfig};
use vv_server::protocol::{write_frame, Request, Response};
use vv_server::{Client, JobSpec, Server, ServerConfig};

fn configure(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
}

/// A probed corpus as submission-ready work items.
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

fn bench_protocol(c: &mut Criterion) {
    let mut group = c.benchmark_group("server");
    configure(&mut group);

    // Codec throughput: encode + frame + decode one CASE message.
    let item = corpus(0xC0DEC, 1).remove(0);
    group.bench_function("case_frame_round_trip", |b| {
        b.iter(|| {
            let request = Request::Case {
                job: 1,
                seq: 7,
                item: item.clone(),
            };
            let mut framed = Vec::new();
            write_frame(&mut framed, &request.encode()).expect("frame");
            criterion::black_box(framed.len())
        });
    });
    group.bench_function("record_response_decode", |b| {
        let payload = Response::Record {
            job: 1,
            seq: 7,
            record: vec![0x5A; 1024],
        }
        .encode();
        b.iter(|| criterion::black_box(Response::decode(&payload).expect("decode")));
    });

    // Full-stack request latency: a STATS round trip over the loopback
    // transport (frame, pipe, dispatch, snapshot, frame back).
    {
        let server = Server::start(ServerConfig::default()).expect("start");
        let mut client = Client::over(Box::new(server.connect()), "bench").expect("handshake");
        group.bench_function("stats_round_trip", |b| {
            b.iter(|| criterion::black_box(client.stats().expect("stats").connections));
        });
        drop(client);
        server.handle().shutdown().expect("store seals");
        server.join();
    }

    group.finish();
}

/// Timed campaign-over-the-wire sweep (outside criterion so the numbers
/// can be written to `BENCH_PR7.json`): the same corpus through a direct
/// in-process service and through the loopback protocol, single tenant.
fn write_bench_point() {
    let size = if cfg!(debug_assertions) { 300 } else { 6_000 };
    let spec = JobSpec::default();
    let items = corpus(0x7EAE7, size);

    let direct_service = ValidationService::builder()
        .mode(spec.mode)
        .judge_style(spec.style)
        .judge_profile(spec.profile.profile())
        .judge_seed(spec.judge_seed)
        .build();
    let started = Instant::now();
    let direct = direct_service.submit(items.clone()).into_run();
    let direct_secs = started.elapsed().as_secs_f64();
    assert_eq!(direct.records.len(), size);

    // The direct service runs 4+4+2 stage workers; give the daemon's
    // flat per-case pool a comparable overlap budget (the simulated
    // stage latencies reward concurrency even on few cores).
    let config = ServerConfig {
        workers: 10,
        ..ServerConfig::default()
    };
    let server = Server::start(config).expect("start");
    let mut client = Client::over(Box::new(server.connect()), "bench").expect("handshake");
    // One warm-up pass so the pooled service exists and the compile cache
    // is in the same (warm) state the daemon would realistically be in.
    client
        .submit(spec, items.clone())
        .expect("submit")
        .into_run()
        .expect("warm-up");
    let started = Instant::now();
    let remote = client
        .submit(spec, items.clone())
        .expect("submit")
        .into_run()
        .expect("loopback campaign");
    let loopback_secs = started.elapsed().as_secs_f64();
    assert_eq!(remote.records.len(), size);
    drop(client);
    server.handle().shutdown().expect("store seals");
    server.join();

    let direct_cps = size as f64 / direct_secs;
    let loopback_cps = size as f64 / loopback_secs;
    let overhead = direct_cps / loopback_cps;

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"pr\": 7,");
    let _ = writeln!(
        json,
        "  \"bench\": \"campaign through the vv-server loopback protocol vs a direct \
         in-process service ({size} cases, single tenant, default workers)\","
    );
    let _ = writeln!(json, "  \"profile\": \"{}\",", profile_name());
    let _ = writeln!(json, "  \"direct_cases_per_sec\": {direct_cps:.1},");
    let _ = writeln!(json, "  \"loopback_cases_per_sec\": {loopback_cps:.1},");
    let _ = writeln!(json, "  \"protocol_overhead_x\": {overhead:.2}");
    let _ = writeln!(json, "}}");
    println!(
        "server/loopback: direct {direct_cps:.0} cases/s, over the wire {loopback_cps:.0} \
         cases/s ({overhead:.2}x overhead)"
    );

    // Repo root (bench crate lives at crates/bench).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR7.json");
    if let Err(err) = std::fs::write(path, json) {
        eprintln!("server bench: could not write BENCH_PR7.json: {err}");
    }

    // The PR-7 acceptance tripwire: the resident daemon must sustain at
    // least 5k cases/s through the loopback protocol in release.
    if !cfg!(debug_assertions) {
        assert!(
            loopback_cps >= 5_000.0,
            "loopback campaign throughput fell below the 5k cases/s acceptance bar \
             ({loopback_cps:.0} cases/s) — protocol or scheduling regression"
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

criterion_group!(benches, bench_protocol, bench_throughput_point);
criterion_main!(benches);
