//! End-to-end laws of the resident validation daemon (`vv-server`).
//!
//! 1. **Loopback identity** — a campaign streamed through the in-process
//!    loopback transport returns records byte-identical to a direct
//!    [`ValidationService`] run of the same items, with matching
//!    [`stage_stats`];
//! 2. **Concurrent-tenant identity** — N tenants submitting different
//!    corpora over real TCP sockets at once each get results
//!    byte-identical to their own direct run (the soak: shared worker
//!    pool, shared compile cache, fair round-robin — none of it may leak
//!    one tenant's work into another's results);
//! 3. **Disconnect cancellation** — a client vanishing mid-stream cancels
//!    only its own job: queued cases are purged, another tenant's
//!    campaign completes untouched, and the server keeps serving new
//!    connections;
//! 4. **Protocol robustness** — garbage bytes and torn frames close that
//!    connection without wedging the daemon;
//! 5. **Graceful shutdown** — `SHUTDOWN` drains, flushes the journals and
//!    seals the store: the directory fscks clean, the lockfile is
//!    released, and a foreign live lock is refused at startup;
//! 6. **Live stats** — the `STATS` snapshot accounts every served case to
//!    the right tenant;
//! 7. **No transport stalls** — small jobs over TCP never wait on a
//!    delayed ACK.
//!
//! Sizes scale with the profile (same idiom as `tests/end_to_end.rs`):
//! debug runs stay tier-1 fast, release runs soak harder.

use std::path::PathBuf;

use llm4vv::incremental::stage_stats;
use vv_dclang::DirectiveModel;
use vv_pipeline::{encode_record, PipelineRun, ValidationService, WorkItem};
use vv_probing::{CorpusSpec, ProbeConfig};
use vv_server::{Client, JobSpec, Server, ServerConfig};
use vv_store::{check, StoreError};

fn scale(debug: usize, release: usize) -> usize {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vv-server-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A probed corpus as submission-ready work items.
fn corpus(model: DirectiveModel, seed: u64, size: usize) -> Vec<WorkItem> {
    let mut probe = ProbeConfig::with_seed(seed ^ 0x9E37_79B9);
    probe.mutated_fraction = 0.5;
    let mut source = CorpusSpec::new(model)
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

/// The in-process service equivalent of the daemon's pooled service for
/// `spec` (fresh compile cache; provenance counters are excluded from
/// the stats comparison anyway).
fn direct_service(spec: &JobSpec) -> ValidationService {
    ValidationService::builder()
        .mode(spec.mode)
        .judge_style(spec.style)
        .judge_profile(spec.profile.profile())
        .judge_seed(spec.judge_seed)
        .build()
}

fn direct_run(spec: &JobSpec, items: &[WorkItem]) -> PipelineRun {
    direct_service(spec).submit(items.to_vec()).into_run()
}

fn record_bytes(run: &PipelineRun) -> Vec<Vec<u8>> {
    run.records.iter().map(encode_record).collect()
}

#[test]
fn loopback_campaign_is_byte_identical_to_a_direct_run() {
    let size = scale(32, 400);
    let spec = JobSpec::default();
    let items = corpus(DirectiveModel::OpenAcc, 0xA11CE, size);
    let local = direct_run(&spec, &items);

    let server = Server::start(ServerConfig::default()).expect("start server");
    let mut client = Client::over(Box::new(server.connect()), "loopback").expect("handshake");
    let remote = client
        .submit(spec, items)
        .expect("submit")
        .into_run()
        .expect("stream to completion");

    assert_eq!(remote.records.len(), size);
    assert_eq!(record_bytes(&remote), record_bytes(&local));
    assert_eq!(stage_stats(&remote.stats), stage_stats(&local.stats));
    assert!(remote.stats.wall_time > std::time::Duration::ZERO);

    drop(client);
    server.handle().shutdown();
    server.join();
}

#[test]
fn concurrent_tcp_tenants_each_match_their_direct_run() {
    let tenants = scale(2, 4);
    let size = scale(24, 250);
    let spec = JobSpec::default();
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("bound address");

    // Different model and seed per tenant: any cross-tenant leak in the
    // shared worker pool or compile cache changes someone's bytes.
    let handles: Vec<_> = (0..tenants)
        .map(|t| {
            let model = if t % 2 == 0 {
                DirectiveModel::OpenAcc
            } else {
                DirectiveModel::OpenMp
            };
            let items = corpus(model, 0xBEE5 + t as u64, size + t);
            std::thread::spawn(move || {
                let name = format!("tenant-{t}");
                let mut client = Client::connect(addr, &name).expect("connect");
                let remote = client
                    .submit(spec, items.clone())
                    .expect("submit")
                    .into_run()
                    .expect("stream");
                (items, remote)
            })
        })
        .collect();

    for (t, handle) in handles.into_iter().enumerate() {
        let (items, remote) = handle.join().expect("tenant thread");
        let local = direct_run(&spec, &items);
        assert_eq!(
            record_bytes(&remote),
            record_bytes(&local),
            "tenant {t} diverged from its direct run"
        );
        assert_eq!(stage_stats(&remote.stats), stage_stats(&local.stats));
    }

    let snapshot = server.stats();
    let total: usize = (0..tenants).map(|t| size + t).sum();
    assert_eq!(snapshot.served.submitted, total);
    assert_eq!(snapshot.tenants.len(), tenants);
    for (t, row) in snapshot.tenants.iter().enumerate() {
        assert_eq!(row.name, format!("tenant-{t}"));
        assert_eq!(row.completed as usize, size + t);
        assert_eq!(row.cancelled, 0);
        assert_eq!(row.jobs_opened, 1);
        assert_eq!(row.jobs_finished, 1);
    }

    server.handle().shutdown();
    server.join();
}

#[test]
fn a_disconnect_mid_stream_cancels_only_that_tenant() {
    let victim_size = scale(300, 1200);
    let steady_size = scale(24, 200);
    let spec = JobSpec::default();
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::start(config).expect("start server");

    // The steady tenant runs a full campaign concurrently with the chaos.
    let steady = {
        let conn = server.connect();
        let items = corpus(DirectiveModel::OpenMp, 0x5EED, steady_size);
        std::thread::spawn(move || {
            let mut client = Client::over(Box::new(conn), "steady").expect("handshake");
            client
                .submit(spec, items)
                .expect("submit")
                .into_run()
                .expect("steady tenant must complete")
        })
    };

    // The victim submits a big job, reads a couple of records and
    // vanishes. Dropping the Job kills the connection; the server turns
    // that into cancellation (purged queue, discarded in-flight results).
    {
        let mut client = Client::over(Box::new(server.connect()), "victim").expect("handshake");
        let items = corpus(DirectiveModel::OpenAcc, 0xDEAD, victim_size);
        let mut job = client.submit(spec, items).expect("submit");
        for _ in 0..2 {
            job.next().expect("a first record arrives").expect("record");
        }
        // Job and Client drop here, mid-stream.
    }

    let steady_run = steady.join().expect("steady thread");
    assert_eq!(steady_run.records.len(), steady_size);

    // The victim's work drains (cancelled or completed, never stuck).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let victim = loop {
        let snapshot = server.stats();
        let row = snapshot
            .tenants
            .iter()
            .find(|row| row.name == "victim")
            .expect("victim tenant registered")
            .clone();
        if row.queued == 0 && row.in_flight == 0 {
            break row;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "victim queue never drained: {row:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert!(
        victim.cancelled > 0,
        "dropping the client mid-stream must purge queued cases, got {victim:?}"
    );
    assert_eq!(victim.jobs_finished, 0, "a cancelled job never finishes");

    // Steady tenant untouched, and the server still serves new clients.
    let steady_row = server
        .stats()
        .tenants
        .iter()
        .find(|row| row.name == "steady")
        .expect("steady tenant registered")
        .clone();
    assert_eq!(steady_row.completed as usize, steady_size);
    assert_eq!(steady_row.cancelled, 0);

    let mut client = Client::over(Box::new(server.connect()), "afterwards").expect("handshake");
    let items = corpus(DirectiveModel::OpenAcc, 0xAF7E4, scale(8, 32));
    let run = client
        .submit(spec, items)
        .expect("submit")
        .into_run()
        .expect("post-cancellation campaign");
    assert_eq!(run.records.len(), scale(8, 32));

    drop(client);
    server.handle().shutdown();
    server.join();
}

#[test]
fn garbage_and_torn_frames_close_the_connection_without_wedging_the_server() {
    use std::io::Write as _;
    use vv_server::protocol::{write_frame, Request, FRAME_HEADER_BYTES, PROTOCOL_VERSION};

    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("bound address");

    // Pure garbage instead of a handshake.
    {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
        // The server closes without a frame; nothing to assert beyond
        // the connection ending (read may see EOF or reset).
    }

    // A valid HELLO followed by a torn frame: oversized length prefix.
    {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        let hello = Request::Hello {
            protocol: PROTOCOL_VERSION,
            tenant: "torn".into(),
        };
        write_frame(&mut stream, &hello.encode()).expect("hello frame");
        let mut torn = vec![0u8; FRAME_HEADER_BYTES];
        torn[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        stream.write_all(&torn).expect("torn header");
    }

    // A valid HELLO followed by a checksum-corrupt frame.
    {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        let hello = Request::Hello {
            protocol: PROTOCOL_VERSION,
            tenant: "corrupt".into(),
        };
        write_frame(&mut stream, &hello.encode()).expect("hello frame");
        let mut framed = Vec::new();
        write_frame(&mut framed, &Request::Stats.encode()).expect("frame");
        *framed.last_mut().expect("payload byte") ^= 0x01;
        stream.write_all(&framed).expect("corrupt frame");
    }

    // After all that abuse a well-behaved client still gets full service.
    let size = scale(12, 64);
    let mut client = Client::connect(addr, "wellbehaved").expect("connect");
    let items = corpus(DirectiveModel::OpenAcc, 0x600D, size);
    let run = client
        .submit(JobSpec::default(), items)
        .expect("submit")
        .into_run()
        .expect("campaign after garbage");
    assert_eq!(run.records.len(), size);

    drop(client);
    server.handle().shutdown();
    server.join();
}

#[test]
fn shutdown_drains_seals_the_store_and_releases_the_lock() {
    let size = scale(24, 200);
    let dir = temp_dir("shutdown");
    let config = ServerConfig {
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let server = Server::start(config).expect("start server");
    assert!(
        dir.join(vv_store::LOCK_NAME).exists(),
        "a store-backed server holds the lockfile while running"
    );

    let items = corpus(DirectiveModel::OpenAcc, 0x57011E, size);
    let mut client = Client::over(Box::new(server.connect()), "durable").expect("handshake");
    let first = client
        .submit(JobSpec::default(), items.clone())
        .expect("submit")
        .into_run()
        .expect("campaign");
    assert_eq!(first.records.len(), size);
    drop(client);

    // Graceful shutdown over the protocol itself.
    Client::over(Box::new(server.connect()), "controller")
        .expect("handshake")
        .shutdown()
        .expect("SHUTDOWN_OK");
    server.join();

    // Sealed clean: fsck passes, the lock is gone, and a fresh server on
    // the same directory replays every record from disk.
    let report = check(&dir).expect("fsck");
    assert!(report.clean(), "store not clean after drain: {report:?}");
    assert!(report.records > 0, "the campaign's records were persisted");
    // The lock drops with the last store handle; the final connection
    // handler thread may still be unwinding for a moment after the
    // `SHUTDOWN_OK` acknowledgement reached us.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while dir.join(vv_store::LOCK_NAME).exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "shutdown must release the store lock"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let server = Server::start(ServerConfig {
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("reopen");
    let mut client = Client::over(Box::new(server.connect()), "warm").expect("handshake");
    let second = client
        .submit(JobSpec::default(), items)
        .expect("submit")
        .into_run()
        .expect("warm campaign");
    assert_eq!(record_bytes(&second), record_bytes(&first));
    assert_eq!(
        second.stats.store_hits, size,
        "a re-run over the same store replays every case"
    );
    drop(client);
    server.handle().shutdown();
    server.join();

    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(target_os = "linux")]
#[test]
fn a_live_foreign_store_lock_refuses_the_server_cleanly() {
    let dir = temp_dir("foreign-lock");
    // pid 1 is always alive and never us.
    std::fs::write(dir.join(vv_store::LOCK_NAME), "1").expect("plant lock");
    match Server::start(ServerConfig {
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    }) {
        Err(StoreError::Locked { owner, .. }) => assert_eq!(owner, 1),
        Ok(_) => panic!("server started over a foreign-locked store"),
        Err(other) => panic!("expected Locked, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_stats_snapshot_accounts_every_served_case() {
    let size = scale(20, 120);
    let server = Server::start(ServerConfig::default()).expect("start server");
    let mut client = Client::over(Box::new(server.connect()), "accounting").expect("handshake");
    let items = corpus(DirectiveModel::OpenMp, 0xC0DE, size);
    client
        .submit(JobSpec::default(), items)
        .expect("submit")
        .into_run()
        .expect("campaign");

    // Over the wire — the same snapshot the `vv-server stats` CLI prints.
    let snapshot = client.stats().expect("STATS_OK");
    assert!(!snapshot.draining);
    assert_eq!(snapshot.served.submitted, size);
    assert_eq!(snapshot.served.judged, size);
    let row = snapshot
        .tenants
        .iter()
        .find(|row| row.name == "accounting")
        .expect("tenant row");
    assert_eq!(row.submitted as usize, size);
    assert_eq!(row.completed as usize, size);
    assert_eq!(row.queued, 0);
    assert_eq!(row.in_flight, 0);
    assert_eq!(row.jobs_opened, 1);
    assert_eq!(row.jobs_finished, 1);
    assert!(snapshot.compile_cache.hits + snapshot.compile_cache.misses > 0);

    let rendered = snapshot.to_string();
    assert!(rendered.contains("accounting"), "{rendered}");
    assert!(rendered.contains("serving"), "{rendered}");

    drop(client);
    server.handle().shutdown();
    server.join();
}

#[test]
fn tcp_round_trips_never_wait_on_a_delayed_ack() {
    // A frame written as two pieces, or Nagle's algorithm left on at
    // either end, holds a frame back until the peer's delayed ACK fires
    // (40 ms on Linux): every small job below would then take 40 ms or
    // more. Unstalled, each takes a few milliseconds.
    const STALL_MS: f64 = 40.0;
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("bound address");
    let mut client = Client::connect(addr, "latency").expect("connect");
    let items = corpus(DirectiveModel::OpenAcc, 0x1A7E, 4);
    let mut job_ms = Vec::new();
    // The first job builds the pooled service and is not timed.
    for round in 0..=scale(15, 40) {
        let start = std::time::Instant::now();
        let run = client
            .submit(JobSpec::default(), items.clone())
            .expect("submit")
            .into_run()
            .expect("job");
        assert_eq!(run.records.len(), items.len());
        if round > 0 {
            job_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    job_ms.sort_by(f64::total_cmp);
    let median = job_ms[job_ms.len() / 2];
    assert!(
        median < STALL_MS / 2.0,
        "TCP jobs look stalled: median {median:.1} ms over {} jobs",
        job_ms.len()
    );

    drop(client);
    server.handle().shutdown();
    server.join();
}
