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
//! 5. **Graceful shutdown** — `SHUTDOWN` drains and seals the store: the
//!    directory fscks clean, the lockfile is released, a foreign live lock
//!    is refused at startup, and a store that cannot be sealed is reported
//!    instead of acknowledged;
//! 6. **Live stats** — the `STATS` snapshot accounts every served case to
//!    the right tenant, even mid-run, has a row only for tenants that
//!    opened a job, and reports the uptime as the served wall time;
//! 7. **No transport stalls** — small jobs over TCP never wait on a
//!    delayed ACK.
//!
//! Sizes scale with the profile (same idiom as `tests/end_to_end.rs`):
//! debug runs stay tier-1 fast, release runs soak harder.

use std::path::PathBuf;

use llm4vv::incremental::stage_stats;
use vv_dclang::DirectiveModel;
use vv_pipeline::{encode_record, PipelineRun, PipelineStats, ValidationService, WorkItem};
use vv_probing::{CorpusSpec, ProbeConfig};
use vv_server::protocol::ErrorCode;
use vv_server::stats::TenantSnapshot;
use vv_server::{Client, ClientError, JobSpec, Server, ServerConfig};
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
    server.handle().shutdown().expect("store seals");
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

    server.handle().shutdown().expect("store seals");
    server.join();
}

/// The victim tenant's row of the live stats.
fn victim_row(server: &Server) -> TenantSnapshot {
    server
        .stats()
        .tenants
        .into_iter()
        .find(|row| row.name == "victim")
        .expect("victim tenant registered")
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
    let capacity = config.tenant_queue_capacity as u64;
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
        // Vanish only while the victim's queue is full: the reader is then
        // blocked on cases the job still has to send, so the job cannot
        // finish before the server sees the drop, and the drop finds cases
        // to purge.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while victim_row(&server).queued < capacity {
            assert!(
                std::time::Instant::now() < deadline,
                "the victim's queue never filled: {:?}",
                victim_row(&server)
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Job and Client drop here, mid-stream.
    }

    let steady_run = steady.join().expect("steady thread");
    assert_eq!(steady_run.records.len(), steady_size);

    // The victim's work drains (cancelled or completed, never stuck).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let victim = loop {
        let row = victim_row(&server);
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
    server.handle().shutdown().expect("store seals");
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
    server.handle().shutdown().expect("store seals");
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
    server.handle().shutdown().expect("store seals");
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
fn shutdown_reports_a_store_that_cannot_be_sealed() {
    let size = scale(24, 200);
    let dir = temp_dir("unsealable");
    let server = Server::start(ServerConfig {
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("start server");
    let items = corpus(DirectiveModel::OpenAcc, 0x5EA1, size);
    let mut client = Client::over(Box::new(server.connect()), "doomed").expect("handshake");
    let run = client
        .submit(JobSpec::default(), items)
        .expect("submit")
        .into_run()
        .expect("campaign");
    assert_eq!(run.records.len(), size);
    drop(client);

    // The job's records are still pending (far below the store's automatic
    // flush threshold); take the directory away before the final seal.
    std::fs::remove_dir_all(&dir).expect("remove the store directory");
    let shutdown = Client::over(Box::new(server.connect()), "controller")
        .expect("handshake")
        .shutdown();
    match shutdown {
        Err(ClientError::Server {
            code: ErrorCode::Store,
            ..
        }) => {}
        other => panic!("expected a Store error from SHUTDOWN, got {other:?}"),
    }
    server.join();
}

#[test]
fn the_stats_snapshot_accounts_every_served_case() {
    let size = scale(20, 120);
    let dir = temp_dir("accounting");
    let server = Server::start(ServerConfig {
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("start server");
    let mut client = Client::over(Box::new(server.connect()), "accounting").expect("handshake");
    let items = corpus(DirectiveModel::OpenMp, 0xC0DE, size);
    // The second job replays every case from the store the first filled.
    let jobs: Vec<PipelineRun> = (0..2)
        .map(|_| {
            client
                .submit(JobSpec::default(), items.clone())
                .expect("submit")
                .into_run()
                .expect("campaign")
        })
        .collect();
    assert_eq!(jobs[1].stats.store_hits, size);

    // Over the wire — the same snapshot the `vv-server stats` CLI prints.
    let snapshot = client.stats().expect("STATS_OK");
    assert!(!snapshot.draining);
    assert_eq!(snapshot.served.submitted, 2 * size);
    assert_eq!(snapshot.served.judged, 2 * jobs[0].stats.judged);
    // The daemon's tally is the merge of its jobs' JOB_DONE stats in every
    // counter. Wall time differs, and the f64 latency sum depends on the
    // order the cases were merged in.
    let mut expected = PipelineStats::default();
    for job in &jobs {
        expected.merge(&job.stats);
    }
    let served = &snapshot.served;
    let latency = served.simulated_judge_latency_ms;
    assert!(
        (latency - expected.simulated_judge_latency_ms).abs() <= 1e-9 * latency.abs().max(1.0),
        "{latency} vs {}",
        expected.simulated_judge_latency_ms
    );
    expected.wall_time = served.wall_time;
    expected.simulated_judge_latency_ms = latency;
    assert_eq!(*served, expected);
    let row = snapshot
        .tenants
        .iter()
        .find(|row| row.name == "accounting")
        .expect("tenant row");
    assert_eq!(row.submitted as usize, 2 * size);
    assert_eq!(row.completed as usize, 2 * size);
    assert_eq!(row.queued, 0);
    assert_eq!(row.in_flight, 0);
    assert_eq!(row.jobs_opened, 2);
    assert_eq!(row.jobs_finished, 2);
    assert!(snapshot.compile_cache.hits + snapshot.compile_cache.misses > 0);

    let rendered = snapshot.to_string();
    assert!(rendered.contains("accounting"), "{rendered}");
    assert!(rendered.contains("serving"), "{rendered}");

    drop(client);
    server.handle().shutdown().expect("store seals");
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_live_snapshot_counts_each_served_case_once() {
    // A worker merges a case's stats into the served tally and counts it
    // completed in its tenant's row in one step, so no snapshot taken
    // while jobs run can see one without the other.
    let size = scale(120, 1500);
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("start server");
    let tenants: Vec<_> = ["left", "right"]
        .into_iter()
        .enumerate()
        .map(|(t, name)| {
            let conn = server.connect();
            let items = corpus(DirectiveModel::OpenAcc, 0x5AFE + t as u64, size);
            std::thread::spawn(move || {
                let mut client = Client::over(Box::new(conn), name).expect("handshake");
                client
                    .submit(JobSpec::default(), items)
                    .expect("submit")
                    .into_run()
                    .expect("campaign")
            })
        })
        .collect();
    let mut observer = Client::over(Box::new(server.connect()), "observer").expect("handshake");
    let mut snapshots = 0;
    loop {
        let running = tenants.iter().any(|tenant| !tenant.is_finished());
        let snapshot = observer.stats().expect("STATS_OK");
        let completed: u64 = snapshot.tenants.iter().map(|row| row.completed).sum();
        assert_eq!(snapshot.served.submitted as u64, completed, "{snapshot}");
        snapshots += 1;
        if !running {
            break;
        }
    }
    for tenant in tenants {
        assert_eq!(tenant.join().expect("tenant thread").records.len(), size);
    }
    let snapshot = observer.stats().expect("STATS_OK");
    assert_eq!(snapshot.served.submitted, 2 * size);
    assert!(snapshots > 1, "no snapshot was taken while the jobs ran");

    drop(observer);
    server.handle().shutdown().expect("store seals");
    server.join();
}

#[test]
fn the_served_wall_time_is_the_uptime() {
    // Per-case stats carry no wall time, so the served tally's wall time is
    // the daemon's uptime: the same clock reading as `uptime_ms`.
    let server = Server::start(ServerConfig::default()).expect("start server");
    let mut client = Client::over(Box::new(server.connect()), "uptime").expect("handshake");
    client
        .submit(
            JobSpec::default(),
            corpus(DirectiveModel::OpenAcc, 0x7177, 4),
        )
        .expect("submit")
        .into_run()
        .expect("campaign");
    let snapshot = client.stats().expect("STATS_OK");
    let wall = snapshot.served.wall_time;
    assert!(wall > std::time::Duration::ZERO, "{snapshot}");
    assert_eq!(wall.as_millis() as u64, snapshot.uptime_ms, "{snapshot}");
    assert!(!snapshot.to_string().contains("wall 0ns"), "{snapshot}");
    drop(client);
    server.handle().shutdown().expect("shutdown");
    server.join();
}

#[test]
fn a_connection_that_only_reads_stats_adds_no_tenant_row() {
    let server = Server::start(ServerConfig::default()).expect("start server");
    let mut observer = Client::over(Box::new(server.connect()), "observer").expect("handshake");
    let before = observer.stats().expect("STATS_OK");
    assert!(before.tenants.is_empty(), "{before}");

    let mut worker = Client::over(Box::new(server.connect()), "worker").expect("handshake");
    worker
        .submit(
            JobSpec::default(),
            corpus(DirectiveModel::OpenAcc, 0x0B5E, 4),
        )
        .expect("submit")
        .into_run()
        .expect("campaign");
    let after = observer.stats().expect("STATS_OK");
    let names: Vec<&str> = after.tenants.iter().map(|row| row.name.as_str()).collect();
    assert_eq!(names, ["worker"], "{after}");

    drop((observer, worker));
    server.handle().shutdown().expect("store seals");
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
    server.handle().shutdown().expect("store seals");
    server.join();
}

#[test]
fn sequential_single_case_jobs_never_wait_for_an_unrelated_wakeup() {
    // One worker and one case per job: the worker is about to wait each
    // time the next job's case arrives. A wakeup sent between its scan of
    // the queues and its wait would leave that case queued until some
    // unrelated event, so the job would stall past the deadline.
    const JOBS: u64 = 50;
    const DEADLINE: std::time::Duration = std::time::Duration::from_secs(5);
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("start server");
    let conn = server.connect();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        let mut client = Client::over(Box::new(conn), "sequential").expect("handshake");
        for job in 0..JOBS {
            let items = corpus(DirectiveModel::OpenAcc, 0x5E9 + job, 1);
            let run = client
                .submit(JobSpec::default(), items)
                .expect("submit")
                .into_run()
                .expect("job");
            done_tx.send(run.records.len()).expect("test thread alive");
        }
    });
    for job in 0..JOBS {
        match done_rx.recv_timeout(DEADLINE) {
            Ok(records) => assert_eq!(records, 1),
            Err(_) => panic!("job {job} stalled past {DEADLINE:?}"),
        }
    }
    client.join().expect("client thread");
    server.handle().shutdown().expect("store seals");
    server.join();
}

#[test]
fn hostile_sources_fail_to_compile_without_harming_the_daemon() {
    // Nesting deep enough to overflow a worker's stack in any pass that
    // recurses per level, and more locals than a VM frame can address.
    // Both must come back as compile failures, not kill a worker.
    let deep = format!(
        "int main() {{ return {}1{}; }}",
        "(".repeat(2400),
        ")".repeat(2400)
    );
    let locals: String = (0..70_000).map(|i| format!("int v{i}; ")).collect();
    let wide = format!("int main() {{ {locals}return 0; }}");
    let hostile: Vec<WorkItem> = [deep, wide]
        .into_iter()
        .enumerate()
        .map(|(i, source)| WorkItem {
            id: format!("hostile-{i}"),
            source,
            lang: vv_simcompiler::Lang::C,
            model: DirectiveModel::OpenAcc,
        })
        .collect();

    let server = Server::start(ServerConfig::default()).expect("start server");
    let mut client = Client::over(Box::new(server.connect()), "hostile").expect("handshake");
    let run = client
        .submit(JobSpec::default(), hostile)
        .expect("submit")
        .into_run()
        .expect("JOB_DONE for the hostile job");
    assert_eq!(run.records.len(), 2);
    for record in &run.records {
        assert!(!record.compile.succeeded, "{} compiled", record.id);
    }

    let items = corpus(DirectiveModel::OpenAcc, 0x4057, scale(8, 32));
    let after = client
        .submit(JobSpec::default(), items)
        .expect("submit")
        .into_run()
        .expect("a job after the hostile one");
    assert_eq!(after.records.len(), scale(8, 32));

    drop(client);
    server.handle().shutdown().expect("store seals");
    server.join();
}
