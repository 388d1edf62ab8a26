//! The resident validation daemon.
//!
//! One [`Server`] holds the warm substrate — a shared
//! [`CompileCache`], optionally a durable [`ArtifactStore`], and a pool
//! of [`ValidationService`]s keyed by [`JobSpec`] — and serves any number
//! of client connections over TCP ([`Server::bind`]) or the in-process
//! loopback pipe ([`Server::connect`]).
//!
//! The moving parts:
//!
//! * each connection gets a detached **reader thread** that decodes
//!   frames and feeds its tenant's bounded queue (blocking there *is*
//!   the backpressure — see [`crate::tenant`]);
//! * a fixed **worker pool** pulls cases round-robin across tenants and
//!   runs [`ValidationService::process_case`], so per-case results are
//!   byte-identical to a direct in-process run (worker-count parity and
//!   store-replay laws);
//! * results stream back through a per-connection writer; a dead
//!   connection cancels that client's jobs (queued cases purged,
//!   in-flight results discarded) without touching other tenants;
//! * `SHUTDOWN` (or [`ServerHandle::shutdown`]) drains every queue,
//!   flushes the store and only then acknowledges — the store directory
//!   passes `vv-store fsck` clean afterwards. A failed seal is reported
//!   (an [`ErrorCode::Store`] answer, or the handle's `Err`), never
//!   acknowledged as success.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;

use vv_pipeline::{encode_record, ExecutionStrategy, PipelineStats, ValidationService, WorkItem};
use vv_simcompiler::{CompileCache, PersistentCache};
use vv_store::{ArtifactStore, StoreError};

use crate::protocol::{
    read_frame, write_frame, ErrorCode, JobSpec, Request, Response, PROTOCOL_VERSION,
};
use crate::stats::{CacheSnapshot, ServerStats, StoreSnapshot};
use crate::tenant::Tenant;
use crate::transport::{duplex, Conn, PipeEnd};

/// Tuning knobs for a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Validation worker threads shared by all tenants.
    pub workers: usize,
    /// Provenance only, reported in `STATS`: the daemon dispatches every
    /// case through [`ValidationService::process_case`] on its own
    /// tenant-fair worker pool, so no executor runs and records do not
    /// depend on this value.
    pub strategy: ExecutionStrategy,
    /// Bounded queue depth per tenant (admission control).
    pub tenant_queue_capacity: usize,
    /// In-flight case budget per tenant (fairness bound).
    pub max_in_flight_per_tenant: usize,
    /// Back every job with a durable [`ArtifactStore`] at this directory.
    pub store_dir: Option<PathBuf>,
    /// Identity string sent in `HELLO_OK`.
    pub name: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            strategy: ExecutionStrategy::default(),
            tenant_queue_capacity: 256,
            max_in_flight_per_tenant: 64,
            store_dir: None,
            name: "vv-server/1".to_string(),
        }
    }
}

/// One case waiting in a tenant queue.
struct QueuedCase {
    job: Arc<JobState>,
    seq: u64,
    item: WorkItem,
}

type TenantQueue = Tenant<QueuedCase>;

/// The per-connection response writer: serializes frames from the
/// worker pool and the reader thread onto one stream, and remembers the
/// first failure so a dead client stops costing anything.
struct ConnWriter {
    conn: Mutex<Box<dyn Conn>>,
    failed: AtomicBool,
}

impl ConnWriter {
    fn new(conn: Box<dyn Conn>) -> Self {
        Self {
            conn: Mutex::new(conn),
            failed: AtomicBool::new(false),
        }
    }

    /// Send one response frame; `false` once the connection is dead.
    fn send(&self, response: &Response) -> bool {
        if self.failed.load(Ordering::Relaxed) {
            return false;
        }
        let payload = response.encode();
        let mut conn = self.conn.lock();
        match write_frame(&mut *conn, &payload) {
            Ok(()) => true,
            Err(_) => {
                self.failed.store(true, Ordering::Relaxed);
                false
            }
        }
    }
}

/// Server-side state of one open campaign job.
struct JobState {
    id: u32,
    tenant: Arc<TenantQueue>,
    service: Arc<ValidationService>,
    writer: Arc<ConnWriter>,
    stats: Mutex<PipelineStats>,
    started: Instant,
    /// Cases accepted (reader side).
    submitted: AtomicU64,
    /// Cases answered or discarded (worker side).
    completed: AtomicU64,
    /// `FINISH_JOB` seen; `submitted` is final.
    ended: AtomicBool,
    /// Client gone or stream dead: discard results, purge the queue.
    cancelled: AtomicBool,
    /// `JOB_DONE` sent (or forever suppressed by cancellation).
    done_sent: AtomicBool,
}

impl JobState {
    /// Send `JOB_DONE` exactly once, when the job has ended and every
    /// accepted case is accounted for.
    fn maybe_done(&self) {
        if !self.ended.load(Ordering::Acquire) {
            return;
        }
        if self.completed.load(Ordering::Acquire) < self.submitted.load(Ordering::Acquire) {
            return;
        }
        if self.done_sent.swap(true, Ordering::AcqRel) {
            return;
        }
        self.tenant.note_job_finished();
        let mut stats = self.stats.lock().clone();
        stats.wall_time = self.started.elapsed();
        self.writer.send(&Response::JobDone {
            job: self.id,
            stats,
        });
    }
}

/// Cancel a job: discard-in-flight, purge-queued, never send `JOB_DONE`.
fn cancel_job(inner: &ServerInner, job: &Arc<JobState>) {
    if job.cancelled.swap(true, Ordering::AcqRel) {
        return;
    }
    job.done_sent.store(true, Ordering::Release);
    let removed = job.tenant.purge(|case| !Arc::ptr_eq(&case.job, job));
    if removed > 0 {
        // Purged cases will never reach a worker: account them answered.
        job.completed.fetch_add(removed as u64, Ordering::AcqRel);
        inner.cases_answered(removed as u64);
    }
    inner.scheduler.notify();
}

/// Round-robin work distribution across every registered tenant.
struct Scheduler {
    state: StdMutex<SchedState>,
    work: StdCondvar,
}

struct SchedState {
    tenants: Vec<Arc<TenantQueue>>,
    cursor: usize,
    stopping: bool,
}

impl Scheduler {
    fn new() -> Self {
        Self {
            state: StdMutex::new(SchedState {
                tenants: Vec::new(),
                cursor: 0,
                stopping: false,
            }),
            work: StdCondvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn register(&self, tenant: Arc<TenantQueue>) {
        self.lock().tenants.push(tenant);
    }

    /// Wake workers: new case queued, or an in-flight slot freed.
    fn notify(&self) {
        self.work.notify_all();
    }

    fn stop(&self) {
        self.lock().stopping = true;
        self.work.notify_all();
    }

    /// Block until a case is schedulable (fairly, starting after the
    /// tenant served last) or the scheduler stops.
    fn next_case(&self) -> Option<QueuedCase> {
        let mut state = self.lock();
        loop {
            if state.stopping {
                return None;
            }
            let n = state.tenants.len();
            for i in 0..n {
                let idx = (state.cursor + i) % n;
                if let Some(case) = state.tenants[idx].next() {
                    state.cursor = (idx + 1) % n;
                    return Some(case);
                }
            }
            state = self.work.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// The pooled-service key: [`JobSpec::key`]'s wire-stable projection.
type SpecKey = (u8, u8, u8, u64);

/// Everything shared between connections, workers and handles.
struct ServerInner {
    config: ServerConfig,
    cache: Arc<CompileCache>,
    store: Option<Arc<ArtifactStore>>,
    /// Warm [`ValidationService`]s pooled by job spec: every job with the
    /// same spec shares interned compile sessions and judge state.
    services: Mutex<HashMap<SpecKey, Arc<ValidationService>>>,
    tenants: Mutex<HashMap<String, Arc<TenantQueue>>>,
    scheduler: Scheduler,
    /// Merged statistics of every case ever served.
    global: Mutex<PipelineStats>,
    started: Instant,
    draining: AtomicBool,
    stopped: AtomicBool,
    /// Cases accepted but not yet answered (or purged), across all jobs.
    pending: StdMutex<u64>,
    /// Signalled when `pending` hits zero.
    idle: StdCondvar,
    connections: AtomicU64,
    listen_addr: Mutex<Option<SocketAddr>>,
}

impl ServerInner {
    fn new(config: ServerConfig) -> Result<Self, StoreError> {
        let store = match &config.store_dir {
            Some(dir) => Some(Arc::new(ArtifactStore::open(dir)?)),
            None => None,
        };
        Ok(Self {
            config,
            cache: CompileCache::shared(),
            store,
            services: Mutex::new(HashMap::new()),
            tenants: Mutex::new(HashMap::new()),
            scheduler: Scheduler::new(),
            global: Mutex::new(PipelineStats::default()),
            started: Instant::now(),
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            pending: StdMutex::new(0),
            idle: StdCondvar::new(),
            connections: AtomicU64::new(0),
            listen_addr: Mutex::new(None),
        })
    }

    /// The pooled service for a job spec (built on first use).
    fn service_for(&self, spec: &JobSpec) -> Arc<ValidationService> {
        let mut services = self.services.lock();
        Arc::clone(services.entry(spec.key()).or_insert_with(|| {
            let builder = ValidationService::builder()
                .mode(spec.mode)
                .judge_style(spec.style)
                .judge_profile(spec.profile.profile())
                .judge_seed(spec.judge_seed);
            let builder = match &self.store {
                Some(store) => builder
                    .persistent_compile(Arc::new(PersistentCache::new(
                        Arc::clone(&self.cache),
                        Arc::clone(store),
                    )))
                    .artifact_store(Arc::clone(store)),
                None => builder.compile_cache(Arc::clone(&self.cache)),
            };
            Arc::new(builder.build())
        }))
    }

    /// The tenant for a `HELLO` name (created and registered with the
    /// scheduler on first sight).
    fn tenant_for(&self, name: &str) -> Arc<TenantQueue> {
        let mut tenants = self.tenants.lock();
        match tenants.get(name) {
            Some(tenant) => Arc::clone(tenant),
            None => {
                let tenant = Arc::new(Tenant::new(
                    name,
                    self.config.tenant_queue_capacity,
                    self.config.max_in_flight_per_tenant,
                ));
                tenants.insert(name.to_string(), Arc::clone(&tenant));
                self.scheduler.register(Arc::clone(&tenant));
                tenant
            }
        }
    }

    fn case_accepted(&self) {
        *self.pending.lock().unwrap_or_else(|p| p.into_inner()) += 1;
    }

    fn cases_answered(&self, n: u64) {
        let mut pending = self.pending.lock().unwrap_or_else(|p| p.into_inner());
        *pending -= n;
        if *pending == 0 {
            self.idle.notify_all();
        }
    }

    /// Refuse new jobs from now on.
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Block until every accepted case has been answered or purged.
    fn wait_drained(&self) {
        let mut pending = self.pending.lock().unwrap_or_else(|p| p.into_inner());
        while *pending > 0 {
            pending = self.idle.wait(pending).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Drain, seal the store, stop the workers and the accept loop. The
    /// server stops even when the seal fails.
    fn shutdown(&self) -> Result<(), StoreError> {
        let sealed = self.drain_and_seal();
        self.stop();
        sealed
    }

    /// Drain every accepted case and seal the store, leaving the
    /// listener and workers up.
    fn drain_and_seal(&self) -> Result<(), StoreError> {
        self.begin_drain();
        self.wait_drained();
        let sealed = self.store.as_ref().map_or(Ok(()), |store| store.flush());
        // Drop the warm service pool: those services hold store handles,
        // and releasing them here (rather than at the last Arc drop) lets
        // the store seal — and its lockfile release — promptly.
        self.services.lock().clear();
        sealed
    }

    fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        self.scheduler.stop();
        // Wake the acceptor out of its blocking accept().
        if let Some(addr) = *self.listen_addr.lock() {
            let _ = TcpStream::connect(addr);
        }
    }

    fn snapshot(&self) -> ServerStats {
        let cache = self.cache.stats();
        let mut tenants: Vec<_> = self
            .tenants
            .lock()
            .values()
            .map(|tenant| tenant.snapshot())
            .collect();
        tenants.sort_by(|a, b| a.name.cmp(&b.name));
        ServerStats {
            uptime_ms: self.started.elapsed().as_millis().min(u64::MAX as u128) as u64,
            connections: self.connections.load(Ordering::Relaxed),
            draining: self.draining.load(Ordering::SeqCst),
            workers: self.config.workers.max(1) as u64,
            strategy: self.config.strategy.label().to_string(),
            served: self.global.lock().clone(),
            compile_cache: CacheSnapshot {
                hits: cache.hits,
                misses: cache.misses,
                entries: cache.entries as u64,
            },
            store: self.store.as_ref().map(|store| {
                let stats = store.stats();
                StoreSnapshot {
                    records: stats.records as u64,
                    pending: stats.pending as u64,
                    segments: stats.segments as u64,
                    hits: stats.hits,
                    misses: stats.misses,
                }
            }),
            tenants,
        }
    }
}

/// One validation worker: pull fairly, process, stream the result.
fn worker_loop(inner: Arc<ServerInner>) {
    while let Some(case) = inner.scheduler.next_case() {
        let job = case.job;
        if !job.cancelled.load(Ordering::Acquire) {
            let record = job.service.process_case(&case.item, &job.stats);
            {
                let mut global = inner.global.lock();
                global.submitted += 1;
                global.observe_record(&record);
            }
            if !job.cancelled.load(Ordering::Acquire) {
                let sent = job.writer.send(&Response::Record {
                    job: job.id,
                    seq: case.seq,
                    record: encode_record(&record),
                });
                if !sent {
                    cancel_job(&inner, &job);
                }
            }
        }
        job.tenant.case_done();
        // Order matters: the Record frame is on the wire before the case
        // counts as completed, so JOB_DONE is always the last frame.
        job.completed.fetch_add(1, Ordering::AcqRel);
        job.maybe_done();
        inner.cases_answered(1);
        // A freed in-flight slot can make this tenant schedulable again.
        inner.scheduler.notify();
    }
}

/// Why a connection's read loop ended.
enum ConnExit {
    /// Peer closed, or a protocol violation was answered and the stream
    /// abandoned.
    Closed,
    /// This connection completed a `SHUTDOWN` handshake.
    Shutdown,
}

fn handle_connection(inner: Arc<ServerInner>, conn: Box<dyn Conn>) {
    inner.connections.fetch_add(1, Ordering::Relaxed);
    let _ = serve_connection(&inner, conn);
    inner.connections.fetch_sub(1, Ordering::Relaxed);
}

fn serve_connection(inner: &Arc<ServerInner>, conn: Box<dyn Conn>) -> ConnExit {
    let writer = match conn.try_clone_conn() {
        Ok(clone) => Arc::new(ConnWriter::new(clone)),
        Err(_) => return ConnExit::Closed,
    };
    let mut reader = conn;
    let mut buf = Vec::new();

    let refuse = |code: ErrorCode, message: &str| {
        writer.send(&Response::Error {
            code,
            message: message.to_string(),
        });
    };

    // Handshake: the first frame must be a version-matching HELLO.
    let tenant = match read_request(&mut reader, &mut buf) {
        Some(Request::Hello { protocol, tenant }) if protocol == PROTOCOL_VERSION => {
            inner.tenant_for(&tenant)
        }
        Some(Request::Hello { .. }) => {
            refuse(ErrorCode::Protocol, "protocol version mismatch");
            return ConnExit::Closed;
        }
        Some(_) => {
            refuse(ErrorCode::Protocol, "expected HELLO");
            return ConnExit::Closed;
        }
        None => return ConnExit::Closed,
    };
    writer.send(&Response::HelloOk {
        protocol: PROTOCOL_VERSION,
        server: inner.config.name.clone(),
    });

    let mut jobs: HashMap<u32, Arc<JobState>> = HashMap::new();
    let mut exit = ConnExit::Closed;
    while let Some(request) = read_request(&mut reader, &mut buf) {
        match request {
            Request::Hello { .. } => {
                refuse(ErrorCode::Protocol, "duplicate HELLO");
                break;
            }
            Request::OpenJob { job, spec } => {
                if inner.draining.load(Ordering::SeqCst) {
                    refuse(ErrorCode::Draining, "server is draining");
                    continue;
                }
                if jobs.contains_key(&job) {
                    refuse(ErrorCode::Protocol, "job id reused");
                    break;
                }
                tenant.note_job_opened();
                jobs.insert(
                    job,
                    Arc::new(JobState {
                        id: job,
                        tenant: Arc::clone(&tenant),
                        service: inner.service_for(&spec),
                        writer: Arc::clone(&writer),
                        stats: Mutex::new(PipelineStats::default()),
                        started: Instant::now(),
                        submitted: AtomicU64::new(0),
                        completed: AtomicU64::new(0),
                        ended: AtomicBool::new(false),
                        cancelled: AtomicBool::new(false),
                        done_sent: AtomicBool::new(false),
                    }),
                );
            }
            Request::Case { job, seq, item } => {
                let Some(job) = jobs.get(&job) else {
                    refuse(ErrorCode::UnknownJob, "CASE for unopened job");
                    break;
                };
                if job.ended.load(Ordering::Acquire) {
                    refuse(ErrorCode::Protocol, "CASE after FINISH_JOB");
                    break;
                }
                job.submitted.fetch_add(1, Ordering::AcqRel);
                job.stats.lock().submitted += 1;
                inner.case_accepted();
                // This is the admission point: a full tenant queue blocks
                // here, which stops draining this client's socket.
                tenant.enqueue(QueuedCase {
                    job: Arc::clone(job),
                    seq,
                    item,
                });
                inner.scheduler.notify();
            }
            Request::FinishJob { job } => {
                let Some(job) = jobs.get(&job) else {
                    refuse(ErrorCode::UnknownJob, "FINISH_JOB for unopened job");
                    break;
                };
                job.ended.store(true, Ordering::Release);
                job.maybe_done();
            }
            Request::Stats => {
                writer.send(&Response::StatsOk(inner.snapshot()));
            }
            Request::Shutdown => {
                // Acknowledge after the drain but *before* stop(): once
                // the acceptor wakes, the hosting process may exit and
                // kill this detached thread — the acknowledgement must
                // already be on the wire by then.
                let response = match inner.drain_and_seal() {
                    Ok(()) => Response::ShutdownOk,
                    Err(err) => Response::Error {
                        code: ErrorCode::Store,
                        message: format!("store seal failed: {err}"),
                    },
                };
                writer.send(&response);
                inner.stop();
                exit = ConnExit::Shutdown;
                break;
            }
        }
        if writer.failed.load(Ordering::Relaxed) {
            break;
        }
    }

    // Whatever ends the connection, unfinished jobs die with it.
    for job in jobs.values() {
        if !job.done_sent.load(Ordering::Acquire) {
            cancel_job(inner, job);
        }
    }
    exit
}

/// Read and decode one request; `None` ends the connection (clean EOF,
/// torn frame, garbage — the caller cannot distinguish and need not).
fn read_request<R: io::Read>(reader: &mut R, buf: &mut Vec<u8>) -> Option<Request> {
    match read_frame(reader, buf) {
        Ok(true) => Request::decode(buf).ok(),
        _ => None,
    }
}

/// A running validation daemon. See the [module docs](self).
pub struct Server {
    inner: Arc<ServerInner>,
    workers: Vec<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Start a loopback-only server (no TCP listener): clients attach
    /// through [`Server::connect`].
    pub fn start(config: ServerConfig) -> Result<Self, StoreError> {
        let inner = Arc::new(ServerInner::new(config)?);
        let workers = (0..inner.config.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(inner))
            })
            .collect();
        Ok(Self {
            inner,
            workers,
            acceptor: None,
        })
    }

    /// Start and listen on `addr` (e.g. `127.0.0.1:0`). Each accepted
    /// connection gets a detached reader thread.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let mut server = Server::start(config).map_err(io::Error::other)?;
        *server.inner.listen_addr.lock() = Some(local);
        let inner = Arc::clone(&server.inner);
        server.acceptor = Some(std::thread::spawn(move || {
            for stream in listener.incoming() {
                if inner.stopped.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Frames leave whole; Nagle would only delay them (see
                // `write_frame`).
                if stream.set_nodelay(true).is_err() {
                    continue;
                }
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || handle_connection(inner, Box::new(stream)));
            }
        }));
        Ok(server)
    }

    /// The bound TCP address, if [`Server::bind`] was used.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        *self.inner.listen_addr.lock()
    }

    /// Open an in-process loopback connection (no sockets). The returned
    /// end speaks the exact same protocol as a `TcpStream`.
    pub fn connect(&self) -> PipeEnd {
        let (client_end, server_end) = duplex(64 * 1024);
        let inner = Arc::clone(&self.inner);
        std::thread::spawn(move || handle_connection(inner, Box::new(server_end)));
        client_end
    }

    /// A handle for triggering shutdown from another thread — the
    /// in-process equivalent of SIGTERM.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// A live statistics snapshot, same as the `STATS` request.
    pub fn stats(&self) -> ServerStats {
        self.inner.snapshot()
    }

    /// Block until the server has shut down (via a `SHUTDOWN` request or
    /// a [`ServerHandle`]), then join its threads.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best-effort stop for servers dropped without a drain; a drained
        // server's threads are already exiting and join promptly.
        self.inner.stop();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Cloneable shutdown trigger for a [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<ServerInner>,
}

impl ServerHandle {
    /// Drain every queue, seal the store and stop the server — identical
    /// to a client `SHUTDOWN` request, minus the acknowledgement frame.
    /// The server stops either way; `Err` reports a failed store seal.
    pub fn shutdown(&self) -> Result<(), StoreError> {
        self.inner.shutdown()
    }
}
