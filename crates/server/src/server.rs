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
//!   the backpressure);
//! * a fixed **worker pool** pulls cases round-robin across tenants,
//!   within each tenant's in-flight budget, and runs
//!   [`ValidationService::process_case`], so per-case results are
//!   byte-identical to a direct in-process run (worker-count parity and
//!   store-replay laws);
//! * one **dispatch state** (`Dispatch`) holds every tenant queue, the
//!   round-robin cursor, the in-flight counts and the drain count behind
//!   one mutex, and every change to it wakes its waiters under that mutex;
//! * results stream back through a per-connection writer; a dead
//!   connection cancels that client's jobs (queued cases purged,
//!   in-flight results discarded) without touching other tenants;
//! * `SHUTDOWN` (or [`ServerHandle::shutdown`]) drains every queue,
//!   flushes the store and only then acknowledges — the store directory
//!   passes `vv-store fsck` clean afterwards. A failed seal is reported
//!   (an [`ErrorCode::Store`] answer, or the handle's `Err`), never
//!   acknowledged as success.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;

use vv_pipeline::{encode_record, ExecutionStrategy, PipelineStats, ValidationService, WorkItem};
use vv_simcompiler::{CompileCache, PersistentCache};
use vv_store::{ArtifactStore, StoreError};

use crate::protocol::{
    read_frame, write_frame, ErrorCode, JobSpec, Request, Response, PROTOCOL_VERSION,
};
use crate::stats::{CacheSnapshot, ServerStats, StoreSnapshot, TenantSnapshot};
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
    /// The job's tenant: an index into the dispatch state's tenants.
    tenant: usize,
    service: Arc<ValidationService>,
    writer: Arc<ConnWriter>,
    /// Merged counters of the job's processed cases, sent in `JOB_DONE`.
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
    fn maybe_done(&self, dispatch: &Dispatch<Queued>) {
        if !self.ended.load(Ordering::Acquire) {
            return;
        }
        if self.completed.load(Ordering::Acquire) < self.submitted.load(Ordering::Acquire) {
            return;
        }
        if self.done_sent.swap(true, Ordering::AcqRel) {
            return;
        }
        dispatch.lock().tenants[self.tenant].row.jobs_finished += 1;
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
    let removed = inner
        .dispatch
        .purge(job.tenant, |case| !Arc::ptr_eq(&case.job, job));
    // Purged cases will never reach a worker: account them answered.
    job.completed.fetch_add(removed as u64, Ordering::AcqRel);
}

/// One case waiting in its tenant's queue.
struct Queued {
    job: Arc<JobState>,
    seq: u64,
    item: WorkItem,
}

/// One tenant's queue and stats row (`row.queued` is filled in by snapshots).
struct TenantState<T> {
    queue: VecDeque<T>,
    row: TenantSnapshot,
}

/// Everything a dispatch decision reads, behind the [`Dispatch`] mutex.
struct DispatchState<T> {
    /// Every tenant that has opened a job, in order of its first `OPEN_JOB`.
    tenants: Vec<TenantState<T>>,
    /// The tenant a pick tries first: the one after the tenant served last.
    cursor: usize,
    /// Cases accepted but not yet answered or purged, counting a case
    /// whose reader is still blocked on a full queue.
    pending: u64,
    stopped: bool,
}

impl<T> DispatchState<T> {
    /// Whether a worker may take `tenant`'s next case now.
    fn schedulable(&self, tenant: usize, max_in_flight: usize) -> bool {
        let tenant = &self.tenants[tenant];
        !tenant.queue.is_empty() && tenant.row.in_flight < max_in_flight as u64
    }

    /// Claim the next case round-robin, starting after the tenant served
    /// last and skipping tenants at their in-flight budget.
    fn pick(&mut self, max_in_flight: usize) -> Option<(usize, T)> {
        let n = self.tenants.len();
        let idx = (0..n)
            .map(|i| (self.cursor + i) % n)
            .find(|&idx| self.schedulable(idx, max_in_flight))?;
        self.cursor = (idx + 1) % n;
        let tenant = &mut self.tenants[idx];
        tenant.row.in_flight += 1;
        tenant.queue.pop_front().map(|case| (idx, case))
    }
}

/// The daemon's dispatch: tenant queues, round-robin scheduler and drain
/// count behind one mutex. Each operation is one critical section that
/// changes the state and sends its wakeups before it unlocks, so no wakeup
/// falls between another thread's check and its wait. A full queue blocks
/// its reader (admission); the in-flight budget caps each tenant's share
/// of the workers (fairness). Generic so the rules test on plain integers.
struct Dispatch<T> {
    state: StdMutex<DispatchState<T>>,
    /// Workers wait for a schedulable case, readers for queue space,
    /// drains for `pending` to reach zero.
    work: StdCondvar,
    space: StdCondvar,
    idle: StdCondvar,
    capacity: usize,
    max_in_flight: usize,
}

impl<T> Dispatch<T> {
    /// An empty dispatch. Both bounds are clamped to at least 1.
    fn new(capacity: usize, max_in_flight: usize) -> Self {
        Self {
            state: StdMutex::new(DispatchState {
                tenants: Vec::new(),
                cursor: 0,
                pending: 0,
                stopped: false,
            }),
            work: StdCondvar::new(),
            space: StdCondvar::new(),
            idle: StdCondvar::new(),
            capacity: capacity.max(1),
            max_in_flight: max_in_flight.max(1),
        }
    }

    /// Lock the state, recovering from poisoning as the executor's locks do.
    fn lock(&self) -> MutexGuard<'_, DispatchState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The tenant named by a `HELLO`, registered at the first `OPEN_JOB`
    /// any of its connections sends.
    fn tenant(&self, name: &str) -> usize {
        let tenants = &mut self.lock().tenants;
        if let Some(idx) = tenants.iter().position(|t| t.row.name == name) {
            return idx;
        }
        let (queue, mut row) = (VecDeque::new(), TenantSnapshot::default());
        row.name = name.to_string();
        tenants.push(TenantState { queue, row });
        tenants.len() - 1
    }

    /// Admit one case, blocking while the tenant's queue is full. This runs
    /// on the connection's reader thread: blocking here is the
    /// backpressure. After a stop the case is dropped.
    fn enqueue(&self, tenant: usize, case: T) {
        let mut state = self.lock();
        state.pending += 1;
        while state.tenants[tenant].queue.len() >= self.capacity && !state.stopped {
            state = self
                .space
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if state.stopped {
            return;
        }
        let admitted = &mut state.tenants[tenant];
        admitted.queue.push_back(case);
        admitted.row.submitted += 1;
        if state.schedulable(tenant, self.max_in_flight) {
            self.work.notify_one();
        }
    }

    /// Release the in-flight slot of a processed case of `tenant`. The
    /// slot can make the tenant's next case schedulable.
    fn finish(&self, tenant: usize) {
        let mut state = self.lock();
        let row = &mut state.tenants[tenant].row;
        row.in_flight -= 1;
        row.completed += 1;
        if state.schedulable(tenant, self.max_in_flight) {
            self.work.notify_one();
        }
    }

    /// The worker's step: count the case it finished last answered (when
    /// `answered`), then block until a case is schedulable and claim it.
    /// `None` once the dispatch stops.
    fn next(&self, answered: bool) -> Option<T> {
        let mut state = self.lock();
        if answered {
            state.pending -= 1;
            if state.pending == 0 {
                self.idle.notify_all();
            }
        }
        loop {
            if state.stopped {
                return None;
            }
            if let Some((tenant, case)) = state.pick(self.max_in_flight) {
                // Only a queue that was full can have a reader waiting.
                if state.tenants[tenant].queue.len() + 1 >= self.capacity {
                    self.space.notify_all();
                }
                return Some(case);
            }
            state = self
                .work
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Drop every queued case of `tenant` that fails `keep`, count them
    /// cancelled and answered, and return how many were removed.
    fn purge(&self, tenant: usize, mut keep: impl FnMut(&T) -> bool) -> usize {
        let mut state = self.lock();
        let purged = &mut state.tenants[tenant];
        let before = purged.queue.len();
        purged.queue.retain(|case| keep(case));
        let removed = before - purged.queue.len();
        purged.row.cancelled += removed as u64;
        state.pending -= removed as u64;
        if removed > 0 {
            if state.pending == 0 {
                self.idle.notify_all();
            }
            self.space.notify_all();
        }
        removed
    }

    /// Block until every accepted case has been answered or purged, or the
    /// dispatch stops.
    fn wait_idle(&self) {
        let mut state = self.lock();
        while state.pending > 0 && !state.stopped {
            state = self
                .idle
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stop for good, waking every waiter.
    fn stop(&self) {
        let mut state = self.lock();
        state.stopped = true;
        self.work.notify_all();
        self.space.notify_all();
        self.idle.notify_all();
    }

    /// One stats row per tenant, sorted by name.
    fn snapshot(&self) -> Vec<TenantSnapshot> {
        let mut rows: Vec<_> = self
            .lock()
            .tenants
            .iter()
            .map(|t| TenantSnapshot {
                queued: t.queue.len() as u64,
                ..t.row.clone()
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
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
    dispatch: Dispatch<Queued>,
    /// Merged statistics of every case ever served.
    global: Mutex<PipelineStats>,
    started: Instant,
    draining: AtomicBool,
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
            dispatch: Dispatch::new(
                config.tenant_queue_capacity,
                config.max_in_flight_per_tenant,
            ),
            config,
            cache: CompileCache::shared(),
            store,
            services: Mutex::new(HashMap::new()),
            global: Mutex::new(PipelineStats::default()),
            started: Instant::now(),
            draining: AtomicBool::new(false),
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

    /// Drain every accepted case and seal the store, leaving the
    /// listener and workers up.
    fn drain_and_seal(&self) -> Result<(), StoreError> {
        // Refuse new jobs from now on.
        self.draining.store(true, Ordering::SeqCst);
        self.dispatch.wait_idle();
        let sealed = self.store.as_ref().map_or(Ok(()), |store| store.flush());
        // Drop the warm service pool: those services hold store handles,
        // and releasing them here (rather than at the last Arc drop) lets
        // the store seal — and its lockfile release — promptly.
        self.services.lock().clear();
        sealed
    }

    fn stop(&self) {
        self.dispatch.stop();
        // Wake the acceptor out of its blocking accept().
        if let Some(addr) = *self.listen_addr.lock() {
            let _ = TcpStream::connect(addr);
        }
    }

    fn snapshot(&self) -> ServerStats {
        let cache = self.cache.stats();
        // One clock reading for both: the served tally merges per-case
        // stats, which carry no wall time, so its wall time is the uptime.
        let uptime = self.started.elapsed();
        let mut served = self.global.lock().clone();
        served.wall_time = uptime;
        ServerStats {
            uptime_ms: uptime.as_millis().min(u64::MAX as u128) as u64,
            connections: self.connections.load(Ordering::Relaxed),
            draining: self.draining.load(Ordering::SeqCst),
            workers: self.config.workers.max(1) as u64,
            strategy: self.config.strategy.label().to_string(),
            served,
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
            tenants: self.dispatch.snapshot(),
        }
    }
}

/// One validation worker: pull fairly, process, stream the result.
fn worker_loop(inner: Arc<ServerInner>) {
    let mut answered = false;
    while let Some(case) = inner.dispatch.next(answered) {
        let job = case.job;
        if !job.cancelled.load(Ordering::Acquire) {
            // One case's counters, merged into its job and into the
            // daemon's tally alike.
            let counted = Mutex::new(PipelineStats {
                submitted: 1,
                ..PipelineStats::default()
            });
            let record = job.service.process_case(&case.item, &counted);
            let counted = counted.into_inner();
            job.stats.lock().merge(&counted);
            inner.global.lock().merge(&counted);
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
        inner.dispatch.finish(job.tenant);
        // Order matters: the Record frame is on the wire before the case
        // counts as completed, so JOB_DONE is always the last frame. The
        // drain count drops in the next `next`, after JOB_DONE is sent.
        job.completed.fetch_add(1, Ordering::AcqRel);
        job.maybe_done(&inner.dispatch);
        answered = true;
    }
}

fn handle_connection(inner: Arc<ServerInner>, conn: Box<dyn Conn>) {
    inner.connections.fetch_add(1, Ordering::Relaxed);
    serve_connection(&inner, conn);
    inner.connections.fetch_sub(1, Ordering::Relaxed);
}

fn serve_connection(inner: &Arc<ServerInner>, conn: Box<dyn Conn>) {
    let Ok(clone) = conn.try_clone_conn() else {
        return;
    };
    let writer = Arc::new(ConnWriter::new(clone));
    let mut reader = conn;
    let mut buf = Vec::new();

    let refuse = |code: ErrorCode, message: &str| {
        writer.send(&Response::Error {
            code,
            message: message.to_string(),
        });
    };

    // Handshake: the first frame must be a version-matching HELLO. The
    // tenant's row is registered at its first OPEN_JOB, so a connection
    // that only asks for STATS or SHUTDOWN leaves no row behind.
    let name = match read_request(&mut reader, &mut buf) {
        Some(Request::Hello { protocol, tenant }) if protocol == PROTOCOL_VERSION => tenant,
        Some(Request::Hello { .. }) => {
            refuse(ErrorCode::Protocol, "protocol version mismatch");
            return;
        }
        Some(_) => {
            refuse(ErrorCode::Protocol, "expected HELLO");
            return;
        }
        None => return,
    };
    writer.send(&Response::HelloOk {
        protocol: PROTOCOL_VERSION,
        server: inner.config.name.clone(),
    });

    let mut tenant = None;
    let mut jobs: HashMap<u32, Arc<JobState>> = HashMap::new();
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
                let tenant = *tenant.get_or_insert_with(|| inner.dispatch.tenant(&name));
                inner.dispatch.lock().tenants[tenant].row.jobs_opened += 1;
                jobs.insert(
                    job,
                    Arc::new(JobState {
                        id: job,
                        tenant,
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
                let job = Arc::clone(job);
                // This is the admission point: a full tenant queue blocks
                // here, which stops draining this client's socket.
                inner
                    .dispatch
                    .enqueue(job.tenant, Queued { job, seq, item });
            }
            Request::FinishJob { job } => {
                let Some(job) = jobs.get(&job) else {
                    refuse(ErrorCode::UnknownJob, "FINISH_JOB for unopened job");
                    break;
                };
                job.ended.store(true, Ordering::Release);
                job.maybe_done(&inner.dispatch);
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
                if inner.dispatch.lock().stopped {
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
        self.join_threads();
    }

    fn join_threads(&mut self) {
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
        self.join_threads();
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
        let sealed = self.inner.drain_and_seal();
        self.inner.stop();
        sealed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fifo_order_within_the_budget() {
        let dispatch = Dispatch::new(8, 2);
        let t = dispatch.tenant("t");
        for n in 0..4u32 {
            dispatch.enqueue(t, n);
        }
        assert_eq!(dispatch.next(false), Some(0));
        assert_eq!(dispatch.next(false), Some(1));
        // Budget of 2 exhausted: nothing more until a case completes.
        assert!(dispatch.lock().pick(dispatch.max_in_flight).is_none());
        dispatch.finish(t);
        assert_eq!(dispatch.next(true), Some(2));
        assert_eq!(dispatch.snapshot()[0].submitted, 4);
    }

    #[test]
    fn a_full_queue_blocks_the_enqueuer_until_space_frees() {
        let dispatch = Arc::new(Dispatch::new(2, 8));
        let t = dispatch.tenant("t");
        dispatch.enqueue(t, 0u32);
        dispatch.enqueue(t, 1);
        let blocked = {
            let dispatch = Arc::clone(&dispatch);
            std::thread::spawn(move || dispatch.enqueue(t, 2))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            dispatch.snapshot()[0].queued,
            2,
            "third enqueue must be blocked"
        );
        assert_eq!(dispatch.lock().pending, 3, "a blocked case already counts");
        assert_eq!(dispatch.next(false), Some(0));
        blocked.join().unwrap();
        assert_eq!(dispatch.snapshot()[0].queued, 2);
    }

    #[test]
    fn purge_counts_cancellations_and_frees_space() {
        let dispatch = Dispatch::new(8, 8);
        let t = dispatch.tenant("t");
        for n in 0..6u32 {
            dispatch.enqueue(t, n);
        }
        let removed = dispatch.purge(t, |n| n % 2 == 0);
        assert_eq!(removed, 3);
        let row = &dispatch.snapshot()[0];
        assert_eq!(row.queued, 3);
        assert_eq!(row.cancelled, 3);
        assert_eq!(dispatch.lock().pending, 3, "purged cases count answered");
    }
}
