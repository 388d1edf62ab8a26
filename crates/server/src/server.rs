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
//! * one **dispatch state** (`Dispatch`) holds every tenant queue and row,
//!   the round-robin cursor, the drain count, the open jobs' counters and
//!   stats, and the served tally behind one mutex. A worker's step (account
//!   a case, decide `JOB_DONE`, claim the next case), `FINISH_JOB`,
//!   cancellation and `STATS` are one critical section each, and every
//!   change wakes its waiters under that mutex;
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

/// What each case of a job carries, fixed at `OPEN_JOB`; the job's
/// counters live in the dispatch's job table.
struct Job {
    at: JobRef,
    /// The client's job id, unique on its connection only.
    id: u32,
    service: Arc<ValidationService>,
    writer: Arc<ConnWriter>,
    started: Instant,
}

impl Job {
    /// Send the job's `JOB_DONE` with its merged stats.
    fn send_done(&self, mut stats: PipelineStats) {
        stats.wall_time = self.started.elapsed();
        self.writer.send(&Response::JobDone {
            job: self.id,
            stats,
        });
    }
}

/// One case waiting in its tenant's queue.
struct Queued {
    job: Arc<Job>,
    seq: u64,
    item: WorkItem,
}

/// A job's tenant row and its job-table key (unique for the daemon's life).
#[derive(Clone, Copy)]
struct JobRef {
    tenant: usize,
    key: u64,
}

/// An open job's mutable state. It leaves the job table once `JOB_DONE` is
/// decided or the job is cancelled: a job is done when it has no entry.
#[derive(Default)]
struct JobEntry {
    /// Cases accepted, counting one whose reader still waits for space.
    submitted: u64,
    completed: u64,
    /// `FINISH_JOB` seen: `submitted` is final.
    ended: bool,
    stats: PipelineStats,
}

/// A case a worker took, handed back at its next step: its job, its
/// counters, and whether its record was sent (false: the connection is
/// dead, which cancels the job).
struct Answer {
    job: JobRef,
    stats: PipelineStats,
    sent: bool,
}

/// One tenant's queue and stats row (`row.queued` is filled in by snapshots).
struct TenantState<T> {
    /// Queued cases with their job's key.
    queue: VecDeque<(u64, T)>,
    row: TenantSnapshot,
}

/// Everything a dispatch decision reads, behind the [`Dispatch`] mutex.
struct DispatchState<T> {
    /// Every tenant that has opened a job, in order of its first `OPEN_JOB`.
    tenants: Vec<TenantState<T>>,
    /// The tenant a pick tries first: the one after the tenant served last.
    cursor: usize,
    jobs: HashMap<u64, JobEntry>,
    next_key: u64,
    /// Merged counters of every case ever served.
    served: PipelineStats,
    /// Cases accepted but not yet answered or purged, counting a case
    /// whose reader is still blocked on a full queue, and decided
    /// `JOB_DONE`s not yet sent.
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
        tenant.queue.pop_front().map(|(_, case)| (idx, case))
    }

    /// Decide `JOB_DONE`: once the job has ended and every accepted case
    /// is answered, close it (at most once) and return its stats.
    fn take_done(&mut self, job: JobRef) -> Option<PipelineStats> {
        let entry = self.jobs.get(&job.key)?;
        if !entry.ended || entry.completed < entry.submitted {
            return None;
        }
        self.tenants[job.tenant].row.jobs_finished += 1;
        self.jobs.remove(&job.key).map(|entry| entry.stats)
    }
}

/// The daemon's dispatch: tenant queues, round-robin scheduler, job table,
/// served tally and drain count behind one mutex. Each operation is one
/// critical section that changes the state and sends its wakeups before
/// it unlocks, so no wakeup falls between another thread's check and its
/// wait. A full queue blocks its reader (admission); the in-flight budget
/// caps each tenant's share of the workers (fairness). Generic so the
/// rules test on plain integers.
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
                jobs: HashMap::new(),
                next_key: 0,
                served: PipelineStats::default(),
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

    /// Open a job for the tenant named by a connection's `HELLO`. A
    /// tenant's row is registered at its first job.
    fn open_job(&self, tenant: &str) -> JobRef {
        let mut state = self.lock();
        let idx = match state.tenants.iter().position(|t| t.row.name == tenant) {
            Some(idx) => idx,
            None => {
                let (queue, mut row) = (VecDeque::new(), TenantSnapshot::default());
                row.name = tenant.to_string();
                state.tenants.push(TenantState { queue, row });
                state.tenants.len() - 1
            }
        };
        state.tenants[idx].row.jobs_opened += 1;
        let key = state.next_key;
        state.next_key += 1;
        state.jobs.insert(key, JobEntry::default());
        JobRef { tenant: idx, key }
    }

    /// Admit one case, blocking while the tenant's queue is full. This runs
    /// on the connection's reader thread: blocking here is the
    /// backpressure. After a stop the case is dropped. `false` refuses a
    /// case of a job that ended or died with its connection.
    fn enqueue(&self, job: JobRef, case: T) -> bool {
        let mut state = self.lock();
        match state.jobs.get_mut(&job.key) {
            Some(entry) if !entry.ended => entry.submitted += 1,
            _ => return false,
        }
        state.pending += 1;
        while state.tenants[job.tenant].queue.len() >= self.capacity && !state.stopped {
            state = self
                .space
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if state.stopped {
            return true;
        }
        let admitted = &mut state.tenants[job.tenant];
        admitted.queue.push_back((job.key, case));
        admitted.row.submitted += 1;
        if state.schedulable(job.tenant, self.max_in_flight) {
            self.work.notify_one();
        }
        true
    }

    /// The worker's step: account the case it answered, then block until a
    /// case is schedulable and claim it (`None` once stopped). A case that
    /// ends its job has `send_done` send its `JOB_DONE` outside the lock,
    /// and keeps its drain slot until then.
    fn next(&self, answer: Option<Answer>, send_done: impl FnOnce(PipelineStats)) -> Option<T> {
        let mut state = self.lock();
        if let Some(Answer { job, stats, sent }) = answer {
            let row = &mut state.tenants[job.tenant].row;
            row.in_flight -= 1;
            row.completed += 1;
            // The released slot can make the tenant's next case schedulable.
            if state.schedulable(job.tenant, self.max_in_flight) {
                self.work.notify_one();
            }
            state.served.merge(&stats);
            if !sent {
                self.cancel_in(&mut state, job);
            } else if let Some(entry) = state.jobs.get_mut(&job.key) {
                entry.completed += 1;
                entry.stats.merge(&stats);
                if let Some(done) = state.take_done(job) {
                    drop(state);
                    send_done(done);
                    state = self.lock();
                }
            }
            self.answer(&mut state, 1);
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

    /// `FINISH_JOB`: if the job's `JOB_DONE` is due now, `send_done` sends
    /// it outside the lock, with a drain slot held until it is sent.
    fn finish_job(&self, job: JobRef, send_done: impl FnOnce(PipelineStats)) {
        let mut state = self.lock();
        let Some(entry) = state.jobs.get_mut(&job.key) else {
            return;
        };
        entry.ended = true;
        let Some(done) = state.take_done(job) else {
            return;
        };
        state.pending += 1;
        drop(state);
        send_done(done);
        self.answer(&mut self.lock(), 1);
    }

    /// Cancel a closed connection's jobs; returns the queued cases purged.
    fn cancel(&self, jobs: impl IntoIterator<Item = JobRef>) -> u64 {
        let mut state = self.lock();
        jobs.into_iter()
            .map(|job| self.cancel_in(&mut state, job))
            .sum()
    }

    /// Close `job` without `JOB_DONE` and purge its queued cases: they
    /// count cancelled and answered.
    fn cancel_in(&self, state: &mut DispatchState<T>, job: JobRef) -> u64 {
        if state.jobs.remove(&job.key).is_none() {
            return 0;
        }
        let tenant = &mut state.tenants[job.tenant];
        let before = tenant.queue.len();
        tenant.queue.retain(|(key, _)| *key != job.key);
        let removed = (before - tenant.queue.len()) as u64;
        tenant.row.cancelled += removed;
        if removed > 0 {
            self.space.notify_all();
        }
        self.answer(state, removed);
        removed
    }

    /// Drop `n` answered cases or sent `JOB_DONE`s from the drain count.
    fn answer(&self, state: &mut DispatchState<T>, n: u64) {
        state.pending -= n;
        if n > 0 && state.pending == 0 {
            self.idle.notify_all();
        }
    }

    /// Block until `pending` reaches zero or the dispatch stops.
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

    fn stopped(&self) -> bool {
        self.lock().stopped
    }

    /// The served tally and one stats row per tenant, sorted by name.
    fn snapshot(&self) -> (PipelineStats, Vec<TenantSnapshot>) {
        let state = self.lock();
        let mut rows: Vec<_> = state
            .tenants
            .iter()
            .map(|t| TenantSnapshot {
                queued: t.queue.len() as u64,
                ..t.row.clone()
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        (state.served.clone(), rows)
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
        let (mut served, tenants) = self.dispatch.snapshot();
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
            tenants,
        }
    }
}

/// One validation worker: pull fairly, process, stream the result. Its
/// only shared locks are the dispatch, once per case (twice when it sends
/// a `JOB_DONE`), and the writer.
fn worker_loop(inner: Arc<ServerInner>) {
    let mut next = inner.dispatch.next(None, |_| {});
    while let Some(Queued { job, seq, item }) = next {
        // One case's counters, merged into its job and into the served
        // tally alike; none for a dead connection's case.
        let counted = Mutex::new(PipelineStats::default());
        let sent = !job.writer.failed.load(Ordering::Relaxed) && {
            counted.lock().submitted = 1;
            let record = job.service.process_case(&item, &counted);
            job.writer.send(&Response::Record {
                job: job.id,
                seq,
                record: encode_record(&record),
            })
        };
        // The Record frame is on the wire before the answer counts the
        // case completed, so JOB_DONE is always the job's last frame.
        let answer = Answer {
            job: job.at,
            stats: counted.into_inner(),
            sent,
        };
        next = inner
            .dispatch
            .next(Some(answer), |stats| job.send_done(stats));
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

    let mut jobs: HashMap<u32, Arc<Job>> = HashMap::new();
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
                let opened = Job {
                    at: inner.dispatch.open_job(&name),
                    id: job,
                    service: inner.service_for(&spec),
                    writer: Arc::clone(&writer),
                    started: Instant::now(),
                };
                jobs.insert(job, Arc::new(opened));
            }
            Request::Case { job, seq, item } => {
                let Some(job) = jobs.get(&job) else {
                    refuse(ErrorCode::UnknownJob, "CASE for unopened job");
                    break;
                };
                let job = Arc::clone(job);
                // This is the admission point: a full tenant queue blocks
                // here, which stops draining this client's socket.
                if !inner.dispatch.enqueue(job.at, Queued { job, seq, item }) {
                    refuse(ErrorCode::Protocol, "CASE after FINISH_JOB");
                    break;
                }
            }
            Request::FinishJob { job } => {
                let Some(job) = jobs.get(&job) else {
                    refuse(ErrorCode::UnknownJob, "FINISH_JOB for unopened job");
                    break;
                };
                inner
                    .dispatch
                    .finish_job(job.at, |stats| job.send_done(stats));
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

    // Whatever ends the connection, unfinished jobs die with it: their
    // in-flight results are discarded and their queued cases purged.
    writer.failed.store(true, Ordering::Relaxed);
    inner.dispatch.cancel(jobs.values().map(|job| job.at));
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
                if inner.dispatch.stopped() {
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

    /// Stats of `cases` processed cases.
    fn counted(cases: usize) -> PipelineStats {
        PipelineStats {
            submitted: cases,
            ..PipelineStats::default()
        }
    }

    /// A worker's answer for a case of `job` it processed and sent.
    fn answered(job: JobRef) -> Option<Answer> {
        Some(Answer {
            job,
            stats: counted(1),
            sent: true,
        })
    }

    /// The `send_done` of a step that must not end a job.
    fn no_job_done(stats: PipelineStats) {
        panic!("unexpected JOB_DONE {stats:?}");
    }

    #[test]
    fn fifo_order_within_the_budget() {
        let dispatch = Dispatch::new(8, 2);
        let t = dispatch.open_job("t");
        for n in 0..4u32 {
            dispatch.enqueue(t, n);
        }
        assert_eq!(dispatch.next(None, no_job_done), Some(0));
        assert_eq!(dispatch.next(None, no_job_done), Some(1));
        // Budget of 2 exhausted: nothing more until a case completes.
        assert!(dispatch.lock().pick(dispatch.max_in_flight).is_none());
        assert_eq!(dispatch.next(answered(t), no_job_done), Some(2));
        assert_eq!(dispatch.snapshot().1[0].submitted, 4);
    }

    #[test]
    fn a_full_queue_blocks_the_enqueuer_until_space_frees() {
        let dispatch = Arc::new(Dispatch::new(2, 8));
        let t = dispatch.open_job("t");
        dispatch.enqueue(t, 0u32);
        dispatch.enqueue(t, 1);
        let blocked = {
            let dispatch = Arc::clone(&dispatch);
            std::thread::spawn(move || dispatch.enqueue(t, 2))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            dispatch.snapshot().1[0].queued,
            2,
            "third enqueue must be blocked"
        );
        assert_eq!(dispatch.lock().pending, 3, "a blocked case already counts");
        assert_eq!(dispatch.next(None, no_job_done), Some(0));
        blocked.join().unwrap();
        assert_eq!(dispatch.snapshot().1[0].queued, 2);
    }

    #[test]
    fn purge_counts_cancellations_and_frees_space() {
        let dispatch = Dispatch::new(8, 8);
        let (kept, cancelled) = (dispatch.open_job("t"), dispatch.open_job("t"));
        for n in 0..6u32 {
            dispatch.enqueue(if n % 2 == 0 { kept } else { cancelled }, n);
        }
        let removed = dispatch.cancel([cancelled]);
        assert_eq!(removed, 3);
        let row = &dispatch.snapshot().1[0];
        assert_eq!(row.queued, 3);
        assert_eq!(row.cancelled, 3);
        assert_eq!(dispatch.lock().pending, 3, "purged cases count answered");
    }

    #[test]
    fn job_done_is_decided_once_when_finish_job_precedes_the_last_answer() {
        let dispatch = Dispatch::new(8, 8);
        let (job, other) = (dispatch.open_job("t"), dispatch.open_job("t"));
        dispatch.enqueue(job, 0u32);
        dispatch.enqueue(job, 1);
        dispatch.enqueue(other, 10);
        dispatch.enqueue(other, 11);
        assert_eq!(dispatch.next(None, no_job_done), Some(0));
        assert_eq!(dispatch.next(None, no_job_done), Some(1));
        assert_eq!(dispatch.next(answered(job), no_job_done), Some(10));
        dispatch.finish_job(job, no_job_done);
        assert!(!dispatch.enqueue(job, 2), "no case after FINISH_JOB");
        // The last answer sends JOB_DONE outside the lock, with the case's
        // drain slot still held.
        let mut sent = None;
        let next = dispatch.next(answered(job), |stats| {
            assert_eq!(dispatch.lock().pending, 3);
            sent = Some(stats);
        });
        assert_eq!((next, sent), (Some(11), Some(counted(2))));
        assert_eq!(dispatch.lock().pending, 2);
        dispatch.finish_job(job, no_job_done);
        let (served, rows) = dispatch.snapshot();
        assert_eq!(served, counted(2));
        assert_eq!((rows[0].jobs_opened, rows[0].jobs_finished), (2, 1));
    }

    #[test]
    fn job_done_is_decided_once_when_finish_job_follows_the_last_answer() {
        let dispatch = Dispatch::new(8, 8);
        let (job, other) = (dispatch.open_job("t"), dispatch.open_job("t"));
        dispatch.enqueue(job, 0u32);
        dispatch.enqueue(other, 10);
        assert_eq!(dispatch.next(None, no_job_done), Some(0));
        // Not finished yet: answering every case decides nothing.
        assert_eq!(dispatch.next(answered(job), no_job_done), Some(10));
        let mut sent = None;
        dispatch.finish_job(job, |stats| {
            assert_eq!(dispatch.lock().pending, 2, "the JOB_DONE holds a slot");
            sent = Some(stats);
        });
        assert_eq!(sent, Some(counted(1)));
        assert_eq!(dispatch.lock().pending, 1);
        dispatch.finish_job(job, no_job_done);
        assert_eq!(dispatch.snapshot().1[0].jobs_finished, 1);
    }

    #[test]
    fn a_cancelled_job_never_gets_job_done() {
        let dispatch = Dispatch::new(8, 8);
        let job = dispatch.open_job("t");
        for n in 0..4u32 {
            dispatch.enqueue(job, n);
        }
        assert_eq!(dispatch.next(None, no_job_done), Some(0));
        dispatch.finish_job(job, no_job_done);
        assert_eq!(dispatch.cancel([job]), 3);
        assert_eq!(dispatch.lock().pending, 1, "purged cases count answered");
        // The in-flight case's answer is the last one, yet decides nothing.
        dispatch.stop();
        assert_eq!(dispatch.next(answered(job), no_job_done), None);
        assert_eq!(dispatch.lock().pending, 0);
        let (served, rows) = dispatch.snapshot();
        assert_eq!(served, counted(1));
        let row = &rows[0];
        assert_eq!((row.queued, row.in_flight), (0, 0));
        assert_eq!((row.completed, row.cancelled), (1, 3));
        assert_eq!(row.jobs_finished, 0);
    }

    #[test]
    fn an_unsent_case_cancels_its_job() {
        let dispatch = Dispatch::new(8, 8);
        let (job, other) = (dispatch.open_job("t"), dispatch.open_job("t"));
        for n in 0..3u32 {
            dispatch.enqueue(job, n);
        }
        dispatch.enqueue(other, 10);
        assert_eq!(dispatch.next(None, no_job_done), Some(0));
        let dead = Answer {
            job,
            stats: PipelineStats::default(),
            sent: false,
        };
        assert_eq!(dispatch.next(Some(dead), no_job_done), Some(10));
        assert!(!dispatch.enqueue(job, 3), "a cancelled job takes no case");
        dispatch.finish_job(job, no_job_done);
        assert_eq!(dispatch.lock().pending, 1);
        let row = &dispatch.snapshot().1[0];
        assert_eq!((row.completed, row.cancelled), (1, 2));
    }
}
