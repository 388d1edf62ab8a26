//! The executor behind every [`crate::ValidationService`] stream.
//!
//! # Topology
//!
//! Each of the `workers` identical threads runs whole cases: it takes a
//! run of consecutive cases from the input, takes each one through every
//! stage with one `Stages::run` call (the one definition of the stage
//! rules), and files the finished record in the reorder ring. A case stays
//! on the worker that admitted it. A single worker is exactly the
//! sequential schedule.
//!
//! # Constant memory
//!
//! Input is pulled lazily from the caller's iterator, gated by a global
//! in-flight window: cases pulled but not yet yielded to the consumer.
//! Admission comes in *runs*: under the input lock a worker pulls
//! consecutive cases into a private queue and processes them in order
//! before it admits again. A run is at most a batch (`window / 8`) and at
//! most the worker's share of the window's room (`room / workers`), and at
//! least one case. The share keeps room for every worker to hold a case
//! at once, and keeps short the runs that queue behind a slow case when
//! the window runs low. A worker waits only when the window is full, and
//! never while it holds cases: its records go to the reorder ring, which
//! the consumer drains, so no worker can block another and the run cannot
//! deadlock.
//!
//! # Submission order
//!
//! Every case carries its submission ordinal, and a finished record lands
//! in a window-sized ring at slot `ordinal % window`. Input is admitted in
//! ordinal order and at most `window` cases are pulled but not yielded,
//! so the ordinals waiting in the ring are always distinct modulo the
//! window and a missing ordinal is always in flight. The consumer moves
//! every contiguous ready record out of the ring into a private queue
//! under one lock, then yields from that queue without touching shared
//! state except the in-flight count, which it decrements once per record
//! it yields — so pulled − yielded ≤ window holds exactly, and
//! [`crate::RecordStream`] yields records in submission order at every
//! worker count.
//!
//! # No shared mutable hot state
//!
//! Each worker accumulates a private [`PipelineStats`] merged into the
//! run's aggregate when the worker retires (exact under the
//! accumulator-merge law), so the counters take no shared lock. Every
//! compile goes through [`crate::CompileBackend::compile`]; the default
//! backend checks a `CompileSession` out of its pool and back in, two
//! short critical sections per case on the pool lock. The compile cache
//! the sessions share is internally sharded
//! ([`vv_simcompiler::DEFAULT_CACHE_SHARDS`] ways) with per-shard locks
//! and counters. The input lock is taken once per admission run, and the
//! ring once per record by a worker and once per drained batch by the
//! consumer.
//!
//! # Wakeups
//!
//! A worker that finds the window full waits on a condvar paired with the
//! input lock. The consumer wakes it when its yields open a batch of
//! window room; the worker that exhausts the input, and a cancel, wake it
//! too. A worker wakes the consumer only when the consumer is parked, the
//! next record in order is ready, and either a batch of records is ready,
//! the window is full, or the input is exhausted. The short condvar
//! timeouts remain purely as a liveness backstop.
//!
//! # Shutdown and panics
//!
//! Dropping the [`crate::RecordStream`] flips the cancel flag, and every
//! worker drains out promptly: a worker checks the flag before each case,
//! and a waiting worker is woken. A panicking backend or input iterator
//! sets the same flag from the worker's drop guard, so the remaining
//! workers retire, the consumer stops waiting, the stream's join re-raises
//! the panic on the consumer thread, and no thread is leaked — the
//! early-drop stress test in `tests/parallel_parity.rs` and this module's
//! tests exercise these paths.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::stage::Stages;
use crate::stats::PipelineStats;
use crate::{CaseRecord, WorkItem};

/// How long a waiting worker (or the waiting consumer) sleeps before
/// re-checking on its own. Wakeups are normally driven by notifications;
/// the timeout is the liveness backstop that bounds shutdown latency even
/// if a wakeup is lost.
const IDLE_PARK: Duration = Duration::from_millis(5);

/// A worker's admitted run: cases tagged with their submission ordinals.
type Run = VecDeque<(usize, WorkItem)>;

/// The lazy input iterator plus the admission ordinal counter.
struct InputState {
    items: Box<dyn Iterator<Item = WorkItem> + Send>,
    next_seq: usize,
}

/// The submission-order release ring the consumer drains: completed
/// records at slot `ordinal % window`, waiting for their predecessors.
struct Reorder {
    ring: Vec<Option<CaseRecord>>,
    /// Records waiting in the ring.
    waiting: usize,
    /// The next ordinal the consumer takes out of the ring.
    next_emit: usize,
    /// True while the consumer waits on `Core::ready`.
    consumer_parked: bool,
}

/// State shared by every worker of one run and its consumer.
struct Core {
    stages: Arc<Stages>,
    /// Worker thread count.
    workers: usize,
    /// Bound on cases pulled but not yet yielded to the consumer.
    window: usize,
    /// Cases admitted per run, ready records worth waking the consumer
    /// for, and window room worth waking a worker for.
    batch: usize,
    input: Mutex<InputState>,
    /// Signals workers waiting for window room, paired with `input`.
    room: Condvar,
    /// Set under the input lock once the iterator is exhausted.
    input_done: AtomicBool,
    in_flight: AtomicUsize,
    reorder: Mutex<Reorder>,
    /// Signals the consumer, paired with `reorder`.
    ready: Condvar,
    cancelled: AtomicBool,
    stats: Arc<parking_lot::Mutex<PipelineStats>>,
}

/// A running executor: the consumer's end of the reorder ring plus the
/// worker threads. Called through [`crate::RecordStream`].
pub(crate) struct Executor {
    core: Arc<Core>,
    /// Records already taken out of the ring in submission order, not yet
    /// yielded (and still counted in flight).
    released: VecDeque<CaseRecord>,
    handles: Vec<JoinHandle<()>>,
}

/// Spawn `workers` identical threads over `items`. The in-flight window
/// is `max(capacity, 2 × workers)`: at least two cases per worker keeps
/// every thread busy while the reorder ring waits on a straggler.
pub(crate) fn spawn(
    stages: Arc<Stages>,
    items: impl Iterator<Item = WorkItem> + Send + 'static,
    stats: &Arc<parking_lot::Mutex<PipelineStats>>,
    capacity: usize,
    workers: usize,
) -> Executor {
    let workers = workers.max(1);
    let window = capacity.max(2 * workers);
    let core = Arc::new(Core {
        stages,
        workers,
        window,
        batch: batch_of(window),
        input: Mutex::new(InputState {
            items: Box::new(items),
            next_seq: 0,
        }),
        room: Condvar::new(),
        input_done: AtomicBool::new(false),
        in_flight: AtomicUsize::new(0),
        reorder: Mutex::new(Reorder {
            ring: (0..window).map(|_| None).collect(),
            waiting: 0,
            next_emit: 0,
            consumer_parked: false,
        }),
        ready: Condvar::new(),
        cancelled: AtomicBool::new(false),
        stats: Arc::clone(stats),
    });
    let handles = (0..workers)
        .map(|_| {
            let core = Arc::clone(&core);
            std::thread::spawn(move || worker(core))
        })
        .collect();
    Executor {
        core,
        released: VecDeque::with_capacity(window),
        handles,
    }
}

/// The batch size of a window: an eighth of it, at least one case.
fn batch_of(window: usize) -> usize {
    (window / 8).max(1)
}

impl Executor {
    /// The next record in submission order, blocking until it is ready;
    /// `None` once every case has been yielded or the run was cancelled.
    pub(crate) fn recv(&mut self) -> Option<CaseRecord> {
        if self.released.is_empty() && !self.release() {
            return None;
        }
        let record = self.released.pop_front()?;
        let core = &*self.core;
        let after = core.in_flight.fetch_sub(1, Ordering::AcqRel) - 1;
        if after == core.window - core.batch {
            // A batch of window room just opened: wake the workers
            // waiting to admit.
            core.wake_admission();
        }
        Some(record)
    }

    /// Move every contiguous ready record out of the ring, parking until
    /// at least one is there. False once the run is finished or cancelled.
    fn release(&mut self) -> bool {
        let core = &*self.core;
        let mut reorder = lock_poison_ok(&core.reorder);
        loop {
            while let Some(record) = reorder.take_next() {
                self.released.push_back(record);
            }
            if !self.released.is_empty() {
                return true;
            }
            if core.finished() {
                return false;
            }
            reorder.consumer_parked = true;
            reorder = core
                .ready
                .wait_timeout(reorder, IDLE_PARK)
                .unwrap_or_else(|poison| poison.into_inner())
                .0;
            reorder.consumer_parked = false;
        }
    }

    /// Stop the run: workers retire without pulling more input.
    pub(crate) fn cancel(&self) {
        self.core.cancel();
    }

    /// Reap the workers, returning the first panic payload (if any).
    pub(crate) fn join(&mut self) -> Option<Box<dyn Any + Send + 'static>> {
        let mut first_panic = None;
        for handle in self.handles.drain(..) {
            if let Err(payload) = handle.join() {
                first_panic.get_or_insert(payload);
            }
        }
        first_panic
    }
}

impl Reorder {
    /// File a completed record at its ordinal's slot.
    fn put(&mut self, seq: usize, record: CaseRecord) {
        let slot = seq % self.ring.len();
        // Holds while pulled − yielded ≤ window; a collision would drop a
        // record and stall the stream.
        assert!(
            self.ring[slot].is_none(),
            "ordinal {seq} collides in the ring"
        );
        self.ring[slot] = Some(record);
        self.waiting += 1;
    }

    fn next_ready(&self) -> bool {
        self.ring[self.next_emit % self.ring.len()].is_some()
    }

    /// Take the record for `next_emit` out of the ring, if it is ready.
    fn take_next(&mut self) -> Option<CaseRecord> {
        let slot = self.next_emit % self.ring.len();
        let record = self.ring[slot].take()?;
        self.next_emit += 1;
        self.waiting -= 1;
        Some(record)
    }
}

fn lock_poison_ok<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

impl Core {
    /// Wake the workers waiting for window room after a change they read
    /// under the input lock. Taking the lock orders the change before a
    /// waiter's next check, so the wakeup cannot fall between its check
    /// and its wait.
    fn wake_admission(&self) {
        drop(lock_poison_ok(&self.input));
        self.room.notify_all();
    }

    /// Wake the consumer after a change `finished` reads, ordered the same
    /// way through the reorder lock.
    fn wake_consumer(&self) {
        drop(lock_poison_ok(&self.reorder));
        self.ready.notify_all();
    }

    fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
        self.wake_admission();
        self.wake_consumer();
    }

    fn cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// True once no case will ever need work again: the input iterator is
    /// exhausted and every admitted case has been yielded (or the run was
    /// cancelled).
    fn finished(&self) -> bool {
        self.cancelled()
            || (self.input_done.load(Ordering::Acquire)
                && self.in_flight.load(Ordering::Acquire) == 0)
    }

    /// Pull the next run of consecutive cases into `run`, waiting while
    /// the window is full: at most `batch` and at most this worker's share
    /// of the window's room, but at least one case. False once the input
    /// is exhausted or the run is cancelled. Admissions are serialized by
    /// the input lock and only they raise the in-flight count, so the
    /// window is never overshot.
    fn admit(&self, run: &mut Run) -> bool {
        let mut input = lock_poison_ok(&self.input);
        let room = loop {
            if self.cancelled() || self.input_done.load(Ordering::Acquire) {
                return false;
            }
            let room = self.window - self.in_flight.load(Ordering::Acquire);
            if room > 0 {
                break room;
            }
            input = self
                .room
                .wait_timeout(input, IDLE_PARK)
                .unwrap_or_else(|poison| poison.into_inner())
                .0;
        };
        let mut exhausted = false;
        let len = (room / self.workers).clamp(1, self.batch);
        while run.len() < len {
            let Some(item) = input.items.next() else {
                exhausted = true;
                break;
            };
            run.push_back((input.next_seq, item));
            input.next_seq += 1;
        }
        // Count the run in flight before the next admission reads the
        // room, before `finished` can observe the exhaustion, and before
        // any of it can be yielded.
        self.in_flight.fetch_add(run.len(), Ordering::AcqRel);
        if exhausted {
            self.input_done.store(true, Ordering::Release);
        }
        drop(input);
        if exhausted {
            // Waiting workers retire, and the consumer observes the end.
            self.room.notify_all();
            self.wake_consumer();
        }
        !run.is_empty()
    }

    /// Put a completed record in the reorder ring. The consumer is woken
    /// only when it is parked, its next record is ready, and waking it is
    /// worth a batch: `batch` records are ready, the window is full (no
    /// admission can proceed until it yields), or the input is exhausted
    /// (no more records may come to fill a batch).
    fn emit(&self, seq: usize, record: CaseRecord) {
        let mut reorder = lock_poison_ok(&self.reorder);
        reorder.put(seq, record);
        let wake = reorder.consumer_parked
            && reorder.next_ready()
            && (reorder.waiting >= self.batch
                || self.in_flight.load(Ordering::Acquire) >= self.window
                || self.input_done.load(Ordering::Acquire));
        drop(reorder);
        if wake {
            self.ready.notify_one();
        }
    }
}

/// Per-worker private state, cleaned up through `Drop` so partial
/// statistics merge even when a backend panics — and so a panic cancels
/// the run instead of leaving the other workers and the consumer waiting
/// for an ordinal that will never emit.
struct WorkerState {
    core: Arc<Core>,
    local: PipelineStats,
}

impl Drop for WorkerState {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.core.cancel();
        }
        self.core.stats.lock().merge(&self.local);
    }
}

/// One worker thread: admit a run, take each case through every stage,
/// repeat until the input is exhausted (or the run is cancelled).
fn worker(core: Arc<Core>) {
    let mut state = WorkerState {
        core: Arc::clone(&core),
        local: PipelineStats::default(),
    };
    let mut run = Run::with_capacity(core.batch);
    while core.admit(&mut run) {
        while let Some((seq, item)) = run.pop_front() {
            if core.cancelled() {
                return;
            }
            state.local.submitted += 1;
            let record = core.stages.run(&item, &mut state.local);
            core.emit(seq, record);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use parking_lot::Mutex;
    use vv_corpus::CaseSource;
    use vv_dclang::DirectiveModel;
    use vv_probing::CorpusSpec;
    use vv_simcompiler::Lang;

    use super::*;
    use crate::backend::{CompileBackend, CompileOutput};
    use crate::{CompileSummary, ExecutionStrategy, PipelineConfig, ValidationService};

    /// The default window, and the admission run / consumer batch of it.
    fn default_window_and_batch() -> (usize, usize) {
        let window = PipelineConfig::default().channel_capacity;
        (window, batch_of(window))
    }

    fn service(workers: usize) -> ValidationService {
        ValidationService::builder()
            .strategy(ExecutionStrategy::Pipelined { workers })
            .build()
    }

    fn spec(len: usize) -> CorpusSpec {
        CorpusSpec::new(DirectiveModel::OpenAcc)
            .seed(0xBA7C)
            .probe_seed(0xBA7D)
            .size(len)
    }

    /// A compiler that rejects every file at once, so a case costs almost
    /// nothing and the run is all admission, ring and wakeup traffic.
    struct RejectAll;
    impl CompileBackend for RejectAll {
        fn compile(&self, _item: &WorkItem) -> CompileOutput {
            CompileOutput {
                summary: CompileSummary {
                    return_code: 1,
                    stdout: "".into(),
                    stderr: "".into(),
                    succeeded: false,
                },
                artifact: None,
                signals: None,
                fetch: None,
            }
        }
    }

    /// `len` trivial C cases.
    fn items(len: usize) -> Vec<WorkItem> {
        (0..len)
            .map(|i| WorkItem {
                id: format!("case-{i}"),
                source: "int main() { return 0; }".into(),
                lang: Lang::C,
                model: DirectiveModel::OpenAcc,
            })
            .collect()
    }

    /// A compiler whose first `parties` calls each wait until all of them
    /// are inside it at once, or until a timeout, which it records.
    struct Rendezvous {
        parties: usize,
        arrived: std::sync::Mutex<usize>,
        all_in: Condvar,
        timed_out: Arc<AtomicBool>,
    }
    impl CompileBackend for Rendezvous {
        fn compile(&self, item: &WorkItem) -> CompileOutput {
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut arrived = self.arrived.lock().unwrap();
            *arrived += 1;
            self.all_in.notify_all();
            while *arrived < self.parties {
                let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                    self.timed_out.store(true, Ordering::Relaxed);
                    break;
                };
                arrived = self.all_in.wait_timeout(arrived, left).unwrap().0;
            }
            drop(arrived);
            RejectAll.compile(item)
        }
    }

    #[test]
    fn every_worker_holds_a_case_at_once() {
        // Sixteen workers share the default window of 64 cases. If the
        // first workers' runs took the whole window, the rest would wait
        // for room and the rendezvous would time out.
        let (window, _) = default_window_and_batch();
        let workers = 16;
        let timed_out = Arc::new(AtomicBool::new(false));
        let service = ValidationService::builder()
            .strategy(ExecutionStrategy::Pipelined { workers })
            .compile_backend(Rendezvous {
                parties: workers,
                arrived: std::sync::Mutex::new(0),
                all_in: Condvar::new(),
                timed_out: Arc::clone(&timed_out),
            })
            .build();
        let len = 2 * window;
        assert_eq!(service.submit(items(len)).count(), len);
        assert!(
            !timed_out.load(Ordering::Relaxed),
            "fewer than {workers} workers held a case at once"
        );
    }

    #[test]
    fn short_streams_never_wait_for_the_park_backstop() {
        let (window, _) = default_window_and_batch();
        // (streams, cases per stream, channel capacity, backstop waits
        // allowed). A lost or withheld wakeup costs a whole park timeout.
        // Many three-case streams catch one at the end of a stream; one
        // long stream through a window of two or four cases keeps the
        // window full, so every admission waits on the consumer's wakeup.
        let shapes = [(400u32, 3, window, 400 / 2), (1, 2000, 1, 2000 / 20)];
        for (streams, len, capacity, waits) in shapes {
            let items = items(len);
            for workers in [1, 2] {
                let service = ValidationService::builder()
                    .strategy(ExecutionStrategy::Pipelined { workers })
                    .channel_capacity(capacity)
                    .compile_backend(RejectAll)
                    .build();
                let started = Instant::now();
                for _ in 0..streams {
                    let records: Vec<_> = service.submit(items.clone()).collect();
                    assert_eq!(records.len(), len);
                }
                let elapsed = started.elapsed();
                assert!(
                    elapsed < IDLE_PARK * waits,
                    "workers={workers}: {streams} {len}-case streams took {elapsed:?}"
                );
            }
        }
    }

    #[test]
    fn ragged_sources_stream_in_submission_order() {
        let (window, batch) = default_window_and_batch();
        for len in [0, 1, batch - 1, batch + 1, window + 1] {
            let items: Vec<WorkItem> = spec(len)
                .source()
                .into_cases()
                .map(WorkItem::from)
                .collect();
            let reference = service(1);
            let stats = Mutex::new(PipelineStats::default());
            let expected: Vec<CaseRecord> = items
                .iter()
                .map(|item| reference.process_case(item, &stats))
                .collect();
            assert_eq!(expected.len(), len);
            for workers in [1, 2, 4, 8] {
                let streamed: Vec<CaseRecord> =
                    service(workers).submit_source(spec(len).source()).collect();
                assert_eq!(streamed, expected, "len={len} workers={workers}");
            }
        }
    }

    #[test]
    fn a_panicking_source_reraises_mid_run() {
        let (_, batch) = default_window_and_batch();
        let fatal = batch + 3;
        for workers in [1, 2, 4, 8] {
            let mut pulled = 0usize;
            let source = spec(4 * batch).source().inspect(move |_| {
                pulled += 1;
                if pulled == fatal {
                    panic!("source exploded on case {fatal}");
                }
            });
            let mut yielded = Vec::new();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for record in service(workers).submit_source(source) {
                    yielded.push(record);
                }
            }));
            let payload = result.expect_err("a source panic must not end the stream quietly");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                message.contains("source exploded"),
                "workers={workers}: unexpected panic payload: {message:?}"
            );
            // Whatever was yielded before the panic is an in-order prefix.
            assert!(yielded.len() < fatal, "workers={workers}");
            let expected: Vec<CaseRecord> = service(1)
                .submit_source(spec(yielded.len()).source())
                .collect();
            assert_eq!(yielded, expected, "workers={workers}");
        }
    }
}
