//! The stage-pipelined, work-stealing executor behind every
//! [`crate::ValidationService`] stream.
//!
//! # Topology
//!
//! Every worker runs the whole pipeline: three shared [`Injector`] queues
//! (compile → execute → judge) hold the stage transitions, and each of the
//! `workers` threads pops from its *home* stage first — homes are
//! distributed by measured per-case stage cost, execute-heavy — then
//! steals from the other stages, downstream-first, whenever its home queue
//! is empty. A worker that finds every queue empty admits new input. The
//! result is a schedule that pipelines across stages *and* parallelizes
//! within them, with no thread ever idle while any stage has work, at any
//! worker count (a single worker degenerates to exactly the sequential
//! schedule). Each pop runs one `Stages::step`, the one definition of
//! the per-stage rules.
//!
//! # Constant memory
//!
//! Input is pulled lazily from the caller's iterator, gated by a global
//! in-flight window: cases pulled but not yet yielded to the consumer.
//! Admission is every worker's *last* resort and comes in *runs*: the
//! worker holding the input lock pulls up to a batch (`window / 8`, at
//! least one) of consecutive cases, never more than the window has room
//! for, keeps the first and pushes the rest onto the compile queue with
//! one wakeup. Queue depths therefore stay within one run under steady
//! state, and the window is only reached when the consumer or a stage
//! stalls. Nothing in the executor blocks while holding queue space:
//! stage transitions are pushes, and a finished record waits in the
//! reorder ring, which the consumer drains, so the classic pipeline
//! deadlock (a full downstream channel holding up the stage that must
//! drain it) cannot be constructed.
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
//! Per-case work touches no shared lock: each worker accumulates a
//! private [`PipelineStats`] merged into the run's aggregate when the
//! worker retires (exact under the accumulator-merge law), and each
//! worker leases its own `CompileSession`s (returned to the backend's
//! pool at exit). The compile cache the sessions share is internally
//! sharded ([`vv_simcompiler::DEFAULT_CACHE_SHARDS`] ways) with per-shard
//! locks and counters. What remains shared is synchronised once per batch
//! where it can be: the admission iterator once per run, the ring once
//! per record for the producer and once per drained batch for the
//! consumer, the stage queues once per stage transition.
//!
//! Wakeups follow the same rule. A worker notification bumps an atomic
//! generation and takes the monitor lock and condvar only when a sleeper
//! count shows a parked worker; a parking worker counts itself under the
//! monitor lock before it re-checks the generation, so no wakeup is lost.
//! A worker wakes the consumer only when the consumer is parked, the next
//! record in order is ready, and either a batch of records is ready, the
//! window is full, or the input is exhausted. The consumer in turn wakes
//! workers only when its yields open a batch of window room or finish the
//! run. The short condvar timeouts remain purely as a liveness backstop.
//!
//! # Shutdown and panics
//!
//! Dropping the [`crate::RecordStream`] flips the cancel flag, and every
//! worker (parked workers time out on a short condvar wait) drains out
//! promptly. A panicking backend or input iterator sets the same flag
//! from the worker's drop guard, so the remaining workers retire, the
//! consumer stops waiting, the stream's join re-raises the panic on the
//! consumer thread, and no thread is leaked — the early-drop stress test
//! in `tests/parallel_parity.rs` and this module's tests exercise these
//! paths.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::deque::{Injector, Steal};

use crate::stage::{Case, Leases, Stages, Step};
use crate::stats::PipelineStats;
use crate::{CaseRecord, WorkItem};

/// Stage indices into the queue array.
const COMPILE: usize = 0;
const EXEC: usize = 1;
const JUDGE: usize = 2;

/// How long an idle worker (or the waiting consumer) sleeps before
/// re-scanning on its own. Wakeups are normally driven by notifications;
/// the timeout is the liveness backstop that bounds shutdown latency even
/// if a wakeup is lost.
const IDLE_PARK: Duration = Duration::from_millis(5);

/// A case in flight, tagged with its submission ordinal.
struct Task {
    seq: usize,
    item: WorkItem,
    case: Case,
}

/// The lazy input iterator plus the admission ordinal counter.
struct InputState {
    items: Box<dyn Iterator<Item = WorkItem> + Send>,
    next_seq: usize,
    done: bool,
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
    /// Bound on cases pulled but not yet yielded to the consumer.
    window: usize,
    /// Cases admitted per run, ready records worth waking the consumer
    /// for, and window room worth waking a worker for.
    batch: usize,
    queues: [Injector<Task>; 3],
    input: Mutex<InputState>,
    input_done: AtomicBool,
    in_flight: AtomicUsize,
    reorder: Mutex<Reorder>,
    /// Signals the consumer, paired with `reorder`.
    ready: Condvar,
    /// Bumped by every worker notification, so a worker that observed
    /// generation `g` before its final empty scan can sleep without
    /// racing a push that happened in between.
    generation: AtomicU64,
    /// Workers inside `park`; notifications skip the condvar while zero.
    sleepers: AtomicUsize,
    /// Paired with `wakeup`; guards nothing but the park/notify hand-off.
    monitor: Mutex<()>,
    wakeup: Condvar,
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
        window,
        batch: batch_of(window),
        queues: [Injector::new(), Injector::new(), Injector::new()],
        input: Mutex::new(InputState {
            items: Box::new(items),
            next_seq: 0,
            done: false,
        }),
        input_done: AtomicBool::new(false),
        in_flight: AtomicUsize::new(0),
        reorder: Mutex::new(Reorder {
            ring: (0..window).map(|_| None).collect(),
            waiting: 0,
            next_emit: 0,
            consumer_parked: false,
        }),
        ready: Condvar::new(),
        generation: AtomicU64::new(0),
        sleepers: AtomicUsize::new(0),
        monitor: Mutex::new(()),
        wakeup: Condvar::new(),
        cancelled: AtomicBool::new(false),
        stats: Arc::clone(stats),
    });
    let handles = (0..workers)
        .map(|index| {
            let core = Arc::clone(&core);
            std::thread::spawn(move || worker(core, home_stage(index)))
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
        if after == core.window.saturating_sub(core.batch) || after == 0 {
            // A batch of window room just opened, or the run may be
            // finished: wake admission-blocked and retiring workers.
            core.notify();
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

/// The home stage of worker `index`. Homes are distributed by measured
/// per-case stage cost (BENCH_PR5: execute dominates by ~5x over judge
/// and ~50x over a cached compile — weights 1:7:2), so pop priorities
/// roughly match where the cycles go; work stealing reassigns threads the
/// moment reality differs (e.g. under a latency-paced judge, where the
/// judge stage dominates instead).
fn home_stage(index: usize) -> usize {
    const PATTERN: [usize; 10] = [
        EXEC, EXEC, JUDGE, EXEC, EXEC, COMPILE, EXEC, JUDGE, EXEC, EXEC,
    ];
    PATTERN[index % PATTERN.len()]
}

fn lock_poison_ok<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

impl Core {
    /// Bump the notification generation and wake every parked worker.
    /// The generation bump and the sleeper check are sequentially
    /// consistent with `park`'s sleeper count and generation re-check, so
    /// either the parker sees the bump or this sees the parker; taking
    /// the monitor lock then orders the wakeup after the parker's wait.
    fn notify(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            drop(lock_poison_ok(&self.monitor));
            self.wakeup.notify_all();
        }
    }

    /// Wake the consumer after a change `finished` reads. Taking the
    /// reorder lock orders the change before the consumer's next check,
    /// so the wakeup cannot fall between its check and its wait.
    fn wake_consumer(&self) {
        drop(lock_poison_ok(&self.reorder));
        self.ready.notify_all();
    }

    fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Sleep until the generation moves past `observed` (or the liveness
    /// timeout elapses).
    fn park(&self, observed: u64) {
        let guard = lock_poison_ok(&self.monitor);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.generation() == observed {
            let _ = self
                .wakeup
                .wait_timeout(guard, IDLE_PARK)
                .unwrap_or_else(|poison| poison.into_inner());
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
        self.notify();
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

    /// Find the next task: home queue, then the other stages
    /// downstream-first, then new input (admission is the last resort, so
    /// in-flight cases drain before new ones enter and queue depths stay
    /// within one admission run).
    fn find_task(&self, home: usize) -> Option<Task> {
        let order = match home {
            COMPILE => [COMPILE, JUDGE, EXEC],
            EXEC => [EXEC, JUDGE, COMPILE],
            _ => [JUDGE, EXEC, COMPILE],
        };
        for stage in order {
            loop {
                match self.queues[stage].steal() {
                    Steal::Success(task) => return Some(task),
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        self.admit()
    }

    /// Pull a run of up to `batch` consecutive cases from the input
    /// iterator, bounded by the in-flight window's room; keep the first
    /// and queue the rest for compile. Admissions are serialized by the
    /// input lock and only they raise the in-flight count, so the window
    /// is never overshot.
    fn admit(&self) -> Option<Task> {
        let mut input = lock_poison_ok(&self.input);
        let room = self
            .window
            .saturating_sub(self.in_flight.load(Ordering::Acquire));
        if input.done || room == 0 {
            return None;
        }
        let len = room.min(self.batch);
        let mut run = Vec::with_capacity(len);
        while run.len() < len {
            let Some(item) = input.items.next() else {
                input.done = true;
                break;
            };
            run.push(Task {
                seq: input.next_seq,
                item,
                case: Case::Admitted,
            });
            input.next_seq += 1;
        }
        // Count the run in flight before the next admission reads the
        // room, before `finished` can observe the exhaustion, and before
        // any of it can be yielded.
        self.in_flight.fetch_add(run.len(), Ordering::AcqRel);
        let exhausted = input.done;
        drop(input);
        if exhausted {
            self.input_done.store(true, Ordering::Release);
            // Wake the consumer so it observes the exhaustion.
            self.wake_consumer();
        }
        let mut run = run.into_iter();
        let first = run.next();
        // One wakeup for the rest of the run, and for idlers to observe
        // the exhaustion.
        if run.len() > 0 || exhausted {
            run.for_each(|task| self.queues[COMPILE].push(task));
            self.notify();
        }
        first
    }

    /// Push a stage transition and wake a worker for it.
    fn forward(&self, task: Task) {
        let stage = match task.case {
            Case::Admitted => COMPILE,
            Case::Compiled { .. } => EXEC,
            Case::Executed { .. } => JUDGE,
        };
        self.queues[stage].push(task);
        self.notify();
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

/// Per-worker private state, cleaned up through `Drop` so sessions return
/// to the pool and partial statistics merge even when a backend panics —
/// and so a panic cancels the run instead of leaving the other workers
/// and the consumer waiting for an ordinal that will never emit.
struct WorkerState {
    core: Arc<Core>,
    local: PipelineStats,
    leases: Leases,
}

impl Drop for WorkerState {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.core.cancel();
        }
        self.core.stages.release(&mut self.leases);
        self.core.stats.lock().merge(&self.local);
        // A retiring worker may be the one whose exit completed the run;
        // make sure parked peers re-check promptly.
        self.core.notify();
    }
}

/// One worker thread: scan for work, process, retire when the run is
/// complete (or cancelled).
fn worker(core: Arc<Core>, home: usize) {
    let mut state = WorkerState {
        core: Arc::clone(&core),
        local: PipelineStats::default(),
        leases: Leases::new(),
    };
    loop {
        if core.cancelled() {
            break;
        }
        if let Some(task) = core.find_task(home) {
            run_task(&mut state, task);
            continue;
        }
        // Empty scan. Snapshot the generation, re-scan once (a push may
        // have raced the first scan), then park against the snapshot: a
        // notification between snapshot and park bumps the generation and
        // the park returns immediately.
        let observed = core.generation();
        if core.finished() {
            break;
        }
        if let Some(task) = core.find_task(home) {
            run_task(&mut state, task);
            continue;
        }
        core.park(observed);
    }
}

/// Run one stage of one case and route the result.
fn run_task(state: &mut WorkerState, task: Task) {
    let Task { seq, item, case } = task;
    if matches!(case, Case::Admitted) {
        state.local.submitted += 1;
    }
    let core = &state.core;
    match core
        .stages
        .step(&item, case, &mut state.leases, &mut state.local)
    {
        Step::Next(case) => core.forward(Task { seq, item, case }),
        Step::Done(record) => core.emit(seq, record),
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

    /// A compiler that rejects every file at once, so a case is one step
    /// and the run is all hand-offs.
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

    #[test]
    fn short_streams_never_wait_for_the_park_backstop() {
        const STREAMS: u32 = 400;
        let items: Vec<WorkItem> = (0..3)
            .map(|i| WorkItem {
                id: format!("case-{i}"),
                source: "int main() { return 0; }".into(),
                lang: Lang::C,
                model: DirectiveModel::OpenAcc,
            })
            .collect();
        for workers in [1, 2] {
            let service = ValidationService::builder()
                .strategy(ExecutionStrategy::Pipelined { workers })
                .compile_backend(RejectAll)
                .build();
            let started = Instant::now();
            for _ in 0..STREAMS {
                let records: Vec<_> = service.submit(items.clone()).collect();
                assert_eq!(records.len(), items.len());
            }
            let elapsed = started.elapsed();
            // A lost or withheld wakeup costs a whole park timeout; losing
            // one in every other stream would already take this long.
            assert!(
                elapsed < IDLE_PARK * STREAMS / 2,
                "workers={workers}: {STREAMS} three-case streams took {elapsed:?}"
            );
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
