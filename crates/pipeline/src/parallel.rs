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
//! Because admission is every worker's *last* resort, queue depths stay
//! near zero under steady state and the window is only reached when the
//! consumer or a stage stalls. Nothing in the executor blocks while
//! holding queue space: stage transitions are pushes, and a finished
//! record waits in the reorder buffer, which the consumer drains, so the
//! classic pipeline deadlock (a full downstream channel holding up the
//! stage that must drain it) cannot be constructed.
//!
//! # Submission order
//!
//! Every case carries its submission ordinal; the consumer takes ordinal
//! `n + 1` from the reorder buffer only after `n`. Input is admitted in
//! ordinal order, so a missing ordinal is always in flight and the buffer
//! never holds more than the in-flight window — [`crate::RecordStream`]
//! therefore yields records in submission order at every worker count.
//!
//! # No shared mutable hot state
//!
//! Per-case work touches no shared lock: each worker accumulates a
//! private [`PipelineStats`] merged into the run's aggregate when the
//! worker retires (exact under the accumulator-merge law), and each
//! worker leases its own `CompileSession`s (returned to the backend's
//! pool at exit). The compile cache the sessions share is internally
//! sharded ([`vv_simcompiler::DEFAULT_CACHE_SHARDS`] ways) with per-shard
//! locks and counters. What remains shared — the stage queues, the
//! reorder buffer, the admission iterator — is touched once per stage
//! transition, not per unit of stage work.
//!
//! # Shutdown and panics
//!
//! Dropping the [`crate::RecordStream`] flips the cancel flag, and every
//! worker (parked workers time out on a short condvar wait) drains out
//! promptly. A panicking backend sets the same flag from the worker's drop
//! guard, so the remaining workers retire, the consumer stops waiting, the
//! stream's join re-raises the panic on the consumer thread, and no thread
//! is leaked — the early-drop stress test in `tests/parallel_parity.rs`
//! exercises both paths.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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

/// The submission-order release buffer the consumer drains: completed
/// records keyed by ordinal, waiting for their predecessors.
struct Reorder {
    pending: HashMap<usize, CaseRecord>,
    next_emit: usize,
}

/// Wakeup bookkeeping: a generation counter bumped by every notification,
/// so a worker that observed generation `g` before its final empty scan
/// can sleep without racing a push that happened in between.
struct MonitorState {
    generation: u64,
}

/// State shared by every worker of one run and its consumer.
struct Core {
    stages: Arc<Stages>,
    /// Bound on cases pulled but not yet yielded to the consumer.
    window: usize,
    queues: [Injector<Task>; 3],
    input: Mutex<InputState>,
    input_done: AtomicBool,
    in_flight: AtomicUsize,
    reorder: Mutex<Reorder>,
    /// Signals the consumer, paired with `reorder`.
    ready: Condvar,
    monitor: Mutex<MonitorState>,
    wakeup: Condvar,
    cancelled: AtomicBool,
    stats: Arc<parking_lot::Mutex<PipelineStats>>,
}

/// A running executor: the consumer's end of the reorder buffer plus the
/// worker threads. Called through [`crate::RecordStream`].
pub(crate) struct Executor {
    core: Arc<Core>,
    handles: Vec<JoinHandle<()>>,
}

/// Spawn `workers` identical threads over `items`. The in-flight window
/// is `max(capacity, 2 × workers)`: at least two cases per worker keeps
/// every thread busy while the reorder buffer waits on a straggler.
pub(crate) fn spawn(
    stages: Arc<Stages>,
    items: impl Iterator<Item = WorkItem> + Send + 'static,
    stats: &Arc<parking_lot::Mutex<PipelineStats>>,
    capacity: usize,
    workers: usize,
) -> Executor {
    let workers = workers.max(1);
    let core = Arc::new(Core {
        stages,
        window: capacity.max(2 * workers),
        queues: [Injector::new(), Injector::new(), Injector::new()],
        input: Mutex::new(InputState {
            items: Box::new(items),
            next_seq: 0,
            done: false,
        }),
        input_done: AtomicBool::new(false),
        in_flight: AtomicUsize::new(0),
        reorder: Mutex::new(Reorder {
            pending: HashMap::new(),
            next_emit: 0,
        }),
        ready: Condvar::new(),
        monitor: Mutex::new(MonitorState { generation: 0 }),
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
    Executor { core, handles }
}

impl Executor {
    /// The next record in submission order, blocking until it is ready;
    /// `None` once every case has been yielded or the run was cancelled.
    pub(crate) fn recv(&self) -> Option<CaseRecord> {
        let core = &*self.core;
        let mut reorder = lock_poison_ok(&core.reorder);
        loop {
            let next_emit = reorder.next_emit;
            if let Some(record) = reorder.pending.remove(&next_emit) {
                reorder.next_emit += 1;
                drop(reorder);
                let before = core.in_flight.fetch_sub(1, Ordering::AcqRel);
                if before >= core.window || before == 1 {
                    // Window space freed, or possibly the run finished:
                    // wake admission-blocked and retiring workers.
                    core.notify();
                }
                return Some(record);
            }
            if core.finished() {
                return None;
            }
            reorder = core
                .ready
                .wait_timeout(reorder, IDLE_PARK)
                .unwrap_or_else(|poison| poison.into_inner())
                .0;
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
    fn notify(&self) {
        lock_poison_ok(&self.monitor).generation += 1;
        self.wakeup.notify_all();
    }

    /// Wake the consumer after a change `finished` reads. Taking the
    /// reorder lock orders the change before the consumer's next check,
    /// so the wakeup cannot fall between its check and its wait.
    fn wake_consumer(&self) {
        drop(lock_poison_ok(&self.reorder));
        self.ready.notify_all();
    }

    fn generation(&self) -> u64 {
        lock_poison_ok(&self.monitor).generation
    }

    /// Sleep until the generation moves past `observed` (or the liveness
    /// timeout elapses).
    fn park(&self, observed: u64) {
        let guard = lock_poison_ok(&self.monitor);
        if guard.generation != observed {
            return;
        }
        let _ = self
            .wakeup
            .wait_timeout(guard, IDLE_PARK)
            .unwrap_or_else(|poison| poison.into_inner());
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
    /// near zero).
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

    /// Pull one new case from the input iterator, if the in-flight window
    /// has room. Admissions are serialized by the input lock, so the
    /// window is never overshot.
    fn admit(&self) -> Option<Task> {
        let mut input = lock_poison_ok(&self.input);
        if input.done || self.in_flight.load(Ordering::Acquire) >= self.window {
            return None;
        }
        match input.items.next() {
            Some(item) => {
                let seq = input.next_seq;
                input.next_seq += 1;
                self.in_flight.fetch_add(1, Ordering::AcqRel);
                Some(Task {
                    seq,
                    item,
                    case: Case::Admitted,
                })
            }
            None => {
                input.done = true;
                drop(input);
                self.input_done.store(true, Ordering::Release);
                // Wake idlers and the consumer so they observe the
                // exhaustion.
                self.notify();
                self.wake_consumer();
                None
            }
        }
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

    /// Hand a completed record to the reorder buffer, waking the consumer
    /// if it is the ordinal it waits for.
    fn emit(&self, seq: usize, record: CaseRecord) {
        let mut reorder = lock_poison_ok(&self.reorder);
        let next = seq == reorder.next_emit;
        reorder.pending.insert(seq, record);
        drop(reorder);
        if next {
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
