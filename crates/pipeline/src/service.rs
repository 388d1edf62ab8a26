//! The validation service: pluggable stage backends, one executor, and
//! streaming results.
//!
//! [`ValidationService`] is constructed through [`ValidationServiceBuilder`]
//! and offers three ways to consume results:
//!
//! * [`ValidationService::run`] — batch: process a `Vec<WorkItem>` and get a
//!   [`PipelineRun`] with records in submission order plus aggregate stats;
//! * [`ValidationService::submit`] — streaming: feed any iterator of work
//!   items and receive an iterator of [`CaseRecord`]s in submission order.
//!   Input is pulled lazily under a bounded in-flight window, so the suite
//!   can be arbitrarily large while memory stays constant;
//! * [`ValidationService::process_case`] — one case on the calling thread,
//!   for external schedulers such as the validation server.
//!
//! Every path runs the same stage rules (`stage::Stages::run`), so they
//! produce identical records for identical inputs at any worker count
//! (asserted by the worker-count parity tests).

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::backend::{
    CompileBackend, ExecBackend, JudgeBackend, PacedJudge, SimCompileBackend, SimExecBackend,
    SurrogateJudgeBackend,
};
use crate::parallel::Executor;
use crate::persist::RecordStore;
use crate::runner::PipelineRun;
use crate::stage::Stages;
use crate::stats::PipelineStats;
use crate::{CaseRecord, PipelineConfig, PipelineMode, WorkItem};
use vv_corpus::CaseSource;
use vv_judge::{JudgeProfile, PromptStyle};
use vv_simcompiler::{CompileCache, PersistentCache};
use vv_store::ArtifactStore;

/// How the service schedules the per-file work: the executor of
/// [`crate::parallel`] over `workers` threads (`0` = one per available
/// core). Each worker takes whole cases through every stage, input is
/// admitted lazily in runs under an in-flight window, and a reorder ring
/// makes the stream yield records in submission order. Records do not
/// depend on the worker count (the worker-count parity laws); only
/// throughput does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecutionStrategy {
    /// Whole cases on each of `workers` threads.
    Pipelined {
        /// Worker thread count; `0` resolves to
        /// `std::thread::available_parallelism()`.
        workers: usize,
    },
}

impl Default for ExecutionStrategy {
    /// One worker per available core.
    fn default() -> Self {
        ExecutionStrategy::Pipelined { workers: 0 }
    }
}

impl ExecutionStrategy {
    /// A short label for tables and logs.
    pub fn label(&self) -> &'static str {
        "pipelined"
    }

    /// The worker thread count, with `0` resolved to the available cores.
    pub fn workers(&self) -> usize {
        let ExecutionStrategy::Pipelined { workers } = *self;
        if workers > 0 {
            return workers;
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Builder for [`ValidationService`].
///
/// ```
/// use vv_pipeline::{ExecutionStrategy, PipelineMode, ValidationService};
///
/// let service = ValidationService::builder()
///     .mode(PipelineMode::RecordAll)
///     .strategy(ExecutionStrategy::Pipelined { workers: 2 })
///     .build();
/// let run = service.run(Vec::new());
/// assert_eq!(run.stats.submitted, 0);
/// ```
#[derive(Clone, Default)]
pub struct ValidationServiceBuilder {
    config: PipelineConfig,
    strategy: ExecutionStrategy,
    compile: Option<Arc<dyn CompileBackend>>,
    exec: Option<Arc<dyn ExecBackend>>,
    judge: Option<Arc<dyn JudgeBackend>>,
    store: Option<Arc<ArtifactStore>>,
    judge_pacing: Option<f64>,
}

impl ValidationServiceBuilder {
    /// Early-exit (production) or record-all (experimental) mode.
    pub fn mode(mut self, mode: PipelineMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Minimum in-flight window of streamed runs: cases pulled from the
    /// input but not yet yielded (the window is `max(capacity, 2 ×
    /// workers)`).
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        self.config.channel_capacity = capacity;
        self
    }

    /// Executor worker count; see [`ExecutionStrategy`].
    pub fn strategy(mut self, strategy: ExecutionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Prompt style for the default judge backend.
    pub fn judge_style(mut self, style: PromptStyle) -> Self {
        self.config.judge_style = style;
        self
    }

    /// Calibration profile for the default judge backend.
    pub fn judge_profile(mut self, profile: JudgeProfile) -> Self {
        self.config.judge_profile = profile;
        self
    }

    /// Decision seed for the default judge backend.
    pub fn judge_seed(mut self, seed: u64) -> Self {
        self.config.judge_seed = seed;
        self
    }

    /// Plug in a custom compile backend.
    pub fn compile_backend(mut self, backend: impl CompileBackend + 'static) -> Self {
        self.compile = Some(Arc::new(backend));
        self
    }

    /// Compile through a shared content-addressed compile cache (a
    /// [`SimCompileBackend`] around `cache`). Several services — e.g. the
    /// scenarios of a campaign that re-run identical corpus shards — can
    /// share one cache and compile each distinct source once between them.
    pub fn compile_cache(self, cache: Arc<CompileCache>) -> Self {
        self.compile_backend(SimCompileBackend::cached(cache))
    }

    /// Compile through a two-tier persistent cache (memory over a durable
    /// store); see [`vv_simcompiler::PersistentCache`]. This only covers
    /// the compile stage — pair it with [`Self::artifact_store`] (usually
    /// over the same store) for whole-record persistence.
    pub fn persistent_compile(self, persist: Arc<PersistentCache>) -> Self {
        self.compile_backend(SimCompileBackend::persistent(persist))
    }

    /// Pace the judge stage: sleep `latency_ms × scale` after every
    /// judgement, realizing the simulated latency as wall-clock time (see
    /// [`crate::backend::PacedJudge`]). `0.0` disables pacing. Applied
    /// around whichever judge backend is in effect, custom or default;
    /// records are unchanged — only timing is.
    pub fn judge_pacing(mut self, scale: f64) -> Self {
        self.judge_pacing = Some(scale);
        self
    }

    /// Attach a durable artifact store. Two layers light up:
    ///
    /// * the *default* compile backend becomes persistent (memory cache
    ///   over this store), so recurring sources skip the frontend across
    ///   processes;
    /// * if every stage backend states a configuration fingerprint (the
    ///   defaults all do), completed [`CaseRecord`]s are persisted under
    ///   `(mode, fingerprints, model, lang, source)` and replayed wholesale
    ///   on re-runs — see [`crate::persist::RecordStore`].
    pub fn artifact_store(mut self, store: Arc<ArtifactStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Plug in a custom execute backend.
    pub fn exec_backend(mut self, backend: impl ExecBackend + 'static) -> Self {
        self.exec = Some(Arc::new(backend));
        self
    }

    /// Plug in a custom judge backend (replaces the surrogate judge that
    /// would otherwise be built from the config's style/profile/seed).
    pub fn judge_backend(mut self, backend: impl JudgeBackend + 'static) -> Self {
        self.judge = Some(Arc::new(backend));
        self
    }

    /// Finalize the service. Unset backends fall back to the simulated
    /// substrates configured by the [`PipelineConfig`].
    pub fn build(self) -> ValidationService {
        let mut judge = self.judge.unwrap_or_else(|| {
            Arc::new(SurrogateJudgeBackend::new(
                self.config.judge_profile.clone(),
                self.config.judge_style,
                self.config.judge_seed,
            ))
        });
        if let Some(scale) = self.judge_pacing.filter(|s| *s > 0.0) {
            judge = Arc::new(PacedJudge::new(judge, scale));
        }
        let exec = self
            .exec
            .unwrap_or_else(|| Arc::new(SimExecBackend::default()));
        let compile = self.compile.unwrap_or_else(|| {
            let cache = CompileCache::shared();
            Arc::new(match &self.store {
                Some(store) => SimCompileBackend::persistent(Arc::new(PersistentCache::new(
                    cache,
                    Arc::clone(store),
                ))),
                None => SimCompileBackend::cached(cache),
            })
        });
        // Whole-record persistence requires every stage to pin its
        // configuration; one abstaining backend disables the layer.
        let record_store = self.store.as_ref().and_then(|store| {
            let compile_fp = compile.fingerprint()?;
            let exec_fp = exec.fingerprint()?;
            let judge_fp = judge.fingerprint()?;
            Some(Arc::new(RecordStore::new(
                Arc::clone(store),
                self.config.mode,
                &compile_fp,
                &exec_fp,
                &judge_fp,
            )))
        });
        ValidationService {
            stages: Arc::new(Stages {
                mode: self.config.mode,
                compile,
                exec,
                judge,
                record_store,
            }),
            config: self.config,
            strategy: self.strategy,
        }
    }
}

/// The validation service (see the module docs).
#[derive(Clone)]
pub struct ValidationService {
    config: PipelineConfig,
    strategy: ExecutionStrategy,
    stages: Arc<Stages>,
}

impl std::fmt::Debug for ValidationService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ValidationService")
            .field("config", &self.config)
            .field("strategy", &self.strategy)
            .field("compile", &self.stages.compile.name())
            .field("exec", &self.stages.exec.name())
            .field("judge", &self.stages.judge.name())
            .finish()
    }
}

impl Default for ValidationService {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl ValidationService {
    /// A builder with default config, strategy and backends.
    pub fn builder() -> ValidationServiceBuilder {
        ValidationServiceBuilder::default()
    }

    /// The effective configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The whole-record persistence layer, when active (an artifact store
    /// was attached and every stage backend stated a fingerprint). A
    /// budgeted incremental campaign asks it which cases the store already
    /// holds, so that only missing ones draw on the validation budget.
    pub fn record_store(&self) -> Option<&Arc<RecordStore>> {
        self.stages.record_store.as_ref()
    }

    /// Batch entry point: run `items` to completion and return the records
    /// in submission order plus aggregate statistics.
    pub fn run(&self, items: Vec<WorkItem>) -> PipelineRun {
        self.submit(items).into_run()
    }

    /// Streaming entry point for corpus pipelines: drain a
    /// [`CaseSource`] directly. Generation (and probing, when the source
    /// includes a `probe` stage) happens lazily on the executor's workers
    /// as the in-flight window admits more work, so generation → compile →
    /// execute → judge runs end-to-end in constant memory — the suite is
    /// never materialized, whatever its size.
    pub fn submit_source<S>(&self, source: S) -> RecordStream
    where
        S: CaseSource + Send + 'static,
    {
        self.submit(source.into_cases().map(WorkItem::from))
    }

    /// Drain a [`CaseSource`] to completion and return the records in
    /// stream order plus aggregate statistics (the batch counterpart of
    /// [`ValidationService::submit_source`]). The records are materialized,
    /// so prefer `submit_source` for very large corpora.
    pub fn run_source<S>(&self, source: S) -> PipelineRun
    where
        S: CaseSource + Send + 'static,
    {
        self.submit_source(source).into_run()
    }

    /// Streaming entry point: feed an iterator of work items, get an
    /// iterator of records in submission order. Input is pulled lazily
    /// under the in-flight window, so memory stays constant for
    /// arbitrarily large suites.
    pub fn submit<I>(&self, items: I) -> RecordStream
    where
        I: IntoIterator<Item = WorkItem>,
        I::IntoIter: Send + 'static,
    {
        let started = Instant::now();
        let stats = Arc::new(Mutex::new(PipelineStats::default()));
        RecordStream {
            executor: crate::parallel::spawn(
                Arc::clone(&self.stages),
                items.into_iter(),
                &stats,
                self.config.channel_capacity.max(1),
                self.strategy.workers(),
            ),
            stats,
            started,
            finished: None,
            record_store: self.stages.record_store.clone(),
        }
    }

    /// Synchronous per-case entry point for external schedulers (the
    /// validation server's tenant-fair worker pool dispatches through
    /// this): run every stage for one item on the calling thread, then
    /// fold its counters into `stats` under one lock.
    ///
    /// The stage rules — including the record-store replay/persist layer —
    /// are the executor's, so the returned record is byte-identical to what
    /// [`ValidationService::submit`] would have produced for the same item,
    /// whatever thread or order an external scheduler picks.
    pub fn process_case(&self, item: &WorkItem, stats: &Mutex<PipelineStats>) -> CaseRecord {
        let mut local = PipelineStats::default();
        let record = self.stages.run(item, &mut local);
        stats.lock().merge(&local);
        record
    }
}

/// Streaming result iterator returned by [`ValidationService::submit`].
///
/// Yields each [`CaseRecord`] in submission order. After the iterator is
/// exhausted, [`RecordStream::stats`] reports the final aggregate
/// statistics. Dropping the stream early cancels the remaining work: the
/// worker threads observe the cancel flag and exit, and the unprocessed
/// tail of the input iterator is never pulled.
///
/// A panic inside a backend is not lost: it is captured when the worker is
/// reaped and resumed on the consuming thread (from `next()` returning
/// `None`, from [`RecordStream::into_run`], or from `drop`).
pub struct RecordStream {
    executor: Executor,
    stats: Arc<Mutex<PipelineStats>>,
    started: Instant,
    finished: Option<std::time::Duration>,
    /// Flushed when the stream completes, so every record processed
    /// through a finished stream is durable.
    record_store: Option<Arc<RecordStore>>,
}

impl RecordStream {
    /// A snapshot of the statistics so far. `wall_time` is the time since
    /// `submit` was called, latched at completion once the stream is
    /// exhausted (so the snapshot is final and stable from then on).
    ///
    /// The per-case counters live in worker-private accumulators merged
    /// when each worker retires (no shared mutable state on the case
    /// path), so mid-run snapshots lag behind the records already yielded;
    /// the post-completion snapshot is exact.
    pub fn stats(&self) -> PipelineStats {
        let mut stats = self.stats.lock().clone();
        stats.wall_time = self.finished.unwrap_or_else(|| self.started.elapsed());
        stats
    }

    /// Drain the stream into a [`PipelineRun`].
    ///
    /// Records already consumed through `next()` cannot be recovered: the
    /// run contains only the *remaining* records, while the statistics
    /// still count every processed file. Call this before iterating (as
    /// [`ValidationService::run`] does) to get the complete batch.
    pub fn into_run(mut self) -> PipelineRun {
        let records = self.by_ref().collect();
        PipelineRun::new(records, self.stats())
    }

    /// Reap the worker threads, latch the wall time, flush the record
    /// store, and return the first worker panic (if any).
    fn finish(&mut self) -> Option<Box<dyn std::any::Any + Send + 'static>> {
        let panic = self.executor.join();
        self.finished.get_or_insert_with(|| self.started.elapsed());
        if let Some(store) = &self.record_store {
            store.flush();
        }
        panic
    }
}

impl Iterator for RecordStream {
    type Item = CaseRecord;

    fn next(&mut self) -> Option<CaseRecord> {
        if self.finished.is_some() {
            return None;
        }
        let record = self.executor.recv();
        if record.is_none() {
            // Reap the threads so `stats()` is final (and any backend panic
            // surfaces) when `next` returns `None`.
            if let Some(payload) = self.finish() {
                std::panic::resume_unwind(payload);
            }
        }
        record
    }
}

impl Drop for RecordStream {
    fn drop(&mut self) {
        self.executor.cancel();
        let panic = self.finish();
        // Surface a backend panic even on early drop, but never while this
        // thread is already unwinding (a double panic would abort).
        if let Some(payload) = panic {
            if !std::thread::panicking() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}
