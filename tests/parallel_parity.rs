//! Worker-count parity and shutdown laws of the executor, the one
//! scheduler behind `ValidationService::submit`, whose workers each take
//! whole cases through every stage.
//!
//! The contract under test, at release scale:
//!
//! * **Byte identity** — the reference is
//!   `ValidationService::process_case` called in a loop on the test
//!   thread, with no executor threads. For every worker count the
//!   executor produces records equal to it (full `CaseRecord` equality,
//!   every captured field), in both pipeline modes, through `run`,
//!   `run_source`, `submit` and `submit_source`; and a warm
//!   executor replay from an artifact store equals a cold `process_case`
//!   run, both from the buffers the cold run's `put`s made and from the
//!   buffers a reopened store loaded from its segments;
//! * **Submission order** — the executor's `RecordStream` yields records
//!   in submission order (its reorder buffer releases ordinal `n + 1` only
//!   after `n`);
//! * **Exact histogram merge** — per-worker judge-latency histograms merge
//!   into exactly the reference's histogram (the accumulator-merge law
//!   applied to per-worker private stats). Float *sums* of simulated
//!   latency are intentionally not asserted — f64 addition is not
//!   order-stable across schedules;
//! * **Clean shutdown** — dropping the stream mid-run (any worker count)
//!   leaves no deadlocked or leaked worker: the drop returns, the lazy
//!   input tail is never pulled, and the service remains usable.
//!
//! Cache hit/miss *totals* are schedule-dependent under concurrency (two
//! workers can race-miss the same address), so the cache law asserted here
//! is conservation — `hits + misses == compiled` — not equality with the
//! reference's split.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use vv_corpus::CaseSource;
use vv_dclang::DirectiveModel;
use vv_pipeline::{
    CaseRecord, ExecutionStrategy, PipelineMode, PipelineRun, PipelineStats, ValidationService,
    ValidationServiceBuilder, WorkItem,
};
use vv_probing::{CorpusSpec, ProbeConfig};
use vv_store::ArtifactStore;

/// Release runs exercise the executor at scale (≥10k mixed cases); debug
/// builds keep the suite fast.
const SCALE: usize = if cfg!(debug_assertions) { 120 } else { 10_000 };

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A mixed corpus: half the cases carry probing mutations, so compile
/// failures, exec failures and judge rejections all occur and every
/// early-exit path is taken.
fn mixed_spec(model: DirectiveModel, size: usize, seed: u64) -> CorpusSpec {
    let mut probe = ProbeConfig::with_seed(seed ^ 0xA5A5);
    probe.mutated_fraction = 0.5;
    CorpusSpec::new(model).seed(seed).probe(probe).size(size)
}

fn mixed_items(model: DirectiveModel, size: usize, seed: u64) -> Vec<WorkItem> {
    mixed_spec(model, size, seed)
        .source()
        .into_cases()
        .map(WorkItem::from)
        .collect()
}

fn builder(mode: PipelineMode, workers: usize) -> ValidationServiceBuilder {
    ValidationService::builder()
        .mode(mode)
        .strategy(ExecutionStrategy::Pipelined { workers })
}

/// The reference run: `process_case` in a loop on the calling thread.
fn process_cases(service: &ValidationService, items: &[WorkItem]) -> PipelineRun {
    let stats = Mutex::new(PipelineStats::default());
    let records = items
        .iter()
        .map(|item| service.process_case(item, &stats))
        .collect();
    PipelineRun::new(records, stats.into_inner())
}

fn reference(mode: PipelineMode, items: &[WorkItem]) -> PipelineRun {
    process_cases(&builder(mode, 1).build(), items)
}

#[test]
fn pipelined_is_byte_identical_to_sequential_across_workers_and_shards() {
    for (model, size, seed) in [
        (DirectiveModel::OpenAcc, SCALE, 0xBEEF),
        (DirectiveModel::OpenMp, SCALE / 4, 0xBEEF),
    ] {
        let spec = mixed_spec(model, size, seed);
        let items: Vec<WorkItem> = spec.source().into_cases().map(WorkItem::from).collect();
        for mode in [PipelineMode::EarlyExit, PipelineMode::RecordAll] {
            let reference = reference(mode, &items);
            assert_eq!(reference.records.len(), items.len());
            // Mixed corpus sanity: the parity claim is vacuous unless every
            // stage actually rejects something.
            if size == SCALE {
                assert!(reference.stats.compile_failures > 0, "no compile failures");
            }

            for workers in WORKER_COUNTS {
                // Entry points: `run_source` streams the corpus straight in
                // (generation → probing → validation, no materialized
                // suite), `run` takes the materialized items. Two runs per
                // worker count equal to one reference also make reruns
                // deterministic.
                for entry in ["run_source", "run"] {
                    let service = builder(mode, workers).build();
                    let run = match entry {
                        "run_source" => service.run_source(spec.source()),
                        _ => service.run(items.clone()),
                    };
                    assert_eq!(
                        reference.records, run.records,
                        "{model} seed={seed} {mode:?} workers={workers} {entry} \
                         diverged from process_case"
                    );
                    assert_eq!(
                        run.stats.compile_cache_hits + run.stats.compile_cache_misses,
                        run.stats.compiled,
                        "{model} {mode:?} workers={workers} {entry}: cache counter \
                         conservation"
                    );
                }
            }
        }
    }
}

#[test]
fn streaming_submit_matches_the_batch_run() {
    let items = mixed_items(DirectiveModel::OpenMp, 30, 2024);
    let service = ValidationService::builder()
        .mode(PipelineMode::RecordAll)
        .build();

    let batch = service.run(items.clone());

    // submit() yields in submission order: the streamed records are
    // exactly the batch records, and the final stream stats agree on every
    // counter (wall time differs by construction).
    let mut stream = service.submit(items.clone());
    let streamed: Vec<CaseRecord> = stream.by_ref().collect();
    assert_eq!(streamed, batch.records);
    let stream_stats = stream.stats();
    assert_eq!(stream_stats.submitted, batch.stats.submitted);
    assert_eq!(stream_stats.judged, batch.stats.judged);
    assert_eq!(stream_stats.compile_failures, batch.stats.compile_failures);
}

#[test]
fn warm_executor_replay_equals_a_cold_process_case_run() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("vv-parallel-parity-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let items = mixed_items(DirectiveModel::OpenAcc, SCALE.min(1_000), 0x5707);
    for mode in [PipelineMode::EarlyExit, PipelineMode::RecordAll] {
        let store = ArtifactStore::open_shared(&dir).expect("open store");
        let cold = {
            let service = builder(mode, 1).artifact_store(Arc::clone(&store)).build();
            let cold = process_cases(&service, &items);
            service.record_store().expect("record store").flush();
            cold
        };
        assert_eq!(cold.stats.store_hits + cold.stats.store_misses, items.len());
        assert_eq!(
            cold.records,
            reference(mode, &items).records,
            "{mode:?}: the store layer changed a cold record"
        );

        // First from the buffers the cold run's puts made, then, after a
        // drop and reopen, from the buffers open loaded from the segments:
        // the replay must also come from durable state.
        assert_warm_replay_equals(mode, "put", &store, &items, &cold);
        drop(store);
        let store = ArtifactStore::open_shared(&dir).expect("reopen store");
        assert_warm_replay_equals(mode, "reopened", &store, &items, &cold);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replay `items` from `store` at every worker count and compare with the
/// cold run that stored them.
fn assert_warm_replay_equals(
    mode: PipelineMode,
    buffers: &str,
    store: &Arc<ArtifactStore>,
    items: &[WorkItem],
    cold: &PipelineRun,
) {
    for workers in WORKER_COUNTS {
        let warm = builder(mode, workers)
            .artifact_store(Arc::clone(store))
            .build()
            .run(items.to_vec());
        assert_eq!(
            warm.stats.store_hits,
            items.len(),
            "{mode:?} {buffers} workers={workers}: not every case replayed"
        );
        assert_eq!(
            cold.records, warm.records,
            "{mode:?} {buffers} workers={workers}: warm replay diverged from the cold run"
        );
    }
}

#[test]
fn per_worker_judge_latency_histograms_merge_exactly() {
    // RecordAll judges every case, maximizing the histogram mass.
    let items = mixed_items(DirectiveModel::OpenMp, SCALE / 2, 0xD00D);
    let reference = reference(PipelineMode::RecordAll, &items);
    for workers in WORKER_COUNTS {
        let run = builder(PipelineMode::RecordAll, workers)
            .build()
            .run(items.clone());
        assert_eq!(run.stats.judged, reference.stats.judged);
        assert_eq!(
            run.stats.judge_latency, reference.stats.judge_latency,
            "workers={workers}: merged per-worker histogram differs from process_case"
        );
        // Exact merge implies exact quantiles.
        assert_eq!(
            run.stats.judge_latency_p95(),
            reference.stats.judge_latency_p95()
        );
    }
}

#[test]
fn pipelined_stream_yields_records_in_submission_order() {
    let items = mixed_items(DirectiveModel::OpenAcc, SCALE.min(2000), 7);
    let expected_ids: Vec<String> = items.iter().map(|item| item.id.clone()).collect();
    for workers in [2, 8] {
        let service = builder(PipelineMode::RecordAll, workers).build();
        let yielded: Vec<String> = service
            .submit(items.clone())
            .map(|record: CaseRecord| record.id)
            .collect();
        assert_eq!(
            yielded, expected_ids,
            "workers={workers}: stream order is not submission order"
        );
    }
}

#[test]
fn dropping_the_stream_mid_run_shuts_down_cleanly() {
    // The assertions here are (a) this test returning at all — a deadlocked
    // or leaked worker would hang the drop or the process — and (b) the
    // lazy input tail never being pulled once the consumer is gone.
    let items = mixed_items(DirectiveModel::OpenAcc, SCALE.max(1000), 0xACE);
    let total = items.len();
    for workers in WORKER_COUNTS {
        for taken in [0usize, 1, 7, 64] {
            let pulled = Arc::new(AtomicUsize::new(0));
            let counter = Arc::clone(&pulled);
            let lazy = items.clone().into_iter().inspect(move |_| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
            let service = builder(PipelineMode::RecordAll, workers)
                .channel_capacity(4)
                .build();
            let mut stream = service.submit(lazy);
            for _ in 0..taken {
                assert!(
                    stream.next().is_some(),
                    "stream ended before {taken} records"
                );
            }
            drop(stream);
            let consumed = pulled.load(Ordering::SeqCst);
            assert!(
                consumed < total,
                "workers={workers} taken={taken}: input was fully materialized \
                 ({consumed}/{total} pulled)"
            );
        }
        // The service survives abandoned streams: a fresh full run still
        // completes and accounts for every submission.
        let service = builder(PipelineMode::RecordAll, workers).build();
        let rerun = service.run(items.clone());
        assert_eq!(rerun.records.len(), total);
    }
}
