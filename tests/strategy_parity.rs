//! Execution-strategy parity at debug scale: every
//! `ExecutionStrategy::Pipelined { workers }` of the `ValidationService`
//! must produce **byte-identical** `CaseRecord`s — same verdicts, same
//! summaries, same judge prompts and responses — to
//! `ValidationService::process_case` called in a loop on the test thread,
//! for the same seeds and inputs, in both `EarlyExit` and `RecordAll`
//! modes. This is the contract that lets benchmarks vary the worker count
//! without re-validating semantics, and it is asserted here over full
//! record equality (`CaseRecord: PartialEq` covers every captured field).
//! `tests/parallel_parity.rs` checks the same laws at release scale.

use parking_lot::Mutex;
use vv_corpus::CaseSource;
use vv_dclang::DirectiveModel;
use vv_pipeline::{
    CaseRecord, ExecutionStrategy, PipelineMode, PipelineStats, ValidationService,
    ValidationServiceBuilder, WorkItem,
};
use vv_probing::CorpusSpec;

/// The default (all cores) plus explicit worker counts.
const STRATEGIES: [ExecutionStrategy; 4] = [
    ExecutionStrategy::Pipelined { workers: 0 },
    ExecutionStrategy::Pipelined { workers: 1 },
    ExecutionStrategy::Pipelined { workers: 2 },
    ExecutionStrategy::Pipelined { workers: 3 },
];

fn probed_spec(model: DirectiveModel, size: usize, seed: u64) -> CorpusSpec {
    CorpusSpec::new(model)
        .seed(seed)
        .probe_seed(seed ^ 0xA5A5)
        .size(size)
}

fn probed_items(model: DirectiveModel, size: usize, seed: u64) -> Vec<WorkItem> {
    probed_spec(model, size, seed)
        .source()
        .into_cases()
        .map(WorkItem::from)
        .collect()
}

fn builder(mode: PipelineMode, strategy: ExecutionStrategy) -> ValidationServiceBuilder {
    ValidationService::builder().mode(mode).strategy(strategy)
}

fn records_for(
    mode: PipelineMode,
    strategy: ExecutionStrategy,
    items: &[WorkItem],
) -> Vec<CaseRecord> {
    builder(mode, strategy).build().run(items.to_vec()).records
}

/// The reference: `process_case` in a loop, no executor threads.
fn sequential_records(mode: PipelineMode, items: &[WorkItem]) -> Vec<CaseRecord> {
    let service = builder(mode, ExecutionStrategy::default()).build();
    let stats = Mutex::new(PipelineStats::default());
    items
        .iter()
        .map(|item| service.process_case(item, &stats))
        .collect()
}

#[test]
fn strategies_produce_byte_identical_records_in_both_modes() {
    for model in [DirectiveModel::OpenAcc, DirectiveModel::OpenMp] {
        let items = probed_items(model, 36, 4711);
        for mode in [PipelineMode::EarlyExit, PipelineMode::RecordAll] {
            let reference = sequential_records(mode, &items);
            assert_eq!(reference.len(), items.len());
            for strategy in STRATEGIES {
                let candidate = records_for(mode, strategy, &items);
                assert_eq!(
                    reference, candidate,
                    "{model} {mode:?}: {strategy:?} diverged from process_case"
                );
            }
        }
    }
}

#[test]
fn strategies_produce_byte_identical_records_through_submit_source() {
    // Same contract as above, but with the corpus streamed straight into
    // the service (generation → probing → validation, no materialized
    // suite): every strategy must produce the same records, and they must
    // equal the records of the materialized item path.
    let spec = probed_spec(DirectiveModel::OpenAcc, 32, 9182);
    for mode in [PipelineMode::EarlyExit, PipelineMode::RecordAll] {
        let via_items = sequential_records(mode, &probed_items(DirectiveModel::OpenAcc, 32, 9182));
        for strategy in STRATEGIES {
            let streamed = builder(mode, strategy)
                .build()
                .run_source(spec.source())
                .records;
            assert_eq!(
                via_items, streamed,
                "{mode:?}: {strategy:?} via submit_source diverged"
            );
        }
    }
}

#[test]
fn reruns_are_deterministic_per_strategy() {
    let items = probed_items(DirectiveModel::OpenAcc, 24, 99);
    for strategy in STRATEGIES {
        let first = records_for(PipelineMode::RecordAll, strategy, &items);
        let second = records_for(PipelineMode::RecordAll, strategy, &items);
        assert_eq!(
            first, second,
            "{strategy:?} is not deterministic across runs"
        );
    }
}

#[test]
fn streaming_handles_lazily_generated_unbounded_style_input() {
    // The iterator is consumed lazily through the in-flight window: feed a
    // generator that would be wasteful to materialize, stop consuming after
    // a prefix, and drop the stream — the tail must never be produced.
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let items = probed_items(DirectiveModel::OpenAcc, 200, 31);
    let pulled = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&pulled);
    let lazy = items.into_iter().inspect(move |_| {
        counter.fetch_add(1, Ordering::SeqCst);
    });

    let service = ValidationService::builder()
        .channel_capacity(2)
        .strategy(ExecutionStrategy::Pipelined { workers: 1 })
        .build();
    let mut stream = service.submit(lazy);
    for _ in 0..5 {
        assert!(stream.next().is_some());
    }
    drop(stream);

    let consumed = pulled.load(Ordering::SeqCst);
    assert!(
        consumed < 200,
        "lazy input was fully materialized ({consumed}/200 items pulled)"
    );
}
