//! Property-style tests over the full stack.
//!
//! The crates.io `proptest` harness is unavailable in the offline build
//! environment, so these properties are checked over deterministic sweeps
//! of seeds, sizes and worker counts instead of randomized
//! strategies. The invariants are the same ones the proptest version
//! asserted; the sweep grids are chosen to cover both models and a spread
//! of suite shapes.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vv_corpus::{CaseSource, GeneratedCase, TemplateSource};
use vv_dclang::DirectiveModel;
use vv_judge::Verdict;
use vv_metrics::{overall, per_issue, radar_series, EvaluationRecord};
use vv_pipeline::{CaseRecord, ExecutionStrategy, PipelineStats, ValidationService, WorkItem};
use vv_probing::{CorpusSpec, IssueKind};

fn probed_cases(model: DirectiveModel, size: usize, seed: u64) -> Vec<GeneratedCase> {
    CorpusSpec::new(model)
        .seed(seed)
        .probe_seed(seed)
        .size(size)
        .source()
        .into_cases()
        .collect()
}

const MODELS: [DirectiveModel; 2] = [DirectiveModel::OpenAcc, DirectiveModel::OpenMp];

/// Pseudo-random evaluation records driven by a seeded generator: every
/// issue id, with judge verdicts valid/invalid/unparseable.
fn arbitrary_records(seed: u64, count: usize) -> Vec<EvaluationRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let issue = IssueKind::from_id(rng.gen_range(0..6u8)).unwrap();
            let verdict = match rng.gen_range(0..3u8) {
                0 => None,
                1 => Some(Verdict::Valid),
                _ => Some(Verdict::Invalid),
            };
            EvaluationRecord::new(format!("case_{i}"), issue, verdict)
        })
        .collect()
}

#[test]
fn metrics_invariants_hold_for_arbitrary_records() {
    for seed in 0..16u64 {
        let count = (seed as usize * 13) % 200;
        let records = arbitrary_records(seed, count);

        let stats = overall(&records);
        assert!((0.0..=1.0).contains(&stats.accuracy));
        assert!((-1.0..=1.0).contains(&stats.bias));
        assert_eq!(stats.total, records.len());
        assert!(stats.mistakes <= stats.total);

        let rows = per_issue(&records);
        let total: usize = rows.iter().map(|r| r.count).sum();
        assert_eq!(total, records.len());
        for row in &rows {
            assert_eq!(row.correct + row.incorrect, row.count);
            // An empty group reports no accuracy; a populated one reports
            // a fraction in the unit interval.
            assert_eq!(row.accuracy.is_none(), row.count == 0);
            if let Some(accuracy) = row.accuracy {
                assert!((0.0..=1.0).contains(&accuracy));
            }
        }

        let radar = radar_series(&records);
        let radar_total: usize = radar.iter().map(|p| p.count).sum();
        assert_eq!(radar_total, records.len());
    }
}

#[test]
fn corpus_generation_is_deterministic_and_on_model() {
    for model in MODELS {
        for (size, seed) in [(1usize, 0u64), (7, 123), (16, 999), (23, 500)] {
            let a: Vec<GeneratedCase> = TemplateSource::new(model, seed)
                .take(size)
                .into_cases()
                .collect();
            let b: Vec<GeneratedCase> = TemplateSource::new(model, seed)
                .take(size)
                .into_cases()
                .collect();
            assert_eq!(a.len(), size);
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x, y);
                assert!(x.source.contains("#pragma"));
            }
        }
    }
}

#[test]
fn probing_always_splits_at_the_requested_fraction() {
    for model in MODELS {
        for (size, seed) in [(2usize, 0u64), (9, 77), (18, 250), (29, 499)] {
            let probed = probed_cases(model, size, seed);
            assert_eq!(probed.len(), size);
            let expected_valid = size - ((size as f64) * 0.5).round() as usize;
            let valid = probed.iter().filter(|c| c.ground_truth_valid()).count();
            if size % 2 == 0 {
                assert_eq!(valid, expected_valid);
            } else {
                // The trailing open pair may place its single mutation on
                // either side of the cut (pairwise split law).
                assert!(
                    valid == expected_valid || valid == expected_valid + 1,
                    "{model:?} size {size}: {valid} valid vs expected {expected_valid}"
                );
            }
            for case in &probed {
                if IssueKind::of_case(case) == IssueKind::NoIssue {
                    assert_eq!(case.source, case.case.source);
                } else {
                    assert_ne!(case.source, case.case.source);
                }
            }
        }
    }
}

#[test]
fn staged_pipeline_equals_sequential_for_any_worker_shape() {
    // Sweep over models, seeds and worker counts; the multi-worker
    // executor and the sequential `process_case` loop must
    // always agree on every record, and so on every verdict and on how far
    // every file progressed.
    let worker_counts = [1usize, 2, 3, 4];
    let seeds = [0u64, 59, 131, 197];
    for model in MODELS {
        for (seed, workers) in seeds.into_iter().zip(worker_counts) {
            run_parity_case(model, seed, workers);
        }
    }
}

fn run_parity_case(model: DirectiveModel, seed: u64, workers: usize) {
    let items: Vec<WorkItem> = probed_cases(model, 14, seed)
        .into_iter()
        .map(WorkItem::from)
        .collect();
    let staged = ValidationService::builder()
        .strategy(ExecutionStrategy::Pipelined { workers })
        .build()
        .run(items.clone());
    let service = ValidationService::builder().build();
    let stats = Mutex::new(PipelineStats::default());
    let sequential: Vec<CaseRecord> = items
        .iter()
        .map(|item| service.process_case(item, &stats))
        .collect();
    assert_eq!(staged.records.len(), sequential.len());
    for (a, b) in staged.records.iter().zip(&sequential) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.pipeline_verdict(), b.pipeline_verdict());
        assert_eq!(a.stage_reached(), b.stage_reached());
        assert_eq!(a, b, "{model} seed={seed} workers={workers}");
    }
}
