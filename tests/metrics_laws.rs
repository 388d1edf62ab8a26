//! Merge laws of the streaming metrics accumulators.
//!
//! Property-style checks (deterministic seed sweeps, per the workspace's
//! offline-test convention) mirroring the corpus layer's shard-union tests
//! in `tests/corpus_source.rs`:
//!
//! * merge is associative and commutative with `Default::default()` as the
//!   identity, for every accumulator in `vv_metrics::accumulate`;
//! * a shard-merged fold is byte-identical to the unsharded fold for shard
//!   counts n ∈ {1, 2, 4} — over real probed-corpus records, not synthetic
//!   ones, so the law composes with the corpus shard-union law.

use vv_corpus::CaseSource;
use vv_judge::{JudgeOutcome, Verdict};
use vv_metrics::{
    per_issue, Accumulator, EvaluationRecord, LatencyHistogram, LatencyTokenSummary, MetricsSink,
    OverallAccumulator, PerIssueAccumulator, RadarAccumulator,
};
use vv_probing::{CorpusSpec, IssueKind};

/// Deterministic record stream: real probed-corpus ground truth with a
/// seeded surrogate verdict (the laws are about the fold, not the judge).
fn corpus_records(seed: u64, count: usize) -> Vec<EvaluationRecord> {
    CorpusSpec::new(vv_dclang::DirectiveModel::OpenAcc)
        .seed(seed)
        .probe_seed(seed ^ 0x4C_41_57)
        .size(count)
        .source()
        .into_cases()
        .enumerate()
        .map(|(i, case)| {
            let verdict = match (i + seed as usize) % 5 {
                0 | 1 => Some(Verdict::Valid),
                2 | 3 => Some(Verdict::Invalid),
                _ => None,
            };
            EvaluationRecord::new(case.case.id.clone(), IssueKind::of_case(&case), verdict)
        })
        .collect()
}

/// Assert the identity / commutativity / associativity laws of one
/// accumulator type over one observation stream.
fn assert_merge_laws<T, A>(items: &[T])
where
    A: Accumulator<T> + Clone + PartialEq + std::fmt::Debug,
{
    let whole: A = Accumulator::fold(items);

    // Identity, both ways.
    let mut left_identity = A::default();
    left_identity.merge(&whole);
    assert_eq!(left_identity, whole, "default ⊕ x = x");
    let mut right_identity = whole.clone();
    right_identity.merge(&A::default());
    assert_eq!(right_identity, whole, "x ⊕ default = x");

    // Commutativity and fold/merge exchange over every tested split.
    for split in [0, 1, items.len() / 3, items.len() / 2, items.len()] {
        let (left, right) = items.split_at(split);
        let a: A = Accumulator::fold(left);
        let b: A = Accumulator::fold(right);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, whole, "fold(l) ⊕ fold(r) = fold(all), split {split}");
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ba, whole, "merge commutes, split {split}");
    }

    // Associativity over thirds.
    let third = items.len() / 3;
    let (a, rest) = items.split_at(third);
    let (b, c) = rest.split_at(third);
    let (a, b, c): (A, A, A) = (
        Accumulator::fold(a),
        Accumulator::fold(b),
        Accumulator::fold(c),
    );
    let mut left_tree = a.clone();
    left_tree.merge(&b);
    left_tree.merge(&c);
    let mut right_tree = b.clone();
    right_tree.merge(&c);
    let mut a_then_right = a.clone();
    a_then_right.merge(&right_tree);
    assert_eq!(left_tree, a_then_right, "(a ⊕ b) ⊕ c = a ⊕ (b ⊕ c)");
}

#[test]
fn record_accumulators_satisfy_the_merge_laws() {
    for seed in [1u64, 7, 42] {
        let records = corpus_records(seed, 90);
        assert_merge_laws::<_, PerIssueAccumulator>(&records);
        assert_merge_laws::<_, OverallAccumulator>(&records);
        assert_merge_laws::<_, RadarAccumulator>(&records);
        assert_merge_laws::<_, MetricsSink>(&records);
    }
}

#[test]
fn latency_accumulators_satisfy_the_merge_laws() {
    // Inference-cost-model-shaped latencies: base + per-token costs.
    let latencies: Vec<f64> = (0..240)
        .map(|i| 120.0 + 0.5 * ((i * 31) % 900) as f64 + 28.0 * ((i * 7) % 200) as f64)
        .collect();
    assert_merge_laws::<_, LatencyHistogram>(&latencies);

    let outcomes: Vec<JudgeOutcome> = latencies
        .iter()
        .enumerate()
        .map(|(i, &latency_ms)| JudgeOutcome {
            prompt: Default::default(),
            response: Default::default(),
            verdict: if i % 11 == 0 {
                None
            } else {
                Some(Verdict::Valid)
            },
            prompt_tokens: (i * 31) % 900,
            response_tokens: (i * 7) % 200,
            latency_ms,
        })
        .collect();
    assert_merge_laws::<_, LatencyTokenSummary>(&outcomes);
}

#[test]
fn shard_merged_metrics_are_byte_identical_to_the_unsharded_fold() {
    // The analysis-side mirror of the corpus shard-union law: fold each
    // round-robin shard independently, merge, and compare byte-for-byte —
    // accumulator state, derived rows, stats and series alike.
    let records = corpus_records(2024, 120);
    let whole: MetricsSink = Accumulator::fold(&records);
    for n in [1usize, 2, 4] {
        let mut merged = MetricsSink::default();
        for k in 0..n {
            let shard: Vec<&EvaluationRecord> = records.iter().skip(k).step_by(n).collect();
            let mut sink = MetricsSink::default();
            for record in shard {
                sink.observe(record);
            }
            merged.merge(&sink);
        }
        assert_eq!(merged, whole, "n = {n}");
        assert_eq!(merged.per_issue_rows(), whole.per_issue_rows(), "n = {n}");
        assert_eq!(merged.overall_stats(), whole.overall_stats(), "n = {n}");
        assert_eq!(merged.radar_series(), whole.radar_series(), "n = {n}");
        // ...and both equal the legacy batch computation.
        assert_eq!(merged.per_issue_rows(), per_issue(&records), "n = {n}");
    }
}

#[test]
fn latency_quantiles_are_identical_across_shard_merges() {
    let latencies: Vec<f64> = (0..360)
        .map(|i| 120.0 + 28.0 * ((i * 13) % 250) as f64)
        .collect();
    let whole: LatencyHistogram = Accumulator::fold(&latencies);
    for n in [2usize, 4] {
        let mut merged = LatencyHistogram::default();
        for k in 0..n {
            let shard: Vec<f64> = latencies.iter().copied().skip(k).step_by(n).collect();
            merged.merge(&Accumulator::fold(&shard));
        }
        assert_eq!(merged.p50(), whole.p50(), "n = {n}");
        assert_eq!(merged.p95(), whole.p95(), "n = {n}");
        assert_eq!(merged.p99(), whole.p99(), "n = {n}");
        assert_eq!(merged.max_ms(), whole.max_ms(), "n = {n}");
        assert_eq!(merged.count(), whole.count(), "n = {n}");
    }
}
