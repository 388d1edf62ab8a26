//! Determinism contracts of the streaming corpus API.
//!
//! * `shard(k, n)` is reproducible per shard and its union across any shard
//!   count n ∈ {1, 2, 4} is byte-identical to the unsharded stream;
//! * a large generated+probed corpus streams through `submit_source`
//!   lazily — the tail of the stream is never generated when the consumer
//!   stops early;
//! * generated corpora nest far below the parser's nesting limit, so the
//!   limit never rejects a generated case;
//! * the bytes of generated and probed cases are pinned by one digest, so
//!   a faster emitter or mutation engine must reproduce them exactly.

use vv_corpus::source::split_seed;
use vv_corpus::{CaseSource, GeneratedCase, RandomCodeSource, TemplateSource};
use vv_dclang::DirectiveModel;
use vv_pipeline::{ExecutionStrategy, ValidationService};
use vv_probing::{CorpusSpec, IssueKind, ProbeConfig, ProbeExt};

const MODELS: [DirectiveModel; 2] = [DirectiveModel::OpenAcc, DirectiveModel::OpenMp];

fn probed_spec(model: DirectiveModel, size: usize, seed: u64) -> CorpusSpec {
    CorpusSpec::new(model)
        .seed(seed)
        .probe_seed(seed ^ 0x50_52_4F_42)
        .size(size)
}

#[test]
fn shard_union_is_byte_identical_for_one_two_and_four_shards() {
    let size = 48;
    for model in MODELS {
        let base = probed_spec(model, size, 2024);
        let full: Vec<GeneratedCase> = base.source().into_cases().collect();
        assert_eq!(full.len(), size);
        for n in [1usize, 2, 4] {
            // Each shard is produced by its own independent pipeline, as a
            // distributed worker would do.
            let shards: Vec<Vec<GeneratedCase>> = (0..n)
                .map(|k| base.clone().shard(k, n).source().into_cases().collect())
                .collect();
            let mut union = Vec::with_capacity(size);
            for i in 0..size {
                union.push(shards[i % n][i / n].clone());
            }
            assert_eq!(union, full, "{model:?}: union of {n} shards diverged");
        }
    }
}

#[test]
fn shards_are_reproducible_in_isolation() {
    // Generating shard 3 of 4 twice — without touching the other shards —
    // must give the same bytes, and the shard's cases must carry the ids of
    // the unsharded stream positions it owns.
    let base = probed_spec(DirectiveModel::OpenAcc, 40, 7);
    let full: Vec<GeneratedCase> = base.source().into_cases().collect();
    let once: Vec<GeneratedCase> = base.clone().shard(3, 4).source().into_cases().collect();
    let twice: Vec<GeneratedCase> = base.clone().shard(3, 4).source().into_cases().collect();
    assert_eq!(once, twice);
    assert_eq!(once.len(), 10);
    for (j, case) in once.iter().enumerate() {
        assert_eq!(case, &full[3 + 4 * j], "shard element {j}");
    }
}

#[test]
fn probe_split_law_holds_for_every_prefix() {
    // Among the first n cases of a probed stream, exactly round(n * 0.5)
    // are mutated for every even n, and within one for odd n — the
    // streaming analogue of the paper's shuffle-and-split.
    let cases: Vec<GeneratedCase> = probed_spec(DirectiveModel::OpenMp, 75, 5)
        .source()
        .into_cases()
        .collect();
    for n in 1..=cases.len() {
        let mutated = cases[..n]
            .iter()
            .filter(|c| !c.ground_truth_valid())
            .count();
        let expected = ((n as f64) * 0.5 + 0.5).floor() as usize;
        if n % 2 == 0 {
            assert_eq!(mutated, expected, "even prefix {n}");
        } else {
            assert!(
                mutated == expected || mutated + 1 == expected,
                "odd prefix {n}: {mutated} vs expected {expected}"
            );
        }
    }
}

#[test]
fn interleaved_streams_both_receive_mutations() {
    // probe() after a period-2 interleave: the pairwise split coin must
    // spread mutations over both underlying streams instead of pinning one
    // stream to "always mutated" (the failure mode of a fixed-parity
    // split).
    let a = TemplateSource::new(DirectiveModel::OpenAcc, 21).take(40);
    let b = TemplateSource::new(DirectiveModel::OpenAcc, 22).take(40);
    let cases: Vec<GeneratedCase> = a
        .interleave(b)
        .probe(ProbeConfig::with_seed(23))
        .into_cases()
        .collect();
    assert_eq!(cases.len(), 80);
    for side in 0..2usize {
        let of_side: Vec<&GeneratedCase> = cases.iter().skip(side).step_by(2).collect();
        assert!(
            of_side.iter().any(|c| c.ground_truth_valid()),
            "side {side}"
        );
        assert!(
            of_side.iter().any(|c| !c.ground_truth_valid()),
            "side {side}"
        );
    }
}

#[test]
fn mixed_sources_compose_and_tag_ground_truth() {
    // Interleave a probed template stream with known-invalid random-code
    // cases: the composition streams fine and every case carries usable
    // ground truth.
    let template = TemplateSource::new(DirectiveModel::OpenAcc, 10)
        .probe(ProbeConfig::with_seed(11))
        .take(10);
    let noise = RandomCodeSource::new(DirectiveModel::OpenAcc, 12).take(5);
    let cases: Vec<GeneratedCase> = template.interleave(noise).into_cases().collect();
    assert_eq!(cases.len(), 15);
    let replaced = cases
        .iter()
        .filter(|c| IssueKind::of_case(c) == IssueKind::ReplacedWithNonDirectiveCode)
        .count();
    // 5 from the random-code source, plus however many the prober drew.
    assert!(replaced >= 5);
    assert!(cases.iter().any(|c| c.ground_truth_valid()));
}

#[test]
fn generated_corpora_nest_far_below_the_parser_limit() {
    let mut deepest = 0;
    for model in MODELS {
        let probed = probed_spec(model, 400, 77).source();
        let noise = RandomCodeSource::new(model, 78).take(100);
        for case in probed.interleave(noise).into_cases() {
            if let Ok(parsed) = vv_dclang::parse_source(&case.source) {
                deepest = deepest.max(parsed.nesting);
            }
        }
    }
    assert!(deepest > 0);
    assert!(
        deepest <= vv_dclang::parser::MAX_NESTING / 4,
        "a generated case nests {deepest} levels deep"
    );
}

#[test]
fn submit_source_pulls_the_corpus_lazily() {
    // Stop consuming after a handful of records and drop the stream: the
    // 5000-case corpus must never be generated in full.
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let generated = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&generated);
    let source = probed_spec(DirectiveModel::OpenAcc, 5_000, 99)
        .source()
        .inspect(move |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
    let service = ValidationService::builder()
        .channel_capacity(2)
        .strategy(ExecutionStrategy::Pipelined { workers: 1 })
        .build();
    let mut stream = service.submit_source(source);
    for _ in 0..5 {
        assert!(stream.next().is_some());
    }
    drop(stream);
    let pulled = generated.load(Ordering::SeqCst);
    assert!(
        pulled < 5_000,
        "lazy corpus was generated in full ({pulled}/5000 cases)"
    );
}

#[test]
fn a_large_corpus_streams_through_the_service_with_bounded_buffers() {
    // A scaled-down sibling of examples/streaming_scale.rs that runs under
    // `cargo test`: generation → probing → compile → execute → judge over
    // 2000 cases with a tiny in-flight window, counting records as they
    // pass.
    let size = 2_000;
    let service = ValidationService::builder()
        .channel_capacity(8)
        .strategy(ExecutionStrategy::Pipelined { workers: 2 })
        .build();
    let mut stream = service.submit_source(probed_spec(DirectiveModel::OpenAcc, size, 1).source());
    let mut yielded = 0usize;
    while stream.next().is_some() {
        yielded += 1;
    }
    assert_eq!(yielded, size);
    let stats = stream.stats();
    assert_eq!(stats.submitted, size);
    assert_eq!(stats.compiled, size);
    assert!(stats.judged <= stats.executed);
}

/// Classic 64-bit FNV-1a, fed field by field.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A field followed by its length, so adjacent fields cannot trade
    /// bytes without changing the digest.
    fn field(&mut self, bytes: &[u8]) {
        self.bytes(bytes);
        self.bytes(&(bytes.len() as u64).to_le_bytes());
    }

    fn case(&mut self, case: &GeneratedCase) {
        self.field(case.id().as_bytes());
        self.field(case.source.as_bytes());
        self.field(case.case.source.as_bytes());
        self.field(case.note.as_bytes());
        self.field(&[case.issue_id.map_or(0xff, |id| id)]);
    }
}

#[test]
fn generated_and_probed_bytes_match_the_pinned_digest() {
    // The benchmark's corpus shape (OpenACC and OpenMP templates
    // interleaved, then probed) at three seeds and the hold-out seed, a
    // probed C-only stream and a random-code stream. Stored records are
    // keyed by these bytes, so a change that only makes generation or
    // probing faster must leave the digest as it is.
    let mut digest = Fnv1a::new();
    let mut cases = 0usize;
    for seed in [1u64, 2, 3, 424_242] {
        let stream = TemplateSource::new(DirectiveModel::OpenAcc, split_seed(seed, 1))
            .interleave(TemplateSource::new(
                DirectiveModel::OpenMp,
                split_seed(seed, 2),
            ))
            .probe(ProbeConfig::with_seed(split_seed(seed, 3)))
            .take(10_000);
        for case in stream.into_cases() {
            digest.case(&case);
            cases += 1;
        }
    }
    let c_only = CorpusSpec::new(DirectiveModel::OpenMp)
        .seed(31)
        .probe_seed(32)
        .c_only()
        .size(2_000);
    for case in c_only.source().into_cases() {
        digest.case(&case);
        cases += 1;
    }
    for case in RandomCodeSource::new(DirectiveModel::OpenAcc, 33)
        .take(1_000)
        .into_cases()
    {
        digest.case(&case);
        cases += 1;
    }
    assert_eq!(cases, 4 * 10_000 + 2_000 + 1_000);
    assert_eq!(
        digest.0, 0xd4c5_4204_1e56_a843,
        "corpus digest moved: {:#018x}",
        digest.0
    );
}
