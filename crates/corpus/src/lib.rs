//! `vv-corpus` — a deterministic, **streaming** generator of directive-based
//! compiler validation tests.
//!
//! The paper draws its experimental population from the OpenACC V&V and
//! OpenMP V&V testsuites (hand-written C/C++/Fortran tests, one feature per
//! file, each structured as *initialize → compute with directives → verify
//! against a serial reference → exit 0/1*). Those suites are external
//! projects; this crate substitutes a generator that emits the same *kind*
//! of file:
//!
//! * one focused feature per test (parallel loops, reductions, data regions,
//!   unstructured data movement, atomics, collapse, privatization, ...);
//! * the canonical V&V shape: allocate, initialize, offload, verify, return
//!   a nonzero exit code on mismatch;
//! * realistic surface diversity (heap vs stack arrays, different variable
//!   naming schemes, array sizes, scaling constants, C vs C++ flavor,
//!   header comments) driven entirely by seedable RNGs, so suites are
//!   reproducible.
//!
//! Every generated test is *valid by construction*: it compiles under the
//! simulated vendor compiler and passes its own verification when executed
//! (`tests/` assert this invariant). Negative probing (`vv-probing`) then
//! damages copies of these files.
//!
//! # The source / combinator model
//!
//! Generation is organized around the [`CaseSource`] trait (module
//! [`source`]): a pull-based stream of [`GeneratedCase`]s that a consumer
//! drains one case at a time, so corpora of any size flow through in
//! constant memory. The built-in sources — [`TemplateSource`] (the V&V
//! template emitters) and [`RandomCodeSource`] (plain non-directive
//! programs, the paper's issue-3 replacement corpus) — compose through
//! iterator-style adapters:
//!
//! * [`CaseSource::take`] bounds an unbounded generator,
//! * [`CaseSource::interleave`] merges two streams,
//! * [`CaseSource::shard`]`(k, n)` selects a reproducible 1/n slice,
//! * [`CaseSource::inspect`] taps metadata off the stream,
//! * `probe(ProbeConfig)` (in `vv-probing`) injects negative-probing
//!   mutations.
//!
//! Every built-in source derives the RNG of case *i* from the stream seed
//! and *i* alone ([`source::split_seed`]), so shard *k* of *n* is
//! reproducible without generating the other shards, and the union of all
//! shards is byte-identical to the unsharded stream for any shard count.
//!
//! ```
//! use vv_corpus::{CaseSource, TemplateSource};
//! use vv_dclang::DirectiveModel;
//!
//! let mut total = 0usize;
//! for case in TemplateSource::new(DirectiveModel::OpenAcc, 42)
//!     .take(10)
//!     .into_cases()
//! {
//!     assert!(case.source.contains("#pragma acc"));
//!     total += 1;
//! }
//! assert_eq!(total, 10);
//! ```

pub mod features;
pub mod random_code;
pub mod source;
pub mod templates;

pub use features::{AccFeature, Feature, OmpFeature};
pub use random_code::generate_non_directive_code;
pub use source::{CaseSource, GeneratedCase, RandomCodeSource, TemplateSource, NO_ISSUE_ID};

use vv_dclang::DirectiveModel;
use vv_simcompiler::Lang;

/// A single generated compiler-validation test.
#[derive(Clone, Debug, PartialEq)]
pub struct TestCase {
    /// Stable identifier, e.g. `acc_parallel_loop_reduction_0007`.
    pub id: String,
    /// The programming model the test targets.
    pub model: DirectiveModel,
    /// Source language flavor.
    pub lang: Lang,
    /// The feature under test.
    pub feature: Feature,
    /// Full source text.
    pub source: String,
}

pub(crate) fn model_prefix(model: DirectiveModel) -> &'static str {
    match model {
        DirectiveModel::OpenAcc => "acc",
        DirectiveModel::OpenMp => "omp",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(source: TemplateSource, size: usize) -> Vec<TestCase> {
        source
            .take(size)
            .into_cases()
            .map(|generated| generated.case)
            .collect()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = collect(TemplateSource::new(DirectiveModel::OpenAcc, 42), 20);
        let b = collect(TemplateSource::new(DirectiveModel::OpenAcc, 42), 20);
        assert_eq!(a.len(), 20);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = collect(TemplateSource::new(DirectiveModel::OpenMp, 1), 10);
        let b = collect(TemplateSource::new(DirectiveModel::OpenMp, 2), 10);
        assert!(a.iter().zip(b.iter()).any(|(x, y)| x.source != y.source));
    }

    #[test]
    fn all_features_are_covered_in_a_large_suite() {
        let cases = collect(TemplateSource::new(DirectiveModel::OpenAcc, 7), 64);
        for feature in Feature::all_for(DirectiveModel::OpenAcc) {
            assert!(
                cases.iter().any(|c| c.feature == feature),
                "{feature:?} never generated"
            );
        }
    }

    #[test]
    fn c_only_restriction_is_respected() {
        let cases = collect(TemplateSource::new(DirectiveModel::OpenMp, 3).c_only(), 30);
        assert!(cases.iter().all(|c| c.lang == Lang::C));
        let mixed = collect(TemplateSource::new(DirectiveModel::OpenMp, 3), 30);
        assert!(mixed.iter().any(|c| c.lang == Lang::Cpp));
    }

    #[test]
    fn sources_mention_their_model() {
        let acc = collect(TemplateSource::new(DirectiveModel::OpenAcc, 9), 16);
        assert!(acc.iter().all(|c| c.source.contains("#pragma acc")));
        let omp = collect(TemplateSource::new(DirectiveModel::OpenMp, 9), 16);
        assert!(omp.iter().all(|c| c.source.contains("#pragma omp")));
    }
}
