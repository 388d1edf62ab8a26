//! Streaming, composable case sources.
//!
//! [`CaseSource`] is the corpus layer's pull-based streaming abstraction:
//! a source yields one [`GeneratedCase`] at a time, so a suite of any size
//! can flow into a consumer (such as the validation service's
//! `submit_source`) in constant memory. Sources compose like iterators —
//! [`CaseSource::take`], [`CaseSource::interleave`],
//! [`CaseSource::shard`] — and `vv-probing`
//! contributes a `probe` adapter that injects the paper's negative-probing
//! mutations into the stream.
//!
//! # Split-seed derivation
//!
//! Every built-in source derives the RNG for case *i* directly from
//! `(seed, i)` via [`split_seed`] instead of threading one generator through
//! the whole stream. Consequences:
//!
//! * case *i* is a pure function of the seed and its index — it never
//!   depends on how many cases were drawn before it;
//! * [`CaseSource::skip_cases`] is O(1) for the built-in sources (the index
//!   just jumps), so [`CaseSource::shard`]`(k, n)` can produce shard *k*
//!   without generating the other shards' cases;
//! * the union of `shard(0, n) .. shard(n-1, n)` is byte-identical to the
//!   unsharded stream for **any** shard count `n`, which makes distributed
//!   runs reproducible and recombinable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vv_dclang::DirectiveModel;
use vv_simcompiler::Lang;

use crate::features::Feature;
use crate::{model_prefix, random_code, templates, TestCase};

/// The paper's "no issue" id (issue 5): probed but left unchanged.
pub const NO_ISSUE_ID: u8 = 5;

/// Domain-separation constant for [`TemplateSource`] streams.
const TEMPLATE_STREAM: u64 = 0x5656_434F_5250_5553;
/// Domain-separation constant for [`RandomCodeSource`] streams.
const RANDOM_CODE_STREAM: u64 = 0x4E4F_4E44_4952_4543;

/// Derive an independent RNG seed for case `index` of a stream.
///
/// This is the split-seed derivation behind every built-in source: a
/// SplitMix64-style finalizer over the stream seed and the case index, so
/// per-case generators are statistically independent while each case remains
/// reproducible from `(seed, index)` alone.
pub fn split_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One case produced by a [`CaseSource`]: the generated test plus its
/// negative-probing provenance.
///
/// Unprobed cases carry `issue_id: None` and `source == case.source`; a
/// probing adapter rewrites `source`, sets `issue_id` to the paper's issue
/// id (0–5) and records what changed in `note`.
#[derive(Clone, Debug, PartialEq)]
pub struct GeneratedCase {
    /// The original, valid-by-construction test case.
    pub case: TestCase,
    /// The source text to validate (equals `case.source` unless mutated).
    pub source: String,
    /// Negative-probing issue id (paper §III-A): `None` when the case was
    /// never probed, `Some(0..=4)` for the five mutation classes,
    /// `Some(`[`NO_ISSUE_ID`]`)` for probed-but-unchanged files.
    pub issue_id: Option<u8>,
    /// Provenance note (which mutation was applied, or "generated").
    pub note: String,
}

impl GeneratedCase {
    /// Wrap a pristine test case (no probing applied).
    pub fn from_case(case: TestCase) -> Self {
        Self {
            source: case.source.clone(),
            case,
            issue_id: None,
            note: "generated".to_string(),
        }
    }

    /// The case's stable identifier.
    pub fn id(&self) -> &str {
        &self.case.id
    }

    /// The feature the case nominally exercises.
    pub fn feature(&self) -> Feature {
        self.case.feature
    }

    /// Ground truth per the paper's system-of-verification: a case is valid
    /// unless one of the five mutation classes (issue ids 0–4) was applied.
    pub fn ground_truth_valid(&self) -> bool {
        matches!(self.issue_id, None | Some(NO_ISSUE_ID))
    }

    /// True if a probing adapter has processed this case (issue 5 included).
    pub fn is_probed(&self) -> bool {
        self.issue_id.is_some()
    }
}

/// A pull-based, lazily evaluated stream of [`GeneratedCase`]s.
///
/// The trait is object safe: `Box<dyn CaseSource + Send>` is a first-class
/// source (see [`CaseSource::boxed`]), which is how heterogeneous pipelines
/// like `CorpusSpec` compose stages at runtime.
pub trait CaseSource {
    /// Produce the next case, or `None` when the stream is exhausted.
    fn next_case(&mut self) -> Option<GeneratedCase>;

    /// Bounds on the number of remaining cases, `(lower, upper)`, mirroring
    /// `Iterator::size_hint`. Unbounded generators report
    /// `(usize::MAX, None)`.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }

    /// A human-readable description of the source and its composition, for
    /// logs and reports.
    fn describe(&self) -> String {
        "case source".to_string()
    }

    /// Advance the stream past `count` cases without producing them, and
    /// return how many were actually skipped (less than `count` only at the
    /// end of a bounded stream).
    ///
    /// The default implementation pulls and drops; index-addressed sources
    /// override it with an O(1) jump, which is what makes
    /// [`CaseSource::shard`] cheap.
    fn skip_cases(&mut self, count: usize) -> usize {
        let mut skipped = 0;
        while skipped < count {
            if self.next_case().is_none() {
                break;
            }
            skipped += 1;
        }
        skipped
    }

    /// Keep only the first `count` cases.
    fn take(self, count: usize) -> Take<Self>
    where
        Self: Sized,
    {
        Take {
            inner: self,
            remaining: count,
        }
    }

    /// Alternate cases from `self` and `other`; once one side is exhausted,
    /// the rest of the other side is streamed through.
    fn interleave<B>(self, other: B) -> Interleave<Self, B>
    where
        Self: Sized,
        B: CaseSource,
    {
        Interleave {
            a: self,
            b: other,
            from_a: true,
        }
    }

    /// Select shard `k` of `n`: cases `k, k + n, k + 2n, ...` of this
    /// stream.
    ///
    /// With the split-seed derivation of the built-in sources, producing one
    /// shard never generates another shard's cases, and the round-robin
    /// union of all `n` shards is byte-identical to the unsharded stream —
    /// for every `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `k >= n`.
    fn shard(self, k: usize, n: usize) -> Shard<Self>
    where
        Self: Sized,
    {
        assert!(n > 0, "shard(k, n) requires n >= 1");
        assert!(k < n, "shard(k, n) requires k < n (got k={k}, n={n})");
        Shard {
            inner: self,
            k,
            n,
            started: false,
        }
    }

    /// Observe every produced case (cases advanced over by `skip_cases` are
    /// *not* observed). Useful for capturing ground-truth metadata while the
    /// stream flows into a consumer that only sees work items.
    fn inspect<F>(self, f: F) -> Inspect<Self, F>
    where
        Self: Sized,
        F: FnMut(&GeneratedCase),
    {
        Inspect { inner: self, f }
    }

    /// Bridge into a standard [`Iterator`] over [`GeneratedCase`]s.
    fn into_cases(self) -> IntoCases<Self>
    where
        Self: Sized,
    {
        IntoCases { source: self }
    }

    /// Erase the concrete type for runtime composition.
    fn boxed(self) -> Box<dyn CaseSource + Send>
    where
        Self: Sized + Send + 'static,
    {
        Box::new(self)
    }
}

impl<S: CaseSource + ?Sized> CaseSource for Box<S> {
    fn next_case(&mut self) -> Option<GeneratedCase> {
        (**self).next_case()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (**self).size_hint()
    }

    fn describe(&self) -> String {
        (**self).describe()
    }

    fn skip_cases(&mut self, count: usize) -> usize {
        (**self).skip_cases(count)
    }
}

impl<S: CaseSource + ?Sized> CaseSource for &mut S {
    fn next_case(&mut self) -> Option<GeneratedCase> {
        (**self).next_case()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (**self).size_hint()
    }

    fn describe(&self) -> String {
        (**self).describe()
    }

    fn skip_cases(&mut self, count: usize) -> usize {
        (**self).skip_cases(count)
    }
}

// ---------------------------------------------------------------------------
// built-in sources
// ---------------------------------------------------------------------------

/// The lazy template generator: an **unbounded** stream of valid V&V tests
/// for one programming model (use [`CaseSource::take`] to bound it).
///
/// Case *i* uses feature `i % n` of the `n` features of
/// [`Feature::all_for`]`(model)` (round-robin coverage) and draws its
/// language flavor and surface parameters from a per-index split seed, so
/// any case can be produced — or skipped over — without generating its
/// predecessors.
#[derive(Clone, Debug)]
pub struct TemplateSource {
    model: DirectiveModel,
    seed: u64,
    langs: Vec<Lang>,
    features: Vec<Feature>,
    index: u64,
}

impl TemplateSource {
    /// A source over all features of `model`, in C and C++ flavors.
    pub fn new(model: DirectiveModel, seed: u64) -> Self {
        Self {
            model,
            seed,
            langs: vec![Lang::C, Lang::Cpp],
            features: Feature::all_for(model),
            index: 0,
        }
    }

    /// Emit C files only (the paper's Part One OpenMP suite).
    pub fn c_only(mut self) -> Self {
        self.langs = vec![Lang::C];
        self
    }
}

impl CaseSource for TemplateSource {
    fn next_case(&mut self) -> Option<GeneratedCase> {
        let index = self.index;
        self.index += 1;
        let feature = self.features[(index % self.features.len() as u64) as usize];
        let mut rng = StdRng::seed_from_u64(split_seed(self.seed ^ TEMPLATE_STREAM, index));
        let lang = if self.langs.len() == 1 {
            self.langs[0]
        } else {
            self.langs[rng.gen_range(0..self.langs.len())]
        };
        let source = templates::emit(feature, lang, &mut rng);
        let id = format!("{}_{}_{index:04}", model_prefix(self.model), feature.name());
        Some(GeneratedCase::from_case(TestCase {
            id,
            model: self.model,
            lang,
            feature,
            source,
        }))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }

    fn describe(&self) -> String {
        format!(
            "templates({:?}, seed {}, {} features, {} langs, unbounded)",
            self.model,
            self.seed,
            self.features.len(),
            self.langs.len()
        )
    }

    fn skip_cases(&mut self, count: usize) -> usize {
        self.index += count as u64;
        count
    }
}

/// An unbounded stream of plain, non-directive C programs — the replacement
/// corpus of negative-probing issue class 3, exposed as a source so that
/// known-invalid files can be mixed into a corpus (via
/// [`CaseSource::interleave`]) without running the mutation engine.
///
/// Each case keeps a nominal round-robin feature (the feature the file
/// *claims* to test, exactly as the paper's issue-3 files replace a feature
/// test's content) and is tagged `issue_id: Some(3)` — ground-truth invalid.
#[derive(Clone, Debug)]
pub struct RandomCodeSource {
    model: DirectiveModel,
    seed: u64,
    features: Vec<Feature>,
    index: u64,
}

impl RandomCodeSource {
    /// A source of non-directive programs masquerading as `model` tests.
    pub fn new(model: DirectiveModel, seed: u64) -> Self {
        Self {
            model,
            seed,
            features: Feature::all_for(model),
            index: 0,
        }
    }
}

impl CaseSource for RandomCodeSource {
    fn next_case(&mut self) -> Option<GeneratedCase> {
        let index = self.index;
        self.index += 1;
        let feature = self.features[(index % self.features.len() as u64) as usize];
        let mut rng = StdRng::seed_from_u64(split_seed(self.seed ^ RANDOM_CODE_STREAM, index));
        let source = random_code::generate_non_directive_code(&mut rng);
        let id = format!("{}_nondirective_{index:04}", model_prefix(self.model));
        Some(GeneratedCase {
            case: TestCase {
                id,
                model: self.model,
                lang: Lang::C,
                feature,
                source: source.clone(),
            },
            source,
            issue_id: Some(3),
            note: "randomly generated non-directive code".to_string(),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }

    fn describe(&self) -> String {
        format!(
            "random-code({:?}, seed {}, unbounded)",
            self.model, self.seed
        )
    }

    fn skip_cases(&mut self, count: usize) -> usize {
        self.index += count as u64;
        count
    }
}

// ---------------------------------------------------------------------------
// combinator adapters
// ---------------------------------------------------------------------------

/// See [`CaseSource::take`].
#[derive(Clone, Debug)]
pub struct Take<S> {
    inner: S,
    remaining: usize,
}

impl<S: CaseSource> CaseSource for Take<S> {
    fn next_case(&mut self) -> Option<GeneratedCase> {
        if self.remaining == 0 {
            return None;
        }
        let case = self.inner.next_case()?;
        self.remaining -= 1;
        Some(case)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (lower, upper) = self.inner.size_hint();
        let upper = upper.map_or(self.remaining, |u| u.min(self.remaining));
        (lower.min(self.remaining), Some(upper))
    }

    fn describe(&self) -> String {
        format!("{} -> take({})", self.inner.describe(), self.remaining)
    }

    fn skip_cases(&mut self, count: usize) -> usize {
        let capped = count.min(self.remaining);
        let skipped = self.inner.skip_cases(capped);
        self.remaining -= skipped;
        skipped
    }
}

/// See [`CaseSource::interleave`].
#[derive(Clone, Debug)]
pub struct Interleave<A, B> {
    a: A,
    b: B,
    from_a: bool,
}

impl<A: CaseSource, B: CaseSource> CaseSource for Interleave<A, B> {
    fn next_case(&mut self) -> Option<GeneratedCase> {
        let case = if self.from_a {
            self.a.next_case().or_else(|| self.b.next_case())
        } else {
            self.b.next_case().or_else(|| self.a.next_case())
        };
        self.from_a = !self.from_a;
        case
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (al, au) = self.a.size_hint();
        let (bl, bu) = self.b.size_hint();
        let upper = match (au, bu) {
            (Some(a), Some(b)) => a.checked_add(b),
            _ => None,
        };
        (al.saturating_add(bl), upper)
    }

    fn describe(&self) -> String {
        format!("interleave({}, {})", self.a.describe(), self.b.describe())
    }

    fn skip_cases(&mut self, count: usize) -> usize {
        // Fast path: when both sides' size-hint lower bounds guarantee they
        // can cover their alternating shares, the skip splits between the
        // sides without producing a single case — preserving the O(1) skip
        // of index-addressed sources underneath (what shard() relies on).
        // Equivalence with `count` next_case calls only holds when neither
        // side runs dry mid-skip, so anything else falls back to the
        // generic pull-and-drop.
        let first_share = count.div_ceil(2);
        let second_share = count / 2;
        let (a_hint, b_hint) = (self.a.size_hint().0, self.b.size_hint().0);
        let (first_hint, second_hint) = if self.from_a {
            (a_hint, b_hint)
        } else {
            (b_hint, a_hint)
        };
        if first_hint >= first_share && second_hint >= second_share {
            let (first, second) = if self.from_a {
                (
                    self.a.skip_cases(first_share),
                    self.b.skip_cases(second_share),
                )
            } else {
                (
                    self.b.skip_cases(first_share),
                    self.a.skip_cases(second_share),
                )
            };
            debug_assert_eq!(
                (first, second),
                (first_share, second_share),
                "size_hint lower bound promised more cases than the source delivered"
            );
            if count % 2 == 1 {
                self.from_a = !self.from_a;
            }
            return first + second;
        }
        let mut skipped = 0;
        while skipped < count {
            if self.next_case().is_none() {
                break;
            }
            skipped += 1;
        }
        skipped
    }
}

/// See [`CaseSource::shard`].
#[derive(Clone, Debug)]
pub struct Shard<S> {
    inner: S,
    k: usize,
    n: usize,
    started: bool,
}

impl<S: CaseSource> Shard<S> {
    /// Advance the inner stream to the next index owned by this shard.
    /// Returns false once the inner stream ends inside the gap.
    fn align(&mut self) -> bool {
        let gap = if self.started { self.n - 1 } else { self.k };
        self.started = true;
        self.inner.skip_cases(gap) == gap
    }
}

impl<S: CaseSource> CaseSource for Shard<S> {
    fn next_case(&mut self) -> Option<GeneratedCase> {
        if !self.align() {
            return None;
        }
        self.inner.next_case()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // With `len` inner cases remaining, this shard still owns every
        // n-th case after the next alignment gap (k before the first yield,
        // n-1 after).
        let gap = if self.started { self.n - 1 } else { self.k };
        let to_shard = |len: usize| len.saturating_sub(gap).div_ceil(self.n);
        let (lower, upper) = self.inner.size_hint();
        let lower = if lower == usize::MAX {
            usize::MAX
        } else {
            to_shard(lower)
        };
        (lower, upper.map(to_shard))
    }

    fn describe(&self) -> String {
        format!("{} -> shard({}/{})", self.inner.describe(), self.k, self.n)
    }

    fn skip_cases(&mut self, count: usize) -> usize {
        let mut skipped = 0;
        while skipped < count {
            if !self.align() || self.inner.skip_cases(1) != 1 {
                break;
            }
            skipped += 1;
        }
        skipped
    }
}

/// See [`CaseSource::inspect`].
#[derive(Clone, Debug)]
pub struct Inspect<S, F> {
    inner: S,
    f: F,
}

impl<S: CaseSource, F: FnMut(&GeneratedCase)> CaseSource for Inspect<S, F> {
    fn next_case(&mut self) -> Option<GeneratedCase> {
        let case = self.inner.next_case()?;
        (self.f)(&case);
        Some(case)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }

    fn describe(&self) -> String {
        format!("{} -> inspect", self.inner.describe())
    }

    fn skip_cases(&mut self, count: usize) -> usize {
        // Skipped cases are *not* observed (the documented contract), and
        // the inner source's O(1) skip is preserved.
        self.inner.skip_cases(count)
    }
}

/// Iterator bridge returned by [`CaseSource::into_cases`].
#[derive(Clone, Debug)]
pub struct IntoCases<S> {
    source: S,
}

impl<S: CaseSource> Iterator for IntoCases<S> {
    type Item = GeneratedCase;

    fn next(&mut self) -> Option<GeneratedCase> {
        self.source.next_case()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (lower, upper) = self.source.size_hint();
        // An unbounded source reports usize::MAX; Iterator's contract wants
        // a reachable lower bound, so clamp to "unknown but nonzero-ish".
        if lower == usize::MAX && upper.is_none() {
            (0, None)
        } else {
            (lower, upper)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vv_dclang::DirectiveModel;

    fn ids(source: impl CaseSource, limit: usize) -> Vec<String> {
        source.take(limit).into_cases().map(|c| c.case.id).collect()
    }

    #[test]
    fn template_source_is_deterministic_and_index_addressed() {
        let a: Vec<_> = TemplateSource::new(DirectiveModel::OpenAcc, 9)
            .take(12)
            .into_cases()
            .collect();
        let b: Vec<_> = TemplateSource::new(DirectiveModel::OpenAcc, 9)
            .take(12)
            .into_cases()
            .collect();
        assert_eq!(a, b);
        // Skipping must land on the same cases as generating-and-dropping.
        let mut skipped = TemplateSource::new(DirectiveModel::OpenAcc, 9);
        assert_eq!(skipped.skip_cases(7), 7);
        assert_eq!(skipped.next_case().unwrap(), a[7]);
    }

    #[test]
    fn take_bounds_an_unbounded_stream() {
        let source = TemplateSource::new(DirectiveModel::OpenMp, 1).take(5);
        assert_eq!(source.size_hint(), (5, Some(5)));
        assert_eq!(source.into_cases().count(), 5);
    }

    #[test]
    fn interleave_skip_matches_drain_semantics() {
        // Bulk skip (the shard fast path) must land on exactly the same
        // next case as generating-and-dropping, for balanced sides, for an
        // exhausted-side fallback, and across the from_a toggle parity.
        for (a_len, b_len, skip) in [(20usize, 20usize, 7usize), (20, 20, 8), (3, 20, 9)] {
            let make = || {
                TemplateSource::new(DirectiveModel::OpenAcc, 1)
                    .take(a_len)
                    .interleave(RandomCodeSource::new(DirectiveModel::OpenAcc, 2).take(b_len))
            };
            let mut skipped = make();
            let n = skipped.skip_cases(skip);
            assert_eq!(n, skip);
            let mut drained = make();
            for _ in 0..skip {
                assert!(drained.next_case().is_some());
            }
            assert_eq!(
                skipped.next_case(),
                drained.next_case(),
                "a={a_len} b={b_len} skip={skip}"
            );
        }
    }

    #[test]
    fn interleave_alternates_then_drains() {
        let a = TemplateSource::new(DirectiveModel::OpenAcc, 1).take(2);
        let b = RandomCodeSource::new(DirectiveModel::OpenAcc, 2).take(4);
        let merged: Vec<_> = a.interleave(b).into_cases().collect();
        assert_eq!(merged.len(), 6);
        assert!(merged[0].issue_id.is_none());
        assert_eq!(merged[1].issue_id, Some(3));
        // After `a` is exhausted the remaining random-code cases stream out.
        assert!(merged[4..].iter().all(|c| c.issue_id == Some(3)));
    }

    #[test]
    fn shard_union_reconstructs_the_stream() {
        let total = 23;
        let full = ids(TemplateSource::new(DirectiveModel::OpenMp, 77), total);
        for n in [1usize, 2, 3, 4] {
            let shards: Vec<Vec<String>> = (0..n)
                .map(|k| {
                    ids(
                        TemplateSource::new(DirectiveModel::OpenMp, 77)
                            .take(total)
                            .shard(k, n),
                        total,
                    )
                })
                .collect();
            let mut union: Vec<String> = Vec::new();
            for i in 0..total {
                union.push(shards[i % n][i / n].clone());
            }
            assert_eq!(union, full, "shard union diverged for n={n}");
        }
    }

    #[test]
    fn shard_size_hint_partitions_the_length() {
        for n in [1usize, 2, 3, 5] {
            let sizes: usize = (0..n)
                .map(|k| {
                    TemplateSource::new(DirectiveModel::OpenAcc, 0)
                        .take(17)
                        .shard(k, n)
                        .size_hint()
                        .1
                        .unwrap()
                })
                .sum();
            assert_eq!(sizes, 17, "shard upper bounds must partition for n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "requires k < n")]
    fn shard_rejects_out_of_range_k() {
        let _ = TemplateSource::new(DirectiveModel::OpenAcc, 0).shard(3, 3);
    }

    #[test]
    fn random_code_cases_are_ground_truth_invalid() {
        let mut source = RandomCodeSource::new(DirectiveModel::OpenMp, 5);
        let case = source.next_case().unwrap();
        assert_eq!(case.issue_id, Some(3));
        assert!(!case.ground_truth_valid());
        assert!(!case.source.contains("#pragma"));
    }

    #[test]
    fn inspect_observes_each_produced_case() {
        let mut seen = 0usize;
        TemplateSource::new(DirectiveModel::OpenAcc, 3)
            .take(4)
            .inspect(|_| seen += 1)
            .into_cases()
            .for_each(drop);
        assert_eq!(seen, 4);
    }

    #[test]
    fn inspect_does_not_observe_skipped_cases() {
        // Sharding downstream of an observer must not leak the other
        // shards' cases into the observation (and must keep the O(1) skip
        // of the index-addressed source underneath).
        use std::cell::RefCell;
        let seen: RefCell<Vec<String>> = RefCell::new(Vec::new());
        let produced: Vec<String> = TemplateSource::new(DirectiveModel::OpenAcc, 6)
            .take(20)
            .inspect(|case| seen.borrow_mut().push(case.case.id.clone()))
            .shard(1, 4)
            .into_cases()
            .map(|c| c.case.id)
            .collect();
        assert_eq!(produced.len(), 5);
        assert_eq!(*seen.borrow(), produced);
    }

    #[test]
    fn boxed_sources_compose() {
        let boxed: Box<dyn CaseSource + Send> = TemplateSource::new(DirectiveModel::OpenAcc, 8)
            .take(3)
            .boxed();
        let described = boxed.describe();
        assert!(described.contains("take"), "{described}");
        assert_eq!(boxed.into_cases().count(), 3);
    }
}
