//! Streaming negative probing: the `probe` adapter for [`CaseSource`]
//! pipelines.
//!
//! [`ProbedSource`] decides **per case**, from a split seed over the
//! case's stream index, whether to damage the file and which of the paper's
//! five mutation classes to apply. Because every decision is a pure function
//! of `(probe seed, index)`, probing composes with sharding — shard *k* of a
//! probed stream reproduces exactly the cases (and mutations) the unsharded
//! stream would assign to those indices.
//!
//! # The split law
//!
//! The paper splits each suite "in half": 50% of files receive a mutation.
//! A streaming source cannot shuffle-and-split, so mutated positions are
//! assigned pairwise: consecutive cases form pairs, pair *p* owes
//! `quota(2p+2) - quota(2p)` mutations (where `quota(n) =
//! round(n * mutated_fraction)`), and when a pair owes exactly one, a
//! seeded coin picks the side. Every even-length prefix therefore contains
//! *exactly* `round(n * mutated_fraction)` mutated cases (odd prefixes
//! deviate by at most one), which keeps truncated and sharded corpora
//! balanced — while the coin keeps mutated positions decorrelated from any
//! periodic structure in the stream (the template round-robin over
//! features, period-2 [`CaseSource::interleave`] compositions, ...).
//! Which *mutation* a damaged file receives (and its parameters) is drawn
//! from the per-index RNG using the configured issue weights.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vv_corpus::source::split_seed;
use vv_corpus::{CaseSource, GeneratedCase};

use crate::mutate::apply_mutation;
use crate::{IssueKind, ProbeConfig};

/// Domain-separation constant for mutation choice/parameter streams.
const PROBE_STREAM: u64 = 0x4E45_4741_5449_5645;
/// Domain-separation constant for the pairwise split-coin stream.
const SPLIT_STREAM: u64 = 0x53_50_4C_49_54;

/// Blanket extension adding [`probe`](ProbeExt::probe) to every case source.
pub trait ProbeExt: CaseSource + Sized {
    /// Apply streaming negative probing to this source (see
    /// [`ProbedSource`]).
    fn probe(self, config: ProbeConfig) -> ProbedSource<Self> {
        ProbedSource {
            inner: self,
            config,
            index: 0,
        }
    }
}

impl<S: CaseSource + Sized> ProbeExt for S {}

/// A source adapter that mutates a deterministic fraction of the incoming
/// cases (see the module docs for the split law).
///
/// Probing treats its input as the *valid* corpus: each outgoing case is
/// rebuilt from the pristine `case` text, its `issue_id` is always set
/// (0–4 for mutated files, 5 for files left unchanged), and any issue tag
/// the input carried is overwritten. Compose `probe` before adapters that
/// add intentionally-invalid cases (such as `RandomCodeSource` streams).
#[derive(Clone, Debug)]
pub struct ProbedSource<S> {
    inner: S,
    config: ProbeConfig,
    index: u64,
}

impl<S> ProbedSource<S> {
    /// The probing configuration in effect.
    pub fn config(&self) -> &ProbeConfig {
        &self.config
    }
}

/// True if case `index` of the stream falls on a mutated position (see the
/// module docs for the pairwise split law). A pure function of
/// `(seed, index)`, so skipping and sharding never have to evaluate it for
/// the cases they jump over.
fn mutate_at(seed: u64, index: u64, fraction: f64) -> bool {
    let fraction = fraction.clamp(0.0, 1.0);
    let quota = |n: u64| (n as f64 * fraction + 0.5).floor() as u64;
    let pair = index / 2;
    match quota(2 * pair + 2) - quota(2 * pair) {
        0 => false,
        2 => true,
        // The pair owes exactly one mutation: a seeded coin picks the side,
        // so mutated positions carry no fixed period that could alias with
        // other periodic structure in the stream.
        _ => index % 2 == (split_seed(seed ^ SPLIT_STREAM, pair) & 1),
    }
}

/// Weighted draw over the five mutation classes (issue ids 0–4).
pub(crate) fn pick_issue(weights: &[f64; 5], rng: &mut impl Rng) -> IssueKind {
    let total: f64 = weights.iter().sum();
    let mut draw = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
    for (i, w) in weights.iter().enumerate() {
        if draw < *w {
            return IssueKind::MUTATIONS[i];
        }
        draw -= w;
    }
    IssueKind::MUTATIONS[4]
}

impl<S: CaseSource> CaseSource for ProbedSource<S> {
    fn next_case(&mut self) -> Option<GeneratedCase> {
        let mut generated = self.inner.next_case()?;
        let index = self.index;
        self.index += 1;
        if mutate_at(self.config.seed, index, self.config.mutated_fraction) {
            let mut rng = StdRng::seed_from_u64(split_seed(self.config.seed ^ PROBE_STREAM, index));
            let issue = pick_issue(&self.config.mutation_weights, &mut rng);
            let outcome = apply_mutation(&generated.case, issue, &mut rng);
            generated.source = outcome.source;
            generated.issue_id = Some(outcome.issue.id());
            generated.note = outcome.note;
        } else {
            // Unprobed inputs already satisfy `source == case.source`; only
            // previously-probed cases need the pristine text restored.
            if generated.is_probed() {
                generated.source = generated.case.source.clone();
            }
            generated.issue_id = Some(IssueKind::NoIssue.id());
            generated.note = "unchanged".to_string();
        }
        Some(generated)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }

    fn describe(&self) -> String {
        format!(
            "{} -> probe(seed {}, {:.0}% mutated)",
            self.inner.describe(),
            self.config.seed,
            self.config.mutated_fraction * 100.0
        )
    }

    fn skip_cases(&mut self, count: usize) -> usize {
        // Probing decisions are pure functions of the index, so skipping
        // needs no RNG fast-forward — just advance both counters.
        let skipped = self.inner.skip_cases(count);
        self.index += skipped as u64;
        skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vv_corpus::TemplateSource;
    use vv_dclang::DirectiveModel;

    fn probed(seed: u64, size: usize) -> Vec<GeneratedCase> {
        TemplateSource::new(DirectiveModel::OpenAcc, 7)
            .probe(ProbeConfig::with_seed(seed))
            .take(size)
            .into_cases()
            .collect()
    }

    #[test]
    fn every_prefix_honours_the_split_law() {
        let cases = probed(3, 61);
        for n in 1..=cases.len() {
            let mutated = cases[..n]
                .iter()
                .filter(|c| !c.ground_truth_valid())
                .count();
            let expected = ((n as f64) * 0.5 + 0.5).floor() as usize;
            if n % 2 == 0 {
                assert_eq!(mutated, expected, "even prefix {n}");
            } else {
                // The open pair's single mutation may fall on either side.
                assert!(
                    mutated == expected || mutated + 1 == expected,
                    "odd prefix {n}: {mutated} vs expected {expected}"
                );
            }
        }
    }

    #[test]
    fn mutated_positions_do_not_alias_with_periodic_streams() {
        // The split coin must decorrelate mutations from period-2 structure:
        // over an OpenACC/OpenMP interleave, both models must see mutated
        // *and* valid cases (a fixed-parity split would pin each model to
        // one side forever).
        let cases: Vec<GeneratedCase> = TemplateSource::new(DirectiveModel::OpenAcc, 4)
            .interleave(TemplateSource::new(DirectiveModel::OpenMp, 4))
            .probe(ProbeConfig::with_seed(9))
            .take(80)
            .into_cases()
            .collect();
        for model in [DirectiveModel::OpenAcc, DirectiveModel::OpenMp] {
            let of_model: Vec<&GeneratedCase> =
                cases.iter().filter(|c| c.case.model == model).collect();
            assert_eq!(of_model.len(), 40);
            assert!(of_model.iter().any(|c| c.ground_truth_valid()));
            assert!(of_model.iter().any(|c| !c.ground_truth_valid()));
        }
    }

    #[test]
    fn probing_is_deterministic_and_index_addressed() {
        let a = probed(11, 30);
        let b = probed(11, 30);
        assert_eq!(a, b);
        // Skipping into the stream yields the same case as streaming to it.
        let mut skipped =
            TemplateSource::new(DirectiveModel::OpenAcc, 7).probe(ProbeConfig::with_seed(11));
        assert_eq!(skipped.skip_cases(17), 17);
        assert_eq!(skipped.next_case().unwrap(), a[17]);
    }

    #[test]
    fn mutated_cases_change_and_unchanged_cases_do_not() {
        for case in probed(5, 40) {
            let issue = IssueKind::of_case(&case);
            if issue == IssueKind::NoIssue {
                assert_eq!(case.source, case.case.source);
            } else {
                assert_ne!(case.source, case.case.source, "{issue:?}");
            }
        }
    }

    #[test]
    fn probe_always_tags_an_issue() {
        assert!(probed(9, 25).iter().all(|c| c.issue_id.is_some()));
    }
}
