//! `vv-probing` — negative probing.
//!
//! Negative probing (paper §III-A) intentionally damages otherwise-valid
//! compiler tests to measure how a judge classifies them. Manually written
//! tests are split in half: one half is mutated with one of five error
//! classes (issue IDs 0–4), the other half is left unchanged (issue ID 5).
//!
//! | Issue ID | Mutation |
//! |---|---|
//! | 0 | Removed memory allocation / replaced a directive with a syntactically incorrect one |
//! | 1 | Removed an opening bracket |
//! | 2 | Added use of an undeclared variable |
//! | 3 | Replaced the file with randomly generated non-OpenACC/OpenMP code |
//! | 4 | Removed the last bracketed section of code |
//! | 5 | No change (valid) |
//!
//! The ground-truth validity of a probed file follows the paper's
//! system-of-verification: issues 0–4 are invalid, issue 5 is valid.
//!
//! # Streaming API
//!
//! Probing is an adapter in the corpus source pipeline: any
//! [`CaseSource`](vv_corpus::CaseSource) gains a
//! [`probe`](source::ProbeExt::probe) combinator that mutates a
//! deterministic fraction of the stream (see [`source::ProbedSource`]), and
//! [`CorpusSpec`] builds complete generation→probing→sharding pipelines
//! from one declarative description.

pub mod mutate;
pub mod source;
pub mod spec;

pub use mutate::{apply_mutation, MutationOutcome};
pub use source::{ProbeExt, ProbedSource};
pub use spec::CorpusSpec;

use vv_corpus::GeneratedCase;
use vv_dclang::DirectiveModel;

/// The negative-probing issue classes (issue IDs 0–5 in the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IssueKind {
    /// Issue 0: removed memory allocation or swapped directive.
    RemovedAllocOrSwappedDirective,
    /// Issue 1: removed an opening bracket.
    RemovedOpeningBracket,
    /// Issue 2: added use of an undeclared variable.
    UndeclaredVariableUse,
    /// Issue 3: replaced the file with random non-directive code.
    ReplacedWithNonDirectiveCode,
    /// Issue 4: removed the last bracketed section of code.
    RemovedLastBracketedSection,
    /// Issue 5: no change.
    NoIssue,
}

impl IssueKind {
    /// All issue kinds in paper order (0–5).
    pub const ALL: [IssueKind; 6] = [
        IssueKind::RemovedAllocOrSwappedDirective,
        IssueKind::RemovedOpeningBracket,
        IssueKind::UndeclaredVariableUse,
        IssueKind::ReplacedWithNonDirectiveCode,
        IssueKind::RemovedLastBracketedSection,
        IssueKind::NoIssue,
    ];

    /// The invalid-only issue kinds (IDs 0–4).
    pub const MUTATIONS: [IssueKind; 5] = [
        IssueKind::RemovedAllocOrSwappedDirective,
        IssueKind::RemovedOpeningBracket,
        IssueKind::UndeclaredVariableUse,
        IssueKind::ReplacedWithNonDirectiveCode,
        IssueKind::RemovedLastBracketedSection,
    ];

    /// The numeric issue id used in the paper's tables.
    pub fn id(&self) -> u8 {
        match self {
            IssueKind::RemovedAllocOrSwappedDirective => 0,
            IssueKind::RemovedOpeningBracket => 1,
            IssueKind::UndeclaredVariableUse => 2,
            IssueKind::ReplacedWithNonDirectiveCode => 3,
            IssueKind::RemovedLastBracketedSection => 4,
            IssueKind::NoIssue => 5,
        }
    }

    /// Construct from the numeric issue id.
    pub fn from_id(id: u8) -> Option<IssueKind> {
        IssueKind::ALL.get(id as usize).copied()
    }

    /// The issue of a streamed [`GeneratedCase`]. Cases that never passed
    /// through probing carry no issue id and are valid by construction, so
    /// they map to [`IssueKind::NoIssue`].
    ///
    /// # Panics
    ///
    /// Panics if the case carries an issue id outside the paper's range
    /// (0–5). `issue_id` is a public field, and an unknown id must not be
    /// silently classified as anything — least of all as valid, which
    /// would contradict `GeneratedCase::ground_truth_valid`.
    pub fn of_case(case: &GeneratedCase) -> IssueKind {
        match case.issue_id {
            None => IssueKind::NoIssue,
            Some(id) => IssueKind::from_id(id)
                .unwrap_or_else(|| panic!("case {}: issue id {id} outside 0..=5", case.case.id)),
        }
    }

    /// Ground truth: is a file with this issue a valid compiler test?
    pub fn is_valid(&self) -> bool {
        matches!(self, IssueKind::NoIssue)
    }

    /// The row label used in the paper's tables, parameterized by model.
    pub fn table_label(&self, model: DirectiveModel) -> String {
        let tag = match model {
            DirectiveModel::OpenAcc => "ACC",
            DirectiveModel::OpenMp => "OMP",
        };
        let name = match model {
            DirectiveModel::OpenAcc => "OpenACC",
            DirectiveModel::OpenMp => "OpenMP",
        };
        match self {
            IssueKind::RemovedAllocOrSwappedDirective => {
                format!("Removed {tag} memory allocation / swapped {tag} directive")
            }
            IssueKind::RemovedOpeningBracket => "Removed an opening bracket".to_string(),
            IssueKind::UndeclaredVariableUse => "Added use of undeclared variable".to_string(),
            IssueKind::ReplacedWithNonDirectiveCode => {
                format!("Replaced file with randomly-generated non-{name} code")
            }
            IssueKind::RemovedLastBracketedSection => {
                "Removed last bracketed section of code".to_string()
            }
            IssueKind::NoIssue => "No issue".to_string(),
        }
    }
}

/// Configuration for probing a suite.
#[derive(Clone, Debug)]
pub struct ProbeConfig {
    /// RNG seed (splitting, mutation choice and mutation parameters).
    pub seed: u64,
    /// Relative weights of the five mutation classes (issue IDs 0–4). The
    /// defaults approximate the per-issue counts reported in the paper's
    /// Part Two tables (Table IV): more "removed allocation / swapped
    /// directive" and "removed last bracketed section" than the others.
    pub mutation_weights: [f64; 5],
    /// Fraction of the suite to mutate (0.5 in the paper: "split in half").
    pub mutated_fraction: f64,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        Self {
            seed: 0x5052_4F42_4521,
            mutation_weights: [0.305, 0.164, 0.169, 0.164, 0.198],
            mutated_fraction: 0.5,
        }
    }
}

impl ProbeConfig {
    /// Create a probe config with a specific seed and default weights.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vv_corpus::{CaseSource, TemplateSource};

    fn probed(model: DirectiveModel, size: usize, config: ProbeConfig) -> Vec<GeneratedCase> {
        TemplateSource::new(model, 77)
            .probe(config)
            .take(size)
            .into_cases()
            .collect()
    }

    #[test]
    fn issue_ids_round_trip() {
        for issue in IssueKind::ALL {
            assert_eq!(IssueKind::from_id(issue.id()), Some(issue));
        }
        assert_eq!(IssueKind::from_id(9), None);
    }

    #[test]
    fn only_no_issue_is_valid() {
        assert!(IssueKind::NoIssue.is_valid());
        for issue in IssueKind::MUTATIONS {
            assert!(!issue.is_valid());
        }
    }

    #[test]
    fn split_is_half_and_half() {
        let cases = probed(DirectiveModel::OpenAcc, 60, ProbeConfig::with_seed(1));
        assert_eq!(cases.len(), 60);
        assert_eq!(cases.iter().filter(|c| c.ground_truth_valid()).count(), 30);
    }

    #[test]
    fn probing_is_deterministic() {
        let a = probed(DirectiveModel::OpenMp, 40, ProbeConfig::with_seed(5));
        let b = probed(DirectiveModel::OpenMp, 40, ProbeConfig::with_seed(5));
        assert_eq!(a, b);
    }

    #[test]
    fn all_mutation_classes_appear_in_a_large_suite() {
        let cases = probed(DirectiveModel::OpenAcc, 300, ProbeConfig::with_seed(3));
        for issue in IssueKind::MUTATIONS {
            let count = cases
                .iter()
                .filter(|c| IssueKind::of_case(c) == issue)
                .count();
            assert!(count > 0, "issue {issue:?} never generated");
        }
    }

    #[test]
    fn mutated_sources_differ_from_originals() {
        for case in probed(DirectiveModel::OpenMp, 50, ProbeConfig::with_seed(11)) {
            let issue = IssueKind::of_case(&case);
            if issue != IssueKind::NoIssue {
                assert_ne!(
                    case.source, case.case.source,
                    "{issue:?} left the source unchanged"
                );
            } else {
                assert_eq!(case.source, case.case.source);
            }
        }
    }

    #[test]
    fn table_labels_match_paper_wording() {
        assert_eq!(
            IssueKind::ReplacedWithNonDirectiveCode.table_label(DirectiveModel::OpenAcc),
            "Replaced file with randomly-generated non-OpenACC code"
        );
        assert!(IssueKind::RemovedAllocOrSwappedDirective
            .table_label(DirectiveModel::OpenMp)
            .contains("OMP"));
    }

    #[test]
    fn issue_counts_sum_to_len() {
        let cases = probed(DirectiveModel::OpenAcc, 80, ProbeConfig::default());
        let total: usize = IssueKind::ALL
            .iter()
            .map(|issue| {
                cases
                    .iter()
                    .filter(|c| IssueKind::of_case(c) == *issue)
                    .count()
            })
            .sum();
        assert_eq!(total, cases.len());
    }
}
