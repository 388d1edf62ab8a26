//! [`CorpusSpec`] — one builder for a complete corpus pipeline.
//!
//! A spec names the model, seed, language flavors (C and C++, or C only),
//! corpus size, probing configuration and (optionally) a shard, and
//! [`CorpusSpec::source`] assembles the corresponding streaming
//! [`CaseSource`] pipeline:
//!
//! ```text
//! TemplateSource -> probe(ProbeConfig)? -> take(size)? -> shard(k, n)?
//! ```
//!
//! `size` always refers to the **unsharded** corpus: `shard(k, n)` selects
//! every n-th case of that corpus, so the union of all shards equals the
//! unsharded stream byte-for-byte regardless of the shard count.
//!
//! ```
//! use vv_corpus::CaseSource;
//! use vv_dclang::DirectiveModel;
//! use vv_probing::CorpusSpec;
//!
//! let spec = CorpusSpec::new(DirectiveModel::OpenAcc)
//!     .seed(42)
//!     .probe_seed(7)
//!     .size(100);
//! let cases: Vec<_> = spec.source().into_cases().collect();
//! assert_eq!(cases.len(), 100);
//! assert_eq!(cases.iter().filter(|c| !c.ground_truth_valid()).count(), 50);
//! ```

use vv_corpus::{CaseSource, TemplateSource};
use vv_dclang::DirectiveModel;

use crate::source::ProbeExt;
use crate::ProbeConfig;

/// Declarative description of a corpus pipeline (see the module docs).
#[derive(Clone, Debug)]
pub struct CorpusSpec {
    model: DirectiveModel,
    seed: u64,
    size: Option<usize>,
    c_only: bool,
    probe: Option<ProbeConfig>,
    shard: Option<(usize, usize)>,
}

impl CorpusSpec {
    /// A spec for `model`: all features, C and C++ flavors, seed 0, no
    /// probing, unbounded size.
    pub fn new(model: DirectiveModel) -> Self {
        Self {
            model,
            seed: 0,
            size: None,
            c_only: false,
            probe: None,
            shard: None,
        }
    }

    /// Corpus generation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total (unsharded) corpus size. Unset specs are unbounded streams.
    pub fn size(mut self, size: usize) -> Self {
        self.size = Some(size);
        self
    }

    /// Restrict to C files only.
    pub fn c_only(mut self) -> Self {
        self.c_only = true;
        self
    }

    /// Enable negative probing with a full configuration.
    pub fn probe(mut self, config: ProbeConfig) -> Self {
        self.probe = Some(config);
        self
    }

    /// Enable negative probing with default weights and the given seed.
    pub fn probe_seed(self, seed: u64) -> Self {
        self.probe(ProbeConfig::with_seed(seed))
    }

    /// Select shard `k` of `n` of the (probed, sized) corpus.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `k >= n` (checked when the source is built).
    pub fn shard(mut self, k: usize, n: usize) -> Self {
        self.shard = Some((k, n));
        self
    }

    /// The programming model this spec generates for.
    pub fn model(&self) -> DirectiveModel {
        self.model
    }

    /// Assemble the streaming source pipeline this spec describes.
    pub fn source(&self) -> Box<dyn CaseSource + Send> {
        let mut templates = TemplateSource::new(self.model, self.seed);
        if self.c_only {
            templates = templates.c_only();
        }
        let mut source: Box<dyn CaseSource + Send> = templates.boxed();
        if let Some(config) = &self.probe {
            source = source.probe(config.clone()).boxed();
        }
        if let Some(size) = self.size {
            source = source.take(size).boxed();
        }
        if let Some((k, n)) = self.shard {
            source = source.shard(k, n).boxed();
        }
        source
    }

    /// A human-readable description of the assembled pipeline.
    pub fn describe(&self) -> String {
        self.source().describe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vv_corpus::GeneratedCase;
    use vv_simcompiler::Lang;

    fn collect(spec: &CorpusSpec) -> Vec<GeneratedCase> {
        spec.source().into_cases().collect()
    }

    #[test]
    fn spec_is_deterministic() {
        let spec = CorpusSpec::new(DirectiveModel::OpenMp)
            .seed(31)
            .probe_seed(32)
            .size(24);
        assert_eq!(collect(&spec), collect(&spec));
    }

    #[test]
    fn shard_union_is_byte_identical_to_the_unsharded_corpus() {
        let base = CorpusSpec::new(DirectiveModel::OpenAcc)
            .seed(5)
            .probe_seed(6)
            .size(20);
        let full = collect(&base);
        for n in [1usize, 2, 4] {
            let shards: Vec<Vec<GeneratedCase>> =
                (0..n).map(|k| collect(&base.clone().shard(k, n))).collect();
            let mut union = Vec::new();
            for i in 0..full.len() {
                union.push(shards[i % n][i / n].clone());
            }
            assert_eq!(union, full, "n = {n}");
        }
    }

    #[test]
    fn c_only_is_forwarded() {
        let spec = CorpusSpec::new(DirectiveModel::OpenMp).seed(3).size(30);
        let cases = collect(&spec.clone().c_only());
        assert_eq!(cases.len(), 30);
        assert!(cases.iter().all(|c| c.case.lang == Lang::C));
        assert_eq!(
            cases,
            TemplateSource::new(DirectiveModel::OpenMp, 3)
                .c_only()
                .take(30)
                .into_cases()
                .collect::<Vec<_>>()
        );
        assert!(collect(&spec).iter().any(|c| c.case.lang == Lang::Cpp));
    }

    #[test]
    fn describe_names_every_stage() {
        let description = CorpusSpec::new(DirectiveModel::OpenAcc)
            .probe_seed(1)
            .size(10)
            .shard(1, 2)
            .describe();
        for stage in ["templates", "probe", "take", "shard(1/2)"] {
            assert!(description.contains(stage), "{description}");
        }
    }

    #[test]
    fn unprobed_specs_stream_pristine_cases() {
        let cases = collect(&CorpusSpec::new(DirectiveModel::OpenAcc).seed(8).size(6));
        assert!(cases.iter().all(|c| c.issue_id.is_none()));
        assert!(cases.iter().all(|c| c.source == c.case.source));
    }
}
