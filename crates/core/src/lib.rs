//! `llm4vv` — the top-level crate of the LLM4VV reproduction.
//!
//! This crate ties the substrates together into the experiments the paper
//! reports:
//!
//! * **Part One** ([`experiment::stream_part_one`]): negative probing of
//!   the plain (non-agent) judge with the direct-analysis prompt — Tables
//!   I–III;
//! * **Part Two** ([`experiment::stream_part_two`]): the record-all
//!   validation pipeline with both agent-based judges (LLMJ 1 / LLMJ 2),
//!   run as two [`campaign`] scenarios, from which the stand-alone
//!   agent-judge results (Tables VII–IX) and the pipeline results (Tables
//!   IV–VI) are both derived, plus the radar figures (Figures 3–6);
//! * [`campaign`]: the scenario-matrix harness — sweep directive model ×
//!   prompt style × probe fraction × judge profile in
//!   one run, every scenario folded into mergeable constant-memory
//!   accumulators over sharded corpus sources;
//! * [`incremental`]: checkpoint/resume campaigns over a durable
//!   `vv-store` artifact store, driven by the same scenario routine as
//!   [`run_campaign`] — crashed runs resume from the records the store
//!   sealed, unchanged cases replay from disk, and a zero-budget run
//!   reports how much of a campaign the store already holds;
//! * [`remote`]: submit scenarios to a resident `vv-server` daemon over
//!   the validation protocol — corpus generated and metrics folded
//!   locally, validation executed by the server — with results that
//!   agree with the in-process fold;
//! * [`reproduce`]: one function per table and figure that renders the
//!   corresponding output in the paper's layout, from accumulator state.
//!
//! Both experiment drivers and every campaign scenario compute their
//! metrics without materializing a single record `Vec`: records fold into
//! `vv_metrics::accumulate` sinks as they complete, and sharded folds
//! merge byte-identically to unsharded ones.
//!
//! # Quickstart
//!
//! ```
//! use llm4vv::experiment::{stream_part_one, PartOneConfig};
//! use vv_dclang::DirectiveModel;
//!
//! let config = PartOneConfig::quick(DirectiveModel::OpenAcc, 24);
//! let metrics = stream_part_one(&config);
//! let overall = metrics.overall();
//! assert_eq!(overall.total, 24);
//! assert!(overall.accuracy >= 0.0 && overall.accuracy <= 1.0);
//! ```

pub mod campaign;
pub mod experiment;
pub mod incremental;
pub mod remote;
pub mod reproduce;

pub use campaign::{run_campaign, CampaignResults, Scenario, ScenarioMatrix, ScenarioMetrics};
pub use experiment::{
    stream_part_one, stream_part_two, Evaluator, PartOneConfig, PartOneMetrics, PartTwoConfig,
    PartTwoMetrics,
};
pub use incremental::{run_incremental_campaign, stage_stats};
pub use remote::{run_scenario_remote, scenario_job_spec, RemoteError};

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use vv_corpus as corpus;
pub use vv_dclang as dclang;
pub use vv_judge as judge;
pub use vv_metrics as metrics;
pub use vv_pipeline as pipeline;
pub use vv_probing as probing;
pub use vv_server as server;
pub use vv_simcompiler as simcompiler;
pub use vv_simexec as simexec;
pub use vv_specs as specs;
