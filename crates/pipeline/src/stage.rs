//! The per-case stage rules, written once.
//!
//! [`Stages::step`] advances one case by one stage: the record-store
//! lookup (a stored record replays into the stats and skips every stage),
//! compile, execute and judge with the early-exit rule, the stats
//! counters, and the persist of every finished record. The pipelined
//! executor ([`crate::parallel`]) runs one step per queue pop;
//! [`crate::ValidationService::process_case`] loops [`Stages::run`] on the
//! calling thread. Both therefore produce the same record for the same
//! item, whatever the schedule.

use std::collections::HashMap;
use std::sync::Arc;

use vv_dclang::DirectiveModel;
use vv_judge::CodeSignals;
use vv_simcompiler::{CompileFetch, CompileSession, Program};

use crate::backend::{
    CompileBackend, CompileOutput, ExecBackend, JudgeBackend, SimCompileBackend,
    MAX_SESSION_SYMBOLS,
};
use crate::persist::RecordStore;
use crate::stats::PipelineStats;
use crate::{CaseRecord, CompileSummary, ExecSummary, PipelineMode, WorkItem};

/// The stage backends and rules of one service.
pub(crate) struct Stages {
    pub(crate) mode: PipelineMode,
    pub(crate) compile: Arc<dyn CompileBackend>,
    /// The concrete default backend when the service is running one, which
    /// unlocks per-worker session leases; `None` falls back to the
    /// object-safe per-call path.
    pub(crate) sim_compile: Option<Arc<SimCompileBackend>>,
    pub(crate) exec: Arc<dyn ExecBackend>,
    pub(crate) judge: Arc<dyn JudgeBackend>,
    /// Whole-record persistence, when an artifact store is attached and
    /// every backend pins its configuration.
    pub(crate) record_store: Option<Arc<RecordStore>>,
}

/// Where a case stands between stages.
pub(crate) enum Case {
    /// Admitted: store lookup and compile next.
    Admitted,
    /// Compiled: execute next.
    Compiled {
        compile: CompileSummary,
        artifact: Option<Program>,
        signals: Option<Arc<CodeSignals>>,
    },
    /// Executed: judge next.
    Executed {
        compile: CompileSummary,
        exec: Option<ExecSummary>,
        signals: Option<Arc<CodeSignals>>,
    },
}

/// The outcome of one [`Stages::step`].
pub(crate) enum Step {
    /// The case needs another stage.
    Next(Case),
    /// The case is finished (and persisted, when a store is attached).
    Done(CaseRecord),
}

/// Compile sessions leased per model by one caller, so consecutive
/// compiles skip the backend's pool; hand them back with
/// [`Stages::release`].
pub(crate) type Leases = HashMap<DirectiveModel, CompileSession>;

impl Stages {
    /// Run one stage of `item` and count it into `stats`.
    pub(crate) fn step(
        &self,
        item: &WorkItem,
        case: Case,
        leases: &mut Leases,
        stats: &mut PipelineStats,
    ) -> Step {
        let early_exit = self.mode == PipelineMode::EarlyExit;
        let record = match case {
            Case::Admitted => {
                if let Some(store) = &self.record_store {
                    if let Some(record) = store.lookup(item) {
                        stats.store_hits += 1;
                        // Replay the stored stages into the aggregates, so
                        // hit-heavy runs report the same stage counters as
                        // cold ones.
                        stats.observe_record(&record);
                        return Step::Done(record);
                    }
                    stats.store_misses += 1;
                }
                let CompileOutput {
                    summary: compile,
                    artifact,
                    signals,
                    fetch,
                } = self.compile(item, leases);
                stats.compiled += 1;
                if !compile.succeeded {
                    stats.compile_failures += 1;
                }
                match fetch {
                    Some(CompileFetch::Fresh) => stats.compile_cache_misses += 1,
                    Some(_) => stats.compile_cache_hits += 1,
                    None => {}
                }
                if compile.succeeded || !early_exit {
                    return Step::Next(Case::Compiled {
                        compile,
                        artifact,
                        signals,
                    });
                }
                CaseRecord {
                    id: item.id.clone(),
                    compile,
                    exec: None,
                    judgement: None,
                }
            }
            Case::Compiled {
                compile,
                artifact,
                signals,
            } => {
                let exec = artifact
                    .as_ref()
                    .map(|program| self.exec.execute(item, program));
                if let Some(exec) = &exec {
                    stats.executed += 1;
                    if !exec.passed {
                        stats.exec_failures += 1;
                    }
                }
                if exec.as_ref().is_some_and(|e| e.passed) || !early_exit {
                    return Step::Next(Case::Executed {
                        compile,
                        exec,
                        signals,
                    });
                }
                CaseRecord {
                    id: item.id.clone(),
                    compile,
                    exec,
                    judgement: None,
                }
            }
            Case::Executed {
                compile,
                exec,
                signals,
            } => {
                let judgement = self
                    .judge
                    .judge(item, &compile, exec.as_ref(), signals.as_deref());
                stats.judged += 1;
                stats.observe_judge_latency_ms(judgement.latency_ms);
                if !judgement.verdict_or_invalid().is_valid() {
                    stats.judge_rejections += 1;
                }
                CaseRecord {
                    id: item.id.clone(),
                    compile,
                    exec,
                    judgement: Some(judgement),
                }
            }
        };
        if let Some(store) = &self.record_store {
            store.persist(item, &record);
        }
        Step::Done(record)
    }

    /// Every stage of `item` on the calling thread.
    pub(crate) fn run(&self, item: &WorkItem, stats: &mut PipelineStats) -> CaseRecord {
        let mut leases = Leases::new();
        let mut case = Case::Admitted;
        let record = loop {
            match self.step(item, case, &mut leases, stats) {
                Step::Next(next) => case = next,
                Step::Done(record) => break record,
            }
        };
        self.release(&mut leases);
        record
    }

    /// Compile through a leased session when the concrete backend allows
    /// it, or through the object-safe backend otherwise.
    fn compile(&self, item: &WorkItem, leases: &mut Leases) -> CompileOutput {
        let Some(sim) = &self.sim_compile else {
            return self.compile.compile(item);
        };
        let session = leases
            .entry(item.model)
            .or_insert_with(|| sim.take_session(item.model));
        if session.interner().len() > MAX_SESSION_SYMBOLS {
            // Same retirement rule as the pooled path: a pathological
            // corpus must not grow the interner without bound.
            *session = sim.take_session(item.model);
        }
        sim.compile_with(session, item)
    }

    /// Return leased sessions to the backend's pool.
    pub(crate) fn release(&self, leases: &mut Leases) {
        if let Some(sim) = &self.sim_compile {
            for (model, session) in leases.drain() {
                sim.return_session(model, session);
            }
        }
    }
}
