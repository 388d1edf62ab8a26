//! The per-case stage rules, written once.
//!
//! [`Stages::run`] takes one case through every stage in a straight line:
//! the record-store lookup (a stored record replays into the stats and
//! skips every stage), compile, execute and judge with the early-exit
//! rule, the stats counters, and the persist of every finished record.
//! Each executor worker ([`crate::parallel`]) calls it once per case, and
//! [`crate::ValidationService::process_case`] calls it on the calling
//! thread. Both therefore produce the same record for the same item,
//! whatever the schedule.

use std::collections::HashMap;
use std::sync::Arc;

use vv_dclang::DirectiveModel;
use vv_simcompiler::{CompileFetch, CompileSession};

use crate::backend::{
    CompileBackend, CompileOutput, ExecBackend, JudgeBackend, SimCompileBackend,
    MAX_SESSION_SYMBOLS,
};
use crate::persist::RecordStore;
use crate::stats::PipelineStats;
use crate::{CaseRecord, PipelineMode, WorkItem};

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

/// Compile sessions leased per model by one caller, so consecutive
/// compiles skip the backend's pool; hand them back with
/// [`Stages::release`].
pub(crate) type Leases = HashMap<DirectiveModel, CompileSession>;

impl Stages {
    /// Every stage of `item` on the calling thread, counted into `stats`.
    /// A stored record replays into the stats and skips every stage;
    /// otherwise the case runs through the stages and the finished record
    /// is persisted (when a store is attached).
    pub(crate) fn run(
        &self,
        item: &WorkItem,
        leases: &mut Leases,
        stats: &mut PipelineStats,
    ) -> CaseRecord {
        let store = self.record_store.as_deref();
        if let Some(store) = store {
            if let Some(record) = store.lookup(item) {
                stats.store_hits += 1;
                // Replay the stored stages into the aggregates, so hit-heavy
                // runs report the same stage counters as cold ones.
                stats.observe_record(&record);
                return record;
            }
            stats.store_misses += 1;
        }
        let record = self.validate(item, leases, stats);
        // The stage counters follow from the record alone, exactly as for
        // a replayed one.
        stats.observe_record(&record);
        if let Some(store) = store {
            store.persist(item, &record);
        }
        record
    }

    /// Compile, execute and judge `item`, counting only where the compile
    /// came from. Under early exit a case stops at the first stage that
    /// fails.
    fn validate(
        &self,
        item: &WorkItem,
        leases: &mut Leases,
        stats: &mut PipelineStats,
    ) -> CaseRecord {
        let early_exit = self.mode == PipelineMode::EarlyExit;
        let CompileOutput {
            summary: compile,
            artifact,
            signals,
            fetch,
        } = self.compile(item, leases);
        match fetch {
            Some(CompileFetch::Fresh) => stats.compile_cache_misses += 1,
            Some(_) => stats.compile_cache_hits += 1,
            None => {}
        }
        let mut record = CaseRecord {
            id: item.id.clone(),
            compile,
            exec: None,
            judgement: None,
        };
        if early_exit && !record.compile.succeeded {
            return record;
        }

        record.exec = artifact
            .as_ref()
            .map(|program| self.exec.execute(item, program));
        if early_exit && !record.exec.as_ref().is_some_and(|e| e.passed) {
            return record;
        }

        record.judgement = Some(self.judge.judge(
            item,
            &record.compile,
            record.exec.as_ref(),
            signals.as_deref(),
        ));
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
