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

use std::sync::Arc;

use vv_simcompiler::CompileFetch;

use crate::backend::{CompileBackend, CompileOutput, ExecBackend, JudgeBackend};
use crate::persist::RecordStore;
use crate::stats::PipelineStats;
use crate::{CaseRecord, PipelineMode, WorkItem};

/// The stage backends and rules of one service.
pub(crate) struct Stages {
    pub(crate) mode: PipelineMode,
    pub(crate) compile: Arc<dyn CompileBackend>,
    pub(crate) exec: Arc<dyn ExecBackend>,
    pub(crate) judge: Arc<dyn JudgeBackend>,
    /// Whole-record persistence, when an artifact store is attached and
    /// every backend pins its configuration.
    pub(crate) record_store: Option<Arc<RecordStore>>,
}

impl Stages {
    /// Every stage of `item` on the calling thread, counted into `stats`.
    /// A stored record replays into the stats and skips every stage;
    /// otherwise the case runs through the stages and the finished record
    /// is persisted (when a store is attached).
    pub(crate) fn run(&self, item: &WorkItem, stats: &mut PipelineStats) -> CaseRecord {
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
        let record = self.validate(item, stats);
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
    fn validate(&self, item: &WorkItem, stats: &mut PipelineStats) -> CaseRecord {
        let early_exit = self.mode == PipelineMode::EarlyExit;
        let CompileOutput {
            summary: compile,
            artifact,
            signals,
            fetch,
        } = self.compile.compile(item);
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
}
