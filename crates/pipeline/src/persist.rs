//! Record-level persistence: a durable store of complete [`CaseRecord`]s
//! keyed by validation identity.
//!
//! Where the compile-cache disk tier (see `vv_simcompiler::persist`)
//! memoizes the *compile stage*, this layer memoizes the *entire
//! pipeline*: compile + execute + judge. A re-run over an unchanged case
//! skips all three stages and replays the stored record, which is sound
//! because every default backend is a pure function of its inputs and the
//! key covers everything those inputs derive from:
//!
//! * `model` and `lang` select the compiler and prompt wording;
//! * the full **source bytes** determine the compile outcome, the executed
//!   program, the judge's code signals and its rendered prompt;
//! * the **backend fingerprints** (see [`CompileBackend::fingerprint`]
//!   etc.) pin the configuration each stage closes over — vendor/spec for
//!   the compiler, interpreter limits for the executor, and the judge's
//!   full calibration profile, seed, prompt style and cost model;
//! * the **pipeline mode** byte separates early-exit records (which may
//!   lack exec/judge stages) from record-all records.
//!
//! A backend that cannot state its fingerprint (any custom impl that keeps
//! the default `None`) disables the layer for the whole service — silently
//! serving stale records for an unknown configuration would be a
//! correctness bug, not a cache miss.
//!
//! Record ids are stored but *not* part of the key: a stored record hit is
//! re-labeled with the requesting item's id, so sharded and re-shuffled
//! corpora still hit (ids encode shard position, which may differ).
//!
//! [`CompileBackend::fingerprint`]: crate::backend::CompileBackend::fingerprint

use std::sync::Arc;

use vv_judge::{JudgeOutcome, Verdict};
use vv_simcompiler::Lang;
use vv_store::{fnv1a, kind, ArtifactStore, Reader, StoreStats, Writer};

use crate::{CaseRecord, CompileSummary, ExecSummary, PipelineMode, WorkItem};
use vv_dclang::DirectiveModel;

/// Serialize a complete case record (including its id; hits re-label it).
pub fn encode_record(record: &CaseRecord) -> Vec<u8> {
    let mut w = Writer::with_capacity(
        64 + record.id.len()
            + record.compile.stderr.len()
            + record
                .judgement
                .as_ref()
                .map_or(0, |j| j.prompt.len() + j.response.len()),
    );
    w.put_str(&record.id);
    w.put_i32(record.compile.return_code);
    w.put_str(&record.compile.stdout);
    w.put_str(&record.compile.stderr);
    w.put_u8(u8::from(record.compile.succeeded));
    match &record.exec {
        None => w.put_u8(0),
        Some(exec) => {
            w.put_u8(1);
            w.put_i32(exec.return_code);
            w.put_str(&exec.stdout);
            w.put_str(&exec.stderr);
            w.put_u8(u8::from(exec.passed));
        }
    }
    match &record.judgement {
        None => w.put_u8(0),
        Some(judgement) => {
            w.put_u8(1);
            w.put_str(&judgement.prompt);
            w.put_str(&judgement.response);
            w.put_u8(match judgement.verdict {
                None => 0,
                Some(Verdict::Valid) => 1,
                Some(Verdict::Invalid) => 2,
            });
            w.put_u64(judgement.prompt_tokens as u64);
            w.put_u64(judgement.response_tokens as u64);
            w.put_f64(judgement.latency_ms);
        }
    }
    w.into_bytes()
}

/// Decode [`encode_record`] bytes; `None` on any structural damage (the
/// caller treats the record as a miss).
pub fn decode_record(bytes: &[u8]) -> Option<CaseRecord> {
    let mut r = Reader::new(bytes);
    let id = r.get_str("record id").ok()?.to_owned();
    let compile = CompileSummary {
        return_code: r.get_i32("compile return code").ok()?,
        stdout: r.get_str("compile stdout").ok()?.into(),
        stderr: r.get_str("compile stderr").ok()?.into(),
        succeeded: decode_bool(&mut r, "compile succeeded")?,
    };
    let exec = match r.get_u8("exec flag").ok()? {
        0 => None,
        1 => Some(ExecSummary {
            return_code: r.get_i32("exec return code").ok()?,
            stdout: r.get_str("exec stdout").ok()?.into(),
            stderr: r.get_str("exec stderr").ok()?.into(),
            passed: decode_bool(&mut r, "exec passed")?,
        }),
        _ => return None,
    };
    let judgement = match r.get_u8("judgement flag").ok()? {
        0 => None,
        1 => Some(JudgeOutcome {
            prompt: r.get_str("judge prompt").ok()?.to_owned(),
            response: r.get_str("judge response").ok()?.to_owned(),
            verdict: match r.get_u8("judge verdict").ok()? {
                0 => None,
                1 => Some(Verdict::Valid),
                2 => Some(Verdict::Invalid),
                _ => return None,
            },
            prompt_tokens: r.get_u64("judge prompt tokens").ok()? as usize,
            response_tokens: r.get_u64("judge response tokens").ok()? as usize,
            latency_ms: r.get_f64("judge latency").ok()?,
        }),
        _ => return None,
    };
    if !r.is_exhausted() {
        return None;
    }
    Some(CaseRecord {
        id,
        compile,
        exec,
        judgement,
    })
}

fn decode_bool(r: &mut Reader<'_>, context: &'static str) -> Option<bool> {
    match r.get_u8(context).ok()? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

/// The record-level store layer a [`crate::ValidationService`] consults
/// before running any stage. Built by the service builder once every
/// backend has stated its fingerprint; see the module docs for the keying
/// and soundness argument.
#[derive(Debug)]
pub struct RecordStore {
    store: Arc<ArtifactStore>,
    /// Precomputed key prefix: mode byte + the three stage fingerprints.
    prefix: Vec<u8>,
}

impl RecordStore {
    /// Wrap `store` for a service with the given mode and stage
    /// fingerprints.
    pub fn new(
        store: Arc<ArtifactStore>,
        mode: PipelineMode,
        compile_fingerprint: &str,
        exec_fingerprint: &str,
        judge_fingerprint: &str,
    ) -> Self {
        let mut w = Writer::with_capacity(
            16 + compile_fingerprint.len() + exec_fingerprint.len() + judge_fingerprint.len(),
        );
        w.put_u8(match mode {
            PipelineMode::EarlyExit => 0,
            PipelineMode::RecordAll => 1,
        });
        w.put_str(compile_fingerprint);
        w.put_str(exec_fingerprint);
        w.put_str(judge_fingerprint);
        Self {
            store,
            prefix: w.into_bytes(),
        }
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    /// The store's counter snapshot.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// The full store key for one work item: prefix + model + lang +
    /// source bytes. Ids are deliberately excluded (see the module docs).
    pub fn key_of(&self, item: &WorkItem) -> Vec<u8> {
        let mut key = Vec::with_capacity(self.prefix.len() + 6 + item.source.len());
        key.extend_from_slice(&self.prefix);
        key.push(match item.model {
            DirectiveModel::OpenAcc => 0,
            DirectiveModel::OpenMp => 1,
        });
        key.push(match item.lang {
            Lang::C => 0,
            Lang::Cpp => 1,
        });
        key.extend_from_slice(&(item.source.len() as u32).to_le_bytes());
        key.extend_from_slice(item.source.as_bytes());
        key
    }

    /// Fetch and decode the stored record for an item, re-labeled with the
    /// item's id. Counts a store hit or miss; an undecodable value counts
    /// as a miss and as undecodable.
    pub fn lookup(&self, item: &WorkItem) -> Option<CaseRecord> {
        let key = self.key_of(item);
        let bytes = self.store.get(kind::CASE, fnv1a(&key), &key)?;
        self.decode_hit(&bytes, item)
    }

    /// True when the store holds a record under the item's key. Counts
    /// nothing and decodes nothing: it checks what a later
    /// [`RecordStore::lookup`] of the same item would find, and that
    /// lookup does the counting.
    pub fn holds(&self, item: &WorkItem) -> bool {
        let key = self.key_of(item);
        self.store.probe(kind::CASE, fnv1a(&key), &key).is_some()
    }

    /// Decode a counted hit re-labeled with the item's id, or reclassify
    /// it as an undecodable miss.
    fn decode_hit(&self, bytes: &[u8], item: &WorkItem) -> Option<CaseRecord> {
        let Some(mut record) = decode_record(bytes) else {
            self.store.note_undecodable();
            return None;
        };
        record.id.clone_from(&item.id);
        Some(record)
    }

    /// Persist a completed record (first-write-wins; durability failures
    /// are best-effort — the pipeline result itself is unaffected).
    pub fn persist(&self, item: &WorkItem, record: &CaseRecord) {
        let key = self.key_of(item);
        let _ = self
            .store
            .put(kind::CASE, fnv1a(&key), &key, &encode_record(record));
    }

    /// Seal buffered records into a durable segment.
    pub fn flush(&self) {
        let _ = self.store.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(with_exec: bool, with_judge: bool) -> CaseRecord {
        CaseRecord {
            id: "probe-17".into(),
            compile: CompileSummary {
                return_code: 2,
                stdout: "".into(),
                stderr: "test.c:3:1: error: x".into(),
                succeeded: false,
            },
            exec: with_exec.then(|| ExecSummary {
                return_code: 0,
                stdout: "Test passed\n".into(),
                stderr: "".into(),
                passed: true,
            }),
            judgement: with_judge.then(|| JudgeOutcome {
                prompt: "You are an expert...".into(),
                response: "FINAL JUDGEMENT: valid".into(),
                verdict: Some(Verdict::Valid),
                prompt_tokens: 321,
                response_tokens: 17,
                latency_ms: 1234.5,
            }),
        }
    }

    #[test]
    fn record_codec_round_trips_every_stage_shape() {
        for (with_exec, with_judge) in [(false, false), (true, false), (false, true), (true, true)]
        {
            let original = record(with_exec, with_judge);
            let decoded = decode_record(&encode_record(&original)).expect("decodes");
            assert_eq!(decoded, original);
        }
    }

    #[test]
    fn truncated_record_bytes_never_decode() {
        let bytes = encode_record(&record(true, true));
        for cut in 0..bytes.len() {
            assert!(
                decode_record(&bytes[..cut]).is_none(),
                "truncation at {cut} decoded"
            );
        }
    }

    #[test]
    fn store_keys_separate_mode_config_and_identity() {
        let dir = std::env::temp_dir().join(format!("vv-recstore-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open_shared(&dir).unwrap();
        let a = RecordStore::new(
            Arc::clone(&store),
            PipelineMode::RecordAll,
            "compile-v1",
            "exec-v1",
            "judge-v1",
        );
        let b = RecordStore::new(
            Arc::clone(&store),
            PipelineMode::EarlyExit,
            "compile-v1",
            "exec-v1",
            "judge-v1",
        );
        let c = RecordStore::new(
            Arc::clone(&store),
            PipelineMode::RecordAll,
            "compile-v1",
            "exec-v1",
            "judge-v2",
        );
        let item = WorkItem {
            id: "x".into(),
            source: "int main() { return 0; }".into(),
            lang: Lang::C,
            model: DirectiveModel::OpenAcc,
        };
        let stored = record(true, true);
        a.persist(&item, &stored);
        // Same mode+fingerprints hit; different mode or fingerprint miss.
        assert!(a.holds(&item));
        assert!(!b.holds(&item));
        assert!(!c.holds(&item));
        // The hit is re-labeled with the *requesting* item's id.
        let relabeled = WorkItem {
            id: "renamed".into(),
            ..item.clone()
        };
        let hit = a.lookup(&relabeled).expect("hit");
        assert_eq!(hit.id, "renamed");
        assert_eq!(hit.compile, stored.compile);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn holds_leaves_the_store_counters_unchanged() {
        let dir = std::env::temp_dir().join(format!("vv-recstore-holds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open_shared(&dir).unwrap();
        let records = RecordStore::new(
            Arc::clone(&store),
            PipelineMode::RecordAll,
            "compile-v1",
            "exec-v1",
            "judge-v1",
        );
        let stored = WorkItem {
            id: "x".into(),
            source: "int main() { return 0; }".into(),
            lang: Lang::C,
            model: DirectiveModel::OpenAcc,
        };
        let missing = WorkItem {
            source: "int main() { return 1; }".into(),
            ..stored.clone()
        };
        records.persist(&stored, &record(true, true));
        let before = records.stats();
        assert!(records.holds(&stored), "a hit");
        assert!(!records.holds(&missing), "a miss");
        assert_eq!(records.stats(), before);
        drop(records);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn undecodable_records_count_as_misses_and_revalidate() {
        use vv_corpus::CaseSource;

        let dir = std::env::temp_dir().join(format!("vv-recstore-garbage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open_shared(&dir).unwrap();
        let item = WorkItem::from(
            vv_probing::CorpusSpec::new(DirectiveModel::OpenAcc)
                .seed(41)
                .size(1)
                .source()
                .next_case()
                .expect("one case"),
        );
        let service = crate::ValidationService::builder()
            .artifact_store(Arc::clone(&store))
            .build();
        let records = service
            .record_store()
            .expect("default backends pin a fingerprint");
        // Garbage that passes the store's checksum but is no record.
        let key = records.key_of(&item);
        assert!(store
            .put(kind::CASE, fnv1a(&key), &key, b"not a case record")
            .unwrap());

        assert_eq!(records.lookup(&item), None);
        let stats = records.stats();
        assert_eq!((stats.hits, stats.misses, stats.undecodable), (0, 1, 1));

        let cold = crate::ValidationService::default().run(vec![item.clone()]);
        let revalidated = service.run(vec![item]);
        assert_eq!(revalidated.records, cold.records);
        assert_eq!(revalidated.stats.store_misses, 1);
        drop(service);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
