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
//! A hit allocates only its id. [`RecordStore::lookup`] builds no key: the
//! address extends the hash of the service's fixed key prefix, taken once
//! per [`RecordStore`], and the store compares the stored key with the
//! prefix, the item's model and language and its source in place. The
//! record's text fields ([`Text`]) are ranges of the buffer the store
//! holds for the record, so a replayed record that is kept pins that
//! buffer until it drops.
//!
//! [`CompileBackend::fingerprint`]: crate::backend::CompileBackend::fingerprint

use std::sync::Arc;

use vv_judge::{JudgeOutcome, Text, Verdict};
use vv_simcompiler::Lang;
use vv_store::{kind, ArtifactStore, Bytes, Fnv1a, Reader, StoreStats, Writer};

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
    w.put_bytes(record.compile.stdout.as_bytes());
    w.put_bytes(record.compile.stderr.as_bytes());
    w.put_u8(u8::from(record.compile.succeeded));
    match &record.exec {
        None => w.put_u8(0),
        Some(exec) => {
            w.put_u8(1);
            w.put_i32(exec.return_code);
            w.put_bytes(exec.stdout.as_bytes());
            w.put_bytes(exec.stderr.as_bytes());
            w.put_u8(u8::from(exec.passed));
        }
    }
    match &record.judgement {
        None => w.put_u8(0),
        Some(judgement) => {
            w.put_u8(1);
            w.put_bytes(judgement.prompt.as_bytes());
            w.put_bytes(judgement.response.as_bytes());
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
/// caller treats the record as a miss). The bytes are copied once, into
/// one shared buffer whose ranges the record's text fields are.
pub fn decode_record(bytes: &[u8]) -> Option<CaseRecord> {
    decode_shared(&Bytes::from(bytes), None)
}

/// Decode [`encode_record`] bytes without copying them: every text field
/// is a range of `bytes`' buffer. The id is the stored one, or `relabel`.
fn decode_shared(bytes: &Bytes, relabel: Option<&str>) -> Option<CaseRecord> {
    let mut r = Reader::new(bytes);
    let stored_id = r.get_str("record id").ok()?;
    let id = relabel.unwrap_or(stored_id).to_owned();
    let compile = CompileSummary {
        return_code: r.get_i32("compile return code").ok()?,
        stdout: decode_text(&mut r, bytes, "compile stdout")?,
        stderr: decode_text(&mut r, bytes, "compile stderr")?,
        succeeded: decode_bool(&mut r, "compile succeeded")?,
    };
    let exec = match r.get_u8("exec flag").ok()? {
        0 => None,
        1 => Some(ExecSummary {
            return_code: r.get_i32("exec return code").ok()?,
            stdout: decode_text(&mut r, bytes, "exec stdout")?,
            stderr: decode_text(&mut r, bytes, "exec stderr")?,
            passed: decode_bool(&mut r, "exec passed")?,
        }),
        _ => return None,
    };
    let judgement = match r.get_u8("judgement flag").ok()? {
        0 => None,
        1 => Some(JudgeOutcome {
            prompt: decode_text(&mut r, bytes, "judge prompt")?,
            response: decode_text(&mut r, bytes, "judge response")?,
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

/// The next length-prefixed string of `r` (a reader over `bytes`) as a
/// range of `bytes`' buffer.
fn decode_text(r: &mut Reader<'_>, bytes: &Bytes, context: &'static str) -> Option<Text> {
    let len = r.get_bytes(context).ok()?.len();
    let end = bytes.range().start + r.position();
    Text::from_shared(Arc::clone(bytes.buffer()), end - len..end)
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
    /// The address hash after `prefix`: an item's address extends a copy.
    prefix_hash: Fnv1a,
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
        let prefix = w.into_bytes();
        let mut prefix_hash = Fnv1a::new();
        prefix_hash.update(&prefix);
        Self {
            store,
            prefix,
            prefix_hash,
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
    /// Its [`vv_store::fnv1a`] is the record's address.
    pub fn key_of(&self, item: &WorkItem) -> Vec<u8> {
        self.with_key(item.model, item.lang, &item.source, |_, key| key.concat())
    }

    /// Call `f` with the address and the key in parts of a case's model,
    /// lang and source: the prefix, the model, lang and source-length
    /// bytes, and the source.
    fn with_key<R>(
        &self,
        model: DirectiveModel,
        lang: Lang,
        source: &str,
        f: impl FnOnce(u64, &[&[u8]]) -> R,
    ) -> R {
        let mut head = [0u8; 6];
        head[0] = match model {
            DirectiveModel::OpenAcc => 0,
            DirectiveModel::OpenMp => 1,
        };
        head[1] = match lang {
            Lang::C => 0,
            Lang::Cpp => 1,
        };
        head[2..].copy_from_slice(&(source.len() as u32).to_le_bytes());
        let source = source.as_bytes();
        let addr = self
            .prefix_hash
            .clone()
            .update(&head)
            .update(source)
            .finish();
        f(addr, &[&self.prefix, &head, source])
    }

    /// Fetch and decode the stored record for an item, re-labeled with the
    /// item's id. Counts a store hit or miss; an undecodable value counts
    /// as a miss and as undecodable. A hit allocates only the id: the
    /// key is compared in place and the record's text fields share the
    /// stored buffer (see the module docs).
    pub fn lookup(&self, item: &WorkItem) -> Option<CaseRecord> {
        let bytes = self.with_key(item.model, item.lang, &item.source, |addr, key| {
            self.store.get_parts(kind::CASE, addr, key)
        })?;
        let record = decode_shared(&bytes, Some(&item.id));
        if record.is_none() {
            self.store.note_undecodable();
        }
        record
    }

    /// True when the store holds a record for a case of this model, lang
    /// and source (the key fields of a [`WorkItem`]). Counts nothing and
    /// decodes nothing: it checks what a later [`RecordStore::lookup`] of
    /// such an item would find, and that lookup does the counting.
    pub fn holds(&self, model: DirectiveModel, lang: Lang, source: &str) -> bool {
        self.with_key(model, lang, source, |addr, key| {
            self.store.probe_parts(kind::CASE, addr, key).is_some()
        })
    }

    /// Persist a completed record (first-write-wins; durability failures
    /// are best-effort — the pipeline result itself is unaffected).
    pub fn persist(&self, item: &WorkItem, record: &CaseRecord) {
        let value = encode_record(record);
        let _ = self.with_key(item.model, item.lang, &item.source, |addr, key| {
            self.store.put_parts(kind::CASE, addr, key, &value)
        });
    }

    /// Seal buffered records into a durable segment.
    pub fn flush(&self) {
        let _ = self.store.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vv_store::fnv1a;

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
        assert!(a.holds(item.model, item.lang, &item.source));
        assert!(!b.holds(item.model, item.lang, &item.source));
        assert!(!c.holds(item.model, item.lang, &item.source));
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

    fn temp_store(tag: &str) -> (std::path::PathBuf, Arc<ArtifactStore>) {
        let dir = std::env::temp_dir().join(format!("vv-recstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open_shared(&dir).unwrap();
        (dir, store)
    }

    fn record_store(store: &Arc<ArtifactStore>) -> RecordStore {
        RecordStore::new(
            Arc::clone(store),
            PipelineMode::RecordAll,
            "compile-v1",
            "exec-v1",
            "judge-v1",
        )
    }

    #[test]
    fn a_record_put_under_its_whole_key_is_found_in_place() {
        let (dir, store) = temp_store("whole-key");
        let records = record_store(&store);
        let item = WorkItem {
            id: "x".into(),
            // Not a multiple of the hash's 8-byte words.
            source: "int main() { return 0; }\n/* 29 */".into(),
            lang: Lang::Cpp,
            model: DirectiveModel::OpenMp,
        };
        let stored = record(true, true);
        // The whole-key path: build the key, hash it whole, put it whole.
        let key = records.key_of(&item);
        assert!(store
            .put(kind::CASE, fnv1a(&key), &key, &encode_record(&stored))
            .unwrap());
        assert!(records.holds(item.model, item.lang, &item.source));
        let relabeled = WorkItem {
            id: "probe-17".into(),
            ..item.clone()
        };
        assert_eq!(records.lookup(&relabeled), Some(stored.clone()));
        // And the in-place persist lands under the same address and key.
        let other = WorkItem {
            source: "int main() { return 1; }".into(),
            ..item
        };
        records.persist(&other, &stored);
        let key = records.key_of(&other);
        assert!(store.probe(kind::CASE, fnv1a(&key), &key).is_some());
        drop(records);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_replayed_record_shares_the_stored_bytes() {
        let (dir, store) = temp_store("zero-copy");
        let records = record_store(&store);
        let item = |source: &str| WorkItem {
            id: "case".into(),
            source: source.into(),
            lang: Lang::C,
            model: DirectiveModel::OpenAcc,
        };
        let mut crlf = record(true, true);
        crlf.id = "case".into();
        crlf.compile.stdout = "warning: x\r\nnote: y\r\n".into();
        crlf.exec.as_mut().unwrap().stdout = "Test passed\r\n".into();
        let mut unicode = crlf.clone();
        unicode.compile.stderr = "erreur : « é »\n".into();
        unicode.exec.as_mut().unwrap().stderr = "検証に失敗\n".into();
        let judgement = unicode.judgement.as_mut().unwrap();
        judgement.prompt = "Évaluez ce test — ✓\r\n".into();
        judgement.response = "FINAL JUDGEMENT: valid 👍".into();
        let mut empty = crlf.clone();
        empty.compile.stdout = "".into();
        empty.compile.stderr = "".into();
        let exec = empty.exec.as_mut().unwrap();
        exec.stdout = "".into();
        exec.stderr = "".into();
        let judgement = empty.judgement.as_mut().unwrap();
        judgement.prompt = "".into();
        judgement.response = "".into();
        let cases = [("crlf", crlf), ("unicode", unicode), ("empty", empty)];
        for (source, cold) in &cases {
            records.persist(&item(source), cold);
        }
        drop(records);
        drop(store);

        let store = ArtifactStore::open_shared(&dir).unwrap();
        let records = record_store(&store);
        for (source, cold) in &cases {
            let item = item(source);
            let hit = records.lookup(&item).expect("a stored record");
            assert_eq!(encode_record(&hit), encode_record(cold), "{source}");
            let key = records.key_of(&item);
            let bytes = store.probe(kind::CASE, fnv1a(&key), &key).expect("held");
            let value = bytes.buffer().as_ptr_range();
            let value = value.start as usize + bytes.range().start..value.end as usize;
            let exec = hit.exec.as_ref().unwrap();
            let judgement = hit.judgement.as_ref().unwrap();
            for (field, text) in [
                ("compile stdout", &hit.compile.stdout),
                ("compile stderr", &hit.compile.stderr),
                ("exec stdout", &exec.stdout),
                ("exec stderr", &exec.stderr),
                ("prompt", &judgement.prompt),
                ("response", &judgement.response),
            ] {
                let text = text.as_bytes().as_ptr_range();
                assert!(
                    value.start <= text.start as usize && text.end as usize <= value.end,
                    "{source}: the {field} was copied out of the stored bytes"
                );
            }
        }
        drop(records);
        drop(store);
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
        assert!(
            records.holds(stored.model, stored.lang, &stored.source),
            "a hit"
        );
        assert!(
            !records.holds(missing.model, missing.lang, &missing.source),
            "a miss"
        );
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
