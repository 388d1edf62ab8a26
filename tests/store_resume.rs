//! Crash-safety and resume laws for the artifact store and the
//! incremental campaigns resumed from it (`vv-store` +
//! `llm4vv::incremental`).
//!
//! 1. **Segment torn-write sweep** — a sealed segment truncated at every
//!    byte offset inside its final record reopens with only that record
//!    quarantined; every earlier record stays readable and the repaired
//!    store fscks clean;
//! 2. **Resume identity** — a budget-interrupted campaign resumed to
//!    completion reuses every record the interrupted run stored and
//!    produces metrics byte-identical to an uninterrupted incremental run
//!    *and* to the plain in-memory
//!    [`run_campaign`](llm4vv::campaign::run_campaign) (modulo
//!    [`stage_stats`]'s provenance/wall-time exclusions);
//! 3. **Torn-segment resume** — the same, after the interrupted run's
//!    last sealed segment is torn mid-record: the lost records simply
//!    re-validate, and the store fscks clean afterwards;
//! 4. **Torn-manifest sweep** — the interrupted run's manifest cut at
//!    every byte offset of its final frame (a seal whose append never
//!    completed): open keeps every earlier segment, fsck reports the
//!    unlisted one as an orphan, and the resumed campaign is again
//!    byte-identical to the uninterrupted and plain runs;
//! 5. **Warm re-run** — re-running a completed campaign validates zero
//!    fresh cases, exactly as a zero-budget run predicts;
//! 6. **Format compatibility** — a store sealed by the store code before
//!    hits shared the stored bytes (`tests/fixtures/store_9b7f83a`)
//!    reopens fsck-clean and replays every record it holds.
//!
//! No campaign leaves anything but the store in its directory.
//!
//! Release runs scale the sweeps and the campaigns (same gating idiom as
//! `tests/compile_parity.rs`); debug runs shrink so tier-1 `cargo test -q`
//! stays fast.

use std::path::{Path, PathBuf};

use llm4vv::campaign::{run_campaign, CampaignResults, ScenarioMatrix};
use llm4vv::incremental::{run_incremental_campaign, stage_stats};
use vv_corpus::CaseSource;
use vv_dclang::DirectiveModel;
use vv_judge::JudgeProfile;
use vv_pipeline::{ExecutionStrategy, PipelineMode, ValidationService, WorkItem};
use vv_probing::{CorpusSpec, ProbeConfig};
use vv_store::{check, fnv1a, kind, ArtifactStore};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vv-store-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Sweep sizes: number of segment records and the rough payload size of
/// the final one (every byte offset of which is cut).
fn sweep_scale() -> (usize, usize) {
    if cfg!(debug_assertions) {
        (8, 64)
    } else {
        (48, 1024)
    }
}

/// Per-scenario corpus size of the campaigns.
fn campaign_size() -> usize {
    if cfg!(debug_assertions) {
        60
    } else {
        2_000
    }
}

fn campaign_matrix() -> ScenarioMatrix {
    ScenarioMatrix::new(campaign_size())
        .judge_profiles(vec![
            JudgeProfile::deepseek_agent_direct(),
            JudgeProfile::deepseek_agent_indirect(),
        ])
        .shards(2)
}

/// A deterministic, incompressible-ish payload for record `i`.
fn payload(i: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| (i.wrapping_mul(31).wrapping_add(j.wrapping_mul(131)) % 251) as u8)
        .collect()
}

/// The store directory is the only durable state a campaign writes.
fn assert_no_journal(dir: &Path) {
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let name = entry.expect("entry").file_name();
        assert!(
            !name.to_string_lossy().ends_with(".vvj"),
            "campaign wrote a journal file {name:?}"
        );
    }
}

/// Byte offsets at which each frame of a segment or the manifest starts,
/// walking the documented format: 8-byte magic, then frames of
/// `len: u32 | checksum: u64 | payload`.
fn frame_starts(file: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut pos = 8usize;
    while pos < file.len() {
        starts.push(pos);
        let len = u32::from_le_bytes(file[pos..pos + 4].try_into().expect("len prefix")) as usize;
        pos += 12 + len;
    }
    assert_eq!(pos, file.len(), "frame walk consumed the whole file");
    starts
}

/// What every resumed campaign must equal: an uninterrupted incremental
/// run into a fresh store (`ref_tag` names its directory) and the plain
/// in-memory campaign.
struct Reference {
    uninterrupted: CampaignResults,
    plain: CampaignResults,
}

fn reference(matrix: &ScenarioMatrix, ref_tag: &str) -> Reference {
    let ref_dir = temp_dir(ref_tag);
    let uninterrupted = run_incremental_campaign(matrix, &ref_dir, None).expect("baseline");
    assert!(uninterrupted.completed());
    assert_fsck_clean(&ref_dir);
    std::fs::remove_dir_all(&ref_dir).expect("cleanup");
    Reference {
        uninterrupted,
        plain: run_campaign(matrix),
    }
}

/// A resumed campaign agrees with the reference runs, scenario by
/// scenario.
fn assert_identical_to_reference(resumed: &CampaignResults, reference: &Reference) {
    for ((resumed, baseline), plain) in resumed
        .scenarios
        .iter()
        .zip(&reference.uninterrupted.scenarios)
        .zip(&reference.plain.scenarios)
    {
        for other in [baseline, plain] {
            assert_eq!(resumed.judge, other.judge);
            assert_eq!(resumed.pipeline, other.pipeline);
            assert_eq!(resumed.judge_load, other.judge_load);
            assert_eq!(stage_stats(&resumed.stats), stage_stats(&other.stats));
        }
    }
}

/// Copy every file of `from` into the fresh directory `to`.
fn copy_store(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).expect("read dir") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy");
    }
}

/// Cut `path` to its first `len` bytes, as a crash mid-write would.
fn truncate(path: &Path, len: usize) {
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .expect("open for truncate");
    file.set_len(len as u64).expect("truncate");
}

/// The campaign store fscks clean and holds no journal.
fn assert_fsck_clean(dir: &Path) {
    let fsck = check(dir).expect("fsck");
    assert!(fsck.clean(), "campaign store fscks clean:\n{fsck}");
    assert_no_journal(dir);
}

#[test]
fn segment_quarantines_only_the_record_torn_at_every_offset() {
    let (records, payload_len) = sweep_scale();
    let master = temp_dir("segment-master");

    // One sealed segment holding `records` records.
    let store = ArtifactStore::open(&master).expect("create store");
    let keys: Vec<Vec<u8>> = (0..records)
        .map(|i| format!("key-{i:04}").into_bytes())
        .collect();
    for (i, key) in keys.iter().enumerate() {
        store
            .put(kind::CASE, fnv1a(key), key, &payload(i, payload_len))
            .expect("put");
    }
    store.flush().expect("flush");
    drop(store);
    let segment = std::fs::read_dir(&master)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("seg-"))
        })
        .expect("one sealed segment");

    let bytes = std::fs::read(&segment).expect("read segment");
    let last_record_start = *frame_starts(&bytes).last().expect("records");

    for cut in last_record_start..bytes.len() {
        let dir = temp_dir("segment-sweep");
        copy_store(&master, &dir);
        truncate(&dir.join(segment.file_name().expect("name")), cut);

        let store = ArtifactStore::open(&dir).expect("reopen torn store");
        let report = store.open_report();
        assert_eq!(
            report.quarantined_records, 1,
            "cut at {cut}: exactly the torn record is quarantined"
        );
        assert_eq!(report.records, records - 1, "cut at {cut}");
        let mut missing = 0usize;
        for (i, key) in keys.iter().enumerate() {
            match store.get(kind::CASE, fnv1a(key), key) {
                Some(value) => assert_eq!(&value[..], &payload(i, payload_len)[..]),
                None => missing += 1,
            }
        }
        assert_eq!(missing, 1, "cut at {cut}: every earlier record survives");
        drop(store);

        // The repair rewrote segment + manifest: offline fsck agrees.
        let fsck = check(&dir).expect("fsck");
        assert!(
            fsck.clean(),
            "cut at {cut}: repaired store fscks clean:\n{fsck}"
        );
        assert_eq!(fsck.records, records - 1);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
    std::fs::remove_dir_all(&master).expect("cleanup");
}

#[test]
fn interrupted_resumed_campaign_is_byte_identical_to_uninterrupted_and_plain() {
    let matrix = campaign_matrix();
    let total: usize = matrix.len() * matrix.scenarios()[0].suite_size;
    let budget = total / 3;

    // Interrupted at a third of the validations, then resumed.
    let dir = temp_dir("resume");
    let partial = run_incremental_campaign(&matrix, &dir, Some(budget)).expect("partial");
    assert!(!partial.completed(), "the budget interrupts mid-campaign");
    assert_no_journal(&dir);
    let resumed = run_incremental_campaign(&matrix, &dir, None).expect("resume");
    assert!(resumed.completed());
    assert!(
        resumed.total_reused() >= partial.total_fresh() + partial.total_reused(),
        "every case the interrupted run covered is reused from the store"
    );

    assert_identical_to_reference(&resumed, &reference(&matrix, "resume-ref"));
    assert_fsck_clean(&dir);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn resume_after_a_torn_segment_is_byte_identical_to_uninterrupted_and_plain() {
    let matrix = campaign_matrix();
    let total: usize = matrix.len() * matrix.scenarios()[0].suite_size;
    let dir = temp_dir("torn-resume");
    let partial = run_incremental_campaign(&matrix, &dir, Some(total / 3)).expect("partial");
    assert!(!partial.completed(), "the budget interrupts mid-campaign");

    // Tear the last sealed segment inside its middle record, as a crash
    // mid-write would (segment names sort in seal order).
    let segment = std::fs::read_dir(&dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("seg-"))
        })
        .max()
        .expect("a sealed segment");
    let bytes = std::fs::read(&segment).expect("read segment");
    let starts = frame_starts(&bytes);
    let torn = starts.len() / 2;
    let lost_cases = starts[torn..]
        .iter()
        .filter(|&&start| bytes[start + 12] == kind::CASE)
        .count();
    assert!(lost_cases > 0, "the tear loses case records");
    let cut = (starts[torn] + starts.get(torn + 1).copied().unwrap_or(bytes.len())) / 2;
    truncate(&segment, cut);
    assert!(!check(&dir).expect("fsck").clean(), "the tear is visible");

    let resumed = run_incremental_campaign(&matrix, &dir, None).expect("resume");
    assert!(resumed.completed());
    assert_eq!(resumed.total_fresh() + resumed.total_reused(), total);
    assert!(resumed.total_reused() > 0, "the intact records are reused");

    assert_identical_to_reference(&resumed, &reference(&matrix, "torn-resume-ref"));
    assert_fsck_clean(&dir);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn a_manifest_torn_at_every_offset_of_its_final_frame_resumes_byte_identically() {
    // One scenario writes the master store: its two shards stream one
    // after the other, and each stream seals what it put when it
    // completes, so the frame count depends on the work alone. A budget
    // of three quarters of the corpus finishes shard 0 and stops
    // mid-shard 1.
    let size = campaign_size();
    let master = temp_dir("manifest-master");
    let interrupted = ScenarioMatrix::new(size).shards(2);
    let partial =
        run_incremental_campaign(&interrupted, &master, Some(size * 3 / 4)).expect("partial");
    assert!(!partial.completed(), "the budget interrupts mid-campaign");
    let manifest = std::fs::read(master.join("manifest.vvs")).expect("read manifest");
    let frames = frame_starts(&manifest);
    assert!(
        frames.len() >= 2,
        "the interrupted run sealed several segments"
    );
    let matrix = campaign_matrix();
    let total: usize = matrix.len() * size;
    let last_frame_start = *frames.last().expect("frames");
    let reference = reference(&matrix, "manifest-sweep-ref");

    for cut in last_frame_start..manifest.len() {
        let dir = temp_dir("manifest-sweep");
        copy_store(&master, &dir);
        truncate(&dir.join("manifest.vvs"), cut);

        let fsck = check(&dir).expect("fsck");
        assert_eq!(
            fsck.torn.len(),
            usize::from(cut > last_frame_start),
            "cut at {cut}: a partial frame is damage:\n{fsck}"
        );
        assert_eq!(fsck.segments_ok, frames.len() - 1, "cut at {cut}");
        assert_eq!(fsck.orphans.len(), 1, "cut at {cut}: the unlisted segment");

        let store = ArtifactStore::open(&dir).expect("reopen torn store");
        let report = store.open_report();
        assert_eq!(report.segments, frames.len() - 1, "cut at {cut}");
        assert_eq!(report.quarantined_records, 0, "cut at {cut}");
        assert_eq!(
            report.truncated_manifest_bytes,
            (cut - last_frame_start) as u64,
            "cut at {cut}"
        );
        drop(store);

        let resumed = run_incremental_campaign(&matrix, &dir, None).expect("resume");
        assert!(resumed.completed());
        assert_eq!(resumed.total_fresh() + resumed.total_reused(), total);
        assert_identical_to_reference(&resumed, &reference);
        // The resumed run's first seal took the orphan's name.
        assert_fsck_clean(&dir);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
    std::fs::remove_dir_all(&master).expect("cleanup");
}

#[test]
fn warm_rerun_validates_nothing_and_matches_a_zero_budget_run() {
    let matrix = campaign_matrix();
    let total: usize = matrix.len() * matrix.scenarios()[0].suite_size;
    let dir = temp_dir("warm");

    let cold = run_incremental_campaign(&matrix, &dir, None).expect("cold");
    assert!(cold.completed());

    // A zero budget validates nothing: it reports what the store holds.
    let stored = run_incremental_campaign(&matrix, &dir, Some(0)).expect("zero budget");
    assert!(stored.completed(), "everything is stored");
    assert_eq!(stored.total_reused(), total);

    let warm = run_incremental_campaign(&matrix, &dir, None).expect("warm");
    assert!(warm.completed());
    assert_eq!(warm.total_fresh(), 0, "zero fresh validations");
    assert_eq!(warm.total_reused(), total);
    assert_no_journal(&dir);
    for (warm, cold) in warm.scenarios.iter().zip(&cold.scenarios) {
        assert_eq!(warm.judge, cold.judge);
        assert_eq!(warm.pipeline, cold.pipeline);
        assert_eq!(warm.judge_load, cold.judge_load);
        assert_eq!(stage_stats(&warm.stats), stage_stats(&cold.stats));
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn a_store_sealed_by_the_previous_store_code_reopens_clean_and_replays_every_record() {
    // The fixture was written by the store code of commit 9b7f83a, which
    // copied every key and value into buffers of their own: a one-worker
    // record-all run over this 8-case probed corpus, sealed in one
    // segment, holding 8 case records and their 8 compile records.
    let mut probe = ProbeConfig::with_seed(0x5EA1 ^ 0xA5A5);
    probe.mutated_fraction = 0.5;
    let items: Vec<WorkItem> = CorpusSpec::new(DirectiveModel::OpenAcc)
        .seed(0x5EA1)
        .probe(probe)
        .size(8)
        .source()
        .into_cases()
        .map(WorkItem::from)
        .collect();
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/store_9b7f83a");
    let dir = temp_dir("sealed-before");
    for name in ["manifest.vvs", "seg-00000000.vvs"] {
        std::fs::copy(fixture.join(name), dir.join(name)).expect("copy the fixture");
    }
    let report = check(&dir).expect("fsck");
    assert!(report.clean(), "{report}");
    assert_eq!((report.segments_ok, report.records), (1, 16));

    let store = ArtifactStore::open_shared(&dir).expect("open");
    assert!(store.open_report().pristine(), "{:?}", store.open_report());
    assert_eq!(store.stats().records, 16);
    let service = |mode: PipelineMode| {
        ValidationService::builder()
            .mode(mode)
            .strategy(ExecutionStrategy::Pipelined { workers: 1 })
    };
    let warm = service(PipelineMode::RecordAll)
        .artifact_store(std::sync::Arc::clone(&store))
        .build()
        .run(items.clone());
    assert_eq!((warm.stats.store_hits, warm.stats.store_misses), (8, 0));
    let cold = service(PipelineMode::RecordAll).build().run(items.clone());
    assert_eq!(warm.records, cold.records, "every case record replays");
    // An early-exit service has other case keys, so it misses every case
    // record and takes each compile from the stored compile records.
    let early = service(PipelineMode::EarlyExit)
        .artifact_store(std::sync::Arc::clone(&store))
        .build()
        .run(items.clone());
    assert_eq!(early.stats.store_misses, 8);
    assert_eq!(
        (
            early.stats.compile_cache_hits,
            early.stats.compile_cache_misses
        ),
        (8, 0),
        "every compile record replays"
    );
    let early_cold = service(PipelineMode::EarlyExit).build().run(items);
    assert_eq!(early.records, early_cold.records);
    drop(store);
    assert_fsck_clean(&dir);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
