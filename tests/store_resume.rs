//! Crash-safety and resume laws for the artifact store and the campaign
//! journal (`vv-store` + `llm4vv::incremental`).
//!
//! 1. **Journal torn-write sweep** — a journal truncated at *every* byte
//!    offset inside (or at the start of) its final frame recovers to
//!    exactly the preceding frames: never fewer, never garbage, and the
//!    file is physically repaired so the next open is clean;
//! 2. **Segment torn-write sweep** — a sealed segment truncated at every
//!    byte offset inside its final record reopens with only that record
//!    quarantined; every earlier record stays readable and the repaired
//!    store fscks clean;
//! 3. **Resume identity** — a budget-interrupted campaign resumed to
//!    completion produces metrics byte-identical to an uninterrupted
//!    incremental run *and* to the plain in-memory
//!    [`run_campaign`](llm4vv::campaign::run_campaign) (modulo
//!    [`stage_stats`]'s provenance/wall-time exclusions);
//! 4. **Warm re-run** — re-running a completed campaign validates zero
//!    fresh cases, exactly as the delta planner predicts.
//!
//! Release runs scale the sweeps and the campaigns (same gating idiom as
//! `tests/compile_parity.rs`); debug runs shrink so tier-1 `cargo test -q`
//! stays fast.

use std::path::PathBuf;

use llm4vv::campaign::{run_campaign, ScenarioMatrix};
use llm4vv::incremental::{plan_campaign_delta, run_incremental_campaign, stage_stats};
use vv_judge::JudgeProfile;
use vv_store::{check, fnv1a, kind, ArtifactStore, Journal};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vv-store-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Sweep sizes: number of journal frames / segment records and the rough
/// payload size of the final one (every byte offset of which is cut).
fn sweep_scale() -> (usize, usize) {
    if cfg!(debug_assertions) {
        (8, 64)
    } else {
        (48, 1024)
    }
}

fn campaign_matrix() -> ScenarioMatrix {
    let size = if cfg!(debug_assertions) { 60 } else { 2_000 };
    ScenarioMatrix::new(size)
        .judge_profiles(vec![
            JudgeProfile::deepseek_agent_direct(),
            JudgeProfile::deepseek_agent_indirect(),
        ])
        .shards(2)
}

/// A deterministic, incompressible-ish payload for frame/record `i`.
fn payload(i: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| (i.wrapping_mul(31).wrapping_add(j.wrapping_mul(131)) % 251) as u8)
        .collect()
}

#[test]
fn journal_recovers_from_a_tear_at_every_offset_of_the_final_frame() {
    let (frames, payload_len) = sweep_scale();
    let dir = temp_dir("journal-sweep");
    let master = dir.join("master.vvj");

    // Build the master journal and note where the final frame begins.
    let (mut journal, _) = Journal::open(&master, b"sweep").expect("create journal");
    for i in 0..frames - 1 {
        journal.append(&payload(i, payload_len)).expect("append");
    }
    let last_frame_start = std::fs::metadata(&master).expect("stat").len();
    journal
        .append(&payload(frames - 1, payload_len))
        .expect("append final");
    drop(journal);
    let full_len = std::fs::metadata(&master).expect("stat").len();
    assert!(last_frame_start < full_len);

    for cut in last_frame_start..full_len {
        let torn = dir.join("torn.vvj");
        std::fs::copy(&master, &torn).expect("copy");
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&torn)
            .expect("open for truncate");
        file.set_len(cut).expect("truncate");
        drop(file);

        let (journal, mut recovery) = Journal::open(&torn, b"sweep").expect("reopen torn");
        assert!(!recovery.reset, "same tag never resets");
        assert_eq!(
            recovery.frame_count,
            frames as u64 - 1,
            "cut at {cut}: exactly the final frame is dropped"
        );
        assert_eq!(recovery.truncated_bytes, cut - last_frame_start);
        let mut recovered = 0usize;
        while let Some(frame) = recovery.frames.next_frame().expect("cursor") {
            assert_eq!(frame, payload(recovered, payload_len), "cut at {cut}");
            recovered += 1;
        }
        assert_eq!(recovered, frames - 1);
        drop(journal);

        // The tear was physically truncated away: a second open is clean.
        let (_, recheck) = Journal::open(&torn, b"sweep").expect("reopen repaired");
        assert_eq!(recheck.truncated_bytes, 0, "cut at {cut}: repair persisted");
        assert_eq!(recheck.frame_count, frames as u64 - 1);
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
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

    // Locate the final record by walking the documented segment format:
    // 8-byte magic, then records of `len: u32 | checksum: u64 | payload`.
    let bytes = std::fs::read(&segment).expect("read segment");
    let mut pos = 8usize;
    let mut last_record_start = pos;
    while pos < bytes.len() {
        last_record_start = pos;
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("len prefix")) as usize;
        pos += 12 + len;
    }
    assert_eq!(pos, bytes.len(), "segment walk consumed the whole file");

    for cut in last_record_start..bytes.len() {
        let dir = temp_dir("segment-sweep");
        for entry in std::fs::read_dir(&master).expect("read dir") {
            let entry = entry.expect("entry");
            std::fs::copy(entry.path(), dir.join(entry.file_name())).expect("copy");
        }
        let torn = dir.join(segment.file_name().expect("name"));
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&torn)
            .expect("open for truncate");
        file.set_len(cut as u64).expect("truncate");
        drop(file);

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
    assert!(!partial.completed, "the budget interrupts mid-campaign");
    let resumed = run_incremental_campaign(&matrix, &dir, None).expect("resume");
    assert!(resumed.completed);
    assert!(
        resumed.total_replayed() > 0,
        "the journal checkpoint replayed"
    );

    // Uninterrupted incremental baseline (fresh store).
    let ref_dir = temp_dir("resume-ref");
    let uninterrupted = run_incremental_campaign(&matrix, &ref_dir, None).expect("baseline");
    assert!(uninterrupted.completed);

    // Plain in-memory campaign: same laws, no store at all.
    let plain = run_campaign(&matrix);

    for ((resumed, baseline), plain) in resumed
        .results
        .scenarios
        .iter()
        .zip(&uninterrupted.results.scenarios)
        .zip(&plain.scenarios)
    {
        for other in [baseline, plain] {
            assert_eq!(resumed.judge, other.judge);
            assert_eq!(resumed.pipeline, other.pipeline);
            assert_eq!(resumed.judge_load, other.judge_load);
            assert_eq!(stage_stats(&resumed.stats), stage_stats(&other.stats));
        }
    }

    for dir in [&dir, &ref_dir] {
        let fsck = check(dir).expect("fsck");
        assert!(fsck.clean(), "campaign store fscks clean:\n{fsck}");
        std::fs::remove_dir_all(dir).expect("cleanup");
    }
}

#[test]
fn warm_rerun_validates_nothing_and_matches_the_planner() {
    let matrix = campaign_matrix();
    let total: usize = matrix.len() * matrix.scenarios()[0].suite_size;
    let dir = temp_dir("warm");

    let cold = run_incremental_campaign(&matrix, &dir, None).expect("cold");
    assert!(cold.completed);

    let store = ArtifactStore::open_shared(&dir).expect("reopen");
    let delta = plan_campaign_delta(&matrix, &store);
    assert_eq!(delta.total_fresh(), 0, "planner: everything is stored");
    assert_eq!(delta.total_reused(), total);
    drop(store);

    let warm = run_incremental_campaign(&matrix, &dir, None).expect("warm");
    assert!(warm.completed);
    assert_eq!(warm.total_replayed(), 0, "the journal was cleared");
    assert_eq!(warm.total_fresh(), 0, "zero fresh validations");
    assert_eq!(warm.total_reused(), total);
    for (warm, cold) in warm.results.scenarios.iter().zip(&cold.results.scenarios) {
        assert_eq!(warm.judge, cold.judge);
        assert_eq!(warm.pipeline, cold.pipeline);
        assert_eq!(warm.judge_load, cold.judge_load);
        assert_eq!(stage_stats(&warm.stats), stage_stats(&cold.stats));
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
