//! Incremental campaigns over a durable artifact store: crash, resume,
//! and warm re-run.
//!
//! The demo runs the same scenario matrix three ways against `vv-store`
//! directories under `target/`:
//!
//! 1. **cold** — an uninterrupted run into a fresh store (the baseline);
//! 2. **crashed + resumed** — the identical matrix into a second fresh
//!    store, aborted after a third of the validations (simulating a
//!    crash at a checkpoint), then resumed: every record the aborted run
//!    stored replays from the store and only the missing cases run. The
//!    merged metrics are asserted byte-identical to the cold run's;
//! 3. **warm** — the cold store re-run end to end: every case replays
//!    wholesale from the store, so zero cases are validated from scratch
//!    and the run finishes an order of magnitude faster.
//!
//! Both stores are fsck'd clean at the end.
//!
//! ```text
//! cargo run --release --example incremental_campaign          # 2 scenarios x 4000 cases
//! cargo run --release --example incremental_campaign -- 9000  # pick a per-scenario size
//! ```

use std::path::PathBuf;
use std::time::Instant;

use llm4vv::campaign::ScenarioMatrix;
use llm4vv::incremental::{run_incremental_campaign, stage_stats};
use vv_judge::JudgeProfile;

fn main() {
    let size: usize = std::env::args()
        .nth(1)
        .and_then(|arg| arg.parse().ok())
        .unwrap_or(4_000);
    let matrix = ScenarioMatrix::new(size)
        .judge_profiles(vec![
            JudgeProfile::deepseek_agent_direct(),
            JudgeProfile::deepseek_agent_indirect(),
        ])
        .shards(2);
    let total = matrix.len() * size;

    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/incremental_campaign");
    let _ = std::fs::remove_dir_all(&root);
    let cold_dir = root.join("cold");
    let crash_dir = root.join("crashed");

    // Phase 1: uninterrupted cold run.
    println!(
        "phase 1: cold run, {} scenarios x {size} cases...",
        matrix.len()
    );
    let started = Instant::now();
    let cold = run_incremental_campaign(&matrix, &cold_dir, None).expect("cold run");
    let cold_time = started.elapsed();
    assert!(cold.completed());
    // The store pays off *within* the cold run already: duplicate-source
    // cases hit the record a sibling persisted moments earlier.
    assert_eq!(cold.total_fresh() + cold.total_reused(), total);
    println!(
        "  {total} cases in {cold_time:.2?}: {} validated fresh, {} reused in-run ({:.0} cases/s)\n",
        cold.total_fresh(),
        cold.total_reused(),
        total as f64 / cold_time.as_secs_f64()
    );

    // Phase 2: the same matrix into a second store, aborted a third of the
    // way through (the budget plays the role of a crash: the store holds
    // a third of the campaign), then resumed to completion.
    let budget = total / 3;
    println!("phase 2: crash after {budget} validations, then resume...");
    let crashed = run_incremental_campaign(&matrix, &crash_dir, Some(budget)).expect("aborted run");
    assert!(!crashed.completed(), "the budget interrupts the campaign");
    assert!(
        crashed.total_fresh() <= budget,
        "the budget caps fresh validations"
    );
    assert!(
        crashed.total_fresh() > 0,
        "some work happened before the crash"
    );
    let resumed = run_incremental_campaign(&matrix, &crash_dir, None).expect("resumed run");
    assert!(resumed.completed());
    assert!(
        resumed.total_reused() >= crashed.total_fresh() + crashed.total_reused(),
        "the resumed run reuses everything the aborted run stored"
    );
    println!(
        "  resumed: {} reused from the store, {} fresh",
        resumed.total_reused(),
        resumed.total_fresh()
    );
    for (interrupted, baseline) in resumed.scenarios.iter().zip(&cold.scenarios) {
        assert_eq!(interrupted.judge, baseline.judge);
        assert_eq!(interrupted.pipeline, baseline.pipeline);
        assert_eq!(interrupted.judge_load, baseline.judge_load);
        assert_eq!(
            stage_stats(&interrupted.stats),
            stage_stats(&baseline.stats)
        );
    }
    println!("  crash + resume is byte-identical to the uninterrupted run\n");

    // Phase 3: warm re-run of the cold store. A zero-budget run, which
    // validates nothing, finds the whole campaign stored; the full run
    // confirms it does no fresh work.
    println!("phase 3: warm re-run over the cold store...");
    let stored = run_incremental_campaign(&matrix, &cold_dir, Some(0)).expect("zero-budget run");
    assert!(stored.completed(), "everything is stored");
    assert_eq!(stored.total_reused(), total);
    let started = Instant::now();
    let warm = run_incremental_campaign(&matrix, &cold_dir, None).expect("warm run");
    let warm_time = started.elapsed();
    assert!(warm.completed());
    assert_eq!(warm.total_fresh(), 0, "zero fresh validations");
    assert_eq!(warm.total_reused(), total);
    for (rerun, baseline) in warm.scenarios.iter().zip(&cold.scenarios) {
        assert_eq!(rerun.judge, baseline.judge);
        assert_eq!(rerun.pipeline, baseline.pipeline);
    }
    let speedup = cold_time.as_secs_f64() / warm_time.as_secs_f64().max(1e-9);
    println!("  {total} cases replayed in {warm_time:.2?} — {speedup:.1}x faster than cold\n");
    if !cfg!(debug_assertions) {
        assert!(
            speedup >= 10.0,
            "warm replay must be >=10x faster than cold validation (got {speedup:.1}x)"
        );
    }

    // Phase 4: both stores verify clean offline.
    for dir in [&cold_dir, &crash_dir] {
        let report = vv_store::check(dir).expect("fsck");
        assert!(report.clean(), "fsck found problems:\n{report}");
        println!("fsck {}: clean ({} records)", dir.display(), report.records);
    }

    println!("\n{}", warm.comparison_table());
}
