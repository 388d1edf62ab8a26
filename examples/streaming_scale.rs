//! Streaming at scale: drive 120,000 generated + probed cases through
//! `ValidationService::submit_source` without ever materializing the suite.
//!
//! The corpus pipeline (template generation → negative probing) runs lazily
//! as the executor demands more work; cases pulled but not yet yielded are
//! bounded by the executor's in-flight window, `max(channel_capacity,
//! 2 × workers)` — not by the suite size. The same suite as a
//! materialized `Vec<WorkItem>` would hold 120k source files in memory at
//! once.
//!
//! ```text
//! cargo run --release --example streaming_scale                 # 120k cases
//! cargo run --release --example streaming_scale -- 250000       # pick a size
//! cargo run --release --example streaming_scale -- 120000 4     # 4 workers
//! ```
//!
//! The optional second argument is the executor's worker count (`0`, the
//! default, uses every core); records do not depend on it, so the counters
//! printed here are worker-count-independent by construction.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use vv_corpus::CaseSource;
use vv_dclang::DirectiveModel;
use vv_judge::Verdict;
use vv_pipeline::{ExecutionStrategy, ValidationService};
use vv_probing::CorpusSpec;

fn main() {
    let size: usize = std::env::args()
        .nth(1)
        .and_then(|arg| arg.parse().ok())
        .unwrap_or(120_000);
    let workers = match std::env::args().nth(2) {
        Some(arg) => arg.parse().unwrap_or_else(|_| {
            eprintln!("expected a worker count, got {arg:?}");
            std::process::exit(2);
        }),
        None => 0,
    };

    let spec = CorpusSpec::new(DirectiveModel::OpenAcc)
        .seed(0xACC5)
        .probe_seed(0xACC6)
        .size(size);
    println!("source : {}", spec.describe());

    let capacity = 64;
    let strategy = ExecutionStrategy::Pipelined { workers };
    let service = ValidationService::builder()
        .channel_capacity(capacity)
        .strategy(strategy)
        .build();
    println!("workers: {}", strategy.workers());

    let pulled = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&pulled);
    let source = spec.source().inspect(move |_| {
        counter.fetch_add(1, Ordering::Relaxed);
    });

    let started = Instant::now();
    let mut stream = service.submit_source(source);
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut peak_in_flight = 0usize;
    for record in &mut stream {
        // Records are consumed (and dropped) as they arrive — nothing
        // accumulates on this side either.
        match record.pipeline_verdict() {
            Verdict::Valid => accepted += 1,
            Verdict::Invalid => rejected += 1,
        }
        let yielded = accepted + rejected;
        peak_in_flight = peak_in_flight.max(pulled.load(Ordering::Relaxed) - yielded);
    }
    let stats = stream.stats();
    let elapsed = started.elapsed();

    println!(
        "validated {} cases in {:.2}s ({:.0} cases/s, wall-clock)",
        stats.submitted,
        elapsed.as_secs_f64(),
        stats.submitted as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    );
    println!(
        "accepted {accepted}, rejected {rejected}; compiled {}, executed {}, judged {} (early-exit saved the judge {:.0}% of the files)",
        stats.compiled,
        stats.executed,
        stats.judged,
        stats.judge_stage_savings() * 100.0
    );
    assert_eq!(
        stats.submitted, size,
        "every generated case must be validated"
    );
    assert_eq!(accepted + rejected, size);
    let window = capacity.max(2 * strategy.workers());
    println!(
        "peak in-flight cases (pulled - yielded): {peak_in_flight}, within the executor's \
         window of {window} — the {size}-file suite never existed in memory."
    );
    assert!(
        peak_in_flight <= window,
        "{peak_in_flight} cases in flight exceed the window of {window}"
    );
}
