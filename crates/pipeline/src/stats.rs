//! Pipeline statistics.
//!
//! [`PipelineStats`] carries the per-stage counters, cache/store
//! provenance and the judge-latency histogram for one run (or one live
//! server job). Besides the in-memory accessors it has a compact wire
//! encoding ([`PipelineStats::encode_into`] /
//! [`PipelineStats::decode_from`], built on [`vv_store::wire`]) used by
//! the `vv-server` stats endpoint and `JOB_DONE` frames, and a one-line
//! [`std::fmt::Display`] snapshot for CLI output.

use std::fmt;
use std::time::Duration;

use vv_metrics::wire as metrics_wire;
use vv_metrics::LatencyHistogram;
use vv_store::wire::{Reader, WireError, Writer};

/// Aggregate statistics for one pipeline run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PipelineStats {
    /// Number of files submitted.
    pub submitted: usize,
    /// Number of files compiled.
    pub compiled: usize,
    /// Number of compile failures.
    pub compile_failures: usize,
    /// Number of files executed.
    pub executed: usize,
    /// Number of execution failures (nonzero exit codes).
    pub exec_failures: usize,
    /// Number of files judged.
    pub judged: usize,
    /// Number of judge rejections.
    pub judge_rejections: usize,
    /// Total *simulated* LLM latency across all judged files, in
    /// milliseconds (what the judge stage would have cost on the paper's
    /// hardware; the surrogate itself runs in microseconds).
    ///
    /// This is latency *summed across workers*, not elapsed time: under a
    /// multi-worker run it routinely exceeds [`Self::wall_time`]
    /// (utilization above 100% is the point of running judges in
    /// parallel). Being an `f64` sum it is also not order-stable — two
    /// schedules of the same run can differ in the last bits — so
    /// cross-schedule comparisons should use the exact
    /// [`Self::judge_latency`] histogram instead.
    pub simulated_judge_latency_ms: f64,
    /// Distribution of per-judgement simulated latencies: a fixed-bucket
    /// streaming histogram, exact under [`PipelineStats::merge`], backing
    /// the p50/p95/p99 accessors.
    pub judge_latency: LatencyHistogram,
    /// Compile-cache hits (memory or disk tier), when the compile backend
    /// reports provenance.
    pub compile_cache_hits: usize,
    /// Compile-cache misses (fresh compiles through a caching backend).
    pub compile_cache_misses: usize,
    /// Whole-record artifact-store hits: cases whose complete
    /// [`crate::CaseRecord`] was replayed from the store, skipping every
    /// stage. The stage counters above are still advanced from the stored
    /// record, so hit-heavy runs aggregate identically to cold ones.
    pub store_hits: usize,
    /// Cases probed against the artifact store and validated fresh.
    pub store_misses: usize,
    /// Wall-clock duration of the run: *elapsed* time, not per-worker
    /// time summed. [`Self::merge`] takes the maximum, so merging the
    /// per-worker partials of one run reports that run's elapsed wall
    /// time, while per-case latencies (which sum) measure work performed
    /// — the two deliberately diverge under concurrency.
    pub wall_time: Duration,
}

impl PipelineStats {
    /// Fraction of submitted files that were spared the judge stage
    /// (the saving the early-exit design is built for).
    pub fn judge_stage_savings(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        1.0 - self.judged as f64 / self.submitted as f64
    }

    /// Median simulated judge latency, in milliseconds (`None` before any
    /// file was judged).
    pub fn judge_latency_p50(&self) -> Option<f64> {
        self.judge_latency.p50()
    }

    /// 95th-percentile simulated judge latency, in milliseconds.
    pub fn judge_latency_p95(&self) -> Option<f64> {
        self.judge_latency.p95()
    }

    /// 99th-percentile simulated judge latency, in milliseconds.
    pub fn judge_latency_p99(&self) -> Option<f64> {
        self.judge_latency.p99()
    }

    /// Merge per-worker or per-shard partial statistics (wall time takes
    /// the maximum; the latency histogram merge is exact, so quantiles over
    /// merged shards equal the single-run quantiles).
    pub fn merge(&mut self, other: &PipelineStats) {
        self.submitted += other.submitted;
        self.compiled += other.compiled;
        self.compile_failures += other.compile_failures;
        self.executed += other.executed;
        self.exec_failures += other.exec_failures;
        self.judged += other.judged;
        self.judge_rejections += other.judge_rejections;
        self.simulated_judge_latency_ms += other.simulated_judge_latency_ms;
        self.judge_latency.merge(&other.judge_latency);
        self.compile_cache_hits += other.compile_cache_hits;
        self.compile_cache_misses += other.compile_cache_misses;
        self.store_hits += other.store_hits;
        self.store_misses += other.store_misses;
        self.wall_time = self.wall_time.max(other.wall_time);
    }

    /// Compile-cache hit rate over lookups with known provenance (0.0
    /// before any).
    pub fn compile_cache_hit_rate(&self) -> f64 {
        ratio(self.compile_cache_hits, self.compile_cache_misses)
    }

    /// Artifact-store hit rate over probed cases (0.0 before any).
    pub fn store_hit_rate(&self) -> f64 {
        ratio(self.store_hits, self.store_misses)
    }

    /// Advance the per-stage counters (compiled/executed/judged, their
    /// failure counts, and the judge-latency aggregates — everything except
    /// `submitted` and the cache/store provenance counters) from an
    /// already-complete record, exactly as running its stages would have.
    /// This is what keeps store replays and resumed campaigns aggregate-
    /// identical to cold runs.
    pub fn observe_record(&mut self, record: &crate::CaseRecord) {
        self.compiled += 1;
        if !record.compile.succeeded {
            self.compile_failures += 1;
        }
        if let Some(exec) = &record.exec {
            self.executed += 1;
            if !exec.passed {
                self.exec_failures += 1;
            }
        }
        if let Some(judgement) = &record.judgement {
            self.judged += 1;
            self.observe_judge_latency_ms(judgement.latency_ms);
            if !judgement.verdict_or_invalid().is_valid() {
                self.judge_rejections += 1;
            }
        }
    }

    /// Record one judgement's simulated latency (called by the judge
    /// stage; also useful for custom backends that bypass the service).
    pub fn observe_judge_latency_ms(&mut self, latency_ms: f64) {
        self.simulated_judge_latency_ms += latency_ms;
        self.judge_latency.observe_ms(latency_ms);
    }

    /// Append the compact wire encoding: the eleven counters as `u64`s,
    /// the total simulated latency as `f64` bits, the sparse histogram
    /// encoding from [`vv_metrics::wire`], and the wall time in
    /// nanoseconds. Little-endian throughout, like every store structure.
    pub fn encode_into(&self, w: &mut Writer) {
        w.put_u64(self.submitted as u64);
        w.put_u64(self.compiled as u64);
        w.put_u64(self.compile_failures as u64);
        w.put_u64(self.executed as u64);
        w.put_u64(self.exec_failures as u64);
        w.put_u64(self.judged as u64);
        w.put_u64(self.judge_rejections as u64);
        w.put_f64(self.simulated_judge_latency_ms);
        metrics_wire::encode_histogram(&self.judge_latency, w);
        w.put_u64(self.compile_cache_hits as u64);
        w.put_u64(self.compile_cache_misses as u64);
        w.put_u64(self.store_hits as u64);
        w.put_u64(self.store_misses as u64);
        w.put_u64(self.wall_time.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Decode stats encoded by [`PipelineStats::encode_into`]. Bit-exact
    /// round trip: every counter, the histogram (and therefore every
    /// quantile accessor) and the wall time survive the wire unchanged.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            submitted: r.get_u64("stats submitted")? as usize,
            compiled: r.get_u64("stats compiled")? as usize,
            compile_failures: r.get_u64("stats compile failures")? as usize,
            executed: r.get_u64("stats executed")? as usize,
            exec_failures: r.get_u64("stats exec failures")? as usize,
            judged: r.get_u64("stats judged")? as usize,
            judge_rejections: r.get_u64("stats judge rejections")? as usize,
            simulated_judge_latency_ms: r.get_f64("stats simulated latency")?,
            judge_latency: metrics_wire::decode_histogram(r)?,
            compile_cache_hits: r.get_u64("stats cache hits")? as usize,
            compile_cache_misses: r.get_u64("stats cache misses")? as usize,
            store_hits: r.get_u64("stats store hits")? as usize,
            store_misses: r.get_u64("stats store misses")? as usize,
            wall_time: Duration::from_nanos(r.get_u64("stats wall time")?),
        })
    }

    /// Encode into a fresh buffer (convenience over
    /// [`PipelineStats::encode_into`]).
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(128);
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decode from a buffer that contains exactly one encoded stats value
    /// (trailing bytes are a decode error).
    pub fn from_wire_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let stats = Self::decode_from(&mut r)?;
        if !r.is_exhausted() {
            return Err(WireError {
                context: "stats trailing bytes",
            });
        }
        Ok(stats)
    }
}

impl fmt::Display for PipelineStats {
    /// Multi-line human snapshot: stage counts with failure tallies, the
    /// early-exit saving, cache/store hit rates and the latency
    /// distribution — what the `vv-server stats` subcommand prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "submitted {} | compiled {} ({} failed) | executed {} ({} failed) | judged {} ({} rejected)",
            self.submitted,
            self.compiled,
            self.compile_failures,
            self.executed,
            self.exec_failures,
            self.judged,
            self.judge_rejections,
        )?;
        writeln!(
            f,
            "judge-stage savings {:.1}% | compile cache {:.1}% hit | store {:.1}% hit",
            100.0 * self.judge_stage_savings(),
            100.0 * self.compile_cache_hit_rate(),
            100.0 * self.store_hit_rate(),
        )?;
        write!(
            f,
            "simulated judge latency {} (total {:.0}ms) | wall {:?}",
            self.judge_latency, self.simulated_judge_latency_ms, self.wall_time,
        )
    }
}

fn ratio(hits: usize, misses: usize) -> f64 {
    let total = hits + misses;
    if total == 0 {
        return 0.0;
    }
    hits as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_and_throughput() {
        let stats = PipelineStats {
            submitted: 100,
            judged: 40,
            ..Default::default()
        };
        assert!((stats.judge_stage_savings() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let stats = PipelineStats::default();
        assert_eq!(stats.judge_stage_savings(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PipelineStats {
            submitted: 2,
            judged: 1,
            ..Default::default()
        };
        let b = PipelineStats {
            submitted: 3,
            judged: 2,
            wall_time: Duration::from_millis(5),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.submitted, 5);
        assert_eq!(a.judged, 3);
        assert_eq!(a.wall_time, Duration::from_millis(5));
    }

    #[test]
    fn latency_histogram_is_exact_under_merge() {
        // Feeding every observation into one stats object, or splitting
        // them across shard stats and merging, must give bit-identical
        // histograms — and therefore identical quantiles.
        let latencies: Vec<f64> = (0..200).map(|i| 120.0 + 28.0 * (i % 40) as f64).collect();
        let mut whole = PipelineStats::default();
        for &ms in &latencies {
            whole.observe_judge_latency_ms(ms);
        }
        let mut merged = PipelineStats::default();
        for k in 0..4 {
            let mut shard = PipelineStats::default();
            for &ms in latencies.iter().skip(k).step_by(4) {
                shard.observe_judge_latency_ms(ms);
            }
            merged.merge(&shard);
        }
        assert_eq!(merged.judge_latency, whole.judge_latency);
        assert_eq!(merged.judge_latency_p50(), whole.judge_latency_p50());
        assert_eq!(merged.judge_latency_p95(), whole.judge_latency_p95());
        assert_eq!(merged.judge_latency_p99(), whole.judge_latency_p99());
        assert_eq!(
            merged.simulated_judge_latency_ms,
            whole.simulated_judge_latency_ms
        );
        assert!(whole.judge_latency_p50() <= whole.judge_latency_p99());
    }

    #[test]
    fn empty_stats_report_no_latency_quantiles() {
        let stats = PipelineStats::default();
        assert_eq!(stats.judge_latency_p50(), None);
        assert_eq!(stats.judge_latency_p99(), None);
    }

    fn busy_stats() -> PipelineStats {
        let mut stats = PipelineStats {
            submitted: 1_000,
            compiled: 990,
            compile_failures: 55,
            executed: 930,
            exec_failures: 41,
            judged: 870,
            judge_rejections: 120,
            compile_cache_hits: 700,
            compile_cache_misses: 290,
            store_hits: 10,
            store_misses: 990,
            wall_time: Duration::from_micros(1_234_567),
            ..Default::default()
        };
        for i in 0..870 {
            stats.observe_judge_latency_ms(800.0 + 11.0 * (i % 97) as f64);
        }
        stats
    }

    #[test]
    fn wire_round_trip_is_bit_exact() {
        for stats in [PipelineStats::default(), busy_stats()] {
            let bytes = stats.to_wire_bytes();
            let decoded = PipelineStats::from_wire_bytes(&bytes).unwrap();
            assert_eq!(decoded, stats);
            assert_eq!(decoded.judge_latency_p99(), stats.judge_latency_p99());
            // Canonical: re-encoding reproduces the bytes.
            assert_eq!(decoded.to_wire_bytes(), bytes);
        }
    }

    #[test]
    fn wire_truncation_is_an_error_not_a_panic() {
        let bytes = busy_stats().to_wire_bytes();
        for cut in 0..bytes.len() {
            assert!(
                PipelineStats::from_wire_bytes(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(PipelineStats::from_wire_bytes(&padded).is_err());
    }

    #[test]
    fn display_snapshot_mentions_the_headlines() {
        let shown = busy_stats().to_string();
        assert!(shown.contains("submitted 1000"), "{shown}");
        assert!(shown.contains("compile cache"), "{shown}");
        assert!(shown.contains("p95"), "{shown}");
    }
}
