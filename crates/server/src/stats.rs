//! The live server statistics snapshot served by the `STATS` request.
//!
//! Everything a `STATS_OK` frame carries: uptime, connection count, the
//! merged [`PipelineStats`] of every case ever served (latency histogram
//! included), the resident compile cache and artifact store counters,
//! and one row per tenant. The wire encoding composes the
//! [`PipelineStats`] codec with plain counters; rows are sorted by
//! tenant name so a snapshot encodes canonically.

use std::fmt;

use vv_pipeline::PipelineStats;
use vv_store::wire::{Reader, WireError, Writer};

/// Resident compile-cache counters (a copy of
/// [`vv_simcompiler::CacheStats`], in wire-friendly widths).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Cache hits (memory or disk tier).
    pub hits: u64,
    /// Cache misses (fresh compiles).
    pub misses: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl CacheSnapshot {
    /// Hit fraction in `[0, 1]` (0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Shared artifact-store counters (a copy of [`vv_store::StoreStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Records in the index (durable + pending).
    pub records: u64,
    /// Records accepted but not yet sealed into a segment.
    pub pending: u64,
    /// Sealed segments on disk.
    pub segments: u64,
    /// Lookups that found a record.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
}

impl StoreSnapshot {
    /// Hit fraction in `[0, 1]` (0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One tenant's live queue state and cumulative counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// The tenant name from the `HELLO` handshake.
    pub name: String,
    /// Cases queued right now.
    pub queued: u64,
    /// Cases being processed right now.
    pub in_flight: u64,
    /// Cases ever accepted.
    pub submitted: u64,
    /// Cases ever completed (including discarded results of cancelled
    /// jobs).
    pub completed: u64,
    /// Queued cases purged by cancellation.
    pub cancelled: u64,
    /// Jobs ever opened.
    pub jobs_opened: u64,
    /// Jobs that ran to `JOB_DONE`.
    pub jobs_finished: u64,
}

/// The full snapshot answered to a `STATS` request.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServerStats {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Connections open right now.
    pub connections: u64,
    /// True once a shutdown drain has begun.
    pub draining: bool,
    /// Validation worker threads in the daemon's pool.
    pub workers: u64,
    /// The configured [`vv_pipeline::ExecutionStrategy`] label, as
    /// provenance (the daemon dispatches through `process_case` on its own
    /// worker pool, so it does not change scheduling or records).
    pub strategy: String,
    /// Merged statistics of every case ever served, across all tenants
    /// and jobs: the merge of the jobs' `JOB_DONE` stats, cache and store
    /// provenance included. Its wall time is the daemon's uptime, read
    /// once with [`Self::uptime_ms`].
    pub served: PipelineStats,
    /// The resident compile cache shared by every job.
    pub compile_cache: CacheSnapshot,
    /// The shared artifact store, when the server runs with one.
    pub store: Option<StoreSnapshot>,
    /// Per-tenant rows, sorted by name.
    pub tenants: Vec<TenantSnapshot>,
}

impl ServerStats {
    /// Append the wire encoding (see the [crate docs](crate) for the
    /// protocol context).
    pub fn encode_into(&self, w: &mut Writer) {
        w.put_u64(self.uptime_ms);
        w.put_u64(self.connections);
        w.put_u8(self.draining as u8);
        w.put_u64(self.workers);
        w.put_str(&self.strategy);
        self.served.encode_into(w);
        w.put_u64(self.compile_cache.hits);
        w.put_u64(self.compile_cache.misses);
        w.put_u64(self.compile_cache.entries);
        match &self.store {
            None => w.put_u8(0),
            Some(store) => {
                w.put_u8(1);
                w.put_u64(store.records);
                w.put_u64(store.pending);
                w.put_u64(store.segments);
                w.put_u64(store.hits);
                w.put_u64(store.misses);
            }
        }
        w.put_u32(self.tenants.len() as u32);
        for tenant in &self.tenants {
            w.put_str(&tenant.name);
            w.put_u64(tenant.queued);
            w.put_u64(tenant.in_flight);
            w.put_u64(tenant.submitted);
            w.put_u64(tenant.completed);
            w.put_u64(tenant.cancelled);
            w.put_u64(tenant.jobs_opened);
            w.put_u64(tenant.jobs_finished);
        }
    }

    /// Decode a snapshot encoded by [`ServerStats::encode_into`].
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let uptime_ms = r.get_u64("stats uptime")?;
        let connections = r.get_u64("stats connections")?;
        let draining = match r.get_u8("stats draining")? {
            0 => false,
            1 => true,
            _ => {
                return Err(WireError {
                    context: "stats draining",
                })
            }
        };
        let workers = r.get_u64("stats workers")?;
        let strategy = r.get_str("stats strategy")?.to_string();
        let served = PipelineStats::decode_from(r)?;
        let compile_cache = CacheSnapshot {
            hits: r.get_u64("stats cache hits")?,
            misses: r.get_u64("stats cache misses")?,
            entries: r.get_u64("stats cache entries")?,
        };
        let store = match r.get_u8("stats store presence")? {
            0 => None,
            1 => Some(StoreSnapshot {
                records: r.get_u64("stats store records")?,
                pending: r.get_u64("stats store pending")?,
                segments: r.get_u64("stats store segments")?,
                hits: r.get_u64("stats store hits")?,
                misses: r.get_u64("stats store misses")?,
            }),
            _ => {
                return Err(WireError {
                    context: "stats store presence",
                })
            }
        };
        let rows = r.get_u32("stats tenant count")?;
        let mut tenants = Vec::with_capacity(rows.min(4096) as usize);
        for _ in 0..rows {
            tenants.push(TenantSnapshot {
                name: r.get_str("stats tenant name")?.to_string(),
                queued: r.get_u64("stats tenant queued")?,
                in_flight: r.get_u64("stats tenant in-flight")?,
                submitted: r.get_u64("stats tenant submitted")?,
                completed: r.get_u64("stats tenant completed")?,
                cancelled: r.get_u64("stats tenant cancelled")?,
                jobs_opened: r.get_u64("stats tenant jobs opened")?,
                jobs_finished: r.get_u64("stats tenant jobs finished")?,
            });
        }
        Ok(Self {
            uptime_ms,
            connections,
            draining,
            workers,
            strategy,
            served,
            compile_cache,
            store,
            tenants,
        })
    }
}

impl fmt::Display for ServerStats {
    /// The human snapshot the `vv-server stats` subcommand prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "uptime {:.1}s | {} connection(s) | {} worker(s), {} | {}",
            self.uptime_ms as f64 / 1000.0,
            self.connections,
            self.workers,
            self.strategy,
            if self.draining { "draining" } else { "serving" }
        )?;
        writeln!(f, "served: {}", self.served)?;
        writeln!(
            f,
            "compile cache: {} hits / {} misses ({:.1}% hit), {} entries",
            self.compile_cache.hits,
            self.compile_cache.misses,
            100.0 * self.compile_cache.hit_rate(),
            self.compile_cache.entries,
        )?;
        match &self.store {
            None => writeln!(f, "store: none")?,
            Some(store) => writeln!(
                f,
                "store: {} records ({} pending) in {} segments, {} hits / {} misses ({:.1}% hit)",
                store.records,
                store.pending,
                store.segments,
                store.hits,
                store.misses,
                100.0 * store.hit_rate(),
            )?,
        }
        write!(f, "tenants: {}", self.tenants.len())?;
        for tenant in &self.tenants {
            write!(
                f,
                "\n  {}: {} queued, {} in-flight, {} submitted, {} completed, {} cancelled, jobs {}/{}",
                tenant.name,
                tenant.queued,
                tenant.in_flight,
                tenant.submitted,
                tenant.completed,
                tenant.cancelled,
                tenant.jobs_finished,
                tenant.jobs_opened,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_snapshot() -> ServerStats {
        let mut served = PipelineStats {
            submitted: 500,
            compiled: 500,
            compile_failures: 21,
            executed: 479,
            exec_failures: 18,
            judged: 461,
            judge_rejections: 77,
            ..Default::default()
        };
        for i in 0..461 {
            served.observe_judge_latency_ms(900.0 + 13.0 * (i % 53) as f64);
        }
        ServerStats {
            uptime_ms: 123_456,
            connections: 3,
            draining: true,
            workers: 4,
            strategy: "pipelined".into(),
            served,
            compile_cache: CacheSnapshot {
                hits: 410,
                misses: 90,
                entries: 88,
            },
            store: Some(StoreSnapshot {
                records: 500,
                pending: 12,
                segments: 3,
                hits: 40,
                misses: 460,
            }),
            tenants: vec![
                TenantSnapshot {
                    name: "acme".into(),
                    queued: 4,
                    in_flight: 2,
                    submitted: 300,
                    completed: 294,
                    cancelled: 0,
                    jobs_opened: 3,
                    jobs_finished: 2,
                },
                TenantSnapshot {
                    name: "zeta".into(),
                    submitted: 200,
                    completed: 200,
                    cancelled: 17,
                    jobs_opened: 2,
                    jobs_finished: 1,
                    ..Default::default()
                },
            ],
        }
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        for snapshot in [ServerStats::default(), busy_snapshot()] {
            let mut w = Writer::new();
            snapshot.encode_into(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let decoded = ServerStats::decode_from(&mut r).unwrap();
            assert!(r.is_exhausted());
            assert_eq!(decoded, snapshot);
        }
    }

    #[test]
    fn snapshot_truncation_fails_cleanly() {
        let mut w = Writer::new();
        busy_snapshot().encode_into(&mut w);
        let bytes = w.into_bytes();
        for cut in (0..bytes.len()).step_by(7) {
            assert!(
                ServerStats::decode_from(&mut Reader::new(&bytes[..cut])).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn display_mentions_the_headlines() {
        let shown = busy_snapshot().to_string();
        assert!(shown.contains("draining"), "{shown}");
        assert!(shown.contains("4 worker(s), pipelined"), "{shown}");
        assert!(shown.contains("compile cache"), "{shown}");
        assert!(shown.contains("acme"), "{shown}");
        assert!(shown.contains("zeta"), "{shown}");
    }
}
