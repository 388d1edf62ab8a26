//! `vv-server` — a resident, multi-tenant validation daemon.
//!
//! The paper's validation workflow is a service: many compiler-validation
//! campaigns sharing one expensive compile/execute/judge substrate. This
//! crate keeps a [`vv_pipeline::ValidationService`] substrate *resident* —
//! session-interned compile frontends, one content-addressed compile cache
//! and (optionally) one durable [`vv_store::ArtifactStore`] — and exposes
//! it over a hand-rolled binary protocol, so campaigns from many clients
//! reuse warm state instead of paying cold-start per run.
//!
//! * [`server`] — the daemon: per-tenant bounded queues (admission
//!   control + backpressure), fair round-robin scheduling onto a worker
//!   pool, cancellation on client disconnect, graceful drain + store seal
//!   on shutdown.
//! * [`client`] — the library client: blocking streaming-results
//!   iterator, campaign submission, stats and shutdown requests.
//! * [`transport`] — the byte-stream abstraction: TCP, or an in-process
//!   loopback pipe so every protocol path is testable without sockets.
//! * [`protocol`] — message codecs over [`vv_store::wire`].
//! * [`stats`] — the live server statistics snapshot.
//!
//! The `vv-server` binary wraps all of this in `serve` / `submit` /
//! `stats` / `shutdown` subcommands.
//!
//! # Protocol specification
//!
//! Everything on the wire is **little-endian**; strings are a `u32`
//! length followed by UTF-8 bytes; checksums are the 64-bit word-folded
//! FNV-1a of [`vv_store::wire::fnv1a`] (spec and pinned vectors there).
//! There is no serde anywhere — the same hand-rolled [`vv_store::wire`]
//! primitives that define the store's on-disk format define this
//! protocol.
//!
//! ## Framing
//!
//! Both directions carry a sequence of frames, each shaped exactly like a
//! store journal frame:
//!
//! ```text
//! frame:
//!   len      u32    byte length of `payload` (0 < len ≤ 8 MiB)
//!   checksum u64    fnv1a(payload)
//!   payload  bytes  one message, first byte = message type
//! ```
//!
//! A frame that fails the length bound or the checksum is unrecoverable
//! for the connection (the stream can no longer be trusted): the server
//! best-effort sends [`protocol::ErrorCode::Protocol`] and closes.
//!
//! Both ends hand each frame to the transport in one write
//! ([`protocol::write_frame`]) and set `TCP_NODELAY` on their sockets.
//! Either half missing lets Nagle's algorithm hold a frame back until the
//! peer's delayed ACK fires, which costs 40 ms per exchange on Linux.
//!
//! ## Requests (client → server)
//!
//! ```text
//! 0x01 HELLO       protocol u32, tenant str
//! 0x02 OPEN_JOB    job u32, mode u8, style u8, profile u8, judge_seed u64
//! 0x03 CASE        job u32, seq u64, id str, source str, lang u8, model u8
//! 0x04 FINISH_JOB  job u32
//! 0x05 STATS       (empty)
//! 0x06 SHUTDOWN    (empty)
//! ```
//!
//! `HELLO` must be the first message on a connection; `protocol` is
//! [`protocol::PROTOCOL_VERSION`]. The tenant name keys the server-side
//! queue: every connection claiming the same name shares one queue, one
//! admission budget and one fairness slot.
//!
//! `OPEN_JOB` declares a campaign. `job` is a client-chosen id, unique
//! per connection. The enum bytes are defined in [`protocol`]: `mode`
//! (early-exit 0 / record-all 1), `style` (direct 0 / agent-direct 1 /
//! agent-indirect 2) and `profile` (an id from the built-in judge
//! calibration registry, [`protocol::ProfileId`]). A scheduling strategy
//! is deliberately **not** part of the spec: scheduling belongs to the
//! server (tenant-fair worker pool), and the pipeline's strategy-parity
//! law makes records independent of it.
//!
//! `CASE` submits one work item under an open job; `seq` is the client's
//! submission ordinal, echoed in the matching `RECORD` so the client can
//! restore submission order. `FINISH_JOB` marks the job's end; the server
//! answers `JOB_DONE` once every accepted case has been answered.
//!
//! ## Responses (server → client)
//!
//! ```text
//! 0x81 HELLO_OK     protocol u32, server str
//! 0x82 RECORD       job u32, seq u64, record bytes
//! 0x83 JOB_DONE     job u32, stats bytes
//! 0x84 STATS_OK     snapshot (see vv_server::stats)
//! 0x85 SHUTDOWN_OK  (empty)
//! 0x8F ERROR        code u8, message str
//! ```
//!
//! `RECORD.record` is the [`vv_pipeline::encode_record`] encoding of the
//! completed [`vv_pipeline::CaseRecord`] — the same bytes the store
//! persists, so server-side campaigns are replayable and byte-comparable
//! against direct in-process runs. `JOB_DONE.stats` is the
//! [`vv_pipeline::PipelineStats`] wire encoding with this job's counters.
//! Records of one job arrive in completion order (not submission order),
//! interleaved with nothing else for that client connection.
//!
//! ## Tenancy, backpressure, cancellation
//!
//! Each tenant owns one bounded queue (admission control) and one
//! in-flight budget. A `CASE` for a full queue **blocks the connection's
//! reader** — the client's sends stop being drained, its transport
//! buffers fill, and the backpressure propagates into the client's
//! feeder thread: the bounded-channel discipline of the pipeline,
//! stretched over the wire. Workers pick cases round-robin across
//! tenants, so a tenant flooding its queue delays itself, not others.
//!
//! A client that disconnects mid-campaign cancels its own jobs: queued
//! cases are purged, in-flight cases finish but are discarded, and no
//! other tenant is affected.
//!
//! `SHUTDOWN` (or [`server::ServerHandle::shutdown`], the in-process
//! SIGTERM-equivalent) moves the server to *draining*: new `OPEN_JOB`s
//! are refused with [`protocol::ErrorCode::Draining`], queued and
//! in-flight work completes, open journals group-commit, the store seals
//! (flush + manifest commit) and releases its lockfile, and only then is
//! `SHUTDOWN_OK` sent — after which the directory passes `vv-store fsck`
//! clean.

pub mod client;
pub mod protocol;
pub mod server;
pub mod stats;
pub mod tenant;
pub mod transport;

pub use client::{Client, ClientError, Job};
pub use protocol::{JobSpec, ProfileId, ProtocolError, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig, ServerHandle};
pub use stats::ServerStats;
pub use transport::{duplex, Conn, PipeEnd};
