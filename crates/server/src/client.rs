//! The library client: campaign submission with streamed results.
//!
//! A [`Client`] speaks the protocol over any [`Conn`] — a `TcpStream`
//! from [`Client::connect`], or a loopback [`crate::transport::PipeEnd`]
//! through [`Client::over`]. [`Client::submit`] opens a job and feeds
//! its cases from a background thread (so server backpressure never
//! deadlocks against result reading), returning a [`Job`]: a blocking
//! iterator over `(seq, CaseRecord)` pairs that ends when the server's
//! `JOB_DONE` arrives. [`Job::into_run`] collects the stream back into a
//! [`PipelineRun`] in submission order — byte-comparable, record by
//! record, with a direct in-process [`vv_pipeline::ValidationService`]
//! run of the same items.
//!
//! Dropping a [`Job`] mid-stream deliberately kills the connection:
//! results already in flight cannot be re-synced, and the closed socket
//! is exactly the signal the server turns into job cancellation.

use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use vv_pipeline::{decode_record, CaseRecord, PipelineRun, PipelineStats, WorkItem};

use crate::protocol::{
    read_frame, write_frame, ErrorCode, JobSpec, ProtocolError, Request, Response, PROTOCOL_VERSION,
};
use crate::stats::ServerStats;
use crate::transport::Conn;

/// Anything that can go wrong on the client side of the protocol.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(io::Error),
    /// The server sent something undecodable or out of protocol.
    Protocol(ProtocolError),
    /// The server refused or aborted the request.
    Server {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The connection was poisoned by an earlier failure (or an
    /// abandoned [`Job`]) and cannot be reused.
    Broken,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "client i/o error: {err}"),
            ClientError::Protocol(err) => write!(f, "client protocol error: {err}"),
            ClientError::Server { code, message } => {
                write!(f, "server refused ({code:?}): {message}")
            }
            ClientError::Broken => write!(f, "connection is broken"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(err) => Some(err),
            ClientError::Protocol(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(err: io::Error) -> Self {
        ClientError::Io(err)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(err: ProtocolError) -> Self {
        ClientError::Protocol(err)
    }
}

/// A connected, handshaken protocol client. See the [module docs](self).
pub struct Client {
    writer: Arc<Mutex<Box<dyn Conn>>>,
    reader: Box<dyn Conn>,
    buf: Vec<u8>,
    next_job: u32,
    server: String,
    broken: bool,
}

impl Client {
    /// Connect over TCP and perform the `HELLO` handshake as `tenant`.
    pub fn connect(addr: impl ToSocketAddrs, tenant: &str) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // Frames leave whole; Nagle would only delay them (see `write_frame`).
        stream.set_nodelay(true)?;
        Self::over(Box::new(stream), tenant)
    }

    /// Handshake as `tenant` over an already-established connection
    /// (e.g. a loopback [`crate::transport::PipeEnd`]).
    pub fn over(conn: Box<dyn Conn>, tenant: &str) -> Result<Self, ClientError> {
        let writer = Arc::new(Mutex::new(conn.try_clone_conn()?));
        let mut client = Self {
            writer,
            reader: conn,
            buf: Vec::new(),
            next_job: 1,
            server: String::new(),
            broken: false,
        };
        client.send(&Request::Hello {
            protocol: PROTOCOL_VERSION,
            tenant: tenant.to_string(),
        })?;
        match client.read_response()? {
            Response::HelloOk { protocol, server } if protocol == PROTOCOL_VERSION => {
                client.server = server;
                Ok(client)
            }
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Protocol(ProtocolError::Malformed(
                "expected HELLO_OK",
            ))),
        }
    }

    /// The server identity from the handshake.
    pub fn server_name(&self) -> &str {
        &self.server
    }

    /// Open a job for `items` under `spec`. The cases are fed from a
    /// background thread; read the returned [`Job`] to stream results.
    pub fn submit(&mut self, spec: JobSpec, items: Vec<WorkItem>) -> Result<Job<'_>, ClientError> {
        if self.broken {
            return Err(ClientError::Broken);
        }
        let id = self.next_job;
        self.next_job += 1;
        self.send(&Request::OpenJob { job: id, spec })?;
        let expected = items.len();
        let writer = Arc::clone(&self.writer);
        let feeder = std::thread::spawn(move || {
            for (seq, item) in items.into_iter().enumerate() {
                let case = Request::Case {
                    job: id,
                    seq: seq as u64,
                    item,
                };
                if write_frame(&mut **writer.lock(), &case.encode()).is_err() {
                    return; // dead connection: the reader side reports it
                }
            }
            let _ = write_frame(
                &mut **writer.lock(),
                &Request::FinishJob { job: id }.encode(),
            );
        });
        Ok(Job {
            client: self,
            id,
            expected,
            feeder: Some(feeder),
            stats: None,
            finished: false,
            clean: false,
        })
    }

    /// Request a live [`ServerStats`] snapshot.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        if self.broken {
            return Err(ClientError::Broken);
        }
        self.send(&Request::Stats)?;
        match self.read_response()? {
            Response::StatsOk(snapshot) => Ok(snapshot),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => {
                self.broken = true;
                Err(ClientError::Protocol(ProtocolError::Malformed(
                    "expected STATS_OK",
                )))
            }
        }
    }

    /// Ask the server to drain, seal its store and stop. Blocks until the
    /// drain completes (`SHUTDOWN_OK`), consuming the connection.
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        if self.broken {
            return Err(ClientError::Broken);
        }
        self.send(&Request::Shutdown)?;
        match self.read_response()? {
            Response::ShutdownOk => Ok(()),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Protocol(ProtocolError::Malformed(
                "expected SHUTDOWN_OK",
            ))),
        }
    }

    fn send(&self, request: &Request) -> Result<(), ClientError> {
        write_frame(&mut **self.writer.lock(), &request.encode())?;
        Ok(())
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        match read_frame(&mut self.reader, &mut self.buf) {
            Ok(true) => Response::decode(&self.buf).map_err(ClientError::Protocol),
            Ok(false) => {
                self.broken = true;
                Err(ClientError::Broken)
            }
            Err(err) => {
                self.broken = true;
                Err(ClientError::Protocol(err))
            }
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // Make the disconnect prompt (loopback EOF / socket close) so the
        // server's reader thread never lingers.
        self.reader.shutdown_conn();
    }
}

/// An in-flight campaign: a blocking iterator over completed cases.
///
/// Yields `(seq, record)` pairs in **completion order** — `seq` is the
/// submission ordinal echoed by the server, always below
/// [`Job::expected`] (an out-of-range ordinal is a protocol error).
/// Iteration ends (`None`) when `JOB_DONE` arrives; [`Job::into_run`] is
/// the usual way to consume it.
///
/// Dropping the job before `JOB_DONE` poisons the client and closes the
/// connection — the server cancels the remaining work.
pub struct Job<'a> {
    client: &'a mut Client,
    id: u32,
    expected: usize,
    feeder: Option<JoinHandle<()>>,
    stats: Option<PipelineStats>,
    finished: bool,
    clean: bool,
}

impl Job<'_> {
    /// How many cases were submitted for this job.
    pub fn expected(&self) -> usize {
        self.expected
    }

    /// This job's aggregate [`PipelineStats`] (available once iteration
    /// saw `JOB_DONE`).
    pub fn stats(&self) -> Option<&PipelineStats> {
        self.stats.as_ref()
    }

    /// Drain the stream and rebuild the campaign as a [`PipelineRun`],
    /// records restored to submission order.
    pub fn into_run(mut self) -> Result<PipelineRun, ClientError> {
        let mut indexed = Vec::with_capacity(self.expected);
        for result in self.by_ref() {
            indexed.push(result?);
        }
        let stats = self.stats.take().ok_or(ClientError::Broken)?;
        self.clean = true; // stats moved out, but the stream ended cleanly
        indexed.sort_by_key(|(seq, _)| *seq);
        let records = indexed.into_iter().map(|(_, record)| record).collect();
        Ok(PipelineRun::new(records, stats))
    }
}

impl Iterator for Job<'_> {
    type Item = Result<(u64, CaseRecord), ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        let response = match self.client.read_response() {
            Ok(response) => response,
            Err(err) => {
                self.finished = true;
                return Some(Err(err));
            }
        };
        match response {
            Response::Record { job, seq, .. } if job == self.id && seq >= self.expected as u64 => {
                self.finished = true;
                Some(Err(ClientError::Protocol(ProtocolError::Malformed(
                    "record ordinal was never submitted",
                ))))
            }
            Response::Record { job, seq, record } if job == self.id => {
                match decode_record(&record) {
                    Some(record) => Some(Ok((seq, record))),
                    None => {
                        self.finished = true;
                        Some(Err(ClientError::Protocol(ProtocolError::Malformed(
                            "undecodable case record",
                        ))))
                    }
                }
            }
            Response::JobDone { job, stats } if job == self.id => {
                self.stats = Some(stats);
                self.finished = true;
                self.clean = true;
                if let Some(feeder) = self.feeder.take() {
                    let _ = feeder.join();
                }
                None
            }
            Response::Error { code, message } => {
                self.finished = true;
                Some(Err(ClientError::Server { code, message }))
            }
            _ => {
                self.finished = true;
                Some(Err(ClientError::Protocol(ProtocolError::Malformed(
                    "unexpected mid-job response",
                ))))
            }
        }
    }
}

impl Drop for Job<'_> {
    fn drop(&mut self) {
        if !self.clean {
            // Abandoned or failed mid-stream: in-flight results cannot be
            // re-synced. Kill the connection — the server turns the
            // disconnect into cancellation of this job.
            self.client.broken = true;
            self.client.reader.shutdown_conn();
        }
        if let Some(feeder) = self.feeder.take() {
            let _ = feeder.join();
        }
    }
}
