//! Message codecs and frame I/O for the validation protocol.
//!
//! The byte-level layout is specified in the [crate docs](crate); this
//! module implements it with [`vv_store::wire`] primitives. Every decode
//! is bounds-checked end to end: torn frames, bad checksums, unknown
//! message types and trailing garbage all surface as [`ProtocolError`],
//! never a panic — mirroring the store's torn-write discipline.

use std::fmt;
use std::io::{self, Read, Write};

use vv_judge::{JudgeProfile, PromptStyle};
use vv_pipeline::{PipelineMode, PipelineStats, WorkItem};
use vv_simcompiler::Lang;
use vv_store::wire::{fnv1a, Reader, WireError, Writer};

use crate::stats::ServerStats;

/// Protocol revision; bumped on any wire-visible change.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on one frame's payload. Large enough for any realistic
/// source file or stats snapshot, small enough that a corrupt length
/// prefix cannot trigger a giant allocation.
pub const MAX_FRAME_BYTES: usize = 8 << 20;

/// Anything that can go wrong reading or decoding protocol traffic.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying transport failed (includes mid-frame EOF).
    Io(io::Error),
    /// A frame arrived with an impossible length or a checksum mismatch.
    /// The stream can no longer be trusted.
    Frame(&'static str),
    /// A frame's payload did not decode as a message.
    Malformed(&'static str),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(err) => write!(f, "protocol i/o error: {err}"),
            ProtocolError::Frame(what) => write!(f, "bad frame: {what}"),
            ProtocolError::Malformed(what) => write!(f, "malformed message: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(err: io::Error) -> Self {
        ProtocolError::Io(err)
    }
}

impl From<WireError> for ProtocolError {
    fn from(err: WireError) -> Self {
        ProtocolError::Malformed(err.context)
    }
}

/// Bytes of a frame header: `len u32` then `checksum u64`.
pub const FRAME_HEADER_BYTES: usize = 12;

/// Write one frame (`len | fnv1a | payload`) and flush, handing the
/// transport header and payload together in a single `write_all`.
///
/// Over TCP a frame split into two writes stalls: the header goes out
/// alone, Nagle's algorithm holds the payload until the header is
/// acknowledged, and the peer — blocked reading that payload — delays its
/// ACK by up to 40 ms. Both ends also set `TCP_NODELAY`, so a whole frame
/// written while an earlier one is unacknowledged is not held back either.
pub fn write_frame(w: &mut (impl Write + ?Sized), payload: &[u8]) -> io::Result<()> {
    debug_assert!(!payload.is_empty() && payload.len() <= MAX_FRAME_BYTES);
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame's payload into `buf` (replacing its contents).
///
/// Returns `Ok(false)` on a clean EOF *between* frames — the peer closed.
/// EOF inside a frame, an out-of-range length and a checksum mismatch are
/// all errors: a byte stream that tears mid-frame cannot be re-synced.
pub fn read_frame(r: &mut (impl Read + ?Sized), buf: &mut Vec<u8>) -> Result<bool, ProtocolError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    // Distinguish clean EOF (zero header bytes) from a torn header.
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..])? {
            0 if got == 0 => return Ok(false),
            0 => return Err(ProtocolError::Frame("eof inside frame header")),
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let sum = u64::from_le_bytes(header[4..].try_into().expect("8 bytes"));
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(ProtocolError::Frame("frame length out of range"));
    }
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf).map_err(|err| {
        if err.kind() == io::ErrorKind::UnexpectedEof {
            ProtocolError::Frame("eof inside frame payload")
        } else {
            ProtocolError::Io(err)
        }
    })?;
    if fnv1a(buf) != sum {
        return Err(ProtocolError::Frame("frame checksum mismatch"));
    }
    Ok(true)
}

/// Identifier of one of the built-in judge calibration profiles.
///
/// [`JudgeProfile`]s carry free-form reliability tables and a static
/// name, so arbitrary profiles cannot round-trip a one-byte wire field;
/// the protocol instead pins the five calibrations shipped in
/// [`vv_judge`] under stable ids. New built-ins append new ids; existing
/// ids are frozen.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProfileId {
    /// `JudgeProfile::deepseek_plain()` — id 0.
    DeepseekPlain,
    /// `JudgeProfile::deepseek_agent_direct()` — id 1.
    DeepseekAgentDirect,
    /// `JudgeProfile::deepseek_agent_indirect()` — id 2.
    DeepseekAgentIndirect,
    /// `JudgeProfile::oracle()` — id 3.
    Oracle,
    /// `JudgeProfile::permissive()` — id 4.
    Permissive,
}

impl ProfileId {
    /// All ids, in wire-code order.
    pub const ALL: [ProfileId; 5] = [
        ProfileId::DeepseekPlain,
        ProfileId::DeepseekAgentDirect,
        ProfileId::DeepseekAgentIndirect,
        ProfileId::Oracle,
        ProfileId::Permissive,
    ];

    /// The frozen wire byte.
    pub fn code(self) -> u8 {
        match self {
            ProfileId::DeepseekPlain => 0,
            ProfileId::DeepseekAgentDirect => 1,
            ProfileId::DeepseekAgentIndirect => 2,
            ProfileId::Oracle => 3,
            ProfileId::Permissive => 4,
        }
    }

    /// Inverse of [`ProfileId::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.get(code as usize).copied()
    }

    /// Materialize the calibration profile this id names.
    pub fn profile(self) -> JudgeProfile {
        match self {
            ProfileId::DeepseekPlain => JudgeProfile::deepseek_plain(),
            ProfileId::DeepseekAgentDirect => JudgeProfile::deepseek_agent_direct(),
            ProfileId::DeepseekAgentIndirect => JudgeProfile::deepseek_agent_indirect(),
            ProfileId::Oracle => JudgeProfile::oracle(),
            ProfileId::Permissive => JudgeProfile::permissive(),
        }
    }

    /// Recognize a built-in profile by its (static, unique) name — how a
    /// local `Scenario` is mapped onto the wire. `None` for custom
    /// profiles, which cannot be submitted remotely.
    pub fn of_profile(profile: &JudgeProfile) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|id| id.profile().name == profile.name)
    }
}

/// The server-side configuration of one campaign job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobSpec {
    /// Early-exit or record-all staging.
    pub mode: PipelineMode,
    /// Judge prompt style.
    pub style: PromptStyle,
    /// Judge calibration profile (wire-registry id).
    pub profile: ProfileId,
    /// Seed of the judge's decision layer.
    pub judge_seed: u64,
}

impl Default for JobSpec {
    /// Record-all staging under the paper's LLMJ 1 configuration
    /// (agent-style direct prompt) and the pipeline's default judge seed.
    fn default() -> Self {
        Self {
            mode: PipelineMode::RecordAll,
            style: PromptStyle::AgentDirect,
            profile: ProfileId::DeepseekAgentDirect,
            judge_seed: vv_pipeline::PipelineConfig::default().judge_seed,
        }
    }
}

impl JobSpec {
    /// The tuple the server keys its resident service pool by.
    pub(crate) fn key(&self) -> (u8, u8, u8, u64) {
        (
            mode_code(self.mode),
            style_code(self.style),
            self.profile.code(),
            self.judge_seed,
        )
    }
}

pub(crate) fn mode_code(mode: PipelineMode) -> u8 {
    match mode {
        PipelineMode::EarlyExit => 0,
        PipelineMode::RecordAll => 1,
    }
}

pub(crate) fn mode_from_code(code: u8) -> Option<PipelineMode> {
    match code {
        0 => Some(PipelineMode::EarlyExit),
        1 => Some(PipelineMode::RecordAll),
        _ => None,
    }
}

pub(crate) fn style_code(style: PromptStyle) -> u8 {
    match style {
        PromptStyle::Direct => 0,
        PromptStyle::AgentDirect => 1,
        PromptStyle::AgentIndirect => 2,
    }
}

pub(crate) fn style_from_code(code: u8) -> Option<PromptStyle> {
    match code {
        0 => Some(PromptStyle::Direct),
        1 => Some(PromptStyle::AgentDirect),
        2 => Some(PromptStyle::AgentIndirect),
        _ => None,
    }
}

fn lang_code(lang: Lang) -> u8 {
    match lang {
        Lang::C => 0,
        Lang::Cpp => 1,
    }
}

fn lang_from_code(code: u8) -> Option<Lang> {
    match code {
        0 => Some(Lang::C),
        1 => Some(Lang::Cpp),
        _ => None,
    }
}

fn model_code(model: vv_dclang::DirectiveModel) -> u8 {
    match model {
        vv_dclang::DirectiveModel::OpenAcc => 0,
        vv_dclang::DirectiveModel::OpenMp => 1,
    }
}

fn model_from_code(code: u8) -> Option<vv_dclang::DirectiveModel> {
    match code {
        0 => Some(vv_dclang::DirectiveModel::OpenAcc),
        1 => Some(vv_dclang::DirectiveModel::OpenMp),
        _ => None,
    }
}

/// Why the server refused (or aborted) something.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The client violated the protocol (bad handshake, unknown enum
    /// byte, torn frame); the connection closes after this.
    Protocol,
    /// The server is draining for shutdown and refuses new jobs.
    Draining,
    /// A `CASE`/`FINISH_JOB` referenced a job id that was never opened.
    UnknownJob,
    /// `SHUTDOWN` drained every case but could not seal the store; the
    /// server stops anyway, and records written since the last seal may
    /// be lost.
    Store,
}

impl ErrorCode {
    fn code(self) -> u8 {
        match self {
            ErrorCode::Protocol => 1,
            ErrorCode::Draining => 2,
            ErrorCode::UnknownJob => 3,
            ErrorCode::Store => 4,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(ErrorCode::Protocol),
            2 => Some(ErrorCode::Draining),
            3 => Some(ErrorCode::UnknownJob),
            4 => Some(ErrorCode::Store),
            _ => None,
        }
    }
}

const REQ_HELLO: u8 = 0x01;
const REQ_OPEN_JOB: u8 = 0x02;
const REQ_CASE: u8 = 0x03;
const REQ_FINISH_JOB: u8 = 0x04;
const REQ_STATS: u8 = 0x05;
const REQ_SHUTDOWN: u8 = 0x06;

const RESP_HELLO_OK: u8 = 0x81;
const RESP_RECORD: u8 = 0x82;
const RESP_JOB_DONE: u8 = 0x83;
const RESP_STATS_OK: u8 = 0x84;
const RESP_SHUTDOWN_OK: u8 = 0x85;
const RESP_ERROR: u8 = 0x8F;

/// Client → server messages.
///
/// (No `PartialEq`: [`WorkItem`] deliberately does not compare — the
/// round-trip tests compare re-encoded bytes instead.)
#[derive(Clone, Debug)]
pub enum Request {
    /// Handshake; must be the first message on a connection.
    Hello {
        /// [`PROTOCOL_VERSION`] spoken by the client.
        protocol: u32,
        /// Queue/fairness identity on the server.
        tenant: String,
    },
    /// Declare a campaign job.
    OpenJob {
        /// Client-chosen id, unique per connection.
        job: u32,
        /// The pipeline configuration to validate under.
        spec: JobSpec,
    },
    /// Submit one case under an open job.
    Case {
        /// The job this case belongs to.
        job: u32,
        /// Client submission ordinal, echoed in the `RECORD`.
        seq: u64,
        /// The work item itself.
        item: WorkItem,
    },
    /// No more cases will be submitted for `job`.
    FinishJob {
        /// The job being finished.
        job: u32,
    },
    /// Request a live [`ServerStats`] snapshot.
    Stats,
    /// Drain, seal the store and stop the server.
    Shutdown,
}

impl Request {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        match self {
            Request::Hello { protocol, tenant } => {
                w.put_u8(REQ_HELLO);
                w.put_u32(*protocol);
                w.put_str(tenant);
            }
            Request::OpenJob { job, spec } => {
                w.put_u8(REQ_OPEN_JOB);
                w.put_u32(*job);
                w.put_u8(mode_code(spec.mode));
                w.put_u8(style_code(spec.style));
                w.put_u8(spec.profile.code());
                w.put_u64(spec.judge_seed);
            }
            Request::Case { job, seq, item } => {
                w.put_u8(REQ_CASE);
                w.put_u32(*job);
                w.put_u64(*seq);
                w.put_str(&item.id);
                w.put_str(&item.source);
                w.put_u8(lang_code(item.lang));
                w.put_u8(model_code(item.model));
            }
            Request::FinishJob { job } => {
                w.put_u8(REQ_FINISH_JOB);
                w.put_u32(*job);
            }
            Request::Stats => w.put_u8(REQ_STATS),
            Request::Shutdown => w.put_u8(REQ_SHUTDOWN),
        }
        w.into_bytes()
    }

    /// Decode a frame payload. Unknown types, unknown enum bytes and
    /// trailing bytes are all [`ProtocolError::Malformed`].
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = Reader::new(payload);
        let request = match r.get_u8("request type")? {
            REQ_HELLO => Request::Hello {
                protocol: r.get_u32("hello protocol")?,
                tenant: r.get_str("hello tenant")?.to_string(),
            },
            REQ_OPEN_JOB => Request::OpenJob {
                job: r.get_u32("open_job id")?,
                spec: JobSpec {
                    mode: mode_from_code(r.get_u8("open_job mode")?)
                        .ok_or(ProtocolError::Malformed("open_job mode"))?,
                    style: style_from_code(r.get_u8("open_job style")?)
                        .ok_or(ProtocolError::Malformed("open_job style"))?,
                    profile: ProfileId::from_code(r.get_u8("open_job profile")?)
                        .ok_or(ProtocolError::Malformed("open_job profile"))?,
                    judge_seed: r.get_u64("open_job judge seed")?,
                },
            },
            REQ_CASE => Request::Case {
                job: r.get_u32("case job")?,
                seq: r.get_u64("case seq")?,
                item: WorkItem {
                    id: r.get_str("case id")?.to_string(),
                    source: r.get_str("case source")?.to_string(),
                    lang: lang_from_code(r.get_u8("case lang")?)
                        .ok_or(ProtocolError::Malformed("case lang"))?,
                    model: model_from_code(r.get_u8("case model")?)
                        .ok_or(ProtocolError::Malformed("case model"))?,
                },
            },
            REQ_FINISH_JOB => Request::FinishJob {
                job: r.get_u32("finish_job id")?,
            },
            REQ_STATS => Request::Stats,
            REQ_SHUTDOWN => Request::Shutdown,
            _ => return Err(ProtocolError::Malformed("request type")),
        };
        if !r.is_exhausted() {
            return Err(ProtocolError::Malformed("request trailing bytes"));
        }
        Ok(request)
    }
}

/// Server → client messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// [`PROTOCOL_VERSION`] spoken by the server.
        protocol: u32,
        /// Human-readable server identity.
        server: String,
    },
    /// One completed case. `record` is the [`vv_pipeline::encode_record`]
    /// bytes of the [`vv_pipeline::CaseRecord`].
    Record {
        /// The job the case belonged to.
        job: u32,
        /// The client's submission ordinal, echoed back.
        seq: u64,
        /// Encoded case record.
        record: Vec<u8>,
    },
    /// Every accepted case of `job` has been answered.
    JobDone {
        /// The finished job.
        job: u32,
        /// This job's aggregate statistics.
        stats: PipelineStats,
    },
    /// A live statistics snapshot.
    StatsOk(ServerStats),
    /// The drain completed and the store is sealed.
    ShutdownOk,
    /// Refusal or abort.
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        match self {
            Response::HelloOk { protocol, server } => {
                w.put_u8(RESP_HELLO_OK);
                w.put_u32(*protocol);
                w.put_str(server);
            }
            Response::Record { job, seq, record } => {
                w.put_u8(RESP_RECORD);
                w.put_u32(*job);
                w.put_u64(*seq);
                w.put_bytes(record);
            }
            Response::JobDone { job, stats } => {
                w.put_u8(RESP_JOB_DONE);
                w.put_u32(*job);
                stats.encode_into(&mut w);
            }
            Response::StatsOk(snapshot) => {
                w.put_u8(RESP_STATS_OK);
                snapshot.encode_into(&mut w);
            }
            Response::ShutdownOk => w.put_u8(RESP_SHUTDOWN_OK),
            Response::Error { code, message } => {
                w.put_u8(RESP_ERROR);
                w.put_u8(code.code());
                w.put_str(message);
            }
        }
        w.into_bytes()
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = Reader::new(payload);
        let response = match r.get_u8("response type")? {
            RESP_HELLO_OK => Response::HelloOk {
                protocol: r.get_u32("hello_ok protocol")?,
                server: r.get_str("hello_ok server")?.to_string(),
            },
            RESP_RECORD => Response::Record {
                job: r.get_u32("record job")?,
                seq: r.get_u64("record seq")?,
                record: r.get_bytes("record payload")?.to_vec(),
            },
            RESP_JOB_DONE => Response::JobDone {
                job: r.get_u32("job_done job")?,
                stats: PipelineStats::decode_from(&mut r)?,
            },
            RESP_STATS_OK => Response::StatsOk(ServerStats::decode_from(&mut r)?),
            RESP_SHUTDOWN_OK => Response::ShutdownOk,
            RESP_ERROR => Response::Error {
                code: ErrorCode::from_code(r.get_u8("error code")?)
                    .ok_or(ProtocolError::Malformed("error code"))?,
                message: r.get_str("error message")?.to_string(),
            },
            _ => return Err(ProtocolError::Malformed("response type")),
        };
        if !r.is_exhausted() {
            return Err(ProtocolError::Malformed("response trailing bytes"));
        }
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vv_dclang::DirectiveModel;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello {
                protocol: PROTOCOL_VERSION,
                tenant: "acme".into(),
            },
            Request::OpenJob {
                job: 7,
                spec: JobSpec::default(),
            },
            Request::Case {
                job: 7,
                seq: 42,
                item: WorkItem {
                    id: "case_0042".into(),
                    source: "int main() { return 0; }".into(),
                    lang: Lang::Cpp,
                    model: DirectiveModel::OpenMp,
                },
            },
            Request::FinishJob { job: 7 },
            Request::Stats,
            Request::Shutdown,
        ]
    }

    #[test]
    fn requests_round_trip() {
        for request in sample_requests() {
            let payload = request.encode();
            let decoded = Request::decode(&payload).unwrap();
            // WorkItem has no PartialEq; a bit-exact re-encode is the
            // stronger check anyway (canonical encoding).
            assert_eq!(decoded.encode(), payload);
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response::HelloOk {
                protocol: PROTOCOL_VERSION,
                server: "vv-server/1".into(),
            },
            Response::Record {
                job: 1,
                seq: 9,
                record: vec![1, 2, 3, 4],
            },
            Response::JobDone {
                job: 1,
                stats: PipelineStats {
                    submitted: 10,
                    judged: 9,
                    ..Default::default()
                },
            },
            Response::StatsOk(ServerStats::default()),
            Response::ShutdownOk,
            Response::Error {
                code: ErrorCode::Draining,
                message: "draining".into(),
            },
            Response::Error {
                code: ErrorCode::Store,
                message: "store seal failed".into(),
            },
        ];
        for response in responses {
            let payload = response.encode();
            assert_eq!(Response::decode(&payload).unwrap(), response);
        }
    }

    #[test]
    fn truncated_payloads_fail_cleanly() {
        for request in sample_requests() {
            let payload = request.encode();
            for cut in 0..payload.len() {
                assert!(Request::decode(&payload[..cut]).is_err(), "cut {cut}");
            }
            let mut padded = payload.clone();
            padded.push(0);
            assert!(Request::decode(&padded).is_err());
        }
    }

    #[test]
    fn unknown_enum_bytes_are_malformed() {
        let mut payload = Request::OpenJob {
            job: 1,
            spec: JobSpec::default(),
        }
        .encode();
        // Byte layout: type, job u32, mode — corrupt the mode byte.
        payload[5] = 0x7F;
        assert!(Request::decode(&payload).is_err());
        assert!(Request::decode(&[0x55]).is_err());
        assert!(Response::decode(&[0x55]).is_err());
    }

    #[test]
    fn frames_round_trip_and_reject_torn_input() {
        let payload = Request::Stats.encode();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &payload).unwrap();
        write_frame(&mut bytes, &payload).unwrap();

        let mut cursor = io::Cursor::new(&bytes);
        let mut buf = Vec::new();
        assert!(read_frame(&mut cursor, &mut buf).unwrap());
        assert_eq!(buf, payload);
        assert!(read_frame(&mut cursor, &mut buf).unwrap());
        assert!(!read_frame(&mut cursor, &mut buf).unwrap(), "clean EOF");

        // Every possible tear inside a frame is an error, not a hang or a
        // partial success (mirrors the PR 6 torn-write sweeps).
        for cut in 1..bytes.len() {
            let mut cursor = io::Cursor::new(&bytes[..cut]);
            let mut buf = Vec::new();
            match read_frame(&mut cursor, &mut buf) {
                Ok(true) if cut >= FRAME_HEADER_BYTES + payload.len() => {} // first frame intact
                Ok(true) => panic!("cut {cut} decoded a torn frame"),
                Ok(false) => panic!("cut {cut} looked like clean EOF"),
                Err(_) => assert!(cut < FRAME_HEADER_BYTES + payload.len(), "cut {cut}"),
            }
        }

        // A flipped payload bit is a checksum failure (the first frame's
        // payload is the single byte at offset 12).
        let mut corrupt = bytes.clone();
        corrupt[12] ^= 0x01;
        let mut cursor = io::Cursor::new(&corrupt);
        assert!(read_frame(&mut cursor, &mut Vec::new()).is_err());

        // An absurd length prefix is rejected before any allocation.
        let mut giant = vec![0u8; 12];
        giant[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = io::Cursor::new(&giant);
        assert!(read_frame(&mut cursor, &mut Vec::new()).is_err());
    }

    /// A `Write` that records every `write` call it sees.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<usize>,
        flushes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn write_frame_hands_the_transport_one_write_per_frame() {
        let case = Request::Case {
            job: 3,
            seq: 1,
            item: WorkItem {
                id: "case_0001".into(),
                source: "x".repeat(70_000),
                lang: Lang::C,
                model: DirectiveModel::OpenAcc,
            },
        };
        for payload in [Request::Stats.encode(), case.encode()] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.writes, vec![FRAME_HEADER_BYTES + payload.len()]);
            assert_eq!(w.flushes, 1);

            let mut buf = Vec::new();
            assert!(read_frame(&mut &w.bytes[..], &mut buf).unwrap());
            assert_eq!(buf, payload);
        }
    }

    #[test]
    fn profile_registry_is_frozen_and_complete() {
        for id in ProfileId::ALL {
            assert_eq!(ProfileId::from_code(id.code()), Some(id));
            assert_eq!(ProfileId::of_profile(&id.profile()), Some(id));
        }
        assert_eq!(ProfileId::from_code(5), None);
        // A custom profile has no wire id.
        let mut custom = JudgeProfile::oracle();
        custom.name = "bespoke";
        assert_eq!(ProfileId::of_profile(&custom), None);
    }
}
