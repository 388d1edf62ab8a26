//! Remote campaign submission: run a [`Scenario`] through a resident
//! `vv-server` daemon instead of an in-process service.
//!
//! The corpus never crosses a serialization boundary it wasn't designed
//! for: each shard is generated **locally** by the same
//! [`Scenario::shard_spec`] sources the in-process fold uses, and the
//! ground-truth issue of every case is captured at generation time. Only
//! the [`WorkItem`]s travel — the server validates them under the
//! scenario's [`JobSpec`] and streams each record back tagged with its
//! submission ordinal, which pairs it exactly with the locally-parked
//! issue. The fold itself is the same [`ScenarioMetrics::observe`] the
//! local [`run_scenario`](crate::campaign::run_scenario) uses, so a
//! remote run produces [`ScenarioMetrics`] that agree with a direct run:
//! identical judge/pipeline sinks and judge-load summaries, and service
//! statistics that match under
//! [`stage_stats`](crate::incremental::stage_stats)
//! (wall time and cache/store provenance legitimately differ — the
//! daemon's pools are warm).
//!
//! What does **not** travel: the in-flight window — it belongs to
//! whichever service executes, and the pipeline's worker-count
//! parity law guarantees the records are byte-identical regardless. What
//! *cannot* travel: a custom [`JudgeProfile`](vv_judge::JudgeProfile) —
//! the wire pins the built-in calibrations by
//! [`ProfileId`], and [`scenario_job_spec`] reports
//! [`RemoteError::UnsupportedProfile`] for anything else.

use std::fmt;

use vv_corpus::CaseSource;
use vv_pipeline::{PipelineMode, WorkItem};
use vv_probing::IssueKind;
use vv_server::{Client, ClientError, JobSpec, ProfileId, ProtocolError};

use crate::campaign::{Scenario, ScenarioMetrics};

/// Why a scenario could not be evaluated remotely.
#[derive(Debug)]
pub enum RemoteError {
    /// The scenario's judge profile is not one of the wire-registry
    /// built-ins, so no [`JobSpec`] can name it.
    UnsupportedProfile(String),
    /// The protocol client failed (transport, protocol or server error).
    Client(ClientError),
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::UnsupportedProfile(name) => {
                write!(f, "judge profile {name:?} has no wire id; only built-in calibrations can be submitted remotely")
            }
            RemoteError::Client(err) => write!(f, "remote submission failed: {err}"),
        }
    }
}

impl std::error::Error for RemoteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RemoteError::Client(err) => Some(err),
            RemoteError::UnsupportedProfile(_) => None,
        }
    }
}

impl From<ClientError> for RemoteError {
    fn from(err: ClientError) -> Self {
        RemoteError::Client(err)
    }
}

/// The [`JobSpec`] under which a daemon reproduces `scenario`'s judgement
/// behaviour: record-all staging, the scenario's prompt style and judge
/// seed, and its calibration profile resolved against the wire registry.
pub fn scenario_job_spec(scenario: &Scenario) -> Result<JobSpec, RemoteError> {
    let profile = ProfileId::of_profile(&scenario.judge_profile)
        .ok_or_else(|| RemoteError::UnsupportedProfile(scenario.judge_profile.name.to_string()))?;
    Ok(JobSpec {
        mode: PipelineMode::RecordAll,
        style: scenario.prompt_style,
        profile,
        judge_seed: scenario.judge_seed,
    })
}

/// Run one scenario through a connected [`Client`], shard by shard,
/// mirroring the in-process fold of
/// [`run_scenario`](crate::campaign::run_scenario).
///
/// Each shard is one protocol job: the shard's cases are generated
/// locally (parking their [`IssueKind`]s by submission ordinal), streamed
/// to the server, and every returned record is folded — in completion
/// order — into the shard's sinks via
/// [`ScenarioMetrics::observe`].
/// Per-shard service statistics come from the server's `JOB_DONE`
/// aggregate and merge across shards just like local
/// [`FoldStats`](crate::experiment::FoldStats) do.
///
/// The peer is not trusted: a record under an ordinal that was never
/// submitted or already came back, a record without a judgement, and a
/// `JOB_DONE` before every ordinal came back are all
/// [`ProtocolError::Malformed`].
///
/// `max_in_flight` is reported as 0: the in-flight window lives on the
/// server (its queue bounds and worker pool), not in this client.
pub fn run_scenario_remote(
    scenario: &Scenario,
    client: &mut Client,
) -> Result<ScenarioMetrics, RemoteError> {
    let malformed =
        |what| RemoteError::Client(ClientError::Protocol(ProtocolError::Malformed(what)));
    let spec = scenario_job_spec(scenario)?;
    let mut merged = ScenarioMetrics::new(scenario.clone());
    for k in 0..scenario.shards {
        let mut source = scenario.shard_spec(k).source();
        // The issue of every ordinal still owed an answer.
        let mut owed = Vec::new();
        let mut items = Vec::new();
        while let Some(case) = source.next_case() {
            owed.push(Some(IssueKind::of_case(&case)));
            items.push(WorkItem::from(case));
        }

        let mut shard = ScenarioMetrics::new(scenario.clone());
        let mut job = client.submit(spec, items)?;
        for result in &mut job {
            let (seq, record) = result?;
            let issue = owed
                .get_mut(seq as usize)
                .ok_or_else(|| malformed("record ordinal was never submitted"))?
                .take()
                .ok_or_else(|| malformed("record ordinal came back twice"))?;
            if record.judgement.is_none() {
                return Err(malformed("record-all record carries no judgement"));
            }
            shard.observe(issue, &record);
        }
        if owed.iter().any(Option::is_some) {
            return Err(malformed("job finished before every case came back"));
        }
        shard.stats = job.stats().cloned().ok_or(ClientError::Broken)?;
        merged.merge(&shard);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_scenario, ScenarioMatrix};
    use crate::incremental::stage_stats;
    use vv_judge::{JudgeOutcome, JudgeProfile, Verdict};
    use vv_pipeline::{encode_record, CaseRecord, CompileSummary, PipelineStats};
    use vv_server::protocol::{read_frame, write_frame, Response};
    use vv_server::{duplex, PipeEnd, Server, ServerConfig, PROTOCOL_VERSION};

    fn tiny_matrix() -> ScenarioMatrix {
        ScenarioMatrix::new(if cfg!(debug_assertions) { 24 } else { 96 }).shards(2)
    }

    #[test]
    fn a_custom_profile_cannot_go_on_the_wire() {
        let mut scenario = tiny_matrix().scenarios().remove(0);
        let mut profile = JudgeProfile::oracle();
        profile.name = "bespoke";
        scenario.judge_profile = profile;
        match scenario_job_spec(&scenario) {
            Err(RemoteError::UnsupportedProfile(name)) => assert_eq!(name, "bespoke"),
            other => panic!("expected UnsupportedProfile, got {other:?}"),
        }
    }

    #[test]
    fn remote_scenario_metrics_match_the_in_process_fold() {
        let scenario = tiny_matrix().scenarios().remove(0);
        let local = run_scenario(&scenario);

        let server = Server::start(ServerConfig::default()).unwrap();
        let mut client = Client::over(Box::new(server.connect()), "remote-test").unwrap();
        let remote = run_scenario_remote(&scenario, &mut client).unwrap();
        drop(client);
        server.handle().shutdown().expect("store seals");
        server.join();

        assert_eq!(remote.judge, local.judge);
        assert_eq!(remote.pipeline, local.pipeline);
        assert_eq!(remote.judge_load, local.judge_load);
        assert_eq!(stage_stats(&remote.stats), stage_stats(&local.stats));
        assert_eq!(remote.cases(), local.cases());
    }

    /// A scripted peer: answers the handshake and the job's opening with
    /// `answers`, then drains until the client hangs up. A client that
    /// rejects an answer may hang up before the rest are written.
    fn answer_with(mut conn: PipeEnd, answers: Vec<Response>) {
        let mut buf = Vec::new();
        assert!(read_frame(&mut conn, &mut buf).expect("HELLO"));
        let hello = Response::HelloOk {
            protocol: PROTOCOL_VERSION,
            server: "scripted".into(),
        };
        write_frame(&mut conn, &hello.encode()).expect("HELLO_OK");
        assert!(read_frame(&mut conn, &mut buf).expect("OPEN_JOB"));
        for answer in &answers {
            if write_frame(&mut conn, &answer.encode()).is_err() {
                return;
            }
        }
        while let Ok(true) = read_frame(&mut conn, &mut buf) {}
    }

    /// A RECORD of job 1 under ordinal `seq`, judged or not.
    fn record(seq: u64, judged: bool) -> Response {
        let record = CaseRecord {
            id: format!("case-{seq}"),
            compile: CompileSummary {
                return_code: 0,
                stdout: "".into(),
                stderr: "".into(),
                succeeded: true,
            },
            exec: None,
            judgement: judged.then(|| JudgeOutcome {
                prompt: "".into(),
                response: "".into(),
                verdict: Some(Verdict::Valid),
                prompt_tokens: 1,
                response_tokens: 1,
                latency_ms: 1.0,
            }),
        };
        Response::Record {
            job: 1,
            seq,
            record: encode_record(&record),
        }
    }

    fn job_done() -> Response {
        Response::JobDone {
            job: 1,
            stats: PipelineStats::default(),
        }
    }

    #[test]
    fn an_out_of_range_record_ordinal_is_an_error_not_a_panic() {
        // Every script ends in JOB_DONE, so a client that trusts the peer
        // returns instead of waiting for more answers.
        let hostile = [
            ("a stray ordinal", vec![record(1 << 40, true)]),
            ("an early JOB_DONE", vec![record(0, true)]),
            ("a repeated ordinal", vec![record(0, true); 3]),
            ("a record without a judgement", vec![record(0, false)]),
        ];
        for (what, mut answers) in hostile {
            answers.push(job_done());
            // One 8-case shard: one job.
            let scenario = ScenarioMatrix::new(8).scenarios().remove(0);
            let (client_end, server_end) = duplex(64 * 1024);
            let peer = std::thread::spawn(move || answer_with(server_end, answers));
            let mut client = Client::over(Box::new(client_end), "remote-test").unwrap();
            match run_scenario_remote(&scenario, &mut client) {
                Err(RemoteError::Client(ClientError::Protocol(ProtocolError::Malformed(_)))) => {}
                other => panic!("{what}: expected a malformed-message error, got {other:?}"),
            }
            drop(client);
            peer.join().expect("scripted peer");
        }
    }
}
