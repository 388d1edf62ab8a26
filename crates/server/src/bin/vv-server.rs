//! `vv-server` — run and drive the resident validation daemon.
//!
//! ```text
//! vv-server serve --addr 127.0.0.1:7411 [--store DIR] [--workers N]
//!                 [--queue N] [--inflight N]
//! vv-server submit --addr HOST:PORT --tenant NAME [--size N]
//!                  [--model acc|omp] [--seed N] [--mutated F]
//! vv-server stats --addr HOST:PORT
//! vv-server shutdown --addr HOST:PORT
//! ```
//!
//! `serve` blocks until a client sends `SHUTDOWN`. `submit` generates a
//! probed corpus locally (same generator as the in-process campaigns),
//! streams it through the daemon and prints the job's statistics. Exit
//! status: 0 on success, 1 on runtime failure, 2 on usage errors.

use std::process::ExitCode;
use std::time::Instant;

use vv_dclang::DirectiveModel;
use vv_pipeline::WorkItem;
use vv_probing::{CorpusSpec, ProbeConfig};
use vv_server::{Client, JobSpec, Server, ServerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => return usage(),
    };
    match command {
        "serve" => serve(rest),
        "submit" => submit(rest),
        "stats" => stats(rest),
        "shutdown" => shutdown(rest),
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: vv-server serve --addr HOST:PORT [--store DIR] [--workers N] \
         [--queue N] [--inflight N]\n       \
         vv-server submit --addr HOST:PORT --tenant NAME [--size N] \
         [--model acc|omp] [--seed N] [--mutated F]\n       \
         vv-server stats --addr HOST:PORT\n       \
         vv-server shutdown --addr HOST:PORT"
    );
    ExitCode::from(2)
}

/// Split `args` into `--flag value` pairs.
fn flag_pairs(args: &[String]) -> Option<Vec<(&str, &str)>> {
    let mut pairs = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.strip_prefix("--")?;
        let value = it.next()?;
        pairs.push((flag, value.as_str()));
    }
    Some(pairs)
}

fn find<'a>(pairs: &[(&str, &'a str)], flag: &str) -> Option<&'a str> {
    pairs
        .iter()
        .find(|(name, _)| *name == flag)
        .map(|(_, value)| *value)
}

fn serve(args: &[String]) -> ExitCode {
    let Some(pairs) = flag_pairs(args) else {
        return usage();
    };
    // Unknown flags are usage errors, not silently ignored.
    const FLAGS: [&str; 5] = ["addr", "store", "workers", "queue", "inflight"];
    if pairs.iter().any(|(flag, _)| !FLAGS.contains(flag)) {
        return usage();
    }
    let Some(addr) = find(&pairs, "addr") else {
        return usage();
    };
    let mut config = ServerConfig::default();
    if let Some(dir) = find(&pairs, "store") {
        config.store_dir = Some(dir.into());
    }
    for (flag, slot) in [
        ("workers", &mut config.workers as &mut usize),
        ("queue", &mut config.tenant_queue_capacity),
        ("inflight", &mut config.max_in_flight_per_tenant),
    ] {
        if let Some(value) = find(&pairs, flag) {
            match value.parse() {
                Ok(n) => *slot = n,
                Err(_) => return usage(),
            }
        }
    }
    let server = match Server::bind(addr, config) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("vv-server: bind {addr} failed: {err}");
            return ExitCode::from(1);
        }
    };
    println!(
        "vv-server listening on {}",
        server.local_addr().expect("bound server has an address")
    );
    server.join();
    println!("vv-server: drained and stopped");
    ExitCode::SUCCESS
}

fn submit(args: &[String]) -> ExitCode {
    let Some(pairs) = flag_pairs(args) else {
        return usage();
    };
    let (Some(addr), Some(tenant)) = (find(&pairs, "addr"), find(&pairs, "tenant")) else {
        return usage();
    };
    let size = match find(&pairs, "size").map(str::parse).transpose() {
        Ok(size) => size.unwrap_or(64),
        Err(_) => return usage(),
    };
    let seed: u64 = match find(&pairs, "seed").map(str::parse).transpose() {
        Ok(seed) => seed.unwrap_or(0xC0FFEE),
        Err(_) => return usage(),
    };
    let model = match find(&pairs, "model") {
        None | Some("acc") => DirectiveModel::OpenAcc,
        Some("omp") => DirectiveModel::OpenMp,
        Some(_) => return usage(),
    };
    let mut probe = ProbeConfig::with_seed(seed ^ 0x9E37_79B9);
    if let Some(fraction) = find(&pairs, "mutated") {
        match fraction.parse() {
            Ok(fraction) => probe.mutated_fraction = fraction,
            Err(_) => return usage(),
        }
    }
    let mut source = CorpusSpec::new(model)
        .seed(seed)
        .probe(probe)
        .size(size)
        .source();
    let mut items = Vec::with_capacity(size);
    while let Some(case) = source.next_case() {
        items.push(WorkItem::from(case));
    }

    let submitted = items.len();
    let run = move || -> Result<(), vv_server::ClientError> {
        let mut client = Client::connect(addr, tenant)?;
        println!("connected to {} as tenant {tenant}", client.server_name());
        let started = Instant::now();
        let run = client.submit(JobSpec::default(), items)?.into_run()?;
        let elapsed = started.elapsed();
        println!("{}", run.stats);
        println!(
            "{} case(s) in {:.2}s over the wire ({:.0} cases/s)",
            submitted,
            elapsed.as_secs_f64(),
            submitted as f64 / elapsed.as_secs_f64().max(1e-9),
        );
        Ok(())
    };
    finish(run())
}

fn stats(args: &[String]) -> ExitCode {
    let Some(pairs) = flag_pairs(args) else {
        return usage();
    };
    let Some(addr) = find(&pairs, "addr") else {
        return usage();
    };
    let run = || -> Result<(), vv_server::ClientError> {
        let mut client = Client::connect(addr, "vv-server-cli")?;
        println!("{}", client.stats()?);
        Ok(())
    };
    finish(run())
}

fn shutdown(args: &[String]) -> ExitCode {
    let Some(pairs) = flag_pairs(args) else {
        return usage();
    };
    let Some(addr) = find(&pairs, "addr") else {
        return usage();
    };
    let run = || -> Result<(), vv_server::ClientError> {
        Client::connect(addr, "vv-server-cli")?.shutdown()?;
        println!("server drained and stopped");
        Ok(())
    };
    finish(run())
}

fn finish(result: Result<(), vv_server::ClientError>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("vv-server: {err}");
            ExitCode::from(1)
        }
    }
}
