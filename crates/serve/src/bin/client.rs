//! `probranch-client` — thin client for the sweep service.
//!
//! A full run (`probranch-client ADDR`) requests every section in
//! order and prints exactly what the in-process `figures` binary
//! prints, so CI can byte-diff the two. Transport failures are retried
//! (healing injected drops); structured errors exit 3, transport
//! exhaustion exits 2.

use std::process::ExitCode;
use std::time::Duration;

use probranch_serve::{request_with_retry, Request, Response, Status, SweepRequest, SECTIONS};

const USAGE: &str = "\
usage: probranch-client ADDR [options]

  Runs the full figure/table sweep against a `figures --serve` server,
  printing byte-identical output to the in-process run.

options:
  --scale smoke|bench|paper   sweep scale (default: smoke)
  --engine replay|reference   simulation engine (default: replay)
  --jobs N                    parallel cells per sweep
  --deadline-ms N             per-request cancellation deadline
  --sections a,b,c            subset of sections (default: all, with header)
  --retries N                 transport retry budget (default: 5)
  --timeout-s N               per-request timeout (default: 600)
  --ping                      health-check the server and exit
  --shutdown                  ask the server to drain and exit
";

struct Args {
    addr: String,
    scale: String,
    engine: String,
    jobs: Option<usize>,
    deadline_ms: Option<u64>,
    sections: Option<Vec<String>>,
    retries: u32,
    timeout: Duration,
    op: Op,
}

enum Op {
    Sweep,
    Ping,
    Shutdown,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let addr = match argv.next() {
        Some(a) if a != "--help" && a != "-h" => a,
        _ => return Err(USAGE.into()),
    };
    let mut args = Args {
        addr,
        scale: "smoke".into(),
        engine: "replay".into(),
        jobs: None,
        deadline_ms: None,
        sections: None,
        retries: 5,
        timeout: Duration::from_secs(600),
        op: Op::Sweep,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} needs a value\n\n{USAGE}"))
        };
        match flag.as_str() {
            "--scale" => args.scale = value("--scale")?,
            "--engine" => args.engine = value("--engine")?,
            "--jobs" => {
                args.jobs = Some(
                    value("--jobs")?
                        .parse()
                        .map_err(|e| format!("--jobs: {e}"))?,
                );
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                );
            }
            "--sections" => {
                args.sections = Some(
                    value("--sections")?
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from)
                        .collect(),
                );
            }
            "--retries" => {
                args.retries = value("--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?;
            }
            "--timeout-s" => {
                args.timeout = Duration::from_secs(
                    value("--timeout-s")?
                        .parse()
                        .map_err(|e| format!("--timeout-s: {e}"))?,
                );
            }
            "--ping" => args.op = Op::Ping,
            "--shutdown" => args.op = Op::Shutdown,
            other => return Err(format!("unknown flag: {other}\n\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Mirrors the in-process header, which formats the `Scale` enum with
/// `{:?}` (`Smoke`/`Bench`/`Paper`).
fn scale_debug_name(scale: &str) -> String {
    let mut chars = scale.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

fn send(args: &Args, req: &Request) -> Result<Response, ExitCode> {
    request_with_retry(&args.addr, req, args.timeout, args.retries).map_err(|e| {
        eprintln!(
            "probranch-client: transport failure after {} tries: {e}",
            args.retries
        );
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match args.op {
        Op::Ping => {
            return match send(&args, &Request::Ping) {
                Ok(resp) if resp.status == Status::Ok => {
                    println!("{}", resp.body);
                    ExitCode::SUCCESS
                }
                Ok(resp) => {
                    eprintln!("probranch-client: {}: {}", resp.status.name(), resp.body);
                    ExitCode::from(3)
                }
                Err(code) => code,
            };
        }
        Op::Shutdown => {
            return match send(&args, &Request::Shutdown) {
                Ok(resp) if resp.status == Status::Ok => {
                    println!("{}", resp.body);
                    ExitCode::SUCCESS
                }
                Ok(resp) => {
                    eprintln!("probranch-client: {}: {}", resp.status.name(), resp.body);
                    ExitCode::from(3)
                }
                Err(code) => code,
            };
        }
        Op::Sweep => {}
    }
    let full_run = args.sections.is_none();
    let sections: Vec<String> = match &args.sections {
        Some(list) => list.clone(),
        None => SECTIONS.iter().map(|s| (*s).to_string()).collect(),
    };
    if full_run {
        // Byte-identical to the `figures` header line.
        println!(
            "probranch — regenerating all tables & figures at {} scale\n",
            scale_debug_name(&args.scale)
        );
    }
    for section in &sections {
        let req = Request::Sweep(SweepRequest {
            section: section.clone(),
            scale: args.scale.clone(),
            engine: args.engine.clone(),
            jobs: args.jobs,
            deadline_ms: args.deadline_ms,
        });
        let resp = match send(&args, &req) {
            Ok(resp) => resp,
            Err(code) => return code,
        };
        match resp.status {
            Status::Ok => println!("{}", resp.body),
            status => {
                eprintln!(
                    "probranch-client: {section}: {}: {}",
                    status.name(),
                    resp.body
                );
                return ExitCode::from(3);
            }
        }
    }
    ExitCode::SUCCESS
}
