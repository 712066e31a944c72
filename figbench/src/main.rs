//! The repository's benchmark: wall time of the `figures` sections at
//! bench scale, end to end and split into layers. See README.md.
//!
//! ```text
//! cargo run --release --offline --manifest-path figbench/Cargo.toml -- \
//!     --workload cold --seed 1 --seconds 36 --trace 0
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`
//! and `failed` (section calls) and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! Every timed pass runs in a child process of its own, so its peak
//! memory is its own.

mod pass;
mod report;
mod spans;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use spans::Span;

/// The sections `write-store` runs: the ones that read or write traces.
const TIMING_SECTIONS: [&str; 5] = ["fig1", "fig6", "fig7", "fig8", "fig9"];

/// Trace-directory fills per `warm-store` run; `setup_s` takes their median.
const FILLS: usize = 3;

/// Set-up-only passes per `--trace 0` run; `setup_s` takes the median of
/// their set-up times, a few milliseconds each.
const SETUPS: usize = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every section, no trace directory: the default `figures` run.
    Cold,
    /// Every section over a trace directory filled during set-up.
    WarmStore,
    /// The timing sections over an empty trace directory.
    WriteStore,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold" => Some(Workload::Cold),
            "warm-store" => Some(Workload::WarmStore),
            "write-store" => Some(Workload::WriteStore),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::WarmStore => "warm-store",
            Workload::WriteStore => "write-store",
        }
    }

    pub fn sections(self) -> &'static [&'static str] {
        match self {
            Workload::Cold | Workload::WarmStore => &probranch_serve::SECTIONS,
            Workload::WriteStore => &TIMING_SECTIONS,
        }
    }

    /// Program counters that must read exactly these values after every
    /// untraced pass; a deviation (say, a set-up that left the trace
    /// directory cold) fails the run. The traced pass must see the same
    /// captures and disk loads.
    fn exact_counts(self) -> &'static [(&'static str, f64)] {
        match self {
            Workload::Cold => &[
                ("store.captures", 16.0),
                ("store.disk_loads", 0.0),
                ("store.grid_hits", 1.0),
                ("supervise.retried", 0.0),
                ("supervise.degraded", 0.0),
            ],
            Workload::WarmStore => &[
                ("store.captures", 0.0),
                ("store.disk_loads", 64.0),
                ("supervise.retried", 0.0),
                ("supervise.degraded", 0.0),
            ],
            Workload::WriteStore => &[
                ("store.captures", 64.0),
                ("supervise.retried", 0.0),
                ("supervise.degraded", 0.0),
            ],
        }
    }
}

/// Expected section digests: `section bytes fnv1a64` per line.
const EXPECTED: &str = include_str!("../expected/bench.digests");

fn expected() -> BTreeMap<&'static str, (usize, String)> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let len = f[1].parse().expect("expected byte count");
            (f[0], (len, f[2].to_string()))
        })
        .collect()
}

/// What one child pass reported.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Spawn until the child's `ready` line.
    pub ready_s: f64,
    pub wall_s: f64,
    pub rss_mib: f64,
    /// Reference-walk seconds before each section and after the last
    /// (untraced passes only).
    pub refs: Vec<f64>,
    /// `(section, seconds, matched the expected bytes)`.
    pub sections: Vec<(String, f64, bool)>,
    pub counts: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PassKind {
    Untraced,
    Traced,
    /// Builds the context of an untraced pass and stops.
    Setup,
}

/// Runs one pass in a child process and checks what it reports.
/// Returns the pass plus the problems found (empty when correct).
fn run_child(
    kind: PassKind,
    workload: Workload,
    dir: Option<&Path>,
    run_id: u64,
) -> Result<(PassOut, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .arg(kind_name(kind))
        .arg(workload.name())
        .arg(dir.map_or_else(|| "-".into(), |d| d.as_os_str().to_owned()))
        .arg(run_id.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    // The sections take scale, jobs and engine as arguments; keep the
    // program's environment switches out of the measured runs.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PROBRANCH_") {
            cmd.env_remove(key);
        }
    }
    let t0 = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("spawning a pass: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut out = PassOut::default();
    let mut problems = Vec::new();
    let expected = expected();
    let mut read_error = None;
    for line in BufReader::new(stdout).lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                read_error = Some(format!("reading a pass: {e}"));
                break;
            }
        };
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| {
            f.get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(f64::NAN)
        };
        match f.first().copied() {
            Some("ready") => out.ready_s = t0.elapsed().as_secs_f64(),
            Some("section") if f.len() == 5 => {
                let ok = expected
                    .get(f[1])
                    .is_some_and(|(len, d)| f[3] == len.to_string() && f[4] == d);
                if !ok {
                    problems.push(format!(
                        "section {} bytes differ from `figures --scale bench`",
                        f[1]
                    ));
                }
                out.sections.push((f[1].to_string(), num(2), ok));
            }
            Some("count") if f.len() == 3 => {
                out.counts.insert(f[1].to_string(), num(2));
            }
            Some("wall") => out.wall_s = num(1),
            Some("ref") => out.refs.push(num(1)),
            Some("rss") => out.rss_mib = num(1),
            Some("span") => match Span::parse(&f[1..]) {
                Some(s) if s.run == run_id => out.spans.push(s),
                _ => problems.push(format!("malformed or foreign span line `{line}`")),
            },
            _ => problems.push(format!("unexpected pass output `{line}`")),
        }
    }
    if read_error.is_some() {
        let _ = child.kill();
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for a pass: {e}"))?;
    if let Some(e) = read_error {
        return Err(e);
    }
    if !status.success() {
        return Err(format!(
            "{} {} pass exited with {status}",
            workload.name(),
            kind_name(kind)
        ));
    }
    let ran: Vec<&str> = out.sections.iter().map(|(s, _, _)| s.as_str()).collect();
    if kind == PassKind::Untraced && ran != workload.sections() {
        problems.push(format!("pass ran sections {ran:?}"));
    }
    let want_refs = match kind {
        PassKind::Untraced => ran.len() + 1,
        PassKind::Traced => 0,
        PassKind::Setup => 1,
    };
    if out.refs.len() != want_refs || out.refs.iter().any(|r| r.is_nan() || *r <= 0.0) {
        problems.push(format!("pass timed the reference walk {:?}", out.refs));
    }
    for &(name, want) in workload.exact_counts() {
        let name = match kind {
            PassKind::Setup => continue,
            PassKind::Untraced => name.to_string(),
            PassKind::Traced => match name.strip_prefix("store.") {
                Some(n @ ("captures" | "disk_loads")) => format!("redo.{n}"),
                _ => continue,
            },
        };
        let got = out.counts.get(&name).copied().unwrap_or(f64::NAN);
        if got != want {
            problems.push(format!(
                "{} {} pass: {name} = {got}, expected {want}",
                workload.name(),
                kind_name(kind)
            ));
        }
    }
    Ok((out, problems))
}

fn kind_name(kind: PassKind) -> &'static str {
    match kind {
        PassKind::Untraced => "untraced",
        PassKind::Traced => "traced",
        PassKind::Setup => "setup",
    }
}

/// The run's scratch space inside the checkout, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(seed: u64) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".figbench-work").join(format!("{seed}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn store(&self) -> PathBuf {
        self.0.join("traces")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".figbench-work");
    }
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("removing {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// The trace directory a pass of `workload` runs over: none, the filled
/// one, or a fresh empty one whose creation counts as set-up.
fn pass_dir<'a>(
    workload: Workload,
    store: &'a Path,
    mkdirs: &mut Vec<f64>,
) -> Result<Option<&'a Path>, String> {
    Ok(match workload {
        Workload::Cold => None,
        Workload::WarmStore => Some(store),
        Workload::WriteStore => {
            remove_dir(store)?;
            let t = Instant::now();
            std::fs::create_dir_all(store)
                .map_err(|e| format!("creating {}: {e}", store.display()))?;
            mkdirs.push(t.elapsed().as_secs_f64());
            Some(store)
        }
    })
}

fn dir_mib(dir: &Path) -> f64 {
    let bytes: u64 = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    bytes as f64 / f64::from(1 << 20)
}

/// Everything one benchmark invocation measured.
#[derive(Debug, Default)]
pub struct Runs {
    /// The write-store passes that filled the warm-store directory.
    pub fills: Vec<PassOut>,
    /// Seconds spent creating a pass's empty trace directory.
    pub mkdirs: Vec<f64>,
    /// The set-up-only passes (`--trace 0`).
    pub setups: Vec<PassOut>,
    pub untraced: Vec<PassOut>,
    pub traced: Vec<PassOut>,
    /// Trace-directory size after each untraced pass, MiB.
    pub dir_mib: Vec<f64>,
    pub problems: Vec<String>,
}

fn measure(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<Runs, String> {
    let work = WorkDir::create(seed)?;
    let store = work.store();
    let mut runs = Runs::default();
    let run_id = |n: usize| probranch_rng::SplitMix64::mix_fold(&[seed, n as u64]);
    if workload == Workload::WarmStore {
        // Each fill is a write-store pass over an empty directory; the
        // measured passes read the last one, from the page cache.
        for n in 0..if trace { 1 } else { FILLS } {
            remove_dir(&store)?;
            let (out, problems) = run_child(
                PassKind::Untraced,
                Workload::WriteStore,
                Some(&store),
                run_id(n),
            )?;
            runs.problems.extend(problems);
            runs.fills.push(out);
        }
    }
    if !trace {
        for n in 0..SETUPS {
            let dir = pass_dir(workload, &store, &mut runs.mkdirs)?;
            let (out, problems) = run_child(PassKind::Setup, workload, dir, run_id(FILLS + n))?;
            runs.problems.extend(problems);
            runs.setups.push(out);
            if workload == Workload::WriteStore {
                remove_dir(&store)?;
            }
        }
    }
    // Start another round only while it should end within the budget.
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut round = Duration::ZERO;
    let mut n = 0;
    while n == 0 || start.elapsed() + round <= budget {
        let round_start = Instant::now();
        let kinds: &[PassKind] = if trace {
            &[PassKind::Untraced, PassKind::Traced]
        } else {
            &[PassKind::Untraced]
        };
        for &kind in kinds {
            n += 1;
            let dir = pass_dir(workload, &store, &mut runs.mkdirs)?;
            let (out, problems) = run_child(kind, workload, dir, run_id(FILLS + SETUPS + n))?;
            runs.problems.extend(problems);
            match kind {
                PassKind::Untraced => {
                    runs.untraced.push(out);
                    runs.dir_mib.push(dir.map_or(0.0, dir_mib));
                }
                PassKind::Traced => runs.traced.push(out),
                PassKind::Setup => unreachable!("set-up passes run before the rounds"),
            }
            if workload == Workload::WriteStore {
                remove_dir(&store)?;
            }
        }
        round = round_start.elapsed();
    }
    drop(work);
    Ok(runs)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("invalid seed `{value}`"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("invalid seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Checks that in-process `section_text` bytes are what `figures
/// --scale bench` printed to `figures_stdout`, and writes their digests
/// to `out` (the file `EXPECTED` embeds).
fn record_expected(figures_stdout: &str, out: &str) -> Result<(), String> {
    let printed =
        std::fs::read(figures_stdout).map_err(|e| format!("reading {figures_stdout}: {e}"))?;
    let ctx = pass::context(None);
    let mut lines = vec![
        "# section bytes fnv1a64 of service::section_text at bench scale, as `figures --scale bench` prints it"
            .to_string(),
    ];
    let mut body = Vec::new();
    for section in probranch_serve::SECTIONS {
        let text = pass::run_section(section, &ctx)?;
        lines.push(format!(
            "{section} {} {:016x}",
            text.len(),
            pass::digest(text.as_bytes())
        ));
        body.extend_from_slice(text.as_bytes());
        body.push(b'\n');
    }
    // `figures` prints a one-line header and a blank line, then each
    // section followed by a newline.
    let header = printed
        .strip_suffix(body.as_slice())
        .ok_or("the sections' bytes are not the tail of the figures output")?;
    if header.iter().filter(|&&b| b == b'\n').count() != 2 || !header.ends_with(b"\n\n") {
        return Err("the figures output has more than its header before the sections".into());
    }
    std::fs::write(out, lines.join("\n") + "\n").map_err(|e| format!("writing {out}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("child") => {
            let [_, kind, workload, dir, run] = args.as_slice() else {
                panic!("child takes KIND WORKLOAD DIR RUN");
            };
            let workload = Workload::parse(workload).expect("child workload");
            let dir = (dir != "-").then_some(dir.as_str());
            match kind.as_str() {
                "untraced" => pass::untraced(workload, dir),
                "traced" => pass::traced(workload, dir, run.parse().expect("child run id")),
                "setup" => pass::setup(dir),
                _ => panic!("unknown pass kind `{kind}`"),
            }
        }
        Some("record-expected") => {
            let [_, figures_stdout, out] = args.as_slice() else {
                eprintln!("usage: figbench record-expected FIGURES_STDOUT OUT");
                std::process::exit(2);
            };
            if let Err(e) = record_expected(figures_stdout, out) {
                eprintln!("figbench: {e}");
                std::process::exit(1);
            }
        }
        _ => {
            let args = parse_args(&args).unwrap_or_else(|e| {
                eprintln!("figbench: {e}\nusage: figbench --workload cold|warm-store|write-store --seed N --seconds S --trace 0|1");
                std::process::exit(2);
            });
            match measure(args.workload, args.seed, args.seconds, args.trace) {
                Ok(runs) => {
                    for p in &runs.problems {
                        eprintln!("figbench: {p}");
                    }
                    println!("{}", report::json(&runs, args.trace));
                }
                Err(e) => {
                    eprintln!("figbench: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}
