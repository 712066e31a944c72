//! What one child process runs: an untraced pass through
//! `service::section_text`, or a traced pass that re-does each
//! section's work through the public layer calls under spans.
//!
//! A pass writes `ready` once its context exists (the parent process times
//! set-up up to that line), then one line per result:
//! `section NAME SECONDS BYTES DIGEST`, `count NAME VALUE`,
//! `wall SECONDS`, `rss MIB`; untraced passes also write `ref SECONDS`
//! before each section and after the last, traced passes `span ...`. A
//! set-up pass writes only `ready` and one `ref`.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use probranch_bench::experiments::{self, EmuKey, Engine, ExperimentScale};
use probranch_bench::service;
use probranch_core::PbsConfig;
use probranch_harness::{run_cells, workload_seed, Cell, EngineContext, Jobs};
use probranch_pipeline::{
    run_functional, DynTrace, EmuError, OooConfig, PredictorChoice, SimConfig, SimReport,
    Simulation,
};
use probranch_rng::SplitMix64;
use probranch_stats::randomness::run_battery;
use probranch_workloads::BenchmarkId;

use crate::spans::Tracer;
use crate::Workload;

/// Every workload runs at bench scale with one worker, as `figures
/// --scale bench --jobs 1` does. A second worker would time how many
/// cores a shared host lends the process at the moment, not the program.
const SCALE: ExperimentScale = ExperimentScale::Bench;
const JOBS: usize = 1;

/// Entries of the reference walk's table: 256 KiB of `u32`.
const REF_TABLE: usize = 1 << 16;
/// Steps of one reference walk.
const REF_STEPS: u32 = 1_000_000;
/// Walks per reference point; the point is their median, so one walk
/// that the host stalled does not skew a section's scale.
const REF_WALKS: usize = 3;

/// The instruction budget the sections give every run.
const MAX_INSTS: u64 = 2_000_000_000;

/// FNV-1a over a section's bytes: the digest the expected file holds.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn emit(line: &str) {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{line}").expect("writing to the parent process");
    out.flush().expect("writing to the parent process");
}

/// Times a fixed piece of host work that shares no code with the
/// program: the median of `REF_WALKS` reference walks. Its time follows
/// the share of a core the host gives this process right now, so the
/// parent scales the section times by it.
pub fn reference_secs() -> f64 {
    let mut walks: Vec<f64> = (0..REF_WALKS).map(|_| reference_walk()).collect();
    walks.sort_by(f64::total_cmp);
    walks[REF_WALKS / 2]
}

/// A data-dependent walk over a 256 KiB table with a SplitMix64 mix and
/// a data-dependent branch per step, the kind of work the predictor and
/// timing tables of a replay do.
fn reference_walk() -> f64 {
    let mut table = vec![1u32; REF_TABLE];
    let t = Instant::now();
    let (mut x, mut i, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0usize, 0u64);
    for _ in 0..REF_STEPS {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let v = table[i];
        if (z ^ u64::from(v)) & 3 == 0 {
            acc = acc.wrapping_add(u64::from(v));
        } else {
            acc ^= z;
        }
        table[i] = v.wrapping_add(z as u32);
        i = (i ^ z as usize ^ v as usize) & (REF_TABLE - 1);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// VmHWM of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One section's outcome: its bytes, or the message of the structured
/// error (or other panic) it raised.
pub fn run_section(section: &str, ctx: &experiments::Context) -> Result<String, String> {
    let jobs = Jobs::new(JOBS);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        service::section_text(section, SCALE, jobs, Engine::default(), ctx)
    }));
    match outcome {
        Ok(Some(text)) => Ok(text),
        Ok(None) => Err(format!("unknown section `{section}`")),
        Err(payload) => Err(
            if let Some(e) = payload.downcast_ref::<probranch_harness::SupervisedError>() {
                e.to_string()
            } else if let Some(v) = payload.downcast_ref::<probranch_harness::StrictViolation>() {
                v.to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else {
                "section panicked with a non-string payload".to_string()
            },
        ),
    }
}

/// The program's own run context over the pass's trace directory.
pub fn context(dir: Option<&str>) -> experiments::Context {
    match dir {
        Some(d) => experiments::Context::with_trace_dir(d),
        None => experiments::Context::new(),
    }
}

/// Times every section of `workload` through `section_text`, exactly as
/// `figures` calls it, and reports bytes digests and the program's
/// counters.
pub fn untraced(workload: Workload, dir: Option<&str>) {
    let ctx = context(dir);
    emit("ready");
    let mut wall = 0.0;
    for &section in workload.sections() {
        emit(&format!("ref {}", reference_secs()));
        let t = Instant::now();
        let outcome = run_section(section, &ctx);
        let secs = t.elapsed().as_secs_f64();
        wall += secs;
        match outcome {
            Ok(text) => emit(&format!(
                "section {section} {secs} {} {:016x}",
                text.len(),
                digest(text.as_bytes())
            )),
            Err(msg) => {
                eprintln!("figbench: section {section} failed: {msg}");
                emit(&format!("section {section} {secs} 0 error"));
            }
        }
    }
    emit(&format!("ref {}", reference_secs()));
    let traces = ctx.traces();
    for (name, value) in [
        ("store.captures", ctx.captures()),
        ("store.disk_loads", ctx.disk_loads()),
        ("store.hits", ctx.store_hits()),
        ("store.grid_hits", ctx.grid_hits()),
        ("store.peak_bytes", ctx.peak_bytes()),
        ("supervise.retried", ctx.retried_cells()),
        ("supervise.degraded", ctx.degraded_cells()),
        ("supervise.over_deadline", ctx.over_deadline_cells()),
        ("store.stale_rejected", traces.stale_rejected()),
        ("store.quarantined", traces.quarantined()),
        ("store.io_retries", traces.io_retries()),
        ("store.write_failures", traces.write_failures()),
    ] {
        emit(&format!("count {name} {value}"));
    }
    emit(&format!("wall {wall}"));
    emit(&format!("rss {}", peak_rss_mib()));
}

/// Only the set-up of an untraced pass: its context, then one reference
/// point to scale the set-up time by.
pub fn setup(dir: Option<&str>) {
    let _ctx = context(dir);
    emit("ready");
    emit(&format!("ref {}", reference_secs()));
}

/// Re-does each section's work through the public layer calls, with the
/// sections' keys, configurations and job count, one span per call.
pub fn traced(workload: Workload, dir: Option<&str>, run: u64) {
    let store: EngineContext<EmuKey> = match dir {
        Some(d) => EngineContext::with_trace_dir(d),
        None => EngineContext::new(),
    };
    let redo = Redo {
        store: &store,
        tracer: Tracer::new(run),
    };
    emit("ready");
    let mut wall = 0.0;
    for &section in workload.sections() {
        let t = Instant::now();
        redo.tracer.span("section", section, 0, None, |id| {
            redo.section(section, id);
            ((), 0)
        });
        wall += t.elapsed().as_secs_f64();
    }
    emit(&format!("count redo.captures {}", store.captures()));
    emit(&format!("count redo.disk_loads {}", store.disk_loads()));
    emit(&format!("wall {wall}"));
    emit(&format!("rss {}", peak_rss_mib()));
    for span in redo.tracer.into_spans() {
        emit(&span.line());
    }
}

/// The cell's simulation configuration, as the timing sections build it.
fn cell_config(cell: &Cell, core: OooConfig) -> SimConfig {
    SimConfig {
        core,
        predictor: cell.predictor,
        pbs: cell.pbs.then(PbsConfig::default),
        max_insts: MAX_INSTS,
        ..SimConfig::default()
    }
}

/// The content hash the sections file a cell's trace under, so a traced
/// pass loads the very files an untraced pass wrote.
fn content_hash(cell: &Cell, cfg: &SimConfig) -> u64 {
    SplitMix64::mix_fold(&[
        cell.workload as u64,
        SCALE as u64,
        cell.workload_seed(),
        cfg.emu_key_fingerprint(),
    ])
}

/// Both predictors of Figures 1, 6, 7 and 8, each without and with PBS.
const FOUR_CONFIGS: [(PredictorChoice, bool); 4] = [
    (PredictorChoice::Tournament, false),
    (PredictorChoice::Tournament, true),
    (PredictorChoice::TageScL, false),
    (PredictorChoice::TageScL, true),
];

/// The uniform-controlled benchmarks of Table III.
const TABLE3_IDS: [BenchmarkId; 6] = [
    BenchmarkId::Swaptions,
    BenchmarkId::Genetic,
    BenchmarkId::Photon,
    BenchmarkId::McInteg,
    BenchmarkId::Pi,
    BenchmarkId::Bandit,
];

/// Genetic success-rate trials of the accuracy section at bench scale.
const GENETIC_TRIALS: u64 = 24;

struct Redo<'a> {
    store: &'a EngineContext<EmuKey>,
    tracer: Tracer,
}

impl Redo<'_> {
    fn section(&self, section: &str, id: u64) {
        let parent = Some(id);
        match section {
            "fig1" => self.timing_grid(
                &[
                    (PredictorChoice::Tournament, false),
                    (PredictorChoice::TageScL, false),
                ],
                OooConfig::default(),
                parent,
            ),
            "fig6" => self.timing_grid(&FOUR_CONFIGS, OooConfig::default(), parent),
            "fig8" => self.timing_grid(&FOUR_CONFIGS, OooConfig::wide(), parent),
            "fig9" => self.fig9(parent),
            "table2" => self.table2(parent),
            "table3" => self.table3(parent),
            "accuracy" => self.accuracy(parent),
            // fig7 re-renders fig6's memoized grid; table1 is static
            // analysis and cost is arithmetic: no layer call to re-do.
            _ => {}
        }
    }

    fn capture(&self, cell: &Cell, cfg: &SimConfig, parent: u64) -> Result<DynTrace, EmuError> {
        self.tracer.span("capture", "-", 0, Some(parent), |_| {
            let bench = cell.workload.build(SCALE.workload(), cell.workload_seed());
            let trace = DynTrace::capture(&bench.program(), cfg);
            let insts = trace.as_ref().map_or(0, DynTrace::instructions);
            (trace, insts)
        })
    }

    /// A pooled trace: pool hit, disk load, or capture (and persist).
    fn pooled(&self, cell: &Cell, cfg: &SimConfig, parent: Option<u64>) -> Arc<DynTrace> {
        let hash = content_hash(cell, cfg);
        let key = (cell.workload, cell.seed, cell.pbs, SCALE);
        self.tracer.span("store", "-", hash, parent, |id| {
            let trace = self
                .store
                .get_or_capture(key, hash, cfg, || self.capture(cell, cfg, id))
                .unwrap_or_else(|e| panic!("{:?}: {e}", cell.workload));
            (trace, 0)
        })
    }

    fn replay(&self, trace: &DynTrace, cfg: &SimConfig, parent: Option<u64>) -> SimReport {
        self.tracer.span("replay", "-", 0, parent, |_| {
            let report = Simulation::default().replay(trace, cfg).expect("replay");
            let insts = report.timing.instructions;
            (report, insts)
        })
    }

    /// A benchmark x `configs` sweep of Figures 1, 6 and 8: per cell the
    /// store call (with its capture), then the replay.
    fn timing_grid(
        &self,
        configs: &[(PredictorChoice, bool)],
        core: OooConfig,
        parent: Option<u64>,
    ) {
        let cells: Vec<Cell> = BenchmarkId::ALL
            .iter()
            .flat_map(|&w| configs.iter().map(move |&(p, pbs)| Cell::new(w, p, pbs, 0)))
            .collect();
        run_cells(&cells, Jobs::new(JOBS), |cell| {
            let cfg = cell_config(cell, core.clone());
            let trace = self.pooled(cell, &cfg, parent);
            std::hint::black_box(self.replay(&trace, &cfg, parent));
        });
    }

    /// Figure 9's unfiltered/filtered pairs: a pooled trace when the
    /// store holds the key, a load-or-capture outside the pool when it
    /// has a directory, and otherwise the streamed convoy, which no
    /// public call reaches and which stays unattributed.
    fn fig9(&self, parent: Option<u64>) {
        let cells: Vec<Cell> = BenchmarkId::ALL
            .iter()
            .flat_map(|&w| {
                (0..SCALE.seeds()).map(move |s| Cell::new(w, PredictorChoice::Tournament, false, s))
            })
            .collect();
        run_cells(&cells, Jobs::new(JOBS), |cell| {
            let cfg = SimConfig {
                predictor: cell.predictor,
                max_insts: MAX_INSTS,
                ..SimConfig::default()
            };
            let filtered = SimConfig {
                filter_prob_from_predictor: true,
                ..cfg.clone()
            };
            let key = (cell.workload, cell.seed, cell.pbs, SCALE);
            let trace = match self.store.peek(&key) {
                Some(trace) => trace,
                None if self.store.persistent() => {
                    let hash = content_hash(cell, &cfg);
                    Arc::new(self.tracer.span("store", "-", hash, parent, |id| {
                        let trace = self
                            .store
                            .load_or_capture_unpooled(hash, &cfg, || self.capture(cell, &cfg, id))
                            .unwrap_or_else(|e| panic!("{:?}: {e}", cell.workload));
                        (trace, 0)
                    }))
                }
                None => return,
            };
            let pair = [cfg, filtered];
            std::hint::black_box(self.tracer.span("pair", "-", 0, parent, |_| {
                let reports = Simulation::default()
                    .replay_many(&trace, &pair)
                    .expect("replay");
                let insts = reports.iter().map(|r| r.timing.instructions).sum();
                (reports, insts)
            }));
        });
    }

    fn functional(&self, id: BenchmarkId, seed: u64, pbs: Option<PbsConfig>, parent: Option<u64>) {
        let bench = id.build(SCALE.workload(), workload_seed(id, seed));
        let program = bench.program();
        std::hint::black_box(self.tracer.span("functional", "-", 0, parent, |_| {
            let report = run_functional(&program, pbs, MAX_INSTS).expect("functional run");
            let insts = report.timing.instructions;
            (report, insts)
        }));
    }

    fn table2(&self, parent: Option<u64>) {
        run_cells(&BenchmarkId::ALL, Jobs::new(JOBS), |&id| {
            self.functional(id, 0, None, parent)
        });
    }

    /// Table III: per (benchmark, seed) the two value streams, then the
    /// battery over each.
    fn table3(&self, parent: Option<u64>) {
        let cells: Vec<Cell> = TABLE3_IDS
            .iter()
            .flat_map(|&w| {
                (0..SCALE.seeds()).map(move |s| Cell::new(w, PredictorChoice::Tournament, true, s))
            })
            .collect();
        run_cells(&cells, Jobs::new(JOBS), |cell| {
            let (orig, pbs) = self.tracer.span("streams", "-", 0, parent, |_| {
                let pair = experiments::uniform_stream_pair(
                    cell.workload,
                    SCALE.workload(),
                    cell.workload_seed(),
                )
                .expect("uniform benchmark");
                let values = (pair.0.len() + pair.1.len()) as u64;
                (pair, values)
            });
            for stream in [&orig, &pbs] {
                std::hint::black_box(self.tracer.span("battery", "-", 0, parent, |_| {
                    (run_battery(stream), stream.len() as u64)
                }));
            }
        });
    }

    /// Section VII-D: a base and a PBS functional run per cell.
    fn accuracy(&self, parent: Option<u64>) {
        let mut cells: Vec<(BenchmarkId, u64)> = [
            BenchmarkId::Dop,
            BenchmarkId::Greeks,
            BenchmarkId::Swaptions,
            BenchmarkId::McInteg,
            BenchmarkId::Pi,
        ]
        .map(|id| (id, 0))
        .to_vec();
        cells.extend((0..GENETIC_TRIALS).map(|s| (BenchmarkId::Genetic, s)));
        cells.push((BenchmarkId::Photon, 0));
        cells.push((BenchmarkId::Bandit, 0));
        run_cells(&cells, Jobs::new(JOBS), |&(id, seed)| {
            self.functional(id, seed, None, parent);
            self.functional(id, seed, Some(PbsConfig::default()), parent);
        });
    }
}
