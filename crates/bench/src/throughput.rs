//! The `sim-throughput` benchmark: simulator speed (MIPS — millions of
//! simulated instructions per wall-clock second) per
//! workload × predictor × PBS cell, for the reference engine, the
//! shared-trace **replay** engine and the **streamed pair** run (the
//! `convoy_*` fields).
//!
//! This is the perf trajectory of the project: `figures
//! --emit-bench-json BENCH_throughput.json` serializes a report whose
//! committed copy at the repo root is the baseline CI's
//! `check_throughput` gate compares fresh measurements against.
//!
//! Per cell the report carries four engine measurements:
//!
//! * `reference` — one full simulation through the reference oracle;
//! * `replay` — the cell re-timed from a **materialized** trace
//!   (`Simulation` under `EngineKind::Replay`), the way the figure
//!   sweeps consume pooled traces; the one capture per emulation key is
//!   timed separately (`captures` in the JSON) and *included* in the
//!   aggregate replay MIPS, which therefore stays honest end-to-end
//!   throughput;
//! * `batched` — a second, cache-warm replay of the same cell: the
//!   batched-prediction chunk drain in isolation, without the first
//!   replay's cold-trace effects. This is the per-cell batched-TAGE
//!   MIPS figure the throughput gate tracks across PRs;
//! * `convoy` — the cell's equal share of its key's **streamed pair
//!   run** (`Simulation::run_many` under the default replay engine: one
//!   capture streamed chunk by chunk through both predictors' consumers,
//!   capture time included), the bounded-memory execution shape. The
//!   pair drain advances both consumers per record, so per-consumer
//!   time is not separable — the share is the key's wall time over 2.
//!
//! The report also carries the **sweep** section: the fig6 + fig7
//! grids run back to back through one shared
//! [`EngineContext`](probranch_harness::EngineContext) trace pool —
//! the paper's actual figures workload — with the pool's global
//! capture count, which must equal the number of distinct emulation
//! keys (each key emulated exactly once for the whole run).
//!
//! Measurements are wall-clock and therefore machine-dependent; the
//! *results* of every timed run are still checked for engine agreement
//! (each cell asserts the reference, replay and streamed reports are
//! identical), so a throughput run doubles as an equivalence sweep.

use std::time::{Duration, Instant};

use probranch_harness::{run_cells_timed, workload_seed, Cell, Jobs};
use probranch_pipeline::{
    DynTrace, PredictorChoice, SimConfig, SimReport, Simulation, TraceStream,
};
use probranch_workloads::BenchmarkId;

use crate::experiments::{self, Engine, ExperimentScale};

/// Schema tag written into the JSON (bump on layout changes so the CI
/// gate skips rather than misparses). `/9` drops the fused-engine cell
/// fields and the fused-relative aggregates of `/8`; `check_throughput`
/// accepts either as a baseline and gates the fields both reports
/// carry: the per-cell `replay`/`batched`/`convoy` MIPS and the per-key
/// capture cells (`capture_mips`, tagged with the capture tier that
/// ran).
pub const SCHEMA: &str = "probranch-throughput/9";

/// One measured grid point.
#[derive(Debug, Clone)]
pub struct ThroughputCell {
    /// Benchmark name.
    pub workload: &'static str,
    /// Predictor name.
    pub predictor: &'static str,
    /// Whether PBS was enabled.
    pub pbs: bool,
    /// Simulated (committed) instructions.
    pub instructions: u64,
    /// Wall time of the reference engine.
    pub reference: Duration,
    /// Wall time of this cell's replay over the key's materialized
    /// trace (capture excluded — that is accounted once per key in
    /// [`ThroughputReport::captures`]).
    pub replay: Duration,
    /// Wall time of a second, cache-warm replay of the same cell: the
    /// batched-prediction chunk drain in isolation.
    pub batched: Duration,
    /// This cell's equal share of its key's streamed pair run (capture
    /// *included*; the pair drain has no per-consumer split).
    pub convoy: Duration,
    /// Heap bytes of the key's materialized trace backing this cell's
    /// replay.
    pub trace_peak_bytes: usize,
    /// Chunks in the key's materialized trace.
    pub trace_chunks: usize,
}

impl ThroughputCell {
    /// Millions of simulated instructions per second, reference engine.
    pub fn reference_mips(&self) -> f64 {
        mips(self.instructions, self.reference)
    }

    /// Millions of simulated instructions per second re-timing the
    /// materialized trace (capture excluded).
    pub fn replay_mips(&self) -> f64 {
        mips(self.instructions, self.replay)
    }

    /// Millions of simulated instructions per second of the cache-warm
    /// second replay — the batched chunk drain in isolation.
    pub fn batched_mips(&self) -> f64 {
        mips(self.instructions, self.batched)
    }

    /// Millions of simulated instructions per second through this
    /// cell's share of the streamed pair run (capture included).
    pub fn convoy_mips(&self) -> f64 {
        mips(self.instructions, self.convoy)
    }

    /// Stable identity for baseline comparison.
    pub fn key(&self) -> String {
        format!("{}|{}|{}", self.workload, self.predictor, self.pbs)
    }
}

/// One emulation key's capture overhead in the replay sweep.
#[derive(Debug, Clone)]
pub struct CaptureCell {
    /// Benchmark name.
    pub workload: &'static str,
    /// Whether PBS was enabled.
    pub pbs: bool,
    /// Dynamic instructions emulated (shared by every cell of the key).
    pub instructions: u64,
    /// Wall time of the trace capture (emulation, cache pre-simulation
    /// and SoA packing).
    pub capture: Duration,
    /// How the key's capture executed: `"block"` (block-compiled) or
    /// `"interp"` (the decoded interpreter), as the capture's
    /// [`TraceStream::is_block_compiled`] reported.
    pub capture_tier: &'static str,
}

impl CaptureCell {
    /// Millions of emulated instructions per second of capture.
    pub fn capture_mips(&self) -> f64 {
        mips(self.instructions, self.capture)
    }
}

/// The shared-pool figures measurement: fig6 + fig7 run back to back
/// through one [`EngineContext`](probranch_harness::EngineContext).
#[derive(Debug, Clone)]
pub struct SweepStats {
    /// Timing cells retired across the two sweeps.
    pub cells: usize,
    /// Distinct emulation keys the pool ended up holding.
    pub keys: usize,
    /// Emulations actually performed — **exactly once per key** is the
    /// invariant this field verifies globally.
    pub captures: usize,
    /// Traces served from a trace directory (0 without `--trace-dir`).
    pub disk_loads: usize,
    /// Report grids served from the run-wide grid memo instead of
    /// re-timed — fig7 re-serves fig6's grid (identical cells, same
    /// core), so this is 1 for the sweep.
    pub grid_hits: usize,
    /// Simulated instructions' worth of figure cells *served* across
    /// both sweeps (a memo-served grid counts its cells' instructions:
    /// the sweep delivers the same figures the unpooled engine computed
    /// twice).
    pub instructions: u64,
    /// End-to-end wall time of both sweeps.
    pub wall: Duration,
    /// Peak bytes held by the trace pool.
    pub trace_bytes: usize,
    /// Pool hits — cells served from an already-resident trace.
    pub store_hits: usize,
    /// Traces demoted from owned heap to their mmap-backed persisted
    /// form under a memory budget (0 without `--trace-mem-budget` +
    /// `--trace-dir`).
    pub demotions: usize,
    /// Traces evicted outright under a memory budget (0 when
    /// unbounded).
    pub evictions: usize,
    /// Peak owned heap bytes the bounded pool ever held at once.
    pub peak_bytes: usize,
    /// Persisted traces rejected as stale (valid file, old version or
    /// foreign content hash) and silently re-captured — 0 in a healthy
    /// sweep.
    pub stale_rejected: usize,
    /// Corrupt persisted traces quarantined (renamed aside, never
    /// re-read) — 0 in a healthy sweep.
    pub quarantined: usize,
    /// Sweep-service requests admitted (0 in bench mode — the bench
    /// sweep runs in-process; `figures --serve` fills these four from
    /// its [`probranch_serve::StatsSnapshot`] at drain).
    pub service_requests: u64,
    /// Service requests that shared an in-flight leader's computation.
    pub service_coalesced: u64,
    /// Service requests load-shed with an `overloaded` response.
    pub service_shed: u64,
    /// Service requests cooperatively cancelled (deadline or injected
    /// spurious cancel).
    pub service_cancelled: u64,
}

impl SweepStats {
    /// Aggregate MIPS of the shared-pool fig6+fig7 run (all captures
    /// and replays included).
    pub fn mips(&self) -> f64 {
        mips(self.instructions, self.wall)
    }
}

fn mips(instructions: u64, wall: Duration) -> f64 {
    let s = wall.as_secs_f64();
    if s <= 0.0 {
        0.0
    } else {
        instructions as f64 / s / 1e6
    }
}

/// A full throughput sweep over the Figure 6 grid.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// The experiment scale the sweep ran at.
    pub scale: ExperimentScale,
    /// Per-cell measurements, in grid order.
    pub cells: Vec<ThroughputCell>,
    /// Per-key capture overhead of the replay sweep, in key order.
    pub captures: Vec<CaptureCell>,
    /// The shared-pool fig6+fig7 sweep measurement.
    pub sweep: SweepStats,
}

impl ThroughputReport {
    /// Total simulated instructions across cells (every measured run
    /// simulates the identical stream by the per-cell equivalence
    /// assertion).
    pub fn total_instructions(&self) -> u64 {
        self.cells.iter().map(|c| c.instructions).sum()
    }

    /// Aggregate reference MIPS (total instructions over total wall
    /// time).
    pub fn reference_mips(&self) -> f64 {
        mips(
            self.total_instructions(),
            self.cells.iter().map(|c| c.reference).sum(),
        )
    }

    /// Total capture wall time across keys.
    pub fn capture_seconds(&self) -> Duration {
        self.captures.iter().map(|c| c.capture).sum()
    }

    /// Aggregate replay MIPS: total simulated instructions over the
    /// *end-to-end* replay-sweep wall time — every key's capture plus
    /// every cell's replay.
    pub fn replay_mips(&self) -> f64 {
        mips(
            self.total_instructions(),
            self.capture_seconds() + self.cells.iter().map(|c| c.replay).sum::<Duration>(),
        )
    }

    /// Aggregate batched-drain MIPS: total simulated instructions over
    /// the warm second-replay wall time only (no capture — the trace is
    /// already materialized and hot, which is exactly the steady-state
    /// sweep regime the batched predictor path accelerates).
    pub fn batched_mips(&self) -> f64 {
        mips(
            self.total_instructions(),
            self.cells.iter().map(|c| c.batched).sum(),
        )
    }

    /// Aggregate streamed-pair MIPS (capture shares included — those
    /// cell times already carry their key's capture).
    pub fn convoy_mips(&self) -> f64 {
        mips(
            self.total_instructions(),
            self.cells.iter().map(|c| c.convoy).sum(),
        )
    }

    /// Serializes the report as JSON, one cell object per line (the
    /// line-oriented layout `check_throughput` parses without a JSON
    /// dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("  \"scale\": \"{}\",\n", self.scale.name()));
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"workload\":\"{}\",\"predictor\":\"{}\",\"pbs\":{},\"instructions\":{},\"reference_seconds\":{:.6},\"reference_mips\":{:.3},\"replay_seconds\":{:.6},\"replay_mips\":{:.3},\"batched_seconds\":{:.6},\"batched_mips\":{:.3},\"convoy_seconds\":{:.6},\"convoy_mips\":{:.3},\"trace_peak_bytes\":{},\"trace_chunks\":{}}}{comma}\n",
                c.workload,
                c.predictor,
                c.pbs,
                c.instructions,
                c.reference.as_secs_f64(),
                c.reference_mips(),
                c.replay.as_secs_f64(),
                c.replay_mips(),
                c.batched.as_secs_f64(),
                c.batched_mips(),
                c.convoy.as_secs_f64(),
                c.convoy_mips(),
                c.trace_peak_bytes,
                c.trace_chunks,
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"captures\": [\n");
        for (i, c) in self.captures.iter().enumerate() {
            let comma = if i + 1 < self.captures.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"workload\":\"{}\",\"pbs\":{},\"instructions\":{},\"capture_seconds\":{:.6},\"capture_mips\":{:.3},\"capture_tier\":\"{}\"}}{comma}\n",
                c.workload,
                c.pbs,
                c.instructions,
                c.capture.as_secs_f64(),
                c.capture_mips(),
                c.capture_tier,
            ));
        }
        out.push_str("  ],\n");
        let s = &self.sweep;
        out.push_str(&format!(
            "  \"sweep\": {{\"grids\":\"fig6+fig7\",\"cells\":{},\"keys\":{},\"captures\":{},\"disk_loads\":{},\"grid_hits\":{},\"instructions\":{},\"seconds\":{:.6},\"mips\":{:.3},\"trace_bytes\":{},\"store_hits\":{},\"demotions\":{},\"evictions\":{},\"peak_bytes\":{},\"stale_rejected\":{},\"quarantined\":{},\"service_requests\":{},\"service_coalesced\":{},\"service_shed\":{},\"service_cancelled\":{}}},\n",
            s.cells,
            s.keys,
            s.captures,
            s.disk_loads,
            s.grid_hits,
            s.instructions,
            s.wall.as_secs_f64(),
            s.mips(),
            s.trace_bytes,
            s.store_hits,
            s.demotions,
            s.evictions,
            s.peak_bytes,
            s.stale_rejected,
            s.quarantined,
            s.service_requests,
            s.service_coalesced,
            s.service_shed,
            s.service_cancelled,
        ));
        out.push_str(&format!(
            "  \"aggregate\": {{\"instructions\":{},\"reference_mips\":{:.3},\"capture_seconds\":{:.6},\"replay_mips\":{:.3},\"batched_mips\":{:.3},\"convoy_mips\":{:.3}}}\n",
            self.total_instructions(),
            self.reference_mips(),
            self.capture_seconds().as_secs_f64(),
            self.replay_mips(),
            self.batched_mips(),
            self.convoy_mips(),
        ));
        out.push_str("}\n");
        out
    }

    /// A human-readable per-cell summary (for stderr).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "sim-throughput ({} scale, fig6 grid): {} cells, {} simulated instructions\n",
            self.scale.name(),
            self.cells.len(),
            self.total_instructions()
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "  {:<10} {:<15} pbs={:<5} {:>10} insts  reference {:>8.2}  replay {:>8.2}  batched {:>8.2}  convoy {:>8.2} MIPS  ({} chunks, trace {} KiB)\n",
                c.workload,
                c.predictor,
                c.pbs,
                c.instructions,
                c.reference_mips(),
                c.replay_mips(),
                c.batched_mips(),
                c.convoy_mips(),
                c.trace_chunks,
                c.trace_peak_bytes / 1024,
            ));
        }
        out.push_str(&format!(
            "aggregate: reference {:.2} MIPS; replay {:.2} MIPS incl. {:.3}s capture; batched drain {:.2} MIPS; convoy {:.2} MIPS\n",
            self.reference_mips(),
            self.replay_mips(),
            self.capture_seconds().as_secs_f64(),
            self.batched_mips(),
            self.convoy_mips(),
        ));
        let mut tiers: Vec<(&str, usize)> = Vec::new();
        for c in &self.captures {
            match tiers.iter_mut().find(|(t, _)| *t == c.capture_tier) {
                Some((_, n)) => *n += 1,
                None => tiers.push((c.capture_tier, 1)),
            }
        }
        let cap_insts: u64 = self.captures.iter().map(|c| c.instructions).sum();
        out.push_str(&format!(
            "capture: {} keys at {:.2} MIPS aggregate [{}]\n",
            self.captures.len(),
            mips(cap_insts, self.capture_seconds()),
            tiers
                .iter()
                .map(|(t, n)| format!("{t}\u{d7}{n}"))
                .collect::<Vec<_>>()
                .join(", "),
        ));
        let s = &self.sweep;
        out.push_str(&format!(
            "sweep (fig6+fig7, shared pool): {} cells over {} keys, {} captures + {} disk loads + {} grid hits, {:.3}s = {:.2} MIPS, pool {} KiB\n",
            s.cells,
            s.keys,
            s.captures,
            s.disk_loads,
            s.grid_hits,
            s.wall.as_secs_f64(),
            s.mips(),
            s.trace_bytes / 1024,
        ));
        out.push_str(&format!(
            "store (shared pool): {} hits, {} demotions, {} evictions, peak {} KiB, {} stale rejected, {} quarantined\n",
            s.store_hits,
            s.demotions,
            s.evictions,
            s.peak_bytes / 1024,
            s.stale_rejected,
            s.quarantined,
        ));
        out
    }
}

/// The two predictors of every fig6 key, in grid order.
const PREDICTORS: [PredictorChoice; 2] = [PredictorChoice::Tournament, PredictorChoice::TageScL];

/// The Figure 6 measurement grid: every benchmark under each
/// [`PREDICTORS`] entry, without and with PBS — derived from the same
/// predictor list the streamed pair run consumes, so the two orderings
/// cannot drift.
pub fn grid() -> Vec<Cell> {
    BenchmarkId::ALL
        .iter()
        .flat_map(|&w| {
            PREDICTORS
                .iter()
                .flat_map(move |&p| [false, true].map(move |pbs| Cell::new(w, p, pbs, 0)))
        })
        .collect()
}

/// The emulation keys of the fig6 grid, in grid order: every benchmark
/// without and with PBS.
fn keys() -> Vec<(BenchmarkId, bool)> {
    BenchmarkId::ALL
        .iter()
        .flat_map(|&w| [(w, false), (w, true)])
        .collect()
}

/// One key's timed replay + streamed measurements: one timed capture
/// into a materialized trace, one timed replay plus one timed
/// cache-warm second replay per predictor over it, and one timed
/// streamed pair run of both predictors.
struct KeyMeasurement {
    name: &'static str,
    capture: Duration,
    capture_tier: &'static str,
    convoy: Duration,
    instructions: u64,
    trace_bytes: usize,
    chunks: usize,
    /// Per predictor (in [`PREDICTORS`] order): the replay report, its
    /// replay wall time, and the warm second replay's wall time.
    cells: Vec<(SimReport, Duration, Duration)>,
    /// The streamed run's reports, in the same order.
    convoy_reports: Vec<SimReport>,
}

fn run_key(workload: BenchmarkId, pbs: bool, scale: ExperimentScale) -> KeyMeasurement {
    let bench = workload.build(scale.workload(), workload_seed(workload, 0));
    let program = bench.program();
    let configs: Vec<SimConfig> = PREDICTORS
        .iter()
        .map(|&p| {
            let mut cfg = SimConfig::default().predictor(p);
            if pbs {
                cfg.pbs = Some(probranch_core::PbsConfig::default());
            }
            cfg
        })
        .collect();
    // Materialized-trace path: capture once, re-time per predictor.
    let t0 = Instant::now();
    let stream = TraceStream::new(&program, &configs[0]);
    let capture_tier = if stream.is_block_compiled() {
        "block"
    } else {
        "interp"
    };
    let trace = DynTrace::capture_stream(stream, &configs[0])
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
    let capture = t0.elapsed();
    let replay = Simulation::new(Engine::Replay);
    let cells: Vec<(SimReport, Duration, Duration)> = configs
        .iter()
        .map(|cfg| {
            let t1 = Instant::now();
            let report = replay
                .replay(&trace, cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
            let replay_dur = t1.elapsed();
            // A second, cache-warm replay isolates the batched chunk
            // drain (the steady-state sweep regime).
            let t2 = Instant::now();
            let warm = replay
                .replay(&trace, cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
            let batched_dur = t2.elapsed();
            assert_eq!(
                report,
                warm,
                "{}: replay is not deterministic",
                bench.name()
            );
            (report, replay_dur, batched_dur)
        })
        .collect();
    // One capture streamed through both cells.
    let t3 = Instant::now();
    let convoy_reports = Simulation::default()
        .run_many(&program, &configs)
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
    let convoy = t3.elapsed();
    KeyMeasurement {
        name: bench.name(),
        capture,
        capture_tier,
        convoy,
        instructions: trace.instructions(),
        trace_bytes: trace.bytes(),
        chunks: trace.chunk_count(),
        cells,
        convoy_reports,
    }
}

/// Runs the fig6 + fig7 sweeps back to back through one shared trace
/// pool and reports the pool's global accounting — the figures run's
/// actual execution shape.
fn run_sweep(scale: ExperimentScale, per_cell_instructions: u64) -> SweepStats {
    let ctx = experiments::Context::new();
    let jobs = Jobs::serial();
    let t0 = Instant::now();
    let f6 = experiments::fig6_with_ctx(scale, jobs, Engine::Replay, &ctx);
    let f7 = experiments::fig7_with_ctx(scale, jobs, Engine::Replay, &ctx);
    let wall = t0.elapsed();
    // fig6 and fig7 each serve the full 4-config grid per benchmark.
    let cells = (f6.len() + f7.len()) * 4;
    SweepStats {
        cells,
        keys: ctx.keys(),
        captures: ctx.captures(),
        disk_loads: ctx.disk_loads(),
        grid_hits: ctx.grid_hits(),
        // Both sweeps serve the same grid the per-cell phase measured.
        instructions: 2 * per_cell_instructions,
        wall,
        trace_bytes: ctx.bytes(),
        store_hits: ctx.store_hits(),
        demotions: ctx.demotions(),
        evictions: ctx.evictions(),
        peak_bytes: ctx.peak_bytes(),
        stale_rejected: ctx.traces().stale_rejected(),
        quarantined: ctx.traces().quarantined(),
        service_requests: 0,
        service_coalesced: 0,
        service_shed: 0,
        service_cancelled: 0,
    }
}

/// Measures the fig6 grid at `scale`: per cell, wall time of one
/// reference full-timing simulation, a per-key timed capture with
/// per-cell timed replays, and a per-key streamed pair run — asserting
/// that all three return identical reports — plus the shared-pool
/// fig6+fig7 sweep.
///
/// Reference cells run through [`run_cells_timed`]; pass
/// [`Jobs::serial`] (the `figures --emit-bench-json` default) for
/// uncontended numbers. The replay/streamed measurements and the sweep
/// run serially regardless.
///
/// # Panics
///
/// Panics if a workload faults, or if any two engines disagree — a
/// correctness bug this benchmark refuses to time.
pub fn measure(scale: ExperimentScale, jobs: Jobs) -> ThroughputReport {
    let cells = grid();
    let reference = run_cells_timed(&cells, jobs, |cell| run_reference(cell, scale));
    // Replay + streamed pass: one measurement per emulation key.
    let mut captures = Vec::new();
    let mut replay_cells = Vec::new();
    for (workload, pbs) in keys() {
        let m = run_key(workload, pbs, scale);
        captures.push(CaptureCell {
            workload: m.name,
            pbs,
            instructions: m.instructions,
            capture: m.capture,
            capture_tier: m.capture_tier,
        });
        let share = m.convoy / m.cells.len() as u32;
        for (i, ((report, duration, batched), convoy_report)) in
            m.cells.into_iter().zip(m.convoy_reports).enumerate()
        {
            assert_eq!(
                report, convoy_report,
                "replay and streamed runs disagree on {workload:?} pbs={pbs} {:?}",
                PREDICTORS[i]
            );
            replay_cells.push((
                Cell::new(workload, PREDICTORS[i], pbs, 0),
                report,
                duration,
                batched,
                share,
                m.trace_bytes,
                m.chunks,
            ));
        }
    }
    // Merge: reference cells are in grid order; replay cells are in
    // key-major order. Match by cell identity.
    let cell_rows: Vec<ThroughputCell> = cells
        .iter()
        .zip(reference)
        .map(|(cell, ((name, rr), rt))| {
            let (_, replay_report, replay_dur, batched_dur, convoy_share, trace_bytes, chunks) =
                replay_cells
                    .iter()
                    .find(|(c, ..)| c == cell)
                    .unwrap_or_else(|| panic!("replay sweep missing cell {cell:?}"));
            assert_eq!(
                &rr, replay_report,
                "reference and replay engines disagree on {cell:?}"
            );
            ThroughputCell {
                workload: name,
                predictor: cell.predictor.name(),
                pbs: cell.pbs,
                instructions: rr.timing.instructions,
                reference: rt,
                replay: *replay_dur,
                batched: *batched_dur,
                convoy: *convoy_share,
                trace_peak_bytes: *trace_bytes,
                trace_chunks: *chunks,
            }
        })
        .collect();
    let per_cell_instructions = cell_rows.iter().map(|c| c.instructions).sum();
    let sweep = run_sweep(scale, per_cell_instructions);
    assert_eq!(
        sweep.captures + sweep.disk_loads,
        sweep.keys,
        "shared pool must emulate (or load) each key exactly once"
    );
    ThroughputReport {
        scale,
        cells: cell_rows,
        captures,
        sweep,
    }
}

fn run_reference(cell: &Cell, scale: ExperimentScale) -> (&'static str, SimReport) {
    let bench = cell
        .workload
        .build(scale.workload(), workload_seed(cell.workload, cell.seed));
    let mut cfg = SimConfig {
        predictor: cell.predictor,
        ..SimConfig::default()
    };
    if cell.pbs {
        cfg.pbs = Some(probranch_core::PbsConfig::default());
    }
    let report = Simulation::new(Engine::Reference)
        .run(&bench.program(), &cfg)
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
    (bench.name(), report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_fig6() {
        let g = grid();
        assert_eq!(g.len(), BenchmarkId::ALL.len() * 4);
        assert_eq!(keys().len(), BenchmarkId::ALL.len() * 2);
    }

    #[test]
    fn measure_produces_consistent_json_at_smoke_scale() {
        // Restrict to a sub-grid-sized smoke run: the full measure() is
        // exercised by the figures binary and CI; here one pass checks
        // shape, equivalence assertions, and JSON layout.
        let report = measure(ExperimentScale::Smoke, Jobs::serial());
        assert_eq!(report.cells.len(), 32);
        assert_eq!(report.captures.len(), 16);
        assert!(report.total_instructions() > 0);
        assert!(report.capture_seconds() > Duration::ZERO);
        // The shared pool's headline invariant: one emulation per key.
        assert_eq!(report.sweep.keys, 16);
        assert_eq!(report.sweep.captures, 16);
        assert_eq!(report.sweep.disk_loads, 0);
        assert_eq!(report.sweep.grid_hits, 1, "fig7 must re-serve fig6's grid");
        assert_eq!(report.sweep.cells, 64);
        assert_eq!(report.sweep.instructions, 2 * report.total_instructions());
        // Unbounded pool: nothing is demoted or evicted, but the peak
        // accounting still registers the resident traces.
        assert_eq!(report.sweep.demotions, 0);
        assert_eq!(report.sweep.evictions, 0);
        assert!(report.sweep.peak_bytes > 0);
        // A healthy sweep heals nothing.
        assert_eq!(report.sweep.stale_rejected, 0);
        assert_eq!(report.sweep.quarantined, 0);
        // Bench mode serves no requests; the service counters exist in
        // the schema so `figures --serve` reports land in the same gate.
        assert_eq!(report.sweep.service_requests, 0);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"probranch-throughput/9\""));
        // Every capture cell carries its tier tag; the paper kernels
        // all capture block-compiled at smoke scale (no interp cells).
        assert_eq!(
            json.lines()
                .filter(|l| l.contains("\"capture_tier\":\""))
                .count(),
            16
        );
        assert!(report.captures.iter().all(|c| c.capture_tier == "block"));
        assert!(json.contains("\"service_requests\""));
        assert!(json.contains("\"service_coalesced\""));
        assert!(json.contains("\"service_shed\""));
        assert!(json.contains("\"service_cancelled\""));
        assert!(json.contains("\"scale\": \"smoke\""));
        assert!(!json.contains("fused"), "v9 carries no fused-engine fields");
        assert!(json.contains("\"reference_mips\""));
        assert!(json.contains("\"replay_mips\""));
        assert!(json.contains("\"batched_mips\""));
        assert!(json.contains("\"convoy_mips\""));
        assert!(json.contains("\"capture_seconds\""));
        assert!(json.contains("\"trace_peak_bytes\""));
        assert!(json.contains("\"store_hits\""));
        assert!(json.contains("\"demotions\""));
        assert!(json.contains("\"evictions\""));
        assert!(json.contains("\"peak_bytes\""));
        assert!(json.contains("\"stale_rejected\""));
        assert!(json.contains("\"quarantined\""));
        assert!(json.contains("\"sweep\": {\"grids\":\"fig6+fig7\""));
        assert_eq!(
            json.lines().filter(|l| l.contains("\"workload\"")).count(),
            32 + 16
        );
    }
}
