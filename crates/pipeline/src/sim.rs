//! The top-level simulator: functional emulation co-simulated with the
//! branch predictor, the PBS unit and the out-of-order timing model.
//!
//! [`Simulation`] is the single entry point, keyed by [`EngineKind`]:
//!
//! * [`EngineKind::Replay`] — emulate once, time many: one capture
//!   streamed chunk by chunk through every timing cell of an emulation
//!   key, or cells re-timing a materialized [`DynTrace`], with each
//!   chunk's branches batch-predicted ahead of the timing walk (see
//!   `trace.rs`);
//! * [`EngineKind::Reference`] — the independent oracle: the
//!   [`Inst`](probranch_isa::Inst)-level interpreter
//!   ([`Emulator::step`]) streaming [`DynInst`](crate::DynInst) records
//!   into `Box<dyn BranchPredictor>` and a live memory hierarchy,
//!   sharing neither the decoded datapath nor the capture/replay code.
//!
//! Both produce byte-identical [`SimReport`]s — equality over every
//! field, error paths included — locked in by
//! `tests/engine_equivalence.rs`.

use probranch_core::{PbsConfig, PbsStats, PbsUnit};
use probranch_isa::Program;
use probranch_predictor::{
    BranchPredictor, PredictorDispatch, StaticPredictor, TageScL, Tournament,
};

use crate::machine::{EmuConfig, EmuError, Emulator};
use crate::ooo::{OooConfig, OooTimingModel, TimingStats};
use crate::trace::{drain_chunk_many, DynTrace, ReplayConsumer, TraceChunk, TraceStream};

/// Which baseline branch predictor to instantiate (paper Section VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorChoice {
    /// The 1 KB Pentium-M-style tournament predictor.
    Tournament,
    /// The 8 KB TAGE-SC-L predictor.
    TageScL,
    /// Static always-taken (lower bound, for ablations).
    StaticTaken,
    /// Static always-not-taken.
    StaticNotTaken,
}

impl PredictorChoice {
    /// Instantiates the predictor as a trait object (the reference
    /// engine's dispatch; prefer [`build_dispatch`](Self::build_dispatch)
    /// on hot paths).
    pub fn build(self) -> Box<dyn BranchPredictor> {
        match self {
            PredictorChoice::Tournament => Box::new(Tournament::default()),
            PredictorChoice::TageScL => Box::new(TageScL::default()),
            PredictorChoice::StaticTaken => Box::new(StaticPredictor::taken()),
            PredictorChoice::StaticNotTaken => Box::new(StaticPredictor::not_taken()),
        }
    }

    /// Instantiates the predictor behind the static [`PredictorDispatch`]
    /// enum, letting the replay engine's batched lookups inline.
    pub fn build_dispatch(self) -> PredictorDispatch {
        match self {
            PredictorChoice::Tournament => PredictorDispatch::from(Tournament::default()),
            PredictorChoice::TageScL => PredictorDispatch::from(TageScL::default()),
            PredictorChoice::StaticTaken => PredictorDispatch::from(StaticPredictor::taken()),
            PredictorChoice::StaticNotTaken => {
                PredictorDispatch::from(StaticPredictor::not_taken())
            }
        }
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PredictorChoice::Tournament => "tournament",
            PredictorChoice::TageScL => "tage-sc-l",
            PredictorChoice::StaticTaken => "static-taken",
            PredictorChoice::StaticNotTaken => "static-not-taken",
        }
    }
}

/// Full-system simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Core (timing) configuration.
    pub core: OooConfig,
    /// Baseline branch predictor.
    pub predictor: PredictorChoice,
    /// PBS hardware, or `None` for the baseline machine (probabilistic
    /// branches execute as regular branches).
    pub pbs: Option<PbsConfig>,
    /// Figure 9 mode: probabilistic branches neither access nor update
    /// the predictor (isolating their interference on regular branches).
    pub filter_prob_from_predictor: bool,
    /// Emulator configuration.
    pub emu: EmuConfig,
    /// Instruction budget (guards against authoring bugs).
    pub max_insts: u64,
    /// Record every predictor-consulted conditional branch into
    /// [`SimReport::branch_trace`] (golden-trace regression tests; off
    /// by default — tracing a long run allocates per branch).
    pub collect_branch_trace: bool,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            core: OooConfig::default(),
            predictor: PredictorChoice::TageScL,
            pbs: None,
            filter_prob_from_predictor: false,
            emu: EmuConfig::default(),
            max_insts: 200_000_000,
            collect_branch_trace: false,
        }
    }
}

impl SimConfig {
    /// Convenience: the same configuration with PBS enabled at the
    /// paper's default design point.
    pub fn with_pbs(mut self) -> SimConfig {
        self.pbs = Some(PbsConfig::default());
        self
    }

    /// Convenience: selects the predictor.
    pub fn predictor(mut self, p: PredictorChoice) -> SimConfig {
        self.predictor = p;
        self
    }

    /// A stable 64-bit fingerprint of the configuration's *emulation
    /// key* — every field that shapes the dynamic instruction stream a
    /// trace captures (PBS configuration, emulator configuration,
    /// instruction budget) plus the ISA version — and none of the
    /// timing-side fields (predictor, core, filter, tracing).
    ///
    /// This is the content-hash ingredient for on-disk trace
    /// persistence: two configurations with equal fingerprints capture
    /// byte-identical traces of the same program.
    pub fn emu_key_fingerprint(&self) -> u64 {
        let pbs = match &self.pbs {
            None => [0u64; 5],
            Some(p) => [
                1,
                p.num_branches as u64,
                p.values_per_branch as u64,
                p.in_flight as u64,
                p.context_tracking as u64,
            ],
        };
        let mut parts = vec![u64::from(probranch_isa::ISA_VERSION)];
        parts.extend_from_slice(&pbs);
        parts.extend_from_slice(&[
            self.emu.mem_words as u64,
            self.emu.max_call_depth as u64,
            self.max_insts,
        ]);
        probranch_rng::SplitMix64::mix_fold(&parts)
    }
}

/// The result of a simulation run.
///
/// `PartialEq` compares every field — the engine-equivalence suite
/// asserts whole-report equality between the replay and reference
/// engines.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Timing statistics (cycles, IPC, MPKI, branch breakdown).
    pub timing: TimingStats,
    /// PBS event counters, when PBS was enabled.
    pub pbs: Option<PbsStats>,
    /// Program outputs: `(port, values)` pairs in ascending port order —
    /// a dense table whose iteration order is structural, not
    /// hash-order-by-luck.
    pub outputs: Vec<(u16, Vec<u64>)>,
    /// Probabilistic values in consumption order (Table III input).
    pub prob_consumed: Vec<u64>,
    /// Per-branch (pc, predicted, actual) log; empty unless
    /// [`SimConfig::collect_branch_trace`] was set.
    pub branch_trace: Vec<crate::ooo::BranchTraceEntry>,
}

impl SimReport {
    /// The values emitted on `port`.
    pub fn output(&self, port: u16) -> &[u64] {
        self.outputs
            .iter()
            .find(|(p, _)| *p == port)
            .map_or(&[], |(_, v)| v.as_slice())
    }

    /// The values emitted on `port`, as doubles.
    pub fn output_f64(&self, port: u16) -> Vec<f64> {
        self.output(port)
            .iter()
            .map(|&v| f64::from_bits(v))
            .collect()
    }
}

/// Which engine a [`Simulation`] runs its timing cells through.
///
/// The engines produce byte-identical [`SimReport`]s — equality over
/// every field, error paths included — locked in by
/// `tests/engine_equivalence.rs`. They share the predictors, the PBS
/// unit, the cache model, the timing model's cycle-accounting core and
/// the emulator's ALU and PBS-resolution helpers, but not the decoded
/// datapath or the capture/replay code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// The emulate-once/time-many replay engine (default): a run
    /// streams one capture through every cell's timing consumer chunk
    /// by chunk — no materialized trace, bounded memory on arbitrarily
    /// long workloads — and [`Simulation::replay`] re-times a captured
    /// [`DynTrace`]. Either way every chunk's predictor-visible
    /// branches are batch-predicted through
    /// [`BranchPredictor::predict_update_batch`] ahead of the timing
    /// walk.
    #[default]
    Replay,
    /// The independent oracle: the [`Inst`](probranch_isa::Inst)-level
    /// interpreter ([`Emulator::step`]) feeding a
    /// [`DynInst`](crate::DynInst) stream into
    /// `Box<dyn BranchPredictor>`, emulator, predictor and timing model
    /// advancing together and re-emulating every cell — the slow
    /// differential baseline, and the supervision cascade's fallback.
    Reference,
}

impl EngineKind {
    /// Every engine, replay first — the order differential matrices
    /// iterate.
    pub const ALL: [EngineKind; 2] = [EngineKind::Replay, EngineKind::Reference];

    /// Parses an engine name (as accepted by `figures --engine`).
    pub fn parse(name: &str) -> Option<EngineKind> {
        match name {
            "replay" => Some(EngineKind::Replay),
            "reference" => Some(EngineKind::Reference),
            _ => None,
        }
    }

    /// The engine's name, as accepted by [`EngineKind::parse`].
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Replay => "replay",
            EngineKind::Reference => "reference",
        }
    }
}

/// The simulator's single entry point: an [`EngineKind`] plus the four
/// run shapes both engines support — live single cell ([`run`]),
/// live multi-cell ([`run_many`]), materialized-trace single cell
/// ([`replay`]) and materialized-trace multi-cell ([`replay_many`]).
///
/// [`run`]: Simulation::run
/// [`run_many`]: Simulation::run_many
/// [`replay`]: Simulation::replay
/// [`replay_many`]: Simulation::replay_many
///
/// ```
/// use probranch_isa::{ProgramBuilder, Reg, CmpOp};
/// use probranch_pipeline::{EngineKind, SimConfig, Simulation};
///
/// let mut b = ProgramBuilder::new();
/// let top = b.label("top");
/// b.li(Reg::R1, 0);
/// b.bind(top);
/// b.add(Reg::R1, Reg::R1, 1)
///  .br(CmpOp::Lt, Reg::R1, 1000, top)
///  .halt();
/// let program = b.build()?;
/// let report = Simulation::default().run(&program, &SimConfig::default())?;
/// assert!(report.timing.ipc() > 0.5);
/// // The reference oracle produces the byte-identical report.
/// let oracle = Simulation::new(EngineKind::Reference).run(&program, &SimConfig::default())?;
/// assert_eq!(oracle, report);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Simulation {
    engine: EngineKind,
}

impl Simulation {
    /// A simulation entry point over `engine`.
    pub fn new(engine: EngineKind) -> Simulation {
        Simulation { engine }
    }

    /// The engine this entry point dispatches to.
    pub fn engine(self) -> EngineKind {
        self.engine
    }

    /// Runs `program` to completion under a full timing simulation.
    ///
    /// Under [`EngineKind::Replay`] the capture streams through the
    /// timing consumer chunk by chunk; use
    /// [`replay`](Simulation::replay) when a [`DynTrace`] for the
    /// configuration's emulation key is already materialized.
    ///
    /// # Errors
    ///
    /// Propagates any [`EmuError`] (faults indicate workload bugs),
    /// identically across engines.
    pub fn run(self, program: &Program, config: &SimConfig) -> Result<SimReport, EmuError> {
        match self.engine {
            EngineKind::Reference => run_reference(program, config),
            EngineKind::Replay => run_streamed(program, std::slice::from_ref(config))
                .map(|mut reports| reports.pop().expect("one report per config")),
        }
    }

    /// Runs one timing cell per configuration, in input order.
    ///
    /// Under [`EngineKind::Replay`] the configurations must share an
    /// emulation key (equal `pbs`, `emu` and `max_insts`): the program
    /// is emulated once and each captured chunk drains through every
    /// cell before the next is captured, so only one chunk-sized buffer
    /// is ever live. The reference engine simply runs them back to back.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty, or (replay) the emulation keys
    /// differ.
    ///
    /// # Errors
    ///
    /// Propagates any [`EmuError`], identically across engines.
    pub fn run_many(
        self,
        program: &Program,
        configs: &[SimConfig],
    ) -> Result<Vec<SimReport>, EmuError> {
        match self.engine {
            EngineKind::Reference => configs
                .iter()
                .map(|cfg| run_reference(program, cfg))
                .collect(),
            EngineKind::Replay => run_streamed(program, configs),
        }
    }

    /// Re-times a captured [`DynTrace`] under `config`'s timing side
    /// (predictor, core, filter mode, branch tracing) without
    /// re-emulating.
    ///
    /// The materialized-trace path is shared by both engines — a trace
    /// fixes the dynamic instruction stream, so the engine choice
    /// cannot change the report — which keeps this method total over
    /// [`EngineKind`] (the reference engine has nothing left to
    /// re-execute).
    ///
    /// # Panics
    ///
    /// Panics if `config`'s emulation key (PBS and emulator
    /// configuration) differs from the one the trace was captured
    /// under.
    ///
    /// # Errors
    ///
    /// [`EmuError::InstLimitExceeded`] exactly when a live run would
    /// return it: the trace carries a completed run, so any
    /// `config.max_insts` at or below its dynamic instruction count
    /// would have tripped.
    pub fn replay(self, trace: &DynTrace, config: &SimConfig) -> Result<SimReport, EmuError> {
        replay_one(trace, config)
    }

    /// Re-times a captured [`DynTrace`] once per configuration, in
    /// input order, each cell replaying the trace independently.
    ///
    /// # Panics
    ///
    /// Panics if the trace's emulation key differs from a
    /// configuration's.
    ///
    /// # Errors
    ///
    /// [`EmuError::InstLimitExceeded`] exactly when a live run would
    /// return it.
    pub fn replay_many(
        self,
        trace: &DynTrace,
        configs: &[SimConfig],
    ) -> Result<Vec<SimReport>, EmuError> {
        configs.iter().map(|cfg| replay_one(trace, cfg)).collect()
    }
}

/// The reference engine body (see [`EngineKind::Reference`]):
/// per-instruction [`DynInst`](crate::DynInst) records and a
/// `Box<dyn BranchPredictor>`.
fn run_reference(program: &Program, config: &SimConfig) -> Result<SimReport, EmuError> {
    let mut emu = build_emulator(program, config);
    let mut predictor = config.predictor.build();
    let mut timing = OooTimingModel::new(config.core.clone());
    if config.collect_branch_trace {
        timing.enable_trace();
    }

    let mut executed: u64 = 0;
    while let Some(d) = emu.step()? {
        timing.consume(&d, predictor.as_mut(), config.filter_prob_from_predictor);
        executed += 1;
        if executed & 0xFFFF == 0 {
            crate::cancel::check_current()?;
        }
        if executed >= config.max_insts {
            return Err(EmuError::InstLimitExceeded {
                limit: config.max_insts,
            });
        }
    }

    Ok(report_of(emu, timing))
}

/// The single-cell materialized-trace replay body (see
/// [`Simulation::replay`]).
fn replay_one(trace: &DynTrace, config: &SimConfig) -> Result<SimReport, EmuError> {
    trace.check_compatible(config);
    if trace.instructions() >= config.max_insts {
        return Err(EmuError::InstLimitExceeded {
            limit: config.max_insts,
        });
    }
    let mut consumer = ReplayConsumer::new(config);
    for chunk in trace.chunks() {
        crate::cancel::check_current()?;
        consumer.consume_chunk(trace.timings(), chunk);
    }
    Ok(consumer.into_report(trace.functional()))
}

/// The streamed replay body (see [`Simulation::run_many`]): emulates
/// `program` once, draining each captured chunk through one timing
/// consumer per configuration before capturing the next. Emulation and
/// cache pre-simulation run once, and only a single chunk-sized buffer
/// is ever live.
fn run_streamed(program: &Program, configs: &[SimConfig]) -> Result<Vec<SimReport>, EmuError> {
    let key = configs
        .first()
        .expect("run_many needs at least one configuration");
    for cfg in &configs[1..] {
        assert_eq!(cfg.pbs, key.pbs, "streamed cells must share the PBS config");
        assert_eq!(
            cfg.emu, key.emu,
            "streamed cells must share the emulator config"
        );
        assert_eq!(
            cfg.max_insts, key.max_insts,
            "streamed cells must share the instruction budget"
        );
    }
    let mut stream = TraceStream::new(program, key);
    let mut consumers: Vec<ReplayConsumer> = configs.iter().map(ReplayConsumer::new).collect();
    let mut chunk = TraceChunk::with_chunk_capacity();
    while stream.fill(&mut chunk)? {
        drain_chunk_many(&mut consumers, stream.timings(), &chunk);
    }
    let functional = stream.finish();
    Ok(consumers
        .into_iter()
        .map(|c| c.into_report(&functional))
        .collect())
}

fn build_emulator(program: &Program, config: &SimConfig) -> Emulator {
    match &config.pbs {
        Some(pbs_cfg) => Emulator::with_pbs(
            program.clone(),
            config.emu.clone(),
            PbsUnit::new(pbs_cfg.clone()),
        ),
        None => Emulator::new(program.clone(), config.emu.clone()),
    }
}

fn report_of(emu: Emulator, mut timing: OooTimingModel) -> SimReport {
    SimReport {
        timing: timing.stats(),
        pbs: emu.pbs_stats(),
        outputs: emu.outputs_sorted(),
        prob_consumed: emu.prob_consumed().to_vec(),
        branch_trace: timing.take_trace(),
    }
}

/// Runs a program functionally only (no timing model) — used for output
/// accuracy and randomness experiments where only the architectural
/// results matter. Roughly an order of magnitude faster than a full
/// [`Simulation`] run.
///
/// # Errors
///
/// Propagates any [`EmuError`].
pub fn run_functional(
    program: &Program,
    pbs: Option<PbsConfig>,
    max_insts: u64,
) -> Result<SimReport, EmuError> {
    let mut emu = match pbs {
        Some(pbs_cfg) => {
            Emulator::with_pbs(program.clone(), EmuConfig::default(), PbsUnit::new(pbs_cfg))
        }
        None => Emulator::new(program.clone(), EmuConfig::default()),
    };
    emu.run_to_halt(max_insts)?;
    Ok(SimReport {
        timing: TimingStats {
            instructions: emu.executed(),
            ..TimingStats::default()
        },
        pbs: emu.pbs_stats(),
        outputs: emu.outputs_sorted(),
        prob_consumed: emu.prob_consumed().to_vec(),
        branch_trace: Vec::new(),
    })
}

// The parallel experiment harness moves configurations into worker
// threads and results back out; keep that capability a compile-time
// guarantee rather than an accident of field choices.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimConfig>();
    assert_send_sync::<SimReport>();
    assert_send_sync::<PredictorChoice>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(p: &Program, cfg: &SimConfig) -> Result<SimReport, EmuError> {
        Simulation::new(EngineKind::Reference).run(p, cfg)
    }
    use probranch_isa::{CmpOp, ProgramBuilder, Reg};

    /// A loop with one ~50% probabilistic branch implemented over an
    /// ISA-level xorshift64* generator.
    fn prob_workload(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        let join = b.label("join");
        b.li(Reg::R1, 0x9E3779B97F4A7C15u64 as i64);
        b.li(Reg::R2, 0);
        b.li(Reg::R3, 0);
        b.li(Reg::R4, (u64::MAX / 2) as i64);
        b.li(Reg::R6, 0x2545F4914F6CDD1Du64 as i64);
        b.bind(top);
        b.shr(Reg::R5, Reg::R1, 12).xor(Reg::R1, Reg::R1, Reg::R5);
        b.shl(Reg::R5, Reg::R1, 25).xor(Reg::R1, Reg::R1, Reg::R5);
        b.shr(Reg::R5, Reg::R1, 27).xor(Reg::R1, Reg::R1, Reg::R5);
        b.mul(Reg::R7, Reg::R1, Reg::R6);
        b.sltu(Reg::R8, Reg::R7, Reg::R4);
        b.prob_cmp(CmpOp::Eq, Reg::R8, 1);
        b.prob_jmp(None, join);
        b.add(Reg::R3, Reg::R3, 1);
        b.bind(join);
        b.add(Reg::R2, Reg::R2, 1);
        b.br(CmpOp::Lt, Reg::R2, iters, top);
        b.out(Reg::R3, 0);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn pbs_eliminates_prob_mispredictions() {
        let p = prob_workload(20_000);
        let base = reference(&p, &SimConfig::default()).unwrap();
        let pbs = reference(&p, &SimConfig::default().with_pbs()).unwrap();
        // Baseline: the ~50% branch mispredicts heavily.
        assert!(
            base.timing.mispredicts_prob > 5000,
            "baseline prob mispredicts: {}",
            base.timing.mispredicts_prob
        );
        // PBS: only the bootstrap instances can mispredict.
        assert!(
            pbs.timing.mispredicts_prob < 50,
            "PBS prob mispredicts: {}",
            pbs.timing.mispredicts_prob
        );
        assert!(pbs.timing.pbs_directed > 19_000);
        // And performance improves.
        assert!(
            pbs.timing.cycles < base.timing.cycles,
            "PBS {} cycles vs baseline {}",
            pbs.timing.cycles,
            base.timing.cycles
        );
        let speedup = base.timing.cycles as f64 / pbs.timing.cycles as f64;
        assert!(speedup > 1.02, "speedup {speedup}");
    }

    #[test]
    fn pbs_preserves_functional_output_statistics() {
        let p = prob_workload(20_000);
        let base = run_functional(&p, None, 10_000_000).unwrap();
        let pbs = run_functional(&p, Some(PbsConfig::default()), 10_000_000).unwrap();
        let c_base = base.output(0)[0] as f64;
        let c_pbs = pbs.output(0)[0] as f64;
        // Not-taken counts agree within a few per mille (the bootstrap
        // phase shifts consumption by 4 values).
        assert!(
            (c_base - c_pbs).abs() / c_base < 0.05,
            "{c_base} vs {c_pbs}"
        );
    }

    #[test]
    fn tournament_with_pbs_beats_plain_tage() {
        // The paper's headline observation (Section VII-B): "the
        // tournament branch predictor with PBS outperforms the
        // TAGE-SC-L predictor."
        let p = prob_workload(20_000);
        let tage = reference(
            &p,
            &SimConfig::default().predictor(PredictorChoice::TageScL),
        )
        .unwrap();
        let tour_pbs = reference(
            &p,
            &SimConfig::default()
                .predictor(PredictorChoice::Tournament)
                .with_pbs(),
        )
        .unwrap();
        assert!(
            tour_pbs.timing.cycles < tage.timing.cycles,
            "tournament+PBS {} vs TAGE {}",
            tour_pbs.timing.cycles,
            tage.timing.cycles
        );
    }

    #[test]
    fn filter_mode_reports_regular_only_mpki() {
        let p = prob_workload(5_000);
        let mut cfg = SimConfig::default().predictor(PredictorChoice::Tournament);
        cfg.filter_prob_from_predictor = true;
        let filtered = reference(&p, &cfg).unwrap();
        assert_eq!(filtered.timing.mispredicts_prob, 0);
        let unfiltered = reference(
            &p,
            &SimConfig::default().predictor(PredictorChoice::Tournament),
        )
        .unwrap();
        // Interference: filtering prob branches out cannot hurt the
        // regular branches.
        assert!(filtered.timing.mpki_regular() <= unfiltered.timing.mpki_regular() + 0.01);
    }

    #[test]
    fn determinism_across_runs() {
        let p = prob_workload(3_000);
        let a = reference(&p, &SimConfig::default().with_pbs()).unwrap();
        let b = reference(&p, &SimConfig::default().with_pbs()).unwrap();
        assert_eq!(a.timing, b.timing);
        assert_eq!(a.prob_consumed, b.prob_consumed);
        assert_eq!(a.output(0), b.output(0));
    }

    #[test]
    fn inst_limit_guards() {
        let p = prob_workload(1_000_000);
        let cfg = SimConfig {
            max_insts: 1000,
            ..SimConfig::default()
        };
        assert!(matches!(
            reference(&p, &cfg),
            Err(EmuError::InstLimitExceeded { .. })
        ));
    }

    #[test]
    fn predictor_choice_builds_all() {
        for c in [
            PredictorChoice::Tournament,
            PredictorChoice::TageScL,
            PredictorChoice::StaticTaken,
            PredictorChoice::StaticNotTaken,
        ] {
            let mut p = c.build();
            let _ = p.predict(0);
            p.update(0, true);
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn wide_core_does_not_regress_ipc() {
        let p = prob_workload(5_000);
        let narrow = reference(&p, &SimConfig::default()).unwrap();
        let wide_cfg = SimConfig {
            core: OooConfig::wide(),
            ..SimConfig::default()
        };
        let wide = reference(&p, &wide_cfg).unwrap();
        assert!(wide.timing.ipc() >= narrow.timing.ipc() * 0.99);
    }
}
