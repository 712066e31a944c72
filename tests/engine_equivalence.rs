//! Engine-equivalence suite: the shared-trace replay engine
//! (`EngineKind::Replay`: `DynTrace::capture` + `Simulation::replay`,
//! and the chunk-streaming `Simulation::run_many`) must produce
//! **identical** `SimReport`s to the reference oracle
//! (`EngineKind::Reference`: the `Inst`-level interpreter driving a
//! live memory hierarchy and a serially consulted predictor) — timing
//! statistics, PBS counters, outputs, the consumed probabilistic-value
//! stream, and the per-branch trace — for every workload of the
//! golden/determinism suites, under every machine configuration the
//! paper sweeps. Error paths included: the instruction budget trips at
//! the same dynamic instruction in both engines. The replay paths all
//! run the batched-prediction chunk drain through
//! `predict_update_batch`.
//!
//! The comparison sweeps run through the parallel experiment harness
//! with default jobs, so the CI matrix (PROBRANCH_JOBS=1 vs default)
//! exercises the suite — including the trace captures and replays —
//! both serially and in parallel.

use probranch::harness::{run_cells, workload_seed, Cell, Jobs};
use probranch::isa::Program;
use probranch::pbs::PbsConfig;
use probranch::pipeline::{
    DynTrace, EmuError, EngineKind, OooConfig, PredictorChoice, SimConfig, SimReport, Simulation,
    TraceStream,
};
use probranch::workloads::{BenchmarkId, Scale};

/// The golden-trace suite's fixed workload seed: equivalence at exactly
/// the stream the golden files pin.
const GOLDEN_SEED: u64 = 0xB5EED;

fn config_for(cell: &Cell, core: OooConfig, trace: bool) -> SimConfig {
    let mut cfg = SimConfig {
        core,
        predictor: cell.predictor,
        collect_branch_trace: trace,
        ..SimConfig::default()
    };
    if cell.pbs {
        cfg.pbs = Some(PbsConfig::default());
    }
    cfg
}

fn reference(program: &Program, cfg: &SimConfig) -> Result<SimReport, EmuError> {
    Simulation::new(EngineKind::Reference).run(program, cfg)
}

/// Runs the replay engine (capture once, replay once) for `cfg`.
fn replayed(program: &Program, cfg: &SimConfig) -> SimReport {
    let trace = DynTrace::capture(program, cfg).expect("capture");
    Simulation::default().replay(&trace, cfg).expect("replay")
}

fn assert_reports_equal(cell: &Cell, replay: &SimReport, reference: &SimReport) {
    // Field-by-field first, so a drift names the diverging component…
    assert_eq!(replay.timing, reference.timing, "timing drift on {cell:?}");
    assert_eq!(replay.pbs, reference.pbs, "PBS-counter drift on {cell:?}");
    assert_eq!(
        replay.outputs, reference.outputs,
        "output drift on {cell:?}"
    );
    assert_eq!(
        replay.prob_consumed, reference.prob_consumed,
        "consumed-stream drift on {cell:?}"
    );
    assert_eq!(
        replay.branch_trace, reference.branch_trace,
        "branch-trace drift on {cell:?}"
    );
    // …then the whole report, so no future field escapes the net.
    assert_eq!(replay, reference, "report drift on {cell:?}");
}

/// Every benchmark × {tournament, TAGE-SC-L} × {PBS off, on} on the
/// default 4-wide core — the fig6/fig7 grid the determinism suite runs.
#[test]
fn replay_engine_matches_reference_on_the_fig6_grid() {
    let cells: Vec<Cell> = BenchmarkId::ALL
        .iter()
        .flat_map(|&w| {
            [
                (PredictorChoice::Tournament, false),
                (PredictorChoice::Tournament, true),
                (PredictorChoice::TageScL, false),
                (PredictorChoice::TageScL, true),
            ]
            .map(|(p, pbs)| Cell::new(w, p, pbs, 0))
        })
        .collect();
    let outcomes = run_cells(&cells, Jobs::default(), |cell| {
        let program = cell
            .workload
            .build(Scale::Smoke, cell.workload_seed())
            .program();
        let cfg = config_for(cell, OooConfig::default(), false);
        (
            reference(&program, &cfg).expect("reference"),
            replayed(&program, &cfg),
        )
    });
    for (cell, (reference, replay)) in cells.iter().zip(&outcomes) {
        assert_reports_equal(cell, replay, reference);
    }
}

/// Every fig6 emulation key captures block-compiled at the scales the
/// figures run, so a key silently degrading to the per-instruction
/// interpreter fails here rather than only showing up as a slower
/// run. (This binary arms no fault plan, so `capture.block` never
/// fires.)
#[test]
fn every_fig6_key_captures_block_compiled() {
    for scale in [Scale::Smoke, Scale::Bench] {
        for &workload in &BenchmarkId::ALL {
            for pbs in [false, true] {
                let cell = Cell::new(workload, PredictorChoice::Tournament, pbs, 0);
                let program = workload.build(scale, cell.workload_seed()).program();
                let cfg = config_for(&cell, OooConfig::default(), false);
                assert!(
                    TraceStream::new(&program, &cfg).is_block_compiled(),
                    "{workload:?} pbs={pbs} at {scale:?} scale captures through the interpreter"
                );
            }
        }
    }
}

/// The `Simulation` entry point: both `EngineKind`s — the default
/// batched replay engine, whose consumers pre-predict every chunk
/// through `predict_update_batch`, and the reference oracle — must
/// produce the same report on the full fig6 grid. The TAGE-SC-L cells
/// are the load-bearing ones: they pin the history-parallel batched
/// TAGE path byte-identical to the serial predictions the reference
/// engine makes.
#[test]
fn simulation_api_engines_agree_on_the_fig6_grid() {
    assert_eq!(Simulation::default().engine(), EngineKind::Replay);
    let cells: Vec<Cell> = BenchmarkId::ALL
        .iter()
        .flat_map(|&w| {
            [
                (PredictorChoice::Tournament, false),
                (PredictorChoice::Tournament, true),
                (PredictorChoice::TageScL, false),
                (PredictorChoice::TageScL, true),
            ]
            .map(|(p, pbs)| Cell::new(w, p, pbs, 0))
        })
        .collect();
    let outcomes = run_cells(&cells, Jobs::default(), |cell| {
        let program = cell
            .workload
            .build(Scale::Smoke, cell.workload_seed())
            .program();
        let cfg = config_for(cell, OooConfig::default(), false);
        let reports =
            EngineKind::ALL.map(|engine| Simulation::new(engine).run(&program, &cfg).expect("run"));
        // `Simulation::replay` is engine-independent by design: a trace
        // fixes the branch stream, so every engine re-times it the same
        // way. Pin that with a capture replayed under every kind.
        let trace = DynTrace::capture(&program, &cfg).expect("capture");
        let replays = EngineKind::ALL.map(|engine| {
            Simulation::new(engine)
                .replay(&trace, &cfg)
                .expect("replay")
        });
        (reports, replays)
    });
    for (cell, (reports, replays)) in cells.iter().zip(&outcomes) {
        let [replay, reference] = reports;
        assert_eq!(
            replay, reference,
            "batched replay vs reference drift on {cell:?}"
        );
        for r in replays {
            assert_eq!(r, replay, "engine-dependent trace replay on {cell:?}");
        }
    }
}

/// One trace per (workload, PBS) emulation key must serve *every*
/// predictor and filter configuration — including one streamed capture
/// drained through all of them.
#[test]
fn one_trace_serves_every_timing_configuration() {
    let keys: Vec<Cell> = BenchmarkId::ALL
        .iter()
        .flat_map(|&w| [false, true].map(|pbs| Cell::new(w, PredictorChoice::Tournament, pbs, 0)))
        .collect();
    let outcomes = run_cells(&keys, Jobs::default(), |key| {
        let program = key
            .workload
            .build(Scale::Smoke, key.workload_seed())
            .program();
        let configs: Vec<SimConfig> = [
            PredictorChoice::Tournament,
            PredictorChoice::TageScL,
            PredictorChoice::StaticTaken,
            PredictorChoice::StaticNotTaken,
        ]
        .iter()
        .flat_map(|&p| {
            let mut plain = config_for(key, OooConfig::default(), false);
            plain.predictor = p;
            let mut filtered = plain.clone();
            filtered.filter_prob_from_predictor = true;
            [plain, filtered]
        })
        .collect();
        let oracle: Vec<SimReport> = configs
            .iter()
            .map(|cfg| reference(&program, cfg).expect("reference"))
            .collect();
        // Mode (a): one materialized trace, one replay per config.
        let trace = DynTrace::capture(&program, &configs[0]).expect("capture");
        let replays: Vec<SimReport> = configs
            .iter()
            .map(|cfg| Simulation::default().replay(&trace, cfg).expect("replay"))
            .collect();
        // Mode (b): one streamed capture drained through all configs
        // (k = 8 exercises the consumer-by-consumer drain).
        let streamed = Simulation::default()
            .run_many(&program, &configs)
            .expect("streamed");
        (oracle, replays, streamed)
    });
    for (key, (oracle, replays, streamed)) in keys.iter().zip(&outcomes) {
        assert_eq!(oracle, replays, "shared-trace replay drift on {key:?}");
        assert_eq!(oracle, streamed, "streamed drift on {key:?}");
    }
}

/// The fused two-consumer pair drain — the loop a streamed Figure 9
/// cell drains — must equal two independent reference runs for
/// **every predictor pair** of the fig9 grid (each predictor against itself and
/// every other, with the second consumer in the filtered mode), both
/// streamed (`Simulation::run_many`) and over a materialized trace
/// (`Simulation::replay_many`).
#[test]
fn fused_pair_convoy_matches_independent_replays_for_every_predictor_pair() {
    const PREDICTORS: [PredictorChoice; 4] = [
        PredictorChoice::Tournament,
        PredictorChoice::TageScL,
        PredictorChoice::StaticTaken,
        PredictorChoice::StaticNotTaken,
    ];
    let pairs: Vec<(PredictorChoice, PredictorChoice)> = PREDICTORS
        .iter()
        .flat_map(|&a| PREDICTORS.map(|b| (a, b)))
        .collect();
    let outcomes = run_cells(&pairs, Jobs::default(), |&(a, b)| {
        let program = BenchmarkId::Bandit
            .build(Scale::Smoke, workload_seed(BenchmarkId::Bandit, 2))
            .program();
        let mut unfiltered = SimConfig::default().predictor(a);
        unfiltered.collect_branch_trace = true;
        let mut filtered = SimConfig::default().predictor(b);
        filtered.filter_prob_from_predictor = true;
        let pair = [unfiltered, filtered];
        let independent: Vec<SimReport> = pair
            .iter()
            .map(|cfg| reference(&program, cfg).expect("reference"))
            .collect();
        let streamed = Simulation::default()
            .run_many(&program, &pair)
            .expect("streamed pair");
        let trace = DynTrace::capture(&program, &pair[0]).expect("capture");
        let materialized = Simulation::default()
            .replay_many(&trace, &pair)
            .expect("replay pair");
        (independent, streamed, materialized)
    });
    for ((a, b), (independent, streamed, materialized)) in pairs.iter().zip(&outcomes) {
        assert_eq!(independent, streamed, "streamed pair drift for {a:?}/{b:?}");
        assert_eq!(
            independent, materialized,
            "materialized pair drift for {a:?}/{b:?}"
        );
    }
}

/// The golden-trace workloads with branch tracing enabled: the traces —
/// the predictor's observable behaviour — must match entry for entry.
#[test]
fn replay_engine_matches_reference_traces_on_golden_workloads() {
    let cells = [
        Cell::new(BenchmarkId::Pi, PredictorChoice::TageScL, false, 0),
        Cell::new(BenchmarkId::Bandit, PredictorChoice::Tournament, false, 0),
        Cell::new(BenchmarkId::Pi, PredictorChoice::TageScL, true, 0),
        Cell::new(BenchmarkId::Bandit, PredictorChoice::Tournament, true, 0),
    ];
    let outcomes = run_cells(&cells, Jobs::default(), |cell| {
        let program = cell.workload.build(Scale::Smoke, GOLDEN_SEED).program();
        let cfg = config_for(cell, OooConfig::default(), true);
        (
            reference(&program, &cfg).expect("reference"),
            replayed(&program, &cfg),
            Simulation::default().run(&program, &cfg).expect("streamed"),
        )
    });
    for (cell, (reference, replay, streamed)) in cells.iter().zip(&outcomes) {
        assert!(
            !reference.branch_trace.is_empty(),
            "trace must be populated for {cell:?}"
        );
        assert_reports_equal(cell, replay, reference);
        assert_reports_equal(cell, streamed, reference);
    }
}

/// The wide (8-wide / 256-ROB) core, the static predictors, and the
/// Figure 9 filter mode — the remaining machine axes.
#[test]
fn replay_engine_matches_reference_on_remaining_machine_axes() {
    let program = BenchmarkId::Photon
        .build(Scale::Smoke, workload_seed(BenchmarkId::Photon, 1))
        .program();
    for predictor in [
        PredictorChoice::Tournament,
        PredictorChoice::TageScL,
        PredictorChoice::StaticTaken,
        PredictorChoice::StaticNotTaken,
    ] {
        for (core, filter, pbs) in [
            (OooConfig::wide(), false, true),
            (OooConfig::default(), true, false),
            (OooConfig::wide(), true, true),
        ] {
            let mut cfg = SimConfig {
                core,
                predictor,
                collect_branch_trace: true,
                ..SimConfig::default()
            };
            cfg.filter_prob_from_predictor = filter;
            if pbs {
                cfg.pbs = Some(PbsConfig::default());
            }
            let reference = reference(&program, &cfg).expect("reference");
            assert_eq!(
                Simulation::default().run(&program, &cfg).expect("streamed"),
                reference,
                "streamed drift: {predictor:?}, filter={filter}, pbs={pbs}"
            );
            assert_eq!(
                replayed(&program, &cfg),
                reference,
                "replay drift: {predictor:?}, filter={filter}, pbs={pbs}"
            );
        }
    }
}

/// Both engines must also agree on *errors*: the instruction budget
/// trips at the same dynamic instruction — at capture time, and at
/// replay time when a completed trace is re-timed under a tighter
/// budget.
#[test]
fn engines_match_on_instruction_limits() {
    let program = BenchmarkId::Pi.build(Scale::Smoke, GOLDEN_SEED).program();
    for max_insts in [1, 2, 64, 65, 1000] {
        let cfg = SimConfig {
            max_insts,
            ..SimConfig::default()
        };
        let reference = reference(&program, &cfg);
        assert!(reference.is_err(), "limit {max_insts} must trip");
        // Capture under the same budget errors identically…
        let captured = DynTrace::capture(&program, &cfg);
        assert_eq!(
            captured.as_ref().err(),
            reference.as_ref().err(),
            "capture limit {max_insts}"
        );
        // …and a streamed run propagates it.
        let streamed = Simulation::default().run_many(&program, std::slice::from_ref(&cfg));
        assert_eq!(
            streamed.err(),
            reference.clone().err(),
            "streamed limit {max_insts}"
        );
    }
    // A completed trace replayed under budgets at/below its length must
    // return the same error the reference engine would — through the
    // single-cell and the multi-cell replay alike.
    let full = DynTrace::capture(&program, &SimConfig::default()).expect("capture");
    for max_insts in [1, full.instructions(), full.instructions() + 1] {
        let cfg = SimConfig {
            max_insts,
            ..SimConfig::default()
        };
        assert_eq!(
            Simulation::default().replay(&full, &cfg),
            reference(&program, &cfg),
            "replay limit {max_insts}"
        );
        assert_eq!(
            Simulation::default()
                .replay_many(&full, std::slice::from_ref(&cfg))
                .map(|mut v| v.pop().expect("one report")),
            reference(&program, &cfg),
            "replay-many limit {max_insts}"
        );
    }
}

/// Streamed groups larger than a pair drain consumer by consumer: a
/// k = 3 `run_many` must equal three independent replays of the
/// materialized trace — and, when the budget trips, return the
/// reference engine's error at the same dynamic instruction.
#[test]
fn streamed_triple_matches_independent_replays() {
    let program = BenchmarkId::Photon
        .build(Scale::Smoke, workload_seed(BenchmarkId::Photon, 3))
        .program();
    let triple = |max_insts: u64| {
        let mut tournament = SimConfig::default().predictor(PredictorChoice::Tournament);
        tournament.collect_branch_trace = true;
        let mut filtered = SimConfig::default().predictor(PredictorChoice::TageScL);
        filtered.filter_prob_from_predictor = true;
        let wide = SimConfig {
            core: OooConfig::wide(),
            predictor: PredictorChoice::StaticTaken,
            ..SimConfig::default()
        };
        [tournament, filtered, wide].map(|cfg| SimConfig { max_insts, ..cfg })
    };
    let configs = triple(SimConfig::default().max_insts);
    let trace = DynTrace::capture(&program, &configs[0]).expect("capture");
    let independent: Vec<SimReport> = configs
        .iter()
        .map(|cfg| Simulation::default().replay(&trace, cfg).expect("replay"))
        .collect();
    let streamed = Simulation::default()
        .run_many(&program, &configs)
        .expect("streamed triple");
    assert_eq!(streamed, independent, "streamed triple drift");
    for max_insts in [1, 64, 65, trace.instructions()] {
        let configs = triple(max_insts);
        let expected = reference(&program, &configs[0]);
        assert!(expected.is_err(), "limit {max_insts} must trip");
        assert_eq!(
            Simulation::default().run_many(&program, &configs).err(),
            expected.err(),
            "streamed triple limit {max_insts}"
        );
    }
}
