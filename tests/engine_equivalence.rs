//! Engine-equivalence suite: the fused/predecoded engine
//! (`EngineKind::Fused`), the unfused reference engine
//! (`EngineKind::Reference`) and the shared-trace replay engine
//! (`EngineKind::Replay`: `DynTrace::capture` + `Simulation::replay`,
//! and the chunk-streaming `Simulation::run_many`) must all produce
//! **identical** `SimReport`s — timing statistics, PBS counters,
//! outputs, the consumed probabilistic-value stream, and the per-branch
//! trace — for every workload of the golden/determinism suites, under
//! every machine configuration the paper sweeps. Error paths included:
//! the instruction budget trips at the same dynamic instruction in
//! every engine. The replay paths all run the batched-prediction chunk
//! drain through `predict_update_batch`.
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

fn fused(program: &Program, cfg: &SimConfig) -> Result<SimReport, EmuError> {
    Simulation::new(EngineKind::Fused).run(program, cfg)
}

fn reference(program: &Program, cfg: &SimConfig) -> Result<SimReport, EmuError> {
    Simulation::new(EngineKind::Reference).run(program, cfg)
}

/// Runs the replay engine (capture once, replay once) for `cfg`.
fn replayed(program: &Program, cfg: &SimConfig) -> SimReport {
    let trace = DynTrace::capture(program, cfg).expect("capture");
    Simulation::default().replay(&trace, cfg).expect("replay")
}

fn assert_reports_equal(cell: &Cell, fused: &SimReport, reference: &SimReport) {
    // Field-by-field first, so a drift names the diverging component…
    assert_eq!(fused.timing, reference.timing, "timing drift on {cell:?}");
    assert_eq!(fused.pbs, reference.pbs, "PBS-counter drift on {cell:?}");
    assert_eq!(fused.outputs, reference.outputs, "output drift on {cell:?}");
    assert_eq!(
        fused.prob_consumed, reference.prob_consumed,
        "consumed-stream drift on {cell:?}"
    );
    assert_eq!(
        fused.branch_trace, reference.branch_trace,
        "branch-trace drift on {cell:?}"
    );
    // …then the whole report, so no future field escapes the net.
    assert_eq!(fused, reference, "report drift on {cell:?}");
}

/// Every benchmark × {tournament, TAGE-SC-L} × {PBS off, on} on the
/// default 4-wide core — the fig6/fig7 grid the determinism suite runs.
#[test]
fn fused_engine_matches_reference_on_the_fig6_grid() {
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
            fused(&program, &cfg).expect("fused"),
            reference(&program, &cfg).expect("reference"),
            replayed(&program, &cfg),
        )
    });
    for (cell, (fused, reference, replay)) in cells.iter().zip(&outcomes) {
        assert_reports_equal(cell, fused, reference);
        assert_eq!(fused, replay, "replay drift on {cell:?}");
    }
}

/// The `Simulation` entry point: all three `EngineKind`s —
/// including the default batched replay engine, whose consumers
/// pre-predict every chunk through `predict_update_batch` — must
/// produce the same report on the full fig6 grid. The TAGE-SC-L cells
/// are the load-bearing ones: they pin the history-parallel batched
/// TAGE path byte-identical to the serial predictions the live fused
/// and reference engines make.
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
        let [replay, fused, reference] = reports;
        assert_eq!(replay, fused, "batched replay vs fused drift on {cell:?}");
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
        let fused: Vec<SimReport> = configs
            .iter()
            .map(|cfg| fused(&program, cfg).expect("fused"))
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
        (fused, replays, streamed)
    });
    for (key, (fused, replays, streamed)) in keys.iter().zip(&outcomes) {
        assert_eq!(fused, replays, "shared-trace replay drift on {key:?}");
        assert_eq!(fused, streamed, "streamed drift on {key:?}");
    }
}

/// The fused two-consumer pair drain — the loop a streamed Figure 9
/// cell drains — must equal two independent fused runs for **every
/// predictor pair** of the fig9 grid (each predictor against itself and
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
            .map(|cfg| fused(&program, cfg).expect("fused"))
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
fn fused_engine_matches_reference_traces_on_golden_workloads() {
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
            fused(&program, &cfg).expect("fused"),
            reference(&program, &cfg).expect("reference"),
            replayed(&program, &cfg),
        )
    });
    for (cell, (fused, reference, replay)) in cells.iter().zip(&outcomes) {
        assert!(
            !fused.branch_trace.is_empty(),
            "trace must be populated for {cell:?}"
        );
        assert_reports_equal(cell, fused, reference);
        assert_eq!(
            fused.branch_trace, replay.branch_trace,
            "replayed branch-trace drift on {cell:?}"
        );
        assert_eq!(fused, replay, "replay drift on {cell:?}");
    }
}

/// The wide (8-wide / 256-ROB) core, the static predictors, and the
/// Figure 9 filter mode — the remaining machine axes.
#[test]
fn fused_engine_matches_reference_on_remaining_machine_axes() {
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
            let fused = fused(&program, &cfg).expect("fused");
            let reference = reference(&program, &cfg).expect("reference");
            assert_eq!(
                fused, reference,
                "report drift: {predictor:?}, filter={filter}, pbs={pbs}"
            );
            assert_eq!(
                fused,
                replayed(&program, &cfg),
                "replay drift: {predictor:?}, filter={filter}, pbs={pbs}"
            );
        }
    }
}

/// Every engine must also agree on *errors*: the instruction budget
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
        let fused = fused(&program, &cfg);
        let reference = reference(&program, &cfg);
        assert_eq!(fused, reference, "limit {max_insts}");
        assert!(fused.is_err(), "limit {max_insts} must trip");
        // Capture under the same budget errors identically…
        let captured = DynTrace::capture(&program, &cfg);
        assert_eq!(
            captured.as_ref().err(),
            fused.as_ref().err(),
            "capture limit {max_insts}"
        );
        // …and a streamed run propagates it.
        let streamed = Simulation::default().run_many(&program, std::slice::from_ref(&cfg));
        assert_eq!(
            streamed.err(),
            fused.clone().err(),
            "streamed limit {max_insts}"
        );
    }
    // A completed trace replayed under budgets at/below its length must
    // return the same error the live engines would — through the
    // single-cell and the multi-cell replay alike.
    let full = DynTrace::capture(&program, &SimConfig::default()).expect("capture");
    for max_insts in [1, full.instructions(), full.instructions() + 1] {
        let cfg = SimConfig {
            max_insts,
            ..SimConfig::default()
        };
        assert_eq!(
            Simulation::default().replay(&full, &cfg),
            fused(&program, &cfg),
            "replay limit {max_insts}"
        );
        assert_eq!(
            Simulation::default()
                .replay_many(&full, std::slice::from_ref(&cfg))
                .map(|mut v| v.pop().expect("one report")),
            fused(&program, &cfg),
            "replay-many limit {max_insts}"
        );
    }
}

/// Streamed groups larger than a pair drain consumer by consumer: a
/// k = 3 `run_many` must equal three independent replays of the
/// materialized trace — and, when the budget trips, return the fused
/// engine's error at the same dynamic instruction.
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
        let expected = fused(&program, &configs[0]);
        assert!(expected.is_err(), "limit {max_insts} must trip");
        assert_eq!(
            Simulation::default().run_many(&program, &configs).err(),
            expected.err(),
            "streamed triple limit {max_insts}"
        );
    }
}
