//! `sim-throughput`: engine-speed microbenchmarks — the default replay
//! engine (a streamed capture) against the reference oracle on one
//! representative cell from each side of the PBS split, plus the
//! predecode pass itself.
//!
//! For the full measured-MIPS grid (and the committed
//! `BENCH_throughput.json` baseline), use:
//!
//! ```text
//! cargo run --release -p probranch-bench --bin figures -- --emit-bench-json BENCH_throughput.json
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use probranch_pipeline::{DecodedProgram, EngineKind, PredictorChoice, SimConfig, Simulation};
use probranch_workloads::{BenchmarkId, Scale};

fn config(pbs: bool) -> SimConfig {
    let cfg = SimConfig::default().predictor(PredictorChoice::TageScL);
    if pbs {
        cfg.with_pbs()
    } else {
        cfg
    }
}

fn bench_engines(c: &mut Criterion) {
    let pi = BenchmarkId::Pi.build(Scale::Smoke, 7).program();
    let bandit = BenchmarkId::Bandit.build(Scale::Smoke, 7).program();

    c.bench_function("sim-throughput/replay/pi+pbs", |b| {
        b.iter(|| {
            Simulation::default()
                .run(black_box(&pi), &config(true))
                .unwrap()
                .timing
                .cycles
        })
    });
    c.bench_function("sim-throughput/reference/pi+pbs", |b| {
        b.iter(|| {
            Simulation::new(EngineKind::Reference)
                .run(black_box(&pi), &config(true))
                .unwrap()
                .timing
                .cycles
        })
    });
    c.bench_function("sim-throughput/replay/bandit", |b| {
        b.iter(|| {
            Simulation::default()
                .run(black_box(&bandit), &config(false))
                .unwrap()
                .timing
                .cycles
        })
    });
    c.bench_function("sim-throughput/reference/bandit", |b| {
        b.iter(|| {
            Simulation::new(EngineKind::Reference)
                .run(black_box(&bandit), &config(false))
                .unwrap()
                .timing
                .cycles
        })
    });
    c.bench_function("sim-throughput/predecode/pi", |b| {
        b.iter(|| DecodedProgram::of(black_box(&pi)).len())
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engines
);
criterion_main!(benches);
