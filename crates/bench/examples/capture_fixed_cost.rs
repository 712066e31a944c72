//! Per-capture fixed-cost probe: a near-empty program isolates setup
//! (stream construction, block compile, chunk sizing) from per-record
//! work. Diagnostic only.
//!
//! ```text
//! cargo run --release -p probranch-bench --example capture_fixed_cost
//! ```
use std::time::Instant;

use probranch_isa::{CmpOp, ProgramBuilder, Reg};
use probranch_pipeline::{DynTrace, SimConfig, TraceChunk, TraceStream};

fn main() {
    let mut b = ProgramBuilder::new();
    let top = b.label("top");
    b.li(Reg::R1, 0);
    b.bind(top);
    b.add(Reg::R1, Reg::R1, 1);
    b.br(CmpOp::Lt, Reg::R1, 50, top);
    b.halt();
    let program = b.build().unwrap();
    let cfg = SimConfig::default();
    let mut best = f64::INFINITY;
    let mut best_new = f64::INFINITY;
    let mut best_fill = f64::INFINITY;
    let mut block_compiled = false;
    for _ in 0..2000 {
        let t0 = Instant::now();
        let tr = DynTrace::capture(&program, &cfg).unwrap();
        best = best.min(t0.elapsed().as_secs_f64());
        assert_eq!(tr.instructions(), 102);
        // Phase split: construction vs fill.
        let t1 = Instant::now();
        let mut stream = TraceStream::new(&program, &cfg);
        best_new = best_new.min(t1.elapsed().as_secs_f64());
        block_compiled = stream.is_block_compiled();
        let t2 = Instant::now();
        let mut chunk = TraceChunk::with_chunk_capacity();
        while stream.fill(&mut chunk).unwrap() {}
        best_fill = best_fill.min(t2.elapsed().as_secs_f64());
    }
    println!(
        "{} capture: fixed cost ~{:6.1} us  (new ~{:6.1} us, fill ~{:6.1} us)",
        if block_compiled { "block" } else { "interp" },
        best * 1e6,
        best_new * 1e6,
        best_fill * 1e6
    );
}
