//! The block-compiled capture engine: trace capture above interpreter
//! speed.
//!
//! The interpreter tier pays one [`Emulator::step_decoded`] call —
//! fetch, dispatch, record construction, per-record cache bookkeeping —
//! per dynamic instruction. This module compiles the predecoded program
//! into **basic blocks** once per emulation key and executes each block
//! as a specialized straight-line step function:
//!
//! * the body (every non-control op up to the block's terminator) runs
//!   branch-free against the architectural state, with no per-op pc or
//!   retired-counter bookkeeping — one [`Emulator::commit_straight`]
//!   per block;
//! * body records bulk-append into the SoA [`TraceChunk`] packer as one
//!   consecutive-pc span through a pre-sized cursor writer
//!   (`TraceChunk::begin_fill`) instead of per-record pushes: zero
//!   istalls (see the warmth rule below), zero branch bytes, and dlats
//!   patched in from the loads the body actually executed;
//! * the terminator (branch/call/ret/`PROB_JMP`) executes inline
//!   through the emulator's condition, stack and resolution datapaths
//!   (`cmp_*`, `commit_term_*`), while `halt` and every *rare* op
//!   (`out`) fall back to `step_decoded`.
//!
//! Body ops and terminators run through the very functions
//! `step_decoded` dispatches to (`exec_straight_op`, `commit_term_*`),
//! so branch events, PBS observation, call-stack faults and
//! probabilistic resolution have one implementation on both tiers.
//!
//! # Warmth rule (byte-identity of the fast path)
//!
//! The bulk path writes `istall = 0` for every body record, which is
//! only correct when each body line is already resident in the L1-I.
//! The engine therefore executes a block through the interpreter until
//! every line the body spans is marked in [`TraceStream::itouched`]
//! (first touches walk the hierarchy and insert into the shared L2,
//! exactly as the interpreter would), and only then engages the bulk
//! path. Programs too large for the `itouched` regime never compile —
//! they stay on the interpreter tier.
//!
//! # Faults and limits
//!
//! A memory fault at body index `k` emits the `k` completed records,
//! commits `pc`/`executed` to the faulting instruction and halts —
//! indistinguishable from `k` interpreter steps followed by the same
//! fault. Blocks only execute when the chunk budget covers the whole
//! block, so `InstLimitExceeded` trips at exactly the same dynamic
//! instruction as the interpreter. Long block runs poll the
//! cancellation token every [`CANCEL_STRIDE`](crate::cancel::CANCEL_STRIDE)
//! instructions.
//!
//! # When blocks run
//!
//! Capture runs block-compiled whenever it can: the program must be
//! L1-I-resident (the warmth rule above), and the `capture.block`
//! failpoint, when it fires, degrades the capture to the
//! per-instruction interpreter at `TraceStream` construction — torture
//! runs prove the degradation is byte-invisible. The interpreter also
//! stays reachable explicitly (`DynTrace::capture_interpreted`) as the
//! reference the capture proptests compare block capture against.

use probranch_isa::{CmpOp, Reg};

use crate::cache::MemoryHierarchy;
use crate::cancel::CANCEL_STRIDE;
use crate::decode::{DecOp, DecodedProgram, InstTiming};
use crate::machine::{BranchEvent, BranchEventKind, EmuError, Emulator};
use crate::trace::{
    encode_branch, record_costs, ChunkWriter, TraceChunk, TraceStream, TRACE_CHUNK_RECORDS,
};

// --- block program ---------------------------------------------------

/// A block terminator, predecoded at block-build time.
///
/// Direct branches (`jf`, the fused compare-and-branches, `jmp`) and
/// the call-stack pair (`call`/`ret`) execute inline on the warm path:
/// the condition/stack datapath, the pc redirect, the PBS history
/// observation and one packed branch record — skipping the
/// interpreter's fetch/dispatch/record round trip, which dominates
/// capture time on branchy kernels whose blocks are only a few ops
/// long. `PROB_JMP` resolves inline too; only `halt` stays on
/// [`Emulator::step_decoded`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Term {
    /// `jf target` — conditional on the flag register.
    Jf {
        /// Taken-path pc.
        target: u32,
    },
    /// Fused register-register compare-and-branch.
    BrRR {
        /// Comparison operator.
        op: CmpOp,
        /// Whether the compare is over `f64` bit patterns.
        fp: bool,
        /// Left operand register.
        lhs: Reg,
        /// Right operand register.
        rhs: Reg,
        /// Taken-path pc.
        target: u32,
    },
    /// Fused register-immediate compare-and-branch.
    BrRI {
        /// Comparison operator.
        op: CmpOp,
        /// Whether the compare is over `f64` bit patterns.
        fp: bool,
        /// Left operand register.
        lhs: Reg,
        /// Immediate right operand (bit pattern).
        imm: u64,
        /// Taken-path pc.
        target: u32,
    },
    /// Direct unconditional jump.
    Jmp {
        /// Target pc.
        target: u32,
    },
    /// Direct call: stack push + redirect, with the overflow fault
    /// handled inline.
    Call {
        /// Callee entry pc.
        target: u32,
    },
    /// Return: stack pop + redirect, with the underflow fault handled
    /// inline.
    Ret,
    /// `PROB_JMP`: probabilistic resolution inline
    /// ([`Emulator::commit_term_prob`] — the shared resolution path,
    /// minus the interpreter round trip).
    Prob {
        /// Last probability register to push, when the short form
        /// carries one.
        prob: Option<Reg>,
        /// Taken-path pc.
        target: u32,
    },
    /// `halt`: executed via `step_decoded`.
    Other,
}

/// One basic block: a maximal straight-line body plus (usually) a
/// control-op terminator.
#[derive(Debug)]
pub(crate) struct CompiledBlock {
    /// Leader pc; body records cover `start_pc..start_pc + body_len`.
    pub(crate) start_pc: u32,
    /// The straight-line body, one op per pc; no intra-block control.
    pub(crate) body: Vec<DecOp>,
    /// Records the body contributes (== static body length in guest
    /// instructions).
    pub(crate) body_len: u32,
    /// The control-op terminator following the body, predecoded;
    /// `None` when the block ends at a leader or rare-op boundary
    /// instead.
    pub(crate) term: Option<Term>,
}

impl CompiledBlock {
    /// Total records one execution of the block emits.
    #[inline(always)]
    fn records(&self) -> u64 {
        self.body_len as u64 + self.term.is_some() as u64
    }
}

const NO_BLOCK: u32 = u32::MAX;

/// The block-compiled form of a program: dense pc → block dispatch
/// plus the compiled blocks, built once per emulation key.
#[derive(Debug)]
pub(crate) struct BlockProgram {
    blocks: Vec<CompiledBlock>,
    /// pc → index into `blocks` for compiled leaders (non-empty body
    /// or a lone terminator),
    /// [`NO_BLOCK`] everywhere else.
    index: Vec<u32>,
}

/// Control ops terminate a block and execute as its [`Term`] (branch
/// events, PBS observation, call-stack faults, prob resolution, halt).
fn is_control(op: &DecOp) -> bool {
    matches!(
        op,
        DecOp::Jf { .. }
            | DecOp::BrRR { .. }
            | DecOp::BrRI { .. }
            | DecOp::Jmp { .. }
            | DecOp::Call { .. }
            | DecOp::Ret
            | DecOp::ProbJmp { .. }
            | DecOp::Halt
    )
}

/// Rare ops the block engine leaves to the interpreter: output writes
/// only. A body ends before one; the pc after it is a fresh leader, so
/// only the rare op itself single-steps. The PBS probes (`prob_cmp`,
/// `prob_jmp_push`/`quiet`) are straight-line from the trace's point
/// of view and execute inside block bodies via `exec_straight_op` —
/// every paper kernel has one in its hot loop, and splitting there
/// would cost two dispatch round trips per iteration.
fn is_rare(op: &DecOp) -> bool {
    matches!(op, DecOp::Out { .. })
}

/// Predecodes a control op into its [`Term`] form.
fn lower_term(op: &DecOp) -> Term {
    match *op {
        DecOp::Jf { target } => Term::Jf { target },
        DecOp::BrRR {
            op,
            fp,
            lhs,
            rhs,
            target,
        } => Term::BrRR {
            op,
            fp,
            lhs,
            rhs,
            target,
        },
        DecOp::BrRI {
            op,
            fp,
            lhs,
            imm,
            target,
        } => Term::BrRI {
            op,
            fp,
            lhs,
            imm,
            target,
        },
        DecOp::Jmp { target } => Term::Jmp { target },
        DecOp::Call { target } => Term::Call { target },
        DecOp::Ret => Term::Ret,
        DecOp::ProbJmp { prob, target } => Term::Prob { prob, target },
        _ => Term::Other,
    }
}

fn branch_target(op: &DecOp) -> Option<u32> {
    match *op {
        DecOp::Jf { target }
        | DecOp::BrRR { target, .. }
        | DecOp::BrRI { target, .. }
        | DecOp::Jmp { target }
        | DecOp::Call { target }
        | DecOp::ProbJmp { target, .. } => Some(target),
        _ => None,
    }
}

impl BlockProgram {
    /// Extracts and compiles the basic blocks of `decoded`. Leaders are
    /// the entry, every branch/call target, and the pc after every
    /// control or rare op; a body extends from its leader to the next
    /// control op (terminator), rare op, leader or program end.
    pub(crate) fn compile(decoded: &DecodedProgram) -> BlockProgram {
        let insts = decoded.insts();
        let n = insts.len();
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for (pc, d) in insts.iter().enumerate() {
            if is_control(&d.op) {
                if let Some(t) = branch_target(&d.op) {
                    if (t as usize) < n {
                        leader[t as usize] = true;
                    }
                }
                if pc + 1 < n {
                    leader[pc + 1] = true;
                }
            } else if is_rare(&d.op) && pc + 1 < n {
                leader[pc + 1] = true;
            }
        }

        let mut blocks = Vec::new();
        let mut index = vec![NO_BLOCK; n];
        let mut start = 0usize;
        while start < n {
            if !leader[start] {
                start += 1;
                continue;
            }
            let mut end = start;
            let mut has_term = false;
            while end < n {
                let op = &insts[end].op;
                if is_control(op) {
                    has_term = true;
                    break;
                }
                if is_rare(op) || (end > start && leader[end]) {
                    break;
                }
                end += 1;
            }
            if end == start {
                // The leader is itself a control op (a branch that is
                // also a branch target — common in else-chains and at
                // loop-skip labels): compile a terminator-only block so
                // it still executes inline instead of paying a full
                // `step_decoded` round trip. Rare ops stay
                // single-stepped.
                if has_term {
                    index[start] = blocks.len() as u32;
                    blocks.push(CompiledBlock {
                        start_pc: start as u32,
                        body: Vec::new(),
                        body_len: 0,
                        term: Some(lower_term(&insts[end].op)),
                    });
                }
                start += 1;
                continue;
            }
            index[start] = blocks.len() as u32;
            blocks.push(CompiledBlock {
                start_pc: start as u32,
                body: insts[start..end].iter().map(|d| d.op).collect(),
                body_len: (end - start) as u32,
                term: has_term.then(|| lower_term(&insts[end].op)),
            });
            start = end;
        }
        BlockProgram { blocks, index }
    }

    /// The compiled block whose leader is `pc`, if any (unit-test
    /// convenience; the dispatch loop uses [`idx_at`](Self::idx_at)).
    #[cfg(test)]
    pub(crate) fn at(&self, pc: u32) -> Option<&CompiledBlock> {
        self.idx_at(pc).map(|i| &self.blocks[i])
    }

    /// The index of the compiled block whose leader is `pc`, if any —
    /// the dispatch loop keys its warmth cache by this index.
    #[inline(always)]
    pub(crate) fn idx_at(&self, pc: u32) -> Option<usize> {
        let i = *self.index.get(pc as usize)?;
        (i != NO_BLOCK).then_some(i as usize)
    }

    /// The compiled block at `i` (see [`idx_at`](Self::idx_at)).
    #[inline(always)]
    pub(crate) fn block(&self, i: usize) -> &CompiledBlock {
        &self.blocks[i]
    }

    /// Number of compiled blocks.
    pub(crate) fn compiled_blocks(&self) -> usize {
        self.blocks.len()
    }
}

// --- block execution -------------------------------------------------

/// Whether every L1-I line the block spans — body plus terminator, when
/// one follows — has been touched: the precondition for the zero-istall
/// bulk path *and* for the inline terminator record, whose `istall = 0`
/// is only what `pack_record` would produce once the line is resident.
#[inline(always)]
fn block_warm(itouched: &[bool], pcs_per_line: usize, b: &CompiledBlock) -> bool {
    debug_assert!(b.records() > 0);
    let l0 = b.start_pc as usize / pcs_per_line;
    let last_pc = b.start_pc + b.body_len + b.term.is_some() as u32 - 1;
    let l1 = last_pc as usize / pcs_per_line;
    itouched[l0..=l1].iter().all(|&t| t)
}

/// Executes one warm block: the body against the architectural state,
/// bulk record emission, then the terminator. Returns the records
/// emitted.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn exec_block(
    emu: &mut Emulator,
    presim: &mut MemoryHierarchy,
    timings: &[InstTiming],
    itouched: &mut [bool],
    pcs_per_line: usize,
    w: &mut ChunkWriter,
    b: &CompiledBlock,
    dlats: &mut Vec<(u32, u8)>,
) -> Result<u64, EmuError> {
    dlats.clear();
    let start = b.start_pc;
    let mut done: u32 = 0;
    for op in &b.body {
        match emu.exec_straight_op(*op, start + done) {
            Ok(Some(addr)) => {
                // Loads pre-simulate their data access in execution
                // order, exactly as the interpreter tier would; the
                // latency is patched into the bulk span below.
                let dlat = presim.data_access(addr);
                debug_assert!(dlat <= u8::MAX as u64);
                dlats.push((done, dlat as u8));
                done += 1;
            }
            Ok(None) => done += 1,
            Err(e) => {
                // Fault at body index `done`: emit the completed
                // records and land the machine on the faulting
                // instruction — indistinguishable from `done`
                // interpreter steps followed by the same fault.
                w.emit_straight(start, done, dlats);
                emu.commit_straight(start + done, done as u64);
                return Err(e);
            }
        }
    }
    debug_assert_eq!(done, b.body_len);
    w.emit_straight(start, done, dlats);
    emu.commit_straight(start + done, done as u64);
    let Some(term) = b.term else {
        return Ok(done as u64);
    };
    let pc = start + done;
    // Direct branch terminators execute inline: condition datapath, pc
    // redirect, PBS observation, one packed record. The terminator's
    // line is covered by the warmth precondition (`istall = 0`, exactly
    // what `pack_record` would compute for a resident line) and a
    // branch is never a load (`dlat = 0`).
    let (target, taken, kind) = match term {
        Term::Jf { target } => (target, emu.flag(), BranchEventKind::Conditional),
        Term::BrRR {
            op,
            fp,
            lhs,
            rhs,
            target,
        } => (
            target,
            emu.cmp_rr(op, fp, lhs, rhs),
            BranchEventKind::Conditional,
        ),
        Term::BrRI {
            op,
            fp,
            lhs,
            imm,
            target,
        } => (
            target,
            emu.cmp_ri(op, fp, lhs, imm),
            BranchEventKind::Conditional,
        ),
        Term::Jmp { target } => (target, true, BranchEventKind::Unconditional),
        Term::Call { target } => {
            // Stack push + redirect; an overflow fault lands after the
            // body records, exactly like the interpreter's.
            emu.commit_term_call(pc, target)?;
            let byte = encode_branch(Some(BranchEvent {
                taken: true,
                kind: BranchEventKind::Call,
                is_prob: false,
            }));
            w.emit_record(pc, byte, 0, 0);
            return Ok(done as u64 + 1);
        }
        Term::Ret => {
            emu.commit_term_ret(pc)?;
            let byte = encode_branch(Some(BranchEvent {
                taken: true,
                kind: BranchEventKind::Ret,
                is_prob: false,
            }));
            w.emit_record(pc, byte, 0, 0);
            return Ok(done as u64 + 1);
        }
        Term::Prob { prob, target } => {
            // Probabilistic resolution through the shared path
            // (`resolve_prob_jump`), committed inline: every paper
            // kernel crosses one per hot-loop iteration, and the
            // interpreter round trip it used to pay is pure dispatch
            // overhead on top of the resolution itself.
            let (taken, kind) = emu.commit_term_prob(prob, pc, target);
            let byte = encode_branch(Some(BranchEvent {
                taken,
                kind,
                is_prob: true,
            }));
            w.emit_record(pc, byte, 0, 0);
            return Ok(done as u64 + 1);
        }
        Term::Other => {
            // `halt`: one interpreter step through the shared record
            // path.
            let rec = emu
                .step_decoded()?
                .expect("machine cannot be halted at a block terminator");
            let (istall, dlat) = record_costs(presim, timings, itouched, pcs_per_line, &rec);
            w.emit_record(rec.pc, encode_branch(rec.branch), istall, dlat);
            return Ok(done as u64 + 1);
        }
    };
    emu.commit_term_branch(pc, target, taken);
    let byte = encode_branch(Some(BranchEvent {
        taken,
        kind,
        is_prob: false,
    }));
    w.emit_record(pc, byte, 0, 0);
    Ok(done as u64 + 1)
}

impl TraceStream {
    /// The block-compiled tier of [`fill`](TraceStream::fill): dispatch
    /// on the pc, execute warm blocks natively with bulk emission, and
    /// single-step everything else (cold blocks, rare ops, budget
    /// tails, mid-block resume points) through the interpreter.
    pub(crate) fn fill_block(&mut self, chunk: &mut TraceChunk) -> Result<bool, EmuError> {
        chunk.clear();
        if self.halted {
            return Ok(false);
        }
        crate::cancel::check_current()?;
        // Cap the chunk at the remaining instruction budget so the
        // limit trips at exactly the same dynamic instruction as the
        // interpreter tier (blocks never straddle the budget: the
        // dispatch below falls back to single steps for the tail).
        let budget = (self.max_insts - self.executed).clamp(1, TRACE_CHUNK_RECORDS as u64);
        // The 64 Ki-instruction cancellation stride, threaded through
        // block execution so `--cell-deadline-ms` cancels long captures
        // promptly even if chunks ever outgrow the stride.
        let mut next_poll = CANCEL_STRIDE;
        let TraceStream {
            emu,
            presim,
            timings,
            itouched,
            pcs_per_line,
            blocks,
            warm_blocks,
            dlat_scratch,
            ..
        } = self;
        let blocks = blocks
            .as_ref()
            .expect("fill_block requires compiled blocks");
        let pcs_per_line = *pcs_per_line;
        let mut w = chunk.begin_fill(budget as usize);
        // Run the dispatch loop to completion or first error, then trim
        // the pre-sized streams either way — a fault must leave the
        // chunk holding exactly the records emitted before it.
        let run = (|| -> Result<(), EmuError> {
            while w.written() < budget && !emu.is_halted() {
                if w.written() >= next_poll {
                    crate::cancel::check_current()?;
                    next_poll = w.written() + CANCEL_STRIDE;
                }
                if let Some(i) = blocks.idx_at(emu.pc()) {
                    let b = blocks.block(i);
                    // Warmth is monotonic (`itouched` lines are only
                    // ever set), so a block found warm once is warm
                    // forever — cache the verdict and skip the line
                    // scan.
                    let warm = warm_blocks[i] || {
                        let v = block_warm(itouched, pcs_per_line, b);
                        warm_blocks[i] = v;
                        v
                    };
                    if warm && b.records() <= budget - w.written() {
                        exec_block(
                            emu,
                            presim,
                            timings,
                            itouched,
                            pcs_per_line,
                            &mut w,
                            b,
                            dlat_scratch,
                        )?;
                        continue;
                    }
                }
                match emu.step_decoded()? {
                    Some(rec) => {
                        let (istall, dlat) =
                            record_costs(presim, timings, itouched, pcs_per_line, &rec);
                        w.emit_record(rec.pc, encode_branch(rec.branch), istall, dlat);
                    }
                    None => break,
                }
            }
            Ok(())
        })();
        let emitted = w.written();
        let (written, open_run) = w.finish();
        chunk.end_fill(written, open_run);
        run?;
        if emitted == 0 {
            self.halted = true;
            return Ok(false);
        }
        self.executed += emitted;
        if self.executed >= self.max_insts {
            self.halted = true;
            return Err(EmuError::InstLimitExceeded {
                limit: self.max_insts,
            });
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probranch_isa::{ProgramBuilder, Reg};

    fn decode(build: impl FnOnce(&mut ProgramBuilder)) -> DecodedProgram {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        DecodedProgram::of(&b.build().unwrap())
    }

    #[test]
    fn straight_line_program_compiles_to_one_block() {
        let d = decode(|b| {
            b.li(Reg::R1, 1);
            b.li(Reg::R2, 2);
            b.add(Reg::R3, Reg::R1, Reg::R2);
            b.halt();
        });
        let p = BlockProgram::compile(&d);
        assert_eq!(p.compiled_blocks(), 1);
        let b = p.at(0).unwrap();
        assert_eq!(b.body_len, 3);
        assert!(matches!(b.term, Some(Term::Other)), "halt terminator");
    }

    #[test]
    fn rare_ops_split_blocks_and_stay_uncompiled() {
        let d = decode(|b| {
            b.li(Reg::R1, 7);
            b.out(Reg::R1, 0);
            b.li(Reg::R2, 8);
            b.halt();
        });
        let p = BlockProgram::compile(&d);
        // [li] | out (rare, single-stepped) | [li] halt
        assert_eq!(p.compiled_blocks(), 2);
        assert!(p.at(0).is_some());
        assert!(p.at(1).is_none());
        assert!(p.at(2).is_some());
        assert!(p.at(0).unwrap().term.is_none());
        assert!(p.at(2).unwrap().term.is_some());
    }

    #[test]
    fn branch_targets_become_leaders() {
        let d = decode(|b| {
            let top = b.label("top");
            b.li(Reg::R1, 0);
            b.bind(top);
            b.add(Reg::R1, Reg::R1, 1);
            b.br(probranch_isa::CmpOp::Lt, Reg::R1, 10, top);
            b.halt();
        });
        let p = BlockProgram::compile(&d);
        // [li] | [add] br | halt (control leader: terminator-only)
        assert_eq!(p.compiled_blocks(), 3);
        let head = p.at(0).unwrap();
        assert_eq!(head.body_len, 1);
        assert!(head.term.is_none(), "body splits at the loop-top leader");
        let body = p.at(1).unwrap();
        assert_eq!(body.body_len, 1);
        assert!(
            matches!(body.term, Some(Term::BrRI { .. })),
            "back-edge branch executes inline"
        );
        let tail = p.at(3).unwrap();
        assert_eq!(tail.body_len, 0, "lone control op compiles bodyless");
        assert!(matches!(tail.term, Some(Term::Other)));
    }
}
