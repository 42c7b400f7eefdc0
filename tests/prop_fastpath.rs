//! Differential property tests for the interpreter's uninstrumented
//! route.
//!
//! `Machine::run` has two routes: the instrumented step-by-step path
//! (`Machine::step`, whenever a sampler, tracer or fault injector is
//! attached) and the superblock engine (pre-decoded, cached basic
//! blocks) everywhere else. The engine must be *observationally
//! identical* to the step reference on every program: same exit
//! sequence (including `StepLimit` boundaries at arbitrary chunk sizes),
//! same clock, same performance counters, same registers, same memory
//! and resident-page accounting, same LBR records.
//!
//! The reference executor here is the same `Machine` with a passive
//! execution trace attached: tracing forces the step path but records
//! without perturbing any simulated state, so any divergence is a
//! block-engine bug.
//!
//! The block engine additionally caches decoded blocks across runs, so
//! a dedicated property drives it with `Machine::invalidate_blocks`
//! fired between every resume: invalidation must be a pure cache event
//! with zero effect on simulated state.

mod common;

use common::{gen_program, machine_for, GenProgram, POOL, RB, REGION_WORDS};
use proptest::prelude::*;
use reach_sim::isa::{AluOp, Cond, ProgramBuilder, Reg};
use reach_sim::{Context, Exit, Machine, Program, Trace};

/// Which dispatch tier a differential run pins `Machine::run` to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Engine {
    /// Instrumented step-by-step reference (passive trace attached).
    Slow,
    /// Superblock engine (the uninstrumented route).
    Blocks,
    /// Superblock engine with the block cache invalidated between every
    /// resume: each chunk recompiles from a cold cache. Exercises
    /// mid-run invalidation (the hot-swap path) at every `StepLimit`,
    /// yield and stall boundary.
    BlocksInvalidated,
}

/// Drives `prog` to completion in `chunk`-step slices, self-resuming
/// yields and waiting out parked stalls exactly like
/// [`Machine::run_to_completion`], and returns every observed exit.
fn drive(
    m: &mut Machine,
    prog: &Program,
    ctx: &mut Context,
    chunk: u64,
    invalidate: bool,
) -> Vec<Exit> {
    let mut exits = Vec::new();
    for _ in 0..1_000_000u32 {
        if invalidate {
            m.invalidate_blocks();
        }
        let e = m.run(prog, ctx, chunk).expect("clean run");
        exits.push(e);
        match e {
            Exit::Done => return exits,
            Exit::Stalled { ready } => {
                let residual = ready.saturating_sub(m.now);
                m.now += residual;
                m.counters.stall_cycles += residual;
            }
            Exit::Yielded { .. } | Exit::StepLimit => {}
        }
    }
    panic!("generated program did not terminate");
}

/// Observable machine state after a run: everything the uninstrumented
/// tiers could plausibly get wrong.
#[derive(Debug, PartialEq)]
struct Observed {
    exits: Vec<Exit>,
    now: u64,
    counters: reach_sim::PerfCounters,
    regs: [u64; 32],
    mem: Vec<u64>,
    resident_pages: usize,
    lbr: Vec<reach_sim::BranchRecord>,
    ctx_insts: u64,
}

fn observe(
    g: &GenProgram,
    prog: &Program,
    chunk: u64,
    switch_on_stall: bool,
    lbr: bool,
    engine: Engine,
) -> Observed {
    let (mut m, mut ctx) = machine_for(g);
    m.switch_on_stall = switch_on_stall;
    m.lbr_enabled = lbr;
    if engine == Engine::Slow {
        m.trace = Some(Trace::new(1 << 12));
    }
    let invalidate = engine == Engine::BlocksInvalidated;
    let exits = drive(&mut m, prog, &mut ctx, chunk, invalidate);
    let resident_pages = m.mem.resident_pages();
    let mem: Vec<u64> = (0..REGION_WORDS + POOL.len() as u64)
        .map(|k| m.mem.read(common::BASE + k * 8).expect("aligned"))
        .collect();
    Observed {
        exits,
        now: m.now,
        counters: m.counters.clone(),
        regs: ctx.regs,
        mem,
        resident_pages,
        lbr: m.lbr.snapshot(),
        ctx_insts: ctx.stats.instructions,
    }
}

/// A fixed program exercising the block-engine arms the generator doesn't
/// emit: call/ret (three deep via a loop), prefetch, and a yield inside
/// the callee — so step budgets can expire mid-call.
fn call_prog() -> Program {
    let r_cnt = Reg(0);
    let r_one = Reg(1);
    let r_v = Reg(2);
    let mut b = ProgramBuilder::new("callprog");
    let f = b.label();
    let top = b.label();
    let done = b.label();
    b.imm(r_cnt, 3).imm(r_one, 1);
    b.bind(top);
    b.branch(Cond::Eqz, r_cnt, done);
    b.call(f);
    b.alu(AluOp::Sub, r_cnt, r_cnt, r_one, 1);
    b.jump(top);
    b.bind(done);
    b.halt();
    b.bind(f);
    b.prefetch(RB, 64);
    b.load(r_v, RB, 0);
    b.push(reach_sim::Inst::Yield {
        kind: reach_sim::isa::YieldKind::Manual,
        save_regs: None,
    });
    b.store(r_v, RB, 8);
    b.ret();
    b.finish().expect("call program is well-formed")
}

/// Length of the accumulation chain in [`chain_prog`]: the decoder folds
/// it into a single run-length op whose retirement count alone exceeds
/// most step budgets, so blocks holding it are cut and their tails run
/// through `step`.
const CHAIN: usize = 200;

/// A fixed program whose callee holds a [`CHAIN`]-long `acc += one`
/// accumulation chain followed by a yield, called from a three-trip loop.
fn chain_prog() -> Program {
    let r_cnt = Reg(0);
    let r_one = Reg(1);
    let r_acc = Reg(2);
    let r_v = Reg(3);
    let mut b = ProgramBuilder::new("chainprog");
    let f = b.label();
    let top = b.label();
    let done = b.label();
    b.imm(r_cnt, 3).imm(r_one, 1);
    b.bind(top);
    b.branch(Cond::Eqz, r_cnt, done);
    b.call(f);
    b.alu(AluOp::Sub, r_cnt, r_cnt, r_one, 1);
    b.jump(top);
    b.bind(done);
    b.halt();
    b.bind(f);
    b.load(r_v, RB, 0);
    for _ in 0..CHAIN {
        b.alu(AluOp::Add, r_acc, r_acc, r_one, 1);
    }
    b.push(reach_sim::Inst::Yield {
        kind: reach_sim::isa::YieldKind::Manual,
        save_regs: None,
    });
    b.store(r_acc, RB, 8);
    b.ret();
    b.finish().expect("chain program is well-formed")
}

/// Every step budget from one instruction to past the chain's block
/// cuts the chain block at a different point; each cut must land on the
/// same instruction, clock and counters as the step reference.
#[test]
fn block_engine_matches_on_budget_cut_chains() {
    let g = GenProgram {
        prog: chain_prog(),
        init_words: vec![7; REGION_WORDS as usize],
    };
    for chunk in 1..=256u64 {
        for (switch_on_stall, lbr) in [(false, false), (false, true), (true, false), (true, true)] {
            let slow = observe(&g, &g.prog, chunk, switch_on_stall, lbr, Engine::Slow);
            let blocks = observe(&g, &g.prog, chunk, switch_on_stall, lbr, Engine::Blocks);
            assert_eq!(
                slow, blocks,
                "chunk {chunk}, switch_on_stall {switch_on_stall}, lbr {lbr}"
            );
        }
    }
    let full = observe(&g, &g.prog, 1 << 20, false, false, Engine::Slow);
    assert_eq!(full.regs[2], 3 * CHAIN as u64, "chain checksum");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn block_engine_matches_instrumented_path(
        g in gen_program(),
        chunk in prop_oneof![1u64..64, Just(1_000_000u64)],
        switch_on_stall in any::<bool>(),
        lbr in any::<bool>(),
    ) {
        let slow = observe(&g, &g.prog, chunk, switch_on_stall, lbr, Engine::Slow);
        let blocks = observe(&g, &g.prog, chunk, switch_on_stall, lbr, Engine::Blocks);
        prop_assert_eq!(&slow.exits, &blocks.exits, "exit sequences diverge");
        prop_assert_eq!(slow, blocks);
    }

    #[test]
    fn mid_run_invalidation_never_changes_state(
        g in gen_program(),
        chunk in prop_oneof![1u64..64, Just(1_000_000u64)],
        switch_on_stall in any::<bool>(),
        lbr in any::<bool>(),
    ) {
        let warm = observe(&g, &g.prog, chunk, switch_on_stall, lbr, Engine::Blocks);
        let cold = observe(
            &g, &g.prog, chunk, switch_on_stall, lbr, Engine::BlocksInvalidated,
        );
        prop_assert_eq!(warm, cold, "invalidation perturbed simulated state");
    }

    #[test]
    fn block_engine_matches_on_calls_and_prefetches(
        chunk in 1u64..24,
        switch_on_stall in any::<bool>(),
        lbr in any::<bool>(),
    ) {
        let g = GenProgram { prog: call_prog(), init_words: vec![7; REGION_WORDS as usize] };
        let slow = observe(&g, &g.prog, chunk, switch_on_stall, lbr, Engine::Slow);
        let blocks = observe(&g, &g.prog, chunk, switch_on_stall, lbr, Engine::Blocks);
        prop_assert_eq!(slow, blocks);
    }
}
