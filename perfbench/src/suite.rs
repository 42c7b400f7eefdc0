//! The `build` and `batch` workloads over the five-program suite.
//!
//! * `build`: one op is `pgo_pipeline` (verify on) for one suite
//!   program, on a clone of its pristine machine, round-robin. The
//!   output must have the reference fingerprint, lint clean, and the
//!   profiled instance must end with its predicted checksum.
//! * `batch`: one op is `run_interleaved` of the program's two
//!   evaluation instances over its instrumented binary, on a clone of
//!   its pristine machine with no samplers armed (the superblock tier).
//!   Both instances must complete with their predicted checksums.
//!
//! Either op must also reproduce its reference simulated counters
//! exactly.

use crate::common::{metric, ns_since, segmented, Budget, E2e, Metric, SimCounters, SimE2e};
use crate::trace::Tracer;
use crate::worlds::{
    pipeline_opts, program_world, sequential_cycles, ProgramWorld, MAX_STEPS, PROF_ID, PROGRAMS,
};
use reach_core::{pgo_pipeline, run_interleaved, InstrumentedBinary, InterleaveOptions};
use reach_sim::BlockCacheStats;
use std::time::Instant;

/// One suite program with its reference outputs, all taken at set-up.
pub struct SuiteProgram {
    /// The laid-out program.
    pub world: ProgramWorld,
    /// The reference build.
    pub built: InstrumentedBinary,
    /// Fingerprint every `build` op must reproduce.
    pub fingerprint: u64,
    /// Counters of the reference `build` op (the profiling run).
    pub build_ref: SimCounters,
    /// Counters of the reference `batch` op.
    pub batch_ref: SimCounters,
    /// Cycles to run the two evaluation instances one after another on
    /// the original program.
    pub seq_cycles: u64,
}

/// The whole suite.
pub struct Suite {
    /// In [`PROGRAMS`] order.
    pub programs: Vec<SuiteProgram>,
}

/// What one op did.
pub struct OpResult {
    /// Host ns of the timed call alone.
    pub ns: u64,
    /// Finished and passed every check.
    pub ok: bool,
    /// Passed every check but the comparison with the reference
    /// counters (how set-up takes the reference).
    pub checks_ok: bool,
    /// Simulated counters of the op's machine.
    pub counters: SimCounters,
    /// Block-cache statistics of the op's machine.
    pub blocks: BlockCacheStats,
    /// Switches performed (`batch` only).
    pub switches: u64,
}

/// Lays out the suite and takes every reference.
///
/// # Panics
///
/// Panics if a reference build or run fails: the inputs are pinned, so
/// that is a benchmark bug, not a measurement.
pub fn setup(seed: u64) -> Suite {
    let programs = PROGRAMS
        .iter()
        .map(|&name| {
            let world = program_world(name, seed);
            let mut m = world.pristine.clone();
            let mut ctx = [world.prof.make_context(PROF_ID)];
            let built = pgo_pipeline(&mut m, &world.prog, &mut ctx, &pipeline_opts())
                .unwrap_or_else(|e| panic!("{name}: reference build refused: {e}"));
            assert!(
                built.lint_report.is_clean(),
                "{name}: reference build lints"
            );
            assert!(world.prof.checksum_ok(&ctx[0]), "{name}: profiled checksum");
            let seq_cycles = sequential_cycles(&world.pristine, &world.prog, &world.eval)
                .unwrap_or_else(|| panic!("{name}: sequential reference run failed"));
            let mut p = SuiteProgram {
                fingerprint: built.prog.fingerprint(),
                built,
                build_ref: SimCounters::of(&m),
                batch_ref: SimCounters::default(),
                seq_cycles,
                world,
            };
            let first = batch_op(&p);
            assert!(first.checks_ok, "{name}: reference interleaved run failed");
            p.batch_ref = first.counters;
            p
        })
        .collect();
    Suite { programs }
}

/// Runs the profiling instance's pipeline on a clone; the timer covers
/// `pgo_pipeline` alone.
pub fn build_op(p: &SuiteProgram) -> OpResult {
    let mut m = p.world.pristine.clone();
    let mut ctx = [p.world.prof.make_context(PROF_ID)];
    let t = Instant::now();
    let res = pgo_pipeline(&mut m, &p.world.prog, &mut ctx, &pipeline_opts());
    let ns = ns_since(t);
    let counters = SimCounters::of(&m);
    let checks_ok = res
        .is_ok_and(|b| b.prog.fingerprint() == p.fingerprint && b.lint_report.is_clean())
        && p.world.prof.checksum_ok(&ctx[0]);
    OpResult {
        ns,
        ok: checks_ok && counters == p.build_ref,
        checks_ok,
        counters,
        blocks: m.block_cache.stats,
        switches: 0,
    }
}

/// Interleaves the two evaluation instances on a clone; the timer covers
/// `run_interleaved` alone.
pub fn batch_op(p: &SuiteProgram) -> OpResult {
    batch_op_traced(p, None)
}

/// [`batch_op`], recording the `run_interleaved` call as a
/// `core.executor` span of op `op` when a tracer is given.
pub fn batch_op_traced(p: &SuiteProgram, tracer: Option<(&mut Tracer, u64)>) -> OpResult {
    let mut m = p.world.pristine.clone();
    let mut ctxs = [
        p.world.eval[0].make_context(0),
        p.world.eval[1].make_context(1),
    ];
    let opts = InterleaveOptions {
        max_steps_per_ctx: MAX_STEPS,
        ..InterleaveOptions::default()
    };
    let t = Instant::now();
    let res = match tracer {
        None => run_interleaved(&mut m, &p.built.prog, &mut ctxs, &opts),
        Some((tr, op)) => {
            let id = tr.open("core.executor", op, None);
            let res = run_interleaved(&mut m, &p.built.prog, &mut ctxs, &opts);
            tr.close(id);
            res
        }
    };
    let ns = ns_since(t);
    let counters = SimCounters::of(&m);
    let switches = res.as_ref().map_or(0, |r| r.switches);
    let checks_ok = res.is_ok_and(|r| r.completed == 2)
        && p.world
            .eval
            .iter()
            .zip(&ctxs)
            .all(|(s, c)| s.checksum_ok(c));
    OpResult {
        ns,
        ok: checks_ok && counters == p.batch_ref,
        checks_ok,
        counters,
        blocks: m.block_cache.stats,
        switches,
    }
}

/// Which suite op a loop runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuiteOp {
    /// `pgo_pipeline`.
    Build,
    /// `run_interleaved`.
    Batch,
}

impl SuiteOp {
    /// Runs one op of this kind.
    pub fn run(self, p: &SuiteProgram) -> OpResult {
        match self {
            SuiteOp::Build => build_op(p),
            SuiteOp::Batch => batch_op(p),
        }
    }

    fn reference(self, p: &SuiteProgram) -> SimCounters {
        match self {
            SuiteOp::Build => p.build_ref,
            SuiteOp::Batch => p.batch_ref,
        }
    }
}

/// Per-program host times and failure counts of a measured loop.
#[derive(Default)]
pub struct LoopStats {
    /// Per program, per-op host ns.
    pub ns: Vec<Vec<u64>>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
}

/// Runs whole passes over the suite (one op per program, in order)
/// until the budget is spent.
pub fn measure(suite: &Suite, op: SuiteOp, budget: Budget) -> LoopStats {
    let mut st = LoopStats {
        ns: vec![Vec::new(); suite.programs.len()],
        ..LoopStats::default()
    };
    let start = Instant::now();
    let mut passes = 0;
    while budget.more(start, passes) {
        for (i, p) in suite.programs.iter().enumerate() {
            let r = op.run(p);
            st.ns[i].push(r.ns);
            st.attempted += 1;
            st.failed += u64::from(!r.ok);
        }
        passes += 1;
    }
    st
}

/// The simulated end-to-end metrics of one pass of `op`, from the
/// references every op was checked against. Every op of a program
/// repeats its reference, so each program's per-op cycle percentiles
/// equal its reference cycles; like `host_ms_p1`, `sim_cycles_p50`
/// and `sim_cycles_p99` sum them over the suite.
pub fn sim_e2e(suite: &Suite, op: SuiteOp) -> (SimE2e, SimCounters) {
    let mut total = SimCounters::default();
    for p in &suite.programs {
        total.add(&op.reference(p));
    }
    let seq: u64 = suite.programs.iter().map(|p| p.seq_cycles).sum();
    let inter: u64 = suite.programs.iter().map(|p| p.batch_ref.cycles).sum();
    let sim = SimE2e {
        cycles_per_op: total.cycles as f64,
        insts_per_op: total.insts as f64,
        cycles_p50: total.cycles,
        cycles_p99: total.cycles,
        speedup: seq as f64 / inter as f64,
    };
    (sim, total)
}

/// The end-to-end result of loop `st` of `op` over `suite`.
pub fn e2e(suite: &Suite, op: SuiteOp, setup_s: f64, st: LoopStats) -> E2e {
    let (sim, counters) = sim_e2e(suite, op);
    E2e {
        setup_s,
        attempted: st.attempted,
        failed: st.failed,
        host_ns: st.ns,
        sim,
        counters,
    }
}

/// Measures `op` in segments, each on a freshly set-up suite. Every
/// segment must reproduce the first one's simulated metrics; a segment
/// that does not fails all its ops.
pub fn run(seed: u64, op: SuiteOp, budget: Budget) -> E2e {
    let mut st = LoopStats {
        ns: vec![Vec::new(); PROGRAMS.len()],
        ..LoopStats::default()
    };
    let mut first = None;
    let (suite, setup_s) = segmented(
        budget,
        || setup(seed),
        |suite, seg| {
            let mut s = measure(suite, op, seg);
            let sim = sim_e2e(suite, op);
            if *first.get_or_insert_with(|| sim.clone()) != sim {
                s.failed = s.attempted;
            }
            st.attempted += s.attempted;
            st.failed += s.failed;
            for (all, seg_ns) in st.ns.iter_mut().zip(s.ns) {
                all.extend(seg_ns);
            }
        },
    );
    e2e(&suite, op, setup_s, st)
}

/// Block-cache and executor counters of one `batch` pass, for the trace.
pub fn batch_layer_counts(results: &[OpResult]) -> Vec<Metric> {
    let mut b = BlockCacheStats::default();
    let mut switches = 0;
    for r in results {
        b.compiled += r.blocks.compiled;
        b.hits += r.blocks.hits;
        b.misses += r.blocks.misses;
        b.invalidations += r.blocks.invalidations;
        switches += r.switches;
    }
    vec![
        metric("sim.blocks.compiled", b.compiled as f64, "count"),
        metric("sim.blocks.hits", b.hits as f64, "count"),
        metric("sim.blocks.misses", b.misses as f64, "count"),
        metric("sim.blocks.invalidations", b.invalidations as f64, "count"),
        metric("core.executor.switches", switches as f64, "count"),
    ]
}
