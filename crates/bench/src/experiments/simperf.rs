//! SIMPERF: host-side interpreter throughput — how fast does the
//! simulator itself run on the machine under it?
//!
//! Every experiment, test and fault-matrix cell in this repo executes
//! through `Machine::step`/`Machine::run`, so interpreter throughput is
//! the wall-clock budget of the whole project. All other experiments
//! measure *simulated* cycles (deterministic, byte-identical across
//! hosts); this one measures the *host* side: simulated instructions
//! retired per host second, and host nanoseconds per simulated step.
//!
//! Two metric classes per cell:
//!
//! * `sim_insts` / `sim_cycles` — exact counters, deterministic, gated
//!   byte-identical by `bench_diff` like every other experiment (they
//!   double as a semantics canary for both interpreter tiers);
//! * `sim_ips` / `step_ips` / `speedup_blocks` / `host_ns_per_inst` /
//!   `host_ms` — host wall-clock measurements. These vary run to run and
//!   host to host, so CI diffs them **report-only** (see the
//!   `--report-metric` flag of `bench_diff`): the trajectory accumulates
//!   in the uploaded `BENCH_simperf.json` artifacts without flaky gating.
//!
//! The workload mix exercises the interpreter's distinct regimes:
//! dependent cold loads (pointer chase — the memory fast path), hash
//! probes over a DRAM-sized table (zipf), warm streaming loads (cache
//! fast path), a load-free ALU kernel, and a simulated-L1-resident tight
//! pointer chase — the last two are *dispatch-bound*: almost no time in
//! the simulated memory system, so they measure dispatch mechanism.
//!
//! Every cell runs the superblock engine and the `Machine::step`
//! reference **interleaved A/B, best of pairs**: each repetition times
//! both tiers back to back, so host-frequency drift hits both equally.
//! The reference is forced the way `prop_fastpath` forces it, with a
//! passive one-entry trace attached. The tiers must produce
//! byte-identical counters and clocks (asserted every rep — a free
//! differential canary on top of `prop_fastpath`); `sim_ips` reports the
//! superblock engine, `step_ips` the step tier, and `speedup_blocks`
//! step time over blocks time. Block-cache stats (`blocks_compiled`,
//! `block_hit_rate`, `block_invalidations`) ride along report-only.

use crate::experiment::{Cell, CellMetrics, Experiment, Tier};
use crate::fresh;
use reach_baselines::run_sequential;
use reach_sim::isa::{AluOp, Cond, ProgramBuilder, Reg};
use reach_sim::{CacheLevelConfig, Context, Machine, MachineConfig, Trace};
use reach_workloads::{
    build_chase, build_scan, build_zipf_kv, ChaseParams, ScanParams, ZipfKvParams,
};
use std::time::Instant;

/// Workload keys.
///
/// * `chase-hot` is the headline interpreter-throughput cell: a pointer
///   chase that misses hard in the *simulated* hierarchy (a scaled-down
///   cache geometry, see [`hot_config`]) while its data and metadata stay
///   resident in the *host* caches — so the number measures the
///   interpreter's miss path, not the benchmark host's DRAM weather.
/// * `chase-dram` / `zipf-uniform` are the same miss-heavy kernels at
///   full footprint (tens of MiB): host-memory-bound, noisier, but
///   honest about end-to-end wall clock on big workloads.
const WORKLOADS: &[&str] = &[
    "chase-hot",
    "chase-dram",
    "chase-tight",
    "zipf-uniform",
    "scan-warm",
    "alu-dense",
];

/// CI smoke subset: miss-path kernels plus the dispatch-bound kernels.
const SMOKE: &[&str] = &["chase-hot", "chase-dram", "chase-tight", "alu-dense"];

/// Step budget: large enough that per-run setup noise is negligible.
const MAX_STEPS: u64 = 1 << 26;

/// Repetitions per cell; the host metrics report the fastest rep
/// (minimum wall time), the standard way to strip scheduler noise from
/// a microbenchmark. The deterministic metrics must be identical across
/// reps — asserted, as a free determinism canary.
const REPS: usize = 3;

/// Builds the load-free ALU kernel: a counted loop of dependent 1-cycle
/// ALU ops — the regime the superblock engine's static accounting and
/// run-length folding target. Returns the machine and the host seconds
/// spent *executing* (build excluded).
fn run_alu_dense(reference: bool) -> (Machine, f64) {
    const ITERS: u64 = 200_000;
    let mut b = ProgramBuilder::new("alu_dense");
    let cnt = Reg(0);
    let one = Reg(1);
    let acc = Reg(2);
    b.imm(cnt, ITERS).imm(one, 1).imm(acc, 0);
    let top = b.label();
    b.bind(top);
    for _ in 0..16 {
        b.alu(AluOp::Add, acc, acc, one, 1);
    }
    b.alu(AluOp::Sub, cnt, cnt, one, 1);
    b.branch(Cond::Nez, cnt, top);
    b.halt();
    let prog = b.finish().expect("alu kernel is well-formed");
    let mut m = Machine::new(MachineConfig::default());
    if reference {
        m.trace = Some(Trace::new(1));
    }
    let mut ctx = Context::new(0);
    let started = Instant::now();
    let exit = m.run_to_completion(&prog, &mut ctx, MAX_STEPS).unwrap();
    let host_s = started.elapsed().as_secs_f64();
    assert_eq!(exit, reach_sim::Exit::Done);
    assert_eq!(ctx.reg(acc), 16 * ITERS, "alu kernel checksum");
    (m, host_s)
}

/// A scaled-down cache geometry (L1 8 KiB, L2 64 KiB, L3 256 KiB, same
/// associativities, line size and latencies as the default) for the
/// `chase-hot` cell: the simulated miss behaviour of a DRAM-bound chase
/// at 1/32 the host footprint.
fn hot_config() -> MachineConfig {
    let mut cfg = MachineConfig::default();
    cfg.l1 = CacheLevelConfig {
        size_bytes: 8 * 1024,
        ..cfg.l1
    };
    cfg.l2 = CacheLevelConfig {
        size_bytes: 64 * 1024,
        ..cfg.l2
    };
    cfg.l3 = CacheLevelConfig {
        size_bytes: 256 * 1024,
        ..cfg.l3
    };
    cfg
}

/// Runs one of the built workloads sequentially; the timer covers only
/// the execution phase, not workload construction or checksum checks.
fn run_workload(name: &str, reference: bool) -> (Machine, f64) {
    let cfg = if name == "chase-hot" {
        hot_config()
    } else {
        MachineConfig::default()
    };
    let (mut m, w) = fresh(&cfg, |mem, alloc| match name {
        // 8192 nodes × 64-byte stride = 512 KiB: double the (scaled)
        // simulated L3, a fraction of the host L2.
        "chase-hot" => build_chase(
            mem,
            alloc,
            ChaseParams {
                nodes: 8192,
                hops: 1 << 17,
                node_stride: 64,
                work_per_hop: 0,
                work_insts: 1,
                seed: 0x51,
            },
            1,
        ),
        "chase-dram" => build_chase(
            mem,
            alloc,
            ChaseParams {
                nodes: 8192,
                hops: 1 << 17,
                node_stride: 4096,
                work_per_hop: 0,
                work_insts: 1,
                seed: 0x51,
            },
            1,
        ),
        // 64 nodes × 64-byte stride = 4 KiB: resident in the simulated
        // L1 after one lap, so every hop is an L1 hit and the cell is
        // dispatch-bound — the tight-loop regime superblocks target.
        "chase-tight" => build_chase(
            mem,
            alloc,
            ChaseParams {
                nodes: 64,
                hops: 1 << 17,
                node_stride: 64,
                work_per_hop: 0,
                work_insts: 1,
                seed: 0x51,
            },
            1,
        ),
        "zipf-uniform" => build_zipf_kv(
            mem,
            alloc,
            ZipfKvParams {
                table_entries: 1 << 21,
                lookups: 1 << 14,
                theta: 0.0,
                seed: 0x51,
            },
            1,
        ),
        "scan-warm" => build_scan(
            mem,
            alloc,
            ScanParams {
                words: 1 << 16,
                passes: 16,
                seed: 0x51,
            },
            1,
        ),
        other => panic!("unknown simperf workload {other:?}"),
    });
    if reference {
        m.trace = Some(Trace::new(1));
    }
    let mut ctxs = w.make_contexts();
    let started = Instant::now();
    run_sequential(&mut m, &w.prog, &mut ctxs, MAX_STEPS).unwrap();
    let host_s = started.elapsed().as_secs_f64();
    for (i, c) in ctxs.iter().enumerate() {
        w.instances[i].assert_checksum(c);
    }
    (m, host_s)
}

/// The host-throughput experiment.
pub struct SimPerf;

impl Experiment for SimPerf {
    fn name(&self) -> &'static str {
        "simperf"
    }

    fn title(&self) -> &'static str {
        "SIMPERF: host-side interpreter throughput (simulated insts / host second)"
    }

    fn notes(&self) -> &'static str {
        "sim_insts/sim_cycles are deterministic and gated; sim_ips, step_ips, \
         speedup_blocks, host_ns_per_inst and host_ms are host measurements, diffed \
         report-only in CI."
    }

    fn cells(&self, tier: Tier) -> Vec<Cell> {
        WORKLOADS
            .iter()
            .filter(|w| tier == Tier::Full || SMOKE.contains(w))
            .map(|w| Cell::new(*w, "seq"))
            .collect()
    }

    fn run_cell(&self, cell: &Cell, _seed: u64) -> CellMetrics {
        let run_one = |reference: bool| match cell.workload.as_str() {
            "alu-dense" => run_alu_dense(reference),
            other => run_workload(other, reference),
        };
        let mut insts = 0u64;
        let mut cycles = 0u64;
        let mut best_blocks = f64::INFINITY;
        let mut best_step = f64::INFINITY;
        let mut bstats = reach_sim::BlockCacheStats::default();
        for rep in 0..REPS {
            let (mb, sb) = run_one(false);
            let (ms, ss) = run_one(true);
            // The two tiers must be observationally identical — this
            // doubles as a differential canary on real workloads.
            assert_eq!(
                mb.counters, ms.counters,
                "{}: engine counters diverge",
                cell
            );
            assert_eq!(mb.now, ms.now, "{}: engine clocks diverge", cell);
            if rep == 0 {
                insts = mb.counters.instructions;
                cycles = mb.now;
                bstats = mb.block_cache.stats.clone();
            } else {
                assert_eq!(
                    (mb.counters.instructions, mb.now),
                    (insts, cycles),
                    "{}: simulated metrics differ across repetitions",
                    cell
                );
            }
            best_blocks = best_blocks.min(sb);
            best_step = best_step.min(ss);
        }
        let mut out = CellMetrics::new();
        out.put_u64("sim_insts", insts)
            .put_u64("sim_cycles", cycles)
            .put_f64("sim_ips", insts as f64 / best_blocks)
            .put_f64("step_ips", insts as f64 / best_step)
            .put_f64("speedup_blocks", best_step / best_blocks)
            .put_f64("host_ns_per_inst", best_blocks * 1e9 / insts as f64)
            .put_f64("host_ms", best_blocks * 1e3)
            .put_u64("blocks_compiled", bstats.compiled)
            .put_f64("block_hit_rate", bstats.hit_rate())
            .put_u64("block_invalidations", bstats.invalidations);
        out
    }
}
