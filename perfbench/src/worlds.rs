//! The benchmark's own inputs.
//!
//! Every world is laid out here, from the `reach_workloads` generators,
//! with parameters pinned in this file and generator seeds derived from
//! the benchmark's `--seed`. Nothing comes from the experiment harness,
//! so an edit to an experiment cannot move the benchmark.
//!
//! A world is laid out once per set-up and kept *pristine*: every timed
//! op runs on a clone of the pristine [`Machine`], so no op pays for
//! laying out data and every op starts from the same cold caches at
//! cycle 0. That is what makes each op's simulated counters repeat
//! exactly.

use reach_core::{pgo_pipeline, DeployedBuild, InstrumentedBinary, PipelineOptions, Rung};
use reach_profile::Periods;
use reach_sim::{Exit, Machine, MachineConfig, MultiCoreConfig, Program};
use reach_workloads::{
    build_chase, build_hash, build_multi_chase, build_tiered, build_zipf_kv, AddrAlloc,
    ChaseParams, HashParams, InstanceSetup, MultiChaseParams, TieredParams, ZipfKvParams,
};

/// Where every layout starts: above the null page.
pub const LAYOUT_BASE: u64 = 0x10_0000;

/// The program suite `build` and `batch` cycle through, in op order.
pub const PROGRAMS: [&str; 5] = ["chase", "multi", "hash", "zipf", "tiered"];

/// Context id of the profiling instance.
pub const PROF_ID: usize = 9;

/// Step budget for one instance run to completion.
pub const MAX_STEPS: u64 = 50_000_000;

/// The simulated core every world runs on: the default latencies and
/// associativities with the cache capacities scaled down 4× (L1) and 8×
/// (L2) and 32× (L3), so the simulator's own cache metadata stays
/// resident in the host's caches and a neighbour's memory traffic moves
/// host times less. The data sizes below are chosen against these
/// capacities.
pub fn machine_config() -> MachineConfig {
    let mut cfg = MachineConfig::default();
    cfg.l1.size_bytes = 8 * 1024;
    cfg.l2.size_bytes = 64 * 1024;
    cfg.l3.size_bytes = 256 * 1024;
    cfg
}

/// The fleet's cores: [`machine_config`] each, with the shared L3 sized
/// to match.
pub fn fleet_config() -> MultiCoreConfig {
    let core = machine_config();
    MultiCoreConfig {
        shared_l3_lines: (core.l3.size_bytes / core.line_bytes) as u64,
        core,
        ..MultiCoreConfig::new(SHARDS)
    }
}

/// SplitMix64 finaliser: derives an independent generator seed for
/// stream `k` of benchmark seed `seed`.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One suite program laid out on a pristine machine: two evaluation
/// instances (the `batch` pair) and one profiling instance (the `build`
/// input), each over disjoint data.
pub struct ProgramWorld {
    /// Suite name.
    pub name: &'static str,
    /// Data laid out, caches cold, clock at 0. Clone it; never run it.
    pub pristine: Machine,
    /// The original program.
    pub prog: Program,
    /// The two instances `batch` interleaves.
    pub eval: [InstanceSetup; 2],
    /// The instance `build` profiles.
    pub prof: InstanceSetup,
}

/// Lays out suite program `name` for benchmark seed `seed`.
///
/// # Panics
///
/// Panics on a name outside [`PROGRAMS`].
pub fn program_world(name: &'static str, seed: u64) -> ProgramWorld {
    let k = PROGRAMS
        .iter()
        .position(|&p| p == name)
        .expect("suite program") as u64;
    let s = mix(seed, k);
    let mut m = Machine::new(machine_config());
    let mut alloc = AddrAlloc::new(LAYOUT_BASE);
    let w = match name {
        "chase" => build_chase(
            &mut m.mem,
            &mut alloc,
            ChaseParams {
                nodes: 1024,
                hops: 1024,
                node_stride: 256,
                work_per_hop: 20,
                work_insts: 1,
                seed: s,
            },
            3,
        ),
        "multi" => build_multi_chase(
            &mut m.mem,
            &mut alloc,
            MultiChaseParams {
                chains: 4,
                nodes: 512,
                hops: 512,
                node_stride: 256,
                seed: s,
            },
            3,
        ),
        "hash" => build_hash(
            &mut m.mem,
            &mut alloc,
            HashParams {
                capacity: 1 << 15,
                occupied: 20_000,
                lookups: 1024,
                hit_fraction: 0.8,
                seed: s,
            },
            3,
        ),
        "zipf" => build_zipf_kv(
            &mut m.mem,
            &mut alloc,
            ZipfKvParams {
                table_entries: 1 << 16,
                lookups: 1024,
                theta: 0.9,
                seed: s,
            },
            3,
        ),
        "tiered" => build_tiered(
            &mut m.mem,
            &mut alloc,
            &TieredParams {
                // L1-, L2- and L3-resident sites and one that misses
                // the simulated L3, against `machine_config`.
                site_words: vec![1 << 9, 1 << 12, 1 << 14, 1 << 17],
                iters: 2048,
                seed: s,
            },
            3,
        ),
        _ => unreachable!("position() above accepted {name}"),
    };
    let [a, b, prof]: [InstanceSetup; 3] = w.instances.try_into().expect("three instances");
    ProgramWorld {
        name,
        pristine: m,
        prog: w.prog,
        eval: [a, b],
        prof,
    }
}

/// The pipeline configuration every build runs: the library defaults,
/// translation validation and the lint gate on.
pub fn pipeline_opts() -> PipelineOptions {
    PipelineOptions::default()
}

/// Runs `prog` over `insts` one after another on a clone of `pristine`
/// (yields are no-ops); returns the cycles taken, or `None` when an
/// instance fails or ends with a wrong checksum.
pub fn sequential_cycles(
    pristine: &Machine,
    prog: &Program,
    insts: &[InstanceSetup],
) -> Option<u64> {
    let mut m = pristine.clone();
    for (i, setup) in insts.iter().enumerate() {
        let mut ctx = setup.make_context(i);
        let exit = m.run_to_completion(prog, &mut ctx, MAX_STEPS).ok()?;
        if exit != Exit::Done || !setup.checksum_ok(&ctx) {
            return None;
        }
    }
    Some(m.now)
}

/// Shard count of the serving fleet.
pub const SHARDS: usize = 2;

/// Live instances per shard: the primary and scavenger contexts cycle
/// through them.
pub const LIVE_INSTANCES: usize = 48;

/// Profiling instances per shard (used only if a shard rebuilds).
pub const PROF_INSTANCES: usize = 4;

/// The key-sharded zipf-KV fleet: every core holds its own table, with
/// one program image fleet-wide, and one initial build that every shard
/// deploys.
pub struct ServeWorld {
    /// One pristine core per shard.
    pub pristine: Vec<Machine>,
    /// The original program.
    pub orig: Program,
    /// The build every shard starts serving.
    pub initial: DeployedBuild,
    /// Per-shard live instances.
    pub live: Vec<Vec<InstanceSetup>>,
    /// Per-shard profiling instances.
    pub prof: Vec<Vec<InstanceSetup>>,
}

/// Sampling periods of the serving world's builds: short, so the small
/// profiling instances still give the cost model a usable profile.
pub fn serve_periods() -> Periods {
    Periods {
        l2_miss: 13,
        l3_miss: 13,
        stall: 13,
        retired: 13,
    }
}

/// Lays out the serving world for benchmark seed `seed` and makes the
/// initial build on a clone of core 0.
///
/// # Panics
///
/// Panics if the pipeline refuses the initial build, which would be a
/// benchmark configuration bug.
pub fn serve_world(seed: u64) -> ServeWorld {
    let mut pristine = Vec::new();
    let mut live = Vec::new();
    let mut prof = Vec::new();
    let mut orig: Option<Program> = None;
    for s in 0..SHARDS {
        let mut m = Machine::new(machine_config());
        let mut alloc = AddrAlloc::new(LAYOUT_BASE);
        let params = |stream: u64| ZipfKvParams {
            table_entries: 1 << 15,
            lookups: 1024,
            theta: 3.0,
            seed: mix(seed, 100 + 10 * s as u64 + stream),
        };
        let l = build_zipf_kv(&mut m.mem, &mut alloc, params(0), LIVE_INSTANCES);
        let p = build_zipf_kv(&mut m.mem, &mut alloc, params(1), PROF_INSTANCES);
        match &orig {
            None => orig = Some(l.prog.clone()),
            Some(o) => assert_eq!(
                o.fingerprint(),
                l.prog.fingerprint(),
                "one program fleet-wide"
            ),
        }
        pristine.push(m);
        live.push(l.instances);
        prof.push(p.instances);
    }
    let orig = orig.expect("at least one shard");
    let mut opts = pipeline_opts();
    opts.collector.periods = serve_periods();
    let mut m = pristine[0].clone();
    let mut ctxs: Vec<_> = prof[0][..2]
        .iter()
        .enumerate()
        .map(|(i, p)| p.make_context(PROF_ID + i))
        .collect();
    let built = pgo_pipeline(&mut m, &orig, &mut ctxs, &opts).expect("initial serving build");
    ServeWorld {
        pristine,
        orig,
        initial: deployed(built),
        live,
        prof,
    }
}

/// A full-PGO pipeline result as a deployable build.
pub fn deployed(b: InstrumentedBinary) -> DeployedBuild {
    DeployedBuild {
        prog: b.prog,
        origin: b.origin,
        rung: Rung::FullPgo,
        profile: Some(b.profile),
    }
}
