//! The `serve` workload: supervised serving on a steady two-shard
//! zipf-KV fleet.
//!
//! Arrivals are an open loop in simulated time: one request per shard
//! per epoch, each ingressing at the owner's neighbour (so every request
//! is forwarded), against a service rate of two jobs per shard per
//! epoch — half of saturation. There is no drift and no rollout, so no
//! shard rebuilds. Each shard's supervisor keeps its in-situ PEBS
//! sampler armed.
//!
//! One op is one served job: the host time between successive
//! `primary_context` callbacks, which covers the job's dual-mode run
//! plus the supervisor, journal and fleet work around it. A fleet run
//! is [`EPOCHS`] epochs on clones of the pristine cores; runs repeat
//! until the budget is spent, and every run must reproduce the first
//! run's simulated results exactly.

use crate::common::{ns_since, segmented, Budget, E2e, SimCounters, SimE2e};
use crate::worlds::{
    fleet_config, mix, sequential_cycles, serve_periods, serve_world, ServeWorld, MAX_STEPS,
    PROF_ID, SHARDS,
};
use reach_core::{
    percentiles, pipeline::PipelineOptions, run_fleet, run_interleaved, Arrival, DegradeOptions,
    DualModeOptions, FleetOptions, FleetReport, FleetWorkload, InterleaveOptions,
    SupervisorOptions, WatchdogOptions,
};
use reach_profile::OnlineEstimatorOptions;
use reach_sim::{Context, MultiCore};
use std::time::Instant;

/// Fleet epochs per run: two jobs per epoch, so 1000 jobs per run.
pub const EPOCHS: u64 = 500;

/// The per-shard supervisor configuration.
pub fn sup_opts() -> SupervisorOptions {
    let pipeline = PipelineOptions {
        collector: reach_profile::CollectorConfig {
            periods: serve_periods(),
            ..Default::default()
        },
        ..crate::worlds::pipeline_opts()
    };
    SupervisorOptions {
        service_per_epoch: 2,
        scavengers: 2,
        insitu_period: 31,
        estimator: OnlineEstimatorOptions {
            window: 2048,
            min_samples: 8,
        },
        staleness_threshold: 0.6,
        degrade: DegradeOptions {
            pipeline,
            ..DegradeOptions::default()
        },
        dual: dual_opts(),
        ..SupervisorOptions::default()
    }
}

/// Dual-mode options of every served job: the scavenger watchdog armed,
/// faults isolated, scavengers not drained.
pub fn dual_opts() -> DualModeOptions {
    DualModeOptions {
        drain_scavengers: false,
        isolate_faults: true,
        watchdog: Some(WatchdogOptions {
            slice_steps: 2_000,
            overrun_cycles: 500,
            max_overruns: u32::MAX,
            ..WatchdogOptions::default()
        }),
        ..DualModeOptions::default()
    }
}

/// The fleet configuration for benchmark seed `seed`.
pub fn fleet_opts(seed: u64) -> FleetOptions {
    FleetOptions {
        shards: SHARDS,
        epochs: EPOCHS,
        sup: sup_opts(),
        seed: mix(seed, 7),
        ..FleetOptions::default()
    }
}

/// The service the fleet runs: contexts cycle through each shard's live
/// instances; `primary_context` stamps the host clock.
pub struct Service<'w> {
    world: &'w ServeWorld,
    cursor: Vec<usize>,
    prof_cursor: Vec<usize>,
    /// Host ns (since the service was made) of every
    /// `primary_context` callback.
    pub stamps: Vec<u64>,
    t0: Instant,
}

impl<'w> Service<'w> {
    /// A fresh service over `world`.
    pub fn new(world: &'w ServeWorld) -> Self {
        Service {
            world,
            cursor: vec![0; SHARDS],
            prof_cursor: vec![0; SHARDS],
            stamps: Vec::with_capacity(2 * EPOCHS as usize),
            t0: Instant::now(),
        }
    }

    /// The next live context of `shard`.
    pub fn next_live(&mut self, shard: usize) -> Context {
        let live = &self.world.live[shard];
        let i = self.cursor[shard];
        self.cursor[shard] += 1;
        live[i % live.len()].make_context(1_000 + i)
    }
}

impl FleetWorkload for Service<'_> {
    fn arrivals(&mut self, epoch: u64) -> Vec<Arrival> {
        (0..SHARDS)
            .map(|i| {
                let owner = (epoch as usize + i) % SHARDS;
                Arrival {
                    ingress: (owner + 1) % SHARDS,
                    owner,
                }
            })
            .collect()
    }

    fn primary_context(&mut self, shard: usize, _job: u64) -> Context {
        self.stamps.push(ns_since(self.t0));
        self.next_live(shard)
    }

    fn scavenger_context(&mut self, shard: usize, _epoch: u64, _job: u64, _slot: usize) -> Context {
        self.next_live(shard)
    }

    fn profiling_contexts(&mut self, shard: usize, _attempt: u32) -> Vec<Context> {
        let prof = &self.world.prof[shard];
        (0..2)
            .map(|_| {
                let i = self.prof_cursor[shard];
                self.prof_cursor[shard] += 1;
                prof[i % prof.len()].make_context(PROF_ID + i)
            })
            .collect()
    }
}

/// The serving world plus the set-up-time reference of its build's
/// stall-hiding speedup.
pub struct Serve {
    /// The fleet's inputs.
    pub world: ServeWorld,
    /// Options of every fleet run.
    pub opts: FleetOptions,
    /// Sequential cycles over interleaved cycles of two live instances
    /// on the deployed build.
    pub speedup: f64,
}

/// Lays out the fleet and measures its build's speedup.
///
/// # Panics
///
/// Panics if the reference runs fail (a benchmark bug).
pub fn setup(seed: u64) -> Serve {
    let world = serve_world(seed);
    let pair = &world.live[0][..2];
    let seq =
        sequential_cycles(&world.pristine[0], &world.orig, pair).expect("sequential reference");
    let mut m = world.pristine[0].clone();
    let mut ctxs: Vec<Context> = pair
        .iter()
        .enumerate()
        .map(|(i, s)| s.make_context(i))
        .collect();
    let opts = InterleaveOptions {
        max_steps_per_ctx: MAX_STEPS,
        ..InterleaveOptions::default()
    };
    let rep = run_interleaved(&mut m, &world.initial.prog, &mut ctxs, &opts)
        .expect("interleaved reference");
    assert!(
        rep.completed == 2 && pair.iter().zip(&ctxs).all(|(s, c)| s.checksum_ok(c)),
        "interleaved reference checksums"
    );
    Serve {
        opts: fleet_opts(seed),
        speedup: seq as f64 / rep.cycles as f64,
        world,
    }
}

/// What one fleet run produced.
#[derive(Clone)]
pub struct FleetRun {
    /// The fleet's report.
    pub report: FleetReport,
    /// Host ns since the run started of every `primary_context`
    /// callback.
    pub stamps: Vec<u64>,
    /// `(epoch, primary latency)` of every served job, shard by shard.
    pub latencies: Vec<(u64, u64)>,
    /// Simulated counters summed over the cores.
    pub counters: SimCounters,
}

/// One fleet run on clones of the pristine cores.
pub fn fleet_run(s: &Serve) -> FleetRun {
    let mut mc = MultiCore::new(fleet_config());
    for (core, p) in mc.cores.iter_mut().zip(&s.world.pristine) {
        *core = p.clone();
    }
    let mut svc = Service::new(&s.world);
    let report = run_fleet(
        &mut mc,
        &mut svc,
        &s.world.orig,
        s.world.initial.clone(),
        &s.opts,
    )
    .expect("validated fleet configuration");
    let mut counters = SimCounters::default();
    for c in &mc.cores {
        counters.add(&SimCounters::of(c));
    }
    FleetRun {
        latencies: report
            .shards
            .iter()
            .flat_map(|sh| sh.latencies.iter().copied())
            .collect(),
        report,
        stamps: svc.stamps,
        counters,
    }
}

impl FleetRun {
    /// True when `other` reproduced this run's simulated results: the
    /// fleet event and incident logs, every job latency and the
    /// counters.
    pub fn same_sim(&self, other: &FleetRun) -> bool {
        self.report.fleet_hash() == other.report.fleet_hash()
            && self.latencies == other.latencies
            && self.counters == other.counters
    }

    /// Host ns between successive callbacks: one per served job after
    /// the first.
    pub fn job_ns(&self) -> impl Iterator<Item = u64> + '_ {
        self.stamps.windows(2).map(|w| w[1] - w[0])
    }
}

/// Arrivals one fleet run admits.
pub fn arrivals_per_run() -> u64 {
    EPOCHS * SHARDS as u64
}

/// Arrivals of `run` that were not served cleanly: shed, timed out,
/// faulted, or still queued at the end. Every arrival fails when the
/// fleet reports an invariant violation or `reference` (the first run)
/// differs from this run in anything simulated.
pub fn failed_arrivals(run: &FleetRun, reference: Option<&FleetRun>) -> u64 {
    let rep = &run.report;
    let arrivals = arrivals_per_run();
    let mismatch = reference.is_some_and(|r| !r.same_sim(run));
    if !rep.violations.is_empty() || mismatch {
        return arrivals;
    }
    let faults: u64 = rep.shards.iter().map(|s| s.job_faults).sum();
    let good = rep.served().saturating_sub(faults);
    arrivals.saturating_sub(good)
}

/// The simulated end-to-end metrics of one fleet run.
pub fn sim_e2e(s: &Serve, run: &FleetRun) -> SimE2e {
    let lat: Vec<u64> = run.latencies.iter().map(|&(_, l)| l).collect();
    let ps = percentiles(&lat, &[0.5, 0.99]);
    let served = run.report.served().max(1) as f64;
    SimE2e {
        cycles_per_op: run.counters.cycles as f64 / served,
        insts_per_op: run.counters.insts as f64 / served,
        cycles_p50: ps[0],
        cycles_p99: ps[1],
        speedup: s.speedup,
    }
}

/// Fleet runs until the budget is spent.
pub struct ServeLoop {
    /// The first run: the reference the others must reproduce.
    pub first: FleetRun,
    /// Per-job host ns over every run.
    pub job_ns: Vec<u64>,
    /// Arrivals attempted.
    pub attempted: u64,
    /// Arrivals failed.
    pub failed: u64,
}

/// Repeats fleet runs until `budget` is spent (one run per pass).
/// Every run must reproduce `reference`, or this loop's first run when
/// there is none.
pub fn measure(s: &Serve, budget: Budget, reference: Option<&FleetRun>) -> ServeLoop {
    let start = Instant::now();
    let first = fleet_run(s);
    let mut l = ServeLoop {
        job_ns: first.job_ns().collect(),
        attempted: arrivals_per_run(),
        failed: failed_arrivals(&first, reference),
        first,
    };
    let mut passes = 1;
    while budget.more(start, passes) {
        let run = fleet_run(s);
        l.job_ns.extend(run.job_ns());
        l.attempted += arrivals_per_run();
        l.failed += failed_arrivals(&run, Some(reference.unwrap_or(&l.first)));
        passes += 1;
    }
    l
}

/// Measures the fleet in segments, each on a freshly set-up world; every
/// fleet run must reproduce the first segment's first run, and every
/// segment its stall-hiding speedup.
pub fn run(seed: u64, budget: Budget) -> E2e {
    let mut reference: Option<(FleetRun, f64)> = None;
    let mut job_ns = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let (serve, setup_s) = segmented(
        budget,
        || setup(seed),
        |serve, seg| {
            let l = measure(serve, seg, reference.as_ref().map(|r| &r.0));
            let (_, speedup) = reference.get_or_insert_with(|| (l.first.clone(), serve.speedup));
            attempted += l.attempted;
            failed += if *speedup == serve.speedup {
                l.failed
            } else {
                l.attempted
            };
            job_ns.extend(l.job_ns);
        },
    );
    let (first, _) = reference.expect("at least one segment");
    E2e {
        setup_s,
        attempted,
        failed,
        sim: sim_e2e(&serve, &first),
        counters: first.counters,
        host_ns: vec![job_ns],
    }
}
