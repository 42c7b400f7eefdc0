//! The fleet supervisor: N per-core shard supervisors composed under
//! one deterministic fleet clock.
//!
//! Everything the single-shard supervisor does — dual-mode serving,
//! staleness-triggered rebuilds, circuit breaking, journaled crash
//! recovery — keeps happening *per shard*, unchanged, on that shard's
//! own core of a [`MultiCore`]. This module adds the failure modes only
//! a fleet can express, each behind an explicit, journal-auditable
//! rule:
//!
//! * **Key-sharded routing with bounded forwarding** — every request
//!   has an owner shard; requests that land elsewhere (or arrive while
//!   the owner is draining or down) wait in a bounded forwarding queue
//!   with per-request timeout and deterministic-jitter retry backoff,
//!   and are shed on overflow. No request is ever silently re-homed: a
//!   key's data lives on its owner, so serving it elsewhere would be a
//!   wrong answer, not a slow one.
//! * **Rolling re-instrumentation deploys** — one shard at a time:
//!   drain (stop admissions, serve the backlog down), build + gate the
//!   new instrumented binary, deploy, then watch a health window before
//!   touching the next shard. The whole rollout sits behind a
//!   max-unavailable=1 gate: a drain only begins while every shard is
//!   serving, and any crash cancels an in-progress drain.
//! * **Fleet-level correlated-failure detection** — per-shard breakers
//!   already contain local rebuild storms; when ≥ `breaker_k` breakers
//!   open within `breaker_window` epochs, that is no longer a local
//!   problem. The fleet freezes any rollout and pins the last-known-good
//!   build fleet-wide.
//! * **Work-stealing of scavenger slices** — a draining or crashed
//!   shard's scavenger budget is idle capacity; it is granted
//!   round-robin to the serving shards as a volatile (never journaled)
//!   bonus, and reclaimed the moment the donor returns.
//!
//! Determinism carries over wholesale: the router's jitter comes from
//! one seeded [`SplitMix64`], shard seeds derive from the fleet seed,
//! and the fleet event log serializes to canonical JSON with an FNV-1a
//! digest, so a fleet replay is byte-identical — the property the fleet
//! chaos engine gates on.

use crate::chaos::build_is_trusted;
use crate::degrade::{pgo_pipeline_degrading, Rung};
use crate::journal::{project, Journal};
use crate::metrics::percentile;
use crate::pipeline::{lint_gate, verify_gate};
use crate::supervisor::{
    incidents_hash, recover, validate_options, BreakerState, CrashPoint, DeployedBuild, EpochLoop,
    Incident, RecoverOptions, ServiceWorkload, SupervisorConfigError, SupervisorOptions,
};
use reach_profile::Json;
use reach_sim::{fnv1a, Context, MultiCore, Program, SplitMix64};
use std::collections::VecDeque;

/// One request entering the fleet: where it landed and which shard owns
/// its key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Shard the request arrived at (the load balancer's pick).
    pub ingress: usize,
    /// Shard that owns the request's key and must serve it.
    pub owner: usize,
}

/// The sharded service the fleet runs. The fleet owns admission and
/// routing; the workload provides traffic and per-shard contexts, like
/// [`ServiceWorkload`] does for one shard. Job numbers are per-shard
/// admission sequence numbers.
pub trait FleetWorkload {
    /// Requests arriving fleet-wide at the start of `epoch`.
    fn arrivals(&mut self, epoch: u64) -> Vec<Arrival>;
    /// Primary context for `shard`'s job number `job`.
    fn primary_context(&mut self, shard: usize, job: u64) -> Context;
    /// Scavenger-pool context for `slot` while `shard` serves `job`.
    fn scavenger_context(&mut self, shard: usize, epoch: u64, job: u64, slot: usize) -> Context;
    /// Optional scavenger-pool program override for `shard` during
    /// `epoch` (the fleet chaos runaway arm).
    fn scavenger_program(&mut self, _shard: usize, _epoch: u64) -> Option<Program> {
        None
    }
    /// Fresh profiling contexts for `shard`'s rebuild attempt `attempt`.
    fn profiling_contexts(&mut self, shard: usize, attempt: u32) -> Vec<Context>;
}

/// Adapts one shard's slice of a [`FleetWorkload`] to the single-shard
/// [`ServiceWorkload`] the epoch loop serves. The fleet router decides
/// admissions, so `arrivals` returns whatever the router granted this
/// epoch rather than consulting the workload.
struct ShardAdapter<'a> {
    shard: usize,
    admitted: usize,
    fleet: &'a mut dyn FleetWorkload,
}

impl ServiceWorkload for ShardAdapter<'_> {
    fn arrivals(&mut self, _epoch: u64) -> usize {
        self.admitted
    }
    fn primary_context(&mut self, job: u64) -> Context {
        self.fleet.primary_context(self.shard, job)
    }
    fn scavenger_context(&mut self, epoch: u64, job: u64, slot: usize) -> Context {
        self.fleet.scavenger_context(self.shard, epoch, job, slot)
    }
    fn scavenger_program(&mut self, epoch: u64) -> Option<Program> {
        self.fleet.scavenger_program(self.shard, epoch)
    }
    fn profiling_contexts(&mut self, attempt: u32) -> Vec<Context> {
        self.fleet.profiling_contexts(self.shard, attempt)
    }
}

/// Rolling-deploy configuration.
#[derive(Clone, Copy, Debug)]
pub struct RolloutOptions {
    /// Fleet epoch at which the rollout may begin.
    pub start_epoch: u64,
    /// Serving epochs the freshly-deployed shard is watched before the
    /// rollout advances to the next shard.
    pub health_epochs: u64,
    /// Health gate: post-deploy p99 above `pre-drain p99 × p99_factor`
    /// fails the window (any new job fault fails it outright).
    pub p99_factor: f64,
    /// Fault hook: corrupts the rollout build *after* the build-time
    /// gates pass — the supply-chain window the per-shard re-validation
    /// and the health gate exist to contain.
    pub poison: Option<fn(&mut DeployedBuild)>,
}

impl Default for RolloutOptions {
    fn default() -> Self {
        RolloutOptions {
            start_epoch: 2,
            health_epochs: 2,
            p99_factor: 3.0,
            poison: None,
        }
    }
}

/// Configuration for [`run_fleet`].
#[derive(Clone, Debug)]
pub struct FleetOptions {
    /// Shard count; must equal the [`MultiCore`]'s core count.
    pub shards: usize,
    /// Fleet epochs to run (each shard's `sup.epochs` is overridden).
    pub epochs: u64,
    /// Per-shard supervisor template. Shard `s` runs it with seed
    /// `mix(seed, s)`; everything else is shared.
    pub sup: SupervisorOptions,
    /// Forwarding-queue bound; requests beyond it are shed on arrival.
    pub forward_bound: usize,
    /// Epochs a queued request may wait before it is shed as timed out.
    pub forward_timeout_epochs: u64,
    /// Base retry backoff (epochs); doubles per attempt, plus jitter.
    pub forward_backoff_base: u64,
    /// Retry backoff cap (epochs), before jitter.
    pub forward_backoff_max: u64,
    /// Rolling re-instrumentation deploy; `None` = steady state.
    pub rollout: Option<RolloutOptions>,
    /// Correlated-failure threshold: this many breaker-opens within
    /// `breaker_window` freezes the rollout and pins the LKG build.
    pub breaker_k: usize,
    /// Sliding window (epochs) for correlated breaker detection.
    pub breaker_window: u64,
    /// Grant drained/down shards' scavenger slices to serving shards.
    pub steal: bool,
    /// Fleet seed: router jitter and per-shard seed derivation.
    pub seed: u64,
    /// Crash-recovery options for every shard.
    pub recover: RecoverOptions,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            shards: 2,
            epochs: 16,
            sup: SupervisorOptions::default(),
            forward_bound: 16,
            forward_timeout_epochs: 4,
            forward_backoff_base: 1,
            forward_backoff_max: 4,
            rollout: None,
            breaker_k: 2,
            breaker_window: 8,
            steal: true,
            seed: 0,
            recover: RecoverOptions { revalidate: true },
        }
    }
}

/// A fleet configuration [`run_fleet`] refuses to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetConfigError {
    /// The per-shard supervisor template is degenerate.
    Supervisor(SupervisorConfigError),
    /// `shards == 0`.
    ZeroShards,
    /// `shards` does not match the machine's core count.
    ShardCoreMismatch,
    /// `breaker_k == 0`: the fleet would freeze before the first epoch.
    ZeroBreakerK,
}

impl From<SupervisorConfigError> for FleetConfigError {
    fn from(e: SupervisorConfigError) -> Self {
        FleetConfigError::Supervisor(e)
    }
}

impl std::fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetConfigError::Supervisor(e) => e.fmt(f),
            FleetConfigError::ZeroShards => write!(f, "shards must be >= 1"),
            FleetConfigError::ShardCoreMismatch => {
                write!(f, "shards must equal the MultiCore core count")
            }
            FleetConfigError::ZeroBreakerK => write!(f, "breaker_k must be >= 1"),
        }
    }
}

impl std::error::Error for FleetConfigError {}

/// One fleet-level control-plane event. Canonical JSON, like the
/// per-shard [`Incident`] log: the fleet replay-determinism hash covers
/// both.
#[derive(Clone, Debug, PartialEq)]
pub enum FleetEvent {
    /// The rolling deploy began.
    RolloutStarted {
        /// Fleet epoch.
        epoch: u64,
    },
    /// A shard stopped admitting and began serving its backlog down.
    DrainStarted {
        /// Fleet epoch.
        epoch: u64,
        /// Draining shard.
        shard: u64,
    },
    /// The rollout build was deployed to a drained shard.
    RolloutDeployed {
        /// Fleet epoch.
        epoch: u64,
        /// Receiving shard.
        shard: u64,
        /// Deployed rung.
        rung: Rung,
    },
    /// A freshly-deployed shard served its health window cleanly.
    HealthPassed {
        /// Fleet epoch.
        epoch: u64,
        /// The watched shard.
        shard: u64,
    },
    /// The rollout froze; no further shard will receive the build.
    RolloutFrozen {
        /// Fleet epoch.
        epoch: u64,
        /// Why.
        reason: String,
    },
    /// A shard was re-pinned to the last-known-good build.
    RevertedToLkg {
        /// Fleet epoch.
        epoch: u64,
        /// Re-pinned shard.
        shard: u64,
    },
    /// Every shard runs the rollout build; it is the new LKG.
    RolloutCompleted {
        /// Fleet epoch.
        epoch: u64,
    },
    /// A shard's injected crash channel fired.
    ShardCrashed {
        /// Fleet epoch.
        epoch: u64,
        /// Crashed shard.
        shard: u64,
        /// Loop stage the crash landed in.
        point: CrashPoint,
    },
    /// A crashed shard recovered and resumed serving.
    ShardRecovered {
        /// Fleet epoch.
        epoch: u64,
        /// Recovered shard.
        shard: u64,
        /// True when recovery fell down the ladder.
        degraded: bool,
    },
    /// ≥ `breaker_k` per-shard breakers opened within the window.
    CorrelatedBreakers {
        /// Fleet epoch.
        epoch: u64,
        /// Breaker-opens inside the window.
        opens: u64,
    },
    /// Idle scavenger slices were granted to the serving shards.
    StealGranted {
        /// Fleet epoch.
        epoch: u64,
        /// Unavailable (donating) shards.
        donors: u64,
        /// Total slices granted this epoch (split evenly, remainder to
        /// the lowest-indexed serving shards).
        granted: u64,
    },
}

impl FleetEvent {
    fn to_json(&self) -> Json {
        let kv = |k: &str, v: Json| (k.to_string(), v);
        let fields = match self {
            FleetEvent::RolloutStarted { epoch } => vec![
                kv("kind", Json::Str("rollout-started".into())),
                kv("epoch", Json::UInt(*epoch)),
            ],
            FleetEvent::DrainStarted { epoch, shard } => vec![
                kv("kind", Json::Str("drain-started".into())),
                kv("epoch", Json::UInt(*epoch)),
                kv("shard", Json::UInt(*shard)),
            ],
            FleetEvent::RolloutDeployed { epoch, shard, rung } => vec![
                kv("kind", Json::Str("rollout-deployed".into())),
                kv("epoch", Json::UInt(*epoch)),
                kv("shard", Json::UInt(*shard)),
                kv("rung", Json::Str(rung.to_string())),
            ],
            FleetEvent::HealthPassed { epoch, shard } => vec![
                kv("kind", Json::Str("health-passed".into())),
                kv("epoch", Json::UInt(*epoch)),
                kv("shard", Json::UInt(*shard)),
            ],
            FleetEvent::RolloutFrozen { epoch, reason } => vec![
                kv("kind", Json::Str("rollout-frozen".into())),
                kv("epoch", Json::UInt(*epoch)),
                kv("reason", Json::Str(reason.clone())),
            ],
            FleetEvent::RevertedToLkg { epoch, shard } => vec![
                kv("kind", Json::Str("reverted-to-lkg".into())),
                kv("epoch", Json::UInt(*epoch)),
                kv("shard", Json::UInt(*shard)),
            ],
            FleetEvent::RolloutCompleted { epoch } => vec![
                kv("kind", Json::Str("rollout-completed".into())),
                kv("epoch", Json::UInt(*epoch)),
            ],
            FleetEvent::ShardCrashed {
                epoch,
                shard,
                point,
            } => vec![
                kv("kind", Json::Str("shard-crashed".into())),
                kv("epoch", Json::UInt(*epoch)),
                kv("shard", Json::UInt(*shard)),
                kv("point", Json::Str(point.as_str().into())),
            ],
            FleetEvent::ShardRecovered {
                epoch,
                shard,
                degraded,
            } => vec![
                kv("kind", Json::Str("shard-recovered".into())),
                kv("epoch", Json::UInt(*epoch)),
                kv("shard", Json::UInt(*shard)),
                kv("degraded", Json::UInt(u64::from(*degraded))),
            ],
            FleetEvent::CorrelatedBreakers { epoch, opens } => vec![
                kv("kind", Json::Str("correlated-breakers".into())),
                kv("epoch", Json::UInt(*epoch)),
                kv("opens", Json::UInt(*opens)),
            ],
            FleetEvent::StealGranted {
                epoch,
                donors,
                granted,
            } => vec![
                kv("kind", Json::Str("steal-granted".into())),
                kv("epoch", Json::UInt(*epoch)),
                kv("donors", Json::UInt(*donors)),
                kv("granted", Json::UInt(*granted)),
            ],
        };
        Json::Object(fields)
    }
}

/// Canonical JSON text of a fleet event sequence.
pub fn fleet_events_json(events: &[FleetEvent]) -> String {
    Json::Array(events.iter().map(FleetEvent::to_json).collect()).to_string()
}

/// FNV-1a digest of [`fleet_events_json`].
pub fn fleet_events_hash(events: &[FleetEvent]) -> u64 {
    fnv1a(fleet_events_json(events).as_bytes())
}

/// One shard's totals across every crash segment of the fleet run.
#[derive(Clone, Debug)]
pub struct ShardSummary {
    /// Jobs served to completion.
    pub served: u64,
    /// Jobs shed by the shard's own admission queue.
    pub shed_jobs: u64,
    /// Jobs whose primary faulted.
    pub job_faults: u64,
    /// Deployment changes (local swaps, breaker fallbacks, rollouts).
    pub swaps: u64,
    /// Local rebuild attempts.
    pub rebuilds: u64,
    /// Injected crashes this shard took.
    pub crashes: u64,
    /// Recoveries that fell down the ladder.
    pub recoveries_degraded: u64,
    /// `(epoch, primary latency)` per served job, across segments.
    pub latencies: Vec<(u64, u64)>,
    /// Concatenated incident log (segments + recoveries), the unit of
    /// the per-shard replay-determinism contract.
    pub incidents: Vec<Incident>,
    /// Rung serving traffic at fleet end.
    pub final_rung: Rung,
    /// Breaker state at fleet end.
    pub breaker: BreakerState,
}

impl Default for ShardSummary {
    fn default() -> Self {
        ShardSummary {
            served: 0,
            shed_jobs: 0,
            job_faults: 0,
            swaps: 0,
            rebuilds: 0,
            crashes: 0,
            recoveries_degraded: 0,
            latencies: Vec::new(),
            incidents: Vec::new(),
            final_rung: Rung::Uninstrumented,
            breaker: BreakerState::Closed,
        }
    }
}

impl ShardSummary {
    /// FNV-1a digest of this shard's concatenated incident log.
    pub fn incident_hash(&self) -> u64 {
        incidents_hash(&self.incidents)
    }

    /// p99 primary latency across the whole run.
    pub fn p99(&self) -> u64 {
        let v: Vec<u64> = self.latencies.iter().map(|(_, l)| *l).collect();
        percentile(&v, 0.99)
    }
}

/// Everything the fleet run did, measured, and audited.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Per-shard totals, indexed by shard.
    pub shards: Vec<ShardSummary>,
    /// The fleet control-plane event log, in order.
    pub events: Vec<FleetEvent>,
    /// Requests admitted directly at their owner.
    pub admitted_direct: u64,
    /// Requests that needed a cross-shard forward.
    pub forwarded: u64,
    /// Retry attempts by queued requests.
    pub retries: u64,
    /// Queued requests shed after `forward_timeout_epochs`.
    pub timeouts: u64,
    /// Requests shed because the forwarding queue was full.
    pub forward_shed: u64,
    /// Crashes across all shards.
    pub crashes: u64,
    /// Recoveries across all shards.
    pub recoveries: u64,
    /// Epochs in which no shard was down or draining.
    pub healthy_epochs: u64,
    /// Minimum serving-shard count over crash-free epochs (the
    /// (N−1)/N capacity oracle's witness).
    pub min_serving_healthy: usize,
    /// Shards the rollout build reached.
    pub rollout_deploys: u64,
    /// True when the rollout deployed to every shard and became LKG.
    pub rollout_completed: bool,
    /// True when the rollout froze.
    pub rollout_frozen: bool,
    /// Scavenger slices granted via work-stealing (slice-epochs).
    pub steals: u64,
    /// Fleet oracle violations (empty on a healthy run).
    pub violations: Vec<String>,
}

impl FleetReport {
    /// Order-sensitive digest of the whole fleet's logs: every shard's
    /// incident hash folded with the fleet event hash. Byte-identical
    /// across replays — the fleet determinism contract.
    pub fn fleet_hash(&self) -> u64 {
        let mut h = fleet_events_hash(&self.events);
        for s in &self.shards {
            h = fleet_mix(h, s.incident_hash());
        }
        h
    }

    /// Total jobs served fleet-wide.
    pub fn served(&self) -> u64 {
        self.shards.iter().map(|s| s.served).sum()
    }
}

/// The seed shard `shard` runs under for fleet seed `fleet_seed` —
/// exposed so differential tests can configure a standalone supervisor
/// identically to a fleet shard.
pub fn shard_seed(fleet_seed: u64, shard: u64) -> u64 {
    fleet_mix(fleet_seed, shard)
}

pub(crate) fn fleet_mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Why a shard is not currently serving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ShardState {
    Serving,
    Draining,
    Down,
}

/// A request waiting for its owner shard to come back.
#[derive(Clone, Copy, Debug)]
struct QueuedRequest {
    owner: usize,
    enqueued: u64,
    next_try: u64,
    attempts: u32,
}

/// Rollout progress.
#[derive(Clone, Copy)]
enum RolloutPhase {
    Idle,
    Draining {
        shard: usize,
    },
    Health {
        shard: usize,
        left: u64,
        deploy_epoch: u64,
        baseline_p99: u64,
        baseline_faults: u64,
    },
    Done,
    Frozen,
}

struct Shard {
    el: Option<EpochLoop>,
    journal: Journal,
    sup: SupervisorOptions,
    state: ShardState,
    summary: ShardSummary,
    /// Pending recovery: set when the shard crashed and recovery has
    /// not run yet (it runs at the top of the next epoch).
    needs_recovery: bool,
}

/// Runs the sharded fleet for `opts.epochs` fleet epochs on
/// `mc.cores[shard]` per shard, journaled throughout, and audits the
/// fleet oracles inline. Crashes injected through a core's fault
/// channel down that shard for the epoch; it recovers through
/// [`recover`] at the top of the next one.
pub fn run_fleet(
    mc: &mut MultiCore,
    workload: &mut dyn FleetWorkload,
    original: &Program,
    initial: DeployedBuild,
    opts: &FleetOptions,
) -> Result<FleetReport, FleetConfigError> {
    if opts.shards == 0 {
        return Err(FleetConfigError::ZeroShards);
    }
    if opts.shards != mc.len() {
        return Err(FleetConfigError::ShardCoreMismatch);
    }
    if opts.breaker_k == 0 {
        return Err(FleetConfigError::ZeroBreakerK);
    }

    let mut rng = SplitMix64::new(opts.seed ^ 0xF1EE_7000);
    let mut shards: Vec<Shard> = Vec::with_capacity(opts.shards);
    for s in 0..opts.shards {
        let mut sup = opts.sup.clone();
        sup.epochs = opts.epochs;
        sup.seed = fleet_mix(opts.seed, s as u64);
        validate_options(&sup)?;
        shards.push(Shard {
            el: Some(EpochLoop::new(initial.clone(), &sup, None)),
            journal: Journal::new(),
            sup,
            state: ShardState::Serving,
            summary: ShardSummary {
                final_rung: initial.rung,
                ..ShardSummary::default()
            },
            needs_recovery: false,
        });
    }

    let mut rep = FleetReport {
        shards: Vec::new(),
        events: Vec::new(),
        admitted_direct: 0,
        forwarded: 0,
        retries: 0,
        timeouts: 0,
        forward_shed: 0,
        crashes: 0,
        recoveries: 0,
        healthy_epochs: 0,
        min_serving_healthy: opts.shards,
        rollout_deploys: 0,
        rollout_completed: false,
        rollout_frozen: false,
        steals: 0,
        violations: Vec::new(),
    };

    // Persist each shard's initial deployment before the first epoch.
    for s in 0..opts.shards {
        let sh = &mut shards[s];
        let mut jopt = Some(&mut sh.journal);
        let el = sh.el.as_mut().expect("fresh shard");
        if let Err(point) = el.persist_initial(&mut mc.cores[s], &mut jopt) {
            // A crash before the first epoch: treat like any other.
            crash_shard(&mut shards[s], &mut rep, 0, s, point);
        }
    }

    let mut queue: VecDeque<QueuedRequest> = VecDeque::new();
    let mut lkg = initial.clone();
    let mut rollout_build: Option<DeployedBuild> = None;
    let mut phase = if opts.rollout.is_some() {
        RolloutPhase::Idle
    } else {
        RolloutPhase::Done
    };
    let mut breaker_opens: Vec<u64> = Vec::new(); // epochs of open transitions
    let mut prev_breakers: Vec<bool> = vec![false; opts.shards];
    let mut frozen_by_breakers = false;
    let mut poisoned_fp: Option<u64> = None;
    let mut poisoned_deploys: Vec<usize> = Vec::new();

    for epoch in 0..opts.epochs {
        // --- Recovery: shards that died last epoch restart now. The
        // dead process's injector died with it.
        for s in 0..opts.shards {
            if !shards[s].needs_recovery {
                continue;
            }
            mc.cores[s].faults = None;
            let sh = &mut shards[s];
            let rec = recover(
                &mut sh.journal,
                original,
                &mut mc.cores[s],
                &sh.sup,
                &opts.recover,
            )?;
            rep.recoveries += 1;
            if rec.degraded {
                sh.summary.recoveries_degraded += 1;
            }
            sh.summary.incidents.extend(rec.incidents.iter().cloned());
            let mut resume = rec.resume;
            // The fleet clock kept running while the shard was down;
            // resume at the fleet epoch (journal epochs stay monotone).
            resume.epoch = epoch;
            // Fleet invariant: a recovered shard never serves an
            // unverified build. If the journal resurrected one (e.g. a
            // poisoned rollout artifact deployed just before the crash),
            // pin the fleet's last-known-good build over it and freeze
            // any in-flight rollout — the artifact is bad.
            let untrusted = !build_is_trusted(original, &rec.build, &sh.sup);
            let mut el = EpochLoop::new(rec.build, &sh.sup, Some(resume));
            if untrusted {
                let mut jopt = Some(&mut sh.journal);
                el.deploy_rollout(&mut mc.cores[s], &mut jopt, lkg.clone(), epoch)
                    .expect("injector was cleared before recovery");
                rep.events.push(FleetEvent::RevertedToLkg {
                    epoch,
                    shard: s as u64,
                });
                if !matches!(phase, RolloutPhase::Done | RolloutPhase::Frozen) {
                    phase = RolloutPhase::Frozen;
                    rep.rollout_frozen = true;
                    rep.events.push(FleetEvent::RolloutFrozen {
                        epoch,
                        reason: format!("shard {s} recovered with an untrusted build"),
                    });
                }
                // Oracle: the re-pin must leave the shard trusted.
                if !build_is_trusted(original, el.deployed(), &sh.sup) {
                    rep.violations.push(format!(
                        "oracle/unverified-build: shard {s} still serving an untrusted build \
                         after the LKG re-pin at epoch {epoch}"
                    ));
                }
            }
            sh.el = Some(el);
            sh.state = ShardState::Serving;
            sh.needs_recovery = false;
            rep.events.push(FleetEvent::ShardRecovered {
                epoch,
                shard: s as u64,
                degraded: rec.degraded,
            });
        }

        // --- Rollout state machine (control decisions for this epoch).
        if let Some(ro) = opts.rollout.as_ref() {
            match phase {
                RolloutPhase::Idle => {
                    let all_serving = shards.iter().all(|sh| sh.state == ShardState::Serving);
                    let next = rep.rollout_deploys as usize;
                    if epoch >= ro.start_epoch && all_serving && next < opts.shards {
                        if next == 0 && rollout_build.is_none() {
                            rep.events.push(FleetEvent::RolloutStarted { epoch });
                        }
                        shards[next].state = ShardState::Draining;
                        phase = RolloutPhase::Draining { shard: next };
                        rep.events.push(FleetEvent::DrainStarted {
                            epoch,
                            shard: next as u64,
                        });
                    }
                }
                RolloutPhase::Draining { shard } => {
                    // Any down shard cancels the drain: max-unavailable=1
                    // counts the draining shard itself, so a concurrent
                    // crash means two unavailable shards — back out.
                    if shards.iter().any(|sh| sh.state == ShardState::Down) {
                        shards[shard].state = ShardState::Serving;
                        phase = RolloutPhase::Idle;
                    }
                }
                RolloutPhase::Health {
                    shard,
                    left,
                    deploy_epoch,
                    baseline_p99,
                    baseline_faults,
                } => {
                    if shards[shard].state == ShardState::Down {
                        phase = RolloutPhase::Frozen;
                        rep.rollout_frozen = true;
                        rep.events.push(FleetEvent::RolloutFrozen {
                            epoch,
                            reason: format!("shard {shard} crashed during its health window"),
                        });
                    } else if left == 0 {
                        let el = shards[shard].el.as_ref().expect("serving shard has a loop");
                        let post_faults = el.report().job_faults + shards[shard].summary.job_faults;
                        let post_p99 = el.report().p99_after(deploy_epoch);
                        let p99_limit = (baseline_p99 as f64 * ro.p99_factor) as u64;
                        let faulted = post_faults > baseline_faults;
                        let slow = baseline_p99 > 0 && post_p99 > p99_limit;
                        if faulted || slow {
                            phase = RolloutPhase::Frozen;
                            rep.rollout_frozen = true;
                            rep.events.push(FleetEvent::RolloutFrozen {
                                epoch,
                                reason: if faulted {
                                    format!(
                                        "shard {shard} faulted {} job(s) in its health window",
                                        post_faults - baseline_faults
                                    )
                                } else {
                                    format!(
                                        "shard {shard} p99 {post_p99} exceeded {p99_limit} \
                                         (baseline {baseline_p99})"
                                    )
                                },
                            });
                            // Pin the shard back to the last-known-good
                            // build immediately.
                            let sh = &mut shards[shard];
                            let mut jopt = Some(&mut sh.journal);
                            let el = sh.el.as_mut().expect("serving shard");
                            if let Err(point) = el.deploy_rollout(
                                &mut mc.cores[shard],
                                &mut jopt,
                                lkg.clone(),
                                epoch,
                            ) {
                                crash_shard(&mut shards[shard], &mut rep, epoch, shard, point);
                            } else {
                                rep.events.push(FleetEvent::RevertedToLkg {
                                    epoch,
                                    shard: shard as u64,
                                });
                            }
                        } else {
                            rep.events.push(FleetEvent::HealthPassed {
                                epoch,
                                shard: shard as u64,
                            });
                            if rep.rollout_deploys as usize == opts.shards {
                                phase = RolloutPhase::Done;
                                rep.rollout_completed = true;
                                lkg = rollout_build
                                    .clone()
                                    .expect("completed rollout has a build");
                                rep.events.push(FleetEvent::RolloutCompleted { epoch });
                            } else {
                                phase = RolloutPhase::Idle;
                            }
                        }
                    } else {
                        phase = RolloutPhase::Health {
                            shard,
                            left: left - 1,
                            deploy_epoch,
                            baseline_p99,
                            baseline_faults,
                        };
                    }
                }
                RolloutPhase::Done | RolloutPhase::Frozen => {}
            }
        }

        // --- Routing: fleet arrivals → owner shards, the forwarding
        // queue, or the shedder.
        let mut admit = vec![0usize; opts.shards];
        // Queued requests first (they have waited longest).
        let mut still_queued: VecDeque<QueuedRequest> = VecDeque::new();
        while let Some(mut q) = queue.pop_front() {
            if epoch < q.next_try {
                still_queued.push_back(q);
                continue;
            }
            if shards[q.owner].state == ShardState::Serving {
                admit[q.owner] += 1;
                continue;
            }
            if epoch.saturating_sub(q.enqueued) >= opts.forward_timeout_epochs {
                rep.timeouts += 1;
                continue;
            }
            rep.retries += 1;
            let shift = q.attempts.min(31);
            let delay = opts
                .forward_backoff_base
                .saturating_mul(1u64 << shift)
                .min(opts.forward_backoff_max);
            let jitter = rng.next_below(opts.forward_backoff_base + 1);
            q.next_try = epoch + 1 + delay + jitter;
            q.attempts += 1;
            still_queued.push_back(q);
        }
        queue = still_queued;
        for a in workload.arrivals(epoch) {
            let cross = a.ingress != a.owner;
            if cross {
                rep.forwarded += 1;
            }
            if shards[a.owner].state == ShardState::Serving {
                admit[a.owner] += 1;
                if !cross {
                    rep.admitted_direct += 1;
                }
            } else if queue.len() < opts.forward_bound {
                queue.push_back(QueuedRequest {
                    owner: a.owner,
                    enqueued: epoch,
                    next_try: epoch + 1,
                    attempts: 0,
                });
            } else {
                rep.forward_shed += 1;
            }
        }

        // --- Work-stealing: drained/down shards donate their scavenger
        // slices to the serving shards this epoch.
        let serving = shards
            .iter()
            .filter(|sh| sh.state == ShardState::Serving)
            .count();
        let donors = opts.shards - serving;
        let mut bonus_of = vec![0u64; opts.shards];
        if opts.steal && donors > 0 && serving > 0 {
            // Each donor gives away what it actually has: a draining
            // shard's live (possibly shed) budget, a dead shard's
            // configured pool. Slices split evenly over the serving
            // shards; the remainder goes to the lowest-indexed ones, so
            // every donated slice lands and the split stays
            // deterministic.
            let donated: u64 = shards
                .iter()
                .filter(|sh| sh.state != ShardState::Serving)
                .map(|sh| {
                    sh.el
                        .as_ref()
                        .map_or(opts.sup.scavengers, EpochLoop::scav_budget)
                        as u64
                })
                .sum();
            let base = donated / serving as u64;
            let rem = donated % serving as u64;
            let mut rank = 0u64;
            for (s, sh) in shards.iter().enumerate() {
                if sh.state == ShardState::Serving {
                    bonus_of[s] = base + u64::from(rank < rem);
                    rank += 1;
                }
            }
            if donated > 0 {
                rep.steals += donated;
                rep.events.push(FleetEvent::StealGranted {
                    epoch,
                    donors: donors as u64,
                    granted: donated,
                });
            }
        }

        // --- Serve: step every live shard's epoch loop on its core.
        let mut any_down_this_epoch = shards.iter().any(|sh| sh.state == ShardState::Down);
        for s in 0..opts.shards {
            if shards[s].state == ShardState::Down {
                continue;
            }
            let stealing = shards[s].state == ShardState::Serving;
            let admitted = if stealing { admit[s] } else { 0 };
            let mut adapter = ShardAdapter {
                shard: s,
                admitted,
                fleet: &mut *workload,
            };
            let sh = &mut shards[s];
            let el = sh.el.as_mut().expect("live shard has a loop");
            el.set_scav_bonus(if stealing { bonus_of[s] as usize } else { 0 });
            let mut jopt = Some(&mut sh.journal);
            if let Err(point) =
                el.step_epoch(&mut mc.cores[s], &mut adapter, original, &mut jopt, epoch)
            {
                crash_shard(&mut shards[s], &mut rep, epoch, s, point);
                any_down_this_epoch = true;
            }
        }

        // --- Drained? Deploy the rollout build at this epoch boundary.
        if let RolloutPhase::Draining { shard } = phase {
            let sh_pending = shards[shard]
                .el
                .as_ref()
                .map(|el| el.pending_len())
                .unwrap_or(0);
            if shards[shard].state == ShardState::Down {
                phase = RolloutPhase::Idle;
            } else if sh_pending == 0 {
                let ro = opts
                    .rollout
                    .as_ref()
                    .expect("rollout phase without options");
                // Build once, on the drained shard's idle core; gate it,
                // then (the fault hook) poison it after the gates.
                if rollout_build.is_none() {
                    let built = build_rollout(
                        &mut mc.cores[shard],
                        workload,
                        shard,
                        original,
                        &shards[shard].sup,
                    );
                    match built {
                        Some(mut b) => {
                            if let Some(poison) = ro.poison {
                                poison(&mut b);
                                poisoned_fp = Some(b.prog.fingerprint());
                            }
                            rollout_build = Some(b);
                        }
                        None => {
                            phase = RolloutPhase::Frozen;
                            rep.rollout_frozen = true;
                            rep.events.push(FleetEvent::RolloutFrozen {
                                epoch,
                                reason: "rollout build failed its gates".to_string(),
                            });
                            shards[shard].state = ShardState::Serving;
                        }
                    }
                }
                if let Some(b) = rollout_build.clone() {
                    // Every shard after the first re-validates the
                    // artifact it fetched; the first shard is the
                    // supply-chain window the health gate covers.
                    let second_or_later = rep.rollout_deploys > 0;
                    if second_or_later && !build_is_trusted(original, &b, &shards[shard].sup) {
                        phase = RolloutPhase::Frozen;
                        rep.rollout_frozen = true;
                        rep.events.push(FleetEvent::RolloutFrozen {
                            epoch,
                            reason: format!(
                                "shard {shard} re-validation rejected the rollout artifact"
                            ),
                        });
                        shards[shard].state = ShardState::Serving;
                    } else {
                        let sh = &mut shards[shard];
                        let baseline_p99 = sh
                            .summary
                            .p99_with_live(sh.el.as_ref().expect("drained shard"));
                        let baseline_faults =
                            sh.el.as_ref().map(|el| el.report().job_faults).unwrap_or(0)
                                + sh.summary.job_faults;
                        let mut jopt = Some(&mut sh.journal);
                        let el = sh.el.as_mut().expect("drained shard");
                        match el.deploy_rollout(&mut mc.cores[shard], &mut jopt, b.clone(), epoch) {
                            Err(point) => {
                                crash_shard(&mut shards[shard], &mut rep, epoch, shard, point);
                                any_down_this_epoch = true;
                                phase = RolloutPhase::Idle;
                            }
                            Ok(()) => {
                                rep.rollout_deploys += 1;
                                if Some(b.prog.fingerprint()) == poisoned_fp {
                                    poisoned_deploys.push(shard);
                                }
                                shards[shard].state = ShardState::Serving;
                                rep.events.push(FleetEvent::RolloutDeployed {
                                    epoch,
                                    shard: shard as u64,
                                    rung: b.rung,
                                });
                                phase = RolloutPhase::Health {
                                    shard,
                                    left: ro.health_epochs,
                                    deploy_epoch: epoch + 1,
                                    baseline_p99,
                                    baseline_faults,
                                };
                            }
                        }
                    }
                }
            }
        }

        // --- Correlated breaker detection over the serving shards.
        for (s, sh) in shards.iter().enumerate() {
            let open = sh
                .el
                .as_ref()
                .is_some_and(|el| el.breaker() == BreakerState::Open);
            if open && !prev_breakers[s] {
                breaker_opens.push(epoch);
            }
            prev_breakers[s] = open;
        }
        breaker_opens.retain(|&e| epoch.saturating_sub(e) < opts.breaker_window);
        if breaker_opens.len() >= opts.breaker_k && !frozen_by_breakers {
            frozen_by_breakers = true;
            rep.events.push(FleetEvent::CorrelatedBreakers {
                epoch,
                opens: breaker_opens.len() as u64,
            });
            if !matches!(phase, RolloutPhase::Done) {
                phase = RolloutPhase::Frozen;
                rep.rollout_frozen = true;
                rep.events.push(FleetEvent::RolloutFrozen {
                    epoch,
                    reason: format!(
                        "{} breakers opened within {} epochs",
                        breaker_opens.len(),
                        opts.breaker_window
                    ),
                });
            }
            // Pin every serving shard to the last-known-good build:
            // correlated opens mean the *inputs* to rebuilding are bad
            // fleet-wide, so stop letting shards individually degrade.
            for s in 0..opts.shards {
                if shards[s].state != ShardState::Serving {
                    continue;
                }
                let on_lkg = shards[s]
                    .el
                    .as_ref()
                    .is_some_and(|el| el.deployed().prog.fingerprint() == lkg.prog.fingerprint());
                if on_lkg {
                    continue;
                }
                let sh = &mut shards[s];
                let mut jopt = Some(&mut sh.journal);
                let el = sh.el.as_mut().expect("serving shard");
                if let Err(point) =
                    el.deploy_rollout(&mut mc.cores[s], &mut jopt, lkg.clone(), epoch)
                {
                    crash_shard(&mut shards[s], &mut rep, epoch, s, point);
                    any_down_this_epoch = true;
                } else {
                    rep.events.push(FleetEvent::RevertedToLkg {
                        epoch,
                        shard: s as u64,
                    });
                }
            }
        }

        // --- Capacity accounting + oracle. A crash-free epoch must keep
        // at least N−1 shards serving, rolling deploy or not.
        let serving_now = shards
            .iter()
            .filter(|sh| sh.state == ShardState::Serving)
            .count();
        if !any_down_this_epoch {
            rep.healthy_epochs += 1;
            rep.min_serving_healthy = rep.min_serving_healthy.min(serving_now);
            if serving_now + 1 < opts.shards {
                rep.violations.push(format!(
                    "oracle/capacity: epoch {epoch} healthy but only {serving_now}/{} shards \
                     serving",
                    opts.shards
                ));
            }
        }

        // --- Shared-uncore contention for the window just served.
        mc.apply_contention();
    }

    // --- Seal every surviving loop and audit the journals.
    for (s, sh) in shards.iter_mut().enumerate() {
        if let Some(el) = sh.el.take() {
            let live_fp = el.deployed().prog.fingerprint();
            let live_breaker = el.breaker();
            let live_next_job = el.next_job();
            if sh.state != ShardState::Down {
                sh.journal.flush();
                // Fleet oracle: each shard's journal, projected, equals
                // that shard's live state — jointly, the live fleet.
                let st = project(&sh.journal.replay().records);
                match st.deploy {
                    Some((fp, rung, _)) => {
                        if fp != live_fp || rung != el.deployed().rung {
                            rep.violations.push(format!(
                                "oracle/journal-projection: shard {s} journal deploy {fp:#x}/{rung} \
                                 != live {live_fp:#x}/{}",
                                el.deployed().rung
                            ));
                        }
                    }
                    None => rep.violations.push(format!(
                        "oracle/journal-projection: shard {s} journal has no deploy record"
                    )),
                }
                if st.breaker != live_breaker {
                    rep.violations.push(format!(
                        "oracle/journal-projection: shard {s} journal breaker {:?} != live {:?}",
                        st.breaker, live_breaker
                    ));
                }
                if st.next_job > live_next_job {
                    rep.violations.push(format!(
                        "oracle/journal-projection: shard {s} journal next_job {} ahead of live {}",
                        st.next_job, live_next_job
                    ));
                }
            }
            let r = el.seal();
            sh.summary.served += r.served;
            sh.summary.shed_jobs += r.shed_jobs;
            sh.summary.job_faults += r.job_faults;
            sh.summary.swaps += r.swaps;
            sh.summary.rebuilds += r.rebuilds;
            sh.summary.latencies.extend(r.latencies.iter().cloned());
            sh.summary.incidents.extend(r.incidents.iter().cloned());
            sh.summary.final_rung = r.final_rung;
            sh.summary.breaker = r.breaker;
        }
    }

    // Fleet oracle: a poisoned rollout build never reaches a second
    // shard.
    if poisoned_fp.is_some() && poisoned_deploys.len() > 1 {
        rep.violations.push(format!(
            "oracle/poison-containment: poisoned build deployed to shards {:?}",
            poisoned_deploys
        ));
    }

    rep.shards = shards.into_iter().map(|sh| sh.summary).collect();
    Ok(rep)
}

impl ShardSummary {
    /// p99 over this summary's accumulated latencies plus the live
    /// (unsealed) loop's — the pre-drain baseline for the health gate.
    fn p99_with_live(&self, el: &EpochLoop) -> u64 {
        let v: Vec<u64> = self
            .latencies
            .iter()
            .chain(el.report().latencies.iter())
            .map(|(_, l)| *l)
            .collect();
        percentile(&v, 0.99)
    }
}

/// Marks a shard down after its crash channel fired: seals the dead
/// loop's report into the shard totals and schedules recovery for the
/// top of the next epoch.
fn crash_shard(sh: &mut Shard, rep: &mut FleetReport, epoch: u64, s: usize, point: CrashPoint) {
    let r = sh.el.take().expect("crashing shard had a loop").seal();
    sh.summary.served += r.served;
    sh.summary.shed_jobs += r.shed_jobs;
    sh.summary.job_faults += r.job_faults;
    sh.summary.swaps += r.swaps;
    sh.summary.rebuilds += r.rebuilds;
    sh.summary.crashes += 1;
    sh.summary.latencies.extend(r.latencies.iter().cloned());
    sh.summary.incidents.extend(r.incidents);
    sh.state = ShardState::Down;
    sh.needs_recovery = true;
    rep.crashes += 1;
    rep.events.push(FleetEvent::ShardCrashed {
        epoch,
        shard: s as u64,
        point,
    });
}

/// Builds the rollout's re-instrumented binary on the drained shard's
/// idle core and runs the same lint + symbolic-equivalence gates a hot
/// swap passes. `None` when the ladder degraded or a gate refused.
fn build_rollout(
    machine: &mut reach_sim::Machine,
    workload: &mut dyn FleetWorkload,
    shard: usize,
    original: &Program,
    sup: &SupervisorOptions,
) -> Option<DeployedBuild> {
    let built = pgo_pipeline_degrading(
        machine,
        original,
        |a| workload.profiling_contexts(shard, a),
        &sup.degrade,
    );
    if built.rung != Rung::FullPgo {
        return None;
    }
    let build = DeployedBuild::from(built);
    if lint_gate(&build.prog, &build.origin, &sup.degrade.pipeline.lint).is_err() {
        return None;
    }
    if sup.degrade.pipeline.verify
        && verify_gate(
            original,
            &build.prog,
            &build.origin,
            &sup.degrade.pipeline.lint,
        )
        .is_err()
    {
        return None;
    }
    Some(build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dualmode::{DualModeOptions, WatchdogOptions};
    use reach_profile::OnlineEstimatorOptions;
    use reach_sim::{Inst, MultiCoreConfig};
    use reach_workloads::{build_zipf_kv, AddrAlloc, InstanceSetup, ZipfKvParams};

    const LOOKUPS: u64 = 1024;

    struct ShardStreams {
        live: Vec<InstanceSetup>,
        cursor: usize,
        prof: Vec<InstanceSetup>,
        prof_cursor: usize,
    }

    /// Key-sharded zipf-KV service: every core holds an identical table
    /// layout (so one program serves fleet-wide), each shard draws from
    /// its own instance streams, and arrivals rotate owners round-robin
    /// with an optional cross-shard ingress offset.
    struct FleetService {
        per: Vec<ShardStreams>,
        shards: usize,
        per_epoch: usize,
        cross: bool,
    }

    impl FleetWorkload for FleetService {
        fn arrivals(&mut self, epoch: u64) -> Vec<Arrival> {
            (0..self.per_epoch)
                .map(|i| {
                    let owner = (epoch as usize + i) % self.shards;
                    let ingress = if self.cross {
                        (owner + 1) % self.shards
                    } else {
                        owner
                    };
                    Arrival { ingress, owner }
                })
                .collect()
        }
        fn primary_context(&mut self, shard: usize, _job: u64) -> Context {
            let p = &mut self.per[shard];
            let i = p.cursor;
            p.cursor += 1;
            p.live[i % p.live.len()].make_context(1_000 + i)
        }
        fn scavenger_context(
            &mut self,
            shard: usize,
            _epoch: u64,
            _job: u64,
            _slot: usize,
        ) -> Context {
            let p = &mut self.per[shard];
            let i = p.cursor;
            p.cursor += 1;
            p.live[i % p.live.len()].make_context(1_000 + i)
        }
        fn profiling_contexts(&mut self, shard: usize, _attempt: u32) -> Vec<Context> {
            let p = &mut self.per[shard];
            let n = p.prof.len();
            (0..2)
                .map(|_| {
                    let i = p.prof_cursor;
                    p.prof_cursor += 1;
                    p.prof[i % n].make_context(9_000 + i)
                })
                .collect()
        }
    }

    fn fast_degrade() -> DegradeOptions {
        let mut d = DegradeOptions::default();
        d.pipeline.collector.periods = reach_profile::Periods {
            l2_miss: 13,
            l3_miss: 13,
            stall: 13,
            retired: 13,
        };
        d
    }

    use crate::degrade::DegradeOptions;

    fn fleet_sup() -> SupervisorOptions {
        SupervisorOptions {
            epochs: 12,
            service_per_epoch: 1,
            scavengers: 2,
            insitu_period: 31,
            estimator: OnlineEstimatorOptions {
                window: 2048,
                min_samples: 8,
            },
            staleness_threshold: 0.6,
            seed: 42,
            degrade: fast_degrade(),
            dual: DualModeOptions {
                drain_scavengers: false,
                isolate_faults: true,
                watchdog: Some(WatchdogOptions {
                    slice_steps: 2_000,
                    overrun_cycles: 500,
                    max_overruns: u32::MAX,
                    ..WatchdogOptions::default()
                }),
                ..DualModeOptions::default()
            },
            ..SupervisorOptions::default()
        }
    }

    /// Builds an N-core machine with identical per-core table layouts,
    /// the shared original program, and the shared initial deployment
    /// (profiled against the live distribution, so steady state stays
    /// trigger-free).
    fn fleet_world(
        shards: usize,
        per_epoch: usize,
        cross: bool,
    ) -> (MultiCore, FleetService, Program, DeployedBuild) {
        let mut mc = MultiCore::new(MultiCoreConfig::new(shards));
        let mut per = Vec::new();
        let mut orig: Option<Program> = None;
        for s in 0..shards {
            let m = &mut mc.cores[s];
            let mut alloc = AddrAlloc::new(0x800_0000);
            let params = |theta: f64, seed: u64| ZipfKvParams {
                table_entries: 1 << 15,
                lookups: LOOKUPS,
                theta,
                seed,
            };
            let live = build_zipf_kv(&mut m.mem, &mut alloc, params(3.0, 13), 56);
            let prof = build_zipf_kv(&mut m.mem, &mut alloc, params(3.0, 17), 12);
            match &orig {
                None => orig = Some(live.prog.clone()),
                Some(o) => assert_eq!(
                    o.fingerprint(),
                    live.prog.fingerprint(),
                    "cores must share one program"
                ),
            }
            per.push(ShardStreams {
                live: live.instances,
                cursor: 0,
                prof: prof.instances,
                prof_cursor: 0,
            });
        }
        let orig = orig.unwrap();
        let mut svc = FleetService {
            per,
            shards,
            per_epoch,
            cross,
        };
        let built = {
            let contexts = |svc: &mut FleetService, a: u32| svc.profiling_contexts(0, a);
            let mc0 = &mut mc.cores[0];
            pgo_pipeline_degrading(mc0, &orig, |a| contexts(&mut svc, a), &fast_degrade())
        };
        assert_eq!(built.rung, Rung::FullPgo, "{:?}", built.reasons);
        (mc, svc, orig, DeployedBuild::from(built))
    }

    #[test]
    fn steady_fleet_is_deterministic_and_clean() {
        let run = || {
            let (mut mc, mut svc, orig, initial) = fleet_world(2, 2, true);
            let opts = FleetOptions {
                shards: 2,
                epochs: 10,
                sup: fleet_sup(),
                seed: 7,
                ..FleetOptions::default()
            };
            run_fleet(&mut mc, &mut svc, &orig, initial, &opts).unwrap()
        };
        let a = run();
        assert_eq!(a.violations, Vec::<String>::new());
        assert!(a.served() > 0, "fleet served nothing");
        assert!(a.forwarded > 0, "cross-shard arrivals should be counted");
        assert_eq!(
            a.min_serving_healthy, 2,
            "steady state must keep all shards serving"
        );
        assert_eq!(a.crashes, 0);
        assert_eq!(a.rollout_deploys, 0);
        let b = run();
        assert_eq!(
            a.fleet_hash(),
            b.fleet_hash(),
            "fleet replay must be byte-identical"
        );
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.served, y.served);
            assert_eq!(x.incident_hash(), y.incident_hash());
        }
    }

    #[test]
    fn rolling_deploy_completes_behind_max_unavailable_one() {
        let (mut mc, mut svc, orig, initial) = fleet_world(2, 2, false);
        let opts = FleetOptions {
            shards: 2,
            epochs: 12,
            sup: fleet_sup(),
            rollout: Some(RolloutOptions {
                start_epoch: 2,
                health_epochs: 1,
                p99_factor: 100.0,
                poison: None,
            }),
            seed: 7,
            ..FleetOptions::default()
        };
        let rep = run_fleet(&mut mc, &mut svc, &orig, initial, &opts).unwrap();
        assert_eq!(rep.violations, Vec::<String>::new());
        assert!(rep.rollout_completed, "events: {:?}", rep.events);
        assert_eq!(rep.rollout_deploys, 2);
        assert!(!rep.rollout_frozen);
        assert!(rep.min_serving_healthy >= 1, "capacity fell below (N-1)/N");
        assert!(
            rep.steals > 0,
            "drained shards should donate scavenger slices"
        );
        let health_passes = rep
            .events
            .iter()
            .filter(|e| matches!(e, FleetEvent::HealthPassed { .. }))
            .count();
        assert_eq!(health_passes, 2);
    }

    #[test]
    fn poisoned_rollout_never_reaches_a_second_shard() {
        fn clobber_yield_saves(b: &mut DeployedBuild) {
            for inst in &mut b.prog.insts {
                if let Inst::Yield { save_regs, .. } = inst {
                    *save_regs = Some(0);
                }
            }
        }
        let (mut mc, mut svc, orig, initial) = fleet_world(2, 2, false);
        let opts = FleetOptions {
            shards: 2,
            epochs: 14,
            sup: fleet_sup(),
            rollout: Some(RolloutOptions {
                start_epoch: 2,
                health_epochs: 1,
                p99_factor: 100.0,
                poison: Some(clobber_yield_saves),
            }),
            seed: 7,
            ..FleetOptions::default()
        };
        let rep = run_fleet(&mut mc, &mut svc, &orig, initial, &opts).unwrap();
        assert_eq!(rep.violations, Vec::<String>::new());
        assert!(
            rep.rollout_frozen,
            "poison must freeze the rollout: {:?}",
            rep.events
        );
        assert!(!rep.rollout_completed);
        assert!(
            rep.rollout_deploys <= 1,
            "poisoned build reached {} shards",
            rep.rollout_deploys
        );
    }

    #[test]
    fn forwarding_queue_sheds_on_overflow_and_times_out() {
        // A long drain (big backlog, service rate 1) forces queued
        // cross-shard requests to outlive a 1-epoch timeout.
        let (mut mc, mut svc, orig, initial) = fleet_world(2, 4, true);
        let opts = FleetOptions {
            shards: 2,
            epochs: 12,
            sup: fleet_sup(),
            rollout: Some(RolloutOptions {
                start_epoch: 2,
                health_epochs: 1,
                p99_factor: 100.0,
                poison: None,
            }),
            forward_timeout_epochs: 1,
            seed: 7,
            ..FleetOptions::default()
        };
        let rep = run_fleet(&mut mc, &mut svc, &orig, initial, &opts).unwrap();
        assert_eq!(rep.violations, Vec::<String>::new());
        assert!(rep.timeouts > 0, "expected forward-queue timeouts: {rep:?}");

        // Bound 0: every request that cannot be admitted at its owner is
        // shed immediately.
        let (mut mc, mut svc, orig, initial) = fleet_world(2, 4, true);
        let opts = FleetOptions {
            forward_bound: 0,
            ..opts
        };
        let rep = run_fleet(&mut mc, &mut svc, &orig, initial, &opts).unwrap();
        assert_eq!(rep.violations, Vec::<String>::new());
        assert!(rep.forward_shed > 0, "bound-0 queue must shed: {rep:?}");
    }

    #[test]
    fn degenerate_fleet_configs_are_typed_errors() {
        let (mut mc, mut svc, orig, initial) = fleet_world(2, 1, false);
        let base = FleetOptions {
            shards: 2,
            epochs: 2,
            sup: fleet_sup(),
            ..FleetOptions::default()
        };
        let opts = FleetOptions {
            shards: 0,
            ..base.clone()
        };
        assert_eq!(
            run_fleet(&mut mc, &mut svc, &orig, initial.clone(), &opts).unwrap_err(),
            FleetConfigError::ZeroShards
        );
        let opts = FleetOptions {
            shards: 3,
            ..base.clone()
        };
        assert_eq!(
            run_fleet(&mut mc, &mut svc, &orig, initial.clone(), &opts).unwrap_err(),
            FleetConfigError::ShardCoreMismatch
        );
        let opts = FleetOptions {
            breaker_k: 0,
            ..base.clone()
        };
        assert_eq!(
            run_fleet(&mut mc, &mut svc, &orig, initial.clone(), &opts).unwrap_err(),
            FleetConfigError::ZeroBreakerK
        );
        let mut sup = fleet_sup();
        sup.max_rebuild_failures = 0;
        let opts = FleetOptions { sup, ..base };
        assert_eq!(
            run_fleet(&mut mc, &mut svc, &orig, initial, &opts).unwrap_err(),
            FleetConfigError::Supervisor(SupervisorConfigError::ZeroMaxRebuildFailures)
        );
    }

    #[test]
    fn fleet_event_log_serializes_canonically() {
        let events = vec![
            FleetEvent::RolloutStarted { epoch: 2 },
            FleetEvent::DrainStarted { epoch: 2, shard: 0 },
            FleetEvent::RolloutFrozen {
                epoch: 5,
                reason: "x".to_string(),
            },
        ];
        let json = fleet_events_json(&events);
        assert!(json.contains("\"kind\":\"rollout-started\""), "{json}");
        assert!(json.contains("\"kind\":\"drain-started\""), "{json}");
        assert_eq!(
            fleet_events_hash(&events),
            fleet_events_hash(&events.clone())
        );
    }
}
