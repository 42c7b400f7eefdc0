//! Shared measurement plumbing: run budgets, host-time statistics, the
//! simulated counters every op is checked against, and the metric
//! record the report prints.

use reach_core::percentiles;
use reach_sim::Machine;
use std::time::{Duration, Instant};

/// How much work one measured loop does. Every loop finishes at least
/// one whole pass, whatever the budget.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Keep starting passes until this much host time has gone by.
    Time(Duration),
    /// Run exactly this many passes (tests: fast and deterministic).
    Passes(u64),
}

impl Budget {
    /// True while another pass should start, `done` passes in, the loop
    /// having started at `start`.
    pub fn more(&self, start: Instant, done: u64) -> bool {
        match *self {
            Budget::Time(d) => done == 0 || start.elapsed() < d,
            Budget::Passes(n) => done < n.max(1),
        }
    }
}

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The simulated counters of one op. Each op of a given program is
/// deterministic, so every op must reproduce its reference exactly; a
/// mismatch is counted as a failed op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub insts: u64,
    /// Cycles stalled on memory.
    pub stall: u64,
    /// Cycles spent switching contexts.
    pub switch: u64,
    /// Cycles of useful work.
    pub busy: u64,
    /// Yields that fired.
    pub yields: u64,
    /// Demand loads served by memory (missed L3).
    pub l3_misses: u64,
}

impl SimCounters {
    /// The counters a machine accumulated since cycle 0.
    pub fn of(m: &Machine) -> SimCounters {
        SimCounters {
            cycles: m.now,
            insts: m.counters.instructions,
            stall: m.counters.stall_cycles,
            switch: m.counters.switch_cycles,
            busy: m.counters.busy_cycles,
            yields: m.counters.yields_fired,
            l3_misses: m.hier.stats.demand_hits[3],
        }
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: &SimCounters) {
        self.cycles += o.cycles;
        self.insts += o.insts;
        self.stall += o.stall;
        self.switch += o.switch;
        self.busy += o.busy;
        self.yields += o.yields;
        self.l3_misses += o.l3_misses;
    }

    /// The `sim.*` per-layer metrics.
    pub fn layer_metrics(&self) -> Vec<Metric> {
        vec![
            metric("sim.stall_cycles", self.stall as f64, "cycles"),
            metric("sim.switch_cycles", self.switch as f64, "cycles"),
            metric("sim.busy_cycles", self.busy as f64, "cycles"),
            metric("sim.yields_fired", self.yields as f64, "count"),
            metric("sim.l3_misses", self.l3_misses as f64, "count"),
        ]
    }
}

/// The gated end-to-end result of one workload run.
#[derive(Clone, Debug)]
pub struct E2e {
    /// Host seconds of the fastest of the run's set-ups.
    pub setup_s: f64,
    /// Ops attempted in the measured loop.
    pub attempted: u64,
    /// Ops that did not finish or failed their check.
    pub failed: u64,
    /// Per-op host ns, grouped by what one op is summed over (a suite
    /// program for `build` and `batch`; one group for `serve`).
    pub host_ns: Vec<Vec<u64>>,
    /// Simulated metrics (deterministic).
    pub sim: SimE2e,
    /// Simulated counters of one pass (what the traced run reports as
    /// its `sim.*` layer).
    pub counters: SimCounters,
}

/// The simulated end-to-end metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct SimE2e {
    /// Simulated cycles per op.
    pub cycles_per_op: f64,
    /// Instructions retired per op.
    pub insts_per_op: f64,
    /// Median of the per-op simulated cycles.
    pub cycles_p50: u64,
    /// 99th percentile of the per-op simulated cycles.
    pub cycles_p99: u64,
    /// Original sequential cycles over instrumented interleaved cycles.
    pub speedup: f64,
}

impl E2e {
    /// Sum over groups of each group's per-op host-time percentile `p`,
    /// in ms: one pass over the suite for `build`/`batch`, one job for
    /// `serve`.
    pub fn host_ms(&self, p: f64) -> f64 {
        sum_of_percentiles(&self.host_ns, p)
    }

    /// Succeeded ops over attempted ops.
    pub fn success_ratio(&self) -> f64 {
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted.max(1) as f64
    }

    /// The `end_to_end` metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", self.setup_s, "s"),
            metric("host_ms_p1", self.host_ms(HOST_PERCENTILE), "ms"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
            metric("success_ratio", self.success_ratio(), "ratio"),
            metric("sim_cycles_per_op", self.sim.cycles_per_op, "cycles"),
            metric("sim_insts_per_op", self.sim.insts_per_op, "insts"),
            metric("sim_cycles_p50", self.sim.cycles_p50 as f64, "cycles"),
            metric("sim_cycles_p99", self.sim.cycles_p99 as f64, "cycles"),
            metric("sim_speedup", self.sim.speedup, "x"),
        ]
    }
}

/// The percentile every gated host time is taken at. Host speed on a
/// shared machine is bimodal (neighbours come and go for seconds at a
/// time, slowing every op by up to 1.5×), so a low percentile over
/// thousands of identical ops reads the undisturbed speed as long as
/// 1% of a run was undisturbed; p10 needed 10% and did not repeat.
pub const HOST_PERCENTILE: f64 = 0.01;

/// Σ over groups of the group's nearest-rank percentile `p`, ns → ms.
pub fn sum_of_percentiles(groups: &[Vec<u64>], p: f64) -> f64 {
    groups
        .iter()
        .map(|g| percentiles(g, &[p])[0] as f64)
        .sum::<f64>()
        / 1e6
}

/// Host nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Set-ups per run; the fastest is reported as `setup_s`.
pub const SETUP_REPS: usize = 10;

/// Runs `measure` over `budget` in [`SETUP_REPS`] equal segments, each
/// on a world from a fresh, timed `setup` (a pass budget is one
/// segment). Returns the last world and the fastest set-up in seconds.
///
/// Set-up time is bimodal like op time: back-to-back set-ups all take
/// the host's current speed, which flips between an undisturbed and a
/// ~1.45× slower state for seconds at a time. The median of set-ups
/// flips with the share of the run spent slow (by more than 20% between
/// two sets of ten runs); set-ups spread over the run and the fastest of
/// them read the undisturbed speed, as [`HOST_PERCENTILE`] does for ops.
/// Each world is dropped before the next is built, so peak memory holds
/// one.
pub fn segmented<W>(
    budget: Budget,
    mut setup: impl FnMut() -> W,
    mut measure: impl FnMut(&W, Budget),
) -> (W, f64) {
    let segments = match budget {
        Budget::Time(d) => vec![Budget::Time(d / SETUP_REPS as u32); SETUP_REPS],
        b @ Budget::Passes(_) => vec![b],
    };
    let mut times = Vec::with_capacity(segments.len());
    let mut world = None;
    for seg in segments {
        drop(world.take());
        let t = Instant::now();
        let w = setup();
        times.push(t.elapsed().as_secs_f64());
        measure(&w, seg);
        world = Some(w);
    }
    let fastest = times.into_iter().fold(f64::INFINITY, f64::min);
    (world.expect("at least one segment"), fastest)
}

/// Peak resident set of this process in MiB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
