//! # reach-perfbench — the repository benchmark
//!
//! Drives three workloads through the public entry points of the
//! `reach` crates and reports the end-to-end metrics of
//! `BENCHMARK.json` (`--trace 0`) or, from a separate traced run, the
//! per-layer metrics (`--trace 1`). `README.md` next to this package
//! says why each workload and metric was chosen.

pub mod common;
pub mod serve;
pub mod suite;
pub mod trace;
pub mod worlds;

use common::{Budget, Metric};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The profile → instrument → verify → lint pipeline.
    Build,
    /// Supervised fleet serving.
    Serve,
    /// Interleaved runs on the superblock tier.
    Batch,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Build, Workload::Serve, Workload::Batch];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Build => "build",
            Workload::Serve => "serve",
            Workload::Batch => "batch",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What one benchmark run reports.
pub struct Report {
    /// Checked ops attempted.
    pub attempted: u64,
    /// Checked ops that failed.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// The traced run's spans (`None` untraced).
    pub tracer: Option<trace::Tracer>,
}

/// Runs workload `w` for seed `seed`: untraced, the `end_to_end`
/// metrics; traced, the `per_layer` metrics.
pub fn run(w: Workload, seed: u64, budget: Budget, traced: bool) -> Report {
    if traced {
        let t = trace::run(w, seed, budget);
        return Report {
            attempted: t.attempted,
            failed: t.failed,
            metrics: t.metrics,
            tracer: Some(t.tracer),
        };
    }
    let e2e = match w {
        Workload::Build => suite::run(seed, suite::SuiteOp::Build, budget),
        Workload::Batch => suite::run(seed, suite::SuiteOp::Batch, budget),
        Workload::Serve => serve::run(seed, budget),
    };
    Report {
        attempted: e2e.attempted,
        failed: e2e.failed,
        metrics: e2e.metrics(),
        tracer: None,
    }
}

/// The report's last line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}
